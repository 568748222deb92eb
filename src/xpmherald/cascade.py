"""Chained heralding setups sharing one coherent probe.

Two ways to spend a coherent state across several copies of the basic
setup, all of them at the optimal symmetric splitter:

* ``reused_probe``: one noisy photon is retried; the probe leaving a
  no-click setup feeds the next one.  A photon-bearing pass that fails to
  click shrinks the probe amplitude by |cos(phi_chi / 2)|; a vacuum signal
  leaves it untouched (the empty interferometer is transparent).
* ``shared_probe``: every setup gets its own noisy photon and the probe
  chains through all of them; the first click heralds one purified photon.

Closed-form first-click probabilities are provided next to an exact
sequential simulator (for the shared probe an O(2^N) array enumeration) and
a Monte Carlo sampler, so each route can audit the others.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EnumerationLimitError, check_count

# Exact shared-probe enumeration holds 2^(N-1) patterns, O(2^N) work in all
# and 53 MB peak at this cap.  Past it, use the closed form or Monte Carlo.
ENUMERATION_CAP = 22


@dataclass(frozen=True)
class CascadeConfig:
    """A chain of identical heralding setups.

    ``alpha`` is the coherent amplitude entering the first setup and ``p``
    the efficiency of each noisy single-photon source.
    """

    scheme: str
    n_setups: int
    alpha: complex
    phi_chi: float
    p: float

    def __post_init__(self):
        if self.scheme not in ("reused_probe", "shared_probe"):
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")
        check_count("n_setups", self.n_setups, 1)
        if not 0.0 <= self.p <= 1.0:
            raise ConfigurationError(f"source efficiency must lie in [0, 1], got {self.p}")
        if not (cmath.isfinite(self.alpha) and math.isfinite(self.phi_chi)):
            raise ConfigurationError(
                f"probe amplitude and XPM phase must be finite, got "
                f"alpha={self.alpha}, phi_chi={self.phi_chi}"
            )


@dataclass(frozen=True)
class CascadeResult:
    """First-click distribution over setups plus aggregate figures.

    ``residual_amp`` is the probe magnitude after the final setup along the
    maximally depleted path (a photon present and no click at every setup).
    """

    per_setup: np.ndarray
    total: float
    residual_amp: float


def _xpm_factors(alpha: complex, phi_chi: float) -> tuple[float, float, float]:
    """(|alpha|^2, sin^2(phi_chi / 2), cos^2(phi_chi / 2)): the probe's mean
    photon number, the share a photon-bearing setup can click on and the
    share of the probe intensity it leaves for the next setup."""
    return abs(alpha) ** 2, math.sin(phi_chi / 2.0) ** 2, math.cos(phi_chi / 2.0) ** 2


def reused_probe_pn(n: int, alpha: complex, phi_chi: float) -> float:
    """Probability that a retried photon first clicks at setup n.

    Conditional on the photon being present; each earlier setup failed to
    click and shrank the probe amplitude once.
    """
    if n < 1:
        raise ConfigurationError("setup index starts at 1")
    a2, s2, c2 = _xpm_factors(alpha, phi_chi)
    survive = 1.0
    for i in range(n - 1):
        survive *= math.exp(-a2 * s2 * c2**i)
    return survive * -math.expm1(-a2 * s2 * c2 ** (n - 1))


def reused_probe_total(
    n_setups: int, alpha: complex, phi_chi: float, p: float
) -> float:
    """Probability of heralding the retried photon within n_setups tries,
    weighted by the source efficiency.  Approaches p for a bright probe and
    many setups."""
    if n_setups < 1:
        raise ConfigurationError("a cascade needs at least one setup")
    return p * sum(reused_probe_pn(n, alpha, phi_chi) for n in range(1, n_setups + 1))


def _attenuation_sum(c2: float, k: int) -> float:
    """Geometric sum 1 + c2 + ... + c2^(k-1), safe at c2 == 1."""
    if abs(c2 - 1.0) < 1e-15:
        return float(k)
    return (1.0 - c2**k) / (1.0 - c2)


def _binomial_pmf(m: int, k: int, p: float) -> float:
    """C(m, k) p^k (1-p)^(m-k), formed in log space: the binomial
    coefficient alone overflows a float from m = 1030."""
    if p == 0.0 or p == 1.0:
        return float(k == (m if p == 1.0 else 0))
    return math.exp(
        math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
        + k * math.log(p) + (m - k) * math.log1p(-p)
    )


def shared_probe_pn(n: int, alpha: complex, phi_chi: float, p: float) -> float:
    """Probability that the first click of the shared-probe chain happens at
    setup n.

    Sums over how many of the n-1 earlier setups carried a photon: only
    those attenuated the probe (vacuum setups are transparent), and each
    had to not click given its attenuation rank.  Setup n itself must carry
    a photon and click.
    """
    if n < 1:
        raise ConfigurationError("setup index starts at 1")
    a2, s2, c2 = _xpm_factors(alpha, phi_chi)
    total = 0.0
    for k in range(n):
        pattern_weight = _binomial_pmf(n - 1, k, p)
        no_click_before = math.exp(-a2 * s2 * _attenuation_sum(c2, k))
        click_now = -p * math.expm1(-a2 * c2**k * s2)
        total += pattern_weight * no_click_before * click_now
    return total


def shared_probe_total(
    n_setups: int, alpha: complex, phi_chi: float, p: float
) -> float:
    """Probability that the shared-probe chain heralds at least one photon.
    Tends to one for a bright probe and many setups."""
    if n_setups < 1:
        raise ConfigurationError("a cascade needs at least one setup")
    return sum(
        shared_probe_pn(n, alpha, phi_chi, p) for n in range(1, n_setups + 1)
    )


def _click_prob(a2: float, s2: float, c2: float, rank: int) -> float:
    """Click probability of a photon-bearing setup whose probe was already
    attenuated ``rank`` times."""
    return 1.0 - math.exp(-a2 * s2 * c2**rank)


def _exact_reused(cfg: CascadeConfig) -> tuple[np.ndarray, float]:
    """Sequential amplitude recursion; linear in the number of setups."""
    a2, s2, c2 = _xpm_factors(cfg.alpha, cfg.phi_chi)
    per = np.zeros(cfg.n_setups)
    survive = 1.0
    for n in range(cfg.n_setups):
        q = _click_prob(a2, s2, c2, n)
        per[n] = survive * q
        survive *= 1.0 - q
    return per, cfg.p * float(per.sum())


def _exact_shared(cfg: CascadeConfig) -> tuple[np.ndarray, float]:
    """Enumeration over photon-occupancy patterns of the earlier setups,
    doubled one setup at a time (first setup in the lowest bit); ``rank``
    counts a pattern's photon-bearing, hence attenuating, setups.  Products
    and the in-order sum follow a per-pattern loop bit for bit."""
    if cfg.n_setups > ENUMERATION_CAP:
        raise EnumerationLimitError(
            f"exact shared-probe enumeration is capped at {ENUMERATION_CAP} "
            f"setups; {cfg.n_setups} requested"
        )
    a2, s2, c2 = _xpm_factors(cfg.alpha, cfg.phi_chi)
    q = np.array([_click_prob(a2, s2, c2, r) for r in range(cfg.n_setups)])
    carry = cfg.p * (1.0 - q)
    weight, rank = np.ones(1), np.zeros(1, dtype=np.int8)
    per = np.zeros(cfg.n_setups)
    for n in range(cfg.n_setups):
        if n:
            weight = np.concatenate((weight * (1.0 - cfg.p), weight * carry[rank]))
            rank = np.concatenate((rank, rank + 1))
        # cumsum adds in order; np.sum's pairwise sum would move the last bits
        per[n] = np.cumsum(weight * cfg.p * q[rank])[-1]
    return per, float(per.sum())


def _monte_carlo(cfg: CascadeConfig, shots: int, seed: int) -> tuple[np.ndarray, float]:
    a2, s2, c2 = _xpm_factors(cfg.alpha, cfg.phi_chi)
    rng = np.random.Generator(np.random.Philox(seed))
    first_click = np.zeros(cfg.n_setups, dtype=np.int64)
    alive = np.ones(shots, dtype=bool)
    rank = np.zeros(shots, dtype=np.int64)
    if cfg.scheme == "reused_probe":
        photon_chain = rng.random(shots) < cfg.p
    for n in range(cfg.n_setups):
        if cfg.scheme == "reused_probe":
            photon = photon_chain
        else:
            photon = rng.random(shots) < cfg.p
        q = 1.0 - np.exp(-a2 * s2 * c2 ** rank.astype(float))
        click = alive & photon & (rng.random(shots) < q)
        first_click[n] = int(np.count_nonzero(click))
        attenuated = alive & photon & ~click
        rank[attenuated] += 1
        alive &= ~click
    if cfg.scheme == "reused_probe":
        photon_shots = int(np.count_nonzero(photon_chain))
        per = (
            first_click / photon_shots if photon_shots else np.zeros(cfg.n_setups)
        )
    else:
        per = first_click / shots
    return np.asarray(per, dtype=float), float(first_click.sum()) / shots


def simulate_cascade(
    cfg: CascadeConfig, shots: int | None = None, seed: int | None = None
) -> CascadeResult:
    """Sequential oracle for the cascade closed forms.

    With ``shots=None`` the chain is evaluated exactly: an amplitude
    recursion for the reused probe, a full pattern enumeration for the
    shared probe (capped; see ``ENUMERATION_CAP``).  Otherwise a seeded
    Monte Carlo run of that many shots estimates the same distribution.
    ``per_setup`` follows the closed-form conventions: conditional on the
    photon being present for the reused probe, absolute for the shared one.
    """
    if shots is None:
        exact = _exact_reused if cfg.scheme == "reused_probe" else _exact_shared
        per, total = exact(cfg)
    else:
        if seed is None:
            raise ConfigurationError("Monte Carlo cascade simulation requires a seed")
        check_count("shots", shots, 1)
        check_count("seed", seed)
        per, total = _monte_carlo(cfg, shots, seed)
    residual = abs(cfg.alpha) * abs(math.cos(cfg.phi_chi / 2.0)) ** cfg.n_setups
    return CascadeResult(per, total, residual)
