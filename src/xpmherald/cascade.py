"""Chained heralding setups sharing one coherent probe.

Two ways to spend a coherent state across several copies of the basic
setup, all of them at the optimal symmetric splitter:

* ``reused_probe``: one noisy photon is retried; the probe leaving a
  no-click setup feeds the next one.  A photon-bearing pass that fails to
  click shrinks the probe amplitude by |cos(phi_chi / 2)|; a vacuum signal
  leaves it untouched (the empty interferometer is transparent).
* ``shared_probe``: every setup gets its own noisy photon and the probe
  chains through all of them; the first click heralds one purified photon.

Every number is read off one per-rank table: the click probability of a
photon-bearing setup whose probe was attenuated k times, and the no-click
exponent after k attenuations.  The closed forms are O(N).  They are audited
by routes that do not share their algebra: the O(2^N) pattern enumeration
of the shared probe, seeded Monte Carlo of both schemes, and (in
``verify``) a setup-by-setup recursion through the interferometer's own
coherent outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    EnumerationLimitError,
    check_amplitude,
    check_count,
    check_real,
)

# Exact shared-probe enumeration holds 2^(N-1) patterns, O(2^N) work in all
# and 53 MB peak at this cap.  Past it, use the closed form or Monte Carlo.
ENUMERATION_CAP = 22

# The per-rank table holds one Python entry per setup, so chains are bounded
# before any work starts; the O(N) closed forms take about 0.5 s at this cap.
MAX_SETUPS = 10**6
# Monte Carlo holds a few arrays of one entry per shot, about 40 B a shot.
MAX_SHOTS = 10**7


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
        if self.n_setups > MAX_SETUPS:
            raise ConfigurationError(f"n_setups is capped at {MAX_SETUPS}, got {self.n_setups}")
        check_amplitude("probe amplitude", self.alpha)
        check_real("XPM phase", self.phi_chi)
        check_real("source efficiency", self.p, 0.0, 1.0)


@dataclass(frozen=True)
class CascadeResult:
    """First-click distribution over setups plus aggregate figures.

    ``residual_amp`` is the probe magnitude after the final setup along the
    maximally depleted path (a photon present and no click at every setup).
    """

    per_setup: np.ndarray
    total: float
    residual_amp: float


def _rank_table(cfg: CascadeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-rank table of a chain of n setups, read off a ``CascadeConfig``,
    whose construction checks every input of the closed forms.

    With x_k = |alpha|^2 sin^2(phi_chi/2) cos^(2k)(phi_chi/2), the click
    exponent of a photon-bearing setup whose probe was attenuated k times:
    the click probabilities 1 - exp(-x_k) for k < n and the no-click
    exponents S_k = x_0 + ... + x_(k-1) for k <= n.  Scalar libm entries,
    so the enumeration matches a per-pattern loop bit for bit."""
    a2s2 = abs(cfg.alpha) ** 2 * math.sin(cfg.phi_chi / 2.0) ** 2
    c2 = math.cos(cfg.phi_chi / 2.0) ** 2
    x = [a2s2 * c2**k for k in range(cfg.n_setups)]
    click = np.array([-math.expm1(-xk) for xk in x])
    return click, np.concatenate(([0.0], np.cumsum(x)))


def _binomial_pmfs(m: int, p: float) -> np.ndarray:
    """C(m, k) p^k (1-p)^(m-k) for k = 0..m.  The log term ratios are summed
    outward from the mode and the weights normalised, so neither the binomial
    coefficient (past the float range from m = 1030) nor the rounding of
    log-factorials near 10^4 enters."""
    k = np.arange(m + 1)
    if p == 0.0 or p == 1.0:
        return (k == (m if p == 1.0 else 0)).astype(float)
    step = np.log((m - k[:-1]) / k[1:]) + (math.log(p) - math.log1p(-p))
    mode = min(m, int((m + 1) * p))
    log_w = np.zeros(m + 1)
    log_w[mode + 1:] = np.cumsum(step[mode:])
    log_w[:mode] = -np.cumsum(step[:mode][::-1])[::-1]
    pmf = np.exp(log_w)
    return pmf / pmf.sum()


def _reused(cfg: CascadeConfig) -> tuple[np.ndarray, float]:
    """First-click probabilities of a retried photon at setups 1..n, given
    it is present, and the heralding probability p (1 - exp(-S_n)): the
    no-click survivals telescope."""
    click, s = _rank_table(cfg)
    return np.exp(-s[:-1]) * click, cfg.p * -math.expm1(-s[-1])


def reused_probe_pn(n: int, alpha: complex, phi_chi: float) -> float:
    """Probability that a retried photon first clicks at setup n.

    Conditional on the photon being present; each earlier setup failed to
    click and shrank the probe amplitude once.
    """
    return float(_reused(CascadeConfig("reused_probe", n, alpha, phi_chi, 1.0))[0][-1])


def reused_probe_total(
    n_setups: int, alpha: complex, phi_chi: float, p: float
) -> float:
    """Probability of heralding the retried photon within n_setups tries,
    weighted by the source efficiency.  Approaches p for a bright probe and
    many setups."""
    return _reused(CascadeConfig("reused_probe", n_setups, alpha, phi_chi, p))[1]


def shared_probe_pn(n: int, alpha: complex, phi_chi: float, p: float) -> float:
    """Probability that the shared-probe chain first clicks at setup n.

    Sums over how many (k) of the n-1 earlier setups carried a photon: only
    those attenuated the probe (vacuum setups are transparent), and each
    had to not click given its attenuation rank.  Setup n itself must carry
    a photon and click.
    """
    click, s = _rank_table(CascadeConfig("shared_probe", n, alpha, phi_chi, p))
    return p * float(np.sum(_binomial_pmfs(n - 1, p) * np.exp(-s[:-1]) * click))


def shared_probe_total(
    n_setups: int, alpha: complex, phi_chi: float, p: float
) -> float:
    """Probability that the shared-probe chain heralds at least one photon:
    it stays dark only if all K ~ Bin(N, p) photon-bearing setups do.
    Tends to one for a bright probe and many setups; capped at one, which
    the weighted sum of saturated terms can pass by an ulp."""
    s = _rank_table(CascadeConfig("shared_probe", n_setups, alpha, phi_chi, p))[1]
    return min(1.0, float(-np.sum(_binomial_pmfs(n_setups, p) * np.expm1(-s))))


def _exact_shared(cfg: CascadeConfig) -> tuple[np.ndarray, float]:
    """Enumeration over photon-occupancy patterns of the earlier setups,
    doubled one setup at a time (first setup in the lowest bit); ``rank``
    counts a pattern's photon-bearing, hence attenuating, setups.  Products
    and the in-order sum follow a per-pattern loop bit for bit."""
    if cfg.n_setups > ENUMERATION_CAP:
        raise EnumerationLimitError(
            f"exact shared-probe enumeration is capped at {ENUMERATION_CAP} setups; "
            f"{cfg.n_setups} requested; sample instead with --shots N --seed S"
        )
    q = _rank_table(cfg)[0]
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
    q = _rank_table(cfg)[0]
    rng = np.random.Generator(np.random.Philox(seed))
    first_click = np.zeros(cfg.n_setups, dtype=np.int64)
    alive = np.ones(shots, dtype=bool)
    rank = np.zeros(shots, dtype=np.int64)
    # the reused probe draws its one photon once; the shared one per setup
    photon = rng.random(shots) < cfg.p
    for n in range(cfg.n_setups):
        if n and cfg.scheme == "shared_probe":
            photon = rng.random(shots) < cfg.p
        click = alive & photon & (rng.random(shots) < q[rank])
        first_click[n] = int(np.count_nonzero(click))
        rank[alive & photon & ~click] += 1
        alive &= ~click
    norm = int(np.count_nonzero(photon)) if cfg.scheme == "reused_probe" else shots
    return first_click / max(norm, 1), float(first_click.sum()) / shots


def simulate_cascade(
    cfg: CascadeConfig, shots: int | None = None, seed: int | None = None
) -> CascadeResult:
    """First-click distribution of a chain, exact or sampled.

    With ``shots=None`` the chain is evaluated exactly: the closed form for
    the reused probe, a full pattern enumeration for the shared probe
    (capped; see ``ENUMERATION_CAP``), which audits the shared closed form.
    Otherwise a seeded Monte Carlo run of that many shots estimates the same
    distribution for either scheme.  ``per_setup`` follows the closed-form
    conventions: conditional on the photon being present for the reused
    probe, absolute for the shared one.
    """
    if shots is None and cfg.scheme == "reused_probe":
        per, total = _reused(cfg)
    elif shots is None:
        per, total = _exact_shared(cfg)
    else:
        if seed is None:
            raise ConfigurationError("Monte Carlo cascade simulation requires a seed")
        check_count("shots", shots, 1)
        check_count("seed", seed)
        if shots > MAX_SHOTS:
            raise ConfigurationError(f"shots is capped at {MAX_SHOTS}, got {shots}")
        per, total = _monte_carlo(cfg, shots, seed)
    residual = abs(cfg.alpha) * abs(math.cos(cfg.phi_chi / 2.0)) ** cfg.n_setups
    return CascadeResult(per, total, residual)
