"""Phenomenological absorption in the cross-phase medium.

The medium absorbs each pass with probability ``p_absorb``: the signal
photon either survives and imprints the full phase or is absorbed and
imprints none, while the coherent probe amplitude is attenuated by the
square-root survival factor either way, vacuum signal included.  Absorption
breaks the no-false-click guarantee, because an attenuated-but-unshifted
probe no longer cancels exactly at the second beam splitter.  This module
quantifies the damage: the faulty-click probability, the degraded heralded
efficiency, and the largest absorption the scheme tolerates while still
improving on the raw source.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, ConfigurationError, check_amplitude, check_real
from .mzi import MziConfig, _classical_clicks, is_transparent


@dataclass(frozen=True)
class LossParams:
    """Per-pass absorption probability of the medium."""

    p_absorb: float

    def __post_init__(self):
        check_real("absorption probability", self.p_absorb, 0.0, 1.0)


@dataclass(frozen=True)
class LossyHeraldReport:
    """Click probabilities per branch kind and the resulting source quality.

    q1: click probability when the signal photon survived (phase imparted).
    q0: click probability when it was absorbed or never there.
    p_prime: heralded efficiency under loss; ``improvement`` records whether
    conditioning on clicks still beats the raw source efficiency.
    """

    q1: float
    q0: float
    p_prime: float
    improvement: bool


def lossy_click_probs(
    cfg: MziConfig, beta: complex, loss: LossParams
) -> tuple[float, float]:
    """Click probabilities (q1, q0) of the lossy setup on the classical path.

    q1 conditions on the signal photon surviving the medium, q0 on it being
    absorbed or absent (both leave the probe attenuated and unshifted, so
    they click alike).  Any q0 above zero is the faulty-click mechanism.
    """
    check_amplitude("probe amplitude", beta)
    if not isinstance(loss, LossParams):
        raise ConfigurationError(f"not a LossParams: {loss!r}")
    if not is_transparent(cfg):
        raise ConfigurationError("lossy click analysis assumes transparency")
    return _classical_clicks(cfg, beta)(loss.p_absorb)


def lossy_heralded_efficiency(
    p_a: float, cfg: MziConfig, beta: complex, loss: LossParams
) -> LossyHeraldReport:
    """Heralded source efficiency under absorption.

    The conditional probability of one photon leaving the signal mode given
    a click, over the three branches of the loss model: photon survived
    (clicks with q1, photon present at the output), photon absorbed, and
    photon never emitted (both click with q0, nothing at the output).
    """
    check_real("source efficiency", p_a, 0.0, 1.0, open_low=True)
    q1, q0 = lossy_click_probs(cfg, beta, loss)
    survive = 1.0 - loss.p_absorb
    numerator = p_a * survive * q1
    denominator = numerator + (p_a * loss.p_absorb + 1.0 - p_a) * q0
    if denominator <= 0.0:
        raise ConditioningError(
            "total click probability is zero; heralded efficiency undefined"
        )
    p_prime = numerator / denominator
    return LossyHeraldReport(
        q1=q1, q0=q0, p_prime=p_prime, improvement=p_prime > p_a
    )


def _improvement_margin(
    cfg: MziConfig, beta: complex, fixed_p: float | None
) -> Callable[[float], float]:
    """Margin over the absorption, positive while clicks improve the source:
    (1 - p_absorb) q1 (1 - p) - (p p_absorb + 1 - p) q0 at source efficiency
    p = ``fixed_p``.  ``fixed_p=None`` is the weak-source limit p = 0, where
    the margin is exactly (1 - p_absorb) q1 - q0.
    """
    clicks = _classical_clicks(cfg, beta)
    p = 0.0 if fixed_p is None else fixed_p

    def margin(p_absorb: float) -> float:
        q1, q0 = clicks(p_absorb)
        return (1.0 - p_absorb) * q1 * (1.0 - p) - (p * p_absorb + 1.0 - p) * q0

    return margin


def max_tolerable_loss(
    cfg: MziConfig, beta: complex, fixed_p: float | None = None, tol: float = 1e-6
) -> float:
    """Largest absorption probability at which heralding still improves the
    source, located by bisection to ``tol``.

    Transparency is checked and the absorption-independent probe amplitudes
    are computed once per solve; each margin evaluation only applies the
    attenuation and the second splitter.  The margin is evaluated on a
    201-point grid over [0, 1].  At full absorption q1 equals q0 and the
    margin is not positive, so the last improving grid point is followed by
    a non-improving one, and the two bracket the bound.  Bisection halves
    the bracket until it is at most ``tol`` wide, or until its midpoint is
    no longer strictly inside it, and returns the midpoint.  Returns 0 (with
    a diagnostic warning) when no grid point improves the source.
    """
    if not is_transparent(cfg):  # is_transparent also checks cfg's type
        raise ConfigurationError("loss bound assumes a transparent configuration")
    if not cfg.xpm.working:
        raise ConfigurationError("inert cross-phase medium: no click mechanism exists")
    check_amplitude("probe amplitude", beta)
    if abs(beta) <= 0.0:
        raise ConfigurationError("probe amplitude must be nonzero")
    if fixed_p is not None:
        check_real("fixed source efficiency", fixed_p, 0.0, 1.0)
    check_real("bisection tolerance", tol, 0.0, math.inf, open_low=True)

    margin = _improvement_margin(cfg, beta, fixed_p)
    grid = np.linspace(0.0, 1.0, 201)
    improving = [i for i, x in enumerate(grid) if margin(x) > 0.0]
    if not improving:
        warnings.warn(
            "no positive absorption keeps the heralded efficiency above the "
            "raw source; returning 0",
            stacklevel=2,
        )
        return 0.0
    lo, hi = grid[improving[-1]], grid[improving[-1] + 1]
    mid = 0.5 * (lo + hi)
    while hi - lo > tol and lo < mid < hi:
        if margin(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return float(mid)


# Independently reported upper bounds used as comparison targets by the
# loss-bounds experiment: (phi_chi, |beta|^2, reference bound).  The exact
# improvement criterion behind the weak-phase (10 mrad) entries is not
# stated with the numbers; computed values are reported next to them with
# their deviation rather than forced to agree.
REFERENCE_LOSS_BOUNDS: list[tuple[float, float, float]] = [
    (math.pi, 1.0, 0.80),
    (math.pi, 1.0e2, 0.35),
    (math.pi, 1.0e4, 0.06),
    (0.010, 1.0e2, 0.021),
    (0.010, 1.0e4, 0.020),
    (0.010, 1.0e6, 0.008),
]
