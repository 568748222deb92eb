"""Phenomenological absorption in the cross-phase medium.

The medium absorbs each pass with probability ``p_absorb``: the signal
photon either survives and imprints the full phase or is absorbed and
imprints none, while the coherent probe amplitude is attenuated by the
square-root survival factor either way, vacuum signal included.  Absorption
breaks the no-false-click guarantee, because an attenuated-but-unshifted
probe no longer cancels exactly at the second beam splitter.  This module
quantifies the damage: the faulty-click probability, the degraded heralded
efficiency, and the largest absorption the scheme tolerates while still
improving on the raw source.  All three read 1 - exp(-m) of the
``mzi._detector_means`` m, y times the ``_click_weights`` (the bisection
keeps y fixed), which truncates nothing, while the exact routes of ``mzi``
truncate at ``TruncationPolicy.tail_tolerance`` (1e-10).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, ConfigurationError, check_amplitude, check_real
from .mzi import MziConfig, _click_scale, _click_weights, _detector_means, is_transparent

BISECTION_TOL = 1e-6  # max_tolerable_loss's bracket width (per 0.005 of bound below 0.005)


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
    return tuple(-math.expm1(-m) for m in _detector_means(cfg, beta, loss.p_absorb))


def _normal_click_scale(cfg: MziConfig, beta: complex) -> float:
    """y of a checked transparent ``cfg`` and ``beta``; ConfigurationError if
    the lossless detector mean x1 is positive but subnormal, where q1 and q0
    keep few digits or none (x1 is 0 only at a zero beta, theta1 or phi_chi)."""
    theta1, phi_chi = cfg.bs1.theta, cfg.xpm.phi_chi
    y = _click_scale(theta1, beta)
    x1 = y * _click_weights(phi_chi)[0]
    if x1 < sys.float_info.min and beta and math.sin(2.0 * theta1) and math.sin(phi_chi / 2.0):
        raise ConfigurationError(
            f"probe amplitude {beta!r}: click exponent {x1:.3g} is below the normal range")
    return y


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
    _normal_click_scale(cfg, beta)
    numerator = p_a * (1.0 - loss.p_absorb) * q1
    denominator = numerator + (p_a * loss.p_absorb + 1.0 - p_a) * q0
    if denominator <= 0.0:
        raise ConditioningError("total click probability is zero; heralded efficiency undefined")
    p_prime = numerator / denominator
    return LossyHeraldReport(q1=q1, q0=q0, p_prime=p_prime, improvement=p_prime > p_a)


def max_tolerable_loss(cfg: MziConfig, beta: complex, fixed_p: float | None = None) -> float:
    """Largest absorption probability at which heralding still improves the
    source, located by bisection.

    The margin (1 - p_absorb) q1 (1 - p) - (p p_absorb + 1 - p) q0 is
    positive while clicks improve a source of efficiency p = ``fixed_p``
    (None: the weak-source limit p = 0).  It is evaluated on a 201-point
    grid over [0, 1].  At full absorption q1 equals q0 and the margin is
    not positive, so the last improving grid point and the next one bracket
    the bound.  Bisection halves the bracket, 0.005 wide, until it is at
    most ``BISECTION_TOL`` wide, scaled by hi / 0.005 when its upper end hi
    is below 0.005 so that a tiny bound stays accurate relative to itself,
    or until no float lies strictly inside, and returns the midpoint.
    Returns 0 (with a diagnostic warning) when no grid point improves the
    source.
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
    y, phi_chi = _normal_click_scale(cfg, beta), cfg.xpm.phi_chi
    p = 0.0 if fixed_p is None else fixed_p

    def margin(p_absorb: float) -> float:
        a1, a0 = _click_weights(phi_chi, p_absorb)
        q1, q0 = -math.expm1(-(y * a1)), -math.expm1(-(y * a0))
        return (1.0 - p_absorb) * q1 * (1.0 - p) - (p * p_absorb + 1.0 - p) * q0

    grid = np.linspace(0.0, 1.0, 201).tolist()
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
    while hi - lo > BISECTION_TOL * min(1.0, hi / grid[1]) and lo < mid < hi:
        if margin(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


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
