"""The heralding interferometer.

Mode layout, fixed throughout the package:

* mode 0: signal A, fed by a noisy single-photon source,
* mode 1: probe B, upper interferometer arm, shares the XPM medium with A,
* mode 2: auxiliary C, lower arm, enters as vacuum and ends on a detector.

The pipeline is first beam splitter on (B, C), cross-phase gate on (A, B),
second beam splitter on (B, C), then the click/no-click effect on C.  When
the two beam splitters invert each other the empty interferometer is
transparent: with vacuum in A no photon can ever reach the detector, so a
click certifies a photon in A.  Conditioning on clicks then leaves a pure
one-photon state in the signal mode.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .elements import BeamSplitterParams, XpmParams, _apply_chain, _bs_entries, bs_unitary
from .errors import (
    ConditioningError,
    ConfigurationError,
    check_amplitude,
    check_count,
    check_real,
)
from .fock import (
    NORM_TOL,
    Ensemble,
    MultiModeKet,
    TruncationPolicy,
    condition,
    make_coherent,
)

SIGNAL, PROBE, AUX = 0, 1, 2

# Above this probe mean photon number the classical coherent path is the
# default: truncation would need cutoffs far beyond what truncated Fock
# propagation buys, while the classical path is exact at any brightness.
BRIGHT_PROBE_MEAN_PHOTONS = 16.0


@dataclass(frozen=True)
class MziConfig:
    """Full interferometer parameterization: both beam splitters plus the
    cross-phase strength of the medium in the upper arm."""

    bs1: BeamSplitterParams
    bs2: BeamSplitterParams
    xpm: XpmParams


@dataclass(frozen=True)
class NoisySource:
    """Imperfect single-photon source: emits one photon with probability p
    (its efficiency), vacuum otherwise."""

    p: float

    def __post_init__(self):
        check_real("source efficiency", self.p, 0.0, 1.0)


@dataclass(frozen=True)
class NoisyPhotonProbe:
    """Probe arm fed by a second noisy single-photon source."""

    source: NoisySource

    def __post_init__(self):
        if not isinstance(self.source, NoisySource):
            raise ConfigurationError(f"not a NoisySource: {self.source!r}")


@dataclass(frozen=True)
class CoherentProbe:
    """Probe arm fed by a coherent state of amplitude beta."""

    beta: complex

    def __post_init__(self):
        check_amplitude("coherent probe amplitude", self.beta)


Probe = NoisyPhotonProbe | CoherentProbe


@dataclass(frozen=True)
class HeraldOutcome:
    """Everything a single run of the setup yields.

    ``detection_efficiency`` is the click probability given a photon in the
    signal mode, for any source, a vacuum source included; ``total_success``
    is it times the source efficiency.  ``truncation_deficit`` bounds the
    probability mass lost to coherent-state truncation; all probabilities
    here under-count by at most that much.
    ``purity_given_click`` is undefined when the click probability vanishes
    and raises on access in that case.

    ``click_state`` and ``no_click_state`` are the conditioned branch
    ensembles, built by ``fock.condition`` on each read from the array the
    run propagated; they are None for an event of probability zero and on
    the classical path, which propagates no array.
    """

    p_click: float
    detection_efficiency: float
    total_success: float
    truncation_deficit: float
    purity_value: float | None = None
    # the propagated array and its positive-weight (weight, signal, label)
    # slices, photon branches first
    _branches: tuple[np.ndarray, list[tuple[float, int, int]]] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def purity_given_click(self) -> float:
        if self.purity_value is None:
            raise ConditioningError(
                "click probability is zero; the click-conditioned signal "
                "state is undefined"
            )
        return self.purity_value

    click_state = property(lambda self: self._conditioned("at_least_one"))
    no_click_state = property(lambda self: self._conditioned("zero"))

    def _conditioned(self, event: str) -> Ensemble | None:
        """Each slice as a zero-padded 3-mode ket, conditioned on ``event``."""
        if self._branches is None:
            return None
        out, branches = self._branches
        cuts = (1, out.shape[1] - 1, out.shape[2] - 1)
        kets = []
        for w, s, b in branches:
            amps = np.zeros(out.shape[:3], dtype=np.complex128)
            amps[s] = out[s, ..., b]
            kets.append((w, MultiModeKet._unchecked(amps, cuts)))
        try:
            return condition(Ensemble(kets), AUX, event)[1]
        except ConditioningError:
            return None


def transparent_via_angle_sum(
    theta1: float, phi1: float, phi_chi: float, k: int = 0, l: int = 1
) -> MziConfig:
    """Transparent configuration from the equal-phase constraint family:
    phi1 - phi2 a multiple of 2*pi and theta1 + theta2 a multiple of pi."""
    return MziConfig(
        bs1=BeamSplitterParams(theta1, phi1),
        bs2=BeamSplitterParams(l * math.pi - theta1, phi1 - 2.0 * k * math.pi),
        xpm=XpmParams(phi_chi),
    )


def transparent_via_angle_diff(
    theta1: float, phi1: float, phi_chi: float, k: int = 0, l: int = 0
) -> MziConfig:
    """Transparent configuration from the opposite-phase constraint family:
    phi1 - phi2 an odd multiple of pi and theta1 - theta2 a multiple of pi."""
    return MziConfig(
        bs1=BeamSplitterParams(theta1, phi1),
        bs2=BeamSplitterParams(theta1 - l * math.pi, phi1 - (2 * k + 1) * math.pi),
        xpm=XpmParams(phi_chi),
    )


def _bc_product(cfg: MziConfig) -> tuple[complex, complex, complex, complex]:
    """Entries t00, t01, t10, t11 of the empty interferometer's substitution matrix."""
    if not isinstance(cfg, MziConfig):
        raise ConfigurationError(f"not an MziConfig: {cfg!r}")
    (a, b), (c, d) = _bs_entries(cfg.bs1)
    (e, f), (g, h) = _bs_entries(cfg.bs2)
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def vacuum_leak_amplitude(cfg: MziConfig) -> complex:
    """Amplitude for a lone probe photon, with vacuum in the signal mode, to
    leave in the auxiliary mode toward the detector.  Transparency is
    exactly its vanishing (for every input, see ``is_transparent``)."""
    return complex(_bc_product(cfg)[1])


# Entrywise slack of the transparency test, far above 2x2-product rounding.
TRANSPARENCY_TOL = 1e-9


def is_transparent(cfg: MziConfig) -> bool:
    """Whether the empty interferometer leaves every (B, C) input unchanged.

    Checked at the operator level: the composite substitution matrix must be
    a multiple of the identity, which is robust against angle aliasing.  The
    multiple is +1 or -1; the -1 case flips the sign of both field operators,
    which changes no photon statistics anywhere (see ``transparency_sign``).
    """
    t00, t01, t10, t11 = _bc_product(cfg)
    unit = abs(abs(t00) - 1.0) <= TRANSPARENCY_TOL
    return unit and max(abs(t01), abs(t10), abs(t11 - t00)) <= TRANSPARENCY_TOL


def transparency_sign(cfg: MziConfig) -> int:
    """+1 when the empty interferometer is the strict identity, -1 when it
    negates both field operators (a per-basis-state phase (-1)^(photons))."""
    if not is_transparent(cfg):
        raise ConfigurationError("configuration is not transparent")
    return 1 if _bc_product(cfg)[0].real > 0.0 else -1


def propagate_mzi(ket: MultiModeKet, cfg: MziConfig) -> MultiModeKet:
    """Exact propagation of a ket through the full setup: modes 0-2 as laid
    out above, while any further axis, such as a branch label, rides along.
    One chain in the block layout of (B, C): one gather, four batched real
    products and one scatter."""
    return _apply_chain(ket, (PROBE, AUX), (cfg.bs1, cfg.xpm, cfg.bs2), SIGNAL)


def coherent_outputs(
    cfg: MziConfig, beta: complex, photon_present: bool
) -> np.ndarray:
    """Classical-path (B, C) output amplitudes for a coherent probe, exact
    at any mean photon number.  Coherent amplitudes map by the transposed
    substitution matrix ``(u1 diag(e, 1) u2).T``, e the XPM phase when a
    photon is present and 1 otherwise; ``_classical_clicks`` reads the same
    entries."""
    phase = complex(math.cos(cfg.xpm.phi_chi), math.sin(cfg.xpm.phi_chi))
    arm = np.diag((phase if photon_present else 1.0, 1.0))
    return (bs_unitary(cfg.bs1) @ arm @ bs_unitary(cfg.bs2)).T @ np.array((beta, 0.0))


def _classical_clicks(
    cfg: MziConfig, beta: complex
) -> Callable[[float], tuple[float, float]]:
    """Click probabilities (q1, q0) with and without an unabsorbed signal
    photon, classical path, as a function of the medium's absorption
    probability (see ``loss``).  The arms after the first splitter, the
    second splitter's detector column and the XPM phase are computed once;
    each call attenuates the upper arm, rotates it if the photon survives
    and mixes it onto the detector."""
    u1, u2 = bs_unitary(cfg.bs1), bs_unitary(cfg.bs2)
    upper = complex(u1[0, 0] * beta)
    coupling, lower = u2[0, 1], u2[1, 1] * (u1[0, 1] * beta)
    phase = complex(math.cos(cfg.xpm.phi_chi), math.sin(cfg.xpm.phi_chi))

    def clicks(p_absorb: float) -> tuple[float, float]:
        attenuated = math.sqrt(1.0 - p_absorb) * upper
        q0 = 1.0 - math.exp(-abs(coupling * attenuated + lower) ** 2)
        return 1.0 - math.exp(-abs(coupling * (phase * attenuated) + lower) ** 2), q0

    return clicks


def _click_table(
    cfg: MziConfig, source: NoisySource, probe: Probe, policy, require_transparent: bool
) -> tuple[tuple[float, ...], tuple[list, list], np.ndarray | None]:
    """Check the arguments of ``run_setup`` and ``sample_shots``, and return
    the probe-branch weights, the detector-event probabilities as the rows
    ``[signal 0/1][probe branch]`` of the events no click and click, and
    the array every input branch was propagated in.

    The array has the axes (signal A, probe B, auxiliary C, probe label).
    The label has one entry for a coherent probe, and two (|1> then |0>)
    for a noisy photon probe.  Each slice is one unweighted input branch:
    the splitters act on B and C and XPM is diagonal, so no slice mixes
    with another and one propagation serves them all.  A probe brighter
    than ``BRIGHT_PROBE_MEAN_PHOTONS`` takes the classical path, and no
    array is built.
    """
    if not isinstance(source, NoisySource):
        raise ConfigurationError(f"not a NoisySource: {source!r}")
    if not is_transparent(cfg) and require_transparent:  # is_transparent checks cfg's type
        raise ConfigurationError(
            "configuration is not transparent; pass require_transparent=False "
            "to run it anyway (the heralding guarantee is void)"
        )
    if isinstance(probe, NoisyPhotonProbe):
        weights = (probe.source.p, 1.0 - probe.source.p)
        amps = np.zeros((2, 2, 2, 2), dtype=np.complex128)
        amps[:, 1, 0, 0] = amps[:, 0, 0, 1] = 1.0
    elif not isinstance(probe, CoherentProbe):
        raise ConfigurationError(f"not a NoisyPhotonProbe or CoherentProbe: {probe!r}")
    elif abs(probe.beta) ** 2 > BRIGHT_PROBE_MEAN_PHOTONS:
        q1, q0 = _classical_clicks(cfg, probe.beta)(0.0)
        return (1.0,), ([[1.0 - q0], [1.0 - q1]], [[q0], [q1]]), None
    else:
        weights = (1.0,)
        b_amps = make_coherent(probe.beta, policy).amps
        amps = np.zeros((2, b_amps.size, b_amps.size, 1), dtype=np.complex128)
        amps[:, :, 0, 0] = b_amps
    cut = amps.shape[1] - 1
    ket = MultiModeKet._unchecked(amps, (1, cut, cut, len(weights) - 1))
    out = propagate_mzi(ket, cfg).amps
    probs = (out.real**2 + out.imag**2).sum(axis=1)  # (signal, auxiliary, label)
    return weights, (probs[:, 0].tolist(), probs[:, 1:].sum(axis=1).tolist()), out


def run_setup(
    cfg: MziConfig,
    source: NoisySource,
    probe: Probe,
    policy: TruncationPolicy | None = None,
    require_transparent: bool = True,
) -> HeraldOutcome:
    """Run the full heralding setup on a noisy signal and a chosen probe.

    Propagates the complete input ensemble exactly, applies the detector
    effect on the auxiliary mode, and returns every figure of merit.  With a
    transparent configuration the click-conditioned signal state is the pure
    one-photon state (up to the truncation deficit) and the total success
    probability factors into detection efficiency times source efficiency.

    Only scalars are computed here; the conditioned branch ensembles are
    built when ``click_state`` or ``no_click_state`` is read.  A coherent
    probe brighter than ``BRIGHT_PROBE_MEAN_PHOTONS`` is routed through the
    exact classical coherent path instead of truncated Fock propagation;
    probabilities are then truncation-free but there are no branch kets
    (``click_state`` is None).

    ``require_transparent=False`` drops the transparency requirement, for
    exploring configurations without the heralding guarantee.
    """
    weights, (zero, click), out = _click_table(cfg, source, probe, policy, require_transparent)
    joint = [[(1.0 - source.p) * w for w in weights], [source.p * w for w in weights]]
    p_click = sum(w * q for s in (1, 0) for w, q in zip(joint[s], click[s]))
    detection_eff = sum(w * q for w, q in zip(weights, click[1]))
    # the click-posterior weight of the photon branches
    photon_click = sum(w * q for w, q in zip(joint[1], click[1]))
    purity = photon_click / p_click if p_click > 0.0 else None
    total = detection_eff * source.p
    if out is None:
        return HeraldOutcome(p_click, detection_eff, total, 0.0, purity)
    # the positive-weight (signal, label) slices, photon branches first
    branches = [(w, s, b) for s in (1, 0) for b, w in enumerate(joint[s]) if w > 0.0]
    squared_norms = [zero[s][b] + click[s][b] for _, s, b in branches]
    if not max(squared_norms) <= 1.0 + NORM_TOL:
        raise ValueError(f"propagated squared norm {max(squared_norms)} exceeds 1")
    deficit = max(0.0, 1.0 - sum(w * sq for (w, _, _), sq in zip(branches, squared_norms)))
    return HeraldOutcome(p_click, detection_eff, total, deficit, purity, (out, branches))


def _single_photon_factor(theta1: float, phi_chi: float) -> float:
    """sin^2(phi_chi / 2) * sin^2(2 theta1); the caller checks transparency."""
    return math.sin(phi_chi / 2.0) ** 2 * math.sin(2.0 * theta1) ** 2


def _coherent_efficiency(theta1: float, phi_chi: float, beta: complex) -> float:
    """Coherent-probe detection efficiency; the caller checks transparency."""
    return 1.0 - math.exp(-abs(beta) ** 2 * _single_photon_factor(theta1, phi_chi))


def detection_efficiency(cfg: MziConfig, probe: Probe) -> float:
    """Closed-form probability that a photon present in the signal mode
    triggers the herald, for either probe choice."""
    if not is_transparent(cfg):
        raise ConfigurationError("closed form assumes a transparent configuration")
    if isinstance(probe, NoisyPhotonProbe):
        return _single_photon_factor(cfg.bs1.theta, cfg.xpm.phi_chi) * probe.source.p
    if not isinstance(probe, CoherentProbe):
        raise ConfigurationError(f"not a NoisyPhotonProbe or CoherentProbe: {probe!r}")
    return _coherent_efficiency(cfg.bs1.theta, cfg.xpm.phi_chi, probe.beta)


def sample_shots(
    cfg: MziConfig,
    source: NoisySource,
    probe: Probe,
    n_shots: int,
    seed: int,
    policy: TruncationPolicy | None = None,
    require_transparent: bool = True,
) -> dict[str, int]:
    """Monte Carlo photodetection over repeated runs of the setup.

    One propagation of every input branch gives the click probability per
    (signal, probe branch).  A counter-based generator then draws, each for
    all shots and in this order, the source branch, the probe branch (noisy
    probe with two branches only) and the detector outcome.  Counts are
    reproducible for a given seed and shot count, both non-negative
    integers; splitting a run into batches changes them.
    """
    check_count("n_shots", n_shots, 1)
    check_count("seed", seed)
    weights, (_, clicks), _ = _click_table(cfg, source, probe, policy, require_transparent)
    rng = np.random.Generator(np.random.Philox(seed))
    photon = rng.random(n_shots) < source.p
    signal = photon.view(np.uint8)  # the 0/1 table row of each shot, no copy
    if 0.0 < weights[0] < 1.0:
        # a noisy probe of two branches: label 0 is |1>, label 1 the vacuum
        label = (rng.random(n_shots) >= weights[0]).view(np.uint8)
        p_click = np.ravel(clicks)[2 * signal + label]  # one gather from the flat table
    else:
        p_click = np.array(clicks)[:, weights.index(1.0)][signal]  # the one certain branch
    click = rng.random(n_shots) < p_click
    return {
        "click_and_photon": int(np.count_nonzero(click & photon)),
        "click_no_photon": int(np.count_nonzero(click & ~photon)),
        "no_click_photon": int(np.count_nonzero(~click & photon)),
        "no_click_no_photon": int(np.count_nonzero(~click & ~photon)),
    }
