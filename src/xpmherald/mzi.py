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

The exact route runs batches: ``_propagate`` takes one configuration per
slot of a trailing axis, ``_click_table`` propagates many setups grouped by
input shape, and ``_run_setups`` makes each slot's outcome.
``propagate_mzi``, ``run_setup`` and ``sample_shots`` are the batch of one.
The last two run ``_propagate_one``: along a phi_chi sweep the first
splitter meets one input again and again, so ``_memo`` keeps the read-only
state after it, keyed by the exact bits of bs1's (theta, phi) and of a
coherent probe's beta, the probe kind and the blocks function, and stored
when a key comes back, 8 keys at most.  A hit skips ``make_coherent``, the
input array, the gather and the first splitter, same bytes out (``elements``).
Coherent probes are truncated at ``TruncationPolicy.tail_tolerance`` (1e-10),
far below every tolerance the audits apply; ``make_coherent(beta, policy)``
is where a caller can still choose another.

The transparency test and the classical route of bright probes read the
splitter algebra as Python numbers off its one source, the entries of
``elements._bs_entries``: ``_bc_product`` for the interferometer's
substitution matrix, ``_classical_clicks`` for the entries a click needs.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Callable
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from . import elements
from .elements import BeamSplitterParams, XpmParams, _apply_chain, _bs_entries
from .errors import (
    ConditioningError,
    ConfigurationError,
    ModeMismatchError,
    check_amplitude,
    check_count,
    check_flag,
    check_real,
)
from .fock import NORM_TOL, Ensemble, MultiModeKet, condition, make_coherent

SIGNAL, PROBE, AUX = 0, 1, 2
_PHOTON_OR_VACUUM = np.eye(2)[::-1]  # a noisy photon probe's (B, label) input: |1>, |0>
_memo: dict = {}  # the post-first-splitter states of ``_propagate_one``, 8 at most

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

    def __post_init__(self):
        kinds = (BeamSplitterParams, BeamSplitterParams, XpmParams)
        if not all(map(isinstance, (self.bs1, self.bs2, self.xpm), kinds)):
            raise ConfigurationError(f"not two BeamSplitterParams and an XpmParams: {self!r}")


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
        kets = []
        for w, s, b in branches:
            amps = np.zeros(out.shape[:3], dtype=np.complex128)
            amps[s] = out[s, ..., b]
            kets.append((w, MultiModeKet._unchecked(amps)))
        try:
            return condition(Ensemble(kets), AUX, event)[1]
        except ConditioningError:
            return None


def transparent_via_angle_sum(
    theta1: float, phi1: float, phi_chi: float, k: int = 0, l: int = 1
) -> MziConfig:
    """Transparent configuration from the equal-phase constraint family:
    phi1 - phi2 a multiple of 2*pi and theta1 + theta2 a multiple of pi."""
    return _transparent_pair(theta1, phi1, phi_chi, k, l, opposite=False)


def transparent_via_angle_diff(
    theta1: float, phi1: float, phi_chi: float, k: int = 0, l: int = 0
) -> MziConfig:
    """Transparent configuration from the opposite-phase constraint family:
    phi1 - phi2 an odd multiple of pi and theta1 - theta2 a multiple of pi."""
    return _transparent_pair(theta1, phi1, phi_chi, k, l, opposite=True)


def _transparent_pair(theta1, phi1, phi_chi, k, l, opposite: bool) -> MziConfig:
    """Either family: the second splitter has the angle l*pi - theta1,
    negated when ``opposite``, and the phase phi1 - (2k + opposite)*pi.
    k and l are integers (no bool or float) small enough for the pair to
    stay transparent in double precision."""
    bs1 = BeamSplitterParams(theta1, phi1)
    for name, n in (("k", k), ("l", l)):
        if isinstance(n, bool) or not isinstance(n, Integral) or abs(n) > 2**53:
            raise ConfigurationError(f"{name} must be an integer in [-2**53, 2**53], got {n!r}")
    theta2 = theta1 - l * math.pi if opposite else l * math.pi - theta1
    bs2 = BeamSplitterParams(theta2, phi1 - (2 * k + opposite) * math.pi)
    cfg = MziConfig(bs1, bs2, XpmParams(phi_chi))
    if not is_transparent(cfg):
        raise ConfigurationError(f"theta1 {theta1}, k {k}, l {l}: rounding spoils transparency")
    return cfg


def _bc_product(cfg: MziConfig, upper: complex = 1.0) -> tuple[complex, complex, complex, complex]:
    """Entries t00, t01, t10, t11 of ``u1 diag(upper, 1) u2``, the
    substitution matrix of the interferometer whose upper arm multiplies
    by ``upper``: 1 for the empty one, the XPM phase with a signal photon."""
    if not isinstance(cfg, MziConfig):
        raise ConfigurationError(f"not an MziConfig: {cfg!r}")
    (a, b), (c, d) = _bs_entries(cfg.bs1)
    (e, f), (g, h) = _bs_entries(cfg.bs2)
    a, c = a * upper, c * upper
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


def _propagate(amps, cfgs, t_max=None, first=None) -> np.ndarray:
    """Exact propagation of an array with the mode axes laid out above: one
    configuration propagates it whole, S > 1 each propagate one slot of the
    last axis, of length S.  One chain (``_apply_chain``) serves them all."""
    stages = tuple(zip(*[(cfg.bs1, cfg.xpm, cfg.bs2) for cfg in cfgs]))
    return _apply_chain(amps, (PROBE, AUX), stages, SIGNAL, t_max, first)


def propagate_mzi(ket: MultiModeKet, cfg: MziConfig) -> MultiModeKet:
    """Exact propagation of a ket through the full setup: modes 0-2 as laid
    out above, while any further axis, such as a branch label, rides along."""
    if not isinstance(ket, MultiModeKet) or not isinstance(cfg, MziConfig):
        kinds = f"{type(ket).__name__} and {type(cfg).__name__}"
        raise ConfigurationError(f"not a MultiModeKet and an MziConfig: {kinds}")
    if ket.n_modes < 3:
        raise ModeMismatchError(f"the setup needs modes 0-2, the ket has {ket.n_modes}")
    return MultiModeKet._unchecked(_propagate(ket.amps, (cfg,)))


def coherent_outputs(
    cfg: MziConfig, beta: complex, photon_present: bool
) -> np.ndarray:
    """Classical-path (B, C) output amplitudes for a coherent probe, exact
    at any mean photon number.  Coherent amplitudes map by the transposed
    substitution matrix ``(u1 diag(e, 1) u2).T``, e the XPM phase when a
    photon is present and 1 otherwise, so a probe (beta, 0) leaves as
    beta times the first row of ``_bc_product(cfg, e)``."""
    if not isinstance(cfg, MziConfig):
        raise ConfigurationError(f"not an MziConfig: {cfg!r}")
    check_amplitude("coherent probe amplitude", beta)
    check_flag("photon_present", photon_present)
    phase = complex(math.cos(cfg.xpm.phi_chi), math.sin(cfg.xpm.phi_chi))
    t00, t01, _, _ = _bc_product(cfg, phase if photon_present else 1.0)
    return np.array((t00 * beta, t01 * beta))


def _classical_clicks(
    cfg: MziConfig, beta: complex
) -> Callable[[float], tuple[float, float]]:
    """Click probabilities (q1, q0) with and without an unabsorbed signal
    photon, classical path, as a function of the medium's absorption
    probability (see ``loss``).  The arms after the first splitter, the
    second splitter's detector column and the XPM phase are computed once;
    each call attenuates the upper arm, rotates it if the photon survives
    and mixes it onto the detector."""
    (a, b), _ = _bs_entries(cfg.bs1)
    (_, coupling), (_, h) = _bs_entries(cfg.bs2)
    upper = complex(a * beta)
    lower = h * (b * beta)
    phase = complex(math.cos(cfg.xpm.phi_chi), math.sin(cfg.xpm.phi_chi))

    def clicks(p_absorb: float) -> tuple[float, float]:
        attenuated = math.sqrt(1.0 - p_absorb) * upper
        q0 = 1.0 - math.exp(-abs(coupling * attenuated + lower) ** 2)
        return 1.0 - math.exp(-abs(coupling * (phase * attenuated) + lower) ** 2), q0

    return clicks


def _click_table(cfgs, sources, probes, require_transparent: bool) -> list[tuple]:
    """Check the arguments of ``run_setup`` and ``sample_shots`` for a batch
    of setups, one (config, source, probe) per slot, and return per slot
    the probe-branch weights, the detector-event probabilities as the rows
    ``[signal 0/1][probe branch]`` of the events no click and click, and
    the array every input branch of the slot was propagated in.

    The array has the axes (signal A, probe B, auxiliary C, probe label).
    The label has one entry for a coherent probe, and two (|1> then |0>)
    for a noisy photon probe.  Each slice is one unweighted input branch:
    the splitters act on B and C and XPM is diagonal, so no slice mixes
    with another.  Slots of one input shape (noisy photon probes, coherent
    probes of one cutoff) are one ``_propagate`` batch.  A probe brighter
    than ``BRIGHT_PROBE_MEAN_PHOTONS`` takes the classical path, no array.
    """
    check_flag("require_transparent", require_transparent)
    tables: list = [None] * len(cfgs)
    groups: dict = {}  # input shape: (slot, weights, (B, label) amplitudes) per member
    for slot, (cfg, source, probe) in enumerate(zip(cfgs, sources, probes)):
        if not isinstance(source, NoisySource):
            raise ConfigurationError(f"not a NoisySource: {source!r}")
        if not is_transparent(cfg) and require_transparent:  # is_transparent checks cfg's type
            raise ConfigurationError(
                "configuration is not transparent; pass require_transparent=False "
                "to run it anyway (the heralding guarantee is void)"
            )
        if isinstance(probe, NoisyPhotonProbe):
            weights, column = (probe.source.p, 1.0 - probe.source.p), _PHOTON_OR_VACUUM
        elif not isinstance(probe, CoherentProbe):
            raise ConfigurationError(f"not a NoisyPhotonProbe or CoherentProbe: {probe!r}")
        elif abs(probe.beta) ** 2 > BRIGHT_PROBE_MEAN_PHOTONS:
            q1, q0 = _classical_clicks(cfg, probe.beta)(0.0)
            tables[slot] = ((1.0,), ([[1.0 - q0], [1.0 - q1]], [[q0], [q1]]), None)
            continue
        elif len(cfgs) == 1:  # _propagate_one makes its column, on a memo miss only
            weights, column = (1.0,), None
        else:
            weights, column = (1.0,), make_coherent(probe.beta).amps[:, None]
        groups.setdefault(getattr(column, "shape", None), []).append((slot, weights, column))
    for members in groups.values():
        out = (_propagate_one(cfgs[0], probes[0]) if len(cfgs) == 1 else
               _propagate(_inputs([c for _, _, c in members]), [cfgs[s] for s, _, _ in members]))
        probs = (out.real**2 + out.imag**2).sum(axis=1)  # (signal, auxiliary, label, slot)
        zero = probs[:, 0].transpose(2, 0, 1).tolist()  # [slot][signal][label]
        click = probs[:, 1:].sum(axis=1).transpose(2, 0, 1).tolist()
        for at, (slot, weights, _) in enumerate(members):
            tables[slot] = (weights, (zero[at], click[at]), out[..., at])
    return tables


def _inputs(columns) -> np.ndarray:
    """The input array of slots of one shape, from their (B, label) amplitudes."""
    size, labels = columns[0].shape
    amps = np.zeros((2, size, size, labels, len(columns)), dtype=np.complex128)
    for at, column in enumerate(columns):
        amps[:, :, 0, :, at] = column
    return amps


def _propagate_one(cfg: MziConfig, probe) -> np.ndarray:
    """``_propagate`` of one slot through ``_memo`` (module docstring)."""
    coherent = isinstance(probe, CoherentProbe)
    beta = complex(probe.beta) if coherent else 0j
    bits = struct.pack("4d", cfg.bs1.theta, cfg.bs1.phi, beta.real, beta.imag)
    key = bits, coherent, elements._hadamard_blocks
    held = _memo.get(key)
    if held is not None:
        return _propagate(None, (cfg,), first=[held])
    column = make_coherent(beta).amps[:, None] if coherent else _PHOTON_OR_VACUUM
    first = [] if key in _memo else None
    out = _propagate(_inputs([column]), (cfg,), len(column) - 1, first)
    _memo[key] = first[0] if first else None
    for old in list(_memo)[:-8]:  # drop the oldest keys past 8, safe under threads
        _memo.pop(old, None)
    return out


def _run_setups(cfgs, sources, probes, require_transparent=True) -> list:
    """``run_setup`` of every slot of a batch, from one ``_click_table``."""
    outcomes = []
    tables = _click_table(cfgs, sources, probes, require_transparent)
    for source, (weights, (zero, click), out) in zip(sources, tables):
        joint = [[(1.0 - source.p) * w for w in weights], [source.p * w for w in weights]]
        p_click = sum(w * q for s in (1, 0) for w, q in zip(joint[s], click[s]))
        detection_eff = sum(w * q for w, q in zip(weights, click[1]))
        # the click-posterior weight of the photon branches
        photon_click = sum(w * q for w, q in zip(joint[1], click[1]))
        purity = photon_click / p_click if p_click > 0.0 else None
        deficit, kept = 0.0, None
        if out is not None:
            # the positive-weight (signal, label) slices, photon branches first
            branches = [(w, s, b) for s in (1, 0) for b, w in enumerate(joint[s]) if w > 0.0]
            squared_norms = [zero[s][b] + click[s][b] for _, s, b in branches]
            if not max(squared_norms) <= 1.0 + NORM_TOL:
                raise ValueError(f"propagated squared norm {max(squared_norms)} exceeds 1")
            weighted = sum(w * sq for (w, _, _), sq in zip(branches, squared_norms))
            deficit, kept = max(0.0, 1.0 - weighted), (out, branches)
        total = detection_eff * source.p
        outcomes.append(HeraldOutcome(p_click, detection_eff, total, deficit, purity, kept))
    return outcomes


def run_setup(
    cfg: MziConfig,
    source: NoisySource,
    probe: Probe,
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
    return _run_setups((cfg,), (source,), (probe,), require_transparent)[0]


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


_SHOT_CHUNK = 1 << 16  # shots per round of sample_shots, its arrays 0.5 MB each


def sample_shots(
    cfg: MziConfig,
    source: NoisySource,
    probe: Probe,
    n_shots: int,
    seed: int,
    require_transparent: bool = True,
) -> dict[str, int]:
    """Monte Carlo photodetection over repeated runs of the setup.

    One propagation of every input branch gives the click probability per
    (signal, probe branch).  A counter-based generator then draws, each for
    all shots and in this order, the source branch, the probe branch (noisy
    probe with two branches only) and the detector outcome.  Counts are
    reproducible for a given seed and shot count, both non-negative
    integers; splitting a run into batches changes them.  Each of the
    three draws runs on its own copy of the generator, started where the
    one generator would reach it, in rounds of ``_SHOT_CHUNK`` shots.
    """
    check_count("n_shots", n_shots, 1)
    check_count("seed", seed)
    setup = ((cfg,), (source,), (probe,))
    weights, (_, clicks), _ = _click_table(*setup, require_transparent)[0]
    labelled = 0.0 < weights[0] < 1.0  # two probe branches, |1> (label 0) and vacuum
    table = np.ravel(clicks) if labelled else np.array(clicks)[:, weights.index(1.0)]
    streams = []
    for offset in range(0, (3 if labelled else 2) * n_shots, n_shots):
        bits = np.random.Philox(seed)
        bits.advance(offset // 4)  # a counter yields four words, a double takes one
        streams.append(np.random.Generator(bits))
        streams[-1].random(offset % 4)
    photons = clicks_total = click_and_photon = 0
    for start in range(0, n_shots, _SHOT_CHUNK):
        size = min(_SHOT_CHUNK, n_shots - start)
        photon = streams[0].random(size) < source.p
        row = photon.view(np.uint8)  # the 0/1 table row of each shot, no copy
        if labelled:
            row = 2 * row + (streams[1].random(size) >= weights[0]).view(np.uint8)
        click = streams[-1].random(size) < table[row]
        photons += int(np.count_nonzero(photon))
        clicks_total += int(np.count_nonzero(click))
        click_and_photon += int(np.count_nonzero(click & photon))
    return {
        "click_and_photon": click_and_photon,
        "click_no_photon": clicks_total - click_and_photon,
        "no_click_photon": photons - click_and_photon,
        "no_click_no_photon": n_shots - photons - clicks_total + click_and_photon,
    }
