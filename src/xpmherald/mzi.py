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

``run_setup`` and ``sample_shots`` propagate nothing.  With C in vacuum
each probe photon reaches the detector on its own, with q_s = |t01|^2 of
the 2x2 map below given s signal photons, and a coherent probe beta sends
it m_s = |beta|^2 q_s photons on average (``_detector_means``).  Both read
one click pair (q1, q0), ``_law_clicks``: q_s for a photon probe, 1 -
exp(-m_s) for a bright coherent one, and otherwise the sum of 1 - (1 -
q_s)^n over its Poisson weights (``fock._poisson_weights``), truncated as
the engine's ket at ``TruncationPolicy.tail_tolerance`` (1e-10), far below
every tolerance the audits apply.  On a transparent setup m_s is y =
|beta|^2 sin^2(2 theta1) / 4 (``_click_scale``) times the
``_click_weights`` of the phase and absorption, which cancel nothing, so
q0 is exactly 0; ``loss``, ``cascade`` and fig4 read the same factors.

The exact route runs batches: ``_propagate`` takes one configuration per
slot of a trailing axis through ``elements._chain``, and ``_click_table``,
which the audits and the click states of a ``HeraldOutcome`` read,
propagates many setups grouped by input shape, checks every norm and
answers in the click pair (q1, q0, deficit) of ``_law_clicks``.  The
splitter algebra is read as Python numbers off ``elements._bs_entries``,
and ``_bc_product`` alone multiplies them out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral

import numpy as np

from .elements import BeamSplitterParams, XpmParams, _bs_entries, _chain
from .errors import (
    ConditioningError,
    ConfigurationError,
    ModeMismatchError,
    check_amplitude,
    check_count,
    check_flag,
    check_real,
)
from .fock import NORM_TOL, Ensemble, MultiModeKet, _poisson_weights, condition, make_coherent

SIGNAL, PROBE, AUX = 0, 1, 2
_PHOTON_OR_VACUUM = np.eye(2)[::-1, None, :, None]  # a noisy photon probe's column: |1>, |0>
_PHOTON_OR_VACUUM.flags.writeable = False

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

    @cached_property
    def _transparent(self) -> bool:
        """``is_transparent``'s verdict, computed on first use and kept."""
        t00, t01, t10, t11 = _bc_product(self)
        unit = abs(abs(t00) - 1.0) <= TRANSPARENCY_TOL
        return unit and max(abs(t01), abs(t10), abs(t11 - t00)) <= TRANSPARENCY_TOL


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
    is it times the source efficiency.  ``truncation_deficit`` is the
    coherent probe's photon-number tail past its cutoff; all probabilities
    here under-count by at most that much, and no decision reads it.  A
    noisy photon probe or a bright coherent one truncates nothing, so its
    deficit is 0.0.  All five read the click pair (q1, q0) that
    ``sample_shots`` draws from; on a transparent setup q0 is exactly 0, so
    ``p_click`` holds no vacuum branch's click mass (a vacuum source's
    ``p_click`` is 0), otherwise it holds that mass.
    ``purity_given_click`` is undefined when the click probability is 0
    and raises on access in that case.

    ``click_state`` and ``no_click_state`` are the conditioned branch
    ensembles, built by ``fock.condition`` on each read from the array the
    exact engine propagates for the run's inputs on the first read of
    either; None for an event of probability zero or a bright probe, which
    the engine does not take.  On a transparent setup ``click_state`` holds
    the photon-signal branches only, renormalized, as ``p_click`` counts
    them; ``no_click_state`` holds every branch.
    """

    p_click: float
    detection_efficiency: float
    total_success: float
    truncation_deficit: float
    purity_value: float | None = None
    # the run's (config, source, probe)
    _inputs: tuple | None = field(default=None, repr=False, compare=False)

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

    @cached_property
    def _branches(self) -> tuple[np.ndarray, list[tuple[float, int, int]]]:
        """The engine's array for ``_inputs`` and its positive-weight
        (weight, signal, label) slices, photon branches first."""
        cfg, source, probe = self._inputs
        weights, _, out = _click_table((cfg,), (probe,))[0]
        joint = [(1.0 - source.p) * w for w in weights], [source.p * w for w in weights]
        return out, [(w, s, b) for s in (1, 0) for b, w in enumerate(joint[s]) if w > 0.0]

    def _conditioned(self, event: str) -> Ensemble | None:
        """Each slice as a zero-padded 3-mode ket, conditioned on ``event``;
        on a transparent setup a click conditions the photon slices alone."""
        if self._inputs is None or self.p_click == {"at_least_one": 0.0, "zero": 1.0}[event]:
            return None  # no run, or an event of probability zero
        probe = self._inputs[2]
        if isinstance(probe, CoherentProbe) and abs(probe.beta) ** 2 > BRIGHT_PROBE_MEAN_PHOTONS:
            return None  # the bright route propagates no array
        out, branches = self._branches
        if event == "at_least_one" and self._inputs[0]._transparent:  # a vacuum signal cannot click
            total = sum(w for w, s, _ in branches if s)
            branches = [(w / total, s, b) for w, s, b in branches if s]
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
        integer = type(n) is int or isinstance(n, Integral) and not isinstance(n, bool)
        if not integer or abs(n) > 2**53:
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
    leave in the auxiliary mode toward the detector.  It vanishes on every
    transparent setup but not only there: theta1 = theta2 = pi/2, phi2 =
    phi1 + pi + a leaks rounding yet maps (B, C) by diag(e^{ia}, e^{-ia})."""
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
    if not isinstance(cfg, MziConfig):
        raise ConfigurationError(f"not an MziConfig: {cfg!r}")
    return cfg._transparent


def transparency_sign(cfg: MziConfig) -> int:
    """+1 when the empty interferometer is the strict identity, -1 when it
    negates both field operators (a per-basis-state phase (-1)^(photons))."""
    if not is_transparent(cfg):
        raise ConfigurationError("configuration is not transparent")
    return 1 if _bc_product(cfg)[0].real > 0.0 else -1


def _propagate(amps, cfgs) -> np.ndarray:
    """Exact propagation of an array with the mode axes laid out above: one
    configuration for the whole array, or S > 1 for the S slots of its last
    axis."""
    bs1, bs2, xpm = zip(*[(cfg.bs1, cfg.bs2, cfg.xpm) for cfg in cfgs])
    return _chain(amps, (PROBE, AUX), bs1, bs2, SIGNAL, xpm)


def propagate_mzi(ket: MultiModeKet, cfg: MziConfig) -> MultiModeKet:
    """Exact propagation of a ket through the full setup: modes 0-2 as laid
    out above, while any further axis, such as a branch label, rides along."""
    if not isinstance(ket, MultiModeKet) or not isinstance(cfg, MziConfig):
        kinds = f"{type(ket).__name__} and {type(cfg).__name__}"
        raise ConfigurationError(f"not a MultiModeKet and an MziConfig: {kinds}")
    if ket.amps.ndim < 3:
        raise ModeMismatchError(f"the setup needs modes 0-2, the ket has {ket.amps.ndim}")
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


def _click_scale(theta1: float, beta: complex) -> float:
    """y = |beta|^2 sin^2(2 theta1) / 4, the one brightness the clicks of a
    transparent setup with a coherent probe depend on."""
    return abs(beta) ** 2 * math.sin(2.0 * theta1) ** 2 / 4.0


def _click_weights(phi_chi: float, p_absorb: float = 0.0) -> tuple[float, float]:
    """The y-free factors |u e^{i phi_chi} - 1|^2 and (1 - u)^2 of a
    transparent setup's detector means, u = sqrt(1 - p_absorb).  Nothing
    cancels: 1 - u is p_absorb / (1 + u), |u e^{i phi_chi} - 1|^2 is
    (1 - u)^2 + 4 u sin^2(phi_chi / 2)."""
    u = math.sqrt(1.0 - p_absorb)
    dim = p_absorb / (1.0 + u)  # 1 - u
    s = math.sin(phi_chi / 2.0)
    return dim * dim + 4.0 * u * (s * s), dim * dim


def _detector_means(cfg: MziConfig, beta: complex, p_absorb: float = 0.0) -> tuple[float, float]:
    """Mean photon numbers (m1, m0) a checked coherent probe beta sends to
    the detector with a signal photon that survives the medium and without:
    |beta|^2 |t01|^2 with the upper arm u e^{i phi_chi} or u, u = sqrt(1 -
    p_absorb).  On a transparent setup, y (``_click_scale``) times the
    ``_click_weights``, so m0 is exactly 0 without absorption; on any other,
    t01 of ``_bc_product``.  The closed form assumes an exactly inverting
    splitter pair (see ``run_setup``)."""
    if cfg._transparent:
        y = _click_scale(cfg.bs1.theta, beta)
        a1, a0 = _click_weights(cfg.xpm.phi_chi, p_absorb)
        return y * a1, y * a0
    u = math.sqrt(1.0 - p_absorb)
    phase = complex(math.cos(cfg.xpm.phi_chi), math.sin(cfg.xpm.phi_chi))
    return abs(_bc_product(cfg, u * phase)[1] * beta) ** 2, abs(_bc_product(cfg, u)[1] * beta) ** 2


def _check_slot(cfg, source, probe, require_transparent: bool) -> None:
    """The input checks of ``run_setup`` and ``sample_shots``."""
    check_flag("require_transparent", require_transparent)
    if not isinstance(source, NoisySource):
        raise ConfigurationError(f"not a NoisySource: {source!r}")
    if not is_transparent(cfg) and require_transparent:  # is_transparent checks cfg's type
        raise ConfigurationError(
            "configuration is not transparent; pass require_transparent=False "
            "to run it anyway (the heralding guarantee is void)"
        )
    if not isinstance(probe, (NoisyPhotonProbe, CoherentProbe)):
        raise ConfigurationError(f"not a NoisyPhotonProbe or CoherentProbe: {probe!r}")


def _click_table(cfgs, probes) -> list[tuple]:
    """Propagate a batch of setups, one (config, probe) per slot, checked
    by the caller, and return per slot the probe-branch weights, the click
    pair (q1, q0, deficit) of ``_law_clicks`` and the array every input
    branch of the slot was propagated in; a squared norm past 1 +
    ``NORM_TOL`` in any slice raises ValueError.  q_s is the click mass of
    the slices with s signal photons and the deficit, at least 0.0, the
    norm the probe columns lack (1 - sum P(n) as in ``_law_clicks``, 0.0
    for a photon probe), each weighted by the probe branches in label order.

    The array has the axes (signal A, probe B, auxiliary C, probe label).
    The label has one entry for a coherent probe, and two (|1> then |0>)
    for a noisy photon probe.  Each slice is one unweighted input branch:
    the splitters act on B and C and XPM is diagonal, so no slice mixes
    with another.  Slots of one probe column shape (noisy photon probes,
    coherent probes of one cutoff) are one ``_propagate`` batch of the input
    their columns stand for: C in vacuum and both signal rows the column.
    A probe brighter than ``BRIGHT_PROBE_MEAN_PHOTONS`` raises
    ConfigurationError.
    """
    tables: list = [None] * len(cfgs)
    groups: dict = {}  # column shape: (slot, weights, (B, 1, label, 1) amplitudes) per member
    for slot, probe in enumerate(probes):
        if isinstance(probe, NoisyPhotonProbe):
            weights, column = (probe.source.p, 1.0 - probe.source.p), _PHOTON_OR_VACUUM
        elif abs(probe.beta) ** 2 > BRIGHT_PROBE_MEAN_PHOTONS:
            raise ConfigurationError(f"the engine takes no probe this bright: {probe!r}")
        else:
            weights, column = (1.0,), make_coherent(probe.beta).amps[:, None, None, None]
        groups.setdefault(column.shape, []).append((slot, weights, column))
    for members in groups.values():
        cols = np.concatenate([c for _, _, c in members], axis=-1)
        amps = np.zeros((2, len(cols), len(cols), *cols.shape[2:]), dtype=np.complex128)
        amps[:, :, 0] = cols[:, 0]
        out = _propagate(amps, [cfgs[s] for s, _, _ in members])
        probs = (out.real**2 + out.imag**2).sum(axis=1)  # (signal, auxiliary, label, slot)
        norm = probs.sum(axis=1).max()
        if not norm <= 1.0 + NORM_TOL:
            raise ValueError(f"propagated squared norm {norm} exceeds 1")
        tails = 1.0 - (cols.real**2 + cols.imag**2).sum(axis=(0, 1))  # (label, slot)
        rows = np.stack((*probs[::-1, 1:].sum(axis=1), tails)).transpose(2, 0, 1).tolist()
        for at, (slot, weights, _) in enumerate(members):  # rows[at]: q1, q0, tail per label
            q1, q0, tail = (sum(w * q for w, q in zip(weights, row)) for row in rows[at])
            tables[slot] = (weights, (q1, q0, max(0.0, tail)), out[..., at])
    return tables


def _law_clicks(cfg: MziConfig, probe) -> tuple[float, float, float]:
    """A checked slot's click probabilities (q1, q0) with and without a
    signal photon and its truncation deficit, from the ``_detector_means``
    m_s: p q_s for a noisy photon probe, q_s = m_s at |beta| = 1 capped at
    1; 1 - exp(-m_s) for a bright coherent one; otherwise 1 - sum P(n) (1 -
    q_s)^n over the Poisson weights P(n) of ``fock._poisson_weights``, and
    the deficit 1 - sum P(n).  A q_s of exactly 0 clicks with 0.0."""
    if isinstance(probe, NoisyPhotonProbe):
        m1, m0 = _detector_means(cfg, 1.0)
        return probe.source.p * min(m1, 1.0), probe.source.p * min(m0, 1.0), 0.0
    if abs(probe.beta) ** 2 > BRIGHT_PROBE_MEAN_PHOTONS:
        m1, m0 = _detector_means(cfg, probe.beta)
        return -math.expm1(-m1), -math.expm1(-m0), 0.0
    probs, total = _poisson_weights(abs(complex(probe.beta)) ** 2)
    photons, probs = np.arange(1.0, len(probs)), probs[1:]  # n >= 1
    # 1 - (1 - q)^n as -expm1(n log1p(-q)), exact for q near 0; a q that
    # rounds to 1 or past it sends every photon to the detector: log 0 = -inf
    logs = [math.log1p(-q) if q < 1.0 else -math.inf for q in _detector_means(cfg, 1.0)]
    q1, q0 = (0.0 - float((np.expm1(log * photons) * probs).sum()) if log else 0.0 for log in logs)
    return q1, q0, max(0.0, 1.0 - total)


def run_setup(
    cfg: MziConfig,
    source: NoisySource,
    probe: Probe,
    require_transparent: bool = True,
) -> HeraldOutcome:
    """Run the full heralding setup on a noisy signal and a chosen probe.

    Reads the click probabilities (q1, q0) of the 2x2 law (``_law_clicks``)
    and returns every figure of merit; nothing is propagated.  With p the
    source efficiency, ``p_click`` is p q1 + (1 - p) q0.  A transparent
    configuration has q0 = 0 exactly, so the click-conditioned signal state
    is the pure one-photon state and the total success probability p q1
    factors into detection efficiency times source efficiency.  Otherwise
    ``p_click`` reports the vacuum branches' click mass.  The transparent
    law assumes splitters that invert each other exactly; on a pair that
    passes ``is_transparent`` only within ``TRANSPARENCY_TOL`` the clicks
    may depart from exact propagation by about 12 max(1, |beta|^2) times it.

    The exact engine propagates the conditioned branch ensembles when
    ``click_state`` or ``no_click_state`` is first read.  A coherent probe
    brighter than ``BRIGHT_PROBE_MEAN_PHOTONS`` clicks by its mean photon
    number at the detector instead of a truncated photon-number sum:
    truncation-free, but with no branch kets (``click_state`` is None).

    ``require_transparent=False`` drops the transparency requirement, for
    exploring configurations without the heralding guarantee.
    """
    _check_slot(cfg, source, probe, require_transparent)
    q1, q0, deficit = _law_clicks(cfg, probe)
    photon_click = source.p * q1
    p_click = photon_click + (1.0 - source.p) * q0
    purity = photon_click / p_click if p_click > 0.0 else None
    return HeraldOutcome(p_click, q1, photon_click, deficit, purity, (cfg, source, probe))


def detection_efficiency(cfg: MziConfig, probe: Probe) -> float:
    """Closed-form probability that a photon present in the signal mode
    triggers the herald, for either probe choice: untruncated, from the
    ``_detector_means`` m1 of a transparent setup."""
    if not is_transparent(cfg):
        raise ConfigurationError("closed form assumes a transparent configuration")
    if isinstance(probe, NoisyPhotonProbe):  # a lone photon clicks with m1 at |beta| = 1
        return probe.source.p * _detector_means(cfg, 1.0)[0]
    if not isinstance(probe, CoherentProbe):
        raise ConfigurationError(f"not a NoisyPhotonProbe or CoherentProbe: {probe!r}")
    return -math.expm1(-_detector_means(cfg, probe.beta)[0])


# n shots resolve rates down to about 1 / n: at the cap, ten times the 1e-10
# tail tolerance to which a truncated coherent probe's cells are exact.  More
# is a config error.
MAX_SAMPLE_SHOTS = 10**9


def sample_shots(
    cfg: MziConfig,
    source: NoisySource,
    probe: Probe,
    n_shots: int,
    seed: int,
    require_transparent: bool = True,
) -> dict[str, int]:
    """Monte Carlo photodetection over repeated runs of the setup.

    ``_law_clicks`` gives q_s, the click probability with s signal photons,
    the pair ``run_setup`` reads; nothing is propagated.  With p the source
    efficiency, each shot falls in the four cells of the counts with the
    probabilities p q1, (1 - p) q0, p (1 - q1) and (1 - p) (1 - q0), so the
    counts are one multinomial draw of a Philox generator: reproducible for
    a given seed and shot count, both non-negative integers, at most
    ``MAX_SAMPLE_SHOTS`` shots.  Splitting a run into batches changes them.
    """
    check_count("n_shots", n_shots, 1)
    if n_shots > MAX_SAMPLE_SHOTS:
        raise ConfigurationError(f"n_shots is capped at {MAX_SAMPLE_SHOTS}, got {n_shots}")
    check_count("seed", seed)
    _check_slot(cfg, source, probe, require_transparent)
    q1, q0, _ = _law_clicks(cfg, probe)
    p = source.p
    cells = (p * q1, (1.0 - p) * q0, p * (1.0 - q1), (1.0 - p) * (1.0 - q0))
    counts = np.random.Generator(np.random.Philox(seed)).multinomial(n_shots, cells)
    keys = ("click_and_photon", "click_no_photon", "no_click_photon", "no_click_no_photon")
    return dict(zip(keys, counts.tolist()))
