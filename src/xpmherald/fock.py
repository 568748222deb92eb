"""Dense truncated Fock-space states for few-mode photonic simulation.

A state is a ``complex128`` array with one axis per mode, holding the
amplitude of every occupation tuple ``(n_1, ..., n_M)``; a mode's cutoff is
its axis length minus one.  The heralding setup has three modes, one of
them a single-photon register, so even at the bright-probe threshold a ket
holds only 2 x 48 x 48 = 4,608 amplitudes.  At that size a dense array is
cheaper than any sparse map: every operation below is a few whole-array
numpy calls (a phase grid, a slice, a reduction) instead of a Python loop
over occupied tuples, and the beam splitter of ``elements`` becomes one
batched matrix product over its number-conserving blocks.

Mixed states are ensembles of pure kets (weighted branch lists).  Every
mixture that occurs in this problem, such as a noisy photon source or the
absorb-or-survive loss model, is diagonal in a small set of branch kets, so
ensembles are exact and cheap; no density-matrix calculus is needed.

Truncated coherent states are kept sub-normalized: the missing Poisson tail
is never redistributed over the retained amplitudes.  Downstream
probabilities therefore under-count by at most the tail mass, which callers
report as an error bar instead of silently biasing results.

Kets are checked (no empty axis, finite norm at most one) where they are
built from outside data; the operations of this package return
unchecked kets, since each of them preserves both properties by
construction.  Amplitude arrays are read-only, and so is every state the
memo of ``mzi`` holds, so states can be shared freely across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditioningError,
    ConfigurationError,
    CutoffViolationError,
    ModeMismatchError,
    TruncationError,
    check_amplitude,
    check_count,
    check_real,
)

NORM_TOL = 1e-12

# Hard ceiling for automatic coherent-state cutoffs.  Mean photon numbers
# that need more retained occupations than this belong on the classical
# coherent-amplitude path, not in truncated Fock space.
MAX_AUTO_CUTOFF = 100_000

# Double precision cannot certify tail masses below this; a cumulative sum
# saturating to 1.0 says nothing about a 1e-300 request.
CERTIFIABLE_TAIL = 1e-15

EVENTS = ("zero", "at_least_one")


@dataclass(frozen=True)
class TruncationPolicy:
    """How infinite-dimensional (coherent) states are truncated.

    tail_tolerance: maximum photon-number probability mass beyond the
        retained cutoff, a real in (0, 1); the cutoff is the smallest whose
        Poisson tail is below it (``np.pad`` the amplitudes for a larger one).

    The scheme routes (``run_setup``, ``sample_shots``) always truncate at
    the default, 1e-10; ``make_coherent(beta, policy)`` takes another.
    """

    tail_tolerance: float = 1e-10

    def __post_init__(self):
        check_real("tail_tolerance", self.tail_tolerance, 0.0, 1.0, open_low=True, open_high=True)


_DEFAULT_POLICY = TruncationPolicy()  # built once: its checks cost a few us per call


def _mass(amps: np.ndarray) -> float:
    """Sum of squared amplitude moduli."""
    return float(np.vdot(amps, amps).real)


@dataclass(frozen=True, eq=False)
class MultiModeKet:
    """Pure state over a truncated multimode Fock basis.

    ``amps[n_1, ..., n_M]`` is the amplitude of the occupation tuple
    ``(n_1, ..., n_M)``.  The array is the whole ket: ``n_modes`` is its
    ``ndim`` and ``cutoffs``, the largest retained occupations, its shape
    minus one.  Kets may be sub-normalized (squared norm below one) for
    truncated or conditioned branches, but never super-normalized.
    """

    amps: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amps, dtype=np.complex128)
        if 0 in amps.shape:
            raise CutoffViolationError(f"amplitude shape {amps.shape} has an empty axis")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)
        sq = self.squared_norm()
        if not math.isfinite(sq):
            raise ValueError(f"squared norm {sq} is not finite")
        if sq > 1.0 + NORM_TOL:
            raise ValueError(f"squared norm {sq} exceeds 1")

    @classmethod
    def _unchecked(cls, amps: np.ndarray) -> "MultiModeKet":
        """Wrap an amplitude array an operation of this package produced;
        its dtype and norm are correct by construction."""
        ket = object.__new__(cls)
        amps.flags.writeable = False
        object.__setattr__(ket, "amps", amps)
        return ket

    @property
    def cutoffs(self) -> tuple[int, ...]:
        return tuple(n - 1 for n in self.amps.shape)

    @property
    def n_modes(self) -> int:
        return self.amps.ndim

    def check_modes(self, *modes: int) -> None:
        """Raise unless every mode is an integer index in 0..n_modes-1 (a
        negative index would silently pick a mode from the end)."""
        for mode in modes:
            integer = isinstance(mode, (int, np.integer)) and not isinstance(mode, bool)
            if not (integer and 0 <= mode < self.amps.ndim):
                raise ModeMismatchError(f"mode {mode!r} is outside 0..{self.n_modes - 1}")

    def amplitude(self, occ: tuple[int, ...]) -> complex:
        """Amplitude of one occupation tuple; zero beyond the cutoffs."""
        occ = tuple(occ)
        if len(occ) != self.amps.ndim:
            raise ModeMismatchError(
                f"occupation {occ} has {len(occ)} modes, expected {self.amps.ndim}"
            )
        if any(n < 0 or n >= size for n, size in zip(occ, self.amps.shape)):
            return 0.0 + 0.0j
        return complex(self.amps[occ])

    def squared_norm(self) -> float:
        return _mass(self.amps)

    def norm(self) -> float:
        return math.sqrt(self.squared_norm())


def _check_ket(ket) -> None:
    if not isinstance(ket, MultiModeKet):
        raise ConfigurationError(f"not a MultiModeKet: {ket!r}")


@dataclass(frozen=True)
class Ensemble:
    """Weighted list of pure branches representing a (diagonal) mixed state."""

    branches: list[tuple[float, MultiModeKet]]

    def __post_init__(self):
        for w, ket in self.branches:
            check_real("branch weight", w, 0.0, math.inf)
            _check_ket(ket)

    @property
    def total_weight(self) -> float:
        return float(sum(w for w, _ in self.branches))


def make_fock(occupations: tuple[int, ...], cutoffs: tuple[int, ...]) -> MultiModeKet:
    """Unit-norm basis ket with amplitude 1 on the given occupation tuple."""
    occ, cut = tuple(occupations), tuple(cutoffs)
    for n in occ + cut:
        check_count("each occupation and cutoff", n)
    if len(occ) != len(cut):
        raise ModeMismatchError(f"{len(occ)} occupations given for {len(cut)} cutoffs")
    if any(n > c for n, c in zip(occ, cut)):
        raise CutoffViolationError(f"occupation {occ} exceeds cutoffs {cut}")
    amps = np.zeros(tuple(c + 1 for c in cut), dtype=np.complex128)
    amps[occ] = 1.0
    return MultiModeKet(amps)


def make_coherent(beta: complex, policy: TruncationPolicy | None = None) -> MultiModeKet:
    """Truncated single-mode coherent state.

    Amplitudes are ``exp(-|beta|^2/2) beta^n / sqrt(n!)`` for n up to the
    first cutoff whose Poisson tail is below the policy's tolerance; one
    pass builds them and sums the masses.  The ket is deliberately NOT
    renormalized: its norm deficit is that tail.  Raises TruncationError,
    carrying the achieved tail, past ``MAX_AUTO_CUTOFF``, below
    ``CERTIFIABLE_TAIL``, or at once when ``exp(-|beta|^2)`` underflows to 0.
    """
    policy = _DEFAULT_POLICY if policy is None else policy
    if not isinstance(policy, TruncationPolicy):
        raise ConfigurationError(f"not a TruncationPolicy: {policy!r}")
    check_amplitude("coherent amplitude", beta)
    tol = policy.tail_tolerance
    if tol < CERTIFIABLE_TAIL:
        raise TruncationError(
            f"tail tolerance {tol:.3e} is below the "
            f"double-precision certification floor {CERTIFIABLE_TAIL:.0e}",
            tail=CERTIFIABLE_TAIL,
        )
    beta = complex(beta)
    mean = abs(beta) ** 2
    a = complex(math.exp(-mean / 2.0))
    amps = [a]
    term = cum = math.exp(-mean)
    for n in range(1, MAX_AUTO_CUTOFF + 2 if cum else 0):  # a sum from 0 never grows
        if 1.0 - cum < tol:
            return MultiModeKet._unchecked(np.array(amps))
        term *= mean / n
        cum += term
        a = a * beta / math.sqrt(n)
        amps.append(a)
    raise TruncationError(
        (f"no cutoff <= {MAX_AUTO_CUTOFF}" if cum else "exp(-|beta|^2) underflows, so no cutoff")
        + f" meets tail tolerance {tol:.3e} at mean photon number {mean:.3e}; "
        "use the classical coherent-amplitude path instead",
        tail=max(0.0, 1.0 - cum),
    )


def tensor(kets: list[MultiModeKet]) -> MultiModeKet:
    """Tensor product: occupation tuples concatenate, amplitudes multiply."""
    if not kets:
        raise ValueError("tensor of zero kets is undefined")
    for ket in kets:
        _check_ket(ket)
    amps = kets[0].amps
    for ket in kets[1:]:
        amps = np.multiply.outer(amps, ket.amps)
    return MultiModeKet._unchecked(amps)


def mode_number_distribution(ket: MultiModeKet, mode: int) -> np.ndarray:
    """Photon-number probabilities of one mode, marginal over the others.

    Entry n gives the probability of finding n photons in ``mode``,
    normalized by the ket's squared norm.
    """
    _check_ket(ket)
    ket.check_modes(mode)
    sq = ket.squared_norm()
    if sq <= 0.0:
        raise ValueError("zero-norm ket has no number distribution")
    probs = ket.amps.real**2 + ket.amps.imag**2
    others = tuple(ax for ax in range(ket.n_modes) if ax != mode)
    return probs.sum(axis=others) / sq


def _event_slice(n_modes: int, mode: int, event: str) -> tuple:
    """Index selecting the occupations of ``mode`` an event keeps."""
    index = [slice(None)] * n_modes
    index[mode] = 0 if event == "zero" else slice(1, None)
    return tuple(index)


def _event_ket(amps: np.ndarray, index: tuple, mass: float) -> MultiModeKet:
    """The ket holding the event slice ``amps[index]`` of squared-amplitude
    ``mass``, renormalized, and zero elsewhere."""
    out = np.zeros_like(amps)
    out[index] = amps[index] * (1.0 / math.sqrt(mass))
    return MultiModeKet._unchecked(out)


def event_mass(ket: MultiModeKet, mode: int, event: str) -> float:
    """Unnormalized probability of a detector event in one mode: the squared
    amplitude mass with zero (``"zero"``) or at least one
    (``"at_least_one"``) photon in ``mode``."""
    ket.check_modes(mode)
    return _mass(ket.amps[_event_slice(ket.n_modes, mode, event)])


def condition(ensemble: Ensemble, mode: int, event: str) -> tuple[float, Ensemble]:
    """Condition an ensemble on a detector event in one mode.

    ``event`` is ``"zero"`` (no photon seen) or ``"at_least_one"`` (click;
    the effect operator summing every occupied number state of the mode).
    Returns the total event probability and the renormalized
    post-measurement ensemble.  Probabilities are raw squared-amplitude
    masses, so sub-normalized branch kets under-count by at most their
    truncation deficit.
    """
    if event not in EVENTS:
        raise ValueError(f"unknown event {event!r}")
    total = ensemble.total_weight
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"ensemble weights sum to {total}, expected 1")
    prob = 0.0
    posterior: list[tuple[float, MultiModeKet]] = []
    for w, ket in ensemble.branches:
        mass = event_mass(ket, mode, event)
        contribution = w * mass
        prob += contribution
        if contribution > 0.0:
            index = _event_slice(ket.n_modes, mode, event)
            posterior.append((contribution, _event_ket(ket.amps, index, mass)))
    if prob <= 0.0:
        raise ConditioningError(
            f"event {event!r} on mode {mode} has probability 0"
        )
    return prob, Ensemble([(w / prob, k) for w, k in posterior])
