"""Dense truncated Fock-space states for few-mode photonic simulation.

A state is a ``complex128`` array of shape ``tuple(c + 1 for c in cutoffs)``
holding the amplitude of every occupation tuple ``(n_1, ..., n_M)``, with an
independent cutoff per mode.  The heralding setup has three modes, one of
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

Kets are checked (shape against cutoffs, finite norm at most one) where
they are built from outside data; the operations of this package return
unchecked kets, since each of them preserves both properties by
construction.  Amplitude arrays are read-only and all operations are pure
functions, so states can be shared freely across workers.
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

    tail_tolerance: maximum photon-number probability mass allowed beyond
        the retained cutoff.
    fixed_cutoff: retain occupations ``0..fixed_cutoff``.  ``None`` selects
        the smallest cutoff whose Poisson tail is below ``tail_tolerance``.
    """

    tail_tolerance: float = 1e-10
    fixed_cutoff: int | None = None

    def __post_init__(self):
        if not 0.0 < self.tail_tolerance < 1.0:
            raise ConfigurationError(
                f"tail_tolerance must lie in (0, 1), got {self.tail_tolerance}"
            )
        if self.fixed_cutoff is not None:
            check_count("fixed_cutoff", self.fixed_cutoff)


def _mass(amps: np.ndarray) -> float:
    """Sum of squared amplitude moduli."""
    return float(np.vdot(amps, amps).real)


@dataclass(frozen=True, eq=False)
class MultiModeKet:
    """Pure state over a truncated multimode Fock basis.

    ``amps[n_1, ..., n_M]`` is the amplitude of the occupation tuple
    ``(n_1, ..., n_M)``; ``cutoffs`` gives the largest retained occupation
    per mode, so ``amps.shape == tuple(c + 1 for c in cutoffs)``.  Kets may
    be sub-normalized (squared norm below one) when they represent
    truncated or conditioned branches, but never super-normalized.
    """

    amps: np.ndarray
    cutoffs: tuple[int, ...]

    def __post_init__(self):
        cutoffs = tuple(int(c) for c in self.cutoffs)
        if any(c < 0 for c in cutoffs):
            raise ValueError("cutoffs must be non-negative")
        amps = np.array(self.amps, dtype=np.complex128)
        if amps.ndim != len(cutoffs):
            raise ModeMismatchError(
                f"amplitudes have {amps.ndim} modes, cutoffs give {len(cutoffs)}"
            )
        if amps.shape != tuple(c + 1 for c in cutoffs):
            raise CutoffViolationError(
                f"amplitude shape {amps.shape} does not match cutoffs {cutoffs}"
            )
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "cutoffs", cutoffs)
        sq = self.squared_norm()
        if not math.isfinite(sq):
            raise ValueError(f"squared norm {sq} is not finite")
        if sq > 1.0 + NORM_TOL:
            raise ValueError(f"squared norm {sq} exceeds 1")

    @classmethod
    def _unchecked(cls, amps: np.ndarray, cutoffs: tuple[int, ...]) -> "MultiModeKet":
        """Wrap an amplitude array an operation of this package produced;
        its shape and norm are correct by construction."""
        ket = object.__new__(cls)
        amps.flags.writeable = False
        object.__setattr__(ket, "amps", amps)
        object.__setattr__(ket, "cutoffs", cutoffs)
        return ket

    @property
    def n_modes(self) -> int:
        return len(self.cutoffs)

    def check_modes(self, *modes: int) -> None:
        """Raise unless every mode index lies in 0..n_modes-1 (a negative
        index would silently pick a mode from the end)."""
        for mode in modes:
            if not 0 <= mode < self.n_modes:
                raise ModeMismatchError(f"mode {mode} is outside 0..{self.n_modes - 1}")

    def amplitude(self, occ: tuple[int, ...]) -> complex:
        """Amplitude of one occupation tuple; zero beyond the cutoffs."""
        occ = tuple(occ)
        if len(occ) != len(self.cutoffs):
            raise ModeMismatchError(
                f"occupation {occ} has {len(occ)} modes, expected {len(self.cutoffs)}"
            )
        if any(n < 0 or n > c for n, c in zip(occ, self.cutoffs)):
            return 0.0 + 0.0j
        return complex(self.amps[occ])

    def squared_norm(self) -> float:
        return _mass(self.amps)

    def norm(self) -> float:
        return math.sqrt(self.squared_norm())


@dataclass(frozen=True)
class Ensemble:
    """Weighted list of pure branches representing a (diagonal) mixed state."""

    branches: list[tuple[float, MultiModeKet]]

    def __post_init__(self):
        for w, _ in self.branches:
            if w < 0.0:
                raise ValueError(f"branch weight {w} is negative")

    @property
    def total_weight(self) -> float:
        return float(sum(w for w, _ in self.branches))


def make_fock(occupations: tuple[int, ...], cutoffs: tuple[int, ...]) -> MultiModeKet:
    """Unit-norm basis ket with amplitude 1 on the given occupation tuple."""
    occ = tuple(int(n) for n in occupations)
    cut = tuple(int(c) for c in cutoffs)
    if len(occ) != len(cut):
        raise ModeMismatchError(
            f"{len(occ)} occupations given for {len(cut)} cutoffs"
        )
    if any(n < 0 or n > c for n, c in zip(occ, cut)):
        raise CutoffViolationError(f"occupation {occ} exceeds cutoffs {cut}")
    amps = np.zeros(tuple(c + 1 for c in cut), dtype=np.complex128)
    amps[occ] = 1.0
    return MultiModeKet(amps, cut)


def _poisson_tail(mean: float, n_max: int) -> float:
    """Probability mass of a Poisson(mean) variable above n_max."""
    if mean == 0.0:
        return 0.0
    term = math.exp(-mean)
    cum = term
    for k in range(1, n_max + 1):
        term *= mean / k
        cum += term
    return max(0.0, 1.0 - cum)


def coherent_cutoff(mean_photons: float, policy: TruncationPolicy) -> int:
    """Cutoff a truncated coherent state of given mean photon number needs.

    Raises TruncationError when the policy cannot reach its tail tolerance,
    carrying the achieved tail mass.
    """
    if policy.tail_tolerance < CERTIFIABLE_TAIL:
        raise TruncationError(
            f"tail tolerance {policy.tail_tolerance:.3e} is below the "
            f"double-precision certification floor {CERTIFIABLE_TAIL:.0e}",
            tail=CERTIFIABLE_TAIL,
        )
    if policy.fixed_cutoff is not None:
        tail = _poisson_tail(mean_photons, policy.fixed_cutoff)
        if tail >= policy.tail_tolerance:
            raise TruncationError(
                f"fixed cutoff {policy.fixed_cutoff} leaves tail mass {tail:.3e} "
                f">= tolerance {policy.tail_tolerance:.3e}",
                tail=tail,
            )
        return policy.fixed_cutoff
    if mean_photons == 0.0:
        return 0
    term = math.exp(-mean_photons)
    cum = term
    for n in range(MAX_AUTO_CUTOFF + 1):
        if 1.0 - cum < policy.tail_tolerance:
            return n
        term *= mean_photons / (n + 1)
        cum += term
    raise TruncationError(
        f"no cutoff <= {MAX_AUTO_CUTOFF} meets tail tolerance "
        f"{policy.tail_tolerance:.3e} at mean photon number {mean_photons:.3e}; "
        "use the classical coherent-amplitude path instead",
        tail=max(0.0, 1.0 - cum),
    )


def make_coherent(beta: complex, policy: TruncationPolicy | None = None) -> MultiModeKet:
    """Truncated single-mode coherent state.

    Amplitudes are ``exp(-|beta|^2/2) beta^n / sqrt(n!)`` for retained n.
    The ket is deliberately NOT renormalized; its norm deficit equals the
    discarded Poisson tail and stays below the policy's tail tolerance.
    """
    policy = policy or TruncationPolicy()
    check_amplitude("coherent amplitude", beta)
    beta = complex(beta)
    mean = abs(beta) ** 2
    n_max = coherent_cutoff(mean, policy)
    amps = np.empty(n_max + 1, dtype=np.complex128)
    a = complex(math.exp(-mean / 2.0))
    amps[0] = a
    for n in range(1, n_max + 1):
        a = a * beta / math.sqrt(n)
        amps[n] = a
    return MultiModeKet(amps, (n_max,))


def tensor(kets: list[MultiModeKet]) -> MultiModeKet:
    """Tensor product: occupation tuples concatenate, amplitudes multiply."""
    if not kets:
        raise ValueError("tensor of zero kets is undefined")
    amps = kets[0].amps
    cutoffs = kets[0].cutoffs
    for ket in kets[1:]:
        amps = np.multiply.outer(amps, ket.amps)
        cutoffs = cutoffs + ket.cutoffs
    return MultiModeKet._unchecked(amps, cutoffs)


def inner(a: MultiModeKet, b: MultiModeKet) -> complex:
    """Inner product, conjugate-linear in the first argument."""
    if a.cutoffs != b.cutoffs:
        raise ModeMismatchError(
            f"mode structures differ: cutoffs {a.cutoffs} vs {b.cutoffs}"
        )
    return complex(np.vdot(a.amps, b.amps))


def mode_number_distribution(ket: MultiModeKet, mode: int) -> np.ndarray:
    """Photon-number probabilities of one mode, marginal over the others.

    Entry n gives the probability of finding n photons in ``mode``,
    normalized by the ket's squared norm.
    """
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


def _event_ket(amps: np.ndarray, index: tuple, mass: float, cutoffs: tuple) -> MultiModeKet:
    """The ket over ``cutoffs`` holding the event slice ``amps[index]`` of
    squared-amplitude ``mass``, renormalized, and zero elsewhere."""
    out = np.zeros(tuple(c + 1 for c in cutoffs), dtype=np.complex128)
    out[index] = amps[index] * (1.0 / math.sqrt(mass))
    return MultiModeKet._unchecked(out, cutoffs)


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
            posterior.append((contribution, _event_ket(ket.amps, index, mass, ket.cutoffs)))
    if prob <= 0.0:
        raise ConditioningError(
            f"event {event!r} on mode {mode} has probability 0"
        )
    return prob, Ensemble([(w / prob, k) for w, k in posterior])
