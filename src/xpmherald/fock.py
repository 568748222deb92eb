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
A threshold detector on one mode has two events, no click and click, and
``condition`` is the one function that checks, weighs and projects them.

Truncated coherent states are kept sub-normalized: the missing Poisson tail
is never redistributed over the retained amplitudes.  Downstream
probabilities therefore under-count by at most the tail mass, which callers
report as an error bar instead of silently biasing results.

Kets are checked (no empty axis, finite norm at most one) where they are
built from outside data; the operations of this package return
unchecked kets, since each of them preserves both properties by
construction.  Amplitude arrays are read-only, so states can be shared
freely across workers.
"""

from __future__ import annotations

import math
import sys
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


@dataclass(frozen=True)
class TruncationPolicy:
    """How infinite-dimensional (coherent) states are truncated.

    tail_tolerance: maximum photon-number probability mass beyond the
        retained cutoff, a real in (0, 1); the cutoff is the smallest whose
        Poisson tail is below it (``np.pad`` the amplitudes for a larger one).

    The scheme routes truncate at the default, 1e-10, at the cutoff of
    ``_poisson_weights``, which ``run_setup``'s click law and the engine's
    ``make_coherent`` ket share; ``make_coherent(beta, policy)`` takes another.
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
    ``(n_1, ..., n_M)``.  The array is the whole ket and is read directly:
    the mode count is its ``ndim``, an amplitude is ``amps[occ]``, and
    ``cutoffs``, the largest retained occupations, is its shape minus one.
    Kets may be sub-normalized (squared norm below one) for truncated or
    conditioned branches, but never super-normalized.
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

    def check_modes(self, *modes: int) -> None:
        """Raise unless every mode is an integer index into the array's axes
        (a negative index would silently pick a mode from the end)."""
        for mode in modes:
            integer = isinstance(mode, (int, np.integer)) and not isinstance(mode, bool)
            if not (integer and 0 <= mode < self.amps.ndim):
                raise ModeMismatchError(f"mode {mode!r} is outside 0..{self.amps.ndim - 1}")

    def squared_norm(self) -> float:
        return _mass(self.amps)


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


def _poisson_weights(mean: float, policy=_DEFAULT_POLICY) -> tuple[np.ndarray, float]:
    """Poisson weights P(0..N) of a mean photon number and their sum, N the
    policy's cutoff (the first n whose tail 1 - sum is below the tolerance):
    a scalar loop's IEEE operations, in its order, as numpy accumulations."""
    tol = policy.tail_tolerance
    if tol < CERTIFIABLE_TAIL:
        raise TruncationError(
            f"tail tolerance {tol:.3e} is below the "
            f"double-precision certification floor {CERTIFIABLE_TAIL:.0e}",
            tail=CERTIFIABLE_TAIL,
        )
    # a sum from exp(-mean) = 0 never grows, and one from a subnormal start,
    # terms of a few significant bits, overshoots 1 and stops early
    first, sums = math.exp(-mean), (0.0,)
    normal = first >= sys.float_info.min
    # a guess that held N at every mean and tolerance tried, then every cutoff and one more
    for size in (16 + int(mean + 8.0 * math.sqrt(mean)), MAX_AUTO_CUTOFF + 1) if normal else ():
        factors = np.concatenate(((first,), mean / np.arange(1.0, size + 1.0)))
        terms = np.multiply.accumulate(factors)
        sums = np.add.accumulate(terms)
        met = 1.0 - sums[: MAX_AUTO_CUTOFF + 1] < tol
        n = int(met.argmax())
        if met[n]:
            return terms[: n + 1], float(sums[n])
    raise TruncationError(
        (f"no cutoff <= {MAX_AUTO_CUTOFF}" if normal else "exp(-|beta|^2) underflows, so no cutoff")
        + f" meets tail tolerance {tol:.3e} at mean photon number {mean:.3e}; "
        "use the classical coherent-amplitude path instead",
        tail=max(0.0, 1.0 - float(sums[-1])),
    )


def make_coherent(beta: complex, policy: TruncationPolicy | None = None) -> MultiModeKet:
    """Truncated single-mode coherent state.

    Amplitudes are ``exp(-|beta|^2/2) beta^n / sqrt(n!)`` by recurrence up
    to the cutoff of ``_poisson_weights``.  The ket is deliberately NOT
    renormalized: its norm deficit is the Poisson tail past it.  Raises
    TruncationError, carrying the achieved tail, past ``MAX_AUTO_CUTOFF``,
    below ``CERTIFIABLE_TAIL``, or at once when ``exp(-|beta|^2)`` is
    subnormal or 0 (|beta|^2 above about 708.4).
    """
    policy = _DEFAULT_POLICY if policy is None else policy
    if not isinstance(policy, TruncationPolicy):
        raise ConfigurationError(f"not a TruncationPolicy: {policy!r}")
    check_amplitude("coherent amplitude", beta)
    beta = complex(beta)
    mean = abs(beta) ** 2
    a = complex(math.exp(-mean / 2.0))
    amps = [a]
    for n in range(1, len(_poisson_weights(mean, policy)[0])):
        a = a * beta / math.sqrt(n)
        amps.append(a)
    return MultiModeKet._unchecked(np.array(amps))


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
    others = tuple(ax for ax in range(ket.amps.ndim) if ax != mode)
    return probs.sum(axis=others) / sq


def condition(ensemble: Ensemble, mode: int, event: str) -> tuple[float, Ensemble]:
    """Condition an ensemble on a detector event in one mode.

    ``event`` is ``"zero"`` (no photon seen) or ``"at_least_one"`` (click;
    the effect operator summing every occupied number state of the mode).
    Each branch keeps the slice of ``mode`` the event selects, renormalized.
    Returns the total event probability and the renormalized
    post-measurement ensemble.  Probabilities are raw squared-amplitude
    masses, so sub-normalized branch kets under-count by at most their
    truncation deficit.
    """
    if event not in ("zero", "at_least_one"):
        raise ValueError(f"unknown event {event!r}")
    total = float(sum(w for w, _ in ensemble.branches))
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"ensemble weights sum to {total}, expected 1")
    prob = 0.0
    posterior: list[tuple[float, MultiModeKet]] = []
    for w, ket in ensemble.branches:
        ket.check_modes(mode)
        index = (slice(None),) * mode + (0 if event == "zero" else slice(1, None),)
        mass = _mass(ket.amps[index])
        contribution = w * mass
        prob += contribution
        if contribution > 0.0:
            out = np.zeros_like(ket.amps)
            out[index] = ket.amps[index] * (1.0 / math.sqrt(mass))
            posterior.append((contribution, MultiModeKet._unchecked(out)))
    if prob <= 0.0:
        raise ConditioningError(f"event {event!r} on mode {mode} has probability 0")
    return prob, Ensemble([(w / prob, k) for w, k in posterior])
