"""Beam-splitter and cross-phase-modulation primitives on dense Fock kets.

Beam-splitter sign convention, fixed once and used everywhere: the creation
operator of input 1 maps to ``cos(theta) a1' + exp(-i phi) sin(theta) a2'``
and that of input 2 to ``-exp(i phi) sin(theta) a1' + cos(theta) a2'``.
The interferometer transparency constraints depend on this convention, so
its entries (``_bs_entries``) are the one source of the splitter algebra.
The exact path reads a Mach-Zehnder form, two fixed real 50:50 splitters
around phases, off the same entries, and the classical path of ``mzi``
multiplies them out as numbers, so the only number-conserving blocks built
are the angle-free ones of the 50:50 splitter.  Splitters and XPM phases all
conserve the photon total of the splitter modes, so the interferometer
of ``mzi`` runs as one gather, four batched real products and one scatter.
The angles and phases enter only as diagonals around those blocks, so
configurations on the slots of a trailing axis share that whole chain.
The chain returns its state after a mixing first stage, read-only and a
function of the input and that stage alone; no stage writes a state, so a run
resumed from it (``mzi`` memoizes it) repeats every operation of an unbroken one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, CutoffViolationError, check_real
from .fock import MultiModeKet


@dataclass(frozen=True)
class BeamSplitterParams:
    """Beam splitter angles: cos^2(theta) reflectivity, sin^2(theta)
    transmittivity, phi the relative phase."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        check_real("beam splitter angle theta", self.theta)
        check_real("beam splitter phase phi", self.phi)


@dataclass(frozen=True)
class XpmParams:
    """Cross-phase-modulation strength, the accumulated phase per photon pair."""

    phi_chi: float

    def __post_init__(self):
        check_real("XPM phase", self.phi_chi)

    @property
    def working(self) -> bool:
        """False when the phase is an integer multiple of 2*pi (inert XPM)."""
        residue = self.phi_chi % (2.0 * math.pi)
        return min(residue, 2.0 * math.pi - residue) > 1e-9


def _bs_entries(p: BeamSplitterParams) -> tuple[tuple[complex, complex], ...]:
    """The splitter's 2x2 creation-operator substitution matrix as nested
    tuples of Python numbers."""
    c, s, ph = math.cos(p.theta), math.sin(p.theta), cmath.rect(1.0, p.phi)
    return ((c, s / ph), (-s * ph, c))


def _block_recurrence(u: np.ndarray, t_max: int) -> np.ndarray:
    """Number-conserving blocks of the two-mode splitter with substitution
    matrix ``u``, for total photon numbers 0..t_max.

    Returns ``blocks`` of shape ``(t_max + 1,) * 3`` and the dtype of ``u``,
    with ``blocks[T, p, n] = <p, T-p| U |n, T-n>`` for p, n <= T and zeros
    elsewhere.  Block T follows from block T-1 by one creation operator:
    ``|n, T-n> = a1+ |n-1, T-n> / sqrt(n)`` or
    ``|n, T-n> = a2+ |n, T-n-1> / sqrt(T-n)``, where ``U ak+ U^-1 =
    u[k, 0] b1+ + u[k, 1] b2+`` and ``b1+ |p-1, q> = sqrt(p) |p, q>``.
    """
    blocks = np.zeros((t_max + 1,) * 3, dtype=u.dtype)
    blocks[0, 0, 0] = 1.0
    roots = np.sqrt(np.arange(t_max + 1, dtype=float))
    inv_roots = np.zeros(t_max + 1)
    inv_roots[1:] = 1.0 / roots[1:]
    # coefficient of an output photon added to mode 1 / mode 2, per input
    # photon added to mode 1 (row 0 of u) or mode 2 (row 1 of u), with the
    # 1/sqrt of the fed input occupation folded in
    w = u[:, :, None] * inv_roots
    scratch = np.empty((t_max, t_max), dtype=u.dtype)
    for t in range(1, t_max + 1):
        prev = blocks[t - 1, :t, :t]
        out = blocks[t, : t + 1, : t + 1]
        # Add the input photon to the fuller input mode, so the division is
        # by at least sqrt(t / 2) and rounding errors do not grow with t:
        # columns n >= h come from column n-1 of the previous block through
        # a1+, columns n < h from column n through a2+.
        h = (t + 1) // 2
        to_1 = np.multiply(prev, roots[1 : t + 1, None], out=scratch[:t, :t])
        np.multiply(to_1[:, h - 1 :], w[0, 0, h : t + 1], out=out[1:, h:])
        np.multiply(to_1[:, :h], w[1, 0, t : t - h : -1], out=out[1:, :h])
        to_2 = np.multiply(prev, roots[t:0:-1, None], out=scratch[:t, :t])
        out[:t, h:] += to_2[:, h - 1 :] * w[0, 1, h : t + 1]
        out[:t, :h] += to_2[:, :h] * w[1, 1, t : t - h : -1]
    return blocks


# The real 50:50 splitter.  Every splitter is a Mach-Zehnder of two of them
# around phases (Clements et al., Optica 3, 1460 (2016)), so its blocks W_T
# are the only ones built, once per process; each W_T is its own inverse.
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_hadamard_stack = np.zeros((0, 0, 0))
_ZERO = np.zeros(1, dtype=np.complex128)  # the pad slot of ``_diagonal_index``


def _hadamard_blocks(t_max: int) -> np.ndarray:
    """W_0..W_t_max, padded as in ``_block_recurrence``: one stack, sliced
    for smaller totals and rebuilt when a larger one is asked for."""
    global _hadamard_stack
    if _hadamard_stack.shape[0] <= t_max:
        _hadamard_stack = _block_recurrence(_HADAMARD, t_max)
        _hadamard_stack.flags.writeable = False
    return _hadamard_stack[: t_max + 1, : t_max + 1, : t_max + 1]


def _mzi_angles(u) -> tuple[float, float]:
    """(theta, psi) with ``u = D H diag(e^{i theta}, e^{-i theta}) H D^-1``,
    ``H = _HADAMARD`` and ``D = diag(1, e^{i psi})``, read off
    ``u[0][0] = cos(theta)`` and ``u[1][0] = i sin(theta) e^{i psi}``.
    Both are 0 for the identity, ``u[1][0] == 0``, the one case of theta 0."""
    if u[1][0] == 0:
        return 0.0, 0.0
    return math.atan2(abs(u[1][0]), u[0][0].real), cmath.phase(-1j * u[1][0])


@lru_cache(maxsize=64)
def _diagonal_index(
    shape: tuple[int, ...], modes: tuple[int, int], t_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Index maps between a flat ket of the given shape and the padded
    ``(T, n, rest)`` block layout of the mode pair, where n is the
    occupation of ``modes[0]`` and T <= t_max <= both cutoffs.  Both flat
    layouts end in one zero slot that unused entries point to.

    Returns (gather, scatter): ``ket_flat[gather]`` is the block-layout
    input and ``blocks_flat[scatter]`` the flat output ket.
    """
    size = math.prod(shape)
    flat = np.moveaxis(np.arange(size).reshape(shape), modes, (0, 1))
    flat = flat.reshape(flat.shape[0], flat.shape[1], -1)
    rest = flat.shape[2]
    t, n = np.ogrid[: t_max + 1, : t_max + 1]
    gather = np.where((n <= t)[:, :, None], flat[n, np.maximum(t - n, 0)], size)
    p, q = np.indices(flat.shape[:2])
    slot = ((p + q) * (t_max + 1) + p)[:, :, None] * rest + np.arange(rest)
    scatter = np.empty(size, dtype=np.intp)
    scatter[flat.ravel()] = np.where(
        (p + q <= t_max)[:, :, None], slot, (t_max + 1) ** 2 * rest
    ).ravel()
    for arr in (gather, scatter):
        arr.flags.writeable = False
    return gather, scatter


def _apply_chain(amps, modes: tuple[int, int], stages: tuple, partner=None, t_max=None, held=None):
    """Apply, in order, beam splitters on ``modes`` and XPM phases on
    ``(partner, modes[0])`` to an amplitude array.  Each stage is a tuple of
    one BeamSplitterParams or XpmParams per slot: one slot acts on the whole
    array, and S > 1 slots are the last axis of ``amps``, of length S.
    Every stage conserves the photon total T of the two modes, so the chain
    acts on each anti-diagonal n + m = T of their grid as one (T+1) x (T+1)
    block.  With ``theta, psi = _mzi_angles(_bs_entries(p))`` a splitter's
    block is ``e^{-i theta T} P W_T L W_T P^-1``, ``P[n] = e^{i psi n}`` and
    ``L[k] = e^{2 i theta k}``; XPM is the diagonal ``e^{i phi_chi n s}``, s
    the partner occupation.  Only these diagonals carry a slot index.  A
    stage of identity splitters (theta = 0) is skipped.  A mixing stage
    reaches every row of a block, so an occupied total past a cutoff raises
    instead of dropping amplitude, which would fake the no-false-click
    guarantee.  A given ``t_max``, the largest occupied total, spares its
    search.  Returns ``(out, held)``, ``held`` the ``(shape, t_max, state)``
    after a mixing first stage, else None; passed back in place of ``amps``,
    it resumes the chain, whose stages write no state (each is read-only)."""
    i, j = modes
    # the theta and psi rows of each mixing stage, flat; the phase row of
    # each XPM stage with the number k of mixing stages before it
    rates, k, xpms, keep = [], 0, [], True
    for stage in stages:
        if isinstance(stage[0], XpmParams):
            xpms.append((k, [p.phi_chi for p in stage]))
        else:
            thetas, psis = zip(*[_mzi_angles(_bs_entries(p)) for p in stage])
            if any(thetas):  # a stage of identities is skipped
                rates += thetas + psis
                k += 1
        keep = keep and k > 0  # the state after the first stage is handed out if it mixes
    if not k:
        for _, phis in xpms:
            amps = _xpm(amps, (partner, i), np.array(phis))
        return amps, None
    shape, t_max, state = held or (amps.shape, t_max, None)
    if t_max is None:
        occupied = amps.any(axis=tuple(a for a in range(len(shape)) if a not in modes))
        n, m = occupied.nonzero()
        t_max = int((n + m).max(initial=-1))
    if t_max < 0:
        return amps, None
    cuts = (shape[i] - 1, shape[j] - 1)
    if t_max > min(cuts):
        raise CutoffViolationError(
            f"beam splitter sends {t_max} occupied photons into one mode, "
            f"beyond cutoffs {cuts} on modes {modes}"
        )
    gather, scatter = _diagonal_index(shape, modes, t_max)
    # every phase from one exp over (rate, occupation, slot): e^{i theta n}
    # and e^{i psi n} per mixing stage, then e^{i phi_chi s n} per XPM phase
    # and partner occupation s; inv: the splitter rows' conjugates; lams:
    # each stage's e^{-i theta T} L
    size, slots = 1 if partner is None else shape[partner], len(stages[0])
    rates += [a * s for _, phis in xpms for s in range(size) for a in phis]
    rates = np.array(rates).reshape(-1, slots)
    ph = np.exp(1j * (rates[:, None, :] * np.arange(t_max + 1)[:, None]))
    th, p = ph[0 : 2 * k : 2, None, :, None, None, None], ph[1 : 2 * k : 2, :, None, None, None]
    inv = ph[: 2 * k].conj()
    lams = inv[0::2, :, None, None, None, None] * (th * th)
    # the diagonals before, between and after the W pairs, in the layout (T,
    # n, rest axes before the partner's, s, rest after, slot): each P merges
    # with the next splitter's P^-1 and the XPM phases between them
    diags = np.empty((k + 1, t_max + 1, 1, size, 1, slots), dtype=np.complex128)
    diags[0], diags[-1] = inv[1, :, None, None, None], p[-1]
    np.multiply(p[:-1], inv[3::2, :, None, None, None], out=diags[1:-1])
    for (at, _), rows in zip(xpms, ph[2 * k :].reshape(-1, size, t_max + 1, slots)):
        diags[at] *= rows.transpose(1, 0, 2)[:, None, :, None]
    before = math.prod(shape[a] for a in range(partner or 0) if a not in modes)
    if state is None:  # the gathered input, which the first stage mixes in place
        x_split = np.concatenate((amps.ravel(), _ZERO))[gather]
        x_split = x_split.reshape(t_max + 1, t_max + 1, before, size, -1, slots)
        x_split *= diags[0]
    w, flat = _hadamard_blocks(t_max), lambda a: a.reshape(t_max + 1, t_max + 1, -1).view(float)
    y = np.empty_like(state if held else x_split)
    for at in range(0 if state is None else 1, k):
        if at:  # out of place: the state is never written
            x_split = state * diags[at]
        np.matmul(w, flat(x_split), out=flat(y))
        y *= lams[at]  # in place on the array itself: a reshape would add a setitem copy
        np.matmul(w, flat(y), out=flat(x_split))
        state, x_split.flags.writeable = x_split, False
        held = (shape, t_max, state) if keep and not at else held
    out = np.multiply(state, diags[k], out=y).ravel()  # y is free after the last stage
    return np.concatenate((out, _ZERO))[scatter].reshape(shape), held


def _xpm(amps: np.ndarray, modes: tuple[int, int], phi_chi) -> np.ndarray:
    """``amps`` times exp(i phi_chi n m), (n, m) the occupations of ``modes``;
    ``phi_chi`` is one phase or an array of one per slot of the last axis."""
    shape, axes = amps.shape, range(amps.ndim)
    i, j = modes
    occ_i = np.arange(shape[i]).reshape([-1 if k == i else 1 for k in axes])
    occ_j = np.arange(shape[j]).reshape([-1 if k == j else 1 for k in axes])
    return amps * np.exp(1j * (phi_chi * (occ_i * occ_j)))


def _check_element(ket, modes: tuple[int, int], p, kind: type) -> None:
    """Raise unless ``ket`` is a ket, ``p`` a ``kind`` and ``modes`` two of its modes."""
    if not isinstance(ket, MultiModeKet) or not isinstance(p, kind):
        kinds = f"{type(ket).__name__} and {type(p).__name__}"
        raise ConfigurationError(f"expected MultiModeKet and {kind.__name__}, got {kinds}")
    ket.check_modes(*modes)
    if modes[0] == modes[1]:
        raise ValueError(f"{kind.__name__} modes must be distinct")


def apply_beam_splitter(
    ket: MultiModeKet, modes: tuple[int, int], p: BeamSplitterParams
) -> MultiModeKet:
    """Apply the beam splitter to two modes of a Fock ket: one gather into
    the number-conserving block layout, two batched real products and one
    scatter.  An occupied total past a cutoff raises CutoffViolationError
    unless the splitter is the identity (see ``_apply_chain``)."""
    _check_element(ket, modes, p, BeamSplitterParams)
    return MultiModeKet._unchecked(_apply_chain(ket.amps, modes, ((p,),))[0])


def apply_xpm(
    ket: MultiModeKet, modes: tuple[int, int], p: XpmParams
) -> MultiModeKet:
    """Cross-phase gate: each basis amplitude with occupations (n, m) on the
    given modes picks up exp(i phi_chi * n * m).  Diagonal, norm and photon
    numbers preserved."""
    _check_element(ket, modes, p, XpmParams)
    return MultiModeKet._unchecked(_xpm(ket.amps, modes, p.phi_chi))
