"""Beam-splitter and cross-phase-modulation primitives on dense Fock kets.

Beam-splitter sign convention, fixed once and used everywhere: the creation
operator of input 1 maps to ``cos(theta) a1' + exp(-i phi) sin(theta) a2'``
and that of input 2 to ``-exp(i phi) sin(theta) a1' + cos(theta) a2'``.
The interferometer transparency constraints depend on this convention, so
its entries (``_bs_entries``) are the one source of the splitter algebra.
The exact path reads a Mach-Zehnder form, two fixed real 50:50 splitters
around phases, off the same entries, so the only number-conserving blocks
built are the angle-free ones of the 50:50 splitter.  ``mzi``'s splitter,
XPM, splitter conserve the photon total of the splitter modes, so
``_chain`` runs them in one pass: one gather, a W pair, the XPM phases, a
W pair, one scatter.  Its four batched real products take the angles and
phases only as diagonals, shared by the slots of a trailing axis.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, CutoffViolationError, ModeMismatchError, check_real
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


def _block_recurrence(u: np.ndarray, t_max: int, start: np.ndarray | None = None) -> np.ndarray:
    """Number-conserving blocks of the two-mode splitter with substitution
    matrix ``u``, for total photon numbers 0..t_max.

    Returns ``blocks`` of shape ``(t_max + 1,) * 3`` and the dtype of ``u``,
    with ``blocks[T, p, n] = <p, T-p| U |n, T-n>`` for p, n <= T and zeros
    elsewhere.  Block T follows from block T-1 by one creation operator:
    ``|n, T-n> = a1+ |n-1, T-n> / sqrt(n)`` or
    ``|n, T-n> = a2+ |n, T-n-1> / sqrt(T-n)``, where ``U ak+ U^-1 =
    u[k, 0] b1+ + u[k, 1] b2+`` and ``b1+ |p-1, q> = sqrt(p) |p, q>``.
    ``start``, the blocks 0..k-1 of an earlier call on ``u`` (block 0 alone
    by default), is copied and continued from block k, bit for bit.
    """
    if start is None:
        start = np.ones((1, 1, 1), dtype=u.dtype)
    k = len(start)
    blocks = np.zeros((t_max + 1,) * 3, dtype=u.dtype)
    blocks[:k, :k, :k] = start
    roots = np.sqrt(np.arange(t_max + 1, dtype=float))
    inv_roots = np.zeros(t_max + 1)
    inv_roots[1:] = 1.0 / roots[1:]
    # coefficient of an output photon added to mode 1 / mode 2, per input
    # photon added to mode 1 (row 0 of u) or mode 2 (row 1 of u), with the
    # 1/sqrt of the fed input occupation folded in
    w = u[:, :, None] * inv_roots
    scratch = np.empty((t_max, t_max), dtype=u.dtype)
    for t in range(k, t_max + 1):
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
_hadamard_stack = np.ones((1, 1, 1))  # W_0
_ZERO = np.zeros(1, dtype=np.complex128)  # the pad slot of ``_layout``


def _hadamard_blocks(t_max: int) -> np.ndarray:
    """W_0..W_t_max, padded as in ``_block_recurrence``: one stack, sliced
    for smaller totals and extended when a larger one is asked for."""
    global _hadamard_stack
    if _hadamard_stack.shape[0] <= t_max:
        _hadamard_stack = _block_recurrence(_HADAMARD, t_max, _hadamard_stack)
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


@lru_cache(maxsize=128)
def _layout(shape: tuple, modes: tuple[int, int], partner, t_max: int, slots: int) -> tuple:
    """The read-only, angle-free pieces of a chain on ``shape``: (gather,
    scatter, i n, block, flat).  ``ket_flat[gather]`` is the input in the
    padded block layout ``block`` = (T, n, partner, other axes, slot) of
    the mode pair (n the occupation of ``modes[0]``, T <= t_max, partner
    axis 0 or of one for None), and ``blocks_flat[scatter]`` the output ket;
    both flat arrays end in one zero slot that unused entries point to.
    i n: i times 0..t_max, shaped as a diagonal's n axis; flat: (T, n, rest)."""
    size = math.prod(shape)
    flat = np.moveaxis(np.arange(size).reshape(shape), modes, (0, 1))
    flat = flat.reshape(flat.shape[0], flat.shape[1], -1)
    rest = flat.shape[2]
    t, n = np.ogrid[: t_max + 1, : t_max + 1]
    block = (t_max + 1, t_max + 1, 1 if partner is None else shape[partner], -1, slots)
    gather = np.where((n <= t)[:, :, None], flat[n, np.maximum(t - n, 0)], size).reshape(block)
    p, q = np.indices(flat.shape[:2])
    slot = ((p + q) * (t_max + 1) + p)[:, :, None] * rest + np.arange(rest)
    scatter = np.empty(size, dtype=np.intp)
    scatter[flat.ravel()] = np.where(
        (p + q <= t_max)[:, :, None], slot, (t_max + 1) ** 2 * rest
    ).ravel()
    scatter, occ = scatter.reshape(shape), 1j * np.arange(t_max + 1).reshape(-1, 1, 1, 1)
    for arr in (gather, scatter, occ):
        arr.flags.writeable = False
    return gather, scatter, occ, block, (t_max + 1, t_max + 1, -1)


def _chain(amps, modes, bs1, bs2=(), partner=None, xpm=()) -> np.ndarray:
    """A beam splitter on ``modes``, then optionally XPM phases on
    ``(partner, modes[0])`` and a second beam splitter.  ``bs1``, ``bs2``
    and ``xpm`` hold one parameter object per slot: one slot acts on the
    whole array ``amps``, S > 1 slots are its last axis.  Every step
    conserves the photon total T of the two modes, so the chain acts on
    each anti-diagonal n + m = T of their grid as one (T+1) x (T+1) block.
    With ``theta, psi = _mzi_angles(_bs_entries(p))`` a splitter's block is
    ``e^{-i theta T} P W_T L W_T P^-1``, ``P[n] = e^{i psi n}`` and ``L[k] =
    e^{2 i theta k}``; XPM is the diagonal ``e^{i phi_chi n s}``, s the
    partner occupation.  One gather, a W pair per mixing splitter with the
    diagonals before, between and after them, one scatter.  A splitter of
    identities (theta = 0 on every slot) is skipped; a mixing one reaches
    every row of a block, so an occupied total past a cutoff raises:
    dropping amplitude would fake the no-false-click guarantee.  A zero ket
    is returned as it is."""
    rates, mixes = [], []  # the theta and psi rows of each mixing splitter
    for bs in (bs1, bs2):
        thetas, psis = zip(*[_mzi_angles(_bs_entries(p)) for p in bs]) if bs else ((), ())
        mixes.append(any(thetas))  # a splitter of identities is skipped
        rates += thetas + psis if mixes[-1] else ()
    k, at = mixes.count(True), int(mixes[0])  # at: mixes before XPM
    if not k:
        return _xpm(amps, (partner, modes[0]), np.array([p.phi_chi for p in xpm])) if xpm else amps
    n, m = amps.any(axis=tuple(a for a in range(amps.ndim) if a not in modes)).nonzero()
    t_max = int((n + m).max(initial=-1))  # the largest occupied total
    if t_max < 0:
        return amps
    cuts = tuple(amps.shape[a] - 1 for a in modes)
    if t_max > min(cuts):
        raise CutoffViolationError(
            f"beam splitter sends {t_max} occupied photons into one mode, "
            f"beyond cutoffs {cuts} on modes {modes}"
        )
    layout = _layout(amps.shape, modes, partner, t_max, len(bs1))
    gather, scatter, iocc, block, _ = layout
    # every splitter phase from one exp over (rate, occupation, slot):
    # e^{i theta n} and e^{i psi n} per mixing splitter; inv: their conjugates
    ph = np.exp(np.array(rates).reshape(-1, 1, 1, 1, len(bs1)) * iocc)
    inv, th = ph.conj(), ph[: 2 * k : 2, None]
    lams = inv[: 2 * k : 2, :, None] * (th * th)  # each splitter's e^{-i theta T} L
    # the diagonals before, between and after the W pairs, over (n, s, the
    # other axes, slot): each P merges with the next splitter's P^-1
    diags = np.empty((k + 1, t_max + 1, block[2], 1, len(bs1)), dtype=np.complex128)
    diags[0], diags[-1] = inv[1], ph[2 * k - 1]
    if k == 2:
        np.multiply(ph[1], inv[3], out=diags[1])
    if xpm:  # e^{i phi_chi s n} per partner occupation s, on the diagonal the XPM meets
        rates = np.array([p.phi_chi * s for s in range(block[2]) for p in xpm])
        diags[at] *= np.exp(rates.reshape(-1, 1, len(xpm)) * iocc)
    w = _hadamard_blocks(t_max)
    x = np.concatenate((amps.ravel(), _ZERO))[gather]
    for lam, diag in zip(lams, diags):
        x = _w_pair(x * diag, w, lam, layout)
    x *= diags[-1]
    return np.concatenate((x.ravel(), _ZERO))[scatter]


def _w_pair(x, w, lam, layout) -> np.ndarray:
    """W_T lam W_T on each block of the block-layout ``x``, which takes the result."""
    block, flat = layout[3:]
    xf = x.reshape(flat).view(float)  # (T, n, 2 x rest)
    yf = np.matmul(w, xf)
    y = yf.view(complex).reshape(block)
    y *= lam  # in place: the next product reads the same memory through yf
    return np.matmul(w, yf, out=xf).view(complex).reshape(block)


def _xpm(amps: np.ndarray, modes: tuple[int, int], phi_chi) -> np.ndarray:
    """``amps`` times exp(i phi_chi n m), (n, m) the occupations of ``modes``;
    ``phi_chi`` is one phase or an array of one per slot of the last axis."""
    shape, axes = amps.shape, range(amps.ndim)
    i, j = modes
    occ_i = np.arange(shape[i]).reshape([-1 if k == i else 1 for k in axes])
    occ_j = np.arange(shape[j]).reshape([-1 if k == j else 1 for k in axes])
    return amps * np.exp(1j * (phi_chi * (occ_i * occ_j)))


def _check_element(ket, modes, p, kind: type) -> tuple[int, int]:
    """``modes`` as a tuple: two distinct modes of the ket ``ket``, with ``p`` a ``kind``."""
    if not isinstance(ket, MultiModeKet) or not isinstance(p, kind):
        kinds = f"{type(ket).__name__} and {type(p).__name__}"
        raise ConfigurationError(f"expected MultiModeKet and {kind.__name__}, got {kinds}")
    pair = tuple(modes) if isinstance(modes, Sequence) else (modes,)
    ket.check_modes(*pair)
    if len(pair) != 2 or pair[0] == pair[1]:
        raise ModeMismatchError(f"{kind.__name__} needs two distinct modes, got {modes!r}")
    return pair


def apply_beam_splitter(
    ket: MultiModeKet, modes: tuple[int, int], p: BeamSplitterParams
) -> MultiModeKet:
    """Apply the beam splitter to two modes of a Fock ket, a chain of one
    splitter: one gather into the number-conserving block layout, two
    batched real products and one scatter.  An occupied total past a
    cutoff raises CutoffViolationError unless the splitter is the identity."""
    modes = _check_element(ket, modes, p, BeamSplitterParams)
    return MultiModeKet._unchecked(_chain(ket.amps, modes, (p,)))


def apply_xpm(
    ket: MultiModeKet, modes: tuple[int, int], p: XpmParams
) -> MultiModeKet:
    """Cross-phase gate: each basis amplitude with occupations (n, m) on the
    given modes picks up exp(i phi_chi * n * m).  Diagonal, norm and photon
    numbers preserved."""
    modes = _check_element(ket, modes, p, XpmParams)
    return MultiModeKet._unchecked(_xpm(ket.amps, modes, p.phi_chi))
