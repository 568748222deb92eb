"""Beam-splitter and cross-phase-modulation primitives on dense Fock kets.

Beam-splitter sign convention, fixed once and used everywhere: the creation
operator of input 1 maps to ``cos(theta) a1' + exp(-i phi) sin(theta) a2'``
and that of input 2 to ``-exp(i phi) sin(theta) a1' + cos(theta) a2'``.
The interferometer transparency constraints depend on this convention, so
no other module builds its own matrix.  The exact path reads a
Mach-Zehnder form, two fixed real 50:50 splitters around phases, off its
entries (``_bs_entries``), so the only number-conserving blocks it builds
are the angle-free ones of the 50:50 splitter.  Splitters and XPM phases
all conserve the photon total of the splitter modes, so the interferometer
of ``mzi`` runs as one gather, four batched real products and one scatter.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CutoffViolationError, check_real
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
    """The entries of ``bs_unitary(p)`` as nested tuples of Python numbers."""
    c, s, ph = math.cos(p.theta), math.sin(p.theta), cmath.rect(1.0, p.phi)
    return ((c, s / ph), (-s * ph, c))


def bs_unitary(p: BeamSplitterParams) -> np.ndarray:
    """2x2 creation-operator substitution matrix of the beam splitter;
    coherent amplitudes map by its transpose (see ``mzi.coherent_outputs``)."""
    return np.array(_bs_entries(p), dtype=complex)


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
    ``u[0][0] = cos(theta)`` and ``u[1][0] = i sin(theta) e^{i psi}``."""
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


def _apply_chain(
    ket: MultiModeKet,
    modes: tuple[int, int],
    stages: tuple[BeamSplitterParams | XpmParams, ...],
    partner: int | None = None,
) -> MultiModeKet:
    """Apply, in order, beam splitters on ``modes`` and XPM phases on
    ``(partner, modes[0])``.  Every stage conserves the photon total T of the
    two modes, so the chain acts on each anti-diagonal n + m = T of their
    grid as one (T+1) x (T+1) block.  With ``u = _bs_entries(p)`` and
    ``theta, psi = _mzi_angles(u)``, a splitter's block is
    ``e^{-i theta T} P W_T L W_T P^-1`` with ``P[n] = e^{i psi n}`` and
    ``L[k] = e^{2 i theta k}``; XPM is the diagonal ``e^{i phi_chi n s}``,
    s the partner occupation.  A splitter with ``u[1][0] == 0`` is exactly
    the identity and is skipped.  A mixing one reaches every row of a block,
    so an occupied total past a cutoff raises instead of dropping amplitude,
    which would fake the no-false-click guarantee."""
    ket.check_modes(*modes)
    i, j = modes
    if i == j:
        raise ValueError("beam splitter modes must be distinct")
    # (theta, psi) per mixing splitter; each XPM phase with its slot among them
    angles, xpms = [], []
    for stage in stages:
        if isinstance(stage, XpmParams):
            xpms.append((len(angles), stage))
        elif (u := _bs_entries(stage))[1][0] != 0:
            angles.append(_mzi_angles(u))
    if not angles:
        for _, p in xpms:
            ket = apply_xpm(ket, (partner, i), p)
        return ket
    occupied = ket.amps.any(axis=tuple(a for a in range(ket.n_modes) if a not in modes))
    n, m = occupied.nonzero()
    t_max = int((n + m).max(initial=-1))
    if t_max < 0:
        return ket
    cuts = (ket.cutoffs[i], ket.cutoffs[j])
    if t_max > min(cuts):
        raise CutoffViolationError(
            f"beam splitter sends {t_max} occupied photons into one mode, "
            f"beyond cutoffs {cuts} on modes {modes}"
        )
    gather, scatter = _diagonal_index(ket.amps.shape, modes, t_max)
    # every phase vector from one exp: rows e^{i theta n} and e^{i psi n} per
    # mixing splitter, then e^{i phi_chi s n} per XPM phase and occupation s;
    # lams holds each splitter's e^{-i theta T} L over (T, k)
    k, size = len(angles), 1 if partner is None else ket.cutoffs[partner] + 1
    rates = [a for pair in angles for a in pair]
    rates += [p.phi_chi * s for _, p in xpms for s in range(size)]
    ph = np.exp(1j * np.multiply.outer(rates, np.arange(t_max + 1)))
    th, p = ph[0 : 2 * k : 2, None, :, None], ph[1 : 2 * k : 2, :, None, None, None]
    lams = ph[0 : 2 * k : 2, :, None, None].conj() * (th * th)
    # the diagonals over (n, s) before, between and after the W pairs, in the
    # layout (T, n, rest axes before the partner's, s, rest after): each P
    # merges with the next splitter's P^-1 and the XPM phases between them
    diags = np.empty((k + 1, t_max + 1, 1, size, 1), dtype=np.complex128)
    diags[0], diags[-1] = p[0].conj(), p[-1]
    np.multiply(p[:-1], p[1:].conj(), out=diags[1:-1])
    for (at, _), rows in zip(xpms, ph[2 * k :].reshape(-1, size, t_max + 1)):
        diags[at] *= rows.T[:, None, :, None]
    before = math.prod(ket.amps.shape[a] for a in range(partner or 0) if a not in modes)
    x = np.concatenate((ket.amps.ravel(), _ZERO))[gather]
    y = np.empty_like(x)
    x_real, y_real = x.view(np.float64), y.view(np.float64)
    x_split = x.reshape(t_max + 1, t_max + 1, before, size, -1)
    w = _hadamard_blocks(t_max)
    for lam, d in zip(lams, diags):
        x_split *= d
        np.matmul(w, x_real, out=y_real)
        y *= lam
        np.matmul(w, y_real, out=x_real)
    x_split *= diags[-1]
    out = np.concatenate((x.ravel(), _ZERO))[scatter]
    return MultiModeKet._unchecked(out.reshape(ket.amps.shape), ket.cutoffs)


def apply_beam_splitter(
    ket: MultiModeKet, modes: tuple[int, int], p: BeamSplitterParams
) -> MultiModeKet:
    """Apply the beam splitter to two modes of a Fock ket: one gather into
    the number-conserving block layout, two batched real products and one
    scatter.  An occupied total past a cutoff raises CutoffViolationError
    unless the splitter is the identity (see ``_apply_chain``)."""
    return _apply_chain(ket, modes, (p,))


def apply_xpm(
    ket: MultiModeKet, modes: tuple[int, int], p: XpmParams
) -> MultiModeKet:
    """Cross-phase gate: each basis amplitude with occupations (n, m) on the
    given modes picks up exp(i phi_chi * n * m).  Diagonal, norm and photon
    numbers preserved."""
    ket.check_modes(*modes)
    i, j = modes
    if i == j:
        raise ValueError("XPM modes must be distinct")
    axes = range(ket.n_modes)
    occ_i = np.arange(ket.cutoffs[i] + 1).reshape([-1 if k == i else 1 for k in axes])
    occ_j = np.arange(ket.cutoffs[j] + 1).reshape([-1 if k == j else 1 for k in axes])
    phases = np.exp(1j * (p.phi_chi * (occ_i * occ_j)))
    return MultiModeKet._unchecked(ket.amps * phases, ket.cutoffs)
