"""Beam-splitter and cross-phase-modulation primitives.

Both elements exist on two representations:

* the exact path, rewriting dense truncated Fock kets, and
* the classical path, mapping one complex amplitude per mode for registers
  known to hold coherent states (exact for arbitrary mean photon number,
  no truncation involved).

Beam-splitter sign convention, fixed once and used everywhere: the creation
operator of input 1 maps to ``cos(theta) a1' + exp(-i phi) sin(theta) a2'``
and that of input 2 to ``-exp(i phi) sin(theta) a1' + cos(theta) a2'``.
The interferometer transparency constraints depend on this convention, so
no other module builds its own matrix.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, CutoffViolationError
from .fock import MultiModeKet


@dataclass(frozen=True)
class BeamSplitterParams:
    """Beam splitter angles: cos^2(theta) reflectivity, sin^2(theta)
    transmittivity, phi the relative phase."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ConfigurationError(
                f"beam splitter angles must be finite, got theta={self.theta}, "
                f"phi={self.phi}"
            )


@dataclass(frozen=True)
class XpmParams:
    """Cross-phase-modulation strength, the accumulated phase per photon pair."""

    phi_chi: float

    def __post_init__(self):
        if not math.isfinite(self.phi_chi):
            raise ConfigurationError(f"XPM phase must be finite, got {self.phi_chi}")

    @property
    def working(self) -> bool:
        """False when the phase is an integer multiple of 2*pi (inert XPM)."""
        residue = self.phi_chi % (2.0 * math.pi)
        return min(residue, 2.0 * math.pi - residue) > 1e-9


@dataclass(frozen=True)
class CoherentAmplitudes:
    """One complex amplitude per mode, for modes in coherent states."""

    amps: tuple[complex, ...]

    def __getitem__(self, mode: int) -> complex:
        return self.amps[mode]

    @property
    def n_modes(self) -> int:
        return len(self.amps)

    def mean_photons(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amps))


def bs_unitary(p: BeamSplitterParams) -> np.ndarray:
    """2x2 creation-operator substitution matrix of the beam splitter."""
    c = math.cos(p.theta)
    s = math.sin(p.theta)
    ph = complex(math.cos(p.phi), math.sin(p.phi))
    return np.array([[c, s / ph], [-s * ph, c]], dtype=complex)


# Angle pairs whose splitter blocks stay cached.  One run of the setup uses
# two pairs, and so does a row of a sweep at fixed splitters; a padded stack
# at cutoff 47 takes about 1.8 MB.
BLOCK_CACHE_SIZE = 4
_block_cache: OrderedDict[tuple[float, float], np.ndarray] = OrderedDict()


def _block_recurrence(u: np.ndarray, t_max: int) -> np.ndarray:
    """Number-conserving blocks of the two-mode splitter with substitution
    matrix ``u``, for total photon numbers 0..t_max.

    Returns ``blocks`` of shape ``(t_max + 1,) * 3`` with
    ``blocks[T, p, n] = <p, T-p| U |n, T-n>`` for p, n <= T and zeros
    elsewhere.  Block T follows from block T-1 by one creation operator:
    ``|n, T-n> = a1+ |n-1, T-n> / sqrt(n)`` or
    ``|n, T-n> = a2+ |n, T-n-1> / sqrt(T-n)``, where ``U ak+ U^-1 =
    u[k, 0] b1+ + u[k, 1] b2+`` and ``b1+ |p-1, q> = sqrt(p) |p, q>``.
    """
    blocks = np.zeros((t_max + 1,) * 3, dtype=np.complex128)
    blocks[0, 0, 0] = 1.0
    roots = np.sqrt(np.arange(t_max + 1, dtype=float))
    inv_roots = np.zeros(t_max + 1)
    inv_roots[1:] = 1.0 / roots[1:]
    # coefficient of an output photon added to mode 1 / mode 2, per input
    # photon added to mode 1 (row 0 of u) or mode 2 (row 1 of u), with the
    # 1/sqrt of the fed input occupation folded in
    w = u[:, :, None] * inv_roots
    scratch = np.empty((t_max, t_max), dtype=np.complex128)
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


def _bs_blocks(theta: float, phi: float, t_max: int) -> np.ndarray:
    """Blocks U_0..U_t_max of the splitter (theta, phi), padded to shape
    ``(t_max + 1,) * 3`` as in ``_block_recurrence``; cached per angle pair
    in a small LRU cache and rebuilt when a larger t_max is asked for."""
    key = (theta, phi)
    blocks = _block_cache.pop(key, None)
    if blocks is None or blocks.shape[0] <= t_max:
        blocks = _block_recurrence(bs_unitary(BeamSplitterParams(theta, phi)), t_max)
        blocks.flags.writeable = False
    _block_cache[key] = blocks
    while len(_block_cache) > BLOCK_CACHE_SIZE:
        _block_cache.popitem(last=False)
    return blocks[: t_max + 1, : t_max + 1, : t_max + 1]


@lru_cache(maxsize=64)
def _diagonal_index(
    t_max: int, cut_i: int, cut_j: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index maps between a flattened (cut_i+1) x (cut_j+1) grid of two-mode
    occupations (n, m) and the padded (T, n) block layout with
    T = n + m <= t_max.  Both flattened layouts carry one trailing zero row
    that every unused slot points to.

    Returns (gather, scatter, lost): ``grid[gather]`` is the block-layout
    input, ``blocks_out[scatter]`` the output grid, and ``lost[T, p]``
    marks block rows (p, T-p) that lie beyond a cutoff.
    """
    pad = (cut_i + 1) * (cut_j + 1)
    t = np.arange(t_max + 1)[:, None]
    n = np.arange(t_max + 1)[None, :]
    m = t - n
    inside = (m >= 0) & (n <= cut_i) & (m <= cut_j)
    gather = np.where(inside, n * (cut_j + 1) + m, pad)
    lost = (m >= 0) & ~inside
    p = np.arange(cut_i + 1)[:, None]
    q = np.arange(cut_j + 1)[None, :]
    total = p + q
    scatter = np.where(total <= t_max, total * (t_max + 1) + p, (t_max + 1) ** 2)
    for arr in (gather, scatter, lost):
        arr.flags.writeable = False
    return gather, scatter.ravel(), lost


def apply_beam_splitter(
    ket: MultiModeKet, modes: tuple[int, int], p: BeamSplitterParams
) -> MultiModeKet:
    """Apply the beam splitter to two modes of a Fock ket.

    The splitter conserves the photon number n + m of the two modes, so it
    acts on each anti-diagonal n + m = T of their occupation grid as one
    (T+1) x (T+1) block; all blocks up to the largest occupied total are
    applied in one batched product.  Redistribution beyond a cutoff raises
    instead of dropping amplitude: silent leakage would fake the very
    no-false-click guarantee this library exists to check.
    """
    i, j = modes
    if i == j:
        raise ValueError("beam splitter modes must be distinct")
    cut_i, cut_j = ket.cutoffs[i], ket.cutoffs[j]
    moved = np.moveaxis(ket.amps, (i, j), (0, 1))
    rest = moved.shape[2:]
    grid = moved.reshape((cut_i + 1) * (cut_j + 1), -1)
    occupied = np.flatnonzero(grid.any(axis=1))
    if occupied.size == 0:
        return ket
    t_max = int((occupied // (cut_j + 1) + occupied % (cut_j + 1)).max())
    gather, scatter, lost = _diagonal_index(t_max, cut_i, cut_j)
    padded = np.zeros((grid.shape[0] + 1, grid.shape[1]), dtype=np.complex128)
    padded[:-1] = grid
    blocks = _bs_blocks(p.theta, p.phi, t_max)
    diag_in = padded[gather]
    if lost.any():
        _check_cutoffs(blocks, diag_in, lost, modes, (cut_i, cut_j))
    diag_out = np.zeros(((t_max + 1) ** 2 + 1, grid.shape[1]), dtype=np.complex128)
    np.matmul(blocks, diag_in, out=diag_out[:-1].reshape(diag_in.shape))
    out = diag_out[scatter].reshape((cut_i + 1, cut_j + 1) + rest)
    out = np.ascontiguousarray(np.moveaxis(out, (0, 1), (i, j)))
    return MultiModeKet._unchecked(out, ket.cutoffs)


def _check_cutoffs(blocks, diag_in, lost, modes, cuts) -> None:
    """Raise when an occupied input |n, T-n> has a nonzero block coefficient
    on an output |p, T-p> beyond the cutoffs."""
    fed = (diag_in != 0).any(axis=2)
    reach = ((blocks != 0) & fed[:, None, :]).any(axis=2) & lost
    if reach.any():
        t, out_p = (int(x) for x in np.argwhere(reach)[0])
        n = int(np.flatnonzero(fed[t] & (blocks[t, out_p] != 0))[0])
        raise CutoffViolationError(
            f"beam splitter sends |{n},{t - n}> to |{out_p},{t - out_p}> beyond "
            f"cutoffs {cuts} on modes {modes}"
        )


def apply_xpm(
    ket: MultiModeKet, modes: tuple[int, int], p: XpmParams
) -> MultiModeKet:
    """Cross-phase gate: each basis amplitude with occupations (n, m) on the
    given modes picks up exp(i phi_chi * n * m).  Diagonal, norm and photon
    numbers preserved."""
    i, j = modes
    if i == j:
        raise ValueError("XPM modes must be distinct")
    axes = range(ket.n_modes)
    occ_i = np.arange(ket.cutoffs[i] + 1).reshape([-1 if k == i else 1 for k in axes])
    occ_j = np.arange(ket.cutoffs[j] + 1).reshape([-1 if k == j else 1 for k in axes])
    phases = np.exp(1j * (p.phi_chi * (occ_i * occ_j)))
    return MultiModeKet._unchecked(ket.amps * phases, ket.cutoffs)


def bs_coherent(
    amps: CoherentAmplitudes, modes: tuple[int, int], p: BeamSplitterParams
) -> CoherentAmplitudes:
    """Beam splitter on the classical path.

    Coherent amplitudes transform with the transpose of the operator
    substitution matrix; total mean photon number is conserved.
    """
    i, j = modes
    u = bs_unitary(p)
    new = list(amps.amps)
    ai, aj = amps[i], amps[j]
    new[i] = u[0, 0] * ai + u[1, 0] * aj
    new[j] = u[0, 1] * ai + u[1, 1] * aj
    return CoherentAmplitudes(tuple(new))


def xpm_coherent_branch(
    amps: CoherentAmplitudes, mode: int, photon_present: bool, p: XpmParams
) -> CoherentAmplitudes:
    """XPM acting on a coherent mode whose partner holds a definite photon
    number: the coherent amplitude rotates by exp(i phi_chi) when a photon
    is present and is untouched otherwise."""
    if not photon_present:
        return amps
    phase = complex(math.cos(p.phi_chi), math.sin(p.phi_chi))
    new = list(amps.amps)
    new[mode] = phase * new[mode]
    return CoherentAmplitudes(tuple(new))
