"""Reproducible experiment driver: named experiments and CSV emission.

Output format: a CSV whose leading lines form a ``#``-prefixed manifest
block (experiment name, package version, seed, full parameter echo), then a
snake_case header row, then data rows.  Complex quantities occupy two
columns (re, im).  The manifest block contains only deterministic fields so
identical (config, seed, version) runs produce bit-identical files; the
wall clock, run metadata and ``_platform`` go to a JSON sidecar next to the CSV.

A ``ResultTable`` stores its data as column blocks: per column, a list of
cells or one cell that fills the block.  fig4's blocks, one per beta, share
one phi_chi list and hold beta and the error bar as constants, so the CSV,
written in slices of rows, formats each phase once and builds no row tuple;
the ``rows`` view is built only when read.
"""

from __future__ import annotations

import ctypes
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import islice, repeat
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigurationError, check_count, check_real
from .loss import REFERENCE_LOSS_BOUNDS, max_tolerable_loss
from .mzi import (
    CoherentProbe,
    NoisyPhotonProbe,
    NoisySource,
    _click_scale,
    _click_weights,
    sample_shots,
    transparent_via_angle_sum,
)

# Probe amplitudes for the detection-efficiency curves.  These are package
# defaults chosen for illustration, not authoritative values; the manifest
# flags them as such.
DEFAULT_FIG4_BETAS = (0.5, 1.0, 2.0)
# fig4 holds its table in memory, about 45 B per (beta, phi_chi) row.  Its
# CSV is written in slices, so writing adds about 30 B per row: the shared
# phi_chi texts and one slice.
MAX_FIG4_ROWS = 10**6
CSV_SLICE_ROWS = 4096  # rows per text slice that the CSV writers emit
# sin at this input rounds one ulp apart in glibc's FMA and SSE2 libm builds
LIBM_FINGERPRINT = float.fromhex("0x1.720dc197cadc0p-1")
_LIBM_VARIANTS = {"0x1.52aaa0ebe1262p-1": "fma", "0x1.52aaa0ebe1261p-1": "sse2"}


def _platform() -> dict:
    """The libm variant ``LIBM_FINGERPRINT`` reads, numpy's version and the
    kernel its bundled OpenBLAS reports, or why none could be read."""
    try:
        (lib,) = (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so")
        corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    except (ValueError, OSError, AttributeError) as exc:
        core = f"unreadable: {exc!r}"
    value = math.sin(LIBM_FINGERPRINT).hex()
    libm = _LIBM_VARIANTS.get(value, f"unknown: sin({LIBM_FINGERPRINT.hex()}) = {value}")
    return {"libm": libm, "numpy": np.__version__, "openblas_core": core}


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run."""

    experiment: str
    params: dict = field(default_factory=dict)
    seed: int | None = None
    out: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {self.experiment!r}; "
                f"valid names: {', '.join(EXPERIMENTS)}"
            )
        if not isinstance(self.params, dict):
            raise ConfigurationError("field 'params' must be a table of values")
        _, accepted = EXPERIMENTS[self.experiment]
        unknown = [name for name in self.params if name not in accepted]
        if unknown:
            names = ", ".join(accepted)
            raise ConfigurationError(f"unknown parameter(s) {unknown}; accepted: {names}")
        if self.seed is not None:
            check_count("field 'seed'", self.seed)
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigurationError(f"field 'out' must be a path or null, got {self.out!r}")

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        """Parse a JSON config file; unknown fields are rejected by name."""
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigurationError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"config file {path}: invalid JSON at line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}"
            )
        if not isinstance(raw, dict):
            raise ConfigurationError(f"config file {path}: top level must be a table")
        if "experiment" not in raw:
            raise ConfigurationError(f"config file {path}: missing field 'experiment'")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(f"config file {path}: unknown field(s) {sorted(unknown)}")
        return cls(**raw)


@dataclass
class ResultTable:
    """Column blocks and the deterministic manifest of one experiment.

    ``blocks`` is the one stored form of the data.  A block holds one entry
    per column: a list of cells, or one cell (any value but a list) that
    fills every row of the block.  Each block needs a list, and its lists
    one length; the rows are the blocks' rows in order."""

    columns: list[str]
    blocks: list[tuple]
    manifest: dict

    def __post_init__(self):
        for block in self.blocks:
            lengths = {len(entry) for entry in block if type(entry) is list}
            if len(block) != len(self.columns) or len(lengths) != 1:
                raise ValueError("a block needs one entry per column and cell lists of one length")

    @cached_property
    def rows(self) -> tuple[tuple, ...]:
        """The row tuples the blocks stand for, built on first read; the CSV
        and the sidecar never read them."""
        return tuple(
            row
            for block in self.blocks
            for row in zip(*(e if type(e) is list else repeat(e) for e in block))
        )

    def csv_slices(self):
        """The CSV text in slices of at most ``CSV_SLICE_ROWS`` rows, block
        by block.  Each cell list is formatted once, keyed by identity: a
        list that blocks share into a kept list of texts, any other a slice
        at a time.  Each block constant is formatted once.  Lists of plain
        floats print by repr, any other cell by ``_format_cell``."""
        lines = [f"# {key} = {value}\n" for key, value in self.manifest.items()]
        yield "".join(lines) + ",".join(self.columns) + "\n"
        uses = Counter(id(e) for block in self.blocks for e in block if type(e) is list)
        texts = {}  # id of a cell list: the texts of its cells
        for block in self.blocks:
            for entry in block:
                if type(entry) is list and id(entry) not in texts:
                    cells = map(repr if set(map(type, entry)) == {float} else _format_cell, entry)
                    texts[id(entry)] = list(cells) if uses[id(entry)] > 1 else cells
            parts = [texts[id(e)] if type(e) is list else repeat(_format_cell(e)) for e in block]
            rows = map(",".join, zip(*parts))
            while chunk := list(islice(rows, CSV_SLICE_ROWS)):
                yield "\n".join(chunk) + "\n"

    def to_csv_text(self) -> str:
        """The CSV text that ``write`` writes."""
        return "".join(self.csv_slices())

    def write(self, path: str | Path) -> None:
        """Write the CSV plus a JSON sidecar with run metadata."""
        path = Path(path)
        with path.open("w") as fh:
            fh.writelines(self.csv_slices())
        sidecar = {
            "manifest": {k: str(v) for k, v in self.manifest.items()},
            "wall_clock_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "rows": sum(len(next(e for e in b if type(e) is list)) for b in self.blocks),
            "platform": _platform(),
        }
        path.with_suffix(path.suffix + ".manifest.json").write_text(
            json.dumps(sidecar, indent=2) + "\n"
        )


def table_manifest(experiment: str, **lines) -> dict:
    """A table's manifest: the ``experiment`` and ``version`` lines every
    table opens with, then ``lines`` in their order."""
    return {"experiment": experiment, "version": __version__, **lines}


def _format_cell(value) -> str:
    if type(value) is float or isinstance(value, (float, np.floating)):  # cheap test first
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _is_number(value) -> bool:
    """A real number; a JSON ``true`` or ``false`` is not one."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _param(cfg: ExperimentConfig, name: str, default):
    """Scalar parameter ``name``, or ``default`` when the config omits it;
    a null value stands for an omitted one only where ``default`` is None."""
    value = cfg.params.get(name, default)
    if (value is not None or default is not None) and not _is_number(value):
        raise ConfigurationError(f"parameter {name!r} must be a number, got {value!r}")
    return value


def _count_param(cfg: ExperimentConfig, name: str, default: int) -> int:
    """Whole-number parameter ``name``, such as 1000 or 1000.0, as an int."""
    value = _param(cfg, name, default)
    if not (isinstance(value, Integral) or float(value).is_integer()):
        raise ConfigurationError(f"parameter {name!r} must be a whole number, got {value!r}")
    return int(value)


def _param_list(cfg: ExperimentConfig, name: str, default) -> list[float]:
    """Non-empty list parameter ``name`` as floats, or ``default`` when omitted."""
    values = cfg.params.get(name, default)
    if not (isinstance(values, (list, tuple)) and values and all(map(_is_number, values))):
        raise ConfigurationError(
            f"parameter {name!r} must be a non-empty list of numbers, got {values!r}"
        )
    return [float(v) for v in values]


def _run_fig4(cfg: ExperimentConfig) -> ResultTable:
    """Detection-efficiency curves versus cross-phase shift for a handful of
    coherent probe amplitudes, at the optimal symmetric splitter: the click
    law's y-free weight a once per phase, then -expm1(-(y a)) per point."""
    betas = _param_list(cfg, "beta", DEFAULT_FIG4_BETAS)
    num = _count_param(cfg, "phi_chi_points", 121)
    if num < 2:
        raise ConfigurationError("fig4 needs >= 2 grid points")
    if len(betas) * num > MAX_FIG4_ROWS:
        raise ConfigurationError(f"fig4 is capped at {MAX_FIG4_ROWS} rows, got {len(betas) * num}")
    phis = np.linspace(0.0, 2.0 * math.pi, num).tolist()
    theta1 = math.pi / 4.0  # the symmetric splitter; pi - theta1 makes it transparent
    weights = [_click_weights(phi)[0] for phi in phis]
    blocks = []  # one per beta, all sharing the one phis list
    for beta in betas:
        if math.copysign(1.0, beta) < 0.0:  # a beta_abs cell with a sign, -0.0 included
            raise ConfigurationError(f"parameter 'beta' entries must be unsigned, got {beta!r}")
        y = _click_scale(theta1, CoherentProbe(beta).beta)  # rejects a non-finite amplitude
        blocks.append((phis, beta, [-math.expm1(-(y * a)) for a in weights], 0.0))
    return ResultTable(
        columns=["phi_chi", "beta_abs", "detection_efficiency", "error_bar"],
        blocks=blocks,
        manifest=table_manifest(
            "fig4",
            beta_values=";".join(repr(b) for b in betas),
            beta_provenance="package default, chosen for illustration"
            if "beta" not in cfg.params
            else "user supplied",
            phi_chi_points=num,
            theta1=repr(theta1),
        ),
    )


def _run_loss_bounds(cfg: ExperimentConfig) -> ResultTable:
    """Maximum tolerable absorption across phase shifts and probe powers,
    with reference bounds and deviations where reference values exist."""
    phi_chis = _param_list(cfg, "phi_chi", (0.010, math.pi))
    beta_sqs = _param_list(cfg, "beta_sq", (1.0, 1e2, 1e4, 1e6))
    for beta_sq in beta_sqs:
        check_real("parameter 'beta_sq' entries", beta_sq, 0.0, open_low=True)
    fixed_p = _param(cfg, "fixed_p", None)
    if fixed_p is not None:
        fixed_p = float(fixed_p)
    references = {(round(p, 6), b): r for p, b, r in REFERENCE_LOSS_BOUNDS}
    rows = []
    for phi_chi in phi_chis:
        mzi = transparent_via_angle_sum(math.pi / 4.0, 0.0, phi_chi)
        for beta_sq in beta_sqs:
            bound = max_tolerable_loss(mzi, math.sqrt(beta_sq), fixed_p=fixed_p)
            ref = references.get((round(phi_chi, 6), beta_sq))
            cells = ("", "") if ref is None else (repr(ref), repr(abs(bound - ref)))
            rows.append((phi_chi, beta_sq, bound, *cells))
    return ResultTable(
        columns=["phi_chi", "beta_sq", "pa_max", "reference_value", "abs_deviation"],
        blocks=[tuple(map(list, zip(*rows)))],
        manifest=table_manifest(
            "loss-bounds",
            criterion="weak-source limit" if fixed_p is None else f"fixed p = {fixed_p}",
            note="reference bounds for the weak-phase rows use an unstated "
            "criterion; deviations are reported, not enforced",
        ),
    )


def _run_purity_audit(cfg: ExperimentConfig) -> ResultTable:
    """Monte Carlo shot campaign counting click-without-photon events, which
    a transparent setup must never produce."""
    if cfg.seed is None:
        raise ConfigurationError("purity-audit samples shots and requires a seed")
    shots = _count_param(cfg, "shots", 100_000)
    p_a = float(_param(cfg, "p_a", 0.3))
    phi_chi = float(_param(cfg, "phi_chi", math.pi))
    beta = _param(cfg, "beta", None)
    p_b = _param(cfg, "p_b", None)
    if beta is not None and p_b is not None:
        raise ConfigurationError("choose one probe: 'beta' or 'p_b'")
    if beta is not None:
        probe = CoherentProbe(complex(beta))
    else:
        probe = NoisyPhotonProbe(NoisySource(float(p_b if p_b is not None else 0.8)))
    mzi = transparent_via_angle_sum(math.pi / 4.0, 0.0, phi_chi)
    counts = sample_shots(mzi, NoisySource(p_a), probe, shots, cfg.seed)
    clicks = sum(n for event, n in counts.items() if event.startswith("click"))
    freq = clicks / shots
    sigma = math.sqrt(max(freq * (1.0 - freq), 1.0 / shots) / shots)
    row = (shots, cfg.seed, p_a, *counts.values(), freq, sigma)
    return ResultTable(
        columns=["shots", "seed", "p_a", *counts, "click_frequency", "click_sigma"],
        blocks=[tuple([cell] for cell in row)],
        manifest=table_manifest(
            "purity-audit",
            probe="coherent" if beta is not None else "noisy_photon",
            phi_chi=repr(phi_chi),
        ),
    )


EXPERIMENTS = {  # each experiment's runner and parameters; a config naming another is refused
    "fig4": (_run_fig4, ("beta", "phi_chi_points")),
    "loss-bounds": (_run_loss_bounds, ("phi_chi", "beta_sq", "fixed_p")),
    "purity-audit": (_run_purity_audit, ("shots", "p_a", "phi_chi", "beta", "p_b")),
}


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Run a named experiment; deterministic for a fixed (config, seed)."""
    table = EXPERIMENTS[cfg.experiment][0](cfg)
    # full config echo keeps the CSV self-describing and reproducible
    table.manifest.setdefault("config_params", json.dumps(cfg.params, sort_keys=True))
    if cfg.seed is not None:
        table.manifest.setdefault("seed", cfg.seed)
    if cfg.out:
        table.write(cfg.out)
    return table
