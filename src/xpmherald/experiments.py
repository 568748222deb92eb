"""Reproducible experiment driver: named experiments and CSV emission.

Output format: a CSV whose leading lines form a ``#``-prefixed manifest
block (experiment name, package version, seed, full parameter echo), then a
snake_case header row, then data rows.  Complex quantities occupy two
columns (re, im).  The manifest block contains only deterministic fields so
identical (config, seed, version) runs produce bit-identical files; the
wall clock and other run metadata go to a JSON sidecar next to the CSV.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigurationError, check_count, check_real
from .fock import TruncationPolicy
from .loss import REFERENCE_LOSS_BOUNDS, max_tolerable_loss
from .mzi import (
    CoherentProbe,
    NoisyPhotonProbe,
    NoisySource,
    _coherent_efficiency,
    sample_shots,
    transparent_via_angle_sum,
)

EXPERIMENTS = ("fig4", "loss-bounds", "purity-audit")

# Probe amplitudes for the detection-efficiency curves.  These are package
# defaults chosen for illustration, not authoritative values; the manifest
# flags them as such.
DEFAULT_FIG4_BETAS = (0.5, 1.0, 2.0)
# fig4 builds its whole table in memory, about 330 B per (beta, phi_chi) row.
MAX_FIG4_ROWS = 10**6


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
        known = {"experiment", "params", "seed", "out"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(
                f"config file {path}: unknown field(s) {sorted(unknown)}"
            )
        return cls(**raw)


@dataclass
class ResultTable:
    """Columns, rows, and the deterministic manifest of one experiment."""

    columns: list[str]
    rows: list[tuple]
    manifest: dict

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row width does not match column count")

    def to_csv_text(self) -> str:
        lines = [f"# {key} = {value}" for key, value in self.manifest.items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join([_format_cell(v) for v in row]))
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> None:
        """Write the CSV plus a JSON sidecar with run metadata."""
        path = Path(path)
        path.write_text(self.to_csv_text())
        sidecar = {
            "manifest": {k: str(v) for k, v in self.manifest.items()},
            "wall_clock_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "rows": len(self.rows),
        }
        path.with_suffix(path.suffix + ".manifest.json").write_text(
            json.dumps(sidecar, indent=2) + "\n"
        )


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
    """List parameter ``name`` as floats, or ``default`` when omitted."""
    values = cfg.params.get(name, default)
    if not (isinstance(values, (list, tuple)) and all(map(_is_number, values))):
        raise ConfigurationError(
            f"parameter {name!r} must be a list of numbers, got {values!r}"
        )
    return [float(v) for v in values]


def _run_fig4(cfg: ExperimentConfig) -> ResultTable:
    """Detection-efficiency curves versus cross-phase shift for a handful of
    coherent probe amplitudes, at the optimal symmetric splitter."""
    betas = _param_list(cfg, "beta", DEFAULT_FIG4_BETAS)
    num = _count_param(cfg, "phi_chi_points", 121)
    if num < 2 or not betas:
        raise ConfigurationError("fig4 needs a non-empty beta list and >= 2 grid points")
    if len(betas) * num > MAX_FIG4_ROWS:
        raise ConfigurationError(f"fig4 is capped at {MAX_FIG4_ROWS} rows, got {len(betas) * num}")
    phis = np.linspace(0.0, 2.0 * math.pi, num).tolist()
    theta1 = math.pi / 4.0  # the symmetric splitter; pi - theta1 makes it transparent
    for beta in betas:
        CoherentProbe(beta)  # rejects a non-finite amplitude
    rows = [
        (phi, beta, _coherent_efficiency(theta1, phi, beta), 0.0)
        for beta in betas for phi in phis
    ]
    manifest = {
        "experiment": "fig4",
        "version": __version__,
        "beta_values": ";".join(repr(b) for b in betas),
        "beta_provenance": "package default, chosen for illustration"
        if "beta" not in cfg.params
        else "user supplied",
        "phi_chi_points": num,
        "theta1": repr(theta1),
    }
    return ResultTable(
        columns=["phi_chi", "beta_abs", "detection_efficiency", "error_bar"],
        rows=rows,
        manifest=manifest,
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
    references = {
        (round(p, 6), b): r for p, b, r in REFERENCE_LOSS_BOUNDS
    }
    rows = []
    for phi_chi in phi_chis:
        mzi = transparent_via_angle_sum(math.pi / 4.0, 0.0, phi_chi)
        for beta_sq in beta_sqs:
            bound = max_tolerable_loss(mzi, math.sqrt(beta_sq), fixed_p=fixed_p)
            ref = references.get((round(phi_chi, 6), beta_sq))
            rows.append((
                phi_chi,
                beta_sq,
                bound,
                "" if ref is None else repr(ref),
                "" if ref is None else repr(abs(bound - ref)),
            ))
    manifest = {
        "experiment": "loss-bounds",
        "version": __version__,
        "criterion": "weak-source limit" if fixed_p is None else f"fixed p = {fixed_p}",
        "note": "reference bounds for the weak-phase rows use an unstated "
        "criterion; deviations are reported, not enforced",
    }
    return ResultTable(
        columns=["phi_chi", "beta_sq", "pa_max", "reference_value", "abs_deviation"],
        rows=rows,
        manifest=manifest,
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
    rows = [(shots, cfg.seed, p_a, *counts.values(), freq, sigma)]
    manifest = {
        "experiment": "purity-audit",
        "version": __version__,
        "probe": "coherent" if beta is not None else "noisy_photon",
        "phi_chi": repr(phi_chi),
    }
    return ResultTable(
        columns=["shots", "seed", "p_a", *counts, "click_frequency", "click_sigma"],
        rows=rows,
        manifest=manifest,
    )


_RUNNERS = {
    "fig4": _run_fig4,
    "loss-bounds": _run_loss_bounds,
    "purity-audit": _run_purity_audit,
}


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Run a named experiment; deterministic for a fixed (config, seed)."""
    table = _RUNNERS[cfg.experiment](cfg)
    # full config echo keeps the CSV self-describing and reproducible
    table.manifest.setdefault(
        "config_params", json.dumps(cfg.params, sort_keys=True)
    )
    # the scheme routes' one truncation; the line stays until output 0.3.0
    table.manifest.setdefault("trunc_tol", repr(TruncationPolicy.tail_tolerance))
    if cfg.seed is not None:
        table.manifest.setdefault("seed", cfg.seed)
    if cfg.out:
        table.write(cfg.out)
    return table
