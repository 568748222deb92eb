import ast
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import xpmherald.cli
import xpmherald.elements as el
import xpmherald.experiments
import xpmherald.mzi as mzi
import xpmherald.verify
from xpmherald.cascade import MAX_SHOTS
from xpmherald.cli import main
from xpmherald.errors import ConfigurationError, TruncationError
from xpmherald.experiments import (
    DEFAULT_FIG4_BETAS,
    MAX_FIG4_ROWS,
    ExperimentConfig,
    ResultTable,
    _platform,
    run_experiment,
)
from xpmherald.mzi import (
    MAX_SAMPLE_SHOTS,
    CoherentProbe,
    detection_efficiency,
    transparent_via_angle_sum,
)
from xpmherald.verify import all_passed, format_report, run_suite


def test_fig4_rows_match_closed_form():
    table = run_experiment(
        ExperimentConfig("fig4", params={"phi_chi_points": 21})
    )
    assert table.columns[:3] == ["phi_chi", "beta_abs", "detection_efficiency"]
    for phi_chi, beta, value, err in table.rows:
        expected = 1.0 - math.exp(-beta * beta * math.sin(phi_chi / 2.0) ** 2)
        assert value == pytest.approx(expected, abs=1e-12)
        assert err == 0.0
    betas = sorted({row[1] for row in table.rows})
    assert betas == sorted(DEFAULT_FIG4_BETAS)
    assert "default" in table.manifest["beta_provenance"]


def test_fig4_rows_equal_per_point_detection_efficiency():
    # the sweep checks transparency once; every value must still be exactly
    # what the public closed form gives point by point
    table = run_experiment(
        ExperimentConfig("fig4", params={"phi_chi_points": 301, "beta": [0.3, 1.7, 4.0]})
    )
    assert len(table.rows) == 3 * 301
    for phi_chi, beta, value, _ in table.rows:
        mzi = transparent_via_angle_sum(math.pi / 4.0, 0.0, phi_chi)
        assert value == detection_efficiency(mzi, CoherentProbe(beta))


def test_fig4_efficiency_is_the_click_law_bit_for_bit():
    # the sweep reads the law's y-free weight once per phase; every value
    # must still be 1 - exp(-m1) of the detector mean mzi._detector_means
    table = run_experiment(
        ExperimentConfig("fig4", params={"phi_chi_points": 2001, "beta": [0.3, 1.0, 4.0, 37.5]})
    )
    for phi_chi, beta, value, _ in table.rows:
        cfg = transparent_via_angle_sum(math.pi / 4.0, 0.0, phi_chi)
        assert value.hex() == (-math.expm1(-mzi._detector_means(cfg, beta)[0])).hex()


def test_fig4_reads_the_click_weights_once_per_phase(monkeypatch):
    # one _click_weights call per grid point, whichever module it is read
    # through, and no per-point call into the click probabilities
    calls = []

    def counted(phi_chi, p_absorb=0.0):
        calls.append(phi_chi)
        return weights(phi_chi, p_absorb)

    def forbidden(*args):
        raise AssertionError("fig4 called _detector_means")

    weights = mzi._click_weights
    monkeypatch.setattr(mzi, "_click_weights", counted)
    monkeypatch.setattr(xpmherald.experiments, "_click_weights", counted)
    monkeypatch.setattr(mzi, "_detector_means", forbidden)
    table = run_experiment(ExperimentConfig("fig4", params={"phi_chi_points": 37}))
    assert len(table.rows) == 37 * len(DEFAULT_FIG4_BETAS)
    assert calls == np.linspace(0.0, 2.0 * math.pi, 37).tolist()


def test_fig4_rejects_non_finite_beta():
    with pytest.raises(ConfigurationError):
        run_experiment(ExperimentConfig("fig4", params={"beta": [1.0, float("nan")]}))


def _data_digest(csv_text):
    """sha256 of a CSV with its manifest lines stripped."""
    data = "".join(
        line + "\n" for line in csv_text.splitlines() if not line.startswith("#")
    )
    return hashlib.sha256(data.encode()).hexdigest()


# fig4 prints repr of math.sin and math.expm1, which glibc's FMA and SSE2
# libm builds round apart on a few inputs (GLIBC_TUNABLES=
# glibc.cpu.hwcaps=-FMA selects the SSE2 one), so its digests are keyed by
# the libm variant the sidecar records
def _by_libm(digests):
    variant = _platform()["libm"]
    assert variant in digests, f"no fig4 digest recorded for libm {variant!r}"
    return digests[variant]


def test_fig4_csv_bytes_golden():
    table = run_experiment(ExperimentConfig("fig4", params={"phi_chi_points": 5000}))
    assert _data_digest(table.to_csv_text()) == _by_libm({
        "fma": "00484212b7ee0b662d84fe4911541125628e296f45b986efdd0508ab85f8db64",
        "sse2": "72a870a72c41d1be9cb27e09e5b527a428f28e88e408ed64decee6119c9543bb",
    })


def test_fig4_within_four_ulp_of_50_digit_reference():
    # the golden grid against 1 - exp(-|beta|^2 sin^2(phi_chi / 2)) to 50
    # digits from the same floats (1 - exp(-x) in output 0.3.0 was up to
    # 5.5e15 ulp off near phi_chi = 0 and 2 pi)
    mp = pytest.importorskip("mpmath")
    table = run_experiment(ExperimentConfig("fig4", params={"phi_chi_points": 5000}))
    worst, sin_sq = 0.0, {}
    with mp.workdps(50):
        for phi_chi, beta, value, _ in table.rows:
            if phi_chi not in sin_sq:
                sin_sq[phi_chi] = mp.sin(mp.mpf(phi_chi) / 2) ** 2
            ref = -mp.expm1(-mp.mpf(beta) ** 2 * sin_sq[phi_chi])
            if ref == 0:
                assert value == 0.0
            else:
                worst = max(worst, float(abs(value - ref)) / math.ulp(float(ref)))
    assert worst <= 4.0


# the loss-bounds grid of the benchmark's seed-1 cli pass
GOLDEN_LOSS_PARAMS = {
    "phi_chi": [0.01, math.pi, 2.5670622557308143],
    "beta_sq": [1, 100, 1e4, 1e6, 63.3233922577051, 90302.34906627363, 72.27433780736384],
}


# (fixed_p, digest); the child processes of test_mzi's second-kernel test
# run these and every other CSV golden below under every (kernel, libm variant)
LOSS_BOUNDS_GOLDENS = [
    (None, "5403e6a196f3ddd82d55a02bdca863ab993a9ff2f978ca9aa181242a6a473c1c"),
    (0.3, "240bee7b55ef099c74d0db1a145e9387d7a36abb4403afe4f6c40f4fa514a24c"),
]


@pytest.mark.parametrize("fixed_p, digest", LOSS_BOUNDS_GOLDENS)
def test_loss_bounds_csv_bytes_golden(fixed_p, digest):
    params = dict(GOLDEN_LOSS_PARAMS)
    if fixed_p is not None:
        params["fixed_p"] = fixed_p
    table = run_experiment(ExperimentConfig("loss-bounds", params=params))
    assert _data_digest(table.to_csv_text()) == digest


def _text_digest(csv_text):
    """sha256 of a whole CSV, manifest block included."""
    return hashlib.sha256(csv_text.encode()).hexdigest()


# (experiment, digest or digests by libm variant)
DEFAULT_CSV_GOLDENS = [
    ("fig4", {
        "fma": "b3a390c8b3ea2983d429b2ae8a5b8ed2ef247766a1a3511318d9565200d32ae1",
        "sse2": "726ed709a5645ecedf6d25a908f42ba3976cc69dbbdfb0323785c95fe92262b1",
    }),
    ("loss-bounds", "c9e5e391a661844a12d8097fd5b2e15cb906ec5cfaf7e08fd039ff0b78c153ef"),
]


@pytest.mark.parametrize("experiment, digest", DEFAULT_CSV_GOLDENS, ids=["fig4", "loss-bounds"])
def test_default_csv_full_text_golden(experiment, digest):
    if isinstance(digest, dict):
        digest = _by_libm(digest)
    assert _text_digest(run_experiment(ExperimentConfig(experiment)).to_csv_text()) == digest


# (params, seed, data digest, whole-text digest)
PURITY_AUDIT_GOLDENS = [
    (
        {"p_a": 0.7260402951959974, "p_b": 0.7308769845622459, "phi_chi": 1.764629736151154},
        1517124863,
        "e8db5b2970aee74ae8bd61e15152ae6e2e0b283de20fbab07368c1f0aed8605e",
        "3d9af82b63a89aef7dc59124e68c5d1ad5df61bdae52f6cc3f9dd74725cf32ae",
    ),
    (
        {"beta": 1.3, "p_a": 0.45, "phi_chi": 2.1},
        6,
        "d928529450cc000f4ee2ed31d120ea32859df63e7383e9367994e8686b6b5ce6",
        "3d64c9b056f431eedd5aacf628263a96af0dc733d2289a6c2a1a6262404253ce",
    ),
]


@pytest.mark.parametrize(
    "params, seed, digest, text_digest", PURITY_AUDIT_GOLDENS, ids=["noisy-probe", "coherent-probe"]
)
def test_purity_audit_csv_bytes_golden(params, seed, digest, text_digest):
    config = ExperimentConfig("purity-audit", params=dict(params, shots=200_000), seed=seed)
    text = run_experiment(config).to_csv_text()
    assert _data_digest(text) == digest
    assert _text_digest(text) == text_digest


# the whole CSV of a small Monte Carlo cascade run, manifest block included
MONTE_CARLO_CASCADE_CSV = """\
# experiment = cascade
# version = 0.5.0
# scheme = reused_probe
# alpha_sq = 4.0
# phi_chi = 1.5707963267948966
# p = 0.6
# total = 0.5899
# residual_amp = 0.5000000000000001
# shots = 20000
# seed = 5
setup,p_first_click
1,0.8689026915113872
2,0.08265010351966874
3,0.019296066252587993
4,0.006211180124223602
"""


def _main_stdout(argv):
    """What ``main(argv)`` writes to stdout; it must exit 0."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        assert main(argv) == 0
    return sink.getvalue()


def test_monte_carlo_cascade_csv_full_text_golden():
    text = _main_stdout(["cascade", "--setups", "4", "--shots", "20000", "--seed", "5"])
    assert text == MONTE_CARLO_CASCADE_CSV


def test_shared_probe_cascade_csv_bytes_golden():
    text = _main_stdout(["cascade", "--scheme", "shared-probe", "--setups", "18"])
    assert _data_digest(text) == "7738272a057b0875319941bdfe59d20739de60573730dff9ec7daf7af49312a2"
    assert _text_digest(text) == "4dd9fd319dffebd819481bcd4d04a1e37d6aae178bb0ecbd6da788b88504dcd4"


# every CSV the CLI emits: argv, and the config file that {config} stands for
EMITTED_TABLES = {
    "fig4": (["run", "{config}"], {"experiment": "fig4", "params": {"phi_chi_points": 1500}}),
    "loss-bounds": (
        ["run", "{config}"], {"experiment": "loss-bounds", "params": GOLDEN_LOSS_PARAMS}
    ),
    "purity-audit": (
        ["run", "{config}"],
        {"experiment": "purity-audit", "params": {"shots": 20_000, "beta": 1.0}, "seed": 7},
    ),
    "cascade-reused": (["cascade", "--setups", "5000"], None),
    "cascade-shared": (["cascade", "--scheme", "shared-probe", "--setups", "12"], None),
    "cascade-monte-carlo": (["cascade", "--setups", "40", "--shots", "20000", "--seed", "5"], None),
}


@pytest.mark.parametrize("name", EMITTED_TABLES)
def test_write_text_and_stdout_are_the_same_bytes(name, tmp_path, monkeypatch):
    # write, to_csv_text and the CLI's stdout run one slice generator; their
    # bytes agree with each other and with slices of a few rows
    argv, config = EMITTED_TABLES[name]
    (tmp_path / "config.json").write_text(json.dumps(config))
    argv = [arg.replace("{config}", str(tmp_path / "config.json")) for arg in argv]
    emitted = []
    for rows in (xpmherald.experiments.CSV_SLICE_ROWS, 7):
        monkeypatch.setattr(xpmherald.experiments, "CSV_SLICE_ROWS", rows)
        out = tmp_path / f"{rows}.csv"
        _main_stdout(argv + ["--out", str(out)])
        emitted += [out.read_text(), _main_stdout(argv)]
    tables = []
    monkeypatch.setattr(xpmherald.cli, "_emit", lambda table, out: tables.append(table))
    assert main(argv) == 0
    emitted.append(tables[0].to_csv_text())
    assert len(set(emitted)) == 1 and emitted[0].endswith("\n")


def test_fig4_write_peaks_within_120_bytes_per_row(tmp_path):
    # the CSV is written in slices, so writing fig4 at 300,000 rows holds the
    # shared phi_chi texts and one slice, not the whole text (295 B per row
    # before the slices)
    table = run_experiment(ExperimentConfig("fig4", params={"phi_chi_points": 100_000}))
    tracemalloc.start()
    try:
        table.write(tmp_path / "fig4.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 120 * 300_000, peak / 300_000
    assert (tmp_path / "fig4.csv").read_text() == table.to_csv_text()


def test_csv_formats_a_shared_cell_list_once_across_slices(monkeypatch):
    # a list two blocks share is formatted once however many slices it
    # spans; any other list and each block constant once
    experiments = xpmherald.experiments
    calls = []
    format_cell = experiments._format_cell
    monkeypatch.setattr(experiments, "_format_cell", lambda v: calls.append(v) or format_cell(v))
    monkeypatch.setattr(experiments, "CSV_SLICE_ROWS", 3)
    shared = [1, 2.5, "a", np.int64(4), -0.0, None, 7]
    blocks = [(shared, [np.float64(i) for i in range(7)], "k"), (shared, list(range(7)), 0.5)]
    text = ResultTable(columns=["a", "b", "c"], blocks=blocks, manifest={"k": "v"}).to_csv_text()
    assert len(calls) == 7 + 7 + 1 + 7 + 1
    rows = [(*cells, "k") for cells in zip(shared, blocks[0][1])]
    rows += [(*cells, 0.5) for cells in zip(shared, blocks[1][1])]
    expected = ["# k = v", "a,b,c"] + [",".join(map(format_cell, row)) for row in rows]
    assert text == "\n".join(expected) + "\n"


def test_loss_bounds_table_has_reference_columns():
    table = run_experiment(
        ExperimentConfig(
            "loss-bounds", params={"phi_chi": [math.pi], "beta_sq": [1.0, 100.0]}
        )
    )
    assert table.columns == [
        "phi_chi", "beta_sq", "pa_max", "reference_value", "abs_deviation",
    ]
    by_beta = {row[1]: row for row in table.rows}
    assert abs(by_beta[1.0][2] - 0.80) <= 0.05
    assert float(by_beta[1.0][4]) <= 0.05
    assert abs(by_beta[100.0][2] - 0.35) <= 0.05


@pytest.mark.parametrize("beta_sq", [-1.0, 0.0, float("nan"), float("inf")])
def test_loss_bounds_rejects_bad_beta_sq(beta_sq):
    cfg = ExperimentConfig(
        "loss-bounds", params={"phi_chi": [3.14], "beta_sq": [1.0, beta_sq]}
    )
    with pytest.raises(ConfigurationError, match="beta_sq"):
        run_experiment(cfg)


@pytest.mark.parametrize("name", ["phi_chi", "beta_sq"])
def test_loss_bounds_rejects_an_empty_list(name):
    # an empty list used to give a header-only CSV and exit 0
    cfg = ExperimentConfig("loss-bounds", params={name: []})
    with pytest.raises(ConfigurationError, match=f"parameter '{name}' must be a non-empty list"):
        run_experiment(cfg)


def test_cli_run_loss_bounds_bad_beta_sq_exits_one(tmp_path, capsys):
    config = tmp_path / "loss.json"
    config.write_text(
        json.dumps(
            {"experiment": "loss-bounds", "params": {"phi_chi": [3.14], "beta_sq": [-1.0]}}
        )
    )
    out = tmp_path / "out.csv"
    assert main(["run", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_loss_bounds_unknown_cells_have_blank_reference():
    table = run_experiment(
        ExperimentConfig(
            "loss-bounds", params={"phi_chi": [math.pi], "beta_sq": [1e6]}
        )
    )
    assert table.rows[0][3] == ""
    assert table.rows[0][4] == ""


def test_purity_audit_counts_no_false_clicks():
    table = run_experiment(
        ExperimentConfig(
            "purity-audit", params={"shots": 50_000, "p_a": 0.3}, seed=123
        )
    )
    row = dict(zip(table.columns, table.rows[0]))
    assert row["click_no_photon"] == 0
    assert row["shots"] == 50_000
    assert row["seed"] == 123


def test_purity_audit_requires_seed():
    with pytest.raises(ConfigurationError):
        run_experiment(ExperimentConfig("purity-audit", params={"shots": 10}))


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigurationError):
        ExperimentConfig("not-an-experiment")


def test_unknown_parameter_rejected_by_name(tmp_path, capsys):
    # a misspelt parameter is refused, not run at its default
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"experiment": "fig4", "params": {"phi_chi_pionts": 7}}))
    out = tmp_path / "out.csv"
    assert main(["run", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "'phi_chi_pionts'" in err and "accepted: beta, phi_chi_points" in err
    assert len(err.strip().splitlines()) == 1 and not out.exists()
    accepted = {
        "fig4": {"beta", "phi_chi_points"},
        "loss-bounds": {"phi_chi", "beta_sq", "fixed_p"},
        "purity-audit": {"shots", "p_a", "phi_chi", "beta", "p_b"},
    }
    for experiment, names in accepted.items():
        ExperimentConfig(experiment, params=dict.fromkeys(names))
        for name in set().union(*accepted.values()) - names | {"seed"}:
            with pytest.raises(ConfigurationError, match=f"'{name}'"):
                ExperimentConfig(experiment, params={name: 1.0})


def test_csv_bit_identical_for_same_config(tmp_path):
    paths = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        run_experiment(
            ExperimentConfig(
                "purity-audit",
                params={"shots": 20_000},
                seed=7,
                out=str(out),
            )
        )
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    sidecar = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert "wall_clock_utc" in sidecar
    # the platform the bytes depend on goes to the sidecar, never the CSV
    assert sidecar["platform"] == _platform()
    assert set(sidecar["platform"]) == {"libm", "numpy", "openblas_core"}
    assert sidecar["platform"]["numpy"] == np.__version__
    assert "libm" not in paths[0].read_text() and "openblas" not in paths[0].read_text()


def test_csv_manifest_block_prefixed():
    table = run_experiment(ExperimentConfig("fig4", params={"phi_chi_points": 5}))
    text = table.to_csv_text()
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx].split(",")[0] == "phi_chi"


def test_result_table_rejects_ragged_rows():
    # a block of the wrong width, with a short cell list, or with no list to
    # count its rows is refused, as a ragged row was
    for block in [([1.0],), ([1.0], [2.0], 3.0), ([1.0, 2.0], [1.0]), (1.0, 2.0)]:
        with pytest.raises(ValueError, match="block"):
            ResultTable(columns=["a", "b"], blocks=[([1.0], 2.0), block], manifest={})


def test_config_file_parsing(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(
        json.dumps({"experiment": "fig4", "params": {"phi_chi_points": 9}})
    )
    cfg = ExperimentConfig.from_file(cfg_path)
    assert cfg.experiment == "fig4"
    assert cfg.params["phi_chi_points"] == 9


def test_config_file_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError, match="line"):
        ExperimentConfig.from_file(bad)
    unknown = tmp_path / "unk.json"
    unknown.write_text(json.dumps({"experiment": "fig4", "bogus_field": 1}))
    with pytest.raises(ConfigurationError, match="bogus_field"):
        ExperimentConfig.from_file(unknown)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_run_writes_csv(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(
        json.dumps(
            {
                "experiment": "purity-audit",
                "params": {"shots": 5000},
                "seed": 11,
            }
        )
    )
    out = tmp_path / "audit.csv"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    assert out.exists()
    assert out.with_suffix(".csv.manifest.json").exists()


def test_cli_run_bad_config_exits_one(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", str(missing)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "fig4", "wrong": True}))
    assert main(["run", str(bad)]) == 1


def test_cli_usage_error_exits_one():
    assert main(["no-such-command"]) == 1


def _config(tmp_path, **fields):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(fields))
    return str(path)


def test_cli_sample_requires_probe_choice(tmp_path, capsys):
    # the purity-audit shot campaign takes exactly one probe
    config = _config(
        tmp_path, experiment="purity-audit", seed=1, params={"p_b": 0.5, "beta": 1.0}
    )
    assert main(["run", config]) == 1


def test_cli_sample_runs(tmp_path, capsys):
    config = _config(
        tmp_path,
        experiment="purity-audit",
        seed=4,
        params={"shots": 2000, "p_a": 0.4, "beta": 1.0},
    )
    assert main(["run", config]) == 0
    text = capsys.readouterr().out
    assert "click_no_photon" in text


def test_cli_sample_without_seed_is_usage_error(tmp_path, capsys):
    config = _config(
        tmp_path, experiment="purity-audit", params={"shots": 10, "beta": 1.0}
    )
    assert main(["run", config]) == 1


def test_cli_loss_bound(tmp_path, capsys):
    config = _config(
        tmp_path,
        experiment="loss-bounds",
        params={"phi_chi": [math.pi], "beta_sq": [1.0]},
    )
    code = main(["run", config])
    assert code == 0
    out = capsys.readouterr().out
    row = out.strip().splitlines()[-1]
    assert abs(float(row.split(",")[2]) - 0.80) <= 0.05


def test_cli_cascade_exact(capsys):
    assert main(["cascade", "--scheme", "shared-probe", "--setups", "6"]) == 0
    out = capsys.readouterr().out
    assert "p_first_click" in out


def test_cli_cascade_mc_requires_seed(capsys):
    assert main(["cascade", "--shots", "100"]) == 1


def test_cli_cascade_past_enumeration_cap_exits_one():
    # the exact shared-probe route is capped; past the cap the CLI must
    # point to Monte Carlo instead of dying with a traceback
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "xpmherald.cli", "cascade", "--scheme",
         "shared-probe", "--setups", "30"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "--shots" in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["cascade", "--alpha-sq", "nan"],
        ["cascade", "--phi-chi", "nan"],
        ["cascade", "--alpha-sq", "inf", "--scheme", "shared-probe"],
        ["cascade", "--alpha-sq", "-1"],
        ["run", {"experiment": "loss-bounds", "params": {"beta_sq": [math.nan]}}],
        ["run", {"experiment": "loss-bounds", "params": {"beta_sq": [-1.0]}}],
        # a click exponent below the normal float range, whose bound drifted
        ["run", {"experiment": "loss-bounds", "params": {"beta_sq": [1e-320]}}],
        ["run", {"experiment": "loss-bounds", "params": {"fixed_p": math.nan}}],
        ["run", {"experiment": "fig4", "params": {"beta": [math.nan]}}],
        # a beta_abs cell would print the sign
        ["run", {"experiment": "fig4", "params": {"beta": [-1.0]}}],
        ["run", {"experiment": "fig4", "params": {"beta": [1.0, -0.0]}}],
        ["run", {"experiment": "purity-audit", "seed": 1.5}],
        ["run", {"experiment": "purity-audit", "seed": "7"}],
        ["run", {"experiment": "purity-audit", "seed": True}],
        ["run", {"experiment": "fig4", "params": {"beta": 2.0}}],
        ["run", {"experiment": "loss-bounds", "params": {"phi_chi": 3.0}}],
        ["run", {"experiment": "loss-bounds", "params": {"phi_chi": []}}],
        ["run", {"experiment": "loss-bounds", "params": {"beta_sq": []}}],
        ["run", {"experiment": "fig4", "params": {"beta": []}}],
        ["run", {"experiment": "purity-audit", "seed": 1, "params": {"beta": [1.0]}}],
        ["run", {"experiment": "purity-audit", "seed": 1, "params": {"shots": math.inf}}],
        ["run", {"experiment": "fig4", "params": {"phi_chi_points": math.inf}}],
        ["run", {"experiment": "fig4", "out": 5}],
        ["run", {"experiment": "fig4", "params": {"beta": [1e200]}}],
        ["run", {"experiment": "purity-audit", "seed": 1, "params": {"beta": 1e200}}],
        # sizes far past the shot and row caps, checked before any allocation
        ["cascade", "--setups", "5", "--shots", "1000000000000000", "--seed", "1"],
        # a chain past the setup cap, whose per-rank table would never finish
        ["cascade", "--setups", "99999999999999999999"],
        ["run", {"experiment": "fig4", "params": {"phi_chi_points": 1e15}}],
        ["run", {"experiment": "purity-audit", "seed": 1, "params": {"shots": 1e15}}],
        # one past each cap, a size that would run out of memory further on
        ["cascade", "--setups", "5", "--shots", str(MAX_SHOTS + 1), "--seed", "1"],
        ["run", {"experiment": "fig4",
                 "params": {"beta": [1.0], "phi_chi_points": MAX_FIG4_ROWS + 1}}],
        ["run", {"experiment": "purity-audit", "seed": 1,
                 "params": {"shots": MAX_SAMPLE_SHOTS + 1}}],
        # a source efficiency past 1, and null for a number
        ["run", {"experiment": "purity-audit", "seed": 1, "params": {"p_b": 2.0}}],
        ["run", {"experiment": "purity-audit", "seed": 1, "params": {"p_a": None}}],
        ["run", {"experiment": "purity-audit", "seed": 1, "params": {"phi_chi": None}}],
    ],
)
def test_cli_rejects_non_finite_and_out_of_range_arguments(argv, tmp_path, capsys):
    # each bad value is a config error on one stderr line, before any output;
    # a table in argv stands for a config file holding it
    out = tmp_path / "out.csv"
    argv = [
        _config(tmp_path, **a) if isinstance(a, dict) else a for a in argv
    ] + ["--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_cli_truncation_failure_exits_three(tmp_path, capsys, monkeypatch):
    # no input fails the fixed truncation, so the exit-3 guard is reached by
    # a truncation failing on purpose; it stays distinct from a config error
    def fail(mean, policy=None):
        raise TruncationError("no cutoff meets the tail tolerance", tail=1.0)

    monkeypatch.setattr(mzi, "_poisson_weights", fail)
    config = _config(tmp_path, experiment="purity-audit", seed=1, params={"shots": 10, "beta": 3.0})
    assert main(["run", config]) == 3
    err = capsys.readouterr().err
    assert err == "truncation failure: no cutoff meets the tail tolerance\n"


@pytest.mark.parametrize("command", ["run", "cascade"])
def test_cli_unwritable_output_exits_one(command, tmp_path, capsys):
    # an --out path in a missing directory used to end in a traceback
    out = tmp_path / "missing" / "out.csv"
    argv = ["run", _config(tmp_path, experiment="fig4")] if command == "run" else [command]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert str(out) in err


def test_cli_verify_fast_exit_zero(capsys):
    assert main(["verify", "--suite", "fast"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_group_alone_reproduces_its_part_of_the_suite():
    # each group seeds its own generator, so a failure seen in a whole run
    # replays when its group runs alone
    groups = ("elements", "mzi", "loss", "cascade")
    alone = [r.line() for g in groups for r in run_suite("fast", modules=[g])]
    assert alone == [r.line() for r in run_suite("fast")]
    assert run_suite("fast", modules=["fock"]) == []  # retired group name


def test_verify_records_a_crashed_group_as_a_failed_check(monkeypatch):
    def crash(results, rng, dense):
        raise RuntimeError("boom")

    monkeypatch.setattr(xpmherald.verify, "_check_loss", crash)
    (result,) = run_suite("fast", modules=["loss"])
    assert (result.module, result.name, result.passed) == ("loss", "check-group-crashed", False)
    assert result.observed == "RuntimeError: boom"


def test_verify_stays_off_the_fock_toolkit():
    # verify audits the scheme through the engine; the toolkit's algebra is
    # tested in test_fock.py and test_elements.py, so these names may go
    toolkit = {"tensor", "make_fock", "condition", "Ensemble", "mode_number_distribution",
               "apply_beam_splitter", "apply_xpm"}
    tree = ast.parse(Path(xpmherald.verify.__file__).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    used |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    assert not used & toolkit, sorted(used & toolkit)


# ---------------------------------------------------------------------------
# deliberate-mutation audit: a sign flip in the beam-splitter rewrite must
# surface as a named transparency failure in the verify report
# ---------------------------------------------------------------------------


def test_verify_catches_flipped_sign_convention(monkeypatch):
    # a unitary but wrong-sign rewrite: the fixed 50:50 basis becomes a real
    # rotation, which is not its own inverse, so the second splitter no
    # longer reverses the first and the no-false-click guarantee collapses
    rotation = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)

    def rotated_blocks(t_max):
        return el._block_recurrence(rotation, t_max)

    monkeypatch.setattr(el, "_hadamard_blocks", rotated_blocks)
    results = run_suite("fast", modules=["mzi"])
    report = format_report(results)
    assert not all_passed(results)
    failed_names = {r.name for r in results if not r.passed}
    assert "zero-false-click" in failed_names
    assert "zero-false-click" in report
    # the purity audit reads the engine's click masses, not run_setup's
    # purity, which is 1 by construction on a transparent setup, and the
    # Monte Carlo checks hold sample_shots, whose q0 is 0 there by
    # construction, against the engine's cells
    assert "click-implies-pure-photon" in failed_names
    assert {"mc-click-frequency", "mc-click-without-photon"} <= failed_names


@pytest.mark.parametrize(
    "name, mutant",
    [
        # the detector arms with and without a signal photon exchanged
        ("coherent_outputs",
         lambda outputs: lambda cfg, beta, photon: np.array(
             [outputs(cfg, beta, photon)[0], outputs(cfg, beta, not photon)[1]])),
        # the classical arms of the other signal branch
        ("coherent_outputs",
         lambda outputs: lambda cfg, beta, photon: outputs(cfg, beta, not photon)),
    ],
    ids=["swapped-classical-clicks", "flipped-photon-in-coherent-outputs"],
)
def test_verify_catches_faults_in_the_classical_path(monkeypatch, name, mutant):
    # the elements check reads the package's own classical path, so a fault
    # there must surface as its failure against exact propagation
    monkeypatch.setattr(mzi, name, mutant(getattr(mzi, name)))
    (result,) = run_suite("fast", modules=["elements"])
    assert result.name == "classical-vs-exact-path"
    assert not result.passed, result.line()


@pytest.mark.parametrize(
    "mutant",
    [
        # the click law's weights off by one part in a million
        lambda weights: lambda *args: tuple(a * (1.0 + 1e-6) for a in weights(*args)),
        # the weights with and without a signal photon exchanged
        lambda weights: lambda *args: weights(*args)[::-1],
    ],
    ids=["scaled-click-weights", "swapped-click-weights"],
)
def test_verify_catches_faults_in_the_click_law(monkeypatch, mutant):
    # the closed forms read the click law, the exact checks the engine, so a
    # fault in the law must fail both closed-form-vs-exact checks
    monkeypatch.setattr(mzi, "_click_weights", mutant(mzi._click_weights))
    results = run_suite("fast", modules=["mzi"])
    checks = {r.name: r for r in results if r.name.startswith("closed-form-vs-exact-")}
    assert sorted(checks) == ["closed-form-vs-exact-coherent", "closed-form-vs-exact-noisy"]
    assert not any(r.passed for r in checks.values()), format_report(results)


def test_verify_stays_off_the_product_route(monkeypatch):
    # the audits read the engine's batches, never the product they audit:
    # with run_setup and its outcome type broken every check still passes
    def broken(*args, **kwargs):
        raise AssertionError("verify reached the product route")

    monkeypatch.setattr(mzi, "run_setup", broken)
    monkeypatch.setattr(mzi, "HeraldOutcome", broken)
    for results in (run_suite("fast"), run_suite("full", modules=["mzi"])):
        assert results and all_passed(results), format_report(results)


# sha256 of the verify --suite fast report per (OpenBLAS kernel, libm
# variant), keyed as test_mzi.GOLDEN_DIGESTS, whose child processes run
# test_verify_fast_report_golden under each
VERIFY_FAST_DIGESTS = {
    ("SkylakeX", "fma"): "1d2062e7e090d8dcbfb96378f4d7091099cd2c1bd0afb8e40a7edb8cf7b38acd",
    ("SkylakeX", "sse2"): "1d2062e7e090d8dcbfb96378f4d7091099cd2c1bd0afb8e40a7edb8cf7b38acd",
    ("Haswell", "fma"): "58e50cfa79d84a5652ffb74e098e3c245f6d54da1e6ae8e26179b3fdf5e1c4b9",
    ("Haswell", "sse2"): "58e50cfa79d84a5652ffb74e098e3c245f6d54da1e6ae8e26179b3fdf5e1c4b9",
    ("Sandybridge", "fma"): "9135566070e1aec0acbdcc7c5bbf8db386936942977aeaf43335bef165cdfe31",
    ("Sandybridge", "sse2"): "9135566070e1aec0acbdcc7c5bbf8db386936942977aeaf43335bef165cdfe31",
    ("Nehalem", "fma"): "9135566070e1aec0acbdcc7c5bbf8db386936942977aeaf43335bef165cdfe31",
    ("Nehalem", "sse2"): "9135566070e1aec0acbdcc7c5bbf8db386936942977aeaf43335bef165cdfe31",
    ("Katmai", "fma"): "9135566070e1aec0acbdcc7c5bbf8db386936942977aeaf43335bef165cdfe31",
    ("Katmai", "sse2"): "9135566070e1aec0acbdcc7c5bbf8db386936942977aeaf43335bef165cdfe31",
}


def test_verify_fast_report_golden():
    # every line of the fast report, observed values included, is pinned
    platform = _platform()
    key = platform["openblas_core"], platform["libm"]
    assert key in VERIFY_FAST_DIGESTS, f"no verify digest recorded for {key!r}"
    report = format_report(run_suite("fast"))
    assert hashlib.sha256(report.encode()).hexdigest() == VERIFY_FAST_DIGESTS[key]


def test_fig4_rejects_tables_past_the_row_cap():
    # the rows are beta values times grid points, counted before any is built
    past = {"beta": [0.5, 1.0], "phi_chi_points": MAX_FIG4_ROWS // 2 + 1}
    with pytest.raises(ConfigurationError, match=str(MAX_FIG4_ROWS)):
        run_experiment(ExperimentConfig("fig4", params=past))


def test_whole_number_params_accept_integral_floats():
    # JSON has one number type, so 5.0 is the count 5 and gives the same table
    as_float = run_experiment(ExperimentConfig("fig4", params={"phi_chi_points": 5.0}))
    as_int = run_experiment(ExperimentConfig("fig4", params={"phi_chi_points": 5}))
    assert as_float.rows == as_int.rows
    with pytest.raises(ConfigurationError, match="whole number"):
        run_experiment(ExperimentConfig("fig4", params={"phi_chi_points": 5.5}))


def test_csv_formats_each_cell_object_as_the_per_cell_formatter_does():
    # to_csv_text formats each cell list once, by identity, and each block
    # constant once; cells that compare equal but print apart (0.0 and -0.0,
    # 1 and 1.0) and numpy scalars keep the per-cell text, in a list two
    # blocks share, next to block constants and across the blocks of a column
    from xpmherald.experiments import _format_cell

    zero, one = 0.0, 1.0
    shared = [zero, -0.0, zero, np.float64(-0.0), np.float32(0.1), zero]
    blocks = [
        (shared, [1, one, True, np.int64(1), one, 1], "x"),
        ([-0.0, zero], one, [None, ""]),
        (shared, 1, ["x", "", None, "y", "x", "x"]),
        ([np.float64(0.5)], np.int64(-1), None),
        ([zero, one], False, np.str_("z")),
    ]
    table = ResultTable(columns=["a", "b", "c"], blocks=blocks, manifest={"k": "v"})
    assert table.rows == (
        *zip(shared, blocks[0][1], ["x"] * 6), (-0.0, one, None), (zero, one, ""),
        *zip(shared, [1] * 6, blocks[2][2]), (np.float64(0.5), -1, None),
        (zero, False, "z"), (one, False, "z"),
    )
    expected = ["# k = v", "a,b,c"] + [",".join(map(_format_cell, row)) for row in table.rows]
    assert table.to_csv_text() == "\n".join(expected) + "\n"
    lines = table.to_csv_text().splitlines()
    assert lines[2:4] == ["0.0,1,x", "-0.0,1.0,x"]
    assert lines[8:10] == ["-0.0,1.0,None", "0.0,1.0,"]
    assert lines[10:12] == ["0.0,1,x", "-0.0,1,"]
    assert lines[16:] == ["0.5,-1,None", "0.0,0,z", "1.0,0,z"]


def test_csv_columns_of_every_kind_equal_the_per_cell_formatter():
    # each cell list takes one of to_csv_text's routes, plain floats by repr
    # and mixed kinds by _format_cell, once per list however many blocks
    # share it; block constants of every kind print as _format_cell prints
    # them; every byte equals the per-cell reference
    from xpmherald.experiments import _format_cell

    shared, zero, negative_zero = 0.1, float("0.0"), -float("0.0")
    n = 7
    columns = {
        "plain": [float(i) / 3.0 for i in range(n)],
        "shared": [shared, 2.5, shared, zero, negative_zero, shared, 1e-300],
        "zeros": [zero, negative_zero, float("-0.0"), zero, float("0.0"), negative_zero, zero],
        "np_float": [np.float64(i) / 3.0 for i in range(n)],
        "np_int": [np.int64(i - 3) for i in range(n)],
        "mixed": [shared, np.float64(0.1), 3, np.int64(-4), True, "s", shared],
        "distinct": [1.5, np.float64(-0.0), 2**70, False, "", None, -7],
        "ints": [1, 1, 0, -5, 10**20, 1, 0],
    }
    assert zero is not negative_zero and zero == negative_zero
    c = columns
    blocks = [
        tuple(columns.values()),
        # shared lists in other columns, and constants of every kind
        (c["shared"], negative_zero, c["zeros"], np.float64(2.5), np.int64(7), c["mixed"],
         None, True),
        (c["ints"], c["ints"], zero, np.float32(0.1), -(2**65), "t", np.bool_(True), 1.0),
        ([zero, 1], [negative_zero, 1.0], [1, zero], [np.int64(0), 0.0], [0, 0], [0.0, 0],
         [False, 0], [np.float64(0.0), np.float64(-0.0)]),
    ]
    table = ResultTable(columns=list(columns), blocks=blocks, manifest={})
    assert table.rows[:n] == tuple(zip(*columns.values()))
    assert len(table.rows) == 3 * n + 2
    expected = [",".join(columns)] + [",".join(map(_format_cell, row)) for row in table.rows]
    assert table.to_csv_text() == "\n".join(expected) + "\n"
    lines = table.to_csv_text().splitlines()
    assert lines[1:3] == [
        "0.0,0.1,0.0,0.0,-3,0.1,1.5,1", "0.3333333333333333,2.5,-0.0,0.3333333333333333,-2,0.1,-0.0,1",
    ]
    assert lines[n + 1] == "0.1,-0.0,0.0,2.5,7,0.1,None,1"
    assert lines[2 * n + 1] == "1,1,0.0,0.10000000149011612,-36893488147419103232,t,True,1.0"
    assert lines[3 * n + 1:] == ["0.0,-0.0,1,0,0,0.0,0,0.0", "1,1.0,0.0,0.0,0,0,0,-0.0"]


def test_experiment_rows_equal_the_row_tuples_of_each_builder():
    # the rows view of the blocks equals the row tuples the runners built
    # cell by cell: fig4's (phi, beta, efficiency, 0.0), loss-bounds' one row
    # per (phi_chi, beta_sq) and the purity audit's one row
    from xpmherald.experiments import (
        REFERENCE_LOSS_BOUNDS,
        _click_scale,
        _click_weights,
        max_tolerable_loss,
        sample_shots,
    )

    table = run_experiment(ExperimentConfig("fig4", params={"phi_chi_points": 41}))
    phis = np.linspace(0.0, 2.0 * math.pi, 41).tolist()
    rows = []
    for beta in DEFAULT_FIG4_BETAS:
        y = _click_scale(math.pi / 4.0, beta)
        rows += [(phi, beta, -math.expm1(-(y * _click_weights(phi)[0])), 0.0) for phi in phis]
    assert table.rows == tuple(rows)

    table = run_experiment(ExperimentConfig("loss-bounds", params=GOLDEN_LOSS_PARAMS))
    references = {(round(p, 6), b): r for p, b, r in REFERENCE_LOSS_BOUNDS}
    rows = []
    for phi_chi in GOLDEN_LOSS_PARAMS["phi_chi"]:
        setup = transparent_via_angle_sum(math.pi / 4.0, 0.0, phi_chi)
        for beta_sq in GOLDEN_LOSS_PARAMS["beta_sq"]:
            bound = max_tolerable_loss(setup, math.sqrt(beta_sq))
            ref = references.get((round(phi_chi, 6), beta_sq))
            cells = ("", "") if ref is None else (repr(ref), repr(abs(bound - ref)))
            rows.append((phi_chi, beta_sq, bound, *cells))
    assert table.rows == tuple(rows) and any(row[3] for row in rows)

    config = ExperimentConfig("purity-audit", params={"shots": 4000, "p_a": 0.6}, seed=3)
    table = run_experiment(config)
    counts = sample_shots(transparent_via_angle_sum(math.pi / 4.0, 0.0, math.pi),
                          mzi.NoisySource(0.6), mzi.NoisyPhotonProbe(mzi.NoisySource(0.8)),
                          4000, 3)
    freq = (counts["click_and_photon"] + counts["click_no_photon"]) / 4000
    sigma = math.sqrt(max(freq * (1.0 - freq), 1.0 / 4000) / 4000)
    assert table.rows == ((4000, 3, 0.6, *counts.values(), freq, sigma),)
