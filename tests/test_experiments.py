import ast
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xpmherald.elements as el
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
    run_experiment,
)
from xpmherald.mzi import CoherentProbe, detection_efficiency, transparent_via_angle_sum
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


def test_fig4_rejects_non_finite_beta():
    with pytest.raises(ConfigurationError):
        run_experiment(ExperimentConfig("fig4", params={"beta": [1.0, float("nan")]}))


def _data_digest(csv_text):
    """sha256 of a CSV with its manifest lines stripped."""
    data = "".join(
        line + "\n" for line in csv_text.splitlines() if not line.startswith("#")
    )
    return hashlib.sha256(data.encode()).hexdigest()


def test_fig4_csv_bytes_golden():
    table = run_experiment(ExperimentConfig("fig4", params={"phi_chi_points": 5000}))
    assert _data_digest(table.to_csv_text()) == (
        "b8d0b336343d1abaf0606a7bde6367ad2274852c09af489dfb6e13716a761d54"
    )


# the loss-bounds grid of the benchmark's seed-1 cli pass
GOLDEN_LOSS_PARAMS = {
    "phi_chi": [0.01, math.pi, 2.5670622557308143],
    "beta_sq": [1, 100, 1e4, 1e6, 63.3233922577051, 90302.34906627363, 72.27433780736384],
}


@pytest.mark.parametrize(
    "fixed_p, digest",
    [
        (None, "5403e6a196f3ddd82d55a02bdca863ab993a9ff2f978ca9aa181242a6a473c1c"),
        (0.3, "240bee7b55ef099c74d0db1a145e9387d7a36abb4403afe4f6c40f4fa514a24c"),
    ],
)
def test_loss_bounds_csv_bytes_golden(fixed_p, digest):
    params = dict(GOLDEN_LOSS_PARAMS)
    if fixed_p is not None:
        params["fixed_p"] = fixed_p
    table = run_experiment(ExperimentConfig("loss-bounds", params=params))
    assert _data_digest(table.to_csv_text()) == digest


def _text_digest(csv_text):
    """sha256 of a whole CSV, manifest block included."""
    return hashlib.sha256(csv_text.encode()).hexdigest()


@pytest.mark.parametrize(
    "experiment, digest",
    [
        ("fig4", "815beb23427bdabcd2b2a59cff9eb8500ccee086c12ac934e9c60372be239124"),
        ("loss-bounds", "67ee4cdd8368c36bfbd5dd61b3a7961752352d361d315f4c79f15e01fe483a4b"),
    ],
)
def test_default_csv_full_text_golden(experiment, digest):
    assert _text_digest(run_experiment(ExperimentConfig(experiment)).to_csv_text()) == digest


@pytest.mark.parametrize(
    "params, seed, digest, text_digest",
    [
        (
            {"p_a": 0.7260402951959974, "p_b": 0.7308769845622459, "phi_chi": 1.764629736151154},
            1517124863,
            "1e936cc48efa3b6ae15bfd045c62777042a1a077b15697ec0fae3f988d81d55b",
            "0074ae34ce7a53a9f2018482c34493e7e91bb2ab578ebfae379ea6bf7994cff3",
        ),
        (
            {"beta": 1.3, "p_a": 0.45, "phi_chi": 2.1},
            6,
            "7d72981abd521d11c3d0be010ae9c78a7fdb6a3c06ecaae831e22211db68c038",
            "401e204f6a01f7e1889327a3776441c4d7bd51d9ead44d2fa3070ba10e0349f1",
        ),
    ],
    ids=["noisy-probe", "coherent-probe"],
)
def test_purity_audit_csv_bytes_golden(params, seed, digest, text_digest):
    config = ExperimentConfig("purity-audit", params=dict(params, shots=200_000), seed=seed)
    text = run_experiment(config).to_csv_text()
    assert _data_digest(text) == digest
    assert _text_digest(text) == text_digest


def test_shared_probe_cascade_csv_bytes_golden(capsys):
    assert main(["cascade", "--scheme", "shared-probe", "--setups", "18"]) == 0
    text = capsys.readouterr().out
    assert _data_digest(text) == "7738272a057b0875319941bdfe59d20739de60573730dff9ec7daf7af49312a2"
    assert _text_digest(text) == "6647c78c49a9ffe2af52e39659eec3533106771aa1ef23631f82ad584d0afb2a"


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


def test_csv_manifest_block_prefixed():
    table = run_experiment(ExperimentConfig("fig4", params={"phi_chi_points": 5}))
    text = table.to_csv_text()
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx].split(",")[0] == "phi_chi"


def test_result_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        ResultTable(columns=["a", "b"], rows=[(1.0,)], manifest={})


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
        ["run", {"experiment": "loss-bounds", "params": {"fixed_p": math.nan}}],
        ["run", {"experiment": "fig4", "params": {"beta": [math.nan]}}],
        ["run", {"experiment": "purity-audit", "seed": 1.5}],
        ["run", {"experiment": "purity-audit", "seed": "7"}],
        ["run", {"experiment": "purity-audit", "seed": True}],
        ["run", {"experiment": "fig4", "params": {"beta": 2.0}}],
        ["run", {"experiment": "loss-bounds", "params": {"phi_chi": 3.0}}],
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
        # one past each cap, a size that would run out of memory further on
        ["cascade", "--setups", "5", "--shots", str(MAX_SHOTS + 1), "--seed", "1"],
        ["run", {"experiment": "fig4",
                 "params": {"beta": [1.0], "phi_chi_points": MAX_FIG4_ROWS + 1}}],
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
    def fail(beta, policy=None):
        raise TruncationError("no cutoff meets the tail tolerance", tail=1.0)

    monkeypatch.setattr(mzi, "make_coherent", fail)
    monkeypatch.setattr(mzi, "_memo", {})
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


@pytest.mark.parametrize(
    "name, mutant",
    [
        # the bright route's clicks with and without a signal photon exchanged
        ("_classical_clicks",
         lambda clicks: lambda cfg, beta: lambda p_absorb: clicks(cfg, beta)(p_absorb)[::-1]),
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
