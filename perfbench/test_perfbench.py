"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import ast
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer, layer_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("generate", [workloads.exact_cold, workloads.exact_grid, workloads.cli_inputs])
def test_generator_is_deterministic_per_seed(generate):
    kwargs = {} if generate is workloads.cli_inputs else {"n_blocks": 4}
    assert generate(7, **kwargs) == generate(7, **kwargs)
    assert generate(7, **kwargs) != generate(8, **kwargs)


def test_exact_cold_blocks_have_the_stated_mix():
    for block in workloads.exact_cold(3, n_blocks=5):
        assert len(block) == workloads.COLD_BLOCK
        assert sum(op["p"] == 0.0 for op in block) == workloads.COLD_VACUUM
        assert sum(op["probe"]["kind"] == "noisy" for op in block) == workloads.COLD_NOISY
        for op in block:
            if op["probe"]["kind"] == "coherent":
                beta_sq = op["probe"]["re"] ** 2 + op["probe"]["im"] ** 2
                assert workloads.BETA_MIN**2 <= beta_sq * (1 + 1e-12) <= 16.0 * (1 + 1e-12)


def test_nontransparent_config_is_a_failed_op_not_a_crash():
    op = {
        "family": "raw",
        "bs1": [0.7, 0.3],
        "bs2": [1.1, 2.0],
        "phi_chi": 1.0,
        "p": 0.0,
        "probe": {"kind": "coherent", "re": 1.0, "im": 0.0},
        "check": "cold",
        "require_transparent": False,
    }
    _, ms, why, p_click = worker.run_exact_op(op)
    assert "false click" in why and p_click > 1e-3 and ms > 0.0
    # The same config with the transparency check on raises inside the op.
    _, _, why, _ = worker.run_exact_op(dict(op, require_transparent=True))
    assert why.startswith("ConfigurationError")


def test_replay_reproduces_run_setup():
    from xpmherald import run_setup

    layers = worker.ExactLayers()
    ops = workloads.exact_cold(5, n_blocks=1)[0][:12] + workloads.exact_grid(5, n_blocks=1)[0][:3]
    for op in ops:
        cfg, source, probe = worker.build(op)
        expected = run_setup(cfg, source, probe)
        p_click, det_eff, _, deficit, _ = worker.replay_run_setup(layers, cfg, source, probe)
        assert abs(p_click - expected.p_click) <= 1e-12
        assert abs(det_eff - expected.detection_efficiency) <= 1e-12
        assert abs(deficit - expected.truncation_deficit) <= 1e-12


def test_self_times_sum_to_the_root_span():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    times = layer_times(tracer.spans)
    assert times["inner"]["calls"] == 3
    total = sum(row["self_s"] for row in times.values())
    assert math.isclose(total, times["outer"]["total_s"], rel_tol=1e-9)


def test_per_layer_names_match_benchmark_json():
    assert [m["name"] for m in SPEC["per_layer"]] == run.per_layer_names()


def _result(argv, cwd):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py"] + argv,
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = _result(["--workload", workload, "--seed", "11", "--seconds", "1", "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[-2])["env"]
    assert env["seed"] == 11 and env["numpy"] and env["nproc"] >= 1
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0.0
    if trace:
        # Layer self times partition the traced operation time.
        shares = sum(v["value"] for k, v in result["metrics"].items() if k.endswith("share")
                     and k not in ("elements.bs_new_angle_share", "trace.overhead_share"))
        assert math.isclose(shares, 1.0, rel_tol=1e-9)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _result(["--workload", "exact-cold", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_no_private_package_names_are_imported():
    for path in HERE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("xpmherald"):
                assert not any(part.startswith("_") for part in node.module.split("."))
                assert not any(alias.name.startswith("_") for alias in node.names), path
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("xpmherald"):
                        assert not any(p.startswith("_") for p in alias.name.split(".")), path
