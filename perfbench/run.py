"""Benchmark of the xpmherald package: one closed-loop client, fresh processes.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload exact-cold --seed 1 --seconds 30 --trace 0

Workloads are ``exact-cold``, ``exact-grid`` and ``cli`` (see README.md).
Inputs are generated from ``--seed``.  Every repetition runs in a fresh
Python process that imports the package from ``src/``, one operation at a
time.  Every output is checked; a raising or wrong operation counts as
failed.  With ``--trace 0`` the end-to-end metrics are measured with
tracing off; with ``--trace 1`` the same operation stream is run once
untraced and once traced and the per-layer metrics are reported.  The last
line of standard output is the JSON result; the line before it records the
run environment.  Exits 2 without a result when the package sources are
missing or a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from reference import scale_factor
from tracing import layer_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

EXACT_REPS = 3           # fresh worker processes per end-to-end exact run
SETUP_SAMPLES = 10       # fresh imports timed per end-to-end run, at least
WORKER_TIMEOUT_S = 150
PERCENTILE_HALF_WIDTH = 5.0

EXACT_LAYERS = (
    "fock.make_coherent",
    "fock.make_fock",
    "fock.tensor",
    "fock.condition",
    "fock.mode_number_distribution",
    "elements.bs_cold",
    "elements.bs_warm",
    "elements.xpm",
)
CLI_LAYERS = (
    "mzi.closed_form",
    "experiments.to_csv_text",
    "experiments.write",
    "loss.max_tolerable_loss",
    "mzi.sample_shots",
    "cascade.enumeration",
)
VERIFY_LAYERS = tuple(f"verify.{g}" for g in ("fock", "elements", "mzi", "loss", "cascade"))
# Spans whose self time is reported as <name>.self_ms: the exact-Fock op,
# the CLI entry point and the experiment runner.
SELF_LAYERS = ("mzi.run_setup", "cli.main", "experiments.run_experiment")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def per_layer_names() -> list[str]:
    names = []
    for layer in EXACT_LAYERS + CLI_LAYERS:
        names += [f"{layer}.ms", f"{layer}.calls", f"{layer}.share"]
    for layer in VERIFY_LAYERS:
        names += [f"{layer}.ms", f"{layer}.share"]
    names += ["mzi.run_setup.ms", "cli.main.ms"]
    for layer in SELF_LAYERS:
        prefix = "cli" if layer == "cli.main" else layer
        names += [f"{prefix}.self_ms", f"{prefix}.self_share"]
    names += ["mzi.sample_shots.shots_per_s"]
    names += [f"cli.{cmd}_s" for cmd in workloads.CLI_COMMANDS]
    names += [
        "elements.bs_new_angle_share",
        "elements.bs_calls",
        "fock.cutoff_max",
        "fock.dense_basis_max",
        "fock.truncation_deficit_max",
        "trace.overhead_share",
        "trace.ops",
    ]
    return names


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


class Runner:
    """Starts one worker process at a time and waits for it to end."""

    def __init__(self, root: Path, tmp: Path):
        self.tmp = tmp
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else src + os.pathsep + old
        self.count = 0
        self.env_info: dict = {}
        self.reference_s: list[float] = []

    def spawn(self, job: dict) -> dict:
        self.count += 1
        job_path = self.tmp / f"job{self.count}.json"
        result_path = self.tmp / f"result{self.count}.json"
        job_path.write_text(json.dumps(job))
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), str(job_path), str(result_path)],
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s on job {job['kind']}")
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace")[-2000:]
            raise BenchError(f"worker failed with exit code {proc.returncode}:\n{tail}")
        result = json.loads(result_path.read_text())
        result_path.unlink()
        self.env_info = {"python": result["python"], "numpy": result["numpy"]}
        self.reference_s += result["refs"]
        to_reference(result, start)
        return result

    def setup_times(self, n: int) -> list[float]:
        return [self.spawn({"kind": "setup"})["setup_s"] for _ in range(n)]


def to_reference(result: dict, spawned: float) -> None:
    """Rescale a worker's times in place to reference time (see reference.py)."""
    factor = scale_factor(result["refs"])
    result["setup_s"] = (result["ready"] - spawned) * factor
    for record in result.get("ops", ()):  # exact job: [start, ms, why, p_click]
        record[1] *= factor
    if "ms" in result:  # cli job
        result["ms"] *= factor
    for span in result.get("spans", ()):
        span[1] *= factor
        span[2] *= factor


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile, smoothed over the samples ranked within
    ``PERCENTILE_HALF_WIDTH`` percentage points of q.

    Call cost is a step function of the integer coherent cutoff and grows
    like |beta|^4, so exact-cold call times climb in steps of up to a sixth
    around the median.  A single order statistic lands on either side of a
    step from run to run; the mean of the ranks around it does not.  With
    too few samples for a window, this is the percentile interpolated
    between the two nearest samples.
    """
    xs = sorted(values)
    top = len(xs) - 1
    lo = math.ceil((q - PERCENTILE_HALF_WIDTH) / 100.0 * top)
    hi = math.floor((q + PERCENTILE_HALF_WIDTH) / 100.0 * top)
    if lo <= hi:
        return statistics.fmean(xs[lo : hi + 1])
    pos = q / 100.0 * top
    below = math.floor(pos)
    above = min(below + 1, top)
    return xs[below] + (xs[above] - xs[below]) * (pos - below)


def count_failed(whys: list[str], reasons: list[str]) -> int:
    """Number of non-empty failure reasons; the first few go to ``reasons``."""
    bad = [why for why in whys if why]
    reasons += bad[:3]
    return len(bad)


# ---------------------------------------------------------------------------
# exact-Fock workloads
# ---------------------------------------------------------------------------


def exact_job(ops_file: Path, first: int, **kw) -> dict:
    return dict({"kind": "exact", "ops_file": str(ops_file), "first": first}, **kw)


def exact_end_to_end(runner: Runner, ops_file: Path, seconds: float):
    reps = []
    first = 0
    for _ in range(EXACT_REPS):
        rep = runner.spawn(exact_job(ops_file, first, budget=seconds / EXACT_REPS))
        first = rep["last"]
        reps.append(rep)
    records = [r for rep in reps for r in rep["ops"]]
    ms = [r[1] for r in records]
    setups = [rep["setup_s"] for rep in reps]
    setups += runner.setup_times(max(0, SETUP_SAMPLES - len(setups)))
    reasons: list[str] = []
    failed = count_failed([r[2] for r in records], reasons)
    metrics = {
        "calls_per_s": len(ms) / (sum(ms) / 1e3),
        "call_p50_ms": percentile(ms, 50),
        "call_p90_ms": percentile(ms, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in reps),
        "success_rate": (len(ms) - failed) / len(ms),
    }
    return metrics, len(ms), failed, reasons


def exact_per_layer(runner: Runner, ops_file: Path, seconds: float):
    """Untraced and traced workers alternate over the same blocks, so a
    drift in machine speed falls on both sides of the overhead."""
    plain, traced = [], []
    first = 0
    for _ in range(EXACT_REPS):
        rep = runner.spawn(exact_job(ops_file, first, budget=seconds / 2.0 / EXACT_REPS))
        traced.append(runner.spawn(exact_job(ops_file, first, last=rep["last"], trace=True)))
        plain.append(rep)
        first = rep["last"]
    plain_ops = [r for rep in plain for r in rep["ops"]]
    traced_ops = [r for rep in traced for r in rep["ops"]]
    reasons: list[str] = []
    failed = count_failed([r[2] for r in plain_ops + traced_ops], reasons)
    # The replay must reproduce run_setup's click probability.
    for (*_, p_plain), (*_, p_traced) in zip(plain_ops, traced_ops):
        if not abs(p_plain - p_traced) <= 1e-12:
            failed += 1
            reasons.append(f"replayed p_click {p_traced!r} != run_setup {p_plain!r}")
    n_ops = len(traced_ops)
    metrics = layer_metrics(layer_times(merged_spans(traced)), n_ops, "mzi.run_setup")
    plain_s = sum(r[1] for r in plain_ops)
    traced_s = sum(r[1] for r in traced_ops)
    bs_calls = sum(rep["descr"]["bs_calls"] for rep in plain)
    metrics.update(
        {
            "elements.bs_new_angle_share": sum(rep["descr"]["bs_new"] for rep in plain) / bs_calls,
            "elements.bs_calls": bs_calls,
            "fock.cutoff_max": max(rep["descr"]["cutoff_max"] for rep in plain),
            "fock.dense_basis_max": max(rep["descr"]["dense_basis_max"] for rep in plain),
            "fock.truncation_deficit_max": max(rep["descr"]["deficit_max"] for rep in plain),
            "trace.overhead_share": (traced_s - plain_s) / plain_s,
            "trace.ops": n_ops,
        }
    )
    return metrics, len(plain_ops) + n_ops, failed, reasons


def merged_spans(results: list[dict]) -> list[list]:
    """Spans of several worker processes, parent indices made global."""
    spans = []
    for res in results:
        offset = len(spans)
        spans += [[n, s, e, p + offset if p >= 0 else -1, o] for n, s, e, p, o in res["spans"]]
    return spans


def layer_metrics(times: dict, n_ops: int, op_name: str) -> dict:
    """Per-operation self time, calls and share of every traced layer."""
    op_s = times[op_name]["total_s"]
    metrics = {}
    for name, row in times.items():
        prefix = "cli" if name == "cli.main" else name
        per_op_ms = row["self_s"] / n_ops * 1e3
        share = row["self_s"] / op_s
        if name in SELF_LAYERS:
            metrics[f"{prefix}.self_ms"] = per_op_ms
            metrics[f"{prefix}.self_share"] = share
        else:
            metrics[f"{name}.ms"] = per_op_ms
            metrics[f"{name}.share"] = share
            metrics[f"{name}.calls"] = row["calls"] / n_ops
    metrics[f"{op_name}.ms"] = op_s / n_ops * 1e3
    return metrics


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------


def cli_pass(runner: Runner, inputs: dict, tag: str, trace: bool) -> dict:
    """The five commands, each in its own process: {command: result}."""
    results = {}
    for command in workloads.CLI_COMMANDS:
        spec = inputs[command]
        out = runner.tmp / f"{tag}-{command}.csv"
        config = runner.tmp / f"{command}.json"
        argv = [a.replace("{config}", str(config)).replace("{out}", str(out)) for a in spec["argv"]]
        job = {
            "kind": "cli", "command": command, "argv": argv, "out": str(out),
            "params": spec["params"], "trace": trace,
        }
        results[command] = runner.spawn(job)
    return results


def cli_passes(runner: Runner, inputs: dict, budget: float, traced: bool = False):
    """Untraced passes until one more average pass would overrun ``budget``
    seconds, at least one; with ``traced``, each is followed by a traced
    pass.  Returns (untraced passes, traced passes)."""
    for command, spec in inputs.items():
        if spec["config"] is not None:
            (runner.tmp / f"{command}.json").write_text(json.dumps(spec["config"]))
    plain, trace = [], []
    start = time.perf_counter()
    while True:
        done = len(plain)
        elapsed = time.perf_counter() - start
        if done and elapsed * (done + 1) / done > budget:
            break
        plain.append(cli_pass(runner, inputs, f"u{done}", trace=False))
        if traced:
            trace.append(cli_pass(runner, inputs, f"t{done}", trace=True))
    return plain, trace


def cli_failures(passes: list[dict], reference: dict, reasons: list[str]) -> int:
    """Failed commands, counting CSV bytes that differ from ``reference``."""
    failed = 0
    for results in passes:
        for command, res in results.items():
            why = res["why"]
            if not why and res["sha256"] != reference[command]:
                why = f"{command}: CSV bytes differ between repeats"
            if why:
                failed += 1
                if len(reasons) < 3:
                    reasons.append(f"{command}: {why}")
    return failed


def cli_end_to_end(runner: Runner, inputs: dict, seconds: float):
    passes, _ = cli_passes(runner, inputs, seconds)
    reference = {c: r["sha256"] for c, r in passes[0].items()}
    reasons: list[str] = []
    failed = cli_failures(passes, reference, reasons)
    pass_ms = [sum(r["ms"] for r in p.values()) for p in passes]
    setups = [r["setup_s"] for p in passes for r in p.values()]
    setups += runner.setup_times(max(0, SETUP_SAMPLES - len(setups)))
    attempted = sum(len(p) for p in passes)
    metrics = {
        "calls_per_s": len(pass_ms) / (sum(pass_ms) / 1e3),
        "call_p50_ms": percentile(pass_ms, 50),
        "call_p90_ms": percentile(pass_ms, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in p.values()) for p in passes),
        "success_rate": (attempted - failed) / attempted,
    }
    return metrics, attempted, failed, reasons


def cli_per_layer(runner: Runner, inputs: dict, seconds: float):
    plain, traced = cli_passes(runner, inputs, seconds, traced=True)
    reference = {c: r["sha256"] for c, r in plain[0].items()}
    reasons: list[str] = []
    failed = cli_failures(plain + traced, reference, reasons)
    times = layer_times(merged_spans([r for p in traced for r in p.values()]))
    metrics = layer_metrics(times, len(traced), "cli.main")
    shots = inputs["purity_audit"]["params"]["shots"] * len(traced)
    metrics["mzi.sample_shots.shots_per_s"] = shots / times["mzi.sample_shots"]["total_s"]
    for command in workloads.CLI_COMMANDS:
        metrics[f"cli.{command}_s"] = statistics.median(p[command]["ms"] for p in plain) / 1e3
    plain_s = sum(r["ms"] for p in plain for r in p.values())
    traced_s = sum(r["ms"] for p in traced for r in p.values())
    metrics["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    metrics["trace.ops"] = len(traced)
    return metrics, 2 * sum(len(p) for p in plain), failed, reasons


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = root / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def measure(args, runner: Runner) -> tuple[dict, int, int, list[str]]:
    """(metrics, attempted, failed, first failure reasons) of one run."""
    runner.spawn({"kind": "setup"})  # writes bytecode caches; not measured
    if args.workload == "cli":
        inputs = workloads.cli_inputs(args.seed)
        run = cli_per_layer if args.trace else cli_end_to_end
        return run(runner, inputs, args.seconds)
    generate = workloads.exact_cold if args.workload == "exact-cold" else workloads.exact_grid
    ops_file = runner.tmp / "ops.json"
    ops_file.write_text(json.dumps(generate(args.seed)))
    run = exact_per_layer if args.trace else exact_end_to_end
    return run(runner, ops_file, args.seconds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "xpmherald" / "__init__.py").is_file():
        print(f"no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    runner = Runner(ROOT, Path(tempfile.mkdtemp(prefix="run-", dir=scratch)))
    try:
        metrics, attempted, failed, reasons = measure(args, runner)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(runner.tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    names = [m["name"] for m in declared]
    if args.trace:
        metrics = {name: metrics.get(name, 0.0) for name in names}
    if sorted(metrics) != sorted(names):
        print(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}",
              file=sys.stderr)
        return 2
    for why in reasons:
        print(f"failed op: {why}", file=sys.stderr)
    env = dict(
        runner.env_info,
        nproc=os.cpu_count(),
        git_commit=git_commit(ROOT),
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        processes="one fresh Python process per repetition, one operation at a time",
        reference_sample_ms=statistics.median(runner.reference_s) * 1e3,
    )
    print(json.dumps({"env": env}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
