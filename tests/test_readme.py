"""Names users reach: the README's CLI block, run line by line, the names
its prose cites, the package's ``__all__`` and the names the benchmark in
``perfbench/`` imports, so a stale name fails; the demo scripts, run
end to end; and the version, which the package and its pyproject must
agree on."""

import ast
import functools
import importlib
import inspect
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import xpmherald
from xpmherald import experiments
from xpmherald.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def cli_block_lines():
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [line for line in block.splitlines() if line.strip()]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = 0
    for line in cli_block_lines():
        words = shlex.split(line, comments=True)
        if words[0] == "echo":
            # echo '<json config>' > <file>
            assert words[2] == ">" and len(words) == 4, line
            (tmp_path / words[3]).write_text(words[1] + "\n")
        else:
            assert words[0] == "xpmherald", line
            assert main(words[1:]) == 0, line
            commands += 1
    assert commands >= 5



def code_spans():
    """Every inline code span outside the fenced blocks."""
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    return re.findall(r"`([^`]+)`", text)


def code_names():
    """Leading dotted name of every code span that looks like a package
    name: it holds ``_`` or ``.`` or starts upper-case, and no ``/``, which
    makes it a path.  Spans starting with ``.`` are file suffixes."""
    for span in code_spans():
        name = re.match(r"[A-Za-z_][\w.]*", span)
        if "/" not in span and name and ("_" in span or "." in span or span[0].isupper()):
            yield name.group().rstrip(".")


def test_readme_paths_exist():
    # a span holding "/" is a path under the repository root, such as
    # tests/test_fock.py, and must exist there
    paths = [span for span in code_spans() if "/" in span]
    missing = [path for path in paths if not (ROOT / path).exists()]
    assert "tests/test_fock.py" in paths and not missing, missing


def resolves(name, roots) -> bool:
    path = name.removeprefix("xpmherald.").split(".")
    return any(
        functools.reduce(lambda obj, part: getattr(obj, part, None), path, root)
        is not None
        for root in roots
    )


def test_readme_names_resolve():
    # a renamed or deleted name must not live on in the README: each one is
    # an attribute path from the package or one of its modules (such as
    # mzi._detector_means or xpmherald.loss), or a config parameter that
    # experiments reads through _param* (such as p_b or fixed_p)
    roots = [xpmherald] + [
        importlib.import_module(f"xpmherald.{m.name}")
        for m in pkgutil.iter_modules(xpmherald.__path__)
    ]
    source = inspect.getsource(experiments)
    params = set(re.findall(r'_\w*param\w*\(cfg, "(\w+)"', source))
    assert {"p_b", "fixed_p"} <= params
    stale = sorted(n for n in set(code_names()) - params if not resolves(n, roots))
    assert not stale, stale


def test_all_names_resolve():
    # a deleted name left in __all__ breaks `from xpmherald import *`
    namespace = {}
    exec("from xpmherald import *", namespace)
    missing = [n for n in xpmherald.__all__ if not hasattr(xpmherald, n)]
    assert not missing, missing
    assert set(xpmherald.__all__) <= set(namespace)


# 1 - exp(-x) loses all relative accuracy once x is below the rounding of 1,
# as click probabilities are at weak phases; -expm1(-x) keeps it
OLD_CLICK_FORM = re.compile(r"\b1(\.0)?\s*-\s*(math|np|numpy)\.exp\(")


def test_src_has_no_one_minus_exp_click_form():
    for line in ("q = 1 - math.exp(-x)", "1.0 - np.exp(-x)", "1.0-numpy.exp(x)"):
        assert OLD_CLICK_FORM.search(line), line
    found = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if OLD_CLICK_FORM.search(line)
    ]
    assert not found, found


def test_benchmark_imports_resolve():
    # the benchmark stays fixed while the package changes, so a name it
    # imports that the package drops must fail here, before a benchmark run
    imported = 0
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("xpmherald"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (path.name, node.module, alias.name)
                    imported += 1
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("xpmherald"):
                        importlib.import_module(alias.name)
    assert imported >= 10


def _load_perfbench(name, monkeypatch):
    """A benchmark module, read as is and registered under its own name for
    this test only, as the worker's own imports find it."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_runtime_contract(monkeypatch, tmp_path):
    # beyond its imports, the benchmark reads outcome states, ket cutoffs and
    # norms, the k=/l= and require_transparent= keywords and cli.run_suite at
    # run time; one block of each exact workload, run and replayed, and one
    # traced CLI command must pass the benchmark's own checks
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    names = ("checks", "reference", "tracing", "workloads", "worker")
    _, reference, tracing, workloads, worker = (_load_perfbench(n, monkeypatch) for n in names)
    tracer = tracing.Tracer()
    layers = worker.ExactLayers(tracer)
    seen = set()
    descr = {"bs_calls": 0, "bs_new": 0, "cutoff_max": 0, "dense_basis_max": 0, "deficit_max": 0.0}
    ops = workloads.exact_cold(1, 1)[0] + workloads.exact_grid(1, 1)[0]
    for op_id, op in enumerate(ops):
        *_, why, p_click = worker.run_exact_op(op, seen, descr)
        *_, why_replay, p_replay = worker.replay_exact_op(op, op_id, layers, tracer)
        assert (why, why_replay) == ("", ""), op
        assert abs(p_replay - p_click) <= 1e-12, op
    assert descr["cutoff_max"] > 1 and descr["dense_basis_max"] > 8

    # instrument_cli patches names of these namespaces; each is restored after
    cli = importlib.import_module("xpmherald.cli")
    for owner in (cli, experiments, experiments.ResultTable):
        for attr, value in list(vars(owner).items()):
            if not attr.startswith("__"):
                monkeypatch.setattr(owner, attr, value)
    spec = workloads.cli_inputs(1)["cascade_enum"]
    out = tmp_path / "cascade.csv"
    job = {
        "command": "cascade_enum", "out": str(out), "params": spec["params"],
        "argv": [a.replace("{out}", str(out)) for a in spec["argv"]],
    }
    result = worker.run_cli(job, tracer, reference.Sampler())
    assert result["why"] == "" and result["sha256"] is not None
    assert {"cli.main", "cascade.enumeration"} <= {span[0] for span in tracer.spans}


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(script, tmp_path):
    # each demo as a user runs it, with warnings as errors; the CSVs some
    # of them write land in the temporary directory
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / script)],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_version_matches_pyproject():
    # the manifests carry __version__; the installed metadata carries this
    tomllib = pytest.importorskip("tomllib")
    with open(README.parent / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["version"] == xpmherald.__version__
