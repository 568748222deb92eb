"""Names users reach: the README's CLI block, run line by line, the names
its prose cites and the package's ``__all__``, so a stale name fails; and
the version, which the package and its pyproject must agree on."""

import functools
import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import xpmherald
from xpmherald import experiments
from xpmherald.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


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



def code_names():
    """Leading dotted name of every inline code span outside the fenced
    blocks that looks like a package name: it holds ``_`` or ``.`` or
    starts upper-case.  Spans starting with ``.`` are file suffixes."""
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    for span in re.findall(r"`([^`]+)`", text):
        name = re.match(r"[A-Za-z_][\w.]*", span)
        if name and ("_" in span or "." in span or span[0].isupper()):
            yield name.group().rstrip(".")


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
    # mzi._classical_clicks or xpmherald.loss), or a config parameter that
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


def test_version_matches_pyproject():
    # the manifests carry __version__; the installed metadata carries this
    tomllib = pytest.importorskip("tomllib")
    with open(README.parent / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["version"] == xpmherald.__version__
