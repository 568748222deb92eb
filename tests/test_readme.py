"""The README's CLI block, run line by line, so a stale example fails."""

import shlex
from pathlib import Path

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
