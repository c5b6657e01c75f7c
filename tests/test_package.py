"""The package as a user meets it: its exports and the README's commands."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qpartitions
from qpartitions.cli import main

ROOT = Path(__file__).resolve().parent.parent


def readme_commands():
    """The ``qpartitions ...`` lines of the README's "Command line" block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("qpartitions ")]


def test_readme_block_has_its_nine_commands():
    assert len(readme_commands()) == 9


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_runs(line, capsys):
    argv = shlex.split(line)
    assert argv[0] == "qpartitions"
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out


def test_module_entry_point_matches_main(capsys):
    argv = shlex.split(readme_commands()[0])[1:]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src}
    done = subprocess.run(
        [sys.executable, "-m", "qpartitions", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")


def test_every_exported_name_resolves():
    missing = [name for name in qpartitions.__all__ if not hasattr(qpartitions, name)]
    assert missing == []
    assert len(set(qpartitions.__all__)) == len(qpartitions.__all__)
