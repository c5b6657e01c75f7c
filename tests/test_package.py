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


def run_module(*args):
    """Run ``python *args`` in a fresh process that imports this checkout."""
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_module_entry_point_matches_main(capsys):
    argv = shlex.split(readme_commands()[0])[1:]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    done = run_module("-m", "qpartitions", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")


def test_one_shot_process_imports_no_dataclasses_or_inspect():
    # a one-shot command pays for every import; dataclasses pulls in inspect,
    # ast, dis and tokenize, which cost more than the count itself
    argv = "count p --N 15 --k 15 --n 60 --format json".split()
    done = run_module("-X", "importtime", "-m", "qpartitions", *argv)
    assert done.returncode == 0 and done.stdout
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    assert "qpartitions.partitions" in imported
    assert {"dataclasses", "inspect"} & imported == set()


def test_every_exported_name_resolves():
    missing = [name for name in qpartitions.__all__ if not hasattr(qpartitions, name)]
    assert missing == []
    assert len(set(qpartitions.__all__)) == len(qpartitions.__all__)
