"""The package as a user meets it: its exports and the README's commands."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qpartitions
from qpartitions import cli, identities, partitions, polynomial, qbinomial
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


def imports(argv):
    """The exit code, stdout and imported modules of ``python -m qpartitions argv``."""
    done = run_module("-X", "importtime", "-m", "qpartitions", *argv)
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    return done.returncode, done.stdout, imported


@pytest.mark.parametrize(
    "argv",
    [
        "count partition --n 30",
        "count p --N 5 --k 5 --n 12 --method all",
        "count pbar --r 2 --n1 2 --n2 3 --k1 2 --k2 2 --n 4 --method convolution",
        "gauss --top 6 --bottom 3 --step 2",
        "table partition --n 0..10 --format json",
        "enumerate pbar --r 2 --n1 2 --n2 3 --k1 2 --k2 2 --n 4",
    ],
)
def test_one_shot_commands_import_no_verifiers(argv):
    code, out, imported = imports(argv.split())
    assert code == 0 and out
    assert "qpartitions.partitions" in imported
    assert "qpartitions.identities" not in imported


def test_verify_is_unchanged_by_the_deferred_import(capsys):
    choices = "{" + ",".join(identities.IDENTITY_IDS + ("all",)) + "}"
    for argv, loads in (
        (["verify", "--help"], False),
        (["verify", "eq2", "--m-max", "2", "--n-max", "2"], True),
        (["verify", "all", "--format", "json"], True),
    ):
        assert main(argv) == 0
        expected = capsys.readouterr().out
        code, out, imported = imports(argv)
        assert (code, out) == (0, expected)
        assert ("qpartitions.identities" in imported) is loads
    main(["verify", "--help"])
    assert choices in capsys.readouterr().out


def test_attribute_access_resolves_the_deferred_names_once():
    script = (
        "import sys, qpartitions\n"
        "assert not hasattr(qpartitions, '__wrapped__')\n"
        "assert 'qpartitions.identities' not in sys.modules\n"
        "print(*qpartitions.identities.IDENTITY_IDS)\n"
        "assert qpartitions.run_identity is qpartitions.identities.run_identity\n"
        "assert set(qpartitions.__all__) <= set(dir(qpartitions))\n"
        "assert 'identities' in dir(qpartitions)\n"
        "assert not hasattr(qpartitions, 'verify_thm99')"
    )
    done = run_module("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == list(identities.IDENTITY_IDS)
    assert cli.IDENTITY_IDS is identities.IDENTITY_IDS


def test_star_import_resolves_the_deferred_names_in_order():
    script = (
        "import sys, qpartitions\n"
        "assert 'qpartitions.identities' not in sys.modules\n"
        "from qpartitions import *\n"
        "assert all(name in globals() for name in qpartitions.__all__)\n"
        "print(*qpartitions.__all__)"
    )
    done = run_module("-c", script)
    assert done.returncode == 0, done.stderr
    joined = [name for module in MODULES for name in module.__all__]
    assert done.stdout.split() == [*joined, "__version__"]
    assert len(joined) + 1 == 44


MODULES = (polynomial, qbinomial, partitions, identities)


def test_package_exports_its_modules_lists_in_order():
    joined = [name for module in MODULES for name in module.__all__]
    assert qpartitions.__all__ == [*joined, "__version__"]
    assert len(set(joined)) == len(joined)


def test_every_exported_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qpartitions, name) is getattr(module, name), name
    assert isinstance(qpartitions.__version__, str)


def test_star_import_binds_the_export_list():
    namespace = {}
    exec("from qpartitions import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qpartitions.__all__)
