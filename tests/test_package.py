"""Packaging invariants: one version source and a numpy-only import."""

import subprocess
import sys
from pathlib import Path

import pytest

import redunet

ROOT = Path(__file__).resolve().parents[1]

IMPORT_PROBE = """
import sys
before = set(sys.modules)
import redunet.cli
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names))))
"""


def test_importing_the_cli_loads_no_third_party_module_but_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(Path(redunet.__file__).parents[1])},
    )
    assert set(proc.stdout.split()) == {"numpy", "redunet"}


def test_pyproject_reads_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    attr = config["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "redunet.__version__"
