"""Each module imports first, on its own, in a fresh interpreter.

The package root imports nothing, so no fixed import order can hide a
cycle between the modules: each one must load what it needs itself.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "tcja_snn").glob("*.py") if p.stem != "__init__")


def loaded_by(name: str) -> list[str]:
    """The `tcja_snn` modules that a fresh interpreter holds after importing `name`."""
    code = (
        "import importlib, sys; importlib.import_module(sys.argv[1]);"
        " print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'tcja_snn'))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code, name], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_the_package_has_seven_modules():
    assert MODULES == ["attention", "cli", "data", "network", "neuron", "tensor", "training"]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    assert f"tcja_snn.{module}" in loaded_by(f"tcja_snn.{module}")


def test_package_root_loads_no_module():
    assert loaded_by("tcja_snn") == ["tcja_snn"]


def test_data_loads_no_other_module():
    assert loaded_by("tcja_snn.data") == ["tcja_snn", "tcja_snn.data"]
