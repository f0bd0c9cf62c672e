import subprocess
import sys
from pathlib import Path

import pytest

SUBMODULES = ("attacks", "config", "detect", "gcode", "harness", "planner", "traceio", "tracesim")

# Runs in a fresh interpreter: in the test process, importing any submodule
# binds it on the package, which would hide an ``__init__`` that does not.
_PROBE = f"""
import importlib, pkgutil, sys
import powertrace

unbound = [name for name in {SUBMODULES!r} if not hasattr(powertrace, name)]
assert not unbound, f"import powertrace does not bind {{unbound}}"
for info in pkgutil.iter_modules(powertrace.__path__):
    if info.name == "__main__":
        continue
    module = importlib.import_module(f"powertrace.{{info.name}}")
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"powertrace.{{info.name}}.__all__ lists missing {{name!r}}"
print("ok")
"""


def test_package_binds_submodules_and_every_exported_name_resolves():
    result = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


# Synthesis imports numpy.random on first use: importing it costs about
# 10 ms, which every command that does not synthesize would pay at start-up.
_RANDOM_PROBE = """
import sys
from pathlib import Path
import numpy
if "numpy.random" in sys.modules:
    print("numpy imports numpy.random itself")
    raise SystemExit
import powertrace.cli, powertrace.detect, powertrace.traceio
print("numpy.random" in sys.modules)
"""


def test_importing_the_package_leaves_numpy_random_unimported():
    result = subprocess.run([sys.executable, "-c", _RANDOM_PROBE], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    if result.stdout == "numpy imports numpy.random itself\n":
        pytest.skip(result.stdout.strip())
    assert result.stdout == "False\n"


# perfbench's trace mode wraps layer functions by module attribute, so an
# attribute the package no longer binds breaks the benchmark, not a call.
# Runs in a fresh interpreter that writes no bytecode beside the benchmark.
_WRAP_PROBE = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import powertrace
import spans

missing = [f"{module}.{attr}" for module, attr, _ in spans._WRAP_POINTS
           if not hasattr(getattr(powertrace, module), attr)]
print(missing)
"""


def test_every_benchmark_wrap_point_resolves():
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    result = subprocess.run(
        [sys.executable, "-B", "-c", _WRAP_PROBE, str(perfbench)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
