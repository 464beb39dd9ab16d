"""The program names the benchmark wraps, reads and calls must exist.

`bench/tracing.py` reports a wrapped name the program no longer has as
absent (None) instead of failing, so a cleanup that renames or deletes one
would silently empty a per-layer metric.  A name that `bench/workloads.py`
calls and the program has lost shows up only inside the benchmark, as
failed operations.  This reads the tracer's tables and the workloads'
source as they are, without importing the rest of the benchmark.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _tracing()
_WRAPPED = sorted({**_TRACING.TIMED, **_TRACING.COUNTED})
# Read directly by bench/selftest.py.
_READ_BY_SELFTEST = [("spin_dynamics", "jacobi"), ("heun", "jacobi"), ("cli", "_fmt")]


# Looked up on the package by the rounds: `es.<name>` and `es.cli.<name>`.
_CALLED_BY_WORKLOADS = sorted(
    set(re.findall(r"\bes\.((?:cli\.)?[A-Za-z_]\w*)", (BENCH / "workloads.py").read_text()))
)


@pytest.mark.parametrize("module, attr", _WRAPPED + _READ_BY_SELFTEST)
def test_name_exists(module, attr):
    mod = importlib.import_module(f"{_TRACING.PACKAGE}.{module}")
    assert callable(getattr(mod, attr, None)), f"{module}.{attr}"


def test_workload_names_are_read():
    assert {"evolve", "cli.main"} <= set(_CALLED_BY_WORKLOADS)


@pytest.mark.parametrize("dotted", _CALLED_BY_WORKLOADS)
def test_workload_name_exists(dotted):
    # The worker imports the cli module itself; the package does not.
    importlib.import_module(f"{_TRACING.PACKAGE}.cli")
    obj = importlib.import_module(_TRACING.PACKAGE)
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
        assert obj is not None, dotted


def test_package_all_resolves():
    package = importlib.import_module(_TRACING.PACKAGE)
    assert [name for name in package.__all__ if not hasattr(package, name)] == []


def test_flip_probability_reaches_the_traced_heun_names():
    # A name that exists but is no longer called would read 0, not None.
    heun = importlib.import_module(f"{_TRACING.PACKAGE}.heun")
    params = importlib.import_module(_TRACING.PACKAGE).SimParams.from_detuning(0.25, 0.1, 0.7)
    tracer = _TRACING.Tracer()
    tracer.install()
    try:
        heun.flip_probability_heun(2.0, params)
    finally:
        tracer.uninstall()
    counts = tracer.round_counts()
    assert counts["heun.flip_probability_heun.calls"] == 1
    assert counts["heun.taylor_steps"] > 0
    assert counts["heun.waypoints"] > 0
    assert not hasattr(heun._taylor_coefficients, "__wrapped__"), "tracer left installed"
