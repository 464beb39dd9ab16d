"""The program names the benchmark wraps and reads must exist.

`bench/tracing.py` reports a wrapped name the program no longer has as
absent (None) instead of failing, so a cleanup that renames or deletes one
would silently empty a per-layer metric.  This reads the tracer's tables
as they are, without importing the rest of the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _tracing()
_WRAPPED = sorted({**_TRACING.TIMED, **_TRACING.COUNTED})
# Read directly by bench/selftest.py.
_READ_BY_SELFTEST = [("spin_dynamics", "jacobi"), ("heun", "jacobi"), ("cli", "_fmt")]


@pytest.mark.parametrize("module, attr", _WRAPPED + _READ_BY_SELFTEST)
def test_name_exists(module, attr):
    mod = importlib.import_module(f"{_TRACING.PACKAGE}.{module}")
    assert callable(getattr(mod, attr, None)), f"{module}.{attr}"

