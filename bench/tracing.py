"""Spans and counters around the calls into each ellipspin layer.

The tracer wraps module attributes from outside the program.  A function
imported by name into several modules (``jacobi`` is bound in
``spin_dynamics``, ``heun`` and ``cli``; ``evolve`` in the package itself)
is replaced wherever the program holds it, so every call path is seen.

Timed functions are spans: a span's self time is its duration minus the
time covered by the spans it caused.  Durations are CPU time of the
calling thread: ``sweep`` runs its grid on a thread pool, and a wall-clock
span there would also count the time its thread waits for the interpreter
lock, so self times would change with the number of threads rather than
with the work.  Counted functions only add to a call count, so their time
stays with the span that called them.  Totals are kept per thread and
summed when the round ends.

A name that a later version of the program removes is reported as absent
(None) instead of failing the run.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "ellipspin"

# (module, attribute) -> metric prefix.  Metric names may not start with
# "_", so the integrator module reports as "dopri".
TIMED = {
    ("elliptic", "jacobi"): "elliptic.jacobi",
    ("_dopri", "integrate"): "dopri.integrate",
    ("spin_dynamics", "evolve"): "spin_dynamics.evolve",
    ("heun", "flip_probability_heun"): "heun.flip_probability_heun",
    ("heun", "continue_along_path"): "heun.continue_along_path",
    ("wigner", "wigner_d"): "wigner.wigner_d",
    ("wigner", "transition_probability_j"): "wigner.transition_probability_j",
    ("cli", "load_scenario"): "cli.load_scenario",
    ("cli", "_fmt"): "cli._fmt",
}
COUNTED = {
    ("spin_dynamics", "propagator"): "spin_dynamics.propagator",
    ("spin_dynamics", "gauge_factor"): "spin_dynamics.gauge_factor",
    ("heun", "coordinate_path"): "heun.coordinate_path",
    ("heun", "_taylor_coefficients"): "heun._taylor_coefficients",
}


class _Table:
    """One thread's call counts, self seconds and extra counters."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.stack: list[float] = []


def _count_rhs(table, args, kwargs):
    # _dopri.integrate(rhs, y0, sample_taus, tol, h_max): count rhs calls.
    if args:
        rhs, rest = args[0], args[1:]
    else:
        rhs, rest = kwargs.pop("rhs"), ()
    counts = table.counts

    def counted(t, y1, y2):
        counts["dopri.rhs_evals"] += 1
        return rhs(t, y1, y2)

    return (counted, *rest), kwargs


def _count_samples(table, args, kwargs):
    # spin_dynamics.evolve(initial, params, tau_grid, tol)
    grid = args[2] if len(args) > 2 else kwargs["tau_grid"]
    table.counts["spin_dynamics.samples"] += len(grid)
    return args, kwargs


def _count_waypoints(table, result):
    table.counts["heun.waypoints"] += len(result)


_ON_CALL = {"dopri.integrate": _count_rhs, "spin_dynamics.evolve": _count_samples}
_ON_RESULT = {"heun.coordinate_path": _count_waypoints}


class Tracer:
    """Installs the wrappers for one round and collects what they saw."""

    def __init__(self):
        self._local = threading.local()
        self._tables: list[_Table] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.present: set[str] = set()

    def _table(self) -> _Table:
        table = getattr(self._local, "table", None)
        if table is None:
            table = _Table()
            with self._lock:
                self._tables.append(table)
            self._local.table = table
        return table

    def _wrap(self, name: str, fn, timed: bool):
        on_call = _ON_CALL.get(name)
        on_result = _ON_RESULT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table = self._table()
            if on_call is not None:
                args, kwargs = on_call(table, args, kwargs)
            table.calls[name] += 1
            if not timed:
                result = fn(*args, **kwargs)
            else:
                stack = table.stack
                stack.append(0.0)
                t0 = time.thread_time()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.thread_time() - t0
                    table.self_s[name] += elapsed - stack.pop()
                    if stack:
                        stack[-1] += elapsed
            if on_result is not None:
                on_result(table, result)
            return result

        return wrapper

    def install(self) -> None:
        prefix = PACKAGE + "."
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(prefix)]
        for table, timed in ((TIMED, True), (COUNTED, False)):
            for (module_name, attr), name in table.items():
                original = getattr(sys.modules.get(prefix + module_name), attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(name, original, timed)
                self.present.add(name)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def _sum(self, field: str) -> dict:
        out: dict = defaultdict(int)
        for table in self._tables:
            for key, value in getattr(table, field).items():
                out[key] += value
        return out

    def round_counts(self) -> dict:
        """Exact counts of the traced round by metric name; None if absent."""
        calls, counts, present = self._sum("calls"), self._sum("counts"), self.present

        def calls_of(name):
            return calls.get(name, 0) if name in present else None

        def counter(name, needs):
            return counts.get(name, 0) if needs in present else None

        integrate = calls_of("dopri.integrate")
        rhs = counter("dopri.rhs_evals", "dopri.integrate")
        taylor = calls_of("heun._taylor_coefficients")
        return {
            "elliptic.jacobi.calls": calls_of("elliptic.jacobi"),
            "dopri.integrate.calls": integrate,
            "dopri.rhs_evals": rhs,
            # One rhs call starts each integration; each attempted step makes six more.
            "dopri.steps": None if rhs is None else (rhs - integrate) / 6,
            "spin_dynamics.evolve.calls": calls_of("spin_dynamics.evolve"),
            "spin_dynamics.propagator.calls": calls_of("spin_dynamics.propagator"),
            "spin_dynamics.gauge_factor.calls": calls_of("spin_dynamics.gauge_factor"),
            "spin_dynamics.samples": counter("spin_dynamics.samples", "spin_dynamics.evolve"),
            "heun.flip_probability_heun.calls": calls_of("heun.flip_probability_heun"),
            "heun.waypoints": counter("heun.waypoints", "heun.coordinate_path"),
            # Each continuation step re-expands both members of the fundamental system.
            "heun.taylor_steps": None if taylor is None else taylor / 2,
            "wigner.wigner_d.calls": calls_of("wigner.wigner_d"),
            "wigner.transition_probability_j.calls": calls_of("wigner.transition_probability_j"),
            "cli._fmt.calls": calls_of("cli._fmt"),
        }

    def round_self_times(self) -> dict:
        """Self seconds of the traced round per timed function; None if absent."""
        self_s = self._sum("self_s")
        return {name: (self_s.get(name, 0.0) if name in self.present else None) for name in TIMED.values()}


def summarize(counts: dict, self_times: list[dict], traced_walls: list[float], plain_walls: list[float]) -> dict:
    """Per-layer metrics: the counts of one round and median self times.

    Values are (number, unit) pairs, or None for a name the program no
    longer has.
    """
    metrics: dict = {name: None if v is None else (v, "count") for name, v in counts.items()}
    for name in TIMED.values():
        values = [st[name] for st in self_times]
        metrics[f"{name}.self_s"] = None if values[0] is None else (statistics.median(values), "s")
    calls, self_s = counts["elliptic.jacobi.calls"], metrics["elliptic.jacobi.self_s"]
    if calls is None or self_s is None:
        metrics["elliptic.jacobi.us_per_call"] = None
    else:
        metrics["elliptic.jacobi.us_per_call"] = (self_s[0] / calls * 1e6 if calls else 0.0, "us")
    metrics["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(plain_walls), "s")
    return metrics
