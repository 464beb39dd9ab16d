"""The process that runs ellipspin for one benchmark run.

It imports the program from the checkout's ``src`` directory, loads the
inputs the parent wrote, prints ``ready`` (the end of set-up) and then runs
whole rounds of the workload until the next round would pass the time
budget, with its threads rotating over the CPUs it may use.  With
``--trace 1`` it alternates plain and traced rounds, so the tracing
overhead is measured under the same conditions.  Per-round times,
output digests and the last round's output go to ``result.json`` in the
work directory; the reference computations run later, in the parent, so
they count neither in the times nor in this process's peak memory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import sys
import threading
import time

import workloads
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_program():
    """Import ellipspin from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, SRC)
    es = importlib.import_module("ellipspin")
    importlib.import_module("ellipspin.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(es.__file__))) != SRC:
        raise SystemExit(f"ellipspin was imported from {es.__file__}, not from {SRC}")
    return es


def _json_default(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def digest(spec: dict, workdir: str, output: dict) -> str:
    """Hash of everything a round produced: files, exit codes, stderr, values."""
    h = hashlib.sha256(json.dumps(output, default=_json_default, sort_keys=True).encode())
    if spec["workload"] == workloads.SWEEP:
        files = [spec["output"]]
    elif spec["workload"] == workloads.SIMULATE:
        files = [sc["output"] for sc in spec["scenarios"]]
    else:
        files = []
    for name in files:
        path = os.path.join(workdir, name)
        if os.path.exists(path):  # a failed CLI call may write nothing
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class CpuRotation:
    """Moves the worker's thread to the next allowed CPU every 100 ms.

    On a shared host one CPU can run at half speed for tens of seconds
    while another does not, and the scheduler sees no reason to move a
    single busy thread, so a single-threaded round reads whatever its CPU
    happens to do.  Rotating spreads every round over all the CPUs.  While
    the program runs several threads (the sweep's pool), they already
    spread over the CPUs, so they are left to the scheduler.
    """

    PERIOD_S = 0.1

    def __init__(self):
        self._cpus = sorted(os.sched_getaffinity(0))
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._rotate, daemon=True)

    def _place(self, step: int | None) -> None:
        own = threading.get_native_id()
        others = [int(tid) for tid in os.listdir("/proc/self/task") if int(tid) != own]
        if step is None or len(others) > 1:
            cpus = set(self._cpus)
        else:
            cpus = {self._cpus[step % len(self._cpus)]}
        for tid in others:
            try:
                os.sched_setaffinity(tid, cpus)
            except OSError:
                pass  # the thread ended in the meantime

    def _rotate(self) -> None:
        step = 0
        while not self._stop.wait(self.PERIOD_S):
            self._place(step)
            step += 1

    def __enter__(self):
        if len(self._cpus) > 1:
            self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()
            self._place(None)


def run_rounds(es, spec: dict, workdir: str, seconds: float, trace: int) -> tuple[list[dict], dict]:
    """Whole rounds until another would end past ``seconds``; odd rounds traced if ``trace``."""
    rounds = []
    output = None
    start = time.perf_counter()
    while True:
        tracer = Tracer() if trace and len(rounds) % 2 == 1 else None
        if tracer is not None:
            tracer.install()
        try:
            t0, c0 = time.perf_counter(), time.process_time()
            output = workloads.run_round(es, spec, workdir)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        finally:
            if tracer is not None:
                tracer.uninstall()
        record = {"traced": tracer is not None, "wall": wall, "cpu": cpu, "digest": digest(spec, workdir, output)}
        if tracer is not None:
            record["counts"] = tracer.round_counts()
            record["self_s"] = tracer.round_self_times()
        rounds.append(record)
        if len(rounds) >= 1 + trace and time.perf_counter() - start + wall > seconds:
            return rounds, output


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    es = import_program()
    spec = workloads.load(es, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    with CpuRotation():
        rounds, output = run_rounds(es, spec, args.workdir, args.seconds, args.trace)
    result = {
        "rounds": rounds,
        "last_output": output,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(os.path.join(args.workdir, workloads.RESULT_FILE), "w", encoding="ascii") as fh:
        json.dump(result, fh, default=_json_default)
    return 0


if __name__ == "__main__":
    sys.exit(main())
