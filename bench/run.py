"""ellipspin benchmark: one workload, one seed, one JSON line of results.

    python3 bench/run.py --workload sweep-long --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The parent writes the seeded inputs,
times several launches of the worker up to the end of its set-up, lets one
worker run whole rounds for ``--seconds``, then checks that worker's
outputs against independent references (see checks.py).  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from tracing import summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# Set-up is timed on launches before and after the measuring worker (and
# on that worker itself) and reported as their median.  Spreading them over
# the run keeps one slow moment of a shared machine from deciding it.
SETUP_PROBES_BEFORE = 4
SETUP_PROBES_AFTER = 4
# Besides --seconds of rounds, the worker may take this long to start and
# to finish its last round before it is stopped.
WORKER_GRACE_S = 90.0


class BenchError(Exception):
    pass


def _worker_cmd(workdir: str, *extra: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), "--workdir", workdir, *extra]


def _worker_env() -> dict:
    env = dict(os.environ)
    # Measure the sweep's default worker count, as a user would get it.
    env.pop("ELLIPSPIN_THREADS", None)
    return env


def _launch(cmd: list[str], timeout: float) -> tuple[float, subprocess.Popen]:
    """Start a worker and return the seconds until it reported ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_worker_env())
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            proc.wait(timeout=timeout)
            raise BenchError(f"worker exited with {proc.returncode} before set-up finished")
    except BaseException:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        raise
    return setup_s, proc


def _finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.communicate(timeout=timeout)
    except BaseException as exc:
        proc.kill()
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"worker did not finish within {timeout:.0f} s") from exc
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "ellipspin", "__init__.py")):
        raise BenchError(f"no ellipspin sources under {os.path.join(ROOT, 'src')}")
    workdir = os.path.join(WORK_ROOT, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    spec = workloads.make_inputs(workload, seed, workdir)

    def probe_setup(n: int) -> list[float]:
        times = []
        for _ in range(0 if trace else n):
            setup_s, proc = _launch(_worker_cmd(workdir, "--setup-only"), WORKER_GRACE_S)
            _finish(proc, WORKER_GRACE_S)
            times.append(setup_s)
        return times

    setups = probe_setup(SETUP_PROBES_BEFORE)
    cmd = _worker_cmd(workdir, "--seconds", repr(seconds), "--trace", str(trace))
    setup_s, proc = _launch(cmd, WORKER_GRACE_S)
    _finish(proc, seconds + WORKER_GRACE_S)
    setups += [setup_s] + probe_setup(SETUP_PROBES_AFTER)

    # Imported only now: scipy is needed by the references, never by the worker.
    import checks

    with open(os.path.join(workdir, workloads.RESULT_FILE), encoding="ascii") as fh:
        result = json.load(fh)
    verdict = checks.check(spec, checks.load_outputs(spec, workdir, result))
    for failure in verdict.failures:
        print(f"check failed: {failure}", file=sys.stderr)

    rounds = result["rounds"]
    per_round = workloads.operations_per_round(spec)
    errors = len(result["last_output"].get("errors", []))
    plain = [r for r in rounds if not r["traced"]]
    if trace:
        traced = [r for r in rounds if r["traced"]]
        counts = traced[0]["counts"]
        if any(r["counts"] != counts for r in traced):
            verdict.failures.append("traced rounds did not repeat their counts exactly")
        layer = summarize(counts, [r["self_s"] for r in traced], [r["wall"] for r in traced], [r["wall"] for r in plain])
        metrics = {name: {"value": v[0], "unit": v[1]} for name, v in layer.items() if v is not None}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(r["wall"] for r in plain), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu"] for r in plain), "unit": "s"},
            "peak_rss_mib": {"value": result["peak_rss_kib"] / 1024.0, "unit": "MiB"},
        }
    return {
        "correct": not verdict.failures,
        "attempted": per_round * len(rounds),
        "failed": (verdict.fault_ops + errors) * len(rounds),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ellipspin benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        line = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
