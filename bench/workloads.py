"""Workload inputs, made from the seed, and the operations of one round.

`make_inputs` runs in the benchmark's parent process and writes every input
the program will see into the work directory.  `load` and `run_round` run in
the worker process, which is the only process that imports ellipspin.  A
round is the same fixed list of operations every time, so a run that repeats
rounds attempts whole rounds and its share of failed operations never
depends on how long it ran.

The seeded values are drawn from narrow bands so that the amount of work per
round stays nearly the same on every seed: the run-to-run spread the
benchmark reports is then the program's, not the seed's.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

SWEEP = "sweep-long"
SIMULATE = "simulate-dense"
CROSSCHECK = "crosscheck"
WORKLOADS = (SWEEP, SIMULATE, CROSSCHECK)

SPEC_FILE = "spec.json"
RESULT_FILE = "result.json"

# sweep-long: many drive periods, a few hundred samples per run.
SWEEP_TAU_MAX = 60.0
SWEEP_SAMPLES = 241

# simulate-dense: a couple of drive periods, tens of thousands of samples.
SIMULATE_TAU_MAX = 14.0
SIMULATE_SAMPLES = 20001

# crosscheck
HEUN_RESONANCE_TAU = 30.0
SELECTION_TAU = 3.0
N_SELECTION_POINTS = 2
# Spin values drawn at seeded angles.  Above J = 16 the row-sum defect of
# wigner_d crosses 1e-10 on part of the theta range, so whether such a case
# fails would depend on the seed; those spins appear only in FAULT_CASES.
SEEDED_SPINS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.5, 7.0, 9.5, 12.0, 16.0)
# Fixed (J, theta) cases near theta = pi/2, where cancellation in the
# alternating factorial sum of wigner_d breaks the 1e-10 row-sum promise
# (all but the last fail today); the last shows J = 25 itself is fine away
# from pi/2.  They do not depend on the seed.
FAULT_CASES = ((20.0, 1.693), (22.0, 0.5 * math.pi), (25.0, 0.5 * math.pi), (25.0, 0.4))
FAULT_PHI, FAULT_PSI = 0.3, -0.7


def _band(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return _band(rng, lo, hi) * rng.choice((-1.0, 1.0))


def _write_config(path: str, title: str, values: dict) -> None:
    lines = [f"# {title}"]
    for key, value in values.items():
        if isinstance(value, (list, tuple)):
            value = ", ".join(v if isinstance(v, str) else repr(v) for v in value)
        lines.append(f"{key} = {value}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def make_inputs(workload: str, seed: int, workdir: str) -> dict:
    """Write the inputs of one run into ``workdir`` and return their spec."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == SWEEP:
        spec = {
            "k": [0.0, _band(rng, 0.30, 0.45), _band(rng, 0.60, 0.75), 0.999, 1.0],
            "delta": [0.0, _band(rng, 0.17, 0.23), -_band(rng, 0.17, 0.23)],
            "h": [_band(rng, 0.27, 0.33)],
            "tau_max": SWEEP_TAU_MAX,
            "n_samples": SWEEP_SAMPLES,
            "config": "sweep.cfg",
            "output": "sweep.csv",
        }
        _write_config(
            os.path.join(workdir, spec["config"]),
            f"{workload}, seed {seed}",
            {
                "k": spec["k"],
                "h_over_omega": spec["h"],
                "delta_over_omega": spec["delta"],
                "tau_max": SWEEP_TAU_MAX,
                "n_samples": SWEEP_SAMPLES,
            },
        )
    elif workload == SIMULATE:
        scenarios = [
            {
                "name": "detuned",
                "k": _band(rng, 0.50, 0.70),
                "h": _band(rng, 0.25, 0.35),
                "delta": _signed(rng, 0.15, 0.25),
                "spin_j": rng.choice((1.5, 2.0, 3.5, 5.0, 7.5, 10.0)),
                "outputs": ["trajectory", "heun_check", "wigner"],
            },
            {"name": "resonance", "k": _band(rng, 0.30, 0.90), "h": _band(rng, 0.25, 0.45), "delta": 0.0},
            {"name": "pulse", "k": 1.0, "h": _band(rng, 0.20, 0.30), "delta": _signed(rng, 0.15, 0.30)},
        ]
        for sc in scenarios:
            sc["config"] = f"{sc['name']}.cfg"
            sc["output"] = f"{sc['name']}.csv"
            values = {
                "k": sc["k"],
                "h_over_omega": sc["h"],
                "delta_over_omega": sc["delta"],
                "tau_max": SIMULATE_TAU_MAX,
                "n_samples": SIMULATE_SAMPLES,
            }
            if "outputs" in sc:
                values["outputs"] = sc["outputs"]
                values["spin_j"] = sc["spin_j"]
            _write_config(os.path.join(workdir, sc["config"]), f"{workload}, seed {seed}", values)
        spec = {"tau_max": SIMULATE_TAU_MAX, "n_samples": SIMULATE_SAMPLES, "scenarios": scenarios}
    elif workload == CROSSCHECK:
        bands = ((0.15, 0.30), (0.40, 0.55), (0.60, 0.75), (0.80, 0.90))
        spec = {
            "heun_resonance": [
                {"h": _band(rng, 0.20, 0.50), "k": _band(rng, lo, hi), "tau": HEUN_RESONANCE_TAU}
                for lo, hi in bands
            ],
            "points": [
                {
                    "h": _band(rng, 0.20, 0.50),
                    "delta": _signed(rng, 0.10, 0.40),
                    "k": _band(rng, 0.30, 0.80),
                    "tau": SELECTION_TAU,
                }
                for _ in range(N_SELECTION_POINTS)
            ],
            "spin_j": [
                {
                    "j": j,
                    "phi": rng.uniform(-math.pi, math.pi),
                    "theta": rng.uniform(0.0, math.pi),
                    "psi": rng.uniform(-math.pi, math.pi),
                    "fault_case": False,
                }
                for j in SEEDED_SPINS
            ]
            + [
                {"j": j, "phi": FAULT_PHI, "theta": theta, "psi": FAULT_PSI, "fault_case": True}
                for j, theta in FAULT_CASES
            ],
        }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    spec["workload"] = workload
    spec["seed"] = seed
    with open(os.path.join(workdir, SPEC_FILE), "w", encoding="ascii") as fh:
        json.dump(spec, fh, indent=1)
    return spec


def operations_per_round(spec: dict) -> int:
    """Operations one round attempts: sweep runs, scenarios or library checks."""
    workload = spec["workload"]
    if workload == SWEEP:
        return len(spec["k"]) * len(spec["delta"]) * len(spec["h"])
    if workload == SIMULATE:
        return len(spec["scenarios"])
    # Heun at resonance; per point eight selections, one evolve and one
    # propagator pipeline; one operation per spin-J case.
    n_sel = 8
    return len(spec["heun_resonance"]) + len(spec["points"]) * (n_sel + 2) + len(spec["spin_j"])


# ---------------------------------------------------------------- worker side


def load(es, workdir: str) -> dict:
    """Read the spec and parse every config, as a user's first call would."""
    with open(os.path.join(workdir, SPEC_FILE), encoding="ascii") as fh:
        spec = json.load(fh)
    if spec["workload"] == SWEEP:
        es.cli.load_scenario(os.path.join(workdir, spec["config"]), allow_grids=True)
    elif spec["workload"] == SIMULATE:
        for sc in spec["scenarios"]:
            es.cli.load_scenario(os.path.join(workdir, sc["config"]))
    return spec


def _cli(es, argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = es.cli.main(argv)
    return rc, err.getvalue()


def run_round(es, spec: dict, workdir: str) -> dict:
    """Run one round of the workload's operations and return what they gave.

    CLI workloads leave their CSV files in ``workdir``; the return value
    holds exit codes and stderr.  Library calls are looked up on the
    package at call time, so a traced round sees the wrapped functions.
    """
    workload = spec["workload"]
    if workload == SWEEP:
        rc, err = _cli(
            es,
            ["sweep", os.path.join(workdir, spec["config"]), "-o", os.path.join(workdir, spec["output"])],
        )
        return {"rc": [rc], "stderr": [err]}
    if workload == SIMULATE:
        out = {"rc": [], "stderr": []}
        for sc in spec["scenarios"]:
            rc, err = _cli(
                es,
                ["simulate", os.path.join(workdir, sc["config"]), "-o", os.path.join(workdir, sc["output"])],
            )
            out["rc"].append(rc)
            out["stderr"].append(err)
        return out
    return _crosscheck_round(es, spec)


def _guarded(errors: list, label: str, fn, *args):
    # A failing call is recorded, not raised: the round goes on, and the
    # parent counts the failure against the operations attempted.
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - boundary that must keep running
        errors.append(f"{label}: {exc!r}")
        return None


def _crosscheck_round(es, spec: dict) -> dict:
    errors: list[str] = []
    up = es.SpinState(1.0 + 0j, 0j)

    heun_resonance = []
    for i, c in enumerate(spec["heun_resonance"]):
        params = es.SimParams.from_detuning(c["h"], 0.0, c["k"])
        heun_resonance.append(_guarded(errors, f"heun_resonance[{i}]", es.flip_probability_heun, c["tau"], params))

    points = []
    for i, c in enumerate(spec["points"]):
        params = es.SimParams.from_detuning(c["h"], c["delta"], c["k"])
        tau = c["tau"]
        selections = [
            _guarded(errors, f"points[{i}] selection {s}", es.flip_probability_heun, tau, params, s)
            for s in es.SELECTIONS
        ]
        traj = _guarded(errors, f"points[{i}] evolve", es.evolve, up, params, [0.0, tau])

        def pipeline():
            u = es.propagator(tau, params)
            angles = es.euler_angles(u)
            d_half = es.wigner_d(0.5, angles).entries
            return {
                "u": [[u.u11, u.u12], [u.u21, u.u22]],
                "angles": [angles.phi, angles.theta, angles.psi],
                "d_half": d_half.tolist(),
            }

        points.append(
            {
                "selections": selections,
                "evolve": None if traj is None else float(traj.p_flip[-1]),
                "pipeline": _guarded(errors, f"points[{i}] pipeline", pipeline),
            }
        )

    spin_j = []
    for i, c in enumerate(spec["spin_j"]):
        j, theta = c["j"], c["theta"]

        def matrices():
            angles = es.EulerAngles(phi=c["phi"], theta=theta, psi=c["psi"])
            d = es.wigner_d(j, angles).entries
            dim = round(2 * j) + 1
            p = [
                [es.transition_probability_j(j, j - a, j - b, theta) for b in range(dim)]
                for a in range(dim)
            ]
            return {"d": d.tolist(), "p": p}

        spin_j.append(_guarded(errors, f"spin_j[{i}] J={j}", matrices))

    return {"heun_resonance": heun_resonance, "points": points, "spin_j": spin_j, "errors": errors}
