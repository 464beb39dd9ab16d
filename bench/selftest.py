"""The benchmark's own test: every correctness check must have teeth.

Each workload's checks pass on the program's real output (apart from the
known high-J wigner_d fault, which is counted, not failed), and each check
rejects an output corrupted in the way it is meant to catch.

    python3 -m pytest -q bench/selftest.py

Takes about half a minute: it runs one round of every workload.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def es():
    return worker.import_program()


def _one_round(es, workload, workdir, edit_config=None):
    os.makedirs(workdir, exist_ok=True)
    spec = workloads.make_inputs(workload, SEED, workdir)
    if edit_config is not None:
        edit_config(spec, workdir)
    spec = workloads.load(es, workdir)
    output = workloads.run_round(es, spec, workdir)
    # Through JSON, as the parent receives it.
    output = json.loads(json.dumps(output, default=worker._json_default))
    result = {"rounds": [{"digest": "d"}, {"digest": "d"}], "last_output": output}
    return spec, checks.load_outputs(spec, workdir, result)


@pytest.fixture(scope="module")
def runs(es, tmp_path_factory):
    base = tmp_path_factory.mktemp("bench")
    return {w: _one_round(es, w, str(base / w)) for w in workloads.WORKLOADS}


def _rejects(spec, outputs, needle):
    failures = checks.check(spec, outputs).failures
    assert any(needle in f for f in failures), failures


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_real_output_passes(runs, workload):
    spec, outputs = runs[workload]
    verdict = checks.check(spec, outputs)
    assert verdict.failures == []
    if workload == workloads.CROSSCHECK:
        # Only the fixed near-pi/2 cases may fail, and J = 25 at theta = 0.4 must not.
        assert 0 <= verdict.fault_ops < len(workloads.FAULT_CASES)
    else:
        assert verdict.fault_ops == 0


def test_rounds_must_agree(runs):
    spec, outputs = copy.deepcopy(runs[workloads.SWEEP])
    outputs["digests"] = ["a", "b"]
    _rejects(spec, outputs, "identical outputs")


def test_cli_exit_code_must_be_zero(runs):
    spec, outputs = copy.deepcopy(runs[workloads.SIMULATE])
    outputs["rc"][1] = 3
    _rejects(spec, outputs, "exited with 3")


# ---------------------------------------------------------------- sweep-long


def _sweep_block(spec, predicate):
    grid = [(k, d, h) for k in spec["k"] for d in spec["delta"] for h in spec["h"]]
    return next(i for i, point in enumerate(grid) if predicate(*point))


@pytest.mark.parametrize(
    "kind, predicate",
    [
        ("resonance", lambda k, d, h: d == 0.0 and k == 0.999),
        ("circular", lambda k, d, h: k == 0.0 and d != 0.0),
        ("reference", lambda k, d, h: 0.0 < k < 1.0 and d != 0.0),
        ("pulse", lambda k, d, h: k == 1.0 and d != 0.0),
    ],
)
def test_sweep_rejects_perturbed_p_flip(runs, kind, predicate):
    spec, outputs = copy.deepcopy(runs[workloads.SWEEP])
    i = _sweep_block(spec, predicate)
    rows = outputs["csv"][0][1]
    rows[i * spec["n_samples"] + 100, 4] += 1e-6
    _rejects(spec, outputs, "exceeds 1e-08")


def test_sweep_rejects_p_outside_unit_interval(runs):
    spec, outputs = copy.deepcopy(runs[workloads.SWEEP])
    outputs["csv"][0][1][0, 4] = -1e-12  # tau = 0: within every tolerance, but negative
    _rejects(spec, outputs, "outside [0, 1]")


def test_sweep_rejects_reordered_grid(runs):
    spec, outputs = copy.deepcopy(runs[workloads.SWEEP])
    rows = outputs["csv"][0][1]
    n = spec["n_samples"]
    rows[[0, n]] = rows[[n, 0]]
    _rejects(spec, outputs, "out of order")


def test_sweep_rejects_loose_integrator_tolerance(es, tmp_path):
    def loosen(spec, workdir):
        with open(os.path.join(workdir, spec["config"]), "a", encoding="ascii") as fh:
            fh.write("tol = 1e-4\n")

    spec, outputs = _one_round(es, workloads.SWEEP, str(tmp_path), loosen)
    _rejects(spec, outputs, "exceeds 1e-08")


# ---------------------------------------------------------------- simulate-dense


def _scenario(spec, outputs, name):
    i = next(i for i, sc in enumerate(spec["scenarios"]) if sc["name"] == name)
    return i, outputs["csv"][i][1]


@pytest.mark.parametrize("name", ["detuned", "resonance", "pulse"])
def test_simulate_rejects_perturbed_p_flip(runs, name):
    spec, outputs = copy.deepcopy(runs[workloads.SIMULATE])
    _, rows = _scenario(spec, outputs, name)
    rows[checks.REFERENCE_STRIDE * 3, 5] += 1e-6
    _rejects(spec, outputs, f"{name} p_flip")


def test_simulate_rejects_norm_drift(runs):
    spec, outputs = copy.deepcopy(runs[workloads.SIMULATE])
    _, rows = _scenario(spec, outputs, "pulse")
    rows[500, 9] = 1e-7
    _rejects(spec, outputs, "pulse norm_drift")


def test_simulate_rejects_off_sphere_polarization(runs):
    spec, outputs = copy.deepcopy(runs[workloads.SIMULATE])
    _, rows = _scenario(spec, outputs, "resonance")
    rows[777, 6:9] *= 1.0 + 1e-7
    _rejects(spec, outputs, "resonance |P| - 1")


def _edit_report(outputs, i, key, change):
    lines = outputs["stderr"][i].splitlines()
    for n, line in enumerate(lines):
        parts = line.split(" ")
        for m, part in enumerate(parts):
            if part.startswith(key + "="):
                parts[m] = f"{key}={change(float(part[len(key) + 1:]))!r}"
        lines[n] = " ".join(parts)
    outputs["stderr"][i] = "\n".join(lines)


@pytest.mark.parametrize(
    "key, change, needle",
    [
        ("series", lambda x: x + 1e-5, "series vs reference"),
        ("ode", lambda x: x + 1e-12, "ode value differs"),
        ("diff", lambda x: 2e-6, "heun_check diff"),
        ("theta", lambda x: x + 1e-6, "sin^2(theta/2)"),
        ("p_top_transition", lambda x: x * (1 + 1e-6), "p_top_transition"),
    ],
)
def test_simulate_rejects_bad_reports(runs, key, change, needle):
    spec, outputs = copy.deepcopy(runs[workloads.SIMULATE])
    i, _ = _scenario(spec, outputs, "detuned")
    _edit_report(outputs, i, key, change)
    _rejects(spec, outputs, needle)


def test_simulate_rejects_missing_report(runs):
    spec, outputs = copy.deepcopy(runs[workloads.SIMULATE])
    i, _ = _scenario(spec, outputs, "detuned")
    outputs["stderr"][i] = ""
    _rejects(spec, outputs, "report missing")


# ---------------------------------------------------------------- crosscheck


def test_crosscheck_rejects_heun_at_resonance(runs):
    spec, outputs = copy.deepcopy(runs[workloads.CROSSCHECK])
    outputs["heun_resonance"][2] += 1e-6
    _rejects(spec, outputs, "heun at resonance")


def test_crosscheck_rejects_selection_spread(runs):
    spec, outputs = copy.deepcopy(runs[workloads.CROSSCHECK])
    outputs["points"][0]["selections"][5] += 1e-7
    _rejects(spec, outputs, "spread of the eight selections")


def test_crosscheck_rejects_heun_far_from_evolve(runs):
    spec, outputs = copy.deepcopy(runs[workloads.CROSSCHECK])
    sel = outputs["points"][1]["selections"]
    outputs["points"][1]["selections"] = [s + 2e-6 for s in sel]
    _rejects(spec, outputs, "Heun vs evolve")


def test_crosscheck_rejects_evolve(runs):
    spec, outputs = copy.deepcopy(runs[workloads.CROSSCHECK])
    outputs["points"][0]["evolve"] += 1e-7
    _rejects(spec, outputs, "evolve vs reference")


@pytest.mark.parametrize(
    "field, index, needle",
    [
        ("u", (1, 0), "|U21|^2 vs reference"),
        ("u", (0, 1), "propagator unitarity"),
        ("d_half", (0, 1), "d^1/2(euler_angles(U))"),
        ("angles", 1, "sin^2(theta/2)"),
    ],
)
def test_crosscheck_rejects_pipeline(runs, field, index, needle):
    spec, outputs = copy.deepcopy(runs[workloads.CROSSCHECK])
    pipe = outputs["points"][0]["pipeline"]
    if field == "angles":
        pipe["angles"][index] += 1e-6
    else:
        a, b = index
        pipe[field][a][b][0] += 1e-6
    _rejects(spec, outputs, needle)


def _spin_case(spec, outputs, j, fault_case=False):
    i = next(i for i, c in enumerate(spec["spin_j"]) if c["j"] == j and c["fault_case"] == fault_case)
    return outputs["spin_j"][i]


def test_crosscheck_rejects_row_sum(runs):
    spec, outputs = copy.deepcopy(runs[workloads.CROSSCHECK])
    case = _spin_case(spec, outputs, 9.5)
    case["p"][3] = [x * (1 + 1e-6) for x in case["p"][3]]
    _rejects(spec, outputs, "row sums of transition_probability_j")


def test_crosscheck_rejects_reflection_asymmetry(runs):
    spec, outputs = copy.deepcopy(runs[workloads.CROSSCHECK])
    p = _spin_case(spec, outputs, 4.0)["p"]
    # Move weight within a row: its sum is unchanged, its mirror image is not.
    p[1][2] += 1e-6
    p[1][3] -= 1e-6
    _rejects(spec, outputs, "reflection")


def test_crosscheck_rejects_matrix_entries(runs):
    spec, outputs = copy.deepcopy(runs[workloads.CROSSCHECK])
    d = _spin_case(spec, outputs, 2.5)["d"]
    # A pure phase error leaves every |entry| and so every row sum intact.
    d[1][2] = [-d[1][2][0], -d[1][2][1]]
    _rejects(spec, outputs, "entries vs matrix exponential")


def test_crosscheck_rejects_corner_entry(runs):
    spec, outputs = copy.deepcopy(runs[workloads.CROSSCHECK])
    case = _spin_case(spec, outputs, 1.5)
    case["d"][0][0] = [x * (1 + 1e-6) for x in case["d"][0][0]]
    _rejects(spec, outputs, "|d_JJ|^2")


def test_crosscheck_rejects_two_paths_disagreeing_even_in_fault_cases(runs):
    spec, outputs = copy.deepcopy(runs[workloads.CROSSCHECK])
    case = _spin_case(spec, outputs, 25.0, fault_case=True)
    case["p"][10][10] += 1e-6
    _rejects(spec, outputs, "transition_probability_j vs |d|^2")


def test_fault_case_defect_is_counted_not_failed(runs):
    spec, outputs = copy.deepcopy(runs[workloads.CROSSCHECK])
    before = checks.check(spec, outputs).fault_ops
    # J = 25 at theta = 0.4 passes today.  A row-sum defect there, alike in
    # both spin-J code paths, is the known fault: counted, not failed.
    i = next(i for i, c in enumerate(spec["spin_j"]) if c["fault_case"] and c["theta"] == 0.4)
    case = outputs["spin_j"][i]
    case["p"][5] = [x * (1 + 1e-6) for x in case["p"][5]]
    case["d"][5] = [[re * (1 + 5e-7), im * (1 + 5e-7)] for re, im in case["d"][5]]
    verdict = checks.check(spec, outputs)
    assert verdict.failures == [] and verdict.fault_ops == before + 1


def test_crosscheck_rejects_raised_call(runs):
    spec, outputs = copy.deepcopy(runs[workloads.CROSSCHECK])
    outputs["errors"] = ["points[0] evolve: StepError('x')"]
    _rejects(spec, outputs, "raised")


# ---------------------------------------------------------------- tracing


def test_traced_counts_repeat_exactly(es, runs, tmp_path):
    spec = runs[workloads.CROSSCHECK][0]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            workloads.run_round(es, spec, str(tmp_path))
        finally:
            tracer.uninstall()
        counts.append(tracer.round_counts())
    assert counts[0] == counts[1]
    assert counts[0]["heun.flip_probability_heun.calls"] == 4 + 2 * 8
    assert counts[0]["dopri.steps"] == (counts[0]["dopri.rhs_evals"] - counts[0]["dopri.integrate.calls"]) / 6


def test_tracer_restores_the_program(es):
    originals = (es.jacobi, es.elliptic.jacobi, es.spin_dynamics.jacobi, es.evolve, es.cli._fmt)
    tracer = Tracer()
    tracer.install()
    assert es.spin_dynamics.jacobi is es.heun.jacobi is not originals[2]
    assert es.evolve is es.spin_dynamics.evolve is not originals[3]
    tracer.uninstall()
    assert (es.jacobi, es.elliptic.jacobi, es.spin_dynamics.jacobi, es.evolve, es.cli._fmt) == originals


def test_removed_name_is_reported_absent(es, monkeypatch):
    monkeypatch.delattr(es.cli, "_fmt")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    counts = tracer.round_counts()
    assert counts["cli._fmt.calls"] is None
    metrics = summarize(counts, [tracer.round_self_times()], [1.0], [0.9])
    assert metrics["cli._fmt.calls"] is None and metrics["cli._fmt.self_s"] is None
    assert metrics["elliptic.jacobi.calls"] == (0, "count")


def test_sweep_checks_use_independent_references():
    # Sanity of the references themselves against each other: the lab-frame
    # integration reproduces both closed forms.
    taus = np.linspace(0.0, 20.0, 41)
    assert np.max(np.abs(checks.lab_flip_probability(0.3, 0.0, 0.7, taus) - np.sin(0.3 * taus) ** 2)) < 1e-10
    rabi = checks.closed_form(0.3, 0.2, 0.0, taus)
    assert np.max(np.abs(checks.lab_flip_probability(0.3, 0.2, 0.0, taus) - rabi)) < 1e-10
