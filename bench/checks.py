"""Correctness checks of one run, against computations made apart from ellipspin.

The references come from closed forms, from the lab-frame Hamiltonian
integrated by scipy's DOP853, from a dense matrix exponential, and from
properties every correct answer has (row sums, reflection symmetry, norms).
Nothing here compares against a stored copy of earlier output.

`check` returns the failures, which make a run incorrect, and the number of
operations per round that fail by the one known fault: the row-sum defect
of `wigner_d` at high J near theta = pi/2.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.special import ellipj

from workloads import CROSSCHECK, SIMULATE, SWEEP

P_TOL = 1e-8          # flip probabilities against a reference
NORM_TOL = 1e-8       # norm drift and |P| - 1
HEUN_ODE_TOL = 1e-6   # Fuchsian reduction against the ODE integrator
SPIN_TOL = 1e-10      # spin-J row sums, symmetry and matrix entries
RATIO_TOL = 1e-9      # relative error of a single-term spin-J formula

SIMULATE_HEADER = "tau,re_psi1,im_psi1,re_psi2,im_psi2,p_flip,px,py,pz,norm_drift"
SWEEP_HEADER = "k,delta_over_omega,h_over_omega,tau,p_flip"
REFERENCE_STRIDE = 1000  # simulate-dense rows compared with the ODE reference


@dataclass
class Verdict:
    failures: list[str] = field(default_factory=list)
    fault_ops: int = 0

    def worst(self, label: str, residual: float, tol: float) -> None:
        if not residual <= tol:
            self.failures.append(f"{label}: residual {residual:.3e} exceeds {tol:.0e}")


# ---------------------------------------------------------------- references


def lab_flip_probability(h: float, delta: float, k: float, taus) -> np.ndarray:
    """|psi2|^2 from the lab-frame Hamiltonian, spin up at tau = 0.

    H = h cn sigma_x + h sn sigma_y + (delta + 1/2) dn sigma_z in units of
    the drive frequency, with scipy's Jacobi functions, integrated by
    DOP853 at rtol = atol = 1e-12.
    """
    taus = np.asarray(taus, dtype=float)
    big_h = delta + 0.5
    m = k * k

    def rhs(t, y):
        sn, cn, dn, _ = ellipj(t, m)
        diag = big_h * dn
        off = h * (cn - 1j * sn)
        return [-1j * (diag * y[0] + off * y[1]), -1j * (np.conj(off) * y[0] - diag * y[1])]

    sol = solve_ivp(
        rhs, (0.0, float(taus[-1])), [1.0 + 0j, 0j], method="DOP853", rtol=1e-12, atol=1e-12, t_eval=taus
    )
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return np.abs(sol.y[1]) ** 2


def closed_form(h: float, delta: float, k: float, taus) -> np.ndarray | None:
    """Exact flip probability where one exists: resonance (any k) or k = 0."""
    taus = np.asarray(taus, dtype=float)
    if delta == 0.0:
        return np.sin(h * taus) ** 2
    if k == 0.0:
        r = math.hypot(h, delta)
        return (h / r) ** 2 * np.sin(r * taus) ** 2
    return None


def reference_flip(h: float, delta: float, k: float, taus) -> np.ndarray:
    exact = closed_form(h, delta, k, taus)
    return exact if exact is not None else lab_flip_probability(h, delta, k, taus)


def rotation_matrix(j: float, phi: float, theta: float, psi: float) -> np.ndarray:
    """diag(e^{i m phi}) exp(i theta J_x) diag(e^{i m psi}), m = j, j-1, ..., -j."""
    ms = j - np.arange(round(2 * j) + 1)
    plus = np.zeros((len(ms), len(ms)))
    for a in range(1, len(ms)):
        plus[a - 1, a] = math.sqrt(j * (j + 1.0) - ms[a] * (ms[a] + 1.0))
    jx = 0.5 * (plus + plus.T)
    return np.exp(1j * ms * phi)[:, None] * expm(1j * theta * jx) * np.exp(1j * ms * psi)[None, :]


# ---------------------------------------------------------------- outputs


def _read_csv(path: str) -> tuple[str, np.ndarray]:
    # A missing or malformed file fails the shape check instead of the run.
    try:
        with open(path, encoding="ascii", newline="") as fh:
            header = fh.readline().rstrip("\n")
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError):
        return "", np.empty((0, 0))
    return header, rows


def load_outputs(spec: dict, workdir: str, result: dict) -> dict:
    """What the last round produced, plus every round's output digest."""
    out = dict(result["last_output"])
    out["digests"] = [r["digest"] for r in result["rounds"]]
    workload = spec["workload"]
    if workload == SWEEP:
        out["csv"] = [_read_csv(os.path.join(workdir, spec["output"]))]
    elif workload == SIMULATE:
        out["csv"] = [_read_csv(os.path.join(workdir, sc["output"])) for sc in spec["scenarios"]]
    return out


def _complex(value) -> np.ndarray:
    # Complex numbers travel through JSON as [re, im] pairs.
    arr = np.asarray(value, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


# ---------------------------------------------------------------- checks


def check(spec: dict, outputs: dict) -> Verdict:
    verdict = Verdict()
    if len(set(outputs["digests"])) != 1:
        verdict.failures.append("repeated rounds did not produce identical outputs")
    for i, rc in enumerate(outputs.get("rc", [])):
        if rc != 0:
            verdict.failures.append(f"CLI call {i} exited with {rc}: {outputs['stderr'][i].strip()}")
    for err in outputs.get("errors", []):
        verdict.failures.append(f"call raised {err}")
    workload = spec["workload"]
    if workload == SWEEP:
        _check_sweep(spec, outputs, verdict)
    elif workload == SIMULATE:
        _check_simulate(spec, outputs, verdict)
    elif workload == CROSSCHECK:
        _check_crosscheck(spec, outputs, verdict)
    return verdict


def _check_sweep(spec: dict, outputs: dict, v: Verdict) -> None:
    header, rows = outputs["csv"][0]
    n = spec["n_samples"]
    grid = [(k, d, h) for k in spec["k"] for d in spec["delta"] for h in spec["h"]]
    if header != SWEEP_HEADER or rows.shape != (len(grid) * n, 5):
        v.failures.append(f"sweep CSV has header {header!r} and shape {rows.shape}")
        return
    taus = np.linspace(0.0, spec["tau_max"], n)
    for i, (k, d, h) in enumerate(grid):
        block = rows[i * n : (i + 1) * n]
        label = f"sweep row k={k} delta={d} h={h}"
        if not (np.all(block[:, :3] == (k, d, h)) and np.array_equal(block[:, 3], taus)):
            v.failures.append(f"{label}: grid columns out of order")
            continue
        p = block[:, 4]
        v.worst(label, float(np.max(np.abs(p - reference_flip(h, d, k, taus)))), P_TOL)
        if np.any((p < 0.0) | (p > 1.0)):
            v.failures.append(f"{label}: p_flip outside [0, 1]")


_REPORT = re.compile(r"(\w+)=(\S+)")


def _report(stderr: str, kind: str) -> dict[str, float] | None:
    for line in stderr.splitlines():
        if line.startswith(kind + " "):
            fields = dict(_REPORT.findall(line))
            return {key: float(value.rstrip(":")) for key, value in fields.items()}
    return None


def _check_simulate(spec: dict, outputs: dict, v: Verdict) -> None:
    n = spec["n_samples"]
    taus = np.linspace(0.0, spec["tau_max"], n)
    for sc, (header, rows), stderr in zip(spec["scenarios"], outputs["csv"], outputs["stderr"]):
        name = sc["name"]
        if header != SIMULATE_HEADER or rows.shape != (n, 10) or not np.array_equal(rows[:, 0], taus):
            v.failures.append(f"{name}: CSV has header {header!r}, shape {rows.shape} or a wrong tau grid")
            continue
        p = rows[:, 5]
        v.worst(f"{name} norm_drift", float(np.max(rows[:, 9])), NORM_TOL)
        v.worst(f"{name} |P| - 1", float(np.max(np.abs(np.linalg.norm(rows[:, 6:9], axis=1) - 1.0))), NORM_TOL)
        exact = closed_form(sc["h"], sc["delta"], sc["k"], taus)
        if exact is not None:
            v.worst(f"{name} p_flip vs closed form", float(np.max(np.abs(p - exact))), P_TOL)
        else:
            idx = np.arange(0, n, REFERENCE_STRIDE)
            ref = lab_flip_probability(sc["h"], sc["delta"], sc["k"], taus[idx])
            v.worst(f"{name} p_flip vs reference", float(np.max(np.abs(p[idx] - ref))), P_TOL)
        if "heun_check" in sc.get("outputs", ()):
            _check_reports(sc, taus, p, stderr, v)


def _check_reports(sc: dict, taus: np.ndarray, p: np.ndarray, stderr: str, v: Verdict) -> None:
    name = sc["name"]
    p_end = lab_flip_probability(sc["h"], sc["delta"], sc["k"], taus[[0, -1]])[-1]
    heun = _report(stderr, "heun_check")
    wig = _report(stderr, "wigner")
    if heun is None or wig is None:
        v.failures.append(f"{name}: heun_check or wigner report missing from stderr")
        return
    if heun["ode"] != p[-1]:
        v.failures.append(f"{name}: heun_check ode value differs from the CSV's last p_flip")
    v.worst(f"{name} heun_check series vs reference", abs(heun["series"] - p_end), HEUN_ODE_TOL)
    v.worst(f"{name} heun_check diff", heun["diff"], HEUN_ODE_TOL)
    theta = wig["theta"]
    v.worst(f"{name} wigner sin^2(theta/2) vs reference", abs(math.sin(0.5 * theta) ** 2 - p_end), P_TOL)
    # |d^j_{j,j-1}|^2 = 2j cos^(4j-2)(theta/2) sin^2(theta/2)
    j = sc["spin_j"]
    expected = 2 * j * math.cos(0.5 * theta) ** (4 * j - 2) * math.sin(0.5 * theta) ** 2
    v.worst(f"{name} wigner p_top_transition", abs(wig["p_top_transition"] - expected), RATIO_TOL * expected + 1e-300)


def _check_crosscheck(spec: dict, outputs: dict, v: Verdict) -> None:
    for c, p in zip(spec["heun_resonance"], outputs["heun_resonance"]):
        if p is not None:
            v.worst(f"heun at resonance k={c['k']}", abs(p - math.sin(c["h"] * c["tau"]) ** 2), P_TOL)

    for c, out in zip(spec["points"], outputs["points"]):
        label = f"point h={c['h']} delta={c['delta']} k={c['k']}"
        ref = lab_flip_probability(c["h"], c["delta"], c["k"], [0.0, c["tau"]])[-1]
        sel = [s for s in out["selections"] if s is not None]
        if sel:
            v.worst(f"{label}: spread of the eight selections", max(sel) - min(sel), P_TOL)
        if out["evolve"] is not None:
            v.worst(f"{label}: evolve vs reference", abs(out["evolve"] - ref), P_TOL)
            if sel:
                v.worst(f"{label}: Heun vs evolve", max(abs(s - out["evolve"]) for s in sel), HEUN_ODE_TOL)
        pipe = out["pipeline"]
        if pipe is not None:
            u = _complex(pipe["u"])
            d_half = _complex(pipe["d_half"])
            theta = pipe["angles"][1]
            v.worst(f"{label}: propagator unitarity", float(np.max(np.abs(u.conj().T @ u - np.eye(2)))), P_TOL)
            v.worst(f"{label}: |U21|^2 vs reference", abs(abs(u[1, 0]) ** 2 - ref), P_TOL)
            v.worst(f"{label}: sin^2(theta/2) vs reference", abs(math.sin(0.5 * theta) ** 2 - ref), P_TOL)
            idx = np.unravel_index(np.argmax(np.abs(u)), u.shape)
            phase = u[idx] / d_half[idx]
            v.worst(
                f"{label}: d^1/2(euler_angles(U)) vs U up to a phase",
                max(abs(abs(phase) - 1.0), float(np.max(np.abs(d_half * phase - u)))),
                P_TOL,
            )

    for c, out in zip(spec["spin_j"], outputs["spin_j"]):
        if out is None:
            continue
        label = f"spin J={c['j']} theta={c['theta']:.6f}"
        fault, other = spin_j_residuals(c, out)
        bad = [f"{k} {r:.3e}" for k, r in fault.items() if not r <= SPIN_TOL]
        if c["fault_case"]:
            if bad:
                v.fault_ops += 1
        elif bad:
            v.failures.append(f"{label}: {', '.join(bad)} exceed {SPIN_TOL:.0e}")
        for key, (r, tol) in other.items():
            v.worst(f"{label}: {key}", r, tol)


def spin_j_residuals(case: dict, out: dict) -> tuple[dict, dict]:
    """Residuals of one spin-J case, split by whether the known fault moves them.

    Cancellation in the alternating factorial sum spoils row sums, the
    reflection symmetry and agreement with the matrix exponential; it does
    not touch the single-term corner entry or the agreement of the two
    spin-J code paths with each other.
    """
    j, theta = case["j"], case["theta"]
    d = _complex(out["d"])
    p = np.asarray(out["p"], dtype=float)
    probs = np.abs(d) ** 2
    oracle = rotation_matrix(j, case["phi"], theta, case["psi"])
    fault = {
        "row sums of |d|^2": float(np.max(np.abs(probs.sum(axis=1) - 1.0))),
        "row sums of transition_probability_j": float(np.max(np.abs(p.sum(axis=1) - 1.0))),
        "reflection m,m' -> -m,-m'": float(np.max(np.abs(p - p[::-1, ::-1]))),
        "entries vs matrix exponential": float(np.max(np.abs(d - oracle))),
    }
    corner = math.cos(0.5 * theta) ** (4 * j)
    other = {
        "|d_JJ|^2 vs cos^4J(theta/2)": (abs(probs[0, 0] - corner), RATIO_TOL * corner + 1e-300),
        "transition_probability_j vs |d|^2": (float(np.max(np.abs(p - probs))), SPIN_TOL),
    }
    return fault, other
