"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion is one test and prints a single PASS/FAIL line with the
measured residual (visible with ``pytest -rA`` or ``-s``).  Tolerances
are pinned here and nowhere else.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

import ellipspin.heun as heun
import ellipspin.observables as obs
import ellipspin.spin_dynamics as sd
import ellipspin.wigner as wigner
from ellipspin import SimParams, SpinState, jacobi, jacobi_identity_residuals, quarter_period

UP = SpinState(1.0 + 0j, 0.0j)


def report(criterion: int, name: str, value: float, bound: float, passed: bool | None = None):
    ok = value < bound if passed is None else passed
    print(
        f"ACCEPTANCE {criterion:02d} {name}: {'PASS' if ok else 'FAIL'} "
        f"(measured {value:.3e}, bound {bound:.0e})"
    )
    assert ok, f"criterion {criterion} ({name}): {value!r} not within {bound!r}"


def random_param_sets(seed: int, n: int) -> list[SimParams]:
    rng = np.random.default_rng(seed)
    return [
        SimParams.from_detuning(
            float(rng.uniform(0.1, 1.0)),
            float(rng.uniform(-0.5, 0.5)),
            float(rng.uniform(0.05, 0.95)),
        )
        for _ in range(n)
    ]


def test_01_resonance_modulus_independence():
    start = time.monotonic()
    taus = np.linspace(0.0, 20.0, 2000)
    expected = np.sin(0.25 * taus) ** 2
    worst = 0.0
    for k in (0.0, 0.3, 0.7, 0.99):
        traj = sd.evolve(UP, SimParams.from_detuning(0.25, 0.0, k), taus, tol=1e-10)
        worst = max(worst, float(np.max(np.abs(traj.p_flip - expected))))
    elapsed = time.monotonic() - start
    report(1, "resonance_k_independence", worst, 1e-8)
    report(1, "resonance_k_independence_runtime_s", elapsed, 5.0)


def test_02_rabi_limit():
    taus = np.linspace(0.0, 20.0, 2000)
    traj = sd.evolve(UP, SimParams.from_detuning(0.3, 0.4, 0.0), taus, tol=1e-10)
    worst = float(np.max(np.abs(traj.p_flip - 0.36 * np.sin(0.5 * taus) ** 2)))
    report(2, "rabi_limit", worst, 1e-8)


@pytest.fixture(scope="module")
def random_trajectories():
    taus = np.linspace(0.0, 50.0, 501)
    return [
        (p, sd.evolve(UP, p, taus, tol=1e-10)) for p in random_param_sets(101, 10)
    ]


def test_03_norm_conservation(random_trajectories):
    worst = max(float(np.max(traj.norm_drift)) for _, traj in random_trajectories)
    report(3, "norm_conservation", worst, 1e-8)


def test_04_four_vector_invariants(random_trajectories):
    worst = 0.0
    for p, traj in random_trajectories:
        for i in range(len(traj)):
            tau = float(traj.taus[i])
            state = SpinState(complex(traj.rot[i, 0]), complex(traj.rot[i, 1]))
            d1, d2 = sd.rotating_rhs(tau, p, state.psi1, state.psi2)
            res = obs.four_vector_residuals(tau, p, state, SpinState(d1, d2))
            worst = max(worst, res.max())
    report(4, "four_vector_invariants", worst, 1e-8)


def test_05_flip_amplitude_equation():
    rng = np.random.default_rng(55)
    worst = 0.0
    for p in random_param_sets(202, 5):
        taus = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 10.0, 50))])
        traj = sd.evolve(UP, p, taus, tol=1e-10)
        for i in range(1, len(traj)):
            state = SpinState(complex(traj.rot[i, 0]), complex(traj.rot[i, 1]))
            worst = max(
                worst, obs.lame_residual_from_state(p, float(traj.taus[i]), state)
            )
    report(5, "flip_amplitude_equation", worst, 1e-8)


def test_06_fuchsian_identities():
    worst_sum = 0.0
    worst_fuchs = 0.0
    for p in random_param_sets(303, 100):
        c = heun.algebraic_coefficients(p)
        worst_sum = max(worst_sum, abs(c.c1 + c.c2 + c.c3))
        for sel in heun.SELECTIONS:
            data = heun.heun_parameters(p, sel)
            worst_fuchs = max(
                worst_fuchs,
                abs(data.gamma + data.delta + data.epsilon - data.alpha - data.beta - 1.0),
            )
    report(6, "residue_sum", worst_sum, 1e-12)
    report(6, "exponent_sum", worst_fuchs, 1e-12)


def test_07_reduction_pipeline_equivalence():
    start = time.monotonic()
    worst = 0.0
    for k in (0.3, 0.5, 0.7):
        for delta in (0.0, 0.05, 0.1):
            p = SimParams.from_detuning(0.2, delta, k)
            for tau in (0.5, 1.0, 2.0):
                p_ode = float(sd.evolve(UP, p, [0.0, tau], tol=1e-10).p_flip[-1])
                p_series = heun.flip_probability_heun(tau, p)
                worst = max(worst, abs(p_ode - p_series))
    elapsed = time.monotonic() - start
    report(7, "reduction_vs_ode", worst, 1e-6)
    report(7, "reduction_vs_ode_runtime_s", elapsed, 60.0)


def test_08_propagator_unitarity():
    rng = np.random.default_rng(88)
    worst = 0.0
    for p in random_param_sets(404, 20):
        tau = float(rng.uniform(0.1, 12.0))
        worst = max(worst, sd.propagator(tau, p, tol=1e-10).unitarity_defect())
    report(8, "propagator_unitarity", worst, 1e-9)


def test_09_wigner_consistency():
    rng = np.random.default_rng(99)

    # (a) theta reproduces the flip probability
    worst_flip = 0.0
    for p in random_param_sets(505, 10):
        tau = float(rng.uniform(0.2, 10.0))
        angles = wigner.euler_angles(sd.propagator(tau, p, tol=1e-10))
        p_flip = float(sd.evolve(UP, p, [0.0, tau], tol=1e-10).p_flip[-1])
        worst_flip = max(worst_flip, abs(math.sin(0.5 * angles.theta) ** 2 - p_flip))
    report(9, "flip_vs_theta", worst_flip, 1e-8)

    # (b) row sums of squared entries over J in {1/2 .. 5}
    worst_rows = 0.0
    for j in (0.5, 1.0, 1.5, 2.0, 5.0):
        angles = wigner.EulerAngles(
            phi=float(rng.uniform(-math.pi, math.pi)),
            theta=float(rng.uniform(0.0, math.pi)),
            psi=float(rng.uniform(-math.pi, math.pi)),
        )
        probs = np.abs(wigner.wigner_d(j, angles).entries) ** 2
        worst_rows = max(worst_rows, float(np.max(np.abs(probs.sum(axis=1) - 1.0))))
    report(9, "row_sums", worst_rows, 1e-10)

    # (c) J = 1 against an independent dense matrix exponential
    angles = wigner.EulerAngles(phi=0.6, theta=1.1, psi=-0.8)
    ms = np.array([1.0, 0.0, -1.0])
    plus = np.zeros((3, 3), dtype=complex)
    for a, m in enumerate(ms):
        if a - 1 >= 0:
            plus[a - 1, a] = math.sqrt(1.0 * 2.0 - m * (m + 1.0))
    jx = 0.5 * (plus + plus.conj().T)
    oracle = (
        np.diag(np.exp(1j * ms * angles.phi))
        @ expm(1j * angles.theta * jx)
        @ np.diag(np.exp(1j * ms * angles.psi))
    )
    got = wigner.wigner_d(1.0, angles).entries
    report(9, "j1_matrix_exponential_oracle", float(np.max(np.abs(got - oracle))), 1e-10)


def test_10_elliptic_foundation():
    # identities on a 1000-point grid
    worst = 0.0
    moduli = [0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999, 0.05, 0.2]
    for k in moduli:
        big_k = quarter_period(k)
        for u in np.linspace(-4.0 * big_k, 4.0 * big_k, 100):
            worst = max(worst, *jacobi_identity_residuals(jacobi(float(u), k), k))
    report(10, "jacobi_identities_1000pts", worst, 1e-12)

    quad_oracle, _ = quad(
        lambda t: 1.0 / math.sqrt(1.0 - (0.5 * math.sin(t)) ** 2),
        0.0,
        0.5 * math.pi,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    report(10, "K_quadrature", abs(quarter_period(0.5) - quad_oracle), 1e-10)

    exact = all(
        jacobi(float(u), 1.0).as_tuple()
        == (math.tanh(u), 1.0 / math.cosh(u), 1.0 / math.cosh(u))
        for u in np.linspace(-10.0, 10.0, 101)
    )
    report(10, "pulse_limit_exact", 0.0 if exact else 1.0, 0.5, passed=exact)


def test_11_bloch_residual():
    p = SimParams.from_detuning(0.25, 0.0, 0.5)
    taus = np.arange(0.0, 2.0 + 1e-12, 1e-3)
    pol = np.array([obs.resonance_polarization(float(t), p).as_array() for t in taus])
    report(11, "bloch_finite_difference", obs.bloch_residual_of_samples(taus, pol, p), 1e-5)


def test_12_cli_determinism(tmp_path):
    cfg = tmp_path / "acc.cfg"
    cfg.write_text(
        "k = 0.7\nh_over_omega = 0.25\ndelta_over_omega = 0.0\n"
        "tau_max = 10.0\nn_samples = 101\ntol = 1e-10\n"
    )

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "ellipspin", *args], capture_output=True, timeout=900
        )

    a = run("simulate", str(cfg))
    b = run("simulate", str(cfg))
    identical = a.returncode == 0 and b.returncode == 0 and a.stdout == b.stdout
    report(12, "csv_byte_identical", 0.0 if identical else 1.0, 0.5, passed=identical)

    v = run("verify", "all")
    report(
        12,
        "verify_all_exit_code",
        float(v.returncode),
        0.5,
        passed=v.returncode == 0,
    )
    if v.returncode != 0:
        print(v.stdout.decode())
        print(v.stderr.decode())
