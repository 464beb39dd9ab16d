"""Runtime verification suites.

Each suite re-derives a set of identities the dynamics must satisfy and
reports the worst residual per check.  The suites are deterministic
(fixed RNG seed) so a verification run is reproducible bit for bit.  The
``verify`` CLI subcommand and the acceptance tests both drive these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import heun, observables, spin_dynamics as sd, wigner
from .elliptic import jacobi, jacobi_identity_residuals, quarter_period
from .errors import DomainError, StepError

_SEED = 20240420


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: max residual {self.residual:.3e} (tolerance {self.tolerance:.0e})"


def _random_params(rng: np.random.Generator, n: int, k_max: float = 0.95) -> list[sd.SimParams]:
    out = []
    for _ in range(n):
        out.append(
            sd.SimParams.from_detuning(
                h_over_omega=float(rng.uniform(0.1, 1.0)),
                delta_over_omega=float(rng.uniform(-0.5, 0.5)),
                k=float(rng.uniform(0.05, k_max)),
            )
        )
    return out


def _heun_probability(tau: float, p: sd.SimParams, selection: str) -> float:
    """`flip_probability_heun`, or inf where its own guards reject the result.

    A loop composition the guards reject fails the check that asked for
    it; it is not a runtime failure of the suite.
    """
    try:
        return heun.flip_probability_heun(tau, p, selection)
    except StepError:
        return math.inf


def _trajectories(params_list, tau_max, n_samples, tol):
    taus = np.linspace(0.0, tau_max, n_samples)
    return [(p, sd.evolve(sd.SPIN_UP, p, taus, tol=tol)) for p in params_list]


def invariants_suite(tol: float = sd.DEFAULT_TOL) -> list[CheckResult]:
    rng = np.random.default_rng(_SEED)
    results = []

    # Jacobi identities on a grid of arguments and moduli.
    worst = 0.0
    for k in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99]:
        big_k = quarter_period(k) if k > 0.0 else 0.5 * math.pi
        for u in np.linspace(-4.0 * big_k, 4.0 * big_k, 101):
            worst = max(worst, *jacobi_identity_residuals(jacobi(float(u), k), k))
    results.append(CheckResult("elliptic_jacobi_identities", worst, 1e-12))

    # Norm conservation and the 4-vector relations on random trajectories.
    trajs = _trajectories(_random_params(rng, 10), 50.0, 201, tol)
    worst_norm = 0.0
    worst_inv = 0.0
    for p, traj in trajs:
        worst_norm = max(worst_norm, float(np.max(traj.norm_drift)))
        for i in range(len(traj)):
            tau = float(traj.taus[i])
            state = sd.SpinState(complex(traj.rot[i, 0]), complex(traj.rot[i, 1]))
            d1, d2 = sd.rotating_rhs(tau, p, state.psi1, state.psi2)
            res = observables.four_vector_residuals(tau, p, state, sd.SpinState(d1, d2))
            worst_inv = max(worst_inv, res.max())
    results.append(CheckResult("norm_conservation", worst_norm, 1e-8))
    results.append(CheckResult("four_vector_invariants", worst_inv, 1e-8))

    # Second-order flip-amplitude equation along random trajectories.
    worst = 0.0
    for p in _random_params(rng, 5):
        taus = np.sort(rng.uniform(0.0, 10.0, 50))
        taus = np.concatenate([[0.0], taus])
        traj = sd.evolve(sd.SPIN_UP, p, taus, tol=tol)
        for i in range(1, len(traj)):
            state = sd.SpinState(complex(traj.rot[i, 0]), complex(traj.rot[i, 1]))
            worst = max(
                worst,
                observables.lame_residual_from_state(p, float(traj.taus[i]), state),
            )
    results.append(CheckResult("flip_amplitude_equation", worst, 1e-8))

    # Resonance flip probability is modulus-independent.
    taus = np.linspace(0.0, 20.0, 401)
    expected = np.sin(0.25 * taus) ** 2
    worst = 0.0
    for k in [0.0, 0.3, 0.7, 0.99]:
        p = sd.SimParams.from_detuning(0.25, 0.0, k)
        traj = sd.evolve(sd.SPIN_UP, p, taus, tol=tol)
        worst = max(worst, float(np.max(np.abs(traj.p_flip - expected))))
    results.append(CheckResult("resonance_modulus_independence", worst, 1e-8))

    # Circular-drive closed form.
    p = sd.SimParams.from_detuning(0.3, 0.4, 0.0)
    traj = sd.evolve(sd.SPIN_UP, p, taus, tol=tol)
    closed = np.array([sd.rabi_probability(float(t), p) for t in taus])
    results.append(
        CheckResult("rabi_closed_form", float(np.max(np.abs(traj.p_flip - closed))), 1e-8)
    )

    # Lab-frame integration agrees with the gauge-mapped rotating one
    # (componentwise inside the first branch window of the gauge factor).
    p = _random_params(rng, 1)[0]
    window = 1.9 * quarter_period(p.k)
    taus_fc = np.linspace(0.0, window, 101)
    traj = sd.evolve(sd.SPIN_UP, p, taus_fc, tol=tol)
    lab_direct = sd.evolve_lab_frame(sd.SPIN_UP, p, taus_fc, tol=tol)
    results.append(
        CheckResult(
            "frame_consistency",
            float(np.max(np.abs(lab_direct - traj.lab))),
            1e-8,
        )
    )

    # `evolve` composes U(tau mod T) U(T)^n from one period T = 2K of the
    # generator; the lab system, integrated straight through and never
    # composed, must give the same |psi2|^2 across many periods.  The
    # coarse grid steps several periods between samples, so powers of
    # U(T) are squared there.  Own seed, so the draws of the other checks
    # stay as they were.
    rng_pc = np.random.default_rng(_SEED + 3)
    taus_pc = np.linspace(0.0, 50.0, 201)
    worst = 0.0
    for p in _random_params(rng_pc, 3):
        z = rng_pc.normal(size=4)
        z /= np.linalg.norm(z)
        state = sd.SpinState(complex(z[0], z[1]), complex(z[2], z[3]))
        p_direct = np.abs(sd.evolve_lab_frame(state, p, taus_pc, tol=tol)[:, 1]) ** 2
        for stride in (1, 40):
            traj = sd.evolve(state, p, taus_pc[::stride], tol=tol)
            worst = max(worst, float(np.max(np.abs(traj.p_flip - p_direct[::stride]))))
    results.append(CheckResult("period_composition", worst, 1e-8))

    # Wronskian of two independent flip amplitudes is constant, and the
    # fundamental-pair probability formula reproduces the Cauchy answer.
    p = _random_params(rng, 1)[0]
    taus_w = np.linspace(0.0, 15.0, 151)
    traj_a = sd.evolve(sd.SPIN_UP, p, taus_w, tol=tol)
    traj_b = sd.evolve(sd.SpinState(0.0j, 1.0 + 0j), p, taus_w, tol=tol)
    worst = 0.0
    w0 = None
    for i in range(len(taus_w)):
        tau = float(taus_w[i])
        fa = complex(traj_a.rot[i, 1])
        fb = complex(traj_b.rot[i, 1])
        da = sd.rotating_rhs(tau, p, complex(traj_a.rot[i, 0]), fa)[1]
        db = sd.rotating_rhs(tau, p, complex(traj_b.rot[i, 0]), fb)[1]
        w = fa * db - fb * da
        if w0 is None:
            w0 = w
        worst = max(worst, abs(w - w0))
    results.append(CheckResult("wronskian_constancy", worst, 1e-8))

    ic_a = sd.SpinState(math.sqrt(0.5) + 0j, math.sqrt(0.5) + 0j)
    ic_b = sd.SpinState(math.sqrt(0.5) + 0j, -math.sqrt(0.5) + 0j)
    worst = 0.0
    for tau in (1.0, 3.0, 7.0):
        direct = sd.evolve(sd.SPIN_UP, p, [0.0, tau], tol=tol).p_flip[-1]
        assembled = sd.probability_from_fundamental_pair(tau, p, ic_a, ic_b, tol=tol)
        worst = max(worst, abs(direct - assembled))
    results.append(CheckResult("fundamental_pair_probability", worst, 1e-8))

    # Polarization stays on the unit sphere.
    worst = 0.0
    for p, traj in trajs[:3]:
        norms = np.linalg.norm(traj.polarization, axis=1)
        worst = max(worst, float(np.max(np.abs(norms - 1.0))))
    results.append(CheckResult("polarization_norm", worst, 1e-8))

    # Bloch equation residual of the closed-form resonance polarization.
    p = sd.SimParams.from_detuning(0.25, 0.0, 0.5)
    taus_b = np.arange(0.0, 2.0 + 1e-12, 1e-3)
    pol = np.array(
        [observables.resonance_polarization(float(t), p).as_array() for t in taus_b]
    )
    results.append(
        CheckResult(
            "bloch_equation_residual",
            observables.bloch_residual_of_samples(taus_b, pol, p),
            1e-5,
        )
    )
    return results


def heun_suite(tol: float = sd.DEFAULT_TOL) -> list[CheckResult]:
    rng = np.random.default_rng(_SEED + 1)
    results = []
    params_list = _random_params(rng, 100, k_max=0.9)

    worst_sum = 0.0
    worst_fuchs = 0.0
    worst_indicial = 0.0
    for p in params_list:
        coeffs = heun.algebraic_coefficients(p)
        worst_sum = max(worst_sum, abs(coeffs.c1 + coeffs.c2 + coeffs.c3))
        exps = heun.indicial_exponents(p)
        for rho, b in (
            (exps.p_plus, coeffs.b1),
            (exps.p_minus, coeffs.b1),
            (exps.q_plus, coeffs.b2),
            (exps.q_minus, coeffs.b2),
            (exps.r_plus, coeffs.b3),
            (exps.r_minus, coeffs.b3),
        ):
            worst_indicial = max(worst_indicial, abs(rho * (rho - 1.0) + 0.5 * rho + b))
        # The point-at-infinity indicial equation with the full coefficient
        # sum reduces to the same quadratic as the third finite point.
        inf_b = (
            coeffs.b1
            + coeffs.b2
            + coeffs.b3
            + coeffs.c2
            + coeffs.c3 / (p.k * p.k)
        )
        for rho in (exps.rho_inf_plus, exps.rho_inf_minus):
            worst_indicial = max(worst_indicial, abs(rho * (rho - 1.0) + 0.5 * rho + inf_b))
        for sel in heun.SELECTIONS:
            data = heun.heun_parameters(p, sel)
            worst_fuchs = max(
                worst_fuchs,
                abs(data.gamma + data.delta + data.epsilon - data.alpha - data.beta - 1.0),
            )
    results.append(CheckResult("simple_pole_residue_sum", worst_sum, 1e-12))
    results.append(CheckResult("exponent_sum_relation", worst_fuchs, 1e-12))
    results.append(CheckResult("indicial_roots", worst_indicial, 1e-12))

    # Local series plugged back into the equation.
    p = sd.SimParams.from_detuning(0.4, 0.12, 0.6)
    data = heun.heun_parameters(p, "---")
    worst = 0.0
    centers = [0.0 + 0j, 1.0 + 0j, complex(data.singular_a), -0.7 - 0.9j]
    for center in centers:
        for choice in (0, 1):
            series = heun.local_series(data, center, exponent_choice=choice, n_terms=40)
            for ang in np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False):
                zt = series.center + 0.25 * series.radius * complex(
                    math.cos(ang), math.sin(ang)
                )
                worst = max(worst, heun.equation_residual(data, series, zt))
    results.append(CheckResult("local_series_residual", worst, 1e-10))

    # End-to-end flip probability against the ODE integrator.  The long
    # fast-parameter point makes the check sensitive to a degraded
    # integration tolerance, not just to gross errors.
    comparison_points = [
        (0.2, delta, k, tau)
        for k in (0.3, 0.5, 0.7)
        for delta in (0.0, 0.05, 0.1)
        for tau in (0.5, 1.0, 2.0)
    ]
    comparison_points.append((0.5, 0.3, 0.7, 40.0))
    worst = 0.0
    for h, delta, k, tau in comparison_points:
        p = sd.SimParams.from_detuning(h, delta, k)
        p_ode = float(sd.evolve(sd.SPIN_UP, p, [0.0, tau], tol=tol).p_flip[-1])
        p_series = _heun_probability(tau, p, heun.DEFAULT_SELECTION)
        worst = max(worst, abs(p_ode - p_series))
    results.append(CheckResult("flip_probability_reduction_vs_ode", worst, 1e-6))

    # The assembled probability cannot depend on the exponent selection.
    p = sd.SimParams.from_detuning(0.2, 0.08, 0.5)
    values = [heun.flip_probability_heun(1.5, p, selection=s) for s in heun.SELECTIONS]
    results.append(
        CheckResult("selection_independence", max(values) - min(values), 1e-8)
    )

    # `flip_probability_heun` continues the system once round the loop
    # T = 4K of the coordinate and composes powers of it; the whole path,
    # continued directly and never composed, must give the same
    # probability on both sides of a loop boundary and several loops on.
    # Own seed, so the draws of the other checks stay as they were.
    rng_lc = np.random.default_rng(_SEED + 4)
    worst = 0.0
    for p in _random_params(rng_lc, 3, k_max=0.9):
        sel = heun.SELECTIONS[int(rng_lc.integers(len(heun.SELECTIONS)))]
        data = heun.heun_parameters(p, sel)
        start_scale = abs(heun.w_factor(heun.heun_coordinate(0.0, p.k), data)) * abs(
            heun.heun_coordinate_derivative(0.0, p.k)
        )
        loop_time = 4.0 * quarter_period(p.k)
        for factor in (0.999, 1.0, 1.001, 3.5):
            tau = factor * loop_time
            path = heun.coordinate_path(tau, p.k)
            v2 = heun.continue_along_path(data, path).v2
            end_scale = abs(heun.w_factor(path[-1], data)) * abs(v2)
            direct = (p.h_over_omega * end_scale / start_scale) ** 2
            worst = max(worst, abs(_heun_probability(tau, p, sel) - direct))
    results.append(CheckResult("loop_composition", worst, 1e-10))
    return results


def wigner_suite(tol: float = sd.DEFAULT_TOL) -> list[CheckResult]:
    rng = np.random.default_rng(_SEED + 2)
    results = []

    params_list = _random_params(rng, 20)
    worst_unitary = 0.0
    worst_flip = 0.0
    worst_recon = 0.0
    for p in params_list:
        tau = float(rng.uniform(0.1, 15.0))
        u = sd.propagator(tau, p, tol=tol)
        worst_unitary = max(worst_unitary, u.unitarity_defect())
        try:
            angles = wigner.euler_angles(u)
        except DomainError:
            # A matrix that is not unitary has no Euler angles: the checks
            # built on them fail here, and propagator_unitarity says why.
            worst_flip = worst_recon = math.inf
            continue
        p_flip = float(sd.evolve(sd.SPIN_UP, p, [0.0, tau], tol=tol).p_flip[-1])
        worst_flip = max(worst_flip, abs(math.sin(0.5 * angles.theta) ** 2 - p_flip))
        d_half = wigner.wigner_d(0.5, angles).entries
        u_mat = u.as_matrix()
        # Compare up to a global phase.
        idx = np.unravel_index(np.argmax(np.abs(u_mat)), u_mat.shape)
        phase = u_mat[idx] / d_half[idx]
        worst_recon = max(worst_recon, float(np.max(np.abs(d_half * phase - u_mat))))
    results.append(CheckResult("propagator_unitarity", worst_unitary, 1e-9))
    results.append(CheckResult("flip_probability_vs_theta", worst_flip, 1e-8))
    results.append(CheckResult("two_level_reconstruction", worst_recon, 1e-8))

    worst_rows = 0.0
    worst_match = 0.0
    worst_sym = 0.0
    for j in (0.5, 1.0, 1.5, 2.0, 5.0):
        angles = wigner.EulerAngles(
            phi=float(rng.uniform(-math.pi, math.pi)),
            theta=float(rng.uniform(0.0, math.pi)),
            psi=float(rng.uniform(-math.pi, math.pi)),
        )
        mat = wigner.wigner_d(j, angles)
        probs = np.abs(mat.entries) ** 2
        worst_rows = max(worst_rows, float(np.max(np.abs(probs.sum(axis=1) - 1.0))))
        dim = round(2 * j) + 1
        for ia in range(dim):
            for ib in range(dim):
                m = j - ia
                mp = j - ib
                direct = wigner.transition_probability_j(j, m, mp, angles.theta)
                worst_match = max(worst_match, abs(direct - probs[ia, ib]))
                mirrored = wigner.transition_probability_j(j, -m, -mp, angles.theta)
                worst_sym = max(worst_sym, abs(direct - mirrored))
    # Fixed high-J case after the seeded draws: cancellation-prone sums for
    # d^J lose the row sums first at the top spin near a quarter turn.
    top = wigner.wigner_d(wigner.MAX_J, wigner.EulerAngles(0.0, 0.5 * math.pi, 0.0))
    probs = np.abs(top.entries) ** 2
    worst_rows = max(worst_rows, float(np.max(np.abs(probs.sum(axis=1) - 1.0))))
    results.append(CheckResult("spin_j_row_sums", worst_rows, 1e-10))
    results.append(CheckResult("probability_formula_vs_matrix", worst_match, 1e-10))
    results.append(CheckResult("projection_reflection_symmetry", worst_sym, 1e-10))
    return results


SUITES = {
    "invariants": invariants_suite,
    "heun": heun_suite,
    "wigner": wigner_suite,
}


def run_suite(name: str, tol: float = sd.DEFAULT_TOL) -> list[CheckResult]:
    if name == "all":
        out = []
        for fn in SUITES.values():
            out.extend(fn(tol))
        return out
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](tol)
