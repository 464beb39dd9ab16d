"""Tests for the Fuchsian reduction: coordinates, exponents, series, continuation.

The ground truth for the end-to-end probability is the ODE integrator;
the coordinate change is checked against mpmath's complex elliptic
functions, and every series is accepted only through the residual of the
equation it claims to solve.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ellipspin.heun as heun
from ellipspin import (
    DomainError,
    LogarithmicCaseError,
    PathError,
    SimParams,
    SpinState,
    evolve,
)

params_strategy = st.builds(
    SimParams.from_detuning,
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=-0.5, max_value=0.5),
    st.floats(min_value=0.02, max_value=0.95),
)


def spin_up() -> SpinState:
    return SpinState(1.0 + 0j, 0.0j)


class TestCoordinate:
    def test_value_at_origin(self):
        for k in (0.2, 0.5, 0.8):
            z = heun.z_of_tau(0.0, k)
            assert z == pytest.approx(-1j / math.sqrt(k), abs=1e-14)

    @pytest.mark.parametrize("k", [0.0, 1.0, -0.3, 1.4])
    def test_modulus_domain(self, k):
        with pytest.raises(DomainError):
            heun.z_of_tau(0.5, k)

    @given(
        tau=st.floats(min_value=-20.0, max_value=20.0),
        k=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=200, deadline=None)
    def test_lies_on_circle(self, tau, k):
        assert abs(abs(heun.z_of_tau(tau, k)) - 1.0 / math.sqrt(k)) < 1e-10

    def test_path_avoids_singular_points(self):
        k = 0.5
        sing = (0.0, 1.0, 1.0 / k ** 2)
        min_raw = math.inf
        min_sq = math.inf
        for tau in np.linspace(0.0, 4.0, 400):
            z = heun.z_of_tau(float(tau), k)
            zz = heun.heun_coordinate(float(tau), k)
            min_raw = min(min_raw, min(abs(z - s) for s in sing))
            min_sq = min(min_sq, min(abs(zz - s) for s in sing))
        assert min_raw > 0.05
        assert min_sq > 0.05

    def test_matches_shifted_elliptic_argument(self):
        # The explicit expression equals sn evaluated half-way down the
        # imaginary quarter period; the algebraic equation lives in its
        # square.  Recorded against mpmath's complex elliptic functions.
        mp.mp.dps = 30
        for k in (0.3, 0.5, 0.8):
            kp2 = 1.0 - k * k
            kprime_period = mp.ellipk(kp2)
            for tau in (0.0, 0.7, 1.9, 3.3):
                shifted = (tau - 1j * kprime_period) / 2
                sn_half = complex(mp.ellipfun("sn", shifted, k=k))
                z = heun.z_of_tau(tau, k)
                assert abs(z - sn_half) < 1e-12
                assert abs(heun.heun_coordinate(tau, k) - sn_half ** 2) < 1e-12

    def test_derivative_against_finite_differences(self):
        k = 0.6
        eps = 1e-6
        for tau in (0.3, 1.2, 2.9):
            fd = (heun.z_of_tau(tau + eps, k) - heun.z_of_tau(tau - eps, k)) / (2 * eps)
            assert abs(heun.dz_dtau(tau, k) - fd) < 1e-8

    @given(
        tau=st.floats(min_value=-10.0, max_value=10.0),
        k=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=150, deadline=None)
    def test_coordinate_velocity_identity(self, tau, k):
        # (dZ/dtau)^2 = Z (1 - Z) (1 - k^2 Z) pins the velocity used in
        # the probability assembly to the coordinate itself.
        z = heun.heun_coordinate(tau, k)
        dz = heun.heun_coordinate_derivative(tau, k)
        assert abs(dz * dz - z * (1.0 - z) * (1.0 - k * k * z)) < 1e-10


def _reference_path(tau, k, step_fraction=heun.DEFAULT_STEP_FRACTION):
    """`coordinate_path` through the public coordinate functions, call by call."""
    points = (0.0, 1.0, 1.0 / (k * k))
    t = 0.0
    out = [heun.heun_coordinate(0.0, k)]
    while t < tau:
        zc = out[-1]
        dist = min(abs(zc - s) for s in points)
        speed = abs(heun.heun_coordinate_derivative(t, k))
        dt = 0.4 * step_fraction * dist / max(speed, 1e-9)
        dt = min(max(dt, 1e-4), 0.2, tau - t)
        t += dt
        out.append(heun.heun_coordinate(t, k))
    return out


class TestCoordinatePath:
    @pytest.mark.parametrize("tau", [0.0, 0.3, 30.0])
    @pytest.mark.parametrize("k", [0.05, 0.5, 0.95])
    def test_bit_identical_to_reference_loop(self, k, tau):
        assert heun.coordinate_path(tau, k) == _reference_path(tau, k)

    def test_one_jacobi_call_per_waypoint(self, monkeypatch):
        calls = []
        real = heun.jacobi

        def counting(u, k):
            calls.append(u)
            return real(u, k)

        monkeypatch.setattr(heun, "jacobi", counting)
        path = heun.coordinate_path(30.0, 0.7)
        assert len(calls) == len(path)


class TestAlgebraicCoefficients:
    def test_first_derivative_coefficients(self):
        p = SimParams.from_detuning(0.3, 0.17, 0.6)
        c = heun.algebraic_coefficients(p)
        assert (c.a1, c.a2, c.a3) == (0.5, 0.5, 0.5)

    def test_resonance_values(self):
        p = SimParams.from_detuning(0.3, 0.0, 0.5)
        c = heun.algebraic_coefficients(p)
        assert c.small_a == 0.0 and c.small_b == 0.0
        assert c.b1 == c.b2 == c.b3 == 0.0
        assert c.c1 == pytest.approx(0.09, abs=1e-15)

    @given(params=params_strategy)
    @settings(max_examples=200, deadline=None)
    def test_residue_sum_vanishes(self, params):
        c = heun.algebraic_coefficients(params)
        assert abs(c.c1 + c.c2 + c.c3) < 1e-12

    def test_requires_open_modulus(self):
        with pytest.raises(DomainError):
            heun.algebraic_coefficients(SimParams.from_detuning(0.3, 0.1, 0.0))


class TestIndicialExponents:
    def test_resonance_pairs(self):
        exps = heun.indicial_exponents(SimParams.from_detuning(0.3, 0.0, 0.5))
        assert (exps.p_plus, exps.p_minus) == (0.5, 0.0)
        assert (exps.q_plus, exps.q_minus) == (0.5, 0.0)
        assert (exps.r_plus, exps.r_minus) == (0.5, 0.0)
        assert (exps.rho_inf_plus, exps.rho_inf_minus) == (0.5, 0.0)

    def test_degenerate_pair_flagged(self):
        exps = heun.indicial_exponents(SimParams.from_detuning(0.3, 0.5, 0.5))
        assert exps.p_plus == exps.p_minus == 0.25
        assert exps.has_degenerate_pair

    def test_pair_sums(self):
        exps = heun.indicial_exponents(SimParams.from_detuning(0.3, -0.37, 0.5))
        assert exps.p_plus + exps.p_minus == pytest.approx(0.5, abs=1e-15)
        assert exps.r_plus + exps.r_minus == pytest.approx(0.5, abs=1e-15)

    @given(params=params_strategy)
    @settings(max_examples=200, deadline=None)
    def test_roots_solve_their_quadratics(self, params):
        exps = heun.indicial_exponents(params)
        c = heun.algebraic_coefficients(params)
        for rho, b in (
            (exps.p_plus, c.b1),
            (exps.p_minus, c.b1),
            (exps.q_plus, c.b2),
            (exps.q_minus, c.b2),
            (exps.r_plus, c.b3),
            (exps.r_minus, c.b3),
        ):
            assert abs(rho * (rho - 1.0) + 0.5 * rho + b) < 1e-12
        # Exponents at infinity solve the indicial equation built from the
        # full coefficient sums over the finite singular points.
        k2 = params.k ** 2
        inf_b = c.b1 + c.b2 + c.b3 + 0.0 * c.c1 + 1.0 * c.c2 + c.c3 / k2
        for rho in (exps.rho_inf_plus, exps.rho_inf_minus):
            assert abs(rho * (rho - 1.0) + 0.5 * rho + inf_b) < 1e-12


class TestHeunParameters:
    def test_resonance_all_minus(self):
        p = SimParams.from_detuning(0.3, 0.0, 0.5)
        data = heun.heun_parameters(p, "---")
        assert (data.gamma, data.delta, data.epsilon) == (0.5, 0.5, 0.5)
        assert (data.alpha, data.beta) == (0.5, 0.0)
        assert data.gamma + data.delta + data.epsilon == pytest.approx(
            data.alpha + data.beta + 1.0, abs=1e-15
        )
        assert data.q_a == pytest.approx(-0.09 / 0.25, abs=1e-13)
        assert data.singular_a == pytest.approx(4.0, abs=1e-13)

    @given(params=params_strategy)
    @settings(max_examples=50, deadline=None)
    def test_exponent_sum_all_selections(self, params):
        for sel in heun.SELECTIONS:
            data = heun.heun_parameters(params, sel)
            lhs = data.gamma + data.delta + data.epsilon
            assert abs(lhs - (data.alpha + data.beta + 1.0)) < 1e-12

    def test_rejects_unknown_selection(self):
        p = SimParams.from_detuning(0.3, 0.1, 0.5)
        with pytest.raises(DomainError):
            heun.heun_parameters(p, "+-")


class TestPrefactor:
    def test_trivial_exponents(self):
        p = SimParams.from_detuning(0.3, 0.0, 0.5)
        data = heun.heun_parameters(p, "---")  # exponents all zero here
        for z in (0.3 + 0.4j, -2.0 + 0.1j, 5.0 + 0j):
            assert heun.w_factor(z, data) == 1.0

    def test_square_root_exponent(self):
        p = SimParams.from_detuning(0.3, 0.0, 0.6)
        data = heun.heun_parameters(p, "+--")  # p = 1/2, q = r = 0
        assert heun.w_factor(4.0, data) == pytest.approx(2.0, abs=1e-14)

    def test_pole_detected(self):
        p = SimParams.from_detuning(0.3, -0.4, 0.6)
        data = heun.heun_parameters(p, "---")
        assert data.p < 0.0
        with pytest.raises(DomainError):
            heun.w_factor(0.0, data)


class TestLocalSeries:
    @pytest.fixture()
    def data(self):
        return heun.heun_parameters(SimParams.from_detuning(0.4, 0.12, 0.6), "---")

    def test_residual_at_quarter_radius(self, data):
        centers = [0.0, 1.0, data.singular_a, -0.7 - 0.9j]
        worst = 0.0
        for center in centers:
            for choice in (0, 1):
                series = heun.local_series(data, center, choice, n_terms=40)
                for ang in np.linspace(0.0, 2 * math.pi, 5, endpoint=False):
                    z = series.center + 0.25 * series.radius * cmath.exp(1j * ang)
                    worst = max(worst, heun.equation_residual(data, series, z))
        assert worst < 1e-10

    def test_truncation_convergence(self, data):
        for center in (0.0, 1.0 + 0j, -0.7 - 0.9j):
            short = heun.local_series(data, center, 0, n_terms=24)
            long = heun.local_series(data, center, 0, n_terms=48)
            for ang in (0.0, 2.0, 4.0):
                z = short.center + 0.25 * short.radius * cmath.exp(1j * ang)
                assert abs(short.value(z) - long.value(z)) < 1e-12

    def test_radius_is_distance_to_nearest_other_singularity(self, data):
        s = heun.local_series(data, 0.0, 0, n_terms=12)
        assert s.radius == pytest.approx(1.0)
        s = heun.local_series(data, data.singular_a, 0, n_terms=12)
        assert s.radius == pytest.approx(data.singular_a - 1.0)
        s = heun.local_series(data, 0.5 + 0.5j, 0, n_terms=12)
        assert s.radius == pytest.approx(abs(0.5 + 0.5j))

    def test_center_with_exponent_zero(self, data):
        # Only the constant, linear and quadratic terms survive at the center.
        for center in (0.0, 1.0, data.singular_a, -0.7 - 0.9j):
            series = heun.local_series(data, center, 0, n_terms=16)
            c = series.coefficients
            assert series.exponent == 0.0
            assert series.value(series.center) == c[0]
            assert series.derivative(series.center) == c[1]
            assert series.second_derivative(series.center) == 2.0 * c[2]

    def test_rejects_too_few_terms(self, data):
        with pytest.raises(DomainError):
            heun.local_series(data, 0.0, 0, n_terms=4)

    def test_logarithmic_case_flagged(self):
        # Detuning -1/2 makes the exponents at z = 0 differ by 1 for the
        # plus selection; the smaller exponent needs a log term.
        p = SimParams.from_detuning(0.3, -0.5, 0.5)
        data = heun.heun_parameters(p, "+++")
        assert data.gamma == pytest.approx(2.0)
        with pytest.raises(LogarithmicCaseError):
            heun.local_series(data, 0.0, exponent_choice=1, n_terms=16)


class TestContinuation:
    @pytest.fixture()
    def data(self):
        return heun.heun_parameters(SimParams.from_detuning(0.2, 0.1, 0.5), "---")

    def test_zero_length_path(self, data):
        z0 = heun.heun_coordinate(0.0, 0.5)
        cont = heun.continue_along_path(data, [z0])
        assert (cont.v1, cont.dv1, cont.v2, cont.dv2) == (1.0, 0.0, 0.0, 1.0)

    def test_reversibility(self, data):
        path = heun.coordinate_path(1.5, 0.5)
        loop = path + path[-2::-1]
        cont = heun.continue_along_path(data, loop)
        assert abs(cont.v1 - 1.0) < 1e-9
        assert abs(cont.dv1) < 1e-9
        assert abs(cont.v2) < 1e-9
        assert abs(cont.dv2 - 1.0) < 1e-9

    def test_step_fraction_convergence(self, data):
        path = heun.coordinate_path(2.0, 0.5)
        coarse = heun.continue_along_path(data, path, step_fraction=0.5)
        fine = heun.continue_along_path(data, path, step_fraction=0.25)
        assert abs(coarse.v1 - fine.v1) < 1e-9
        assert abs(coarse.v2 - fine.v2) < 1e-9

    def test_wronskian_tracked(self, data):
        path = heun.coordinate_path(2.0, 0.5)
        cont = heun.continue_along_path(data, path)
        assert cont.wronskian_drift < 1e-10

    def test_path_through_singularity_rejected(self, data):
        with pytest.raises(PathError):
            heun.continue_along_path(data, [2.0 + 1j, 1.0 + 0j])


class TestFlipProbability:
    def test_resonance_value(self):
        p = SimParams.from_detuning(0.2, 0.0, 0.5)
        got = heun.flip_probability_heun(1.0, p)
        assert got == pytest.approx(math.sin(0.2) ** 2, abs=1e-6)

    def test_at_origin(self):
        p = SimParams.from_detuning(0.2, 0.1, 0.5)
        assert heun.flip_probability_heun(0.0, p) == 0.0

    def test_matches_ode(self):
        p = SimParams.from_detuning(0.2, 0.1, 0.5)
        for tau in (0.5, 1.0, 2.0):
            direct = float(evolve(spin_up(), p, [0.0, tau]).p_flip[-1])
            assert abs(heun.flip_probability_heun(tau, p) - direct) < 1e-6

    def test_selection_independent(self):
        p = SimParams.from_detuning(0.2, 0.08, 0.5)
        values = [heun.flip_probability_heun(1.5, p, selection=s) for s in heun.SELECTIONS]
        assert max(values) - min(values) < 1e-8

    def test_requires_open_modulus(self):
        with pytest.raises(DomainError):
            heun.flip_probability_heun(1.0, SimParams.from_detuning(0.2, 0.1, 0.0))

    # Long paths wind the coordinate round the singular points many times,
    # so the principal logs of Z - s cross their cuts again and again; the
    # prefactor enters only by its modulus, which no cut changes.
    @pytest.mark.parametrize("tau", [30.0, 60.0])
    @pytest.mark.parametrize("k", [0.2, 0.7, 0.85])
    def test_resonance_at_long_horizon(self, k, tau):
        p = SimParams.from_detuning(0.2, 0.0, k)
        for sel in ("+++", "-+-", "---"):
            got = heun.flip_probability_heun(tau, p, selection=sel)
            assert abs(got - math.sin(0.2 * tau) ** 2) < 1e-12

    @pytest.mark.parametrize("k", [0.3, 0.85])
    def test_detuned_at_long_horizon(self, k):
        p = SimParams.from_detuning(0.2, 0.1, k)
        direct = float(evolve(spin_up(), p, [0.0, 40.0]).p_flip[-1])
        for sel in ("+++", "+-+", "---"):
            assert abs(heun.flip_probability_heun(40.0, p, selection=sel) - direct) < 1e-6
