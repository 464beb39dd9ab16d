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
import ellipspin.spin_dynamics as sd
from ellipspin import (
    DomainError,
    LogarithmicCaseError,
    PathError,
    SimParams,
    SpinState,
    StepError,
    evolve,
)
from ellipspin.elliptic import quarter_period

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
            assert heun.heun_coordinate(0.0, k) == pytest.approx(-1.0 / k, abs=1e-14)

    @pytest.mark.parametrize("k", [0.0, 1.0, -0.3, 1.4])
    def test_modulus_domain(self, k):
        with pytest.raises(DomainError):
            heun.heun_coordinate(0.5, k)
        with pytest.raises(DomainError):
            heun.heun_coordinate_derivative(0.5, k)

    @given(
        tau=st.floats(min_value=-20.0, max_value=20.0),
        k=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=200, deadline=None)
    def test_lies_on_circle(self, tau, k):
        assert abs(abs(heun.heun_coordinate(tau, k)) - 1.0 / k) < 1e-10

    def test_path_avoids_singular_points(self):
        k = 0.5
        sing = (0.0, 1.0, 1.0 / k ** 2)
        min_sq = math.inf
        for tau in np.linspace(0.0, 4.0, 400):
            zz = heun.heun_coordinate(float(tau), k)
            min_sq = min(min_sq, min(abs(zz - s) for s in sing))
        assert min_sq > 0.05

    def test_matches_shifted_elliptic_argument(self):
        # The coordinate is the square of sn evaluated half-way down the
        # imaginary quarter period.  Recorded against mpmath's complex
        # elliptic functions.
        mp.mp.dps = 30
        for k in (0.3, 0.5, 0.8):
            kp2 = 1.0 - k * k
            kprime_period = mp.ellipk(kp2)
            for tau in (0.0, 0.7, 1.9, 3.3):
                shifted = (tau - 1j * kprime_period) / 2
                sn_half = complex(mp.ellipfun("sn", shifted, k=k))
                assert abs(heun.heun_coordinate(tau, k) - sn_half ** 2) < 1e-12

    def test_derivative_against_finite_differences(self):
        k = 0.6
        eps = 1e-6
        for tau in (0.3, 1.2, 2.9):
            fd = (heun.heun_coordinate(tau + eps, k) - heun.heun_coordinate(tau - eps, k)) / (2 * eps)
            assert abs(heun.heun_coordinate_derivative(tau, k) - fd) < 1e-8

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


def _reference_path(tau, k, step_fraction=heun.DEFAULT_STEP_FRACTION, start=0.0):
    """`coordinate_path` through the public coordinate functions, call by call."""
    points = (0.0, 1.0, 1.0 / (k * k))
    t = start
    out = [heun.heun_coordinate(start, k)]
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
        start = 0.4 * tau
        assert heun.coordinate_path(tau, k, start=start) == _reference_path(tau, k, start=start)

    @pytest.mark.parametrize("start", [math.nan, math.inf, -0.5, 2.5])
    def test_start_outside_zero_to_tau_rejected(self, start):
        with pytest.raises(DomainError):
            heun.coordinate_path(2.0, 0.5, start=start)

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

    @pytest.mark.parametrize("selection", ["+++", "---"])
    def test_singular_center_with_negative_power(self, selection):
        # (z - center)^(exponent - order) is infinite at the center when
        # exponent - order < 0: every order for "+++" here, orders 1 and 2
        # for "---".  Before, 15 of these 18 calls raised ZeroDivisionError.
        data = heun.heun_parameters(SimParams.from_detuning(0.4, 0.12, 0.6), selection)
        for center in data.singular_points:
            series = heun.local_series(data, center, 1, n_terms=16)
            assert series.exponent != 0.0
            for order, fn in enumerate(
                (series.value, series.derivative, series.second_derivative)
            ):
                if series.exponent < order:
                    with pytest.raises(DomainError):
                        fn(series.center)
                else:
                    assert fn(series.center) == 0.0

    def test_equation_residual_rejects_singular_points(self, data):
        for center in data.singular_points:
            series = heun.local_series(data, center, 0, n_terms=16)
            with pytest.raises(DomainError):
                heun.equation_residual(data, series, center)

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


def _reference_taylor(data, center, a0, a1, n_terms):
    """One solution's Taylor coefficients, by the single-seed recurrence.

    The kernel `continue_along_path` called once per member of the
    fundamental system before the recurrence was shared, kept as the
    reference.
    """
    p3, p2, p1 = heun._local_polynomials(data, center)
    a = [complex(a0), complex(a1)] + [0.0j] * (n_terms - 2)
    for m in range(2, n_terms):
        acc = 0.0j
        i = m - 1
        acc += a[i] * (i * (i - 1.0) * p3[1] + i * p2[0])
        i = m - 2
        acc += a[i] * (i * (i - 1.0) * p3[2] + i * p2[1] + p1[0])
        if m >= 3:
            i = m - 3
            acc += a[i] * (i * (i - 1.0) * p3[3] + i * p2[2] + p1[1])
        a[m] = -acc / (m * (m - 1.0) * p3[0])
    return a


def _reference_horner(c, zeta):
    """(value, derivative) of one series at zeta, as the old closure took them."""
    val = 0.0j
    der = 0.0j
    for n in range(len(c) - 1, 0, -1):
        val = val * zeta + c[n]
        der = der * zeta + n * c[n]
    val = val * zeta + c[0]
    return val, der


def _reference_continuation(data, path, n_terms=heun.DEFAULT_N_TERMS, step_fraction=0.5):
    """(v1, v1', v2, v2', steps) by the step rule of `continue_along_path`.

    Each member of the fundamental system is re-expanded on its own and
    every step sums all ``n_terms`` terms; the guards are left out, so
    this only says what the values should be.
    """
    points = data.singular_points
    zc = complex(path[0])
    v1, dv1, v2, dv2 = 1.0 + 0j, 0.0j, 0.0j, 1.0 + 0j
    steps = 0
    for leg_end in path[1:]:
        target = complex(leg_end)
        while zc != target:
            max_step = step_fraction * min(abs(zc - s) for s in points)
            span = target - zc
            znext = target if abs(span) <= max_step else zc + span / abs(span) * max_step
            zeta = znext - zc
            v1, dv1 = _reference_horner(_reference_taylor(data, zc, v1, dv1, n_terms), zeta)
            v2, dv2 = _reference_horner(_reference_taylor(data, zc, v2, dv2, n_terms), zeta)
            zc = znext
            steps += 1
    return v1, dv1, v2, dv2, steps


class TestTaylorKernel:
    """Both members of the fundamental system from one recurrence."""

    @pytest.mark.parametrize("n_terms", [8, 24, 48])
    def test_bit_identical_to_single_seed_recurrence(self, n_terms):
        rng = np.random.default_rng(12)
        for selection in ("+++", "-+-", "---"):
            data = heun.heun_parameters(SimParams.from_detuning(0.35, 0.14, 0.6), selection)
            for _ in range(20):
                center = complex(*rng.uniform(-3.0, 3.0, 2))
                a0, a1, b0, b1 = (complex(*rng.normal(size=2)) for _ in range(4))
                a, b = heun._taylor_coefficients(data, center, a0, a1, b0, b1, n_terms)
                assert a == _reference_taylor(data, center, a0, a1, n_terms)
                assert b == _reference_taylor(data, center, b0, b1, n_terms)

    def test_singular_center_rejected(self):
        data = heun.heun_parameters(SimParams.from_detuning(0.35, 0.14, 0.6), "---")
        for center in data.singular_points:
            with pytest.raises(DomainError):
                heun._taylor_coefficients(data, center, 1.0, 0.0, 0.0, 1.0, 16)

    @pytest.mark.parametrize("n_terms", [8, 24, 48])
    def test_local_series_at_ordinary_centers(self, n_terms):
        data = heun.heun_parameters(SimParams.from_detuning(0.4, 0.12, 0.6), "---")
        for center in (-0.7 - 0.9j, 0.5 + 0.5j, 2.0 - 0.3j):
            for choice, seed in ((0, (1.0, 0.0)), (1, (0.0, 1.0))):
                series = heun.local_series(data, center, choice, n_terms=n_terms)
                assert series.coefficients == tuple(_reference_taylor(data, center, *seed, n_terms))

    # Tiny k takes long steps; at step_fraction 0.01 the steps are so
    # short that each derivative term m c_m r^(m-1) outweighs its value
    # term c_m r^m, which alone decides where a step stops.
    @pytest.mark.parametrize(
        "k, step_fraction",
        [(0.05, 0.5), (0.5, 0.5), (0.95, 0.5), (1e-8, 0.5), (1e-20, 0.5), (0.7, 0.01)],
    )
    def test_continuation_matches_full_length_sum(self, k, step_fraction):
        for h, delta, selection in ((0.3, 0.12, "---"), (0.2, -0.3, "+-+")):
            data = heun.heun_parameters(SimParams.from_detuning(h, delta, k), selection)
            # 24 terms do not converge on the long steps of tiny k.
            for tau, n_terms in ((0.7, 24 if k > 1e-3 else 48), (6.0, 48)):
                path = heun.coordinate_path(tau, k)
                cont = heun.continue_along_path(data, path, n_terms, step_fraction)
                want = _reference_continuation(data, path, n_terms, step_fraction)[:4]
                got = (cont.v1, cont.dv1, cont.v2, cont.dv2)
                gap = max(abs(g - w) for g, w in zip(got, want))
                assert gap <= 1e-14 * max(abs(w) for w in want)

    @pytest.mark.parametrize(
        "k, step_fraction", [(0.05, 0.5), (0.7, 0.5), (0.95, 0.5), (1e-20, 0.5), (0.7, 0.01)]
    )
    def test_counts_steps_and_terms(self, monkeypatch, k, step_fraction):
        lengths = []
        real = heun._taylor_coefficients

        def recording(*args):
            result = real(*args)
            lengths.append(len(result[0]))
            return result

        data = heun.heun_parameters(SimParams.from_detuning(0.25, 0.1, k), "---")
        path = heun.coordinate_path(9.0, k)
        steps = _reference_continuation(data, path, step_fraction=step_fraction)[4]
        monkeypatch.setattr(heun, "_taylor_coefficients", recording)
        cont = heun.continue_along_path(data, path, step_fraction=step_fraction)
        assert cont.steps == steps == len(lengths)
        assert cont.terms == sum(lengths) <= heun.DEFAULT_N_TERMS * cont.steps

    def test_steps_sum_about_half_the_cap(self):
        data = heun.heun_parameters(SimParams.from_detuning(0.25, 0.1, 0.7), "---")
        cont = heun.continue_along_path(data, heun.coordinate_path(9.0, 0.7))
        assert cont.steps > 10
        assert cont.terms / cont.steps <= 30

    def test_early_stop_needs_finite_terms(self):
        # A step length whose powers overflow, or a nan seed, never counts
        # as negligible: the recurrence runs to the cap.
        data = heun.heun_parameters(SimParams.from_detuning(0.3, 0.15, 0.5), "---")
        center = -0.7 - 0.9j
        full = heun._taylor_coefficients(data, center, 1.0, 0.0, 0.0, 1.0, 48)
        assert len(heun._taylor_coefficients(data, center, 1.0, 0.0, 0.0, 1.0, 48, 0.1)[0]) < 48
        assert heun._taylor_coefficients(data, center, 1.0, 0.0, 0.0, 1.0, 48, 1e300) == full
        nan_seed = heun._taylor_coefficients(data, center, math.nan, 0.0, 0.0, 1.0, 48, 0.1)
        assert len(nan_seed[0]) == 48

    def test_one_recurrence_per_step(self, monkeypatch):
        calls = []
        real = heun._taylor_coefficients

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        data = heun.heun_parameters(SimParams.from_detuning(0.25, 0.1, 0.7), "---")
        path = heun.coordinate_path(9.0, 0.7)
        steps = _reference_continuation(data, path)[4]
        monkeypatch.setattr(heun, "_taylor_coefficients", counting)
        heun.continue_along_path(data, path)
        assert steps > 10
        assert len(calls) == steps
        assert len(set(calls)) == steps


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

    @pytest.mark.parametrize("k", [1.4e-154, 1e-300, 5e-324])
    def test_rejects_modulus_whose_square_underflows(self, k):
        # k * k underflowed, and the accessory parameter divided by zero.
        with pytest.raises(DomainError):
            heun.flip_probability_heun(2.0, SimParams.from_detuning(0.3, 0.15, k))

    @pytest.mark.parametrize("k", [1e-8, 1e-20])
    def test_tiny_modulus_matches_ode(self, k):
        # The steps are so long here that |zeta|^n overflowed in the
        # series convergence guard; k = 1e-7 already agreed to 1e-10.
        # tau 14 composes two loops.
        p = SimParams.from_detuning(0.3, 0.15, k)
        for tau in (2.0, 14.0):
            direct = float(evolve(spin_up(), p, [0.0, tau]).p_flip[-1])
            assert abs(heun.flip_probability_heun(tau, p) - direct) < 1e-9

    def test_modulus_too_small_for_the_series_fails_cleanly(self):
        # The coordinate reaches 1e100, its cube overflows in the series
        # coefficients, and the convergence guard must catch the nan.
        with pytest.raises(StepError, match="did not converge"):
            heun.flip_probability_heun(2.0, SimParams.from_detuning(0.3, 0.15, 1e-100))

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


def _mul(x, y):
    """Product of two row-major 2 x 2 matrices."""
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def _binary_power(m, n):
    """m^n by binary powering: the kernel the closed form replaced, kept as its oracle."""
    x = (1.0 + 0j, 0j, 0j, 1.0 + 0j)
    while n:
        if n & 1:
            x = _mul(x, m)
        n >>= 1
        if n:
            m = _mul(m, m)
    return x


def _gap(x, y) -> float:
    return max(abs(a - b) for a, b in zip(x, y))


def _random_u2(rng):
    q = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    return tuple(q.ravel().tolist())


def _random_su2(rng):
    z = rng.normal(size=4)
    z /= np.linalg.norm(z)
    a, b = complex(z[0], z[1]), complex(z[2], z[3])
    return (a, -b.conjugate(), b, a.conjugate())


class TestFloquetPower:
    """`heun._floquet_power` against binary powering."""

    def test_random_su2(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            m = _random_su2(rng)
            n = int(rng.integers(1, 5001))
            power, theta = heun._floquet_power(m, n)
            assert _gap(power, _binary_power(m, n)) < 4e-15 * n, (m, n)
            assert abs(cmath.cos(theta) - 0.5 * (m[0] + m[3])) < 1e-15

    def test_sl2c_conjugates_of_rotations(self):
        # A R A^-1 e^(i alpha), R in SU(2), A = U diag(l, 1/l) V with
        # 1 <= |l| <= 1.5, so cond(A) <= 2.25: the power stays bounded, and
        # the phase makes sqrt(det) pick a branch.
        rng = np.random.default_rng(41)
        for _ in range(500):
            lam = cmath.rect(rng.uniform(1.0, 1.5), rng.uniform(-math.pi, math.pi))
            u, v = _random_su2(rng), _random_su2(rng)
            a = _mul(_mul(u, (lam, 0j, 0j, 1.0 / lam)), v)
            a_inv = (a[3], -a[1], -a[2], a[0])
            phase = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            m = tuple(phase * x for x in _mul(_mul(a, _random_su2(rng)), a_inv))
            n = int(rng.integers(1, 5001))
            want = _binary_power(m, n)
            got = heun._floquet_power(m, n)[0]
            assert _gap(got, want) < 2e-14 * n * max(map(abs, want)), (m, n)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1001])
    def test_plus_minus_identity_is_exact(self, n):
        one, zero = 1.0 + 0j, 0j
        assert heun._floquet_power((one, zero, zero, one), n)[0] == (one, zero, zero, one)
        sign = (-1) ** n
        assert heun._floquet_power((-one, zero, zero, -one), n)[0] == (sign, 0, 0, sign)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1001])
    def test_parabolic_branch(self, n):
        # sin(theta) = 0 with X != 0: the power is c^n I + n c^(n-1) X.
        for m in ((1.0, 1.0, 0.0, 1.0), (-1.0, 2.0, 0.0, -1.0)):
            m = tuple(complex(x) for x in m)
            assert heun._floquet_power(m, n)[0] == _binary_power(m, n)


def _direct_probability(tau, params, selection):
    """The flip probability continued along the whole path, never composed.

    The assembly `flip_probability_heun` used before it composed loops,
    kept as the reference.
    """
    data = heun.heun_parameters(params, selection)
    path = heun.coordinate_path(tau, params.k)
    cont = heun.continue_along_path(data, path)
    numerator = abs(heun.w_factor(path[-1], data)) * abs(cont.v2)
    denominator = abs(heun.w_factor(path[0], data)) * abs(
        heun.heun_coordinate_derivative(0.0, params.k)
    )
    a = params.h_over_omega
    return a * a * numerator ** 2 / denominator ** 2


class TestLoopComposition:
    """tau = n T + r with T = 4K: one loop continued, then powers of it."""

    @pytest.mark.parametrize("periods", [1.0, 2.0, 2.5, 5.0])
    @pytest.mark.parametrize("k", [0.05, 0.5, 0.95])
    def test_matches_direct_continuation(self, k, periods):
        p = SimParams.from_detuning(0.3, 0.12, k)
        tau = periods * 4.0 * quarter_period(k)
        taus = [tau]
        if periods != 2.5:
            taus += [math.nextafter(tau, 0.0), math.nextafter(tau, math.inf)]
        for t in taus:
            for sel in heun.SELECTIONS:
                got = heun.flip_probability_heun(t, p, selection=sel)
                assert abs(got - _direct_probability(t, p, sel)) < 1e-12

    def test_below_one_period_is_bit_identical(self):
        for h, delta, k in ((0.25, 0.1, 0.3), (0.7, -0.3, 0.8)):
            p = SimParams.from_detuning(h, delta, k)
            loop_time = 4.0 * quarter_period(k)
            for tau in (0.0, 0.3 * loop_time, math.nextafter(loop_time, 0.0)):
                for sel in heun.SELECTIONS:
                    assert heun.flip_probability_heun(tau, p, selection=sel) == _direct_probability(
                        tau, p, sel
                    )

    def test_composed_power_matches_reference_product(self):
        # F (G F)^n with the closed-form power, against the same product
        # with the power taken by binary powering, on unitary F and G.
        rng = np.random.default_rng(29)
        for _ in range(300):
            f, g = _random_u2(rng), _random_u2(rng)
            n = int(rng.integers(1, 5001))
            want = _mul(f, _binary_power(_mul(g, f), n))
            got = _mul(f, heun._floquet_power(_mul(g, f), n)[0])
            assert _gap(got, want) < 4e-15 * n, n

    def test_cost_does_not_grow_with_the_horizon(self, monkeypatch):
        calls = []
        real = heun._taylor_coefficients

        def counting(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(heun, "_taylor_coefficients", counting)
        p = SimParams.from_detuning(0.25, 0.1, 0.7)
        loop_time = 4.0 * quarter_period(0.7)
        heun.flip_probability_heun(3000.0, p)
        far = len(calls)
        calls.clear()
        heun.flip_probability_heun(math.fmod(3000.0, loop_time) + loop_time, p)
        assert 0 < far <= len(calls)

    # About 1,200 loops at tau = 1e4.  Powers repeat one loop's rounding
    # error coherently, so it grows n-fold, not like a random walk as
    # along the direct path: the default selection stays within 1e-12
    # here, "+++" reaches 2.2e-11 at k = 0.7 (3e-13 continued directly).
    @pytest.mark.parametrize("k", [0.2, 0.7, 0.85])
    def test_resonance_far_beyond_one_period(self, k):
        p = SimParams.from_detuning(0.2, 0.0, k)
        expected = math.sin(0.2 * 1e4) ** 2
        assert abs(heun.flip_probability_heun(1e4, p) - expected) < 1e-11
        for sel in heun.SELECTIONS:
            assert abs(heun.flip_probability_heun(1e4, p, selection=sel) - expected) < 1e-10

    @pytest.mark.parametrize("tau", [1e18, 1e300])
    def test_extreme_horizon_raises_step_error(self, tau):
        p = SimParams.from_detuning(0.3, 0.15, 0.7)
        for sel in heun.SELECTIONS:
            with pytest.raises(StepError):
                heun.flip_probability_heun(tau, p, selection=sel)
