"""Tests for the two-level dynamics: frames, integration, closed forms."""

import cmath
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ellipspin.heun as heun
import ellipspin.spin_dynamics as sd
from ellipspin import _dopri
from ellipspin.elliptic import _jacobi_grid
from ellipspin import (
    DomainError,
    IntegrationError,
    SimParams,
    SpinState,
    derive_parameters,
    euler_angles,
    evolve,
    gauge_factor,
    jacobi,
    propagator,
    quarter_period,
    rabi_probability,
    resonance_solution,
)

# Hand value for g = 2, h0 = 1 mT, omega = 1e9 rad/s using the published
# CODATA-2018 ratio mu_B / hbar = 8.7941000595e10 1/(s T):
# h/omega = (g/2) * (mu_B/hbar) * h0 / omega.
HAND_H_OVER_OMEGA = 8.7941000595e10 * 1e-3 / 1e9

# Largest deviation allowed between a per-sample array and its scalar
# reference: numpy's transcendental functions and complex products may
# round differently from math's and Python's, by about an ulp per step.
GRID_BOUND = 1e-14


def spin_up() -> SpinState:
    return SpinState(1.0 + 0j, 0.0j)


class TestDeriveParameters:
    def test_zero_transverse_amplitude(self):
        p = derive_parameters(2.0, 0.0, 1e-3, 1e9)
        assert p.h_over_omega == 0.0

    def test_resonance_condition(self):
        # Choose H0 so the longitudinal rate is half the drive frequency.
        omega = 1e9
        h0_res = sd.HBAR * omega / (2.0 * sd.BOHR_MAGNETON)
        p = derive_parameters(2.0, 1e-4, h0_res, omega)
        assert p.delta_over_omega == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_value(self):
        p = derive_parameters(2.0, 1e-3, 5e-3, 1e9)
        assert p.h_over_omega == pytest.approx(HAND_H_OVER_OMEGA, rel=1e-9)
        assert p.H_over_omega == pytest.approx(5.0 * HAND_H_OVER_OMEGA, rel=1e-9)

    @pytest.mark.parametrize("omega", [0.0, -1.0, math.nan])
    def test_rejects_bad_omega(self, omega):
        with pytest.raises(DomainError):
            derive_parameters(2.0, 1e-3, 1e-3, omega)

    @pytest.mark.parametrize("omega", [1e-300, 5e-324])
    def test_tiny_omega_overflows_to_a_domain_error(self, omega):
        # 2 hbar omega used to underflow to 0, and the division raised
        # ZeroDivisionError.
        with pytest.raises(DomainError, match="must be finite"):
            derive_parameters(2.0, 1e-3, 1e-3, omega)


class TestSimParams:
    def test_detuning_and_rabi(self):
        p = SimParams.from_detuning(0.3, 0.4, 0.0)
        assert p.H_over_omega == pytest.approx(0.9)
        assert p.delta_over_omega == pytest.approx(0.4)
        assert p.rabi_over_omega == pytest.approx(0.5)

    @pytest.mark.parametrize("k", [-0.1, 1.1, math.nan])
    def test_rejects_bad_modulus(self, k):
        with pytest.raises(DomainError):
            SimParams(0.1, 0.5, k)


class TestDriveField:
    def test_lab_at_origin(self):
        p = SimParams.from_detuning(0.25, 0.1, 0.6)
        assert sd._lab_field(jacobi(0.0, p.k), p) == (0.25, 0.0, p.H_over_omega)

    def test_lab_circular_limit(self):
        p = SimParams.from_detuning(0.2, 0.1, 0.0)
        for tau in (0.3, 1.1, 2.8):
            bx, by, bz = sd._lab_field(jacobi(tau, 0.0), p)
            assert complex(bx, -by) == pytest.approx(0.2 * cmath.exp(-1j * tau), abs=1e-15)
            assert bz == pytest.approx(p.H_over_omega, abs=1e-15)

    def test_lab_grid_matches_scalar(self):
        p = SimParams.from_detuning(0.4, -0.2, 0.7)
        taus = np.linspace(-30.0, 30.0, 201)
        grid = sd._lab_field(_jacobi_grid(taus, p.k), p)
        scalar = np.array([sd._lab_field(jacobi(tau, p.k), p) for tau in taus.tolist()])
        assert np.max(np.abs(np.column_stack(grid) - scalar)) <= GRID_BOUND

    def test_rotating_constant_at_resonance(self):
        for k in (0.0, 0.5, 0.99):
            p = SimParams.from_detuning(0.3, 0.0, k)
            for tau in (0.0, 1.3, 4.0, 9.2):
                got = sd.rotating_rhs(tau, p, 0.6 + 0j, 0.8j)
                assert got == (-1j * 0.3 * 0.8j, -1j * 0.3 * (0.6 + 0j))


class TestGaugeFactor:
    def test_at_origin(self):
        assert gauge_factor(0.0, 0.5) == 1.0

    def test_circular_quarter_turn(self):
        f = gauge_factor(0.5 * math.pi, 0.0)
        assert f == pytest.approx((1.0 - 1.0j) / math.sqrt(2.0), abs=1e-15)

    @given(
        tau=st.floats(min_value=-20.0, max_value=20.0),
        k=st.floats(min_value=0.0, max_value=0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_square_matches_elliptic_values(self, tau, k):
        f = gauge_factor(tau, k)
        trip = jacobi(tau, k)
        assert abs(abs(f) - 1.0) < 1e-12
        assert abs(f * f - complex(trip.cn, -trip.sn)) < 1e-12


class TestEvolve:
    def test_resonance_flip_probability(self):
        p = SimParams.from_detuning(0.25, 0.0, 0.7)
        taus = np.linspace(0.0, 20.0, 501)
        traj = evolve(spin_up(), p, taus)
        assert np.max(np.abs(traj.p_flip - np.sin(0.25 * taus) ** 2)) < 1e-8

    def test_rabi_flip_probability(self):
        p = SimParams.from_detuning(0.3, 0.4, 0.0)
        taus = np.linspace(0.0, 20.0, 501)
        traj = evolve(spin_up(), p, taus)
        expected = 0.36 * np.sin(0.5 * taus) ** 2
        assert np.max(np.abs(traj.p_flip - expected)) < 1e-8
        # Spot value at tau = pi.
        traj_pi = evolve(spin_up(), p, [0.0, math.pi])
        assert traj_pi.p_flip[-1] == pytest.approx(0.36, abs=1e-8)

    def test_initial_sample(self):
        p = SimParams.from_detuning(0.2, 0.1, 0.5)
        traj = evolve(spin_up(), p, [0.0, 1.0])
        assert traj.p_flip[0] == 0.0

    def test_norm_conservation(self):
        p = SimParams.from_detuning(0.8, -0.3, 0.9)
        traj = evolve(spin_up(), p, np.linspace(0.0, 30.0, 301), tol=1e-10)
        assert np.max(traj.norm_drift) < 10.0 * 1e-8

    def test_taus_strictly_increasing_required(self):
        p = SimParams.from_detuning(0.2, 0.0, 0.0)
        with pytest.raises(DomainError):
            evolve(spin_up(), p, [0.0, 1.0, 1.0])
        with pytest.raises(DomainError):
            evolve(spin_up(), p, [0.5, 1.0])

    def test_rejects_bad_tolerance_and_state(self):
        p = SimParams.from_detuning(0.2, 0.0, 0.0)
        with pytest.raises(DomainError):
            evolve(spin_up(), p, [0.0, 1.0], tol=0.0)
        with pytest.raises(DomainError):
            evolve(SpinState(1.0 + 0j, 1.0 + 0j), p, [0.0, 1.0])

    def test_frame_consistency(self):
        # Direct lab integration against the gauge-mapped rotating one,
        # inside the first branch window of the gauge factor.
        p = SimParams.from_detuning(0.35, 0.15, 0.6)
        window = 1.9 * quarter_period(p.k)
        taus = np.linspace(0.0, window, 101)
        traj = evolve(spin_up(), p, taus)
        lab = sd.evolve_lab_frame(spin_up(), p, taus)
        assert np.max(np.abs(lab - traj.lab)) < 1e-8

    def test_gauge_phase_jump_cancels_in_magnitudes(self):
        # Beyond the branch window the lab amplitudes may differ by an
        # overall sign; every measurable magnitude still agrees.
        p = SimParams.from_detuning(0.35, 0.15, 0.6)
        taus = np.linspace(0.0, 20.0, 201)
        traj = evolve(spin_up(), p, taus)
        lab = sd.evolve_lab_frame(spin_up(), p, taus)
        assert np.max(np.abs(np.abs(lab) - np.abs(traj.lab))) < 1e-8

    def test_resonance_modulus_independence(self):
        taus = np.linspace(0.0, 20.0, 401)
        base = evolve(spin_up(), SimParams.from_detuning(0.25, 0.0, 0.0), taus)
        for k in (0.3, 0.7, 0.99):
            traj = evolve(spin_up(), SimParams.from_detuning(0.25, 0.0, k), taus)
            assert np.max(np.abs(traj.p_flip - base.p_flip)) < 1e-8

    def test_trajectory_container_invariants(self):
        p = SimParams.from_detuning(0.6, 0.3, 0.85)
        tol = 1e-10
        traj = evolve(spin_up(), p, np.linspace(0.0, 25.0, 251), tol=tol)
        assert np.all(np.diff(traj.taus) > 0.0)
        assert np.all(traj.p_flip >= 0.0)
        assert np.all(traj.p_flip <= 1.0 + 10.0 * tol)
        assert len(traj) == len(traj.taus) == len(traj.lab) == len(traj.rot) == 251
        assert traj.p_flip[125] == abs(traj.rot[125, 1]) ** 2
        assert abs(traj.lab[125, 0]) == pytest.approx(abs(traj.rot[125, 0]), abs=1e-14)


def _half_angle_gauge_factor(tau, k):
    """f = sqrt(cn - i sn) from scalar `jacobi`, one half-angle branch at a time.

    The scalar form `gauge_factor` had before it read the grid kernel,
    kept as the independent reference for `_gauge_factor_grid`.
    """
    trip = jacobi(tau, k)
    if trip.cn >= 0.0:
        re = math.sqrt(0.5 * (1.0 + trip.cn))
        im = math.sqrt(0.5 * trip.sn * trip.sn / (1.0 + trip.cn))
    else:
        re = math.sqrt(0.5 * trip.sn * trip.sn / (1.0 - trip.cn))
        im = math.sqrt(0.5 * (1.0 - trip.cn))
    sign = -1.0 if trip.sn < 0.0 else 1.0
    return complex(re, -sign * im)


def _scalar_evolve(initial, params, taus, tol=sd.DEFAULT_TOL):
    """(lab, rot, p_flip, polarization) composed one sample at a time.

    The same bounded integration `evolve` makes, then a scalar Python
    loop: each state is U(r) U(T)^n psi0 for tau = n T + r.  U(T) =
    [[a, -conj(b)], [b, conj(a)]] is the rotation cos(phi) - i sin(phi)
    n.sigma with sin(phi) n = (-Im b, Re b, -Im a) and cos(phi) = Re a,
    so U(T)^n psi0 is cos(n phi) psi0 - i sin(n phi) n.sigma psi0, from
    `math.cos` and `math.sin`.  The gauge factor and observables come
    from the complex expressions.  At k = 1 the resonant generator has no
    dn and takes k = 0's period; off resonance every column past
    tau_c = ln(200 |D/w| / tol) is the free rotation
    cos(a s) - i sin(a s) sigma_x, s = tau - tau_c, of the column at tau_c.
    The reference for `evolve`'s array arithmetic.
    """
    k, d = params.k, params.delta_over_omega
    tau_c = max(0.0, math.log(200.0 * abs(d) / tol)) if k == 1.0 and d != 0.0 else math.inf
    if k == 1.0 and d == 0.0:
        k = 0.0
    period = 2.0 * quarter_period(k) if k < 1.0 else math.inf
    split = [divmod(tau, period) for tau in taus.tolist()]
    order = sorted(range(len(split)), key=lambda i: split[i][1])
    grid = [split[i][1] for i in order if split[i][1] <= tau_c]
    if split[-1][0] > 0.0:
        grid.append(period)
    elif split[-1][1] > tau_c:
        grid.append(tau_c)
    cols = _dopri.integrate(sd._bind_rotating(params), (1.0 + 0j, 0j), grid, tol).tolist()
    a_c, b_c = cols[-1]
    col_at = [None] * len(split)
    for j, i in enumerate(order):
        r = split[i][1]
        if r <= tau_c:
            col_at[i] = cols[j]
        else:
            turn = params.h_over_omega * (r - tau_c)
            c, s = math.cos(turn), math.sin(turn)
            col_at[i] = (
                complex(c * a_c.real + s * b_c.imag, c * a_c.imag - s * b_c.real),
                complex(c * b_c.real + s * a_c.imag, c * b_c.imag - s * a_c.real),
            )
    # U(T) as a rotation; the identity when no sample lies a period out.
    a, b = cols[-1] if split[-1][0] > 0.0 else (1.0, 0j)
    nx, ny, nz = -b.imag, b.real, -a.imag
    sin_phi = math.sqrt(nx * nx + ny * ny + nz * nz)
    phi = math.atan2(sin_phi, a.real)
    if sin_phi > 0.0:
        nx, ny, nz = nx / sin_phi, ny / sin_phi, nz / sin_phi
    psi0 = complex(initial.psi1), complex(initial.psi2)
    n_sigma_psi0 = (
        nz * psi0[0] + complex(nx, -ny) * psi0[1],
        complex(nx, ny) * psi0[0] - nz * psi0[1],
    )
    n = len(taus)
    lab = np.empty((n, 2), dtype=complex)
    rot = np.empty((n, 2), dtype=complex)
    p_flip = np.empty(n)
    pol = np.empty((n, 3))
    for i, tau in enumerate(taus.tolist()):
        theta = split[i][0] * phi
        c, s = math.cos(theta), math.sin(theta)
        v = [c * x - 1j * s * y for x, y in zip(psi0, n_sigma_psi0)]
        a, b = col_at[i]
        p1 = a * v[0] - b.conjugate() * v[1]
        p2 = b * v[0] + a.conjugate() * v[1]
        f = _half_angle_gauge_factor(tau, params.k)
        l1, l2 = f * p1, f.conjugate() * p2
        rot[i] = p1, p2
        lab[i, 0], lab[i, 1] = l1, l2
        p_flip[i] = abs(p2) ** 2
        cross = l1.conjugate() * l2
        pol[i] = (2.0 * cross.real, 2.0 * cross.imag, abs(l1) ** 2 - abs(l2) ** 2)
    return lab, rot, p_flip, pol


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def largest_gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


class TestEvolveOnWholeGrid:
    """`evolve` post-processes its grid as arrays and agrees with the scalar loop."""

    @pytest.mark.parametrize("k", [0.0, 0.64, 0.999, 1.0])
    @pytest.mark.parametrize("delta", [0.0, 0.2])
    def test_agrees_with_scalar_loop(self, k, delta):
        p = SimParams.from_detuning(0.3, delta, k)
        tilted = SpinState(complex(0.6, 0.1), complex(-0.2, 0.768114574786861))
        cases = [(spin_up(), 14.0, n) for n in (1, 2, 241, 20001)]
        cases += [(tilted, 14.0, 241), (tilted, 5000.0, 241)]
        for initial, tau_max, n in cases:
            taus = np.linspace(0.0, tau_max, n)
            traj = evolve(initial, p, taus)
            want = _scalar_evolve(initial, p, taus)
            got = (traj.lab, traj.rot, traj.p_flip, traj.polarization)
            for name, x, y in zip(("lab", "rot", "p_flip", "polarization"), got, want):
                assert largest_gap(x, y) <= GRID_BOUND, (name, tau_max, n)

    def test_gauge_factor_grid_matches_scalar(self):
        rng = np.random.default_rng(3)
        taus = np.concatenate([rng.uniform(-60.0, 60.0, 2000), [0.0, 2.0 * quarter_period(0.7)]])
        for k in (0.0, 0.7, 1.0):
            scalar = [_half_angle_gauge_factor(t, k) for t in taus.tolist()]
            assert largest_gap(sd._gauge_factor_grid(taus, k), scalar) <= GRID_BOUND

    def test_scalar_gauge_factor_matches_half_angle_form(self):
        rng = np.random.default_rng(29)
        for _ in range(3000):
            k = float(rng.choice([0.0, rng.uniform(0.0, 1.0), 1.0]))
            tau = float(rng.uniform(-800.0, 800.0))
            got, want = gauge_factor(tau, k), _half_angle_gauge_factor(tau, k)
            assert abs(got - want) <= GRID_BOUND, (tau, k)

    def test_pauli_expectation_number_and_array_agree(self):
        rng = np.random.default_rng(5)
        psi = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
        grid = sd.pauli_expectation(psi[:, 0], psi[:, 1])
        for i, (a, b) in enumerate(psi.tolist()):
            one = sd.pauli_expectation(a, b)
            assert [c[i] for c in grid] == [c[0] for c in one]

    def test_no_scalar_jacobi_per_sample(self, monkeypatch):
        # Seed 1's detuned simulate-dense input: the per-sample gauge
        # factor made 20,722 jacobi calls for 721 rhs calls.
        counts = {"jacobi": 0, "rhs": 0}
        scalar_jacobi, integrate = sd.jacobi, _dopri.integrate

        def counting_jacobi(*args):
            counts["jacobi"] += 1
            return scalar_jacobi(*args)

        def counting_integrate(rhs, *args):
            def counted(t, y1, y2):
                counts["rhs"] += 1
                return rhs(t, y1, y2)

            return integrate(counted, *args)

        monkeypatch.setattr(sd, "jacobi", counting_jacobi)
        monkeypatch.setattr(_dopri, "integrate", counting_integrate)
        p = SimParams.from_detuning(0.2671, 0.1882, 0.6421)
        evolve(spin_up(), p, np.linspace(0.0, 14.0, 20001))
        assert 0 < counts["rhs"] < 2000
        assert counts["jacobi"] <= counts["rhs"] + 2


def _direct(initial, params, taus, tol=sd.DEFAULT_TOL):
    """Rotating-frame states integrated straight through the grid, never composed."""
    return _dopri.integrate(sd._bind_rotating(params), (initial.psi1, initial.psi2), taus, tol)


def _counting_rhs(monkeypatch) -> dict:
    """Count every rhs call the integrator makes from here on."""
    counts = {"rhs": 0}
    integrate = _dopri.integrate

    def counting(rhs, *args):
        def counted(t, y1, y2):
            counts["rhs"] += 1
            return rhs(t, y1, y2)

        return integrate(counted, *args)

    monkeypatch.setattr(_dopri, "integrate", counting)
    return counts


class TestPeriodComposition:
    """`evolve` integrates one period 2K of dn and composes the rest."""

    TILTED = SpinState(complex(0.6, 0.1), complex(-0.2, 0.768114574786861))

    @pytest.mark.parametrize("k", [0.0, 0.3, 0.7, 0.999])
    @pytest.mark.parametrize("delta", [0.0, 0.2, -0.35])
    def test_matches_direct_integration(self, k, delta):
        p = SimParams.from_detuning(0.3, delta, k)
        period = 2.0 * quarter_period(k)
        whole = np.arange(1, 6) * period
        taus = np.unique(
            np.concatenate(
                [
                    np.linspace(0.0, 5.5 * period, 301),
                    whole,
                    np.nextafter(whole, math.inf),
                    np.nextafter(whole, -math.inf),
                ]
            )
        )
        traj = evolve(self.TILTED, p, taus)
        assert np.max(np.abs(traj.rot - _direct(self.TILTED, p, taus))) < 1e-8

    @pytest.mark.parametrize("k", [0.5, 0.95])
    def test_grid_ends_at_or_just_past_one_period(self, k):
        p = SimParams.from_detuning(0.4, 0.25, k)
        period = 2.0 * quarter_period(k)
        for tau_max in (period, np.nextafter(period, math.inf), np.nextafter(period, 0.0)):
            taus = np.linspace(0.0, tau_max, 37)
            traj = evolve(self.TILTED, p, taus)
            assert np.max(np.abs(traj.rot - _direct(self.TILTED, p, taus))) < 1e-8

    def test_one_sample_grid(self):
        p = SimParams.from_detuning(0.4, 0.25, 0.6)
        traj = evolve(self.TILTED, p, [0.0])
        assert traj.rot.tolist() == [[self.TILTED.psi1, self.TILTED.psi2]]

    @pytest.mark.parametrize(
        "k, delta, ends",
        [
            (0.6, 0.2, [0.5, 1.0, 1.5, 2.0, 7.1]),  # in periods T: 0, T, 2T share r = 0
            (1.0, 0.0, [0.5, 1.0, 3.0]),  # T = pi
            (1.0, 0.2, [0.5, 1.0, 1.5, 2.0]),  # in units of tau_c
            (1.0, 0.2, [0.5, 1.0]),
        ],
    )
    def test_integrator_gets_each_time_once(self, monkeypatch, k, delta, ends):
        # Sorted offsets once reached the integrator with repeats: 0, T
        # and 2T each gave r = 0, and tau_c was appended after a sample
        # already at tau_c.
        seen = []
        integrate = _dopri.integrate

        def recording(rhs, y0, sample_taus, tol):
            seen.append(list(sample_taus))
            return integrate(rhs, y0, sample_taus, tol)

        monkeypatch.setattr(_dopri, "integrate", recording)
        p = SimParams.from_detuning(0.3, delta, k)
        tau_c = sd._pulse_end(p, sd.DEFAULT_TOL)
        unit = tau_c if tau_c < math.inf else sd._period(p)
        taus = np.array([0.0] + [unit * x for x in ends])
        traj = evolve(self.TILTED, p, taus)
        (grid,) = seen
        assert grid[0] == 0.0 and all(x < y for x, y in zip(grid, grid[1:]))
        assert sum(t >= tau_c for t in grid) <= 1
        assert np.max(np.abs(traj.rot - _scalar_evolve(self.TILTED, p, taus)[1])) <= GRID_BOUND

    def test_cost_does_not_grow_with_the_horizon(self, monkeypatch):
        # 88,525 rhs calls when every period up to tau 2000 was integrated.
        counts = _counting_rhs(monkeypatch)
        p = SimParams.from_detuning(0.25, 0.1, 0.7)
        evolve(spin_up(), p, np.linspace(0.0, 2000.0, 201))
        assert 0 < counts["rhs"] < 1000

    def test_memory_does_not_grow_with_the_horizon(self):
        import tracemalloc

        p = SimParams.from_detuning(0.25, 0.1, 0.7)
        tracemalloc.start()
        try:
            traj = evolve(spin_up(), p, np.linspace(0.0, 1e8, 11))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(traj.rot))
        assert peak < 4 * 2**20


    def test_norm_drift_at_a_far_horizon(self):
        # 1.5e-5 when U(T) was raised to its powers by repeated squaring.
        p = SimParams.from_detuning(0.3, 0.15, 0.7)
        traj = evolve(spin_up(), p, np.linspace(0.0, 1e6, 3))
        assert np.max(traj.norm_drift) <= 1e-9

    def test_matches_dop853_across_many_periods(self):
        # 8.5e-9 when U(T) was raised to its powers by repeated squaring.
        from scipy.integrate import solve_ivp
        from scipy.special import ellipj

        a, delta, k = 0.25, 0.1, 0.7
        taus = np.linspace(0.0, 2000.0, 41)
        traj = evolve(spin_up(), SimParams.from_detuning(a, delta, k), taus)

        def rhs(tau, y):
            d = delta * ellipj(tau, k * k)[2]
            return [-1j * (d * y[0] + a * y[1]), -1j * (a * y[0] - d * y[1])]

        ref = solve_ivp(
            rhs, (0.0, 2000.0), [1.0 + 0j, 0j], method="DOP853", rtol=1e-13, atol=1e-13, t_eval=taus
        ).y.T
        assert np.max(np.abs(traj.rot - ref)) <= 2e-9

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_period_of_plus_or_minus_identity_powers_exactly(self, monkeypatch, sign):
        # U(T) = +-I turns about no axis (w = 0): U(T)^n psi0 is (+-1)^n psi0
        # exactly.  The integrator is replaced by one whose every U(r) is I.
        def integrate(rhs, y0, grid, tol):
            return np.array([(1.0, 0.0)] * (len(grid) - 1) + [(sign, 0.0)], dtype=complex)

        monkeypatch.setattr(_dopri, "integrate", integrate)
        p = SimParams.from_detuning(0.3, 0.2, 0.7)
        turns = np.unique(np.geomspace(1.0, 1e6, 200).astype(int))
        taus = np.concatenate([[0.0], (turns + 0.5) * 2.0 * quarter_period(0.7)])
        traj = evolve(self.TILTED, p, taus)
        psi0 = np.array([self.TILTED.psi1, self.TILTED.psi2])
        want = np.concatenate([[1.0], sign ** (turns % 2)])[:, None] * psi0
        assert np.array_equal(traj.rot, want)


class TestHorizonCap:
    """From 2^52 periods on, a double no longer fixes a sample's place in the period."""

    @pytest.mark.parametrize("tau_max", [1e18, 1e300])
    @pytest.mark.parametrize("k", [0.7, 1.0])
    def test_refused_at_once(self, k, tau_max):
        # Before the cap these runs returned all-zero amplitudes or a state
        # whose norm had drifted by 1.
        p = SimParams.from_detuning(0.3, 0.15, k)
        start = time.perf_counter()
        with pytest.raises(IntegrationError, match="2\\^52 or more periods"):
            evolve(spin_up(), p, np.linspace(0.0, tau_max, 3))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "k, delta, period",
        [
            (0.0, 0.15, math.pi),
            (0.7, 0.15, 2.0 * quarter_period(0.7)),
            (0.999, 0.15, 2.0 * quarter_period(0.999)),
            (1.0, 0.0, math.pi),
            # Past the pulse, the free rotation's period pi / (h/w).
            (1.0, 0.15, math.pi / 0.3),
        ],
    )
    def test_cap_is_2_to_the_52_periods(self, k, delta, period):
        p = SimParams.from_detuning(0.3, delta, k)
        cap = 2.0**52 * period
        traj = evolve(spin_up(), p, [0.0, math.nextafter(cap, 0.0)])
        assert np.max(traj.norm_drift) <= 1e-9
        with pytest.raises(IntegrationError):
            evolve(spin_up(), p, [0.0, cap])

    def test_no_cap_without_a_free_rotation(self):
        # h/w = 0 at k = 1: past the pulse the state stands still.
        traj = evolve(spin_up(), SimParams.from_detuning(0.0, 0.15, 1.0), [0.0, 1e300])
        assert traj.p_flip.tolist() == [0.0, 0.0]
        assert np.max(traj.norm_drift) <= 1e-9


class TestPulseTail:
    """At k = 1 `evolve` integrates until the pulse has passed, then rotates in closed form."""

    TILTED = TestPeriodComposition.TILTED

    @pytest.mark.parametrize("delta", [0.2, -0.5, 2.0])
    def test_matches_direct_integration_across_pulse_end(self, delta):
        p = SimParams.from_detuning(0.3, delta, 1.0)
        tau_c = sd._pulse_end(p, sd.DEFAULT_TOL)
        assert 20.0 < tau_c < 30.0
        edge = [tau_c, np.nextafter(tau_c, math.inf), np.nextafter(tau_c, -math.inf)]
        taus = np.unique(np.concatenate([np.linspace(0.0, tau_c + 30.0, 301), edge]))
        traj = evolve(self.TILTED, p, taus)
        assert np.max(np.abs(traj.rot - _direct(self.TILTED, p, taus))) < 1e-8

    def test_grid_ending_at_pulse_end(self):
        p = SimParams.from_detuning(0.3, 0.2, 1.0)
        tau_c = sd._pulse_end(p, sd.DEFAULT_TOL)
        for tau_max in (tau_c, np.nextafter(tau_c, math.inf), np.nextafter(tau_c, 0.0)):
            taus = np.linspace(0.0, tau_max, 37)
            traj = evolve(self.TILTED, p, taus)
            assert np.max(np.abs(traj.rot - _direct(self.TILTED, p, taus))) < 1e-8

    def test_weak_pulse_is_all_tail(self):
        # 200 |D| < tol: tau_c = 0, and every sample past 0 is the free rotation.
        p = SimParams.from_detuning(0.3, 1e-14, 1.0)
        assert sd._pulse_end(p, sd.DEFAULT_TOL) == 0.0
        taus = np.linspace(0.0, 40.0, 81)
        traj = evolve(self.TILTED, p, taus)
        assert np.max(np.abs(traj.rot - _direct(self.TILTED, p, taus))) < 1e-8

    @pytest.mark.parametrize("delta", [0.2, 0.0])
    def test_cost_does_not_grow_with_the_horizon(self, monkeypatch, delta):
        # 333,655 rhs calls at tau 8000 when k = 1 was integrated straight through.
        counts = _counting_rhs(monkeypatch)
        p = SimParams.from_detuning(0.3, delta, 1.0)
        per_horizon = []
        for tau_max in (60.0, 8000.0):
            counts["rhs"] = 0
            evolve(spin_up(), p, np.linspace(0.0, tau_max, 241))
            per_horizon.append(counts["rhs"])
        assert 0 < per_horizon[0] == per_horizon[1]

    def test_resonance_takes_the_circular_period(self):
        # With no dn in the generator, k = 1 and k = 0 integrate the same
        # system over the same period T = pi.
        taus = np.linspace(0.0, 500.0, 241)
        pulse = evolve(self.TILTED, SimParams.from_detuning(0.3, 0.0, 1.0), taus)
        circular = evolve(self.TILTED, SimParams.from_detuning(0.3, 0.0, 0.0), taus)
        assert same_bits(pulse.rot, circular.rot)
        assert same_bits(pulse.p_flip, circular.p_flip)

    @pytest.mark.parametrize("delta", [0.2, -0.5, 2.0])
    def test_norm_drift_at_long_horizon(self, delta):
        # 2.0e-8 when the whole grid was integrated.
        p = SimParams.from_detuning(0.3, delta, 1.0)
        traj = evolve(spin_up(), p, np.linspace(0.0, 800.0, 241))
        assert np.max(traj.norm_drift) <= 2e-9


def _assembled_propagator(tau, params, tol=sd.DEFAULT_TOL):
    """The lab propagator as assembled before it read `evolve`'s last sample.

    The rotating-frame column from (1, 0) at the tolerance tightened for
    the one integrated stretch, min(tau, T, tau_c) with T the generator's
    period and tau_c the end of the k = 1 pulse, then products with the
    scalar gauge factor f: [[f a, -f conj(b)], [conj(f) b, conj(f) conj(a)]].
    """
    k = 0.0 if params.k == 1.0 and params.delta_over_omega == 0.0 else params.k
    period = 2.0 * quarter_period(k) if k < 1.0 else math.inf
    d = abs(params.delta_over_omega)
    pulse_end = max(0.0, math.log(200.0 * d / tol)) if params.k == 1.0 and d else math.inf
    local_tol = tol / max(1.0, min(tau, period, pulse_end) * params.rabi_over_omega)
    col = sd._rotating_states(params, (1.0 + 0j, 0j), np.array([0.0, tau]), local_tol)
    a, b = complex(col[-1, 0]), complex(col[-1, 1])
    f = _half_angle_gauge_factor(tau, params.k)
    fc = f.conjugate()
    return np.array([[f * a, -f * b.conjugate()], [fc * b, fc * a.conjugate()]])


class TestPropagator:
    def test_agrees_with_scalar_assembly(self):
        rng = np.random.default_rng(17)
        for i in range(24):
            k = (0.0, float(rng.uniform(0.0, 1.0)), 1.0)[i % 3]
            p = SimParams.from_detuning(float(rng.uniform(0.05, 2.0)), float(rng.uniform(-1.0, 1.0)), k)
            tau = 0.0 if i < 3 else float(rng.uniform(0.0, 60.0))
            got = propagator(tau, p).as_matrix()
            assert largest_gap(got, _assembled_propagator(tau, p)) <= GRID_BOUND, (p, tau)

    def test_identity_at_origin(self):
        p = SimParams.from_detuning(0.2, 0.1, 0.5)
        u = propagator(0.0, p)
        assert np.allclose(u.as_matrix(), np.eye(2), atol=0.0)

    def test_resonance_closed_form(self):
        p = SimParams.from_detuning(0.3, 0.0, 0.6)
        for tau in (0.7, 2.1, 5.6):
            u = propagator(tau, p)
            f = gauge_factor(tau, 0.6)
            c, s = math.cos(0.3 * tau), math.sin(0.3 * tau)
            expected = np.array(
                [[f * c, -1j * f * s], [-1j * f.conjugate() * s, f.conjugate() * c]]
            )
            assert np.max(np.abs(u.as_matrix() - expected)) < 1e-9

    def test_unitarity_and_determinant(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            p = SimParams.from_detuning(
                float(rng.uniform(0.1, 1.0)),
                float(rng.uniform(-0.5, 0.5)),
                float(rng.uniform(0.0, 0.95)),
            )
            tau = float(rng.uniform(0.1, 12.0))
            u = propagator(tau, p)
            assert u.unitarity_defect() < 1e-9
            det = u.u11 * u.u22 - u.u12 * u.u21
            assert abs(abs(det) - 1.0) < 1e-9

    def test_tolerance_floor_bounds_the_cost(self, monkeypatch):
        # Without the floor at MIN_TOL the local tolerance kept shrinking
        # with the horizon: tau = 1e13 took 15 s, and the defect at 1e12
        # reached 5e-3.
        counts = _counting_rhs(monkeypatch)
        p = SimParams.from_detuning(0.3, 0.15, 0.7)
        per_horizon = []
        for tau in (1e8, 1e13):
            counts["rhs"] = 0
            propagator(tau, p)
            per_horizon.append(counts["rhs"])
        assert 0 < per_horizon[0] == per_horizon[1]

    def test_cost_past_the_pulse_does_not_grow_with_the_horizon(self, monkeypatch):
        # When the stretch ignored the pulse end, the local tol fell with
        # the horizon at k = 1: 2,371 rhs calls at tau 60, 16,309 at 1e6.
        counts = _counting_rhs(monkeypatch)
        p = SimParams.from_detuning(0.3, 0.2, 1.0)
        per_horizon = []
        for tau in (60.0, 1e6):
            counts["rhs"] = 0
            u = propagator(tau, p)
            per_horizon.append(counts["rhs"])
            assert u.unitarity_defect() < 2e-10
        assert 0 < per_horizon[0] == per_horizon[1]

    def test_unitary_at_a_far_horizon(self, monkeypatch):
        # 1.9e-4 at tau 1e12 when the local tol shrank with the whole
        # horizon and U(T) was raised to its powers by repeated squaring.
        counts = _counting_rhs(monkeypatch)
        p = SimParams.from_detuning(0.3, 0.15, 0.7)
        per_horizon = []
        for tau in (1e8, 1e12):
            counts["rhs"] = 0
            u = propagator(tau, p, tol=1e-10)
            per_horizon.append(counts["rhs"])
        assert u.unitarity_defect() < 2e-10
        assert 0 < per_horizon[0] == per_horizon[1]

    def test_unitary_at_far_corner_of_verify_range(self):
        # Strongest drive and longest horizon the verify suite draws; at a
        # fixed local tol the defect here reached 1.4e-9.
        p = SimParams.from_detuning(1.0, 0.5, 0.9)
        u = propagator(15.0, p)
        assert u.unitarity_defect() < 1e-9
        angles = euler_angles(u)
        p_flip = evolve(spin_up(), p, [0.0, 15.0]).p_flip[-1]
        assert abs(math.sin(0.5 * angles.theta) ** 2 - p_flip) < 1e-8

    @pytest.mark.parametrize(
        "h, delta, k, tau", [(5.0, -2.0, 0.999, 15.0), (20.0, 10.0, 0.0, 2.0), (0.3, 0.2, 1.0, 60.0)]
    )
    def test_defect_stays_near_tol(self, h, delta, k, tau):
        p = SimParams.from_detuning(h, delta, k)
        assert propagator(tau, p, tol=1e-10).unitarity_defect() < 2e-10

    def test_columns_match_direct_integration(self):
        # The second column comes from SU(2) symmetry, not from integrating (0, 1).
        p = SimParams.from_detuning(0.4, 0.2, 0.8)
        for tau in (0.9, 3.7, 2.0 * quarter_period(0.8), 31.0):
            u = propagator(tau, p)
            f = gauge_factor(tau, p.k)
            tol = sd.DEFAULT_TOL / max(1.0, tau * p.rabi_over_omega)
            for col, initial in ((0, spin_up()), (1, SpinState(0.0j, 1.0 + 0j))):
                rot = _direct(initial, p, [0.0, tau], tol)
                lab = u.as_matrix()[:, col]
                assert abs(lab[0] - f * rot[-1, 0]) < 1e-9
                assert abs(lab[1] - f.conjugate() * rot[-1, 1]) < 1e-9

    def test_apply_matches_evolve(self):
        p = SimParams.from_detuning(0.4, 0.2, 0.8)
        initial = SpinState(complex(0.6, 0.1), complex(-0.2, 0.768114574786861))
        initial.require_normalized(1e-12)
        for tau in (0.9, 3.7):
            u = propagator(tau, p)
            direct = evolve(initial, p, [0.0, tau])
            applied = u.apply(initial)
            assert abs(applied.psi1 - direct.lab[-1, 0]) < 1e-8
            assert abs(applied.psi2 - direct.lab[-1, 1]) < 1e-8


class TestClosedForms:
    def test_rabi_probability_values(self):
        p = SimParams.from_detuning(0.3, 0.4, 0.0)
        assert rabi_probability(math.pi, p) == pytest.approx(0.36, abs=1e-15)
        res = SimParams.from_detuning(0.3, 0.0, 0.0)
        for tau in (0.5, 1.5):
            assert rabi_probability(tau, res) == pytest.approx(
                math.sin(0.3 * tau) ** 2, abs=1e-15
            )
        silent = SimParams.from_detuning(0.0, 0.4, 0.0)
        assert rabi_probability(2.2, silent) == 0.0

    def test_rabi_requires_circular_drive(self):
        with pytest.raises(DomainError):
            rabi_probability(1.0, SimParams.from_detuning(0.3, 0.4, 0.5))

    def test_resonance_solution_at_origin(self):
        p = SimParams.from_detuning(0.3, 0.0, 0.5)
        s = resonance_solution(0.0, p)
        assert s.psi1 == 1.0 and s.psi2 == 0.0

    def test_resonance_full_flip_any_modulus(self):
        for k in (0.0, 0.4, 0.9, 1.0):
            p = SimParams.from_detuning(0.25, 0.0, k)
            tau = 0.5 * math.pi / 0.25
            s = resonance_solution(tau, p)
            assert abs(s.psi2) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_resonance_requires_zero_detuning(self):
        with pytest.raises(DomainError):
            resonance_solution(1.0, SimParams.from_detuning(0.3, 0.01, 0.5))

    def test_resonance_solution_matches_ode(self):
        # 100 (tau, k) points, grouped per modulus into one integration.
        rng = np.random.default_rng(5)
        for k in (0.05, 0.3, 0.55, 0.8, 0.97):
            p = SimParams.from_detuning(0.3, 0.0, float(k))
            taus = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 15.0, 20))])
            traj = evolve(spin_up(), p, taus)
            for i, tau in enumerate(taus):
                s = resonance_solution(float(tau), p)
                assert abs(s.psi1 - traj.lab[i, 0]) < 1e-8
                assert abs(s.psi2 - traj.lab[i, 1]) < 1e-8


class TestFundamentalSystem:
    def test_wronskian_constant(self):
        p = SimParams.from_detuning(0.45, -0.25, 0.75)
        taus = np.linspace(0.0, 15.0, 151)
        traj_a = evolve(spin_up(), p, taus)
        traj_b = evolve(SpinState(0.0j, 1.0 + 0j), p, taus)
        w = []
        for i, tau in enumerate(taus):
            fa, fb = complex(traj_a.rot[i, 1]), complex(traj_b.rot[i, 1])
            da = sd.rotating_rhs(float(tau), p, complex(traj_a.rot[i, 0]), fa)[1]
            db = sd.rotating_rhs(float(tau), p, complex(traj_b.rot[i, 0]), fb)[1]
            w.append(fa * db - fb * da)
        w = np.array(w)
        assert np.max(np.abs(w - w[0])) < 1e-8

    def test_probability_from_fundamental_pair(self):
        p = SimParams.from_detuning(0.3, 0.2, 0.5)
        ic_a = SpinState(math.sqrt(0.5) + 0j, math.sqrt(0.5) + 0j)
        ic_b = SpinState(math.sqrt(0.5) + 0j, -math.sqrt(0.5) + 0j)
        for tau in (0.8, 2.5, 6.0):
            direct = float(evolve(spin_up(), p, [0.0, tau]).p_flip[-1])
            assembled = sd.probability_from_fundamental_pair(tau, p, ic_a, ic_b)
            assert abs(direct - assembled) < 1e-8

    def test_pair_is_integrated_independently_of_evolve(self):
        # Each initial condition gets its own integration.  Built from the
        # one column (a, b) that `evolve` integrates from (1, 0), the
        # assembled probability reduces to |b|^2, evolve's own p_flip, and
        # the cross-check would agree to roundoff at any tol.
        p = SimParams.from_detuning(0.37, 0.21, 0.6)
        ic_a = SpinState(math.sqrt(0.5) + 0j, math.sqrt(0.5) + 0j)
        ic_b = SpinState(math.sqrt(0.5) + 0j, -math.sqrt(0.5) + 0j)
        direct = float(evolve(spin_up(), p, [0.0, 3.0], tol=1e-4).p_flip[-1])
        assembled = sd.probability_from_fundamental_pair(3.0, p, ic_a, ic_b, tol=1e-4)
        assert abs(direct - assembled) > 1e-7

    def test_degenerate_pair_rejected(self):
        p = SimParams.from_detuning(0.3, 0.2, 0.5)
        s = SpinState(math.sqrt(0.5) + 0j, math.sqrt(0.5) + 0j)
        with pytest.raises(DomainError):
            sd.probability_from_fundamental_pair(1.0, p, s, s)


_DETUNED = SimParams.from_detuning(0.3, 0.2, 0.5)
_SPIN_DOWN = SpinState(0.0j, 1.0 + 0j)
_TAU_ENTRIES = {
    "evolve": lambda tau: evolve(spin_up(), _DETUNED, [0.0, tau]),
    "evolve_lab_frame": lambda tau: sd.evolve_lab_frame(spin_up(), _DETUNED, [0.0, tau]),
    "propagator": lambda tau: propagator(tau, _DETUNED),
    "probability_from_fundamental_pair": lambda tau: sd.probability_from_fundamental_pair(
        tau, _DETUNED, spin_up(), _SPIN_DOWN
    ),
    "flip_probability_heun": lambda tau: heun.flip_probability_heun(tau, _DETUNED),
    "coordinate_path": lambda tau: heun.coordinate_path(tau, _DETUNED.k),
}


class TestTauDomain:
    # Before the shared check, nan and inf ended in IndexError, a silent
    # 0.0, a ValueError or a loop that never returned.
    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("entry", sorted(_TAU_ENTRIES))
    def test_integrating_entries_reject_non_finite_or_negative(self, entry, tau):
        with pytest.raises(DomainError):
            _TAU_ENTRIES[entry](tau)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_rabi_probability_rejects_non_finite(self, tau):
        with pytest.raises(DomainError, match="tau must be finite"):
            rabi_probability(tau, SimParams.from_detuning(0.3, 0.4, 0.0))

    def test_rabi_probability_is_even_in_tau(self):
        p = SimParams.from_detuning(0.3, 0.4, 0.0)
        assert rabi_probability(-1.3, p) == rabi_probability(1.3, p)


_TOL_ENTRIES = {
    "evolve": lambda tol: evolve(spin_up(), _DETUNED, [0.0, 1.0], tol=tol),
    "evolve_lab_frame": lambda tol: sd.evolve_lab_frame(spin_up(), _DETUNED, [0.0, 1.0], tol=tol),
    "propagator": lambda tol: propagator(1.0, _DETUNED, tol=tol),
    "evolve_pulse": lambda tol: evolve(
        spin_up(), SimParams.from_detuning(0.3, 0.2, 1.0), [0.0, 50.0], tol=tol
    ),
    "probability_from_fundamental_pair": lambda tol: sd.probability_from_fundamental_pair(
        1.0, _DETUNED, spin_up(), _SPIN_DOWN, tol=tol
    ),
}


class TestTolDomain:
    # One check in the integrator covers every entry.  Before it, the
    # fundamental pair ended in ZeroDivisionError, TypeError or
    # IntegrationError.
    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, 1e-16, 1e-300])
    @pytest.mark.parametrize("entry", sorted(_TOL_ENTRIES))
    def test_integrating_entries_reject_non_positive_tol(self, entry, tol):
        with pytest.raises(DomainError, match="tol must be positive"):
            _TOL_ENTRIES[entry](tol)


class TestIntegratorFailure:
    def test_step_underflow_reports_last_good_tau(self):
        # Finite-time blow-up at t = 1 forces the step size to collapse.
        def rhs(t, y1, y2):
            return (y1 / (1.0 - t), 0.0j)

        with pytest.raises(IntegrationError) as err:
            _dopri.integrate(rhs, (1.0 + 0j, 0.0j), (0.0, 1.0), 1e-10)
        assert 0.0 < err.value.last_good_tau < 1.0

    @pytest.mark.parametrize("tau", [1e-15, 1e-300])
    def test_horizon_below_the_underflow_bound_integrates(self, tau):
        # The last step's size comes from the grid, not from a collapsing
        # error control; it used to be refused as a step size underflow.
        p = SimParams.from_detuning(0.3, 0.1, 0.5)
        traj = evolve(spin_up(), p, [0.0, tau])
        assert traj.p_flip[-1] == pytest.approx((0.3 * tau) ** 2, rel=1e-12, abs=1e-300)
        assert traj.norm_drift[-1] < 1e-15
        assert propagator(tau, p).unitarity_defect() < 1e-15


class TestIntegratorSampleTimes:
    RHS = staticmethod(sd._bind_rotating(SimParams.from_detuning(0.3, 0.2, 0.7)))

    def test_any_grid_gives_one_state_array(self):
        seen = set()

        def rhs(t, y1, y2):
            seen.add((type(t), type(y1), type(y2)))
            return self.RHS(t, y1, y2)

        grid = np.linspace(0.0, 10.0, 501)
        from_array = _dopri.integrate(rhs, (1.0 + 0j, 0j), grid, 1e-10)
        from_list = _dopri.integrate(rhs, (1.0 + 0j, 0j), grid.tolist(), 1e-10)
        assert np.array_equal(from_array, from_list)
        assert from_array.shape == (501, 2) and from_array.dtype == np.complex128
        # The stepping loop stays on Python scalars, whatever the grid.
        assert seen == {(float, complex, complex)}

    def test_rows_at_shared_times_are_identical(self):
        # Each sample is read off the accepted step that holds it, so the
        # other samples of a grid never change its row.
        y0 = (complex(0.6, -0.0), complex(-0.0, 0.8))
        rng = np.random.default_rng(5)
        coarse = np.linspace(0.0, 10.0, 11)
        fine = np.union1d(coarse, rng.uniform(0.0, 10.0, 400))
        repeated = np.sort(np.concatenate([fine, fine[::7], [0.0, 10.0]]))
        ends = _dopri.integrate(self.RHS, y0, [0.0, 10.0], 1e-10)
        at_coarse = set()
        for grid in (coarse, fine, repeated):
            out = _dopri.integrate(self.RHS, y0, grid, 1e-10)
            assert out.shape == (len(grid), 2)
            starts = out[grid == 0.0]
            assert starts.tobytes() == np.array([y0] * len(starts)).tobytes()
            assert out[-1].tobytes() == ends[-1].tobytes()
            same = grid[1:] == grid[:-1]
            assert np.array_equal(out[1:][same], out[:-1][same])
            at_coarse.add(out[np.searchsorted(grid, coarse)].tobytes())
        assert len(at_coarse) == 1

    def test_memory_follows_the_samples_not_the_steps(self):
        # A strong drive takes thousands of steps for 41 samples.  Keeping
        # every step's dense-output record peaked at 1,667 KiB here.
        import tracemalloc

        p = SimParams.from_detuning(20.0, 20.0, 0.9)
        taus = np.linspace(0.0, 60.0, 41)
        tracemalloc.start()
        try:
            traj = evolve(spin_up(), p, taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(traj.rot))
        assert peak <= 256 * 2**10


class TestDenseOutput:
    """Samples between the integrator's steps, which error control alone sizes."""

    @pytest.mark.parametrize("k", [0.7, 0.999, 1.0])
    @pytest.mark.parametrize("delta", [0.2, -0.2])
    def test_matches_dop853_on_dense_grid(self, k, delta):
        from scipy.integrate import solve_ivp
        from scipy.special import ellipj

        a = 0.25
        p = SimParams.from_detuning(a, delta, k)
        taus = np.linspace(0.0, 60.0, 2001)
        traj = evolve(spin_up(), p, taus)

        def rhs(tau, y):
            d = delta * ellipj(tau, k * k)[2]
            return [-1j * (d * y[0] + a * y[1]), -1j * (a * y[0] - d * y[1])]

        ref = solve_ivp(
            rhs, (0.0, 60.0), [1.0 + 0j, 0j], method="DOP853", rtol=1e-12, atol=1e-12, t_eval=taus
        ).y.T
        assert np.max(np.abs(traj.rot - ref)) < 1e-8
        assert np.max(np.abs(traj.p_flip - np.abs(ref[:, 1]) ** 2)) < 1e-8

    def test_interpolant_table_is_rk45_p(self):
        from scipy.integrate._ivp.rk import RK45

        table = [
            [1.0, _dopri._P12, _dopri._P13, _dopri._P14],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, _dopri._P32, _dopri._P33, _dopri._P34],
            [0.0, _dopri._P42, _dopri._P43, _dopri._P44],
            [0.0, _dopri._P52, _dopri._P53, _dopri._P54],
            [0.0, _dopri._P62, _dopri._P63, _dopri._P64],
            [0.0, _dopri._P72, _dopri._P73, _dopri._P74],
        ]
        assert np.array_equal(np.array(table), RK45.P)

    def test_interpolant_reaches_step_endpoint(self):
        # Stages of a unit-norm state under a drive of order one, at the
        # step sizes error control picks for the rotating system.
        rng = np.random.default_rng(7)
        for _ in range(100):
            h = float(rng.uniform(0.01, 0.5))
            y = cmath.rect(1.0, rng.uniform(-math.pi, math.pi))
            k1, k3, k4, k5, k6, k7 = (
                cmath.rect(1.0, rng.uniform(-math.pi, math.pi)) for _ in range(6)
            )
            q1, q2, q3, q4 = _dopri._quartic(h, k1, k3, k4, k5, k6, k7)
            b = (_dopri._B1, _dopri._B3, _dopri._B4, _dopri._B5, _dopri._B6)
            y_new = y + h * sum(w * k for w, k in zip(b, (k1, k3, k4, k5, k6)))
            assert abs(y + (q1 + (q2 + (q3 + q4))) - y_new) < 1e-14

    def test_step_size_is_not_capped(self, monkeypatch):
        # A step cap sized for cubic-Hermite dense output (h = 5.8e-3 here)
        # costs 20,569 rhs calls on this run; error control alone about 900.
        counts = _counting_rhs(monkeypatch)
        p = SimParams.from_detuning(0.25, 0.1, 0.7)
        evolve(spin_up(), p, np.linspace(0.0, 20.0, 201), tol=1e-10)
        assert 0 < counts["rhs"] < 2000
