"""Tests for the polarization, Bloch residual, and conservation validators."""

import math

import numpy as np
import pytest

import ellipspin.observables as obs
import ellipspin.spin_dynamics as sd
from ellipspin import DomainError, SimParams, SpinState, evolve, jacobi


def spin_up() -> SpinState:
    return SpinState(1.0 + 0j, 0.0j)


def spin_up_at(p: SimParams, tau: float) -> SpinState:
    """Rotating-frame state that `evolve` reaches from spin up at tau > 0."""
    return SpinState(*evolve(spin_up(), p, [0.0, tau]).rot[-1].tolist())


class TestPolarization:
    def test_spin_up_points_along_z(self):
        p = obs.polarization(spin_up())
        assert (p.px, p.py, p.pz) == (0.0, 0.0, 1.0)

    def test_sigma_x_eigenstate(self):
        s = SpinState(complex(1 / math.sqrt(2)), complex(1 / math.sqrt(2)))
        p = obs.polarization(s)
        assert p.px == pytest.approx(1.0, abs=1e-15)
        assert p.py == pytest.approx(0.0, abs=1e-15)
        assert p.pz == pytest.approx(0.0, abs=1e-15)

    def test_resonance_state_matches_closed_form(self):
        # Polarization of the exact resonance solution against the
        # (sn sin, -cn sin, cos) closed form evaluated through jacobi().
        p = SimParams.from_detuning(0.3, 0.0, 0.6)
        for tau in np.linspace(0.0, 12.0, 25):
            state = sd.resonance_solution(float(tau), p)
            got = obs.polarization(state)
            want = obs.resonance_polarization(float(tau), p)
            assert abs(got.px - want.px) < 1e-8
            assert abs(got.py - want.py) < 1e-8
            assert abs(got.pz - want.pz) < 1e-8

    def test_unit_norm_along_trajectory(self):
        p = SimParams.from_detuning(0.5, -0.2, 0.8)
        traj = evolve(spin_up(), p, np.linspace(0.0, 15.0, 151))
        norms = np.linalg.norm(traj.polarization, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-8


class TestBlochResidual:
    def test_resonance_trajectory(self):
        p = SimParams.from_detuning(0.25, 0.0, 0.5)
        taus = np.arange(0.0, 2.0 + 1e-12, 1e-3)
        traj = evolve(spin_up(), p, taus)
        assert obs.bloch_residual_of_samples(traj.taus, traj.polarization, p) < 1e-5

    def test_constant_field_precession(self):
        # No transverse drive: the polarization precesses about z at rate
        # twice the longitudinal amplitude.
        p = SimParams.from_detuning(0.0, 0.2, 0.0)
        initial = SpinState(complex(1 / math.sqrt(2)), complex(1 / math.sqrt(2)))
        taus = np.arange(0.0, 2.0 + 1e-12, 1e-3)
        traj = evolve(initial, p, taus)
        rate = 2.0 * p.H_over_omega
        expected = np.stack(
            [np.cos(rate * taus), np.sin(rate * taus), np.zeros_like(taus)], axis=1
        )
        assert np.max(np.abs(traj.polarization - expected)) < 1e-8
        assert obs.bloch_residual_of_samples(traj.taus, traj.polarization, p) < 1e-6

    def test_matches_pointwise_loop(self):
        # Reference: the residual written out sample by sample, with the
        # Bloch field gamma_m H / omega = 2 (h cn, h sn, H dn) from scalar
        # jacobi.  The vectorised body only reorders roundoff on O(1) terms.
        p = SimParams.from_detuning(0.4, 0.15, 0.7)
        taus = np.linspace(0.0, 3.0, 301)
        pol = evolve(spin_up(), p, taus).polarization
        step = taus[1] - taus[0]
        worst = 0.0
        for i in range(1, len(taus) - 1):
            trip = jacobi(float(taus[i]), p.k)
            two_h = 2.0 * p.h_over_omega
            b = (two_h * trip.cn, two_h * trip.sn, 2.0 * p.H_over_omega * trip.dn)
            dp = (pol[i + 1] - pol[i - 1]) / (2.0 * step)
            worst = max(worst, math.dist(dp, np.cross(b, pol[i])))
        assert obs.bloch_residual_of_samples(taus, pol, p) == pytest.approx(worst, abs=1e-12)

    def test_closed_form_resonance_polarization(self):
        for k in (0.0, 0.5, 0.9):
            p = SimParams.from_detuning(0.25, 0.0, k)
            taus = np.arange(0.0, 2.0 + 1e-12, 1e-3)
            pol = np.array(
                [obs.resonance_polarization(float(t), p).as_array() for t in taus]
            )
            assert obs.bloch_residual_of_samples(taus, pol, p) < 1e-5

    def test_too_few_samples(self):
        p = SimParams.from_detuning(0.25, 0.0, 0.5)
        traj = evolve(spin_up(), p, [0.0])
        with pytest.raises(DomainError):
            obs.bloch_residual_of_samples(traj.taus, traj.polarization, p)

    def test_non_uniform_spacing(self):
        p = SimParams.from_detuning(0.25, 0.0, 0.5)
        traj = evolve(spin_up(), p, [0.0, 0.1, 0.5])
        with pytest.raises(DomainError):
            obs.bloch_residual_of_samples(traj.taus, traj.polarization, p)


class TestFourVectorResiduals:
    def test_initial_spin_up(self):
        p = SimParams.from_detuning(0.3, 0.2, 0.5)
        state = spin_up()
        d1, d2 = sd.rotating_rhs(0.0, p, state.psi1, state.psi2)
        res = obs.four_vector_residuals(0.0, p, state, SpinState(d1, d2))
        assert res.first_integral < 1e-15
        assert res.max() < 1e-15

    def test_along_converged_trajectory(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(4):
            p = SimParams.from_detuning(
                float(rng.uniform(0.1, 1.0)),
                float(rng.uniform(-0.5, 0.5)),
                float(rng.uniform(0.05, 0.95)),
            )
            taus = np.linspace(0.0, 20.0, 101)
            traj = evolve(spin_up(), p, taus, tol=1e-10)
            for i, tau in enumerate(taus):
                state = SpinState(complex(traj.rot[i, 0]), complex(traj.rot[i, 1]))
                d1, d2 = sd.rotating_rhs(float(tau), p, state.psi1, state.psi2)
                res = obs.four_vector_residuals(float(tau), p, state, SpinState(d1, d2))
                worst = max(worst, res.max())
        assert worst < 1e-8

    def test_sphere_residual_measures_norm(self):
        p = SimParams.from_detuning(0.3, 0.2, 0.5)
        state = SpinState(complex(math.sqrt(0.5)), 0.0j)  # norm^2 = 0.5
        d1, d2 = sd.rotating_rhs(0.0, p, state.psi1, state.psi2)
        res = obs.four_vector_residuals(0.0, p, state, SpinState(d1, d2))
        assert res.sphere == pytest.approx(0.5, abs=1e-15)


class TestFlipAmplitudeEquation:
    def test_resonance_reduces_to_oscillator(self):
        p = SimParams.from_detuning(0.3, 0.0, 0.7)
        for tau in (0.5, 2.0, 6.0):
            assert obs.lame_residual_from_state(p, tau, spin_up_at(p, tau)) < 1e-9

    def test_circular_reduces_to_constant_coefficients(self):
        p = SimParams.from_detuning(0.3, 0.25, 0.0)
        for tau in (0.5, 2.0, 6.0):
            assert obs.lame_residual_from_state(p, tau, spin_up_at(p, tau)) < 1e-9

    def test_general_parameters(self):
        p = SimParams.from_detuning(0.4, 0.2, 0.6)
        rng = np.random.default_rng(23)
        for tau in rng.uniform(0.1, 10.0, 8).tolist():
            assert obs.lame_residual_from_state(p, tau, spin_up_at(p, tau)) < 1e-8

    def test_residual_detects_wrong_modulation_term(self):
        # Replacing the sn*cn modulation with sn*dn leaves a residual of
        # the size of the dropped term, so the check has teeth.
        p = SimParams.from_detuning(0.4, 0.3, 0.8)
        tau = 2.1
        state = spin_up_at(p, tau)
        trip = jacobi(tau, p.k)
        d = p.delta_over_omega
        k = p.k
        d1, d2 = sd.rotating_rhs(tau, p, state.psi1, state.psi2)
        dn_rate = -(k * k) * trip.sn * trip.cn
        phi2_dd = -1j * p.h_over_omega * d1 + 1j * d * (dn_rate * state.psi2 + trip.dn * d2)
        wrong_coeff = (
            1j * d * k * k * trip.sn * trip.dn  # wrong second factor
            - (d * k) ** 2 * trip.sn ** 2
            + p.rabi_over_omega ** 2
        )
        wrong = abs(phi2_dd + wrong_coeff * state.psi2)
        right = obs.lame_residual_from_state(p, tau, state)
        assert right < 1e-9
        assert wrong > 1e-3
