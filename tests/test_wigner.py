"""Tests for Euler angles and spin-J rotation matrices.

The independent oracle is a dense matrix exponential of the angular
momentum generator built from ladder operators (scipy.linalg.expm); the
module under test never forms a matrix exponential.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from ellipspin import (
    DomainError,
    EulerAngles,
    Propagator,
    SimParams,
    SpinState,
    euler_angles,
    evolve,
    propagator,
    transition_probability_j,
    wigner_d,
)

NAN = complex(math.nan, 0.0)


def x_generator(j: float) -> np.ndarray:
    """J_x from ladder operators, in the descending-projection basis."""
    dim = round(2 * j) + 1
    ms = [j - i for i in range(dim)]
    plus = np.zeros((dim, dim), dtype=complex)
    for a, m in enumerate(ms):
        if a - 1 >= 0:  # raising: m -> m + 1 sits one row up
            plus[a - 1, a] = math.sqrt(j * (j + 1) - m * (m + 1))
    return 0.5 * (plus + plus.conj().T)


def expm_oracle(j: float, angles: EulerAngles) -> np.ndarray:
    """Dense-matrix rotation: phase diagonals around exp(i theta J_x).

    The i^(m'-m) entry phases of the two-level convention turn the middle
    rotation into an x-axis one; the outer diagonals carry the
    e^(i m phi) and e^(i m' psi) phases.
    """
    dim = round(2 * j) + 1
    ms = np.array([j - i for i in range(dim)])
    left = np.diag(np.exp(1j * ms * angles.phi))
    right = np.diag(np.exp(1j * ms * angles.psi))
    return left @ expm(1j * angles.theta * x_generator(j)) @ right


def random_propagator(seed: int) -> tuple[SimParams, float, Propagator]:
    rng = np.random.default_rng(seed)
    p = SimParams.from_detuning(
        float(rng.uniform(0.1, 1.0)),
        float(rng.uniform(-0.5, 0.5)),
        float(rng.uniform(0.0, 0.95)),
    )
    tau = float(rng.uniform(0.2, 12.0))
    return p, tau, propagator(tau, p)


class TestEulerAngles:
    def test_identity_propagator(self):
        u = Propagator(1.0 + 0j, 0.0j, 0.0j, 1.0 + 0j)
        angles = euler_angles(u)
        assert angles.theta == 0.0
        assert angles.phi + angles.psi == 0.0
        assert angles.phi - angles.psi == 0.0

    def test_full_flip_at_quarter_rabi_period(self):
        p = SimParams.from_detuning(0.25, 0.0, 0.5)
        tau = 0.5 * math.pi / 0.25
        angles = euler_angles(propagator(tau, p))
        assert angles.theta == pytest.approx(math.pi, abs=1e-6)
        assert math.sin(0.5 * angles.theta) ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_flip_probability_identity(self):
        for seed in range(8):
            p, tau, u = random_propagator(seed)
            angles = euler_angles(u)
            p_flip = float(
                evolve(SpinState(1.0 + 0j, 0.0j), p, [0.0, tau]).p_flip[-1]
            )
            assert abs(math.sin(0.5 * angles.theta) ** 2 - p_flip) < 1e-8

    def test_reconstruction_up_to_global_phase(self):
        for seed in range(8):
            _, _, u = random_propagator(seed)
            angles = euler_angles(u)
            d = wigner_d(0.5, angles).entries
            um = u.as_matrix()
            idx = np.unravel_index(np.argmax(np.abs(um)), um.shape)
            phase = um[idx] / d[idx]
            assert abs(abs(phase) - 1.0) < 1e-9
            assert np.max(np.abs(d * phase - um)) < 1e-8

    def test_rejects_non_unitary(self):
        with pytest.raises(DomainError):
            euler_angles(Propagator(1.0 + 0j, 0.0j, 0.0j, 0.5 + 0j))

    @pytest.mark.parametrize(
        "u", [Propagator(NAN, 0j, 0j, NAN), Propagator(1 + 0j, 0j, NAN, 1 + 0j)]
    )
    def test_rejects_non_finite(self, u):
        # A defect of nan used to pass the unitarity check and give theta nan.
        with pytest.raises(DomainError, match="not unitary"):
            euler_angles(u)


class TestWignerD:
    def test_half_matches_propagator(self):
        for seed in range(6):
            _, _, u = random_propagator(seed + 100)
            angles = euler_angles(u)
            d = wigner_d(0.5, angles).entries
            um = u.as_matrix()
            phase = um[0, 0] / d[0, 0] if abs(d[0, 0]) > 1e-12 else um[1, 0] / d[1, 0]
            assert np.max(np.abs(d * phase - um)) < 1e-8

    def test_zero_angle_identity_pattern(self):
        for j in (0.5, 1.0, 2.5):
            d = wigner_d(j, EulerAngles(phi=0.4, theta=0.0, psi=-0.9)).entries
            assert np.allclose(np.abs(d), np.eye(round(2 * j) + 1), atol=1e-14)

    def test_explicit_expm_oracle_quarter_turn(self):
        angles = EulerAngles(phi=0.0, theta=0.5 * math.pi, psi=0.0)
        got = wigner_d(1.0, angles).entries
        want = expm_oracle(1.0, angles)
        assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0, 5.0])
    def test_expm_oracle_general_angles(self, j):
        angles = EulerAngles(phi=0.7, theta=1.2, psi=-2.1)
        got = wigner_d(j, angles).entries
        want = expm_oracle(j, angles)
        assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0, 5.0])
    def test_unitary_rows(self, j):
        angles = EulerAngles(phi=-1.3, theta=0.8, psi=0.4)
        m = wigner_d(j, angles)
        probs = np.abs(m.entries) ** 2
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-10
        u = m.entries
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-9

    @pytest.mark.parametrize("j", [20.0, 22.0, 25.0])
    @pytest.mark.parametrize("theta", [1.693, 0.5 * math.pi])
    def test_high_spin_near_quarter_turn(self, j, theta):
        # Alternating factorial sums lose the 1e-10 row sums here from
        # J ~ 19; the coupling recursion must not.
        angles = EulerAngles(phi=0.7, theta=theta, psi=-2.1)
        got = wigner_d(j, angles).entries
        probs = np.abs(got) ** 2
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-10
        assert np.max(np.abs(got - expm_oracle(j, angles))) < 1e-10

    @pytest.mark.parametrize("j", [12.0, 25.0])
    def test_corner_entry_relative_accuracy(self, j):
        # |d_JJ|^2 = cos^(4J)(theta/2) is tiny near theta = pi, where an
        # absolute 1e-10 says nothing; ask for relative accuracy instead.
        theta = 2.86
        corner = abs(wigner_d(j, EulerAngles(0.0, theta, 0.0)).entries[0, 0]) ** 2
        want = math.cos(0.5 * theta) ** (4 * j)
        assert abs(corner - want) <= 1e-9 * want

    @pytest.mark.parametrize("j", [0.3, -0.5, 26.0])
    def test_rejects_bad_spin(self, j):
        with pytest.raises(DomainError):
            wigner_d(j, EulerAngles(0.0, 0.1, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["phi", "theta", "psi"])
    def test_rejects_non_finite_angles(self, name, bad):
        angles = {"phi": 0.3, "theta": 0.7, "psi": -0.2}
        # Warm the cache: the phi and psi cases then hit it for theta.
        wigner_d(1.0, EulerAngles(**angles))
        with pytest.raises(DomainError, match="must be finite"):
            wigner_d(1.0, EulerAngles(**{**angles, name: bad}))


class TestTransitionProbability:
    def test_half_flip_is_sine_squared(self):
        for theta in (0.0, 0.4, 1.7, math.pi):
            got = transition_probability_j(0.5, 0.5, -0.5, theta)
            assert got == pytest.approx(math.sin(0.5 * theta) ** 2, abs=1e-14)

    def test_zero_angle_is_kronecker_delta(self):
        j = 1.5
        for m in (-1.5, -0.5, 0.5, 1.5):
            for mp in (-1.5, -0.5, 0.5, 1.5):
                got = transition_probability_j(j, m, mp, 0.0)
                assert got == pytest.approx(1.0 if m == mp else 0.0, abs=1e-14)

    def test_half_turn_flips_projection(self):
        j = 1.0
        for m in (-1.0, 0.0, 1.0):
            for mp in (-1.0, 0.0, 1.0):
                got = transition_probability_j(j, m, mp, math.pi)
                assert got == pytest.approx(1.0 if mp == -m else 0.0, abs=1e-14)

    def test_row_sums(self):
        j = 1.0
        theta = 0.7
        for m in (-1.0, 0.0, 1.0):
            total = sum(
                transition_probability_j(j, m, mp, theta) for mp in (-1.0, 0.0, 1.0)
            )
            assert total == pytest.approx(1.0, abs=1e-10)

    @given(
        theta=st.floats(min_value=0.0, max_value=math.pi),
        j2=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_matrix_entries_and_symmetry(self, theta, j2):
        j = 0.5 * j2
        d = wigner_d(j, EulerAngles(0.0, theta, 0.0)).entries
        dim = round(2 * j) + 1
        for a in range(dim):
            for b in range(dim):
                m, mp = j - a, j - b
                prob = transition_probability_j(j, m, mp, theta)
                assert abs(prob - abs(d[a, b]) ** 2) < 1e-10
                mirrored = transition_probability_j(j, -m, -mp, theta)
                assert abs(prob - mirrored) < 1e-10

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_theta(self, theta):
        # nan used to come back as the probability, and inf as ValueError.
        with pytest.raises(DomainError, match="theta must be finite"):
            transition_probability_j(1.0, 1.0, 0.0, theta)

    def test_rejects_out_of_range_projection(self):
        with pytest.raises(DomainError):
            transition_probability_j(1.0, 2.0, 0.0, 0.3)
        with pytest.raises(DomainError):
            transition_probability_j(1.0, 0.5, 0.0, 0.3)


class TestPipeline:
    def test_propagator_to_spin_half_probability(self):
        for seed in range(10):
            p, tau, u = random_propagator(seed + 300)
            angles = euler_angles(u)
            prob = transition_probability_j(0.5, 0.5, -0.5, angles.theta)
            p_flip = float(
                evolve(SpinState(1.0 + 0j, 0.0j), p, [0.0, tau]).p_flip[-1]
            )
            assert abs(prob - p_flip) < 1e-8
