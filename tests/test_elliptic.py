"""Tests for the Jacobi elliptic functions and the quarter period K(k).

The independent oracles here are adaptive quadrature of the defining
integrals (scipy) and root-finding inversion of the incomplete integral;
the implementation under test never touches either path.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from ellipspin import (
    DomainError,
    jacobi,
    jacobi_identity_residuals,
    quarter_period,
)
from ellipspin.elliptic import _jacobi_grid

MODULI = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99]


def k_quadrature_oracle(k: float) -> float:
    val, _ = quad(
        lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
        0.0,
        0.5 * math.pi,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    return val


def sn_inversion_oracle(u: float, k: float) -> float:
    """Invert the incomplete integral int_0^x dt / sqrt((1-t^2)(1-k^2 t^2)) = u.

    Substituting t = sin(phi) makes the integrand smooth, so the
    quadrature-plus-root-finding inversion is clean to full precision.
    """

    def incomplete(phi: float) -> float:
        return quad(
            lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
            0.0,
            phi,
            epsabs=1e-13,
            epsrel=1e-13,
        )[0]

    phi_star = brentq(lambda phi: incomplete(phi) - u, 0.0, 0.5 * math.pi, xtol=1e-14)
    return math.sin(phi_star)


class TestQuarterPeriod:
    def test_k_zero_is_half_pi(self):
        assert quarter_period(0.0) == 0.5 * math.pi

    def test_matches_quadrature_oracle(self):
        for k in (0.3, 0.5, 0.9):
            assert quarter_period(k) == pytest.approx(k_quadrature_oracle(k), abs=1e-10)

    @pytest.mark.parametrize("bad", [1.0, 1.5, -0.1, math.nan, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            quarter_period(bad)


class TestJacobi:
    @pytest.mark.parametrize("k", MODULI + [1.0])
    def test_origin(self, k):
        trip = jacobi(0.0, k)
        assert trip.as_tuple() == (0.0, 1.0, 1.0)

    def test_trigonometric_limit(self):
        for u in np.linspace(-7.0, 7.0, 29):
            trip = jacobi(float(u), 0.0)
            assert trip.sn == math.sin(u)
            assert trip.cn == math.cos(u)
            assert trip.dn == 1.0

    def test_hyperbolic_limit_exact(self):
        # Pulse limit served by closed forms, exact to machine precision.
        for u in np.linspace(-10.0, 10.0, 41):
            trip = jacobi(float(u), 1.0)
            assert trip.sn == math.tanh(u)
            assert trip.cn == 1.0 / math.cosh(u)
            assert trip.dn == 1.0 / math.cosh(u)

    def test_identities_on_grid(self):
        worst = 0.0
        for k in MODULI:
            big_k = quarter_period(k) if k else 0.5 * math.pi
            for u in np.linspace(-4.0 * big_k, 4.0 * big_k, 101):
                worst = max(worst, *jacobi_identity_residuals(jacobi(float(u), k), k))
        assert worst < 1e-12

    def test_pulse_limit_beyond_cosh_overflow(self):
        # cosh overflows past |u| = 710.47; sech keeps going to 0 from above.
        for u in (709.9, 710.0, 710.5, 745.0, 800.0, 1e6):
            for sign in (1.0, -1.0):
                trip = jacobi(sign * u, 1.0)
                assert trip.sn == sign * 1.0
                assert trip.cn == trip.dn
                assert 0.0 <= trip.cn <= 1e-300
        assert jacobi(800.0, 1.0).cn == 0.0
        assert jacobi(710.0, 1.0).cn == pytest.approx(2.0 * math.exp(-710.0), rel=1e-15)

    def test_dn_near_unit_modulus_against_mpmath(self):
        # dn^2 = 1 - k^2 sn^2 cancels where |sn| is near 1, losing about
        # 1e-16 / k' (1e-9 at k = 1 - 1e-15); the worst points sit at odd
        # multiples of K, so those are sampled too.
        import mpmath as mp

        worst = 0.0
        with mp.workdps(40):
            for j in range(3, 16):
                k = 1.0 - 10.0**-j
                m = mp.mpf(k) ** 2
                big_k = quarter_period(k)
                odd = [q * big_k for q in (-3, -1, 1, 3) if abs(q * big_k) <= 30.0]
                for u in np.linspace(-30.0, 30.0, 241).tolist() + odd:
                    ref = mp.ellipfun("dn", mp.mpf(u), m=m)
                    worst = max(worst, abs(jacobi(u, k).dn - float(ref)))
        assert worst <= 1e-12

    def test_dn_stays_in_band(self):
        for k in MODULI:
            kp = math.sqrt(1.0 - k * k)
            big_k = quarter_period(k) if k else 0.5 * math.pi
            for u in np.linspace(-2.0 * big_k, 2.0 * big_k, 57):
                dn = jacobi(float(u), k).dn
                assert kp - 1e-12 <= dn <= 1.0 + 1e-12

    def test_periodicity(self):
        for k in (0.3, 0.7, 0.95):
            period = 4.0 * quarter_period(k)
            for u in (-3.2, 0.4, 1.7, 5.9):
                a = jacobi(u, k)
                b = jacobi(u + period, k)
                assert abs(a.sn - b.sn) < 1e-10
                assert abs(a.cn - b.cn) < 1e-10
                assert abs(a.dn - b.dn) < 1e-10

    def test_against_integral_inversion(self):
        # Addition-free cross-check on 20 points: sn from quadrature + Brent.
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = float(rng.uniform(0.1, 0.95))
            u = float(rng.uniform(0.05, 0.95)) * quarter_period(k)
            assert jacobi(u, k).sn == pytest.approx(sn_inversion_oracle(u, k), abs=1e-9)

    def test_half_argument_composition(self):
        # Doubling from tau/2 values must reproduce the direct evaluation.
        rng = np.random.default_rng(11)
        for _ in range(25):
            k = float(rng.uniform(0.05, 0.95))
            tau = float(rng.uniform(-8.0, 8.0))
            s, c, d = jacobi(0.5 * tau, k).as_tuple()
            denom = 1.0 - (k * s * s) ** 2
            sn_composed = 2.0 * s * c * d / denom
            dn_composed = (d * d - (k * s * c) ** 2) / denom
            direct = jacobi(tau, k)
            assert abs(direct.sn - sn_composed) < 1e-10
            assert abs(direct.dn - dn_composed) < 1e-10

    @pytest.mark.parametrize("bad_u", [math.nan, math.inf, -math.inf])
    def test_nonfinite_argument_rejected(self, bad_u):
        with pytest.raises(DomainError):
            jacobi(bad_u, 0.5)

    @pytest.mark.parametrize("bad_k", [-0.2, 1.2, math.nan])
    def test_bad_modulus_rejected(self, bad_k):
        with pytest.raises(DomainError):
            jacobi(0.3, bad_k)

    @given(
        u=st.floats(min_value=-30.0, max_value=30.0),
        k=st.floats(min_value=0.0, max_value=0.99),
    )
    @settings(max_examples=300, deadline=None)
    def test_identities_property(self, u, k):
        r1, r2 = jacobi_identity_residuals(jacobi(u, k), k)
        assert r1 < 1e-12
        assert r2 < 1e-12


# Largest deviation allowed between a per-sample array and its scalar
# reference: numpy's sin, arcsin, cos, tanh and exp may round differently
# from math's, by about an ulp per step of the descent.
GRID_BOUND = 1e-14


def largest_gap(grid, scalar) -> float:
    """max |grid - scalar| over sn, cn and dn; ``scalar`` is a list of triples."""
    return max(
        float(np.max(np.abs(np.asarray(getattr(grid, name)) - [getattr(t, name) for t in scalar])))
        for name in ("sn", "cn", "dn")
    )


class TestJacobiGrid:
    """The grid descent agrees with the scalar descent, element by element."""

    @pytest.mark.parametrize("k", [0.0, 1e-8, 0.3, 0.7, 0.999, 1.0 - 1e-12, 1.0])
    def test_agrees_with_scalar(self, k):
        rng = np.random.default_rng(7)
        parts = [rng.uniform(-200.0, 200.0, 4000), [0.0, -0.0, 200.0, -200.0, 1e-300]]
        # Past |u| = 710.47 cosh overflows; the k = 1 sech switches form at 710.
        tail = np.array([709.9, 710.0, 710.5, 745.2, 800.0, 1e4, 1e6])
        parts += [rng.uniform(-2000.0, 2000.0, 500), tail, -tail]
        sides = [-math.inf, math.inf]
        parts += [np.nextafter(710.0, sides), np.nextafter(-710.0, sides)]
        if k < 1.0:
            m = np.arange(-12, 13)
            big_k = quarter_period(k)
            parts += [m * big_k, m * (2.0 * big_k), m * (4.0 * big_k)]
            parts += [np.nextafter(m * big_k, math.inf), np.nextafter(m * big_k, -math.inf)]
        u = np.concatenate(parts)
        assert largest_gap(_jacobi_grid(u, k), [jacobi(x, k) for x in u.tolist()]) <= GRID_BOUND

    @given(
        u=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=20),
        k=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_scalar_property(self, u, k):
        # As k -> 1 the last descent step takes asin of values within
        # 1 - c1/a1 ~ 2 k' of +-1, k' = sqrt(1 - k^2), and magnifies one
        # rounding of sin by up to 1 / sqrt(4 k'); the scalar descent carries
        # that error too.  At k = 1 - 1.9e-15, u = 855.52 its cn is 7.0e-14
        # from mpmath, the grid's 6.7e-15.
        kp = math.sqrt((1.0 - k) * (1.0 + k))
        bound = GRID_BOUND + (2.2e-16 / math.sqrt(kp) if kp > 0.0 else 0.0)
        grid = _jacobi_grid(np.array(u), k)
        assert largest_gap(grid, [jacobi(x, k) for x in u]) <= bound

    def test_identity_residuals_elementwise(self):
        u = np.linspace(-5.0, 5.0, 41)
        r1, r2 = jacobi_identity_residuals(_jacobi_grid(u, 0.7), 0.7)
        scalar = [jacobi_identity_residuals(jacobi(x, 0.7), 0.7) for x in u.tolist()]
        assert np.max(np.abs(r1 - [r[0] for r in scalar])) <= GRID_BOUND
        assert np.max(np.abs(r2 - [r[1] for r in scalar])) <= GRID_BOUND

    @pytest.mark.parametrize("bad_u", [math.nan, math.inf, -math.inf])
    def test_nonfinite_argument_rejected(self, bad_u):
        with pytest.raises(DomainError):
            _jacobi_grid(np.array([0.0, bad_u]), 0.5)

    @pytest.mark.parametrize("bad_k", [-0.2, 1.2, math.nan])
    def test_bad_modulus_rejected(self, bad_k):
        with pytest.raises(DomainError):
            _jacobi_grid(np.array([0.3]), bad_k)


class TestIdentityResiduals:
    def test_exact_triple(self):
        from ellipspin import EllipticTriple

        assert jacobi_identity_residuals(EllipticTriple(0.0, 1.0, 1.0), 0.3) == (0.0, 0.0)

    def test_actual_evaluation(self):
        r1, r2 = jacobi_identity_residuals(jacobi(1.2, 0.7), 0.7)
        assert r1 < 1e-12
        assert r2 < 1e-12

    def test_corrupted_triple(self):
        from ellipspin import EllipticTriple

        r1, _ = jacobi_identity_residuals(EllipticTriple(0.5, 0.5, 1.0), 0.5)
        assert r1 == pytest.approx(0.5, abs=0.0)
