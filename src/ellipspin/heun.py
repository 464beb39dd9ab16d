"""Reduction of the flip-amplitude equation to a four-point Fuchsian form.

Away from resonance the second-order equation for the flip amplitude has
elliptic-function coefficients.  A change of independent variable maps it
to an algebraic equation with regular singular points at 0, 1, 1/k^2 and
infinity; peeling off a power-law prefactor with one characteristic
exponent at each finite singular point leaves the canonical four-point
equation

    v'' + (gamma/z + delta/(z-1) + eps/(z-1/k^2)) v'
        + (alpha beta z - q_a) / (z (z-1) (z-1/k^2)) v = 0.

The module computes the algebraic-form coefficients, the characteristic
exponents, the canonical parameters for any of the eight exponent
selections, local Frobenius/Taylor series, analytic continuation of a
fundamental system along complex paths, and finally an independent
recomputation of the spin-flip probability that the ODE simulator can be
checked against.

Coordinate conventions.  The change of variable starts from the explicit
expression

    z(tau) = ((1+k) sn(tau/2) - i cn(tau/2) dn(tau/2))
             / (sqrt(k) (1 + k sn(tau/2)^2)),

which traces the circle |z| = k^(-1/2) as tau runs over the reals.  The
algebraic equation lives in the squared coordinate Z = z^2 (the squaring
folds the would-be singular points at sn = +-1 and sn = +-1/k onto
{1, 1/k^2}), which traces the circle |Z| = 1/k; `heun_coordinate` returns
Z and every series or continuation routine works in Z.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Sequence

from . import spin_dynamics as sd
from .elliptic import jacobi, quarter_period
from .errors import DomainError, LogarithmicCaseError, PathError, StepError

#: The eight exponent selections: sign of (p, q, r) in the prefactor.
SELECTIONS = ("+++", "+-+", "++-", "+--", "-++", "--+", "-+-", "---")

DEFAULT_SELECTION = "---"
DEFAULT_N_TERMS = 48
DEFAULT_STEP_FRACTION = 0.5


@dataclass(frozen=True)
class AlgebraicCoefficients:
    """Partial-fraction data of the algebraic (pre-canonical) equation.

    The first-derivative coefficient is a1/z + a2/(z-1) + a3/(z-1/k^2)
    with a1 = a2 = a3 = 1/2; the zeroth-order coefficient has double
    poles b1, b2, b3 and simple poles c1, c2, c3 at the same points.
    small_a and small_b are the detuning combinations D/(4w) and
    (D/w)^2/4 the b's and c's are built from.
    """

    a1: float
    a2: float
    a3: float
    b1: float
    b2: float
    b3: float
    c1: float
    c2: float
    c3: float
    small_a: float
    small_b: float


@dataclass(frozen=True)
class ExponentSet:
    """Characteristic exponent pairs at z = 0, 1, 1/k^2 and infinity."""

    p_plus: float
    p_minus: float
    q_plus: float
    q_minus: float
    r_plus: float
    r_minus: float
    rho_inf_plus: float
    rho_inf_minus: float

    def pick(self, selection: str) -> tuple[float, float, float]:
        _validate_selection(selection)
        p = self.p_plus if selection[0] == "+" else self.p_minus
        q = self.q_plus if selection[1] == "+" else self.q_minus
        r = self.r_plus if selection[2] == "+" else self.r_minus
        return (p, q, r)

    @property
    def has_degenerate_pair(self) -> bool:
        """True when any exponent pair coincides (double indicial root)."""
        return (
            abs(self.p_plus - self.p_minus) < 1e-14
            or abs(self.q_plus - self.q_minus) < 1e-14
            or abs(self.r_plus - self.r_minus) < 1e-14
            or abs(self.rho_inf_plus - self.rho_inf_minus) < 1e-14
        )


@dataclass(frozen=True)
class HeunData:
    """Canonical four-point-equation parameters for one exponent selection."""

    gamma: float
    delta: float
    epsilon: float
    alpha: float
    beta: float
    q_a: float
    singular_a: float  # the third finite singular point, 1/k^2
    selection: str
    p: float
    q: float
    r: float

    @property
    def singular_points(self) -> tuple[float, float, float]:
        return (0.0, 1.0, self.singular_a)


@dataclass(frozen=True)
class LocalSeries:
    """Truncated series solution about one center.

    The solution is (z - center)^exponent * sum_n coefficients[n]
    (z - center)^n, convergent for |z - center| < radius.
    """

    center: complex
    exponent: float
    coefficients: tuple[complex, ...]
    radius: float

    def value(self, z: complex) -> complex:
        return self._sum(z, 0)

    def derivative(self, z: complex) -> complex:
        return self._sum(z, 1)

    def second_derivative(self, z: complex) -> complex:
        return self._sum(z, 2)

    def _sum(self, z: complex, order: int) -> complex:
        """The ``order``-th derivative at z by one Horner loop.

        Term n is weighted by the falling factorial (n + rho)(n + rho - 1)
        ... of ``order`` factors.  With exponent 0 the first ``order``
        terms vanish and are skipped, so the center itself evaluates.  A
        singular center with exponent - order < 0 has no finite value and
        raises DomainError.
        """
        zeta = complex(z) - self.center
        rho = self.exponent
        if zeta == 0 and rho != 0.0 and rho < order:
            raise DomainError(
                f"order-{order} derivative with exponent {rho!r} is infinite "
                f"at its center {self.center!r}"
            )
        first = order if rho == 0.0 else 0
        acc = 0.0j
        for n in range(len(self.coefficients) - 1, first - 1, -1):
            weight = math.prod(n + rho - j for j in range(order))
            acc = acc * zeta + weight * self.coefficients[n]
        if rho == 0.0:
            return acc
        return zeta ** (rho - order) * acc


@dataclass(frozen=True)
class Continuation:
    """Fundamental-system values at the end of a continuation path."""

    v1: complex
    dv1: complex
    v2: complex
    dv2: complex
    wronskian_drift: float


def _validate_selection(selection: str) -> None:
    if selection not in SELECTIONS:
        raise DomainError(
            f"selection must be one of {SELECTIONS}, got {selection!r}"
        )


def _require_open_modulus(k: float) -> float:
    """``k`` as a float, rejected with DomainError unless 0 < k < 1 and k^2 is normal.

    Below about k = 1.49e-154, k^2 is subnormal or zero, and the singular
    point 1/k^2 is no finite double.
    """
    k = float(k)
    if not (math.isfinite(k) and 0.0 < k < 1.0 and k * k >= sys.float_info.min):
        raise DomainError(
            f"this reduction requires 0 < k < 1 and k^2 >= {sys.float_info.min!r}, got {k!r}"
        )
    return k


def _z_and_rate(tau: float, k: float) -> tuple[complex, complex]:
    """z(tau) of the module docstring and dz/dtau from one `jacobi` call.

    k is already validated.  The derivative follows from the sn/cn/dn
    derivative identities.
    """
    trip = jacobi(0.5 * tau, k)
    s, c, d = trip.sn, trip.cn, trip.dn
    num = complex((1.0 + k) * s, -c * d)
    den = 1.0 + k * s * s
    dnum = complex(0.5 * (1.0 + k) * c * d, 0.5 * s * (d * d + k * k * c * c))
    dden = k * s * c * d
    return num / (math.sqrt(k) * den), (dnum * den - num * dden) / (math.sqrt(k) * den * den)


def heun_coordinate(tau: float, k: float) -> complex:
    """Independent coordinate Z = z^2 of the algebraic equation at real tau."""
    z = _z_and_rate(tau, _require_open_modulus(k))[0]
    return z * z


def heun_coordinate_derivative(tau: float, k: float) -> complex:
    """d/dtau of `heun_coordinate`; satisfies (dZ/dtau)^2 = Z(1-Z)(1-k^2 Z)."""
    z, dz = _z_and_rate(tau, _require_open_modulus(k))
    return 2.0 * z * dz


def algebraic_coefficients(params: sd.SimParams) -> AlgebraicCoefficients:
    """Partial-fraction coefficients of the algebraic form of the equation.

    Derived by transforming the flip-amplitude equation to the squared
    coordinate and decomposing; the simple-pole residues obey
    c1 + c2 + c3 = 0, which is asserted here (the sum rule is what makes
    the equation Fuchsian with only the four stated singular points).
    """
    k = _require_open_modulus(params.k)
    d = params.delta_over_omega
    a = d / 4.0
    b = d * d / 4.0
    omega2 = params.rabi_over_omega ** 2
    k2 = k * k

    bracket = a * (k2 - 1.0) - b * (k2 + 1.0) + omega2
    c1 = 2.0 * (a - b) - 2.0 * b * k2 + omega2
    c2 = -2.0 * (a - b) - (a + b) + bracket / (k2 - 1.0)
    c3 = k2 * (a + b) - k2 * bracket / (k2 - 1.0)
    if abs(c1 + c2 + c3) > 1e-12 * max(1.0, abs(c1), abs(c2), abs(c3)):
        raise AssertionError(
            f"simple-pole residues must sum to zero, got {c1 + c2 + c3!r}"
        )
    return AlgebraicCoefficients(
        a1=0.5,
        a2=0.5,
        a3=0.5,
        b1=a - b,
        b2=a - b,
        b3=-(a + b),
        c1=c1,
        c2=c2,
        c3=c3,
        small_a=a,
        small_b=b,
    )


def indicial_exponents(params: sd.SimParams) -> ExponentSet:
    """Closed-form characteristic exponents at the four singular points.

    Each pair solves rho (rho - 1) + rho/2 + B = 0 with the matching
    double-pole coefficient B; the pairs at z = 0 and z = 1 coincide, as
    do the pair at z = 1/k^2 and the pair at infinity.
    """
    d = params.delta_over_omega
    half_d = 0.5 * d
    spread01 = abs(half_d - 0.25)
    spread_inf = abs(half_d + 0.25)
    return ExponentSet(
        p_plus=0.25 + spread01,
        p_minus=0.25 - spread01,
        q_plus=0.25 + spread01,
        q_minus=0.25 - spread01,
        r_plus=0.25 + spread_inf,
        r_minus=0.25 - spread_inf,
        rho_inf_plus=0.25 + spread_inf,
        rho_inf_minus=0.25 - spread_inf,
    )


def heun_parameters(params: sd.SimParams, selection: str = DEFAULT_SELECTION) -> HeunData:
    """Canonical parameters for one of the eight exponent selections.

    gamma = 2p + 1/2, delta = 2q + 1/2, eps = 2r + 1/2,
    alpha/beta = rho_inf(+/-) + p + q + r, and the accessory parameter

        q_a = gamma r + p/2 - (c1 - gamma q - p/2) / k^2.

    The exponent-sum relation gamma + delta + eps = alpha + beta + 1 is
    asserted; a violation signals an implementation bug, not bad input.
    """
    k = _require_open_modulus(params.k)
    exps = indicial_exponents(params)
    p, q, r = exps.pick(selection)
    coeffs = algebraic_coefficients(params)

    gamma = 2.0 * p + 0.5
    delta = 2.0 * q + 0.5
    epsilon = 2.0 * r + 0.5
    alpha = exps.rho_inf_plus + p + q + r
    beta = exps.rho_inf_minus + p + q + r
    q_a = gamma * r + 0.5 * p - (coeffs.c1 - gamma * q - 0.5 * p) / (k * k)

    fuchs = gamma + delta + epsilon - (alpha + beta + 1.0)
    if abs(fuchs) > 1e-12:
        raise AssertionError(f"exponent-sum relation violated by {fuchs!r}")
    return HeunData(
        gamma=gamma,
        delta=delta,
        epsilon=epsilon,
        alpha=alpha,
        beta=beta,
        q_a=q_a,
        singular_a=1.0 / (k * k),
        selection=selection,
        p=p,
        q=q,
        r=r,
    )


def w_factor(z: complex, data: HeunData) -> complex:
    """Prefactor z^p (z-1)^q (z-1/k^2)^r on principal branches."""
    z = complex(z)
    out = 1.0 + 0.0j
    for s, e in ((0.0, data.p), (1.0, data.q), (data.singular_a, data.r)):
        base = z - s
        if base == 0:
            if e < 0.0:
                raise DomainError(f"pole of the prefactor at z = {s!r}")
            if e > 0.0:
                return 0.0j
            continue
        out *= cmath.exp(e * cmath.log(base))
    return out


def _local_polynomials(
    data: HeunData, center: complex
) -> tuple[list[complex], list[complex], list[complex]]:
    """Coefficients of the three equation polynomials expanded about center.

    With A = 1/k^2 the equation in polynomial form reads
    P3 v'' + P2 v' + P1 v = 0 where P3 = z(z-1)(z-A),
    P2 = gamma (z-1)(z-A) + delta z(z-A) + eps z(z-1),
    P1 = alpha beta z - q_a.
    """
    c = complex(center)
    big_a = data.singular_a
    p3 = [
        c * (c - 1.0) * (c - big_a),
        (c - 1.0) * (c - big_a) + c * (c - big_a) + c * (c - 1.0),
        3.0 * c - (1.0 + big_a),
        1.0 + 0j,
    ]
    p2 = [
        data.gamma * (c - 1.0) * (c - big_a)
        + data.delta * c * (c - big_a)
        + data.epsilon * c * (c - 1.0),
        data.gamma * (2.0 * c - 1.0 - big_a)
        + data.delta * (2.0 * c - big_a)
        + data.epsilon * (2.0 * c - 1.0),
        complex(data.gamma + data.delta + data.epsilon),
    ]
    ab = data.alpha * data.beta
    p1 = [ab * c - data.q_a, complex(ab)]
    return p3, p2, p1


def _frobenius_coefficients(
    data: HeunData, center: complex, rho: float, n_terms: int
) -> list[complex]:
    """Series coefficients about a singular center with leading exponent rho.

    The recurrence follows from substituting the series into the equation;
    because the cubic polynomial vanishes at the center, each coefficient
    depends on the two before it.  A vanishing indicial denominator means
    the exponents differ by an integer and the requested solution needs a
    logarithm, which is out of scope here.
    """
    p3, p2, p1 = _local_polynomials(data, center)
    a = [1.0 + 0j] + [0.0j] * (n_terms - 1)
    for n in range(1, n_terms):
        s = n + rho
        den = s * (s - 1.0) * p3[1] + s * p2[0]
        acc = 0.0j
        i = n - 1
        acc += a[i] * ((i + rho) * (i + rho - 1.0) * p3[2] + (i + rho) * p2[1] + p1[0])
        if n >= 2:
            i = n - 2
            acc += a[i] * (
                (i + rho) * (i + rho - 1.0) * p3[3] + (i + rho) * p2[2] + p1[1]
            )
        if abs(den) < 1e-12 * (1.0 + abs(acc)):
            raise LogarithmicCaseError(
                f"indicial denominator vanishes at order {n} "
                f"(exponents differ by an integer at center {center!r})"
            )
        a[n] = -acc / den
    return a


def _taylor_coefficients(
    data: HeunData,
    center: complex,
    a0: complex,
    a1: complex,
    b0: complex,
    b1: complex,
    n_terms: int,
) -> tuple[list[complex], list[complex]]:
    """Taylor coefficients of two solutions about an ordinary center.

    The solutions start from (v, v') = (a0, a1) and (b0, b1) at the
    center.  They obey the same three-term recurrence, so each order's
    weights are formed once and applied to both coefficient lists.
    """
    p3, p2, p1 = _local_polynomials(data, center)
    if p3[0] == 0:
        raise DomainError(f"center {center!r} is a singular point")
    a = [complex(a0), complex(a1)]
    b = [complex(b0), complex(b1)]
    for m in range(2, n_terms):
        i = m - 1
        w1 = i * (i - 1.0) * p3[1] + i * p2[0]
        i = m - 2
        w2 = i * (i - 1.0) * p3[2] + i * p2[1] + p1[0]
        acc_a = a[m - 1] * w1 + a[m - 2] * w2
        acc_b = b[m - 1] * w1 + b[m - 2] * w2
        if m >= 3:
            i = m - 3
            w3 = i * (i - 1.0) * p3[3] + i * p2[2] + p1[1]
            acc_a += a[i] * w3
            acc_b += b[i] * w3
        den = m * (m - 1.0) * p3[0]
        a.append(-acc_a / den)
        b.append(-acc_b / den)
    return a, b


def _nearest_other_singular(center: complex, points: Sequence[float]) -> float:
    dists = [abs(complex(center) - s) for s in points]
    positive = [d for d in dists if d > 1e-12]
    return min(positive)


def local_series(
    data: HeunData,
    center: complex,
    exponent_choice: int = 0,
    n_terms: int = 24,
) -> LocalSeries:
    """Series solution about a singular or an ordinary center.

    At a singular center ``exponent_choice`` selects the local exponent:
    0 gives the analytic exponent 0, 1 gives the second exponent
    (1 - gamma, 1 - delta or 1 - eps depending on the point).  At an
    ordinary center the series is a Taylor expansion and the choice seeds
    the fundamental pair: 0 means (v, v') = (1, 0), 1 means (0, 1).
    """
    if n_terms < 8:
        raise DomainError(f"need at least 8 terms, got {n_terms}")
    if exponent_choice not in (0, 1):
        raise DomainError(f"exponent_choice must be 0 or 1, got {exponent_choice!r}")
    center = complex(center)
    points = data.singular_points
    radius = _nearest_other_singular(center, points)

    second_exponent = {
        0: 1.0 - data.gamma,
        1: 1.0 - data.delta,
        2: 1.0 - data.epsilon,
    }
    singular_index = None
    for idx, s in enumerate(points):
        if abs(center - s) <= 1e-12:
            singular_index = idx
            break

    if singular_index is None:
        coeffs = _taylor_coefficients(data, center, 1.0, 0.0, 0.0, 1.0, n_terms)[exponent_choice]
        return LocalSeries(center=center, exponent=0.0, coefficients=tuple(coeffs), radius=radius)

    rho = 0.0 if exponent_choice == 0 else second_exponent[singular_index]
    exact_center = complex(points[singular_index])
    coeffs = _frobenius_coefficients(data, exact_center, rho, n_terms)
    return LocalSeries(center=exact_center, exponent=rho, coefficients=tuple(coeffs), radius=radius)


def equation_residual(data: HeunData, series: LocalSeries, z: complex) -> float:
    """|v'' + p(z) v' + q(z) v| of the canonical equation for a series value.

    Raises DomainError at a singular point, where the coefficients are
    infinite.
    """
    z = complex(z)
    if z in data.singular_points:
        raise DomainError(f"the equation is singular at z = {z!r}")
    big_a = data.singular_a
    v = series.value(z)
    dv = series.derivative(z)
    ddv = series.second_derivative(z)
    pz = data.gamma / z + data.delta / (z - 1.0) + data.epsilon / (z - big_a)
    qz = (data.alpha * data.beta * z - data.q_a) / (z * (z - 1.0) * (z - big_a))
    return abs(ddv + pz * dv + qz * v)


def _min_singular_distance(z: complex, points: Sequence[float]) -> float:
    return min(abs(z - s) for s in points)


def continue_along_path(
    data: HeunData,
    path: Sequence[complex],
    n_terms: int = DEFAULT_N_TERMS,
    step_fraction: float = DEFAULT_STEP_FRACTION,
) -> Continuation:
    """Continue the canonical fundamental system along a polyline.

    Initial conditions at ``path[0]`` are v1 = 1, v1' = 0 and v2 = 0,
    v2' = 1.  Each Taylor re-expansion step is at most ``step_fraction``
    times the distance to the nearest singular point; longer polyline
    legs are subdivided automatically.  The Wronskian is tracked along
    the way and compared with its closed form implied by the
    first-derivative coefficient; disagreement beyond 1e-8 raises
    StepError.
    """
    if not 0.0 < step_fraction < 0.95:
        raise DomainError(f"step_fraction must lie in (0, 0.95), got {step_fraction!r}")
    if n_terms < 8:
        raise DomainError(f"need at least 8 terms, got {n_terms}")
    if len(path) == 0:
        raise DomainError("path must contain at least one point")
    points = data.singular_points
    for zp in path:
        if _min_singular_distance(complex(zp), points) <= 1e-9:
            raise PathError(f"path point {zp!r} is on (or at) a singular point")

    zc = complex(path[0])
    v1, dv1 = 1.0 + 0j, 0.0j
    v2, dv2 = 0.0j, 1.0 + 0j

    # Wronskian bookkeeping: W(z) * (z)^gamma (z-1)^delta (z-A)^eps is a
    # path constant, so log W relative to the start is minus the
    # branch-continuous increment of that product's logarithm.
    w_exponents = (data.gamma, data.delta, data.epsilon)
    log_w_expected = 0.0j
    drift = 0.0

    for leg_end in path[1:]:
        target = complex(leg_end)
        while zc != target:
            dist = _min_singular_distance(zc, points)
            max_step = step_fraction * dist
            span = target - zc
            if abs(span) <= max_step:
                znext = target
            else:
                znext = zc + span / abs(span) * max_step
            if znext == zc:
                raise StepError(f"step underflow near z = {zc!r}")
            zeta = znext - zc

            c1, c2 = _taylor_coefficients(data, zc, v1, dv1, v2, dv2, n_terms)

            # Convergence guard: the trailing terms must be negligible at
            # zeta.  Their sum (|c_N| r + |c_N-1|) r^(N-1), r = |zeta|, is
            # formed through logarithms, because r^n alone overflows on the
            # long steps taken at tiny k; a sum that would overflow is
            # capped far above the bound, and a nan fails it.
            scale = max(abs(v1), abs(dv1), abs(v2), abs(dv2), 1e-300)
            r = abs(zeta)
            head = (abs(c1[-1]) + abs(c2[-1])) * r + abs(c1[-2]) + abs(c2[-2])
            log_tail = math.log(head) + (n_terms - 2) * math.log(r) if head else -math.inf
            tail = math.exp(min(log_tail, 709.0))
            if not tail <= 1e-9 * scale:
                raise StepError(
                    f"series step from {zc!r} to {znext!r} did not converge "
                    f"(tail {tail!r} vs scale {scale!r})"
                )

            # Both series and their derivatives at zeta, by one Horner loop.
            v1 = dv1 = v2 = dv2 = 0.0j
            for n in range(n_terms - 1, 0, -1):
                v1 = v1 * zeta + c1[n]
                dv1 = dv1 * zeta + n * c1[n]
                v2 = v2 * zeta + c2[n]
                dv2 = dv2 * zeta + n * c2[n]
            v1 = v1 * zeta + c1[0]
            v2 = v2 * zeta + c2[0]

            for e, s in zip(w_exponents, points):
                log_w_expected -= e * cmath.log((znext - s) / (zc - s))
            zc = znext

            w_actual = v1 * dv2 - v2 * dv1
            w_expected = cmath.exp(log_w_expected)
            drift = max(drift, abs(w_actual / w_expected - 1.0))
            if drift > 1e-8:
                raise StepError(
                    f"Wronskian drifted by {drift!r} at z = {zc!r}; continuation unreliable"
                )

    return Continuation(v1=v1, dv1=dv1, v2=v2, dv2=dv2, wronskian_drift=drift)


def coordinate_path(tau: float, k: float, *, start: float = 0.0) -> list[complex]:
    """Waypoints of the squared coordinate from time ``start`` to ``tau``.

    Spacing adapts to the local speed of the coordinate and to the
    distance from the singular points so that consecutive waypoints are
    comfortably inside each other's convergence disks.  Each waypoint
    costs one `jacobi` call: its z and dz/dtau also set the next step.
    ``start`` must be finite with 0 <= start <= tau; the default path
    begins at time 0.
    """
    k = _require_open_modulus(k)
    tau = sd.require_tau(tau)
    start = float(start)
    if not (math.isfinite(start) and 0.0 <= start <= tau):
        raise DomainError(f"start must be finite with 0 <= start <= tau = {tau!r}, got {start!r}")
    points = (0.0, 1.0, 1.0 / (k * k))
    t = start
    z, dz = _z_and_rate(start, k)
    out = [z * z]
    while t < tau:
        dist = _min_singular_distance(out[-1], points)
        speed = abs(2.0 * z * dz)
        dt = 0.4 * DEFAULT_STEP_FRACTION * dist / max(speed, 1e-9)
        dt = min(max(dt, 1e-4), 0.2, tau - t)
        t += dt
        z, dz = _z_and_rate(t, k)
        out.append(z * z)
    return out


def _floquet_power(m: tuple[complex, ...], n: int) -> tuple[tuple[complex, ...], complex]:
    """(m^n, theta) for a row-major 2 x 2 complex matrix m with det m != 0.

    With s = sqrt(det m), m / s lies in SL(2, C): its traceless part
    X = m / s - c I, c = tr(m / s) / 2 = cos(theta), squares to
    -sin(theta)^2 I.  So (m / s)^n = cos(n theta) I + (sin(n theta) /
    sin(theta)) X, and at sin(theta) = 0, where c = +-1, it is
    c^n I + n c^(n-1) X with c^n = cos(n theta), exact at m = +-I.
    sin(theta) comes from the entries of X, not from 1 - c^2, which
    cancels near c = +-1.  theta is the Floquet angle of m; the power
    costs the same for any n.
    """
    m11, m12, m21, m22 = m
    s = cmath.sqrt(m11 * m22 - m12 * m21)
    c = 0.5 * (m11 + m22) / s
    x11, x12, x21 = 0.5 * (m11 - m22) / s, m12 / s, m21 / s
    sin_theta = cmath.sqrt(-(x11 * x11 + x12 * x21))
    theta = -1j * cmath.log(c + 1j * sin_theta)
    diag = cmath.cos(n * theta)
    off = cmath.sin(n * theta) / sin_theta if sin_theta else n * diag / c
    scale = s**n
    diag, off = scale * diag, scale * off
    return (diag + off * x11, off * x12, off * x21, diag - off * x11), theta


def flip_probability_heun(
    tau: float, params: sd.SimParams, selection: str = DEFAULT_SELECTION
) -> float:
    """Spin-flip probability recomputed through the Fuchsian reduction.

    A fundamental system of the canonical equation is continued from the
    coordinate of tau = 0 along the physical coordinate path to the
    coordinate of ``tau``; the probability is assembled from the
    continued values, the prefactor's modulus at both ends, and the
    analytic coordinate velocity at the start.  Independent of the ODE
    integrator end to end, which is what makes it a meaningful cross-check.

    The coordinate closes after T = 4K(k), and the equation's coefficients
    are rational in it, so with tau = n T + r the system is continued at
    most once round the loop: F along the path to r, G along the rest of
    the loop back to the start, and the data at tau are F (G F)^n, the
    power in closed form through the loop's Floquet angle (see
    `_floquet_power`).  Below one loop (n = 0) this is the direct
    continuation.  The cost follows one loop, not the horizon; errors
    compose about n-fold.  A composed determinant that leaves its closed
    form by more than 1e-8, or overflows, or a probability above 1 by
    more than that, raises StepError.
    """
    tau = sd.require_tau(tau)
    data = heun_parameters(params, selection)
    k = params.k
    loop_time = 4.0 * quarter_period(k)
    n, r = divmod(tau, loop_time)
    n = int(n)
    path = coordinate_path(r, k)
    cont = continue_along_path(data, path)
    v2 = cont.v2
    if n > 0:
        rest = coordinate_path(loop_time, k, start=r)
        rest[-1] = path[0]
        g = continue_along_path(data, rest)
        # Fundamental matrices [[v1, v2], [v1', v2']]: F to r, G on round
        # the loop, and the loop matrix G F from the start.
        f11, f12, f21, f22 = cont.v1, cont.v2, cont.dv1, cont.dv2
        loop = (
            g.v1 * f11 + g.v2 * f21,
            g.v1 * f12 + g.v2 * f22,
            g.dv1 * f11 + g.dv2 * f21,
            g.dv1 * f12 + g.dv2 * f22,
        )
        # Liouville: |det| at the end of the path is the Wronskian's
        # closed-form modulus, which has no branch (the exponents are real).
        expected = math.prod(
            (abs(path[0] - s) / abs(path[-1] - s)) ** e
            for s, e in zip(data.singular_points, (data.gamma, data.delta, data.epsilon))
        )
        try:
            (p11, p12, p21, p22), _ = _floquet_power(loop, n)
            t11, t12 = f11 * p11 + f12 * p21, f11 * p12 + f12 * p22
            t21, t22 = f21 * p11 + f22 * p21, f21 * p12 + f22 * p22
            drift = abs(abs(t11 * t22 - t12 * t21) / expected - 1.0)
        except OverflowError:
            drift = math.inf
        if not drift <= 1e-8:
            raise StepError(
                f"determinant of {n:.3g} composed loops drifted by {drift:.3g}; "
                f"composition unreliable at tau = {tau!r}"
            )
        v2 = t12

    # v1(z0) = 1, v2(z0) = 0, so the solution-difference numerator reduces
    # to -v2 at the endpoint, and the start Wronskian is exactly 1.  The
    # exponents p, q, r are real, so |w| = prod |Z - s|^e has no branch and
    # the principal-branch prefactor gives it at each end.
    numerator = abs(w_factor(path[-1], data)) * abs(v2)
    denominator = abs(w_factor(path[0], data)) * abs(heun_coordinate_derivative(0.0, k))
    a = params.h_over_omega
    try:
        prob = a * a * numerator ** 2 / denominator ** 2
    except OverflowError:
        prob = math.inf
    if not prob <= 1.0 + 1e-8:
        raise StepError(f"flip probability {prob!r} exceeds 1 at tau = {tau!r}")
    return prob
