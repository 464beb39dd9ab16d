"""Jacobi elliptic functions and the quarter period K(k), built from scratch.

Everything here works with a real argument ``u`` and a real modulus
``k`` in ``[0, 1]``.  The complete integral K(k) comes from the
arithmetic-geometric mean, and ``sn``, ``cn``, ``dn`` come from the
descending Landen / AGM amplitude recursion (DLMF 22.20(ii)).  The two
degenerate moduli are served by their closed forms: trigonometric at
``k = 0`` and hyperbolic at ``k = 1``, where the AGM scheme loses meaning.

`_jacobi_evaluator` binds the scalar descent to one modulus, once: its
closure maps an argument to (sn, cn, dn) from the cached tables, and
hot callers with a fixed modulus (the rotating-frame right-hand side)
call it directly.  `jacobi` checks one argument and modulus and calls
that closure.  `_jacobi_grid` runs the same descent over a whole float
array in numpy ufuncs for the sample-grid callers.  numpy's
transcendental functions may round differently from ``math``'s, so the
two agree to a few units in the last place, not bit for bit.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError

# AGM stops once successive means agree to this relative tolerance; the
# iteration converges quadratically, so the hard cap is never binding in
# practice.
_AGM_RTOL = 1e-15
_AGM_MAX_ITER = 64
# |u| from which sech is formed from exp(-|u|): cosh overflows just past
# 710.47, and sech is subnormal from here on.
_SECH_TAIL = 710.0


@dataclass(frozen=True)
class EllipticTriple:
    """Values (sn, cn, dn) at one argument, or arrays of them over a grid.

    The modulus is carried by the caller.
    """

    sn: float
    cn: float
    dn: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.sn, self.cn, self.dn)


def _check_modulus(k: float, allow_one: bool) -> float:
    k = float(k)
    if not math.isfinite(k) or k < 0.0:
        raise DomainError(f"modulus must be finite and non-negative, got {k!r}")
    if allow_one:
        if k > 1.0:
            raise DomainError(f"modulus must lie in [0, 1], got {k!r}")
    elif k >= 1.0:
        raise DomainError(
            f"complete elliptic integral diverges as k -> 1; need k < 1, got {k!r}"
        )
    return k


@lru_cache(maxsize=256)
def _amplitude_tables(k: float) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """AGM scale tables (a_n, c_n) and the quarter period K for one modulus.

    Cached per modulus so repeated evaluations (ODE right-hand sides,
    long trajectories) pay only for the backward amplitude recursion.
    """
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    a_list = [1.0]
    c_list = [k]
    a, b = 1.0, kp
    for _ in range(_AGM_MAX_ITER):
        a_next = 0.5 * (a + b)
        c_next = 0.5 * (a - b)
        b_next = math.sqrt(a * b)
        a_list.append(a_next)
        c_list.append(c_next)
        a, b = a_next, b_next
        if abs(c_next) <= _AGM_RTOL * a_next:
            break
    big_k = math.pi / (2.0 * a_list[-1])
    return tuple(a_list), tuple(c_list), big_k


def quarter_period(k: float) -> float:
    """Complete elliptic integral K(k), k in [0, 1), from the cached AGM tables."""
    k = _check_modulus(k, allow_one=False)
    if k == 0.0:
        return 0.5 * math.pi
    return _amplitude_tables(k)[2]


def _sech(u: float) -> float:
    """1 / cosh(u), and 2 e^-|u| / (1 + e^-2|u|) where cosh(u) would overflow."""
    if abs(u) < _SECH_TAIL:
        return 1.0 / math.cosh(u)
    e = math.exp(-abs(u))
    return 2.0 * e / (1.0 + e * e)


@lru_cache(maxsize=256)
def _jacobi_evaluator(k: float) -> Callable[[float], tuple[float, float, float]]:
    """The map u -> (sn(u, k), cn(u, k), dn(u, k)) for one checked float modulus.

    The argument is reduced modulo the real period 4K before the Landen
    descent so that long arguments do not degrade the amplitude
    recursion.  dn is recovered from dn^2 = (1 - k sn)(1 + k sn) while
    |k sn| <= 1/2, and from dn^2 = k'^2 + k^2 cn^2 (DLMF 22.6.1) beyond:
    that is a sum of non-negative terms, so it does not cancel where |sn|
    is near 1 and k near 1.  Its positive branch is the correct one for
    real argument and k in [0, 1].

    Everything that depends on k alone (the tables, 4K, the ratios
    c_n / a_n and k'^2) is computed here once.  Each is a leading
    subexpression of the descent's left-to-right arithmetic, so hoisting
    it changes no bits.  Cached per modulus; the closure takes a finite
    float and does no checking.
    """
    if k == 0.0:
        def at(u: float) -> tuple[float, float, float]:
            return (math.sin(u), math.cos(u), 1.0)

        return at
    if k == 1.0:
        # Pulse limit: the AGM scheme degenerates, the closed forms are exact.
        def at(u: float) -> tuple[float, float, float]:
            sech = _sech(u)
            return (math.tanh(u), sech, sech)

        return at

    a_list, c_list, big_k = _amplitude_tables(k)
    period = 4.0 * big_k
    n_top = len(a_list) - 1
    a_top = a_list[n_top]
    ratios = tuple(c_list[n] / a_list[n] for n in range(n_top, 0, -1))
    kp2 = (1.0 - k) * (1.0 + k)

    def at(u: float) -> tuple[float, float, float]:
        phi = math.ldexp(a_top * math.remainder(u, period), n_top)
        for ratio in ratios:
            s = ratio * math.sin(phi)
            # Guard rounding excursions outside [-1, 1]; c_n < a_n
            # guarantees the exact value is interior.  Comparisons rather
            # than min/max calls, which took over half the descent's time;
            # s is finite, so the two agree.
            if s > 1.0:
                s = 1.0
            elif s < -1.0:
                s = -1.0
            phi = 0.5 * (phi + math.asin(s))
        sn = math.sin(phi)
        cn = math.cos(phi)
        ksn = k * sn
        if abs(ksn) <= 0.5:
            return (sn, cn, math.sqrt((1.0 - ksn) * (1.0 + ksn)))
        kcn = k * cn
        return (sn, cn, math.sqrt(kp2 + kcn * kcn))

    return at


def jacobi(u: float, k: float) -> EllipticTriple:
    """Evaluate sn(u, k), cn(u, k), dn(u, k) for real u and k in [0, 1].

    Checks that u is finite and k lies in [0, 1], then evaluates through
    `_jacobi_evaluator`'s closure for k (see there for the method).
    """
    u = float(u)
    if not math.isfinite(u):
        raise DomainError(f"argument must be finite, got {u!r}")
    k = _check_modulus(k, allow_one=True)
    return EllipticTriple(*_jacobi_evaluator(k)(u))


def _jacobi_grid(u: np.ndarray, k: float) -> EllipticTriple:
    """`jacobi` over a 1-d float array: the same descent, step for step.

    numpy has no IEEE ``remainder``, so the argument is reduced by
    ``fmod`` into (-4K, 4K) and then shifted by 4K into [-2K, 2K]; the
    shift is exact (Sterbenz), so the reduced value is the one
    ``math.remainder`` gives.
    """
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise DomainError("argument must be finite everywhere on the grid")
    k = _check_modulus(k, allow_one=True)

    if k == 0.0:
        return EllipticTriple(sn=np.sin(u), cn=np.cos(u), dn=np.ones(len(u)))
    if k == 1.0:
        # `_sech`'s overflow-free tail form, on the whole grid: np.cosh
        # overflows, with a RuntimeWarning, past |u| = 710.47.
        e = np.exp(-np.abs(u))
        sech = 2.0 * e / (1.0 + e * e)
        return EllipticTriple(sn=np.tanh(u), cn=sech, dn=sech)

    a_list, c_list, big_k = _amplitude_tables(k)
    period = 4.0 * big_k
    u = np.fmod(u, period)
    u = np.where(u > 0.5 * period, u - period, np.where(u < -0.5 * period, u + period, u))

    n_top = len(a_list) - 1
    phi = np.ldexp(a_list[n_top] * u, n_top)
    for n in range(n_top, 0, -1):
        s = np.clip(c_list[n] / a_list[n] * np.sin(phi), -1.0, 1.0)
        phi = 0.5 * (phi + np.arcsin(s))

    sn = np.sin(phi)
    cn = np.cos(phi)
    ksn, kcn = k * sn, k * cn
    dn = np.sqrt(
        np.where(
            np.abs(ksn) <= 0.5, (1.0 - ksn) * (1.0 + ksn), (1.0 - k) * (1.0 + k) + kcn * kcn
        )
    )
    return EllipticTriple(sn=sn, cn=cn, dn=dn)


def jacobi_identity_residuals(t: EllipticTriple, k: float) -> tuple[float, float]:
    """Absolute residuals of sn^2 + cn^2 = 1 and dn^2 + k^2 sn^2 = 1.

    Elementwise arrays when ``t`` holds arrays, as `_jacobi_grid` returns.
    """
    r1 = abs(t.sn * t.sn + t.cn * t.cn - 1.0)
    r2 = abs(t.dn * t.dn + (k * t.sn) * (k * t.sn) - 1.0)
    return (r1, r2)
