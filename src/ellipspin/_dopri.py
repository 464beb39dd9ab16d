"""Embedded Dormand-Prince 5(4) integrator for a two-component complex state.

The state is carried as a plain pair of Python complex numbers: the
systems integrated here are always 2x1, and scalar arithmetic beats any
array machinery at this size.  Absolute and relative tolerance are both
set to the same ``tol``, and the step size is whatever that error control
accepts.  Sample times inside an accepted step come from Shampine's
quartic continuous extension of the same tableau (Math. Comp. 46 (1986)
135; Hairer, Norsett and Wanner, Solving ODEs I, section II.6).  It is
fourth-order accurate everywhere in the step, so sampling never has to
limit the step size.

No renormalization of any kind is applied to the state: norm drift is a
diagnostic the callers measure, not something to hide.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .errors import DomainError, IntegrationError

# Dormand-Prince 5(4) tableau (the ode45 pair), FSAL.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)

# Quartic dense output y(t + th h) = y + h sum_i k_i (sum_p _Pip th^p), the
# matrix RK45.P of scipy.  Column 4 is the dense-output column of Hairer's
# dopri5; columns 2 and 3 follow from matching y'(t) = k1, y(t + h) = y_new
# and y'(t + h) = k7, so each row sums to its _B weight (k7's to 0).
# Column 1 is 1 for k1 and 0 elsewhere; k2 has no weight.
_P12, _P13, _P14 = -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432
_P32, _P33, _P34 = (
    131558114200 / 32700410799,
    -68118460800 / 10900136933,
    87487479700 / 32700410799,
)
_P42, _P43, _P44 = -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072
_P52, _P53, _P54 = (
    127303824393 / 49829197408,
    -318862633887 / 49829197408,
    701980252875 / 199316789632,
)
_P62, _P63, _P64 = -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844
_P72, _P73, _P74 = 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423

RHS = Callable[[float, complex, complex], tuple[complex, complex]]

# Smallest accepted tolerance.  Below double roundoff the error control
# can no longer be satisfied and shrinks the step until the run crawls
# (tol = 1e-22 takes seconds at tau 2; 1e-23 runs for minutes).
MIN_TOL = 1e-15


def _quartic(
    h: float, k1: complex, k3: complex, k4: complex, k5: complex, k6: complex, k7: complex
) -> tuple[complex, complex, complex, complex]:
    """Coefficients (q1, q2, q3, q4) of one component's dense output.

    Inside the step, y(t + th h) = y + th (q1 + th (q2 + th (q3 + th q4))).
    """
    return (
        h * k1,
        h * (_P12 * k1 + _P32 * k3 + _P42 * k4 + _P52 * k5 + _P62 * k6 + _P72 * k7),
        h * (_P13 * k1 + _P33 * k3 + _P43 * k4 + _P53 * k5 + _P63 * k6 + _P73 * k7),
        h * (_P14 * k1 + _P34 * k3 + _P44 * k4 + _P54 * k5 + _P64 * k6 + _P74 * k7),
    )


def integrate(
    rhs: RHS,
    y0: tuple[complex, complex],
    sample_taus: Sequence[float],
    tol: float,
) -> list[tuple[complex, complex]]:
    """Integrate from sample_taus[0] and return the state at every sample time.

    ``sample_taus`` must be non-decreasing.  Raises DomainError unless
    ``tol`` is at least `MIN_TOL`, and IntegrationError on step-size
    underflow, carrying the last time reached.  The states are Python
    complex numbers whatever the type of the sample times.
    """
    if not tol >= MIN_TOL:
        raise DomainError(f"tol must be positive and at least {MIN_TOL:g}, got {tol!r}")
    # numpy float64 times would make every interpolated state a numpy
    # scalar, several times slower to compute and to use; the values are
    # the same.
    sample_taus = [float(ts) for ts in sample_taus]
    t = sample_taus[0]
    t_end = sample_taus[-1]
    y1, y2 = complex(y0[0]), complex(y0[1])
    f1a, f2a = rhs(t, y1, y2)

    out: list[tuple[complex, complex]] = []
    gi = 0
    while gi < len(sample_taus) and sample_taus[gi] <= t:
        out.append((y1, y2))
        gi += 1
    if gi >= len(sample_taus):
        return out

    h = min(max(1e-6, tol ** 0.2 / (1.0 + abs(f1a) + abs(f2a))), t_end - t)
    while t < t_end:
        final_step = h >= t_end - t
        if final_step:
            # The caller's grid sizes this step, not the error control: a
            # horizon shorter than the underflow bound still integrates.
            h = t_end - t
        elif h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError("step size underflow", last_good_tau=t)

        k1_1, k1_2 = f1a, f2a
        tb = t + _C2 * h
        k2_1, k2_2 = rhs(tb, y1 + h * _A21 * k1_1, y2 + h * _A21 * k1_2)
        tb = t + _C3 * h
        k3_1, k3_2 = rhs(
            tb,
            y1 + h * (_A31 * k1_1 + _A32 * k2_1),
            y2 + h * (_A31 * k1_2 + _A32 * k2_2),
        )
        tb = t + _C4 * h
        k4_1, k4_2 = rhs(
            tb,
            y1 + h * (_A41 * k1_1 + _A42 * k2_1 + _A43 * k3_1),
            y2 + h * (_A41 * k1_2 + _A42 * k2_2 + _A43 * k3_2),
        )
        tb = t + _C5 * h
        k5_1, k5_2 = rhs(
            tb,
            y1 + h * (_A51 * k1_1 + _A52 * k2_1 + _A53 * k3_1 + _A54 * k4_1),
            y2 + h * (_A51 * k1_2 + _A52 * k2_2 + _A53 * k3_2 + _A54 * k4_2),
        )
        tb = t + h
        k6_1, k6_2 = rhs(
            tb,
            y1 + h * (_A61 * k1_1 + _A62 * k2_1 + _A63 * k3_1 + _A64 * k4_1 + _A65 * k5_1),
            y2 + h * (_A61 * k1_2 + _A62 * k2_2 + _A63 * k3_2 + _A64 * k4_2 + _A65 * k5_2),
        )
        y1n = y1 + h * (_B1 * k1_1 + _B3 * k3_1 + _B4 * k4_1 + _B5 * k5_1 + _B6 * k6_1)
        y2n = y2 + h * (_B1 * k1_2 + _B3 * k3_2 + _B4 * k4_2 + _B5 * k5_2 + _B6 * k6_2)
        k7_1, k7_2 = rhs(tb, y1n, y2n)

        e1 = h * (
            _E1 * k1_1 + _E3 * k3_1 + _E4 * k4_1 + _E5 * k5_1 + _E6 * k6_1 + _E7 * k7_1
        )
        e2 = h * (
            _E1 * k1_2 + _E3 * k3_2 + _E4 * k4_2 + _E5 * k5_2 + _E6 * k6_2 + _E7 * k7_2
        )
        s1 = tol + tol * max(abs(y1), abs(y1n))
        s2 = tol + tol * max(abs(y2), abs(y2n))
        # RMS of the scaled errors; hypot cannot overflow on a tiny tol.
        err = math.hypot(abs(e1) / s1, abs(e2) / s2) / math.sqrt(2.0)

        if err <= 1.0:
            # Emit dense output for sample times inside (t, t + h].  The
            # final step lands on t_end exactly (t + h can fall an ulp
            # short and would leave an unsteppable sliver behind).
            t_new = t_end if final_step else t + h
            if gi < len(sample_taus) and sample_taus[gi] < t_new:
                q1_1, q2_1, q3_1, q4_1 = _quartic(h, k1_1, k3_1, k4_1, k5_1, k6_1, k7_1)
                q1_2, q2_2, q3_2, q4_2 = _quartic(h, k1_2, k3_2, k4_2, k5_2, k6_2, k7_2)
            while gi < len(sample_taus) and sample_taus[gi] <= t_new:
                ts = sample_taus[gi]
                if ts == t_new:
                    out.append((y1n, y2n))
                else:
                    th = (ts - t) / h
                    out.append(
                        (
                            y1 + th * (q1_1 + th * (q2_1 + th * (q3_1 + th * q4_1))),
                            y2 + th * (q1_2 + th * (q2_2 + th * (q3_2 + th * q4_2))),
                        )
                    )
                gi += 1
            t = t_new
            y1, y2 = y1n, y2n
            f1a, f2a = k7_1, k7_2
            if gi >= len(sample_taus):
                break

        if err == 0.0:
            factor = 5.0
        else:
            factor = min(5.0, max(0.2, 0.9 * err ** -0.2))
        h *= factor

    return out

