"""Two-level spin dynamics in an elliptically modulated magnetic field.

The driving field has components (h0 cn(wt,k), h0 sn(wt,k), H0 dn(wt,k)).
In the dimensionless time tau = w t the problem is fixed by three numbers:
the transverse amplitude h/w, the longitudinal amplitude H/w (equivalently
the detuning D/w = H/w - 1/2), and the elliptic modulus k.

Two frames are used.  The lab frame carries the full oscillating
Hamiltonian; a unimodular gauge factor f(tau) = sqrt(cn - i sn) removes
the transverse phase winding and leaves the rotating-frame system with
smooth real coefficients, which is the one integrated by default (the lab
system is retained for cross-validation).  At zero detuning the rotating
system has constant coefficients and the dynamics is solvable in closed
form for every modulus; those closed forms are exposed here and serve as
oracles for the numerical path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _dopri
from .elliptic import EllipticTriple, _elementwise, _jacobi_grid, jacobi, quarter_period
from .errors import DomainError

# CODATA 2018: Bohr magneton [J/T] and reduced Planck constant [J s].
BOHR_MAGNETON = 9.2740100783e-24
HBAR = 1.054571817e-34

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class SimParams:
    """Dimensionless problem parameters.

    Attributes
    ----------
    h_over_omega : transverse amplitude h/w.
    H_over_omega : longitudinal amplitude H/w.
    k : elliptic modulus in [0, 1].
    """

    h_over_omega: float
    H_over_omega: float
    k: float

    def __post_init__(self):
        for name in ("h_over_omega", "H_over_omega", "k"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
        if not 0.0 <= self.k <= 1.0:
            raise DomainError(f"modulus k must lie in [0, 1], got {self.k!r}")

    @classmethod
    def from_detuning(cls, h_over_omega: float, delta_over_omega: float, k: float) -> "SimParams":
        return cls(h_over_omega=h_over_omega, H_over_omega=delta_over_omega + 0.5, k=k)

    @property
    def delta_over_omega(self) -> float:
        """Detuning D/w = H/w - 1/2; zero at the fundamental resonance."""
        return self.H_over_omega - 0.5

    @property
    def rabi_over_omega(self) -> float:
        """Flopping rate sqrt((h/w)^2 + (D/w)^2)."""
        return math.hypot(self.h_over_omega, self.delta_over_omega)


@dataclass(frozen=True)
class SpinState:
    """Two complex amplitudes with unit norm."""

    psi1: complex
    psi2: complex

    @property
    def norm_sq(self) -> float:
        return abs(self.psi1) ** 2 + abs(self.psi2) ** 2

    def require_normalized(self, tol: float = 1e-10) -> "SpinState":
        if abs(self.norm_sq - 1.0) > tol:
            raise DomainError(f"state norm^2 = {self.norm_sq!r} is not 1 within {tol!r}")
        return self


SPIN_UP = SpinState(1.0 + 0.0j, 0.0j)


@dataclass(frozen=True)
class Trajectory:
    """Ordered samples of one integration, stored as parallel arrays."""

    taus: np.ndarray          # (n,)
    lab: np.ndarray           # (n, 2) complex
    rot: np.ndarray           # (n, 2) complex
    p_flip: np.ndarray        # (n,)
    polarization: np.ndarray  # (n, 3)

    def __len__(self) -> int:
        return len(self.taus)

    @property
    def norm_drift(self) -> np.ndarray:
        """|norm^2 - 1| per sample; an accuracy diagnostic, never corrected."""
        n = np.abs(self.rot[:, 0]) ** 2 + np.abs(self.rot[:, 1]) ** 2
        return np.abs(n - 1.0)


@dataclass(frozen=True)
class Propagator:
    """Lab-frame time-evolution matrix; unitary with unit determinant."""

    u11: complex
    u12: complex
    u21: complex
    u22: complex

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.u11, self.u12], [self.u21, self.u22]], dtype=complex)

    def unitarity_defect(self) -> float:
        u = self.as_matrix()
        return float(np.max(np.abs(u.conj().T @ u - np.eye(2))))

    def apply(self, state: SpinState) -> SpinState:
        return SpinState(
            self.u11 * state.psi1 + self.u12 * state.psi2,
            self.u21 * state.psi1 + self.u22 * state.psi2,
        )


def derive_parameters(
    g: float, h0_tesla: float, H0_tesla: float, omega: float, k: float = 0.0
) -> SimParams:
    """Dimensionless parameters from laboratory quantities.

    Uses H = g mu_B H0 / (2 hbar) and h = g mu_B h0 / (2 hbar) with the
    CODATA 2018 constants declared at module level.  ``omega`` is the
    drive frequency in rad/s and must be positive.
    """
    if not (omega > 0.0 and math.isfinite(omega)):
        raise DomainError(f"omega must be positive and finite, got {omega!r}")
    scale = g * BOHR_MAGNETON / (2.0 * HBAR * omega)
    return SimParams(h_over_omega=scale * h0_tesla, H_over_omega=scale * H0_tesla, k=k)


def _lab_field(trip: EllipticTriple, params: SimParams):
    """The lab-frame drive (h cn, h sn, H dn) in units of the drive frequency.

    ``trip`` holds (sn, cn, dn) at one argument or over a grid, and the
    three components come back as numbers or arrays to match.
    """
    h = params.h_over_omega
    return h * trip.cn, h * trip.sn, params.H_over_omega * trip.dn


def gauge_factor(tau: float, k: float) -> complex:
    """Unimodular factor f = sqrt(cn - i sn) in its explicit half-angle form.

    The half-angle form fixes the square-root branch: f = sqrt((1+cn)/2)
    - i sign(sn) sqrt((1-cn)/2), with sign(0) taken as +1.  At isolated
    points where cn = -1 the value jumps between +i and -i; the jump is a
    pure gauge phase and cancels in every probability.
    """
    re, im = _gauge_factor_grid(np.array([float(tau)]), k)
    return complex(re[0], im[0])


def _gauge_factor_grid(taus: np.ndarray, k: float) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of `gauge_factor` over a grid.

    1 -+ cn loses precision where cn is near +-1; the identity
    1 -+ cn = sn^2 / (1 +- cn) evaluates the same radicals stably.  Both
    half-angle branches share the denominator 1 + |cn|, which is never
    below 1, so selecting per element costs no division by zero.
    """
    trip = _jacobi_grid(taus, k)
    sn, cn = trip.sn, trip.cn
    pos = cn >= 0.0
    one_plus_abs_cn = np.where(pos, 1.0 + cn, 1.0 - cn)
    near = 0.5 * one_plus_abs_cn
    far = 0.5 * sn * sn / one_plus_abs_cn
    im = np.sqrt(np.where(pos, far, near))
    return np.sqrt(np.where(pos, near, far)), np.where(sn < 0.0, im, -im)


def rotating_rhs(
    tau: float, params: SimParams, psi1: complex, psi2: complex
) -> tuple[complex, complex]:
    """Right-hand side of the rotating-frame Schrodinger system."""
    return _bind_rotating(params)(tau, psi1, psi2)


def _bind_rotating(params: SimParams) -> _dopri.RHS:
    a = params.h_over_omega
    d0 = params.delta_over_omega
    k = params.k
    if d0 == 0.0:
        # dn drops out entirely at resonance; keep the closure elliptic-free.
        def rhs(tau: float, p1: complex, p2: complex) -> tuple[complex, complex]:
            return (-1j * a * p2, -1j * a * p1)

        return rhs

    def rhs(tau: float, p1: complex, p2: complex) -> tuple[complex, complex]:
        d = d0 * jacobi(tau, k).dn
        return (-1j * (d * p1 + a * p2), -1j * (a * p1 - d * p2))

    return rhs


def require_tau(tau: float, from_zero: bool = True) -> float:
    """``tau`` as a float, rejected with DomainError unless finite.

    ``from_zero`` also requires tau >= 0, for functions that integrate
    or continue from time 0.
    """
    tau = float(tau)
    if not math.isfinite(tau) or (from_zero and tau < 0.0):
        bound = "finite and non-negative" if from_zero else "finite"
        raise DomainError(f"tau must be {bound}, got {tau!r}")
    return tau


def _validate_grid(tau_grid: Sequence[float]) -> np.ndarray:
    taus = np.asarray(tau_grid, dtype=float)
    if taus.ndim != 1 or len(taus) == 0:
        raise DomainError("tau grid must be a non-empty 1-d sequence")
    if taus[0] != 0.0:
        raise DomainError(f"tau grid must start at 0, got {taus[0]!r}")
    if len(taus) > 1 and not np.all(np.diff(taus) > 0.0):
        raise DomainError("tau grid must be strictly increasing")
    require_tau(taus[-1])
    return taus


def _cmul(ar, ai, br, bi):
    """(a * b).real, (a * b).imag from split parts, rounded as Python's complex product."""
    return ar * br - ai * bi, ar * bi + ai * br


def _abs_squared(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """``abs(complex(re, im)) ** 2`` elementwise, bit for bit.

    Both steps call libm as the scalar expression does: ``np.hypot`` is
    libm's ``hypot``, and the square goes through ``pow`` (numpy would
    turn ``** 2`` into a multiplication, which can round differently).
    """
    return _elementwise(math.pow, np.hypot(re, im), 2.0)


def pauli_expectation(
    psi1: complex | np.ndarray, psi2: complex | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(<sigma_x>, <sigma_y>, <sigma_z>) of the pure state (psi1, psi2).

    px = 2 Re(psi1* psi2), py = 2 Im(psi1* psi2), pz = |psi1|^2 - |psi2|^2;
    the sign of py follows the standard Pauli sigma_y convention.  The
    amplitudes are complex numbers or equal-length 1-d complex arrays, and
    each component comes back as an array of that length (one element for
    numbers), rounded exactly as the scalar complex expressions round.
    """
    psi1 = np.atleast_1d(np.asarray(psi1, dtype=complex))
    psi2 = np.atleast_1d(np.asarray(psi2, dtype=complex))
    r1, i1, r2, i2 = psi1.real, psi1.imag, psi2.real, psi2.imag
    cross_re, cross_im = _cmul(r1, -i1, r2, i2)
    return (2.0 * cross_re, 2.0 * cross_im, _abs_squared(r1, i1) - _abs_squared(r2, i2))


_Matrix2 = tuple[complex, complex, complex, complex]


def _mat_mul(x: _Matrix2, y: _Matrix2) -> _Matrix2:
    """Product of two row-major 2 x 2 complex matrices."""
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def _power_times(m: _Matrix2, n: int, x: _Matrix2) -> _Matrix2:
    """m^n x for row-major 2 x 2 matrices, by binary powering.

    One squaring per bit of ``n``, so a power costs O(log n) products.
    Every factor taken on the left is a power of m, so the factors
    commute and their order does not matter.
    """
    while n:
        if n & 1:
            x = _mat_mul(m, x)
        n >>= 1
        if n:
            m = _mat_mul(m, m)
    return x


def _rotating_states(
    params: SimParams, psi0: tuple[complex, complex], taus: np.ndarray, tol: float
) -> np.ndarray:
    """Rotating-frame states U(tau_i) psi0, composed from one period of the generator.

    The generator a sigma_x + (D/w) dn(tau, k) sigma_z depends on tau only
    through dn, whose period is T = 2K(k) (infinite at k = 1).  So with
    tau = n T + r, 0 <= r < T, the propagator is U(tau) = U(r) U(T)^n.
    One integration from (1, 0) over the sorted offsets r_i, with T
    appended when some n_i > 0, gives the first column (a, b) of every
    U(r_i) and of U(T).  The generator is traceless Hermitian, so each
    propagator is [[a, -conj(b)], [b, conj(a)]] exactly.  The powers of
    U(T) act on psi0 once per distinct n_i, by squaring across the gaps
    between them, so cost and memory grow with the sample count, not
    with tau / T.  k = 1, or a grid ending below T, is the case where
    every n_i = 0.  Nothing is renormalized.

    ``taus`` is non-decreasing and starts at 0.  Returns an (n, 2)
    complex array; the per-sample products use split real/imaginary
    arithmetic, bit for bit the Python complex expressions.
    """
    period = 2.0 * quarter_period(params.k) if params.k < 1.0 else math.inf
    turns, offsets = np.divmod(taus, period)
    # taus increase, so the samples of each n form one run, in order.
    starts = np.flatnonzero(np.diff(turns, prepend=-1.0))
    distinct, counts = turns[starts], np.diff(starts, append=len(turns))
    del turns, starts
    order = np.argsort(offsets, kind="stable")
    grid = offsets[order].tolist()
    del offsets
    whole = distinct[-1] > 0.0  # some sample lies a period or more out
    if whole:
        grid.append(period)
    cols = _dopri.integrate(_bind_rotating(params), (1.0 + 0j, 0j), grid, tol)
    del grid
    if whole:
        a, b = cols.pop()
        one_period = (a, -b.conjugate(), b, a.conjugate())

    # psi0 as the first column of a 2 x 2 matrix, for `_power_times`.
    v = (complex(psi0[0]), 0j, complex(psi0[1]), 0j)
    done = 0
    runs = []
    for n in distinct.tolist():
        if n > done:
            v = _power_times(one_period, int(n) - done, v)
            done = int(n)
        runs.append((v[0], v[2]))

    # The list of per-sample tuples is the largest object here: free it
    # before any other per-sample array exists.
    sorted_cols = np.array(cols, dtype=complex)
    del cols
    out = np.empty_like(sorted_cols)
    out[order] = sorted_cols
    del sorted_cols, order
    runs = np.repeat(np.array(runs, dtype=complex), counts, axis=0)
    ar, ai, br, bi = out.real[:, 0], out.imag[:, 0], out.real[:, 1], out.imag[:, 1]
    v1r, v1i, v2r, v2i = runs.real[:, 0], runs.imag[:, 0], runs.real[:, 1], runs.imag[:, 1]
    # psi1 = a v1 - conj(b) v2 and psi2 = b v1 + conj(a) v2.
    x1r, x1i = _cmul(ar, ai, v1r, v1i)
    y1r, y1i = _cmul(br, -bi, v2r, v2i)
    x1r -= y1r
    x1i -= y1i
    x2r, x2i = _cmul(br, bi, v1r, v1i)
    y2r, y2i = _cmul(ar, -ai, v2r, v2i)
    out.real[:, 1], out.imag[:, 1] = x2r + y2r, x2i + y2i
    out.real[:, 0], out.imag[:, 0] = x1r, x1i
    return out


def evolve(
    initial: SpinState,
    params: SimParams,
    tau_grid: Sequence[float],
    tol: float = DEFAULT_TOL,
) -> Trajectory:
    """Integrate the rotating-frame system and sample it on ``tau_grid``.

    The grid must start at 0 and increase strictly; ``tol`` is used as
    both the absolute and relative local tolerance of the embedded 5(4)
    pair.  Lab-frame amplitudes are recovered through the gauge factor,
    the flip probability is |psi2|^2, and the polarization vector is the
    Pauli expectation in the lab frame.  Norms are never renormalized.

    The integrator covers at most one period T = 2K(k) of the generator,
    however long the grid: each state is U(tau mod T) U(T)^n psi0 (see
    `_rotating_states`).  At k = 1 the drive is aperiodic and the whole
    grid is integrated.  Everything after the integrator works on the
    whole grid at once (one grid descent for the gauge factor, split real
    and imaginary arithmetic for the products) and gives the same bits as
    evaluating `gauge_factor` and the complex expressions sample by sample.
    """
    initial.require_normalized()
    taus = _validate_grid(tau_grid)

    rot = _rotating_states(params, (initial.psi1, initial.psi2), taus, tol)
    # Split real/imaginary arithmetic: numpy's complex multiply and abs
    # round differently from Python's in the last bit.
    fr, fi = _gauge_factor_grid(taus, params.k)
    lab = np.empty_like(rot)
    lab.real[:, 0], lab.imag[:, 0] = _cmul(fr, fi, rot.real[:, 0], rot.imag[:, 0])
    lab.real[:, 1], lab.imag[:, 1] = _cmul(fr, -fi, rot.real[:, 1], rot.imag[:, 1])
    p_flip = _abs_squared(rot.real[:, 1], rot.imag[:, 1])
    pol = np.column_stack(pauli_expectation(lab[:, 0], lab[:, 1]))
    return Trajectory(taus=taus, lab=lab, rot=rot, p_flip=p_flip, polarization=pol)


def evolve_lab_frame(
    initial: SpinState,
    params: SimParams,
    tau_grid: Sequence[float],
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Integrate the lab-frame system directly (cross-validation path).

    Returns the (n, 2) complex amplitude array on the grid.  The default
    simulation path is `evolve`; this one exists so the gauge
    transformation can be checked against an independent integration.
    """
    initial.require_normalized()
    taus = _validate_grid(tau_grid)

    def rhs(tau: float, p1: complex, p2: complex) -> tuple[complex, complex]:
        bx, by, bz = _lab_field(jacobi(tau, params.k), params)
        off = complex(bx, -by)
        return (-1j * (bz * p1 + off * p2), -1j * (off.conjugate() * p1 - bz * p2))

    states = _dopri.integrate(rhs, (initial.psi1, initial.psi2), taus, tol)
    return np.array(states, dtype=complex)


def propagator(tau: float, params: SimParams, tol: float = DEFAULT_TOL) -> Propagator:
    """Lab-frame propagator at ``tau``, from the state `evolve` reaches from (1, 0).

    That state is the first column (a, b); the generator is traceless
    Hermitian, so the second column is (-conj(b), conj(a)) exactly.

    The result is unitary within about ``tol`` at any horizon and drive.
    At a fixed local tolerance the unitarity defect grows by about that
    tolerance per radian the state turns through, and the rotating-frame
    rhs turns it at most at the Rabi rate.  So the column is computed at
    ``tol / max(1, tau * rabi_over_omega)``.
    """
    tau = require_tau(tau)
    local_tol = tol / max(1.0, tau * params.rabi_over_omega)
    grid = [0.0, tau] if tau > 0.0 else [0.0]
    a, b = evolve(SPIN_UP, params, grid, local_tol).lab[-1].tolist()
    return Propagator(u11=a, u12=-b.conjugate(), u21=b, u22=a.conjugate())


def rabi_probability(tau: float, params: SimParams) -> float:
    """Closed-form flip probability for the circular drive (k = 0)."""
    if params.k != 0.0:
        raise DomainError(f"closed Rabi form requires k = 0, got k = {params.k!r}")
    tau = require_tau(tau, from_zero=False)
    a = params.h_over_omega
    r = params.rabi_over_omega
    if r == 0.0:
        return 0.0
    return (a / r) ** 2 * math.sin(r * tau) ** 2


def resonance_solution(tau: float, params: SimParams) -> SpinState:
    """Exact lab-frame state at zero detuning, valid for every modulus."""
    if abs(params.delta_over_omega) > 1e-14:
        raise DomainError(
            f"resonance solution requires zero detuning, got {params.delta_over_omega!r}"
        )
    f = gauge_factor(tau, params.k)
    phase = params.h_over_omega * tau
    return SpinState(f * math.cos(phase), -1j * f.conjugate() * math.sin(phase))


def probability_from_fundamental_pair(
    tau: float,
    params: SimParams,
    ic_a: SpinState,
    ic_b: SpinState,
    tol: float = DEFAULT_TOL,
) -> float:
    """Flip probability assembled from any two independent solutions.

    The psi2 components of two rotating-frame solutions with initial
    conditions ``ic_a`` and ``ic_b`` form a fundamental system of the
    second-order flip-amplitude equation.  The probability for the
    spin-up Cauchy problem follows from them and their initial Wronskian
    alone, which makes this an independent cross-check of `evolve`.
    """
    tau = require_tau(tau)
    rhs = _bind_rotating(params)
    fa0, fb0 = ic_a.psi2, ic_b.psi2
    da0 = rotating_rhs(0.0, params, ic_a.psi1, ic_a.psi2)[1]
    db0 = rotating_rhs(0.0, params, ic_b.psi1, ic_b.psi2)[1]
    wronskian0 = fa0 * db0 - fb0 * da0
    if abs(wronskian0) < 1e-13:
        raise DomainError("initial conditions do not span a fundamental system")
    _, fa = _dopri.integrate(rhs, (ic_a.psi1, ic_a.psi2), (0.0, tau), tol)[-1]
    _, fb = _dopri.integrate(rhs, (ic_b.psi1, ic_b.psi2), (0.0, tau), tol)[-1]
    a = params.h_over_omega
    return a * a * abs(fa * fb0 - fb * fa0) ** 2 / abs(wronskian0) ** 2
