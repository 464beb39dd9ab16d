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
from ._dopri import MIN_TOL
from .elliptic import EllipticTriple, _jacobi_grid, jacobi, quarter_period
from .errors import DomainError, IntegrationError

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
        """|norm^2 - 1| per sample; an accuracy diagnostic, never corrected.

        It is that of the one integrated stretch, not growing with the horizon.
        """
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
    # omega divides last: 2 hbar omega underflows to 0 for tiny omega,
    # while this order overflows to inf, which SimParams rejects.
    scale = g * BOHR_MAGNETON / (2.0 * HBAR) / omega
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
    return complex(_gauge_factor_grid(np.array([float(tau)]), k)[0])


def _gauge_factor_grid(taus: np.ndarray, k: float) -> np.ndarray:
    """`gauge_factor` over a grid, as a complex array.

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
    f = np.empty(len(taus), dtype=complex)
    f.real, f.imag = np.sqrt(np.where(pos, near, far)), np.where(sn < 0.0, im, -im)
    return f


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


def pauli_expectation(
    psi1: complex | np.ndarray, psi2: complex | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(<sigma_x>, <sigma_y>, <sigma_z>) of the pure state (psi1, psi2).

    px = 2 Re(psi1* psi2), py = 2 Im(psi1* psi2), pz = |psi1|^2 - |psi2|^2;
    the sign of py follows the standard Pauli sigma_y convention.  The
    amplitudes are complex numbers or equal-length 1-d complex arrays, and
    each component comes back as an array of that length (one element for
    numbers).
    """
    psi1 = np.atleast_1d(np.asarray(psi1, dtype=complex))
    psi2 = np.atleast_1d(np.asarray(psi2, dtype=complex))
    cross = psi1.conj() * psi2
    pz = np.hypot(psi1.real, psi1.imag) ** 2 - np.hypot(psi2.real, psi2.imag) ** 2
    return (2.0 * cross.real, 2.0 * cross.imag, pz)


def _period(params: SimParams) -> float:
    """The generator's period 2K(k); pi at k = 1 resonance, where dn drops out; else inf."""
    if params.k == 1.0:
        return math.pi if params.delta_over_omega == 0.0 else math.inf
    return 2.0 * quarter_period(params.k)


def _pulse_end(params: SimParams, tol: float) -> float:
    """tau_c past which the k = 1 generator is a sigma_x within tol / 100, else inf.

    At k = 1, dn = sech, so the generator a sigma_x + (D/w) sech(tau) sigma_z
    differs from a sigma_x past tau_c = ln(200 |D/w| / tol) by a term whose
    integral is at most 2 |D/w| e^(-tau_c) = tol / 100.  Every other case,
    and a tol that is not positive, has no tail.
    """
    d = abs(params.delta_over_omega)
    if params.k < 1.0 or d == 0.0 or not tol > 0.0:
        return math.inf
    return max(0.0, math.log(200.0 * d / tol))


def _rotation(theta: np.ndarray, axis: tuple[float, float, float], col) -> np.ndarray:
    """exp(-i theta n.sigma) (c1, c2) for every angle in ``theta``, as an (n, 2) array.

    That is cos(theta) (c1, c2) + sin(theta) (t1, t2), (t1, t2) = -i n.sigma (c1, c2).
    ``col`` holds two numbers or two arrays as long as ``theta``.  Each
    output column is summed in place, which keeps the temporaries to two
    arrays of that length.
    """
    nx, ny, nz = axis
    rows = ((-1j * nz, complex(-ny, -nx)), (complex(ny, -nx), 1j * nz))  # of -i n.sigma
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty((len(theta), 2), dtype=complex)
    for j, (x1, x2) in enumerate(rows):
        t = x1 * col[0]
        t += x2 * col[1]
        t *= s
        np.multiply(c, col[j], out=out[:, j])
        out[:, j] += t
    return out


def _rotating_states(
    params: SimParams, psi0: tuple[complex, complex], taus: np.ndarray, tol: float
) -> np.ndarray:
    """Rotating-frame states U(tau_i) psi0, from one bounded integration.

    The generator a sigma_x + (D/w) dn(tau, k) sigma_z depends on tau only
    through dn, so with tau = n T + r, 0 <= r < T (see `_period`), the
    propagator is U(tau) = U(r) U(T)^n.  At k = 1 off resonance the pulse
    has passed by `_pulse_end`'s tau_c, and each later U(tau) is
    exp(-i a sigma_x (tau - tau_c)) U(tau_c); a pulse has no period, so
    there r = tau.

    Every sample maps to its integrated time min(r_i, tau_c).  One
    integration from (1, 0) over the distinct such times, with T appended
    when some sample lies a period or more out, gives the first column
    (a, b) of U(min(r_i, tau_c)) for every sample and of U(T).  One
    rotation about x by a max(tau_i - tau_c, 0), exactly 0 before tau_c,
    then carries each column past the pulse.  The generator is traceless
    Hermitian, so each propagator is [[a, -conj(b)], [b, conj(a)]]
    exactly.  U(T) is the rotation cos(phi) I - i sin(phi) n.sigma,
    w = (-Im b, Re b, -Im a), phi = atan2(|w|, Re a), n = w / |w|, so
    U(T)^n psi0 is the rotation by n phi: unitary to roundoff at any n.
    Nothing is renormalized.

    ``taus`` is non-decreasing and starts at 0.  Returns an (n, 2)
    complex array.
    """
    a_x = params.h_over_omega
    period = _period(params)
    tau_c = _pulse_end(params, tol)
    # Past the pulse the state turns about x with period pi / |a|.  From
    # 2^52 periods on, neighbouring doubles lie half a period apart or more.
    cycle = period if tau_c == math.inf else math.pi / abs(a_x) if a_x else math.inf
    if taus[-1] >= 2.0**52 * cycle:
        msg = f"tau = {float(taus[-1])!r} is 2^52 or more periods of {cycle!r}"
        raise IntegrationError(msg + ", where doubles lie half a period apart", 0.0)
    turns, offsets = np.divmod(taus, period)
    # Every distinct integrated time min(r_i, tau_c) once, in order.
    times, index = np.unique(np.minimum(offsets, tau_c), return_inverse=True)
    whole = turns[-1] > 0.0  # some sample lies a period or more out
    if whole:
        times = np.append(times, period)
    cols = _dopri.integrate(_bind_rotating(params), (1.0 + 0j, 0j), times, tol)
    a, b = cols[-1] if whole else (1.0 + 0j, 0j)
    out = cols[index]  # every sample's first column of U(min(r_i, tau_c))
    del offsets, times, cols, index
    out = _rotation(a_x * np.maximum(taus - tau_c, 0.0), (1.0, 0.0, 0.0), out.T)
    w = (-b.imag, b.real, -a.imag)
    size = math.hypot(*w)
    axis = tuple(x / size for x in w) if size > 0.0 else (0.0, 0.0, 0.0)
    turned = _rotation(turns * math.atan2(size, a.real), axis, psi0)
    del turns
    a, b, v1, v2 = out[:, 0], out[:, 1], turned[:, 0], turned[:, 1]
    # psi1 = a v1 - conj(b) v2 and psi2 = b v1 + conj(a) v2, in place.
    psi2 = b * v1 + a.conj() * v2
    out[:, 0] = a * v1 - b.conj() * v2
    out[:, 1] = psi2
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

    The integrator covers one bounded stretch, however long the grid:
    each sample maps to its time min(tau mod T, tau_c) in it, and
    closed-form rotations carry the rest (see `_rotating_states`).  T is
    the generator's period 2K(k); at k = 1 the drive is a single pulse,
    which at resonance drops out, so k = 0's period T = pi serves.  Off
    resonance at k = 1 there is no period, and the integration stops at
    tau_c = ln(200 |D/w| / tol), past which every sample turns about
    sigma_x; below k = 1, tau_c is infinite.  A grid reaching 2^52
    periods raises IntegrationError.  The integrator steps on Python
    scalars and reads every sample off its step in one array pass; all
    the rest works on the whole grid at once, with one grid descent for
    the gauge factor.
    """
    initial.require_normalized()
    taus = _validate_grid(tau_grid)

    rot = _rotating_states(params, (initial.psi1, initial.psi2), taus, tol)
    f = _gauge_factor_grid(taus, params.k)
    lab = np.column_stack([f * rot[:, 0], f.conj() * rot[:, 1]])
    del f
    # Moduli through np.hypot, libm's nearly correctly rounded hypot;
    # np.abs of a complex array is off by an ulp on about a third of inputs.
    p_flip = np.hypot(rot[:, 1].real, rot[:, 1].imag) ** 2
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

    return _dopri.integrate(rhs, (initial.psi1, initial.psi2), taus, tol)


def propagator(tau: float, params: SimParams, tol: float = DEFAULT_TOL) -> Propagator:
    """Lab-frame propagator at ``tau``, from the state `evolve` reaches from (1, 0).

    That state is the first column (a, b); the generator is traceless
    Hermitian, so the second column is (-conj(b), conj(a)) exactly.

    At a fixed local tolerance the column's unitarity defect grows by
    about that tolerance per radian the state turns through, and the
    rotating-frame rhs turns it at most at the Rabi rate.  `evolve`
    integrates at most one period T, or up to the pulse end tau_c at k = 1
    (see `_pulse_end`), and composes the rest unitarily, so the column is
    computed at ``tol / max(1, min(tau, T, tau_c) * rabi_over_omega)``,
    floored at `MIN_TOL`, below which the error control cannot be met: unitary
    within about ``tol``, at the same cost, at any horizon `evolve` accepts.
    """
    tau = require_tau(tau)
    stretch = min(tau, _period(params), _pulse_end(params, tol)) * params.rabi_over_omega
    local_tol = min(tol, max(MIN_TOL, tol / max(1.0, stretch)))
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
    da0 = rhs(0.0, ic_a.psi1, ic_a.psi2)[1]
    db0 = rhs(0.0, ic_b.psi1, ic_b.psi2)[1]
    wronskian0 = fa0 * db0 - fb0 * da0
    if abs(wronskian0) < 1e-13:
        raise DomainError("initial conditions do not span a fundamental system")
    fa = _dopri.integrate(rhs, (ic_a.psi1, ic_a.psi2), (0.0, tau), tol)[-1, 1].item()
    fb = _dopri.integrate(rhs, (ic_b.psi1, ic_b.psi2), (0.0, tau), tol)[-1, 1].item()
    a = params.h_over_omega
    return a * a * abs(fa * fb0 - fb * fa0) ** 2 / abs(wronskian0) ** 2
