"""Polarization, Bloch-equation residual, and conserved-quantity validators.

Writing the rotating-frame amplitudes as phi1 = x + i y and phi2 = u + i v
turns the Schrodinger system into the motion of the real 4-vector
(x, y, u, v) on the unit sphere with two first integrals and an
angular-momentum-like balance.  Those relations, together with the
second-order equation obeyed by the flip amplitude alone, are evaluated
here as residuals: they vanish identically on exact solutions, so their
numerical size measures integration quality (and pins down the sign and
coefficient conventions used throughout the package).

Derivatives entering the residuals are taken from the ODE right-hand
side wherever possible; only the Bloch check uses finite differences, on
purpose, so that it stays an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spin_dynamics as sd
from .elliptic import _jacobi_grid, jacobi
from .errors import DomainError


@dataclass(frozen=True)
class Polarization:
    """Pauli expectation values; unit length for pure states."""

    px: float
    py: float
    pz: float

    def as_array(self) -> np.ndarray:
        return np.array([self.px, self.py, self.pz])

    @property
    def norm(self) -> float:
        return math.sqrt(self.px ** 2 + self.py ** 2 + self.pz ** 2)


@dataclass(frozen=True)
class InvariantResiduals:
    """Absolute residuals of the four conservation relations."""

    sphere: float
    first_integral: float
    energy_like: float
    angular: float

    def max(self) -> float:
        return max(self.sphere, self.first_integral, self.energy_like, self.angular)


def polarization(state: sd.SpinState) -> Polarization:
    """Polarization vector of a pure state (see `spin_dynamics.pauli_expectation`)."""
    return Polarization(*(float(c[0]) for c in sd.pauli_expectation(state.psi1, state.psi2)))


def resonance_polarization(tau: float, params: sd.SimParams) -> Polarization:
    """Closed-form polarization of the exact resonance solution.

    Equals (sn(tau) sin(2 a tau), -cn(tau) sin(2 a tau), cos(2 a tau))
    with a = h/omega; the elliptic functions carry the modulus k.  In
    laboratory variables the first argument is gamma_m H0 t and the
    second is gamma_m h0 t = 2 a tau, identifications asserted by the
    numerical cross-checks rather than assumed.
    """
    if abs(params.delta_over_omega) > 1e-14:
        raise DomainError("closed-form polarization requires zero detuning")
    trip = jacobi(tau, params.k)
    angle = 2.0 * params.h_over_omega * tau
    s, c = math.sin(angle), math.cos(angle)
    return Polarization(px=trip.sn * s, py=-trip.cn * s, pz=c)


def bloch_residual_of_samples(
    taus: np.ndarray, pol: np.ndarray, params: sd.SimParams
) -> float:
    """Max finite-difference residual of dP/dtau = B(tau) x P on samples.

    Central differences on the interior samples; the samples must be
    uniformly spaced and at least three.  The bracket in the Bloch
    equation is read as the vector cross product, a convention this
    residual validates against the Schrodinger evolution.  A trajectory
    passes ``traj.taus, traj.polarization``; closed-form polarization
    samples pass their own arrays.
    """
    n = len(taus)
    if n < 3:
        raise DomainError(f"need at least 3 samples for central differences, got {n}")
    steps = np.diff(taus)
    step = steps[0]
    if not np.allclose(steps, step, rtol=1e-9, atol=0.0):
        raise DomainError("samples must be uniformly spaced")
    dp = (pol[2:] - pol[:-2]) / (2.0 * step)
    # The field in Bloch units, gamma_m H(tau) / omega, is twice the drive.
    drive = sd._lab_field(_jacobi_grid(taus[1:-1], params.k), params)
    field = np.column_stack([2.0 * c for c in drive])
    return float(np.max(np.linalg.norm(dp - np.cross(field, pol[1:-1]), axis=1)))


def four_vector_residuals(
    tau: float,
    params: sd.SimParams,
    state: sd.SpinState,
    state_derivative: sd.SpinState,
) -> InvariantResiduals:
    """Residuals of the sphere, two first integrals, and the angular balance.

    ``state`` is a rotating-frame state and ``state_derivative`` must be
    the ODE right-hand side evaluated there (not a finite difference).
    """
    x, y = state.psi1.real, state.psi1.imag
    u, v = state.psi2.real, state.psi2.imag
    xd, yd = state_derivative.psi1.real, state_derivative.psi1.imag
    ud, vd = state_derivative.psi2.real, state_derivative.psi2.imag

    a = params.h_over_omega
    d = params.delta_over_omega
    trip = jacobi(tau, params.k)
    k2sn2 = (params.k * trip.sn) ** 2

    sphere = abs(x * x + y * y + u * u + v * v - 1.0)
    first = abs(v * xd - u * yd + y * ud - x * vd - a)
    energy = abs(xd * xd + yd * yd + ud * ud + vd * vd + d * d * k2sn2 - (a * a + d * d))
    angular = abs(y * xd - x * yd + u * vd - v * ud - d * trip.dn)
    return InvariantResiduals(
        sphere=sphere, first_integral=first, energy_like=energy, angular=angular
    )


def lame_residual_from_state(
    params: sd.SimParams, tau: float, state: sd.SpinState
) -> float:
    """Residual of the second-order flip-amplitude equation at a known state.

    ``state`` is a rotating-frame solution value at ``tau``.  The first
    derivatives come from the ODE right-hand side and the second
    derivative from differentiating it analytically (via the
    dn' = -k^2 sn cn identity).  The equation reads

        phi2'' + (i (D/w) k^2 sn cn - (D/w)^2 k^2 sn^2 + (Omega_R/w)^2) phi2 = 0

    and a residual at roundoff level confirms the sn*cn form of the
    modulation term.
    """
    a = params.h_over_omega
    d = params.delta_over_omega
    k = params.k
    trip = jacobi(tau, k)
    d1, d2 = sd.rotating_rhs(tau, params, state.psi1, state.psi2)
    dn_rate = -(k * k) * trip.sn * trip.cn
    phi2_dd = -1j * a * d1 + 1j * d * (dn_rate * state.psi2 + trip.dn * d2)

    omega2 = a * a + d * d
    coeff = 1j * d * k * k * trip.sn * trip.cn - (d * k) ** 2 * trip.sn ** 2 + omega2
    return abs(phi2_dd + coeff * state.psi2)

