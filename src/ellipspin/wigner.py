"""Euler-angle extraction and rotation matrices for arbitrary spin.

The two-level propagator is an SU(2) element, so it defines Euler angles
(phi, theta, psi) and through them the full (2J+1)-dimensional rotation
matrix for any spin J.  Squared matrix entries give the transition
probabilities between angular-momentum projections, with the spin-1/2
flip probability equal to sin^2(theta/2).

Matrix entries follow the phase convention of the two-level propagator:
the element for projections (m, m') carries i^(m'-m) e^(i(m phi + m' psi))
on top of the real reduced rotation function, which makes the theta
rotation an x-axis rotation, D(0, theta, 0) = exp(+i theta J_x).  Basis
states are ordered by descending projection, m = +J first, matching the
(no-flip, flip) layout of the two-level amplitudes.

The reduced rotation function d^J(theta) is built by coupling one spin 1/2
at a time (Risbo, J. Geodesy 70 (1996) 383-396): spin J is the symmetric
power of 2J spin-1/2 rotations, so each level is four sqrt-weighted
shifted copies of the previous one.  Every step is a sum of products with
no alternating cancellation, which keeps row sums and matrix entries at
roundoff level up to J = 25 on the whole interval [0, pi].
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spin_dynamics import Propagator

MAX_J = 25.0


@dataclass(frozen=True)
class EulerAngles:
    phi: float
    theta: float
    psi: float


@dataclass(frozen=True)
class SpinJMatrix:
    """Rotation matrix for spin j, indexed by descending projection."""

    j: float
    entries: np.ndarray


def _check_j(j: float) -> float:
    j = float(j)
    two_j = 2.0 * j
    if not math.isfinite(j) or j < 0.0 or abs(two_j - round(two_j)) > 1e-12:
        raise DomainError(f"j must be a non-negative half-integer, got {j!r}")
    if j > MAX_J:
        raise DomainError(f"j = {j!r} exceeds the supported maximum {MAX_J}")
    return j


def _check_projection(j: float, m: float, name: str) -> int:
    """Row index round(j - m) of projection m, which must be valid for spin j.

    One rule decides: j - m within 1e-9 of an index from 0 to 2j.  An
    offset outside (-1/2, 2j + 1/2), nan included, has no nearest index
    and takes -1.
    """
    m = float(m)
    offset = j - m
    idx = round(offset) if -0.5 < offset < 2.0 * j + 0.5 else -1
    if idx < 0 or abs(offset - idx) > 1e-9:
        raise DomainError(f"{name} = {m!r} is not a valid projection for j = {j!r}")
    return idx


def euler_angles(u: Propagator) -> EulerAngles:
    """Euler angles of a unitary two-level propagator.

    theta = 2 atan2(|u21|, |u11|); the phase sums and differences come
    from arg(u11) and arg(u21 / i).  When theta is 0 (or pi) only the sum
    (or difference) of phi and psi is defined; the free combination is
    set to zero by convention.
    """
    defect = u.unitarity_defect()
    if not defect <= 1e-9:
        raise DomainError(f"propagator is not unitary (defect {defect!r})")
    mag_flip = abs(u.u21)
    mag_stay = abs(u.u11)
    theta = 2.0 * math.atan2(mag_flip, mag_stay)
    phi_plus_psi = 2.0 * cmath.phase(u.u11) if mag_stay > 1e-15 else 0.0
    phi_minus_psi = -2.0 * cmath.phase(u.u21 / 1j) if mag_flip > 1e-15 else 0.0
    return EulerAngles(
        phi=0.5 * (phi_plus_psi + phi_minus_psi),
        theta=theta,
        psi=0.5 * (phi_plus_psi - phi_minus_psi),
    )


@functools.lru_cache(maxsize=1)
def _reduced_d(two_j: int, theta: float) -> np.ndarray:
    """Real reduced rotation matrix d^J(theta), J = two_j / 2, read-only.

    Level n (spin n/2) is assembled from level n - 1 as

        n d_ab = sqrt((n-a)(n-b)) c d'_(a, b)   + sqrt(a (n-b)) s d'_(a-1, b)
               - sqrt((n-a) b)    s d'_(a, b-1) + sqrt(a b)     c d'_(a-1, b-1)

    with c = cos(theta/2), s = sin(theta/2), a and b counting down from
    m = +J, and out-of-range entries of d' taken as zero.  Only the last
    result is kept: callers ask for every (m, m') at one angle.  theta
    is checked here, so a cache hit pays nothing for the check.
    """
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta!r}")
    c = math.cos(0.5 * theta)
    s = math.sin(0.5 * theta)
    d = np.ones((1, 1))
    for n in range(1, two_j + 1):
        up = np.sqrt(np.arange(n, 0, -1.0))  # sqrt(n - a) for a = 0 .. n-1
        down = np.sqrt(np.arange(1.0, n + 1))  # sqrt(a) for a = 1 .. n
        rows_up = up[:, None] * d
        rows_down = down[:, None] * d
        nxt = np.zeros((n + 1, n + 1))
        nxt[:-1, :-1] += c * rows_up * up
        nxt[1:, :-1] += s * rows_down * up
        nxt[:-1, 1:] -= s * rows_up * down
        nxt[1:, 1:] += c * rows_down * down
        d = nxt / n
    d.flags.writeable = False
    return d


def wigner_d(j: float, angles: EulerAngles) -> SpinJMatrix:
    """Full rotation matrix for spin j at the given Euler angles."""
    j = _check_j(j)
    if not (math.isfinite(angles.phi) and math.isfinite(angles.psi)):
        raise DomainError(f"Euler angles must be finite, got {angles!r}")
    dim = round(2 * j) + 1
    idx = np.arange(dim)
    ms = j - idx
    # i^(m'-m) with m' - m = a - b for row a and column b.
    quarter_turns = np.array([1, 1j, -1, -1j])[(idx[:, None] - idx) % 4]
    phase = np.exp(1j * (ms[:, None] * angles.phi + ms * angles.psi))
    return SpinJMatrix(j=j, entries=quarter_turns * phase * _reduced_d(dim - 1, float(angles.theta)))


def transition_probability_j(j: float, m: float, m_prime: float, theta: float) -> float:
    """Probability of the m -> m' transition for spin j at rotation angle theta.

    The squared (m, m') entry of the reduced rotation matrix d^J(theta).
    The matrix is built by spin-1/2 coupling, so the value is finite and
    accurate to roundoff on the whole closed interval [0, pi]; asking for
    every (m, m') at one theta builds the matrix once.  A non-finite theta
    raises DomainError.
    """
    j = _check_j(j)
    row = _check_projection(j, m, "m")
    col = _check_projection(j, m_prime, "m_prime")
    return float(_reduced_d(round(2 * j), float(theta))[row, col] ** 2)
