"""Spin-1/2 (and spin-J) dynamics in an elliptically modulated magnetic field.

The driving field (h0 cn, h0 sn, H0 dn) interpolates between a circular
drive (k = 0) and exponential pulses (k = 1) through the elliptic modulus
k.  The package integrates the two-level Schrodinger dynamics, verifies
the exact modulus-independent resonance result, reduces the off-resonance
problem to a four-point Fuchsian equation whose continued solutions give
an independent flip probability, and lifts the propagator to arbitrary
spin through Euler angles and rotation matrices.
"""

from .elliptic import (
    EllipticTriple,
    jacobi,
    jacobi_identity_residuals,
    quarter_period,
)
from .errors import (
    DomainError,
    EllipspinError,
    IntegrationError,
    LogarithmicCaseError,
    PathError,
    StepError,
)
from .heun import (
    SELECTIONS,
    AlgebraicCoefficients,
    Continuation,
    ExponentSet,
    HeunData,
    LocalSeries,
    algebraic_coefficients,
    continue_along_path,
    flip_probability_heun,
    heun_coordinate,
    heun_coordinate_derivative,
    heun_parameters,
    indicial_exponents,
    local_series,
    w_factor,
)
from .observables import (
    InvariantResiduals,
    Polarization,
    four_vector_residuals,
    polarization,
    resonance_polarization,
)
from .spin_dynamics import (
    Propagator,
    SimParams,
    SpinState,
    Trajectory,
    derive_parameters,
    evolve,
    gauge_factor,
    propagator,
    rabi_probability,
    resonance_solution,
)
from .wigner import EulerAngles, SpinJMatrix, euler_angles, transition_probability_j, wigner_d

__version__ = "0.1.0"

__all__ = [
    "AlgebraicCoefficients",
    "Continuation",
    "DomainError",
    "EllipspinError",
    "EllipticTriple",
    "EulerAngles",
    "ExponentSet",
    "HeunData",
    "IntegrationError",
    "InvariantResiduals",
    "LocalSeries",
    "LogarithmicCaseError",
    "PathError",
    "Polarization",
    "Propagator",
    "SELECTIONS",
    "SimParams",
    "SpinJMatrix",
    "SpinState",
    "StepError",
    "Trajectory",
    "algebraic_coefficients",
    "continue_along_path",
    "derive_parameters",
    "euler_angles",
    "evolve",
    "flip_probability_heun",
    "four_vector_residuals",
    "gauge_factor",
    "heun_coordinate",
    "heun_coordinate_derivative",
    "heun_parameters",
    "indicial_exponents",
    "jacobi",
    "jacobi_identity_residuals",
    "local_series",
    "polarization",
    "propagator",
    "quarter_period",
    "rabi_probability",
    "resonance_polarization",
    "resonance_solution",
    "transition_probability_j",
    "w_factor",
    "wigner_d",
]
