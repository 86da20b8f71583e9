"""Superradiant transfer of quantized orbital angular momentum between an
OAM pump beam and atoms in a ring trap.

Submodules mirror the physics pipeline: ``potential`` (pair potential and
its Fourier harmonics), ``stability`` (linear growth rates of the uniform
state), ``dynamics`` (full coupled-mode integration), ``rate_model`` (the
superradiant-cascade approximation), ``radiation`` (far-field patterns and
OAM decomposition), with shared kernels in ``numerics`` and a CLI in
``cli``.
"""

__version__ = "0.1.0"

from .dynamics import (
    BunchingSpectrum,
    StateVector,
    bunching,
    default_initial_state,
    derivative,
    evolve,
    mean_angular_velocity,
    populations,
)
from .numerics import OdeControls, Trajectory, bessel_j, integrate_ode
from .potential import (
    FourierPotential,
    SystemParams,
    dispersion_coefficients,
    fourier_coefficients,
    pair_potential,
    rate_coefficients,
)
from .radiation import (
    RadiationPattern,
    averaged_intensity,
    field_expansion,
    field_quadrature,
    pattern_grid,
)
from .rate_model import (
    RateState,
    evolve_rates,
    phase_derivative,
    rate_derivative,
    two_state_analytic,
)
from .stability import StabilitySpectrum, classify_regime, spectrum, spectrum_sweep

__all__ = [
    "BunchingSpectrum",
    "FourierPotential",
    "OdeControls",
    "RadiationPattern",
    "RateState",
    "StabilitySpectrum",
    "StateVector",
    "SystemParams",
    "Trajectory",
    "__version__",
    "averaged_intensity",
    "bessel_j",
    "bunching",
    "classify_regime",
    "default_initial_state",
    "derivative",
    "dispersion_coefficients",
    "evolve",
    "evolve_rates",
    "field_expansion",
    "field_quadrature",
    "fourier_coefficients",
    "integrate_ode",
    "mean_angular_velocity",
    "pair_potential",
    "pattern_grid",
    "phase_derivative",
    "populations",
    "rate_coefficients",
    "rate_derivative",
    "spectrum",
    "spectrum_sweep",
    "two_state_analytic",
]
