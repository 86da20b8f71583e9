"""Superradiant transfer of quantized orbital angular momentum between an
OAM pump beam and atoms in a ring trap.

Submodules mirror the physics pipeline: ``potential`` (pair potential and
its Fourier harmonics), ``stability`` (linear growth rates of the uniform
state), ``dynamics`` (full coupled-mode integration), ``rate_model`` (the
superradiant-cascade approximation), ``radiation`` (far-field patterns and
OAM decomposition), with shared kernels in ``numerics`` and a CLI in
``cli``.
"""

__version__ = "0.6.0"

from .dynamics import (
    BunchingSpectrum,
    StateVector,
    bunching,
    default_initial_state,
    evolve,
    observables,
)
from .numerics import OdeControls, Trajectory, integrate_ode
from .potential import (
    FourierPotential,
    SystemParams,
    dispersion_coefficients,
    fourier_coefficients,
    pair_potential,
    rate_coefficients,
)
from .radiation import RadiationPattern, field_quadrature
from .rate_model import RateState, evolve_rates, two_state_analytic
from .stability import classify_regime, spectrum, spectrum_sweep

__all__ = [
    "BunchingSpectrum",
    "FourierPotential",
    "OdeControls",
    "RadiationPattern",
    "RateState",
    "StateVector",
    "SystemParams",
    "Trajectory",
    "__version__",
    "bunching",
    "classify_regime",
    "default_initial_state",
    "dispersion_coefficients",
    "evolve",
    "evolve_rates",
    "field_quadrature",
    "fourier_coefficients",
    "integrate_ode",
    "observables",
    "pair_potential",
    "rate_coefficients",
    "spectrum",
    "spectrum_sweep",
    "two_state_analytic",
]
