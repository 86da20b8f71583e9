"""Linear stability of the uniform condensate.

Perturbing the flat-phase equilibrium, the bunching at harmonic m obeys
d^2 Phi_m / dtau^2 = lambda_m^2 Phi_m with

    lambda_m = +/- i m sqrt(m^2 + gamma V_m),

so exponential growth needs Im(V_m) != 0, i.e. nonzero pump winding.  The
growth rate reported everywhere is |Re lambda_m|; which of the +/-m states
actually fills is left to the full dynamics.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import ConfigurationError, OamringError
from .potential import FourierPotential, SystemParams, fourier_coefficients

__all__ = [
    "K0_RHO_GRID",
    "TOP_MODE",
    "classify_regime",
    "spectrum",
    "spectrum_sweep",
]

# The source regimes are stated as strong inequalities; a factor of ten on
# each side is the conventional reading.
CLASSICAL_FACTOR = 10.0
QUANTUM_FACTOR = 0.1

# The stability map's ring radii, 0.25 to 8 at step 0.25, and its top mode;
# TOP_MODE also bounds the g_k and growth-rate tables of a run's manifest.
K0_RHO_GRID = 0.25 * np.arange(1, 33)
K0_RHO_GRID.flags.writeable = False
TOP_MODE = 12


def spectrum(fp: FourierPotential, modes: np.ndarray) -> np.ndarray:
    """lambda_m = i m sqrt(m^2 + gamma V_m) of every mode, as a complex array,
    with the principal square root (Re >= 0, and Im >= 0 on the imaginary
    axis); -lambda_m is the pair's other root and |Re lambda_m| the growth
    rate."""
    modes = np.asarray(modes, dtype=int)
    m = modes.astype(float)
    root = np.sqrt(m * m + fp.params.gamma * fp.coefficient(modes))
    root = np.where((root.real == 0.0) & (root.imag < 0.0), -root, root)
    return 1j * m * root


def spectrum_sweep(params_template: SystemParams) -> np.ndarray:
    """Growth rates |Re lambda_m| of the stability map: one row per radius of
    K0_RHO_GRID and one column per mode 1..TOP_MODE.

    Each sweep point rebuilds the Fourier potential at its own radius, on
    the band m_max = max(TOP_MODE / 2, |ell| + 2), whose harmonics reach
    V_TOP_MODE; the template's m_max is never read.
    """
    modes = np.arange(1, TOP_MODE + 1)
    rates = np.empty((K0_RHO_GRID.size, TOP_MODE))
    m_max = max(TOP_MODE // 2, abs(params_template.ell) + 2)
    for i, kr in enumerate(K0_RHO_GRID.tolist()):
        point = replace(params_template, k0_rho=kr, m_max=m_max)
        try:
            fp = fourier_coefficients(point)
        except OamringError as exc:
            exc.args = (f"sweep point k0_rho={kr}: params.ell={params_template.ell} gives the "
                        f"band m_max = max({TOP_MODE // 2}, |ell| + 2) = {m_max}; {exc}",)
            raise
        rates[i] = np.abs(spectrum(fp, modes).real)
    return rates


def classify_regime(m: int, gamma: float, v_m: complex) -> str:
    """'classical' (coupling dominates the rotor energy by 10x), 'quantum'
    (rotor energy dominates by 10x), or 'intermediate'."""
    if m < 1:
        raise ConfigurationError(f"regime classification needs m >= 1, got {m}")
    coupling = gamma * abs(v_m)
    rotor = float(m * m)
    if coupling > CLASSICAL_FACTOR * rotor:
        return "classical"
    if coupling < QUANTUM_FACTOR * rotor:
        return "quantum"
    return "intermediate"
