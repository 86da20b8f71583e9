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
from .numerics import check_entries
from .potential import FourierPotential, SystemParams, fourier_coefficients

__all__ = [
    "classify_regime",
    "spectrum",
    "spectrum_sweep",
]

# The source regimes are stated as strong inequalities; a factor of ten on
# each side is the conventional reading.
CLASSICAL_FACTOR = 10.0
QUANTUM_FACTOR = 0.1


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


def spectrum_sweep(
    params_template: SystemParams,
    k0_rho_grid,
    m_range: tuple[int, int],
) -> np.ndarray:
    """Growth rates |Re lambda_m| over a grid of ring radii: one row per
    radius, in the grid's order, and one column per mode m_lo..m_hi.

    Each sweep point rebuilds the Fourier potential at its own radius, on
    the smallest band m_max >= |ell| + 2 whose harmonics reach V_m_hi; the
    template's m_max is never read.
    """
    k0_rho_grid = np.asarray(k0_rho_grid, dtype=float)
    if k0_rho_grid.size == 0:
        raise ConfigurationError("empty k0_rho grid")
    m_lo, m_hi = int(m_range[0]), int(m_range[1])
    if m_lo < 1 or m_hi < m_lo:
        raise ConfigurationError(f"bad mode range [{m_lo}, {m_hi}]")
    check_entries(
        k0_rho_grid.size * (m_hi - m_lo + 1),
        f"{k0_rho_grid.size} radii x modes {m_lo}..{m_hi}: rate table",
    )
    modes = np.arange(m_lo, m_hi + 1)
    rates = np.empty((k0_rho_grid.size, modes.size))
    m_max = max((m_hi + 1) // 2, abs(params_template.ell) + 2)
    for i, kr in enumerate(k0_rho_grid):
        point = replace(params_template, k0_rho=float(kr), m_max=m_max)
        try:
            fp = fourier_coefficients(point)
        except OamringError as exc:
            exc.args = (f"sweep point k0_rho={kr}: {exc}",)
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
