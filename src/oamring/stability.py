"""Linear stability of the uniform condensate.

Perturbing the flat-phase equilibrium, the bunching at harmonic m obeys
d^2 Phi_m / dtau^2 = lambda_m^2 Phi_m with

    lambda_m = +/- i m sqrt(m^2 + gamma V_m),

so exponential growth needs Im(V_m) != 0, i.e. nonzero pump winding.  The
growth rate reported everywhere is |Re lambda_m|; which of the +/-m states
actually fills is left to the full dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, OamringError
from .potential import FourierPotential, SystemParams, fourier_coefficients

__all__ = [
    "StabilitySpectrum",
    "SweepResult",
    "classify_regime",
    "spectrum",
    "spectrum_sweep",
]

# The source regimes are stated as strong inequalities; a factor of ten on
# each side is the conventional reading and is echoed in output metadata.
CLASSICAL_FACTOR = 10.0
QUANTUM_FACTOR = 0.1


@dataclass(frozen=True)
class StabilitySpectrum:
    """Eigenvalue pairs and growth rates over a set of modes at fixed params."""

    modes: np.ndarray  # (n_m,) int
    eigenvalue_pairs: np.ndarray  # (n_m, 2) complex
    growth_rates: np.ndarray  # (n_m,) float


def spectrum(fp: FourierPotential, modes: np.ndarray) -> StabilitySpectrum:
    """The eigenvalue pair +/- i m sqrt(m^2 + gamma V_m) and the growth rate
    |Re lambda_m| of every mode, with the principal square root (Re >= 0,
    and Im >= 0 on the imaginary axis) in the first entry of each pair."""
    modes = np.asarray(modes, dtype=int)
    outside = np.abs(modes) > fp.k_max
    if outside.any():
        raise ConfigurationError(
            f"harmonic k={modes[outside][0]} outside the retained band "
            f"|k| <= {fp.k_max}"
        )
    m = modes.astype(float)
    root = np.sqrt(m * m + fp.params.gamma * fp.coefficients[modes + fp.k_max])
    root = np.where((root.real == 0.0) & (root.imag < 0.0), -root, root)
    lam = 1j * m * root
    return StabilitySpectrum(
        modes=modes,
        eigenvalue_pairs=np.stack([lam, -lam], axis=-1),
        growth_rates=np.abs(lam.real),
    )


@dataclass(frozen=True)
class SweepResult:
    """Growth-rate map over (k0_rho, m), rows ordered like the input grid."""

    k0_rho_grid: np.ndarray  # (n_r,)
    modes: np.ndarray  # (n_m,)
    rates: np.ndarray  # (n_r, n_m)
    argmax_m: np.ndarray  # (n_r,) int, mode with the strongest rate per radius
    max_rate: np.ndarray  # (n_r,)


def spectrum_sweep(
    params_template: SystemParams,
    k0_rho_grid,
    m_range: tuple[int, int],
) -> SweepResult:
    """Growth rates over a grid of ring radii.

    Each sweep point rebuilds the Fourier potential at its own radius (the
    band default follows the radius when the template leaves m_max unset).
    Rows are evaluated independently and assembled in grid order.
    """
    k0_rho_grid = np.asarray(k0_rho_grid, dtype=float)
    if k0_rho_grid.size == 0:
        raise ConfigurationError("empty k0_rho grid")
    m_lo, m_hi = int(m_range[0]), int(m_range[1])
    if m_lo < 1 or m_hi < m_lo:
        raise ConfigurationError(f"bad mode range [{m_lo}, {m_hi}]")
    modes = np.arange(m_lo, m_hi + 1)
    rates = np.empty((k0_rho_grid.size, modes.size))
    for i, kr in enumerate(k0_rho_grid):
        point = replace(params_template, k0_rho=float(kr), m_max=None, k_max=None)
        if point.k_max < m_hi:
            point = replace(point, m_max=m_hi, k_max=None)
        try:
            fp = fourier_coefficients(point)
        except OamringError as exc:
            exc.args = (f"sweep point k0_rho={kr}: {exc}",)
            raise
        rates[i] = spectrum(fp, modes).growth_rates
    imax = np.argmax(rates, axis=1)
    return SweepResult(
        k0_rho_grid=k0_rho_grid,
        modes=modes,
        rates=rates,
        argmax_m=modes[imax],
        max_rate=rates[np.arange(rates.shape[0]), imax],
    )


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
