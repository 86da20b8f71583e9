"""Far-field scattered light and its decomposition into OAM components.

The dimensionless field radiated at polar angle theta and azimuth phi is the
Bessel expansion

    M(theta, phi) = sum_m (-i)^(ell+m) J_{ell+m}(k0_rho sin theta) Phi_m
                    exp(i (ell+m) phi),

each term a photon channel carrying angular momentum ell' = ell + m.  The
direct integral over the ring density (the definition the expansion is
derived from via Jacobi-Anger) is kept alongside as a quadrature oracle; the
normalization follows the expansion's convention, under which a uniform ring
radiates the single-channel amplitude J_ell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import BunchingSpectrum, StateVector, modes
from .errors import ConfigurationError
from .numerics import bessel_j_orders, check_entries
from .potential import SystemParams

__all__ = [
    "RadiationPattern",
    "count_lobes",
    "field_quadrature",
    "pattern_from_bunching",
]

# (-i)^n cycles with period four; table lookup keeps the factor exact.
_MINUS_I_POW = np.array([1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j])

# Most (theta, phi) points one pattern may have: a 1024 x 1024 grid, whose
# complex field alone takes 16 MiB.
_MAX_PATTERN_POINTS = 1 << 20

# Largest far-field argument k0_rho sin(theta): bessel_j_orders is validated
# up to |x| = 50, and its recurrence runs about |x| steps.
_MAX_BESSEL_ARG = 50.0

# Relative spread up to which an intensity cut counts as flat: an azimuthally
# uniform far field varies along phi by rounding alone.
_FLAT_CUT = 1e-12


def _channel_weights(
    bunch: BunchingSpectrum, ell: int, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Modes m over the bunching band and the weights (-i)^n J_n(x) Phi_m of
    the far-field channels n = ell + m, one row per argument x.

    Every Bessel order comes from a single bessel_j_orders pass; negative
    orders use J_{-n} = (-1)^n J_n.
    """
    ms = modes(bunch.band)
    ns = ell + ms
    top = int(np.abs(ns).max())
    x_top = float(np.abs(x).max())
    if x_top > _MAX_BESSEL_ARG:
        raise ConfigurationError(
            f"k0_rho sin(theta) reaches {x_top:.6g}, past the far field's "
            f"Bessel argument limit of {_MAX_BESSEL_ARG:g}; lower params.k0_rho"
        )
    sign = np.where((ns < 0) & (ns % 2 == 1), -1.0, 1.0)
    jn = bessel_j_orders(top, x)[np.abs(ns)].T * sign
    return ms, _MINUS_I_POW[ns % 4] * jn * bunch.coefficients


def field_quadrature(
    state: StateVector,
    ell: int,
    k0_rho: float,
    theta: float,
    phi: float,
) -> complex:
    """Field by direct integration over the ring density (oracle route).

    Evaluates int_0^2pi exp(-i k0_rho sin(theta) cos(phi - phi') + i ell phi')
    |Psi(phi')|^2 dphi' on a uniform grid of 16 points per retained mode,
    which is spectrally accurate for this periodic integrand.  |Psi|^2 carries its 1/2pi normalization, and no
    further prefactor is applied so the result matches the pattern_from_bunching
    field of the state's bunching spectrum.
    """
    grid_size = 16 * state.amplitudes.size
    phi_p = 2.0 * np.pi * np.arange(grid_size) / grid_size
    psi = state.amplitudes @ np.exp(1j * np.outer(modes(state.m_max), phi_p))
    density = np.abs(psi) ** 2 / (2.0 * np.pi)
    kernel = np.exp(
        -1j * k0_rho * math.sin(theta) * np.cos(phi - phi_p) + 1j * ell * phi_p
    )
    return complex(np.sum(kernel * density) * (2.0 * np.pi / grid_size))


@dataclass(frozen=True)
class RadiationPattern:
    """Field on a (theta, phi) product grid; its intensity is |field|**2.

    components[i, j] holds the channel weight J_{ell+m}^2 |Phi_m|^2 at
    theta_grid[i] for the j-th mode m of the bunching band,
    dynamics.modes(band); their sum over j is the phi-averaged intensity.
    """

    theta_grid: np.ndarray
    phi_grid: np.ndarray
    field: np.ndarray  # (n_theta, n_phi) complex
    components: np.ndarray  # (n_theta, 2 band + 1)


def pattern_from_bunching(
    bunch: BunchingSpectrum,
    params: SystemParams,
    theta_count: int,
    phi_count: int,
) -> RadiationPattern:
    """Radiation pattern of a bunching spectrum on a uniform (theta, phi) grid.

    The field sums every channel of the spectrum's band: a state's bunching
    vanishes past lag 2 m_max, so nothing is truncated.  theta spans [0, pi]
    inclusive; phi spans [0, 2pi) half-open, with at most 2**20 points in
    all, and k0_rho sin(theta) stays at most 50.  The Bessel and phase tables
    share numerics.check_entries' budget, and both are checked before either
    is built.  One channel-weight pass covers every theta row.
    """
    if theta_count < 2 or phi_count < 2:
        raise ConfigurationError("grid needs at least 2 points per axis")
    if theta_count * phi_count > _MAX_PATTERN_POINTS:
        raise ConfigurationError(
            f"a {theta_count} x {phi_count} grid is past the limit of "
            f"{_MAX_PATTERN_POINTS} points"
        )
    check_entries((abs(params.ell) + bunch.band + 1) * theta_count,
                  f"ell={params.ell}, band={bunch.band}: Bessel table")
    check_entries((2 * bunch.band + 1) * phi_count,
                  f"band={bunch.band}, phi_count={phi_count}: phase table")
    theta_grid = np.linspace(0.0, np.pi, theta_count)
    phi_grid = np.linspace(0.0, 2.0 * np.pi, phi_count, endpoint=False)
    x = params.k0_rho * np.sin(theta_grid)
    ms, weights = _channel_weights(bunch, params.ell, x)
    field = weights @ np.exp(1j * np.outer(params.ell + ms, phi_grid))
    components = np.abs(weights) ** 2
    return RadiationPattern(
        theta_grid=theta_grid,
        phi_grid=phi_grid,
        field=field,
        components=components,
    )


def count_lobes(values) -> int:
    """Number of lobes in a cyclic intensity cut.

    A lobe is a cyclically connected region above the half-way level between
    the minimum and the maximum of the cut, so a twin peak separated by a
    shallow notch counts once.  A cut flat to rounding, with max - min at
    most 1e-12 max, has no lobes."""
    v = np.asarray(values, dtype=float)
    lo, hi = v.min(), v.max()
    if hi - lo <= _FLAT_CUT * hi:
        return 0
    above = v > 0.5 * (hi + lo)
    return int(np.sum(above & ~np.roll(above, 1)))
