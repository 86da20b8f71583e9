"""Far-field scattered light and its decomposition into OAM components.

The dimensionless field radiated at polar angle theta and azimuth phi is the
Bessel expansion

    M(theta, phi) = sum_m (-i)^(ell+m) J_{ell+m}(k0_rho sin theta) Phi_m
                    exp(i (ell+m) phi),

each term a photon channel carrying angular momentum ell' = ell + m.  M depends
on theta only through sin theta, so M(pi - theta, phi) = M(theta, phi) and it is
computed on the upper hemisphere.  The direct integral over the ring density
(the expansion's definition, via Jacobi-Anger) is kept as a quadrature oracle;
under the expansion's normalization a uniform ring radiates J_ell alone.
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
    "PHI_GRID",
    "THETA_GRID",
    "RadiationPattern",
    "check_tables",
    "count_lobes",
    "field_quadrature",
    "pattern_from_bunching",
    "phi_grid",
]

# (-i)^n cycles with period four; table lookup keeps the factor exact.
_MINUS_I_POW = np.array([1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j])

# The far field's grid: theta rows 1 degree apart over [0, pi/2], so that the
# last row, 90, is the equator exactly, and at most 256 phi columns over
# [0, 2pi) (phi_grid).  PHI_GRID is also the equator cut whose lobes are counted.
THETA_GRID = np.linspace(0.0, np.pi / 2, 91)
PHI_GRID = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
THETA_GRID.flags.writeable = PHI_GRID.flags.writeable = False

# Largest far-field argument k0_rho sin(theta), reached at the equator:
# bessel_j_orders is validated up to |x| = 50, and its recurrence runs about
# |x| steps.
_MAX_BESSEL_ARG = 50.0

# Relative spread up to which an intensity cut counts as flat: an azimuthally
# uniform far field varies along phi by rounding alone.
_FLAT_CUT = 1e-12


def phi_grid(band: int) -> np.ndarray:
    """The phi columns of the far field of a bunching band, read-only.

    Each theta row of the field sums the 2 band + 1 channels ell + m, a
    trigonometric polynomial that as many equally spaced samples fix
    exactly.  From band 128 on that is more than PHI_GRID, which is used
    instead.
    """
    size = 2 * band + 1
    if size >= PHI_GRID.size:
        return PHI_GRID
    grid = np.linspace(0.0, 2.0 * np.pi, size, endpoint=False)
    grid.flags.writeable = False
    return grid


def check_tables(params: SystemParams, band: int, source: str) -> None:
    """Refuse the far field of a bunching band before any of it is built.

    Its phase tables, 2 band + 1 channels by at most the 256 PHI_GRID
    columns (the field's phi_grid and the equator cut), and its
    Bessel table, orders 0 .. |ell| + band at the THETA_GRID rows, must fit
    numerics.check_entries' budget, and k0_rho must be at most 50.
    ``source`` names what set the band.
    """
    check_entries((2 * band + 1) * PHI_GRID.size, f"{source}: the far field's phase table")
    check_entries((abs(params.ell) + band + 1) * THETA_GRID.size,
                  f"ell={params.ell}, {source}: the far field's Bessel table")
    if params.k0_rho > _MAX_BESSEL_ARG:
        raise ConfigurationError(
            f"params.k0_rho={params.k0_rho:.6g} is past the far field's Bessel "
            f"argument limit of {_MAX_BESSEL_ARG:g}"
        )


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
    """Field on the THETA_GRID x phi_grid(band) grid; its intensity is |field|**2.

    components[i, j] holds the channel weight J_{ell+m}^2 |Phi_m|^2 at
    THETA_GRID[i] for the j-th mode m of the bunching band,
    dynamics.modes(band); their sum over j is the phi-averaged intensity.
    equator is the field at theta = pi/2 on PHI_GRID, the cut whose lobes
    are counted: the field's own 2 band + 1 samples can miss a narrow lobe.
    """

    field: np.ndarray  # (91, min(2 band + 1, 256)) complex
    components: np.ndarray  # (91, 2 band + 1)
    equator: np.ndarray  # (256,) complex


def pattern_from_bunching(bunch: BunchingSpectrum, params: SystemParams) -> RadiationPattern:
    """Radiation pattern of a bunching spectrum on THETA_GRID x phi_grid(band).

    The field sums every channel n = ell + m of the spectrum's band: a
    state's bunching vanishes past lag 2 m_max, so nothing is truncated.
    check_tables runs first.  One bessel_j_orders pass gives every order at
    every theta row; negative orders use J_{-n} = (-1)^n J_n.
    """
    check_tables(params, bunch.band, f"band={bunch.band}")
    ms = modes(bunch.band)
    ns = params.ell + ms
    sign = np.where((ns < 0) & (ns % 2 == 1), -1.0, 1.0)
    x = params.k0_rho * np.sin(THETA_GRID)
    jn = bessel_j_orders(int(np.abs(ns).max()), x)[np.abs(ns)].T * sign
    weights = _MINUS_I_POW[ns % 4] * jn * bunch.coefficients
    phi = phi_grid(bunch.band)
    field = weights @ np.exp(1j * np.outer(ns, phi))
    # From band 128 on, the field's last row is the equator cut itself.
    equator = field[-1] if phi is PHI_GRID else weights[-1] @ np.exp(1j * np.outer(ns, PHI_GRID))
    return RadiationPattern(field=field, components=np.abs(weights) ** 2, equator=equator)


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
