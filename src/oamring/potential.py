"""Light-mediated pair potential on the ring, its Fourier spectrum, and the
derived per-harmonic rate (g_k) and dispersion (alpha_k) coefficients.

The potential between two atoms separated by the azimuthal angle phi is

    V(phi) = -cos(2 k0_rho q(phi) - ell phi) / (k0_rho q(phi)),
    q(phi) = sqrt(sin^2(phi/2) + epsilon^2),

where epsilon regularizes the contact singularity.  Its Fourier coefficients
V_k drive every other module: the imaginary parts set the superradiant rates,
the real parts the dispersive phase shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ResolutionError, ToleranceError

__all__ = [
    "FourierPotential",
    "SystemParams",
    "dispersion_coefficients",
    "fourier_coefficients",
    "pair_potential",
    "rate_coefficients",
]

#: The only cutoff value the source scenarios state; applied unless overridden.
DEFAULT_EPSILON = 0.1

#: Convergence demanded of every retained coefficient under grid doubling.
GRID_DOUBLING_TOL = 1e-10

# Largest base quadrature grid (the doubled check grid holds twice this):
# epsilon >= 64 / 2**20 ~ 6.1e-5, m_max <= 2**14 and
# ceil(k0_rho) + |ell| <= 2**15.
_MAX_GRID = 1 << 20

# Largest epsilon: pair_potential squares it, and the square must stay a
# finite double.
_MAX_EPSILON = 1e150


def default_m_max(ell: int, k0_rho: float) -> int:
    """Band half-width ample for cascades at this radius: the dominant
    transition advances by roughly k0_rho per step, plus safety margin."""
    return abs(ell) + int(math.ceil(k0_rho)) + 12


@dataclass(frozen=True)
class SystemParams:
    """Dimensionless physical configuration plus its one truncation.

    gamma   -- light-atom coupling (absorbs atom number, detuning, pump power)
    epsilon -- short-range cutoff of the pair potential, > 0
    k0_rho  -- ring radius in units of the optical wavenumber
    ell     -- pump winding number (integer, may be negative or zero)
    m_max   -- half-width of the retained OAM band; default ties to k0_rho
    """

    gamma: float
    epsilon: float = DEFAULT_EPSILON
    k0_rho: float = 1.0
    ell: int = 1
    m_max: int | None = None

    def __post_init__(self):
        if not self.gamma >= 0.0:
            raise ConfigurationError(f"gamma must be >= 0, got {self.gamma}")
        if not self.epsilon > 0.0:
            raise ConfigurationError(f"epsilon must be > 0, got {self.epsilon}")
        if self.epsilon > _MAX_EPSILON:
            raise ConfigurationError(
                f"epsilon={self.epsilon} past {_MAX_EPSILON:g}, where its square overflows"
            )
        if not self.k0_rho > 0.0:
            raise ConfigurationError(f"k0_rho must be > 0, got {self.k0_rho}")
        # pair_potential's phase 2 k0_rho q, at its largest q = sqrt(1 + eps^2).
        if not math.isfinite(2.0 * self.k0_rho * math.sqrt(1.0 + self.epsilon**2)):
            raise ConfigurationError(
                f"k0_rho={self.k0_rho} with epsilon={self.epsilon} overflows the "
                "phase 2 k0_rho q of the pair potential"
            )
        # ... and its amplitude 1 / (k0_rho q), at its smallest q = epsilon.
        scale = self.k0_rho * self.epsilon
        if not (scale > 0.0 and math.isfinite(1.0 / scale)):
            raise ConfigurationError(
                f"k0_rho={self.k0_rho} with epsilon={self.epsilon} overflows the "
                "amplitude 1 / (k0_rho q) of the pair potential"
            )
        if self.ell != int(self.ell):
            raise ConfigurationError(f"ell must be an integer, got {self.ell}")
        object.__setattr__(self, "ell", int(self.ell))
        if self.m_max is None:
            object.__setattr__(self, "m_max", default_m_max(self.ell, self.k0_rho))
        if self.m_max < abs(self.ell) + 2:
            raise ConfigurationError(
                f"m_max={self.m_max} too small; need at least |ell| + 2 = "
                f"{abs(self.ell) + 2}"
            )

    @property
    def k_max(self) -> int:
        """The coupling band: V_k couples c_m to c_{m-k}, so within
        |m| <= m_max exactly the harmonics |k| <= 2 m_max act."""
        return 2 * self.m_max


@dataclass(frozen=True)
class FourierPotential:
    """The system: its parameters plus the complex coefficients V_k of their
    pair potential for |k| <= k_max = 2 m_max, index k + k_max.

    Built by fourier_coefficients, so the spectrum always belongs to the
    parameters it travels with.  V_{-k} = conj(V_k) holds because V(phi) is
    real-valued.
    """

    coefficients: np.ndarray
    params: SystemParams

    @property
    def k_max(self) -> int:
        return self.params.k_max

    def coefficient(self, k):
        """V_k as a complex for an int k, or an array of V_k for an int
        array k; every |k| must lie within k_max."""
        k = np.asarray(k)
        outside = np.abs(k) > self.k_max
        if outside.any():
            raise ConfigurationError(
                f"harmonic k={k[outside].flat[0]} outside the retained band "
                f"|k| <= {self.k_max}"
            )
        values = self.coefficients[k + self.k_max]
        return complex(values) if k.ndim == 0 else values


def pair_potential(phi, params: SystemParams):
    """Pair potential V(phi); accepts a scalar or an array of angles.

    The angle is reduced mod 2 pi internally, so the function is exactly
    2 pi periodic.  epsilon > 0 keeps the denominator finite everywhere.
    """
    phi = np.mod(np.asarray(phi, dtype=float), 2.0 * np.pi)
    q = np.sqrt(np.sin(phi / 2.0) ** 2 + params.epsilon**2)
    val = -np.cos(2.0 * params.k0_rho * q - params.ell * phi) / (params.k0_rho * q)
    return float(val) if val.ndim == 0 else val


def _quadrature_grid(params: SystemParams) -> int:
    # One term per scale of V(phi), each at 32 samples per period: the peak
    # of angular width ~epsilon at phi = 0 (64 / epsilon), the retained band
    # |k| <= k_max (32 k_max) and the oscillation cos(2 k0_rho q - ell phi),
    # whose phi-frequency is at most k0_rho + |ell|.  Aliasing is the
    # dominant silent failure mode; the grid-doubling check in
    # fourier_coefficients is what catches it.
    need = max(
        32 * params.k_max,
        64.0 / params.epsilon,
        32 * (math.ceil(params.k0_rho) + abs(params.ell)),
    )
    if need > _MAX_GRID:
        # The integer terms may not fit a float.
        size = need if isinstance(need, int) else f"{need:.0f}"
        raise ConfigurationError(
            f"epsilon={params.epsilon}, m_max={params.m_max}, k0_rho={params.k0_rho} "
            f"and ell={params.ell} need a quadrature grid of {size} points, past "
            f"the limit of {_MAX_GRID}"
        )
    return 1 << (math.ceil(need) - 1).bit_length()


def _harmonics(params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    # One transform on the doubled grid of 2G points: F_k = (1/2G) sum_j
    # V(phi_j) exp(-ik phi_j), phi_j = 2 pi j / 2G.  Returns V_k = F_k and
    # |F_{k+G}| for k = -k_max .. k_max.  The base grid is the even samples,
    # which fold harmonic k + G onto k, so its coefficients are F_k + F_{k+G}:
    # |F_{k+G}| is how far V_k moves under grid doubling.
    grid = _quadrature_grid(params)
    fine_grid = 2 * grid
    # A finite but huge amplitude overflows the sums; fourier_coefficients
    # names that fault, so numpy need not warn about it first.
    with np.errstate(over="ignore", invalid="ignore"):
        samples = pair_potential(2.0 * np.pi * np.arange(fine_grid) / fine_grid, params)
        spec = np.fft.fft(samples) / fine_grid
    ks = np.arange(-params.k_max, params.k_max + 1)
    return spec[ks], np.abs(spec[ks + grid])


def fourier_coefficients(params: SystemParams) -> FourierPotential:
    """Fourier spectrum of the pair potential, verified by grid doubling.

    V_k = (1/2pi) int V(phi) exp(-ik phi) dphi for k = -k_max .. k_max
    (index k + k_max), from one FFT of V(phi) sampled on the doubled grid.
    Raises ToleranceError naming k0_rho and epsilon if the transform
    overflows, a finite amplitude 1 / (k0_rho epsilon) too large for its
    sums, and ResolutionError if any V_k moves by more than
    GRID_DOUBLING_TOL between the base and the doubled grid, naming the
    harmonic that moves most and its change.
    """
    coefficients, delta = _harmonics(params)
    if not (np.isfinite(coefficients).all() and np.isfinite(delta).all()):
        raise ToleranceError(
            f"the pair potential's spectrum overflowed at k0_rho={params.k0_rho}, "
            f"epsilon={params.epsilon}: the amplitude 1 / (k0_rho epsilon) is too "
            "large for its Fourier sums; raise k0_rho or epsilon"
        )
    if not np.all(delta <= GRID_DOUBLING_TOL):
        k_bad = int(np.argmax(delta)) - params.k_max
        raise ResolutionError(k_bad, float(delta.max()), GRID_DOUBLING_TOL)
    return FourierPotential(coefficients=coefficients, params=params)


def rate_coefficients(fp: FourierPotential) -> np.ndarray:
    """Superradiant rate coefficients g_k = gamma * |Im V_k| for k = 1..k_max.

    Returned array is indexed so that result[k] = g_k, with result[0] = 0
    (there is no k = 0 transition)."""
    g = fp.params.gamma * np.abs(fp.coefficients[fp.k_max :].imag)
    g[0] = 0.0
    return g


def dispersion_coefficients(fp: FourierPotential) -> np.ndarray:
    """Dispersion coefficients alpha_k = (gamma/2) Re V_k for k = 0..k_max.

    alpha_0 is half the mean-field phase offset gamma * V_0."""
    return 0.5 * fp.params.gamma * fp.coefficients[fp.k_max :].real.copy()
