"""Full coupled-mode dynamics of the condensate over a truncated OAM band.

The complex amplitudes c_m (m = -m_max .. m_max) obey

    dc_m/dtau = -i m^2 c_m - i (gamma/2) sum_k V_k c_{m-k} Phi_k,
    Phi_k = sum_n conj(c_{n-k}) c_n,

with couplings referencing modes outside the band treated as zero.  evolve
hands the rotor frequencies m^2 and the lab-frame nonlinear term to
integrate_ode, which steps the interaction picture a_m = c_m exp(i m^2 tau):
the rotor phases are then exact and the norm drift stays far below
tolerance over long runs.  The integrator forms the phases of each step's
stages once, so the nonlinear term itself never rotates.  In the
interaction picture that term still oscillates at the differences
m^2 - n^2 of coupled modes, and those set the step size.  No
renormalization is ever applied; drift is a diagnostic, not a knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, ToleranceError, TruncationError
from .numerics import OdeControls, Trajectory, integrate_ode
from .potential import FourierPotential, SystemParams

__all__ = [
    "BunchingSpectrum",
    "StateVector",
    "band_edge_occupancy",
    "bunching",
    "bunching_series",
    "default_initial_state",
    "derivative",
    "evolve",
    "mean_angular_velocity",
    "modes",
    "populations",
]

NORM_TOL = 1e-8
EDGE_TOL = 1e-6
DEFAULT_SEED_AMPLITUDE = 1e-4


def modes(m_max: int) -> np.ndarray:
    """Mode numbers m = -m_max .. m_max in array order."""
    return np.arange(-m_max, m_max + 1)


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over the OAM band at dimensionless time tau.

    amplitudes[i] is c_m with m = i - m_max.
    """

    tau: float
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.amplitudes.ndim != 1 or self.amplitudes.size % 2 == 0:
            raise ConfigurationError("amplitudes must cover -m_max..m_max")
        if not np.isfinite(self.amplitudes).all():
            raise ConfigurationError("amplitudes must be finite")

    @property
    def m_max(self) -> int:
        return (self.amplitudes.size - 1) // 2


@dataclass(frozen=True)
class BunchingSpectrum:
    """Azimuthal bunching Phi_m = sum_n conj(c_{n-m}) c_n for |m| <= band."""

    coefficients: np.ndarray
    band: int

    def coefficient(self, m: int) -> complex:
        if abs(m) > self.band:
            return 0.0 + 0.0j
        return complex(self.coefficients[m + self.band])


def band_edge_occupancy(amplitudes: np.ndarray) -> float | np.ndarray:
    """Population in the outer ~10% of the band (split across both edges).

    The band is the last axis, so a (T, size) trajectory gives T values.
    """
    size = amplitudes.shape[-1]
    n_side = max(1, int(0.05 * size + 0.5))
    pops = np.abs(amplitudes) ** 2
    return pops[..., :n_side].sum(axis=-1) + pops[..., -n_side:].sum(axis=-1)


def default_initial_state(
    params: SystemParams,
    seed_amplitude: float = DEFAULT_SEED_AMPLITUDE,
    mode: str = "deterministic",
    rng_seed: int = 0,
) -> StateVector:
    """Condensate in m = 0 with every other mode seeded at a tiny amplitude.

    Deterministic mode gives all seeds a real positive phase; random mode
    draws uniform phases from numpy's default generator at ``rng_seed``.
    c_0 is real positive and carries the rest of the norm, so the state is
    normalized exactly.
    """
    if not 0.0 < seed_amplitude <= 1e-2:
        raise ConfigurationError(
            f"seed_amplitude must lie in (0, 1e-2], got {seed_amplitude}"
        )
    m_max = params.m_max
    seed_norm = 2.0 * m_max * seed_amplitude**2
    if seed_norm >= 1.0:
        raise ConfigurationError(
            f"seed_amplitude={seed_amplitude} on 2*m_max={2 * m_max} modes "
            f"carries norm {seed_norm:.6g} >= 1, leaving none for m = 0"
        )
    amps = np.full(2 * m_max + 1, seed_amplitude, dtype=complex)
    if mode == "random":
        if rng_seed < 0:
            raise ConfigurationError(f"rng_seed={rng_seed} must be >= 0 in random mode")
        rng = np.random.default_rng(rng_seed)
        phases = rng.uniform(0.0, 2.0 * np.pi, 2 * m_max + 1)
        amps = amps * np.exp(1j * phases)
    elif mode != "deterministic":
        raise ConfigurationError(f"unknown seed mode {mode!r}")
    amps[m_max] = np.sqrt(1.0 - seed_norm)
    return StateVector(tau=0.0, amplitudes=amps)


def _nonlinear_rhs(fp: FourierPotential) -> Callable[[float, np.ndarray], np.ndarray]:
    """The term -i (gamma/2) sum_k V_k c_{m-k} Phi_k as rhs(tau, c), with
    out-of-band terms zero.

    The returned function owns one zero-padded copy of the band.  Row j of
    its Toeplitz view is c shifted by j - k_max, so the rows dotted with
    conj(c) give Phi_k at index k + k_max, and the sum over k is the weights
    in reverse order dotted with the rows.  Each call copies the view once
    into a contiguous array for both products; numpy cannot hand the strided
    view to BLAS and would otherwise copy it inside each ``dot``.
    """
    size = 2 * fp.params.m_max + 1
    k_max = fp.k_max
    weights = (-0.5j * fp.params.gamma) * fp.coefficients
    padded = np.zeros(size + 2 * k_max, dtype=complex)
    band = padded[k_max : k_max + size]
    rows = sliding_window_view(padded, size)  # rows[j, m] = c_{m + j - k_max}

    def rhs(tau: float, c: np.ndarray) -> np.ndarray:
        band[...] = c
        toeplitz = np.ascontiguousarray(rows)
        return (weights * toeplitz.dot(c.conj()))[::-1].dot(toeplitz)

    return rhs


def _check_band(state: StateVector, fp: FourierPotential) -> None:
    if state.m_max != fp.params.m_max:
        raise ConfigurationError(
            f"state band m_max={state.m_max} does not match params "
            f"m_max={fp.params.m_max}"
        )


def derivative(state: StateVector, fp: FourierPotential) -> np.ndarray:
    """dc/dtau of the coupled-mode equations at the given state."""
    _check_band(state, fp)
    m = modes(state.m_max)
    return -1j * (m * m) * state.amplitudes + _nonlinear_rhs(fp)(
        state.tau, state.amplitudes
    )


def bunching(state: StateVector) -> BunchingSpectrum:
    """Bunching coefficients over every lag the band supports."""
    c = state.amplitudes
    corr = np.correlate(c, c, "full")  # sum_j conj(c_j) c_{j+k} at index k + size - 1
    return BunchingSpectrum(coefficients=corr, band=c.size - 1)


def bunching_series(states: np.ndarray, k_top: int) -> np.ndarray:
    """Phi_0 .. Phi_k_top of every row of a (T, size) array of amplitudes."""
    size = states.shape[-1]
    out = np.empty(states.shape[:-1] + (k_top + 1,), dtype=complex)
    for k in range(k_top + 1):
        out[..., k] = (np.conj(states[..., : size - k]) * states[..., k:]).sum(axis=-1)
    return out


def populations(state: StateVector) -> np.ndarray:
    """Mode populations N_m = |c_m|^2 in band order."""
    return np.abs(state.amplitudes) ** 2


def mean_angular_velocity(state: StateVector) -> float:
    """<omega> = sum_m m N_m in units of the angular recoil frequency."""
    return float(np.sum(modes(state.m_max) * populations(state)))


def _check_samples(times: np.ndarray, states: np.ndarray) -> None:
    """Raise at the first sample whose norm drift or band-edge occupancy is
    past tolerance; the drift is checked first within a sample."""
    drift = np.abs((np.abs(states) ** 2).sum(axis=-1) - 1.0)
    edge = band_edge_occupancy(states)
    bad = np.nonzero((drift > NORM_TOL) | (edge > EDGE_TOL))[0]
    if bad.size == 0:
        return
    i = bad[0]
    tau = float(times[i])
    if drift[i] > NORM_TOL:
        raise ToleranceError(
            f"norm drift {drift[i]:.3e} exceeds {NORM_TOL:.0e} at tau={tau:.6g}"
        )
    raise TruncationError(
        f"band-edge occupancy {edge[i]:.3e} exceeds {EDGE_TOL:.0e} at "
        f"tau={tau:.6g}; increase m_max"
    )


def evolve(
    initial: StateVector,
    fp: FourierPotential,
    tau_end: float,
    controls: OdeControls | None = None,
    stride: float = 1.0,
) -> Trajectory:
    """Integrate the coupled-mode equations from the initial state.

    Returns lab-frame amplitudes sampled every ``stride`` time units.  The
    norm-conservation and band-edge invariants are enforced at every sample;
    violations raise ToleranceError / TruncationError rather than being
    silently repaired.
    """
    _check_band(initial, fp)
    _check_samples(np.array([initial.tau]), initial.amplitudes[None, :])

    m = modes(initial.m_max)
    traj = integrate_ode(
        _nonlinear_rhs(fp),
        initial.amplitudes,
        (initial.tau, tau_end),
        controls,
        sample_stride=stride,
        frequencies=(m * m).astype(float),
    )
    _check_samples(traj.times, traj.states)
    return traj
