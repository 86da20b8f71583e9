"""Superradiant-cascade approximation: population rate equations, coherent
phase equations, and the closed-form two-state transition.

Valid in the quantum regime, where the cascade involves essentially two
states at a time.  Populations N_m (m = 0 .. m_max) obey

    dN_m/dtau = [ sum_{k=1}^{m} g_k N_{m-k} - sum_{k>=1} g_k N_{m+k} ] N_m

with the upper sum truncated at the band edge; the paired structure makes
sum_m N_m exactly conserved even after truncation.  Transfer is upward only,
so the band is restricted to m >= 0: the +/-m choice of the full model is
outside this approximation by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ToleranceError
from .numerics import OdeControls, integrate_ode

__all__ = [
    "RateState",
    "RateTrajectory",
    "evolve_rates",
    "phase_derivative",
    "rate_derivative",
    "two_state_analytic",
]

CONSERVATION_TOL = 1e-9
NEGATIVE_TOL = 1e-12
DEFAULT_SEED_POPULATION = 1e-6


@dataclass(frozen=True)
class RateState:
    """Populations and phases over the ladder m = 0 .. m_max at time tau."""

    tau: float
    populations: np.ndarray  # (m_max + 1,) real, nonnegative, sums to 1
    phases: np.ndarray  # (m_max + 1,) radians

    def __post_init__(self):
        if self.populations.shape != self.phases.shape:
            raise ConfigurationError("populations and phases must align")
        if not np.isfinite([self.populations, self.phases]).all():
            raise ConfigurationError("populations and phases must be finite")
        if np.any(self.populations < -NEGATIVE_TOL):
            raise ConfigurationError("populations must be nonnegative")
        if abs(float(self.populations.sum()) - 1.0) > CONSERVATION_TOL:
            raise ConfigurationError("populations must sum to 1")

    @property
    def m_max(self) -> int:
        return self.populations.size - 1


def seeded_rate_state(
    m_max: int, seed_population: float = DEFAULT_SEED_POPULATION
) -> RateState:
    """Ground state minus equal seeds in every excited rung.

    Delay times depend logarithmically on the seeds, so they are an explicit
    argument here rather than something baked in."""
    if m_max < 0:
        raise ConfigurationError(f"rate ladder needs m_max >= 0, got {m_max}")
    if not 0.0 < seed_population < 1.0 / max(m_max, 1):
        raise ConfigurationError(f"seed population {seed_population} out of range")
    pops = np.full(m_max + 1, seed_population)
    pops[0] = 1.0 - m_max * seed_population
    return RateState(tau=0.0, populations=pops, phases=np.zeros(m_max + 1))


def _ladder(n: int, coeff: np.ndarray, antisymmetric: bool) -> np.ndarray:
    """(n, n) Toeplitz matrix T[m, j] = coeff_|m-j| for 1 <= |m-j| < len(coeff).

    Coefficients arrive indexed by harmonic k = 0..k_max; entry 0 is never
    read (g_0 has no meaning and alpha_0 enters only through gamma_v0), and
    lags past the band or past the ladder are zero.  ``antisymmetric`` negates
    the entries above the diagonal, so T @ N is up - down rather than up +
    down, with up[m] = sum_k coeff_k N_{m-k} and down[m] = sum_k coeff_k N_{m+k}.
    """
    padded = np.zeros(n)
    top = min(n, len(coeff))
    padded[1:top] = np.asarray(coeff, dtype=float)[1:top]
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    ladder = padded[np.abs(lag)]
    return np.sign(lag) * ladder if antisymmetric else ladder


def _rotor(size: int, gamma_v0: float) -> np.ndarray:
    m = np.arange(size, dtype=float)
    return -(m * m + gamma_v0)


def rate_derivative(state: RateState, g: np.ndarray) -> np.ndarray:
    """dN/dtau of the cascade, band-truncated; components sum to zero."""
    pops = state.populations
    return (_ladder(pops.size, g, True) @ pops) * pops


def phase_derivative(
    state: RateState, alpha: np.ndarray, gamma_v0: float
) -> np.ndarray:
    """dphi/dtau: rotor term, mean-field offset, and dispersive ladder sums."""
    pops = state.populations
    return _rotor(pops.size, gamma_v0) - _ladder(pops.size, alpha, False) @ pops


@dataclass(frozen=True)
class RateTrajectory:
    """Sampled cascade: populations[i], phases[i] at times[i]."""

    times: np.ndarray
    populations: np.ndarray  # (T, m_max + 1)
    phases: np.ndarray  # (T, m_max + 1)


def evolve_rates(
    initial: RateState,
    g: np.ndarray,
    alpha: np.ndarray,
    gamma_v0: float,
    tau_end: float,
    controls: OdeControls | None = None,
    stride: float = 1.0,
) -> RateTrajectory:
    """Integrate populations and phases together.

    Seeds must be positive in any state meant to grow; the equations are
    multiplicative in N_m, so an exactly empty state stays empty forever.
    Total population is checked against CONSERVATION_TOL at every sample and
    tiny integration negatives are clamped to zero in the reported result.
    """
    n = initial.populations.size
    # Rows 0..n-1 give the population ladder sums, rows n.. the phase ones.
    ops = np.vstack([_ladder(n, g, True), -_ladder(n, alpha, False)])
    rotor = _rotor(n, gamma_v0)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        pops = y[:n].real
        out = ops @ pops
        out[:n] *= pops
        out[n:] += rotor
        return out

    y0 = np.concatenate([initial.populations, initial.phases]).astype(complex)
    raw = integrate_ode(
        rhs, y0, (initial.tau, tau_end), controls or OdeControls(), stride
    )
    pops = raw.states[:, :n].real
    phases = raw.states[:, n:].real

    totals = pops.sum(axis=1)
    worst = int(np.argmax(np.abs(totals - 1.0)))
    if abs(totals[worst] - 1.0) > CONSERVATION_TOL:
        raise ToleranceError(
            f"total population drift {abs(totals[worst] - 1.0):.3e} exceeds "
            f"{CONSERVATION_TOL:.0e} at tau={raw.times[worst]:.6g}"
        )
    if np.any(pops < -NEGATIVE_TOL):
        i, j = np.unravel_index(int(np.argmin(pops)), pops.shape)
        raise ToleranceError(
            f"population N_{j} = {pops[i, j]:.3e} fell below -{NEGATIVE_TOL:.0e} "
            f"at tau={raw.times[i]:.6g}"
        )
    pops = np.where(pops < 0.0, 0.0, pops)
    return RateTrajectory(times=raw.times, populations=pops, phases=phases)


def two_state_analytic(g_k: float, seed_population: float, tau: float) -> tuple[float, float]:
    """Closed-form single-channel transition (N_0, N_k) at time tau.

    N_{0,k} = (1/2) {1 -/+ tanh[g_k (tau - tau_0) / 2]} with the delay
    tau_0 = ln(2 / sqrt(N_k(0))) / g_k.  The pair sums to 1 exactly.
    """
    if not g_k > 0.0:
        raise ConfigurationError("two-state solution needs g_k > 0")
    if not 0.0 < seed_population < 1.0:
        raise ConfigurationError("seed population must lie in (0, 1)")
    tau_0 = math.log(2.0 / math.sqrt(seed_population)) / g_k
    t = math.tanh(0.5 * g_k * (tau - tau_0))
    n_k = 0.5 * (1.0 + t)
    return 1.0 - n_k, n_k
