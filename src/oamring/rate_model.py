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
from typing import Callable

import numpy as np

from .dynamics import first_crossing
from .errors import ConfigurationError, ToleranceError
from .numerics import OdeControls, check_entries, integrate_ode

__all__ = [
    "RateState",
    "RateTrajectory",
    "evolve_rates",
    "ladder_transitions",
    "two_state_analytic",
]

CONSERVATION_TOL = 1e-9
NEGATIVE_TOL = 1e-12
DEFAULT_SEED_POPULATION = 1e-6


@dataclass(frozen=True)
class RateState:
    """Starting populations over the ladder m = 0 .. m_max.

    The ladder equations are autonomous and the phases never feed back, so a
    cascade starts at tau = 0 with every phase zero: another start would only
    shift the output."""

    populations: np.ndarray  # (m_max + 1,) real, nonnegative, sums to 1

    def __post_init__(self):
        check_entries(2 * self.populations.size**2, f"m_max={self.m_max}: rate ladder")
        if not np.isfinite(self.populations).all():
            raise ConfigurationError("populations must be finite")
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
    check_entries(2 * (m_max + 1) ** 2, f"m_max={m_max}: rate ladder")
    if not 0.0 < seed_population < 1.0 / max(m_max, 1):
        raise ConfigurationError(f"seed population {seed_population} out of range")
    pops = np.full(m_max + 1, seed_population)
    pops[0] = 1.0 - m_max * seed_population
    return RateState(pops)


def _ladder(n: int, coeff: np.ndarray, antisymmetric: bool) -> np.ndarray:
    """(n, n) Toeplitz matrix T[m, j] = coeff_|m-j| for 1 <= |m-j| < len(coeff).

    Coefficients arrive indexed by harmonic k = 0..2 m_max; entry 0 is never
    read (g_0 has no meaning, and alpha_0 enters only the rotor, as the
    mean-field offset 2 alpha_0 = gamma V_0), and lags past the coefficients
    or past the ladder are zero.  ``antisymmetric`` negates the entries above
    the diagonal, so T @ N is up - down rather than up + down, with
    up[m] = sum_k coeff_k N_{m-k} and down[m] = sum_k coeff_k N_{m+k}.
    """
    padded = np.zeros(n)
    top = min(n, len(coeff))
    padded[1:top] = np.asarray(coeff, dtype=float)[1:top]
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    ladder = padded[np.abs(lag)]
    return np.sign(lag) * ladder if antisymmetric else ladder


def _rate_rhs(n: int, g: np.ndarray, alpha: np.ndarray) -> Callable:
    """rhs(tau, y) of the cascade on y = (N_0 .. N_{n-1}, phi_0 .. phi_{n-1}).

    Rows 0..n-1 are dN/dtau, band-truncated, so they sum to zero; rows n..
    are dphi/dtau: the rotor term, the mean-field offset 2 alpha_0 and the
    dispersive ladder sums.  One stacked (2n, n) product gives both ladders.
    ``evolve_rates`` steps y in float64, so the populations are a contiguous
    slice that goes to BLAS as it is; a complex y gives a complex result.
    """
    ops = np.vstack([_ladder(n, g, True), -_ladder(n, alpha, False)])
    m = np.arange(n, dtype=float)
    rotor = -(m * m + 2.0 * alpha[0])

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        pops = y[:n]
        out = ops.dot(pops)
        out[:n] *= pops
        out[n:] += rotor
        return out

    return rhs


@dataclass(frozen=True)
class RateTrajectory:
    """Sampled cascade: populations[i], phases[i] at times[i], with the
    integrator's step counts (see numerics.Trajectory)."""

    times: np.ndarray
    populations: np.ndarray  # (T, m_max + 1)
    phases: np.ndarray  # (T, m_max + 1)
    attempts: int
    rejected: int


def evolve_rates(
    initial: RateState,
    g: np.ndarray,
    alpha: np.ndarray,
    tau_end: float,
    controls: OdeControls | None = None,
    stride: float = 1.0,
) -> RateTrajectory:
    """Integrate populations and phases together over (0, tau_end), the
    phases starting at zero.

    Seeds must be positive in any state meant to grow; the equations are
    multiplicative in N_m, so an exactly empty state stays empty forever.
    Each sample's population sum (against CONSERVATION_TOL) and populations
    (against -NEGATIVE_TOL) are checked as it is recorded, so a failing run
    stops there; tiny integration negatives are clamped to zero in the result.
    """
    n = initial.populations.size

    def check(tau: float, y: np.ndarray) -> None:
        pops = y[:n]
        drift = abs(pops.sum() - 1.0)
        if drift > CONSERVATION_TOL:
            raise ToleranceError(
                f"total population drift {drift:.3e} exceeds "
                f"{CONSERVATION_TOL:.0e} at tau={tau:.6g}"
            )
        if pops.min() < -NEGATIVE_TOL:
            j = int(np.argmin(pops))
            raise ToleranceError(
                f"population N_{j} = {pops[j]:.3e} fell below -{NEGATIVE_TOL:.0e} "
                f"at tau={tau:.6g}"
            )

    y0 = np.concatenate([initial.populations, np.zeros(n)])
    raw = integrate_ode(
        _rate_rhs(n, g, alpha), y0, (0.0, tau_end), controls, stride, check=check
    )
    pops, phases = raw.states[:, :n], raw.states[:, n:]
    return RateTrajectory(raw.times, np.where(pops < 0.0, 0.0, pops), phases,
                          raw.attempts, raw.rejected)


def ladder_transitions(traj: RateTrajectory) -> dict[int, dict]:
    """The ladder twin of dynamics.transitions: for each rung k >= 1 whose
    N_k crosses 1/2, that sample's ``tau``."""
    crossings = {k: first_crossing(pops) for k, pops in enumerate(traj.populations.T) if k}
    return {k: {"tau": float(traj.times[i])} for k, i in crossings.items() if i is not None}


def two_state_analytic(g_k: float, seed_population: float, tau: float) -> tuple[float, float]:
    """Closed-form single-channel transition (N_0, N_k) at time tau >= 0.

    The logistic N_k = s / (s + (1 - s) exp(-g_k tau)), N_0 = 1 - N_k, solves
    dN_k/dtau = g_k N_0 N_k from N_k(0) = s, the seed population, and equals
    (1/2) {1 + tanh[g_k (tau - tau_0) / 2]} with the delay
    tau_0 = ln((1 - s) / s) / g_k.  The pair sums to 1 exactly.
    """
    if not 0.0 < g_k < math.inf:
        raise ConfigurationError(f"two-state solution needs 0 < g_k < inf, got {g_k}")
    if not 0.0 < seed_population < 1.0:
        raise ConfigurationError("seed population must lie in (0, 1)")
    if not tau >= 0.0:  # exp(-g_k tau) would overflow far enough back
        raise ConfigurationError(f"two-state solution needs tau >= 0, got {tau}")
    s = seed_population
    n_k = s / (s + (1.0 - s) * math.exp(-g_k * tau))
    return 1.0 - n_k, n_k
