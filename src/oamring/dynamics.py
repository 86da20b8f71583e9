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
from .numerics import OdeControls, Trajectory, check_entries, integrate_ode
from .potential import FourierPotential, SystemParams

__all__ = [
    "BunchingSpectrum",
    "Observables",
    "StateVector",
    "bunching",
    "default_initial_state",
    "evolve",
    "first_crossing",
    "modes",
    "observables",
    "transitions",
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

    coefficients: np.ndarray  # Phi_m at index m + band

    def __post_init__(self):
        phi = self.coefficients
        if phi.ndim != 1 or phi.size % 2 == 0 or not np.isfinite(phi).all():
            raise ConfigurationError("bunching must be finite over -band..band")

    @property
    def band(self) -> int:
        return (self.coefficients.size - 1) // 2


@dataclass(frozen=True)
class Observables:
    """One value per state of amplitudes shaped (..., size); ``populations``
    keeps the band axis and ``phi`` ends in a lag axis of k_top + 1."""

    drift: np.ndarray  # norm drift |sum_m N_m - 1|
    edge: np.ndarray  # population in the outer ~10% of the band, both edges
    populations: np.ndarray  # N_m = |c_m|^2 in band order
    phi: np.ndarray  # bunching Phi_0 .. Phi_k_top
    mean_omega: np.ndarray  # <omega> = sum_m m N_m, in angular recoil units


def observables(states: np.ndarray, k_top: int) -> Observables:
    """Observables of amplitudes whose last axis is the band, so (size,),
    (T, size) and (B, T, size) arrays all work.  Phi_k sums
    conj(c_{n-k}) c_n over in-band n, for k = 0 .. k_top; a lag past the
    band has no such n, and its Phi_k is 0."""
    size = states.shape[-1]
    pops = np.abs(states) ** 2
    n_side = max(1, int(0.05 * size + 0.5))
    phi = np.zeros(states.shape[:-1] + (k_top + 1,), dtype=complex)
    for k in range(min(k_top + 1, size)):
        phi[..., k] = (np.conj(states[..., : size - k]) * states[..., k:]).sum(axis=-1)
    return Observables(
        drift=np.abs(pops.sum(axis=-1) - 1.0),
        edge=pops[..., :n_side].sum(axis=-1) + pops[..., -n_side:].sum(axis=-1),
        populations=pops,
        phi=phi,
        mean_omega=(modes((size - 1) // 2) * pops).sum(axis=-1),
    )


def first_crossing(populations: np.ndarray) -> int | None:
    """Index of the first sample whose population exceeds 1/2, or None: the
    one rule for when a quantized transfer has happened."""
    hits = np.flatnonzero(populations > 0.5)
    return int(hits[0]) if hits.size else None


def transitions(times: np.ndarray, obs: Observables) -> dict[int, dict]:
    """The transfers of a (T, size) pass whose phi reaches lag m_max, keyed by
    each k whose N_{+k} + N_{-k} crosses 1/2: that sample's ``tau``, the
    ``sign`` of the larger of N_{+k}, N_{-k} there (+1 on a tie), and the
    largest |Phi_k| up to and including it, ``peak_phi``, at ``peak_tau``."""
    pops = obs.populations
    m_max = (pops.shape[-1] - 1) // 2
    record = {}
    for k in range(1, m_max + 1):
        plus, minus = pops[:, m_max + k], pops[:, m_max - k]
        i = first_crossing(plus + minus)
        if i is not None:
            phi = np.abs(obs.phi[: i + 1, k])
            j = int(np.argmax(phi))
            record[k] = {"tau": float(times[i]), "sign": 1 if plus[i] >= minus[i] else -1,
                         "peak_phi": float(phi[j]), "peak_tau": float(times[j])}
    return record


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
    check_entries(2 * m_max + 1, f"m_max={m_max}: band")
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
    check_entries((2 * k_max + 1) * size, f"m_max={fp.params.m_max}: coupling table")
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


def _derivative(state: StateVector, fp: FourierPotential) -> np.ndarray:
    """dc/dtau of the coupled-mode equations at the given state."""
    _check_band(state, fp)
    m = modes(state.m_max)
    return -1j * (m * m) * state.amplitudes + _nonlinear_rhs(fp)(
        state.tau, state.amplitudes
    )


def bunching(state: StateVector) -> BunchingSpectrum:
    """Bunching coefficients over every lag the band supports."""
    c = state.amplitudes
    phi = observables(c, c.size - 1).phi
    return BunchingSpectrum(np.concatenate([phi[:0:-1].conj(), phi]))


def _check_sample(tau: float, c: np.ndarray) -> None:
    """Raise at norm drift or band-edge occupancy past tolerance, drift first."""
    obs = observables(c, 0)
    if obs.drift > NORM_TOL:
        raise ToleranceError(
            f"norm drift {obs.drift:.3e} exceeds {NORM_TOL:.0e} at tau={tau:.6g}"
        )
    if obs.edge > EDGE_TOL:
        raise TruncationError(
            f"band-edge occupancy {obs.edge:.3e} exceeds {EDGE_TOL:.0e} at "
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
    norm-conservation and band-edge invariants are checked on each sample as
    it is recorded, the initial state included; the first violation ends the
    run in ToleranceError / TruncationError rather than being repaired.
    """
    _check_band(initial, fp)
    m = modes(initial.m_max)
    return integrate_ode(
        _nonlinear_rhs(fp),
        initial.amplitudes,
        (initial.tau, tau_end),
        controls,
        sample_stride=stride,
        frequencies=(m * m).astype(float),
        check=_check_sample,
    )
