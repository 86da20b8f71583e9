"""Foundation kernels: Bessel J_n, periodic Fourier coefficients and an
adaptive embedded Runge-Kutta 5(4) integrator.

Everything here is a pure function of its inputs; there is no shared mutable
state, so concurrent calls are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, IntegrationError

__all__ = [
    "OdeControls",
    "Trajectory",
    "bessel_j_orders",
    "integrate_ode",
    "periodic_fourier_coefficients",
]

_OVERFLOW_GUARD = 1e250


def bessel_j_orders(n_max: int, x) -> np.ndarray:
    """Bessel functions J_0(x) .. J_{n_max}(x) for an array of arguments.

    One downward (Miller) recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, run
    for every element at once and normalized by J_0 + 2 sum_k J_2k = 1
    (Abramowitz & Stegun 9.12; Numerical Recipes ``bessj``).  Returns an
    array of shape (n_max + 1,) + x.shape whose row n is J_n(x).  Absolute
    error below 1e-15 for |x| <= 50 and n <= 60.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("bessel_j_orders arguments must be finite")
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError(f"bessel_j_orders needs n_max >= 0, got {n_max}")
    flat = x.ravel()
    zero = flat == 0.0
    arg = np.where(zero, 1.0, flat)
    x_top = float(np.abs(flat).max(initial=0.0))
    # Start far enough above both order and argument that the unnormalized
    # minimal solution has fully decayed; margin calibrated against a
    # high-precision series scan over n <= 60, |x| <= 50.
    start = max(n_max, math.ceil(x_top)) + 18 + int(12.0 * x_top ** (1.0 / 3.0))
    start += start % 2
    # Rescale an element once its next step could overflow; tiny arguments
    # multiply by up to 2 start / |x| per step.
    guard = np.minimum(_OVERFLOW_GUARD, 1e300 * np.abs(arg) / (2.0 * start))
    out = np.zeros((n_max + 1, flat.size))
    jp = np.zeros(flat.size)  # J_{k+1}, unnormalized
    jc = np.full(flat.size, 1e-30)  # J_k
    norm = np.zeros(flat.size)
    for k in range(start, 0, -1):
        jp, jc = jc, (2.0 * k / arg) * jc - jp
        if k - 1 <= n_max:
            out[k - 1] = jc
        if k % 2 == 1:  # k - 1 is even: a term of the normalization sum
            norm += jc if k == 1 else 2.0 * jc
        big = np.abs(jc) > guard
        if big.any():
            scale = 1.0 / np.abs(jc[big])
            jc[big] *= scale
            jp[big] *= scale
            norm[big] *= scale
            out[k - 1 :, big] *= scale
    out /= norm
    out[:, zero] = 0.0
    out[0, zero] = 1.0
    return out.reshape((n_max + 1,) + x.shape)


def periodic_fourier_coefficients(samples: np.ndarray, k_max: int) -> np.ndarray:
    """Fourier coefficients V_k = (1/2pi) int f(phi) exp(-ik phi) dphi of a
    function sampled on the uniform grid phi_j = 2 pi j / G over [0, 2 pi).

    Returns the coefficients for k = -k_max .. k_max (index k + k_max).
    The grid size must be a power of two and at least 4 * (2 k_max + 1).
    """
    samples = np.asarray(samples)
    grid = samples.shape[0]
    if grid & (grid - 1) or grid == 0:
        raise ConfigurationError(f"grid size {grid} is not a power of two")
    if grid < 4 * (2 * k_max + 1):
        raise ConfigurationError(
            f"grid size {grid} too small for k_max={k_max}; "
            f"need at least {4 * (2 * k_max + 1)}"
        )
    spec = np.fft.fft(samples) / grid
    ks = np.arange(-k_max, k_max + 1)
    return spec[np.mod(ks, grid)].astype(complex)


@dataclass(frozen=True)
class OdeControls:
    """Step-size control settings for the embedded Runge-Kutta pair."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = 10.0
    initial_step: float = 1e-4

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_step", "initial_step"):
            if not getattr(self, name) > 0.0:
                raise ConfigurationError(f"OdeControls.{name} must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Sampled ODE solution: times[i] goes with states[i]."""

    times: np.ndarray  # (T,) float, strictly increasing
    states: np.ndarray  # (T, dim) complex

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError("one state per time required")


# Dormand-Prince 5(4) tableau (FSAL: the 7th stage is the next step's first).
# Row i of _DP_A weights the stages that form stage i's input; row 6 is the
# 5th-order solution itself.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
        [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
    ]
)
_DP_ERR = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)

_SAFETY = 0.9
_BETA = 0.04  # PI stabilization exponent
_EXPO = 0.2 - 0.75 * _BETA
_FAC_MIN = 0.2  # largest allowed shrink ratio per step
_FAC_MAX = 10.0  # largest allowed growth ratio per step


def integrate_ode(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    tau_span: tuple[float, float],
    controls: OdeControls | None = None,
    sample_stride: float = 1.0,
    frequencies: np.ndarray | None = None,
) -> Trajectory:
    """Integrate dy/dtau = -i diag(frequencies) y + rhs(tau, y) with an
    adaptive Dormand-Prince 5(4) pair and PI step-size control, sampling the
    solution every ``sample_stride`` time units (the final time is always
    sampled).

    Without ``frequencies`` the equation is dy/dtau = rhs(tau, y) and no phase
    work is done.  With real ``frequencies`` w the linear part is solved
    exactly: the pair steps a = exp(i w tau) y, whose derivative is
    exp(i w tau) rhs(tau, y) (integrating-factor or Lawson Runge-Kutta;
    Lawson 1967, SIAM J. Numer. Anal. 4, 372).  Each attempted step forms its
    six stage phases exp(i w (tau + c_i h)) in one exponential; every stage
    turns its input back to y for ``rhs`` and rotates the result forward.
    Step control acts on a, ``rhs`` always sees y at the stage times, and the
    samples are y.

    ``rhs`` is called once at the start and six times per attempted step, at
    tau + c_i h.  Each call gets an array of its own that the integrator
    never writes afterwards, so ``rhs`` may keep it.

    The step sequence is a pure function of the inputs, so repeated calls are
    bitwise reproducible.  A step whose error norm is not finite is rejected
    at the largest shrink, so a derivative that stays NaN or inf ends, like
    any other step-size underflow, in IntegrationError reporting the last
    time reached.
    """
    controls = controls or OdeControls()
    t0, t1 = float(tau_span[0]), float(tau_span[1])
    if not t1 > t0:
        raise ConfigurationError(f"empty integration span ({t0}, {t1})")
    if not sample_stride > 0.0:
        raise ConfigurationError("sample_stride must be positive")

    y = np.asarray(y0, dtype=complex).copy()
    n_inner = int(math.ceil((t1 - t0) / sample_stride - 1e-12))
    sample_times = [t0 + i * sample_stride for i in range(1, n_inner)]
    sample_times.append(t1)

    t = t0
    # One row per stage; row 0 holds the derivative at (t, y), row 6 the one
    # at (t + h, y_new).
    k = np.empty((7, y.size), dtype=complex)
    k_re = k.view(float)  # real coefficients act on re/im pairs alike
    # h * _DP_A is written into ha once per attempt; stage i reads its node,
    # its row of ha and the stages before it through views made here once.
    ha = np.empty_like(_DP_A)
    stages = [(i, _DP_C[i].item(), ha[i, :i], k_re[:i], k[i]) for i in range(1, 7)]
    nodes = _DP_C[1:, None]
    rotating = frequencies is not None
    if rotating:
        i_omega = 1j * np.asarray(frequencies, dtype=float)
        phase = np.exp(i_omega * t)
        k[0] = phase * rhs(t, y)
        y = y * phase  # a = exp(i w t) y from here on; rhs may keep the old y
    else:
        k[0] = rhs(t, y)
    times = [t0]
    states = [y.copy()]
    abs_y = np.abs(y)
    h = min(controls.initial_step, controls.max_step, t1 - t0)
    fac_old = 1e-4
    underflow = 1e-14 * max(1.0, abs(t1))
    next_sample = 0

    while t < t1:
        target = sample_times[next_sample]
        h = min(h, controls.max_step, target - t)
        if h < underflow:
            raise IntegrationError("step size underflow", tau_last=t)

        np.multiply(h, _DP_A, out=ha)
        if rotating:  # row i - 1 goes with stage i
            phases = np.exp((t + nodes * h) * i_omega)
            unphases = phases.conj()
        for i, c_i, ha_i, k_before, k_i in stages:
            y_stage = y + ha_i.dot(k_before).view(complex)
            if rotating:
                f = rhs(t + c_i * h, y_stage * unphases[i - 1])
                np.multiply(phases[i - 1], f, out=k_i)
            else:
                k_i[...] = rhs(t + c_i * h, y_stage)
        y_new = y_stage  # stage 7's input is the 5th-order solution
        abs_new = np.abs(y_new)
        err_vec = (h * _DP_ERR).dot(k_re).view(complex)
        scale = controls.abs_tol + controls.rel_tol * np.maximum(abs_y, abs_new)
        ratio = err_vec / scale
        err = math.sqrt(np.vdot(ratio, ratio).real / y.size)
        if math.isnan(err):  # a non-finite stage: reject at the largest shrink
            err = math.inf

        fac11 = err**_EXPO if err > 0.0 else 1e-10
        if err <= 1.0:
            t = t + h
            y = y_new
            abs_y = abs_new
            k[0] = k[6]  # FSAL: the derivative at t + h seeds the next step
            fac = fac11 / fac_old**_BETA
            fac = max(1.0 / _FAC_MAX, min(1.0 / _FAC_MIN, fac / _SAFETY))
            h = h / fac
            fac_old = max(err, 1e-4)
            if t >= target - underflow:
                t = target
                times.append(target)
                states.append(y.copy())
                next_sample += 1
                if next_sample >= len(sample_times):
                    break
        else:
            h = h / min(1.0 / _FAC_MIN, fac11 / _SAFETY)

    times = np.array(times)
    states = np.array(states)
    if rotating:
        states *= np.exp(-i_omega * times[:, None])
    return Trajectory(times=times, states=states)
