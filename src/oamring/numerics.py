"""Foundation kernels: the table-size budget, Bessel J_n and an adaptive
embedded Runge-Kutta 5(4) integrator.  The pair potential's Fourier spectrum,
its one FFT and its grid-doubling check live in ``potential``.

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
    "MAX_ENTRIES",
    "OdeControls",
    "Trajectory",
    "bessel_j_orders",
    "check_entries",
    "integrate_ode",
]

_OVERFLOW_GUARD = 1e250
# Most entries of any one table sized by an input: 256 MiB of complex values.
# The largest preset table, rate fig3's sample store, holds 50,442.
MAX_ENTRIES = 1 << 24
# Most steps one run may attempt, accepted or rejected.  The largest documented
# run, README's fig4 reference at rel_tol 1e-11, attempts 329,733: a 6x
# margin.  A span that steps of max_step could not cover within it is
# refused up front.
_MAX_ATTEMPTS = 1 << 21


def check_entries(entries, what: str) -> None:
    """Raise ConfigurationError naming ``what`` unless a table of ``entries``
    entries is within MAX_ENTRIES; NaN and inf never are."""
    if not entries <= MAX_ENTRIES:
        raise ConfigurationError(
            f"{what} needs {entries:.6g} entries, past the limit of {MAX_ENTRIES}"
        )


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
    """Sampled ODE solution: times[i] goes with states[i].  ``attempts``
    counts every step tried, ``rejected`` the ones among them that were
    retried shorter; the rhs was called 1 + 6 attempts times."""

    times: np.ndarray  # (T,) float, strictly increasing
    states: np.ndarray  # (T, dim) in the problem's dtype: float64 or complex
    attempts: int
    rejected: int

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError("one state per time required")


# Dormand-Prince 5(4) tableau (FSAL: the 7th stage is the next step's first).
# Row i of _DP_A weights the stages that form stage i's input; row 6 is the
# 5th-order solution itself and row 7 the error estimate (5th minus 4th order).
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
        [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40],
    ]
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
    check: Callable[[float, np.ndarray], None] | None = None,
) -> Trajectory:
    """Integrate dy/dtau = -i diag(frequencies) y + rhs(tau, y) with an
    adaptive Dormand-Prince 5(4) pair and PI step-size control, sampling the
    solution every ``sample_stride`` time units (the final time is always
    sampled).  A span not at least the smallest step 1e-14 max(1, |t1|) long
    (empty, reversed and NaN spans among them), a sample store past
    MAX_ENTRIES entries (samples times state size), or a span that steps of
    ``max_step`` could not cover within the step budget of 2**21 attempts,
    is a ConfigurationError naming the span, raised before any ``rhs`` call.
    ``check(tau, y)``, if given, sees each sample as it is recorded, sample 0
    before the first ``rhs`` call; an exception it raises ends the run there.
    The returned Trajectory counts the steps attempted and rejected.

    The state is stepped in its problem's own dtype: complex when
    ``frequencies`` are given, or when ``y0`` or the first ``rhs`` value is
    complex, and float64 otherwise.  That first ``rhs`` call decides; a later
    complex value on a real state is not a promotion but an IntegrationError
    reporting the last time reached.
    The sample store holds the ``last + 2`` rows the entry bound counts, and
    each sample is written into its row, the array ``check`` sees.

    Without ``frequencies`` the equation is dy/dtau = rhs(tau, y) and no phase
    work is done.  With real ``frequencies`` w the linear part is solved
    exactly: the pair steps a = exp(i w tau) y, whose derivative is
    exp(i w tau) rhs(tau, y) (integrating-factor or Lawson Runge-Kutta;
    Lawson 1967, SIAM J. Numer. Anal. 4, 372).  Each attempted step forms its
    six stage phases exp(i w (tau + c_i h)) in one exponential; every stage
    turns its input back to y for ``rhs`` and rotates the result forward.
    Step control acts on a, ``rhs`` always sees y at the stage times, and
    each later sample is turned back to y as it is recorded.

    ``rhs`` is called once at the start and six times per attempted step, at
    tau + c_i h.  Each call gets an array of its own that the integrator
    never writes afterwards, so ``rhs`` may keep it.

    The step sequence is a pure function of the inputs, so repeated calls are
    bitwise reproducible.  A step whose error norm is not finite is rejected
    at the largest shrink, so a derivative that stays NaN or inf ends, like
    any other step-size underflow, in IntegrationError reporting the last
    time reached.  So does a run that would attempt more steps than the
    budget.
    """
    controls = controls or OdeControls()
    t0, t1 = float(tau_span[0]), float(tau_span[1])
    underflow = 1e-14 * max(1.0, abs(t1))
    if not t1 - t0 >= underflow:  # empty, reversed and NaN spans too
        raise ConfigurationError(
            f"span ({t0}, {t1}) is shorter than the smallest step {underflow:.3g}"
        )
    if not sample_stride > 0.0:
        raise ConfigurationError("sample_stride must be positive")

    rotating = frequencies is not None
    y = np.array(y0, dtype=complex if rotating or np.iscomplexobj(y0) else float)
    n = y.size
    n_inner = (t1 - t0) / sample_stride - 1e-12
    # At most n_inner + 2 samples: t0, the inner ones and t1.
    check_entries(
        (max(n_inner, 0.0) + 2) * n,
        f"span ({t0}, {t1}) at stride {sample_stride}: sample store",
    )
    rel_tol, abs_tol, max_step = controls.rel_tol, controls.abs_tol, controls.max_step
    if not (t1 - t0) / max_step <= _MAX_ATTEMPTS:
        raise ConfigurationError(
            f"span ({t0}, {t1}) at max_step {max_step} needs more steps "
            f"than the step budget of {_MAX_ATTEMPTS} attempts"
        )
    last = max(math.ceil(n_inner), 1) - 1  # the index of the sample at t1
    if last and t1 - (t0 + last * sample_stride) < underflow:
        last -= 1  # t1 is nearer the last inner sample than any step: merge them

    t = t0
    if check is not None:
        check(t, y)
    if rotating:
        i_omega = 1j * np.asarray(frequencies, dtype=float)
        phase = np.exp(i_omega * t)
        k0 = phase * rhs(t, y)
    else:
        k0 = rhs(t, y)
        if np.iscomplexobj(k0):
            y = y.astype(complex)
    dtype = y.dtype
    stacked = dtype.kind == "c"  # complex rows are stepped as re/im pairs
    # Sample i goes into row i as it is recorded: t0, the inner ones and t1.
    times = np.empty(last + 2)
    states = np.empty((last + 2, n), dtype)
    times[0], states[0] = t, y
    if rotating:
        y = y * phase  # a = exp(i w t) y from here on; rhs may keep the old y
    # One row per stage; row 0 holds the derivative at (t, y), row 6 the one
    # at (t + h, y_new).
    k = np.empty((7, n), dtype)
    k[0] = k0
    k_re = k.view(float)  # real coefficients act on re/im pairs alike
    # h * _DP_A is written into ha once per attempt; stage i reads its node,
    # its row of ha and the stages before it through views made here once.
    ha = np.empty_like(_DP_A)
    ha_err = ha[7]
    stages = [(i, _DP_C[i].item(), ha[i, :i], k_re[:i], k[i]) for i in range(1, 7)]
    nodes = _DP_C[1:, None]
    scale = np.empty(n)
    abs_y = np.abs(y)
    h = min(controls.initial_step, max_step, t1 - t0)
    fac_old = 1e-4
    next_sample = 0
    attempts = rejected = 0

    while t < t1:
        attempts += 1
        if attempts > _MAX_ATTEMPTS:
            raise IntegrationError(f"step budget of {_MAX_ATTEMPTS} attempts spent", t)
        target = t1 if next_sample == last else t0 + (next_sample + 1) * sample_stride
        h = min(h, max_step, target - t)
        if h < underflow:
            raise IntegrationError("step size underflow", tau_last=t)

        np.multiply(h, _DP_A, out=ha)
        if rotating:  # row i - 1 goes with stage i
            phases = np.exp((t + nodes * h) * i_omega)
            unphases = phases.conj()
        for i, c_i, ha_i, k_before, k_i in stages:
            step = ha_i.dot(k_before)
            y_stage = y + (step.view(complex) if stacked else step)
            if rotating:
                f = rhs(t + c_i * h, y_stage * unphases[i - 1])
                np.multiply(phases[i - 1], f, out=k_i)
            else:
                f = rhs(t + c_i * h, y_stage)
                try:
                    np.copyto(k_i, f, casting="same_kind")
                except TypeError as exc:  # a complex value on a real state, say
                    raise IntegrationError(
                        f"rhs value cannot be stored in the {dtype} state: {exc}", t
                    ) from exc
        y_new = y_stage  # stage 7's input is the 5th-order solution
        abs_new = np.abs(y_new)
        ratio = ha_err.dot(k_re)
        if stacked:
            ratio = ratio.view(complex)
        np.maximum(abs_y, abs_new, out=scale)
        scale *= rel_tol
        scale += abs_tol
        ratio /= scale
        err = math.sqrt(np.vdot(ratio, ratio).real / n)
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
                next_sample += 1
                times[next_sample] = t
                row = states[next_sample]
                if rotating:
                    np.multiply(y, np.exp(-i_omega * t), out=row)
                else:
                    row[...] = y
                if check is not None:
                    check(t, row)
                if next_sample > last:
                    break
        else:
            rejected += 1
            h = h / min(1.0 / _FAC_MIN, fac11 / _SAFETY)

    return Trajectory(times, states, attempts, rejected)
