"""Kernel tests: every assertion traces to an analytic value, a high-precision
series oracle, or an exact identity of the underlying mathematics."""

import math
from contextlib import nullcontext

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oamring.dynamics as dynamics
import oamring.numerics as numerics
from oamring.config import parse_config
from oamring.errors import ConfigurationError, IntegrationError
from oamring.numerics import (
    MAX_ENTRIES,
    OdeControls,
    Trajectory,
    bessel_j_orders,
    check_entries,
    integrate_ode,
)
from oamring.potential import fourier_coefficients

RNG = np.random.default_rng(42)

# Golden values from the power-series oracle below at 80 decimal digits.
J1_AT_1 = 0.44005058574493351596
J0_AT_50 = 0.055812327669251815005
J60_AT_50 = 0.001048519599531418052
J10_AT_HALF = 2.6131773608228030862e-13
J2_FIRST_ROOT = 5.1356223018406825563


def series_oracle(n: int, x: float) -> float:
    """J_n(x) by direct power-series summation in 80-digit arithmetic."""
    with mp.workdps(80):
        half = mp.mpf(x) / 2
        term = half**n / mp.factorial(n)
        total = term
        j = 1
        while abs(term) > mp.mpf(10) ** -70 * (1 + abs(total)):
            term *= -(half * half) / (j * (n + j))
            total += term
            j += 1
        return float(total)


def j_n(n: int, x: float) -> float:
    """J_n(x), the last row of a bessel_j_orders pass that stops at order n."""
    return float(bessel_j_orders(n, x)[n])


class TestBessel:
    def test_j0_at_origin(self):
        assert j_n(0, 0.0) == 1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 25])
    def test_higher_orders_vanish_at_origin(self, n):
        assert j_n(n, 0.0) == 0.0

    def test_golden_values(self):
        assert abs(j_n(1, 1.0) - J1_AT_1) < 1e-13
        assert abs(j_n(0, 50.0) - J0_AT_50) < 1e-12
        assert abs(j_n(60, 50.0) - J60_AT_50) < 1e-12
        assert abs(j_n(10, 0.5) - J10_AT_HALF) < 1e-15

    def test_first_root_of_j2(self):
        assert abs(j_n(2, J2_FIRST_ROOT)) < 1e-10

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 60])
    def test_against_series_oracle(self, n):
        # 5 sin(pi) ~ 6e-16 is the theta = pi row of every radiation pattern
        xs = (1e-8, 5.0 * math.sin(math.pi), 0.3, 1.7, 4.9, 6.1, 9.3, 17.2, 33.8, 49.5)
        rows = bessel_j_orders(60, np.array(xs))
        for x, from_rows in zip(xs, rows[n]):
            want = series_oracle(n, x)
            assert abs(j_n(n, x) - want) < 1e-12
            assert abs(from_rows - want) < 1e-12

    def test_orders_shape_origin_and_tiny_argument(self):
        rows = bessel_j_orders(4, np.zeros((2, 3)))
        assert rows.shape == (5, 2, 3)
        assert np.all(rows[0] == 1.0) and np.all(rows[1:] == 0.0)
        # one recurrence step multiplies by ~1e302 here; rescaling must keep up
        tiny = bessel_j_orders(2, np.array([1e-300]))[:, 0]
        assert tiny[0] == 1.0 and tiny[1] == pytest.approx(5e-301, rel=1e-15)

    def test_reflection_in_argument(self):
        rows_neg, rows_pos = bessel_j_orders(4, [-7.7, 7.7]).T
        for n in (0, 1, 4):
            assert rows_neg[n] == (-1.0) ** n * rows_pos[n]

    def test_recurrence_residual(self):
        for n in range(1, 40):
            for x in (0.4, 2.2, 7.9, 23.0, 49.0):
                res = (
                    j_n(n - 1, x)
                    + j_n(n + 1, x)
                    - (2.0 * n / x) * j_n(n, x)
                )
                assert abs(res) < 1e-10

    def test_nonfinite_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_j_orders(0, math.nan)
        with pytest.raises(ValueError):
            bessel_j_orders(2, [1.0, math.inf])


def _rotation(t, y):
    return 1j * y


class TestIntegrator:
    def test_quarter_turn_phase(self):
        traj = integrate_ode(
            _rotation, np.array([1.0 + 0j]), (0.0, math.pi), sample_stride=0.5
        )
        assert abs(traj.states[-1, 0] - (-1.0)) < 1e-8

    def test_zero_rhs_constant(self):
        y0 = np.array([0.3 + 0.1j, -2.0 + 0j])
        traj = integrate_ode(lambda t, y: 0.0 * y, y0, (0.0, 5.0), sample_stride=1.0)
        assert np.array_equal(traj.states[-1], y0)

    def test_harmonic_oscillator_period(self):
        controls = OdeControls()

        def rhs(t, y):
            return np.array([y[1], -y[0]])

        traj = integrate_ode(
            rhs, np.array([1.0, 0.0]), (0.0, 2.0 * math.pi), controls, 1.0
        )
        err = np.max(np.abs(traj.states[-1] - np.array([1.0, 0.0])))
        assert err < 10.0 * controls.rel_tol

    def test_convergence_monotone_in_tolerance(self):
        errors = []
        for rel in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
            traj = integrate_ode(
                _rotation,
                np.array([1.0 + 0j]),
                (0.0, 10.0),
                OdeControls(rel_tol=rel, abs_tol=1e-14),
                sample_stride=10.0,
            )
            errors.append(abs(traj.states[-1, 0] - np.exp(10j)))
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_bitwise_deterministic(self):
        def rhs(t, y):
            return np.array([y[1], -np.sin(y[0])])

        runs = [
            integrate_ode(rhs, np.array([1.0, 0.3]), (0.0, 7.0), OdeControls(), 0.7)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].states, runs[1].states)
        assert np.array_equal(runs[0].times, runs[1].times)

    def test_sample_times_hit_stride(self):
        traj = integrate_ode(
            _rotation, np.array([1.0 + 0j]), (0.0, 2.0), sample_stride=0.25
        )
        assert np.allclose(traj.times, np.arange(0.0, 2.01, 0.25), atol=0)

    @settings(max_examples=60, deadline=None)
    @given(
        t0=st.floats(-50.0, 50.0),
        stride=st.floats(0.01, 5.0),
        count=st.integers(1, 200),
        fraction=st.floats(0.05, 0.95),
    )
    def test_sample_times_match_the_list_form(self, t0, stride, count, fraction):
        t1 = t0 + stride * (count - 1 + fraction)
        n_inner = int(math.ceil((t1 - t0) / stride - 1e-12))
        want = [t0] + [t0 + i * stride for i in range(1, n_inner)] + [t1]
        traj = integrate_ode(
            lambda t, y: np.zeros_like(y), np.ones(1), (t0, t1), sample_stride=stride
        )
        assert traj.times.tolist() == want

    def test_end_just_past_a_sample_merges_with_it(self):
        # t1 lies 5e-12 past the sample at 1000, nearer than any step may go.
        t1 = 1000.000000000005
        traj = integrate_ode(
            lambda t, y: np.zeros_like(y), np.ones(1), (0.0, t1), sample_stride=1.0
        )
        assert np.all(np.diff(traj.times) > 0.0)
        assert traj.times[-1] == t1 and len(traj.times) == 1001

    def test_underflow_reports_last_good_tau(self):
        def blows_up(t, y):
            return y / (1.0 - t)

        with pytest.raises(IntegrationError) as info:
            integrate_ode(
                blows_up, np.array([1.0 + 0j]), (0.0, 2.0), sample_stride=2.0
            )
        assert 0.0 < info.value.tau_last <= 1.0

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_derivative_ends_in_integration_error(self, value):
        # A non-finite error norm must shrink the step, never grow it.  On a
        # real state NaN only propagates, so it emits no warning (the pytest
        # setting error::RuntimeWarning pins that); inf meets a zero tableau
        # weight, and 0 * inf is numpy's invalid-value warning.
        warns = pytest.warns(RuntimeWarning) if value == np.inf else nullcontext()
        with warns, pytest.raises(IntegrationError) as info:
            integrate_ode(lambda t, y: np.full_like(y, value), np.ones(2), (0.0, 1.0))
        assert info.value.tau_last == 0.0

    @pytest.mark.parametrize(
        "rhs, frequencies, rate, dtype",
        [
            (lambda t, y: -y, None, -1.0, np.float64),
            (lambda t, y: -y, np.array([1.0, -2.0]), np.array([-1 - 1j, -1 + 2j]),
             np.complex128),
            (_rotation, None, 1j, np.complex128),
        ],
        ids=["real", "frequencies", "complex-rhs"],
    )
    def test_states_take_the_problems_dtype(self, rhs, frequencies, rate, dtype):
        # A real y0 is stepped in float64 unless frequencies are given or the
        # first rhs value is complex.  The pytest setting
        # error::numpy.exceptions.ComplexWarning pins that no imaginary part
        # is cast away on the way.
        traj = integrate_ode(rhs, np.ones(2), (0.0, 1.0), sample_stride=0.5,
                             frequencies=frequencies)
        assert traj.states.dtype == dtype
        assert np.max(np.abs(traj.states[-1] - np.exp(rate))) < 1e-9

    def test_rhs_turning_complex_on_a_real_state_is_an_integration_error(self):
        # The first rhs value is real, so the state is float64; the first
        # stage's complex value would lose its imaginary part.
        with pytest.raises(IntegrationError, match="float64 state") as info:
            integrate_ode(lambda t, y: 1j * y if t > 0 else -y, np.ones(1), (0.0, 1.0))
        assert info.value.tau_last == 0.0

    def test_type_error_inside_rhs_is_not_an_integration_error(self):
        def rhs(t, y):
            if t > 0:
                raise TypeError("a fault in the rhs")
            return -y

        with pytest.raises(TypeError, match="a fault in the rhs"):
            integrate_ode(rhs, np.ones(1), (0.0, 1.0))

    @pytest.mark.parametrize("frequencies", [None, np.array([3.0, -1.0])],
                             ids=["plain", "lawson"])
    def test_step_budget_counts_attempted_steps(self, monkeypatch, frequencies):
        # initial_step 10 makes the first attempts fail, so accepted steps
        # alone would undercount.  A budget of exactly the attempts the run
        # needs lets it finish; one fewer ends it at the last good tau.
        y0 = np.array([1.0 + 0j, 0.5])
        args = (y0, (0.0, 20.0), OdeControls(initial_step=10.0), 1.0, frequencies)
        wrapped, calls = recorded(_rotation)
        full = integrate_ode(wrapped, *args)
        attempts = (len(calls) - 1) // 6
        monkeypatch.setattr(numerics, "_MAX_ATTEMPTS", attempts)
        assert np.array_equal(integrate_ode(_rotation, *args).states, full.states)
        monkeypatch.setattr(numerics, "_MAX_ATTEMPTS", attempts - 1)
        wrapped, calls = recorded(_rotation)
        with pytest.raises(IntegrationError, match=f"budget of {attempts - 1} attempts"
                           ) as info:
            integrate_ode(wrapped, *args)
        assert len(calls) == 1 + 6 * (attempts - 1)
        assert 0.0 < info.value.tau_last < 20.0

    def test_frequencies_solve_the_linear_part(self):
        omega = np.array([0.0, 1.0, -2.5, 40.0])
        y0 = np.array([1.0, 0.5j, -0.3, 0.2 + 0.1j])
        traj = integrate_ode(
            lambda t, y: -0.5 * y, y0, (0.5, 6.0), sample_stride=0.5, frequencies=omega
        )
        elapsed = traj.times[:, None] - 0.5
        exact = y0[None, :] * np.exp(-(1j * omega[None, :] + 0.5) * elapsed)
        assert np.max(np.abs(traj.states - exact)) < 1e-10

    def test_zero_frequencies_match_plain_integration_bitwise(self):
        plain = integrate_ode(_rotation, np.array([1.0 + 0j, 0.5]), (0.0, 3.0))
        zero = integrate_ode(
            _rotation, np.array([1.0 + 0j, 0.5]), (0.0, 3.0), frequencies=np.zeros(2)
        )
        assert np.array_equal(zero.times, plain.times)
        assert np.array_equal(zero.states, plain.states)

    def test_check_sees_each_sample_as_it_is_recorded(self):
        omega = np.array([0.0, 1.0, -2.5, 40.0])
        y0 = np.array([1.0, 0.5j, -0.3, 0.2 + 0.1j])
        events = []

        def rhs(t, y):
            events.append(("rhs", t, None))
            return -0.5 * y

        def check(t, y):
            events.append(("check", t, y.copy()))

        traj = integrate_ode(
            rhs, y0, (0.5, 6.0), sample_stride=0.5, frequencies=omega, check=check
        )
        checks = [i for i, event in enumerate(events) if event[0] == "check"]
        assert checks[0] == 0
        assert [events[i][1] for i in checks] == traj.times.tolist()
        for i, state in zip(checks, traj.states):
            assert np.array_equal(events[i][2], state)
            assert all(t <= events[i][1] for _, t, _ in events[:i])
            assert all(t >= events[i][1] for _, t, _ in events[i + 1 :])
        # Lab frame: the exact solution of dy/dt = -(i omega + 0.5) y.
        elapsed = traj.times[:, None] - 0.5
        exact = y0[None, :] * np.exp(-(1j * omega[None, :] + 0.5) * elapsed)
        assert np.max(np.abs(np.array([events[i][2] for i in checks]) - exact)) < 1e-10

    @pytest.mark.parametrize("frequencies", [None, np.array([3.0])])
    def test_raising_check_ends_the_run(self, frequencies):
        class Stop(Exception):
            pass

        def check(t, y):
            if t >= 2.0:
                raise Stop

        wrapped, calls = recorded(_rotation)
        with pytest.raises(Stop):
            integrate_ode(wrapped, np.array([1.0 + 0j]), (0.0, 5.0), None, 0.5,
                          frequencies, check)
        assert 1.5 < max(calls) <= 2.0

    @staticmethod
    def never(t, y):
        raise AssertionError("rhs called")

    def test_step_bound_rejected_before_any_rhs_call(self):
        controls = OdeControls(max_step=1e-6)
        with pytest.raises(ConfigurationError, match=r"max_step 1e-06 .* steps"):
            integrate_ode(self.never, np.ones(1), (0.0, 5.0), controls)

    def test_step_bound_is_the_attempt_budget(self, monkeypatch):
        # A span of exactly the budget's steps of max_step passes the
        # pre-flight (and, stepping max_step from the start, runs in that
        # many attempts); a little longer is refused before any rhs call.
        monkeypatch.setattr(numerics, "_MAX_ATTEMPTS", 4)
        fixed = OdeControls(max_step=0.5, initial_step=0.5)
        traj = integrate_ode(lambda t, y: np.zeros_like(y), np.ones(1), (0.0, 2.0), fixed, 2.0)
        assert (traj.attempts, traj.rejected) == (4, 0)
        with pytest.raises(ConfigurationError,
                           match=r"span \(0\.0, 2\.0000001\) .* step budget of 4 attempts"):
            integrate_ode(self.never, np.ones(1), (0.0, 2.0000001), fixed, 2.0)

    def test_sample_store_counted_in_entries(self):
        # 10,001 samples of 5,000 entries: 50M entries in a few samples.
        with pytest.raises(ConfigurationError, match=r"stride 1\.0: sample store"):
            integrate_ode(self.never, np.ones(5000), (0.0, 10000.0), sample_stride=1.0)

    @pytest.mark.parametrize(
        "span",
        [(0.0, 5e-324), (0.0, 1e-30), (1e3, 1e3 + 1e-12), (-5.0, -5.0 + 1e-15),
         (1.0, 1.0), (2.0, 1.0), (0.0, math.nan)],
    )
    def test_span_shorter_than_a_step_rejected(self, span):
        # Empty, reversed and NaN spans are caught by the same check.
        with pytest.raises(ConfigurationError, match=r"span .* shorter than"):
            integrate_ode(self.never, np.ones(1), span)

    def test_bad_controls_rejected(self):
        with pytest.raises(ConfigurationError):
            OdeControls(rel_tol=0.0)
        with pytest.raises(ConfigurationError):
            OdeControls(max_step=-1.0)

    def test_trajectory_requires_increasing_times(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1), complex), 1, 0)


def test_check_entries_boundary():
    check_entries(MAX_ENTRIES, "table")
    for entries in (MAX_ENTRIES + 1, math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="table needs"):
            check_entries(entries, "table")


# Dormand-Prince 5(4) in loop form: the retained slow path that the stacked
# stage loop of integrate_ode must reproduce step for step.
_REF_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_REF_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_REF_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_REF_SAFETY = 0.9
_REF_BETA = 0.04
_REF_EXPO = 0.2 - 0.75 * _REF_BETA
_REF_FAC_MIN = 0.2
_REF_FAC_MAX = 10.0


def reference_dp5(rhs, y0, tau_span, controls=None, sample_stride=1.0):
    """integrate_ode with one array per stage and one product per tableau entry."""
    controls = controls or OdeControls()
    t0, t1 = float(tau_span[0]), float(tau_span[1])
    y = np.asarray(y0, dtype=complex).copy()
    n_inner = int(math.ceil((t1 - t0) / sample_stride - 1e-12))
    sample_times = [t0 + i * sample_stride for i in range(1, n_inner)]
    sample_times.append(t1)

    times = [t0]
    states = [y.copy()]
    t = t0
    k1 = np.asarray(rhs(t, y), dtype=complex)
    h = min(controls.initial_step, controls.max_step, t1 - t0)
    fac_old = 1e-4
    stages = [k1] + [np.empty_like(y) for _ in range(6)]
    underflow = 1e-14 * max(1.0, abs(t1))
    next_sample = 0
    attempts = rejected = 0

    while t < t1:
        attempts += 1
        target = sample_times[next_sample]
        h = min(h, controls.max_step, target - t)
        if h < underflow:
            raise IntegrationError("step size underflow", tau_last=t)

        for i in range(1, 7):
            acc = stages[0] * _REF_A[i][0]
            for j in range(1, i):
                if _REF_A[i][j] != 0.0:
                    acc = acc + stages[j] * _REF_A[i][j]
            stages[i] = np.asarray(rhs(t + _REF_C[i] * h, y + h * acc), dtype=complex)
        y_new = y + h * acc  # stage 7 uses the 5th-order weights themselves
        err_vec = h * sum(stages[i] * _REF_ERR[i] for i in range(7) if _REF_ERR[i] != 0.0)
        scale = controls.abs_tol + controls.rel_tol * np.maximum(
            np.abs(y), np.abs(y_new)
        )
        err = math.sqrt(float(np.mean(np.abs(err_vec / scale) ** 2)))

        fac11 = err**_REF_EXPO if err > 0.0 else 1e-10
        if err <= 1.0:
            t = t + h
            y = y_new
            stages[0] = stages[6]  # FSAL: rhs(t+h, y_new) seeds the next step
            fac = fac11 / fac_old**_REF_BETA
            fac = max(1.0 / _REF_FAC_MAX, min(1.0 / _REF_FAC_MIN, fac / _REF_SAFETY))
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
            rejected += 1
            h = h / min(1.0 / _REF_FAC_MIN, fac11 / _REF_SAFETY)

    return Trajectory(np.array(times), np.array(states), attempts, rejected)


def recorded(rhs):
    """rhs plus the list of times it was called at."""
    calls = []

    def wrapper(t, y):
        calls.append(t)
        return rhs(t, y)

    return wrapper, calls


def attempts(calls, t0):
    """(start, h) of every attempted step, checking the FSAL call pattern:
    one call at t0, then six per attempt at t + c_i h, each attempt starting
    where the last one started (rejected) or ended (accepted)."""
    assert calls[0] == t0
    assert (len(calls) - 1) % 6 == 0
    nodes = np.array(calls[1:]).reshape(-1, 6)
    h = (nodes[:, 5] - nodes[:, 0]) / (_REF_C[6] - _REF_C[1])
    start = nodes[:, 5] - h
    scale = max(1.0, float(np.abs(nodes).max()))
    want = start[:, None] + np.array(_REF_C[1:])[None, :] * h[:, None]
    assert np.max(np.abs(nodes - want)) < 1e-13 * scale
    assert abs(start[0] - t0) < 1e-13 * scale
    return start, h


def kept(rhs):
    """rhs plus the list of (array handed in, copy taken at the call)."""
    seen = []

    def wrapper(t, y):
        seen.append((y, y.copy()))
        return rhs(t, y)

    return wrapper, seen


def assert_fresh_and_kept(seen):
    """Every call got its own array, and none changed after the call."""
    assert len({id(y) for y, _ in seen}) == len(seen)
    for y, at_call in seen:
        assert y.tobytes() == at_call.tobytes()


def step_counts(calls, t0) -> tuple[int, int]:
    """(accepted, rejected) attempts, from the times the rhs saw."""
    start, h = attempts(calls, t0)
    end = start + h
    rejected = np.abs(start[1:] - start[:-1]) < np.abs(start[1:] - end[:-1])
    # every attempt whose successor starts at its end was accepted, and the
    # last attempt ends the integration
    accepted = np.abs(start[1:] - end[:-1]) < 1e-13 * max(1.0, float(np.abs(end).max()))
    assert np.all(accepted ^ rejected)
    return int(accepted.sum()) + 1, int(rejected.sum())


def stiff_problem():
    """A first step 200 times the decay time: the controller must reject."""
    controls = OdeControls(rel_tol=1e-8, abs_tol=1e-10, max_step=1.0, initial_step=1.0)
    return (lambda t, y: -200.0 * y), np.ones(1), (0.0, 1.0), controls, 1.0


def oscillator_problem():
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    return rhs, np.array([1.0, 0.0]), (0.0, 2.0 * math.pi), OdeControls(), 1.0


def fig2_rotated_problem(monkeypatch, tau_end=20.0):
    """The lab-frame nonlinear rhs and the rotor frequencies m^2 that evolve
    hands to integrate_ode on fig2."""
    cfg = parse_config("evolve", preset="fig2")
    fp = fourier_coefficients(cfg.params)
    initial = dynamics.default_initial_state(cfg.params, cfg.options["seed_amplitude"])
    captured = []

    def capture(rhs, y0, tau_span, controls, sample_stride, frequencies, check):
        captured.append((rhs, y0, tau_span, controls, sample_stride, frequencies))
        return integrate_ode(
            rhs, y0, tau_span, controls, sample_stride, frequencies, check=check
        )

    monkeypatch.setattr(dynamics, "integrate_ode", capture)
    dynamics.evolve(initial, fp, tau_end=tau_end, stride=cfg.options["stride"])
    (problem,) = captured
    return problem


def interaction_picture(rhs, omega):
    """da/dt = exp(i omega t) rhs(t, a exp(-i omega t)), written out: the
    equation integrate_ode steps when it is given the frequencies omega."""
    i_omega = 1j * omega

    def rotated(t, a):
        phase = np.exp(i_omega * t)
        return phase * rhs(t, a * phase.conj())

    return rotated


class TestStackedStagesMatchLoopForm:
    def both(self, problem):
        rhs, y0, span, controls, stride = problem
        runs = []
        for integrator in (reference_dp5, integrate_ode):
            wrapped, calls = recorded(rhs)
            runs.append((integrator(wrapped, y0, span, controls, stride), calls))
        return runs

    def test_fig2_rotated_rhs(self, monkeypatch):
        rhs, y0, span, controls, stride, omega = fig2_rotated_problem(monkeypatch)
        ref_rhs, ref_calls = recorded(interaction_picture(rhs, omega))
        a0 = y0 * np.exp(1j * omega * span[0])
        ref = reference_dp5(ref_rhs, a0, span, controls, stride)
        new_rhs, new_calls = recorded(rhs)
        new = integrate_ode(new_rhs, y0, span, controls, stride, omega)
        assert len(new_calls) == len(ref_calls) == 12499
        assert (new.attempts, new.rejected) == (ref.attempts, ref.rejected)
        assert np.max(np.abs(np.array(new_calls) - np.array(ref_calls))) < 1e-9
        assert np.array_equal(new.times, ref.times)
        ref_lab = ref.states * np.exp(-1j * omega[None, :] * ref.times[:, None])
        assert np.max(np.abs(new.states - ref_lab)) < 1e-12

    @pytest.mark.parametrize("problem", [oscillator_problem, stiff_problem])
    def test_same_accepted_and_rejected_steps(self, problem):
        args = problem()
        (ref, ref_calls), (new, new_calls) = self.both(args)
        t0 = args[2][0]
        assert step_counts(new_calls, t0) == step_counts(ref_calls, t0)
        assert (new.attempts, new.rejected) == (ref.attempts, ref.rejected)
        assert np.array_equal(new.times, ref.times)
        assert np.max(np.abs(new.states - ref.states)) < 1e-12


class TestLawsonMatchesReference:
    # The error estimates must stay far above rounding, or the two summation
    # orders move later steps by more than the bounds: a loose rel_tol, a
    # first attempt as long as the span (the controller shrinks into range
    # rather than growing through tiny estimates) and no step cut short
    # before an inner sample.
    CONTROLS = OdeControls(rel_tol=1e-6, abs_tol=1e-9, initial_step=10.0)

    @settings(max_examples=50, deadline=None)
    @given(
        dim=st.integers(1, 5),
        t0=st.floats(-5.0, 5.0),
        length=st.floats(0.05, 2.0),
        omega_top=st.floats(0.0, 40.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_linear_rhs_and_frequencies(self, dim, t0, length, omega_top, seed):
        # integrate_ode(..., frequencies=omega) against the loop-form DP5 on
        # the interaction-picture equation it stands for.
        rng = np.random.default_rng(seed)
        omega = rng.uniform(-omega_top, omega_top, dim)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a /= 2.0 * dim
        y0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        span = (t0, t0 + length)

        ref_rhs, ref_calls = recorded(interaction_picture(lambda t, y: a @ y, omega))
        a0 = y0 * np.exp(1j * omega * t0)
        ref = reference_dp5(ref_rhs, a0, span, self.CONTROLS, length)
        new_rhs, new_calls = recorded(lambda t, y: a @ y)
        new = integrate_ode(new_rhs, y0, span, self.CONTROLS, length, omega)
        assert len(new_calls) == len(ref_calls)
        assert np.max(np.abs(np.array(new_calls) - np.array(ref_calls))) < 1e-9
        assert np.array_equal(new.times, ref.times)
        ref_lab = ref.states * np.exp(-1j * omega[None, :] * ref.times[:, None])
        assert np.max(np.abs(new.states - ref_lab)) < 1e-12


class TestCallPattern:
    """The FSAL pattern of rhs call times, and the step counts a Trajectory
    reports against the ones read from those times alone."""

    @staticmethod
    def assert_counts(traj, calls, t0):
        accepted, rejected = step_counts(calls, t0)
        assert (traj.attempts, traj.rejected) == (accepted + rejected, rejected)

    def test_fixed_steps(self):
        wrapped, calls = recorded(lambda t, y: -y)
        fixed = OdeControls(rel_tol=1.0, abs_tol=1.0, max_step=0.125, initial_step=0.125)
        traj = integrate_ode(wrapped, np.ones(1), (0.0, 1.0), fixed, 1.0)
        start, h = attempts(calls, 0.0)
        assert np.allclose(h, 0.125, rtol=0, atol=1e-15)
        assert step_counts(calls, 0.0) == (8, 0)
        self.assert_counts(traj, calls, 0.0)

    def test_with_rejections(self):
        rhs, y0, span, controls, stride = stiff_problem()
        wrapped, calls = recorded(rhs)
        traj = integrate_ode(wrapped, y0, span, controls, stride)
        accepted, rejected = step_counts(calls, span[0])
        assert rejected >= 1 and accepted > rejected
        start, h = attempts(calls, span[0])
        assert start[-1] + h[-1] == pytest.approx(span[1], abs=1e-13)
        self.assert_counts(traj, calls, span[0])

    def test_with_frequencies(self):
        rhs, y0, span, controls, stride = stiff_problem()
        wrapped, calls = recorded(rhs)
        traj = integrate_ode(wrapped, y0, span, controls, stride,
                             frequencies=np.array([50.0]))
        accepted, rejected = step_counts(calls, span[0])
        assert rejected >= 1 and accepted > rejected
        start, h = attempts(calls, span[0])
        assert start[-1] + h[-1] == pytest.approx(span[1], abs=1e-13)
        self.assert_counts(traj, calls, span[0])

    def test_fig2_counts(self, monkeypatch):
        rhs, y0, span, controls, stride, omega = fig2_rotated_problem(monkeypatch, 50.0)
        wrapped, calls = recorded(rhs)
        traj = integrate_ode(wrapped, y0, span, controls, stride, omega)
        assert traj.attempts > 1000
        self.assert_counts(traj, calls, span[0])


class TestRhsArguments:
    """A caller's rhs may keep the arrays it is handed (perfbench's tracer
    does), so the integrator hands each call a fresh array it never writes."""

    @pytest.mark.parametrize("start", [0.0, 1.5])
    def test_fig2(self, monkeypatch, start):
        rhs, y0, _, controls, stride, omega = fig2_rotated_problem(monkeypatch, 2.0)
        wrapped, seen = kept(rhs)
        integrate_ode(wrapped, y0, (start, start + 2.0), controls, stride, omega)
        assert len(seen) > 100
        assert_fresh_and_kept(seen)

    @pytest.mark.parametrize("frequencies", [None, np.array([50.0])])
    def test_through_rejections(self, frequencies):
        rhs, y0, _, controls, stride = stiff_problem()
        recording, calls = recorded(rhs)
        wrapped, seen = kept(recording)
        integrate_ode(wrapped, y0, (0.5, 1.5), controls, stride, frequencies)
        assert step_counts(calls, 0.5)[1] >= 1
        assert_fresh_and_kept(seen)
