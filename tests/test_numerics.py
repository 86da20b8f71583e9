"""Kernel tests: every assertion traces to an analytic value, a high-precision
series oracle, or an exact identity of the underlying mathematics."""

import math

import mpmath as mp
import numpy as np
import pytest

from oamring.errors import ConfigurationError, IntegrationError
from oamring.numerics import (
    OdeControls,
    Trajectory,
    bessel_j,
    bessel_j_orders,
    integrate_ode,
    periodic_fourier_coefficients,
    principal_sqrt,
)

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


class TestBessel:
    def test_j0_at_origin(self):
        assert bessel_j(0, 0.0) == 1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 25])
    def test_higher_orders_vanish_at_origin(self, n):
        assert bessel_j(n, 0.0) == 0.0

    def test_golden_values(self):
        assert abs(bessel_j(1, 1.0) - J1_AT_1) < 1e-13
        assert abs(bessel_j(0, 50.0) - J0_AT_50) < 1e-12
        assert abs(bessel_j(60, 50.0) - J60_AT_50) < 1e-12
        assert abs(bessel_j(10, 0.5) - J10_AT_HALF) < 1e-15

    def test_first_root_of_j2(self):
        assert abs(bessel_j(2, J2_FIRST_ROOT)) < 1e-10

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 60])
    def test_against_series_oracle(self, n):
        # 5 sin(pi) ~ 6e-16 is the theta = pi row of every radiation pattern
        xs = (1e-8, 5.0 * math.sin(math.pi), 0.3, 1.7, 4.9, 6.1, 9.3, 17.2, 33.8, 49.5)
        rows = bessel_j_orders(60, np.array(xs))
        for x, from_rows in zip(xs, rows[n]):
            want = series_oracle(n, x)
            assert abs(bessel_j(n, x) - want) < 1e-12
            assert abs(from_rows - want) < 1e-12

    def test_orders_shape_origin_and_tiny_argument(self):
        rows = bessel_j_orders(4, np.zeros((2, 3)))
        assert rows.shape == (5, 2, 3)
        assert np.all(rows[0] == 1.0) and np.all(rows[1:] == 0.0)
        # one recurrence step multiplies by ~1e302 here; rescaling must keep up
        tiny = bessel_j_orders(2, np.array([1e-300]))[:, 0]
        assert tiny[0] == 1.0 and tiny[1] == pytest.approx(5e-301, rel=1e-15)

    def test_reflection_in_order_is_exact(self):
        for n in range(0, 12):
            for x in (0.7, 3.3, 11.0, 42.5):
                assert bessel_j(-n, x) == (-1.0) ** n * bessel_j(n, x)

    def test_reflection_in_argument(self):
        for n in (0, 1, 4):
            assert bessel_j(n, -7.7) == (-1.0) ** n * bessel_j(n, 7.7)

    def test_recurrence_residual(self):
        for n in range(1, 40):
            for x in (0.4, 2.2, 7.9, 23.0, 49.0):
                res = (
                    bessel_j(n - 1, x)
                    + bessel_j(n + 1, x)
                    - (2.0 * n / x) * bessel_j(n, x)
                )
                assert abs(res) < 1e-10

    def test_nonfinite_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_j(0, math.nan)
        with pytest.raises(ValueError):
            bessel_j(2, math.inf)


class TestFourierCoefficients:
    def grid(self, size=256):
        return 2.0 * np.pi * np.arange(size) / size

    def test_cosine(self):
        coeffs = periodic_fourier_coefficients(np.cos(self.grid()), 4)
        assert abs(coeffs[4 + 1] - 0.5) < 1e-14
        assert abs(coeffs[4 - 1] - 0.5) < 1e-14
        others = [k for k in range(-4, 5) if abs(k) != 1]
        assert max(abs(coeffs[4 + k]) for k in others) < 1e-14

    def test_single_positive_harmonic(self):
        coeffs = periodic_fourier_coefficients(np.exp(2j * self.grid()), 4)
        assert abs(coeffs[4 + 2] - 1.0) < 1e-14
        assert max(abs(coeffs[4 + k]) for k in range(-4, 5) if k != 2) < 1e-14

    def test_round_trip_band_limited(self):
        k_max = 6
        true = RNG.normal(size=2 * k_max + 1) + 1j * RNG.normal(size=2 * k_max + 1)
        phi = self.grid(128)
        ks = np.arange(-k_max, k_max + 1)
        samples = (true[None, :] * np.exp(1j * np.outer(phi, ks))).sum(axis=1)
        back = periodic_fourier_coefficients(samples, k_max)
        assert np.max(np.abs(back - true)) < 1e-12

    def test_grid_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            periodic_fourier_coefficients(np.zeros(64), 16)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            periodic_fourier_coefficients(np.zeros(100), 2)


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

    def test_underflow_reports_last_good_tau(self):
        def blows_up(t, y):
            return y / (1.0 - t)

        with pytest.raises(IntegrationError) as info:
            integrate_ode(
                blows_up, np.array([1.0 + 0j]), (0.0, 2.0), sample_stride=2.0
            )
        assert 0.0 < info.value.tau_last <= 1.0

    def test_empty_span_rejected(self):
        with pytest.raises(ConfigurationError):
            integrate_ode(_rotation, np.array([1.0 + 0j]), (1.0, 1.0))

    def test_bad_controls_rejected(self):
        with pytest.raises(ConfigurationError):
            OdeControls(rel_tol=0.0)
        with pytest.raises(ConfigurationError):
            OdeControls(max_step=-1.0)

    def test_trajectory_requires_increasing_times(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.0]), states=np.zeros((2, 1), complex))


class TestPrincipalSqrt:
    def test_real_positive(self):
        assert principal_sqrt(4.0) == 2.0

    def test_negative_real_axis(self):
        assert principal_sqrt(-1.0) == 1j
        w = principal_sqrt(complex(-4.0, -0.0))
        assert w.imag > 0.0 and w.real == 0.0

    def test_exact_gaussian_integer(self):
        assert principal_sqrt(3 + 4j) == 2 + 1j

    def test_square_recovers_input_within_ulps(self):
        mags = 10.0 ** RNG.uniform(-3, 6, size=300)
        args = RNG.uniform(-np.pi, np.pi, size=300)
        for z in mags * np.exp(1j * args):
            w = principal_sqrt(complex(z))
            assert w.real >= 0.0
            assert abs(w * w - z) <= 4.0 * np.spacing(abs(z))
