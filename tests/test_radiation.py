"""Far-field tests: the Bessel expansion against the direct quadrature of the
ring density (the two routes are tied by the Jacobi-Anger identity), channel
orthogonality in the azimuthal average, and lobe structure."""

import math

import numpy as np
import pytest

from oamring.dynamics import StateVector, bunching
from oamring.errors import ConfigurationError
from oamring.numerics import bessel_j
from oamring.potential import SystemParams
from oamring.radiation import (
    averaged_intensity,
    count_lobes,
    expansion_tail_bound,
    field_expansion,
    field_quadrature,
    pattern_grid,
)

RNG = np.random.default_rng(31)

# Frozen from the 80-digit series oracle in test_numerics.
J2_AT_5 = 0.046565116277752215532
J3_AT_5 = 0.36483123061366699446


def uniform_state(m_max=6) -> StateVector:
    amps = np.zeros(2 * m_max + 1, dtype=complex)
    amps[m_max] = 1.0
    return StateVector(0.0, amps)


def random_interior_state(m_max=8, rng=RNG) -> StateVector:
    amps = rng.normal(size=2 * m_max + 1) + 1j * rng.normal(size=2 * m_max + 1)
    amps /= np.linalg.norm(amps)
    return StateVector(0.0, amps)


def two_mode_state(m_max, lo, hi, weight=0.5) -> StateVector:
    amps = np.zeros(2 * m_max + 1, dtype=complex)
    amps[m_max + lo] = math.sqrt(1.0 - weight)
    amps[m_max + hi] = math.sqrt(weight)
    return StateVector(0.0, amps)


class TestFieldExpansion:
    def test_uniform_state_single_channel(self):
        spec = bunching(uniform_state())
        for theta, phi in ((0.9, 0.4), (1.7, 5.1)):
            got = field_expansion(spec, ell=1, k0_rho=1.0, theta=theta, phi=phi)
            x = math.sin(theta)
            want = -1j * bessel_j(1, x) * np.exp(1j * phi)
            assert abs(got - want) < 1e-14

    def test_forward_axis_dark_for_wound_pump(self):
        spec = bunching(uniform_state())
        for ell in (1, 2, 5):
            assert abs(field_expansion(spec, ell, 2.0, 0.0, 0.3)) == 0.0

    def test_two_state_small_ring_matches_reduced_form(self):
        # With only Phi_0 and Phi_(+/-1) present, the field reduces to
        # -i J_1 e^(i phi) + conj(Phi_1) J_0 up to the dropped J_2 piece.
        state = two_mode_state(6, 0, 1)
        spec = bunching(state)
        phi1 = spec.coefficient(1)
        assert abs(abs(phi1) - 0.5) < 1e-12
        theta, phi = 1.1, 2.0
        x = math.sin(theta)
        reduced = -1j * bessel_j(1, x) * np.exp(1j * phi) + np.conj(
            phi1
        ) * bessel_j(0, x)
        full = field_expansion(spec, ell=1, k0_rho=1.0, theta=theta, phi=phi)
        assert abs(full - reduced) <= abs(phi1) * abs(bessel_j(2, x)) + 1e-12

    def test_band_argument_validated(self):
        spec = bunching(uniform_state(3))
        with pytest.raises(ConfigurationError):
            field_expansion(spec, 1, 1.0, 0.5, 0.5, m_band=spec.band + 1)


class TestQuadratureEquivalence:
    def test_unit_response_forward(self):
        got = field_quadrature(uniform_state(), ell=0, k0_rho=1.0, theta=0.0, phi=0.0)
        assert abs(got - 1.0) < 1e-14

    def test_expansion_equals_quadrature_on_random_states(self):
        thetas = np.linspace(0.15, math.pi - 0.15, 5)
        phis = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        worst = 0.0
        for _ in range(50):
            state = random_interior_state()
            spec = bunching(state)
            for theta in thetas:
                for phi in phis:
                    a = field_expansion(spec, 2, 2.3, float(theta), float(phi))
                    b = field_quadrature(state, 2, 2.3, float(theta), float(phi))
                    worst = max(worst, abs(a - b))
        assert worst < 1e-8

    def test_azimuthal_phase_structure_single_component(self):
        state = uniform_state()
        ell = 2
        front = field_quadrature(state, ell, 1.5, math.pi / 2, 0.0)
        back = field_quadrature(state, ell, 1.5, math.pi / 2, math.pi)
        # single channel ell' = ell: M(phi + pi) = e^(i ell pi) M(phi)
        assert abs(back - front * np.exp(1j * ell * math.pi)) < 1e-12

    def test_coarse_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            field_quadrature(uniform_state(8), 1, 1.0, 0.5, 0.0, grid_size=64)


class TestAveragedIntensity:
    def test_uniform_state(self):
        spec = bunching(uniform_state())
        for theta in (0.3, 1.2):
            total, _ = averaged_intensity(spec, ell=2, k0_rho=3.0, theta=theta)
            assert total == pytest.approx(
                bessel_j(2, 3.0 * math.sin(theta)) ** 2, abs=1e-14
            )

    def test_two_state_small_ring_decomposition(self):
        spec = bunching(two_mode_state(6, 0, 1))
        theta = 1.0
        x = math.sin(theta)
        total, components = averaged_intensity(spec, ell=1, k0_rho=1.0, theta=theta)
        square = dict(components)
        # exact three-channel sum, and the quoted two-term reduction
        exact = (
            bessel_j(1, x) ** 2
            + 0.25 * bessel_j(0, x) ** 2
            + 0.25 * bessel_j(2, x) ** 2
        )
        assert total == pytest.approx(exact, abs=1e-12)
        reduced = bessel_j(1, x) ** 2 + 0.25 * bessel_j(0, x) ** 2
        assert abs(total - reduced) <= 0.25 * bessel_j(2, x) ** 2 + 1e-12
        assert square[1] == pytest.approx(bessel_j(1, x) ** 2, abs=1e-12)

    def test_sideband_dominates_pump_channel_on_tuned_ring(self):
        # ring radius at the (approximate) null of the pump channel: the
        # ell' = -3 weight beats ell' = 2 by J_3(5)^2 / J_2(5)^2 ~ 61 before
        # the bunching factors
        spec = bunching(two_mode_state(10, 0, 5))
        _, components = averaged_intensity(spec, ell=2, k0_rho=5.0, theta=math.pi / 2)
        weights = dict(components)
        bare_ratio = (weights[-3] / abs(spec.coefficient(-5)) ** 2) / (
            weights[2] / abs(spec.coefficient(0)) ** 2
        )
        assert bare_ratio == pytest.approx((J3_AT_5 / J2_AT_5) ** 2, rel=1e-10)
        assert bare_ratio == pytest.approx(61.39, abs=0.5)

    def test_matches_numerical_phi_average(self):
        state = random_interior_state(6)
        spec = bunching(state)
        theta = 0.8
        phis = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
        cut = np.array(
            [abs(field_expansion(spec, 1, 2.0, theta, float(p))) ** 2 for p in phis]
        )
        total, _ = averaged_intensity(spec, ell=1, k0_rho=2.0, theta=theta)
        assert abs(cut.mean() - total) < 1e-9

    def test_forward_axis_selects_zero_channel(self):
        for _ in range(5):
            spec = bunching(random_interior_state(5))
            ell = 3
            total, components = averaged_intensity(spec, ell, 2.7, 0.0)
            for ell_prime, weight in components:
                if ell_prime != 0:
                    assert weight == 0.0
            # the surviving channel is m = -ell
            assert total == pytest.approx(abs(spec.coefficient(-ell)) ** 2, abs=1e-14)


class TestTailBound:
    def test_truncation_change_within_reported_bound(self):
        state = random_interior_state(6)
        spec = bunching(state)
        ell, k0_rho, theta, phi = 1, 2.0, 1.0, 0.7
        small = field_expansion(spec, ell, k0_rho, theta, phi, m_band=8)
        full = field_expansion(spec, ell, k0_rho, theta, phi, m_band=spec.band)
        bound = expansion_tail_bound(ell, k0_rho, theta, m_band=8)
        assert abs(full - small) <= bound
        assert bound < 1e-3

    def test_zero_at_forward_axis(self):
        assert expansion_tail_bound(2, 5.0, 0.0, 4) == 0.0

    def test_tail_through_order_zero_is_bounded(self):
        # m_band < |ell|: the neglected lower tail passes through n = 0
        ell, k0_rho, theta, m_band = 2, 1.0, math.pi / 2, 0
        neglected = sum(abs(bessel_j(n, 1.0)) for n in range(-60, 61) if n != ell)
        assert expansion_tail_bound(ell, k0_rho, theta, m_band) >= neglected
        # on the forward axis only the neglected J_0(0) = 1 channel remains
        assert expansion_tail_bound(ell, k0_rho, 0.0, m_band) == 1.0


class TestPatternGrid:
    def test_uniform_state_is_azimuthally_flat(self):
        params = SystemParams(gamma=0.0, epsilon=0.1, k0_rho=1.0, ell=1, m_max=6)
        pattern = pattern_grid(uniform_state(6), params, theta_count=21, phi_count=32)
        intens = pattern.intensity
        assert np.max(intens.max(axis=1) - intens.min(axis=1)) < 1e-14

    def test_grid_matches_pointwise_expansion(self):
        params = SystemParams(gamma=0.0, epsilon=0.1, k0_rho=2.0, ell=2, m_max=5)
        state = random_interior_state(5)
        spec = bunching(state)
        pattern = pattern_grid(state, params, theta_count=7, phi_count=8)
        for i, theta in enumerate(pattern.theta_grid):
            for j, phi in enumerate(pattern.phi_grid):
                direct = field_expansion(
                    spec, params.ell, params.k0_rho, float(theta), float(phi)
                )
                assert abs(pattern.field[i, j] - direct) < 1e-12

    def test_avg_intensity_column_consistency(self):
        params = SystemParams(gamma=0.0, epsilon=0.1, k0_rho=2.0, ell=1, m_max=5)
        pattern = pattern_grid(random_interior_state(5), params, 11, 16)
        assert np.allclose(
            pattern.avg_intensity, pattern.components.sum(axis=1), atol=1e-15
        )

    def test_five_lobes_from_dominant_fifth_harmonic(self):
        params = SystemParams(gamma=0.2, epsilon=0.1, k0_rho=5.0, ell=2, m_max=10)
        pattern = pattern_grid(
            two_mode_state(10, 0, 5), params, theta_count=33, phi_count=256
        )
        i_eq = int(np.argmin(np.abs(pattern.theta_grid - math.pi / 2)))
        assert count_lobes(pattern.intensity[i_eq]) == 5

    def test_tiny_grid_rejected(self):
        params = SystemParams(gamma=0.0, epsilon=0.1, k0_rho=1.0, ell=1, m_max=5)
        with pytest.raises(ConfigurationError):
            pattern_grid(uniform_state(5), params, theta_count=1)


class TestCountLobes:
    def test_pure_harmonic(self):
        phi = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
        assert count_lobes(1.0 + np.cos(5.0 * phi)) == 5

    def test_twin_peaks_merge_across_shallow_notch(self):
        phi = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
        # secondary ripple splits each crest without reaching half depth
        cut = 1.0 + np.cos(3.0 * phi) + 0.1 * np.cos(6.0 * phi)
        assert count_lobes(cut) == 3

    def test_flat_input_has_no_lobes(self):
        assert count_lobes(np.ones(64)) == 0
