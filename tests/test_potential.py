"""Pair potential, Fourier spectrum, and derived coefficient tests.

The golden coefficient table in tests/data was produced by composite
trapezoid quadrature with direct exponential sums on a grid four times the
production size; see the JSON's "oracle" field.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamring.errors import ConfigurationError, ResolutionError
from oamring.potential import (
    FourierPotential,
    SystemParams,
    dispersion_coefficients,
    fourier_coefficients,
    pair_potential,
    rate_coefficients,
)

DATA = Path(__file__).parent / "data"
RNG = np.random.default_rng(11)


def golden_table():
    payload = json.loads((DATA / "golden_vk_k0rho1_ell1_eps0p1.json").read_text())
    return {int(k): complex(re, im) for k, (re, im) in payload["coefficients"].items()}


def fig2_params(**kw):
    base = dict(gamma=0.05, epsilon=0.1, k0_rho=1.0, ell=1)
    base.update(kw)
    return SystemParams(**base)


class TestPairPotential:
    def test_value_at_zero_separation(self):
        p = fig2_params()
        q0 = p.epsilon
        expected = -math.cos(2.0 * p.k0_rho * q0) / (p.k0_rho * q0)
        assert pair_potential(0.0, p) == pytest.approx(expected, abs=1e-15)

    def test_antipodal_small_cutoff_limit(self):
        p = SystemParams(gamma=0.0, epsilon=1e-7, k0_rho=2.0, ell=0)
        expected = -math.cos(2.0 * p.k0_rho) / p.k0_rho
        assert pair_potential(math.pi, p) == pytest.approx(expected, abs=1e-9)

    def test_reflection_swaps_winding_sign(self):
        plus = SystemParams(gamma=0.0, epsilon=0.1, k0_rho=3.0, ell=2)
        minus = SystemParams(gamma=0.0, epsilon=0.1, k0_rho=3.0, ell=-2)
        for phi in RNG.uniform(0.0, 2.0 * np.pi, 50):
            assert pair_potential(-phi, plus) == pytest.approx(
                pair_potential(phi, minus), abs=1e-14
            )

    def test_periodicity_exact_on_representable_shifts(self):
        # These base angles survive the +2pi float addition without rounding,
        # so reduction must give bit-identical values.
        p = fig2_params()
        for phi in (0.0, 0.25, 0.5, 1.0, math.pi / 2, math.pi):
            assert pair_potential(phi, p) == pair_potential(phi + 2.0 * math.pi, p)

    def test_periodicity_within_input_rounding_otherwise(self):
        p = fig2_params()
        phis = RNG.uniform(0.0, 2.0 * np.pi, 200)
        delta = np.abs(pair_potential(phis, p) - pair_potential(phis + 2 * np.pi, p))
        assert delta.max() < 5e-14


class TestFourierSpectrum:
    def test_golden_table(self):
        fp = fourier_coefficients(fig2_params())
        for k, value in golden_table().items():
            assert abs(fp.coefficient(k) - value) < 1e-10
            assert abs(fp.coefficient(-k) - value.conjugate()) < 1e-10

    def test_zero_winding_coefficients_real(self):
        for k0_rho in (0.5, 1.0, 4.0):
            fp = fourier_coefficients(
                SystemParams(gamma=1.0, epsilon=0.1, k0_rho=k0_rho, ell=0)
            )
            assert np.max(np.abs(fp.coefficients.imag)) < 1e-12

    def test_hermitian_pairing(self):
        fp = fourier_coefficients(SystemParams(gamma=1.0, epsilon=0.1,
                                               k0_rho=5.605, ell=2))
        flipped = np.conj(fp.coefficients[::-1])
        assert np.max(np.abs(fp.coefficients - flipped)) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        epsilon=st.floats(0.05, 1.0),
        k0_rho=st.floats(0.2, 8.0),
        ell=st.integers(-4, 4),
    )
    def test_hermitian_pairing_on_any_ring(self, epsilon, k0_rho, ell):
        # V(phi) is real, so V_{-k} = conj(V_k) up to the FFT's rounding.
        params = SystemParams(gamma=1.0, epsilon=epsilon, k0_rho=k0_rho, ell=ell)
        v = fourier_coefficients(params).coefficients
        assert np.max(np.abs(v[::-1] - np.conj(v))) < 1e-12

    def test_winding_flip_conjugates_spectrum(self):
        plus = fourier_coefficients(
            SystemParams(gamma=0.2, epsilon=0.1, k0_rho=3.0, ell=2)
        )
        minus = fourier_coefficients(
            SystemParams(gamma=0.2, epsilon=0.1, k0_rho=3.0, ell=-2)
        )
        assert np.max(np.abs(minus.coefficients - np.conj(plus.coefficients))) < 1e-12

    def test_parseval_on_smooth_cutoff(self):
        params = SystemParams(gamma=0.0, epsilon=0.3, k0_rho=1.0, ell=1, m_max=10)
        fp = fourier_coefficients(params)
        grid = 1 << 14
        phi = 2.0 * np.pi * np.arange(grid) / grid
        mean_square = float(np.mean(np.abs(pair_potential(phi, params)) ** 2))
        assert abs(float(np.sum(np.abs(fp.coefficients) ** 2)) - mean_square) < 1e-8

    def test_grid_doubling_failure_names_harmonic(self, monkeypatch):
        import oamring.potential as pot

        monkeypatch.setattr(pot, "_quadrature_grid", lambda params: 256)
        with pytest.raises(ResolutionError) as info:
            fourier_coefficients(
                SystemParams(gamma=0.0, epsilon=0.01, k0_rho=1.0, ell=1)
            )
        assert "k=" in str(info.value)

    def test_out_of_band_coefficient_rejected(self):
        fp = fourier_coefficients(fig2_params())
        with pytest.raises(ConfigurationError):
            fp.coefficient(fp.k_max + 1)


class TestDerivedCoefficients:
    def test_zero_winding_rates_vanish(self):
        fp = fourier_coefficients(SystemParams(gamma=3.0, epsilon=0.1,
                                               k0_rho=2.0, ell=0))
        assert np.max(rate_coefficients(fp)) < 1e-12

    def test_small_ring_dominant_transition_is_one(self):
        fp = fourier_coefficients(fig2_params())
        g = rate_coefficients(fp)
        assert int(np.argmax(g[1:])) + 1 == 1
        assert np.all(g >= 0.0)

    def test_large_ring_channel_competition(self):
        # k0_rho tuned so the elementary transition shuts off and the
        # k = 6 and k = 5 channels dominate, in that order.
        fp = fourier_coefficients(
            SystemParams(gamma=1.0, epsilon=0.1, k0_rho=5.605, ell=2)
        )
        g = rate_coefficients(fp)
        order = np.argsort(g[1:])[::-1] + 1
        assert g[1] < 0.02 * g[order[0]]
        assert list(order[:2]) == [6, 5]

    def test_dispersion_zero_coupling(self):
        fp = fourier_coefficients(fig2_params(gamma=0.0))
        assert np.max(np.abs(dispersion_coefficients(fp))) == 0.0

    def test_dispersion_golden_values(self):
        fp = fourier_coefficients(fig2_params())
        alpha = dispersion_coefficients(fp)
        for k, value in golden_table().items():
            assert abs(alpha[k] - 0.025 * value.real) < 1e-10
        assert np.all(np.isreal(alpha))


class TestSystemParams:
    def test_invariants_enforced(self):
        with pytest.raises(ConfigurationError):
            SystemParams(gamma=-0.1)
        with pytest.raises(ConfigurationError):
            SystemParams(gamma=0.1, epsilon=0.0)
        with pytest.raises(ConfigurationError):
            SystemParams(gamma=0.1, k0_rho=-1.0)
        with pytest.raises(ConfigurationError):
            SystemParams(gamma=0.1, ell=3, m_max=4)
        with pytest.raises(ConfigurationError):
            SystemParams(gamma=0.1, m_max=10, k_max=21)

    def test_defaults_follow_radius_and_winding(self):
        p = SystemParams(gamma=0.1, k0_rho=5.0, ell=2)
        assert p.m_max == 2 + 5 + 12
        assert p.k_max == 2 * p.m_max

    def test_potential_carries_params(self):
        params = fig2_params()
        fp = fourier_coefficients(params)
        assert fp.params == params
        assert isinstance(fp, FourierPotential)
