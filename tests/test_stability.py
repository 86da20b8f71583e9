"""Stability spectrum tests: exact limits, asymptotic regimes, symmetry."""

import numpy as np
import pytest

from oamring.errors import ConfigurationError
from oamring.potential import SystemParams, fourier_coefficients
from oamring.stability import (
    classify_regime,
    eigenvalues,
    growth_rate,
    spectrum,
    spectrum_sweep,
)


def build(gamma, k0_rho=1.0, ell=1, epsilon=0.1, **kw):
    params = SystemParams(gamma=gamma, epsilon=epsilon, k0_rho=k0_rho, ell=ell, **kw)
    return params, fourier_coefficients(params)


class TestEigenvalues:
    def test_free_rotor_is_marginal(self):
        params, fp = build(gamma=0.0)
        for m in (1, 2, 5):
            lam_plus, lam_minus = eigenvalues(fp, m)
            assert lam_plus == 1j * m * m
            assert lam_minus == -1j * m * m
            assert growth_rate(fp, m) == 0.0

    def test_roots_come_in_opposite_pairs(self):
        params, fp = build(gamma=0.7, k0_rho=3.0, ell=2)
        for m in range(1, 8):
            lam_plus, lam_minus = eigenvalues(fp, m)
            assert lam_plus == -lam_minus

    def test_zero_winding_is_stable(self):
        params, fp = build(gamma=0.3, k0_rho=2.0, ell=0)
        for m in range(1, 10):
            assert growth_rate(fp, m) < 1e-14

    def test_mode_zero_growth_exactly_zero(self):
        params, fp = build(gamma=0.5)
        assert growth_rate(fp, 0) == 0.0

    def test_quantum_asymptote(self):
        # gamma |V_m| <= 1e-3 m^2: growth approaches gamma |Im V_m| / 2.
        params, fp = build(gamma=1e-4)
        for m in (1, 2):
            coupling = params.gamma * abs(fp.coefficient(m))
            assert coupling <= 1e-3 * m * m
            expected = 0.5 * params.gamma * abs(fp.coefficient(m).imag)
            rate = growth_rate(fp, m)
            assert rate == pytest.approx(expected, rel=0.01)

    def test_classical_asymptote(self):
        # gamma |V_m| >= 1e3 m^2: |lambda| approaches |m| sqrt(gamma |V_m|).
        params, fp = build(gamma=1500.0)
        m = 1
        coupling = params.gamma * abs(fp.coefficient(m))
        assert coupling >= 1e3 * m * m
        lam, _ = eigenvalues(fp, m)
        assert abs(lam) == pytest.approx(m * np.sqrt(coupling), rel=0.01)

    def test_growth_symmetric_under_mode_sign(self):
        params, fp = build(gamma=0.4, k0_rho=4.0, ell=1)
        for m in range(1, 10):
            assert growth_rate(fp, m) == pytest.approx(
                growth_rate(fp, -m), abs=1e-14
            )

    def test_mode_outside_band_rejected(self):
        params, fp = build(gamma=0.4)
        with pytest.raises(ConfigurationError):
            eigenvalues(fp, fp.k_max + 1)


class TestSweep:
    def test_zero_coupling_gives_zero_matrix(self):
        template = SystemParams(gamma=0.0, epsilon=0.1, ell=1)
        sweep = spectrum_sweep(template, [1.0, 2.0, 3.0], (1, 6))
        assert np.max(sweep.rates) < 1e-14

    def test_strongest_mode_tracks_ring_radius(self):
        template = SystemParams(gamma=0.2, epsilon=0.1, ell=1)
        sweep = spectrum_sweep(template, [2.0, 4.0, 6.0, 8.0], (1, 12))
        for k0_rho, m_star in zip(sweep.k0_rho_grid, sweep.argmax_m):
            assert abs(int(m_star) - round(k0_rho)) <= 1

    def test_single_point_sweep_matches_direct_call(self):
        template = SystemParams(gamma=0.2, epsilon=0.1, ell=1)
        sweep = spectrum_sweep(template, [3.0], (1, 8))
        params, fp = build(gamma=0.2, k0_rho=3.0)
        direct = spectrum(fp, np.arange(1, 9))
        assert np.allclose(sweep.rates[0], direct.growth_rates, atol=1e-15)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            spectrum_sweep(SystemParams(gamma=0.1), [], (1, 4))

    def test_bad_mode_range_rejected(self):
        with pytest.raises(ConfigurationError):
            spectrum_sweep(SystemParams(gamma=0.1), [1.0], (0, 4))


class TestRegimeClassification:
    def test_zero_coupling_is_quantum(self):
        assert classify_regime(3, 0.0, 1.0 + 1.0j) == "quantum"

    def test_strong_coupling_is_classical(self):
        m = 2
        assert classify_regime(m, 100.0 * m * m, 1.0 + 0j) == "classical"

    def test_comparable_scales_are_intermediate(self):
        m = 3
        assert classify_regime(m, float(m * m), 1.0 + 0j) == "intermediate"

    def test_requires_positive_mode(self):
        with pytest.raises(ConfigurationError):
            classify_regime(0, 1.0, 1.0 + 0j)
