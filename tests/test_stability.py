"""Stability spectrum tests: exact limits, asymptotic regimes, symmetry,
the principal branch, and a per-mode cmath reference of the array form."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamring.errors import ConfigurationError
from oamring.potential import FourierPotential, SystemParams, fourier_coefficients
from oamring.stability import (
    classify_regime,
    spectrum,
    spectrum_sweep,
)

RNG = np.random.default_rng(5)


def build(gamma, k0_rho=1.0, ell=1, epsilon=0.1, **kw):
    params = SystemParams(gamma=gamma, epsilon=epsilon, k0_rho=k0_rho, ell=ell, **kw)
    return params, fourier_coefficients(params)


def reference_pair(fp, m):
    """Eigenvalues of one mode from the scalar cmath root, with the branch
    fix: Re(root) >= 0, and Im(root) >= 0 when Re(root) = 0."""
    root = cmath.sqrt(complex(m * m) + fp.params.gamma * fp.coefficient(m))
    if root.real == 0.0 and root.imag < 0.0:
        root = -root
    lam = 1j * m * root
    return lam, -lam


def with_v1(v1):
    """A gamma = 1 potential whose only nonzero harmonic is V_1 = v1."""
    params = SystemParams(gamma=1.0)
    coefficients = np.zeros(2 * params.k_max + 1, dtype=complex)
    coefficients[params.k_max + 1] = v1
    return FourierPotential(coefficients=coefficients, params=params)


def mode_one_root(z):
    """The root spectrum takes of 1 + V_1 = z, read off lambda_1 = i * root."""
    lam = spectrum(with_v1(z - 1.0), [1]).eigenvalue_pairs[0, 0]
    return complex(lam.imag, -lam.real)


class TestEigenvalues:
    def test_free_rotor_is_marginal(self):
        params, fp = build(gamma=0.0)
        spec = spectrum(fp, [1, 2, 5])
        m = spec.modes
        assert np.array_equal(spec.eigenvalue_pairs[:, 0], 1j * m * m)
        assert np.array_equal(spec.eigenvalue_pairs[:, 1], -1j * m * m)
        assert np.all(spec.growth_rates == 0.0)

    def test_roots_come_in_opposite_pairs(self):
        params, fp = build(gamma=0.7, k0_rho=3.0, ell=2)
        pairs = spectrum(fp, np.arange(1, 8)).eigenvalue_pairs
        assert np.array_equal(pairs[:, 0], -pairs[:, 1])

    def test_zero_winding_is_stable(self):
        params, fp = build(gamma=0.3, k0_rho=2.0, ell=0)
        assert np.max(spectrum(fp, np.arange(1, 10)).growth_rates) < 1e-14

    def test_mode_zero_growth_exactly_zero(self):
        params, fp = build(gamma=0.5)
        assert spectrum(fp, [0]).growth_rates[0] == 0.0

    def test_quantum_asymptote(self):
        # gamma |V_m| <= 1e-3 m^2: growth approaches gamma |Im V_m| / 2.
        params, fp = build(gamma=1e-4)
        for m in (1, 2):
            coupling = params.gamma * abs(fp.coefficient(m))
            assert coupling <= 1e-3 * m * m
            expected = 0.5 * params.gamma * abs(fp.coefficient(m).imag)
            rate = spectrum(fp, [m]).growth_rates[0]
            assert rate == pytest.approx(expected, rel=0.01)

    def test_classical_asymptote(self):
        # gamma |V_m| >= 1e3 m^2: |lambda| approaches |m| sqrt(gamma |V_m|).
        params, fp = build(gamma=1500.0)
        m = 1
        coupling = params.gamma * abs(fp.coefficient(m))
        assert coupling >= 1e3 * m * m
        lam = spectrum(fp, [m]).eigenvalue_pairs[0, 0]
        assert abs(lam) == pytest.approx(m * np.sqrt(coupling), rel=0.01)

    def test_growth_symmetric_under_mode_sign(self):
        params, fp = build(gamma=0.4, k0_rho=4.0, ell=1)
        modes = np.arange(1, 10)
        assert np.allclose(
            spectrum(fp, modes).growth_rates,
            spectrum(fp, -modes).growth_rates,
            rtol=0.0,
            atol=1e-14,
        )

    def test_mode_outside_band_rejected(self):
        params, fp = build(gamma=0.4)
        for m in (fp.k_max + 1, -fp.k_max - 1):
            with pytest.raises(ConfigurationError, match=f"k={m}"):
                spectrum(fp, [0, m])


class TestPrincipalBranch:
    def test_real_positive(self):
        assert mode_one_root(4.0) == 2.0

    def test_negative_real_axis(self):
        assert mode_one_root(-1.0) == 1j
        w = mode_one_root(complex(-4.0, -5e-324))
        assert w.imag > 0.0 and w.real == 0.0

    def test_exact_gaussian_integer(self):
        assert mode_one_root(3 + 4j) == 2 + 1j

    def test_square_recovers_input_within_ulps(self):
        mags = 10.0 ** RNG.uniform(-3, 6, size=300)
        args = RNG.uniform(-np.pi, np.pi, size=300)
        for z in mags * np.exp(1j * args):
            z = 1.0 + (complex(z) - 1.0)  # the value spectrum actually roots
            w = mode_one_root(z)
            assert w.real >= 0.0
            assert abs(w * w - z) <= 4.0 * np.spacing(abs(z))

    def test_branch_cut_takes_the_upper_root(self):
        # numpy's root of -4 - 5e-324j is -2j (its real part underflows);
        # the principal branch is +2j, so lambda_1 = i * 2i.
        fp = with_v1(complex(-5.0, -5e-324))
        assert np.sqrt(1.0 + fp.coefficients[fp.k_max + 1]) == -2j
        lam, minus = spectrum(fp, [1]).eigenvalue_pairs[0]
        assert lam == 1j * 2j and minus == -lam


class TestMatchesScalarRoots:
    @settings(max_examples=30, deadline=None)
    @given(
        gamma=st.one_of(st.just(0.0), st.floats(1e-6, 2000.0)),
        epsilon=st.floats(0.05, 1.0),
        k0_rho=st.floats(0.2, 6.0),
        ell=st.integers(-3, 3),
    )
    def test_bitwise_over_the_whole_band(self, gamma, epsilon, k0_rho, ell):
        params, fp = build(gamma=gamma, k0_rho=k0_rho, ell=ell, epsilon=epsilon)
        modes = np.arange(-fp.k_max, fp.k_max + 1)
        spec = spectrum(fp, modes)
        want = np.array([reference_pair(fp, int(m)) for m in modes])
        assert spec.eigenvalue_pairs.tobytes() == want.tobytes()
        assert spec.growth_rates.tobytes() == np.abs(want[:, 0].real).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(gamma=st.floats(0.0, 1e-280), ell=st.integers(-3, 3))
    def test_subnormal_coupling_differs_only_below_the_normal_range(self, gamma, ell):
        # When gamma * V_m is subnormal, numpy's and cmath's square roots
        # round the subnormal digits differently; nothing else moves.
        params, fp = build(gamma=gamma, ell=ell)
        modes = np.arange(-fp.k_max, fp.k_max + 1)
        got = spectrum(fp, modes).eigenvalue_pairs
        want = np.array([reference_pair(fp, int(m)) for m in modes])
        assert np.allclose(got, want, rtol=4 * np.finfo(float).eps, atol=1e-300)


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
