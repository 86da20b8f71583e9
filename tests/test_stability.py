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
    K0_RHO_GRID,
    TOP_MODE,
    classify_regime,
    spectrum,
    spectrum_sweep,
)

RNG = np.random.default_rng(5)


def build(gamma, k0_rho=1.0, ell=1, epsilon=0.1, **kw):
    params = SystemParams(gamma=gamma, epsilon=epsilon, k0_rho=k0_rho, ell=ell, **kw)
    return params, fourier_coefficients(params)


def reference_root(fp, m):
    """lambda_m of one mode from the scalar cmath root, with the branch fix:
    Re(root) >= 0, and Im(root) >= 0 when Re(root) = 0."""
    root = cmath.sqrt(complex(m * m) + fp.params.gamma * fp.coefficient(m))
    if root.real == 0.0 and root.imag < 0.0:
        root = -root
    return 1j * m * root


def with_v1(v1):
    """A gamma = 1 potential whose only nonzero harmonic is V_1 = v1."""
    params = SystemParams(gamma=1.0)
    coefficients = np.zeros(2 * params.k_max + 1, dtype=complex)
    coefficients[params.k_max + 1] = v1
    return FourierPotential(coefficients=coefficients, params=params)


def mode_one_root(z):
    """The root spectrum takes of 1 + V_1 = z, read off lambda_1 = i * root."""
    lam = spectrum(with_v1(z - 1.0), [1])[0]
    return complex(lam.imag, -lam.real)


class TestEigenvalues:
    def test_free_rotor_is_marginal(self):
        params, fp = build(gamma=0.0)
        m = np.array([1, 2, 5])
        assert np.array_equal(spectrum(fp, m), 1j * m * m)

    def test_roots_come_in_opposite_pairs(self):
        # lambda solves lambda^2 = -m^2 (m^2 + gamma V_m), whose other root
        # is -lambda.
        params, fp = build(gamma=0.7, k0_rho=3.0, ell=2)
        m = np.arange(1, 8)
        want = -(m * m) * (m * m + params.gamma * fp.coefficient(m))
        assert np.allclose(spectrum(fp, m) ** 2, want, rtol=1e-13, atol=0.0)

    def test_zero_winding_is_stable(self):
        params, fp = build(gamma=0.3, k0_rho=2.0, ell=0)
        assert np.max(np.abs(spectrum(fp, np.arange(1, 10)).real)) < 1e-14

    def test_mode_zero_growth_exactly_zero(self):
        params, fp = build(gamma=0.5)
        assert spectrum(fp, [0])[0].real == 0.0

    def test_quantum_asymptote(self):
        # gamma |V_m| <= 1e-3 m^2: growth approaches gamma |Im V_m| / 2.
        params, fp = build(gamma=1e-4)
        for m in (1, 2):
            coupling = params.gamma * abs(fp.coefficient(m))
            assert coupling <= 1e-3 * m * m
            expected = 0.5 * params.gamma * abs(fp.coefficient(m).imag)
            rate = abs(spectrum(fp, [m])[0].real)
            assert rate == pytest.approx(expected, rel=0.01)

    def test_classical_asymptote(self):
        # gamma |V_m| >= 1e3 m^2: |lambda| approaches |m| sqrt(gamma |V_m|).
        params, fp = build(gamma=1500.0)
        m = 1
        coupling = params.gamma * abs(fp.coefficient(m))
        assert coupling >= 1e3 * m * m
        lam = spectrum(fp, [m])[0]
        assert abs(lam) == pytest.approx(m * np.sqrt(coupling), rel=0.01)

    def test_growth_symmetric_under_mode_sign(self):
        params, fp = build(gamma=0.4, k0_rho=4.0, ell=1)
        modes = np.arange(1, 10)
        assert np.allclose(
            np.abs(spectrum(fp, modes).real),
            np.abs(spectrum(fp, -modes).real),
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
        assert spectrum(fp, [1])[0] == 1j * 2j


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
        want = np.array([reference_root(fp, int(m)) for m in modes])
        assert spectrum(fp, modes).tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(gamma=st.floats(0.0, 1e-280), ell=st.integers(-3, 3))
    def test_subnormal_coupling_differs_only_below_the_normal_range(self, gamma, ell):
        # When gamma * V_m is subnormal, numpy's and cmath's square roots
        # round the subnormal digits differently; nothing else moves.
        params, fp = build(gamma=gamma, ell=ell)
        modes = np.arange(-fp.k_max, fp.k_max + 1)
        got = spectrum(fp, modes)
        want = np.array([reference_root(fp, int(m)) for m in modes])
        assert np.allclose(got, want, rtol=4 * np.finfo(float).eps, atol=1e-300)


def grid_row(k0_rho: float) -> int:
    """The row of the sweep at ring radius k0_rho."""
    return K0_RHO_GRID.tolist().index(k0_rho)


class TestSweep:
    def test_grid_is_the_stability_map(self):
        assert K0_RHO_GRID.tobytes() == np.arange(0.25, 8.125, 0.25).tobytes()
        assert not K0_RHO_GRID.flags.writeable
        rates = spectrum_sweep(SystemParams(gamma=0.2, epsilon=0.1, ell=1))
        assert rates.shape == (32, TOP_MODE) == (32, 12)

    def test_zero_coupling_gives_zero_matrix(self):
        template = SystemParams(gamma=0.0, epsilon=0.1, ell=1)
        rates = spectrum_sweep(template)
        assert np.max(rates) < 1e-14

    def test_strongest_mode_tracks_ring_radius(self):
        template = SystemParams(gamma=0.2, epsilon=0.1, ell=1)
        rates = spectrum_sweep(template)
        for k0_rho in [2.0, 4.0, 6.0, 8.0]:
            row = rates[grid_row(k0_rho)]
            assert abs(int(np.argmax(row)) + 1 - round(k0_rho)) <= 1

    def test_single_point_sweep_matches_direct_call(self):
        template = SystemParams(gamma=0.2, epsilon=0.1, ell=1)
        rates = spectrum_sweep(template)
        params, fp = build(gamma=0.2, k0_rho=3.0)
        direct = np.abs(spectrum(fp, np.arange(1, 13)).real)
        assert np.allclose(rates[grid_row(3.0)], direct, atol=1e-15)

    def test_band_raised_to_the_top_mode(self):
        # At ell 5 the band m_max = |ell| + 2 = 7 passes TOP_MODE / 2 = 6;
        # the template's m_max is never read.
        rates = spectrum_sweep(SystemParams(gamma=0.2, ell=5, m_max=40))
        _, fp = build(gamma=0.2, k0_rho=0.5, ell=5, m_max=7)
        direct = np.abs(spectrum(fp, np.arange(1, 13)).real)
        assert rates[grid_row(0.5)].tobytes() == direct.tobytes()

    def test_point_error_names_its_radius(self):
        # epsilon 1e-5 needs a 6.4e6-point quadrature grid at any radius, so
        # the first radius of the grid fails.
        template = SystemParams(gamma=0.2, ell=1, epsilon=1e-5)
        with pytest.raises(ConfigurationError, match=r"^sweep point k0_rho=0\.25: "):
            spectrum_sweep(template)


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
