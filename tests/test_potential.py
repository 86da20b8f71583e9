"""Pair potential, Fourier spectrum, and derived coefficient tests.

The golden coefficient table in tests/data was produced by composite
trapezoid quadrature with direct exponential sums on a 32,768-point grid,
32 times fig2's production grid of 1,024; see the JSON's "oracle" field.
"""

import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oamring.potential as potential
from oamring.errors import ConfigurationError, ResolutionError, ToleranceError
from oamring.numerics import bessel_j_orders
from oamring.potential import (
    FourierPotential,
    SystemParams,
    default_m_max,
    dispersion_coefficients,
    fourier_coefficients,
    pair_potential,
    rate_coefficients,
)
from oamring.stability import K0_RHO_GRID, TOP_MODE

DATA = Path(__file__).parent / "data"
RNG = np.random.default_rng(11)


def golden_table():
    payload = json.loads((DATA / "golden_vk_k0rho1_ell1_eps0p1.json").read_text())
    return {int(k): complex(re, im) for k, (re, im) in payload["coefficients"].items()}


def coefficients_on_grid(params, grid):
    """V_k for k = -k_max .. k_max from V(phi) sampled on its own uniform grid
    of ``grid`` points, by one plain FFT."""
    phi = 2.0 * np.pi * np.arange(grid) / grid
    spec = np.fft.fft(pair_potential(phi, params)) / grid
    return spec[np.mod(np.arange(-params.k_max, params.k_max + 1), grid)]


def imag_coefficients_closed_form(params, nodes=200):
    """Im V_k for k = 0 .. k_max as a_{k-ell} - a_{k+ell}, with
    a_n = int_0^{pi/2} sin(theta) cos(2 k0_rho eps cos(theta))
    J_n(k0_rho sin(theta))^2 dtheta by Gauss-Legendre, and a_{-n} = a_n.

    The sin(ell phi) part of V(phi) holds sin(2 k0_rho q) / (k0_rho q), the
    radiative kernel between the ring and a copy lifted by 2 rho eps, whose
    Fourier series Jacobi-Anger turns into this sphere average of J_n^2."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    theta = 0.25 * np.pi * (x + 1.0)
    kr, ell = params.k0_rho, params.ell
    lift = np.cos(2.0 * kr * params.epsilon * np.cos(theta))
    weights = 0.25 * np.pi * w * np.sin(theta) * lift
    a = bessel_j_orders(params.k_max + abs(ell), kr * np.sin(theta)) ** 2 @ weights
    k = np.arange(params.k_max + 1)
    return a[np.abs(k - ell)] - a[np.abs(k + ell)]


def fig2_params(**kw):
    base = dict(gamma=0.05, epsilon=0.1, k0_rho=1.0, ell=1)
    base.update(kw)
    return SystemParams(**base)


# The rings each preset transforms (config.PRESETS): fig1b's are its sweep
# points, on stability.spectrum_sweep's band max(TOP_MODE / 2, |ell| + 2).
PRESET_PARAMS = {
    "fig1b": [SystemParams(gamma=0.2, epsilon=0.1, k0_rho=kr, ell=1, m_max=TOP_MODE // 2)
              for kr in K0_RHO_GRID.tolist()],
    "fig2": [fig2_params()],
    "fig3": [SystemParams(gamma=1.0, epsilon=0.1, k0_rho=5.605, ell=2)],
    "fig4": [SystemParams(gamma=0.2, epsilon=0.1, k0_rho=5.0, ell=2)],
}


def fixed_floor_grid(params):
    """The base grid with a fixed 8,192-point floor, max(8192, 32 k_max,
    64 / epsilon) rounded up to a power of two."""
    need = max(8192, 32 * params.k_max, 64.0 / params.epsilon)
    return 1 << (math.ceil(need) - 1).bit_length()


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

    @settings(max_examples=30, deadline=None)
    @given(
        epsilon=st.floats(0.01, 0.3),
        k0_rho=st.floats(0.5, 20.0),
        ell=st.integers(-3, 3),
        extra=st.integers(0, 8),
    )
    def test_imaginary_part_in_closed_form(self, epsilon, k0_rho, ell, extra):
        # An oracle independent of the FFT: Im V_k from Bessel functions alone.
        params = SystemParams(gamma=1.0, epsilon=epsilon, k0_rho=k0_rho, ell=ell,
                              m_max=abs(ell) + 2 + extra)
        fp = fourier_coefficients(params)
        want = imag_coefficients_closed_form(params)
        assert np.max(np.abs(fp.coefficients[fp.k_max :].imag - want)) < 1e-13

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
        monkeypatch.setattr(potential, "_quadrature_grid", lambda params: 256)
        with pytest.raises(ResolutionError) as info:
            fourier_coefficients(
                SystemParams(gamma=0.0, epsilon=0.01, k0_rho=1.0, ell=1)
            )
        assert "k=" in str(info.value)

    def test_non_finite_spectrum_fails_the_doubling_check(self):
        # V(phi) reaches 1e308 near phi = 0, a finite amplitude whose FFT sums
        # overflow, so the harmonics are NaN: an overflow naming both keys,
        # not a grid to enlarge, and no numpy warning before it (the pytest
        # setting error::RuntimeWarning would turn one into a failure).
        params = SystemParams(gamma=1.0, epsilon=1e-4, k0_rho=1e-304)
        with pytest.raises(ToleranceError, match="overflowed at k0_rho=1e-304, epsilon=0.0001"):
            fourier_coefficients(params)

    def test_potential_is_sampled_once(self, monkeypatch):
        calls = []

        def counted(phi, params):
            calls.append(np.shape(phi))
            return pair_potential(phi, params)

        monkeypatch.setattr(potential, "pair_potential", counted)
        params = fig2_params()
        fourier_coefficients(params)
        assert calls == [(2 * potential._quadrature_grid(params),)]

    def test_spectrum_is_one_transform(self, monkeypatch):
        calls = []
        fft = np.fft.fft

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counted)
        params = fig2_params()
        fourier_coefficients(params)
        assert calls == [(2 * potential._quadrature_grid(params),)]

    @settings(max_examples=40, deadline=None)
    @given(
        epsilon=st.floats(0.01, 1.0),
        k0_rho=st.floats(0.1, 12.0),
        ell=st.integers(-5, 5),
        small_grid=st.sampled_from([64, 128, 256]),
    )
    def test_doubling_check_reads_the_folded_harmonic(
        self, epsilon, k0_rho, ell, small_grid
    ):
        # The references transform V(phi) sampled on each grid on its own.  On
        # the production grid the check reads rounding; on ``small_grid`` (still
        # above k_max) the folded harmonics stand far above it.
        params = SystemParams(gamma=1.0, epsilon=epsilon, k0_rho=k0_rho, ell=ell)
        grid = potential._quadrature_grid(params)
        fine = coefficients_on_grid(params, 2 * grid)
        assert np.array_equal(fourier_coefficients(params).coefficients, fine)
        for base in (grid, small_grid):
            fine = coefficients_on_grid(params, 2 * base)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(potential, "_quadrature_grid", lambda params, g=base: g)
                values, delta = potential._harmonics(params)
            moved = np.abs(coefficients_on_grid(params, base) - fine)
            assert np.array_equal(values, fine)
            assert np.max(np.abs(delta - moved)) <= 1e-15 * max(1.0, np.abs(fine).max())

    @pytest.mark.parametrize(
        "overrides",
        [{"epsilon": 1e-9}, {"k0_rho": 1e6}, {"k0_rho": 1e5, "m_max": 3}],
        ids=["epsilon", "k_max", "oscillation"],
    )
    def test_oversized_grid_rejected_before_allocation(self, overrides):
        # epsilon = 1e-9 would need a 2**36-point grid, k0_rho = 1e6 gives
        # m_max ~ 1e6, so k_max ~ 2e6, and k0_rho = 1e5 oscillates 1e5 times
        # around the ring even on the smallest band; each must stop before
        # anything is sampled, naming every input that sets the grid.
        params = fig2_params(**overrides)
        with pytest.raises(ConfigurationError) as info:
            fourier_coefficients(params)
        message = str(info.value)
        assert f"epsilon={params.epsilon}" in message
        assert f"m_max={params.m_max}" in message
        assert f"k0_rho={params.k0_rho}" in message
        assert f"ell={params.ell}" in message

    def test_grid_limit_admits_the_stated_domain(self):
        # epsilon down to 64 / 2**20, m_max up to 2**14, and ceil(k0_rho) +
        # |ell| up to 2**15, each at its edge with the other terms small.
        for params in (fig2_params(epsilon=6.2e-5), fig2_params(m_max=16384),
                       fig2_params(k0_rho=32767.0, ell=1, m_max=3),
                       fig2_params(k0_rho=32762.5, ell=-5, m_max=7)):
            assert potential._quadrature_grid(params) == 1 << 20

    @pytest.mark.parametrize(
        "name, grid",
        [("fig1b", 1024), ("fig2", 1024), ("fig3", 2048), ("fig4", 2048)],
    )
    def test_grid_follows_the_integrands_scales(self, name, grid):
        # Not a fixed 8,192 floor: the band 32 k_max binds for fig2, fig3 and
        # fig4, and 64 / epsilon at every fig1b sweep point (k0_rho up to 8).
        for params in PRESET_PARAMS[name]:
            assert potential._quadrature_grid(params) == grid

    def test_preset_grids_are_converged(self):
        # The doubling check reads rounding, and V_k agrees with a 16,384-point
        # transform, at every preset and every fig1b sweep point.
        for params in sum(PRESET_PARAMS.values(), []):
            values, delta = potential._harmonics(params)
            assert delta.max() <= 1e-15
            reference = coefficients_on_grid(params, 16384)
            assert np.max(np.abs(values - reference)) <= 1e-14

    def test_oscillation_term_is_needed(self, monkeypatch):
        # At k0_rho = 2000 on the smallest band, the peak and band terms alone
        # ask for 1,024 points; V(phi) oscillates 2000 times around the ring,
        # and the doubling check refuses that aliased grid.
        params = fig2_params(k0_rho=2000.0, m_max=3)
        assert potential._quadrature_grid(params) == 65536
        fourier_coefficients(params)
        monkeypatch.setattr(potential, "_quadrature_grid", lambda params: 1024)
        with pytest.raises(ResolutionError):
            fourier_coefficients(params)

    @settings(max_examples=20, deadline=None)
    @given(
        epsilon=st.floats(1e-3, 1.0),
        k0_rho=st.floats(0.1, 4000.0),
        ell=st.integers(-5, 5),
        smallest_band=st.booleans(),
    )
    def test_no_input_the_fixed_floor_resolved_is_refused(
        self, epsilon, k0_rho, ell, smallest_band
    ):
        m_max = abs(ell) + 2 if smallest_band else default_m_max(ell, k0_rho)
        params = SystemParams(gamma=1.0, epsilon=epsilon, k0_rho=k0_rho, ell=ell,
                              m_max=m_max)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(potential, "_quadrature_grid", fixed_floor_grid)
            try:
                fourier_coefficients(params)
            except ResolutionError:
                assume(False)
        values = fourier_coefficients(params).coefficients
        reference = coefficients_on_grid(params, 4 * potential._quadrature_grid(params))
        assert np.max(np.abs(values - reference)) <= 1e-13 * max(1.0, np.abs(reference).max())

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

    def test_fig3_radius_sits_at_a_root_of_the_unit_channel(self):
        # k0_rho = 5.605 lies 1.8e-3 below the root 5.6068 of Im V_1, so
        # g_1 = gamma |Im V_1| is only about 1e-4 there (0.70 at fig2).
        fp = fourier_coefficients(SystemParams(gamma=1.0, epsilon=0.1,
                                               k0_rho=5.605, ell=2))
        assert fp.coefficient(1).imag == pytest.approx(-1.0e-4, abs=2e-6)
        above = fourier_coefficients(SystemParams(gamma=1.0, epsilon=0.1,
                                                  k0_rho=5.608, ell=2))
        assert above.coefficient(1).imag > 0.0

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

    @pytest.mark.parametrize("k0_rho, epsilon", [(1e308, 0.1), (1e160, 1e150)])
    def test_phase_must_stay_finite(self, k0_rho, epsilon):
        with pytest.raises(ConfigurationError, match="k0_rho="):
            SystemParams(gamma=0.1, epsilon=epsilon, k0_rho=k0_rho, m_max=10)
        # The largest q is sqrt(1 + epsilon^2), so 2 k0_rho q = 2e300 passes.
        SystemParams(gamma=0.1, epsilon=1e150, k0_rho=1e150, m_max=10)

    def test_amplitude_must_stay_finite(self):
        # 1 / (k0_rho epsilon) is V's amplitude at phi = 0; a product of 1e-309
        # makes it inf, and one of 1e-400 rounds to 0.
        for k0_rho, epsilon in ((1e-305, 1e-4), (1e-200, 1e-200)):
            with pytest.raises(ConfigurationError, match="k0_rho=.* with epsilon="):
                SystemParams(gamma=0.1, epsilon=epsilon, k0_rho=k0_rho, m_max=10)
        # An amplitude of 1e304 is finite: the ring is refused later, where
        # its V_k miss the absolute grid-doubling tolerance.
        params = SystemParams(gamma=0.1, epsilon=1e-4, k0_rho=1e-300, m_max=10)
        with pytest.raises(ResolutionError):
            fourier_coefficients(params)

    def test_defaults_follow_radius_and_winding(self):
        p = SystemParams(gamma=0.1, k0_rho=5.0, ell=2)
        assert p.m_max == 2 + 5 + 12
        assert p.k_max == 2 * p.m_max

    def test_coupling_band_is_not_a_setting(self):
        # Within |m| <= m_max exactly the harmonics |k| <= 2 m_max act.
        assert "k_max" not in {f.name for f in fields(SystemParams)}
        with pytest.raises(TypeError):
            SystemParams(gamma=0.1, m_max=10, k_max=3)
        assert SystemParams(gamma=0.1, m_max=10).k_max == 20

    def test_potential_carries_params(self):
        params = fig2_params()
        fp = fourier_coefficients(params)
        assert fp.params == params
        assert isinstance(fp, FourierPotential)
