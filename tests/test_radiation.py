"""Far-field tests: the grid pattern's Bessel expansion against the direct
quadrature of the ring density (the two routes are tied by the Jacobi-Anger
identity), channel orthogonality in the azimuthal average, and lobe
structure.  Every field value is read from pattern_from_bunching, the
evaluator the radiate command runs."""

import math

import numpy as np
import pytest

import oamring.radiation as radiation
from oamring.dynamics import BunchingSpectrum, StateVector, bunching, modes
from oamring.errors import ConfigurationError
from oamring.numerics import bessel_j_orders
from oamring.potential import SystemParams
from oamring.radiation import (
    PHI_GRID,
    THETA_GRID,
    count_lobes,
    field_quadrature,
    pattern_from_bunching,
    phi_grid,
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


def far_field(spec, ell, k0_rho):
    """The radiate command's pattern of the spectrum; only ell and k0_rho of
    the params enter."""
    params = SystemParams(gamma=0.0, k0_rho=k0_rho, ell=ell, m_max=abs(ell) + 2)
    return pattern_from_bunching(spec, params)


def channels(pattern, ell, i) -> dict:
    """Channel weight by ell' = ell + m at theta row i."""
    band = (pattern.components.shape[1] - 1) // 2
    ell_primes = (modes(band) + ell).tolist()
    return dict(zip(ell_primes, pattern.components[i].tolist()))


class TestFieldExpansion:
    def test_uniform_state_single_channel(self):
        spec = bunching(uniform_state())
        pattern = far_field(spec, ell=1, k0_rho=1.0)
        j1 = bessel_j_orders(1, np.sin(THETA_GRID))[1]
        want = -1j * np.outer(j1, np.exp(1j * phi_grid(spec.band)))
        assert np.max(np.abs(pattern.field - want)) < 1e-14

    def test_forward_axis_dark_for_wound_pump(self):
        spec = bunching(uniform_state())
        for ell in (1, 2, 5):
            assert np.max(np.abs(far_field(spec, ell, 2.0).field[0])) == 0.0

    def test_negative_order_reflection(self):
        # ell' = -3 needs J_{-3} = -J_3, so a uniform ring radiates
        # (-i)^(-3) J_{-3} e^(-3i phi) = i J_3 e^(-3i phi)
        spec = bunching(uniform_state())
        pattern = far_field(spec, -3, 2.0)
        j3 = bessel_j_orders(3, 2.0 * np.sin(THETA_GRID))[3]
        want = 1j * np.outer(j3, np.exp(-3j * phi_grid(spec.band)))
        assert np.max(np.abs(pattern.field - want)) < 1e-15

    def test_two_state_small_ring_matches_reduced_form(self):
        # With only Phi_0 and Phi_(+/-1) present, the field reduces to
        # -i J_1 e^(i phi) + conj(Phi_1) J_0 up to the dropped J_2 piece.
        spec = bunching(two_mode_state(6, 0, 1))
        phi1 = spec.coefficients[spec.band + 1]
        assert abs(abs(phi1) - 0.5) < 1e-12
        pattern = far_field(spec, ell=1, k0_rho=1.0)
        j = bessel_j_orders(2, np.sin(THETA_GRID))[:, :, None]
        reduced = -1j * j[1] * np.exp(1j * phi_grid(spec.band)) + np.conj(phi1) * j[0]
        assert np.all(np.abs(pattern.field - reduced) <= abs(phi1) * np.abs(j[2]) + 1e-12)

    def test_oversized_bessel_table_rejected(self):
        # J_0 .. J_200002 at 91 theta rows is past 2**24 table entries.
        spec = bunching(uniform_state(1))
        with pytest.raises(ConfigurationError, match="ell=200000, band=2: the far field's Bessel"):
            far_field(spec, 200_000, 1.0)


class TestQuadratureEquivalence:
    def test_unit_response_forward(self):
        got = field_quadrature(uniform_state(), ell=0, k0_rho=1.0, theta=0.0, phi=0.0)
        assert abs(got - 1.0) < 1e-14

    def test_expansion_equals_quadrature_on_random_states(self):
        # The band's sum is the whole field: a state's Phi_m vanish past lag
        # 2 m_max, small bands on large rings included.  56 seeded grid
        # points per state.
        for ell, k0_rho, m_max in [(2, 2.3, 8), (1, 50.0, 3), (2, 30.0, 4), (0, 20.0, 2)]:
            worst = 0.0
            phi = phi_grid(2 * m_max)
            for _ in range(50):
                state = random_interior_state(m_max)
                pattern = far_field(bunching(state), ell, k0_rho)
                rows = RNG.integers(THETA_GRID.size, size=56)
                columns = RNG.integers(phi.size, size=56)
                for i, j in zip(rows.tolist(), columns.tolist()):
                    b = field_quadrature(state, ell, k0_rho, THETA_GRID[i], phi[j])
                    worst = max(worst, abs(pattern.field[i, j] - b))
            assert worst < 1e-8, (ell, k0_rho, m_max)

    def test_lower_hemisphere_mirrors_the_grid(self):
        # The integrand sees theta only through sin theta, so the oracle at
        # pi - theta repeats the grid row theta: THETA_GRID stops at pi/2.
        rng = np.random.default_rng(34)
        for ell, k0_rho, m_max in [(2, 2.3, 8), (1, 50.0, 3), (2, 30.0, 4), (0, 20.0, 2)]:
            for _ in range(20):
                state = random_interior_state(m_max, rng)
                rows = rng.integers(THETA_GRID.size, size=10)
                columns = rng.integers(PHI_GRID.size, size=10)
                for theta, phi in zip(THETA_GRID[rows].tolist(), PHI_GRID[columns].tolist()):
                    upper = field_quadrature(state, ell, k0_rho, theta, phi)
                    lower = field_quadrature(state, ell, k0_rho, math.pi - theta, phi)
                    assert abs(lower - upper) <= 1e-14, (ell, k0_rho, theta, phi)

    def test_azimuthal_phase_structure_single_component(self):
        state = uniform_state()
        ell = 2
        front = field_quadrature(state, ell, 1.5, math.pi / 2, 0.0)
        back = field_quadrature(state, ell, 1.5, math.pi / 2, math.pi)
        # single channel ell' = ell: M(phi + pi) = e^(i ell pi) M(phi)
        assert abs(back - front * np.exp(1j * ell * math.pi)) < 1e-12


class TestAveragedIntensity:
    def test_uniform_state(self):
        pattern = far_field(bunching(uniform_state()), ell=2, k0_rho=3.0)
        j2 = bessel_j_orders(2, 3.0 * np.sin(THETA_GRID))[2]
        assert pattern.components.sum(axis=1) == pytest.approx(j2**2, abs=1e-14)

    def test_two_state_small_ring_decomposition(self):
        pattern = far_field(bunching(two_mode_state(6, 0, 1)), ell=1, k0_rho=1.0)
        j = bessel_j_orders(2, np.sin(THETA_GRID)) ** 2
        for i, total in enumerate(pattern.components.sum(axis=1)):
            square = channels(pattern, 1, i)
            # exact three-channel sum, and the quoted two-term reduction
            exact = j[1, i] + 0.25 * j[0, i] + 0.25 * j[2, i]
            assert total == pytest.approx(exact, abs=1e-12)
            reduced = j[1, i] + 0.25 * j[0, i]
            assert abs(total - reduced) <= 0.25 * j[2, i] + 1e-12
            assert square[1] == pytest.approx(j[1, i], abs=1e-12)

    def test_sideband_dominates_pump_channel_on_tuned_ring(self):
        # ring radius at the (approximate) null of the pump channel: the
        # ell' = -3 weight beats ell' = 2 by J_3(5)^2 / J_2(5)^2 ~ 61 before
        # the bunching factors
        spec = bunching(two_mode_state(10, 0, 5))
        pattern = far_field(spec, ell=2, k0_rho=5.0)
        assert THETA_GRID[90] == math.pi / 2
        weights = channels(pattern, 2, 90)
        bare_ratio = (weights[-3] / abs(spec.coefficients[spec.band - 5]) ** 2) / (
            weights[2] / abs(spec.coefficients[spec.band]) ** 2
        )
        assert bare_ratio == pytest.approx((J3_AT_5 / J2_AT_5) ** 2, rel=1e-10)
        assert bare_ratio == pytest.approx(61.39, abs=0.5)

    def test_matches_numerical_phi_average(self):
        spec = bunching(random_interior_state(6))
        pattern = far_field(spec, ell=1, k0_rho=2.0)
        i = 45  # theta = pi/4
        intensity = np.abs(pattern.field[i]) ** 2
        assert abs(intensity.mean() - pattern.components[i].sum()) < 1e-9

    def test_forward_axis_selects_zero_channel(self):
        for _ in range(5):
            spec = bunching(random_interior_state(5))
            ell = 3
            pattern = far_field(spec, ell, 2.7)
            for ell_prime, weight in channels(pattern, ell, 0).items():
                if ell_prime != 0:
                    assert weight == 0.0
            # the surviving channel is m = -ell
            assert pattern.components[0].sum() == pytest.approx(
                abs(spec.coefficients[spec.band - ell]) ** 2, abs=1e-14
            )


class TestPatternGrid:
    def test_uniform_state_is_azimuthally_flat(self):
        params = SystemParams(gamma=0.0, epsilon=0.1, k0_rho=1.0, ell=1, m_max=6)
        spec = bunching(uniform_state(6))
        pattern = pattern_from_bunching(spec, params)
        intens = np.abs(pattern.field) ** 2
        assert np.max(intens.max(axis=1) - intens.min(axis=1)) < 1e-14

    def test_five_lobes_from_dominant_fifth_harmonic(self):
        params = SystemParams(gamma=0.2, epsilon=0.1, k0_rho=5.0, ell=2, m_max=10)
        pattern = pattern_from_bunching(bunching(two_mode_state(10, 0, 5)), params)
        assert count_lobes(np.abs(pattern.equator) ** 2) == 5

    def test_far_field_argument_bound(self):
        # The equator row reaches x = k0_rho exactly: 50 is the largest
        # argument bessel_j_orders is validated for, and still runs.
        state = random_interior_state(8)
        spec = bunching(state)
        pattern = far_field(spec, ell=2, k0_rho=50.0)
        want = field_quadrature(state, 2, 50.0, math.pi / 2, phi_grid(spec.band)[1])
        assert abs(pattern.field[90, 1] - want) < 1e-12
        with pytest.raises(ConfigurationError, match="k0_rho"):
            far_field(spec, ell=2, k0_rho=50.001)

    def test_grid_is_fixed_and_read_only(self):
        assert (THETA_GRID.size, THETA_GRID[-1], PHI_GRID.size) == (91, math.pi / 2, 256)
        for grid in (THETA_GRID, PHI_GRID, phi_grid(3)):
            with pytest.raises(ValueError, match="read-only"):
                grid[0] = 1.0

    @pytest.mark.parametrize("band", [0, 38, 127])
    def test_phi_grid_has_one_column_per_channel(self, band):
        grid = phi_grid(band)
        assert np.array_equal(grid, np.linspace(0.0, 2.0 * np.pi, 2 * band + 1, endpoint=False))

    @pytest.mark.parametrize("band", [128, 400])
    def test_phi_grid_stops_at_the_fixed_columns(self, band):
        assert phi_grid(band) is PHI_GRID
        spec = BunchingSpectrum(np.eye(1, 2 * band + 1, band + 5, dtype=complex)[0])
        pattern = far_field(spec, 2, 5.0)
        assert pattern.field.shape == (91, 256)
        assert np.array_equal(pattern.equator, pattern.field[90])

    def test_equator_cut_is_the_field_on_the_fixed_columns(self):
        # 33 field columns for band 16, and the 256-column equator cut,
        # most of whose columns the field's grid does not have.
        rng = np.random.default_rng(37)
        state = random_interior_state(8, rng)
        pattern = far_field(bunching(state), ell=2, k0_rho=5.0)
        assert pattern.field.shape == (91, 33) and pattern.equator.shape == (256,)
        for j in rng.integers(PHI_GRID.size, size=20).tolist():
            want = field_quadrature(state, 2, 5.0, math.pi / 2, PHI_GRID[j])
            assert abs(pattern.equator[j] - want) < 1e-12

    def test_phase_table_limit(self, monkeypatch):
        # 65,537 channels at 256 phi columns are just past 2**24 phase-table
        # entries, a table the check keeps from being allocated, and it is
        # refused before the Bessel table is built.
        def unreached(*args):
            raise AssertionError("Bessel table built before the phase-table check")

        monkeypatch.setattr(radiation, "bessel_j_orders", unreached)
        spec = BunchingSpectrum(np.eye(1, 65_537, 32_768, dtype=complex)[0])
        with pytest.raises(ConfigurationError, match="band=32768: the far field's phase table"):
            far_field(spec, 1, 1.0)


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

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_uniform_far_field_equator_has_no_lobes(self, ell):
        # Only Phi_0: the equator intensity J_ell(5)^2 is flat along phi up
        # to rounding, and rounding noise is not a lobe.
        spec = BunchingSpectrum(np.array([1.0 + 0.0j]))
        pattern = far_field(spec, ell, 5.0)
        assert count_lobes(np.abs(pattern.equator) ** 2) == 0
