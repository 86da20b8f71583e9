"""Coupled-mode dynamics tests: derivative oracle, conservation, free limits,
seeded instability growth against the stability eigenvalue."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

import oamring.dynamics as dynamics
from oamring.dynamics import (
    StateVector,
    band_edge_occupancy,
    bunching,
    default_initial_state,
    derivative,
    evolve,
    mean_angular_velocity,
    modes,
    populations,
)
from oamring.errors import ConfigurationError, ToleranceError, TruncationError

from oamring.potential import SystemParams, fourier_coefficients
from oamring.stability import spectrum

RNG = np.random.default_rng(2024)


def fig2_setup(**kw):
    params = SystemParams(gamma=0.05, epsilon=0.1, k0_rho=1.0, ell=1, **kw)
    return params, fourier_coefficients(params)


def random_state(m_max: int, rng=RNG) -> StateVector:
    amps = rng.normal(size=2 * m_max + 1) + 1j * rng.normal(size=2 * m_max + 1)
    amps /= np.linalg.norm(amps)
    return StateVector(tau=0.0, amplitudes=amps)


def naive_derivative(state, params, fp):
    """Direct double-loop evaluation of the coupled-mode equations."""
    m_max = state.m_max
    c = state.amplitudes
    out = np.zeros_like(c)

    def amp(m):
        return c[m + m_max] if abs(m) <= m_max else 0.0

    for m in range(-m_max, m_max + 1):
        total = 0.0 + 0.0j
        for k in range(-fp.k_max, fp.k_max + 1):
            phi_k = sum(
                np.conj(amp(n - k)) * amp(n) for n in range(-m_max, m_max + 1)
            )
            total += fp.coefficient(k) * amp(m - k) * phi_k
        out[m + m_max] = -1j * m * m * amp(m) - 0.5j * params.gamma * total
    return out


def reference_nonlinear_rhs(fp):
    """The nonlinear kernel with both products on the strided Toeplitz view,
    as it was before the view was copied once per call."""
    size = 2 * fp.params.m_max + 1
    k_max = fp.k_max
    weights = (-0.5j * fp.params.gamma) * fp.coefficients
    padded = np.zeros(size + 2 * k_max, dtype=complex)
    band = padded[k_max : k_max + size]
    rows = sliding_window_view(padded, size)  # rows[j, m] = c_{m + j - k_max}

    def rhs(tau, c):
        band[...] = c
        return (weights * rows.dot(c.conj()))[::-1].dot(rows)

    return rhs


class TestInitialState:
    def test_vanishing_seed_recovers_uniform_condensate(self):
        params, _ = fig2_setup()
        state = default_initial_state(params, seed_amplitude=1e-9)
        assert state.amplitudes[params.m_max] == pytest.approx(1.0, abs=1e-15)

    def test_deterministic_mode_is_reproducible(self):
        params, _ = fig2_setup()
        a = default_initial_state(params)
        b = default_initial_state(params)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_ground_population_matches_arithmetic(self):
        params, _ = fig2_setup()
        seed = 1e-4
        state = default_initial_state(params, seed_amplitude=seed)
        n0 = populations(state)[params.m_max]
        assert abs(n0 - (1.0 - 2.0 * params.m_max * seed**2)) < 1e-15

    def test_random_mode_seeded(self):
        params, _ = fig2_setup()
        a = default_initial_state(params, mode="random", rng_seed=7)
        b = default_initial_state(params, mode="random", rng_seed=7)
        c = default_initial_state(params, mode="random", rng_seed=8)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert not np.array_equal(a.amplitudes, c.amplitudes)
        assert abs(np.sum(np.abs(a.amplitudes) ** 2) - 1.0) < 1e-12

    def test_oversized_seed_rejected(self):
        params, _ = fig2_setup()
        with pytest.raises(ConfigurationError):
            default_initial_state(params, seed_amplitude=0.1)

    def test_seeds_past_the_norm_rejected_without_warning(self):
        # 2 * 6000 * 0.01**2 > 1: c_0 would be the square root of a negative
        # number, which the suite's RuntimeWarning filter turns into an error.
        params = SystemParams(gamma=0.05, m_max=6000)
        with pytest.raises(ConfigurationError, match=r"seed_amplitude=0.01 on 2\*m_max=12000"):
            default_initial_state(params, seed_amplitude=0.01)

    def test_negative_seed_rejected_in_random_mode(self):
        params, _ = fig2_setup()
        with pytest.raises(ConfigurationError, match="rng_seed=-1"):
            default_initial_state(params, mode="random", rng_seed=-1)
        default_initial_state(params, rng_seed=-1)  # deterministic mode draws nothing

    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.inf), -np.inf])
    def test_non_finite_amplitude_rejected(self, bad):
        amps = np.zeros(7, dtype=complex)
        amps[3] = 1.0
        amps[5] = bad
        with pytest.raises(ConfigurationError, match="finite"):
            StateVector(0.0, amps)


class TestDerivative:
    def test_uniform_state_only_mean_field_phase(self):
        params, fp = fig2_setup()
        amps = np.zeros(2 * params.m_max + 1, dtype=complex)
        amps[params.m_max] = 1.0
        dc = derivative(StateVector(0.0, amps), fp)
        expected = -0.5j * params.gamma * fp.coefficient(0)
        assert abs(dc[params.m_max] - expected) < 1e-15
        others = np.delete(dc, params.m_max)
        assert np.max(np.abs(others)) < 1e-15

    def test_free_evolution_term(self):
        zero_gamma = SystemParams(gamma=0.0, epsilon=0.1, k0_rho=1.0, ell=1,
                                  m_max=5, k_max=10)
        fp = fourier_coefficients(zero_gamma)
        state = random_state(5)
        dc = derivative(state, fp)
        m = modes(5)
        assert np.max(np.abs(dc + 1j * m * m * state.amplitudes)) < 1e-15

    def test_matches_naive_double_loop(self):
        params, fp = fig2_setup(m_max=8, k_max=16)
        rng = np.random.default_rng(5)
        for _ in range(100):
            state = random_state(8, rng)
            fast = derivative(state, fp)
            slow = naive_derivative(state, params, fp)
            assert np.max(np.abs(fast - slow)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_naive_double_loop_on_any_band(self, data):
        m_max = data.draw(st.integers(3, 8), label="m_max")
        k_max = data.draw(st.integers(1, 2 * m_max), label="k_max")
        parts = arrays(float, (2, 2 * m_max + 1), elements=st.floats(-1.0, 1.0))
        re, im = data.draw(parts, label="re, im")
        amps = re + 1j * im
        norm = np.linalg.norm(amps)
        assume(norm > 1e-3)
        state = StateVector(0.0, amps / norm)
        params, fp = fig2_setup(m_max=m_max, k_max=k_max)
        slow = naive_derivative(state, params, fp)
        assert np.max(np.abs(derivative(state, fp) - slow)) < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_kernel_matches_the_strided_view_bitwise(self, data):
        m_max = data.draw(st.integers(3, 24), label="m_max")
        k_max = data.draw(st.integers(1, 2 * m_max), label="k_max")
        parts = arrays(float, (3, 2, 2 * m_max + 1), elements=st.floats(-1.0, 1.0))
        re, im = data.draw(parts, label="re, im").transpose(1, 0, 2)
        amps = re + 1j * im
        norms = np.linalg.norm(amps, axis=1)
        assume(np.all(norms > 1e-3))
        _, fp = fig2_setup(m_max=m_max, k_max=k_max)
        fast, slow = dynamics._nonlinear_rhs(fp), reference_nonlinear_rhs(fp)
        for c in amps / norms[:, None]:  # three calls: each reuses the band buffer
            assert fast(0.0, c).tobytes() == slow(0.0, c).tobytes()


class TestObservables:
    def test_uniform_condensate_bunching_is_delta(self):
        amps = np.zeros(9, dtype=complex)
        amps[4] = 1.0
        spec = bunching(StateVector(0.0, amps))
        assert spec.coefficient(0) == 1.0
        assert max(abs(spec.coefficient(m)) for m in range(1, 9)) == 0.0

    def test_two_mode_superposition_values(self):
        amps = np.zeros(9, dtype=complex)
        amps[4] = amps[5] = 1.0 / np.sqrt(2.0)
        spec = bunching(StateVector(0.0, amps))
        assert abs(spec.coefficient(0) - 1.0) < 1e-15
        assert abs(spec.coefficient(1) - 0.5) < 1e-15
        assert abs(spec.coefficient(-1) - 0.5) < 1e-15

    def test_single_rotating_mode_carries_no_bunching(self):
        amps = np.zeros(9, dtype=complex)
        amps[7] = 1.0
        spec = bunching(StateVector(0.0, amps))
        assert spec.coefficient(0) == 1.0
        assert max(abs(spec.coefficient(m)) for m in range(1, 9)) == 0.0

    def test_bunching_hermitian_on_random_states(self):
        for _ in range(20):
            spec = bunching(random_state(6))
            for m in range(1, spec.band + 1):
                assert abs(spec.coefficient(-m) - np.conj(spec.coefficient(m))) < 1e-12
            assert abs(spec.coefficient(0) - 1.0) < 1e-10
            assert max(abs(spec.coefficient(m)) for m in range(spec.band + 1)) <= 1 + 1e-12

    def test_populations_match_squared_amplitudes(self):
        state = random_state(5)
        assert np.allclose(populations(state), np.abs(state.amplitudes) ** 2, atol=0)
        assert abs(populations(state).sum() - 1.0) < 1e-12

    def test_mean_angular_velocity_cases(self):
        uniform = np.zeros(9, dtype=complex)
        uniform[4] = 1.0
        assert mean_angular_velocity(StateVector(0.0, uniform)) == 0.0
        single = np.zeros(9, dtype=complex)
        single[5] = 1.0
        assert mean_angular_velocity(StateVector(0.0, single)) == 1.0
        pair = np.zeros(9, dtype=complex)
        pair[4] = pair[6] = 1.0 / np.sqrt(2.0)
        assert mean_angular_velocity(StateVector(0.0, pair)) == pytest.approx(1.0)


class TestEvolve:
    def test_free_single_mode_phase_rotation(self):
        params = SystemParams(gamma=0.0, epsilon=0.1, k0_rho=1.0, ell=1, m_max=3)
        fp = fourier_coefficients(params)
        amps = np.zeros(7, dtype=complex)
        amps[3 + 1] = 1.0
        traj = evolve(StateVector(0.0, amps), fp, tau_end=5.0, stride=1.0)
        for tau, state in zip(traj.times, traj.states):
            assert abs(state[3 + 1] - np.exp(-1j * tau)) < 1e-12
            assert abs(np.abs(state[3 + 1]) - 1.0) < 1e-13

    def test_free_evolution_preserves_every_magnitude(self):
        params = SystemParams(gamma=0.0, epsilon=0.1, k0_rho=1.0, ell=1, m_max=6)
        fp = fourier_coefficients(params)
        amps = np.zeros(13, dtype=complex)
        inner = RNG.normal(size=7) + 1j * RNG.normal(size=7)
        amps[3:10] = inner / np.linalg.norm(inner)
        state = StateVector(0.0, amps)
        traj = evolve(state, fp, tau_end=100.0, stride=10.0)
        drift = np.abs(np.abs(traj.states) - np.abs(state.amplitudes)[None, :])
        assert drift.max() < 1e-10

    def test_seeded_growth_matches_eigenvalue(self):
        params, fp = fig2_setup()
        state = default_initial_state(params)
        traj = evolve(state, fp, tau_end=260.0, stride=0.5)
        phi1 = np.array(
            [abs(bunching(StateVector(0.0, s)).coefficient(1)) for s in traj.states]
        )
        hi = int(np.argmax(phi1 >= 1e-2))
        lo = hi
        while lo > 0 and phi1[lo - 1] > 1e-4:
            lo -= 1
        slope = np.polyfit(traj.times[lo : hi + 1], np.log(phi1[lo : hi + 1]), 1)[0]
        expected = spectrum(fp, [1]).growth_rates[0]
        assert slope == pytest.approx(expected, rel=0.05)

    def test_norm_and_central_bunching_along_trajectory(self):
        params, fp = fig2_setup()
        traj = evolve(default_initial_state(params), fp, 50.0, stride=5.0)
        for s in traj.states:
            assert abs(np.sum(np.abs(s) ** 2) - 1.0) < 1e-8
            assert abs(bunching(StateVector(0.0, s)).coefficient(0) - 1.0) < 1e-10

    def test_band_mismatch_rejected(self):
        params, fp = fig2_setup()
        small = random_state(3)
        with pytest.raises(ConfigurationError):
            evolve(small, fp, 1.0)
        with pytest.raises(ConfigurationError):
            derivative(small, fp)

    def test_unnormalized_initial_state_rejected(self):
        params, fp = fig2_setup()
        amps = np.zeros(2 * params.m_max + 1, dtype=complex)
        amps[params.m_max] = 1.1
        with pytest.raises(ToleranceError):
            evolve(StateVector(0.0, amps), fp, 1.0)

    def test_populated_band_edge_rejected(self):
        params = SystemParams(gamma=0.05, epsilon=0.1, k0_rho=1.0, ell=1, m_max=3)
        fp = fourier_coefficients(params)
        amps = np.zeros(7, dtype=complex)
        amps[3] = np.sqrt(1.0 - 0.01)
        amps[-1] = 0.1
        with pytest.raises(TruncationError):
            evolve(StateVector(0.0, amps), fp, 1.0)

    def test_mid_run_truncation_names_first_bad_tau(self):
        params, fp = fig2_setup(m_max=3)
        with pytest.raises(TruncationError, match=r"at tau=845; increase m_max"):
            evolve(default_initial_state(params), fp, 900.0)

    def test_first_offending_sample_is_reported(self):
        states = np.zeros((4, 21), dtype=complex)
        states[:, 10] = 1.0
        states[1, 10] = np.sqrt(1.0 - 1e-5)
        states[1, 0] = np.sqrt(1e-5)  # band edge at tau 2.5
        states[2, 10] = 1.1  # norm drift, later
        times = np.array([2.0, 2.5, 3.0, 3.5])
        edge_message = r"1\.000e-05 exceeds 1e-06 at tau=2\.5;"
        with pytest.raises(TruncationError, match=edge_message):
            dynamics._check_samples(times, states)
        states[1, 10] = 1.1  # drift and edge at one sample: drift is named
        with pytest.raises(ToleranceError, match=r"exceeds 1e-08 at tau=2\.5$"):
            dynamics._check_samples(times, states)

    def test_band_edge_occupancy_definition(self):
        amps = np.zeros(21, dtype=complex)
        amps[0] = 0.3
        amps[-1] = 0.4
        assert band_edge_occupancy(amps) == pytest.approx(0.25)
