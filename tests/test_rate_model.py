"""Rate-equation cascade tests: exact conservation structure, independent
summation oracles, and the closed-form two-state transition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oamring.rate_model as rate_model
from oamring.errors import ConfigurationError
from oamring.numerics import OdeControls
from oamring.potential import SystemParams, fourier_coefficients, rate_coefficients
from oamring.rate_model import (
    RateState,
    evolve_rates,
    phase_derivative,
    rate_derivative,
    seeded_rate_state,
    two_state_analytic,
)

RNG = np.random.default_rng(99)


def random_rate_state(m_max: int) -> RateState:
    pops = RNG.uniform(0.01, 1.0, m_max + 1)
    pops /= pops.sum()
    return RateState(tau=0.0, populations=pops, phases=np.zeros(m_max + 1))


def naive_rate_derivative(state, g):
    n = state.populations.size
    out = np.zeros(n)
    for m in range(n):
        gain = sum(
            g[k] * state.populations[m - k] for k in range(1, min(m, len(g) - 1) + 1)
        )
        loss = sum(
            g[k] * state.populations[m + k]
            for k in range(1, len(g))
            if m + k < n
        )
        out[m] = (gain - loss) * state.populations[m]
    return out


def naive_phase_derivative(state, alpha, gamma_v0):
    n = state.populations.size
    out = np.zeros(n)
    for m in range(n):
        up = sum(
            alpha[k] * state.populations[m - k]
            for k in range(1, min(m, len(alpha) - 1) + 1)
        )
        down = sum(
            alpha[k] * state.populations[m + k]
            for k in range(1, len(alpha))
            if m + k < n
        )
        out[m] = -(m * m + gamma_v0) - (up + down)
    return out


class TestRateDerivative:
    def test_two_level_reduction(self):
        g = np.array([0.0, 0.3])
        pops = np.array([0.7, 0.3, 0.0, 0.0])
        state = RateState(0.0, pops, np.zeros(4))
        d = rate_derivative(state, g)
        assert d[1] == pytest.approx(0.3 * 0.7 * 0.3, abs=1e-15)
        assert d[0] == pytest.approx(-0.3 * 0.7 * 0.3, abs=1e-15)

    def test_zero_rates_freeze_everything(self):
        state = random_rate_state(6)
        assert np.all(rate_derivative(state, np.zeros(5)) == 0.0)

    def test_derivative_components_telescope(self):
        g = np.concatenate([[0.0], RNG.uniform(0.0, 1.0, 8)])
        for _ in range(25):
            state = random_rate_state(12)
            assert abs(rate_derivative(state, g).sum()) < 1e-15

    def test_matches_naive_summation(self):
        g = np.concatenate([[0.0], RNG.uniform(0.0, 1.0, 6)])
        for _ in range(25):
            state = random_rate_state(10)
            assert np.max(
                np.abs(rate_derivative(state, g) - naive_rate_derivative(state, g))
            ) < 1e-14


# Ladder shapes relative to the coefficient list: fig3 runs n = 21 rungs
# against 41 coefficients, the fixed tests above run n > len(g).
LADDER_SHAPES = pytest.mark.parametrize(
    "excess", [-4, 0, 4], ids=["n<len", "n=len", "n>len"]
)


def random_ladder(n_rungs, excess, seed):
    """A seeded random state of n_rungs rungs, len(coefficients) = n_rungs - excess."""
    rng = np.random.default_rng(seed)
    pops = rng.uniform(0.01, 1.0, n_rungs)
    pops /= pops.sum()
    state = RateState(0.0, pops, np.zeros(n_rungs))
    return rng, state, n_rungs - excess


class TestLadderProperties:
    @LADDER_SHAPES
    @settings(max_examples=40, deadline=None)
    @given(n_rungs=st.integers(5, 24), seed=st.integers(0, 2**32 - 1))
    def test_rates_match_naive_summation_and_conserve(self, excess, n_rungs, seed):
        rng, state, size = random_ladder(n_rungs, excess, seed)
        g = np.concatenate([[0.0], rng.uniform(0.0, 1.0, size - 1)])
        got = rate_derivative(state, g)
        assert np.max(np.abs(got - naive_rate_derivative(state, g))) < 1e-14
        assert abs(got.sum()) < 1e-15

    @LADDER_SHAPES
    @settings(max_examples=40, deadline=None)
    @given(n_rungs=st.integers(5, 24), seed=st.integers(0, 2**32 - 1))
    def test_phases_match_naive_summation(self, excess, n_rungs, seed):
        rng, state, size = random_ladder(n_rungs, excess, seed)
        alpha = rng.normal(size=size)
        gamma_v0 = float(rng.normal())
        got = phase_derivative(state, alpha, gamma_v0)
        want = naive_phase_derivative(state, alpha, gamma_v0)
        # The ladder sums agree to 1e-14; the rotor -m^2 (up to 529 here)
        # adds the rounding of one subtraction on each side.
        assert np.all(np.abs(got - want) <= 1e-14 + 2 * np.spacing(np.abs(want)))


class TestPhaseDerivative:
    def test_free_rotor_phases(self):
        state = random_rate_state(5)
        d = phase_derivative(state, np.zeros(4), 0.0)
        assert np.array_equal(d, -np.arange(6.0) ** 2)

    def test_mean_field_offset_alone(self):
        pops = np.zeros(4)
        pops[0] = 1.0
        state = RateState(0.0, pops, np.zeros(4))
        d = phase_derivative(state, np.zeros(3), 0.37)
        assert d[0] == -0.37

    def test_matches_naive_summation(self):
        alpha = np.concatenate([[0.5], RNG.normal(size=6)])
        for _ in range(25):
            state = random_rate_state(9)
            got = phase_derivative(state, alpha, 0.9)
            want = naive_phase_derivative(state, alpha, 0.9)
            assert np.max(np.abs(got - want)) < 1e-14


class TestEvolveRates:
    @LADDER_SHAPES
    def test_stacked_rhs_matches_the_public_derivatives(self, monkeypatch, excess):
        # evolve_rates' one stacked product must give exactly what the two
        # public derivatives (checked against the naive sums) give.
        rng, state, size = random_ladder(21, excess, 3)
        g = np.concatenate([[0.0], rng.uniform(0.0, 1.0, size - 1)])
        alpha = rng.normal(size=size)
        captured = {}

        def capture(rhs, y0, *args, **kwargs):
            captured["rhs"] = rhs
            raise RuntimeError("captured")

        monkeypatch.setattr(rate_model, "integrate_ode", capture)
        with pytest.raises(RuntimeError, match="captured"):
            evolve_rates(state, g, alpha, 0.7, tau_end=1.0)
        y = np.concatenate([state.populations, rng.normal(size=21)]).astype(complex)
        got = captured["rhs"](0.0, y)
        assert np.max(np.abs(got[:21] - rate_derivative(state, g))) < 1e-15
        want = phase_derivative(state, alpha, 0.7)
        assert np.all(np.abs(got[21:] - want) <= 1e-15 + 2 * np.spacing(np.abs(want)))

    def test_population_conserved(self):
        g = np.concatenate([[0.0], RNG.uniform(0.0, 0.4, 6)])
        traj = evolve_rates(
            seeded_rate_state(10, 1e-4), g, np.zeros_like(g), 0.0, tau_end=80.0
        )
        assert np.max(np.abs(traj.populations.sum(axis=1) - 1.0)) < 1e-9

    def test_all_population_in_ground_is_fixed_point(self):
        pops = np.zeros(6)
        pops[0] = 1.0
        initial = RateState(0.0, pops, np.zeros(6))
        g = np.array([0.0, 0.5, 0.2])
        traj = evolve_rates(initial, g, np.zeros(3), 0.1, tau_end=30.0)
        assert np.max(np.abs(traj.populations[-1] - pops)) == 0.0

    def test_mean_mode_never_decreases(self):
        params = SystemParams(gamma=1.0, epsilon=0.1, k0_rho=5.605, ell=2)
        g = rate_coefficients(fourier_coefficients(params))
        traj = evolve_rates(
            seeded_rate_state(20, 1e-6), g, np.zeros_like(g), 0.0, tau_end=120.0
        )
        mean_m = traj.populations @ np.arange(21.0)
        assert np.min(np.diff(mean_m)) > -1e-12

    def test_single_channel_follows_tanh_curve(self):
        # Starting on the closed-form orbit, the numeric cascade must stay
        # on it: the tanh profile is an exact solution of the two-state
        # system, with the seed entering through the delay time.
        g_k, seed, k = 0.21, 1e-5, 3
        g = np.zeros(6)
        g[k] = g_k
        n0, nk = two_state_analytic(g_k, seed, 0.0)
        pops = np.zeros(8)
        pops[0], pops[k] = n0, nk
        initial = RateState(0.0, pops, np.zeros(8))
        traj = evolve_rates(
            initial, g, np.zeros(6), 0.0, tau_end=150.0,
            controls=OdeControls(rel_tol=1e-11, abs_tol=1e-14), stride=0.5,
        )
        worst = 0.0
        for i, tau in enumerate(traj.times):
            a0, ak = two_state_analytic(g_k, seed, float(tau))
            worst = max(
                worst,
                abs(traj.populations[i, 0] - a0),
                abs(traj.populations[i, k] - ak),
            )
        assert worst < 1e-6


class TestTwoStateAnalytic:
    def test_saturates_to_full_transfer(self):
        n0, nk = two_state_analytic(0.5, 1e-6, 1e6)
        assert n0 == pytest.approx(0.0, abs=1e-12)
        assert nk == pytest.approx(1.0, abs=1e-12)

    def test_half_transfer_at_delay_time(self):
        g_k, seed = 0.4, 1e-8
        tau_0 = np.log(2.0 / np.sqrt(seed)) / g_k
        n0, nk = two_state_analytic(g_k, seed, tau_0)
        assert n0 == pytest.approx(0.5, abs=1e-12)
        assert nk == pytest.approx(0.5, abs=1e-12)

    def test_pair_sums_to_one_exactly(self):
        for tau in (0.0, 3.0, 47.0):
            n0, nk = two_state_analytic(0.17, 1e-4, tau)
            assert n0 + nk == 1.0

    def test_peak_growth_rate_by_finite_differences(self):
        g_k, seed = 0.3, 1e-6
        tau_0 = np.log(2.0 / np.sqrt(seed)) / g_k
        h = 1e-5
        _, up = two_state_analytic(g_k, seed, tau_0 + h)
        _, dn = two_state_analytic(g_k, seed, tau_0 - h)
        assert (up - dn) / (2.0 * h) == pytest.approx(g_k / 4.0, rel=1e-8)

    def test_domain_checks(self):
        with pytest.raises(ConfigurationError):
            two_state_analytic(0.0, 1e-4, 1.0)
        with pytest.raises(ConfigurationError):
            two_state_analytic(0.3, 0.0, 1.0)


class TestRateState:
    def test_invariants(self):
        with pytest.raises(ConfigurationError):
            RateState(0.0, np.array([0.5, 0.4]), np.zeros(2))
        with pytest.raises(ConfigurationError):
            RateState(0.0, np.array([1.2, -0.2]), np.zeros(2))

    @pytest.mark.parametrize(
        "pops, phases",
        [
            ([np.nan, 0.5, 0.5], [0.0, 0.0, 0.0]),
            ([0.5, np.inf, 0.5], [0.0, 0.0, 0.0]),
            ([0.5, 0.25, 0.25], [0.0, np.inf, 0.0]),
            ([0.5, 0.25, 0.25], [np.nan, 0.0, 0.0]),
        ],
    )
    def test_non_finite_entries_rejected(self, pops, phases):
        with pytest.raises(ConfigurationError, match="finite"):
            RateState(0.0, np.array(pops), np.array(phases))

    def test_seeding_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            seeded_rate_state(10, 0.2)
