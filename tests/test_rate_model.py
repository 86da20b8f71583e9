"""Rate-equation cascade tests: exact conservation structure, independent
summation oracles, and the closed-form two-state transition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oamring.rate_model as rate_model
from oamring.errors import ConfigurationError, ToleranceError
from oamring.config import parse_config
from oamring.numerics import MAX_ENTRIES, OdeControls, Trajectory, integrate_ode
from oamring.potential import (
    GRID_DOUBLING_TOL,
    SystemParams,
    dispersion_coefficients,
    fourier_coefficients,
    rate_coefficients,
)
from oamring.rate_model import (
    RateState,
    _rate_rhs,
    evolve_rates,
    seeded_rate_state,
    two_state_analytic,
)
from oamring.stability import classify_regime, spectrum

RNG = np.random.default_rng(99)


def random_rate_state(m_max: int) -> RateState:
    pops = RNG.uniform(0.01, 1.0, m_max + 1)
    pops /= pops.sum()
    return RateState(pops)


def stacked_rhs(state, g, alpha):
    """The rhs evolve_rates integrates, at the state with zero phases: its
    first n rows are the population rates, its last n rows the phase rates."""
    n = state.populations.size
    y = np.concatenate([state.populations, np.zeros(n)])
    out = _rate_rhs(n, g, alpha)(0.0, y)
    return out[:n], out[n:]


def rate_rows(state, g):
    return stacked_rhs(state, g, np.zeros(len(g)))[0]


def phase_rows(state, alpha):
    return stacked_rhs(state, np.zeros(len(alpha)), alpha)[1]


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


def naive_phase_derivative(state, alpha):
    """Phase rates by explicit sums; the mean-field offset is 2 alpha_0."""
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
        out[m] = -(m * m + 2.0 * alpha[0]) - (up + down)
    return out


class TestRateDerivative:
    def test_two_level_reduction(self):
        g = np.array([0.0, 0.3])
        pops = np.array([0.7, 0.3, 0.0, 0.0])
        state = RateState(pops)
        d = rate_rows(state, g)
        assert d[1] == pytest.approx(0.3 * 0.7 * 0.3, abs=1e-15)
        assert d[0] == pytest.approx(-0.3 * 0.7 * 0.3, abs=1e-15)

    def test_zero_rates_freeze_everything(self):
        state = random_rate_state(6)
        assert np.all(rate_rows(state, np.zeros(5)) == 0.0)

    def test_derivative_components_telescope(self):
        g = np.concatenate([[0.0], RNG.uniform(0.0, 1.0, 8)])
        for _ in range(25):
            state = random_rate_state(12)
            assert abs(rate_rows(state, g).sum()) < 1e-15

    def test_matches_naive_summation(self):
        g = np.concatenate([[0.0], RNG.uniform(0.0, 1.0, 6)])
        for _ in range(25):
            state = random_rate_state(10)
            assert np.max(
                np.abs(rate_rows(state, g) - naive_rate_derivative(state, g))
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
    state = RateState(pops)
    return rng, state, n_rungs - excess


class TestLadderProperties:
    @LADDER_SHAPES
    @settings(max_examples=40, deadline=None)
    @given(n_rungs=st.integers(5, 24), seed=st.integers(0, 2**32 - 1))
    def test_rates_match_naive_summation_and_conserve(self, excess, n_rungs, seed):
        rng, state, size = random_ladder(n_rungs, excess, seed)
        g = np.concatenate([[0.0], rng.uniform(0.0, 1.0, size - 1)])
        got = rate_rows(state, g)
        assert np.max(np.abs(got - naive_rate_derivative(state, g))) < 1e-14
        assert abs(got.sum()) < 1e-15

    @LADDER_SHAPES
    @settings(max_examples=40, deadline=None)
    @given(n_rungs=st.integers(5, 24), seed=st.integers(0, 2**32 - 1))
    def test_phases_match_naive_summation(self, excess, n_rungs, seed):
        rng, state, size = random_ladder(n_rungs, excess, seed)
        alpha = rng.normal(size=size)
        alpha[0] = float(rng.normal()) / 2  # the mean-field offset gamma V_0
        got = phase_rows(state, alpha)
        want = naive_phase_derivative(state, alpha)
        # The ladder sums agree to 1e-14; the rotor -m^2 (up to 529 here)
        # adds the rounding of one subtraction on each side.
        assert np.all(np.abs(got - want) <= 1e-14 + 2 * np.spacing(np.abs(want)))


class TestPhaseDerivative:
    def test_free_rotor_phases(self):
        state = random_rate_state(5)
        d = phase_rows(state, np.zeros(4))
        assert np.array_equal(d, -np.arange(6.0) ** 2)

    def test_mean_field_offset_alone(self):
        pops = np.zeros(4)
        pops[0] = 1.0
        state = RateState(pops)
        d = phase_rows(state, np.array([0.37 / 2, 0.0, 0.0]))
        assert d[0] == -0.37

    def test_matches_naive_summation(self):
        alpha = np.concatenate([[0.9 / 2], RNG.normal(size=6)])
        for _ in range(25):
            state = random_rate_state(9)
            got = phase_rows(state, alpha)
            want = naive_phase_derivative(state, alpha)
            assert np.max(np.abs(got - want)) < 1e-14


class TestEvolveRates:
    @LADDER_SHAPES
    def test_integrates_the_rate_rhs(self, monkeypatch, excess):
        # evolve_rates must hand integrate_ode exactly the _rate_rhs that the
        # naive-sum checks above pin.
        rng, state, size = random_ladder(21, excess, 3)
        g = np.concatenate([[0.0], rng.uniform(0.0, 1.0, size - 1)])
        alpha = rng.normal(size=size)
        alpha[0] = 0.7 / 2
        captured = {}

        def capture(rhs, y0, *args, **kwargs):
            captured["rhs"] = rhs
            raise RuntimeError("captured")

        monkeypatch.setattr(rate_model, "integrate_ode", capture)
        with pytest.raises(RuntimeError, match="captured"):
            evolve_rates(state, g, alpha, tau_end=1.0)
        y = np.concatenate([state.populations, rng.normal(size=21)])
        want = _rate_rhs(21, g, alpha)(0.0, y)
        assert np.array_equal(captured["rhs"](0.0, y), want)

    @pytest.mark.parametrize(
        "faults, named",
        [
            ({1: [0.5 + 2e-9, 0.25, 0.25], 3: [0.5 + 1e-6, 0.25, 0.25]},
             "drift 2.000e-09 .* tau=1$"),
            ({1: [0.75 + 2e-12, 0.25, -2e-12], 2: [0.5 + 1e-6, 0.25, 0.25]},
             "N_2 = -2.000e-12 .* tau=1$"),
            ({2: [0.751001, 0.25, -1e-3], 3: [1.25, 0.25, -0.5]},
             "drift 1.000e-06 .* tau=2$"),
        ],
        ids=["drift-then-worse-drift", "negative-then-drift", "both-in-one-sample"],
    )
    def test_names_the_first_bad_sample(self, monkeypatch, faults, named):
        # A synthetic trajectory whose first fault is not its worst one.
        pops = np.tile([0.5, 0.25, 0.25], (5, 1))
        for i, row in faults.items():
            pops[i] = row
        states = np.hstack([pops, np.zeros_like(pops)])

        def fake(*args, check):
            for tau, y in enumerate(states):
                check(float(tau), y)
            return Trajectory(np.arange(5.0), states, attempts=4, rejected=0)

        monkeypatch.setattr(rate_model, "integrate_ode", fake)
        initial = RateState(pops[0])
        with pytest.raises(ToleranceError, match=named):
            evolve_rates(initial, np.zeros(3), np.zeros(3), tau_end=4.0)

    def test_fig3_matches_the_complex_state(self):
        # evolve_rates steps a float64 state; the same rhs stepped from a
        # complex y0 is the complex arithmetic it replaced.  Populations agree
        # to rounding, phases to a few ulp of the largest phase.
        cfg = parse_config("rate", preset="fig3")
        fp = fourier_coefficients(cfg.params)
        g, alpha = rate_coefficients(fp), dispersion_coefficients(fp)
        state = seeded_rate_state(cfg.params.m_max, cfg.options["seed_population"])
        tau_end, stride = cfg.options["tau_end"], cfg.options["stride"]
        real = evolve_rates(state, g, alpha, tau_end, OdeControls(), stride)
        n = state.populations.size
        y0 = np.concatenate([state.populations, np.zeros(n)]).astype(complex)
        ref = integrate_ode(_rate_rhs(n, g, alpha), y0, (0.0, tau_end), OdeControls(), stride)
        assert ref.states.dtype == np.complex128
        assert not ref.states.imag.any()
        assert (real.attempts, real.rejected) == (ref.attempts, ref.rejected)
        assert np.array_equal(real.times, ref.times)
        pops = np.where(ref.states.real[:, :n] < 0.0, 0.0, ref.states.real[:, :n])
        assert np.max(np.abs(real.populations - pops)) <= 1e-15
        phases = ref.states.real[:, n:]
        assert np.max(np.abs(real.phases - phases)) <= 4 * np.spacing(np.abs(phases).max())

    def test_population_conserved(self):
        g = np.concatenate([[0.0], RNG.uniform(0.0, 0.4, 6)])
        traj = evolve_rates(
            seeded_rate_state(10, 1e-4), g, np.zeros_like(g), tau_end=80.0
        )
        assert np.max(np.abs(traj.populations.sum(axis=1) - 1.0)) < 1e-9

    def test_all_population_in_ground_is_fixed_point(self):
        pops = np.zeros(6)
        pops[0] = 1.0
        initial = RateState(pops)
        g = np.array([0.0, 0.5, 0.2])
        alpha = np.array([0.1 / 2, 0.0, 0.0])
        traj = evolve_rates(initial, g, alpha, tau_end=30.0)
        assert np.max(np.abs(traj.populations[-1] - pops)) == 0.0

    def test_mean_mode_never_decreases(self):
        params = SystemParams(gamma=1.0, epsilon=0.1, k0_rho=5.605, ell=2)
        g = rate_coefficients(fourier_coefficients(params))
        traj = evolve_rates(
            seeded_rate_state(20, 1e-6), g, np.zeros_like(g), tau_end=120.0
        )
        mean_m = traj.populations @ np.arange(21.0)
        assert np.min(np.diff(mean_m)) > -1e-12

    def test_single_channel_follows_tanh_curve(self):
        # Started from the seed, the numeric cascade must follow the closed
        # form: the logistic (a shifted tanh) solves the two-state system
        # exactly, with the seed entering through the delay time.
        g_k, seed, k = 0.21, 1e-5, 3
        g = np.zeros(6)
        g[k] = g_k
        pops = np.zeros(8)
        pops[0], pops[k] = 1.0 - seed, seed
        initial = RateState(pops)
        traj = evolve_rates(
            initial, g, np.zeros(6), tau_end=150.0,
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

    def test_starts_at_the_seed_exactly(self):
        rng = np.random.default_rng(3)
        for seed in np.exp(rng.uniform(np.log(1e-12), np.log(0.5), 20000)).tolist():
            assert two_state_analytic(0.3, seed, 0.0) == (1.0 - seed, seed)

    def test_half_transfer_at_delay_time(self):
        g_k, seed = 0.4, 1e-8
        tau_0 = np.log((1.0 - seed) / seed) / g_k
        n0, nk = two_state_analytic(g_k, seed, tau_0)
        assert n0 == pytest.approx(0.5, abs=1e-12)
        assert nk == pytest.approx(0.5, abs=1e-12)

    def test_pair_sums_to_one_exactly(self):
        for tau in (0.0, 3.0, 47.0):
            n0, nk = two_state_analytic(0.17, 1e-4, tau)
            assert n0 + nk == 1.0

    def test_peak_growth_rate_by_finite_differences(self):
        g_k, seed = 0.3, 1e-6
        tau_0 = np.log((1.0 - seed) / seed) / g_k
        h = 1e-5
        _, up = two_state_analytic(g_k, seed, tau_0 + h)
        _, dn = two_state_analytic(g_k, seed, tau_0 - h)
        assert (up - dn) / (2.0 * h) == pytest.approx(g_k / 4.0, rel=1e-8)

    def test_domain_checks(self):
        for g_k in (0.0, math.inf):
            with pytest.raises(ConfigurationError):
                two_state_analytic(g_k, 1e-4, 1.0)
        with pytest.raises(ConfigurationError):
            two_state_analytic(0.3, 0.0, 1.0)
        with pytest.raises(ConfigurationError, match="tau >= 0"):
            two_state_analytic(0.3, 1e-4, -1e4)


@settings(max_examples=60, deadline=None)
@given(gamma=st.floats(1e-3, 3.0), k0_rho=st.floats(0.3, 6.0), ell=st.integers(-3, 3))
def test_rate_model_holds_to_second_order_in_the_quantum_regime(gamma, k0_rho, ell):
    """The rate model is leading order in x = gamma |V_k| / k^2: expanding
    lambda_k = i k sqrt(k^2 + gamma V_k) gives 2 |Re lambda_k| =
    g_k (1 - alpha_k / k^2) + O(x^2) relative to it.  On every resolved
    channel classify_regime calls quantum, the relative residual stays within
    0.5 x^2 (0.39 x^2 was the largest over 4,098 such channels) plus rounding."""
    fp = fourier_coefficients(SystemParams(gamma=gamma, k0_rho=k0_rho, ell=ell))
    g, alpha = rate_coefficients(fp), dispersion_coefficients(fp)
    ks = np.arange(1, fp.params.m_max + 1)
    v = fp.coefficient(ks)
    two_re = 2.0 * np.abs(spectrum(fp, ks).real)
    for k, v_k, two_re_k in zip(ks.tolist(), v, two_re):
        if not g[k] > gamma * GRID_DOUBLING_TOL or (
            classify_regime(k, gamma, v_k) != "quantum"
        ):
            continue
        residual = abs(two_re_k - g[k] * (1.0 - alpha[k] / k**2)) / two_re_k
        x = gamma * abs(v_k) / k**2
        assert residual <= 0.5 * x**2 + 1e-15, (k, residual, x)


class TestRateState:
    def test_invariants(self):
        with pytest.raises(ConfigurationError):
            RateState(np.array([0.5, 0.4]))
        with pytest.raises(ConfigurationError):
            RateState(np.array([1.2, -0.2]))

    @pytest.mark.parametrize("pops", [[np.nan, 0.5, 0.5], [0.5, np.inf, 0.5]])
    def test_non_finite_entries_rejected(self, pops):
        with pytest.raises(ConfigurationError, match="finite"):
            RateState(np.array(pops))

    def test_seeding_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            seeded_rate_state(10, 0.2)

    def test_oversized_ladder_rejected_before_allocating(self):
        # np.full would ask for 7.3 TiB here, the rhs's ladder for far more.
        with pytest.raises(ConfigurationError, match="m_max=1000000000000"):
            seeded_rate_state(10**12, 1e-13)
        # The rhs stacks two (m_max + 1)^2 ladders into one table.
        top = math.isqrt(MAX_ENTRIES // 2) - 1
        assert top == 2895
        assert seeded_rate_state(top, 1e-6).m_max == top
        with pytest.raises(ConfigurationError, match="m_max=2896"):
            seeded_rate_state(top + 1, 1e-6)
        pops = np.full(top + 2, 1.0 / (top + 2))
        with pytest.raises(ConfigurationError, match="m_max=2896"):
            RateState(pops)
