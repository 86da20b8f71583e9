"""Coupled-mode dynamics tests: derivative oracle, conservation, free limits,
seeded instability growth against the stability eigenvalue."""

from functools import cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

import oamring.dynamics as dynamics
from oamring.config import parse_config
from oamring.dynamics import (
    BunchingSpectrum,
    StateVector,
    bunching,
    default_initial_state,
    evolve,
    modes,
    observables,
    transitions,
)
from oamring.errors import ConfigurationError, ToleranceError, TruncationError
from oamring.potential import SystemParams, fourier_coefficients
from oamring.rate_model import RateTrajectory, ladder_transitions
from oamring.stability import spectrum

RNG = np.random.default_rng(2024)


def fig2_setup(**kw):
    params = SystemParams(gamma=0.05, epsilon=0.1, k0_rho=1.0, ell=1, **kw)
    return params, fourier_coefficients(params)


@cache
def system(name: str):
    """The fig2, fig3 or fig4 preset's system, or a classical one (gamma 3,
    k0_rho 2, ell -1)."""
    if name == "classical":
        params = SystemParams(gamma=3.0, epsilon=0.1, k0_rho=2.0, ell=-1)
    else:
        params = parse_config("rate" if name == "fig3" else "evolve", preset=name).params
    return fourier_coefficients(params)


@cache
def system_rhs(name: str):
    """m_max and the nonlinear term of ``system(name)``."""
    fp = system(name)
    return fp.params.m_max, dynamics._nonlinear_rhs(fp)


def pure_mode_jacobian(fp, d: int) -> np.ndarray:
    """The real 2n x 2n Jacobian of the coupled-mode equations about the pure
    mode c = e_d, in the frame rotating at m^2 - d^2 - gamma V_0 / 2, on
    (Re c, Im c).  The nonlinear term N is a cubic form, so polarization
    gives each column exactly: DN(b)[v] = (N(b + v) - N(b - v)) / 2 - N(v)."""
    m_max = fp.params.m_max
    n = 2 * m_max + 1
    rhs = dynamics._nonlinear_rhs(fp)
    m = modes(m_max)
    omega = m * m - d * d - 0.5 * fp.params.gamma * fp.coefficient(0)
    b = np.zeros(n, dtype=complex)
    b[m_max + d] = 1.0
    columns = []
    for v in np.vstack([np.eye(n), 1j * np.eye(n)]):
        dv = 0.5 * (rhs(0.0, b + v) - rhs(0.0, b - v)) - rhs(0.0, v) - 1j * omega * v
        columns.append(np.concatenate([dv.real, dv.imag]))
    return np.array(columns).T


def derivative(state: StateVector, fp) -> np.ndarray:
    """dc/dtau of the coupled-mode equations at ``state``: the rotor term plus
    the library's nonlinear term, after its band check."""
    dynamics._check_band(state, fp)
    m = modes(state.m_max)
    return -1j * (m * m) * state.amplitudes + dynamics._nonlinear_rhs(fp)(
        state.tau, state.amplitudes
    )


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


def naive_bunching(amps, k_top):
    """Phi_0 .. Phi_k_top of one band by a direct double loop:
    Phi_k = sum_n conj(c_{n-k}) c_n over the n with both modes in band."""
    size = len(amps)
    out = np.zeros(k_top + 1, dtype=complex)
    for k in range(k_top + 1):
        for n in range(k, size):
            out[k] += np.conj(amps[n - k]) * amps[n]
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
        n0 = observables(state.amplitudes, 0).populations[params.m_max]
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

    def test_oversized_band_rejected_before_allocating(self):
        # 2 * 10**9 + 1 amplitudes, past 2**24 entries.
        params = SystemParams(gamma=0.05, m_max=10**9)
        with pytest.raises(ConfigurationError, match="m_max=1000000000: band"):
            default_initial_state(params, seed_amplitude=1e-7)

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
        zero_gamma = SystemParams(gamma=0.0, epsilon=0.1, k0_rho=1.0, ell=1, m_max=5)
        fp = fourier_coefficients(zero_gamma)
        state = random_state(5)
        dc = derivative(state, fp)
        m = modes(5)
        assert np.max(np.abs(dc + 1j * m * m * state.amplitudes)) < 1e-15

    def test_matches_naive_double_loop(self):
        params, fp = fig2_setup(m_max=8)
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
        parts = arrays(float, (2, 2 * m_max + 1), elements=st.floats(-1.0, 1.0))
        re, im = data.draw(parts, label="re, im")
        amps = re + 1j * im
        norm = np.linalg.norm(amps)
        assume(norm > 1e-3)
        state = StateVector(0.0, amps / norm)
        params, fp = fig2_setup(m_max=m_max)
        slow = naive_derivative(state, params, fp)
        assert np.max(np.abs(derivative(state, fp) - slow)) < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_kernel_matches_the_strided_view_bitwise(self, data):
        m_max = data.draw(st.integers(3, 24), label="m_max")
        parts = arrays(float, (3, 2, 2 * m_max + 1), elements=st.floats(-1.0, 1.0))
        re, im = data.draw(parts, label="re, im").transpose(1, 0, 2)
        amps = re + 1j * im
        norms = np.linalg.norm(amps, axis=1)
        assume(np.all(norms > 1e-3))
        _, fp = fig2_setup(m_max=m_max)
        fast, slow = dynamics._nonlinear_rhs(fp), reference_nonlinear_rhs(fp)
        for c in amps / norms[:, None]:  # three calls: each reuses the band buffer
            assert fast(0.0, c).tobytes() == slow(0.0, c).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_nonlinear_term_conserves_the_norm(self, data):
        # <c, N(c)> = -i (gamma/2) sum_k V_k |Phi_k|^2 is imaginary, since
        # V_{-k} = conj(V_k) and |Phi_{-k}| = |Phi_k|: the root of criterion
        # 6's norm conservation.
        name = data.draw(st.sampled_from(["fig2", "fig3", "fig4", "classical"]),
                         label="system")
        m_max, rhs = system_rhs(name)
        parts = arrays(float, (2, 2 * m_max + 1), elements=st.floats(-1.0, 1.0))
        re, im = data.draw(parts, label="re, im")
        amps = re + 1j * im
        norm = np.linalg.norm(amps)
        assume(norm > 1e-3)
        c = amps / norm
        n = rhs(0.0, c)
        assert abs(np.vdot(c, n).real) <= 1e-14 * np.linalg.norm(n)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_nonlinear_term_balances_the_angular_momentum(self, data):
        # d<m>/dtau = sum_m m dN_m/dtau = gamma sum_{k=1}^{2 m_max} k Im V_k
        # |Phi_k|^2, with dN_m/dtau = 2 Re(conj(c_m) N_m(c)); the rotor term
        # moves no N_m.  The atoms gain ell - ell' for the light scattered
        # into the channel ell' = ell + k.
        name = data.draw(st.sampled_from(["fig2", "fig3", "fig4", "classical"]),
                         label="system")
        fp, (m_max, rhs) = system(name), system_rhs(name)
        parts = arrays(float, (2, 2 * m_max + 1), elements=st.floats(-1.0, 1.0))
        re, im = data.draw(parts, label="re, im")
        amps = re + 1j * im
        norm = np.linalg.norm(amps)
        assume(norm > 1e-3)
        c = amps / norm
        rates = modes(m_max) * 2.0 * (c.conj() * rhs(0.0, c)).real
        k = np.arange(1, fp.k_max + 1)
        phi = observables(c, fp.k_max).phi[1:]
        terms = fp.params.gamma * k * fp.coefficient(k).imag * np.abs(phi) ** 2
        # Each term is at most gamma k |V_k| on a normalized state.
        scale = fp.params.gamma * np.sum(k * np.abs(fp.coefficient(k)))
        assert abs(rates.sum() - terms.sum()) <= 1e-15 * scale

    @settings(max_examples=60, deadline=None)
    @given(
        gamma=st.floats(0.0, 2.0),
        epsilon=st.floats(0.05, 0.5),
        k0_rho=st.floats(0.5, 6.0),
        ell=st.integers(-3, 3),
        d=st.integers(-3, 3),
    )
    def test_jacobian_about_a_pure_mode_is_the_stability_spectrum(
        self, gamma, epsilon, k0_rho, ell, d
    ):
        # In the frame rotating with the pure mode c = e_d, at frequencies
        # m^2 - d^2 - gamma V_0 / 2, the linearized coupled-mode equations
        # pair modes d + k and d - k.  Each pair carries the eigenvalues
        # -2i d k +/- lambda_k of stability.spectrum and their conjugates.
        params = SystemParams(gamma=gamma, epsilon=epsilon, k0_rho=k0_rho, ell=ell)
        fp = fourier_coefficients(params)
        eigenvalues = list(np.linalg.eigvals(pure_mode_jacobian(fp, d)))
        ks = np.arange(1, params.m_max - abs(d) + 1)
        lam = spectrum(fp, ks)
        shifted = np.concatenate([-2j * d * ks + lam, -2j * d * ks - lam])
        for want in np.concatenate([shifted, shifted.conj()]):
            got = eigenvalues.pop(int(np.argmin(np.abs(np.array(eigenvalues) - want))))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)


class TestBunchingSpectrum:
    def test_band_follows_the_coefficients(self):
        assert BunchingSpectrum(np.zeros(7, dtype=complex)).band == 3
        assert bunching(StateVector(0.0, np.eye(9)[4].astype(complex))).band == 8

    @pytest.mark.parametrize(
        "coefficients",
        [np.ones(4), np.ones((3, 3)), np.array([0.0, 1.0, np.nan]),
         np.array([0.0, 1.0, complex(0.0, np.inf)])],
        ids=["even-length", "two-axes", "nan", "inf"],
    )
    def test_malformed_coefficients_rejected(self, coefficients):
        # An even length once reached pattern_from_bunching as a broadcast error.
        with pytest.raises(ConfigurationError, match="band"):
            BunchingSpectrum(coefficients.astype(complex))


class TestObservables:
    def test_uniform_condensate_bunching_is_delta(self):
        amps = np.zeros(9, dtype=complex)
        amps[4] = 1.0
        phi = observables(amps, 8).phi
        assert phi[0] == 1.0
        assert np.max(np.abs(phi[1:])) == 0.0

    def test_two_mode_superposition_values(self):
        amps = np.zeros(9, dtype=complex)
        amps[4] = amps[5] = 1.0 / np.sqrt(2.0)
        spec = bunching(StateVector(0.0, amps))
        lag = spec.coefficients[spec.band - 1 : spec.band + 2]  # Phi_-1, Phi_0, Phi_1
        assert abs(lag[1] - 1.0) < 1e-15
        assert abs(lag[2] - 0.5) < 1e-15
        assert abs(lag[0] - 0.5) < 1e-15

    def test_single_rotating_mode_carries_no_bunching(self):
        amps = np.zeros(9, dtype=complex)
        amps[7] = 1.0
        phi = observables(amps, 8).phi
        assert phi[0] == 1.0
        assert np.max(np.abs(phi[1:])) == 0.0

    def test_bunching_hermitian_on_random_states(self):
        for _ in range(20):
            spec = bunching(random_state(6))
            coeff = spec.coefficients
            assert coeff.shape == (2 * spec.band + 1,)
            assert np.max(np.abs(coeff[::-1] - coeff.conj())) < 1e-12
            assert abs(coeff[spec.band] - 1.0) < 1e-10
            assert np.max(np.abs(coeff)) <= 1 + 1e-12

    @pytest.mark.parametrize("lead", [(), (5,), (3, 4)])
    def test_matches_naive_bunching_on_every_shape(self, lead):
        rng = np.random.default_rng(11)
        size = 13
        amps = rng.normal(size=lead + (size,)) + 1j * rng.normal(size=lead + (size,))
        amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
        obs = observables(amps, size - 1)
        assert obs.phi.shape == lead + (size,)
        for index in np.ndindex(*lead):
            slow = naive_bunching(amps[index], size - 1)
            assert np.max(np.abs(obs.phi[index] - slow)) < 1e-15
            # a stacked state reads exactly what it reads alone
            alone = observables(amps[index], size - 1)
            assert obs.phi[index].tobytes() == alone.phi.tobytes()
            assert obs.drift[index] == alone.drift and obs.edge[index] == alone.edge

    @pytest.mark.parametrize("lead", [(), (4,)])
    def test_lags_past_the_band_are_zero(self, lead):
        rng = np.random.default_rng(5)
        size = 9
        amps = rng.normal(size=lead + (size,)) + 1j * rng.normal(size=lead + (size,))
        past = observables(amps, size + 2).phi
        assert past.shape == lead + (size + 3,)
        assert past[..., :size].tobytes() == observables(amps, size - 1).phi.tobytes()
        assert not past[..., size:].any()

    def test_populations_match_squared_amplitudes(self):
        state = random_state(5)
        pops = observables(state.amplitudes, 0).populations
        assert np.allclose(pops, np.abs(state.amplitudes) ** 2, atol=0)
        assert abs(pops.sum() - 1.0) < 1e-12

    def test_mean_angular_velocity_cases(self):
        amps = np.zeros((3, 9), dtype=complex)
        amps[0, 4] = 1.0  # uniform
        amps[1, 5] = 1.0  # a single rotating mode
        amps[2, 4] = amps[2, 6] = 1.0 / np.sqrt(2.0)  # m = 0 and m = 2
        omega = observables(amps, 0).mean_omega
        assert omega[0] == 0.0
        assert omega[1] == 1.0
        assert omega[2] == pytest.approx(1.0)


def pass_of(rows: dict, m_max: int = 2):
    """Sample times and the observables of real amplitudes sqrt(N_m), from
    N_m per sample for each m in ``rows``; m = 0 holds the rest."""
    pops = np.zeros((len(next(iter(rows.values()))), 2 * m_max + 1))
    for m, values in rows.items():
        pops[:, m_max + m] = values
    pops[:, m_max] = 1.0 - pops.sum(axis=1)
    return 10.0 * np.arange(len(pops)), observables(np.sqrt(pops) + 0j, m_max)


@pytest.mark.parametrize("rows, ladder, want", [
    # N_{+1} = N_{-1} = 0.3: neither passes 1/2 alone, their sum does; a tie is +1
    ({1: [0.1, 0.3], -1: [0.1, 0.3]}, False, {1: {"tau": 10.0, "sign": 1}}),
    ({1: [0.1, 0.24], -1: [0.1, 0.3]}, False, {1: {"tau": 10.0, "sign": -1}}),
    # a -k win; lag 1 peaks at 0.4 and never crosses, so it has no entry
    ({-2: [0.0, 0.2, 0.9], 1: [0.0, 0.4, 0.05]}, False, {2: {"tau": 20.0, "sign": -1}}),
    # |Phi_1| = sqrt(N_0 N_1) peaks on the crossing sample itself
    ({1: [0.1, 0.3, 0.52, 0.9]}, False,
     {1: {"tau": 20.0, "peak_tau": 20.0, "peak_phi": np.sqrt(0.52 * 0.48)}}),
    # the ladder reads N_k itself, from rung 1 up
    ({1: [0.1, 0.6], 2: [0.0, 0.3]}, True, {1: {"tau": 10.0}}),
], ids=["pair-tie", "pair-sign", "minus-win", "peak-on-crossing", "ladder"])
def test_transitions_record(rows, ladder, want):
    times, obs = pass_of(rows)
    if ladder:
        rungs = obs.populations[:, 2:]  # N_0, N_1, N_2
        record = ladder_transitions(RateTrajectory(times, rungs, 0 * rungs, 0, 0))
    else:
        record = transitions(times, obs)
    assert set(record) == set(want)
    for k, entry in want.items():
        assert {key: record[k][key] for key in entry} == pytest.approx(entry)


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

    def test_norm_and_central_bunching_along_trajectory(self):
        params, fp = fig2_setup()
        traj = evolve(default_initial_state(params), fp, 50.0, stride=5.0)
        obs = observables(traj.states, 0)
        assert np.max(obs.drift) < 1e-8
        assert np.max(np.abs(obs.phi[:, 0] - 1.0)) < 1e-10

    def test_zero_winding_conserves_the_mean_angular_momentum(self):
        # At ell = 0 every Im V_k vanishes, so the balance law leaves <m>
        # fixed while the populations move: a second invariant beside the norm.
        params = SystemParams(gamma=1.0, epsilon=0.1, k0_rho=1.0, ell=0, m_max=8)
        m = modes(params.m_max)
        rng = np.random.default_rng(7)
        inner = rng.normal(size=m.size) + 1j * rng.normal(size=m.size)
        amps = np.where(np.abs(m) <= 2, inner, 0.0)
        traj = evolve(StateVector(0.0, amps / np.linalg.norm(amps)),
                      fourier_coefficients(params), tau_end=10.0)
        obs = observables(traj.states, 0)
        assert abs(obs.mean_omega[0]) > 0.1
        assert np.max(np.abs(obs.populations - obs.populations[0])) > 1e-2
        assert np.max(np.abs(obs.mean_omega - obs.mean_omega[0])) < 1e-10

    @pytest.mark.parametrize("ell", [1, 2])
    def test_mirror_pump_mirrors_the_populations(self, ell):
        # V_k(-ell) = V_{-k}(ell), so the mirrored seeds c_m -> c_{-m} at -ell
        # fill mode -m as the seeds fill m at ell (measured to 9e-15 over
        # tau 0-40), step for step.
        runs = []
        for sign in (1, -1):
            params = SystemParams(gamma=0.05, epsilon=0.1, k0_rho=1.0, ell=sign * ell)
            amps = default_initial_state(params, 1e-4, "random", 3).amplitudes
            state = StateVector(0.0, amps if sign == 1 else amps[::-1])
            runs.append(evolve(state, fourier_coefficients(params), 40.0, stride=1.0))
        plus, minus = runs
        mirrored = np.abs(minus.states[:, ::-1]) ** 2
        assert np.max(np.abs(np.abs(plus.states) ** 2 - mirrored)) < 1e-12
        assert (plus.attempts, plus.rejected) == (minus.attempts, minus.rejected)

    def test_oversized_coupling_table_rejected(self):
        # (4 m_max + 1) x (2 m_max + 1) = 6001 x 3001 entries, past 2**24.
        params, fp = fig2_setup(m_max=1500)
        state = default_initial_state(params, seed_amplitude=1e-6)
        with pytest.raises(ConfigurationError, match="m_max=1500: coupling table"):
            derivative(state, fp)

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

    def test_mid_run_truncation_names_first_bad_tau(self, monkeypatch):
        # The band edge breaks at the sample at tau 845, which ends the run:
        # no rhs call reaches the next sample.
        params, fp = fig2_setup(m_max=3)
        calls = []
        ode = dynamics.integrate_ode

        def traced(rhs, *args, **kwargs):
            return ode(lambda t, c: calls.append(t) or rhs(t, c), *args, **kwargs)

        monkeypatch.setattr(dynamics, "integrate_ode", traced)
        with pytest.raises(TruncationError, match=r"at tau=845; increase m_max"):
            evolve(default_initial_state(params), fp, 900.0)
        assert 800.0 < max(calls) <= 846.0

    def test_first_offending_sample_is_reported(self):
        # integrate_ode checks each sample as it records it, so the first
        # sample that raises here is the one the run reports.
        dynamics._check_sample(2.0, np.eye(21)[10])
        c = np.zeros(21, dtype=complex)
        c[10] = np.sqrt(1.0 - 1e-5)
        c[0] = np.sqrt(1e-5)  # band edge
        edge_message = r"1\.000e-05 exceeds 1e-06 at tau=2\.5;"
        with pytest.raises(TruncationError, match=edge_message):
            dynamics._check_sample(2.5, c)
        c[10] = 1.1  # drift and edge in one sample: drift is named
        with pytest.raises(ToleranceError, match=r"exceeds 1e-08 at tau=2\.5$"):
            dynamics._check_sample(2.5, c)

    def test_band_edge_occupancy_definition(self):
        amps = np.zeros(21, dtype=complex)
        amps[0] = 0.3
        amps[-1] = 0.4
        assert observables(amps, 0).edge == pytest.approx(0.25)
