"""Acceptance suite: one test per release criterion, each printing a PASS
line with its measured numbers.  Heavy scenario runs are shared through
module-scoped fixtures; every tolerance is pinned here, not configurable."""

import json
import math
import time


import numpy as np
import pytest

from oamring.cli import main
from oamring.config import parse_config
from oamring.dynamics import (
    StateVector,
    bunching,
    default_initial_state,
    derivative,
    evolve,
    mean_angular_velocity,
)
from oamring.numerics import OdeControls
from oamring.potential import (
    SystemParams,
    dispersion_coefficients,
    fourier_coefficients,
    rate_coefficients,
)
from oamring.radiation import (
    count_lobes,
    field_expansion,
    field_quadrature,
    pattern_from_bunching,
)
from oamring.rate_model import (
    RateState,
    evolve_rates,
    seeded_rate_state,
    two_state_analytic,
)
from oamring.stability import spectrum, spectrum_sweep

from test_dynamics import naive_derivative, random_state


def report(number: int, name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {number} ({name}): PASS  [{detail}]")


@pytest.fixture(scope="module")
def fig2_run():
    cfg = parse_config("evolve", preset="fig2")
    params = cfg.params
    fp = fourier_coefficients(params)
    initial = default_initial_state(params, cfg.options["seed_amplitude"])
    start = time.perf_counter()
    traj = evolve(
        initial, fp,
        tau_end=cfg.options["tau_end"], stride=cfg.options["stride"],
    )
    elapsed = time.perf_counter() - start
    pops = np.abs(traj.states) ** 2
    phi1 = np.array(
        [bunching(StateVector(0.0, s)).coefficient(1) for s in traj.states]
    )
    phi0 = np.array(
        [bunching(StateVector(0.0, s)).coefficient(0) for s in traj.states]
    )
    omega = np.array(
        [mean_angular_velocity(StateVector(0.0, s)) for s in traj.states]
    )
    return {
        "params": params,
        "fp": fp,
        "traj": traj,
        "pops": pops,
        "phi1": phi1,
        "phi0": phi0,
        "omega": omega,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def fig3_run():
    cfg = parse_config("rate", preset="fig3")
    params = cfg.params
    fp = fourier_coefficients(params)
    g = rate_coefficients(fp)
    alpha = dispersion_coefficients(fp)
    start = time.perf_counter()
    traj = evolve_rates(
        seeded_rate_state(params.m_max, cfg.options["seed_population"]),
        g,
        alpha,
        gamma_v0=params.gamma * fp.coefficient(0).real,
        tau_end=cfg.options["tau_end"],
        stride=cfg.options["stride"],
    )
    elapsed = time.perf_counter() - start
    return {"params": params, "g": g, "traj": traj, "elapsed": elapsed}


@pytest.fixture(scope="module")
def fig4_run():
    cfg = parse_config("evolve", preset="fig4")
    params = cfg.params
    fp = fourier_coefficients(params)
    initial = default_initial_state(params, cfg.options["seed_amplitude"])
    start = time.perf_counter()
    traj = evolve(
        initial, fp,
        tau_end=cfg.options["tau_end"], stride=cfg.options["stride"],
    )
    phi5 = np.array(
        [abs(bunching(StateVector(0.0, s)).coefficient(5)) for s in traj.states]
    )
    snap = int(np.argmax(phi5))
    state = StateVector(float(traj.times[snap]), traj.states[snap])
    rad_options = parse_config("radiate", preset="fig4").options
    pattern = pattern_from_bunching(
        bunching(state), params,
        theta_count=rad_options["theta_count"],
        phi_count=rad_options["phi_count"],
    )
    elapsed = time.perf_counter() - start
    return {
        "params": params,
        "traj": traj,
        "phi5": phi5,
        "snap_index": snap,
        "snap_state": state,
        "pattern": pattern,
        "elapsed": elapsed,
    }


def plateau_lengths(omega: np.ndarray, level: int, tol: float = 0.05) -> int:
    """Longest run of consecutive samples within tol of the level."""
    close = np.abs(omega - level) <= tol
    best = run = 0
    for flag in close:
        run = run + 1 if flag else 0
        best = max(best, run)
    return best


def test_criterion_1_growth_rate_trend():
    template = SystemParams(gamma=0.2, epsilon=0.1, ell=1)
    start = time.perf_counter()
    sweep = spectrum_sweep(template, [2.0, 4.0, 6.0, 8.0], (1, 12))
    elapsed = time.perf_counter() - start
    for k0_rho, m_star in zip(sweep.k0_rho_grid, sweep.argmax_m):
        assert abs(int(m_star) - round(k0_rho)) <= 1, (
            f"argmax m={m_star} strays from k0_rho={k0_rho}"
        )
    assert elapsed < 10.0
    report(
        1,
        "growth-rate trend",
        f"argmax_m={list(map(int, sweep.argmax_m))} for k0_rho=[2,4,6,8], "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_small_ring_cascade(fig2_run):
    pops = fig2_run["pops"]
    omega = fig2_run["omega"]
    phi1 = np.abs(fig2_run["phi1"])
    m_max = fig2_run["params"].m_max

    # transitions appear in order 0 -> 1 -> 2, each a unit step
    crossing = {}
    for m in range(0, 4):
        hits = np.nonzero(pops[:, m_max + m] > 0.5)[0]
        if hits.size:
            crossing[m] = int(hits[0])
    assert {0, 1, 2} <= set(crossing)
    assert crossing[0] < crossing[1] < crossing[2]
    negatives = pops[:, :m_max].sum(axis=1)
    assert negatives.max() < 1e-3  # transfer is one-sided (quantum regime)

    # mean angular velocity plateaus within 0.05 of successive integers
    for level in (1, 2):
        assert plateau_lengths(omega, level) >= 50, f"no plateau at {level}"

    # peak bunching of the first transition
    first_peak = float(phi1[: crossing[2]].max())
    assert abs(first_peak - 0.5) <= 0.05

    assert fig2_run["elapsed"] < 120.0
    report(
        2,
        "small-ring cascade",
        f"transitions at tau={[float(fig2_run['traj'].times[crossing[m]]) for m in (1, 2)]}, "
        f"max|Phi_1|={first_peak:.3f}, {fig2_run['elapsed']:.0f}s",
    )


def test_criterion_3_channel_competition(fig3_run):
    g = fig3_run["g"]
    traj = fig3_run["traj"]

    order = np.argsort(g[1:])[::-1] + 1
    assert g[1] < 0.02 * g[order[0]]
    assert list(order[:2]) == [6, 5]

    done = np.nonzero(traj.populations[:, 0] < 0.01)[0]
    assert done.size, "first transition did not complete"
    i_star = int(done[0])
    n6 = float(traj.populations[i_star, 6])
    n5 = float(traj.populations[i_star, 5])
    residual = 1.0 - n6 - n5
    assert n6 > 0.8
    assert n6 > n5
    assert residual < 0.02
    assert abs(n6 - 0.91) <= 0.06
    assert fig3_run["elapsed"] < 60.0
    report(
        3,
        "channel competition",
        f"g ranking {list(map(int, order[:2]))}, split N6={n6:.3f}/N5={n5:.3f}, "
        f"residual={residual:.3f}, {fig3_run['elapsed']:.1f}s",
    )


def test_criterion_4_oam_conversion(fig4_run):
    params = fig4_run["params"]
    traj = fig4_run["traj"]
    pops = np.abs(traj.states) ** 2
    m_max = params.m_max

    # dominant transfer 0 -> 5: fifth mode ends macroscopic, others stay small
    assert pops[-1, m_max + 5] > 0.8
    others = np.delete(pops, [m_max, m_max + 5], axis=1)
    assert others.max() < 0.05

    peak_phi5 = float(fig4_run["phi5"][fig4_run["snap_index"]])
    assert peak_phi5 >= 0.3

    pattern = fig4_run["pattern"]
    i_eq = int(np.argmin(np.abs(pattern.theta_grid - math.pi / 2)))
    weights = {
        params.ell + int(m): float(w)
        for m, w in zip(pattern.component_modes, pattern.components[i_eq])
    }
    ratio = weights[-3] / weights[2]
    assert ratio >= 10.0

    lobes = count_lobes(np.abs(pattern.field[i_eq]) ** 2)
    assert lobes == 5

    assert fig4_run["elapsed"] < 120.0
    report(
        4,
        "OAM conversion",
        f"|Phi_5| peak {peak_phi5:.3f} at tau={fig4_run['snap_state'].tau:.0f}, "
        f"I(-3)/I(2)={ratio:.1f}, lobes={lobes}, {fig4_run['elapsed']:.0f}s",
    )


def test_criterion_5_oracle_equivalences(fig2_run):
    start = time.perf_counter()

    # derivative against the naive double loop
    params = SystemParams(gamma=0.05, epsilon=0.1, k0_rho=1.0, ell=1,
                          m_max=8, k_max=16)
    fp = fourier_coefficients(params)
    rng = np.random.default_rng(12345)
    worst_deriv = 0.0
    for _ in range(100):
        state = random_state(8, rng)
        delta = np.abs(
            derivative(state, fp) - naive_derivative(state, params, fp)
        )
        worst_deriv = max(worst_deriv, float(delta.max()))
    assert worst_deriv < 1e-12

    # Bessel expansion against direct quadrature
    worst_field = 0.0
    for _ in range(50):
        state = random_state(8, rng)
        spec = bunching(state)
        for theta in np.linspace(0.2, math.pi - 0.2, 5):
            for phi in np.linspace(0.0, 2 * math.pi, 8, endpoint=False):
                a = field_expansion(spec, 2, 2.3, float(theta), float(phi))
                b = field_quadrature(state, 2, 2.3, float(theta), float(phi))
                worst_field = max(worst_field, abs(a - b))
    assert worst_field < 1e-8

    # single-channel cascade against the closed form
    g_k, seed, k = 0.25, 1e-6, 2
    g = np.zeros(4)
    g[k] = g_k
    n0, nk = two_state_analytic(g_k, seed, 0.0)
    pops = np.zeros(6)
    pops[0], pops[k] = n0, nk
    traj = evolve_rates(
        RateState(0.0, pops, np.zeros(6)), g, np.zeros(4), 0.0,
        tau_end=130.0, controls=OdeControls(rel_tol=1e-11, abs_tol=1e-14),
        stride=0.5,
    )
    worst_rate = 0.0
    for i, tau in enumerate(traj.times):
        a0, ak = two_state_analytic(g_k, seed, float(tau))
        worst_rate = max(
            worst_rate,
            abs(traj.populations[i, 0] - a0),
            abs(traj.populations[i, k] - ak),
        )
    assert worst_rate < 1e-6

    # seeded bunching growth against the stability eigenvalue
    phi1 = np.abs(fig2_run["phi1"])
    times = fig2_run["traj"].times
    hi = int(np.argmax(phi1 >= 1e-2))
    lo = hi
    while lo > 0 and phi1[lo - 1] > 1e-4:
        lo -= 1
    slope = float(np.polyfit(times[lo : hi + 1], np.log(phi1[lo : hi + 1]), 1)[0])
    lam = spectrum(fig2_run["fp"], [1]).growth_rates[0]
    assert abs(slope - lam) <= 0.05 * lam

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        5,
        "oracle equivalences",
        f"derivative {worst_deriv:.1e}, field {worst_field:.1e}, "
        f"tanh {worst_rate:.1e}, growth {abs(slope - lam) / lam:.1%}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_conservation(fig2_run, fig3_run):
    # full dynamics norm drift across tau in [0, 1200] (covers tau = 1000)
    drift = max(
        abs(float(np.sum(np.abs(s) ** 2)) - 1.0) for s in fig2_run["traj"].states
    )
    assert fig2_run["traj"].times[-1] >= 1000.0
    assert drift < 1e-8

    # rate-model total population drift
    totals = fig3_run["traj"].populations.sum(axis=1)
    rate_drift = float(np.max(np.abs(totals - 1.0)))
    assert rate_drift < 1e-9

    # zero-lag bunching pinned to one at every sample
    phi0_err = float(np.max(np.abs(fig2_run["phi0"] - 1.0)))
    assert phi0_err < 1e-10

    # no winding, no instability
    params = SystemParams(gamma=0.3, epsilon=0.1, k0_rho=2.0, ell=0)
    fp = fourier_coefficients(params)
    rates = rate_coefficients(fp)
    assert np.max(rates) < 1e-12
    worst_growth = spectrum(fp, np.arange(1, 13)).growth_rates.max()
    assert worst_growth < 1e-14

    report(
        6,
        "conservation",
        f"norm drift {drift:.1e}, rate drift {rate_drift:.1e}, "
        f"Phi_0 error {phi0_err:.1e}, ell=0 growth {worst_growth:.1e}",
    )


def test_criterion_7_manifest_determinism(tmp_path):
    jobs = [
        ("potential", ["--preset", "fig2"]),
        ("spectrum", ["--preset", "fig1b", "--set", "spectrum.k0_rho_max=3.0"]),
        ("evolve", ["--preset", "fig2", "--set", "evolve.tau_end=20",
                    "--set", "evolve.stride=2.0"]),
        ("rate", ["--preset", "fig3", "--set", "rate.tau_end=20",
                  "--set", "rate.m_max=12"]),
    ]
    for scenario, args in jobs:
        first = tmp_path / f"{scenario}_first"
        again = tmp_path / f"{scenario}_again"
        assert main([scenario, "--out", str(first)] + args) == 0
        assert main([
            scenario, "--config", str(first / "manifest.json"), "--out", str(again)
        ]) == 0
        for artifact in sorted(first.iterdir()):
            twin = again / artifact.name
            if artifact.name == "manifest.json":
                a = json.loads(artifact.read_text())
                b = json.loads(twin.read_text())
                assert a["reproducible"] == b["reproducible"]
                assert a["manifest_hash"] == b["manifest_hash"]
            else:
                assert artifact.read_bytes() == twin.read_bytes(), artifact.name

    # radiate, fed from the evolve snapshot above
    snap = tmp_path / "evolve_first" / "snapshot.json"
    args = ["--preset", "fig2", "--set", f"radiate.state={snap}",
            "--set", "radiate.theta_count=19", "--set", "radiate.phi_count=32"]
    first = tmp_path / "radiate_first"
    again = tmp_path / "radiate_again"
    assert main(["radiate", "--out", str(first)] + args) == 0
    assert main([
        "radiate", "--config", str(first / "manifest.json"), "--out", str(again)
    ]) == 0
    for artifact in sorted(first.iterdir()):
        if artifact.name != "manifest.json":
            assert artifact.read_bytes() == (again / artifact.name).read_bytes()

    report(7, "manifest determinism", "5 scenarios re-run byte-identically")


def test_rate_model_tracks_full_dynamics_timing(fig2_run):
    """Supplementary validity cross-check: in the quantum regime the cascade
    approximation reproduces the first transition time within 15% when the
    rate seed matches the squared amplitude seed."""
    params = fig2_run["params"]
    pops = fig2_run["pops"]
    m_max = params.m_max
    t_dyn = float(
        fig2_run["traj"].times[np.nonzero(pops[:, m_max + 1] > 0.5)[0][0]]
    )

    fp = fig2_run["fp"]
    g = rate_coefficients(fp)
    alpha = dispersion_coefficients(fp)
    seed = 1e-4**2
    traj = evolve_rates(
        seeded_rate_state(10, seed), g, alpha,
        gamma_v0=params.gamma * fp.coefficient(0).real,
        tau_end=800.0, stride=1.0,
    )
    t_rate = float(traj.times[np.nonzero(traj.populations[:, 1] > 0.5)[0][0]])
    assert abs(t_rate - t_dyn) <= 0.15 * t_dyn
    print(
        f"\nSUPPLEMENT (rate vs dynamics timing): PASS  "
        f"[t_dyn={t_dyn:.0f}, t_rate={t_rate:.0f}]"
    )
