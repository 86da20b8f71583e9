"""Command-line front end: one subcommand per scenario, CSV/JSON artifacts,
and a reproducibility manifest for every run.

The manifest's "reproducible" block is a complete re-run recipe: feeding a
manifest back through --config regenerates every artifact byte-for-byte.
Wall-clock and creation time live in a separate "volatile" block that is
excluded from the manifest hash.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .config import PRESETS, RunConfig, SCENARIOS, parse_config
from .dynamics import (
    NORM_TOL,
    BunchingSpectrum,
    StateVector,
    band_edge_occupancy,
    bunching,
    bunching_series,
    default_initial_state,
    evolve,
    modes,
)
from .errors import ConfigurationError, OamringError, ToleranceError
from .numerics import OdeControls, Trajectory
from .potential import (
    FourierPotential,
    SystemParams,
    dispersion_coefficients,
    fourier_coefficients,
    pair_potential,
    rate_coefficients,
)
from .radiation import count_lobes, pattern_from_bunching
from .rate_model import evolve_rates, seeded_rate_state, two_state_analytic
from .stability import classify_regime, spectrum, spectrum_sweep

SEED_POLICY = (
    "all seeds explicit in config: evolve.seed_amplitude with "
    "evolve.seed_mode/evolve.rng_seed (random mode uses "
    "numpy.random.default_rng), rate.seed_population; no other entropy"
)


# Rows turned into Python values at a time: bounds the writer's memory, which
# would otherwise hold every value of a 46k-row pattern as a Python float.
_ROWS_PER_WRITE = 64


def _write_csv(path: Path, manifest_hash: str, header: list[str], columns) -> None:
    """Write equal-length 1-D arrays as CSV columns under ``header``.

    Values are written with ``repr``: floats round-trip exactly and integer
    columns stay integers.  A non-finite value raises ToleranceError before
    the file is opened, so no partial CSV is left behind.
    """
    for name, column in zip(header, columns, strict=True):
        if not np.isfinite(column).all():
            raise ToleranceError(
                f"non-finite value reached output column {name} of {path.name}"
            )
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# manifest: {manifest_hash}\n")
        handle.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _ROWS_PER_WRITE):
            stop = start + _ROWS_PER_WRITE
            rows = zip(*(column[start:stop].tolist() for column in columns), strict=True)
            handle.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _write_json(path: Path, payload: dict) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _manifest_hash(config: RunConfig) -> str:
    recipe = {
        "scenario": config.scenario,
        "tool_version": __version__,
        "config": config.resolved,
    }
    canon = json.dumps(recipe, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _controls(options: dict) -> OdeControls:
    return OdeControls(**{f.name: options[f.name] for f in fields(OdeControls)})


def _g_table(fp: FourierPotential, limit: int = 12) -> dict:
    g = rate_coefficients(fp)
    top = min(limit, fp.k_max)
    dominant = int(np.argmax(g[1:])) + 1 if fp.k_max >= 1 else 0
    return {
        "g_k": {str(k): float(g[k]) for k in range(1, top + 1)},
        "dominant_k": dominant,
        "g_dominant": float(g[dominant]),
    }


def _lambda_summary(fp: FourierPotential, limit: int = 12) -> dict:
    ms = np.arange(1, min(limit, fp.k_max) + 1)
    spec = spectrum(fp, ms)
    imax = int(np.argmax(spec.growth_rates))
    m_star = int(spec.modes[imax])
    return {
        "growth_rates": {
            str(int(m)): float(r) for m, r in zip(spec.modes, spec.growth_rates)
        },
        "argmax_m": m_star,
        "max_rate": float(spec.growth_rates[imax]),
        "regime": classify_regime(m_star, fp.params.gamma, fp.coefficient(m_star)),
        "regime_thresholds": "classical if gamma|V_m| > 10 m^2, quantum if < 0.1 m^2",
    }


def _run_potential(config: RunConfig, out: Path, mhash: str) -> tuple[dict, dict]:
    params = config.params
    count = config.options["samples"]
    if count < 1:
        raise ConfigurationError(f"potential.samples={count} must be >= 1")
    fp = fourier_coefficients(params)
    g = rate_coefficients(fp)
    alpha = dispersion_coefficients(fp)

    phis = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    values = pair_potential(phis, params)
    _write_csv(out / "samples.csv", mhash, ["phi", "V"], [phis, values])

    v = fp.coefficients[fp.k_max :]
    _write_csv(
        out / "coefficients.csv",
        mhash,
        ["k", "re_Vk", "im_Vk", "g_k", "alpha_k"],
        [np.arange(fp.k_max + 1), v.real, v.imag, g, alpha],
    )
    return _g_table(fp), {}


def _run_spectrum(config: RunConfig, out: Path, mhash: str) -> tuple[dict, dict]:
    opts = config.options
    step = opts["k0_rho_step"]
    if not step > 0:
        raise ConfigurationError("spectrum.k0_rho_step must be positive")
    grid = np.arange(opts["k0_rho_min"], opts["k0_rho_max"] + 0.5 * step, step)
    sweep = spectrum_sweep(config.params, grid, (opts["m_lo"], opts["m_hi"]))

    header = ["k0_rho"] + [f"m_{int(m)}" for m in sweep.modes]
    _write_csv(
        out / "growth_rates.csv", mhash, header, [sweep.k0_rho_grid, *sweep.rates.T]
    )
    summary = {
        "manifest_hash": mhash,
        "rows": [
            {
                "k0_rho": float(kr),
                "argmax_m": int(sweep.argmax_m[i]),
                "max_rate": float(sweep.max_rate[i]),
            }
            for i, kr in enumerate(sweep.k0_rho_grid)
        ],
    }
    _write_json(out / "summary.json", summary)
    derived = {
        "argmax_by_radius": {
            repr(float(kr)): int(sweep.argmax_m[i])
            for i, kr in enumerate(sweep.k0_rho_grid)
        }
    }
    return derived, {}


def _timeseries(
    traj: Trajectory, phi_band: int, snapshot_k: int | None
) -> tuple[np.ndarray, float, float, int]:
    """The timeseries.csv rows of a lab-frame trajectory (tau, norm error,
    N_m, Re and Im of Phi_0..Phi_phi_band, <omega>), its largest norm drift
    and band-edge occupancy, and the index of the sample with the largest
    |Phi_snapshot_k| (the last sample when snapshot_k is None)."""
    states = traj.states
    band = modes((states.shape[1] - 1) // 2)
    pops = np.abs(states) ** 2
    drift = np.abs(pops.sum(axis=1) - 1.0)
    phis = bunching_series(states, max(phi_band, snapshot_k or 0))
    table = np.column_stack(
        [
            traj.times,
            drift,
            pops,
            phis[:, : phi_band + 1].real,
            phis[:, : phi_band + 1].imag,
            (band * pops).sum(axis=1),
        ]
    )
    if snapshot_k is None:
        snap_index = len(traj.times) - 1
    else:
        snap_index = int(np.argmax(np.abs(phis[:, snapshot_k])))
    edge_max = float(band_edge_occupancy(states).max())
    return table, float(drift.max()), edge_max, snap_index


def _run_evolve(config: RunConfig, out: Path, mhash: str) -> tuple[dict, dict]:
    params = config.params
    opts = config.options
    # |Phi_0| is the norm, equal at every sample up to rounding, so a lag of
    # 0 would pick the snapshot by noise.
    if opts["snapshot"] == "max_bunching" and not (
        1 <= opts["snapshot_k"] <= 2 * params.m_max
    ):
        raise ConfigurationError(
            f"evolve.snapshot_k={opts['snapshot_k']} outside the bunching lags "
            f"1..{2 * params.m_max}"
        )
    if opts["phi_band"] < 0:
        raise ConfigurationError(f"evolve.phi_band={opts['phi_band']} must be >= 0")
    fp = fourier_coefficients(params)
    state0 = default_initial_state(
        params,
        seed_amplitude=opts["seed_amplitude"],
        mode=opts["seed_mode"],
        rng_seed=opts["rng_seed"],
    )
    traj = evolve(
        state0,
        fp,
        tau_end=opts["tau_end"],
        controls=_controls(opts),
        stride=opts["stride"],
    )

    band = modes(params.m_max)
    phi_band = min(opts["phi_band"], 2 * params.m_max)
    header = (
        ["tau", "norm_error"]
        + [f"N_{int(m)}" for m in band]
        + [f"re_phi_{k}" for k in range(phi_band + 1)]
        + [f"im_phi_{k}" for k in range(phi_band + 1)]
        + ["mean_omega"]
    )
    snapshot_k = opts["snapshot_k"] if opts["snapshot"] == "max_bunching" else None
    table, drift_max, edge_max, snap_index = _timeseries(traj, phi_band, snapshot_k)
    _write_csv(out / "timeseries.csv", mhash, header, table.T)

    snap_tau = float(traj.times[snap_index])
    snap_amps = traj.states[snap_index]
    _write_json(
        out / "snapshot.json",
        {
            "manifest_hash": mhash,
            "tau": snap_tau,
            "m_max": params.m_max,
            "params": asdict(params),
            "re": snap_amps.real.tolist(),
            "im": snap_amps.imag.tolist(),
        },
    )
    derived = {
        **_g_table(fp),
        "lambda": _lambda_summary(fp),
        "snapshot_tau": snap_tau,
    }
    diagnostics = {"max_norm_drift": drift_max, "max_band_edge": edge_max}
    return derived, diagnostics


def _run_rate(config: RunConfig, out: Path, mhash: str) -> tuple[dict, dict]:
    params = config.params
    opts = config.options
    fp = fourier_coefficients(params)
    g = rate_coefficients(fp)
    alpha = dispersion_coefficients(fp)
    gamma_v0 = params.gamma * fp.coefficient(0).real

    channel = opts["channel"]
    if channel:
        if not 1 <= channel <= fp.k_max:
            raise ConfigurationError(
                f"rate.channel={channel} outside 1..{fp.k_max}"
            )
        single = np.zeros_like(g)
        single[channel] = g[channel]
        g = single

    m_top = opts["m_max"] if opts["m_max"] is not None else params.m_max
    initial = seeded_rate_state(m_top, opts["seed_population"])
    traj = evolve_rates(
        initial,
        g,
        alpha,
        gamma_v0,
        tau_end=opts["tau_end"],
        controls=_controls(opts),
        stride=opts["stride"],
    )

    active = np.nonzero(g[1:])[0] + 1
    overlay = active[0] if active.size == 1 else None
    header = (
        ["tau"]
        + [f"N_{m}" for m in range(m_top + 1)]
        + [f"phi_{m}" for m in range(m_top + 1)]
    )
    columns = [traj.times, *traj.populations.T, *traj.phases.T]
    if overlay is not None:
        header += ["N0_analytic", "Nk_analytic"]
        analytic = [
            two_state_analytic(float(g[overlay]), opts["seed_population"], tau)
            for tau in traj.times.tolist()
        ]
        columns += list(np.array(analytic).T)
    _write_csv(out / "rates.csv", mhash, header, columns)

    totals = traj.populations.sum(axis=1)
    derived = {**_g_table(fp), "gamma_v0": float(gamma_v0)}
    if overlay is not None:
        derived["single_channel_k"] = int(overlay)
    diagnostics = {
        "max_population_drift": float(np.max(np.abs(totals - 1.0))),
        "final_mean_m": float(
            np.sum(np.arange(m_top + 1) * traj.populations[-1])
        ),
    }
    return derived, diagnostics


def _json_int(payload: dict, key: str) -> int:
    value = payload[key]
    if type(value) is not int:  # 2.5 would truncate; true would read as 1
        raise TypeError(f"{key}={value!r} is not a JSON integer")
    return value


def _json_real(value, key: str) -> float:
    if type(value) not in (int, float):  # true would read as 1.0
        raise TypeError(f"{key} entry {value!r} is not a JSON number")
    return float(value)


# A malformed input file: what json, the key lookups and the conversions raise.
_BAD_JSON = (
    OSError, json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError
)


def _load_snapshot(path: Path, params: SystemParams) -> StateVector:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        real = np.array([_json_real(v, "re") for v in payload["re"]])
        imag = np.array([_json_real(v, "im") for v in payload["im"]])
        m_max = _json_int(payload, "m_max")
        tau = _json_real(payload.get("tau", 0.0), "tau")
    except _BAD_JSON as exc:
        raise ConfigurationError(f"cannot read state snapshot {path}: {exc}") from exc
    if not real.shape == imag.shape == (2 * m_max + 1,):
        raise ConfigurationError(f"snapshot {path} has inconsistent band")
    if not np.isfinite([real, imag]).all():
        raise ConfigurationError(f"snapshot {path} has non-finite amplitudes")
    if m_max != params.m_max:
        raise ConfigurationError(
            f"snapshot band m_max={m_max} does not match params.m_max="
            f"{params.m_max}"
        )
    amps = real + 1j * imag
    # The far-field tail bound assumes a normalized state (|Phi_m| <= 1).
    drift = abs(float((np.abs(amps) ** 2).sum()) - 1.0)
    if drift > NORM_TOL:
        raise ConfigurationError(
            f"snapshot {path} norm is off by {drift:.3e}, past {NORM_TOL:.0e}"
        )
    return StateVector(tau=tau, amplitudes=amps)


def _load_phi_list(path: Path) -> BunchingSpectrum:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        band = _json_int(payload, "band")
        pairs = payload["coefficients"]
        coeff = np.array(
            [complex(_json_real(re, "re"), _json_real(im, "im")) for re, im in pairs]
        )
    except _BAD_JSON as exc:
        raise ConfigurationError(f"cannot read phi list {path}: {exc}") from exc
    if coeff.size != 2 * band + 1:
        raise ConfigurationError(
            f"phi list {path}: need 2*band+1 coefficients for band={band}"
        )
    if not np.isfinite(coeff).all():
        raise ConfigurationError(f"phi list {path} has non-finite coefficients")
    # Bunching of a normalized state; the far-field tail bound relies on it.
    top = float(np.abs(coeff).max())
    if top > 1.0 + NORM_TOL:
        raise ConfigurationError(
            f"phi list {path} has |Phi_m| = {top:.6g} > 1 + {NORM_TOL:.0e}"
        )
    return BunchingSpectrum(coefficients=coeff, band=band)


def _run_radiate(config: RunConfig, out: Path, mhash: str) -> tuple[dict, dict]:
    params = config.params
    opts = config.options
    if bool(opts["state"]) == bool(opts["phi_json"]):
        raise ConfigurationError(
            "radiate needs exactly one input: radiate.state or radiate.phi_json"
        )
    if opts["component_band"] < 0:
        raise ConfigurationError(
            f"radiate.component_band={opts['component_band']} must be >= 0"
        )
    if opts["state"]:
        state = _load_snapshot(Path(opts["state"]), params)
        bunch = bunching(state)
    else:
        bunch = _load_phi_list(Path(opts["phi_json"]))

    m_band = opts["m_band"] if opts["m_band"] is not None else bunch.band
    pattern = pattern_from_bunching(
        bunch,
        params,
        theta_count=opts["theta_count"],
        phi_count=opts["phi_count"],
        m_band=m_band,
    )

    thetas, phis = np.meshgrid(pattern.theta_grid, pattern.phi_grid, indexing="ij")
    field = pattern.field.ravel()
    intensity = pattern.intensity
    _write_csv(
        out / "pattern.csv",
        mhash,
        ["theta", "phi", "re_M", "im_M", "intensity"],
        [thetas.ravel(), phis.ravel(), field.real, field.imag, intensity.ravel()],
    )

    comp_band = min(opts["component_band"], m_band)
    comp_modes = pattern.component_modes
    keep = np.abs(comp_modes) <= comp_band
    header = ["theta", "total"] + [
        f"I_ellp_{params.ell + int(m)}" for m in comp_modes[keep]
    ]
    _write_csv(
        out / "avg_intensity.csv",
        mhash,
        header,
        [pattern.theta_grid, pattern.avg_intensity, *pattern.components[:, keep].T],
    )

    tail = float(pattern.tail_bound)
    tail_out = tail if np.isfinite(tail) else None
    i_eq = int(np.argmin(np.abs(pattern.theta_grid - np.pi / 2)))
    eq_weights = {
        str(params.ell + int(m)): float(w)
        for m, w in zip(comp_modes, pattern.components[i_eq])
        if abs(int(m)) <= comp_band
    }
    lobes = count_lobes(intensity[i_eq])
    dominant = max(eq_weights, key=eq_weights.get)
    summary = {
        "manifest_hash": mhash,
        "theta_equator": float(pattern.theta_grid[i_eq]),
        "equator_components": eq_weights,
        "dominant_ell_prime": int(dominant),
        "equator_lobes": lobes,
        "tail_bound": tail_out,
    }
    _write_json(out / "components.json", summary)
    derived = {
        "dominant_ell_prime": int(dominant),
        "equator_lobes": lobes,
    }
    return derived, {"tail_bound": tail_out}


_RUNNERS = {
    "potential": _run_potential,
    "spectrum": _run_spectrum,
    "evolve": _run_evolve,
    "rate": _run_rate,
    "radiate": _run_radiate,
}


def run_scenario(config: RunConfig) -> dict:
    """Execute one scenario: write its artifacts plus manifest.json.

    Returns the manifest payload.  Artifact bytes are a pure function of the
    resolved configuration, so re-running from an emitted manifest reproduces
    them exactly.
    """
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    mhash = _manifest_hash(config)
    started = time.perf_counter()
    derived, diagnostics = _RUNNERS[config.scenario](config, out, mhash)
    wall = time.perf_counter() - started
    manifest = {
        "manifest_hash": mhash,
        "reproducible": {
            "schema_version": 1,
            "tool": "oamring",
            "tool_version": __version__,
            "scenario": config.scenario,
            "preset": config.preset,
            "overridden_preset_keys": list(config.overridden_preset_keys),
            "config": config.resolved,
            "seed_policy": SEED_POLICY,
            "derived": derived,
            "diagnostics": diagnostics,
        },
        "volatile": {
            "wall_clock_s": round(wall, 3),
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
    }
    _write_json(out / "manifest.json", manifest)
    return manifest


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oamring",
        description=(
            "Superradiant OAM transfer in a ring trap: pair-potential spectra, "
            "stability maps, coupled-mode dynamics, rate cascades, and "
            "far-field radiation patterns."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="scenario", required=True)
    help_lines = {
        "potential": "dump V(phi), V_k, g_k, alpha_k tables",
        "spectrum": "growth-rate map over ring radius and mode number",
        "evolve": "integrate the full coupled-mode dynamics",
        "rate": "integrate the superradiant-cascade rate equations",
        "radiate": "far-field pattern and OAM decomposition of a state",
    }
    for name in SCENARIOS:
        cmd = sub.add_parser(name, help=help_lines[name])
        cmd.add_argument("--config", metavar="PATH", default=None,
                         help="key=value config file, or a manifest.json to re-run")
        cmd.add_argument("--preset", choices=sorted(PRESETS), default=None)
        cmd.add_argument("--out", metavar="DIR", default="oamring_out")
        cmd.add_argument("--set", metavar="SECTION.KEY=VALUE", action="append",
                         dest="overrides", default=[])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(
            scenario=args.scenario,
            config_path=args.config,
            preset=args.preset,
            overrides=args.overrides,
            output_dir=args.out,
        )
        manifest = run_scenario(config)
    except OamringError as exc:
        record = {
            "error": type(exc).__name__,
            "message": str(exc),
            "exit_code": exc.exit_code,
        }
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return exc.exit_code
    print(f"{args.scenario}: wrote {config.output_dir}  "
          f"[manifest {manifest['manifest_hash'][:12]}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
