"""Every exported name resolves, so a deleted definition cannot leave a stale
entry that breaks ``from oamring.<module> import *``; every name the
benchmark's tracer rebinds is still called through its module binding; and
every run still writes the columns and keys the benchmark's checks read."""

import importlib
import json
import pkgutil

import numpy as np
import pytest

import oamring

MODULES = sorted(info.name for info in pkgutil.iter_modules(oamring.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"oamring.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if getattr(module, n, None) is None] == []


def test_package_exports_resolve_once():
    assert [n for n in oamring.__all__ if getattr(oamring, n, None) is None] == []
    assert len(set(oamring.__all__)) == len(oamring.__all__)


# Names the benchmark's tracer (perfbench/spans.py) rebinds, by the module
# that binds them: a run must call each through that module attribute.  The
# integrators' rhs must be their first positional argument.
TRACED = {
    "oamring.cli": ("run_scenario", "fourier_coefficients", "spectrum_sweep", "evolve",
                    "evolve_rates", "pattern_from_bunching"),
    "oamring.stability": ("fourier_coefficients",),
    "oamring.dynamics": ("integrate_ode",),
    "oamring.rate_model": ("integrate_ode",),
}


def test_runs_call_through_the_traced_bindings(tmp_path, monkeypatch):
    from oamring import cli

    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, args, kwargs))
            return fn(*args, **kwargs)

        return wrapper

    for module_name, attrs in TRACED.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            monkeypatch.setattr(module, attr, spy(f"{module_name}.{attr}", getattr(module, attr)))
    monkeypatch.setattr(cli, "parse_config", spy("parse_config", cli.parse_config))

    snapshot = tmp_path / "evolve" / "snapshot.json"
    runs = {
        "potential": ["--preset", "fig2"],
        "spectrum": ["--preset", "fig1b"],
        "evolve": ["--preset", "fig2", "--set", "evolve.tau_end=2"],
        "rate": ["--preset", "fig3", "--set", "rate.tau_end=1"],
        "radiate": ["--preset", "fig2", "--set", f"radiate.state={snapshot}"],
    }
    for scenario, args in runs.items():
        assert cli.main([scenario, *args, "--out", str(tmp_path / scenario)]) == 0

    parses = [args for name, args, _ in calls if name == "parse_config"]
    assert parses == [()] * len(runs)  # wrapped as timed_parse(**kwargs)
    traced = {f"{module}.{attr}" for module, attrs in TRACED.items() for attr in attrs}
    assert {name for name, _, _ in calls} == traced | {"parse_config"}
    for name, args, _ in calls:
        if name.endswith("integrate_ode"):
            assert args and callable(args[0]), name


# What the benchmark's output checks (perfbench/workloads.py and run.py) read
# back from each run, kept here so that a library change breaking one fails a
# test rather than only lowering the benchmark's ok_ratio.
BENCHMARK_COLUMNS = {
    "evolve": ("timeseries.csv", ("N_1", "N_2", "mean_omega", "re_phi_1", "im_phi_1")),
    "rate": ("rates.csv", ("N_0", "N_5", "N_6")),
}


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# manifest: ")
    header = lines[1].split(",")
    return header, np.array([[float(x) for x in line.split(",")] for line in lines[2:]])


def fig4_snapshot(path, rng) -> np.ndarray:
    """Write a snapshot shaped like the benchmark's radiate inputs to path and
    return its amplitudes: c_0 and c_5 of the fig4 band macroscopic, about
    1e-3 of seeded noise in every other mode, a tau and no "params"."""
    from oamring.config import parse_config

    m_max = parse_config("radiate", preset="fig4").params.m_max
    amps = 1e-3 * (rng.normal(size=2 * m_max + 1) + 1j * rng.normal(size=2 * m_max + 1))
    amps[[m_max, m_max + 5]] = np.sqrt([0.55, 0.45]) * np.exp(2j * np.pi * rng.uniform(size=2))
    amps /= np.linalg.norm(amps)
    snapshot = {"tau": 3.5, "m_max": m_max, "re": amps.real.tolist(), "im": amps.imag.tolist()}
    path.write_text(json.dumps(snapshot), encoding="utf-8")
    return amps


def test_runs_write_what_the_benchmark_reads(tmp_path):
    from oamring import cli
    from oamring.config import parse_config
    from oamring.dynamics import StateVector
    from oamring.radiation import field_quadrature

    fig4 = parse_config("radiate", preset="fig4").params
    rng = np.random.default_rng(7)
    state_path = tmp_path / "snapshot.json"
    amps = fig4_snapshot(state_path, rng)
    runs = {
        "spectrum": ["--preset", "fig1b"],
        "evolve": ["--preset", "fig2", "--set", "evolve.tau_end=2"],
        "rate": ["--preset", "fig3", "--set", "rate.tau_end=1"],
        "radiate": ["--preset", "fig4", "--set", f"radiate.state={state_path}"],
    }
    out = {scenario: tmp_path / scenario for scenario in runs}
    for scenario, args in runs.items():
        assert cli.main([scenario, *args, "--out", str(out[scenario])]) == 0
        manifest = json.loads((out[scenario] / "manifest.json").read_text(encoding="utf-8"))
        assert isinstance(manifest["reproducible"]["diagnostics"], dict)

    for scenario, (name, columns) in BENCHMARK_COLUMNS.items():
        header, _ = read_csv(out[scenario] / name)
        assert set(columns) <= set(header), (name, header)

    rows = json.loads((out["spectrum"] / "summary.json").read_text(encoding="utf-8"))["rows"]
    assert [row["k0_rho"] for row in rows] == [0.25 * i for i in range(1, 33)]
    assert all(isinstance(row["argmax_m"], int) for row in rows)

    # The verdict the benchmark's radiate check needs, and seeded rows of the
    # 91 x 77 pattern (77 = 2 band + 1 phi columns) against the quadrature
    # oracle.
    components = json.loads((out["radiate"] / "components.json").read_text(encoding="utf-8"))
    assert (components["equator_lobes"], components["dominant_ell_prime"]) == (5, -3)
    header, data = read_csv(out["radiate"] / "pattern.csv")
    assert header[:4] == ["theta", "phi", "re_M", "im_M"]
    assert data.shape == (91 * 77, len(header))
    state = StateVector(tau=3.5, amplitudes=amps)
    for theta, phi, re_m, im_m in data[rng.choice(len(data), 20, replace=False), :4]:
        oracle = field_quadrature(state, fig4.ell, fig4.k0_rho, theta, phi)
        assert abs(complex(re_m, im_m) - oracle) <= 1e-8


def test_derived_keys_agree_with_their_one_source(tmp_path):
    # summary.json and components.json name the argmax of a CSV row, and that
    # row is the one home of the values it is taken over.
    from oamring import cli

    state = tmp_path / "snapshot.json"
    fig4_snapshot(state, np.random.default_rng(11))
    runs = {
        "spectrum": ["--preset", "fig1b"],
        "radiate": ["--preset", "fig4", "--set", f"radiate.state={state}"],
    }
    for scenario, args in runs.items():
        assert cli.main([scenario, *args, "--out", str(tmp_path / scenario)]) == 0

    header, data = read_csv(tmp_path / "spectrum" / "growth_rates.csv")
    summary = json.loads((tmp_path / "spectrum" / "summary.json").read_text(encoding="utf-8"))
    assert len(summary["rows"]) == len(data) == 32
    for row, rates in zip(summary["rows"], data):
        assert set(row) == {"k0_rho", "argmax_m"} and row["k0_rho"] == rates[0]
        assert f"m_{row['argmax_m']}" == header[1 + np.argmax(rates[1:])]

    header, data = read_csv(tmp_path / "radiate" / "avg_intensity.csv")
    components = json.loads((tmp_path / "radiate" / "components.json").read_text(encoding="utf-8"))
    equator = data[np.argmin(np.abs(data[:, 0] - np.pi / 2))]
    assert header[:2] == ["theta", "total"]
    assert f"I_ellp_{components['dominant_ell_prime']}" == header[2 + np.argmax(equator[2:])]
    assert set(components) == {"dominant_ell_prime", "equator_lobes", "manifest_hash"}


def test_pattern_csv_alone_fixes_the_field(tmp_path):
    # Each theta row of pattern.csv holds 2 band + 1 equally spaced samples
    # of the sum over the channels ell' = ell - band .. ell + band, so one
    # DFT of the row gives the channel amplitudes and M at any phi; ell is
    # the manifest's params.ell.
    from oamring import cli
    from oamring.dynamics import StateVector
    from oamring.radiation import PHI_GRID, count_lobes, field_quadrature

    rng = np.random.default_rng(37)
    state_path = tmp_path / "snapshot.json"
    amps = fig4_snapshot(state_path, rng)
    out = tmp_path / "radiate"
    assert cli.main(["radiate", "--preset", "fig4", "--set", f"radiate.state={state_path}",
                     "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    config = manifest["reproducible"]["config"]
    ell, k0_rho = config["params.ell"], config["params.k0_rho"]

    _, data = read_csv(out / "pattern.csv")
    size = np.unique(data[:, 1]).size
    band = (size - 1) // 2
    assert size == 2 * band + 1 == 2 * 2 * config["params.m_max"] + 1
    rows = data.reshape(91, size, 4)
    ell_prime = ell + np.arange(-band, band + 1)

    def rebuild(row, phi):
        samples = row[:, 2] + 1j * row[:, 3]
        channel = np.exp(-1j * np.outer(ell_prime, row[:, 1])) @ samples / size
        return channel @ np.exp(1j * np.outer(ell_prime, phi))

    state = StateVector(tau=3.5, amplitudes=amps)
    for i in rng.choice(91, 10, replace=False).tolist():
        theta = rows[i, 0, 0]
        for phi, got in zip((0.123, np.pi / 7), rebuild(rows[i], np.array([0.123, np.pi / 7]))):
            assert abs(got - field_quadrature(state, ell, k0_rho, theta, phi)) <= 1e-12

    components = json.loads((out / "components.json").read_text(encoding="utf-8"))
    equator = rebuild(rows[90], PHI_GRID)
    assert rows[90, 0, 0] == np.pi / 2
    assert count_lobes(np.abs(equator) ** 2) == components["equator_lobes"] == 5
