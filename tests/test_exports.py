"""Every exported name resolves, so a deleted definition cannot leave a stale
entry that breaks ``from oamring.<module> import *``; and every name the
benchmark's tracer rebinds is still called through its module binding."""

import importlib
import pkgutil

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
        "spectrum": ["--preset", "fig1b", "--set", "spectrum.k0_rho_max=0.5"],
        "evolve": ["--preset", "fig2", "--set", "evolve.tau_end=2"],
        "rate": ["--preset", "fig3", "--set", "rate.tau_end=1"],
        "radiate": ["--preset", "fig2", "--set", f"radiate.state={snapshot}",
                    "--set", "radiate.theta_count=5", "--set", "radiate.phi_count=8"],
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
