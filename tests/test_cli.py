"""CLI and configuration tests: precedence, validation, artifacts, manifest
reproducibility, and exit codes."""

import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oamring
from oamring.cli import (
    _VALUES_PER_WRITE,
    _csv_lines,
    _pow10,
    _shortest,
    _timeseries,
    _write_artifacts,
    main,
)
from oamring.config import _SCHEMA, COMPONENT_BAND, PRESETS, parse_config
from oamring.dynamics import default_initial_state, evolve, modes, observables
from oamring.errors import ConfigurationError, ToleranceError
from oamring.numerics import OdeControls
from oamring.potential import fourier_coefficients
from oamring.radiation import count_lobes
from oamring.rate_model import evolve_rates, two_state_analytic

from test_dynamics import naive_bunching
from test_golden import artifact_hash

QUICK_EVOLVE = [
    "--set", "evolve.tau_end=20",
    "--set", "evolve.stride=2.0",
]

# Former keys, each at the value it was fixed at when it left the schema.
RETIRED_KEYS = {
    "potential.samples": 512, "radiate.component_band": 8,
    "radiate.phi_json": "", "radiate.theta_count": 181, "radiate.phi_count": 256,
    "evolve.initial_step": 0.0001, "evolve.max_step": 10.0,
    "rate.rel_tol": 1e-09, "rate.abs_tol": 1e-12,
    "rate.initial_step": 0.0001, "rate.max_step": 10.0,
    "spectrum.k0_rho_min": 0.25, "spectrum.k0_rho_max": 8.0, "spectrum.k0_rho_step": 0.25,
    "spectrum.m_lo": 1, "spectrum.m_hi": 12, "evolve.phi_band": 8,
}

# A unit amplitude at m = 0 for the default band, m_max = 14.
SNAPSHOT = {"m_max": 14, "re": [0.0] * 14 + [1.0] + [0.0] * 14, "im": [0.0] * 29}


def write_snapshot(path: Path, payload: dict = SNAPSHOT) -> Path:
    path.write_text(json.dumps(payload))
    return path


def read_manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


# Address space of a capped CLI child: room for the interpreter and numpy, while
# an allocation sized by an unchecked input fails there instead of exhausting
# the host.
ADDRESS_CAP = 2 << 30
CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]), int(sys.argv[1])))
from oamring.cli import main
sys.exit(main(sys.argv[2:]))
"""


def run_capped(args: list[str]) -> tuple[int, str]:
    """Run the CLI in a child process under ADDRESS_CAP and return its exit
    code and stderr.  One BLAS thread keeps numpy's import under the cap on
    hosts with many cores."""
    src = str(Path(oamring.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    child = subprocess.run(
        [sys.executable, "-c", CAPPED_MAIN, str(ADDRESS_CAP), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    return child.returncode, child.stderr


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if not np.isfinite(value):
        raise ToleranceError("non-finite value reached an output column")
    return repr(value)


def reference_write_csv(path: Path, manifest_hash: str, header: list[str], rows):
    """The row-wise CSV writer, with _fmt on every value: the byte reference
    for the column writer."""
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# manifest: {manifest_hash}\n")
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


# Small value pools for drawn CSV tables, so values repeat within and across
# blocks.  The int pool holds the float pool's bit patterns.
FLOAT_POOL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.1 + 0.2, 0.25, 1e16,
                       -1e308, 2.0**53 + 2.0])
INT_POOL = np.concatenate([[0, 3, -7, 2**53 + 1, -(2**62)], FLOAT_POOL.view(np.int64)])


class TestParseConfig:
    def test_fig2_preset_fixes_parameters(self):
        cfg = parse_config("evolve", preset="fig2")
        assert cfg.params.gamma == 0.05
        assert cfg.params.k0_rho == 1.0
        assert cfg.params.ell == 1
        assert cfg.params.epsilon == 0.1

    def test_presets_cover_reference_scenarios(self):
        assert PRESETS["fig1b"]["params.gamma"] == "0.2"
        assert PRESETS["fig3"]["params.k0_rho"] == "5.605"
        assert PRESETS["fig4"]["params.gamma"] == "0.2"
        fig4 = parse_config("evolve", preset="fig4")
        assert fig4.params.k0_rho == 5.0 and fig4.params.ell == 2

    def test_preset_override_is_honored_and_flagged(self):
        cfg = parse_config(
            "evolve", preset="fig2", overrides=["params.epsilon=0.2"]
        )
        assert cfg.params.epsilon == 0.2
        assert "params.epsilon" in cfg.overridden_preset_keys

    def test_precedence_chain(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("[params]\ngamma = 0.3\nk0_rho = 2.0\n")
        cfg = parse_config(
            "evolve",
            config_path=conf,
            preset="fig2",
            overrides=["params.gamma=0.4"],
        )
        assert cfg.params.gamma == 0.4  # cli beats config file
        assert cfg.params.k0_rho == 2.0  # config file beats preset
        assert cfg.params.ell == 1  # preset beats defaults

    def test_negative_gamma_rejected(self):
        with pytest.raises(ConfigurationError) as info:
            parse_config("evolve", overrides=["params.gamma=-1"])
        assert "gamma" in str(info.value)

    def test_unknown_key_rejected_with_name(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("[params]\ngamm = 0.3\n")
        with pytest.raises(ConfigurationError) as info:
            parse_config("evolve", config_path=conf)
        assert "gamm" in str(info.value)
        with pytest.raises(ConfigurationError):
            parse_config("evolve", overrides=["nosuch.key=1"])
        with pytest.raises(ConfigurationError):
            parse_config("evolve", overrides=["params.bogus=1"])

    def test_empty_unknown_section_rejected(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("[nosuch]\n")
        with pytest.raises(ConfigurationError) as info:
            parse_config("evolve", config_path=conf)
        assert "nosuch" in str(info.value)

    # The INI file sets a fig2 key (gamma) and a key of no preset (rng_seed).
    # The manifest names fig4 but holds two keys, so its run takes the rest
    # from the defaults, and every default that is not fig4's is overridden;
    # the list it records is not read.
    PROVENANCE_INI = "[params]\ngamma = 0.07\n\n[evolve]\nrng_seed = 6\n"
    PROVENANCE_MANIFEST = {
        "reproducible": {
            "tool_version": oamring.__version__,
            "config": {"params.epsilon": 0.2, "params.gamma": 0.2},
            "preset": "fig4",
            "overridden_preset_keys": ["params.epsilon"],
        }
    }
    MANIFEST_OVERRIDES = ("evolve.snapshot", "evolve.snapshot_k", "evolve.tau_end",
                          "params.ell", "params.epsilon", "params.k0_rho")

    @pytest.mark.parametrize(
        "preset, source, override, want_preset, want_keys",
        [
            (None, None, None, None, ()),
            (None, None, "params.k0_rho=1.5", None, ()),
            (None, None, "evolve.rng_seed=5", None, ()),
            (None, "ini", None, None, ()),
            (None, "ini", "params.k0_rho=1.5", None, ()),
            (None, "ini", "evolve.rng_seed=5", None, ()),
            (None, "manifest", None, "fig4", MANIFEST_OVERRIDES),
            (None, "manifest", "params.k0_rho=1.5", "fig4", MANIFEST_OVERRIDES),
            (None, "manifest", "evolve.rng_seed=5", "fig4", MANIFEST_OVERRIDES),
            ("fig2", None, None, "fig2", ()),
            ("fig2", None, "params.k0_rho=1.5", "fig2", ("params.k0_rho",)),
            ("fig2", None, "evolve.rng_seed=5", "fig2", ()),
            ("fig2", "ini", None, "fig2", ("params.gamma",)),
            ("fig2", "ini", "params.k0_rho=1.5", "fig2",
             ("params.gamma", "params.k0_rho")),
            ("fig2", "ini", "evolve.rng_seed=5", "fig2", ("params.gamma",)),
            ("fig2", "manifest", None, "fig2", ("params.epsilon", "params.gamma")),
            ("fig2", "manifest", "params.k0_rho=1.5", "fig2",
             ("params.epsilon", "params.gamma", "params.k0_rho")),
            ("fig2", "manifest", "evolve.rng_seed=5", "fig2",
             ("params.epsilon", "params.gamma")),
            ("fig2", None, "params.gamma=0.05", "fig2", ()),  # restates fig2
        ],
    )
    def test_preset_provenance_table(
        self, tmp_path, preset, source, override, want_preset, want_keys
    ):
        path = None
        if source == "ini":
            path = tmp_path / "run.conf"
            path.write_text(self.PROVENANCE_INI)
        elif source == "manifest":
            path = tmp_path / "manifest.json"
            path.write_text(json.dumps(self.PROVENANCE_MANIFEST))
        cfg = parse_config(
            "evolve", config_path=path, preset=preset,
            overrides=[override] if override else None,
        )
        assert cfg.preset == want_preset
        assert cfg.overridden_preset_keys == want_keys

    def test_type_mismatch_rejected_with_name(self):
        with pytest.raises(ConfigurationError) as info:
            parse_config("evolve", overrides=["params.ell=1.5"])
        assert "params.ell" in str(info.value)

    def test_large_integer_is_exact(self):
        seed = 2**53 + 1  # the first integer a float cannot hold
        cfg = parse_config("evolve", overrides=[f"evolve.rng_seed={seed}"])
        assert cfg.options["rng_seed"] == seed
        for raw, want in (("3.0", 3), ("1e3", 1000), ("-7", -7)):
            cfg = parse_config("evolve", overrides=[f"evolve.rng_seed={raw}"])
            assert cfg.options["rng_seed"] == want
        for raw in ("9.007199254740993e15", "1e300", "nan"):
            with pytest.raises(ConfigurationError) as info:
                parse_config("evolve", overrides=[f"evolve.rng_seed={raw}"])
            assert "evolve.rng_seed" in str(info.value)

    def test_step_controls_default_to_the_integrators(self, tmp_path, monkeypatch):
        want = {"rel_tol": 1e-9, "abs_tol": 1e-12, "max_step": 10.0, "initial_step": 1e-4}
        assert asdict(OdeControls()) == want
        resolved = parse_config("evolve").resolved
        assert (resolved["evolve.rel_tol"], resolved["evolve.abs_tol"]) == (1e-9, 1e-12)
        used = []

        def spy(*args, controls, **kwargs):
            used.append(controls)
            return evolve_rates(*args, controls=controls, **kwargs)

        monkeypatch.setattr(oamring.cli, "evolve_rates", spy)
        assert main(["rate", "--set", "rate.tau_end=1", "--out", str(tmp_path)]) == 0
        assert used == [OdeControls()]

    @pytest.mark.parametrize("dotted", [*RETIRED_KEYS, "params.k_max"])
    def test_retired_keys_are_unknown(self, tmp_path, dotted):
        section, _, key = dotted.partition(".")
        value = RETIRED_KEYS.get(dotted, 28)  # params.k_max was 2 m_max, 28 by default
        conf = tmp_path / "old.conf"
        conf.write_text(f"[{section}]\n{key} = {value}\n")
        for layer in ({"config_path": conf}, {"overrides": [f"{dotted}={value}"]}):
            with pytest.raises(ConfigurationError, match=f"unknown config key '{dotted}'"):
                parse_config("evolve", **layer)

    def test_every_default_passes_its_own_converter(self):
        # Defaults skip conversion, so nothing else checks their range.
        for section, keys in _SCHEMA.items():
            for key, (convert, default) in keys.items():
                raw = "auto" if default is None else str(default)
                assert convert(raw) == default, f"{section}.{key}"

    def test_unknown_preset_and_scenario(self):
        with pytest.raises(ConfigurationError):
            parse_config("evolve", preset="fig9")
        with pytest.raises(ConfigurationError):
            parse_config("simulate")


class TestArtifacts:
    def test_potential_outputs(self, tmp_path):
        rc = main(["potential", "--preset", "fig2", "--out", str(tmp_path)])
        assert rc == 0
        manifest = read_manifest(tmp_path)
        for name in ("samples.csv", "coefficients.csv"):
            first = (tmp_path / name).read_text().splitlines()[0]
            assert first == f"# manifest: {manifest['manifest_hash']}"
        assert manifest["reproducible"]["derived"]["dominant_k"] == 1

    def test_spectrum_sweep_sets_its_own_band(self, tmp_path):
        # Every radius takes its own band, so a user band changes no row of
        # the artifacts; the manifest still records what was set.
        args = ["spectrum", "--preset", "fig1b"]
        banded = ["--set", "params.m_max=40"]
        runs = {}
        for name, extra in (("plain", []), ("banded", banded)):
            out = tmp_path / name
            assert main(args + extra + ["--out", str(out)]) == 0
            rows = (out / "growth_rates.csv").read_text().splitlines()[1:]
            summary = json.loads((out / "summary.json").read_text())
            runs[name] = rows, summary["rows"]
        assert runs["plain"] == runs["banded"]
        config = read_manifest(tmp_path / "banded")["reproducible"]["config"]
        assert config["params.m_max"] == 40

    def test_rate_single_channel_overlay(self, tmp_path):
        # The overlay's delay ln((1 - s) / s) / g_6 is rebuilt from the
        # manifest's own g_6 and seed; the integrated N_6 crosses 1/2 next to it.
        rc = main(["rate", "--preset", "fig3", "--out", str(tmp_path),
                   "--set", "rate.channel=6", "--set", "rate.tau_end=150"])
        assert rc == 0
        block = read_manifest(tmp_path)["reproducible"]
        g_6 = block["derived"]["g_k"]["6"]
        seed = block["config"]["rate.seed_population"]
        assert np.log((1.0 - seed) / seed) / g_6 == pytest.approx(142.44, abs=5e-3)
        assert block["derived"]["transitions"] == {"6": {"tau": 142.5}}

    def test_rate_overlay_follows_the_integrated_channel(self, tmp_path):
        # The closed form starts from the run's seed, so it tracks N_0 and
        # N_6 through the whole transfer, not just its shape.
        rc = main(["rate", "--preset", "fig3", "--out", str(tmp_path),
                   "--set", "rate.channel=6"])
        assert rc == 0
        block = read_manifest(tmp_path)["reproducible"]
        g_6 = block["derived"]["g_k"]["6"]
        seed = block["config"]["rate.seed_population"]
        lines = (tmp_path / "rates.csv").read_text().splitlines()
        col = {name: i for i, name in enumerate(lines[1].split(","))}
        data = np.loadtxt(lines[2:], delimiter=",")
        done = int(np.nonzero(data[:, col["N_6"]] >= 0.99)[0][0])
        rows = data[: done + 1]
        overlay = np.array([two_state_analytic(g_6, seed, tau) for tau in rows[:, col["tau"]]])
        assert np.max(np.abs(overlay[:, 0] - rows[:, col["N_0"]])) < 5e-4
        assert np.max(np.abs(overlay[:, 1] - rows[:, col["N_6"]])) < 5e-4

    def test_rate_multi_channel_has_no_overlay(self, tmp_path):
        rc = main(["rate", "--preset", "fig3", "--out", str(tmp_path),
                   "--set", "rate.tau_end=10"])
        assert rc == 0
        header = (tmp_path / "rates.csv").read_text().splitlines()[1]
        assert "analytic" not in header

    def test_rate_single_channel_writes_only_the_ladder(self, tmp_path):
        # The two-state closed form follows from g_k and the seed the manifest
        # already holds, so neither rates.csv nor the manifest repeats it.
        rc = main(["rate", "--preset", "fig3", "--out", str(tmp_path),
                   "--set", "rate.channel=6", "--set", "rate.tau_end=1",
                   "--set", "params.m_max=12"])
        assert rc == 0
        header = (tmp_path / "rates.csv").read_text().splitlines()[1].split(",")
        ladder = range(13)
        assert header == ["tau"] + [f"N_{m}" for m in ladder] + [f"phi_{m}" for m in ladder]
        assert "single_channel" not in read_manifest(tmp_path)["reproducible"]["derived"]

    def test_timeseries_starts_the_bunching_at_lag_one(self, tmp_path):
        # Phi_0 is the norm, which norm_error already reports.
        assert main(["evolve", "--preset", "fig2", *QUICK_EVOLVE, "--out", str(tmp_path)]) == 0
        header = (tmp_path / "timeseries.csv").read_text().splitlines()[1].split(",")
        assert not {"re_phi_0", "im_phi_0"} & set(header)
        bunching = [name for name in header if "_phi_" in name]
        assert bunching[0] == "re_phi_1"
        assert bunching[COMPONENT_BAND] == "im_phi_1"

    def test_evolve_then_radiate_roundtrip(self, tmp_path):
        ev = tmp_path / "ev"
        rc = main(["evolve", "--preset", "fig2", "--out", str(ev)] + QUICK_EVOLVE)
        assert rc == 0
        snapshot = ev / "snapshot.json"
        rad = tmp_path / "rad"
        rc = main([
            "radiate", "--preset", "fig2", "--out", str(rad),
            "--set", f"radiate.state={snapshot}",
        ])
        assert rc == 0
        summary = json.loads((rad / "components.json").read_text())
        assert summary["dominant_ell_prime"] == 1  # essentially uniform ring

    def test_dominant_ell_prime_searches_the_whole_band(self, tmp_path):
        # c_0 and c_12 at equal weight on a k0_rho 12 ring: at the equator
        # the channel ell' = -10, at m = -12 outside avg_intensity.csv's
        # |m| <= 8, carries 0.0226 and the pump channel ell' = 2 only 0.0072.
        amps = np.zeros(53)
        amps[[26, 38]] = np.sqrt(0.5)
        state = write_snapshot(tmp_path / "state.json", {
            "m_max": 26, "re": amps.tolist(), "im": [0.0] * 53})
        out = tmp_path / "rad"
        assert main(["radiate", "--set", "params.ell=2", "--set", "params.k0_rho=12",
                     "--set", f"radiate.state={state}", "--out", str(out)]) == 0
        summary = json.loads((out / "components.json").read_text())
        assert summary["dominant_ell_prime"] == -10

    def test_radiate_writes_the_fixed_grid(self, tmp_path):
        # c_0 and c_5 at equal weight, the fig4 ring's bunched state.
        amps = np.zeros(39)
        amps[[19, 24]] = np.sqrt(0.5)
        state = write_snapshot(tmp_path / "state.json", {
            "m_max": 19, "re": amps.tolist(), "im": [0.0] * 39})
        out = tmp_path / "rad"
        rc = main(["radiate", "--preset", "fig4", "--out", str(out),
                   "--set", f"radiate.state={state}"])
        assert rc == 0
        summary = json.loads((out / "components.json").read_text())
        assert summary["dominant_ell_prime"] == -3
        # theta, phi, re_M and im_M per point of the upper-hemisphere grid,
        # 91 theta rows by 2 band + 1 = 77 phi columns, theta-major; the
        # intensity is re_M**2 + im_M**2 and is not written.
        lines = (out / "pattern.csv").read_text().splitlines()
        assert lines[1] == "theta,phi,re_M,im_M"
        table = np.array([line.split(",") for line in lines[2:]], dtype=float)
        assert table.shape == (91 * 77, 4)
        theta, phi, re_m, im_m = table.T.reshape(4, 91, 77)
        assert np.array_equal(theta[:, 0], np.linspace(0.0, np.pi / 2, 91))
        assert np.array_equal(phi[0], np.linspace(0.0, 2.0 * np.pi, 77, endpoint=False))
        assert theta[90, 0] == np.pi / 2
        lobes = count_lobes(re_m[90] ** 2 + im_m[90] ** 2)
        assert lobes == summary["equator_lobes"] == 5

    def test_radiate_caps_the_phi_columns_at_256(self, tmp_path):
        # Band 128, 2 m_max of m_max 64, would need 257 columns: the pattern
        # is written on the 256 fixed columns instead.
        amps = np.zeros(129)
        amps[[64, 69]] = np.sqrt(0.5)
        state = write_snapshot(tmp_path / "state.json", {
            "m_max": 64, "re": amps.tolist(), "im": [0.0] * 129})
        out = tmp_path / "rad"
        assert main(["radiate", "--preset", "fig4", "--set", "params.m_max=64",
                     "--set", f"radiate.state={state}", "--out", str(out)]) == 0
        lines = (out / "pattern.csv").read_text().splitlines()
        table = np.array([line.split(",") for line in lines[2:]], dtype=float)
        assert table.shape == (91 * 256, 4)
        assert np.array_equal(table[:256, 1], np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False))

    def test_radiate_requires_exactly_one_input(self, tmp_path, capsys):
        # The one input is a state snapshot; the retired Phi list key is unknown.
        out = tmp_path / "out"
        for args, named in (([], "radiate.state"),
                            (["--set", "radiate.phi_json=b"], "'radiate.phi_json'")):
            assert main(["radiate", "--out", str(out), *args]) == 2
            record = json.loads(capsys.readouterr().err.strip())
            assert record["error"] == "ConfigurationError" and named in record["message"]
            assert not out.exists()

    def test_all_columns_finite_guard(self, tmp_path):
        # A JSON file and a finite CSV come first: nothing may be written
        # before every column is checked.
        good = {"k": np.arange(4)}
        for bad in (np.nan, np.inf, -np.inf):
            for col in range(3):
                columns = [np.arange(4), np.linspace(0.0, 1.0, 4), np.full(4, 0.25)]
                columns[col] = columns[col].astype(float)
                columns[col][2] = bad
                out = tmp_path / f"bad_{col}"
                files = {"a.json": {"x": 1}, "good.csv": good,
                         "bad.csv": dict(zip(["k", "x", "y"], columns))}
                with pytest.raises(ToleranceError) as info:
                    _write_artifacts(out, "h", files)
                assert f"column {['k', 'x', 'y'][col]} of bad.csv" in str(info.value)
                assert not out.exists()

    def test_columns_match_row_wise_reference(self, tmp_path):
        header = ["k", "a", "b", "bits"]
        n = 3 * (_VALUES_PER_WRITE // len(header)) + 5  # four blocks
        rng = np.random.default_rng(7)
        ints = rng.integers(-(10**12), 10**12, n)
        ints[:5] = [0, 3, -7, 2**53 + 1, -(2**62)]
        # Values repeat within and across blocks, so most rows come from the
        # shared string table.
        pool = rng.normal(size=n // 8) * 10.0 ** rng.integers(-300, 300, n // 8)
        floats = rng.choice(pool, n)
        floats[:9] = [-0.0, 5e-324, 1e-300, 1e16, 0.1 + 0.2, -1e308, 0.25, 0.0, -0.0]
        floats[-2:] = [0.0, 5e-324]
        # An int column holding the float column's bit patterns: 0.0 is 0,
        # -0.0 is -2**63 and 5e-324 is 1.
        columns = [ints, floats, floats[::-1], floats.view(np.int64)]
        summary = {"rows": [{"k": 3, "x": 0.1}], "none": None}
        _write_artifacts(tmp_path / "out", "h", {"new.csv": dict(zip(header, columns)),
                                                 "summary.json": summary})
        new, ref = tmp_path / "out" / "new.csv", tmp_path / "ref.csv"
        reference_write_csv(ref, "h", header, zip(*columns))
        assert new.read_bytes() == ref.read_bytes()
        lines = new.read_text().splitlines()
        assert lines[2].startswith("0,-0.0,") and lines[3].startswith("3,5e-324,")
        assert lines[2].endswith(f",{-(2**63)}") and lines[3].endswith(",1")
        assert lines[-1].split(",")[1:] == ["5e-324", "-0.0", "1"]
        assert len(np.unique(floats)) < n // 4
        want = json.dumps({**summary, "manifest_hash": "h"}, indent=2, sort_keys=True)
        assert (tmp_path / "out" / "summary.json").read_text() == want + "\n"

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_drawn_tables_match_row_wise_reference(self, data):
        count = data.draw(st.integers(1, 50), label="columns")
        step = _VALUES_PER_WRITE // count  # rows in a full block
        rows = data.draw(st.sampled_from([1, step, 2 * step, 3 * step])
                         | st.integers(1, 2 * step + 1), label="rows")
        kinds = data.draw(st.lists(st.sampled_from([FLOAT_POOL, INT_POOL]),
                                   min_size=count, max_size=count))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        columns = [rng.choice(rng.choice(pool, rng.integers(1, len(pool) + 1), replace=False),
                              rows) for pool in kinds]
        header = [f"c{i}" for i in range(count)]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            _write_artifacts(out, "h", {"t.csv": dict(zip(header, columns))})
            reference_write_csv(Path(tmp) / "ref.csv", "h", header, zip(*columns))
            assert (out / "t.csv").read_bytes() == (Path(tmp) / "ref.csv").read_bytes()

    def test_writer_memory_is_bounded_by_the_block(self, tmp_path):
        # A table twice the size of the largest pattern.csv (91 x 256 rows,
        # from band 128 on), four float columns; a quarter of its values
        # repeats.  The block writer
        # peaks near 1.5 MiB here; formatting whole columns at once held
        # about 30 MiB.
        rng = np.random.default_rng(3)
        values = rng.normal(size=(4, 181 * 256))
        repeats = rng.random(values.shape) < 0.25
        values[repeats] = rng.choice(values[:, :1000].ravel(), repeats.sum())
        table = dict(zip(["theta", "phi", "re_M", "im_M"], values))
        tracemalloc.start()
        try:
            _write_artifacts(tmp_path / "out", "h", {"pattern.csv": table})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_non_finite_output_exits_three_without_csv(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            "oamring.cli.pair_potential", lambda phis, params: np.full(phis.shape, np.nan)
        )
        out = tmp_path / "out"
        assert main(["potential", "--preset", "fig2", "--out", str(out)]) == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ToleranceError" and record["exit_code"] == 3
        assert not out.exists()

    def test_late_non_finite_column_leaves_no_output_directory(self, tmp_path, capsys):
        # samples.csv is finite; alpha_k of coefficients.csv overflows to inf.
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning):
            rc = main(["potential", "--out", str(out), "--set", "params.gamma=1.7e308",
                       "--set", "params.k0_rho=0.01"])
        assert rc == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ToleranceError"
        assert "alpha_k of coefficients.csv" in record["message"]
        assert not out.exists()


def assert_texts_are_repr(values) -> None:
    """The text the CSV writer gives every value is its repr, checked value
    by value in one-column tables of up to 2**16 rows."""
    values = np.asarray(values, dtype=np.float64)
    for first in range(0, len(values), 1 << 16):
        part = values[first : first + (1 << 16)]
        texts = _csv_lines([part]).decode("ascii").split("\n")[:-1]
        wrong = [(want, got) for want, got in zip(map(repr, part.tolist()), texts) if want != got]
        assert not wrong, f"{len(wrong)} texts are not repr's, (repr, text): {wrong[:5]}"


def edge_values() -> np.ndarray:
    """Both signs of every power of two; each 10^k and each decimal of up to
    four digits times 10^17 to 10^21, where the scaled interval ends meet or
    nearly meet an integer, with both float neighbours; integers near 2^53;
    the zeros, the least subnormal and the largest double."""
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    short = (np.arange(1.0, 1e4)[:, None] * 10.0 ** np.arange(17, 22)).ravel()
    decimals = np.concatenate([tens, short])
    near = 2.0**53 + np.arange(-300.0, 300.0)
    extremes = [0.0, 5e-324, np.finfo(float).max]
    magnitudes = np.concatenate([twos, decimals, np.nextafter(decimals, 0.0),
                                 np.nextafter(decimals, np.inf), near, extremes])
    return np.concatenate([magnitudes, -magnitudes])


class TestFloatText:
    """cli._float_text, through the CSV writer, against repr, the oracle it
    falls back on."""

    def test_seeded_sweep_is_repr(self):
        rng = np.random.default_rng(41)
        scaled = rng.normal(size=600_000) * 10.0 ** rng.uniform(-30, 30, 600_000)
        bits = rng.integers(0, 2**64, 402_000, dtype=np.uint64).view(np.float64)
        bits = bits[np.isfinite(bits)]
        assert len(scaled) + len(bits) >= 10**6
        assert_texts_are_repr(scaled)
        assert_texts_are_repr(bits)
        # The sweep exercises the kernel, not its fallback: repr is left the
        # values whose scaled interval ends meet an integer, nearly all
        # between 1e11 and 1e22, where x 10^k is x scaled by few digits.
        plain = _shortest(np.abs(scaled))[3]
        assert plain.mean() > 0.95
        left = np.abs(scaled[~plain])
        assert np.mean((left > 1e11) & (left < 1e22)) > 0.99

    def test_edge_values_are_repr(self):
        assert_texts_are_repr(edge_values())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
    def test_drawn_floats_are_repr(self, values):
        assert_texts_are_repr(values)

    def test_powers_of_ten_are_exact_double_doubles(self):
        for k in range(-323, 309):
            exact = Fraction(10) ** k
            hi, lo, top, low = _pow10(k)
            assert hi == float(exact), k
            assert lo == float(exact - Fraction(hi)), k
            # The split of hi, for the scales of magnitudes 1e-250 to 1e250:
            # two halves of at most 26 bits, so Dekker's products are exact.
            if -234 <= k <= 266:
                assert top + low == hi, k
                assert (top * 2.0 ** (26 - math.frexp(top)[1])).is_integer(), k
                assert (low * 2.0 ** (26 - math.frexp(low)[1])).is_integer(), k

    def test_edge_table_raises_no_floating_point_fault(self, tmp_path):
        values = edge_values()
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _write_artifacts(tmp_path / "out", "h", {"t.csv": {"x": values}})
        reference_write_csv(tmp_path / "ref.csv", "h", ["x"], zip(values))
        assert (tmp_path / "out" / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_one_block_formats_in_a_mebibyte(self):
        values = np.random.default_rng(8).normal(size=_VALUES_PER_WRITE)
        assert len(np.unique(values)) == _VALUES_PER_WRITE
        _csv_lines([values])  # the text tables are built once, on first use
        tracemalloc.start()
        try:
            _csv_lines([values])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# The head of a script for a fresh interpreter, where the CSV writer may fork:
# the process may run on two CPUs, and it runs one thread until the script
# starts one.  ``forks`` counts the forks, and ``no_child_left`` says whether
# every child has been reaped.
FORKING_PRELUDE = """
import json, os, sys, threading
from pathlib import Path
import numpy as np
import oamring.cli as cli
from oamring.cli import _write_artifacts, main
os.sched_getaffinity = lambda pid: {0, 1}
forks = []
_fork = os.fork
os.fork = lambda: forks.append(1) or _fork()
def no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
"""


def run_forking(tmp_path: Path, body: str, threads: str = "1") -> list:
    """Run ``FORKING_PRELUDE`` and ``body`` in a fresh interpreter with
    ``threads`` BLAS threads, ``tmp_path`` as ``sys.argv[1]`` and
    DeprecationWarning an error (Python 3.12 and later warn when a process
    with threads forks); return the JSON its last stdout line holds."""
    src = str(Path(oamring.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
           "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
    child = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", FORKING_PRELUDE + body,
         str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""
    return json.loads(child.stdout.splitlines()[-1])


def drawn_reference(out: Path, values: int) -> Path:
    """``reference_write_csv``'s file, in ``out``, of the drawn two-column
    table of ``values`` values the tests below write."""
    columns = np.random.default_rng(5).normal(size=(2, values // 2))
    reference_write_csv(out / "ref.csv", "h", ["a", "b"], zip(*columns))
    return out / "ref.csv"


# The writer counts this process's threads in /proc; without it, it never forks.
needs_proc = pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                                reason="no /proc/self/task to count threads in")


class TestFormatterProcess:
    """The forked CSV formatter: used from its threshold on, only in a process
    of one thread, reaped on success and on failure, and replaced by this
    process when it fails or cannot start."""

    def rate_fig3(self, out: Path) -> list[str]:
        return ["rate", "--preset", "fig3", "--out", str(out)]

    @needs_proc
    @pytest.mark.parametrize("threads, start_thread, want_forks",
                             [("1", False, 1), ("2", True, 0)],
                             ids=["one-thread-forks", "threads-do-not"])
    def test_fork_only_without_threads(self, tmp_path, threads, start_thread, want_forks):
        # A matmul starts the BLAS pool first; "threads-do-not" also starts
        # a thread of its own, so the process has threads on any host.
        body = f"""
a = np.random.default_rng(0).random((200, 200))
a @ a
stop = threading.Event()
if {start_thread}:
    threading.Thread(target=stop.wait, daemon=True).start()
code = main(["rate", "--preset", "fig3", "--out", sys.argv[1] + "/child"])
stop.set()
print(json.dumps([code, len(forks), no_child_left()]))
"""
        assert run_forking(tmp_path, body, threads) == [0, want_forks, True]
        assert main(self.rate_fig3(tmp_path / "here")) == 0
        forked = (tmp_path / "child" / "rates.csv").read_bytes()
        assert forked == (tmp_path / "here" / "rates.csv").read_bytes()

    @needs_proc
    def test_failed_formatter_falls_back_to_this_process(self, tmp_path):
        body = """
parent, real_lines = os.getpid(), cli._csv_lines
def lines(columns):
    if os.getpid() != parent:
        raise MemoryError("the formatter fails")
    return real_lines(columns)
cli._csv_lines = lines
code = main(["rate", "--preset", "fig3", "--out", sys.argv[1] + "/child"])
print(json.dumps([code, len(forks), no_child_left()]))
"""
        assert run_forking(tmp_path, body) == [0, 1, True]
        assert main(self.rate_fig3(tmp_path / "here")) == 0
        forked = (tmp_path / "child" / "rates.csv").read_bytes()
        assert forked == (tmp_path / "here" / "rates.csv").read_bytes()

    @needs_proc
    def test_tables_fork_from_the_threshold(self, tmp_path):
        body = """
counts = []
for name, values in [("at", cli._FORK_MIN_VALUES), ("below", cli._FORK_MIN_VALUES - 2)]:
    columns = np.random.default_rng(5).normal(size=(2, values // 2))
    _write_artifacts(Path(sys.argv[1]) / name, "h", {"t.csv": dict(zip("ab", columns))})
    counts.append(len(forks))
print(json.dumps([*counts, no_child_left()]))
"""
        assert run_forking(tmp_path, body) == [1, 1, True]
        threshold = oamring.cli._FORK_MIN_VALUES
        for name, values in [("at", threshold), ("below", threshold - 2)]:
            ref = drawn_reference(tmp_path, values)
            assert (tmp_path / name / "t.csv").read_bytes() == ref.read_bytes()

    @needs_proc
    def test_short_child_share_arrives_whole(self, tmp_path):
        # Blocks of two rows: the child's 11 rows stay far below the file
        # buffers, so they arrive only if the child flushes them itself.
        body = """
cli._VALUES_PER_WRITE, cli._FORK_MIN_VALUES = 6, 12
columns = [np.arange(21), np.linspace(0.0, 1.0, 21), -np.arange(21.0)]
_write_artifacts(Path(sys.argv[1]) / "out", "h", {"t.csv": dict(zip("kxy", columns))})
print(json.dumps([len(forks), no_child_left()]))
"""
        assert run_forking(tmp_path, body) == [1, True]
        columns = [np.arange(21), np.linspace(0.0, 1.0, 21), -np.arange(21.0)]
        reference_write_csv(tmp_path / "ref.csv", "h", list("kxy"), zip(*columns))
        assert (tmp_path / "out" / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize(
        "case", ["below-threshold", "one-cpu", "threads", "no-tempfile", "fork-fails"]
    )
    def test_table_is_written_in_process(self, tmp_path, monkeypatch, case):
        # This process may have BLAS threads, so no case may really fork:
        # every fork but the failing one is an AssertionError.
        def forked():
            raise AssertionError("forked")

        def fail(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(oamring.cli, "_single_threaded", lambda: True)
        monkeypatch.setattr(os, "fork", forked)
        if case == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        elif case == "threads":
            monkeypatch.setattr(oamring.cli, "_single_threaded", lambda: False)
        elif case == "no-tempfile":
            monkeypatch.setattr(tempfile, "TemporaryFile", fail)
        elif case == "fork-fails":
            monkeypatch.setattr(os, "fork", fail)
        values = oamring.cli._FORK_MIN_VALUES - 2 * (case == "below-threshold")
        columns = np.random.default_rng(5).normal(size=(2, values // 2))
        _write_artifacts(tmp_path / "out", "h", {"t.csv": dict(zip("ab", columns))})
        ref = drawn_reference(tmp_path, values)
        assert (tmp_path / "out" / "t.csv").read_bytes() == ref.read_bytes()


class TestTimeseries:
    """The array-form timeseries against per-sample values and the double-loop
    bunching."""

    @pytest.fixture(scope="class")
    def traj(self):
        cfg = parse_config("evolve", preset="fig2")
        initial = default_initial_state(cfg.params, mode="random", rng_seed=5)
        return evolve(initial, fourier_coefficients(cfg.params), tau_end=20.0, stride=0.5)

    def test_columns_match_per_sample_observables(self, traj):
        phi_band = COMPONENT_BAND  # the fig2 band, 2 m_max = 28, is wider
        columns, drift_max, edge_max, *_ = _timeseries(traj, None)
        band = modes((traj.states.shape[1] - 1) // 2)
        assert list(columns) == (
            ["tau", "norm_error"] + [f"N_{m}" for m in band]
            + [f"re_phi_{k}" for k in range(1, phi_band + 1)]
            + [f"im_phi_{k}" for k in range(1, phi_band + 1)] + ["mean_omega"]
        )
        table = np.column_stack(list(columns.values()))
        assert table.shape[0] == len(traj.times)
        drifts, edges = [], []
        for row, tau, amps in zip(table, traj.times, traj.states):
            pops = np.abs(amps) ** 2
            drift = abs(pops.sum() - 1.0)
            phis = naive_bunching(amps, phi_band)[1:]
            want = np.concatenate(
                [[tau, drift], pops, phis.real, phis.imag, [np.sum(band * pops)]]
            )
            assert np.max(np.abs(row - want)) < 1e-15
            drifts.append(drift)
            edges.append(observables(amps, 0).edge)
        assert abs(drift_max - max(drifts)) < 1e-15
        assert edge_max == max(edges)

    def test_snapshot_index_is_first_largest_bunching(self, traj):
        size = traj.states.shape[1]
        assert _timeseries(traj, None)[3] == len(traj.times) - 1
        slow = np.abs([naive_bunching(amps, size - 1) for amps in traj.states])
        for k in range(size):
            metrics = slow[:, k].tolist()
            best, index = -1.0, None
            for i, metric in enumerate(metrics):
                if metric > best:
                    best, index = metric, i
            got = _timeseries(traj, k)[3]
            if k == 0:
                # |Phi_0| is the norm, equal at every sample up to rounding
                assert metrics[got] >= best - 1e-15
            else:
                assert got == index


class TestReproducibility:
    @pytest.mark.parametrize("scenario, module, args", [
        ("evolve", "dynamics", ["--preset", "fig2", *QUICK_EVOLVE]),
        ("rate", "rate_model", ["--preset", "fig3", "--set", "rate.tau_end=20"]),
    ])
    def test_manifest_records_the_step_counts(self, tmp_path, monkeypatch, scenario,
                                              module, args):
        from oamring.numerics import integrate_ode

        returned = []

        def counted(*a, **kw):
            returned.append(integrate_ode(*a, **kw))
            return returned[-1]

        monkeypatch.setattr(f"oamring.{module}.integrate_ode", counted)
        assert main([scenario, *args, "--out", str(tmp_path / "out")]) == 0
        (traj,) = returned
        diagnostics = read_manifest(tmp_path / "out")["reproducible"]["diagnostics"]
        assert traj.attempts > 0
        assert (diagnostics["attempts"], diagnostics["rejected"]) == (
            traj.attempts, traj.rejected)

    def test_runs_differ_only_in_the_volatile_block(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        for out in (first, second):
            assert main(["rate", "--preset", "fig3", "--set", "rate.tau_end=20",
                         "--out", str(out)]) == 0
        manifests = [read_manifest(out) for out in (first, second)]
        for manifest in manifests:
            volatile = manifest.pop("volatile")
            assert set(volatile) == {"wall_clock_s", "write_s", "created_utc"}
            assert volatile["wall_clock_s"] >= 0 and volatile["write_s"] >= 0
        assert manifests[0] == manifests[1]
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in second.iterdir())
        for name in names:
            if name != "manifest.json":
                assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_large_seed_survives_manifest_rerun(self, tmp_path):
        seed = 2**53 + 1
        first, second = tmp_path / "first", tmp_path / "second"
        args = QUICK_EVOLVE + [
            "--set", "evolve.seed_mode=random", "--set", f"evolve.rng_seed={seed}"]
        assert main(["evolve", "--preset", "fig2", "--out", str(first)] + args) == 0
        rerun = ["evolve", "--config", str(first / "manifest.json"), "--out", str(second)]
        assert main(rerun) == 0
        files = [{p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
                 for out in (first, second)]
        assert files[0] == files[1]
        a, b = read_manifest(first), read_manifest(second)
        assert a["reproducible"] == b["reproducible"]
        assert a["manifest_hash"] == b["manifest_hash"]
        assert b["reproducible"]["config"]["evolve.rng_seed"] == seed

    def test_rerun_records_the_same_overrides(self, tmp_path):
        # Named again or inherited, the preset is compared with the same values.
        first = tmp_path / "first"
        args = ["evolve", "--preset", "fig2", "--set", "evolve.tau_end=2"]
        assert main(args + ["--out", str(first)]) == 0
        block = read_manifest(first)["reproducible"]
        assert block["overridden_preset_keys"] == ["evolve.tau_end"]
        for name, preset in (("named", ["--preset", "fig2"]), ("inherited", [])):
            rerun = ["evolve", *preset, "--config", str(first / "manifest.json")]
            assert main(rerun + ["--out", str(tmp_path / name)]) == 0
            assert read_manifest(tmp_path / name)["reproducible"] == block, name

    def test_recorded_override_list_is_not_read(self, tmp_path):
        # The list is derived from the values, so a malformed one re-runs.
        fresh = tmp_path / "fresh"
        args = ["potential", "--preset", "fig2", "--set", "params.gamma=0.07"]
        assert main(args + ["--out", str(fresh)]) == 0
        manifest = read_manifest(fresh)
        manifest["reproducible"]["overridden_preset_keys"] = 5
        old = tmp_path / "old.json"
        old.write_text(json.dumps(manifest))
        rerun = tmp_path / "rerun"
        assert main(["potential", "--config", str(old), "--out", str(rerun)]) == 0
        assert read_manifest(rerun)["reproducible"]["overridden_preset_keys"] == ["params.gamma"]

    def test_manifest_of_another_version_is_refused(self, tmp_path, capsys):
        # A manifest re-runs only under the version that wrote it: another
        # version, or none, exits 2 naming both and writes nothing.
        fresh = tmp_path / "fresh"
        args = ["evolve", "--preset", "fig2", "--set", "evolve.tau_end=2"]
        assert main(args + ["--out", str(fresh)]) == 0
        manifest = read_manifest(fresh)
        old = tmp_path / "old.json"
        for version in ("0.1.0", None):
            block = dict(manifest["reproducible"], tool_version=version)
            if version is None:
                del block["tool_version"]
            old.write_text(json.dumps({**manifest, "reproducible": block}))
            refused = tmp_path / "refused"
            capsys.readouterr()
            assert main(["evolve", "--config", str(old), "--out", str(refused)]) == 2
            record = json.loads(capsys.readouterr().err.strip())
            assert record["error"] == "ConfigurationError" and str(old) in record["message"]
            assert repr(version) in record["message"]
            assert repr(oamring.__version__) in record["message"]
            assert not refused.exists()
        # A key = value file names no version and still runs.
        conf = tmp_path / "run.conf"
        conf.write_text("[evolve]\ntau_end = 2\n")
        ini = tmp_path / "ini"
        assert main(["evolve", "--preset", "fig2", "--config", str(conf), "--out", str(ini)]) == 0
        assert read_manifest(ini)["manifest_hash"] == manifest["manifest_hash"]

    def test_snapshot_with_the_coupling_band_key_radiates(self, tmp_path):
        # Snapshots written while params.k_max was a field carry it in params.
        evolved = tmp_path / "evolved"
        assert main(["evolve", "--preset", "fig2", *QUICK_EVOLVE, "--out", str(evolved)]) == 0
        snapshot = json.loads((evolved / "snapshot.json").read_text())
        assert "k_max" not in snapshot["params"]
        old = write_snapshot(tmp_path / "old.json", {
            **snapshot, "params": {**snapshot["params"], "k_max": 2 * snapshot["m_max"]}})
        for name, state in (("new", evolved / "snapshot.json"), ("old", old)):
            args = ["radiate", "--preset", "fig2", "--set", f"radiate.state={state}"]
            assert main(args + ["--out", str(tmp_path / name)]) == 0
        for name in ("pattern.csv", "avg_intensity.csv", "components.json"):
            new, old = (artifact_hash(tmp_path / run / name) for run in ("new", "old"))
            assert new == old, name

    def test_manifest_echoes_resolved_truncations(self, tmp_path):
        rc = main(["potential", "--preset", "fig2", "--out", str(tmp_path)])
        assert rc == 0
        config = read_manifest(tmp_path)["reproducible"]["config"]
        assert config["params.m_max"] == 14
        assert "params.k_max" not in config  # always 2 m_max, so not echoed


G_TABLE = {"g_k", "dominant_k"}
RATE_DERIVED = G_TABLE | {"gamma_v0", "transitions", "validity"}
RATE_DIAGNOSTICS = {"max_population_drift", "final_mean_m", "attempts", "rejected",
                    "max_validity_residual"}


class TestManifestContent:
    # derived and diagnostics hold only what the run computed and none of its
    # artifacts, CSV or JSON, already holds.
    @pytest.mark.parametrize("args, derived, diagnostics", [
        (["potential", "--preset", "fig2"], {"dominant_k"}, set()),
        (["spectrum", "--preset", "fig1b"], set(), set()),
        (["evolve", "--preset", "fig2", *QUICK_EVOLVE],
         G_TABLE | {"lambda", "transitions"},
         {"max_norm_drift", "max_band_edge", "attempts", "rejected"}),
        (["rate", "--preset", "fig3", "--set", "rate.tau_end=1"],
         RATE_DERIVED, RATE_DIAGNOSTICS),
        (["rate", "--preset", "fig3", "--set", "rate.tau_end=1", "--set", "rate.channel=6"],
         RATE_DERIVED, RATE_DIAGNOSTICS),
        (["radiate", "--set", "radiate.state={state}"], set(), set()),
    ], ids=["potential", "spectrum", "evolve", "rate", "rate-channel", "radiate"])
    def test_manifest_keys(self, tmp_path, args, derived, diagnostics):
        state = write_snapshot(tmp_path / "state.json")
        out = tmp_path / "out"
        assert main([arg.format(state=state) for arg in args] + ["--out", str(out)]) == 0
        block = read_manifest(out)["reproducible"]
        assert set(block["derived"]) == derived
        assert set(block["diagnostics"]) == diagnostics
        if "lambda" in derived:  # the regime's thresholds are constants, not results
            assert set(block["derived"]["lambda"]) == {"growth_rates", "argmax_m", "regime"}

    @pytest.mark.parametrize("setting", ["params.ell=0", "params.gamma=0"])
    @pytest.mark.parametrize("args", [
        ["potential", "--preset", "fig2"],
        ["evolve", "--preset", "fig2", *QUICK_EVOLVE],
        ["rate", "--preset", "fig3", "--set", "rate.tau_end=1"],
    ], ids=["potential", "evolve", "rate"])
    def test_unresolved_gain_names_no_dominant_channel(self, tmp_path, args, setting):
        # With no pump winding or no coupling every g_k is rounding noise at
        # most, so no channel, mode or regime is named.
        assert main(args + ["--set", setting, "--out", str(tmp_path)]) == 0
        block = read_manifest(tmp_path)["reproducible"]
        derived = block["derived"]
        assert derived["dominant_k"] is None
        if "lambda" in derived:
            assert [derived["lambda"][key] for key in ("argmax_m", "regime")] == [None, None]
        if "validity" in derived:
            assert derived["validity"] == {}
            assert block["diagnostics"]["max_validity_residual"] is None

    @pytest.mark.parametrize("gamma, argmax_m", [("5", 1), ("0.2", None)])
    def test_evolve_and_spectrum_agree_on_the_fastest_mode(self, tmp_path, gamma, argmax_m):
        # At ell 0 every V_m is real and no g_m is resolved.  At gamma 5 the
        # mode m = 1 still grows, at |Re lambda_1| = 2.40, because
        # 1 + gamma Re V_1 < 0; at gamma 0.2 every rate is rounding noise,
        # about 2e-17, so no mode or regime is named.
        setting = ["--set", "params.ell=0", "--set", f"params.gamma={gamma}"]
        assert main(["evolve", *setting, "--set", "evolve.tau_end=1",
                     "--out", str(tmp_path / "evolve")]) == 0
        derived = read_manifest(tmp_path / "evolve")["reproducible"]["derived"]
        assert derived["lambda"]["argmax_m"] == argmax_m
        assert (derived["lambda"]["regime"] is None) == (argmax_m is None)
        assert main(["spectrum", *setting, "--out", str(tmp_path / "spectrum")]) == 0
        summary = json.loads((tmp_path / "spectrum" / "summary.json").read_text())
        fastest = {row["k0_rho"]: row["argmax_m"] for row in summary["rows"]}
        assert fastest[1.0] == argmax_m

    @pytest.mark.parametrize("k0_rho, dominant, top", [("5.605", 6, 12), ("20", 16, 16)])
    def test_g_table_reaches_the_dominant_channel(self, tmp_path, k0_rho, dominant, top):
        # The table stops at k = 12 unless the dominant gain lies further out,
        # so that gain is always written.
        args = ["rate", "--preset", "fig3", "--set", "rate.tau_end=1",
                "--set", f"params.k0_rho={k0_rho}", "--out", str(tmp_path)]
        assert main(args) == 0
        derived = read_manifest(tmp_path)["reproducible"]["derived"]
        assert derived["dominant_k"] == dominant
        assert sorted(map(int, derived["g_k"])) == list(range(1, top + 1))

    @pytest.mark.parametrize("extra, channels, worst_k, worst, regime", [
        ([], 15, "1", 4.36e-4, "quantum"),
        (["params.gamma=3"], 15, "1", 3.84e-3, "intermediate"),
        (["rate.channel=6"], 1, "6", 1.41e-7, "quantum"),
    ], ids=["fig3", "gamma3", "channel6"])
    def test_rate_reports_where_it_holds(self, tmp_path, extra, channels, worst_k, worst,
                                         regime):
        # Checked per channel against lambda_k, g_k and alpha_k taken afresh.
        from oamring.potential import dispersion_coefficients, rate_coefficients
        from oamring.stability import classify_regime, spectrum

        sets = [arg for setting in extra for arg in ("--set", setting)]
        args = ["rate", "--preset", "fig3", "--set", "rate.tau_end=1", *sets]
        assert main(args + ["--out", str(tmp_path)]) == 0
        block = read_manifest(tmp_path)["reproducible"]
        params = parse_config("rate", preset="fig3", overrides=extra).params
        fp = fourier_coefficients(params)
        g, alpha = rate_coefficients(fp), dispersion_coefficients(fp)
        ks = [6] if extra == ["rate.channel=6"] else range(1, params.m_max + 1)
        expected = {}
        for k in (k for k in ks if g[k] > params.gamma * 1e-10):
            rate = 2.0 * abs(spectrum(fp, np.array([k]))[0].real)
            residual = abs(rate - g[k] * (1.0 - alpha[k] / k**2)) / rate
            expected[str(k)] = {
                "regime": classify_regime(k, params.gamma, complex(fp.coefficient(k))),
                "residual": pytest.approx(residual, rel=1e-12),
            }
        validity = block["derived"]["validity"]
        assert validity == expected and len(validity) == channels
        top = max(validity, key=lambda k: validity[k]["residual"])
        assert top == worst_k and validity[top]["regime"] == regime
        assert block["diagnostics"]["max_validity_residual"] == validity[top]["residual"]
        assert validity[top]["residual"] == pytest.approx(worst, rel=5e-3)
        if not extra:
            assert validity["6"]["residual"] == pytest.approx(1.41e-7, rel=5e-3)
            assert {entry["regime"] for entry in validity.values()} == {"quantum"}


def test_python_m_oamring_runs():
    src = str(Path(oamring.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-m", "oamring", "--version"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == f"oamring {oamring.__version__}"


class TestExitCodes:
    @pytest.mark.parametrize(
        "scenario, override",
        [
            ("evolve", "evolve.rng_seed=inf"),
            ("evolve", "params.k0_rho=inf"),
            ("evolve", "evolve.tau_end=inf"),
            # a retired key is unknown
            ("evolve", "evolve.phi_band=-1"),
            ("evolve", "evolve.phi_band=-2"),
            ("radiate", "radiate.theta_count=1"),
            ("spectrum", "spectrum.k0_rho_min=1e300"),
            ("potential", "params.m_max=-3"),
            ("potential", "params.epsilon=1e-9"),
            ("potential", "params.epsilon=1e300"),
            ("potential", "params.k0_rho=1e6"),
            ("evolve", "evolve.seed_mode=random evolve.rng_seed=-1"),
            ("evolve", "evolve.tau_end=5e-324"),  # shorter than any step
            ("rate", "rate.tau_end=1e-30"),
            ("rate", "params.m_max=3 rate.channel=6"),  # a rung past the ladder
            # g_k at or below gamma * 1e-10 is not resolved from zero: ell 0
            # has no gain at all, and the default ring resolves only k = 1..7.
            ("rate", "params.ell=0 rate.channel=6"),
            ("rate", "rate.channel=10"),
        ],
    )
    def test_bad_value_exits_two_with_record(self, tmp_path, capsys, scenario, override):
        args = [scenario, "--out", str(tmp_path / "out")]
        for setting in override.split():
            args += ["--set", setting]
        if scenario == "radiate":
            args += ["--set", f"radiate.state={write_snapshot(tmp_path / 'state.json')}"]
        assert main(args) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigurationError"
        assert record["exit_code"] == 2

    @pytest.mark.parametrize("args", [
        ["evolve", "--bogus", "--out", "{out}"],
        ["evolve", "--preset", "nosuch", "--out", "{out}"],
        ["evolve", "--out", "{out}", "--set"],
        ["--out", "{out}"],
    ], ids=["unknown-option", "unknown-preset", "bare-set", "no-scenario"])
    def test_argument_error_exits_two_with_record(self, tmp_path, capsys, args):
        # argparse would print its usage text and exit 2 with no record.
        out = tmp_path / "out"
        assert main([arg.format(out=out) for arg in args]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert set(record) == {"error", "message", "exit_code"}
        assert record["error"] == "ConfigurationError" and record["exit_code"] == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario, override",
        [
            ("evolve", "evolve.rel_tol=0"),
            # another scenario's key
            ("potential", "evolve.rel_tol=0"),
            ("spectrum", "evolve.rel_tol=0"),
            ("rate", "evolve.abs_tol=-1"),
            ("radiate", "evolve.abs_tol=-1"),
            # a retired key is unknown in every scenario, and refused as early
            ("spectrum", "spectrum.k0_rho_step=0"),
            ("spectrum", "spectrum.k0_rho_step=-0.25"),
            ("evolve", "evolve.phi_band=-1"),
            ("evolve", "spectrum.k0_rho_step=0"),
            ("rate", "spectrum.k0_rho_step=-0.25"),
            ("radiate", "evolve.phi_band=-1"),
        ],
    )
    def test_out_of_range_value_exits_two_before_writing(
        self, tmp_path, capsys, scenario, override
    ):
        out = tmp_path / "new"
        assert main([scenario, "--out", str(out), "--set", override]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigurationError" and record["exit_code"] == 2
        assert override.partition("=")[0] in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, named",
        [
            (["potential", "--set", "params.m_max=1000000000000"], "m_max=1000000000000"),
            (["evolve", "--preset", "fig2", "--set", "evolve.tau_end=1e12"], "stride"),
            (["evolve", "--preset", "fig2", "--set", "evolve.stride=0.002"], "stride"),
            (["rate", "--preset", "fig3", "--set", "rate.stride=1e-12"], "stride"),
            # 3e6 steps of 10, past the step budget of 2**21 attempts
            (["evolve", "--set", "evolve.stride=1e7", "--set", "evolve.tau_end=3e7"], "steps"),
            # 2 * 3001**2 ladder entries pass 2**24; the 192,000-point
            # quadrature grid of k_max = 6000 does not reach its limit.
            (["rate", "--preset", "fig3", "--set", "params.m_max=3000"],
             "m_max=3000: rate ladder"),
            (["evolve", "--preset", "fig2", "--set", "params.m_max=16000",
              "--set", "evolve.seed_amplitude=1e-7", "--set", "evolve.tau_end=1"],
             "m_max=16000"),
            # J_0 .. J_92698 at 91 theta rows stay under 2**24 entries, but
            # the phase table, 123,601 channels by 256 columns, does not and
            # is refused before the snapshot's bunching.
            (["radiate", "--set", "params.ell=30898", "--set", "params.m_max=30900"],
             "params.m_max=30900: the far field's phase table"),
            (["radiate", "--set", "params.k0_rho=1e5", "--set", "params.m_max=14"], "k0_rho"),
            # Each sweep point's band is max(6, |ell| + 2): params.ell, not
            # params.m_max, asks for the 6.4e6-point quadrature grid.
            (["spectrum", "--set", "params.ell=100000"], "params.ell=100000 gives the band"),
        ],
        ids=["potential-grid", "evolve-samples", "evolve-store", "rate-samples",
             "evolve-steps", "rate-ladder", "evolve-coupling",
             "radiate-bessel", "radiate-argument", "spectrum-band"],
    )
    def test_oversized_input_exits_two_before_allocating(self, tmp_path, args, named):
        if args[0] == "radiate":
            # A unit c_0 over the band the run's m_max sets.
            m_max = int(args[-1].partition("params.m_max=")[2])
            state = {"m_max": m_max, "re": [0.0] * m_max + [1.0] + [0.0] * m_max,
                     "im": [0.0] * (2 * m_max + 1)}
            path = write_snapshot(tmp_path / "state.json", state)
            args = args + ["--set", f"radiate.state={path}"]
        rc, err = run_capped(args + ["--out", str(tmp_path / "out")])
        assert rc == 2, err
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "ConfigurationError" and record["exit_code"] == 2
        assert named in record["message"]
        assert not (tmp_path / "out").exists()

    def test_oversized_snapshot_exits_two_before_bunching(self, tmp_path, capsys, monkeypatch):
        # 65,537 channels by 256 phi columns are just past 2**24 phase-table
        # entries; bunching, quadratic in m_max, never runs.
        def unreached(state):
            raise AssertionError("bunching ran before the phase-table check")

        monkeypatch.setattr("oamring.cli.bunching", unreached)
        m_max = 16384
        state = {"m_max": m_max, "re": [0.0] * m_max + [1.0] + [0.0] * m_max,
                 "im": [0.0] * (2 * m_max + 1)}
        path = write_snapshot(tmp_path / "state.json", state)
        out = tmp_path / "out"
        assert main(["radiate", "--out", str(out), "--set", f"params.m_max={m_max}",
                     "--set", f"radiate.state={path}"]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigurationError"
        assert "params.m_max=16384: the far field's phase table" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "write",
        [
            lambda path: path.mkdir(),
            lambda path: path.write_bytes(b"[params]\ngamma = 0.3 \xff\n"),
            lambda path: path.write_text(json.dumps({"reproducible": {
                "tool_version": oamring.__version__, "config": [1]}})),
            lambda path: path.write_text(json.dumps({"reproducible": {
                "tool_version": oamring.__version__, "config": {}, "preset": ["fig2"]}})),
            lambda path: path.write_text("gamma = 0.3\n"),
            lambda path: path.write_text("[nosuch]\ngamma = 0.3\n"),
            lambda path: path.write_text('{"reproducible": ' + "[" * 100_000),
        ],
        ids=["directory", "not-utf8", "list-config", "list-preset",
             "no-section-header", "unknown-section", "deep-nesting"],
    )
    def test_unreadable_config_file_exits_two(self, tmp_path, capsys, write):
        path = tmp_path / "run.conf"
        write(path)
        rc = main(["potential", "--out", str(tmp_path), "--config", str(path)])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigurationError" and record["exit_code"] == 2
        assert str(path) in record["message"]

    @pytest.mark.parametrize(
        "text", ["[DEFAULT]\ngamma = 0.3\n", "[DEFAULT]\ngamma = 0.3\n[params]\nell = 1\n"]
    )
    def test_default_section_exits_two(self, tmp_path, capsys, text):
        # configparser would hand [DEFAULT] keys to every section unchecked.
        path = tmp_path / "run.conf"
        path.write_text(text)
        out = tmp_path / "out"
        rc = main(["potential", "--preset", "fig2", "--out", str(out), "--config", str(path)])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigurationError" and "DEFAULT" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("lag", [0, 29])  # the default band has 2*m_max = 28
    def test_snapshot_lag_outside_band_exits_two(self, tmp_path, capsys, lag):
        rc = main(["evolve", "--out", str(tmp_path),
                   "--set", "evolve.snapshot=max_bunching",
                   "--set", f"evolve.snapshot_k={lag}"])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigurationError"
        assert "snapshot_k" in record["message"]

    @pytest.mark.parametrize("args", [
        ["potential", "--set", "params.m_max=10", "--set", "params.k0_rho=1e308"],
        ["evolve", "--set", "params.m_max=10", "--set", "params.k0_rho=1e308"],
        ["rate", "--set", "params.m_max=10", "--set", "params.k0_rho=1e160",
         "--set", "params.epsilon=1e150"],
    ], ids=["potential", "evolve", "rate"])
    def test_overflowing_phase_exits_two(self, tmp_path, capsys, args):
        # 2 k0_rho q past the largest double samples V(phi) as NaN, which no
        # check downstream of SystemParams names.
        out = tmp_path / "out"
        assert main(args + ["--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigurationError" and "k0_rho=" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["potential", "--set", "params.k0_rho=1e-305", "--set", "params.epsilon=1e-4"],
        ["evolve", "--set", "params.k0_rho=1e-200", "--set", "params.epsilon=1e-200"],
    ], ids=["subnormal", "zero"])
    def test_overflowing_amplitude_exits_two(self, tmp_path, capsys, args):
        # 1 / (k0_rho epsilon) past the largest double sampled V(0) as -inf,
        # and the grid-doubling check then blamed the quadrature grid.
        out = tmp_path / "out"
        assert main(args + ["--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigurationError"
        assert "k0_rho=" in record["message"] and "epsilon=" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("setting, named", [
        ("params.k0_rho=1.7e308", "k0_rho=1.7e+308"),
        ("params.m_max=" + "9" * 400, f"grid of {64 * int('9' * 400)} points"),
    ], ids=["k0_rho", "m_max"])
    def test_grid_past_a_double_exits_two(self, tmp_path, capsys, setting, named):
        # 32 k_max past the largest double once made the grid-limit message
        # raise OverflowError.
        out = tmp_path / "out"
        assert main(["potential", "--out", str(out), "--set", setting]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigurationError" and named in record["message"]
        assert not out.exists()

    def test_configuration_error_is_two(self, tmp_path, capsys):
        rc = main(["evolve", "--out", str(tmp_path),
                   "--set", "params.gamma=-1"])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigurationError"

    TOLERANCE_FAILURE = [
        "evolve",
        "--set", "params.gamma=5.0", "--set", "evolve.tau_end=60",
        "--set", "evolve.rel_tol=1e-2", "--set", "evolve.abs_tol=1e-2",
    ]

    def test_tolerance_failure_is_three(self, tmp_path, capsys):
        assert main(self.TOLERANCE_FAILURE + ["--out", str(tmp_path)]) == 3
        message = json.loads(capsys.readouterr().err.strip())["message"]
        assert message.startswith("norm drift") and message.endswith("at tau=1")

    @pytest.mark.parametrize(
        "args, code",
        [
            (["evolve", "--set", "evolve.seed_amplitude=0.5"], 2),
            (["rate", "--preset", "fig3", "--set", "rate.stride=0"], 2),
            (TOLERANCE_FAILURE, 3),
        ],
        ids=["seed-amplitude", "rate-stride", "tolerance"],
    )
    def test_failed_run_leaves_no_output_directory(self, tmp_path, args, code):
        # Nothing is written until the run has succeeded.
        out = tmp_path / "out"
        assert main(args + ["--out", str(out)]) == code
        assert not out.exists()

    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["a-file", "below-a-file"])
    def test_unwritable_output_exits_two(self, tmp_path, capsys, below):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker.joinpath(*below)
        assert main(["potential", "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigurationError" and record["exit_code"] == 2
        assert str(out) in record["message"]

    def test_overflowing_coupling_exits_three(self, tmp_path, capsys):
        # gamma = 1e308 overflows the nonlinear term to inf and NaN; the
        # integrator must shrink its step to underflow, not retry forever.
        with pytest.warns(RuntimeWarning):
            rc = main(["evolve", "--out", str(tmp_path),
                       "--set", "params.gamma=1e308", "--set", "evolve.tau_end=2"])
        assert rc == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "IntegrationError"

    @pytest.mark.parametrize("scenario, preset", [("evolve", "fig2"), ("rate", "fig3")])
    def test_spent_step_budget_exits_three(
        self, tmp_path, capsys, monkeypatch, scenario, preset
    ):
        # evolve steps the Lawson path, rate the plain one.  The budget
        # leaves room for each span at max_step (120 and 30 steps), so the
        # pre-flight passes and the run spends it.
        monkeypatch.setattr("oamring.numerics._MAX_ATTEMPTS", 200)
        out = tmp_path / "out"
        assert main([scenario, "--preset", preset, "--out", str(out)]) == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "IntegrationError" and record["exit_code"] == 3
        assert "step budget of 200 attempts spent (last good tau = " in record["message"]
        assert not out.exists()

    def test_overflowing_spectrum_exits_three_naming_both_keys(self, tmp_path, capsys):
        # V(0) = 1e308 is a finite amplitude whose FFT sums overflow: no
        # quadrature grid would help.  No numpy warning comes first (the
        # pytest setting error::RuntimeWarning pins that), and stderr holds
        # the record alone.
        out = tmp_path / "out"
        rc = main(["potential", "--out", str(out), "--set", "params.k0_rho=1e-304",
                   "--set", "params.epsilon=1e-4"])
        assert rc == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ToleranceError" and record["exit_code"] == 3
        assert "overflowed at k0_rho=1e-304, epsilon=0.0001" in record["message"]
        assert "quadrature grid" not in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload",
        [
            {"m_max": 19, "re": [0.0] * 19 + [1.0] + [0.0] * 19, "im": [0.0]},
            {"m_max": 1, "re": [0.0, 1.0, float("nan")], "im": [0.0] * 3},
            {"m_max": 1, "re": [0.0, 1.0, 0.0], "im": [0.0, float("inf"), 0.0]},
            {"m_max": 1, "re": [0.0, 1.0, 0.0], "im": [0.0] * 3, "tau": "x"},
            {"m_max": 14.5, "re": [0.0] * 14 + [1.0] + [0.0] * 14, "im": [0.0] * 29},
            {"m_max": 14, "re": [0.0] * 14 + [1.0] + [0.0] * 14, "im": [0.0] * 29,
             "tau": True},
            {"m_max": 14, "re": [0.0] * 14 + [True] + [0.0] * 14, "im": [False] * 29},
            {"m_max": 14, "re": [0.0] * 14 + [1.0] + [0.0] * 13 + [10**400],
             "im": [0.0] * 29},
            {"m_max": 14, "re": [0.0] * 14 + [2.0] + [0.0] * 14, "im": [0.0] * 29},
            {"m_max": 14, "re": [0.0] * 14 + [1e200] + [0.0] * 14, "im": [0.0] * 29},
            {"m_max": 14, "re": [[0.0, 0.0]] * 14 + [[1.0, 0.0]] + [[0.0, 0.0]] * 14,
             "im": [0.0] * 29},
            {"m_max": 14, "re": 1.0, "im": 0.0},
            '{"m_max": 14, "re": ' + "[" * 100_000,
            {"m_max": 14, "re": [0.0] * 13 + [1.0] + [0.0] * 13, "im": [0.0] * 27},
            # Every modulus is at most 1, but the norm is off by 0.75.
            {"m_max": 14, "re": [0.0] * 14 + [0.5] + [0.0] * 14, "im": [0.0] * 29},
        ],
        ids=[
            "short-im", "nan-re", "inf-im", "bad-tau", "float-m_max", "bool-tau",
            "bool-re-im", "huge-int-re", "norm-4-state", "overflowing-norm", "re-pairs",
            "scalar-re-im", "deep-nesting", "m_max-over-27", "norm-quarter-state",
        ],
    )
    def test_bad_radiate_input_file_exits_two(self, tmp_path, capsys, payload):
        path = tmp_path / "input.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        rc = main(["radiate", "--out", str(tmp_path / "out"),
                   "--set", f"radiate.state={path}"])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigurationError"
        assert str(path) in record["message"]

    @pytest.mark.parametrize(
        "setting", ["params.ell=-4", "params.k0_rho=3"], ids=["ell", "k0_rho"]
    )
    def test_snapshot_of_another_system_exits_two(self, tmp_path, capsys, setting):
        # A snapshot written by an ell 1, k0_rho 1 run, radiated as another ring.
        path = tmp_path / "snapshot.json"
        params = {"gamma": 0.05, "epsilon": 0.1, "k0_rho": 1.0, "ell": 1, "m_max": 14}
        path.write_text(json.dumps({
            "m_max": 14, "re": [0.0] * 14 + [1.0] + [0.0] * 14, "im": [0.0] * 29,
            "params": params,
        }))
        args = ["radiate", "--set", f"radiate.state={path}", "--set", "params.m_max=14"]
        assert main(args + ["--out", str(tmp_path / "ok")]) == 0
        out = tmp_path / "out"
        assert main(args + ["--set", setting, "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigurationError"
        assert setting.partition("=")[0] in record["message"]
        assert not out.exists()

    def test_truncation_failure_is_four(self, tmp_path):
        rc = main([
            "evolve", "--out", str(tmp_path),
            "--set", "params.ell=1", "--set", "params.m_max=3",
            "--set", "evolve.seed_amplitude=1e-2",
            "--set", "evolve.tau_end=5",
        ])
        assert rc == 4


# Text that no converter reads as a finite number.
JUNK = st.sampled_from(["", "x", "nan", "inf", "-inf", "1e400", "true", "0x10", "1,5"])

# Every word a choice key accepts: the string defaults, the presets' words and
# the one choice neither uses.
WORDS = sorted(
    {d for keys in _SCHEMA.values() for _, d in keys.values() if isinstance(d, str)}
    | {v for preset in PRESETS.values() for v in preset.values() if v.isalpha()}
    | {"random"}
)


def raw_values(dotted: str, default) -> st.SearchStrategy:
    """--set text for one schema key: its default, its preset values, numbers
    of its type around the default and on both sides of zero (so every range
    bound is crossed), extremes that every size bound must stop, and junk.
    tau_end stays at most 5, which keeps a valid run within seconds."""
    if dotted.endswith(".tau_end"):  # mostly a span the integrator can step
        valid = st.floats(0.5, 5.0).map(repr)
        return st.one_of(valid, valid, valid, st.sampled_from(["0", "-1", "1e-300"]) | JUNK)
    fixed = ["auto" if default is None else str(default)]
    fixed += [preset[dotted] for preset in PRESETS.values() if dotted in preset]
    if isinstance(default, str):
        return st.sampled_from(fixed + WORDS) | JUNK
    if isinstance(default, float):
        scaled = st.floats(-1.0, 1.0).map(lambda u: repr(default * 10.0**u))
        edges = st.sampled_from(["0", repr(-default), "1e300", "5e-324"])
        return st.sampled_from(fixed) | scaled | edges | JUNK
    ints = st.integers(-3, 2 * (default or 0) + 8).map(str)
    edges = st.sampled_from([str(2**20 + 1), str(10**7), str(2**62)])
    return st.sampled_from(fixed) | ints | edges | JUNK


@st.composite
def radiate_input(draw) -> str:
    """The text of a radiate state snapshot, often broken by a junk value at
    one key or cut short."""
    payload = dict(SNAPSHOT)
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(payload) + ["tau"]))
        junk = [None, "x", True, 1e999, [], {}, -1, 2.5, [[0, 0]], [1.0] * 29]
        payload[key] = draw(st.sampled_from(junk))
    text = json.dumps(payload)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


class TestExitContract:
    """Drawn configurations and radiate files, each a capped CLI child: every
    run exits 0, 2, 3 or 4, every failure ends stderr with its JSON record
    and leaves no output directory, and every success writes a manifest."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_every_run_keeps_the_exit_contract(self, data):
        scenario = data.draw(st.sampled_from(sorted(_SCHEMA.keys() - {"params"})))
        preset = data.draw(st.sampled_from([None, *sorted(PRESETS)]))
        keys = [f"{section}.{key}" for section in ("params", scenario)
                for key in _SCHEMA[section]]
        chosen = data.draw(st.lists(st.sampled_from(keys), max_size=4, unique=True))
        if f"{scenario}.tau_end" in keys and f"{scenario}.tau_end" not in chosen:
            chosen.append(f"{scenario}.tau_end")  # the default would run for minutes
        args = [scenario] + (["--preset", preset] if preset else [])
        for dotted in chosen:
            section, _, key = dotted.partition(".")
            raw = data.draw(raw_values(dotted, _SCHEMA[section][key][1]), label=dotted)
            args += ["--set", f"{dotted}={raw}"]
        with tempfile.TemporaryDirectory() as tmp:
            if scenario == "radiate":
                (Path(tmp) / "input.json").write_text(data.draw(radiate_input()))
                args += ["--set", f"radiate.state={Path(tmp) / 'input.json'}"]
            out = Path(tmp) / "out"
            rc, err = run_capped(args + ["--out", str(out)])
            assert rc in (0, 2, 3, 4), err
            if rc == 0:
                assert (out / "manifest.json").is_file()
                return
            record = json.loads(err.strip().splitlines()[-1])
            assert record["exit_code"] == rc and set(record) == {"error", "message", "exit_code"}
            assert not out.exists()
