"""CLI and configuration tests: precedence, validation, artifacts, manifest
reproducibility, and exit codes."""

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from oamring.cli import _ROWS_PER_WRITE, _timeseries, _write_csv, main
from oamring.config import PRESETS, parse_config
from oamring.dynamics import (
    StateVector,
    band_edge_occupancy,
    bunching,
    default_initial_state,
    evolve,
    mean_angular_velocity,
    populations,
)
from oamring.errors import ConfigurationError, ToleranceError
from oamring.numerics import OdeControls
from oamring.potential import fourier_coefficients

QUICK_EVOLVE = [
    "--set", "evolve.tau_end=20",
    "--set", "evolve.stride=2.0",
]


def read_manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


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

    def test_step_controls_default_to_the_integrators(self):
        want = {"rel_tol": 1e-9, "abs_tol": 1e-12, "max_step": 10.0, "initial_step": 1e-4}
        assert asdict(OdeControls()) == want
        for scenario in ("evolve", "rate"):
            resolved = parse_config(scenario).resolved
            assert {key: resolved[f"{scenario}.{key}"] for key in want} == want

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

    def test_rate_single_channel_overlay(self, tmp_path):
        rc = main([
            "rate", "--preset", "fig3", "--out", str(tmp_path),
            "--set", "rate.channel=6", "--set", "rate.tau_end=30",
            "--set", "rate.m_max=12",
        ])
        assert rc == 0
        header = (tmp_path / "rates.csv").read_text().splitlines()[1].split(",")
        assert header[-2:] == ["N0_analytic", "Nk_analytic"]
        manifest = read_manifest(tmp_path)
        assert manifest["reproducible"]["derived"]["single_channel_k"] == 6

    def test_rate_multi_channel_has_no_overlay(self, tmp_path):
        rc = main(["rate", "--preset", "fig3", "--out", str(tmp_path),
                   "--set", "rate.tau_end=10"])
        assert rc == 0
        header = (tmp_path / "rates.csv").read_text().splitlines()[1]
        assert "analytic" not in header

    def test_evolve_then_radiate_roundtrip(self, tmp_path):
        ev = tmp_path / "ev"
        rc = main(["evolve", "--preset", "fig2", "--out", str(ev)] + QUICK_EVOLVE)
        assert rc == 0
        snapshot = ev / "snapshot.json"
        rad = tmp_path / "rad"
        rc = main([
            "radiate", "--preset", "fig2", "--out", str(rad),
            "--set", f"radiate.state={snapshot}",
            "--set", "radiate.theta_count=19", "--set", "radiate.phi_count=32",
        ])
        assert rc == 0
        summary = json.loads((rad / "components.json").read_text())
        assert summary["dominant_ell_prime"] == 1  # essentially uniform ring

    def test_radiate_from_phi_list(self, tmp_path):
        phi_file = tmp_path / "phi.json"
        band = 6
        coeffs = [[0.0, 0.0]] * (2 * band + 1)
        coeffs[band] = [1.0, 0.0]
        coeffs[band + 5] = [0.25, 0.25]
        coeffs[band - 5] = [0.25, -0.25]
        phi_file.write_text(json.dumps({"band": band, "coefficients": coeffs}))
        out = tmp_path / "rad"
        rc = main([
            "radiate", "--out", str(out),
            "--set", f"radiate.phi_json={phi_file}",
            "--set", "params.k0_rho=5.0", "--set", "params.ell=2",
            "--set", "radiate.theta_count=19", "--set", "radiate.phi_count=64",
        ])
        assert rc == 0
        summary = json.loads((out / "components.json").read_text())
        assert summary["dominant_ell_prime"] == -3

    def test_radiate_requires_exactly_one_input(self, tmp_path):
        assert main(["radiate", "--out", str(tmp_path)]) == 2
        assert main([
            "radiate", "--out", str(tmp_path),
            "--set", "radiate.state=a", "--set", "radiate.phi_json=b",
        ]) == 2

    def test_all_columns_finite_guard(self, tmp_path):
        for bad in (np.nan, np.inf, -np.inf):
            for col in range(3):
                columns = [np.arange(4), np.linspace(0.0, 1.0, 4), np.full(4, 0.25)]
                columns[col] = columns[col].astype(float)
                columns[col][2] = bad
                path = tmp_path / f"bad_{col}.csv"
                with pytest.raises(ToleranceError) as info:
                    _write_csv(path, "h", ["k", "x", "y"], columns)
                assert ["k", "x", "y"][col] in str(info.value)
                assert not path.exists()

    def test_columns_match_row_wise_reference(self, tmp_path):
        n = 2 * _ROWS_PER_WRITE + 5
        rng = np.random.default_rng(7)
        ints = rng.integers(-(10**12), 10**12, n)
        ints[:5] = [0, 3, -7, 2**53 + 1, -(2**62)]
        floats = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
        floats[:7] = [-0.0, 5e-324, 1e-300, 1e16, 0.1 + 0.2, -1e308, 0.25]
        header = ["k", "a", "b"]
        columns = [ints, floats, floats[::-1]]
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        _write_csv(new, "h", header, columns)
        reference_write_csv(ref, "h", header, zip(*columns))
        assert new.read_bytes() == ref.read_bytes()
        lines = new.read_text().splitlines()
        assert lines[2].startswith("0,-0.0,") and lines[3].startswith("3,5e-324,")

    def test_non_finite_output_exits_three_without_csv(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            "oamring.cli.pair_potential", lambda phis, params: np.full(phis.shape, np.nan)
        )
        assert main(["potential", "--preset", "fig2", "--out", str(tmp_path)]) == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ToleranceError" and record["exit_code"] == 3
        assert not (tmp_path / "samples.csv").exists()


class TestTimeseries:
    """The array-form timeseries against the per-sample observables."""

    @pytest.fixture(scope="class")
    def traj(self):
        cfg = parse_config("evolve", preset="fig2")
        initial = default_initial_state(cfg.params, mode="random", rng_seed=5)
        return evolve(initial, fourier_coefficients(cfg.params), tau_end=20.0, stride=0.5)

    def test_columns_match_per_sample_observables(self, traj):
        phi_band = 8
        table, drift_max, edge_max, _ = _timeseries(traj, phi_band, None)
        assert table.shape[0] == len(traj.times)
        drifts, edges = [], []
        for row, tau, amps in zip(table, traj.times, traj.states):
            state = StateVector(tau=float(tau), amplitudes=amps)
            drift = abs(populations(state).sum() - 1.0)
            bunch = bunching(state)
            phis = np.array([bunch.coefficient(k) for k in range(phi_band + 1)])
            want = np.concatenate(
                [[tau, drift], populations(state), phis.real, phis.imag,
                 [mean_angular_velocity(state)]]
            )
            assert np.max(np.abs(row - want)) < 1e-15
            drifts.append(drift)
            edges.append(band_edge_occupancy(amps))
        assert abs(drift_max - max(drifts)) < 1e-15
        assert edge_max == max(edges)

    def test_snapshot_index_is_first_largest_bunching(self, traj):
        size = traj.states.shape[1]
        assert _timeseries(traj, 8, None)[3] == len(traj.times) - 1
        for k in range(size):
            metrics = [
                abs(bunching(StateVector(0.0, amps)).coefficient(k))
                for amps in traj.states
            ]
            best, index = -1.0, None
            for i, metric in enumerate(metrics):
                if metric > best:
                    best, index = metric, i
            got = _timeseries(traj, 8, k)[3]
            if k == 0:
                # |Phi_0| is the norm, equal at every sample up to rounding
                assert metrics[got] >= best - 1e-15
            else:
                assert got == index


class TestReproducibility:
    @staticmethod
    def artifact_bytes(out: Path) -> dict:
        return {
            p.name: p.read_bytes()
            for p in sorted(out.iterdir())
            if p.name != "manifest.json"
        }

    def rerun_and_compare(self, tmp_path, scenario, args):
        first = tmp_path / "first"
        rc = main([scenario, "--out", str(first)] + args)
        assert rc == 0
        second = tmp_path / "second"
        rc = main([
            scenario, "--config", str(first / "manifest.json"), "--out", str(second)
        ])
        assert rc == 0
        assert self.artifact_bytes(first) == self.artifact_bytes(second)
        a, b = read_manifest(first), read_manifest(second)
        assert a["reproducible"] == b["reproducible"]
        assert a["manifest_hash"] == b["manifest_hash"]

    def test_potential_rerun_byte_identical(self, tmp_path):
        self.rerun_and_compare(tmp_path, "potential", ["--preset", "fig2"])

    def test_evolve_rerun_byte_identical(self, tmp_path):
        self.rerun_and_compare(
            tmp_path, "evolve", ["--preset", "fig2"] + QUICK_EVOLVE
        )

    def test_random_seed_mode_rerun_byte_identical(self, tmp_path):
        args = QUICK_EVOLVE + [
            "--set", "evolve.seed_mode=random", "--set", "evolve.rng_seed=3",
        ]
        self.rerun_and_compare(tmp_path, "evolve", ["--preset", "fig2"] + args)

    def test_large_seed_survives_manifest_rerun(self, tmp_path):
        seed = 2**53 + 1
        args = QUICK_EVOLVE + [
            "--set", "evolve.seed_mode=random", "--set", f"evolve.rng_seed={seed}",
        ]
        self.rerun_and_compare(tmp_path, "evolve", ["--preset", "fig2"] + args)
        config = read_manifest(tmp_path / "second")["reproducible"]["config"]
        assert config["evolve.rng_seed"] == seed

    def test_manifest_echoes_resolved_truncations(self, tmp_path):
        rc = main(["potential", "--preset", "fig2", "--out", str(tmp_path)])
        assert rc == 0
        config = read_manifest(tmp_path)["reproducible"]["config"]
        assert config["params.m_max"] == 14
        assert config["params.k_max"] == 28


class TestExitCodes:
    @pytest.mark.parametrize(
        "scenario, override",
        [
            ("evolve", "evolve.rng_seed=inf"),
            ("evolve", "params.k0_rho=inf"),
            ("evolve", "evolve.tau_end=inf"),
            ("evolve", "evolve.phi_band=-1"),
            ("evolve", "evolve.phi_band=-2"),
            ("radiate", "radiate.m_band=-1"),
            ("radiate", "radiate.component_band=-1"),
            ("rate", "rate.m_max=-1"),
            ("potential", "potential.samples=-3"),
            ("potential", "params.epsilon=1e-9"),
            ("potential", "params.k0_rho=1e6"),
            ("evolve", "evolve.seed_mode=random evolve.rng_seed=-1"),
        ],
    )
    def test_bad_value_exits_two_with_record(self, tmp_path, capsys, scenario, override):
        phi_file = tmp_path / "phi.json"
        phi_file.write_text(json.dumps({"band": 1, "coefficients": [[0, 0], [1, 0], [0, 0]]}))
        args = [scenario, "--out", str(tmp_path / "out")]
        for setting in override.split():
            args += ["--set", setting]
        if scenario == "radiate":
            args += ["--set", f"radiate.phi_json={phi_file}"]
        assert main(args) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigurationError"
        assert record["exit_code"] == 2

    @pytest.mark.parametrize(
        "write",
        [
            lambda path: path.mkdir(),
            lambda path: path.write_bytes(b"[params]\ngamma = 0.3 \xff\n"),
            lambda path: path.write_text(json.dumps({"reproducible": {"config": [1]}})),
            lambda path: path.write_text(
                json.dumps({"reproducible": {"config": {}, "overridden_preset_keys": 5}})
            ),
            lambda path: path.write_text(
                json.dumps({"reproducible": {"config": {}, "preset": ["fig2"]}})
            ),
        ],
        ids=["directory", "not-utf8", "list-config", "int-overrides", "list-preset"],
    )
    def test_unreadable_config_file_exits_two(self, tmp_path, capsys, write):
        path = tmp_path / "run.conf"
        write(path)
        rc = main(["potential", "--out", str(tmp_path), "--config", str(path)])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigurationError" and record["exit_code"] == 2
        assert str(path) in record["message"]

    @pytest.mark.parametrize("lag", [0, 29])  # the default band has 2*m_max = 28
    def test_snapshot_lag_outside_band_exits_two(self, tmp_path, capsys, lag):
        rc = main(["evolve", "--out", str(tmp_path),
                   "--set", "evolve.snapshot=max_bunching",
                   "--set", f"evolve.snapshot_k={lag}"])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigurationError"
        assert "snapshot_k" in record["message"]

    def test_configuration_error_is_two(self, tmp_path, capsys):
        rc = main(["evolve", "--out", str(tmp_path),
                   "--set", "params.gamma=-1"])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigurationError"

    def test_tolerance_failure_is_three(self, tmp_path):
        rc = main([
            "evolve", "--out", str(tmp_path),
            "--set", "params.gamma=5.0", "--set", "evolve.tau_end=60",
            "--set", "evolve.rel_tol=1e-2", "--set", "evolve.abs_tol=1e-2",
            "--set", "evolve.max_step=5.0",
        ])
        assert rc == 3

    def test_overflowing_coupling_exits_three(self, tmp_path, capsys):
        # gamma = 1e308 overflows the nonlinear term to inf and NaN; the
        # integrator must shrink its step to underflow, not retry forever.
        with pytest.warns(RuntimeWarning):
            rc = main(["evolve", "--out", str(tmp_path),
                       "--set", "params.gamma=1e308", "--set", "evolve.tau_end=2"])
        assert rc == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "IntegrationError"

    @pytest.mark.parametrize(
        "kind, payload",
        [
            ("state", {"m_max": 19, "re": [0.0] * 19 + [1.0] + [0.0] * 19, "im": [0.0]}),
            ("state", {"m_max": 1, "re": [0.0, 1.0, float("nan")], "im": [0.0] * 3}),
            ("state", {"m_max": 1, "re": [0.0, 1.0, 0.0], "im": [0.0, float("inf"), 0.0]}),
            ("state", {"m_max": 1, "re": [0.0, 1.0, 0.0], "im": [0.0] * 3, "tau": "x"}),
            ("phi_json", {"band": 1, "coefficients": [[0, 0], [1, 0], [float("nan"), 0]]}),
            ("state", {"m_max": 14.5, "re": [0.0] * 14 + [1.0] + [0.0] * 14, "im": [0.0] * 29}),
            ("phi_json", {"band": 1.7, "coefficients": [[0, 0], [1, 0], [0, 0]]}),
            ("state", {"m_max": 14, "re": [0.0] * 14 + [1.0] + [0.0] * 14,
                       "im": [0.0] * 29, "tau": True}),
            ("state", {"m_max": 14, "re": [0.0] * 14 + [True] + [0.0] * 14,
                       "im": [False] * 29}),
            ("phi_json", {"band": 1, "coefficients": [[0, 0], [True, 0], [0, 0]]}),
            ("state", {"m_max": 14, "re": [0.0] * 14 + [1.0] + [0.0] * 13 + [10**400],
                       "im": [0.0] * 29}),
            ("state", {"m_max": 14, "re": [0.0] * 14 + [2.0] + [0.0] * 14,
                       "im": [0.0] * 29}),
            ("phi_json", {"band": 1, "coefficients": [[0.75, 0.75], [1, 0], [0.75, -0.75]]}),
        ],
        ids=[
            "short-im", "nan-re", "inf-im", "bad-tau", "nan-phi", "float-m_max", "float-band",
            "bool-tau", "bool-re-im", "bool-phi", "huge-int-re", "norm-4-state",
            "phi-above-one",
        ],
    )
    def test_bad_radiate_input_file_exits_two(self, tmp_path, capsys, kind, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        rc = main(["radiate", "--out", str(tmp_path / "out"),
                   "--set", f"radiate.{kind}={path}"])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigurationError"
        assert str(path) in record["message"]

    def test_truncation_failure_is_four(self, tmp_path):
        rc = main([
            "evolve", "--out", str(tmp_path),
            "--set", "params.ell=1", "--set", "params.m_max=3",
            "--set", "evolve.seed_amplitude=1e-2",
            "--set", "evolve.tau_end=5",
        ])
        assert rc == 4
