"""Run configuration: plain key = value files with one section per scenario,
named presets for the reference scenarios, and strict validation.

Precedence, lowest to highest: built-in defaults, preset, config file,
command-line --set overrides.  Presets never silently win over user keys;
any preset key a user replaces is recorded in the run manifest.
"""

from __future__ import annotations

import configparser
import io
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigurationError
from .numerics import OdeControls
from .potential import SystemParams

__all__ = ["RunConfig", "parse_config", "PRESETS", "SCENARIOS"]

SCENARIOS = ("potential", "spectrum", "evolve", "rate", "radiate")


def _as_float(raw: str) -> float:
    return float(raw)


def _as_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        value = float(raw)  # float forms such as 3.0 and 1e3
    # from 2**53 on, the float may already have rounded the integer written
    if not (abs(value) < 2**53 and value.is_integer()):
        raise ValueError("not an exact integer")
    return int(value)


def _as_int_or_auto(raw: str):
    return None if raw.strip().lower() == "auto" else _as_int(raw)


def _as_str(raw: str) -> str:
    return raw.strip()


def _choice(*allowed: str):
    def convert(raw: str) -> str:
        val = raw.strip()
        if val not in allowed:
            raise ValueError(f"must be one of {allowed}")
        return val

    return convert


# The step controls of both integrating scenarios, with OdeControls' defaults.
_ODE_KEYS = {f.name: (_as_float, f.default) for f in fields(OdeControls)}

# (converter, default) per key; this is the whole configuration surface.
_SCHEMA: dict[str, dict[str, tuple]] = {
    "params": {
        "gamma": (_as_float, 0.2),
        "epsilon": (_as_float, 0.1),
        "k0_rho": (_as_float, 1.0),
        "ell": (_as_int, 1),
        "m_max": (_as_int_or_auto, None),
        "k_max": (_as_int_or_auto, None),
    },
    "potential": {
        "samples": (_as_int, 512),
    },
    "spectrum": {
        "k0_rho_min": (_as_float, 0.25),
        "k0_rho_max": (_as_float, 8.0),
        "k0_rho_step": (_as_float, 0.25),
        "m_lo": (_as_int, 1),
        "m_hi": (_as_int, 12),
    },
    "evolve": {
        "tau_end": (_as_float, 200.0),
        "stride": (_as_float, 1.0),
        "seed_amplitude": (_as_float, 1e-4),
        "seed_mode": (_choice("deterministic", "random"), "deterministic"),
        "rng_seed": (_as_int, 0),
        "snapshot": (_choice("final", "max_bunching"), "final"),
        "snapshot_k": (_as_int, 1),
        **_ODE_KEYS,
        "phi_band": (_as_int, 8),
    },
    "rate": {
        "tau_end": (_as_float, 300.0),
        "stride": (_as_float, 0.25),
        "seed_population": (_as_float, 1e-6),
        "channel": (_as_int, 0),  # 0 keeps every harmonic
        "m_max": (_as_int_or_auto, None),
        **_ODE_KEYS,
    },
    "radiate": {
        "state": (_as_str, ""),
        "phi_json": (_as_str, ""),
        "theta_count": (_as_int, 181),
        "phi_count": (_as_int, 256),
        "m_band": (_as_int_or_auto, None),
        "component_band": (_as_int, 8),
    },
}

# Reference scenarios; every value below restates the source configuration,
# with epsilon pinned to 0.1 where the source leaves it unstated (the pin is
# recorded in the manifest like any other preset key).
PRESETS: dict[str, dict[str, str]] = {
    "fig1b": {
        "params.gamma": "0.2",
        "params.epsilon": "0.1",
        "params.ell": "1",
        "spectrum.k0_rho_min": "0.25",
        "spectrum.k0_rho_max": "8.0",
        "spectrum.k0_rho_step": "0.25",
        "spectrum.m_lo": "1",
        "spectrum.m_hi": "12",
    },
    "fig2": {
        "params.gamma": "0.05",
        "params.epsilon": "0.1",
        "params.k0_rho": "1.0",
        "params.ell": "1",
        "evolve.tau_end": "1200",
        "evolve.stride": "1.0",
        "evolve.seed_amplitude": "1e-4",
        "evolve.snapshot": "max_bunching",
        "evolve.snapshot_k": "1",
    },
    "fig3": {
        "params.gamma": "1.0",
        "params.epsilon": "0.1",
        "params.k0_rho": "5.605",
        "params.ell": "2",
        "rate.tau_end": "300",
        "rate.stride": "0.25",
        "rate.seed_population": "1e-6",
    },
    "fig4": {
        "params.gamma": "0.2",
        "params.epsilon": "0.1",
        "params.k0_rho": "5.0",
        "params.ell": "2",
        "evolve.tau_end": "900",
        "evolve.stride": "1.0",
        "evolve.seed_amplitude": "1e-4",
        "evolve.snapshot": "max_bunching",
        "evolve.snapshot_k": "5",
        "radiate.theta_count": "181",
        "radiate.phi_count": "256",
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for one scenario run."""

    scenario: str
    params: SystemParams
    options: dict
    output_dir: Path
    preset: str | None
    resolved: dict = field(repr=False)  # flat section.key -> value, all keys
    overridden_preset_keys: tuple = ()


def _parse_config_text(text: str) -> dict[str, str]:
    """Key = value sections -> flat dict; unknown keys are rejected."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config: {exc}") from exc
    flat: dict[str, str] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigurationError(
                f"unknown config section [{section}]; expected one of "
                f"{sorted(_SCHEMA)}"
            )
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigurationError(
                    f"unknown key '{key}' in section [{section}]; allowed: "
                    f"{sorted(_SCHEMA[section])}"
                )
            flat[f"{section}.{key}"] = raw
    return flat


def _manifest_config_layer(
    path: Path, text: str
) -> tuple[dict[str, str], str | None, tuple]:
    """Pull the resolved config (plus preset provenance) out of a manifest."""
    try:
        block = json.loads(text)["reproducible"]
        flat, preset = block["config"], block.get("preset")
        overridden = tuple(block.get("overridden_preset_keys", ()))
        if not isinstance(flat, dict):
            raise TypeError("reproducible.config is not a mapping")
        keys_ok = all(isinstance(key, str) for key in overridden)
        if preset not in (None, *PRESETS) or not keys_ok:
            raise TypeError("reproducible.preset provenance is malformed")
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ConfigurationError(f"{path} is not a run manifest: {exc}") from exc
    # null entries mean "left at default"; omitting them reproduces that
    layer = {key: str(value) for key, value in flat.items() if value is not None}
    return layer, preset, overridden


def _config_file_layer(path: Path) -> tuple[dict[str, str], str | None, tuple]:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        return _manifest_config_layer(path, text)
    return _parse_config_text(text), None, ()


def _convert(dotted: str, raw: str):
    section, _, key = dotted.partition(".")
    converter = _SCHEMA[section][key][0]
    try:
        value = converter(raw)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError("not a finite number")
    except (OverflowError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad value for {dotted}: {raw!r} ({exc})") from exc
    return value


def parse_config(
    scenario: str,
    config_path: str | Path | None = None,
    preset: str | None = None,
    overrides: list[str] | None = None,
    output_dir: str | Path = "oamring_out",
) -> RunConfig:
    """Resolve every configuration layer into a validated RunConfig.

    ``overrides`` entries look like "section.key=value" (the --set flag).
    """
    if scenario not in SCENARIOS:
        raise ConfigurationError(f"unknown scenario '{scenario}'")
    if preset is not None and preset not in PRESETS:
        raise ConfigurationError(
            f"unknown preset '{preset}'; available: {sorted(PRESETS)}"
        )

    layers: list[tuple[str, dict[str, str]]] = []
    inherited_preset: str | None = None
    inherited_overrides: tuple = ()
    if preset:
        layers.append(("preset", PRESETS[preset]))
    if config_path is not None:
        file_layer, inherited_preset, inherited_overrides = _config_file_layer(
            Path(config_path)
        )
        layers.append(("config", file_layer))
    if overrides:
        cli_layer: dict[str, str] = {}
        for entry in overrides:
            dotted, sep, raw = entry.partition("=")
            if not sep:
                raise ConfigurationError(
                    f"--set expects section.key=value, got {entry!r}"
                )
            cli_layer[dotted.strip()] = raw.strip()
        layers.append(("cli", cli_layer))

    raw_values: dict[str, str] = {}
    provenance: dict[str, str] = {}
    for origin, layer in layers:
        for dotted, raw in layer.items():
            section, _, key = dotted.partition(".")
            if section not in _SCHEMA or key not in _SCHEMA[section]:
                raise ConfigurationError(f"unknown config key '{dotted}'")
            raw_values[dotted] = raw
            provenance[dotted] = origin

    resolved: dict = {}
    for section, keys in _SCHEMA.items():
        for key, (_, default) in keys.items():
            dotted = f"{section}.{key}"
            if dotted in raw_values:
                resolved[dotted] = _convert(dotted, raw_values[dotted])
            else:
                resolved[dotted] = default

    # A manifest rerun is the same run: keep its preset provenance unless the
    # caller names a preset explicitly.
    effective_preset = preset or inherited_preset
    if preset:
        overridden = tuple(
            sorted(
                dotted
                for dotted, origin in provenance.items()
                if origin != "preset" and dotted in PRESETS[preset]
            )
        )
    elif inherited_preset:
        extra = {
            dotted
            for dotted, origin in provenance.items()
            if origin == "cli" and dotted in PRESETS.get(inherited_preset, {})
        }
        overridden = tuple(sorted(set(inherited_overrides) | extra))
    else:
        overridden = ()

    params = SystemParams(
        gamma=resolved["params.gamma"],
        epsilon=resolved["params.epsilon"],
        k0_rho=resolved["params.k0_rho"],
        ell=resolved["params.ell"],
        m_max=resolved["params.m_max"],
        k_max=resolved["params.k_max"],
    )
    # Echo the derived truncations so the manifest pins them explicitly.
    resolved["params.m_max"] = params.m_max
    resolved["params.k_max"] = params.k_max

    options = {
        key: resolved[f"{scenario}.{key}"] for key in _SCHEMA[scenario]
    }
    return RunConfig(
        scenario=scenario,
        params=params,
        options=options,
        output_dir=Path(output_dir),
        preset=effective_preset,
        resolved=resolved,
        overridden_preset_keys=overridden,
    )
