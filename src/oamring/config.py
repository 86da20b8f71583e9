"""Run configuration: plain key = value files with one section per scenario,
named presets for the reference scenarios, and strict validation.

Precedence, lowest to highest: built-in defaults, preset, config file,
command-line --set overrides.  Presets never silently win over user keys;
any preset key whose resolved value differs from the preset's is recorded
in the run manifest.
"""

from __future__ import annotations

import configparser
import io
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import __version__
from .dynamics import DEFAULT_SEED_AMPLITUDE
from .errors import ConfigurationError
from .numerics import OdeControls
from .potential import DEFAULT_EPSILON, SystemParams
from .rate_model import DEFAULT_SEED_POPULATION

__all__ = ["RunConfig", "parse_config", "PRESETS", "SCENARIOS"]

SCENARIOS = ("potential", "spectrum", "evolve", "rate", "radiate")


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


def _choice(*allowed: str):
    def convert(raw: str) -> str:
        val = raw.strip()
        if val not in allowed:
            raise ValueError(f"must be one of {allowed}")
        return val

    return convert


def _positive(raw: str) -> float:
    value = float(raw)
    if value <= 0.0:
        raise ValueError("must be > 0.0")
    return value


# Points of V(phi) in samples.csv; the largest bunching lag of
# timeseries.csv's Phi columns and the largest |m| of avg_intensity.csv's
# components.
POTENTIAL_SAMPLES = 512
COMPONENT_BAND = 8

# (converter, default) per key; this is the whole configuration surface.  A
# converter rejects a value outside the key's accepted range with ValueError.
_SCHEMA: dict[str, dict[str, tuple]] = {
    "params": {
        "gamma": (float, 0.2),
        "epsilon": (float, DEFAULT_EPSILON),
        "k0_rho": (float, 1.0),
        "ell": (_as_int, 1),
        "m_max": (_as_int_or_auto, None),
    },
    "potential": {},
    "spectrum": {},
    "evolve": {
        "tau_end": (float, 200.0),
        "stride": (float, 1.0),
        "seed_amplitude": (float, DEFAULT_SEED_AMPLITUDE),
        "seed_mode": (_choice("deterministic", "random"), "deterministic"),
        "rng_seed": (_as_int, 0),
        "snapshot": (_choice("final", "max_bunching"), "final"),
        "snapshot_k": (_as_int, 1),
        "rel_tol": (_positive, OdeControls.rel_tol),
        "abs_tol": (_positive, OdeControls.abs_tol),
    },
    "rate": {
        "tau_end": (float, 300.0),
        "stride": (float, 0.25),
        "seed_population": (float, DEFAULT_SEED_POPULATION),
        "channel": (_as_int, 0),  # 0 keeps every harmonic
    },
    "radiate": {
        "state": (str.strip, ""),
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
    """Key = value sections -> flat section.key dict."""
    # No header can name the empty section, so a [DEFAULT] section is parsed
    # as an ordinary one and rejected below instead of leaking its keys into
    # every other section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.read_file(io.StringIO(text))
    unknown = sorted(set(parser.sections()) - _SCHEMA.keys())
    if unknown:  # checked here: an empty section adds no key to parse_config
        raise ValueError(
            f"unknown config section {unknown}; expected one of {sorted(_SCHEMA)}"
        )
    return {
        f"{section}.{key}": raw
        for section in parser.sections()
        for key, raw in parser.items(section)
    }


def _config_file_layer(path: Path) -> tuple[dict[str, str], str | None]:
    """The flat section.key layer of a key = value file, or of a run manifest
    together with its preset.  A manifest re-runs only under the version that
    wrote it."""
    try:
        text = path.read_text(encoding="utf-8")
        if not text.lstrip().startswith("{"):
            return _parse_config_text(text), None
        block = json.loads(text)["reproducible"]
        flat, preset, version = block["config"], block.get("preset"), block.get("tool_version")
        if version != __version__:
            raise ValueError(f"reproducible.tool_version is {version!r}, not {__version__!r}: "
                             "a manifest re-runs only under the version that wrote it")
        if not isinstance(flat, dict):
            raise TypeError("reproducible.config is not a mapping")
        if preset not in (None, *PRESETS):
            raise TypeError("reproducible.preset is not a preset name or null")
    except (OSError, ValueError, KeyError, TypeError, RecursionError,
            configparser.Error) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return {key: str(value) for key, value in flat.items()}, preset


def _convert(converter, dotted: str, raw: str):
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

    file_layer, inherited_preset = (
        ({}, None) if config_path is None else _config_file_layer(Path(config_path))
    )
    cli_layer: dict[str, str] = {}
    for entry in overrides or ():
        dotted, sep, raw = entry.partition("=")
        if not sep:
            raise ConfigurationError(f"--set expects section.key=value, got {entry!r}")
        cli_layer[dotted.strip()] = raw.strip()

    raw_values = {**PRESETS.get(preset, {}), **file_layer, **cli_layer}
    for dotted in raw_values:
        section, _, key = dotted.partition(".")
        if key not in _SCHEMA.get(section, ()):
            known = f"[{section}] keys" if section in _SCHEMA else "sections"
            allowed = sorted(_SCHEMA.get(section, _SCHEMA))
            raise ConfigurationError(
                f"unknown config key '{dotted}'; {known}: {allowed}"
            )

    # A manifest rerun keeps its preset unless the caller names one.  A key of
    # that preset is overridden when its typed value is not the preset's.
    preset = preset or inherited_preset
    pinned = PRESETS.get(preset, {})
    resolved: dict = {}
    overridden = []
    for section, keys in _SCHEMA.items():
        for key, (conv, default) in keys.items():
            dotted = f"{section}.{key}"
            raw = raw_values.get(dotted)
            resolved[dotted] = default if raw is None else _convert(conv, dotted, raw)
            if dotted in pinned and resolved[dotted] != conv(pinned[dotted]):
                overridden.append(dotted)

    params = SystemParams(**{f.name: resolved[f"params.{f.name}"] for f in fields(SystemParams)})
    # Echo the params, derived truncations included, so the manifest pins them.
    resolved.update({f"params.{key}": value for key, value in asdict(params).items()})

    options = {key: resolved[f"{scenario}.{key}"] for key in _SCHEMA[scenario]}
    return RunConfig(
        scenario=scenario,
        params=params,
        options=options,
        output_dir=Path(output_dir),
        preset=preset,
        resolved=resolved,
        overridden_preset_keys=tuple(sorted(overridden)),
    )
