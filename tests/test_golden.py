"""Byte identity of a fixed set of runs: every artifact and every manifest's
``reproducible`` block hashes to its value in tests/golden.json.

Artifacts are hashed without their ``# manifest:`` line or ``manifest_hash``
key, and the reproducible block with radiate's input path made relative to
the runs' directory, because a radiate input's path enters the manifest hash.

A change that moves these bytes on purpose bumps ``oamring.__version__``,
since a manifest re-runs only under the version that wrote it, then rewrites
the file with

    OAMRING_WRITE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden.py

and says why in CHANGES.md.  On the recorded numpy and machine, the rewrite
refuses to move a hash at the recorded version.  The file records that
version at its top level, and a checkout of any other version fails here.
The hashes hold for the numpy version and machine recorded in the file;
anywhere else the test skips and says why.
"""

import hashlib
import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

from oamring import __version__
from oamring.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

ENVIRONMENT = {"numpy": np.__version__, "machine": platform.machine()}

# Run in order; "{name}" stands for an earlier run's output directory.
RUNS = {
    "potential-fig2": ["potential", "--preset", "fig2"],
    "spectrum-fig1b": ["spectrum", "--preset", "fig1b"],
    "rate-fig3": ["rate", "--preset", "fig3"],
    "rate-fig3-channel6": ["rate", "--preset", "fig3", "--set", "rate.channel=6"],
    "evolve-fig2-tau60": ["evolve", "--preset", "fig2", "--set", "evolve.tau_end=60"],
    "evolve-fig2-tau60-rerun": [
        "evolve", "--config", "{evolve-fig2-tau60}/manifest.json",
    ],
    # Crosses k = 1, 2 and 3, so its manifest pins a non-empty transitions record.
    "evolve-fig2-gamma0.5": [
        "evolve", "--preset", "fig2",
        "--set", "params.gamma=0.5", "--set", "evolve.tau_end=120",
    ],
    "evolve-fig2-random3": [
        "evolve", "--preset", "fig2", "--set", "evolve.tau_end=150",
        "--set", "evolve.seed_mode=random", "--set", "evolve.rng_seed=3",
    ],
    "radiate-fig2-random3": [
        "radiate", "--preset", "fig2",
        "--set", "radiate.state={evolve-fig2-random3}/snapshot.json",
    ],
    # A second far field: ell 2, k0_rho 5 and a band of 38 lags.
    "evolve-fig4-tau40": ["evolve", "--preset", "fig4", "--set", "evolve.tau_end=40"],
    "radiate-fig4-tau40": [
        "radiate", "--preset", "fig4",
        "--set", "radiate.state={evolve-fig4-tau40}/snapshot.json",
    ],
}

_HASH_LINE_PREFIXES = (b"# manifest: ", b'  "manifest_hash": ')


def artifact_hash(path: Path) -> str:
    lines = path.read_bytes().splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith(_HASH_LINE_PREFIXES)]
    return hashlib.sha256(b"".join(kept)).hexdigest()


def reproducible_hash(out: Path, root: Path) -> str:
    block = json.loads((out / "manifest.json").read_text())["reproducible"]
    config = block["config"]
    if config.get("radiate.state"):
        config["radiate.state"] = Path(config["radiate.state"]).relative_to(root).as_posix()
    canon = json.dumps(block, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden(tmp_path_factory) -> dict:
    """The recorded hashes, next to the ones this checkout produces."""
    writing = os.environ.get("OAMRING_WRITE_GOLDEN") == "1"
    recorded = json.loads(GOLDEN.read_text())
    if not writing:
        if recorded["tool_version"] != __version__:
            pytest.fail(f"golden hashes were recorded by oamring {recorded['tool_version']}, "
                        f"this is {__version__}")
        if recorded["environment"] != ENVIRONMENT:
            pytest.skip(
                f"golden hashes were recorded on {recorded['environment']}, "
                f"this is {ENVIRONMENT}"
            )
    root = tmp_path_factory.mktemp("golden")
    dirs = {name: str(root / name) for name in RUNS}
    runs = {}
    for name, args in RUNS.items():
        out = root / name
        assert main([arg.format(**dirs) for arg in args] + ["--out", str(out)]) == 0
        hashes = {
            p.name: artifact_hash(p) for p in sorted(out.iterdir())
            if p.name != "manifest.json"
        }
        hashes["manifest.json#reproducible"] = reproducible_hash(out, root)
        runs[name] = hashes
    if writing:
        moved = sorted(name for name, hashes in runs.items()
                       if recorded["runs"].get(name, hashes) != hashes)
        if moved and (recorded["tool_version"], recorded["environment"]) == (
                __version__, ENVIRONMENT):
            pytest.fail(f"{moved} moved at the recorded version {__version__}; "
                        "bump oamring.__version__ before rewriting the golden hashes")
        recorded = {"environment": ENVIRONMENT, "tool_version": __version__, "runs": runs}
        GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return {"recorded": recorded["runs"], "computed": runs}


@pytest.mark.parametrize("name", list(RUNS))
def test_run_is_byte_identical(golden, name):
    assert golden["computed"][name] == golden["recorded"][name]
