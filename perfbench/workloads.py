"""Benchmark workloads: CLI invocations made from a seed, and the checks that
read back what each invocation wrote.

cascade: one ``evolve --preset fig2`` with seeded random phases.  The
    coupled-mode rhs and ``numerics.integrate_ode`` do nearly all the work,
    so propagator and rhs changes show here and radiation, potential or CSV
    changes should leave it flat.  Random phases because the paper puts the
    choice of +-m down to seed fluctuations; the load matches the
    deterministic preset.
survey: ``spectrum --preset fig1b`` plus RATE_CALLS ``rate --preset fig3``
    and RADIATE_CALLS ``radiate --preset fig4`` calls.  It runs every layer
    cascade bypasses (potential, stability, rate_model, radiation, the
    Bessel kernel, CSV output) and drives integrate_ode with a cheap real rhs
    and dense samples, so integrator overhead shows on both workloads.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

RATE_CALLS = 3
RADIATE_CALLS = 3
# fig4 band: ell 2, k0_rho 5 gives m_max 19.
FIG4_ELL, FIG4_K0_RHO, FIG4_M_MAX = 2, 5.0, 19
QUADRATURE_POINTS = 20
QUADRATURE_TOL = 1e-8


@dataclass(frozen=True)
class Op:
    """One CLI scenario call and the check of its artifacts."""

    name: str
    args: tuple[str, ...]
    out: Path
    check: Callable[[Path], list[str]]


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open(encoding="utf-8") as handle:
        handle.readline()  # "# manifest: <sha256>"
        header = next(csv.reader([handle.readline()]))
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    return header, data


def _longest_run(flags: np.ndarray) -> int:
    best = run = 0
    for flag in flags:
        run = run + 1 if flag else 0
        best = max(best, run)
    return best


def check_cascade(out: Path) -> list[str]:
    """Acceptance criterion 2: unit steps 0 -> 1 -> 2, omega plateaus at 1
    and 2, and the first |Phi_1| peak near 1/2."""
    header, data = _read_csv(out / "timeseries.csv")
    col = {name: i for i, name in enumerate(header)}
    crossing = {}
    for m in (1, 2):
        hits = np.nonzero(data[:, col[f"N_{m}"]] > 0.5)[0]
        if hits.size:
            crossing[m] = int(hits[0])
    if set(crossing) != {1, 2} or crossing[1] >= crossing[2]:
        return [f"N_1, N_2 do not cross 0.5 in order: {crossing}"]
    problems = []
    omega = data[:, col["mean_omega"]]
    for level in (1, 2):
        length = _longest_run(np.abs(omega - level) <= 0.05)
        if length < 50:
            problems.append(f"omega plateau at {level} lasts {length} < 50 samples")
    phi1 = np.hypot(data[:, col["re_phi_1"]], data[:, col["im_phi_1"]])
    peak = float(phi1[: crossing[2]].max())
    if abs(peak - 0.5) > 0.05:
        problems.append(f"first |Phi_1| peak {peak:.4f} not within 0.05 of 0.5")
    return problems


def check_spectrum(out: Path) -> list[str]:
    """Acceptance criterion 1: argmax_m within 1 of k0_rho."""
    rows = json.loads((out / "summary.json").read_text(encoding="utf-8"))["rows"]
    by_radius = {row["k0_rho"]: row["argmax_m"] for row in rows}
    problems = []
    for k0_rho in (2.0, 4.0, 6.0, 8.0):
        m_star = by_radius.get(k0_rho)
        if m_star is None or abs(m_star - round(k0_rho)) > 1:
            problems.append(f"argmax_m {m_star} at k0_rho {k0_rho}")
    return problems


def check_rate(out: Path) -> list[str]:
    """Acceptance criterion 3: N_6 wins the first transition over N_5."""
    header, data = _read_csv(out / "rates.csv")
    col = {name: i for i, name in enumerate(header)}
    done = np.nonzero(data[:, col["N_0"]] < 0.01)[0]
    if not done.size:
        return ["N_0 never falls below 0.01"]
    n6, n5 = data[done[0], col["N_6"]], data[done[0], col["N_5"]]
    residual = 1.0 - n6 - n5
    if n6 > 0.8 and n6 > n5 and residual < 0.02:
        return []
    return [f"split N_6={n6:.4f} N_5={n5:.4f} residual={residual:.4f}"]


def fig4_snapshot(rng: np.random.Generator) -> dict:
    """A fig4-band state with c_0 and c_5 macroscopic (weight of c_5 in
    [0.35, 0.65]) and about 1e-3 of seeded noise in every other mode."""
    size = 2 * FIG4_M_MAX + 1
    amps = 1e-3 * (rng.normal(size=size) + 1j * rng.normal(size=size)) / np.sqrt(2.0)
    weight = rng.uniform(0.35, 0.65)
    phases = np.exp(2j * np.pi * rng.uniform(size=2))
    amps[FIG4_M_MAX] = np.sqrt(1.0 - weight) * phases[0]
    amps[FIG4_M_MAX + 5] = np.sqrt(weight) * phases[1]
    amps /= np.linalg.norm(amps)
    return {"tau": 0.0, "m_max": FIG4_M_MAX, "re": amps.real.tolist(), "im": amps.imag.tolist()}


def _radiate_check(snapshot: dict, points: np.ndarray) -> Callable[[Path], list[str]]:
    """Acceptance criterion 4 on the pattern, plus seeded pattern.csv rows
    against the quadrature oracle ``radiation.field_quadrature``."""

    def check(out: Path) -> list[str]:
        from oamring.dynamics import StateVector
        from oamring.radiation import field_quadrature

        summary = json.loads((out / "components.json").read_text(encoding="utf-8"))
        problems = []
        if summary["equator_lobes"] != 5 or summary["dominant_ell_prime"] != -3:
            problems.append(
                f"{summary['equator_lobes']} lobes, dominant ell' "
                f"{summary['dominant_ell_prime']}"
            )
        _, data = _read_csv(out / "pattern.csv")
        amps = np.array(snapshot["re"]) + 1j * np.array(snapshot["im"])
        state = StateVector(tau=snapshot["tau"], amplitudes=amps)
        for row in data[points % data.shape[0]]:
            theta, phi, re_m, im_m = row[:4]
            oracle = field_quadrature(state, FIG4_ELL, FIG4_K0_RHO, theta, phi)
            if not abs(complex(re_m, im_m) - oracle) <= QUADRATURE_TOL:
                problems.append(f"pattern at ({theta}, {phi}) is off the quadrature")
        return problems

    return check


def _op(work: Path, name: str, args: list[str], check) -> Op:
    out = work / name
    return Op(name, tuple(args + ["--out", str(out)]), out, check)


def cascade(seed: int, work: Path) -> list[Op]:
    args = ["evolve", "--preset", "fig2", "--set", "evolve.seed_mode=random",
            "--set", f"evolve.rng_seed={seed}"]
    return [_op(work, "evolve", args, check_cascade)]


def survey(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = [_op(work, "spectrum", ["spectrum", "--preset", "fig1b"], check_spectrum)]
    for i in range(RATE_CALLS):
        seed_population = float(np.exp(rng.uniform(np.log(5e-7), np.log(2e-6))))
        args = ["rate", "--preset", "fig3", "--set", f"rate.seed_population={seed_population!r}"]
        ops.append(_op(work, f"rate{i}", args, check_rate))
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for i in range(RADIATE_CALLS):
        snapshot = fig4_snapshot(rng)
        path = inputs / f"snapshot{i}.json"
        path.write_text(json.dumps(snapshot), encoding="utf-8")
        points = rng.integers(0, 2**31, size=QUADRATURE_POINTS)
        args = ["radiate", "--preset", "fig4", "--set", f"radiate.state={path}"]
        ops.append(_op(work, f"radiate{i}", args, _radiate_check(snapshot, points)))
    return ops


WORKLOADS = {"cascade": cascade, "survey": survey}
