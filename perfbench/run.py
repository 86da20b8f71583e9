"""oamring benchmark runner.

    python3 perfbench/run.py --workload {cascade,survey} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Every operation is one oamring CLI
call (``oamring.cli.main`` on the sources under ``src/``) in a fresh child
process; children run one at a time with one BLAS/OpenMP thread.  A round is
the workload's list of operations, made from the seed; rounds repeat until
S seconds have passed, and every operation's artifacts are checked.

--trace 0 prints the end-to-end metrics (times at reference host speed, see
REF_S):
  setup_s      spawn to the end of ``import oamring.cli`` and parse_config,
               median over SETUP_PROBES set-up-only children and every
               operation's child
  wall_s       time from parse_config to the end of main, per operation
               the median over rounds, summed over the round's operations
  peak_rss_mb  largest peak resident set of any operation's child
  ok_ratio     operations that exited 0 and passed their check, over those
               attempted
--trace 1 alternates untraced and traced rounds (at least one of each) and
prints the per-layer metrics of spans.py, medians over traced rounds.

Limits: wall clock (CLOCK_MONOTONIC) and process rusage only; no hardware
counters and no system-wide tracing.  Each child also times a fixed
reference loop (child.reference_work) while it runs, and both times are
scaled by REF_S over that loop's median, which takes out most of the host's
minute-scale speed drift; the unscaled times stay in the run record.

The last stdout line is the result and the line before it the environment
record.  Each run also appends a record with every round's values to
--record, the input of compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import ZERO, layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0  # a run, set-up probes included, ends within this
# child.reference_work's median time on a quiet 2-vCPU x86-64 VM (Python
# 3.11, numpy 2.4).  A child's setup_s and wall_s are scaled by REF_S over the
# median the child measured, so they read as seconds on that host at that
# speed however busy the machine's other tenants are.
REF_S = 1.3e-3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _stamp() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(child_env: dict) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "child_threads": {name: child_env.get(name) for name in THREAD_VARS},
        "loadavg": os.getloadavg(),
        "load": "one runner process; children run one at a time",
        "limits": "wall clock and process rusage only; no perf counters, "
                  "no system-wide tracing",
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def run_child(mode: str, args, run_id: str, report: Path, env: dict,
              deadline: float) -> dict:
    """Run one CLI call in a fresh process; return its report, with
    ``exit_code`` set and ``error`` naming what went wrong, if anything.
    The child is killed at ``deadline`` (CLOCK_MONOTONIC)."""
    report.unlink(missing_ok=True)
    spawn = _stamp()
    command = [sys.executable, str(HERE / "child.py"), mode, repr(spawn), run_id,
               str(report), "--", *args]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(deadline - spawn, 0.0))
    except subprocess.TimeoutExpired:
        return {"exit_code": None, "error": f"killed at the {RUN_LIMIT_S} s run limit"}
    try:
        result = json.loads(report.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        result = {}
    result["exit_code"] = proc.returncode
    if result.get("ref_samples"):
        scale = REF_S / statistics.median(result["ref_samples"])
        for key in ("setup_s", "wall_s"):
            result[f"{key[:-2]}_raw_s"] = result[key]
            result[key] = None if result[key] is None else result[key] * scale
    if proc.returncode != 0 or result.get("wall_s") is None:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        result["error"] = f"exit code {proc.returncode}: {tail[0]}"
    return result


def _bytes_written(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def _manifest_diagnostics(out: Path) -> dict:
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return {}
    return manifest["reproducible"]["diagnostics"]


def layer_metrics(children: list[dict]) -> dict:
    """Per-layer values of one traced round from its children's spans."""
    total: dict = {}
    for child in children:
        for name, row in layer_totals(child["spans"]).items():
            acc = total.setdefault(name, dict(ZERO))
            for key, value in row.items():
                acc[key] += value

    def get(name):
        return total.get(name, ZERO)

    ode, drhs = get("numerics.integrate_ode"), get("dynamics.rhs")
    rrhs, bessel = get("rate_model.rhs"), get("numerics.bessel_j")
    fc = get("potential.fourier_coefficients")
    drift = [c["diagnostics"].get("max_norm_drift", 0.0) for c in children]
    edge = [c["diagnostics"].get("max_band_edge", 0.0) for c in children]
    return {
        "cli.import_s": statistics.median(c["import_s"] for c in children),
        "config.parse_config_s": statistics.median(c["parse_s"] for c in children),
        "cli.self_s": get("cli.run_scenario")["self_s"],
        "cli.bytes_written": sum(c["bytes_written"] for c in children),
        "potential.fourier_coefficients.calls": fc["calls"],
        "potential.fourier_coefficients.busy_s": fc["busy_s"],
        "stability.spectrum_sweep.self_s": get("stability.spectrum_sweep")["self_s"],
        "dynamics.rhs.calls": drhs["calls"],
        "dynamics.rhs.busy_s": drhs["busy_s"],
        "dynamics.rhs.us_per_call": 1e6 * drhs["busy_s"] / max(drhs["calls"], 1),
        "dynamics.evolve.self_s": get("dynamics.evolve")["self_s"],
        "dynamics.max_norm_drift": max(drift),
        "dynamics.max_band_edge": max(edge),
        "numerics.integrate_ode.self_s": ode["self_s"],
        "numerics.integrate_ode.steps": ode["steps"],
        "numerics.integrate_ode.rejected": ode["rejected"],
        "numerics.integrate_ode.accept_ratio":
            (ode["steps"] - ode["rejected"]) / ode["steps"] if ode["steps"] else 0.0,
        "numerics.integrate_ode.us_per_step": 1e6 * ode["self_s"] / max(ode["steps"], 1),
        "numerics.bessel_j.calls": bessel["calls"],
        "numerics.bessel_j.busy_s": bessel["busy_s"],
        "rate_model.rhs.calls": rrhs["calls"],
        "rate_model.rhs.busy_s": rrhs["busy_s"],
        "rate_model.evolve_rates.self_s": get("rate_model.evolve_rates")["self_s"],
        "radiation.pattern_from_bunching.self_s":
            get("radiation.pattern_from_bunching")["self_s"],
    }


def run_round(ops, mode: str, run_id: str, env: dict, deadline: float) -> dict:
    children, failures = [], []
    for i, op in enumerate(ops):
        shutil.rmtree(op.out, ignore_errors=True)
        child = run_child(mode, op.args, f"{run_id}-op{i}", WORK / "report.json", env,
                          deadline)
        if "error" not in child:
            try:
                problems = op.check(op.out)
            except Exception as exc:  # a malformed artifact fails this op only
                problems = [f"{type(exc).__name__}: {exc}"]
            if problems:
                child["error"] = "; ".join(problems)
        if "error" in child:
            failures.append(f"{op.name}: {child['error']}")
            _log(f"FAILED {op.name}: {child['error']}")
            continue
        child["op"] = op.name
        child["bytes_written"] = _bytes_written(op.out)
        child["diagnostics"] = _manifest_diagnostics(op.out)
        children.append(child)
    return {
        "mode": mode,
        "attempted": len(ops),
        "failures": failures,
        "children": children,
    }


def typical_wall(rounds: list[dict]) -> float | None:
    """Per operation the median wall time over the rounds it passed in,
    summed over operations; a burst of contention on the host then moves one
    sample of one operation, not the whole figure."""
    walls: dict = {}
    for r in rounds:
        for child in r["children"]:
            walls.setdefault(child["op"], []).append(child["wall_s"])
    return sum(statistics.median(w) for w in walls.values()) if walls else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=WORK / "results.jsonl",
                        help="JSON-lines file this run's record is appended to")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "oamring" / "cli.py").is_file():
        _log(f"no oamring sources under {SRC}; run from a source checkout")
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import oamring.radiation  # noqa: F401  (the output checks use its oracle)
    except ImportError as exc:
        _log(f"cannot import oamring from {SRC}: {exc}")
        return 2

    deadline = _stamp() + RUN_LIMIT_S
    env = child_env()
    env_record = environment(env)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = workloads.WORKLOADS[args.workload](args.seed, work)
    run_id = f"{args.workload}-s{args.seed}"

    setup = []
    for i in range(SETUP_PROBES):
        probe = run_child("setup", ops[0].args, f"{run_id}-setup{i}", WORK / "report.json",
                          env, deadline)
        if "error" in probe:
            _log(f"set-up probe failed: {probe['error']}")
            return 1
        setup.append(probe["setup_s"])

    rounds = []
    started = _stamp()
    while True:
        mode = "trace" if args.trace == 1 and len(rounds) % 2 == 1 else "run"
        rounds.append(run_round(ops, mode, f"{run_id}-r{len(rounds)}", env, deadline))
        _log(f"round {len(rounds)} ({mode}): {typical_wall(rounds[-1:]) or 0.0:.3f} s")
        enough = _stamp() - started >= args.seconds and (args.trace == 0 or len(rounds) >= 2)
        if enough or _stamp() >= deadline:
            break

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    plain = [r for r in rounds if r["mode"] == "run"]
    traced = [r for r in rounds if r["mode"] == "trace"]
    children = [c for r in plain for c in r["children"]]
    setup += [c["setup_s"] for c in children]
    if args.trace == 0:
        units = E2E_UNITS
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": typical_wall(plain),
            "peak_rss_mb": max((c["maxrss_kb"] for c in children), default=0) / 1024.0,
            "ok_ratio": (attempted - failed) / attempted,
        }
    else:
        units = LAYER_UNITS
        per_round = [layer_metrics(r["children"]) for r in traced if r["children"]]
        values = {k: statistics.median(p[k] for p in per_round) for k in units
                  if per_round and k in per_round[0]}
        if per_round and children:
            values["trace.overhead_s"] = typical_wall(traced) - typical_wall(plain)
        spans = [s for r in traced for c in r["children"] for s in c.pop("spans")]
        (work / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()
               if values.get(k) is not None}

    result = {"correct": failed == 0 and len(metrics) == len(units),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env_record, "setup_samples": setup,
        "rounds": rounds,
        "result": result,
    }
    args.record.parent.mkdir(parents=True, exist_ok=True)
    with args.record.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    print(json.dumps({"environment": env_record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
