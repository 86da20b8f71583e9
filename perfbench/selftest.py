"""Self-test of the benchmark's own instruments.

    python3 perfbench/selftest.py [WORKLOAD ...]

1. Step accounting: integrations whose step sequence is known (fixed steps;
   a first step far too large) give the expected attempted and rejected
   counts.
2. Determinism: two traced runs of each workload (default: all) with one
   seed report identical counts.  Takes about two minutes for cascade.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = (
    "dynamics.rhs.calls",
    "numerics.integrate_ode.steps",
    "numerics.integrate_ode.rejected",
    "numerics.bessel_j.calls",
    "potential.fourier_coefficients.calls",
)
SEED = 7


def check_step_accounting() -> list[str]:
    from oamring.numerics import OdeControls, integrate_ode
    from spans import Tracer

    tracer = Tracer("selftest")
    traced = tracer.ode("selftest.rhs", integrate_ode)
    problems = []

    fixed = OdeControls(rel_tol=1.0, abs_tol=1.0, max_step=0.125, initial_step=0.125)
    traced(lambda t, y: -y, np.ones(1), (0.0, 1.0), fixed, 1.0)
    span = tracer.spans[-1]
    if (span["steps"], span["rejected"], span["agg"]["selftest.rhs"][0]) != (8, 0, 49):
        problems.append(f"fixed steps: {span['steps']} steps, {span['rejected']} rejected")

    stiff = OdeControls(rel_tol=1e-8, abs_tol=1e-10, max_step=1.0, initial_step=1.0)
    traced(lambda t, y: -200.0 * y, np.ones(1), (0.0, 1.0), stiff, 1.0)
    span = tracer.spans[-1]
    if not 1 <= span["rejected"] < span["steps"]:
        problems.append(f"oversized first step: {span['rejected']} of {span['steps']} rejected")
    return problems


def traced_counts(workload: str, record: Path) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", "1", "--trace", "1",
               "--record", str(record)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload}: traced run not correct: {result}")
    return {name: result["metrics"][name]["value"] for name in COUNTS}


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    problems = check_step_accounting()
    record = ROOT / ".perfbench_run" / "selftest.jsonl"
    record.parent.mkdir(parents=True, exist_ok=True)
    for workload in argv or ["cascade", "survey"]:
        first, second = (traced_counts(workload, record) for _ in range(2))
        print(f"{workload}: {json.dumps(first)}")
        if first != second:
            problems.append(f"{workload}: counts differ: {first} vs {second}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
