"""Spans recorded from outside oamring, around the calls into each module.

The tracer replaces public names where each caller module binds them (for
example ``oamring.dynamics.integrate_ode``), so nothing inside the package
changes.  A span is (id, name, start, end, parent, run id).  Calls that are
too frequent to keep one span each (the ODE right-hand side, ``bessel_j``)
are aggregated into their parent span as a call count and busy time.

Step accounting reads only the times the wrapped rhs sees: DP5 with FSAL
calls the rhs once at the start and six times per attempted step, and an
attempt is rejected when the next attempt starts where it started.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

now = time.perf_counter

# (module that binds the name, attribute, span name, kind)
BINDINGS = (
    ("oamring.cli", "parse_config", "config.parse_config", "span"),
    ("oamring.cli", "run_scenario", "cli.run_scenario", "span"),
    ("oamring.cli", "fourier_coefficients", "potential.fourier_coefficients", "span"),
    ("oamring.stability", "fourier_coefficients", "potential.fourier_coefficients", "span"),
    ("oamring.cli", "spectrum_sweep", "stability.spectrum_sweep", "span"),
    ("oamring.cli", "evolve", "dynamics.evolve", "span"),
    ("oamring.cli", "evolve_rates", "rate_model.evolve_rates", "span"),
    ("oamring.cli", "pattern_from_bunching", "radiation.pattern_from_bunching", "span"),
    ("oamring.dynamics", "integrate_ode", "dynamics.rhs", "ode"),
    ("oamring.rate_model", "integrate_ode", "rate_model.rhs", "ode"),
    ("oamring.radiation", "bessel_j", "numerics.bessel_j", "counted"),
)

ZERO = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "steps": 0, "rejected": 0}

# Dormand-Prince stage nodes of the first and last rhs call of an attempt.
_C_FIRST, _C_LAST = 1.0 / 5.0, 1.0


def count_steps(stage_times) -> tuple[int, int]:
    """(attempted, rejected) DP5 steps from the times passed to the rhs."""
    t = np.asarray(stage_times, dtype=float)
    attempts = (t.size - 1) // 6
    if attempts < 1:
        return 0, 0
    stages = t[1 : 1 + 6 * attempts].reshape(attempts, 6)
    end = stages[:, 5]
    h = (end - stages[:, 0]) / (_C_LAST - _C_FIRST)
    start = end - h
    nxt = start[1:]
    rejected = np.abs(nxt - start[:-1]) < np.abs(nxt - end[:-1])
    return attempts, int(rejected.sum())


class Tracer:
    """In-memory span recorder for one CLI invocation."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.unbound: list[str] = []

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": now(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id,
            "agg": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = now()
        self._stack.pop()

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def counted(self, name: str, fn):
        """Wrap a frequent call: count it and add its time to the open span."""

        def wrapper(*args, **kwargs):
            entry = self._stack[-1]["agg"].setdefault(name, [0, 0.0])
            t0 = now()
            out = fn(*args, **kwargs)
            entry[0] += 1
            entry[1] += now() - t0
            return out

        return wrapper

    def ode(self, rhs_name: str, fn):
        """Wrap an integrate_ode binding and the rhs handed to it."""

        def wrapper(rhs, *args, **kwargs):
            span = self._open("numerics.integrate_ode")
            times = array("d")
            busy = [0.0]

            def traced_rhs(t, y):
                times.append(t)
                t0 = now()
                out = rhs(t, y)
                busy[0] += now() - t0
                return out

            try:
                return fn(traced_rhs, *args, **kwargs)
            finally:
                self._close(span)
                span["agg"][rhs_name] = [len(times), busy[0]]
                span["steps"], span["rejected"] = count_steps(times)

        return wrapper

    def install(self) -> None:
        """Replace every binding in BINDINGS that exists; list the rest."""
        import importlib

        for module_name, attr, name, kind in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.unbound.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, getattr(self, kind)(name, fn))


def self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the part of it covered by child spans and by
    aggregated child calls."""
    covered = 0.0
    reach = span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(child["start"], reach), min(child["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            reach = hi
    covered += sum(busy for _, busy in span["agg"].values())
    return (span["end"] - span["start"]) - covered


def layer_totals(spans: list[dict]) -> dict:
    """Per-name totals over one invocation's spans.

    Returns {name: {"calls", "busy_s", "self_s", "steps", "rejected"}}, with
    aggregated child calls listed under their own names.
    """
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    totals: dict = {}
    for span in spans:
        row = totals.setdefault(span["name"], dict(ZERO))
        row["calls"] += 1
        row["busy_s"] += span["end"] - span["start"]
        row["self_s"] += self_time(span, children.get(span["id"], []))
        row["steps"] += span.get("steps", 0)
        row["rejected"] += span.get("rejected", 0)
        for name, (calls, busy) in span["agg"].items():
            sub = totals.setdefault(name, dict(ZERO))
            sub["calls"] += calls
            sub["busy_s"] += busy
            sub["self_s"] += busy
    return totals
