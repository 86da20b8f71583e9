"""One oamring CLI invocation in its own process, timed from the outside.

    python3 child.py MODE SPAWN_STAMP RUN_ID REPORT -- CLI_ARGS...

MODE is ``run`` (plain ``oamring.cli.main``), ``trace`` (the same call with
the spans of spans.py recorded) or ``setup`` (import and parse the config,
then return without running the scenario).  SPAWN_STAMP is the parent's
CLOCK_MONOTONIC reading just before it started this process.  The timings,
exit code, peak RSS, host-speed samples and spans are written to the JSON
file REPORT.

Host speed: on a shared host the same code runs 20-50% slower for minutes at
a time.  From the end of parse_config to the end of main a timer signal runs
``reference_work`` every SAMPLE_INTERVAL_S and times it; AFTER_SAMPLES more
samples follow main.  The samples' time is taken out of ``wall_s``.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time

SAMPLE_INTERVAL_S = 0.1
AFTER_SAMPLES = 5


def _stamp() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_work() -> None:
    """Fixed interpreter arithmetic and small numpy operations, about 1.3 ms
    on an idle x86-64 core; the same kind of work oamring's hot loops do."""
    import numpy as np

    total = 0
    for i in range(10_000):
        total += i * i
    a = np.ones(32, dtype=complex)
    for _ in range(100):
        a = a * 0.5 + a[::-1] * 0.5


class HostSpeed:
    """Times reference_work on a timer signal while the scenario runs."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, *_signal_args) -> None:
        start = _stamp()
        reference_work()
        self.samples.append(_stamp() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> float:
        """Stop the timer; return the time the samples took so far."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        return sum(self.samples)


def main() -> int:
    mode, spawn, run_id, report = sys.argv[1], float(sys.argv[2]), sys.argv[3], sys.argv[4]
    cli_args = sys.argv[sys.argv.index("--") + 1 :]

    t_import = _stamp()
    import oamring.cli as cli

    imported = _stamp()
    tracer = None
    entry = cli.main
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer(run_id)
        tracer.install()
        entry = tracer.span("cli.main", cli.main)
    if mode == "setup":
        cli.run_scenario = lambda config: {"manifest_hash": ""}

    stamps = {}
    speed = HostSpeed()
    parse = cli.parse_config

    def timed_parse(**kwargs):
        start = _stamp()
        config = parse(**kwargs)
        stamps["parsed"] = _stamp()
        stamps["parse_s"] = stamps["parsed"] - start
        speed.start()
        return config

    cli.parse_config = timed_parse
    code = entry(cli_args)
    done = _stamp()
    sampled = speed.stop()
    for _ in range(AFTER_SAMPLES):
        speed.sample()

    parsed = stamps.get("parsed")
    payload = {
        "exit_code": code,
        "import_s": imported - t_import,
        "parse_s": stamps.get("parse_s"),
        "setup_s": None if parsed is None else parsed - spawn,
        "wall_s": None if parsed is None else done - parsed - sampled,
        "ref_samples": speed.samples,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else [],
        "unbound": tracer.unbound if tracer else [],
    }
    with open(report, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
