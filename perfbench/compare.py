"""Compare two sets of benchmark runs, or report the spread of one.

    python3 perfbench/compare.py PARENT.jsonl [CHANGE.jsonl]

Each file holds the records run.py appends to its --record file.  For every
workload and every end-to-end metric of BENCHMARK.json it prints each side's
run count, median and quartiles, the spread (quartile distance over median)
against the metric's bound, and, with two files, the share of pairs the
change wins and a verdict:

  gain        the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's quartile distance
  regressed   the change's median is worse than the parent's by more than
              the bound
  unresolved  the parent's spread is wider than the bound, unless every
              change run reads better than every parent run
  same        none of the above

Pairs are the i-th run of each file, so run the two sides alternately, one
seed per pair.  Per-layer medians of traced runs follow, without a verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
GAIN_SHARE = 0.9


def load(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def series(records: list[dict], workload: str, trace: int, metric: str) -> list[float]:
    return [r["result"]["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["result"]["metrics"]]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse the change is, as a share of the parent's value."""
    sign = 1.0 if better == "lower" else -1.0
    return sign * (change - parent) / abs(parent) if parent else 0.0


def verdict(a: list[float], b: list[float], metric: dict) -> tuple[str, float]:
    better, bound = metric["better"], metric["bound"]
    q1a, ma, q3a = quartiles(a)
    _, mb, _ = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(worse_by(x, y, better) < 0 for x, y in pairs)
    share = wins / len(pairs) if pairs else 0.0
    if worse_by(ma, mb, better) > bound:
        return "regressed", share
    all_better = all(worse_by(x, y, better) < 0 for x in a for y in b)
    if spread(a) > bound and not all_better:
        return "unresolved", share
    if share >= GAIN_SHARE and worse_by(ma, mb, better) < 0 and abs(mb - ma) > q3a - q1a:
        return "gain", share
    return "same", share


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(a: list[dict], b: list[dict] | None, spec: dict) -> list[str]:
    lines = []
    workloads = sorted({r["workload"] for r in a + (b or [])})
    head = "| workload | metric | n | median | q1 | q3 | spread | bound |"
    if b is not None:
        head += " n' | median' | q1' | q3' | worse by | pair wins | verdict |"
    lines += [head, "|" + "---|" * (head.count("|") - 1)]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = series(a, workload, 0, name)
            if not va:
                continue
            q1, med, q3 = quartiles(va)
            row = (f"| {workload} | {name} ({metric['unit']}) | {len(va)} | {_fmt(med)} | "
                   f"{_fmt(q1)} | {_fmt(q3)} | {spread(va):.4f} | {metric['bound']} |")
            if b is not None:
                vb = series(b, workload, 0, name)
                if vb:
                    q1b, medb, q3b = quartiles(vb)
                    label, share = verdict(va, vb, metric)
                    row += (f" {len(vb)} | {_fmt(medb)} | {_fmt(q1b)} | {_fmt(q3b)} | "
                            f"{worse_by(med, medb, metric['better']):+.4f} | "
                            f"{share:.2f} | {label} |")
                else:
                    row += " 0 | | | | | | missing |"
            lines.append(row)
    layer_lines = []
    for workload in workloads:
        for metric in spec["per_layer"]:
            name = metric["name"]
            va = series(a, workload, 1, name)
            vb = series(b, workload, 1, name) if b is not None else []
            if not (va or vb):
                continue
            cells = [_fmt(statistics.median(v)) if v else "" for v in (va, vb)]
            layer_lines.append(f"| {workload} | {name} ({metric['unit']}) | "
                               f"{len(va)} | {cells[0]} | {len(vb)} | {cells[1]} |")
    if layer_lines:
        lines += ["", "| workload | per-layer metric | n | median | n' | median' |",
                  "|---|---|---|---|---|---|"] + layer_lines
    return lines


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    sets = [load(Path(p)) for p in argv]
    print("\n".join(report(sets[0], sets[1] if len(sets) == 2 else None, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
