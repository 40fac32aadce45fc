#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per (metric, workload).

    python3 bench/compare.py A B

``A`` (the parent, or the first set) and ``B`` (the change, or the second set)
are each a file written by ``run.py --out`` or a directory of such files.
Every run contributes the median of its samples; a side's value is the median
of those, and its spread is their interquartile distance as a share of that
median (with a single run: the quartiles of the run's own samples).

Verdict per row, for end-to-end metrics (choosing-metrics guide, §6.5):

* ``unresolved`` — either side's spread is wider than the metric's bound, so
  the comparison cannot tell "unchanged" from "regressed";
* ``regressed``  — B is worse than A by more than the bound;
* ``improved``   — B is better than A by more than both spreads;
* ``unchanged``  — otherwise.

Per-layer metrics have no bound; they are listed with both values and the
relative change only.  Smoke runs are never compared.  Exit code 1 if any row
is ``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path[0] = str(ROOT)

from bench.metrics import END_TO_END_BY_NAME, LAYERS_BY_NAME  # noqa: E402
from bench.stats import quartiles, relative_spread  # noqa: E402

Key = Tuple[str, str]  # (workload, metric)


def load_runs(path: Path) -> List[dict]:
    """Every non-smoke run document under ``path`` (a file or a directory)."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: List[dict] = []
    for file in files:
        document = json.loads(file.read_text())
        runs.extend(document["runs"] if "runs" in document else [document])
    skipped = [run for run in runs if run.get("smoke")]
    if skipped:
        print(f"compare: ignoring {len(skipped)} smoke run(s) under {path}", file=sys.stderr)
    return [run for run in runs if not run.get("smoke")]


def collect(runs: List[dict]) -> Dict[Key, dict]:
    """Per (workload, metric): the per-run values, plus one run's own quartiles."""
    table: Dict[Key, dict] = {}
    for run in runs:
        for name, entry in run.get("end_to_end", {}).items():
            slot = table.setdefault((run["workload"], name), {"values": [], "unit": entry["unit"]})
            slot["values"].append(entry["median"])
            slot["own"] = (entry["q1"], entry["median"], entry["q3"])
        for name, entry in run.get("layers", {}).items():
            if entry["value"] is None:
                continue
            slot = table.setdefault((run["workload"], name), {"values": [], "unit": entry["unit"]})
            slot["values"].append(entry["value"])
    return table


def side_summary(slot: dict) -> Tuple[float, float, float, float]:
    """``(median, q1, q3, spread)`` of one side of a row."""
    values = slot["values"]
    if len(values) == 1 and "own" in slot:
        q1, median, q3 = slot["own"]
        return median, q1, q3, (q3 - q1) / abs(median) if median else 0.0
    q1, _, q3 = quartiles(values)
    return statistics.median(values), q1, q3, relative_spread(values)


def verdict(worse: float, spread_a: float, spread_b: float, bound: Optional[float]) -> str:
    """Classify a relative worsening (positive = worse) against a bound."""
    if bound is None:
        return "-"
    if max(spread_a, spread_b) > bound:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -max(spread_a, spread_b):
        return "improved"
    return "unchanged"


def compare(a_runs: List[dict], b_runs: List[dict]) -> List[dict]:
    a_table, b_table = collect(a_runs), collect(b_runs)
    rows = []
    for key in sorted(set(a_table) & set(b_table)):
        workload, name = key
        metric = END_TO_END_BY_NAME.get(name) or LAYERS_BY_NAME.get(name)
        if metric is None:
            continue
        a_median, a_q1, a_q3, a_spread = side_summary(a_table[key])
        b_median, b_q1, b_q3, b_spread = side_summary(b_table[key])
        change = (b_median - a_median) / abs(a_median) if a_median else 0.0
        worse = change if metric.better == "lower" else -change
        bound = getattr(metric, "bound", None)
        rows.append({
            "workload": workload, "metric": name, "unit": a_table[key]["unit"],
            "a": (a_median, a_q1, a_q3, len(a_table[key]["values"])),
            "b": (b_median, b_q1, b_q3, len(b_table[key]["values"])),
            "change": change, "spread": max(a_spread, b_spread), "bound": bound,
            "verdict": verdict(worse, a_spread, b_spread, bound),
        })
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rows = compare(load_runs(Path(argv[0])), load_runs(Path(argv[1])))
    if not rows:
        print("compare: the two sets share no (metric, workload) pair", file=sys.stderr)
        return 2
    header = ("workload", "metric", "unit", "A median [q1, q3] n", "B median [q1, q3] n",
              "change", "spread", "bound", "verdict")
    lines = [header]
    for row in rows:
        def side(values):
            median, q1, q3, count = values
            return f"{median:.5g} [{q1:.5g}, {q3:.5g}] {count}"
        lines.append((
            row["workload"], row["metric"], row["unit"], side(row["a"]), side(row["b"]),
            f"{row['change']:+.1%}", f"{row['spread']:.1%}",
            "" if row["bound"] is None else f"{row['bound']:.0%}", row["verdict"],
        ))
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    for line in lines:
        print("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
    bad = [row for row in rows if row["verdict"] in ("regressed", "unresolved")]
    print(f"\n{len(rows)} rows: " + ", ".join(
        f"{sum(row['verdict'] == v for row in rows)} {v}"
        for v in ("improved", "unchanged", "regressed", "unresolved")
    ))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
