"""Direction-aware comparison of two ledger result files.

    python3 benchmarks/ledger/compare.py A.json B.json

``A`` is the parent (or the first set of runs), ``B`` the change (or
the second set); both are *sets* written by
``run.py --workload all --runs N --out``.  One row per workload and
end-to-end metric: each side's median over its runs, the spread
between its runs (interquartile range as a share of the median), and
a verdict:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``improved``   — B's median is better by more than the bound;
* ``unresolved`` — the run-to-run spread of either side exceeds the
  bound, so "no change" cannot be told from "change within the
  noise" (unless every run of B reads better than every run of A,
  which is still an improvement).  A side of fewer than three runs
  shows no spread and resolves nothing;
* ``unchanged``  — within the bound, and both sides steadier than it.

A metric whose bound is 0 (``failed_share``) is exact: any rise is a
regression, anything else unchanged.  The bounds are the ones every
result row carries (``spec.py``).  Per-layer counts marked exact must
be identical in both files.  Exit status 1 when anything regressed or
an exact count differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import List, Sequence, Tuple

MIN_RUNS = 3   # fewer runs than this show no run-to-run spread


def run_values(row: dict) -> List[float]:
    """One value per run; a single-run file has only its own."""
    return row.get("runs") or [row["value"]]


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` reads than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def spread(values: Sequence[float]) -> float:
    """Interquartile range between runs as a share of their median."""
    if len(values) < MIN_RUNS:
        return float("inf")
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    if median == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(median)


def every_run_better(
    a: Sequence[float], b: Sequence[float], better: str
) -> bool:
    if min(len(a), len(b)) < MIN_RUNS:
        return False
    return max(b) < min(a) if better == "lower" else min(b) > max(a)


def verdict(
    a: Sequence[float], b: Sequence[float], bound: float, better: str
) -> str:
    worse = worse_by(statistics.median(a), statistics.median(b), better)
    if worse > bound:
        return "regressed"
    if bound == 0:
        return "unchanged"
    if max(spread(a), spread(b)) > bound:
        return "improved" if every_run_better(a, b, better) else "unresolved"
    return "improved" if worse < -bound else "unchanged"


def compare(a: dict, b: dict) -> Tuple[List[tuple], List[str]]:
    """Rows ``(workload, metric, median a, spread a, median b, spread b,
    worse_by, bound, verdict)`` and the exact counts that differ."""
    rows: List[tuple] = []
    mismatches: List[str] = []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        for metric, row_a in entry_a["end_to_end"].items():
            row_b = entry_b["end_to_end"].get(metric)
            if row_b is None:
                continue
            runs_a, runs_b = run_values(row_a), run_values(row_b)
            median_a = statistics.median(runs_a)
            median_b = statistics.median(runs_b)
            rows.append(
                (
                    workload,
                    metric,
                    median_a,
                    spread(runs_a),
                    median_b,
                    spread(runs_b),
                    worse_by(median_a, median_b, row_a["better"]),
                    row_a["bound"],
                    verdict(runs_a, runs_b, row_a["bound"], row_a["better"]),
                )
            )
        layers_b = entry_b.get("per_layer", {})
        for metric, row_a in entry_a.get("per_layer", {}).items():
            row_b = layers_b.get(metric)
            if row_a.get("exact") and row_b is not None:
                if row_a["value"] != row_b["value"]:
                    mismatches.append(
                        f"{workload} {metric}: "
                        f"{row_a['value']} != {row_b['value']}"
                    )
    return rows, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="parent / first set (run.py --out)")
    parser.add_argument("b", help="change / second set")
    args = parser.parse_args(argv)
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    if a.get("seed") != b.get("seed"):
        print(f"note: seeds differ ({a.get('seed')} vs {b.get('seed')})")
    rows, mismatches = compare(a, b)
    print(
        f"{'workload':<15} {'metric':<20} {'A':>11} {'spread':>7} "
        f"{'B':>11} {'spread':>7} {'worse by':>9} {'bound':>6}  verdict"
    )
    for (workload, metric, median_a, spread_a, median_b, spread_b,
         worse, bound, outcome) in rows:
        print(
            f"{workload:<15} {metric:<20} {median_a:>11.5g} {spread_a:>7.1%} "
            f"{median_b:>11.5g} {spread_b:>7.1%} {worse:>+9.1%} "
            f"{bound:>6.0%}  {outcome}"
        )
    for mismatch in mismatches:
        print(f"exact count differs: {mismatch}")
    regressed = [row for row in rows if row[-1] == "regressed"]
    unresolved = [row for row in rows if row[-1] == "unresolved"]
    print(
        f"{len(rows)} metrics: {len(regressed)} regressed, "
        f"{len(unresolved)} unresolved, {len(mismatches)} exact counts differ"
    )
    return 1 if regressed or mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
