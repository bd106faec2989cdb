"""The perf ledger's one command.

    python3 benchmarks/ledger/run.py --workload funnel_steady --seed 2015

runs one named workload, prints every metric by name with its unit,
checks the program's outputs, and exits non-zero on a correctness
failure.  ``--trace 1`` runs the workload twice over — a few
repetitions with tracing off, then the same number with spans
recorded around the calls into each layer — and prints the per-layer
metrics plus what tracing cost (``ledger.trace_overhead_ratio``).
End-to-end metrics always come from untraced repetitions.

The last stdout line is the driver contract's result object; the
line before it is the ledger's own envelope (also written to
``--out``).  ``--workload all --runs N --out A.json`` writes a *set*:
every workload run N times, each run in a process of its own, with
the spread between the runs — what ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

import harness
import spec

clock = time.perf_counter


def measure(name: str, seed: int, seconds: float, trace: bool, toy: bool) -> dict:
    """Run one workload; the returned dict is its envelope entry."""
    entered = clock()   # set-up is timed from here, program import included
    source = harness.REPO_ROOT / "src"
    if not (source / "repro").is_dir():
        # Never measure some other installed copy of the program.
        raise SystemExit(f"ledger: no program to measure under {source}")
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))
    import workloads

    declared = spec.WORKLOADS[name]
    params = declared.toy if toy else declared.size
    workload = workloads.CLASSES[name](seed, params, toy)
    attempted = failed = 0

    def rep(tracer):
        nonlocal attempted, failed
        gc.collect()
        outcome = workload.rep(tracer)
        attempted += outcome.attempted
        failed += outcome.failed
        return outcome

    rep(harness.NULL_TRACER)   # warm-up: timing discarded, checks kept
    setup_s = clock() - entered

    tracer = harness.Tracer(name)
    traced: List = []
    if trace:
        untraced_reps, traced_reps = declared.trace_reps
        untraced = [rep(harness.NULL_TRACER) for _ in range(untraced_reps)]
        traced = [rep(tracer) for _ in range(traced_reps)]
    else:
        min_reps = 2 if toy else declared.min_reps
        untraced = []
        started = clock()
        while len(untraced) < min_reps or clock() - started < seconds:
            untraced.append(rep(harness.NULL_TRACER))

    checked, wrong = workload.finish()
    attempted += checked
    failed += wrong

    samples: Dict[str, List[float]] = {
        "setup_s": [setup_s],
        "failed_share": [failed / attempted],
    }
    for outcome in untraced:
        for metric, readings in outcome.samples.items():
            samples.setdefault(metric, []).extend(readings)

    entry = {
        "params": params,
        "toy": toy,
        "seconds": seconds,
        "trace": int(trace),
        "reps": len(untraced),
        "attempted": attempted,
        "failed": failed,
    }
    problems: List[str] = []
    if trace:
        entry["traced_reps"] = len(traced)
        entry["per_layer"] = per_layer(
            name, untraced, traced, workload.extras(tracer), problems
        )
        spans_path = harness.WORK_DIR / f"spans-{name}-{seed}.json"
        tracer.dump(spans_path)
        entry["spans"] = {"count": len(tracer.spans), "file": str(spans_path)}
    samples["peak_rss_mb"] = [harness.peak_rss_mb()]
    entry["end_to_end"] = {
        metric.name: {
            **harness.summarize(samples[metric.name]),
            "unit": metric.unit,
            "bound": metric.bound,
            "better": metric.better,
        }
        for metric in spec.end_to_end_for(name)
    }
    entry["problems"] = problems
    entry["correct"] = failed == 0 and not problems
    return entry


def per_layer(name, untraced, traced, extras, problems) -> Dict[str, dict]:
    """Median of each layer metric over the traced repetitions."""
    measured: Dict[str, List[float]] = {}
    for layers in [outcome.layers for outcome in traced] + [extras]:
        for metric, value in layers.items():
            measured.setdefault(metric, []).append(value)
    measured["ledger.trace_overhead_ratio"] = [
        statistics.median(outcome.seconds for outcome in traced)
        / statistics.median(outcome.seconds for outcome in untraced)
    ]
    layers: Dict[str, dict] = {}
    for metric in spec.per_layer_for(name):
        values = measured.pop(metric.name, None)
        if values is None:
            continue   # e.g. a backend that is no longer in RUN_MODES
        if metric.exact == "rep" and len(set(values)) > 1:
            problems.append(
                f"{metric.name} differs between repetitions: {values}"
            )
        layers[metric.name] = {
            # Counts are not averaged: "run"-exact ones differ by rep.
            "value": values[0] if metric.exact else statistics.median(values),
            "unit": metric.unit,
            "exact": metric.exact,
        }
    if measured:
        problems.append(f"undeclared layer metrics: {sorted(measured)}")
    return layers


def contract_line(entry: dict) -> str:
    """The driver's result object: every declared metric, always."""
    if entry["trace"]:
        measured = {**entry["per_layer"], **entry["end_to_end"]}
        metrics = {
            metric.name: {
                # A layer this workload never calls did no work.
                "value": measured.get(metric.name, {"value": 0.0})["value"],
                "unit": metric.unit,
            }
            for metric in spec.CONTRACT_PER_LAYER
        }
    else:
        metrics = {
            metric.name: {
                "value": entry["end_to_end"][metric.name]["value"],
                "unit": metric.unit,
            }
            for metric in spec.CONTRACT_END_TO_END
        }
    return json.dumps(
        {
            "correct": entry["correct"],
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": metrics,
        }
    )


def report(name: str, seed: int, entry: dict) -> None:
    print(
        f"# ledger {name} seed={seed} trace={entry['trace']} "
        f"reps={entry['reps']} params={json.dumps(entry['params'])}"
    )
    for metric, row in entry["end_to_end"].items():
        print(
            f"{metric:<36} {row['value']:>14.6g} {row['unit']:<10} "
            f"q1={row['q1']:.6g} q3={row['q3']:.6g} n={row['n']} "
            f"bound={row['bound']} better={row['better']}"
        )
    for metric, row in entry.get("per_layer", {}).items():
        print(f"{metric:<36} {row['value']:>14.6g} {row['unit']}")
    for problem in entry["problems"]:
        print(f"PROBLEM: {problem}")
    print(
        f"# attempted={entry['attempted']} failed={entry['failed']} "
        f"correct={entry['correct']}"
    )


def envelope(seed: int, entries: Dict[str, dict]) -> dict:
    return {
        "ledger": 1,
        **harness.environment(),
        "seed": seed,
        "workloads": entries,
    }


def combine(runs: List[dict]) -> dict:
    """One entry for several runs of one workload.

    Every end-to-end row becomes the median over the runs' own values;
    its quartiles are then the spread *between runs*, which is what
    ``compare.py`` judges by, and ``runs`` keeps the values.  Layer
    times become medians too; exact counts must agree between runs.
    """
    entry = dict(runs[-1])   # params, seconds, trace, spans file
    entry["reps"] = [run["reps"] for run in runs]
    entry["attempted"] = sum(run["attempted"] for run in runs)
    entry["failed"] = sum(run["failed"] for run in runs)
    entry["problems"] = [p for run in runs for p in run["problems"]]
    entry["end_to_end"] = {}
    for metric, row in runs[0]["end_to_end"].items():
        values = [run["end_to_end"][metric]["value"] for run in runs]
        entry["end_to_end"][metric] = {
            **row, **harness.summarize(values), "runs": values
        }
    if "per_layer" in entry:
        entry["per_layer"] = {}
        for metric, row in runs[0]["per_layer"].items():
            values = [run["per_layer"][metric]["value"] for run in runs]
            if row["exact"] and len(set(values)) > 1:
                entry["problems"].append(
                    f"{metric} differs between runs: {values}"
                )
            entry["per_layer"][metric] = {
                **row,
                "value": values[0] if row["exact"]
                else statistics.median(values),
            }
    entry["correct"] = entry["failed"] == 0 and not entry["problems"]
    return entry


def run_set(names: List[str], args) -> int:
    """Each named workload ``--runs`` times, one combined file.

    Each run is a fresh interpreter, so peak RSS is per run.  The
    workloads take turns (all six, then all six again), so a slow
    spell of the machine falls on every workload alike.
    """
    runs: Dict[str, List[dict]] = {name: [] for name in names}
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "run.json"
        for _ in range(args.runs):
            for name in names:
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(args.trace),
                    "--out", str(out),
                ] + (["--toy"] if args.toy else [])
                out.unlink(missing_ok=True)
                done = subprocess.run(
                    command, stdout=subprocess.PIPE, text=True
                )
                # Everything but the two machine-readable closing lines.
                print("\n".join(done.stdout.splitlines()[:-2]), flush=True)
                if not out.exists():
                    print(f"# {name}: no result (exit {done.returncode})")
                    return done.returncode or 1
                runs[name].append(json.loads(out.read_text())["workloads"][name])
    entries = {
        name: each[0] if args.runs == 1 else combine(each)
        for name, each in runs.items()
    }
    if args.runs > 1:
        for name, entry in entries.items():
            print(f"# median of {args.runs} runs; q1, q3 between runs")
            report(name, args.seed, entry)
    combined = envelope(args.seed, entries)
    if args.out:
        Path(args.out).write_text(json.dumps(combined, indent=1) + "\n")
    print(json.dumps(combined))
    return 0 if all(entry["correct"] for entry in entries.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=list(spec.WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument(
        "--seconds", type=float, default=8.0,
        help="keep repeating for this long (at least the workload's "
             "minimum repetitions)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the envelope to this file")
    parser.add_argument(
        "--runs", type=int, default=1,
        help="a set of this many runs of each workload, every run in a "
             "process of its own, for compare.py",
    )
    parser.add_argument(
        "--toy", action="store_true",
        help="toy sizes, two repetitions (test_ledger.py only)",
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_set(list(spec.WORKLOADS), args)
    if args.runs > 1:
        return run_set([args.workload], args)
    entry = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.toy
    )
    report(args.workload, args.seed, entry)
    result = envelope(args.seed, {args.workload: entry})
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    print(contract_line(entry))
    return 0 if entry["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
