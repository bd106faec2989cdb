"""The ledger checked against its own declarations, at toy size.

    python3 -m pytest benchmarks/ledger

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only).
Every workload runs once untraced and once traced with ``--toy``
(<= 200 domains, <= 16 sessions, two repetitions); the assertions are
about shape — names, units, envelope, span nesting — never about
speed.
"""

from __future__ import annotations

import copy
import json
import math
import re
from pathlib import Path

import pytest

import compare
import harness
import run
import spec

BENCHMARK = json.loads(
    (harness.REPO_ROOT / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

_outputs = {}


def ledger_run(capsys, workload: str, trace: int):
    """(exit code, envelope entry, contract object, envelope) — run once."""
    key = (workload, trace)
    if key not in _outputs:
        code = run.main(
            ["--workload", workload, "--seed", "7", "--seconds", "0",
             "--trace", str(trace), "--toy"]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        envelope = json.loads(lines[-2])
        _outputs[key] = (
            code,
            envelope["workloads"][workload],
            json.loads(lines[-1]),
            envelope,
        )
    return _outputs[key]


# -- declarations ---------------------------------------------------------------


def test_benchmark_json_matches_spec():
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert [
        (w["name"], w["why"]) for w in BENCHMARK["workloads"]
    ] == [(w.name, w.why) for w in spec.WORKLOADS.values()]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in BENCHMARK["end_to_end"]
    ] == [
        (m.name, m.unit, m.better, m.bound)
        for m in spec.CONTRACT_END_TO_END
    ]
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == [(m.name, m.unit, m.better) for m in spec.CONTRACT_PER_LAYER]


def test_declared_names_and_limits():
    names = [
        m["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for m in BENCHMARK[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert "setup_s" in {m["name"] for m in BENCHMARK["end_to_end"]}
    assert len(spec.END_TO_END) == 13
    # Every end-to-end name of the issue is declared in BENCHMARK.json.
    assert {m.name for m in spec.END_TO_END} <= set(names)
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert set(metric.workloads) <= set(spec.WORKLOADS)
    for workload in spec.WORKLOADS.values():
        assert workload.toy.get("domains", 0) <= 300
        assert workload.toy.get("sessions", 0) <= 20


# -- every workload, untraced and traced ----------------------------------------


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_untraced_run_prints_the_end_to_end_metrics(capsys, workload):
    code, entry, contract, envelope = ledger_run(capsys, workload, 0)
    assert code == 0
    assert set(contract) == {"correct", "attempted", "failed", "metrics"}
    assert contract["correct"] is True
    assert contract["attempted"] >= 1 and contract["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {
        name: row["unit"] for name, row in contract["metrics"].items()
    } == declared
    for name, row in contract["metrics"].items():
        assert math.isfinite(row["value"]) and row["value"] > 0, name

    for key in ("git_sha", "python", "cpu_count", "platform", "seed"):
        assert key in envelope
    assert entry["params"] == spec.WORKLOADS[workload].toy
    assert entry["reps"] >= 2
    assert list(entry["end_to_end"]) == [
        m.name for m in spec.end_to_end_for(workload)
    ]
    for name, row in entry["end_to_end"].items():
        assert set(row) == {
            "value", "unit", "q1", "q3", "n", "bound", "better"
        }
        assert math.isfinite(row["value"]), name
        assert row["q1"] <= row["value"] <= row["q3"]
    assert entry["end_to_end"]["failed_share"]["value"] == 0


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_traced_run_prints_the_per_layer_metrics(capsys, workload):
    code, entry, contract, _envelope = ledger_run(capsys, workload, 1)
    assert code == 0 and contract["correct"] is True
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {
        name: row["unit"] for name, row in contract["metrics"].items()
    } == declared
    assert all(
        math.isfinite(row["value"]) for row in contract["metrics"].values()
    )
    # The workload's own layers are all measured; the others read 0.
    own = {m.name for m in spec.per_layer_for(workload)}
    assert set(entry["per_layer"]) == own
    own |= set(entry["end_to_end"])
    for name, row in contract["metrics"].items():
        if name not in own:
            assert row["value"] == 0
        elif name in entry["end_to_end"]:
            assert row["value"] == entry["end_to_end"][name]["value"]
    assert "ledger.trace_overhead_ratio" in entry["per_layer"]
    assert entry["problems"] == []


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_spans_nest(capsys, workload):
    _code, entry, _contract, _envelope = ledger_run(capsys, workload, 1)
    dump = json.loads(Path(entry["spans"]["file"]).read_text())
    assert dump["columns"] == ["name", "start", "end", "parent", "workload"]
    spans = dump["spans"]
    assert len(spans) == entry["spans"]["count"] > 0
    for name, start, end, parent, owner in spans:
        assert owner == workload and start <= end, name
        if parent is not None:
            _pname, pstart, pend, _pparent, _powner = spans[parent]
            assert pstart <= start and end <= pend, name


def test_layers_account_for_the_time_they_explain(capsys):
    layers = ledger_run(capsys, "study_cold", 1)[1]["per_layer"]
    children = sum(
        layers[name]["value"]
        for name in (
            "web.alexa.generate_s", "web.adoption.build_s",
            "web.hosting.build_s", "bgp.propagation.propagate_s",
            "bgp.collector.collect_s",
        )
    )
    build = layers["web.ecosystem.build_s"]["value"]
    assert children >= 0.9 * build
    assert layers["web.ecosystem.self_s"]["value"] == pytest.approx(
        build - children
    )
    layers = ledger_run(capsys, "funnel_steady", 1)[1]["per_layer"]
    passes = [
        layers[name]["value"]
        for name in (
            "core.dns_mapping.measure_s", "core.prefix_mapping.map_s",
            "core.rpki_validation.validate_s",
        )
    ]
    assert all(value > 0 for value in passes)
    assert sum(passes) + layers["core.pipeline.self_s"]["value"] == (
        pytest.approx(layers["core.pipeline.run_s"]["value"])
    )


# -- tracer ---------------------------------------------------------------------


def test_patch_times_calls_and_restores():
    class Layer:
        @classmethod
        def build(cls, n):
            return list(range(n))

    tracer = harness.Tracer("unit")
    seen = []
    original = vars(Layer)["build"]
    with tracer.span("outer"):
        with tracer.patch(Layer, "build", "layer.build", seen.append):
            assert Layer.build(3) == [0, 1, 2]
    assert vars(Layer)["build"] is original
    assert seen == [[0, 1, 2]]
    assert [span[harness.NAME] for span in tracer.spans] == [
        "outer", "layer.build"
    ]
    assert tracer.spans[1][harness.PARENT] == 0
    assert harness.NULL_TRACER.patch(Layer, "build", "x") is not None
    assert vars(Layer)["build"] is original


# -- compare.py -----------------------------------------------------------------


def steady_set(envelope: dict, runs: int = 5) -> dict:
    """A set in which every run read exactly what ``envelope`` did."""
    entry = envelope["workloads"]["rtr_fanout"]
    return {
        **envelope,
        "workloads": {"rtr_fanout": run.combine([entry] * runs)},
    }


def scale(row: dict, factors) -> None:
    row["runs"] = [value * factors[i] for i, value in enumerate(row["runs"])]


def test_compare_flags_a_30_percent_regression(capsys, tmp_path):
    _code, _entry, _contract, envelope = ledger_run(capsys, "rtr_fanout", 0)
    parent = steady_set(envelope)
    row = parent["workloads"]["rtr_fanout"]["end_to_end"]["setup_s"]
    assert row["n"] == 5 and row["runs"] == [row["value"]] * 5
    change = copy.deepcopy(parent)
    metrics = change["workloads"]["rtr_fanout"]["end_to_end"]
    scale(metrics["setup_s"], [1.3] * 5)                # lower is better
    scale(metrics["rtr_connect_per_s"], [0.7] * 5)      # higher is better
    scale(metrics["rtr_publish_p50_ms"], [0.5] * 5)     # an improvement
    scale(metrics["peak_rss_mb"], [0.8, 0.9, 1.0, 1.1, 1.2])   # noise

    rows, mismatches = compare.compare(parent, change)
    verdicts = {row[1]: row[-1] for row in rows}
    assert verdicts == {
        "setup_s": "regressed",
        "rtr_connect_per_s": "regressed",
        "rtr_publish_p50_ms": "improved",
        "peak_rss_mb": "unresolved",
        "failed_share": "unchanged",
    }
    rows, _mismatches = compare.compare(parent, parent)
    assert {row[-1] for row in rows} == {"unchanged"}
    assert mismatches == []

    # Noisy, but every run of the change reads better: still improved.
    scale(metrics["peak_rss_mb"], [0.5] * 5)
    rows, _mismatches = compare.compare(parent, change)
    assert {row[1]: row[-1] for row in rows}["peak_rss_mb"] == "improved"

    # Single runs show no run-to-run spread, so they resolve nothing
    # (but a failure is a regression all the same).
    lone = copy.deepcopy(envelope)
    lone["workloads"]["rtr_fanout"]["failed"] = 1
    lone["workloads"]["rtr_fanout"]["end_to_end"]["failed_share"]["value"] = 0.1
    rows, _mismatches = compare.compare(envelope, lone)
    verdicts = {row[1]: row[-1] for row in rows}
    assert verdicts["setup_s"] == "unresolved"
    assert verdicts["failed_share"] == "regressed"

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(parent))
    b.write_text(json.dumps(change))
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a), str(a)]) == 0
    assert "regressed" in capsys.readouterr().out


def test_compare_requires_exact_counts_to_repeat(capsys):
    _code, _entry, _contract, envelope = ledger_run(capsys, "rtr_fanout", 1)
    other = copy.deepcopy(envelope)
    other["workloads"]["rtr_fanout"]["per_layer"]["rtrd.notified"]["value"] += 1
    _rows, mismatches = compare.compare(envelope, other)
    assert len(mismatches) == 1 and "rtrd.notified" in mismatches[0]
    # ... and between the runs of one set.
    entry = envelope["workloads"]["rtr_fanout"]
    combined = run.combine([entry, other["workloads"]["rtr_fanout"]])
    assert not combined["correct"]
    assert "rtrd.notified" in combined["problems"][0]
    assert run.combine([entry, entry])["correct"]
