"""Differential matrix: every executor backend vs the serial walk.

The executor's one promise is that *scheduling is invisible*: for a
fixed seed and config, the study result, the merged Prometheus
exposition, and the structural trace content are bit-identical
whichever backend ran the shards, with or without injected
measurement faults.

The serial reference is ``mode="serial"`` *through the executor* (the
plain ``study.run()`` loop has no shard spans to compare against).
Span digests cover structural content only — names, attributes,
errors — because start/end timestamps legitimately differ per run.
"""

import hashlib
import json

import pytest

from repro import obs
from repro.core import MeasurementStudy, RunConfig
from repro.exec import execute_study
from repro.faults import (
    DNS_SERVFAIL,
    DUMP_CORRUPT,
    FaultPlan,
    RetryPolicy,
)
from repro.web import EcosystemConfig, WebEcosystem

SEED = 2015
SHARD_SIZE = 30
WORKERS = 3

# The fault dimension: None exercises the plain path; the plan puts
# every backend in front of the same seeded measurement faults.
FAULT_CASES = {
    "none": None,
    "measurement-faults": {DNS_SERVFAIL: 0.3, DUMP_CORRUPT: 0.2},
}

BACKENDS = ("serial", "thread", "process")


@pytest.fixture(scope="module")
def diff_study():
    world = WebEcosystem.build(
        EcosystemConfig(domain_count=240, seed=SEED, hoster_count=40,
                        eyeball_count=20)
    )
    return MeasurementStudy.from_ecosystem(world)


def make_config(mode: str, rates) -> RunConfig:
    faults = (
        None
        if rates is None
        else FaultPlan.from_rates(rates, seed=SEED, max_consecutive=2)
    )
    return RunConfig(
        workers=1 if mode == "serial" else WORKERS,
        mode=mode,
        shard_size=SHARD_SIZE,
        retry=RetryPolicy(max_attempts=3),
        faults=faults,
    )


def span_digest(collector) -> str:
    """SHA-256 over structural span content, order-insensitive.

    Wall-clock fields are excluded; the run root is too (its
    workers/mode attributes *should* differ across backends).
    """
    structural = sorted(
        (span.name, tuple(sorted(
            (key, value) for key, value in span.attributes.items()
            if key not in ("workers", "mode")
        )), span.error or "")
        for span in collector.spans()
    )
    payload = json.dumps(structural, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def observed_run(study, config):
    registry, collector = obs.enable()
    try:
        result = execute_study(study, config=config)
        prometheus = registry.render_prometheus()
        digest = span_digest(collector)
    finally:
        obs.disable()
    return result, prometheus, digest


@pytest.fixture(scope="module")
def references(diff_study):
    """One serial (executor-path) reference per fault case."""
    return {
        case: observed_run(diff_study, make_config("serial", rates))
        for case, rates in FAULT_CASES.items()
    }


class TestBackendEquivalence:
    @pytest.mark.parametrize("mode", BACKENDS[1:])
    @pytest.mark.parametrize("case", sorted(FAULT_CASES))
    def test_backend_matches_serial(self, diff_study, references, mode, case):
        result, prometheus, digest = observed_run(
            diff_study, make_config(mode, FAULT_CASES[case])
        )
        ref_result, ref_prometheus, ref_digest = references[case]
        assert result == ref_result
        assert prometheus == ref_prometheus
        assert digest == ref_digest

    def test_serial_reference_is_reproducible(self, diff_study, references):
        again = observed_run(diff_study, make_config("serial", None))
        assert again[0] == references["none"][0]
        assert again[1] == references["none"][1]
        assert again[2] == references["none"][2]


class TestSchedulerAccounting:
    """``StudyResult.scheduler_report`` stays for the perf ledger,
    which reads it; no backend fills it in."""

    def test_plain_serial_run_has_no_report(self, diff_study):
        result = diff_study.run(config=RunConfig())
        assert result.scheduler_report is None

    def test_no_backend_has_a_report(self, diff_study):
        for mode in BACKENDS:
            result = execute_study(diff_study, config=make_config(mode, None))
            assert result.scheduler_report is None
