"""Concurrency regression tests for the serving layer.

The ServingIndex is immutable, so N threads hammering one instance
must produce exactly what a single-threaded replay produces — same
answers, same degradation markers, and *exactly* the same counter
totals once each thread's scoped registry is merged (no lost ticks,
no double counts).  These tests pin that contract for both access
patterns: callers driving ``service.query()`` from their own threads,
and the service's own threaded batch dispatcher.
"""

import threading

import pytest

from repro.core import MeasurementStudy
from repro.faults import FaultPlan
from repro.obs import MetricsRegistry, TraceCollector, scope, thread_scope
from repro.serve import (
    SERVE_DEGRADED_METRIC,
    SERVE_FAULTS_METRIC,
    SERVE_QUERIES_METRIC,
    SERVE_VERDICTS_METRIC,
    LoadProfile,
    QueryService,
    ServeConfig,
    ServingIndex,
    generate_load,
)
from repro.web import EcosystemConfig, WebEcosystem

SEED = 2015
THREADS = 8

COUNTER_METRICS = (
    SERVE_QUERIES_METRIC,
    SERVE_VERDICTS_METRIC,
    SERVE_DEGRADED_METRIC,
    SERVE_FAULTS_METRIC,
)


@pytest.fixture(scope="module")
def index():
    world = WebEcosystem.build(EcosystemConfig(domain_count=300, seed=7))
    study = MeasurementStudy.from_ecosystem(world)
    return ServingIndex.build(study, study.run())


@pytest.fixture(scope="module")
def queries(index):
    return generate_load(index, LoadProfile(queries=1_600, seed=SEED))


def faulty_config():
    """A config whose fault plan marks a deterministic query subset."""
    return ServeConfig(
        faults=FaultPlan.from_profile("degraded", seed=SEED)
    )


def counter_totals(registry):
    """Serve counter series as {(metric, labels): value}."""
    totals = {}
    for name in COUNTER_METRICS:
        metric = registry.get(name)
        if metric is None:
            continue
        for labelvalues, series in metric.series():
            totals[(name, labelvalues)] = series.value
    return totals


class TestThreadsHammeringOneIndex:
    def test_matches_single_threaded_replay_with_exact_counters(
        self, index, queries
    ):
        service = QueryService(index, faulty_config())

        # Single-threaded replay under its own registry.
        with scope(MetricsRegistry(), TraceCollector()) as (expected_reg, _):
            expected = [service.query(query) for query in queries]

        # N threads, interleaved slices, one scoped registry each.
        outcomes = {}

        def hammer(position):
            registry = MetricsRegistry()
            with thread_scope(registry, TraceCollector()):
                responses = [
                    service.query(query)
                    for query in queries[position::THREADS]
                ]
            outcomes[position] = (responses, registry)

        threads = [
            threading.Thread(target=hammer, args=(position,))
            for position in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # Same answers and markers, slice by slice.
        assert set(outcomes) == set(range(THREADS))
        for position, (responses, _registry) in outcomes.items():
            assert responses == expected[position::THREADS]

        # Merged counters sum exactly to the serial totals.
        merged = MetricsRegistry()
        for _responses, registry in outcomes.values():
            merged.merge(registry)
        expected_totals = counter_totals(expected_reg)
        assert counter_totals(merged) == expected_totals
        assert sum(
            value
            for (name, _labels), value in expected_totals.items()
            if name == SERVE_QUERIES_METRIC
        ) == len(queries)
        assert any(
            name == SERVE_DEGRADED_METRIC
            for (name, _labels) in expected_totals
        ), "fault plan never marked an answer — schedule regressed"

    def test_concurrent_readers_see_identical_answers(self, index, queries):
        """Pure read concurrency: every thread answers the SAME list."""
        service = QueryService(index, ServeConfig())
        expected = [service.query(query) for query in queries[:400]]
        results = {}

        def read_all(position):
            with thread_scope(MetricsRegistry(), TraceCollector()):
                results[position] = [
                    service.query(query) for query in queries[:400]
                ]

        threads = [
            threading.Thread(target=read_all, args=(position,))
            for position in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for position in range(THREADS):
            assert results[position] == expected


class TestBatchedDispatcher:
    def test_threaded_run_equals_serial_run_and_counters(
        self, index, queries
    ):
        serial_service = QueryService(
            index,
            ServeConfig(
                mode="serial",
                faults=FaultPlan.from_profile("degraded", seed=SEED),
            ),
        )
        threaded_service = QueryService(
            index,
            ServeConfig(
                workers=4,
                mode="thread",
                faults=FaultPlan.from_profile("degraded", seed=SEED),
            ),
        )
        with scope(MetricsRegistry(), TraceCollector()) as (serial_reg, _):
            serial = serial_service.run(queries)
        with scope(MetricsRegistry(), TraceCollector()) as (thread_reg, _):
            threaded = threaded_service.run(queries)
        assert threaded == serial
        serial_totals = counter_totals(serial_reg)
        assert counter_totals(thread_reg) == serial_totals
        assert serial_totals, "no serve counters recorded"
