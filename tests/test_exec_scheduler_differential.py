"""Differential matrix: every scheduler backend vs the serial walk.

The distributed substrate's one promise is that *scheduling is
invisible*: for a fixed seed and config, the study result, the merged
Prometheus exposition, and the structural trace content are
bit-identical whichever backend ran the shards — including runs where
the workers backend had to mask injected worker deaths, stragglers,
and the duplicate completions stragglers leave behind.

The serial reference is ``mode="serial"`` *through the executor* (the
plain ``study.run()`` loop has no shard spans to compare against).
Span digests cover structural content only — names, attributes,
errors — because start/end timestamps legitimately differ per run.
"""

import dataclasses
import hashlib
import json

import pytest

from repro import obs
from repro.core import MeasurementStudy, RunConfig
from repro.exec import execute_study
from repro.exec.scheduler import SchedulerReport
from repro.faults import WORKER_CRASH, WORKER_STALL, FaultPlan
from repro.web import EcosystemConfig, WebEcosystem

SEED = 2015
SHARD_SIZE = 30
WORKERS = 3
DEADLINE_S = 0.4

# The fault dimension: None exercises the plain path; each plan layers
# one scheduler failure mode (plus a measurement-fault baseline) on
# the same seed so serial and workers runs face identical schedules.
FAULT_CASES = {
    "none": None,
    "worker-kill": {WORKER_CRASH: 0.5},
    "straggler": {WORKER_STALL: 0.4},
    "duplicate-completion": {WORKER_STALL: 0.6, WORKER_CRASH: 0.2},
}

BACKENDS = ("serial", "thread", "process", "workers")


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
        max_attempts=3,
        faults=faults,
        job_deadline_s=DEADLINE_S,
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
    """The dispatch report must prove the failure modes actually ran."""

    def test_to_dict_is_every_field_in_declaration_order(self):
        report = SchedulerReport("workers", 2, stolen=3, deadline_s=0.5)
        names = [spec.name for spec in dataclasses.fields(SchedulerReport)]
        assert list(report.to_dict()) == names
        assert report.to_dict() == {n: getattr(report, n) for n in names}

    def test_worker_kill_redispatches(self, diff_study):
        result = execute_study(
            diff_study, config=make_config("workers", FAULT_CASES["worker-kill"])
        )
        report = result.scheduler_report
        assert report.backend == "workers"
        assert report.worker_deaths > 0
        assert report.respawns == report.worker_deaths
        assert report.redispatched >= report.worker_deaths
        assert report.completed == report.jobs_total

    def test_straggler_redispatches_past_deadline(self, diff_study):
        result = execute_study(
            diff_study, config=make_config("workers", FAULT_CASES["straggler"])
        )
        report = result.scheduler_report
        assert report.redispatched > 0
        assert report.completed == report.jobs_total

    def test_wedged_worker_is_force_replaced(self, diff_study, monkeypatch):
        """A genuinely wedged worker must not block the run forever.

        With ``--workers 1`` every slot going overdue used to leave
        the select loop with no wakeup and the re-dispatched shard
        unsendable; the scheduler now force-replaces the
        longest-overdue worker so urgent work always finds a live
        slot.
        """
        import signal
        import time as time_mod

        import repro.exec.worker as worker_mod

        real_inject = worker_mod._maybe_inject

        def wedge(spec, config, writer):
            if spec.shard_index == 0 and spec.attempt == 0:
                time_mod.sleep(300.0)  # never answers within the test
            real_inject(spec, config, writer)

        monkeypatch.setattr(worker_mod, "_maybe_inject", wedge)

        def hung(signum, frame):
            raise TimeoutError(
                "scheduler blocked on a wedged single-worker fleet"
            )

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(120)
        try:
            result = execute_study(diff_study, config=RunConfig(
                workers=1, mode="workers", shard_size=SHARD_SIZE,
                max_attempts=3,
                # Roomy enough that only the wedged shard ever trips
                # it, small enough to keep the test quick.
                job_deadline_s=1.0,
            ))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        report = result.scheduler_report
        assert report.worker_deaths >= 1
        assert report.respawns >= 1
        assert report.redispatched >= 1
        assert report.completed == report.jobs_total
        assert result == execute_study(
            diff_study, config=make_config("serial", None)
        )

    def test_duplicates_resolve_first_wins_by_shard_index(self):
        from repro.exec.scheduler import Completions

        book = Completions()
        assert book.offer(3, "first")
        assert not book.offer(3, "late straggler copy")
        assert not book.offer(3, "even later")
        assert book.offer(1, "other shard")
        assert book.duplicates == 2
        assert book.outcomes() == ["other shard", "first"]
        assert len(book) == 2

    def test_only_the_workers_backend_reports(self, diff_study):
        for mode in ("serial", "thread", "process"):
            result = execute_study(
                diff_study, config=make_config(mode, None)
            )
            assert result.scheduler_report is None
        report = execute_study(
            diff_study, config=make_config("workers", None)
        ).scheduler_report
        assert report.completed == report.jobs_total
        assert report.worker_deaths == 0

    def test_plain_serial_run_has_no_report(self, diff_study):
        result = diff_study.run(config=RunConfig())
        assert result.scheduler_report is None

    def test_worker_faults_leave_statistics_untouched(self, diff_study):
        """worker.* kinds are scheduler weather, not measurement faults."""
        plain = execute_study(diff_study, config=make_config("serial", None))
        masked = execute_study(
            diff_study,
            config=make_config("workers", FAULT_CASES["worker-kill"]),
        )
        assert masked.statistics.degraded_domains == 0
        assert masked.statistics.faults_by_kind == {}
        assert list(masked) == list(plain)
