"""Hypothesis fuzzing of the job-protocol frame codec and scheduler.

Mirrors ``test_rtr_fuzz.py`` for the execution plane:

* **round-trip** — JobSpec/JobResult envelopes and RunConfig/span
  encodings survive ``encode → frame → decode`` exactly, including
  multi-frame streams split at arbitrary byte boundaries;
* **hostile bytes** — truncations, oversize length prefixes, and
  arbitrary garbage either buffer (incomplete frame) or raise the
  *typed* :class:`JobProtocolError`; a raw ``struct.error`` /
  ``KeyError`` / ``UnicodeDecodeError`` escaping the codec is a bug;
* **hostile value rows** — a well-framed result carrying one of the
  codec's hostile rows (``test_exec_parallel.py::TestHostileWireRows``:
  a value row the value type refuses, a name row or statistics the
  codec refuses) surfaces as a ``JobProtocolError`` from
  ``to_outcome``; so does a span-aggregate row with impossible counts
  or seconds;
* **scheduler quarantine** — a worker whose reply stream is garbage
  (the seeded ``worker.garbage`` fault) is quarantined and its shard
  re-dispatched: the merged study result stays bit-identical to
  serial, never corrupted by the poisoned frames.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import MeasurementStudy, RunConfig
from repro.core.pipeline import StudyStatistics
from repro.errors import ReproError
from repro.exec import Shard, encode_statistics
from repro.exec.jobs import (
    MAX_FRAME_SIZE,
    PREFIX_SIZE,
    JobProtocolError,
    JobResult,
    JobSpec,
    decode_config,
    decode_frames,
    decode_span_stats,
    decode_spans,
    encode_config,
    encode_frame,
    encode_span_stats,
    encode_spans,
)
from repro.faults import WORKER_GARBAGE, FaultPlan
from repro.obs.tracing import Span, TraceCollector
from repro.web import EcosystemConfig, WebEcosystem
from repro.web.alexa import Domain
from tests.test_exec_parallel import (
    GOOD_ADDRESS,
    GOOD_PAIR,
    HOSTILE_NAMES,
    HOSTILE_ROWS,
    HOSTILE_STATES,
    HOSTILE_STATISTICS,
    value_row_wire,
)

# -- strategies ---------------------------------------------------------------

digest_maps = st.dictionaries(
    st.sampled_from(["zone", "dump", "vrps", "config"]),
    st.text(
        alphabet="0123456789abcdef", min_size=8, max_size=16
    ),
)

job_specs = st.builds(
    JobSpec,
    job_id=st.integers(min_value=0, max_value=1 << 31),
    shard_index=st.integers(min_value=0, max_value=10_000),
    start=st.integers(min_value=0, max_value=1 << 20),
    count=st.integers(min_value=1, max_value=5_000),
    attempt=st.integers(min_value=0, max_value=16),
    observe=st.booleans(),
    digests=digest_maps,
)

wire_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(1 << 40), max_value=1 << 40),
        st.text(max_size=20),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=10,
)

job_results = st.builds(
    JobResult,
    job_id=st.integers(min_value=0, max_value=1 << 31),
    shard_index=st.integers(min_value=0, max_value=10_000),
    attempt=st.integers(min_value=0, max_value=16),
    worker_id=st.integers(min_value=0, max_value=64),
    measurements=st.lists(wire_values, max_size=4),
    statistics=st.lists(wire_values, max_size=4),
    metrics=st.none(),
    spans=st.lists(wire_values, max_size=4),
    span_stats=st.one_of(st.none(), st.lists(wire_values, max_size=4)),
)

fault_plans = st.builds(
    lambda seed, rate, cap: FaultPlan.from_rates(
        {WORKER_GARBAGE: rate}, seed=seed, max_consecutive=cap
    ),
    st.integers(min_value=0, max_value=1 << 30),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=1, max_value=6),
)

run_configs = st.builds(
    RunConfig,
    workers=st.integers(min_value=1, max_value=8),
    mode=st.sampled_from(["auto", "serial", "thread", "process", "workers"]),
    shard_size=st.one_of(st.none(), st.integers(min_value=1, max_value=5000)),
    max_attempts=st.integers(min_value=1, max_value=8),
    faults=st.one_of(st.none(), fault_plans),
    job_deadline_s=st.one_of(
        st.none(), st.floats(min_value=0.01, max_value=600.0)
    ),
)

spans = st.lists(
    st.builds(
        Span,
        name=st.sampled_from(["shard.run", "dns.resolve", "stage.rank"]),
        span_id=st.integers(min_value=1, max_value=1 << 30),
        parent_id=st.one_of(
            st.none(), st.integers(min_value=1, max_value=1 << 30)
        ),
        attributes=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(st.integers(), st.text(max_size=8)),
            max_size=3,
        ),
        start=st.floats(min_value=0.0, max_value=1e6),
        end=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e6)),
        error=st.one_of(st.none(), st.text(max_size=16)),
    ),
    max_size=5,
)


def assert_only_typed_errors(buffer: bytes):
    """Feed hostile bytes to the decoder; only typed errors may escape."""
    try:
        frames, rest = decode_frames(buffer)
    except ReproError:
        return None, None  # typed: the scheduler can quarantine on this
    except Exception as error:  # pragma: no cover - the bug being hunted
        raise AssertionError(
            f"decode_frames leaked {type(error).__name__}: {error!r}"
        )
    return frames, rest


# -- round-trip ---------------------------------------------------------------


class TestRoundTrip:
    @given(spec=job_specs)
    def test_job_spec_round_trip(self, spec):
        frames, rest = decode_frames(encode_frame(spec.to_wire()))
        assert rest == b""
        assert [JobSpec.from_wire(f) for f in frames] == [spec]

    @given(result=job_results)
    def test_job_result_round_trip(self, result):
        # JSON turns tuples into lists; the strategy builds list-form
        # payloads so equality is exact.
        frames, rest = decode_frames(encode_frame(result.to_wire()))
        assert rest == b""
        assert [JobResult.from_wire(f) for f in frames] == [result]

    @given(config=run_configs)
    def test_config_round_trip(self, config):
        wire = json.loads(json.dumps(encode_config(config)))
        decoded = decode_config(wire)
        assert decoded.max_attempts == config.max_attempts
        assert decoded.faults == config.faults
        assert decoded.workers == config.workers
        assert decoded.mode == config.mode
        assert decoded.shard_size == config.shard_size
        assert decoded.job_deadline_s == config.job_deadline_s

    @pytest.mark.parametrize("max_attempts", [0, -1, "3", None, "missing"])
    def test_config_with_bad_max_attempts_is_refused(self, max_attempts):
        wire = encode_config(RunConfig())
        if max_attempts == "missing":
            del wire["max_attempts"]
        else:
            wire["max_attempts"] = max_attempts
        with pytest.raises(JobProtocolError):
            decode_config(wire)

    @given(trace=spans)
    def test_span_round_trip(self, trace):
        wire = json.loads(json.dumps(encode_spans(trace)))
        assert decode_spans(wire) == trace

    @given(names=st.lists(
        st.sampled_from(["shard.run", "stage.dns", "stage.rpki"]), max_size=12
    ))
    def test_span_stats_round_trip(self, names):
        collector = TraceCollector(max_per_name=1)
        for name in names:
            with collector.span(name):
                pass
        stats = collector.aggregate()
        wire = json.loads(json.dumps(encode_span_stats(stats)))
        assert decode_span_stats(wire) == stats
        assert decode_span_stats(encode_span_stats(None)) is None

    @given(specs=st.lists(job_specs, min_size=1, max_size=5),
           cut=st.integers(min_value=0, max_value=10_000))
    def test_stream_split_at_any_boundary(self, specs, cut):
        stream = b"".join(encode_frame(s.to_wire()) for s in specs)
        cut = min(cut, len(stream))
        first, rest = decode_frames(stream[:cut])
        tail, leftover = decode_frames(rest + stream[cut:])
        assert leftover == b""
        decoded = [JobSpec.from_wire(f) for f in first + tail]
        assert decoded == specs


# -- hostile bytes ------------------------------------------------------------


class TestHostileBytes:
    @given(spec=job_specs, keep=st.integers(min_value=0, max_value=10_000))
    def test_truncation_buffers_or_raises_typed(self, spec, keep):
        frame = encode_frame(spec.to_wire())
        truncated = frame[:min(keep, len(frame) - 1)]
        frames, rest = assert_only_typed_errors(truncated)
        if frames is not None:
            assert frames == []          # nothing fabricated
            assert rest == truncated     # waits for the remainder

    @given(garbage=st.binary(max_size=200))
    def test_arbitrary_garbage_never_leaks_raw_exception(self, garbage):
        assert_only_typed_errors(garbage)

    @given(spec=job_specs, position=st.integers(min_value=0, max_value=10_000),
           flip=st.integers(min_value=1, max_value=255))
    def test_single_byte_flip_never_leaks_raw_exception(
        self, spec, position, flip
    ):
        frame = bytearray(encode_frame(spec.to_wire()))
        frame[position % len(frame)] ^= flip
        frames, _rest = assert_only_typed_errors(bytes(frame))
        if frames:
            # A luckily-valid frame must still go through the typed
            # envelope validation, not crash the scheduler.
            for payload in frames:
                try:
                    JobSpec.from_wire(payload)
                except ReproError:
                    pass

    def test_oversize_length_prefix_is_typed(self):
        hostile = (MAX_FRAME_SIZE + 1).to_bytes(PREFIX_SIZE, "big") + b"x"
        with pytest.raises(JobProtocolError):
            decode_frames(hostile)

    def test_zero_length_frame_is_typed(self):
        with pytest.raises(JobProtocolError):
            decode_frames(b"\x00\x00\x00\x00")

    def test_garbage_mid_stream_is_typed(self):
        good = encode_frame({"type": "job"})
        hostile = good + b"\xff\xff\xff\xffgarbage"
        with pytest.raises(JobProtocolError):
            decode_frames(hostile)

    @given(body=st.binary(min_size=1, max_size=64))
    def test_non_json_body_is_typed(self, body):
        framed = len(body).to_bytes(PREFIX_SIZE, "big") + body
        try:
            frames, _rest = decode_frames(framed)
        except JobProtocolError:
            return
        for payload in frames:
            assert isinstance(payload, dict)

    @given(wire=st.dictionaries(st.text(max_size=8), wire_values, max_size=6))
    def test_malformed_envelopes_raise_typed(self, wire):
        for envelope in (JobSpec, JobResult):
            try:
                envelope.from_wire(wire)
            except ReproError:
                pass


# -- hostile value rows -------------------------------------------------------

# name, count, total, min, max, errors
GOOD_SPAN_STATS = ["stage.dns", 3, 0.5, 0.1, 0.3, 1]


def _stats_row(**changes) -> list:
    row = dict(zip(("name", "count", "total", "min", "max", "errors"),
                   GOOD_SPAN_STATS))
    row.update(changes)
    return [list(row.values())]


HOSTILE_SPAN_STATS = {
    "not-a-list": 7,
    "short-row": [GOOD_SPAN_STATS[:5]],
    "name-not-text": _stats_row(name=5),
    "repeated-name": [GOOD_SPAN_STATS, GOOD_SPAN_STATS],
    "count-zero": _stats_row(count=0, errors=0),
    "count-negative": _stats_row(count=-3),
    "count-bool": _stats_row(count=True, errors=0),
    "count-float": _stats_row(count=3.0),
    "errors-over-count": _stats_row(errors=4),
    "errors-negative": _stats_row(errors=-1),
    "total-nan": _stats_row(total=float("nan")),
    "max-infinite": _stats_row(max=float("inf"), total=float("inf")),
    "min-negative": _stats_row(min=-0.1),
    "min-over-max": _stats_row(min=0.4),
    "max-over-total": _stats_row(max=0.6),
    "seconds-text": _stats_row(total="0.5"),
}


class TestHostileValueRows:
    shard = Shard(index=0, domains=(Domain(rank=1, name="example.com"),))

    def result(self, wire: list, span_stats=None, statistics=None) -> JobResult:
        """``wire`` as the parent sees it: framed, sent, unframed."""
        if statistics is None:
            statistics = list(encode_statistics(StudyStatistics()))
        sent = JobResult(
            job_id=1, shard_index=0, attempt=0, worker_id=0,
            measurements=wire,
            statistics=statistics,
            metrics=None, spans=[], span_stats=span_stats,
        )
        (frame,), _rest = decode_frames(encode_frame(sent.to_wire()))
        return JobResult.from_wire(frame)

    def test_well_formed_rows_decode(self):
        outcome = self.result(value_row_wire()).to_outcome(self.shard)
        (measurement,) = outcome.measurements
        assert tuple(measurement.www.addresses[0]) == tuple(GOOD_ADDRESS)
        assert tuple(measurement.www.pairs[0].prefix) == tuple(GOOD_PAIR[:3])

    @pytest.mark.parametrize(
        "case", sorted(HOSTILE_ROWS) + sorted(HOSTILE_STATES)
    )
    def test_result_frame_surfaces_as_protocol_error(self, case):
        changes = HOSTILE_ROWS.get(case) or HOSTILE_STATES[case]
        result = self.result(value_row_wire(**changes))
        with pytest.raises(JobProtocolError):
            result.to_outcome(self.shard)

    @pytest.mark.parametrize("case", sorted(HOSTILE_NAMES))
    def test_hostile_name_row_surfaces_as_protocol_error(self, case):
        name = list(HOSTILE_NAMES[case])
        result = self.result([[name, name]])
        with pytest.raises(JobProtocolError):
            result.to_outcome(self.shard)

    @pytest.mark.parametrize("case", sorted(HOSTILE_STATISTICS))
    def test_hostile_statistics_surface_as_protocol_error(self, case):
        result = self.result(
            value_row_wire(), statistics=HOSTILE_STATISTICS[case]
        )
        with pytest.raises(JobProtocolError):
            result.to_outcome(self.shard)

    def test_well_formed_span_stats_decode(self):
        outcome = self.result(
            value_row_wire(), span_stats=[GOOD_SPAN_STATS]
        ).to_outcome(self.shard)
        assert outcome.span_stats["stage.dns"].count == 3

    @pytest.mark.parametrize("case", sorted(HOSTILE_SPAN_STATS))
    def test_hostile_span_stats_surface_as_protocol_error(self, case):
        result = self.result(
            value_row_wire(), span_stats=HOSTILE_SPAN_STATS[case]
        )
        with pytest.raises(JobProtocolError):
            result.to_outcome(self.shard)


# -- scheduler quarantine -----------------------------------------------------


@pytest.fixture(scope="module")
def jobs_world():
    world = WebEcosystem.build(
        EcosystemConfig(domain_count=240, seed=11, hoster_count=40,
                        eyeball_count=20)
    )
    return MeasurementStudy.from_ecosystem(world)


class TestSchedulerQuarantine:
    def test_garbage_worker_is_quarantined_not_merged(self, jobs_world):
        """Poisoned reply streams re-dispatch; the merge stays exact."""
        plan = FaultPlan.from_rates(
            {WORKER_GARBAGE: 0.5}, seed=5, max_consecutive=2
        )
        serial = jobs_world.run(config=RunConfig(faults=plan))
        fuzzed = jobs_world.run(config=RunConfig(
            workers=3, mode="workers", shard_size=24, faults=plan,
            job_deadline_s=5.0,
        ))
        report = fuzzed.scheduler_report
        assert report.quarantined > 0, (
            "seed must inject at least one garbage frame"
        )
        assert report.respawns >= report.quarantined
        assert report.redispatched >= report.quarantined
        assert fuzzed == serial

    def test_undecodable_result_body_requeues_shard(
        self, jobs_world, monkeypatch
    ):
        """A valid result frame whose body fails codec decoding must
        quarantine the worker AND re-dispatch the in-flight shard —
        not strand it in pending while the select loop blocks forever.
        """
        import dataclasses
        import signal

        from repro.exec import jobs as jobs_mod

        real = jobs_mod.JobResult.from_outcome.__func__

        def poisoned(cls, spec, worker_id, outcome):
            result = real(cls, spec, worker_id, outcome)
            if spec.shard_index == 0 and spec.attempt == 0:
                # Structurally a fine frame; measurement count can
                # never match the shard, so to_outcome() raises.
                return dataclasses.replace(result, measurements=[])
            return result

        monkeypatch.setattr(
            jobs_mod.JobResult, "from_outcome", classmethod(poisoned)
        )

        def wedged(signum, frame):
            raise TimeoutError(
                "scheduler hung: undecodable result stranded its shard"
            )

        previous = signal.signal(signal.SIGALRM, wedged)
        signal.alarm(120)
        try:
            fuzzed = jobs_world.run(config=RunConfig(
                workers=2, mode="workers", shard_size=24,
                max_attempts=3, job_deadline_s=30.0,
            ))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        report = fuzzed.scheduler_report
        assert report.quarantined >= 1
        assert report.redispatched >= 1
        assert report.respawns >= 1
        assert report.completed == report.jobs_total
        assert fuzzed == jobs_world.run(config=RunConfig())

    def test_quarantine_counters_reach_exported_metrics(self, jobs_world):
        from repro.obs.metrics import MetricsRegistry

        plan = FaultPlan.from_rates(
            {WORKER_GARBAGE: 0.5}, seed=5, max_consecutive=2
        )
        result = jobs_world.run(config=RunConfig(
            workers=2, mode="workers", shard_size=24, faults=plan,
            job_deadline_s=5.0,
        ))
        registry = MetricsRegistry()
        result.scheduler_report.to_metrics(registry)
        text = registry.render_prometheus()
        assert "ripki_jobs_quarantined_workers_total" in text
        assert "ripki_jobs_redispatched_total 0\n" not in text
