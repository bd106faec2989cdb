"""The ordered-dispatch primitive every parallel path is built on."""

import gc
import os
import threading
import time
import weakref

import pytest

from repro import obs
from repro.exec import dispatch
from repro.exec.dispatch import (
    Recorded,
    SchedulerError,
    map_ordered,
    merge_recorded,
    resolve_mode,
    run_batches,
)
from repro.exec.sharding import plan_batches
from repro.obs.runtime import metrics, tracer
from repro.obs.tracing import TraceCollector

POOLED = ("thread", "process")
BATCHES = plan_batches(list(range(40)), batch_size=8)


def _work(batch):
    """Tick a labelled counter per item under a span; later batches
    finish first so completion order is the reverse of batch order."""
    counter = metrics().counter(
        "dispatch_items_total", "Items seen", labelnames=("parity",)
    )
    with tracer().span("work.batch", batch=batch.index):
        for item in batch.items:
            counter.labels(parity="odd" if item % 2 else "even").inc()
        metrics().histogram("dispatch_batch_size", "Batch sizes").observe(
            len(batch)
        )
        time.sleep(0.01 * (len(BATCHES) - batch.index))
    return [item * 2 for item in batch.items]


def _fail_on_second(batch):
    metrics().counter("dispatch_items_total", "Items seen").inc(len(batch))
    if batch.index == 1:
        raise RuntimeError("batch 1 broke")
    return len(batch)


def _thread_ident(_batch):
    return threading.get_ident()


def _die_on_second(batch):
    metrics().counter("dispatch_items_total", "Items seen").inc(len(batch))
    if batch.index == 1:
        os._exit(1)
    return len(batch)


_SCALE = None


def _set_scale(scale):
    global _SCALE
    _SCALE = scale


def _scaled(batch):
    return [item * _SCALE for item in batch.items]


class _Watched:
    """A batch result a weakref can watch."""

    def __init__(self, index):
        self.index = index


def _watched(batch):
    # Batches finish in order, well apart, so each is received before
    # the next completes.
    time.sleep(0.05 * batch.index)
    return _Watched(batch.index)


def _observed_run(mode):
    """(results, prometheus text, collector) of one run under a root span."""
    with obs.scope() as (registry, collector):
        with collector.span("root") as root:
            results = run_batches(
                _work, BATCHES, workers=3, mode=mode, root=root
            )
    return results, registry.render_prometheus(), collector


class TestOrder:
    @pytest.mark.parametrize("mode", ("serial",) + POOLED)
    def test_results_come_back_in_batch_order(self, mode):
        done = []
        results = run_batches(
            _work, BATCHES, workers=3, mode=mode, on_done=done.append
        )
        assert [x for batch in results for x in batch] == [
            2 * x for x in range(40)
        ]
        assert sorted(batch.index for batch in done) == list(range(5))

    @pytest.mark.parametrize("mode", ("serial",) + POOLED)
    def test_map_ordered_touches_no_instruments(self, mode):
        with obs.scope() as (registry, collector):
            results = map_ordered(
                _thread_ident, BATCHES, workers=3, mode=mode
            )
        assert len(results) == len(BATCHES)
        assert len(registry) == 0 and len(collector) == 0

    def test_unknown_backend_rejected(self):
        for mode in ("workers", "auto", "fibers"):
            with pytest.raises(ValueError):
                run_batches(_work, BATCHES, workers=3, mode=mode)


class TestTelemetryComesHome:
    @pytest.mark.parametrize("mode", POOLED)
    def test_counters_and_text_equal_serial(self, mode):
        serial_results, serial_text, _ = _observed_run("serial")
        results, text, _ = _observed_run(mode)
        assert results == serial_results
        assert 'dispatch_items_total{parity="even"} 20' in text
        assert "dispatch_batch_size_count 5" in text
        assert text == serial_text

    @pytest.mark.parametrize("mode", POOLED)
    def test_spans_land_under_root(self, mode):
        _, _, collector = _observed_run(mode)
        (root,) = collector.spans("root")
        batches = collector.spans("work.batch")
        assert [span.attributes["batch"] for span in batches] == list(range(5))
        assert {span.parent_id for span in batches} == {root.span_id}
        ids = [span.span_id for span in collector.spans()]
        assert len(ids) == len(set(ids))

    def test_merge_carries_dropped_spans(self):
        source = TraceCollector(max_per_name=1)
        for _ in range(3):
            with source.span("kept"):
                pass
        assert source.dropped == 2
        with obs.scope() as (_registry, collector):
            with collector.span("root") as root:
                merge_recorded(
                    [Recorded(None, None, source.spans(), source.aggregate())],
                    root,
                )
        (kept,) = collector.spans("kept")
        assert kept.parent_id == collector.spans("root")[0].span_id
        assert collector.dropped == 2
        assert collector.aggregate()["kept"].count == 3

    def test_disabled_observability_creates_no_instruments(self, monkeypatch):
        def boom(*_args, **_kwargs):
            raise AssertionError("instrument created while disabled")

        monkeypatch.setattr(dispatch, "MetricsRegistry", boom)
        monkeypatch.setattr(dispatch, "TraceCollector", boom)
        assert not obs.observability_enabled()
        results = run_batches(_work, BATCHES, workers=3, mode="thread")
        assert len(results) == len(BATCHES)

    def test_raising_batch_propagates_and_merges_nothing(self):
        with obs.scope() as (registry, collector):
            with pytest.raises(RuntimeError, match="batch 1 broke"):
                run_batches(_fail_on_second, BATCHES, workers=3, mode="thread")
        assert registry.get("dispatch_items_total") is None
        assert len(collector) == 0

    def test_dead_pool_child_is_a_typed_error_and_merges_nothing(self):
        """A child that dies used to surface as a raw
        ``concurrent.futures.process.BrokenProcessPool``."""
        with obs.scope() as (registry, collector):
            with pytest.raises(SchedulerError, match=r"batch \d of 5"):
                run_batches(_die_on_second, BATCHES, workers=2, mode="process")
        assert registry.get("dispatch_items_total") is None
        assert len(collector) == 0


class TestInitializerAndReceive:
    def test_pool_workers_are_initialised_and_results_received(self):
        received = []

        def receive(batch, result):
            received.append(batch.index)
            return batch.index, result

        results = map_ordered(
            _scaled, BATCHES, workers=2, mode="process",
            initializer=_set_scale, initargs=(3,), receive=receive,
        )
        assert results == [
            (batch.index, [item * 3 for item in batch.items])
            for batch in BATCHES
        ]
        assert sorted(received) == list(range(len(BATCHES)))
        # The initializer is the pool's: it never ran in this process.
        assert _SCALE is None


class TestReceivedResultsAreReleased:
    @pytest.mark.parametrize("mode", POOLED)
    def test_earlier_results_are_dead_when_a_batch_is_received(self, mode):
        """The parent holds a batch's raw result only until ``receive``
        returns: a pool that kept its futures held every shard's wire
        beside its decoded copy until the last shard came home."""
        watched = []
        alive_at_receive = []

        def receive(batch, result):
            gc.collect()
            alive_at_receive.append(
                [ref().index for ref in watched if ref() is not None]
            )
            watched.append(weakref.ref(result))
            return result.index

        results = map_ordered(
            _watched, BATCHES, workers=2, mode=mode, receive=receive
        )
        assert results == list(range(len(BATCHES)))
        assert alive_at_receive == [[]] * len(BATCHES)


class TestInline:
    @pytest.mark.parametrize("mode", ("serial",) + POOLED)
    def test_empty_input(self, mode):
        assert run_batches(_thread_ident, [], workers=4, mode=mode) == []

    @pytest.mark.parametrize("mode", POOLED)
    def test_single_batch_runs_on_the_calling_thread(self, mode):
        here = threading.get_ident()
        assert run_batches(
            _thread_ident, BATCHES[:1], workers=4, mode=mode
        ) == [here]

    @pytest.mark.parametrize("mode", POOLED)
    def test_one_worker_runs_on_the_calling_thread(self, mode):
        here = threading.get_ident()
        assert run_batches(
            _thread_ident, BATCHES, workers=1, mode=mode
        ) == [here] * len(BATCHES)

    def test_inline_records_into_the_live_instruments(self):
        with obs.scope() as (_registry, collector):
            with collector.span("root") as root:
                run_batches(_work, BATCHES[:1], workers=4, mode="thread")
        (span,) = collector.spans("work.batch")
        assert span.parent_id == root.span_id


class TestResolveMode:
    @pytest.mark.parametrize(
        "mode, workers, parallel, expected",
        [
            ("auto", 1, None, "serial"),
            ("auto", 4, None, "thread"),
            ("auto", 1, "process", "serial"),
            ("auto", 4, "process", "process"),
            ("serial", 4, None, "serial"),
            ("thread", 1, None, "thread"),
            ("process", 1, "thread", "process"),
            ("workers", 4, None, "workers"),
        ],
    )
    def test_table(self, mode, workers, parallel, expected):
        kwargs = {} if parallel is None else {"parallel": parallel}
        assert resolve_mode(mode, workers, **kwargs) == expected

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            resolve_mode("fibers", 2)
