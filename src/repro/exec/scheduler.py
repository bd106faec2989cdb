"""The ``workers`` shard scheduler: long-lived framed worker processes.

:func:`repro.exec.executor.execute_study` plans shards and merges
outcomes, and reaches compute through
:func:`repro.exec.dispatch.map_ordered` for the serial, thread and
process-pool backends.  This module is the fourth backend:
:class:`WorkerScheduler` runs N long-lived forked worker processes
speaking length-prefixed JSON frames (:mod:`repro.exec.jobs`) over
socket pairs, with a work-stealing queue, per-job deadlines, and
straggler re-dispatch.  ``run()`` returns every shard's
:class:`~repro.exec.executor.ShardOutcome` exactly once plus a
:class:`SchedulerReport` of the dispatch accounting; the study result
is bit-identical to the other backends' because the shard runner and
the shard-order merge never change.

The workers backend is the distributed substrate: each worker slot
owns a contiguous block of the shard list, idle workers drain their
own block front-first and steal from the *tail* of the longest
remaining block (classic work stealing — the victim keeps its cache-
warm front).  A job unanswered past its deadline is re-dispatched to
the next idle worker with the attempt bumped; the straggler's late
answer becomes a *duplicate completion*, resolved deterministically
by shard index — first answer per shard wins, and because the same
shard produces the same bytes on any worker and any attempt, the
winner is irrelevant to the merged result.  Worker death (EOF) and
protocol garbage (quarantine) follow the same re-dispatch path with
the worker slot respawned.  If *every* slot is overdue at once —
a genuinely wedged fleet, e.g. ``--workers 1`` with a worker that
never answers — the longest-overdue worker is force-replaced so the
re-dispatched shards always find a live slot instead of the select
loop blocking forever.

Injected scheduler faults (``worker.crash`` / ``worker.stall`` /
``worker.garbage``, see :mod:`repro.faults.plan`) are decided by the
seeded plan per ``(shard, attempt)`` and always recover within
``max_consecutive`` attempts, so the dispatch-attempt cap —
``max(max_attempts, max_consecutive + 1)`` — only ever fires
on a genuinely wedged job.
"""

from __future__ import annotations

import collections
import itertools
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from repro.exec.dispatch import SchedulerError
from repro.exec.jobs import (
    DEFAULT_JOB_DEADLINE_S,
    JobProtocolError,
    JobResult,
    JobSpec,
    decode_frames,
    encode_config,
    encode_frame,
)
from repro.exec.sharding import Shard
from repro.exec.worker import connection_worker

_RECV_CHUNK = 1 << 16


@dataclass
class SchedulerReport:
    """Dispatch accounting for one scheduled run.

    Deliberately *not* part of the study result's equality or of the
    run's metric registry: how shards were scheduled is operational
    telemetry, exported only on request via :meth:`to_metrics` so a
    scheduled run's Prometheus text stays byte-identical to serial.
    """

    backend: str
    workers: int
    jobs_total: int = 0
    dispatched: int = 0
    completed: int = 0
    redispatched: int = 0
    duplicates: int = 0
    stolen: int = 0
    worker_deaths: int = 0
    quarantined: int = 0
    respawns: int = 0
    deadline_s: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    def to_metrics(self, registry) -> None:
        """Export ``ripki_jobs_*`` into ``registry`` (explicit only)."""
        counters = (
            ("ripki_jobs_total", "Shards planned for dispatch",
             self.jobs_total),
            ("ripki_jobs_dispatched_total", "Job frames dispatched",
             self.dispatched),
            ("ripki_jobs_completed_total", "Shards completed exactly once",
             self.completed),
            ("ripki_jobs_redispatched_total",
             "Re-dispatches after deadline expiry, death, or quarantine",
             self.redispatched),
            ("ripki_jobs_duplicate_results_total",
             "Late straggler answers dropped by shard index",
             self.duplicates),
            ("ripki_jobs_stolen_total",
             "Jobs stolen from another worker's queue", self.stolen),
            ("ripki_jobs_worker_deaths_total",
             "Worker connections lost mid-run", self.worker_deaths),
            ("ripki_jobs_quarantined_workers_total",
             "Workers quarantined for protocol garbage", self.quarantined),
            ("ripki_jobs_worker_respawns_total",
             "Replacement workers spawned", self.respawns),
        )
        for name, help, value in counters:
            registry.counter(name, help).inc(value)
        registry.gauge(
            "ripki_jobs_workers", "Worker slots the scheduler ran"
        ).set(self.workers)
        if self.deadline_s is not None:
            registry.gauge(
                "ripki_jobs_deadline_seconds", "Per-job dispatch deadline"
            ).set(self.deadline_s)


class Completions:
    """Deterministic exactly-once completion book, keyed by shard index.

    The first answer for a shard wins; later answers (stragglers that
    beat their replacement, or vice versa) are counted as duplicates
    and dropped.  Because any worker's answer for a shard is
    bit-identical, which copy wins cannot affect the merged result —
    this book just guarantees the merge sees each index exactly once.
    """

    def __init__(self):
        self._done: Dict[int, object] = {}
        self.duplicates = 0

    def offer(self, index: int, outcome) -> bool:
        """Record ``outcome`` for ``index``; False if already done."""
        if index in self._done:
            self.duplicates += 1
            return False
        self._done[index] = outcome
        return True

    def __contains__(self, index: int) -> bool:
        return index in self._done

    def __len__(self) -> int:
        return len(self._done)

    def outcomes(self) -> List[object]:
        return [self._done[index] for index in sorted(self._done)]


class _WorkerSlot:
    """Parent-side state for one worker process + its socket."""

    __slots__ = ("slot", "worker_id", "process", "conn", "buffer",
                 "job", "overdue")

    def __init__(self, slot: int, worker_id: int, process, conn):
        self.slot = slot            # queue the worker drains by default
        self.worker_id = worker_id  # unique across respawns
        self.process = process
        self.conn = conn
        self.buffer = b""
        # (shard_index, attempt, deadline, job_id) while busy.
        self.job: Optional[Tuple[int, int, float, int]] = None
        self.overdue = False


class WorkerScheduler:
    """N long-lived forked workers over framed sockets, work-stealing."""

    backend = "workers"

    def __init__(self, config):
        self.config = config

    def run(self, study, shards, observe, ticker, session=None):
        import multiprocessing
        import selectors
        import socket

        config = self.config
        count = max(1, config.workers)
        deadline_s = (
            config.job_deadline_s
            if config.job_deadline_s is not None
            else DEFAULT_JOB_DEADLINE_S
        )
        faults = config.faults
        attempt_cap = config.max_attempts
        if faults is not None:
            attempt_cap = max(attempt_cap, faults.max_consecutive + 1)

        report = SchedulerReport(
            backend=self.backend,
            workers=count,
            jobs_total=len(shards),
            deadline_s=deadline_s,
        )
        if not shards:
            return [], report

        from repro.cache.fingerprint import study_digests

        shipped = config.without_progress()
        digests = study_digests(study, config)
        wire_config = encode_config(shipped)
        by_index: Dict[int, Shard] = {shard.index: shard for shard in shards}
        offsets: Dict[int, int] = {}
        offset = 0
        for shard in shards:
            offsets[shard.index] = offset
            offset += len(shard)

        # Each slot owns a contiguous block of the shard list; the
        # urgent deque holds re-dispatches, served before any block.
        per_slot = -(-len(shards) // count)
        queues = [
            collections.deque(
                shard.index
                for shard in shards[slot * per_slot:(slot + 1) * per_slot]
            )
            for slot in range(count)
        ]
        urgent: collections.deque = collections.deque()
        attempts: Dict[int, int] = {shard.index: 0 for shard in shards}
        pending = set(by_index)
        completions = Completions()
        job_ids = itertools.count(1)
        worker_ids = itertools.count(0)

        ctx = multiprocessing.get_context("fork")
        sel = selectors.DefaultSelector()
        slots: List[_WorkerSlot] = []

        def spawn(slot_index: int) -> _WorkerSlot:
            parent_conn, child_conn = socket.socketpair()
            worker_id = next(worker_ids)
            siblings = tuple(state.conn for state in slots)
            process = ctx.Process(
                target=connection_worker,
                args=(child_conn, worker_id, study, digests, shipped,
                      session, siblings),
                daemon=True,
                name=f"ripki-worker-{worker_id}",
            )
            process.start()
            child_conn.close()
            state = _WorkerSlot(slot_index, worker_id, process, parent_conn)
            sel.register(parent_conn, selectors.EVENT_READ, state)
            return state

        def retire(state: _WorkerSlot) -> None:
            try:
                sel.unregister(state.conn)
            except (KeyError, ValueError):
                pass
            try:
                state.conn.close()
            except OSError:
                pass

        def requeue(shard_index: int, why: str) -> None:
            if shard_index not in pending or shard_index in urgent:
                return
            attempts[shard_index] += 1
            if attempts[shard_index] >= attempt_cap:
                raise SchedulerError(
                    f"shard {shard_index} exceeded {attempt_cap} dispatch "
                    f"attempts (last: {why})"
                )
            report.redispatched += 1
            urgent.append(shard_index)

        def replace(state: _WorkerSlot, why: str) -> None:
            """Death/quarantine: retire the slot, requeue, respawn."""
            retire(state)
            if state.process.is_alive():
                state.process.terminate()
            state.process.join(timeout=5)
            slots.remove(state)
            if state.job is not None and not state.overdue:
                requeue(state.job[0], why)
            state.job = None
            report.respawns += 1
            slots.append(spawn(state.slot))

        def take_job(state: _WorkerSlot) -> Optional[int]:
            while urgent:
                candidate = urgent.popleft()
                if candidate in pending:
                    return candidate
            own = queues[state.slot]
            if own:
                return own.popleft()
            victim = max(queues, key=len)
            if victim:
                report.stolen += 1
                return victim.pop()
            return None

        def dispatch(state: _WorkerSlot) -> bool:
            shard_index = take_job(state)
            if shard_index is None:
                return False
            shard = by_index[shard_index]
            spec = JobSpec(
                job_id=next(job_ids),
                shard_index=shard_index,
                start=offsets[shard_index],
                count=len(shard),
                attempt=attempts[shard_index],
                observe=observe,
                digests=digests,
                config=wire_config,
            )
            try:
                state.conn.sendall(encode_frame(spec.to_wire()))
            except OSError:
                urgent.appendleft(shard_index)
                report.worker_deaths += 1
                replace(state, "send failed")
                return True
            state.job = (
                shard_index,
                spec.attempt,
                time.monotonic() + deadline_s,
                spec.job_id,
            )
            state.overdue = False
            report.dispatched += 1
            return True

        def release(state: _WorkerSlot, result: JobResult) -> None:
            if state.job is not None and state.job[3] == result.job_id:
                state.job = None
                state.overdue = False

        def complete(state: _WorkerSlot, result: JobResult) -> None:
            shard_index = result.shard_index
            if shard_index not in by_index:
                raise SchedulerError(
                    f"worker {result.worker_id} answered unknown shard "
                    f"{shard_index}"
                )
            if shard_index not in pending:
                release(state, result)
                completions.offer(shard_index, None)  # counted duplicate
                return
            # Decode before releasing the slot: if the body violates
            # the codec, the JobProtocolError must reach replace()
            # with state.job still set so the in-flight shard is
            # requeued rather than stranded in pending forever.
            outcome = result.to_outcome(by_index[shard_index])
            release(state, result)
            completions.offer(shard_index, outcome)
            pending.discard(shard_index)
            report.completed += 1
            ticker(by_index[shard_index])

        def on_frame(state: _WorkerSlot, frame: dict) -> None:
            kind = frame.get("type")
            if kind == "result":
                complete(state, JobResult.from_wire(frame))
            elif kind == "error":
                raise SchedulerError(
                    f"worker {frame.get('worker_id')} refused job "
                    f"{frame.get('job_id')}: {frame.get('message')}"
                )
            else:
                raise JobProtocolError(f"unexpected frame type {kind!r}")

        try:
            slots.extend(spawn(slot) for slot in range(count))
            while pending:
                for state in list(slots):
                    if state.job is None and not dispatch(state):
                        break
                busy = [
                    state.job[2]
                    for state in slots
                    if state.job is not None and not state.overdue
                ]
                if not busy:
                    # Every in-flight job is overdue (an idle slot
                    # would already have drained the urgent deque at
                    # the loop top), so select would block forever on
                    # workers that may never answer while the
                    # re-dispatched shards sit unsendable.  Break the
                    # wedge: kill the longest-overdue worker — its
                    # shard was requeued when the deadline expired —
                    # and let the respawn drain the urgent queue.
                    wedged = min(
                        (s for s in slots if s.job is not None),
                        key=lambda s: s.job[2],
                        default=None,
                    )
                    if wedged is None:
                        raise SchedulerError(
                            f"{len(pending)} shards pending with no "
                            f"in-flight job and no queued work"
                        )
                    report.worker_deaths += 1
                    replace(wedged, "wedged past deadline")
                    continue
                timeout = max(0.0, min(busy) - time.monotonic())
                for key, _events in sel.select(timeout):
                    state = key.data
                    try:
                        data = state.conn.recv(_RECV_CHUNK)
                    except OSError:
                        data = b""
                    if not data:
                        report.worker_deaths += 1
                        replace(state, "worker died")
                        continue
                    state.buffer += data
                    try:
                        frames, state.buffer = decode_frames(state.buffer)
                    except JobProtocolError:
                        report.quarantined += 1
                        replace(state, "protocol garbage")
                        continue
                    try:
                        for frame in frames:
                            on_frame(state, frame)
                    except JobProtocolError:
                        report.quarantined += 1
                        replace(state, "undecodable result")
                        continue
                now = time.monotonic()
                for state in slots:
                    if (
                        state.job is not None
                        and not state.overdue
                        and now >= state.job[2]
                    ):
                        requeue(state.job[0], "deadline expired")
                        state.overdue = True
        finally:
            for state in slots:
                try:
                    state.conn.sendall(encode_frame({"type": "shutdown"}))
                except OSError:
                    pass
                retire(state)
            for state in slots:
                state.process.join(timeout=2)
                if state.process.is_alive():
                    state.process.terminate()
                    state.process.join(timeout=2)
            sel.close()

        report.duplicates = completions.duplicates
        if len(completions) != len(shards):
            raise SchedulerError(
                f"scheduler completed {len(completions)} of "
                f"{len(shards)} shards"
            )
        return completions.outcomes(), report
