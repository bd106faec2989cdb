"""Worker side of the job protocol: a frame-serving shard runner.

The ``workers`` scheduler forks N children and hands each a socket
pair (the study crosses by fork memory, never by pickle); each child
serves job frames from its socket until EOF.

Per job the worker: checks the spec's input digests against its own
(a worker holding a different world refuses with a typed error frame
instead of silently measuring the wrong population), consults the
fault plan's execution kinds (crash / stall / garbage — the seeded
schedule the scheduler's re-dispatch machinery must mask), runs the
shard through the exact :func:`repro.exec.executor.run_shard` path
every other backend uses, and replies with a :class:`JobResult`
frame.  Determinism therefore needs no new argument: the same shard
produces the same bytes no matter which worker, attempt, or backend
ran it.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional

from repro.exec.jobs import (
    DEFAULT_JOB_DEADLINE_S,
    JobProtocolError,
    JobResult,
    JobSpec,
    decode_config,
    encode_frame,
    error_frame,
    read_frame,
)
from repro.exec.sharding import Shard
from repro.faults.plan import (
    WORKER_CRASH,
    WORKER_GARBAGE,
    WORKER_STALL,
)

# Exit codes distinguish injected deaths from real crashes in logs.
CRASH_EXIT = 17
GARBAGE_EXIT = 18

# How far past the deadline an injected straggler sleeps: long enough
# that the re-dispatched copy wins, short enough to keep tests quick.
# A stall is necessarily real wall clock — missing the deadline *is*
# the fault — so the overshoot beyond the deadline is capped at an
# absolute ceiling: with the default 30 s deadline a stall costs at
# most deadline + STALL_OVERSHOOT_MAX_S, not 75 s.  Pair
# ``unreliable-workers`` with a short ``--job-deadline`` to keep
# stalls cheap.
STALL_FACTOR = 2.5
STALL_OVERSHOOT_MAX_S = 2.0


def job_key(shard_index: int) -> str:
    """The fault-plan site key for one shard's dispatch."""
    return f"shard:{shard_index}"


def _maybe_inject(spec: JobSpec, config, writer) -> None:
    """Apply the plan's execution-kind decision for this dispatch.

    Crash and garbage never return; stall sleeps past the deadline
    and returns so the late (duplicate) answer still goes out.
    """
    faults = config.faults if config is not None else None
    if faults is None:
        return
    key = job_key(spec.shard_index)
    if faults.should_fail(WORKER_CRASH, key, spec.attempt):
        os._exit(CRASH_EXIT)
    if faults.should_fail(WORKER_GARBAGE, key, spec.attempt):
        # An impossible length prefix: decodes as ~4 GiB, far past
        # MAX_FRAME_SIZE, so the parent quarantines immediately.
        writer.write(b"\xff\xff\xff\xff" + b"garbage")
        writer.flush()
        os._exit(GARBAGE_EXIT)
    if faults.should_fail(WORKER_STALL, key, spec.attempt):
        deadline = (
            config.job_deadline_s
            if config.job_deadline_s is not None
            else DEFAULT_JOB_DEADLINE_S
        )
        time.sleep(min(
            STALL_FACTOR * deadline,
            deadline + STALL_OVERSHOOT_MAX_S,
        ))


def serve_stream(
    reader,
    writer,
    worker_id: int,
    study,
    digests: Dict[str, str],
    config=None,
    session=None,
) -> int:
    """Serve job frames from ``reader`` until clean EOF.

    ``config``/``session`` are the fork-inherited defaults; a spec
    carrying its own encoded config overrides the former.  Returns
    the number of jobs answered.
    """
    from repro.exec.executor import run_shard

    domains = list(study.ranking)
    answered = 0
    while True:
        try:
            frame = read_frame(reader)
        except JobProtocolError:
            return answered  # parent vanished mid-frame; nothing to save
        if frame is None or frame.get("type") == "shutdown":
            return answered
        try:
            spec = JobSpec.from_wire(frame)
        except JobProtocolError as error:
            writer.write(encode_frame(error_frame(worker_id, str(error))))
            writer.flush()
            continue
        mismatched = {
            key: value
            for key, value in spec.digests.items()
            if key in digests and digests[key] != value
        }
        if mismatched:
            writer.write(encode_frame(error_frame(
                worker_id,
                f"digest mismatch on {sorted(mismatched)}: "
                f"worker holds a different world",
                job_id=spec.job_id,
            )))
            writer.flush()
            continue
        if spec.start + spec.count > len(domains):
            writer.write(encode_frame(error_frame(
                worker_id,
                f"shard [{spec.start}, {spec.start + spec.count}) outside "
                f"ranking of {len(domains)}",
                job_id=spec.job_id,
            )))
            writer.flush()
            continue
        job_config = (
            decode_config(spec.config) if spec.config is not None else config
        )
        _maybe_inject(spec, job_config, writer)
        shard = Shard(
            index=spec.shard_index,
            domains=tuple(domains[spec.start:spec.start + spec.count]),
        )
        outcome = run_shard(study, shard, spec.observe, job_config, session)
        result = JobResult.from_outcome(spec, worker_id, outcome)
        writer.write(encode_frame(result.to_wire()))
        writer.flush()
        answered += 1


def connection_worker(
    conn,
    worker_id: int,
    study,
    digests: Dict[str, str],
    config=None,
    session=None,
    close_fds=(),
) -> None:
    """Entry point for a forked scheduler worker: serve one socket.

    ``close_fds`` lists sibling sockets inherited across the fork;
    closing them here keeps EOF-based shutdown working (a socket only
    reads EOF once *every* copy of its peer end is closed).
    """
    for inherited in close_fds:
        try:
            inherited.close()
        except OSError:
            pass
    reader = conn.makefile("rb")
    writer = conn.makefile("wb")
    try:
        serve_stream(
            reader, writer, worker_id, study, digests,
            config=config, session=session,
        )
    except (BrokenPipeError, ConnectionResetError, OSError):
        pass  # parent went away; exit quietly
    finally:
        try:
            conn.close()
        except OSError:
            pass
