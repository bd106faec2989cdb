"""Parallel sharded execution of the measurement study (``repro.exec``).

The ROADMAP's production-scale pipeline walks the full top-1M as
fast as the hardware allows.  This package supplies the execution
engine: :func:`plan_shards` cuts an Alexa ranking into contiguous
rank chunks, :func:`execute_study` fans steps 2-4 out serially, on a
thread pool, on a process pool, or over the long-lived framed workers
of :mod:`repro.exec.scheduler`, and the merge layer folds per-shard
statistics, metric registries, and trace spans back into one
:class:`~repro.core.pipeline.StudyResult` that is bit-identical to
the serial run.  Shard results cross process boundaries in the
compact wire form of :mod:`repro.exec.codec`; the ``workers`` backend
wraps that codec in the framed job protocol of :mod:`repro.exec.jobs`
(JobSpec out, JobResult back) with work-stealing, per-job deadlines,
and straggler re-dispatch.
:mod:`repro.exec.dispatch` holds the ordered-dispatch primitive
(``resolve_mode`` / ``map_ordered`` / ``run_batches``) that the study
executor and every other batched path (serve, rtrd, rov) share.
"""

from repro.exec.codec import (
    decode_measurements,
    decode_name,
    decode_statistics,
    encode_measurements,
    encode_name,
    encode_statistics,
)
from repro.exec.dispatch import SchedulerError
from repro.exec.executor import (
    MODES,
    ShardOutcome,
    execute_study,
    merge_statistics,
    run_shard,
)
from repro.exec.jobs import (
    DEFAULT_JOB_DEADLINE_S,
    MAX_FRAME_SIZE,
    JobProtocolError,
    JobResult,
    JobSpec,
    decode_frames,
    encode_frame,
)
from repro.exec.scheduler import SchedulerReport
from repro.exec.sharding import (
    MAX_SHARD_SIZE,
    Batch,
    Shard,
    default_shard_size,
    plan_batches,
    plan_shards,
)

__all__ = [
    "Batch",
    "DEFAULT_JOB_DEADLINE_S",
    "JobProtocolError",
    "JobResult",
    "JobSpec",
    "MAX_FRAME_SIZE",
    "MAX_SHARD_SIZE",
    "MODES",
    "SchedulerError",
    "SchedulerReport",
    "Shard",
    "ShardOutcome",
    "decode_frames",
    "decode_measurements",
    "decode_name",
    "decode_statistics",
    "default_shard_size",
    "encode_frame",
    "encode_measurements",
    "encode_name",
    "encode_statistics",
    "execute_study",
    "merge_statistics",
    "plan_batches",
    "plan_shards",
    "run_shard",
]
