"""Deterministic fault injection (``repro.faults``).

Real RPKI measurement is dominated by partial failure: flaky
resolvers, stale or truncated route-collector dumps, a query service
behind its world.  This package makes those failure modes
*first-class and reproducible* so the pipeline's resilience can be
exercised and regression-tested:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, a seeded per-site
  hash schedule of injected faults, independent of sharding and
  worker count, and :func:`stage_outcome`, the closed form of one
  funnel stage's attempts under it;
* :mod:`repro.faults.injectors` — the :class:`InjectedFault` types
  (the query service raises and catches :class:`InjectedServeFault`).

Every injected fault fails a call and alters no data, so a fault run
is the plain funnel plus an overlay: :class:`repro.core.pipeline.Funnel`
under a resilient :class:`~repro.core.pipeline.RunConfig` asks the plan
for each stage's outcome first, and a stage that would exhaust
``max_attempts`` degrades its name form without running.
"""

from repro.errors import ReproError, TransientFault
from repro.faults.injectors import InjectedFault, InjectedServeFault
from repro.faults.plan import (
    DNS_KINDS,
    DNS_SERVFAIL,
    DNS_TIMEOUT,
    DNS_TRUNCATED_CHAIN,
    DUMP_CORRUPT,
    DUMP_KINDS,
    DUMP_MISSING_ROUTE,
    EXEC_KINDS,
    FAULT_KINDS,
    PROFILES,
    SERVE_STALE,
    SERVE_TIMEOUT,
    WORLD_CRL_SKIP,
    WORLD_KEY_ROLLOVER,
    WORLD_KINDS,
    WORLD_MANIFEST_SKIP,
    WORLD_PP_OUTAGE,
    WORLD_ROA_ISSUE,
    WORLD_ROA_WITHDRAW,
    WORKER_CRASH,
    WORKER_GARBAGE,
    WORKER_STALL,
    FaultPlan,
    stage_outcome,
)

__all__ = [
    "DNS_KINDS",
    "DNS_SERVFAIL",
    "DNS_TIMEOUT",
    "DNS_TRUNCATED_CHAIN",
    "DUMP_CORRUPT",
    "DUMP_KINDS",
    "DUMP_MISSING_ROUTE",
    "EXEC_KINDS",
    "FAULT_KINDS",
    "FaultPlan",
    "InjectedFault",
    "InjectedServeFault",
    "PROFILES",
    "ReproError",
    "SERVE_STALE",
    "SERVE_TIMEOUT",
    "TransientFault",
    "WORLD_CRL_SKIP",
    "WORLD_KEY_ROLLOVER",
    "WORLD_KINDS",
    "WORLD_MANIFEST_SKIP",
    "WORLD_PP_OUTAGE",
    "WORLD_ROA_ISSUE",
    "WORLD_ROA_WITHDRAW",
    "WORKER_CRASH",
    "WORKER_GARBAGE",
    "WORKER_STALL",
    "stage_outcome",
]
