"""Deterministic fault injection and retry machinery (``repro.faults``).

Real RPKI measurement is dominated by partial failure: flaky
resolvers, stale or truncated route-collector dumps, a query service
behind its world.  This package makes those failure modes
*first-class and reproducible* so the pipeline's resilience can be
exercised and regression-tested:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, a seeded per-site
  hash schedule of injected faults, independent of sharding and
  worker count;
* :mod:`repro.faults.injectors` — proxies that wrap the real
  substrates (resolver, table dump) and raise typed
  :class:`InjectedFault` errors on schedule (the query service
  consults the plan itself and raises :class:`InjectedServeFault`);
* :mod:`repro.faults.retry` — :func:`call_with_retry`, the loop that
  turns transient faults into a bounded number of retried calls.

The pipeline-facing glue — turning retry exhaustion into per-domain
``degraded`` outcomes — is :class:`repro.core.pipeline.Funnel` under a
resilient :class:`~repro.core.pipeline.RunConfig`.
"""

from repro.errors import ReproError, RetryExhausted, TransientFault
from repro.faults.injectors import (
    FaultyResolver,
    FaultyTableDump,
    InjectedDNSFault,
    InjectedDumpFault,
    InjectedFault,
    InjectedServeFault,
)
from repro.faults.plan import (
    DNS_SERVFAIL,
    DNS_TIMEOUT,
    DNS_TRUNCATED_CHAIN,
    DUMP_CORRUPT,
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
)
from repro.faults.retry import AttemptCell, call_with_retry

__all__ = [
    "AttemptCell",
    "DNS_SERVFAIL",
    "DNS_TIMEOUT",
    "DNS_TRUNCATED_CHAIN",
    "DUMP_CORRUPT",
    "DUMP_MISSING_ROUTE",
    "EXEC_KINDS",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultyResolver",
    "FaultyTableDump",
    "InjectedDNSFault",
    "InjectedDumpFault",
    "InjectedFault",
    "InjectedServeFault",
    "PROFILES",
    "ReproError",
    "RetryExhausted",
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
    "call_with_retry",
]
