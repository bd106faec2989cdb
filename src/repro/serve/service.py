"""The request/response layer over a :class:`ServingIndex`.

:class:`QueryService` turns the index's four query methods into a
dispatchable request stream:

* **deterministic batched dispatch** — a query list is cut into
  contiguous batches with the executor's planner
  (:func:`repro.exec.sharding.plan_batches`) and handed to the shared
  ordered-dispatch primitive (:func:`repro.exec.dispatch.run_batches`),
  which returns responses in batch order and brings each threaded
  batch's metrics and spans home, so serial and threaded dispatch
  return identical response lists and identical counter totals;
* **fault-profile degradation** — a :class:`~repro.faults.FaultPlan`
  carrying ``serve.*`` rates injects query-path faults keyed on the
  query's canonical string; the service catches the typed
  :class:`~repro.faults.InjectedServeFault` and serves the answer
  anyway, *marked* ``stale`` or ``degraded``, never erroring.  The
  schedule is a pure function of (plan seed, query), independent of
  batching and threading;
* **simulated per-query IO** — ``ServeConfig.simulated_io_s`` models
  the network hop of a live deployment (the sleep releases the GIL,
  which is what lets the threaded backend overlap queries; the pure
  in-memory evaluation itself is GIL-bound, same trade-off the study
  executor documents for its thread backend).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.exec.dispatch import resolve_mode, run_batches
from repro.exec.sharding import Batch, plan_batches
from repro.faults.injectors import InjectedServeFault
from repro.faults.plan import SERVE_STALE, SERVE_TIMEOUT, FaultPlan
from repro.net import ASN, Address, Prefix
from repro.obs.runtime import metrics, tracer
from repro.obs.window import SLOTracker, estimate_quantiles
from repro.serve.errors import QueryError
from repro.serve.index import (
    LookupAnswer,
    ServingIndex,
    ValidateAnswer,
)

QUERY_KINDS: Tuple[str, ...] = ("validate", "lookup", "domain", "rank_slice")

SERVE_MODES: Tuple[str, ...] = ("auto", "serial", "thread")

# Degradation markers a response can carry ("" = healthy).
MARKER_STALE = "stale"
MARKER_DEGRADED = "degraded"

# Which marker each injected serve fault maps to, in the order the
# guard consults the plan (first firing kind wins).
_FAULT_MARKERS: Tuple[Tuple[str, str], ...] = (
    (SERVE_STALE, MARKER_STALE),
    (SERVE_TIMEOUT, MARKER_DEGRADED),
)

SERVE_QUERIES_METRIC = "ripki_serve_queries_total"
SERVE_LATENCY_METRIC = "ripki_serve_latency_seconds"
SERVE_VERDICTS_METRIC = "ripki_serve_verdicts_total"
SERVE_DEGRADED_METRIC = "ripki_serve_degraded_total"
SERVE_FAULTS_METRIC = "ripki_serve_faults_injected_total"

_METRIC_HELP = {
    SERVE_QUERIES_METRIC: "Queries answered, by query kind",
    SERVE_LATENCY_METRIC: "Per-query service latency, by query kind",
    SERVE_VERDICTS_METRIC:
        "RFC 6811 verdicts returned by validate/lookup answers",
    SERVE_DEGRADED_METRIC:
        "Answers served with a degradation marker instead of an error",
    SERVE_FAULTS_METRIC: "Injected serve-path faults, by kind",
}


@dataclass(frozen=True)
class Query:
    """One request against the index, in canonical form.

    Build through the per-kind constructors; the generic constructor
    validates that exactly the fields the kind needs are present.
    """

    kind: str
    prefix: Optional[Prefix] = None
    origin: Optional[ASN] = None
    address: Optional[Address] = None
    name: Optional[str] = None
    first: Optional[int] = None
    last: Optional[int] = None

    def __post_init__(self):
        if self.kind not in QUERY_KINDS:
            raise QueryError(
                f"unknown query kind {self.kind!r}; known: {QUERY_KINDS}"
            )
        needed = {
            "validate": ("prefix", "origin"),
            "lookup": ("address",),
            "domain": ("name",),
            "rank_slice": ("first", "last"),
        }[self.kind]
        for attr in needed:
            if getattr(self, attr) is None:
                raise QueryError(
                    f"{self.kind} query needs {needed}, missing {attr!r}"
                )
        if self.kind == "rank_slice" and self.first > self.last:
            raise QueryError(
                f"empty rank slice [{self.first}, {self.last}]"
            )

    @classmethod
    def validate(cls, prefix: Prefix, origin: Union[int, ASN]) -> "Query":
        return cls(kind="validate", prefix=prefix, origin=ASN(int(origin)))

    @classmethod
    def lookup(cls, address: Address) -> "Query":
        return cls(kind="lookup", address=address)

    @classmethod
    def domain(cls, name: str) -> "Query":
        return cls(kind="domain", name=name)

    @classmethod
    def rank_slice(cls, first: int, last: int) -> "Query":
        return cls(kind="rank_slice", first=first, last=last)

    def key(self) -> str:
        """Canonical site key — the fault plan hashes this string."""
        if self.kind == "validate":
            return f"validate|{self.prefix}|{int(self.origin)}"
        if self.kind == "lookup":
            return f"lookup|{self.address}"
        if self.kind == "domain":
            return f"domain|{self.name}"
        return f"rank_slice|{self.first}|{self.last}"

    def __str__(self) -> str:
        return self.key()


@dataclass(frozen=True)
class Response:
    """One answered query.

    ``marker`` is ``""`` for a healthy answer, ``"stale"`` or
    ``"degraded"`` for an answer served through a fault — the answer
    itself is always present.  ``elapsed_s`` is wall time and is
    excluded from equality so serial and threaded response lists
    compare equal.
    """

    query: Query
    answer: object
    marker: str = ""
    elapsed_s: float = field(default=0.0, compare=False)

    @property
    def ok(self) -> bool:
        return not self.marker


@dataclass(frozen=True)
class ServeConfig:
    """Every dispatch knob of one :class:`QueryService`."""

    workers: int = 1
    mode: str = "auto"                 # auto | serial | thread
    faults: Optional[FaultPlan] = None
    simulated_io_s: float = 0.0
    # Windowed SLO accounting: every answered query feeds the
    # tracker's per-kind latency objective ("serve.<kind>"), a marked
    # answer counts against the error budget.  Excluded from config
    # equality — the tracker is a live accumulator, not a knob.
    slo: Optional[SLOTracker] = field(default=None, compare=False)

    def __post_init__(self):
        if self.mode not in SERVE_MODES:
            raise ValueError(
                f"mode must be one of {SERVE_MODES}, got {self.mode!r}"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.simulated_io_s < 0:
            raise ValueError("simulated_io_s must be >= 0")

    @property
    def resolved_mode(self) -> str:
        return resolve_mode(self.mode, self.workers)


class QueryService:
    """Batched, instrumented, fault-aware dispatch over an index."""

    def __init__(
        self, index: ServingIndex, config: Optional[ServeConfig] = None
    ):
        self._index = index
        self.config = config or ServeConfig()

    # -- single-query path ---------------------------------------------------

    def query(self, query: Query) -> Response:
        """Answer one query on the calling thread.

        Records into whatever instruments are active on this thread —
        callers hammering the service from their own threads wrap
        each thread in :func:`repro.obs.runtime.thread_scope` and
        merge, exactly like the batched dispatcher does internally.
        """
        return self._evaluate(query)

    # -- batched dispatch ----------------------------------------------------

    def run(self, queries: Iterable[Query]) -> List[Response]:
        """Answer every query; responses in request order.

        Serial and threaded dispatch return identical lists (and
        identical counter totals): batches are contiguous slices, the
        threaded backend reassembles them in batch order, and every
        per-query decision — answer and degradation marker alike — is
        a pure function of the index, the config, and the query.
        """
        ordered = list(queries)
        batches = plan_batches(ordered, workers=self.config.workers)
        mode = self.config.resolved_mode
        with tracer().span(
            "serve.run", queries=len(ordered), mode=mode
        ) as root:
            answered = run_batches(
                self._run_batch,
                batches,
                workers=self.config.workers,
                mode=mode,
                root=root,
            )
        return [response for batch in answered for response in batch]

    def _run_batch(self, batch: Batch) -> List[Response]:
        with tracer().span(
            "serve.batch", batch=batch.index, queries=len(batch)
        ):
            return [self._evaluate(query) for query in batch.items]

    # -- one query -----------------------------------------------------------

    def _evaluate(self, query: Query) -> Response:
        started = time.perf_counter()
        marker = self._guard(query)
        if self.config.simulated_io_s > 0:
            time.sleep(self.config.simulated_io_s)
        answer = self._answer(query)
        elapsed = time.perf_counter() - started
        self._record(query, answer, marker, elapsed)
        return Response(
            query=query, answer=answer, marker=marker, elapsed_s=elapsed
        )

    def _guard(self, query: Query) -> str:
        """Consult the fault plan; a caught fault becomes a marker."""
        plan = self.config.faults
        if plan is None:
            return ""
        key = query.key()
        try:
            for kind, _marker in _FAULT_MARKERS:
                if plan.should_fail(kind, key, 0):
                    raise InjectedServeFault(kind, key)
        except InjectedServeFault as fault:
            metrics().counter(
                SERVE_FAULTS_METRIC,
                _METRIC_HELP[SERVE_FAULTS_METRIC],
                labelnames=("kind",),
            ).labels(kind=fault.kind).inc()
            return dict(_FAULT_MARKERS)[fault.kind]
        return ""

    def _answer(self, query: Query):
        if query.kind == "validate":
            return self._index.validate(query.prefix, query.origin)
        if query.kind == "lookup":
            return self._index.lookup(query.address)
        if query.kind == "domain":
            return self._index.domain(query.name)
        return self._index.rank_slice(query.first, query.last)

    def _record(
        self, query: Query, answer, marker: str, elapsed: float
    ) -> None:
        counters = metrics()
        counters.counter(
            SERVE_QUERIES_METRIC,
            _METRIC_HELP[SERVE_QUERIES_METRIC],
            labelnames=("kind",),
        ).labels(kind=query.kind).inc()
        counters.histogram(
            SERVE_LATENCY_METRIC,
            _METRIC_HELP[SERVE_LATENCY_METRIC],
            labelnames=("kind",),
        ).labels(kind=query.kind).observe(elapsed)
        for state in _answer_states(answer):
            counters.counter(
                SERVE_VERDICTS_METRIC,
                _METRIC_HELP[SERVE_VERDICTS_METRIC],
                labelnames=("state",),
            ).labels(state=state).inc()
        if marker:
            counters.counter(
                SERVE_DEGRADED_METRIC,
                _METRIC_HELP[SERVE_DEGRADED_METRIC],
                labelnames=("marker",),
            ).labels(marker=marker).inc()
        if self.config.slo is not None:
            self.config.slo.observe(
                f"serve.{query.kind}", elapsed, ok=not marker
            )


def _answer_states(answer) -> List[str]:
    """The RFC 6811 states an answer asserts (for the verdict counter)."""
    if isinstance(answer, ValidateAnswer):
        return [answer.state.value]
    if isinstance(answer, LookupAnswer):
        return [state.value for _origin, state in answer.verdicts]
    return []


# -- response summaries -------------------------------------------------------


def _kind_summary(latencies: List[float]) -> Dict[str, object]:
    """One kind's count/p50/p99 via the shared bucket estimator.

    The latencies pass through the registry's fixed histogram bounds
    and :func:`repro.obs.window.quantile_from_buckets` — the *same*
    estimator the windowed SLO gauges use — so this table and the
    ``ripki_serve_latency_*``/``ripki_slo_latency_*`` series can
    never disagree about a quantile.
    """
    p50, p99 = estimate_quantiles(latencies, (0.50, 0.99))
    return {
        "count": len(latencies),
        "p50_ms": round(p50 * 1000, 3),
        "p99_ms": round(p99 * 1000, 3),
    }


def summarize_responses(
    responses: Sequence[Response], elapsed_s: Optional[float] = None
) -> Dict[str, object]:
    """JSON-ready latency/verdict summary of one dispatched run.

    The CLI's closing table, its ``--json`` payload and the golden
    checks on that payload all consume this one shape.  Quantiles
    are bucket-estimated (see :func:`_kind_summary`), matching the
    live Prometheus series bucket for bucket.
    """
    by_kind: Dict[str, List[float]] = {}
    verdicts: Dict[str, int] = {}
    degraded: Dict[str, int] = {}
    for response in responses:
        by_kind.setdefault(response.query.kind, []).append(
            response.elapsed_s
        )
        for state in _answer_states(response.answer):
            verdicts[state] = verdicts.get(state, 0) + 1
        if response.marker:
            degraded[response.marker] = degraded.get(response.marker, 0) + 1
    summary: Dict[str, object] = {
        "queries": len(responses),
        "by_kind": {
            kind: _kind_summary(latencies)
            for kind, latencies in sorted(by_kind.items())
        },
        "verdicts": dict(sorted(verdicts.items())),
        "degraded": dict(sorted(degraded.items())),
    }
    if elapsed_s is not None:
        summary["elapsed_s"] = round(elapsed_s, 3)
        summary["qps"] = (
            round(len(responses) / elapsed_s, 1) if elapsed_s > 0 else 0.0
        )
    return summary
