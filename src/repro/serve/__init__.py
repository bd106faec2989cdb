"""The concurrent validation query service (``repro.serve``).

The ROADMAP's north star serves RPKI answers to heavy live traffic;
this package is that serving layer over a *completed* study.  A
:class:`ServingIndex` (:mod:`repro.serve.index`) freezes the study's
state — VRP trie, re-indexed table dump, per-domain funnel records,
input digests — into an immutable structure answering four query
types; :class:`QueryService` (:mod:`repro.serve.service`) dispatches
request batches over it serially or on a thread pool with per-batch
instrument isolation and fault-profile degradation (answers get
``stale``/``degraded`` markers, never errors);
:mod:`repro.serve.loadgen` generates seeded Zipf-skewed query streams
over the Alexa ranking; :mod:`repro.serve.script` parses the CLI's
query-script files.
"""

from repro.serve.errors import QueryError, ServeError
from repro.serve.index import (
    DomainAnswer,
    LookupAnswer,
    RankSliceAnswer,
    ServingIndex,
    ValidateAnswer,
)
from repro.serve.loadgen import DEFAULT_MIX, LoadProfile, generate_load
from repro.serve.script import parse_query, parse_script
from repro.serve.service import (
    MARKER_DEGRADED,
    MARKER_STALE,
    QUERY_KINDS,
    SERVE_DEGRADED_METRIC,
    SERVE_FAULTS_METRIC,
    SERVE_LATENCY_METRIC,
    SERVE_MODES,
    SERVE_QUERIES_METRIC,
    SERVE_VERDICTS_METRIC,
    Query,
    QueryService,
    Response,
    ServeConfig,
    summarize_responses,
)

__all__ = [
    "DEFAULT_MIX",
    "DomainAnswer",
    "LoadProfile",
    "LookupAnswer",
    "MARKER_DEGRADED",
    "MARKER_STALE",
    "QUERY_KINDS",
    "Query",
    "QueryError",
    "QueryService",
    "RankSliceAnswer",
    "Response",
    "SERVE_DEGRADED_METRIC",
    "SERVE_FAULTS_METRIC",
    "SERVE_LATENCY_METRIC",
    "SERVE_MODES",
    "SERVE_QUERIES_METRIC",
    "SERVE_VERDICTS_METRIC",
    "ServeConfig",
    "ServeError",
    "ServingIndex",
    "ValidateAnswer",
    "generate_load",
    "parse_query",
    "parse_script",
    "summarize_responses",
]
