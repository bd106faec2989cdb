"""Persistent content-addressed snapshot cache (``repro.cache``).

The steady-state workload of a production-scale RPKI measurement is
delta-shaped: between two campaigns most zone records, table-dump rows
and ROAs are unchanged, so most per-stage work — DNS answers per name
form, prefix/origin matches per IP address, validation outcomes per
(prefix, origin) pair — recomputes byte-identical artifacts.  The
funnel (:class:`repro.core.pipeline.Funnel`) already keeps exactly
those artifacts in memory, one per distinct key; this package is the
load and save of that memo.  It stores the artifacts keyed by digests
of their inputs (:mod:`repro.cache.fingerprint`), decodes and
re-validates them at session open (:mod:`repro.cache.session`:
whole-input digests fast-path, per-name zone fingerprints and a
VRP-delta index for precision) and seeds every funnel of the run with
them.  Each artifact carries the metric delta its computation made,
so warm measurements — and metric ticks — are bit-identical to a cold
run's.

Wired in through :class:`repro.core.pipeline.CacheConfig` on a
:class:`~repro.core.pipeline.RunConfig`; the sharded executor opens
one :class:`CacheSession` per run, hands it to every shard, and folds
the shards' fresh artifacts back into the store.
"""

from repro.cache.fingerprint import (
    config_fingerprint,
    dump_digest,
    input_digests,
    name_fingerprint,
    study_digests,
    vrp_digest,
    vrp_items,
    zone_digest,
)
from repro.cache.session import CacheSession
from repro.cache.store import (
    STAGES,
    STORE_VERSION,
    load_digests,
    load_store,
    save_store,
    store_path,
)

__all__ = [
    "STAGES",
    "STORE_VERSION",
    "CacheSession",
    "config_fingerprint",
    "dump_digest",
    "input_digests",
    "load_digests",
    "load_store",
    "name_fingerprint",
    "save_store",
    "store_path",
    "study_digests",
    "vrp_digest",
    "vrp_items",
    "zone_digest",
]
