"""Input digests for the snapshot cache.

Every cached artifact is valid exactly as long as its inputs are
unchanged; this module defines what "its inputs" means, per stage:

* **zone digest** — all records of the namespace, order-insensitive.
  Unchanged zone ⇒ every DNS artifact is valid (the fast path).
* **name fingerprint** — the CNAME-closure of one name from one
  vantage: every record the resolver could touch while resolving it.
  When the whole-zone digest changed, artifacts whose closure did not
  survive individually.
* **dump digest** — every table-dump row; step 3 reads nothing else.
* **VRP digest / items** — the canonical VRP set; step 4 reads
  nothing else.  The item form feeds the session's delta index.
* **config fingerprint** — the parts of a :class:`RunConfig` that
  shape measurement *outcomes*: the fault plan and (when resilient)
  ``max_attempts``.  Worker counts, backends and shard sizes are
  deliberately excluded — results are bit-identical across them, so
  all backends share one cache.

All digests go through :mod:`repro.crypto.digest` so the canonical
byte form is shared with the RPKI object encodings.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.crypto.digest import canonical_bytes, sha256_hex
from repro.dns.namespace import Namespace
from repro.dns.records import RecordType, normalise_name
from repro.dns.resolver import MAX_CHAIN_LENGTH


def zone_digest(namespace: Namespace) -> str:
    """Digest of every record in the namespace, order-insensitive."""
    return sha256_hex(canonical_bytes(namespace.content_items()))


def name_fingerprint(namespace: Namespace, vantage: str, name: str) -> str:
    """Digest of the CNAME-closure of ``name`` seen from ``vantage``.

    Walks every name the recursive resolver could visit (all CNAME
    targets, breadth-first, bounded like the resolver's chain walk)
    and hashes the effective record sets plus each name's existence
    bit — the latter distinguishes NOERROR from NXDOMAIN for empty
    answers.  Any zone change that could alter the resolution of
    ``name`` changes this fingerprint.
    """
    start = normalise_name(name)
    seen = {start}
    frontier = [start]
    items: List[list] = []
    # The resolver visits at most MAX_CHAIN_LENGTH + 1 chain names
    # before erroring out; walking one extra keeps the fingerprint a
    # superset of what any resolution can observe.
    for _hop in range(MAX_CHAIN_LENGTH + 2):
        if not frontier:
            break
        current = frontier.pop(0)
        rows: List[str] = []
        for rtype in (RecordType.CNAME, RecordType.A, RecordType.AAAA):
            for record in namespace.lookup(current, rtype, vantage):
                if rtype is RecordType.CNAME:
                    rows.append(f"CNAME {record.target}")
                    if record.target not in seen:
                        seen.add(record.target)
                        frontier.append(record.target)
                else:
                    rows.append(f"{rtype.value} {record.address}")
        items.append([current, namespace.exists(current), rows])
    return sha256_hex(canonical_bytes(items))


def dump_digest(dump) -> str:
    """Digest of every table-dump row, order-insensitive."""
    return sha256_hex(
        canonical_bytes(sorted(str(entry) for entry in dump.entries()))
    )


def vrp_items(payloads) -> List[list]:
    """The VRP set as sorted primitive rows (the delta-index currency)."""
    return sorted(
        [*vrp.prefix, vrp.max_length, int(vrp.asn), vrp.trust_anchor]
        for vrp in payloads
    )


def vrp_digest(items: List[list]) -> str:
    """Digest of :func:`vrp_items` output."""
    return sha256_hex(canonical_bytes(items))


def input_digests(study) -> Dict[str, str]:
    """Whole-input digests of a study: its zone, table dump and VRP set.

    The one spelling of "what world is this": the serving index's
    staleness check, the telemetry health card and the job
    protocol's digest check all compare these dicts byte for byte.
    """
    return {
        "zone": zone_digest(study.resolver.namespace),
        "dump": dump_digest(study.table_dump),
        "vrps": vrp_digest(vrp_items(study.payloads)),
    }


def study_digests(study, config) -> Dict[str, str]:
    """:func:`input_digests` plus the run config's fingerprint."""
    return {**input_digests(study), "config": config_fingerprint(config)}


def config_fingerprint(config: Optional[Any]) -> str:
    """Digest of the outcome-shaping parts of a run config.

    A plain run (no fault plan) fingerprints the same regardless of
    ``max_attempts`` — without faults no stage fails an attempt, so
    the attempt count cannot affect artifacts.
    """
    if config is None or getattr(config, "faults", None) is None:
        payload: Any = {"resilient": False}
    else:
        faults = config.faults
        payload = {
            "resilient": True,
            "faults": [
                faults.seed,
                [list(pair) for pair in faults.rates],
                faults.max_consecutive,
            ],
            "retry": [config.max_attempts],
        }
    return sha256_hex(canonical_bytes(payload))
