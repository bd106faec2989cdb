"""On-disk format of the snapshot store.

One JSON file (``snapshot.json``) per cache directory holds the input
digests the artifacts were computed under, the VRP set itself (the
delta index needs the old set, not just its digest), and three
artifact maps — one per stage granularity, on plain and fault runs
alike:

* ``dns``    — per name form: the DNS answer,
* ``prefix`` — per IP address: its (prefix, origin) matches,
* ``rpki``   — per (prefix, origin) pair: its validation outcome.

Every artifact carries the metric delta its computation produced (the
:func:`repro.obs.metrics.registry_to_wire` form) so cache hits account
the exact counter ticks of a recomputation.  Those deltas repeat the
same few metric descriptors tens of thousands of times, so the store
interns descriptors into one table on save and expands them on load —
in memory and on the wire the deltas stay self-contained.  On load,
equal deltas expand to one shared list, and each distinct one is
checked once by :func:`~repro.obs.metrics.registry_from_wire`, so a
delta that is no exposition (a string, negative or NaN counter, an
inconsistent histogram) makes the whole file load as ``None``.

Everything in the file is JSON primitives; keys are strings.  A
missing, corrupt, or differently-versioned file loads as ``None`` and
the session starts cold — the store is a cache, never a source of
truth.
"""

from __future__ import annotations

import json
import marshal
import os
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import registry_from_wire

# 2: prefix-stage deltas stopped carrying the unreachable and AS_SET
# funnel counters, which version-1 stores would count twice.
# 3: the whole-form ``form`` stage of fault runs is gone; fault runs
# store per-stage rows like plain runs.
STORE_VERSION = 3
STORE_FILENAME = "snapshot.json"

# Stage granularities, in the order the funnel runs them.  Every
# artifact is a list whose last slot is its metric delta; the rest of
# each stage's layout is repro.cache.session's row codec.
STAGES: Tuple[str, ...] = ("dns", "prefix", "rpki")


def store_path(directory: str) -> str:
    return os.path.join(directory, STORE_FILENAME)


def _intern_deltas(stages: Dict[str, dict]) -> Tuple[Dict[str, dict], List[list]]:
    """Copy ``stages`` with metric descriptors replaced by table indices."""
    table: List[list] = []
    index_of: Dict[tuple, int] = {}
    compact_stages: Dict[str, dict] = {}
    for stage, entries in stages.items():
        compact_entries = {}
        for key, entry in entries.items():
            compact = list(entry)
            interned = []
            for name, kind, help, labelnames, buckets, series in entry[-1]:
                descriptor = (
                    name,
                    kind,
                    help,
                    tuple(labelnames),
                    tuple(buckets) if buckets is not None else None,
                )
                index = index_of.get(descriptor)
                if index is None:
                    index = len(table)
                    index_of[descriptor] = index
                    table.append(
                        [name, kind, help, list(labelnames), buckets]
                    )
                interned.append([index, series])
            compact[-1] = interned
            compact_entries[key] = compact
        compact_stages[stage] = compact_entries
    return compact_stages, table


def _expand_deltas(stages: Dict[str, dict], table: List[list]) -> Dict[str, dict]:
    """Inverse of :func:`_intern_deltas`.

    Raises ``KeyError`` / ``IndexError`` / ``TypeError`` on a store
    whose maps, artifacts or delta rows have the wrong shape, and
    :class:`~repro.obs.metrics.MetricError` on a delta that is no
    exposition.  Artifacts with equal deltas share one expanded list,
    found by the compact rows' ``marshal`` bytes (which, unlike
    equality, tell ``1``, ``1.0`` and ``True`` apart).
    """
    if not isinstance(stages, dict):
        raise TypeError("stages is not a mapping")
    shared: Dict[bytes, list] = {}
    expanded_stages: Dict[str, dict] = {}
    for stage, entries in stages.items():
        if stage not in STAGES:
            raise KeyError(f"unknown stage {stage!r}")
        if not isinstance(entries, dict):
            raise TypeError(f"stage {stage!r} is not a mapping")
        expanded_entries = {}
        for key, entry in entries.items():
            expanded = list(entry)
            rows = entry[-1]
            compact = marshal.dumps(rows, 2)
            delta = shared.get(compact)
            if delta is None:
                if set(map(len, rows)) - {2}:
                    raise TypeError(f"{stage} artifact {key!r}: bad delta row")
                delta = [
                    list(table[index]) + [series] for index, series in rows
                ]
                registry_from_wire(delta)
                shared[compact] = delta
            expanded[-1] = delta
            expanded_entries[key] = expanded
        expanded_stages[stage] = expanded_entries
    return expanded_stages


def save_store(
    directory: str,
    digests: Dict[str, str],
    vrp_set: List[list],
    stages: Dict[str, dict],
) -> str:
    """Write the store; returns the file path."""
    os.makedirs(directory, exist_ok=True)
    compact_stages, table = _intern_deltas(
        {stage: stages.get(stage, {}) for stage in STAGES}
    )
    payload = {
        "version": STORE_VERSION,
        "digests": digests,
        "vrp_set": vrp_set,
        "metrics": table,
        "stages": compact_stages,
    }
    path = store_path(directory)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w") as handle:
        _write_sorted(handle, payload)
        handle.write("\n")
    os.replace(tmp_path, path)
    return path


# ``json.dump`` streams through the pure-Python encoder; ``encode``
# runs the C one.  Encoding per value keeps that speed without
# building the whole text in memory.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _write_sorted(handle, payload: dict) -> None:
    """``json.dump(payload, sort_keys=True, separators=(",", ":"))``,
    byte for byte, written one top-level value and stage entry at a
    time."""
    handle.write("{")
    for position, key in enumerate(sorted(payload)):
        handle.write(f"{',' if position else ''}{_ENCODE(key)}:")
        if key != "stages":
            handle.write(_ENCODE(payload[key]))
            continue
        stages = payload[key]
        handle.write("{")
        for stage_position, stage in enumerate(sorted(stages)):
            handle.write(f"{',' if stage_position else ''}{_ENCODE(stage)}:{{")
            entries = stages[stage]
            for entry_position, entry_key in enumerate(sorted(entries)):
                handle.write(
                    f"{',' if entry_position else ''}{_ENCODE(entry_key)}:"
                    f"{_ENCODE(entries[entry_key])}"
                )
            handle.write("}")
        handle.write("}")
    handle.write("}")


def load_digests(directory: str) -> Optional[Dict[str, str]]:
    """The input digests a store was computed under, or ``None``.

    A cheap probe that skips the artifact maps entirely — the serving
    layer uses it to decide whether an index built from this cache
    directory would be *stale* against a study's current inputs,
    without paying for a full load.
    """
    try:
        with open(store_path(directory)) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("version") != STORE_VERSION:
        return None
    digests = payload.get("digests")
    if not isinstance(digests, dict):
        return None
    for key in ("zone", "dump", "vrps", "config"):
        if key not in digests:
            return None
    return {key: str(value) for key, value in digests.items()}


def load_store(directory: str) -> Optional[dict]:
    """Read the store back, or ``None`` for anything unusable."""
    try:
        with open(store_path(directory)) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("version") != STORE_VERSION:
        return None
    try:
        payload["stages"] = _expand_deltas(
            payload["stages"], payload["metrics"]
        )
        payload["digests"]["zone"]  # structural sanity
        payload["digests"]["dump"]
        payload["digests"]["vrps"]
        payload["digests"]["config"]
        payload["vrp_set"]
    except (KeyError, IndexError, TypeError, ValueError):
        return None
    return payload
