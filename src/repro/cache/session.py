"""One run's view of the snapshot store.

:meth:`CacheSession.open` loads the store, compares the stored input
digests against the study's current inputs, and classifies every
artifact as valid or invalidated *before* any measurement runs:

* config fingerprint mismatch — nothing is reusable (a fault plan
  changes outcomes, not just timing);
* zone digest match — every ``dns``/``form`` artifact is valid (the
  fast path); on mismatch, each artifact's stored CNAME-closure
  fingerprint is recomputed and only changed names are dropped;
* dump digest mismatch — every ``prefix`` artifact (and every
  ``form`` artifact, which embeds step-3 results) is dropped;
* VRP digest mismatch — the **delta index**: the symmetric
  difference of the stored and current VRP sets is loaded into a
  prefix trie, and a ``rpki`` artifact is dropped exactly when some
  changed/revoked VRP's prefix covers its announced prefix (RFC 6811
  validation reads nothing else).  ``form`` artifacts are checked
  against their embedded pairs the same way.

The session then serves validated artifacts to every shard (it is
plain data, so the process pool ships it with the study), collects
the shards' fresh artifacts after the merge, and saves the union
under the current digests.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.fingerprint import (
    config_fingerprint,
    dump_digest,
    name_fingerprint,
    vrp_digest,
    vrp_items,
    zone_digest,
)
from repro.cache.store import STAGES, load_store, save_store, store_path
from repro.net import Prefix, PrefixTrie
from repro.obs.runtime import thread_scope

# Index of the (prefix, origin) pair list inside a form artifact's
# encoded NameMeasurement (repro.exec.codec wire layout).
_WIRE_NAME_PAIRS = 7


class CacheSession:
    """Validated artifacts in, fresh artifacts out, one store write."""

    def __init__(
        self,
        directory: str,
        digests: Dict[str, str],
        vrp_set: List[list],
        entries: Dict[str, dict],
        invalidated: Dict[str, int],
        clean: bool = False,
    ):
        self.directory = directory
        self._digests = digests
        self._vrp_set = vrp_set
        self._entries = entries
        self._invalidated = invalidated
        # True when the on-disk store already equals what save() would
        # write (same digests, nothing invalidated) — a warm run with
        # no fresh artifacts then skips the rewrite entirely.
        self._clean = clean
        self._fresh: Dict[str, dict] = {stage: {} for stage in STAGES}

    @classmethod
    def open(cls, directory: str, study, config=None) -> "CacheSession":
        """Load the store and classify its artifacts for this study."""
        namespace = study.resolver.namespace
        vantage = study.resolver.vantage
        # Spelled out rather than fingerprint.study_digests(): the VRP
        # rows are reused by the delta index below, and the perf ledger
        # times these five calls by patching this module's names.
        vrps = vrp_items(study.payloads)
        digests = {
            "zone": zone_digest(namespace),
            "dump": dump_digest(study.table_dump),
            "vrps": vrp_digest(vrps),
            "config": config_fingerprint(config),
        }
        entries: Dict[str, dict] = {stage: {} for stage in STAGES}
        invalidated: Dict[str, int] = {}

        def drop(stage: str, count: int = 1) -> None:
            if count:
                invalidated[stage] = invalidated.get(stage, 0) + count

        stored = load_store(directory)
        if stored is None:
            return cls(directory, digests, vrps, entries, invalidated)
        old = stored["stages"]
        if stored["digests"]["config"] != digests["config"]:
            drop("config", sum(len(old.get(stage, {})) for stage in STAGES))
            return cls(directory, digests, vrps, entries, invalidated)

        # Validity checks walk tries and namespaces; none of that is
        # measurement work, so run them under the null scope.
        with thread_scope():
            zone_ok = stored["digests"]["zone"] == digests["zone"]
            for stage in ("dns", "form"):
                if zone_ok:
                    entries[stage] = dict(old.get(stage, {}))
                    continue
                for name, entry in old.get(stage, {}).items():
                    if name_fingerprint(namespace, vantage, name) == entry[0]:
                        entries[stage][name] = entry
                    else:
                        drop(stage)
            if stored["digests"]["dump"] == digests["dump"]:
                entries["prefix"] = dict(old.get("prefix", {}))
            else:
                drop("prefix", len(old.get("prefix", {})))
                # Form artifacts embed step-3 results.
                drop("form", len(entries["form"]))
                entries["form"] = {}
            if stored["digests"]["vrps"] == digests["vrps"]:
                entries["rpki"] = dict(old.get("rpki", {}))
            else:
                delta = _delta_trie(stored["vrp_set"], vrps)
                for key, entry in old.get("rpki", {}).items():
                    *announced, _origin = map(int, key.split(":"))
                    if delta.covering(Prefix(*announced)):
                        drop("rpki")
                    else:
                        entries["rpki"][key] = entry
                survivors = {}
                for name, entry in entries["form"].items():
                    pairs = entry[1][_WIRE_NAME_PAIRS]
                    if any(delta.covering(Prefix(*pair[:3])) for pair in pairs):
                        drop("form")
                    else:
                        survivors[name] = entry
                entries["form"] = survivors
        clean = stored["digests"] == digests
        return cls(directory, digests, vrps, entries, invalidated, clean=clean)

    # -- shard-facing reads --------------------------------------------------

    def get(self, stage: str, key: str) -> Optional[list]:
        """The validated artifact under ``key``, or None."""
        return self._entries[stage].get(key)

    # -- accounting ----------------------------------------------------------

    @property
    def invalidated(self) -> Dict[str, int]:
        """Artifacts dropped at open, by stage (plus ``config``)."""
        return dict(self._invalidated)

    def record_invalidation(self, registry) -> None:
        """Tick ``ripki_cache_invalidated_total{stage=…}`` into a registry."""
        from repro.core.pipeline import _STAT_HELP, CACHE_INVALIDATED_METRIC

        counter = registry.counter(
            CACHE_INVALIDATED_METRIC,
            _STAT_HELP[CACHE_INVALIDATED_METRIC],
            labelnames=("stage",),
        )
        for stage, count in sorted(self._invalidated.items()):
            counter.labels(stage=stage).inc(count)

    # -- parent-side writes --------------------------------------------------

    def adopt(self, fresh: Dict[str, dict]) -> None:
        """Fold one shard's fresh artifacts into the session."""
        for stage, entries in fresh.items():
            self._fresh[stage].update(entries)

    def save(self) -> str:
        """Persist surviving + fresh artifacts under the current digests.

        A fully-warm run — the store matched every digest and every
        artifact was served from it — leaves the file untouched;
        rewriting tens of thousands of unchanged entries would
        otherwise dominate the warm run's wall clock.
        """
        if self._clean and not any(self._fresh[stage] for stage in STAGES):
            return store_path(self.directory)
        stages = {
            stage: {**self._entries[stage], **self._fresh[stage]}
            for stage in STAGES
        }
        return save_store(self.directory, self._digests, self._vrp_set, stages)

    def __repr__(self) -> str:
        valid = sum(len(self._entries[stage]) for stage in STAGES)
        fresh = sum(len(self._fresh[stage]) for stage in STAGES)
        return f"<CacheSession {self.directory!r} valid={valid} fresh={fresh}>"


def _delta_trie(old_items: List[list], new_items: List[list]) -> PrefixTrie:
    """The changed/revoked/added VRP prefixes, indexed for coverage."""
    delta = {tuple(item) for item in old_items} ^ {
        tuple(item) for item in new_items
    }
    trie: PrefixTrie = PrefixTrie()
    for *prefix, _max_length, _asn, _anchor in delta:
        trie.insert(Prefix(*prefix), True)
    return trie
