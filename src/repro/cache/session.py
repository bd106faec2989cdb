"""One run's view of the snapshot store: load and save of the funnel's memo.

:meth:`CacheSession.open` loads the store, compares the stored input
digests against the study's current inputs, decodes every row into
the funnel memo's own types and classifies it as valid or invalidated
*before* any measurement runs:

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

Rows are decoded through the checking constructors (``Address``,
``Prefix``, ``ASN``, ``OriginValidation``, the shard codec's name
form); a row that fails one makes the whole store unusable, so the
run starts cold and :meth:`CacheSession.save` replaces the file.

The valid entries are :attr:`CacheSession.memo`, which seeds the memo
of every :class:`repro.core.pipeline.Funnel` of the run (it is plain
data, so the process pool ships it with the study).  Each funnel hands
back the rows of the entries it computed itself
(:meth:`CacheSession.fresh_rows`); the session adopts them after the
merge and saves the union under the current digests.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cache.fingerprint import (
    config_fingerprint,
    dump_digest,
    name_fingerprint,
    vrp_digest,
    vrp_items,
    zone_digest,
)
from repro.cache.store import STAGES, load_store, save_store, store_path
from repro.core.records import PrefixOriginPair
from repro.exec.codec import decode_name, encode_name
from repro.net import ASN, Address, Prefix, PrefixTrie
from repro.obs.runtime import thread_scope
from repro.rpki.vrp import OriginValidation


class CacheSession:
    """Validated memo entries in, fresh store rows out, one store write."""

    def __init__(
        self,
        directory: str,
        digests: Dict[str, str],
        vrp_set: List[list],
        memo: Dict[str, dict],
        rows: Dict[str, dict],
        invalidated: Dict[str, int],
        clean: bool = False,
    ):
        self.directory = directory
        #: Stage -> memo key -> ``(value, metric delta rows)``: the
        #: valid entries, in the types the funnel computes.
        self.memo = memo
        self._digests = digests
        self._vrp_set = vrp_set
        self._rows = rows            # the same entries as stored rows
        self._invalidated = invalidated
        # True when the on-disk store already equals what save() would
        # write (same digests, nothing invalidated) — a warm run with
        # no fresh artifacts then skips the rewrite entirely.
        self._clean = clean
        self._fresh: Dict[str, dict] = {stage: {} for stage in STAGES}

    @classmethod
    def open(cls, directory: str, study, config=None) -> "CacheSession":
        """Load the store and classify its artifacts for this study."""
        # Spelled out rather than fingerprint.study_digests(): the VRP
        # rows are reused by the delta index below, and the perf ledger
        # times these five calls by patching this module's names.
        vrps = vrp_items(study.payloads)
        digests = {
            "zone": zone_digest(study.resolver.namespace),
            "dump": dump_digest(study.table_dump),
            "vrps": vrp_digest(vrps),
            "config": config_fingerprint(config),
        }

        def cold(invalidated: Dict[str, int]) -> "CacheSession":
            memo = {stage: {} for stage in STAGES}
            rows = {stage: {} for stage in STAGES}
            return cls(directory, digests, vrps, memo, rows, invalidated)

        stored = load_store(directory)
        if stored is None:
            return cold({})
        if stored["digests"]["config"] != digests["config"]:
            total = sum(len(rows) for rows in stored["stages"].values())
            return cold({"config": total} if total else {})
        try:
            decoded = {
                stage: [
                    (row_key, row, *_decode_row(stage, row_key, row))
                    for row_key, row in entries.items()
                ]
                for stage, entries in stored["stages"].items()
            }
            delta = (
                None
                if stored["digests"]["vrps"] == digests["vrps"]
                else _delta_trie(stored["vrp_set"], vrps)
            )
        except (ValueError, TypeError):
            # A hostile row: a checking constructor (NetError is a
            # ValueError) or an unpack refused it.
            return cold({})
        # Validity checks walk tries and namespaces; none of that is
        # measurement work, so run them under the null scope.
        with thread_scope():
            memo, rows, invalidated = _classify(
                decoded, stored["digests"], digests, delta, study.resolver
            )
        clean = stored["digests"] == digests
        return cls(directory, digests, vrps, memo, rows, invalidated, clean)

    # -- accounting ----------------------------------------------------------

    @property
    def invalidated(self) -> Dict[str, int]:
        """Artifacts dropped at open, by stage (plus ``config``)."""
        return dict(self._invalidated)

    # -- writes --------------------------------------------------------------

    def fresh_rows(self, memo: Dict[str, dict], resolver) -> Dict[str, dict]:
        """Store rows for the entries of a funnel's ``memo`` not seeded here.

        Plain JSON data keyed by strings, so it crosses every backend's
        wire back to the parent's :meth:`adopt`.
        """
        namespace, vantage = resolver.namespace, resolver.vantage
        fresh: Dict[str, dict] = {stage: {} for stage in STAGES}
        for stage, entries in memo.items():
            seeded = self.memo[stage]
            for key, (value, delta) in entries.items():
                if key in seeded:
                    continue
                fingerprint = (
                    name_fingerprint(namespace, vantage, key)
                    if stage in ("dns", "form")
                    else None
                )
                row_key, row = _encode_row(stage, key, value, fingerprint)
                row.append(delta)
                fresh[stage][row_key] = row
        return fresh

    def adopt(self, fresh: Dict[str, dict]) -> None:
        """Fold one shard's fresh rows into the session."""
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
            stage: {**self._rows[stage], **self._fresh[stage]}
            for stage in STAGES
        }
        return save_store(self.directory, self._digests, self._vrp_set, stages)

    def __repr__(self) -> str:
        valid = sum(len(self.memo[stage]) for stage in STAGES)
        fresh = sum(len(self._fresh[stage]) for stage in STAGES)
        return f"<CacheSession {self.directory!r} valid={valid} fresh={fresh}>"


# -- the row codec ------------------------------------------------------------
#
# One store row per memo entry, the metric delta last:
#   dns    name          -> [fingerprint, resolved, [address...],
#                            excluded_special, cname_count, delta]
#   prefix "family:value" -> [[[family, value, length, origin]...],
#                            unreachable, as_set_excluded, delta]
#   rpki   "family:value:length:origin" -> [state, delta]
#   form   name          -> [fingerprint, wire name form, delta]


def _decode_row(stage: str, key: str, row: list) -> Tuple[object, object]:
    """``(memo key, value)`` of one store row; raises on a hostile row."""
    if stage == "dns":
        _fingerprint, resolved, addresses, excluded, cnames, _delta = row
        return key, (
            bool(resolved),
            tuple(Address(*address) for address in addresses),
            int(excluded),
            int(cnames),
        )
    if stage == "prefix":
        pairs, unreachable, as_set, _delta = row
        mapped = [
            (Prefix(family, value, length), ASN(origin))
            for family, value, length, origin in pairs
        ]
        return Address(*map(int, key.split(":"))), (
            mapped, int(unreachable), int(as_set)
        )
    if stage == "rpki":
        state, _delta = row
        family, value, length, origin = map(int, key.split(":"))
        pair = PrefixOriginPair(
            Prefix(family, value, length), ASN(origin), OriginValidation(state)
        )
        return (pair.prefix, pair.origin), pair
    _fingerprint, wire, _delta = row
    return key, decode_name(wire)


def _encode_row(stage: str, key, value, fingerprint) -> Tuple[str, list]:
    """Inverse of :func:`_decode_row`, less the delta slot."""
    if stage == "dns":
        resolved, addresses, excluded, cnames = value
        return key, [
            fingerprint, resolved, [list(a) for a in addresses],
            excluded, cnames,
        ]
    if stage == "prefix":
        mapped, unreachable, as_set = value
        return "{}:{}".format(*key), [
            [[*prefix, int(origin)] for prefix, origin in mapped],
            unreachable,
            as_set,
        ]
    if stage == "rpki":
        prefix, origin = key
        return "{}:{}:{}:{}".format(*prefix, int(origin)), [value.state.value]
    return key, [fingerprint, list(encode_name(value))]


def _classify(decoded, old_digests, digests, delta, resolver):
    """Keep the decoded rows still valid for this study.

    ``decoded`` maps stage -> ``(row key, row, memo key, value)``
    tuples; ``delta`` is the VRP delta index, or ``None`` when the
    VRP set did not move.  Returns ``(memo, rows, invalidated)``.
    """
    namespace, vantage = resolver.namespace, resolver.vantage
    zone_ok = old_digests["zone"] == digests["zone"]
    dump_ok = old_digests["dump"] == digests["dump"]

    def valid(stage: str, key, value, row: list) -> bool:
        if stage in ("prefix", "form") and not dump_ok:
            return False    # form artifacts embed step-3 results
        if stage in ("dns", "form") and not zone_ok:
            if name_fingerprint(namespace, vantage, key) != row[0]:
                return False
        if delta is None:
            return True
        if stage == "rpki":
            return not delta.covering(value.prefix)
        if stage == "form":
            return not any(delta.covering(pair.prefix) for pair in value.pairs)
        return True

    memo: Dict[str, dict] = {stage: {} for stage in STAGES}
    rows: Dict[str, dict] = {stage: {} for stage in STAGES}
    invalidated: Dict[str, int] = {}
    for stage, entries in decoded.items():
        for row_key, row, key, value in entries:
            if valid(stage, key, value, row):
                memo[stage][key] = (value, row[-1])
                rows[stage][row_key] = row
            else:
                invalidated[stage] = invalidated.get(stage, 0) + 1
    return memo, rows, invalidated


def _delta_trie(old_items: List[list], new_items: List[list]) -> PrefixTrie:
    """The changed/revoked/added VRP prefixes, indexed for coverage."""
    delta = {tuple(item) for item in old_items} ^ {
        tuple(item) for item in new_items
    }
    trie: PrefixTrie = PrefixTrie()
    for family, value, length, _max_length, _asn, _anchor in delta:
        trie.insert(Prefix(family, value, length), True)
    return trie
