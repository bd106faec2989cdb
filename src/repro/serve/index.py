"""The immutable serving index over one completed study.

A :class:`ServingIndex` freezes everything a finished measurement run
knows — the VRP set (trie-indexed), the collector table dump
(re-indexed for longest-match lookup), and every per-domain funnel
record — into one read-only structure that answers the four query
types of the serving layer:

* :meth:`validate` — RFC 6811 verdict for a (prefix, origin) pair
  plus the covering ROAs it was judged against,
* :meth:`lookup` — longest-match route for an IP address with the
  origin ASes announcing it and their per-origin verdicts,
* :meth:`domain` — the stored DNS→prefix→ROA funnel record of one
  ranked domain, exactly as the pipeline measured it,
* :meth:`rank_slice` — aggregate exposure statistics over a rank
  window of the Alexa list.

``rank_slice`` never reads a measurement at query time: the build
freezes per-rank cumulative counters (one ``array`` column per
counter and per RFC 6811 state), so a window is two bisects over the
sorted ranks and one subtraction per column.

Answers are snapshots of the index's state at build time; the index
is never mutated after construction, which is what makes it safe to
hammer from a thread pool without locks.  Staleness is a property of
the *pair* (index, current world): :meth:`stale_against` compares the
input digests captured at build time — the same zone/dump/VRP
fingerprints the snapshot cache keys artifacts by — against a study's
current inputs.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.bgp.collector import TableDumpEntry
from repro.core.pipeline import CacheConfig, RunConfig, StudyResult
from repro.core.records import DomainMeasurement
from repro.net import ASN, Address, Prefix, PrefixTrie
from repro.rpki.vrp import OriginValidation, VRP, ValidatedPayloads

# How the index was populated, recorded for reports.
SOURCE_STUDY = "study"
SOURCE_CACHE = "cache"

# The prefix-sum columns behind rank_slice: its counters in
# RankSliceAnswer field order, then one column per RFC 6811 state in
# value order (the order RankSliceAnswer.verdicts lists them).
_COUNTERS = (
    "usable", "rpki_enabled", "fully_covered", "degraded",
    "pairs", "covered_pairs",
)
_STATES = tuple(sorted(OriginValidation, key=lambda state: state.value))
_STATE_COLUMN = {
    state: len(_COUNTERS) + i for i, state in enumerate(_STATES)
}


@dataclass(frozen=True)
class ValidateAnswer:
    """RFC 6811 verdict plus the covering ROAs (shortest first)."""

    prefix: Prefix
    origin: ASN
    state: OriginValidation
    covering: Tuple[VRP, ...]

    @property
    def covered(self) -> bool:
        return self.state is not OriginValidation.NOT_FOUND


@dataclass(frozen=True)
class LookupAnswer:
    """Longest-match route for an address, with per-origin verdicts.

    ``origins`` are the distinct origin ASes announcing the matched
    prefix, AS_SET rows excluded exactly as funnel step 3 excludes
    them (RFC 6472); ``verdicts`` validates the matched prefix
    against each origin.  An address no table row covers answers with
    ``prefix=None`` and empty tuples.
    """

    address: Address
    prefix: Optional[Prefix]
    origins: Tuple[ASN, ...]
    verdicts: Tuple[Tuple[ASN, OriginValidation], ...]
    as_set_excluded: int = 0


@dataclass(frozen=True)
class DomainAnswer:
    """The stored funnel record of one ranked domain (or a miss)."""

    name: str
    found: bool
    measurement: Optional[DomainMeasurement] = None

    @property
    def rank(self) -> Optional[int]:
        return self.measurement.rank if self.measurement is not None else None


@dataclass(frozen=True)
class RankSliceAnswer:
    """Aggregate exposure statistics over one rank window."""

    first: int
    last: int
    domains: int
    usable: int
    rpki_enabled: int
    fully_covered: int
    degraded: int
    pairs: int
    covered_pairs: int
    # (state value, count) over every domain's combined pairs, sorted.
    verdicts: Tuple[Tuple[str, int], ...]

    @property
    def coverage(self) -> float:
        """Fraction of pairs the RPKI says anything about."""
        if not self.pairs:
            return 0.0
        return self.covered_pairs / self.pairs


class ServingIndex:
    """Read-only query index over one completed study's state."""

    def __init__(
        self,
        payloads: ValidatedPayloads,
        routes: PrefixTrie,
        measurements: List[DomainMeasurement],
        route_count: int = 0,
        digests: Optional[Dict[str, str]] = None,
        source: str = SOURCE_STUDY,
        warm: bool = False,
    ):
        self._payloads = payloads
        self._routes = routes
        self._measurements: Tuple[DomainMeasurement, ...] = tuple(
            sorted(measurements, key=lambda m: m.rank)
        )
        self._by_name: Dict[str, DomainMeasurement] = {
            m.domain.name: m for m in self._measurements
        }
        self._ranks = array("q", (m.rank for m in self._measurements))
        self._sums = _prefix_sums(self._measurements)
        self._route_count = route_count
        self.digests: Dict[str, str] = dict(digests or {})
        self.source = source
        self.warm = warm

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        study,
        result: StudyResult,
        source: str = SOURCE_STUDY,
        warm: bool = False,
    ) -> "ServingIndex":
        """Freeze a study's inputs and its result into an index.

        The table dump is re-indexed into a fresh trie so lookups are
        longest-match over *entries* (the dump's own trie is shared
        with the live pipeline; the index never borrows mutable
        state).  Input digests are captured with the snapshot cache's
        fingerprint functions, making staleness checks byte-compatible
        with cache invalidation.
        """
        from repro.cache.fingerprint import input_digests

        routes: PrefixTrie = PrefixTrie()
        route_count = 0
        for entry in study.table_dump:
            routes.insert(entry.prefix, entry)
            route_count += 1
        return cls(
            payloads=study.payloads,
            routes=routes,
            measurements=result.by_rank(),
            route_count=route_count,
            digests=input_digests(study),
            source=source,
            warm=warm,
        )

    @classmethod
    def from_cache(
        cls,
        directory: str,
        study,
        config: Optional[RunConfig] = None,
    ) -> "ServingIndex":
        """Build an index through the snapshot cache under ``directory``.

        Runs the study cache-backed: with a store whose digests match
        the study's inputs this recomputes nothing (a fully warm
        load), otherwise the run fills the store for next time.  The
        returned index records whether it was served warm.
        """
        from repro.cache.fingerprint import config_fingerprint
        from repro.cache.store import load_digests

        run_config = config or RunConfig()
        if run_config.cache is None or run_config.cache.directory != directory:
            run_config = replace(run_config, cache=CacheConfig(directory))
        stored = load_digests(directory)
        result = study.run(config=run_config)
        index = cls.build(study, result, source=SOURCE_CACHE)
        warm = stored is not None and (
            stored["zone"] == index.digests["zone"]
            and stored["dump"] == index.digests["dump"]
            and stored["vrps"] == index.digests["vrps"]
            and stored["config"] == config_fingerprint(run_config)
        )
        index.warm = warm
        return index

    def stale_against(self, study) -> bool:
        """Would this index misrepresent ``study``'s current inputs?

        True when any input digest (zone, dump, VRP set) has drifted
        since the index was built — e.g. the world re-hosted domains
        under a continuous campaign while the index kept serving.
        """
        from repro.cache.fingerprint import input_digests

        return self.digests != input_digests(study)

    # -- the four query types ------------------------------------------------

    def validate(
        self, prefix: Prefix, origin: Union[int, ASN]
    ) -> ValidateAnswer:
        """RFC 6811 origin validation with its evidence."""
        state, covering = self._payloads.validate_with_covering(
            prefix, origin
        )
        return ValidateAnswer(
            prefix=prefix,
            origin=ASN(int(origin)),
            state=state,
            covering=tuple(covering),
        )

    def lookup(self, address: Address) -> LookupAnswer:
        """Longest-match route lookup with per-origin verdicts."""
        match = self._routes.lookup_longest(address)
        if match is None:
            return LookupAnswer(
                address=address, prefix=None, origins=(), verdicts=()
            )
        prefix, entries = match
        origins: List[ASN] = []
        as_set_excluded = 0
        for entry in entries:
            origin = entry.origin
            if origin is None:
                as_set_excluded += 1
            elif origin not in origins:
                origins.append(origin)
        ordered = tuple(sorted(origins))
        verdicts = tuple(
            (origin, self._payloads.validate_origin(prefix, origin))
            for origin in ordered
        )
        return LookupAnswer(
            address=address,
            prefix=prefix,
            origins=ordered,
            verdicts=verdicts,
            as_set_excluded=as_set_excluded,
        )

    def domain(self, name: str) -> DomainAnswer:
        """The stored funnel record for ``name`` (www form accepted)."""
        measurement = self._by_name.get(name)
        if measurement is None and name.startswith("www."):
            measurement = self._by_name.get(name[len("www."):])
        if measurement is None:
            return DomainAnswer(name=name, found=False)
        return DomainAnswer(name=name, found=True, measurement=measurement)

    def rank_slice(self, first: int, last: int) -> RankSliceAnswer:
        """Aggregate exposure over ranks ``first..last`` (inclusive)."""
        if first > last:
            raise ValueError(f"empty rank slice [{first}, {last}]")
        lo = bisect_left(self._ranks, first)
        hi = bisect_right(self._ranks, last)
        counts = [column[hi] - column[lo] for column in self._sums]
        return RankSliceAnswer(
            first=first,
            last=last,
            domains=hi - lo,
            **dict(zip(_COUNTERS, counts)),
            verdicts=tuple(
                (state.value, count)
                for state, count in zip(_STATES, counts[len(_COUNTERS):])
                if count
            ),
        )

    # -- introspection -------------------------------------------------------

    @property
    def measurements(self) -> Tuple[DomainMeasurement, ...]:
        """Every stored funnel record, rank-ordered."""
        return self._measurements

    @property
    def vrp_count(self) -> int:
        return len(self._payloads)

    @property
    def route_count(self) -> int:
        return self._route_count

    @property
    def max_rank(self) -> int:
        return self._measurements[-1].rank if self._measurements else 0

    def __len__(self) -> int:
        return len(self._measurements)

    def __repr__(self) -> str:
        return (
            f"<ServingIndex {len(self)} domains, {self.vrp_count} VRPs, "
            f"{self.route_count} routes, source={self.source}>"
        )


def _prefix_sums(
    measurements: Tuple[DomainMeasurement, ...],
) -> Tuple[array, ...]:
    """Running totals of every rank_slice column over ``measurements``.

    Each column has ``len(measurements) + 1`` entries and entry ``i``
    sums records ``[0, i)``, so records ``[lo, hi)`` sum to
    ``column[hi] - column[lo]``.  ``combined_pairs()`` runs once per
    record, here, and never at query time.
    """
    width = len(_COUNTERS) + len(_STATES)
    columns = tuple(array("q", [0]) for _ in range(width))
    totals = [0] * width
    for measurement in measurements:
        combined = measurement.combined_pairs()
        covered = sum(1 for pair in combined if pair.covered)
        row = [
            measurement.usable,
            measurement.rpki_enabled,
            bool(combined) and covered == len(combined),
            measurement.degraded,
            len(combined),
            covered,
        ] + [0] * len(_STATES)
        for pair in combined:
            row[_STATE_COLUMN[pair.state]] += 1
        for i, value in enumerate(row):
            totals[i] += value
            columns[i].append(totals[i])
    return columns
