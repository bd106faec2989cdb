"""Differential tests: ServingIndex vs a naive linear-scan oracle.

The serving index answers ``validate`` and ``lookup`` through the
radix trie.  The oracle here recomputes every answer by scanning the
raw VRP list / table-dump rows with no index at all — same RFC 6811
rules, structurally different implementation — so any trie bug
(wrong covering order, missed branch, stale longest-match) shows up
as a mismatch.  ``domain`` answers must be *byte-identical* to the
stored funnel records (checked through the exec wire codec), and
``rank_slice`` must agree with a from-scratch aggregation over the
study result.

Every suite replays its query list through both dispatch backends and
requires the threaded responses to equal the serial ones exactly.

Oracle answers are memoized per canonical query key: the oracle is a
pure function of (frozen index inputs, query), so caching repeats —
the seeded streams are deliberately skewed — loses no coverage.
"""

import json

import pytest

from repro.core import MeasurementStudy
from repro.core.records import DomainMeasurement
from repro.crypto.rng import DeterministicRNG
from repro.exec.codec import encode_measurements
from repro.net import ASN, Address, Prefix, PrefixTrie
from repro.net.addr import IPV4
from repro.rpki.vrp import OriginValidation
from repro.serve import (
    LookupAnswer,
    Query,
    QueryService,
    ServeConfig,
    ServingIndex,
    ValidateAnswer,
)
from repro.web import EcosystemConfig, WebEcosystem

QUERIES_PER_KIND = 5_000
SEED = 2015


@pytest.fixture(scope="module")
def frozen():
    """One small world, studied once, frozen into a serving index.

    Small enough that the oracle's linear scans stay affordable, big
    enough that routes nest and VRPs cover a mix of prefixes.
    """
    world = WebEcosystem.build(
        EcosystemConfig(
            domain_count=400,
            seed=42,
            hoster_count=50,
            eyeball_count=12,
            transit_count=8,
        )
    )
    study = MeasurementStudy.from_ecosystem(world)
    result = study.run()
    index = ServingIndex.build(study, result)
    return study, result, index


def run_both_backends(index, queries):
    """Dispatch serially and threaded; require identical responses."""
    serial = QueryService(index, ServeConfig(mode="serial")).run(queries)
    threaded = QueryService(
        index, ServeConfig(workers=4, mode="thread")
    ).run(queries)
    assert threaded == serial, "threaded dispatch diverged from serial"
    return serial


# -- oracles (linear scans, no trie) ----------------------------------------


def spans(rows):
    """Each row with its prefix as an integer ``(family, lo, hi)`` span.

    Computed once per row list, so the scans below compare integers
    instead of calling ``Prefix.contains`` per row and query.
    """
    return [
        (
            row.prefix.family,
            row.prefix.value,
            row.prefix.value
            + (1 << (row.prefix.bits - row.prefix.length)) - 1,
            row,
        )
        for row in rows
    ]


def oracle_validate(vrp_spans, prefix, origin):
    """RFC 6811 by scanning the flat VRP list (as :func:`spans`).

    A VRP covers the prefix when it is no longer than it and the
    prefix's network falls inside the VRP's span.  Covering VRPs are
    ordered shortest-prefix-first with insertion order as the
    tie-break — for any target only one prefix per length can cover
    it, so a stable sort by length reproduces the trie's covering-walk
    order exactly.
    """
    family, value, length = prefix
    covering = sorted(
        (
            vrp
            for vrp_family, lo, hi, vrp in vrp_spans
            if vrp_family == family
            and lo <= value <= hi
            and vrp.prefix.length <= length
        ),
        key=lambda vrp: vrp.prefix.length,
    )
    if not covering:
        state = OriginValidation.NOT_FOUND
    elif any(
        length <= vrp.max_length and int(vrp.asn) == int(origin)
        for vrp in covering
    ):
        state = OriginValidation.VALID
    else:
        state = OriginValidation.INVALID
    return ValidateAnswer(
        prefix=prefix,
        origin=ASN(int(origin)),
        state=state,
        covering=tuple(covering),
    )


def oracle_lookup(vrp_spans, dump_spans, address):
    """Longest-match by scanning every table-dump row (as :func:`spans`)."""
    family, value = address
    matches = [
        row
        for row_family, lo, hi, row in dump_spans
        if row_family == family and lo <= value <= hi
    ]
    if not matches:
        return LookupAnswer(
            address=address, prefix=None, origins=(), verdicts=()
        )
    longest = max(row.prefix.length for row in matches)
    winner = next(
        row.prefix for row in matches if row.prefix.length == longest
    )
    origins = []
    as_set_excluded = 0
    for row in matches:
        if row.prefix != winner:
            continue
        if row.origin is None:
            as_set_excluded += 1
        elif row.origin not in origins:
            origins.append(row.origin)
    ordered = tuple(sorted(origins))
    verdicts = tuple(
        (origin, oracle_validate(vrp_spans, winner, origin).state)
        for origin in ordered
    )
    return LookupAnswer(
        address=address,
        prefix=winner,
        origins=ordered,
        verdicts=verdicts,
        as_set_excluded=as_set_excluded,
    )


# -- seeded query streams ---------------------------------------------------


def pick_measurement(rng, measurements):
    return measurements[rng.randint(0, len(measurements) - 1)]


def validate_queries(rng, study, index):
    """Real pairs, perturbed pairs, VRP-anchored hits, and noise.

    The small world yields mostly NOT_FOUND organically, so the
    stream anchors a share of queries on the VRP set itself: exact
    (prefix, asn) pairs must come back VALID, wrong-origin and
    longer-than-maxLength variants must come back INVALID — all three
    states stay exercised no matter how sparse ROA adoption is.
    """
    vrps = list(study.payloads)
    measurements = index.measurements
    queries = []
    while len(queries) < QUERIES_PER_KIND:
        shape = rng.randint(0, 5)
        if shape <= 1:  # a pair the funnel actually measured
            pairs = pick_measurement(rng, measurements).combined_pairs()
            if not pairs:
                continue
            pair = pairs[rng.randint(0, len(pairs) - 1)]
            queries.append(Query.validate(pair.prefix, pair.origin))
        elif shape == 2:  # same pair, origin perturbed
            pairs = pick_measurement(rng, measurements).combined_pairs()
            if not pairs:
                continue
            pair = pairs[rng.randint(0, len(pairs) - 1)]
            queries.append(
                Query.validate(pair.prefix, ASN(int(pair.origin) + 1))
            )
        elif shape == 3 and vrps:  # exact VRP announcement -> VALID
            vrp = vrps[rng.randint(0, len(vrps) - 1)]
            queries.append(Query.validate(vrp.prefix, vrp.asn))
        elif shape == 4 and vrps:  # covered but wrong -> INVALID
            vrp = vrps[rng.randint(0, len(vrps) - 1)]
            if rng.random() < 0.5 or vrp.max_length >= vrp.prefix.bits:
                announced = vrp.prefix
                origin = ASN(int(vrp.asn) + 1)
            else:  # more specific than maxLength allows
                announced = Prefix(
                    vrp.prefix.family, vrp.prefix.value, vrp.max_length + 1
                )
                origin = vrp.asn
            queries.append(Query.validate(announced, origin))
        else:  # uncorrelated noise
            announced = Prefix.from_address(
                Address(IPV4, rng.getrandbits(32)), 24
            )
            queries.append(
                Query.validate(announced, rng.randint(1, 65_000))
            )
    return queries


def lookup_queries(rng, index):
    """Measured addresses, bit-flipped neighbours, and random space."""
    measurements = index.measurements
    queries = []
    while len(queries) < QUERIES_PER_KIND:
        shape = rng.randint(0, 3)
        if shape <= 1:
            m = pick_measurement(rng, measurements)
            addresses = list(m.www.addresses) + list(m.plain.addresses)
            if not addresses:
                continue
            address = addresses[rng.randint(0, len(addresses) - 1)]
            if shape == 1:  # nudge into (maybe) a sibling route
                address = Address(
                    address.family,
                    address.value ^ (1 << rng.randint(0, 12)),
                )
            queries.append(Query.lookup(address))
        else:
            queries.append(
                Query.lookup(Address(IPV4, rng.getrandbits(32)))
            )
    return queries


def domain_queries(rng, index):
    """Stored names, their www. aliases, and guaranteed misses."""
    measurements = index.measurements
    queries = []
    while len(queries) < QUERIES_PER_KIND:
        name = pick_measurement(rng, measurements).domain.name
        shape = rng.randint(0, 3)
        if shape == 1:
            name = f"www.{name}"
        elif shape == 2:
            name = f"absent-{name}"
        queries.append(Query.domain(name))
    return queries


def rank_slice_queries(rng, index):
    queries = []
    while len(queries) < QUERIES_PER_KIND:
        first = rng.randint(1, index.max_rank)
        width = rng.randint(1, 120)
        queries.append(
            Query.rank_slice(first, min(index.max_rank, first + width - 1))
        )
    return queries


# -- the differential suites ------------------------------------------------


class TestValidateDifferential:
    def test_matches_oracle(self, frozen):
        study, _result, index = frozen
        rng = DeterministicRNG(SEED).fork("diff.validate")
        queries = validate_queries(rng, study, index)
        assert len(queries) >= QUERIES_PER_KIND
        vrp_spans = spans(study.payloads)
        memo = {}
        mismatches = []
        states = set()
        for response in run_both_backends(index, queries):
            query = response.query
            key = query.key()
            if key not in memo:
                memo[key] = oracle_validate(
                    vrp_spans, query.prefix, query.origin
                )
            expected = memo[key]
            states.add(expected.state)
            if response.answer != expected:
                mismatches.append((key, response.answer, expected))
        assert not mismatches, mismatches[:5]
        # The stream must have exercised every RFC 6811 state.
        assert states == set(OriginValidation)

    def test_covering_evidence_is_shortest_first(self, frozen):
        study, _result, index = frozen
        for vrp in study.payloads:
            answer = index.validate(vrp.prefix, vrp.asn)
            assert answer.state is OriginValidation.VALID
            lengths = [v.prefix.length for v in answer.covering]
            assert lengths == sorted(lengths)
            assert vrp in answer.covering


class TestLookupDifferential:
    def test_matches_oracle(self, frozen):
        study, _result, index = frozen
        rng = DeterministicRNG(SEED).fork("diff.lookup")
        queries = lookup_queries(rng, index)
        assert len(queries) >= QUERIES_PER_KIND
        vrp_spans = spans(study.payloads)
        dump_spans = spans(study.table_dump)
        memo = {}
        mismatches = []
        routed = 0
        for response in run_both_backends(index, queries):
            query = response.query
            key = query.key()
            if key not in memo:
                memo[key] = oracle_lookup(
                    vrp_spans, dump_spans, query.address
                )
            expected = memo[key]
            routed += expected.prefix is not None
            if response.answer != expected:
                mismatches.append((key, response.answer, expected))
        assert not mismatches, mismatches[:5]
        assert routed, "stream never hit a routed address"
        assert routed < len(queries), "stream never missed"


class TestDomainDifferential:
    def test_byte_identical_to_stored_measurements(self, frozen):
        _study, result, index = frozen
        rng = DeterministicRNG(SEED).fork("diff.domain")
        queries = domain_queries(rng, index)
        assert len(queries) >= QUERIES_PER_KIND
        stored = {m.domain.name: m for m in result.by_rank()}
        hits = misses = 0
        for response in run_both_backends(index, queries):
            name = response.query.name
            plain = name[len("www."):] if name.startswith("www.") else name
            expected = stored.get(plain)
            answer = response.answer
            if expected is None:
                misses += 1
                assert not answer.found and answer.measurement is None
                continue
            hits += 1
            assert answer.found and answer.rank == expected.rank
            # Snapshot semantics: the very object the study produced...
            assert answer.measurement is expected
            # ...and byte-identical through the exec wire codec.
            assert json.dumps(
                encode_measurements([answer.measurement])
            ) == json.dumps(encode_measurements([expected]))
        assert hits and misses


class TestRankSliceDifferential:
    def test_matches_from_scratch_aggregation(self, frozen):
        _study, result, index = frozen
        rng = DeterministicRNG(SEED).fork("diff.rank_slice")
        queries = rank_slice_queries(rng, index)
        assert len(queries) >= QUERIES_PER_KIND
        by_rank = result.by_rank()
        memo = {}
        for response in run_both_backends(index, queries):
            query = response.query
            key = (query.first, query.last)
            if key not in memo:
                memo[key] = self.aggregate(by_rank, *key)
            assert response.answer == memo[key], key
        # Whole-list slice agrees with the study's own statistics.
        full = index.rank_slice(1, index.max_rank)
        assert full.domains == len(by_rank)
        assert full.usable == sum(1 for m in by_rank if m.usable)

    def test_non_contiguous_ranks(self, frozen):
        """Every third record: windows that start, end or sit in a gap.

        The full index's ranks are contiguous, so a bisect that is off
        by one at a gap would still pass the stream above.
        """
        study, result, _index = frozen
        sparse = result.by_rank()[1::3]
        index = ServingIndex(study.payloads, PrefixTrie(), sparse)
        ranks = [m.rank for m in sparse]
        low, high = ranks[0], ranks[-1]
        assert low > 1, "no window can fall wholly before the first rank"
        windows = [
            (0, low), (-7, low + 10), (-3, 0),         # first <= 0
            (high - 10, high + 50), (high, 10**9),     # last > max_rank
            (1, low - 1), (-5, low - 1),               # wholly before
            (high + 1, high + 1), (high + 1, 10**9),   # wholly after
            (low, high), (-(10**9), 10**9),            # the whole list
        ]
        for rank in ranks[::7]:
            windows += [
                (rank, rank),                  # a present rank
                (rank + 1, rank + 1),          # a gap
                (rank + 1, rank + 2),          # a window inside a gap
                (rank - 1, rank + 1),          # gap, rank, gap
                (rank + 1, rank + 9),          # starts and ends in gaps
            ]
        rng = DeterministicRNG(SEED).fork("diff.rank_slice.sparse")
        for _ in range(500):
            first = rng.randint(-5, high + 5)
            windows.append((first, first + rng.randint(0, 60)))
        queries = [Query.rank_slice(first, last) for first, last in windows]
        for response in run_both_backends(index, queries):
            key = (response.query.first, response.query.last)
            assert response.answer == self.aggregate(sparse, *key), key
        assert index.rank_slice(low, high).domains == len(sparse)
        assert index.rank_slice(high + 1, 10**9).domains == 0

    def test_queries_read_no_measurement(self, frozen, monkeypatch):
        """The no-scan property: answers come from build-time sums."""
        _study, result, index = frozen
        rng = DeterministicRNG(SEED).fork("diff.rank_slice.cost")
        queries = rank_slice_queries(rng, index)[:1_000]
        by_rank = result.by_rank()
        expected = [
            self.aggregate(by_rank, query.first, query.last)
            for query in queries
        ]
        calls = []
        combined_pairs = DomainMeasurement.combined_pairs

        def counted(measurement):
            calls.append(measurement)
            return combined_pairs(measurement)

        monkeypatch.setattr(DomainMeasurement, "combined_pairs", counted)
        answers = [
            index.rank_slice(query.first, query.last) for query in queries
        ]
        assert calls == []
        assert answers == expected

    @staticmethod
    def aggregate(measurements, first, last):
        """Recompute a RankSliceAnswer naively from the study result."""
        window = [m for m in measurements if first <= m.rank <= last]
        verdicts = {}
        pairs = covered = fully = 0
        for m in window:
            combined = m.combined_pairs()
            if combined and all(pair.covered for pair in combined):
                fully += 1
            for pair in combined:
                pairs += 1
                covered += pair.covered
                verdicts[pair.state.value] = (
                    verdicts.get(pair.state.value, 0) + 1
                )
        from repro.serve.index import RankSliceAnswer

        return RankSliceAnswer(
            first=first,
            last=last,
            domains=len(window),
            usable=sum(1 for m in window if m.usable),
            rpki_enabled=sum(1 for m in window if m.rpki_enabled),
            fully_covered=fully,
            degraded=sum(1 for m in window if m.degraded),
            pairs=pairs,
            covered_pairs=covered,
            verdicts=tuple(sorted(verdicts.items())),
        )
