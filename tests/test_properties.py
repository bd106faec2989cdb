"""Property-based tests (hypothesis) on core data structures."""

import copy
import json
import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import bin_means
from repro.bgp import ASPath
from repro.core import NameMeasurement, PrefixOriginPair, StudyStatistics
from repro.crypto import DeterministicRNG
from repro.exec import decode_name, decode_statistics, encode_name, encode_statistics
from repro.net import ASN, Address, Prefix, PrefixError, PrefixTrie
from repro.net.addr import IPV4, IPV6
from repro.obs import MetricsRegistry, TraceCollector, registry_from_snapshot
from repro.obs.tracing import Span
from repro.rpki import VRP, OriginValidation, ResourceSet, ValidatedPayloads
from repro.rpki.resources import ASNRange

# -- strategies ---------------------------------------------------------------

ipv4_values = st.integers(min_value=0, max_value=(1 << 32) - 1)
ipv6_values = st.integers(min_value=0, max_value=(1 << 128) - 1)
asns = st.integers(min_value=0, max_value=(1 << 32) - 1)


@st.composite
def ipv4_prefixes(draw):
    length = draw(st.integers(min_value=0, max_value=32))
    value = draw(ipv4_values)
    return Prefix.from_address(Address(IPV4, value), length)


@st.composite
def ipv6_prefixes(draw):
    length = draw(st.integers(min_value=0, max_value=128))
    value = draw(ipv6_values)
    return Prefix.from_address(Address(IPV6, value), length)


prefixes = st.one_of(ipv4_prefixes(), ipv6_prefixes())


@st.composite
def vrps(draw):
    prefix = draw(ipv4_prefixes())
    max_length = draw(st.integers(min_value=prefix.length, max_value=32))
    return VRP(prefix, max_length, ASN(draw(asns)))


addresses = st.one_of(
    ipv4_values.map(lambda v: Address(IPV4, v)),
    ipv6_values.map(lambda v: Address(IPV6, v)),
)

small_counts = st.integers(min_value=0, max_value=1 << 20)

# Label maps must hold only nonzero counts: ``StudyStatistics`` keeps
# sparse dicts, and ``from_metrics`` skips zero-valued series.
label_counts = st.dictionaries(
    st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126),
        min_size=1,
        max_size=12,
    ),
    st.integers(min_value=1, max_value=1 << 20),
    max_size=5,
)


@st.composite
def prefix_origin_pairs(draw):
    return PrefixOriginPair(
        draw(prefixes),
        ASN(draw(asns)),
        draw(st.sampled_from(list(OriginValidation))),
    )


@st.composite
def name_measurements(draw):
    faults = draw(label_counts)
    return NameMeasurement(
        name=f"d{draw(st.integers(min_value=0, max_value=9999))}.example",
        resolved=draw(st.booleans()),
        addresses=draw(st.lists(addresses, max_size=4)),
        excluded_special=draw(small_counts),
        unreachable_addresses=draw(small_counts),
        as_set_excluded=draw(small_counts),
        cname_count=draw(small_counts),
        pairs=draw(st.lists(prefix_origin_pairs(), max_size=4)),
        degraded_stage=draw(st.sampled_from(("", "dns", "prefix"))),
        retries=draw(small_counts),
        faults=tuple(sorted(faults.items())),
    )


@st.composite
def study_statistics(draw):
    return StudyStatistics(
        domain_count=draw(small_counts),
        invalid_dns_domains=draw(small_counts),
        www_addresses=draw(small_counts),
        plain_addresses=draw(small_counts),
        www_pairs=draw(small_counts),
        plain_pairs=draw(small_counts),
        unreachable_addresses=draw(small_counts),
        as_set_exclusions=draw(small_counts),
        degraded_domains=draw(small_counts),
        retries_total=draw(small_counts),
        faults_by_kind=draw(label_counts),
        cache_hits_by_stage=draw(label_counts),
        cache_misses_by_stage=draw(label_counts),
        cache_invalidated_by_stage=draw(label_counts),
    )


# -- addresses and prefixes ----------------------------------------------------


@given(ipv4_values)
def test_ipv4_text_roundtrip(value):
    address = Address(IPV4, value)
    assert Address.parse(str(address)) == address


@given(ipv6_values)
def test_ipv6_text_roundtrip(value):
    address = Address(IPV6, value)
    assert Address.parse(str(address)) == address


@given(prefixes)
def test_prefix_text_roundtrip(prefix):
    assert Prefix.parse(str(prefix)) == prefix


@given(prefixes)
def test_prefix_contains_its_network_and_broadcast(prefix):
    assert prefix.contains(prefix.network)
    host_bits = (1 << (prefix.bits - prefix.length)) - 1
    assert prefix.contains(Address(prefix.family, prefix.value | host_bits))
    assert prefix.covers(prefix)


@given(prefixes, st.data())
def test_supernet_always_covers(prefix, data):
    length = data.draw(st.integers(min_value=0, max_value=prefix.length))
    supernet = prefix.supernet(length)
    assert supernet.covers(prefix)
    assert supernet.length == length


# -- Address / Prefix are the int tuples --------------------------------------
# The oracle is plain ints: no repro.net code builds or orders a triple.


@st.composite
def int_triples(draw):
    """A canonical ``(family, value, length)`` from a small pool, so that
    equal, adjacent and cross-family values all occur in one list."""
    family = draw(st.sampled_from([4, 6]))
    bits = 32 if family == 4 else 128
    length = draw(st.sampled_from([0, 1, 8, bits - 1, bits]))
    network = draw(st.integers(min_value=0, max_value=min(3, (1 << length) - 1)))
    return family, network << (bits - length), length


@given(st.lists(int_triples(), min_size=2, max_size=12))
def test_prefix_and_address_compare_hash_and_sort_as_their_int_tuples(triples):
    for cls, rows in ((Prefix, triples), (Address, [t[:2] for t in triples])):
        values = [cls(*row) for row in rows]
        for left, left_row in zip(values, rows):
            assert tuple(left) == left_row and hash(left) == hash(left_row)
            for right, right_row in zip(values, rows):
                assert (left == right) == (left_row == right_row)
                assert (left < right) == (left_row < right_row)
                if left_row == right_row:
                    assert hash(left) == hash(right)
        assert [tuple(value) for value in sorted(values)] == sorted(rows)
        assert {tuple(value) for value in set(values)} == set(rows)


@given(int_triples())
def test_pickle_and_deepcopy_rebuild_an_equal_value_of_the_same_class(triple):
    for value in (Prefix(*triple), Address(*triple[:2])):
        clones = [copy.copy(value), copy.deepcopy(value)] + [
            pickle.loads(pickle.dumps(value, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for clone in clones:
            assert clone == value and type(clone) is type(value)


def test_unpickling_re_enters_the_validating_constructor():
    """``__getnewargs__`` is not a way around the host-bit check."""
    honest = pickle.dumps(Prefix(4, 0x0A000000, 8), protocol=2)
    network = struct.pack("<i", 0x0A000000)
    assert honest.count(network) == 1
    forged = honest.replace(network, struct.pack("<i", 0x0A000001))
    with pytest.raises(PrefixError):
        pickle.loads(forged)


@given(st.lists(ipv4_prefixes(), max_size=30), ipv4_values)
def test_trie_covering_matches_bruteforce(entries, value):
    trie = PrefixTrie()
    for index, prefix in enumerate(entries):
        trie.insert(prefix, index)
    address = Address(IPV4, value)
    expected = sorted(
        (prefix, index)
        for index, prefix in enumerate(entries)
        if prefix.contains(address)
    )
    assert sorted(trie.covering(address)) == expected


@given(st.lists(ipv4_prefixes(), min_size=1, max_size=30), ipv4_values)
def test_trie_longest_match_is_longest_covering(entries, value):
    trie = PrefixTrie()
    for index, prefix in enumerate(entries):
        trie.insert(prefix, index)
    address = Address(IPV4, value)
    covering = trie.covering(address)
    longest = trie.lookup_longest(address)
    if not covering:
        assert longest is None
    else:
        best_prefix, _values = longest
        assert best_prefix == max(covering, key=lambda pv: pv[0].length)[0]


@given(st.lists(ipv4_prefixes(), max_size=20))
def test_trie_insert_remove_roundtrip(entries):
    trie = PrefixTrie()
    for index, prefix in enumerate(entries):
        trie.insert(prefix, index)
    for index, prefix in enumerate(entries):
        assert trie.remove(prefix, index)
    assert len(trie) == 0
    for prefix in entries:
        assert trie.lookup_exact(prefix) == []


# -- AS paths -------------------------------------------------------------------


@given(st.lists(asns, min_size=1, max_size=10))
def test_aspath_parse_roundtrip(path_asns):
    path = ASPath.of(*path_asns)
    assert ASPath.parse(str(path)) == path


@given(st.lists(asns, min_size=1, max_size=10), asns)
def test_aspath_prepend_invariants(path_asns, new_asn):
    path = ASPath.of(*path_asns)
    extended = path.prepend(new_asn)
    assert len(extended) == len(path) + 1
    assert extended.origin() == path.origin()
    assert extended.contains(new_asn)
    assert list(extended)[0] == new_asn


# -- RPKI -----------------------------------------------------------------------


@given(st.lists(vrps(), max_size=20), ipv4_prefixes(), asns)
def test_origin_validation_matches_bruteforce(vrp_list, announced, origin):
    payloads = ValidatedPayloads(vrp_list)
    state = payloads.validate_origin(announced, origin)
    covering = [v for v in vrp_list if v.prefix.covers(announced)]
    if not covering:
        assert state is OriginValidation.NOT_FOUND
    elif any(
        v.asn == origin and announced.length <= v.max_length for v in covering
    ):
        assert state is OriginValidation.VALID
    else:
        assert state is OriginValidation.INVALID


@given(st.lists(ipv4_prefixes(), max_size=10), st.lists(asns, max_size=5))
def test_resource_set_covers_itself_and_subsets(prefix_list, asn_list):
    full = ResourceSet(
        prefix_list, [ASNRange.single(a) for a in asn_list]
    )
    assert full.covers(full)
    subset = ResourceSet(
        prefix_list[: len(prefix_list) // 2],
        [ASNRange.single(a) for a in asn_list[: len(asn_list) // 2]],
    )
    assert full.covers(subset)
    assert ResourceSet.all_resources().covers(full)


# -- exec wire codec ----------------------------------------------------------------


@given(name_measurements())
def test_name_measurement_wire_roundtrip(measurement):
    assert decode_name(encode_name(measurement)) == measurement


@given(name_measurements())
def test_name_measurement_survives_json(measurement):
    # The snapshot cache persists form-level artifacts as JSON, which
    # turns every tuple into a list; decode must not care.
    wire = json.loads(json.dumps(encode_name(measurement)))
    assert decode_name(wire) == measurement


@given(study_statistics())
def test_statistics_wire_roundtrip(stats):
    assert decode_statistics(encode_statistics(stats)) == stats


@given(study_statistics())
def test_statistics_wire_roundtrip_through_json(stats):
    wire = json.loads(json.dumps(encode_statistics(stats)))
    assert decode_statistics(wire) == stats


@given(study_statistics())
@settings(max_examples=25)
def test_statistics_metrics_roundtrip(stats):
    registry = MetricsRegistry()
    stats.to_metrics(registry)
    assert StudyStatistics.from_metrics(registry) == stats
    assert stats.consistent_with(registry)


@given(st.integers())
def test_statistics_from_seeded_rng_roundtrip(seed):
    # Same invariants, driven by the repo's own deterministic RNG
    # (the generator every synthetic-world component uses).
    rng = DeterministicRNG(seed).fork("codec-roundtrip")
    kinds = ("dns_timeout", "dns_servfail", "bgp_gap", "rpki_stale")
    stages = ("dns.www", "dns.plain", "prefix", "rpki", "form.www")
    stats = StudyStatistics(
        domain_count=rng.randint(0, 1 << 20),
        invalid_dns_domains=rng.randint(0, 1 << 20),
        www_addresses=rng.randint(0, 1 << 20),
        plain_addresses=rng.randint(0, 1 << 20),
        www_pairs=rng.randint(0, 1 << 20),
        plain_pairs=rng.randint(0, 1 << 20),
        unreachable_addresses=rng.randint(0, 1 << 20),
        as_set_exclusions=rng.randint(0, 1 << 20),
        degraded_domains=rng.randint(0, 1 << 20),
        retries_total=rng.randint(0, 1 << 20),
        faults_by_kind={
            kind: rng.randint(1, 1 << 20)
            for kind in rng.sample(kinds, rng.randint(0, len(kinds)))
        },
        cache_hits_by_stage={
            stage: rng.randint(1, 1 << 20)
            for stage in rng.sample(stages, rng.randint(0, len(stages)))
        },
        cache_misses_by_stage={
            stage: rng.randint(1, 1 << 20)
            for stage in rng.sample(stages, rng.randint(0, 2))
        },
        cache_invalidated_by_stage={
            stage: rng.randint(1, 1 << 20)
            for stage in rng.sample(stages, rng.randint(0, 2))
        },
    )
    assert decode_statistics(encode_statistics(stats)) == stats
    registry = MetricsRegistry()
    stats.to_metrics(registry)
    assert StudyStatistics.from_metrics(registry) == stats


# -- deterministic RNG -------------------------------------------------------------


@given(st.integers(), st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=1000))
def test_rng_randint_in_bounds(seed, a, b):
    low, high = min(a, b), max(a, b)
    rng = DeterministicRNG(seed)
    for _ in range(5):
        assert low <= rng.randint(low, high) <= high


@given(st.integers(), st.integers(min_value=1, max_value=50))
def test_rng_sample_distinct(seed, count):
    rng = DeterministicRNG(seed)
    picked = rng.sample(range(count), count)
    assert sorted(picked) == list(range(count))


# -- analysis -----------------------------------------------------------------------


@given(
    st.lists(
        st.one_of(st.none(), st.floats(min_value=-100, max_value=100)),
        max_size=100,
    ),
    st.integers(min_value=1, max_value=20),
)
def test_bin_means_weighted_mean_matches_global_mean(values, bin_size):
    series = bin_means(values, bin_size)
    present = [v for v in values if v is not None]
    assert sum(series.counts) == len(present)
    if present:
        assert abs(series.mean() - sum(present) / len(present)) < 1e-9


# -- telemetry plane ----------------------------------------------------------------


@st.composite
def populated_registries(draw):
    """A registry exercising every metric family and label shape."""
    registry = MetricsRegistry()
    labelled = registry.counter(
        "ripki_prop_events_total", "events", labelnames=("kind",)
    )
    for kind, count in draw(label_counts).items():
        labelled.labels(kind=kind).inc(count)
    registry.counter("ripki_prop_total", "plain").inc(draw(small_counts))
    # Labelnames deliberately NOT in alphabetical order: the snapshot
    # must preserve declaration order or series ordering drifts.
    paired = registry.gauge(
        "ripki_prop_window", "windowed", labelnames=("slo", "quantile")
    )
    for slo in draw(st.lists(st.sampled_from(["a", "b", "c"]), max_size=3)):
        for quantile in ("p50", "p99"):
            paired.labels(slo=slo, quantile=quantile).set(
                draw(st.integers(min_value=0, max_value=100))
            )
    registry.gauge("ripki_prop_level", "level").set(
        draw(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    )
    histogram = registry.histogram(
        "ripki_prop_seconds", "latency", buckets=(0.01, 0.1, 1.0)
    )
    for value in draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            max_size=20,
        )
    ):
        histogram.observe(value)
    return registry


@given(populated_registries())
@settings(max_examples=50)
def test_registry_snapshot_roundtrip_renders_identically(registry):
    """snapshot() -> JSON -> registry_from_snapshot() is exposition-exact.

    The /snapshot endpoint is only trustworthy if a registry rebuilt
    from its payload would scrape the same Prometheus text.
    """
    snapshot = json.loads(json.dumps(registry.snapshot()))
    restored = registry_from_snapshot(snapshot)
    assert restored.render_prometheus() == registry.render_prometheus()
    assert restored.snapshot() == registry.snapshot()


@st.composite
def span_forests(draw):
    """Parent links: parents[i] is an earlier index or None (a root)."""
    count = draw(st.integers(min_value=1, max_value=12))
    parents = [None]
    for index in range(1, count):
        parents.append(
            draw(
                st.one_of(
                    st.none(),
                    st.integers(min_value=0, max_value=index - 1),
                )
            )
        )
    return parents


@given(span_forests())
@settings(max_examples=50)
def test_absorb_preserves_span_structure(parents):
    """Grafting a span forest keeps every parent/child edge intact.

    A trace must tell the same story after a cross-shard merge:
    absorbed spans keep their in-batch parents (through
    re-identification) and batch roots re-root under the merging span.
    """
    source = [
        Span(
            name=f"s{index}",
            span_id=index + 100,
            parent_id=(
                parents[index] + 100 if parents[index] is not None else None
            ),
            start=float(index),
            end=float(index) + 0.5,
        )
        for index in range(len(parents))
    ]
    collector = TraceCollector()
    with collector.span("root"):
        pass
    root_id = collector.spans("root")[0].span_id
    collector.absorb(source, parent_id=root_id)

    by_name = {span.name: span for span in collector.spans()}
    assert len(by_name) == len(parents) + 1
    assert len({span.span_id for span in by_name.values()}) == len(by_name)
    for index, parent in enumerate(parents):
        grafted = by_name[f"s{index}"]
        if parent is None:
            assert grafted.parent_id == root_id
        else:
            assert grafted.parent_id == by_name[f"s{parent}"].span_id
        assert grafted.duration == 0.5
