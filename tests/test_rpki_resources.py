"""Unit tests for repro.rpki.resources."""

import pytest

from repro.net import ASN, Prefix
from repro.rpki import ASNRange, ResourceSet


def P(text):
    return Prefix.parse(text)


class TestASNRange:
    def test_single(self):
        rng = ASNRange.single(64500)
        assert rng.low == rng.high == 64500
        assert str(rng) == "AS64500"

    def test_range_contains(self):
        rng = ASNRange(ASN(100), ASN(200))
        for inside in (100, 150, 200):
            assert rng.covers(ASNRange.single(inside))
        for outside in (99, 201):
            assert not rng.covers(ASNRange.single(outside))
        assert str(rng) == "AS100-AS200"

    def test_covers(self):
        outer = ASNRange(ASN(100), ASN(200))
        assert outer.covers(ASNRange(ASN(120), ASN(180)))
        assert outer.covers(outer)
        assert not outer.covers(ASNRange(ASN(50), ASN(150)))

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            ASNRange(ASN(5), ASN(1))


class TestResourceSet:
    def test_from_strings(self):
        rs = ResourceSet.from_strings(
            prefixes=["10.0.0.0/8", "2001:db8::/32"], asns=[64500, "100-200"]
        )
        assert len(rs.prefixes) == 2
        assert rs.covers(ResourceSet.from_strings(asns=[64500, 150]))
        assert not rs.covers(ResourceSet.from_strings(asns=[64501]))

    def test_covers_prefix(self):
        rs = ResourceSet.from_strings(prefixes=["10.0.0.0/8"])
        assert rs.covers_prefix(P("10.1.0.0/16"))
        assert rs.covers_prefix(P("10.0.0.0/8"))
        assert not rs.covers_prefix(P("11.0.0.0/16"))
        assert not rs.covers_prefix(P("0.0.0.0/0"))

    def test_covers_set(self):
        holder = ResourceSet.from_strings(
            prefixes=["10.0.0.0/8"], asns=["100-200"]
        )
        inside = ResourceSet.from_strings(prefixes=["10.5.0.0/16"], asns=[150])
        outside = ResourceSet.from_strings(prefixes=["11.0.0.0/8"])
        assert holder.covers(inside)
        assert not holder.covers(outside)
        assert holder.covers(ResourceSet())  # empty set always covered

    def test_all_resources_cover_anything(self):
        universe = ResourceSet.all_resources()
        sample = ResourceSet.from_strings(
            prefixes=["203.0.113.0/24", "2001:db8::/32"], asns=[4294967294]
        )
        assert universe.covers(sample)

    def test_union_and_with(self):
        a = ResourceSet.from_strings(prefixes=["10.0.0.0/8"])
        b = ResourceSet.from_strings(asns=[64500])
        merged = a.union(b)
        assert merged.covers_prefix(P("10.0.0.0/8"))
        assert merged.covers(b)
        extended = a.with_asns([1, 2])
        assert extended.covers(ResourceSet.from_strings(asns=[2]))
        assert extended.covers_prefix(P("10.0.0.0/8"))

    def test_dedup_and_order_insensitive_equality(self):
        a = ResourceSet.from_strings(prefixes=["10.0.0.0/8", "10.0.0.0/8"])
        b = ResourceSet.from_strings(prefixes=["10.0.0.0/8"])
        assert a == b
        assert hash(a) == hash(b)

    def test_str_and_repr(self):
        rs = ResourceSet.from_strings(prefixes=["10.0.0.0/8"], asns=[5])
        assert "10.0.0.0/8" in str(rs)
        assert "1 prefixes" in repr(rs)
