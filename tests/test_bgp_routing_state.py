"""Unit tests for RoutingState and RibEntry containers."""

import pytest

from repro.bgp import ASPath, RouteClass
from repro.bgp.propagation import RibEntry, RoutingState
from repro.net import ASN, Prefix


def P(text):
    return Prefix.parse(text)


def entry(prefix, *asns):
    return RibEntry(
        prefix=P(prefix),
        path=ASPath.of(*asns),
        route_class=RouteClass.CUSTOMER_ROUTE,
        learned_from=ASN(asns[1]) if len(asns) > 1 else None,
    )


@pytest.fixture()
def state():
    return RoutingState(
        {
            P("10.0.0.0/16"): {
                ASN(1): entry("10.0.0.0/16", 1, 2, 5),
                ASN(2): entry("10.0.0.0/16", 2, 5),
            },
            P("192.0.2.0/24"): {
                ASN(1): entry("192.0.2.0/24", 1, 9),
            },
        }
    )


class TestRoutingState:
    def test_route_at(self, state):
        assert state.route_at(1, P("10.0.0.0/16")).origin == 5
        assert state.route_at(3, P("10.0.0.0/16")) is None
        assert state.route_at(1, P("8.0.0.0/8")) is None

    def test_routes_for_copies(self, state):
        routes = state.routes_for(P("10.0.0.0/16"))
        routes.clear()
        assert state.routes_for(P("10.0.0.0/16"))  # unaffected

    def test_prefixes_and_len(self, state):
        assert set(state.prefixes()) == {P("10.0.0.0/16"), P("192.0.2.0/24")}
        assert len(state) == 2

    def test_reachable_ases(self, state):
        assert set(state.routes_for(P("10.0.0.0/16"))) == {ASN(1), ASN(2)}
        assert set(state.routes_for(P("8.0.0.0/8"))) == set()

    def test_repr(self, state):
        assert "2 prefixes" in repr(state)
        assert "3 routes" in repr(state)


class TestRibEntry:
    def test_origin_property(self):
        assert entry("10.0.0.0/16", 1, 2, 5).origin == 5

    def test_origin_none_for_as_set(self):
        from repro.bgp import Segment, SegmentType

        path = ASPath(
            (
                Segment(SegmentType.AS_SEQUENCE, (ASN(1),)),
                Segment(SegmentType.AS_SET, (ASN(5), ASN(6))),
            )
        )
        rib = RibEntry(
            prefix=P("10.0.0.0/16"),
            path=path,
            route_class=RouteClass.ORIGIN,
            learned_from=None,
        )
        assert rib.origin is None

    def test_repr(self):
        assert "CUSTOMER_ROUTE" in repr(entry("10.0.0.0/16", 1, 5))
