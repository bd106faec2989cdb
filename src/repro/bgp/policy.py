"""Routing policy: business relationships and Gao–Rexford rules.

Route preference follows the classic model:

1. prefer routes learned from customers over peers over providers
   (local preference),
2. then shorter AS paths,
3. then the lowest next-hop AS number (deterministic tie-break).

Export follows the valley-free rule: routes learned from customers are
exported to everyone; routes learned from peers or providers are
exported to customers only.
"""

from __future__ import annotations

import enum


class Relationship(enum.Enum):
    """The relationship of a neighbor from the perspective of an AS."""

    CUSTOMER = "customer"  # neighbor pays us
    PEER = "peer"          # settlement-free
    PROVIDER = "provider"  # we pay the neighbor


class RouteClass(enum.IntEnum):
    """Preference classes, higher is better (local-pref analogue)."""

    PROVIDER_ROUTE = 0
    PEER_ROUTE = 1
    CUSTOMER_ROUTE = 2
    ORIGIN = 3

    @classmethod
    def from_relationship(cls, relationship: Relationship) -> "RouteClass":
        """Class of a route learned from a neighbor of this kind."""
        if relationship is Relationship.CUSTOMER:
            return cls.CUSTOMER_ROUTE
        if relationship is Relationship.PEER:
            return cls.PEER_ROUTE
        return cls.PROVIDER_ROUTE


def may_export(route_class: RouteClass, to: Relationship) -> bool:
    """Valley-free export rule.

    Own originations and customer routes go to everyone; peer and
    provider routes only go to customers (no transit for free).
    """
    if route_class in (RouteClass.ORIGIN, RouteClass.CUSTOMER_ROUTE):
        return True
    return to is Relationship.CUSTOMER
