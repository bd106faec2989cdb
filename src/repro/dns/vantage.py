"""Public resolver vantage points.

The paper resolves the Alexa list via Google DNS, verifies with Open
DNS and the ``us01`` node of the DNS Looking Glass, and cross-checks
the CDN classification against HTTPArchive's monitoring agent in
Redwood City.  :class:`PublicResolver` models one such service: a
named resolver bound to a geographic vantage label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.dns.namespace import Namespace
from repro.dns.resolver import Answer, RecursiveResolver


@dataclass(frozen=True)
class ResolverSpec:
    """Identity of a public resolver service."""

    name: str
    vantage: str


# The paper's three verification vantage points plus HTTPArchive's.
GOOGLE_DNS = ResolverSpec("GoogleDNS", "berlin")
OPEN_DNS = ResolverSpec("OpenDNS", "berlin")
LOOKING_GLASS_US01 = ResolverSpec("DNSLookingGlass-us01", "us-east")
HTTPARCHIVE_AGENT = ResolverSpec("HTTPArchive", "redwood-city")

DEFAULT_RESOLVERS = (GOOGLE_DNS, OPEN_DNS, LOOKING_GLASS_US01)


class PublicResolver:
    """A named public resolver over the shared namespace."""

    def __init__(self, namespace: Namespace, spec: ResolverSpec):
        self.spec = spec
        self._resolver = RecursiveResolver(namespace, vantage=spec.vantage)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def vantage(self) -> str:
        return self.spec.vantage

    @property
    def namespace(self) -> Namespace:
        """The record namespace the resolver answers from."""
        return self._resolver.namespace

    def resolve(self, name: str) -> Answer:
        return self._resolver.resolve(name)

    def __repr__(self) -> str:
        return f"<PublicResolver {self.name} @ {self.vantage}>"


def make_resolvers(
    namespace: Namespace, specs: Sequence[ResolverSpec] = DEFAULT_RESOLVERS
) -> List[PublicResolver]:
    """Instantiate the default verification resolver set."""
    return [PublicResolver(namespace, spec) for spec in specs]
