"""Step 2 — mapping domain names to IP addresses.

Resolves both name forms through a public resolver, follows CNAME
chains, and discards answers pointing at IANA special-purpose
addresses, exactly as Section 3 prescribes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.dns import PublicResolver
from repro.dns.errors import DNSError, ResolutionError
from repro.net import Address, is_special_purpose
from repro.obs.runtime import metrics, tracer
from repro.core.records import NameMeasurement


def measure_name(resolver: PublicResolver, name: str) -> NameMeasurement:
    """Resolve one name and pre-fill the DNS part of its measurement."""
    counters = metrics()
    measurement = NameMeasurement(name=name)
    with tracer().span("stage.dns", name=name):
        counters.counter(
            "ripki_dns_resolutions_total", "Names pushed through step 2"
        ).inc()
        try:
            answer = resolver.resolve(name)
        except (DNSError, ResolutionError):
            counters.counter(
                "ripki_dns_resolution_errors_total",
                "Step-2 resolutions ending in a DNS error",
            ).inc()
            return measurement
        measurement.cname_count = answer.cname_count
        if not answer.addresses:
            return measurement
        measurement.resolved = True
        for address in answer.addresses:
            if is_special_purpose(address):
                measurement.excluded_special += 1
            else:
                measurement.addresses.append(address)
        if measurement.excluded_special:
            counters.counter(
                "ripki_dns_special_excluded_total",
                "Answers discarded as IANA special-purpose",
            ).inc(measurement.excluded_special)
    return measurement


def cross_check(
    resolvers: List[PublicResolver], name: str
) -> Tuple[bool, List[NameMeasurement]]:
    """Resolve through several resolvers and compare the address sets.

    The paper verifies Google DNS answers against Open DNS and the
    DNS Looking Glass; CDN steering may legitimately differ, so the
    check reports agreement rather than enforcing it.
    """
    measurements = [measure_name(resolver, name) for resolver in resolvers]
    address_sets = [frozenset(m.addresses) for m in measurements if m.resolved]
    agree = len(set(address_sets)) <= 1
    return agree, measurements
