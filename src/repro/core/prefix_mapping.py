"""Step 3 — mapping IP addresses to prefixes and origin ASes.

For each address, every covering prefix in the collector table dump
contributes a (prefix, origin AS) pair, where the origin is the
right-most ASN of the AS path.  Rows whose origin position is an
AS_SET are excluded (the attribute is ambiguous and deprecated,
RFC 6472); addresses without any covering prefix count as
unreachable from the BGP vantage point.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.bgp import TableDump
from repro.net import ASN, Address, Prefix
from repro.obs.runtime import metrics, tracer
from repro.core.records import NameMeasurement


def map_single_address(
    dump: TableDump, address: Address
) -> Tuple[List[Tuple[Prefix, ASN]], int, int]:
    """Step 3 for one address: ``(pairs, unreachable, as_set_excluded)``.

    Ticks the stage counter for exactly this address's share of the
    work, so the funnel's per-address memo can capture one address's
    metric delta and account it once per hit.  The unreachable and
    AS_SET counts come back in the tuple; their families are written
    from the run's statistics.
    """
    metrics().counter(
        "ripki_prefix_lookups_total", "Addresses pushed through step 3"
    ).inc()
    entries = dump.covering_entries(address)
    if not entries:
        return [], 1, 0
    pairs: Set[Tuple[Prefix, ASN]] = set()
    as_set_excluded = 0
    for entry in entries:
        origin = entry.origin
        if origin is None:
            as_set_excluded += 1
            continue
        pairs.add((entry.prefix, origin))
    return sorted(pairs), 0, as_set_excluded


def map_addresses(
    dump: TableDump, measurement: NameMeasurement
) -> List[Tuple[Prefix, ASN]]:
    """Derive the distinct (prefix, origin) pairs for a measurement.

    Side effects on ``measurement``: counts unreachable addresses and
    AS_SET-excluded rows.
    """
    pairs: Set[Tuple[Prefix, ASN]] = set()
    with tracer().span("stage.prefix", name=measurement.name):
        for address in measurement.addresses:
            mapped, unreachable, as_set_excluded = map_single_address(
                dump, address
            )
            pairs.update(mapped)
            measurement.unreachable_addresses += unreachable
            measurement.as_set_excluded += as_set_excluded
    return sorted(pairs)
