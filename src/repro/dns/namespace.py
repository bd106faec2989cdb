"""The global record namespace.

Records may be *global* (same answer everywhere) or pinned to a
*vantage* label.  A CDN that serves European resolvers from a
different cache than Californian ones registers two vantage-specific
record sets under the same name; lookups fall back to the global set
when no vantage-specific records exist.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.dns.records import RecordType, ResourceRecord, normalise_name
from repro.net import Address

GLOBAL_VANTAGE = ""


class Namespace:
    """All registered DNS records, indexed by (name, rtype, vantage)."""

    def __init__(self):
        self._records: Dict[Tuple[str, RecordType, str], List[ResourceRecord]] = {}
        self._names: set = set()

    def add(self, record: ResourceRecord, vantage: str = GLOBAL_VANTAGE) -> None:
        key = (record.name, record.rtype, vantage)
        self._records.setdefault(key, []).append(record)
        self._names.add(record.name)

    def add_address(
        self,
        name: str,
        address: Union[str, Address],
        vantage: str = GLOBAL_VANTAGE,
    ) -> None:
        self.add(ResourceRecord.a(name, address), vantage)

    def add_cname(
        self, name: str, target: str, vantage: str = GLOBAL_VANTAGE
    ) -> None:
        self.add(ResourceRecord.cname(name, target), vantage)

    def lookup(
        self, name: str, rtype: RecordType, vantage: str = GLOBAL_VANTAGE
    ) -> List[ResourceRecord]:
        """Vantage-specific records when present, else global ones."""
        name = normalise_name(name)
        if vantage != GLOBAL_VANTAGE:
            specific = self._records.get((name, rtype, vantage))
            if specific:
                return list(specific)
        return list(self._records.get((name, rtype, GLOBAL_VANTAGE), ()))

    def remove_name(self, name: str) -> int:
        """Drop every record (all types, all vantages) at ``name``.

        Returns the number of records removed.  Used by the hosting
        churn model when a domain moves infrastructure.
        """
        name = normalise_name(name)
        doomed = [key for key in self._records if key[0] == name]
        removed = 0
        for key in doomed:
            removed += len(self._records.pop(key))
        self._names.discard(name)
        return removed

    def exists(self, name: str) -> bool:
        """True when any record type at any vantage mentions the name."""
        return normalise_name(name) in self._names

    def names(self) -> Iterator[str]:
        return iter(self._names)

    def content_items(self) -> List[Tuple[str, str, str, str]]:
        """Every record as a sorted ``(name, rtype, vantage, data)`` row.

        A canonical, order-insensitive view of the zone: two namespaces
        holding the same records yield the same list regardless of
        registration order, so the snapshot cache can digest it as the
        zone identity.
        """
        items: List[Tuple[str, str, str, str]] = []
        for (name, rtype, vantage), records in self._records.items():
            for record in records:
                data = (
                    record.target
                    if rtype is RecordType.CNAME
                    else str(record.address)
                )
                items.append((name, rtype.value, vantage, data))
        items.sort()
        return items

    def __len__(self) -> int:
        """Total number of registered records."""
        return sum(len(records) for records in self._records.values())

    def __repr__(self) -> str:
        return f"<Namespace {len(self._names)} names, {len(self)} records>"
