"""DNS resource records."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from repro.net import Address
from repro.dns.errors import DNSError


class RecordType(enum.Enum):
    A = "A"
    AAAA = "AAAA"
    CNAME = "CNAME"

    def __str__(self) -> str:
        return self.value


def normalise_name(name: str) -> str:
    """Lower-case and strip the trailing dot of a domain name.

    An already-normal name comes back as the very object passed in, so
    records and zones keep one string per name rather than a copy each.
    """
    normal = name.strip().lower()
    if normal.endswith("."):
        normal = normal[:-1]
    if not normal:
        raise DNSError("empty domain name")
    return name if normal == name else normal


@dataclass(frozen=True, slots=True)
class ResourceRecord:
    """One record: address data for A/AAAA, a target name for CNAME."""

    name: str
    rtype: RecordType
    address: Optional[Address] = None
    target: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "name", normalise_name(self.name))
        if self.rtype is RecordType.CNAME:
            if self.target is None or self.address is not None:
                raise DNSError(f"CNAME record for {self.name!r} needs a target")
            object.__setattr__(self, "target", normalise_name(self.target))
        else:
            if self.address is None or self.target is not None:
                raise DNSError(
                    f"{self.rtype} record for {self.name!r} needs an address"
                )
            expected_family = 4 if self.rtype is RecordType.A else 6
            if self.address.family != expected_family:
                raise DNSError(
                    f"{self.rtype} record for {self.name!r} has an "
                    f"IPv{self.address.family} address"
                )

    @classmethod
    def a(cls, name: str, address: Union[str, Address]) -> "ResourceRecord":
        if isinstance(address, str):
            address = Address.parse(address)
        rtype = RecordType.A if address.family == 4 else RecordType.AAAA
        return cls(name=name, rtype=rtype, address=address)

    @classmethod
    def cname(cls, name: str, target: str) -> "ResourceRecord":
        return cls(name=name, rtype=RecordType.CNAME, target=target)

    def __str__(self) -> str:
        value = self.target if self.rtype is RecordType.CNAME else str(self.address)
        return f"{self.name} {self.rtype} {value}"
