"""Recursive resolution with CNAME-chain following.

The resolver walks CNAME chains (bounded, loop-detected), collects the
terminal A/AAAA records, and reports the chain itself — the paper's
CDN heuristic classifies a domain as CDN-served when its address "is
indirectly accessed via two or more CNAMEs".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.dns.errors import ResolutionError
from repro.dns.namespace import GLOBAL_VANTAGE, Namespace
from repro.dns.records import RecordType, ResourceRecord, normalise_name
from repro.net import Address
from repro.obs.runtime import metrics

MAX_CHAIN_LENGTH = 16


class RCode(enum.Enum):
    NOERROR = "NOERROR"
    NXDOMAIN = "NXDOMAIN"
    SERVFAIL = "SERVFAIL"

    def __str__(self) -> str:
        return self.value


@dataclass
class Answer:
    """The outcome of one resolution."""

    name: str
    rcode: RCode
    addresses: List[Address] = field(default_factory=list)
    cname_chain: List[str] = field(default_factory=list)  # targets, in order
    records: List[ResourceRecord] = field(default_factory=list)

    @property
    def cname_count(self) -> int:
        """Number of CNAME indirections traversed."""
        return len(self.cname_chain)

    @property
    def final_name(self) -> str:
        """The name the terminal address records live at."""
        return self.cname_chain[-1] if self.cname_chain else self.name

    def ok(self) -> bool:
        return self.rcode is RCode.NOERROR and bool(self.addresses)

    def __repr__(self) -> str:
        return (
            f"<Answer {self.name} {self.rcode} {len(self.addresses)} addrs "
            f"via {self.cname_count} CNAMEs>"
        )


class RecursiveResolver:
    """Resolves names against a :class:`Namespace` from one vantage."""

    def __init__(self, namespace: Namespace, vantage: str = GLOBAL_VANTAGE):
        self._namespace = namespace
        self.vantage = vantage

    @property
    def namespace(self) -> Namespace:
        """The record namespace this resolver answers from."""
        return self._namespace

    def resolve(
        self,
        name: str,
        rtypes: Sequence[RecordType] = (RecordType.A, RecordType.AAAA),
    ) -> Answer:
        """Resolve ``name``, following CNAMEs, for the given types."""
        name = normalise_name(name)
        answer = Answer(name=name, rcode=RCode.NOERROR)
        current = name
        seen = {current}
        for _hop in range(MAX_CHAIN_LENGTH + 1):
            cnames = self._namespace.lookup(current, RecordType.CNAME, self.vantage)
            if cnames:
                target = cnames[0].target
                answer.records.append(cnames[0])
                if target in seen:
                    raise ResolutionError(
                        f"CNAME loop at {target!r} while resolving {name!r}"
                    )
                seen.add(target)
                answer.cname_chain.append(target)
                current = target
                continue
            for rtype in rtypes:
                for record in self._namespace.lookup(current, rtype, self.vantage):
                    answer.records.append(record)
                    answer.addresses.append(record.address)
            break
        else:
            raise ResolutionError(
                f"CNAME chain longer than {MAX_CHAIN_LENGTH} for {name!r}"
            )
        if not answer.addresses:
            # The rcode belongs to the *final* name of the chain: a
            # CNAME owner always exists, but a chain ending at a name
            # with no records is NXDOMAIN (a dangling CNAME), exactly
            # as a real recursive resolver reports it.
            known = self._namespace.exists(answer.final_name)
            answer.rcode = RCode.NOERROR if known else RCode.NXDOMAIN
        counters = metrics()
        if counters.enabled:
            counters.histogram(
                "ripki_dns_cname_hops",
                "CNAME indirections per resolution (CDN heuristic input)",
                buckets=(0, 1, 2, 3, 4, 8, 16),
            ).observe(answer.cname_count)
        return answer

