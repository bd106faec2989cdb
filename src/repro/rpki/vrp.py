"""Validated ROA Payloads and RFC 6811 prefix origin validation.

The relying party distils the validated ROA set into VRPs — triples
of (prefix, maxLength, origin AS).  :class:`ValidatedPayloads` indexes
them by prefix and implements the origin-validation algorithm a BGP
router runs on each received route:

* **NOT_FOUND** — no VRP covers the announced prefix,
* **VALID** — some covering VRP matches the origin AS and the
  announced prefix is no longer than its maxLength,
* **INVALID** — covering VRPs exist but none matches.

The algorithm is written once, in :meth:`ValidatedPayloads.annotate`,
which also says *which* clause an invalid tripped over (the 0-5 codes
tabulated in :mod:`repro.rov.annotation`); the three states above are
a projection of that code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.net import ASN, Prefix, PrefixTrie
from repro.rpki.errors import ValidationStateError


class OriginValidation(enum.Enum):
    """RFC 6811 route validation states (an unknown one: a typed error)."""

    VALID = "valid"
    INVALID = "invalid"
    NOT_FOUND = "not_found"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def _missing_(cls, value):
        raise ValidationStateError(f"unknown validation state: {value!r}")


ANNOTATION_VALID = 0
ANNOTATION_UNKNOWN = 1
ANNOTATION_INVALID_AS_SET = 2
ANNOTATION_INVALID_ASN = 3
ANNOTATION_INVALID_LENGTH = 4
ANNOTATION_INVALID_BOTH = 5

# Every code from 2 up is a flavour of INVALID.
_STATE_OF = (
    OriginValidation.VALID,
    OriginValidation.NOT_FOUND,
) + (OriginValidation.INVALID,) * 4


@dataclass(frozen=True, order=True)
class VRP:
    """One Validated ROA Payload."""

    prefix: Prefix
    max_length: int
    asn: ASN
    trust_anchor: str = ""

    def __post_init__(self):
        if not self.prefix.length <= self.max_length <= self.prefix.bits:
            raise ValueError(
                f"maxLength {self.max_length} invalid for {self.prefix}"
            )

    def covers(self, announced: Prefix) -> bool:
        """True when this VRP's prefix covers the announcement."""
        return self.prefix.covers(announced)

    def __str__(self) -> str:
        return f"{self.prefix}-{self.max_length} => {self.asn}"


class ValidatedPayloads:
    """An indexed set of VRPs supporting origin validation."""

    def __init__(self, vrps: Iterable[VRP] = ()):
        self._trie: PrefixTrie = PrefixTrie()
        self._vrps: List[VRP] = []
        for vrp in vrps:
            self.add(vrp)

    def add(self, vrp: VRP) -> None:
        self._trie.insert(vrp.prefix, vrp)
        self._vrps.append(vrp)

    def covering_vrps(self, announced: Prefix) -> List[VRP]:
        """Every VRP whose prefix covers the announced prefix."""
        return [vrp for _prefix, vrp in self._trie.covering(announced)]

    def annotate(
        self, announced: Prefix, origin: Optional[Union[int, ASN]]
    ) -> Tuple[int, List[VRP]]:
        """The RFC 6811 walk: 0-5 annotation plus the covering VRPs.

        ``origin`` is None for AS_SET originations: the origin cannot
        be verified, so a covered announcement is invalid (code 2).
        One index probe serves both halves of the result; the serving
        layer's ``validate`` query returns the evidence (covering
        ROAs, shortest prefix first) alongside the verdict, the way
        an RTR-attached router operator would audit an INVALID.
        """
        covering = self.covering_vrps(announced)
        if not covering:
            return ANNOTATION_UNKNOWN, covering
        if origin is None:
            return ANNOTATION_INVALID_AS_SET, covering
        origin = int(origin)
        asn_matches = False
        length_fits = False
        for vrp in covering:
            asn_ok = int(vrp.asn) == origin
            length_ok = announced.length <= vrp.max_length
            if asn_ok and length_ok:
                return ANNOTATION_VALID, covering
            asn_matches = asn_matches or asn_ok
            length_fits = length_fits or length_ok
        if asn_matches:
            return ANNOTATION_INVALID_LENGTH, covering
        if length_fits:
            return ANNOTATION_INVALID_ASN, covering
        return ANNOTATION_INVALID_BOTH, covering

    def validate_origin(
        self, announced: Prefix, origin: Optional[Union[int, ASN]]
    ) -> OriginValidation:
        """RFC 6811 origin validation of one announcement."""
        return _STATE_OF[self.annotate(announced, origin)[0]]

    def validate_with_covering(
        self, announced: Prefix, origin: Optional[Union[int, ASN]]
    ) -> Tuple[OriginValidation, List[VRP]]:
        """Verdict plus the covering VRPs it was judged against."""
        code, covering = self.annotate(announced, origin)
        return _STATE_OF[code], covering

    def asns(self) -> set:
        """Distinct origin ASes appearing in the VRP set."""
        return {vrp.asn for vrp in self._vrps}

    def __iter__(self) -> Iterator[VRP]:
        return iter(self._vrps)

    def __len__(self) -> int:
        return len(self._vrps)

    def __contains__(self, vrp: VRP) -> bool:
        return vrp in self._vrps

    def __repr__(self) -> str:
        return f"<ValidatedPayloads {len(self._vrps)} VRPs>"
