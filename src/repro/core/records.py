"""Per-domain measurement records.

A :class:`NameMeasurement` is the outcome of steps 2–4 for one domain
name form; a :class:`DomainMeasurement` pairs the ``www`` and
w/o-``www`` forms and derives the quantities the figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Set, Tuple

from repro.net import ASN, Address, Prefix
from repro.rpki.vrp import OriginValidation
from repro.web.alexa import Domain


@dataclass(frozen=True, order=True)
class PrefixOriginPair:
    """One (covering prefix, origin AS) pair with its RPKI state."""

    prefix: Prefix
    origin: ASN
    state: OriginValidation

    @property
    def covered(self) -> bool:
        """True when the RPKI says anything about this pair."""
        return self.state is not OriginValidation.NOT_FOUND

    def __str__(self) -> str:
        return f"{self.prefix} via {self.origin}: {self.state}"


@dataclass(slots=True)
class NameMeasurement:
    """Steps 2-4 for one name form."""

    name: str
    resolved: bool = False
    addresses: List[Address] = field(default_factory=list)
    excluded_special: int = 0       # discarded special-purpose answers
    unreachable_addresses: int = 0  # no covering prefix at the collectors
    as_set_excluded: int = 0        # table rows skipped due to AS_SET origin
    cname_count: int = 0            # CNAME indirections observed
    pairs: List[PrefixOriginPair] = field(default_factory=list)
    # Resilience outcome (set only by fault-injected runs): the stage
    # that exhausted its retries ("" = none), retries spent across
    # stages, and the injected faults observed, as sorted
    # (kind, count) pairs — primitives so the wire codec ships them.
    degraded_stage: str = ""
    retries: int = 0
    faults: Tuple[Tuple[str, int], ...] = ()

    # -- derived quantities -------------------------------------------------

    @property
    def usable(self) -> bool:
        """Resolved to at least one routable, reachable address."""
        return self.resolved and bool(self.pairs)

    @property
    def degraded(self) -> bool:
        """A stage gave up after exhausting its retry budget."""
        return bool(self.degraded_stage)

    def prefixes(self) -> Set[Prefix]:
        return {pair.prefix for pair in self.pairs}

    def state_fractions(self) -> Tuple[float, float, float]:
        """(valid, invalid, not_found) fractions over the pairs."""
        if not self.pairs:
            return 0.0, 0.0, 0.0
        total = len(self.pairs)
        valid = sum(1 for p in self.pairs if p.state is OriginValidation.VALID)
        invalid = sum(
            1 for p in self.pairs if p.state is OriginValidation.INVALID
        )
        return valid / total, invalid / total, (total - valid - invalid) / total

    def coverage(self) -> float:
        """Fraction of pairs covered by the RPKI (paper: "3/5")."""
        if not self.pairs:
            return 0.0
        return sum(1 for p in self.pairs if p.covered) / len(self.pairs)

    def covered_count(self) -> int:
        return sum(1 for p in self.pairs if p.covered)

    @property
    def rpki_enabled(self) -> bool:
        """At least one associated prefix is part of the RPKI."""
        return any(p.covered for p in self.pairs)

    @property
    def fully_covered(self) -> bool:
        return bool(self.pairs) and all(p.covered for p in self.pairs)

    def coverage_label(self) -> str:
        """Table 1 style cell, e.g. "(3/3)" full or "(1/3)" partial."""
        if not self.usable:
            return "n/a"
        return f"({self.covered_count()}/{len(self.pairs)})"

    def __repr__(self) -> str:
        return (
            f"<NameMeasurement {self.name} {len(self.addresses)} addrs, "
            f"{len(self.pairs)} pairs>"
        )


@dataclass(slots=True)
class DomainMeasurement:
    """The full measurement of one ranked domain."""

    domain: Domain
    www: NameMeasurement
    plain: NameMeasurement

    @property
    def rank(self) -> int:
        return self.domain.rank

    @property
    def usable(self) -> bool:
        return self.www.usable or self.plain.usable

    @property
    def degraded(self) -> bool:
        """Either name form exhausted a retry budget."""
        return self.www.degraded or self.plain.degraded

    def is_cdn(self, min_cnames: int = 2) -> bool:
        """The paper's chain heuristic: served via >= 2 CNAMEs."""
        return (
            self.www.cname_count >= min_cnames
            or self.plain.cname_count >= min_cnames
        )

    def prefix_overlap(self) -> Optional[float]:
        """Share of prefixes equal between the two name forms (Fig. 1).

        Jaccard similarity of the covering-prefix sets; None when
        either form is unusable (excluded from the figure).
        """
        if not (self.www.usable and self.plain.usable):
            return None
        www_prefixes = self.www.prefixes()
        plain_prefixes = self.plain.prefixes()
        union = www_prefixes | plain_prefixes
        if not union:
            return None
        return len(www_prefixes & plain_prefixes) / len(union)

    def combined_pairs(self) -> List[PrefixOriginPair]:
        """Distinct pairs across both name forms."""
        return sorted(set(self.www.pairs) | set(self.plain.pairs))

    def state_fractions(self) -> Tuple[float, float, float]:
        """Per-domain (valid, invalid, not_found) over combined pairs."""
        pairs = self.combined_pairs()
        if not pairs:
            return 0.0, 0.0, 0.0
        total = len(pairs)
        valid = sum(1 for p in pairs if p.state is OriginValidation.VALID)
        invalid = sum(1 for p in pairs if p.state is OriginValidation.INVALID)
        return valid / total, invalid / total, (total - valid - invalid) / total

    @property
    def rpki_enabled(self) -> bool:
        return self.www.rpki_enabled or self.plain.rpki_enabled

    def __repr__(self) -> str:
        return f"<DomainMeasurement #{self.rank} {self.domain.name}>"
