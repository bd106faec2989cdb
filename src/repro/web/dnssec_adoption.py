"""DNSSEC adoption model for the synthetic web (extension experiment).

The paper's conclusion plans to "compare RPKI deployment with the
adoption of other core protocols such as DNSSEC".  This module models
2015-era DNSSEC reality: virtually all registries (TLD zones) are
signed, but only a small share of second-level domains signs — with
strong per-TLD differences (.nl/.se/.cz registrars incentivised
signing; .com barely moved).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.crypto import DeterministicRNG
from repro.dns import Namespace, RecordType
from repro.dns.dnssec import SecurityStatus, ValidatingResolver, ZoneTree
from repro.web.alexa import AlexaRanking, Domain


@dataclass
class DnssecConfig:
    """Adoption knobs (defaults approximate 2015 measurements)."""

    base_adoption: float = 0.015
    # Multipliers for registries that pushed DNSSEC hard.
    tld_boost: Dict[str, float] = field(
        default_factory=lambda: {
            "nl": 12.0, "se": 15.0, "cz": 14.0, "br": 4.0, "fr": 3.0,
            "gov": 20.0, "edu": 4.0,
        }
    )
    unsigned_tlds: Tuple[str, ...] = ()   # registries without DNSSEC

    def adoption_for(self, tld: str) -> float:
        return min(0.9, self.base_adoption * self.tld_boost.get(tld, 1.0))


@dataclass
class DnssecDeployment:
    """The built DNSSEC world."""

    tree: ZoneTree
    resolver: ValidatingResolver
    signed_domains: Dict[str, bool] = field(default_factory=dict)

    def status_for(self, fqdn: str, records: List[str]) -> SecurityStatus:
        return self.resolver.validate(fqdn, records)


class DnssecAdoptionModel:
    """Builds the zone tree and signs adopting domains' record sets."""

    def __init__(self, config: DnssecConfig, rng: DeterministicRNG):
        self._config = config
        self._rng = rng.fork("dnssec-adoption")

    def build(
        self, ranking: AlexaRanking, namespace: Namespace
    ) -> DnssecDeployment:
        tree = ZoneTree(self._rng)  # zone.DNSSEC_KEY_BITS moduli
        deployment = DnssecDeployment(
            tree=tree, resolver=ValidatingResolver(tree)
        )
        for domain in ranking:
            tld = self._tld_of(domain.name)
            self._ensure_suffix_zones(tree, tld)
            signs = (
                self._rng.fork(f"sign:{domain.name}").random()
                < self._config.adoption_for(tld.split(".")[-1])
            )
            zone = tree.add_zone(domain.name, signed=signs)
            deployment.signed_domains[domain.name] = signs
            if signs:
                self._sign_domain_records(zone, domain, namespace)
        return deployment

    # -- internals -------------------------------------------------------

    @staticmethod
    def _tld_of(name: str) -> str:
        _label, _dot, suffix = name.partition(".")
        return suffix

    def _ensure_suffix_zones(self, tree: ZoneTree, suffix: str) -> None:
        """Create registry zones (e.g. "uk", then "co.uk") on demand."""
        parts = suffix.split(".")
        for index in range(len(parts) - 1, -1, -1):
            zone_name = ".".join(parts[index:])
            if tree.zone(zone_name) is None:
                registry = zone_name.split(".")[-1]
                signed = registry not in self._config.unsigned_tlds
                tree.add_zone(zone_name, signed=signed)

    def _sign_domain_records(
        self, zone, domain: Domain, namespace: Namespace
    ) -> None:
        """Sign the apex and www record sets as served by the namespace."""
        for name in (domain.name, domain.www_name):
            records = self._rrset_text(namespace, name)
            if records:
                zone.sign_rrset(name, records)

    @staticmethod
    def _rrset_text(namespace: Namespace, name: str) -> List[str]:
        texts: List[str] = []
        for rtype in (RecordType.A, RecordType.AAAA, RecordType.CNAME):
            for record in namespace.lookup(name, rtype):
                texts.append(str(record))
        return texts


def rrset_for_validation(namespace: Namespace, name: str) -> List[str]:
    """The record-set text form a validator checks for ``name``."""
    return DnssecAdoptionModel._rrset_text(namespace, name)
