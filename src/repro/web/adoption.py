"""Stakeholder RPKI-adoption model.

Encodes the behaviour the paper observes:

* webhosters, eyeball ISPs, and transit providers have started
  deploying RPKI (>5% of prefixes),
* CDNs create essentially no ROAs — the single exception is Internap
  with four prefixes tied to three origin ASes,
* a small share of ROAs is misconfigured (wrong origin AS or too
  strict maxLength), producing the ~0.09% *invalid* announcements
  spread evenly over the ranking.

Given the organisation list, the model builds the five RIR trust
anchors, delegates each signing organisation a CA, issues its ROAs,
publishes everything, and runs the relying party.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.crypto import DeterministicRNG
from repro.net import ASN, Prefix
from repro.obs.runtime import tracer
from repro.rpki import (
    CertificateAuthority,
    RelyingParty,
    Repository,
    ResourceSet,
    TrustAnchorLocator,
    ValidatedPayloads,
    ValidationReport,
)
from repro.rpki.repository import publish_ca_products
from repro.rpki.roa import ROA, issue_roa
from repro.web.cdn import catalogue_by_name
from repro.web.organisations import Organisation, OrgKind


@dataclass
class AdoptionConfig:
    """Knobs of the adoption model (defaults match the paper)."""

    hoster_adoption: float = 0.08
    eyeball_adoption: float = 0.08
    transit_adoption: float = 0.10
    tier1_adoption: float = 0.3          # DTAG, ATT et al. signed early
    signed_prefix_fraction: float = 0.55  # partial coverage within an org
    misconfig_fraction: float = 0.015    # share of ROAs that are wrong
    # Generous maxLength (/24 v4, /48 v6) keeps announced
    # more-specifics valid; strict mode pins maxLength to the prefix
    # length, the known footgun that floods the table with invalids.
    generous_max_length: bool = True
    # Section 5.2: some signing orgs pre-authorize a partner AS (DoS
    # mitigation, secret CDN backup) that never actually announces —
    # exactly the business relation the RPKI then exposes.
    backup_authorization_fraction: float = 0.15
    validation_time: float = 30.0

    def adoption_for(self, kind: OrgKind) -> float:
        return {
            OrgKind.HOSTER: self.hoster_adoption,
            OrgKind.EYEBALL: self.eyeball_adoption,
            OrgKind.TRANSIT: self.transit_adoption,
            OrgKind.TIER1: self.tier1_adoption,
            OrgKind.CDN: 0.0,  # catalogue-driven, see _cdn_roas
        }[kind]


@dataclass
class AdoptionOutcome:
    """Everything the adoption model produced."""

    repository: Repository
    tals: List[TrustAnchorLocator]
    payloads: ValidatedPayloads
    report: ValidationReport
    signing_orgs: Set[str] = field(default_factory=set)
    signed_prefixes: Dict[Prefix, ASN] = field(default_factory=dict)
    misconfigured_prefixes: Set[Prefix] = field(default_factory=set)
    # Prefix -> partner AS pre-authorized but never announcing (§5.2).
    backup_authorizations: Dict[Prefix, ASN] = field(default_factory=dict)
    # Live CA objects, retained so the world engine (repro.world) can
    # keep re-signing manifests, rolling keys, and churning ROAs over
    # the same hierarchy the adoption model built.
    anchors: Dict[str, CertificateAuthority] = field(default_factory=dict)
    authorities: Dict[str, CertificateAuthority] = field(default_factory=dict)


class AdoptionModel:
    """Builds the RPKI for a population of organisations."""

    def __init__(self, config: AdoptionConfig, rng: DeterministicRNG):
        self._config = config
        self._rng = rng.fork("adoption")
        self._roa_counter = 0

    def build(self, organisations: List[Organisation]) -> AdoptionOutcome:
        config = self._config
        anchors: Dict[str, CertificateAuthority] = {}
        repository = Repository()
        tals: List[TrustAnchorLocator] = []
        rir_names = sorted({org.rir for org in organisations})
        for rir in rir_names:
            # rsa.DEFAULT_KEY_BITS moduli, inherited by every child CA.
            anchor = CertificateAuthority.create_trust_anchor(
                rir, self._rng.fork(f"rir:{rir}")
            )
            anchors[rir] = anchor
            repository.add_trust_anchor(anchor.certificate)
            tals.append(TrustAnchorLocator.for_authority(anchor))

        outcome = AdoptionOutcome(
            repository=repository,
            tals=tals,
            payloads=ValidatedPayloads(),
            report=ValidationReport(),
            anchors=anchors,
        )

        # Partner pool for backup authorizations: transit providers
        # (think external DoS-mitigation services).
        partner_asns = [
            asn
            for org in organisations
            if org.kind is OrgKind.TRANSIT
            for asn in org.asns
        ]

        # Decide which organisations sign and issue their ROAs.
        pending: List[Tuple[CertificateAuthority, List[ROA]]] = []
        for org in organisations:
            roas = self._org_roas(org, anchors, outcome, partner_asns)
            if roas is not None:
                pending.append(roas)

        for ca, roas in pending:
            publish_ca_products(
                outcome.repository, ca, roas, now=config.validation_time
            )
        for rir, anchor in anchors.items():
            publish_ca_products(
                outcome.repository, anchor, [], now=config.validation_time
            )

        relying_party = RelyingParty(outcome.repository)
        with tracer().span("rpki.validator.validate"):
            outcome.payloads, outcome.report = relying_party.validate(
                tals, now=config.validation_time
            )
        return outcome

    # -- per-organisation issuance ----------------------------------------

    def _org_roas(
        self,
        org: Organisation,
        anchors: Dict[str, CertificateAuthority],
        outcome: AdoptionOutcome,
        partner_asns: List[ASN] = (),
    ) -> Optional[Tuple[CertificateAuthority, List[ROA]]]:
        config = self._config
        org_rng = self._rng.fork(f"org:{org.name}")

        if org.kind is OrgKind.CDN:
            selection = self._cdn_signed_prefixes(org, org_rng)
        else:
            if org_rng.random() >= config.adoption_for(org.kind):
                return None
            prefixes = org.prefix_list()
            signed_count = max(
                1, round(len(prefixes) * config.signed_prefix_fraction)
            )
            selection = org_rng.sample(prefixes, min(signed_count, len(prefixes)))
        if not selection:
            return None

        outcome.signing_orgs.add(org.name)
        anchor = anchors[org.rir]
        ca = anchor.issue_child_ca(
            org.name,
            ResourceSet(prefixes=org.prefixes.keys()).with_asns(org.asns),
        )
        outcome.authorities[org.name] = ca
        misconfig_every = (
            round(1 / config.misconfig_fraction)
            if config.misconfig_fraction > 0
            else 0
        )
        roas: List[ROA] = []
        for prefix in selection:
            true_origin = org.prefixes[prefix]
            origin = true_origin
            if config.generous_max_length:
                # Operators set maxLength so their announced
                # more-specifics stay valid (/24 for IPv4, /48 for IPv6).
                max_length = max(prefix.length, 24 if prefix.family == 4 else 48)
            else:
                max_length = prefix.length
            # CDN ROAs are exempt from the misconfiguration cadence:
            # Section 4.2 pins their exact contents.
            if org.kind is not OrgKind.CDN:
                self._roa_counter += 1
            # Offset the cadence so even small populations (fewer than
            # 1/f signed prefixes) see one misconfiguration.
            if (
                org.kind is not OrgKind.CDN
                and misconfig_every
                and self._roa_counter % misconfig_every == misconfig_every // 3
            ):
                # Misconfiguration: authorize the wrong origin AS
                # (deterministic cadence so the invalid rate holds at
                # every population scale).
                origin = ASN(int(true_origin) + 1)
                outcome.misconfigured_prefixes.add(prefix)
            roas.append(issue_roa(ca, origin, [(prefix, max_length)]))
            outcome.signed_prefixes[prefix] = origin

        if (
            org.kind is not OrgKind.CDN
            and partner_asns
            and org_rng.random() < config.backup_authorization_fraction
        ):
            # Pre-authorize a partner AS on the first signed prefix —
            # the relation the RPKI "documents in advance" (§5.2).
            prefix = selection[0]
            partner = org_rng.choice(
                [asn for asn in partner_asns if asn not in org.asns]
            )
            roas.append(issue_roa(ca, partner, [(prefix, prefix.length)]))
            outcome.backup_authorizations[prefix] = partner
        return ca, roas

    def _cdn_signed_prefixes(
        self, org: Organisation, org_rng: DeterministicRNG
    ) -> List[Prefix]:
        """CDNs sign nothing — except the catalogue says otherwise.

        Internap's four prefixes must come from exactly three distinct
        origin ASes (Section 4.2).
        """
        operator = catalogue_by_name().get(org.name)
        if operator is None or operator.signed_prefixes == 0:
            return []
        by_origin: Dict[ASN, List[Prefix]] = {}
        for prefix, origin in org.prefixes.items():
            by_origin.setdefault(origin, []).append(prefix)
        origins = sorted(by_origin)[: operator.signed_origin_ases]
        selection: List[Prefix] = []
        index = 0
        while len(selection) < operator.signed_prefixes and origins:
            origin = origins[index % len(origins)]
            pool = by_origin[origin]
            position = len(selection) // len(origins)
            if position < len(pool):
                selection.append(pool[position])
            index += 1
            if index > operator.signed_prefixes * len(origins):
                break
        return selection
