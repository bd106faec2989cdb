"""Differential harness for the ROV experiment runner.

A naive oracle — sharing no code with :mod:`repro.bgp.propagation` or
:mod:`repro.rov.experiment` — linearly replays every round's
propagation per vantage point over plain ints and tuples, applies the
inference rules independently, and must agree with the runner on every
single verdict across a 215-AS topology (zero mismatches), for every
dispatch backend.

The oracle works on a plain-dict view of the topology (adjacency as
int lists) and reimplements:

* RFC 6811 origin validation from raw (value, length, maxlen, asn)
  ROA rows,
* the three Gao–Rexford stages as layered sweeps (no heap, no shared
  policy helpers): customer routes climb by increasing path length
  with lowest-sender tie-break, peer routes cross one hop, provider
  routes descend,
* the candidate-elimination inference (anchor kept + invalid lost ⟹
  suspects; singleton ⟹ pinpointed enforcer) and the verdict rule.
"""

from __future__ import annotations

import pytest

from repro.bgp import ASTopology, Relationship
from repro.crypto import DeterministicRNG
from repro.net import ASN
from repro.rov import (
    ExperimentSpec,
    RovExperimentRunner,
    Verdict,
    seeded_enforcers,
)

# -- plain-data topology view ---------------------------------------------


def topology_view(topology):
    """Adjacency as sorted int lists — the oracle's only input."""
    view = {}
    for asn in topology.asns():
        view[int(asn)] = {
            kind: sorted(
                int(n) for n, r in topology.neighbors(asn).items()
                if r is relationship
            )
            for kind, relationship in (
                ("providers", Relationship.PROVIDER),
                ("customers", Relationship.CUSTOMER),
                ("peers", Relationship.PEER),
            )
        }
    return view


def roa_rows(vrps):
    """VRPs as raw (family, value, length, maxlen, asn) tuples."""
    return tuple(
        (vrp.prefix.family, vrp.prefix.value, vrp.prefix.length,
         vrp.max_length, int(vrp.asn))
        for vrp in vrps
    )


# -- independent RFC 6811 -------------------------------------------------


def oracle_validation(rows, family, value, length, origin):
    """'valid' / 'invalid' / 'not_found' from raw ROA rows."""
    bits = 32 if family == 4 else 128
    covered = False
    for r_family, r_value, r_length, r_maxlen, r_asn in rows:
        if r_family != family or r_length > length:
            continue
        shift = bits - r_length
        if (value >> shift) != (r_value >> shift):
            continue
        covered = True
        if r_asn == origin and length <= r_maxlen:
            return "valid"
    return "invalid" if covered else "not_found"


# -- independent Gao-Rexford propagation ----------------------------------


def oracle_propagate(view, family, value, length, origin, rows, enforcing):
    """Best path per AS as a tuple of ints (AS-first, origin-last)."""

    def acceptable(asn, path):
        if asn in path:
            return False
        if asn not in enforcing:
            return True
        return oracle_validation(rows, family, value, length, path[-1]) != "invalid"

    best = {origin: (origin,)}  # stage 0: origination

    # Stage A: customer routes climb provider links, layered by path
    # length; within a layer senders act in ascending-ASN order, so
    # a receiver's first acceptable offer is the (length, sender) min.
    frontier = [origin]
    while frontier:
        next_frontier = []
        for sender in sorted(frontier):
            for receiver in view[sender]["providers"]:
                if receiver in best:
                    continue
                if not acceptable(receiver, best[sender]):
                    continue
                best[receiver] = (receiver,) + best[sender]
                next_frontier.append(receiver)
        frontier = next_frontier

    # Stage B: customer/origin routes cross exactly one peering edge.
    offers = sorted(
        (len(best[sender]), sender, receiver)
        for sender in best
        for receiver in view[sender]["peers"]
    )
    peer_routes = {}
    for _length, sender, receiver in offers:
        if receiver in best or receiver in peer_routes:
            continue
        if acceptable(receiver, best[sender]):
            peer_routes[receiver] = (receiver,) + best[sender]
    best.update(peer_routes)

    # Stage C: everything descends customer links.  Offers resolve
    # strictly one at a time in (path length, sender) order — a fresh
    # adoption's shorter offer must beat longer offers already queued,
    # so the list is re-sorted before every pop (linear replay, no heap).
    pending = [
        (len(best[sender]), sender, receiver)
        for sender in best
        for receiver in view[sender]["customers"]
        if receiver not in best
    ]
    while pending:
        pending.sort()
        _length, sender, receiver = pending.pop(0)
        if receiver in best:
            continue
        if not acceptable(receiver, best[sender]):
            continue
        best[receiver] = (receiver,) + best[sender]
        pending.extend(
            (len(best[receiver]), receiver, customer)
            for customer in view[receiver]["customers"]
            if customer not in best
        )
    return best


# -- independent inference ------------------------------------------------


def oracle_campaign(view, rounds, enforcing):
    """Evidence counters per AS: [invalid, pinpoint, suspect, anchor]."""
    totals = {}

    def bump(asn, slot):
        totals.setdefault(asn, [0, 0, 0, 0])[slot] += 1

    for round_input in rounds:
        rows = roa_rows(round_input.vrps)
        origin = int(round_input.origin)
        anchor = round_input.anchor
        experiment = round_input.experiment
        anchor_best = oracle_propagate(
            view, anchor.family, anchor.value, anchor.length,
            origin, rows, enforcing,
        )
        invalid_best = oracle_propagate(
            view, experiment.family, experiment.value, experiment.length,
            origin, rows, enforcing,
        )
        vantages = [int(v) for v in round_input.vantages]
        invalid_union = set()
        for vantage in vantages:
            path = invalid_best.get(vantage)
            if path:
                invalid_union.update(a for a in path if a != origin)
        round_invalid = set()
        round_pinpoint = set()
        round_suspect = set()
        round_anchor = set()
        for vantage in vantages:
            anchor_path = anchor_best.get(vantage)
            if not anchor_path:
                continue
            round_anchor.update(a for a in anchor_path if a != origin)
            if invalid_best.get(vantage):
                continue
            candidates = set(anchor_path) - {origin} - invalid_union
            if not candidates:
                continue
            round_suspect.update(candidates)
            if len(candidates) == 1:
                round_pinpoint.update(candidates)
        round_invalid.update(invalid_union)
        for asn in round_invalid:
            bump(asn, 0)
        for asn in round_pinpoint:
            bump(asn, 1)
        for asn in round_suspect:
            bump(asn, 2)
        for asn in round_anchor:
            bump(asn, 3)
    return totals


def oracle_verdict(counters):
    invalid, pinpoint, _suspect, _anchor = counters
    if pinpoint:
        return Verdict.ENFORCING
    if invalid:
        return Verdict.NON_ENFORCING
    return Verdict.INCONCLUSIVE


# -- the differential -----------------------------------------------------


@pytest.fixture(scope="module")
def campaign():
    topology = ASTopology.generate(
        DeterministicRNG(42),
        tier1=5, transit=20, eyeballs=60, hosters=60, cdns=10, stubs=60,
    )
    enforcing = seeded_enforcers(topology, seed=2015)
    spec = ExperimentSpec(rounds=48, vantage_count=12, seed=2015)
    runner = RovExperimentRunner(topology, enforcing, spec)
    return topology, enforcing, runner, runner.run()


class TestVerdictDifferential:
    def test_topology_is_large_enough(self, campaign):
        topology, _enforcing, _runner, report = campaign
        assert len(list(topology.asns())) >= 200
        assert len(report.verdicts) >= 200

    def test_zero_mismatches_against_oracle(self, campaign):
        topology, enforcing, runner, report = campaign
        view = topology_view(topology)
        truth = {int(a) for a in enforcing}
        totals = oracle_campaign(view, runner.rounds(), truth)
        mismatches = []
        for asn, entry in report.verdicts.items():
            counters = totals.get(int(asn), [0, 0, 0, 0])
            expected = oracle_verdict(counters)
            got = (
                entry.invalid_observations,
                entry.pinpoint_observations,
                entry.suspect_observations,
                entry.anchor_observations,
            )
            if entry.verdict is not expected or got != tuple(counters):
                mismatches.append((int(asn), entry.verdict, expected,
                                   got, tuple(counters)))
        assert mismatches == []

    def test_conclusive_verdicts_match_ground_truth(self, campaign):
        _topology, enforcing, _runner, report = campaign
        assert report.false_positives(enforcing) == []
        assert report.conflicts == 0
        verdicts = {entry.verdict for entry in report.verdicts.values()}
        assert {Verdict.ENFORCING, Verdict.NON_ENFORCING} <= verdicts

    def test_inconclusive_iff_no_decisive_evidence(self, campaign):
        topology, enforcing, runner, report = campaign
        view = topology_view(topology)
        truth = {int(a) for a in enforcing}
        totals = oracle_campaign(view, runner.rounds(), truth)
        for asn, entry in report.verdicts.items():
            invalid, pinpoint, _s, _a = totals.get(int(asn), [0, 0, 0, 0])
            decisive = bool(invalid or pinpoint)
            assert (entry.verdict is Verdict.INCONCLUSIVE) == (not decisive)

    def test_dispatch_backends_agree_bit_for_bit(self, campaign):
        _topology, _enforcing, runner, report = campaign
        for workers in (1, 4):  # serial, then the process pool
            replay = runner.run(workers=workers)
            assert replay.digest == report.digest, workers
            for asn, entry in report.verdicts.items():
                assert replay.verdicts[asn].row() == entry.row(), (workers, asn)

    def test_oracle_paths_match_engine_paths(self, campaign):
        """Full routing-table differential on a sample of rounds."""
        from repro.bgp import PropagationEngine
        from repro.bgp.messages import Announcement
        from repro.rpki import ValidatedPayloads

        topology, enforcing, runner, _report = campaign
        view = topology_view(topology)
        truth = {int(a) for a in enforcing}
        engine = PropagationEngine(topology)
        for round_input in runner.rounds()[:6]:
            state = engine.propagate(
                [
                    Announcement(prefix=round_input.anchor,
                                 origin=round_input.origin),
                    Announcement(prefix=round_input.experiment,
                                 origin=round_input.origin),
                ],
                payloads=ValidatedPayloads(round_input.vrps),
                enforcing=enforcing,
            )
            rows = roa_rows(round_input.vrps)
            for prefix in (round_input.anchor, round_input.experiment):
                expected = oracle_propagate(
                    view, prefix.family, prefix.value, prefix.length,
                    int(round_input.origin), rows, truth,
                )
                got = {
                    int(asn): tuple(int(a) for a in entry.path)
                    for asn, entry in state.routes_for(prefix).items()
                }
                assert got == expected, round_input.index
