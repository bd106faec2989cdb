"""Compact wire format for shard results crossing process boundaries.

Measurement records are object-heavy: every
:class:`~repro.core.records.NameMeasurement` is an eleven-field
dataclass holding lists of value objects.  Pickling them naively ships
one state dict per object, and the parent process pays the
reconstruction cost serially while its workers sit idle — at 20k
domains that deserialisation dominates the parallel wall-clock.
Encoding each measurement as nested tuples of primitives roughly
halves the payload and the parent-side decode time.

Two invariants make the codec safe and exact:

* an :class:`~repro.net.Address` or :class:`~repro.net.Prefix` row is
  the value itself (``tuple(address)``), and decoding rebuilds it
  through the public, validating constructor — the bytes come from a
  pipe, a socket or the on-disk snapshot, so a row with host bits set
  or a value out of range raises a :class:`~repro.net.NetError`
  instead of becoming a value that violates its own invariant;
* :class:`~repro.web.alexa.Domain` objects never cross the boundary
  at all — the parent re-attaches its *own* domain objects (the same
  ones the serial run would use) from the shard plan, which both
  shrinks the payload and preserves object identity with the serial
  result.

``decode_measurements(encode_measurements(ms), domains) == ms`` holds
exactly; the round-trip is covered by ``tests/test_exec_parallel.py``.
"""

from __future__ import annotations

from dataclasses import fields
from typing import List, Sequence, Tuple, Union

from repro.core.pipeline import StudyStatistics
from repro.core.records import (
    DomainMeasurement,
    NameMeasurement,
    PrefixOriginPair,
)
from repro.net import ASN, Address, Prefix
from repro.rpki.vrp import OriginValidation
from repro.web.alexa import Domain

# One NameMeasurement as primitives: (name, resolved, addresses,
# excluded_special, unreachable, as_set_excluded, cnames, pairs,
# degraded_stage, retries, faults) with addresses = [(family, value)],
# pairs = [(family, value, length, origin, state-value)], and
# faults = [(kind, count)].
WireName = Tuple[str, bool, list, int, int, int, int, list, str, int, list]
WireMeasurement = Tuple[WireName, WireName]

# StudyStatistics as primitives: one entry per dataclass field in
# declaration order — an int counter as itself, a mapping field as
# sorted (key, count) pairs.
WireStatistics = Tuple[Union[int, list], ...]


def _encode_name(measurement: NameMeasurement) -> WireName:
    return (
        measurement.name,
        measurement.resolved,
        [tuple(a) for a in measurement.addresses],
        measurement.excluded_special,
        measurement.unreachable_addresses,
        measurement.as_set_excluded,
        measurement.cname_count,
        [
            (*pair.prefix, int(pair.origin), pair.state.value)
            for pair in measurement.pairs
        ],
        measurement.degraded_stage,
        measurement.retries,
        [(kind, count) for kind, count in measurement.faults],
    )


def _decode_name(wire: WireName) -> NameMeasurement:
    (
        name,
        resolved,
        addresses,
        excluded,
        unreachable,
        as_set,
        cnames,
        pairs,
        degraded_stage,
        retries,
        faults,
    ) = wire
    return NameMeasurement(
        name=name,
        resolved=resolved,
        addresses=[Address(*row) for row in addresses],
        excluded_special=excluded,
        unreachable_addresses=unreachable,
        as_set_excluded=as_set,
        cname_count=cnames,
        pairs=[
            PrefixOriginPair(
                Prefix(family, value, length), ASN(origin), OriginValidation(state)
            )
            for family, value, length, origin, state in pairs
        ],
        degraded_stage=degraded_stage,
        retries=retries,
        faults=tuple((kind, count) for kind, count in faults),
    )


def encode_measurements(
    measurements: Sequence[DomainMeasurement],
) -> List[WireMeasurement]:
    """Flatten measurements to primitives; domains are *not* included."""
    return [
        (_encode_name(m.www), _encode_name(m.plain)) for m in measurements
    ]


def decode_measurements(
    encoded: Sequence[WireMeasurement], domains: Sequence[Domain]
) -> List[DomainMeasurement]:
    """Rebuild measurements, re-attaching the caller's domain objects.

    ``domains`` must be the shard's domain sequence in rank order —
    the same order :func:`encode_measurements` saw on the other side.
    """
    if len(encoded) != len(domains):
        raise ValueError(
            f"{len(encoded)} encoded measurements for {len(domains)} domains"
        )
    return [
        DomainMeasurement(domain, _decode_name(www), _decode_name(plain))
        for (www, plain), domain in zip(encoded, domains)
    ]


def encode_statistics(stats: StudyStatistics) -> WireStatistics:
    """Flatten shard statistics to primitives for the wire."""
    values = (
        getattr(stats, field.name)
        for field in fields(StudyStatistics)
    )
    return tuple(
        sorted(value.items()) if isinstance(value, dict) else value
        for value in values
    )


def decode_statistics(wire: WireStatistics) -> StudyStatistics:
    """Rebuild shard statistics; exact inverse of :func:`encode_statistics`."""
    specs = fields(StudyStatistics)
    if len(wire) != len(specs):
        raise ValueError(
            f"statistics wire has {len(wire)} entries, "
            f"expected {len(specs)}"
        )
    stats = StudyStatistics()
    for field, value in zip(specs, wire):
        if isinstance(getattr(stats, field.name), dict):
            value = dict(value)
        setattr(stats, field.name, value)
    return stats


# Public aliases: the snapshot cache stores whole-form measurements in
# exactly this wire form (one artifact per name form on fault runs).
encode_name = _encode_name
decode_name = _decode_name
