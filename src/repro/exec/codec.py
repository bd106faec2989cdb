"""Compact wire format for shard results crossing process boundaries.

Measurement records are object-heavy: every :class:`~repro.net.Address`
and :class:`~repro.net.Prefix` is a ``__slots__`` instance, every
:class:`~repro.core.records.NameMeasurement` an eight-field dataclass.
Pickling them naively ships one state dict per object, and the parent
process pays the reconstruction cost serially while its workers sit
idle — at 20k domains that deserialisation dominates the parallel
wall-clock.  Encoding each measurement as nested tuples of primitives
roughly halves the payload and the parent-side decode time.

Two invariants make the codec safe and exact:

* values are lifted from objects that were already validated on
  construction inside the worker, so decoding rebuilds them through
  ``__new__`` without re-running the parse/range checks;
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
        [(a._family, a._value) for a in measurement.addresses],
        measurement.excluded_special,
        measurement.unreachable_addresses,
        measurement.as_set_excluded,
        measurement.cname_count,
        [
            (
                pair.prefix._family,
                pair.prefix._value,
                pair.prefix._length,
                int(pair.origin),
                pair.state.value,
            )
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
    measurement = NameMeasurement.__new__(NameMeasurement)
    measurement.name = name
    measurement.resolved = resolved
    decoded_addresses = []
    for family, value in addresses:
        address = Address.__new__(Address)
        address._family = family
        address._value = value
        decoded_addresses.append(address)
    measurement.addresses = decoded_addresses
    measurement.excluded_special = excluded
    measurement.unreachable_addresses = unreachable
    measurement.as_set_excluded = as_set
    measurement.cname_count = cnames
    decoded_pairs = []
    for family, value, length, origin, state in pairs:
        prefix = Prefix.__new__(Prefix)
        prefix._family = family
        prefix._value = value
        prefix._length = length
        decoded_pairs.append(
            PrefixOriginPair(prefix, ASN(origin), OriginValidation(state))
        )
    measurement.pairs = decoded_pairs
    measurement.degraded_stage = degraded_stage
    measurement.retries = retries
    measurement.faults = tuple((kind, count) for kind, count in faults)
    return measurement


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
    measurements = []
    for (www, plain), domain in zip(encoded, domains):
        measurement = DomainMeasurement.__new__(DomainMeasurement)
        measurement.domain = domain
        measurement.www = _decode_name(www)
        measurement.plain = _decode_name(plain)
        measurements.append(measurement)
    return measurements


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
