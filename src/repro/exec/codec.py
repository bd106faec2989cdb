"""Compact wire format for shard results crossing process boundaries.

Measurement records are object-heavy: every
:class:`~repro.core.records.NameMeasurement` is an eleven-field
dataclass holding lists of value objects.  Pickling them naively ships
one state dict per object, and the parent process pays the
reconstruction cost serially while its workers sit idle — at 20k
domains that deserialisation dominates the parallel wall-clock.
Each measurement is encoded as nested tuples of primitives instead.
At 10 000 domains (seed 2015) the pickled name measurements take
1 726 165 bytes and the wire form 1 101 522 (1 463 942 when every
occurrence of a value had a row of its own), and the parent decodes
it in 0.33 s where a row per occurrence took 0.61 s (medians of nine
runs, 2 cores, Python 3.11.7).

Three invariants make the codec safe, exact and lean:

* an :class:`~repro.net.Address` or :class:`~repro.net.Prefix` row is
  the value itself (``tuple(address)``), and decoding rebuilds every
  value through its public, validating constructor — the bytes come
  from a pipe, a socket or the on-disk snapshot, and the value types
  own the rule: host bits set, a value out of range, a field that is
  not exactly an ``int`` or an unknown state raises a typed error;
  the codec checks only what no value type owns (counts, ``resolved``,
  the degraded stage, tallies), raising :class:`WireError`;
* each distinct row crosses once and decodes to one shared, validated
  value — within one :func:`encode_measurements` call equal values
  share one row object, so pickle's memo ships it once, and decoding
  keeps an intern table from row to value (one per call, or one per
  run when the caller passes it, as
  :func:`~repro.exec.executor.execute_study` does), so a row goes
  through the validating constructor the first time it is seen and
  every later occurrence reuses that object (``(4, True) == (4, 1)``,
  so a row's ints pass :func:`~repro.net.exact_ints` before lookup);
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
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.pipeline import STAGE_DNS, STAGE_PREFIX, StudyStatistics
from repro.core.records import (
    DomainMeasurement,
    NameMeasurement,
    PrefixOriginPair,
)
from repro.errors import ReproError
from repro.net import ASN, Address, Prefix, exact_ints
from repro.net.errors import AddressError, PrefixError
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

_DEGRADED_STAGES = ("", STAGE_DNS, STAGE_PREFIX)


class WireError(ReproError, ValueError):
    """A wire or store row that no encoded value could have produced."""


def encode_name(
    measurement: NameMeasurement, rows: Optional[dict] = None
) -> WireName:
    """One name form as primitives; ``rows`` maps each value already
    encoded to its row, so equal values share one row object."""
    if rows is None:
        rows = {}
    return (
        measurement.name,
        measurement.resolved,
        [rows.setdefault(a, tuple(a)) for a in measurement.addresses],
        measurement.excluded_special,
        measurement.unreachable_addresses,
        measurement.as_set_excluded,
        measurement.cname_count,
        [
            rows.setdefault(
                pair, (*pair.prefix, int(pair.origin), pair.state.value)
            )
            for pair in measurement.pairs
        ],
        measurement.degraded_stage,
        measurement.retries,
        [(kind, count) for kind, count in measurement.faults],
    )


def check_counts(values, minimum: int = 0) -> None:
    """Check that ``values`` are exact ints of at least ``minimum``.

    For the count fields of wire and store rows, which no value type
    owns; raises :class:`WireError`.
    """
    values = exact_ints(values, WireError)
    if values and min(values) < minimum:
        raise WireError(f"counts must be at least {minimum}: {values!r}")


def _tally(row, minimum: int = 0) -> Tuple[str, int]:
    """One ``(key, count)`` pair of a fault list or statistics map."""
    key, count = row
    if type(key) is not str:
        raise WireError(f"tally key must be a str: {row!r}")
    check_counts((count,), minimum)
    return key, count


def _address(row, table: dict) -> Address:
    key = exact_ints(row, AddressError)
    address = table.get(key)
    if address is None:
        address = table[key] = Address(*key)
    return address


def _pair(row, table: dict) -> PrefixOriginPair:
    family, value, length, origin, state = row
    key = (*exact_ints((family, value, length, origin), PrefixError), state)
    try:
        pair = table.get(key)
    except TypeError:  # an unhashable state: OriginValidation refuses it below
        pair = None
    if pair is None:
        pair = table[key] = PrefixOriginPair(
            Prefix(family, value, length), ASN(origin), OriginValidation(state)
        )
    return pair


def decode_name(wire: WireName, table: Optional[dict] = None) -> NameMeasurement:
    """Rebuild one name form; ``table`` maps each row already decoded
    to its value (one table per call when ``None``)."""
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
    if type(name) is not str or type(resolved) is not bool:
        raise WireError(f"name must be a str, resolved a bool: {wire!r}")
    check_counts((excluded, unreachable, as_set, cnames, retries))
    if degraded_stage not in _DEGRADED_STAGES:
        raise WireError(f"unknown degraded stage: {degraded_stage!r}")
    if table is None:
        table = {}
    return NameMeasurement(
        name=name,
        resolved=resolved,
        addresses=[_address(row, table) for row in addresses],
        excluded_special=excluded,
        unreachable_addresses=unreachable,
        as_set_excluded=as_set,
        cname_count=cnames,
        pairs=[_pair(row, table) for row in pairs],
        degraded_stage=degraded_stage,
        retries=retries,
        faults=tuple(_tally(row, 1) for row in faults),
    )


def encode_measurements(
    measurements: Sequence[DomainMeasurement],
) -> List[WireMeasurement]:
    """Flatten measurements to primitives; domains are *not* included."""
    rows: dict = {}
    return [
        (encode_name(m.www, rows), encode_name(m.plain, rows))
        for m in measurements
    ]


def decode_measurements(
    encoded: Sequence[WireMeasurement],
    domains: Sequence[Domain],
    table: Optional[dict] = None,
) -> List[DomainMeasurement]:
    """Rebuild measurements, re-attaching the caller's domain objects.

    ``domains`` must be the shard's domain sequence in rank order —
    the same order :func:`encode_measurements` saw on the other side.
    ``table`` is the run's intern table, shared by every shard it
    decodes (one table per call when ``None``).
    """
    if len(encoded) != len(domains):
        raise ValueError(
            f"{len(encoded)} encoded measurements for {len(domains)} domains"
        )
    if table is None:
        table = {}
    return [
        DomainMeasurement(
            domain, decode_name(www, table), decode_name(plain, table)
        )
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
    """Rebuild shard statistics; exact inverse of :func:`encode_statistics`.

    A counter must be an exact non-negative ``int`` and a mapping
    field ``(str, exact non-negative int)`` pairs, else
    :class:`WireError`.
    """
    specs = fields(StudyStatistics)
    if len(wire) != len(specs):
        raise WireError(
            f"statistics wire has {len(wire)} entries, "
            f"expected {len(specs)}"
        )
    stats = StudyStatistics()
    for field, value in zip(specs, wire):
        if isinstance(getattr(stats, field.name), dict):
            value = dict(_tally(row) for row in value)
        else:
            check_counts((value,))
        setattr(stats, field.name, value)
    return stats
