"""Every reader of rows the program did not write refuses a bool or float.

A bool or a float compares (and hashes) equal to an int, so a reader
that only compares values would decode ``True`` as 1 and ``1.0`` as 1.
The property swaps each int field of a good row in turn for ``True``,
``False`` or ``float(field)``, and each validation state for the
same, and asserts a typed :class:`~repro.errors.ReproError`, never a
value.  The readers: the wire codec's name rows (address and pair rows
inside them, decoded through a table that already holds the good
row's values) and statistics; the snapshot store's ``dns``, ``prefix``
and ``rpki`` rows; and a whole job result frame through
``JobResult.from_wire`` and ``to_outcome``.  An ``rpki`` row's ints
are the text of its key, which ``int()`` parses.

The metric slot (a job frame's ``metrics``, a store row's delta) holds
metric values, where a float is legal, so the swap property leaves it
empty; the last tests fill it with a good exposition and then with a
string, a negative, a bool or a NaN in each series it holds, and read
a store row through the store's reader of that slot.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.session import _decode_row
from repro.cache.store import _expand_deltas, _intern_deltas
from repro.core.pipeline import StudyStatistics
from repro.errors import ReproError
from repro.exec import (
    JobResult,
    Shard,
    decode_frames,
    decode_name,
    decode_statistics,
    encode_frame,
    encode_statistics,
)
from repro.obs.metrics import MetricsRegistry, registry_to_wire
from repro.rpki import OriginValidation
from repro.web.alexa import Domain

STATES = {state.value for state in OriginValidation}

NAME = [
    "example.com", True, [[4, 0x0A000001], [6, 1 << 100]], 1, 2, 3, 4,
    [[4, 0x0A000000, 8, 64500, "valid"], [6, 1 << 127, 1, 7, "not_found"]],
    "dns", 5, [["dns.timeout", 2]],
]
STATISTICS = list(encode_statistics(StudyStatistics(
    domain_count=3, invalid_dns_domains=1, www_addresses=2, retries_total=4,
    faults_by_kind={"dns.timeout": 2}, cache_hits_by_stage={"rpki": 6},
)))
SHARD = Shard(index=0, domains=(Domain(rank=1, name="example.com"),))
FRAME = JobResult(
    job_id=3, shard_index=0, attempt=1, worker_id=2,
    measurements=[[NAME, NAME]], statistics=STATISTICS, metrics=None,
    spans=[], span_stats=[["stage.dns", 3, 0.5, 0.1, 0.3, 1]],
).to_wire()


def _codec_name(row):
    table: dict = {}
    decode_name(NAME, table)  # the good row's values, interned first
    return decode_name(row, table)


def _frame(wire):
    (frame,), _rest = decode_frames(encode_frame(wire))
    return JobResult.from_wire(frame).to_outcome(SHARD)


READERS = {
    "codec-name": (NAME, _codec_name),
    "codec-statistics": (STATISTICS, decode_statistics),
    "store-dns": (
        ["fp", True, [[4, 1], [6, 2]], 1, 2, []],
        lambda row: _decode_row("dns", "example.com", row),
    ),
    "store-prefix": (
        [[[4, 0x0A000000, 8, 64500], [6, 0, 0, 1]], 1, 2, []],
        lambda row: _decode_row("prefix", "4:167772161", row),
    ),
    "store-rpki": (
        ["invalid", []],
        lambda row: _decode_row("rpki", "4:167772160:8:64500", row),
    ),
    "job-result-frame": (FRAME, _frame),
}


def _fields(row, path=()):
    """Paths to every int and every validation state in ``row``."""
    if type(row) is int or (type(row) is str and row in STATES):
        yield path
    elif isinstance(row, (list, tuple)):
        for index, item in enumerate(row):
            yield from _fields(item, (*path, index))
    elif isinstance(row, dict):
        for key, item in row.items():
            yield from _fields(item, (*path, key))


def _swap(row, path, value):
    """A copy of ``row`` (tuples as lists, as JSON has them) with the
    field at ``path`` replaced by ``value``."""
    row = json.loads(json.dumps(row))
    *outer, last = path
    target = row
    for step in outer:
        target = target[step]
    target[last] = value
    return row


def test_every_good_row_decodes():
    """The property below is not vacuous: each good row is accepted."""
    for reader in READERS.values():
        row, decode = reader
        assert decode(copy.deepcopy(row)) is not None
        assert list(_fields(row))


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(READERS)),
    kind=st.sampled_from(["True", "False", "float"]),
)
def test_a_bool_or_float_in_any_int_field_is_a_typed_error(name, kind):
    """Each draw swaps every field of the reader's row, one at a time."""
    row, decode = READERS[name]
    for path in _fields(row):
        field = row
        for step in path:
            field = field[step]
        value = {"True": True, "False": False}.get(kind)
        if value is None:
            value = float(field) if type(field) is int else 1.0
        hostile = _swap(row, path, value)
        try:
            decoded = decode(hostile)
        except ReproError:
            continue
        raise AssertionError(f"{name} decoded {hostile!r} as {decoded!r}")


def _metrics_wire():
    registry = MetricsRegistry()
    registry.counter("ripki_x_total", "x", ("stage",)).labels(stage="dns").inc(3)
    registry.gauge("ripki_level", "level").set(-2.5)
    registry.histogram("ripki_sizes", "sizes", buckets=(1, 10)).observe(4)
    return registry_to_wire(registry)


def _stored(stage, decode):
    """``decode`` behind the store's own reader of the delta slot: the
    row goes through the file's compact form and back."""

    def read(row):
        compact, table = _intern_deltas({stage: {"key": row}})
        (expanded,) = _expand_deltas(compact, table)[stage].values()
        return decode(expanded)

    return read


def _metric_readers(metrics):
    """Every reader of a metric slot, fed ``metrics`` there."""
    readers = [(_frame, dict(FRAME, metrics=copy.deepcopy(metrics)))]
    for stage in ("dns", "prefix", "rpki"):
        row, decode = READERS[f"store-{stage}"]
        readers.append(
            (_stored(stage, decode), [*row[:-1], copy.deepcopy(metrics)])
        )
    return readers


# (metric, path inside its one series' payload, hostile values)
HOSTILE_METRICS = [
    ("ripki_x_total", (), ["lots", -1.5, True, float("nan")]),
    ("ripki_level", (), ["lots", True, float("nan")]),
    # A bucket count, then the total count (2 != sum of counts last).
    ("ripki_sizes", (0, 1), ["lots", -1.5, True, float("nan"), -1, 2]),
    ("ripki_sizes", (2,), ["lots", -1.5, True, float("nan"), 2]),
]


def test_a_good_metric_slot_decodes():
    for decode, row in _metric_readers(_metrics_wire()):
        assert decode(row) is not None


@pytest.mark.parametrize("name, path, values", HOSTILE_METRICS)
def test_a_hostile_metric_value_is_a_typed_error(name, path, values):
    for value in values:
        metrics = _metrics_wire()
        # The one series is ``[label values, payload]``.
        target, key = next(row for row in metrics if row[0] == name)[5][0], 1
        for step in path:
            target, key = target[key], step
        target[key] = value
        for decode, row in _metric_readers(metrics):
            with pytest.raises(ReproError):
                decode(row)
