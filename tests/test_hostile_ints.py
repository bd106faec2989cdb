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
``JobResult.from_wire`` and ``to_outcome``.  A store row's metric delta
slot (metric values, not ints) is left empty; an ``rpki`` row's ints
are the text of its key, which ``int()`` parses.
"""

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.session import _decode_row
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
