"""Table-dump serialisation (RIS/MRT-style text format).

RIPE RIS publishes its collector tables as dump files; step (3) of
the paper consumes such dumps.  This module writes and parses a
pipe-separated text format modelled on ``bgpdump -m`` output::

    TABLE_DUMP2|<collector>|B|<peer asn>|<prefix>|<as path>|IGP

so synthetic table dumps can be exported, shared, and re-imported
without re-running the simulation.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.bgp.aspath import ASPath
from repro.bgp.collector import TableDump, TableDumpEntry
from repro.bgp.errors import BGPError
from repro.net import ASN, Prefix
from repro.obs.runtime import metrics, tracer

_MARKER = "TABLE_DUMP2"


def format_entry(entry: TableDumpEntry, collector: str = "rrc-sim") -> str:
    """One dump line for a table row."""
    return "|".join(
        [
            _MARKER,
            collector,
            "B",
            str(int(entry.peer)),
            str(entry.prefix),
            str(entry.path),
            "IGP",
        ]
    )


def parse_entry(line: str) -> TableDumpEntry:
    """Parse one dump line back into a table row."""
    parts = line.rstrip("\n").split("|")
    if len(parts) != 7 or parts[0] != _MARKER or parts[2] != "B":
        raise BGPError(f"malformed dump line: {line!r}")
    _marker, _collector, _b, peer_text, prefix_text, path_text, _origin = parts
    try:
        peer = ASN(int(peer_text))
        prefix = Prefix.parse(prefix_text)
        path = ASPath.parse(path_text)
    except ValueError as exc:
        raise BGPError(f"malformed dump line: {line!r} ({exc})") from exc
    return TableDumpEntry(prefix=prefix, path=path, peer=peer)


def write_dump(
    dump: TableDump,
    path: Union[str, Path],
    collector: str = "rrc-sim",
) -> int:
    """Write every row of a dump; returns the line count."""
    path = Path(path)
    count = 0
    with tracer().span("dump.write", path=str(path)):
        with path.open("w") as handle:
            for entry in dump:
                handle.write(format_entry(entry, collector) + "\n")
                count += 1
    metrics().counter(
        "ripki_dump_rows_written_total", "Table-dump rows serialised"
    ).inc(count)
    return count


def read_dump(path: Union[str, Path]) -> TableDump:
    """Read a dump file back into an indexed :class:`TableDump`."""
    path = Path(path)
    dump = TableDump()
    rows = 0
    with tracer().span("dump.read", path=str(path)):
        with path.open() as handle:
            for line in handle:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                dump.add(parse_entry(line))
                rows += 1
    metrics().counter(
        "ripki_dump_rows_read_total", "Table-dump rows parsed"
    ).inc(rows)
    return dump
