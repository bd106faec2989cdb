"""Tests for RIS-style table-dump serialisation."""

import pytest

from repro.bgp import ASPath, TableDump, TableDumpEntry
from repro.bgp.dumps import (
    format_entry,
    parse_entry,
    read_dump,
    write_dump,
)
from repro.bgp.errors import BGPError
from repro.net import ASN, Address, Prefix


def entry(prefix, path_text, peer):
    return TableDumpEntry(
        prefix=Prefix.parse(prefix),
        path=ASPath.parse(path_text),
        peer=ASN(peer),
    )


class TestLineFormat:
    def test_format(self):
        line = format_entry(entry("10.0.0.0/16", "3320 1299 64500", 3320))
        assert line == "TABLE_DUMP2|rrc-sim|B|3320|10.0.0.0/16|3320 1299 64500|IGP"

    def test_roundtrip_simple(self):
        original = entry("10.0.0.0/16", "3320 1299 64500", 3320)
        assert parse_entry(format_entry(original)) == original

    def test_roundtrip_as_set(self):
        original = entry("192.0.2.0/24", "3320 {64500,64501}", 3320)
        parsed = parse_entry(format_entry(original))
        assert parsed == original
        assert parsed.origin is None

    def test_roundtrip_ipv6(self):
        original = entry("2001:db8::/32", "1 2 3", 1)
        assert parse_entry(format_entry(original)) == original

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "garbage",
            "TABLE_DUMP2|rrc|B|x|10.0.0.0/16|1 2|IGP",     # bad peer
            "TABLE_DUMP2|rrc|B|1|10.0.0.1/16|1 2|IGP",      # host bits
            "TABLE_DUMP2|rrc|A|1|10.0.0.0/16|1 2|IGP",      # not B
            "WRONG|rrc|B|1|10.0.0.0/16|1 2|IGP",
            "TABLE_DUMP2|rrc|B|1|10.0.0.0/16|1 2",          # missing field
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(BGPError):
            parse_entry(bad)


class TestFiles:
    @pytest.fixture()
    def dump(self):
        return TableDump(
            [
                entry("10.0.0.0/16", "3320 1299 64500", 3320),
                entry("10.0.0.0/8", "3320 64501", 3320),
                entry("192.0.2.0/24", "174 {64502,64503}", 174),
            ]
        )

    def test_write_read_roundtrip(self, dump, tmp_path):
        path = tmp_path / "rrc00.dump"
        count = write_dump(dump, path)
        assert count == 3
        loaded = read_dump(path)
        assert len(loaded) == 3
        assert loaded.prefixes() == dump.prefixes()
        # The index is rebuilt: covering lookups work on the copy.
        covering = loaded.covering_entries(Address.parse("10.0.1.1"))
        assert [str(e.prefix) for e in covering] == ["10.0.0.0/8", "10.0.0.0/16"]

    def test_read_skips_comments_and_blanks(self, dump, tmp_path):
        path = tmp_path / "rrc00.dump"
        write_dump(dump, path)
        content = "# comment\n\n" + path.read_text()
        path.write_text(content)
        assert len(read_dump(path)) == 3


class TestEcosystemDump(object):
    def test_world_dump_roundtrips(self, small_world, tmp_path):
        path = tmp_path / "world.dump"
        count = write_dump(small_world.table_dump, path)
        assert count == len(small_world.table_dump)
        loaded = read_dump(path)
        assert loaded.prefixes() == small_world.table_dump.prefixes()
        # Origin extraction agrees row-for-row.
        some = list(small_world.table_dump)[:50]
        for original in some:
            reparsed = parse_entry(format_entry(original))
            assert reparsed.origin == original.origin
