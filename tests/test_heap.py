"""Heap discipline: slotted records, no-copy names, a lean import, and
no cyclic collection during a world build or a study run.

The world and the measurement records are many small objects that
never form reference cycles, so they carry no ``__dict__`` and the
cyclic collector is paused (not frozen) while they are made; the
caller's collector state comes back whatever happens inside.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.pipeline as pipeline
from repro.bgp.aspath import ASPath
from repro.bgp.collector import TableDumpEntry
from repro.core import MeasurementStudy, RunConfig
from repro.core.records import DomainMeasurement, NameMeasurement
from repro.dns.errors import DNSError
from repro.dns.records import ResourceRecord, normalise_name
from repro.heap import collector_paused
from repro.net import ASN, Prefix
from repro.web import EcosystemConfig, WebEcosystem
from repro.web.alexa import AlexaRanking, Domain
from repro.web.hosting import DomainHosting

CONFIG = EcosystemConfig(
    domain_count=60, seed=7, hoster_count=20, eyeball_count=8, transit_count=6
)


@pytest.fixture
def collector_state():
    """Run the test, then put the collector back as it was."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(scope="module")
def world():
    return WebEcosystem.build(CONFIG)


# -- slots --------------------------------------------------------------------


def _records():
    domain = Domain(rank=1, name="example.com")
    name = NameMeasurement(name="example.com")
    return [
        domain,
        DomainHosting(domain=domain),
        ResourceRecord.a("example.com", "192.0.2.1"),
        ResourceRecord.cname("www.example.com", "edge.cdn.example"),
        TableDumpEntry(
            prefix=Prefix(4, 0xC0000200, 24),
            path=ASPath.of(3320, 64500),
            peer=ASN(3320),
        ),
        name,
        DomainMeasurement(domain=domain, www=name, plain=name),
        ASN(64500),
    ]


@pytest.mark.parametrize(
    "record", _records(), ids=lambda record: type(record).__name__
)
def test_records_carry_no_instance_dict(record):
    assert not hasattr(record, "__dict__")


def test_world_records_are_the_slotted_classes(world):
    """The built world holds the slotted records themselves."""
    domain = next(iter(world.ranking))
    for record in (
        domain,
        world.hosting.ground_truth[domain.name],
        next(iter(world.table_dump)),
        next(iter(world.table_dump)).peer,
    ):
        assert not hasattr(record, "__dict__"), type(record).__name__


# -- no HTTP server on import -------------------------------------------------


def test_importing_the_cli_loads_no_http_server(fresh_python):
    out = fresh_python(
        "import sys, repro.cli\n"
        "print(sorted(m for m in ('http.server', 'repro.obs.http')"
        " if m in sys.modules))\n"
        "from repro.obs import HealthSource, TelemetryServer\n"
        "print('http.server' in sys.modules)"
    )
    assert out.splitlines() == ["[]", "True"]


# -- normalise_name -----------------------------------------------------------


def _old_normalise(name):
    name = name.strip().lower()
    if name.endswith("."):
        name = name[:-1]
    if not name:
        raise DNSError("empty domain name")
    return name


@pytest.mark.parametrize(
    "name", ["example.com", "www.example.com", "a", "xn--bcher-kva.de", "1.2"]
)
def test_a_normal_name_comes_back_as_itself(name):
    name = "".join(list(name))  # a fresh, non-literal string object
    assert normalise_name(name) is name


def test_record_and_name_share_one_string():
    name = "".join(["www.", "example.com"])
    record = ResourceRecord.a(name, "192.0.2.1")
    assert record.name is name


@settings(max_examples=300)
@given(
    st.text(
        alphabet=st.sampled_from("aZ.-0 \t\nÄßİ"), max_size=12
    ) | st.text(max_size=12)
)
def test_normalise_name_equals_the_copying_definition(name):
    try:
        expected = _old_normalise(name)
    except DNSError:
        with pytest.raises(DNSError):
            normalise_name(name)
        return
    assert normalise_name(name) == expected


# -- collector paused during build and run ------------------------------------


@pytest.mark.usefixtures("collector_state")
class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_context_manager_restores_state_and_nests(self, enabled):
        (gc.enable if enabled else gc.disable)()
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_context_manager_restores_state_on_error(self, enabled):
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError):
            with collector_paused():
                raise RuntimeError("boom")
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_build_pauses_and_restores(self, enabled, monkeypatch):
        seen = []
        generate = AlexaRanking.generate.__func__

        def watched(cls, count, rng):
            seen.append(gc.isenabled())
            return generate(cls, count, rng)

        monkeypatch.setattr(AlexaRanking, "generate", classmethod(watched))
        (gc.enable if enabled else gc.disable)()
        WebEcosystem.build(CONFIG)
        assert gc.isenabled() is enabled
        assert seen == [False]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_build_restores_on_error(self, enabled, monkeypatch):
        def broken(cls, count, rng):
            raise RuntimeError("boom")

        monkeypatch.setattr(AlexaRanking, "generate", classmethod(broken))
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError):
            WebEcosystem.build(CONFIG)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "config",
        [RunConfig(), RunConfig(workers=2, mode="process")],
        ids=["serial", "process"],
    )
    def test_run_pauses_and_restores(
        self, world, config, enabled, monkeypatch
    ):
        """The funnel never runs with the collector on: not serially,
        and not in a forked pool child, which inherits the pause."""
        map_single_address = pipeline.map_single_address

        def watched(*args):
            if gc.isenabled():
                raise RuntimeError("funnel ran with the collector on")
            return map_single_address(*args)

        monkeypatch.setattr(pipeline, "map_single_address", watched)
        study = MeasurementStudy.from_ecosystem(world)
        (gc.enable if enabled else gc.disable)()
        result = study.run(config=config)
        assert gc.isenabled() is enabled
        assert len(list(result)) == CONFIG.domain_count

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_restores_on_error(self, world, enabled):
        study = MeasurementStudy.from_ecosystem(world)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(TypeError):
            study.run(config="not a RunConfig")
        assert gc.isenabled() is enabled
