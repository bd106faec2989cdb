"""Unit tests for repro.faults and the per-call fault oracle.

The properties under test are the three the resilience layer leans
on: the unified exception hierarchy, determinism of the fault
schedule (pure function of seed/kind/key/attempt), and the accounting
of the oracle's retry loop and proxies (``tests/fault_oracle.py``),
which the funnel's fault overlay is held equal to.
"""

import pytest

from repro.bgp.errors import BGPError
from repro.dns.errors import DNSError
from repro.errors import ReproError, TransientFault
from repro.faults import (
    DNS_SERVFAIL,
    DNS_TIMEOUT,
    DUMP_CORRUPT,
    DUMP_MISSING_ROUTE,
    FAULT_KINDS,
    PROFILES,
    FaultPlan,
    InjectedFault,
)
from repro.rpki.rtr.errors import RTRError
from tests.fault_oracle import (
    AttemptCell,
    FaultyResolver,
    FaultyTableDump,
    InjectedDNSFault,
    InjectedDumpFault,
    RetryExhausted,
    call_with_retry,
)


class TestErrorHierarchy:
    def test_substrate_bases_share_one_root(self):
        from repro.crypto.errors import CryptoError
        from repro.net.errors import NetError
        from repro.rpki.errors import RPKIError

        for base in (BGPError, CryptoError, DNSError, NetError, RPKIError,
                     RTRError):
            assert issubclass(base, ReproError)

    def test_net_error_stays_a_value_error(self):
        from repro.net.errors import NetError

        assert issubclass(NetError, ValueError)

    def test_injected_faults_are_diamonds(self):
        # Each injected fault is both retryable AND the substrate
        # error its caller already handles.
        assert issubclass(InjectedDNSFault, DNSError)
        assert issubclass(InjectedDumpFault, BGPError)
        for cls in (InjectedDNSFault, InjectedDumpFault):
            assert issubclass(cls, InjectedFault)
            assert issubclass(cls, TransientFault)
            assert issubclass(cls, ReproError)

    def test_injected_fault_carries_kind_and_key(self):
        fault = InjectedDNSFault(DNS_SERVFAIL, "x.example")
        assert fault.kind == DNS_SERVFAIL
        assert fault.key == "x.example"

    def test_root_is_reexported_from_every_package(self):
        import repro
        import repro.bgp
        import repro.crypto
        import repro.dns
        import repro.net
        import repro.rpki
        import repro.rpki.rtr

        for pkg in (repro, repro.bgp, repro.crypto, repro.dns, repro.net,
                    repro.rpki, repro.rpki.rtr):
            assert pkg.ReproError is ReproError


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        a = FaultPlan.from_profile("flaky", seed=3)
        b = FaultPlan.from_profile("flaky", seed=3)
        keys = [f"site{i}.example" for i in range(200)]
        for kind in FAULT_KINDS:
            assert [a.failures_for(kind, k) for k in keys] == [
                b.failures_for(kind, k) for k in keys
            ]

    def test_different_seed_different_schedule(self):
        a = FaultPlan.from_profile("chaos", seed=1)
        b = FaultPlan.from_profile("chaos", seed=2)
        keys = [f"site{i}.example" for i in range(200)]
        assert [a.failures_for(DNS_SERVFAIL, k) for k in keys] != [
            b.failures_for(DNS_SERVFAIL, k) for k in keys
        ]

    def test_rate_bounds(self):
        never = FaultPlan.from_rates({DNS_SERVFAIL: 0.0})
        always = FaultPlan.from_rates({DNS_SERVFAIL: 1.0})
        keys = [f"k{i}" for i in range(100)]
        assert all(never.failures_for(DNS_SERVFAIL, k) == 0 for k in keys)
        assert all(always.failures_for(DNS_SERVFAIL, k) >= 1 for k in keys)

    def test_failures_bounded_by_max_consecutive(self):
        plan = FaultPlan.from_rates({DNS_SERVFAIL: 1.0}, max_consecutive=3)
        for i in range(100):
            n = plan.failures_for(DNS_SERVFAIL, f"k{i}")
            assert 1 <= n <= 3

    def test_should_fail_is_consecutive_then_heals(self):
        plan = FaultPlan.from_rates({DNS_SERVFAIL: 1.0}, max_consecutive=4)
        key = "victim.example"
        n = plan.failures_for(DNS_SERVFAIL, key)
        assert all(plan.should_fail(DNS_SERVFAIL, key, a) for a in range(n))
        assert not plan.should_fail(DNS_SERVFAIL, key, n)
        assert not plan.should_fail(DNS_SERVFAIL, key, n + 5)

    def test_approximate_rate(self):
        plan = FaultPlan.from_rates({DNS_TIMEOUT: 0.2}, seed=5)
        hits = sum(
            1 for i in range(2000)
            if plan.failures_for(DNS_TIMEOUT, f"s{i}") > 0
        )
        assert 300 < hits < 500  # 20% +/- 5pp over 2000 keys

    def test_rates_order_insensitive(self):
        a = FaultPlan.from_rates({DNS_SERVFAIL: 0.1, DUMP_CORRUPT: 0.2})
        b = FaultPlan.from_rates({DUMP_CORRUPT: 0.2, DNS_SERVFAIL: 0.1})
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan.from_rates({"dns.banana": 0.1})
        with pytest.raises(ValueError):
            FaultPlan.from_rates({DNS_SERVFAIL: 1.5})
        with pytest.raises(ValueError):
            FaultPlan.from_rates({DNS_SERVFAIL: 0.5}, max_consecutive=0)
        with pytest.raises(ValueError):
            FaultPlan.from_profile("calm")

    def test_profiles_are_valid_plans(self):
        for name in PROFILES:
            plan = FaultPlan.from_profile(name, seed=1)
            assert any(rate > 0.0 for _kind, rate in plan.rates)
            assert name in (
                "flaky", "degraded", "chaos", "unreliable-workers"
            )
            assert "seed=1" in plan.describe()


class TestRetryPolicy:
    """The whole retry policy is one count: ``RunConfig.max_attempts``."""

    def test_validation(self):
        from repro.core.pipeline import RunConfig

        assert RunConfig().max_attempts == 3
        with pytest.raises(ValueError):
            RunConfig(max_attempts=0)
        with pytest.raises(ValueError):
            RunConfig(max_attempts=-2)


class TestCallWithRetry:
    def _flaky(self, failures, error=None):
        state = {"calls": 0}

        def fn():
            state["calls"] += 1
            if state["calls"] <= failures:
                raise error or InjectedDNSFault(DNS_SERVFAIL, "k")
            return "ok"

        return fn, state

    def test_first_try_success(self):
        fn, state = self._flaky(0)
        value, attempts = call_with_retry(fn, attempts=3)
        assert (value, attempts) == ("ok", 1)
        assert state["calls"] == 1

    def test_heals_within_budget(self):
        fn, _ = self._flaky(2)
        value, attempts = call_with_retry(fn, attempts=3)
        assert (value, attempts) == ("ok", 3)

    def test_exhaustion_raises_with_accounting(self):
        fn, state = self._flaky(10)
        with pytest.raises(RetryExhausted) as info:
            call_with_retry(fn, attempts=3, key="victim")
        assert state["calls"] == 3
        assert info.value.attempts == 3
        assert info.value.key == "victim"
        assert isinstance(info.value.cause, InjectedDNSFault)
        assert isinstance(info.value.__cause__, InjectedDNSFault)

    def test_non_repro_errors_propagate(self):
        def boom():
            raise TypeError("not a substrate failure")

        with pytest.raises(TypeError):
            call_with_retry(boom, attempts=5)

    def test_attempt_cell_published_per_attempt(self):
        cell = AttemptCell()
        seen = []

        def fn():
            seen.append(cell.value)
            if len(seen) < 3:
                raise InjectedDNSFault(DNS_SERVFAIL, "k")
            return None

        call_with_retry(fn, attempts=4, attempt_cell=cell)
        assert seen == [0, 1, 2]


class _Resolver:
    def __init__(self):
        self.calls = []
        self.ttl = 300

    def resolve(self, name):
        self.calls.append(name)
        return f"answer:{name}"


class _Dump:
    def __init__(self):
        self.calls = []

    def covering_entries(self, target):
        self.calls.append(str(target))
        return ["entry"]

    def __len__(self):
        return 7


class TestInjectors:
    def test_resolver_injects_then_delegates(self):
        plan = FaultPlan.from_rates({DNS_SERVFAIL: 1.0}, max_consecutive=2)
        cell = AttemptCell()
        seen = []
        real = _Resolver()
        faulty = FaultyResolver(real, plan, attempt=cell, on_fault=seen.append)
        name = "victim.example"
        failures = plan.failures_for(DNS_SERVFAIL, name)
        for attempt in range(failures):
            cell.value = attempt
            with pytest.raises(InjectedDNSFault):
                faulty.resolve(name)
        cell.value = failures
        assert faulty.resolve(name) == f"answer:{name}"
        assert real.calls == [name]
        assert seen == [DNS_SERVFAIL] * failures
        # untouched attributes delegate to the real resolver
        assert faulty.ttl == 300

    def test_healthy_site_passes_straight_through(self):
        plan = FaultPlan.from_rates({DNS_SERVFAIL: 0.0})
        faulty = FaultyResolver(_Resolver(), plan)
        assert faulty.resolve("fine.example") == "answer:fine.example"

    def test_dump_injects_on_covering_lookups(self):
        plan = FaultPlan.from_rates({DUMP_MISSING_ROUTE: 1.0},
                                    max_consecutive=1)
        cell = AttemptCell()
        real = _Dump()
        faulty = FaultyTableDump(real, plan, attempt=cell)
        cell.value = 0
        with pytest.raises(InjectedDumpFault):
            faulty.covering_entries("10.0.0.1")
        cell.value = 1
        assert faulty.covering_entries("10.0.0.1") == ["entry"]
        assert len(faulty) == 7

    def test_decisions_do_not_depend_on_wrapper_instance(self):
        # Two wrappers over the same plan make identical decisions —
        # the property that makes per-shard funnels safe.
        plan = FaultPlan.from_rates({DUMP_CORRUPT: 0.5}, seed=9)
        keys = [f"10.0.{i}.1" for i in range(50)]
        a = FaultyTableDump(_Dump(), plan, attempt=AttemptCell())
        b = FaultyTableDump(_Dump(), plan, attempt=AttemptCell())

        def outcomes(dump):
            result = []
            for key in keys:
                try:
                    dump.covering_entries(key)
                    result.append("ok")
                except InjectedDumpFault:
                    result.append("fault")
            return result

        assert outcomes(a) == outcomes(b)
        assert "fault" in outcomes(a)
