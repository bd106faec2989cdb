"""Public API surface: ``__all__`` audits and the RunConfig-only entry."""

import importlib
from pathlib import Path

import pytest

# Every package under src/repro: each declares a literal __all__.
SRC = Path(__file__).resolve().parents[1] / "src"
PUBLIC_MODULES = sorted(
    ".".join(init.parent.relative_to(SRC).parts)
    for init in (SRC / "repro").rglob("__init__.py")
)


class TestAllAudits:
    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_every_all_name_resolves(self, module_name):
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", None)
        assert exported, f"{module_name} must declare __all__"
        for name in exported:
            assert hasattr(module, name), (
                f"{module_name}.__all__ lists {name!r} "
                "but the module does not define it"
            )

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_all_has_no_duplicates(self, module_name):
        exported = importlib.import_module(module_name).__all__
        assert len(exported) == len(set(exported))

    def test_sink_types_are_public(self):
        import repro.core as core

        for name in ("CampaignSink", "TelemetrySink", "RtrSink"):
            assert name in core.__all__
        import repro.world as world

        assert "WorldSink" in world.__all__

    def test_world_surface_is_complete(self):
        import repro.world as world

        for name in (
            "WorldEngine", "WorldConfig", "WorldStep", "WorldSummary",
            "WorldEvent", "EventLedger", "RelyingPartyView",
            "WORLD_PROFILES", "world_plan",
        ):
            assert name in world.__all__


class TestRunConfigOnlyEntryPoint:
    def test_run_rejects_legacy_keywords(self, small_world):
        from repro.core import MeasurementStudy

        study = MeasurementStudy.from_ecosystem(small_world)
        with pytest.raises(TypeError):
            study.run(workers=2)
        with pytest.raises(TypeError, match="RunConfig"):
            study.run(lambda event: None)
