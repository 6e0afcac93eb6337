"""Configuration validation."""

import pytest

from repro.config import SchedulerConfig, SimConfig, TraceConfig
from repro.errors import ConfigError


class TestSchedulerConfig:
    def test_paper_defaults(self):
        config = SchedulerConfig()
        assert config.default_alpha == 0.9       # Section 4.3
        assert config.beta == 2.0                # Section 4.4
        assert config.candidate_scales == (1, 2, 4, 8)  # Section 5.1
        assert config.min_ways == 2              # Section 5.1

    @pytest.mark.parametrize("kwargs", [
        {"default_alpha": 0.0},
        {"default_alpha": 1.5},
        {"beta": -1.0},
        {"candidate_scales": ()},
        {"candidate_scales": (0, 1)},
        {"candidate_scales": (4, 2, 1)},
        {"age_limit": 0},
        {"min_ways": 0},
        {"bw_headroom": 0.0},
        {"bw_headroom": 1.5},
        {"max_queue_scan": 0},
        {"scale_tolerance": -0.1},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SchedulerConfig(**kwargs)

    def test_frozen(self):
        with pytest.raises(Exception):
            SchedulerConfig().beta = 3.0


class TestSimConfig:
    def test_defaults(self):
        config = SimConfig()
        # Observability is opt-in (DESIGN.md §10): no recorder, no
        # tracer unless asked for.
        assert not config.telemetry
        assert config.trace is None

    @pytest.mark.parametrize("kwargs", [
        {"max_sim_time": 0.0},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SimConfig(**kwargs)


class TestTraceConfig:
    def test_defaults(self):
        config = TraceConfig()
        assert config.level == "events"

    @pytest.mark.parametrize("kwargs", [
        {"level": "verbose"},
        {"level": ""},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            TraceConfig(**kwargs)

    def test_frozen(self):
        with pytest.raises(Exception):
            TraceConfig().level = "full"

    def test_carried_by_sim_config(self):
        config = SimConfig(trace=TraceConfig(level="full"))
        assert config.trace.level == "full"


def test_dead_knobs_are_gone():
    """Fields nothing read: Fig 17 passes its own episode length, and
    the gauge series is always derived at the default capacity."""
    with pytest.raises(TypeError):
        SimConfig(episode_seconds=30.0)
    with pytest.raises(TypeError):
        TraceConfig(timeseries_capacity=64)
    with pytest.raises(TypeError):
        TraceConfig(timeseries=False)


class TestPackageSurface:
    def test_public_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("package", [
        "repro", "repro.obs", "repro.profiling", "repro.scheduling",
        "repro.service", "repro.sim",
    ])
    def test_lazy_namespace_exports_resolve(self, package):
        """Every name in a lazy package's ``__all__`` resolves to the
        object it names, never to a same-named submodule, and is listed
        by ``dir()``; other names still raise ``AttributeError``."""
        import importlib
        import types

        module = importlib.import_module(package)
        for name in module.__all__:
            value = getattr(module, name)
            assert not isinstance(value, types.ModuleType), name
            assert name in dir(module), name
        with pytest.raises(AttributeError):
            getattr(module, "no_such_name")

    def test_from_import_and_policy_table(self):
        from repro import Simulation
        from repro.scheduling import POLICIES, policy_class
        from repro.sim.runtime import Simulation as defined

        assert Simulation is defined
        for name, cls in POLICIES.items():
            assert policy_class(name) is cls
        with pytest.raises(KeyError):
            policy_class("FIFO")

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_registry_covers_all_sixteen_figures(self):
        from repro.experiments.registry import EXPERIMENTS

        expected = {
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
            "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
            "fig18", "fig19", "fig20",
        }
        assert expected <= set(EXPERIMENTS)

    def test_registry_unknown_id(self):
        from repro.errors import ReproError
        from repro.experiments.registry import get_experiment

        with pytest.raises(ReproError):
            get_experiment("fig8")
