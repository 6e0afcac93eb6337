"""Configuration validation."""

import functools

import pytest

from repro.config import SchedulerConfig, SimConfig, TraceConfig
from repro.errors import ConfigError
from repro.hardware.node_spec import NodeSpec


class TestSchedulerConfig:
    def test_paper_defaults(self):
        config = SchedulerConfig()
        assert config.default_alpha == 0.9       # Section 4.3
        assert config.beta == 2.0                # Section 4.4
        assert config.candidate_scales == (1, 2, 4, 8)  # Section 5.1
        assert NodeSpec().cache.min_ways == 2    # Section 5.1

    @pytest.mark.parametrize("kwargs", [
        {"default_alpha": 0.0},
        {"default_alpha": 1.5},
        {"beta": -1.0},
        {"candidate_scales": ()},
        {"candidate_scales": (0, 1)},
        {"candidate_scales": (4, 2, 1)},
        {"age_limit": 0},
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
    # The associativity floor is the node's ``CacheModel.min_ways``.
    with pytest.raises(TypeError):
        SchedulerConfig(min_ways=2)


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

    #: Definitions that only tests call on purpose, each with its reason.
    TEST_ONLY = {
        "ClusterState.verify_index":
            "test hook: rebuilds the free-core index and compares",
        "ClusterState.verify_columns":
            "test hook: rebuilds the per-mix columns and compares",
        "ClusterState.gauge_columns":
            "test hook: live gauges the trace-replayed series must match",
        "ClusterState.arbitration":
            "test hook: one node's arbitration view, read by kernel tests",
        "ClusterState.idle_nodes":
            "test hook: asserts which nodes are idle after a transition",
        "ClusterState.is_down":
            "test hook: asserts a node's fault state",
        "ClusterState.down_nodes":
            "test hook: asserts the set of failed nodes",
        "ClusterState.resident_jobs_on":
            "test hook: the jobs resident on given nodes",
        "Job.set_speed":
            "scalar physics RunningTable.retime's bit-identity tests use",
        "Job.projected_finish":
            "scalar physics RunningTable.retime's bit-identity tests use",
    }

    def test_policies_only_propose(self):
        """Policies are read-only on the cluster: under ``scheduling/``
        the one ``place_slices`` call is ``BaseScheduler._commit``'s,
        and nothing removes slices or fails or recovers a node."""
        import ast

        mutators = {"place_slices", "remove_slices", "fail_node",
                    "recover_node"}

        def calls(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    inner = scope + (child.name,)
                elif isinstance(child, ast.Call):
                    fn = child.func
                    name = getattr(fn, "attr", getattr(fn, "id", None))
                    if name in mutators:
                        yield ".".join(scope), name
                yield from calls(child, inner)

        found = [
            (where.name, scope, name)
            for where, tree in _src_modules()
            if where.parent.name == "scheduling"
            for scope, name in calls(tree, ())
        ]
        assert found == [("base.py", "BaseScheduler._commit",
                           "place_slices")]

    #: Constants and dataclass fields that only tests read on purpose.
    TEST_ONLY_DATA = {
        "Fig17Result.episode_seconds":
            "result record: the episode length the harness returns with "
            "its matrix",
        "RatioPoint.target_ratio":
            "result record: the ratio each sweep point was asked for",
    }

    def test_no_definition_is_test_only(self):
        """Every top-level function, class and method in ``src/repro``
        has a reference in code outside ``tests/``: a name, attribute,
        keyword or imported name, or an identifier-string constant
        (lazy export tables, wraps by name); docstrings do not count.
        The allowlist above is the complete set of exceptions."""
        import ast

        used = _references()["used"]
        funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
        test_only = {}
        for where, tree in _src_modules():
            for node in tree.body:
                if not isinstance(node, funcs + (ast.ClassDef,)):
                    continue
                members = [(node.name, node.name)]
                if isinstance(node, ast.ClassDef):
                    members += [(sub.name, f"{node.name}.{sub.name}")
                                for sub in node.body
                                if isinstance(sub, funcs)]
                for name, qualname in members:
                    dunder = name.startswith("__") and name.endswith("__")
                    if not dunder and name not in used:
                        test_only[qualname] = f"{where}: {qualname}"
        _assert_only_allowlisted(test_only, self.TEST_ONLY)

    def test_no_constant_or_field_is_test_only(self):
        """Every module-level constant (an ``UPPER_CASE`` assignment)
        and every public dataclass field in ``src/repro`` is read by
        code outside ``tests/``.  A constant's read is a loaded name,
        attribute or imported name, or an identifier string.  A field's
        read is a loaded attribute or an identifier string; a keyword
        argument only writes it, and ``self.<field>`` inside a
        ``__post_init__`` (its own validation) does not count."""
        import ast
        import re

        refs = _references()
        constant = re.compile(r"_?[A-Z][A-Z0-9_]*$")

        def is_dataclass(cls):
            for deco in cls.decorator_list:
                fn = deco.func if isinstance(deco, ast.Call) else deco
                if getattr(fn, "id", getattr(fn, "attr", None)) == \
                        "dataclass":
                    return True
            return False

        test_only = {}
        for where, tree in _src_modules():
            for node in tree.body:
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) \
                        else [node.target]
                    for target in targets:
                        name = getattr(target, "id", "")
                        if constant.match(name) and name not in refs["read"]:
                            test_only[name] = f"{where}: {name}"
                elif isinstance(node, ast.ClassDef) and is_dataclass(node):
                    for sub in node.body:
                        if (isinstance(sub, ast.AnnAssign)
                                and isinstance(sub.target, ast.Name)
                                and not sub.target.id.startswith("_")
                                and "ClassVar" not in
                                ast.unparse(sub.annotation)
                                and sub.target.id not in refs["fields"]):
                            qualname = f"{node.name}.{sub.target.id}"
                            test_only[qualname] = f"{where}: {qualname}"
        _assert_only_allowlisted(test_only, self.TEST_ONLY_DATA)


def _src_modules():
    """``(path relative to the repo, parsed module)`` of every module
    of ``src/repro``."""
    import ast
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        yield path.relative_to(root), ast.parse(path.read_text())


@functools.lru_cache(maxsize=None)
def _references() -> dict:
    """The identifiers code outside ``tests/`` refers to: ``used``
    holds every name, attribute, keyword, imported name and
    identifier-string constant (docstrings excluded); ``read`` drops
    stored names, attributes and keywords from it; ``fields`` is the
    attributes loaded outside any ``__post_init__``'s ``self.<name>``,
    plus the identifier strings."""
    import ast
    from pathlib import Path

    def docstrings(tree):
        kinds = (ast.Module, ast.ClassDef, ast.FunctionDef,
                 ast.AsyncFunctionDef)
        return {id(node.body[0].value) for node in ast.walk(tree)
                if isinstance(node, kinds) and node.body
                and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)}

    def own_checks(tree):
        return {id(attr) for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name == "__post_init__"
                for attr in ast.walk(node)
                if isinstance(attr, ast.Attribute)
                and getattr(attr.value, "id", None) == "self"}

    root = Path(__file__).resolve().parent.parent
    used, read, fields = set(), set(), set()
    for folder in ("src", "tools", "examples", "perfbench", "benchmarks"):
        for path in (root / folder).rglob("*.py"):
            tree = ast.parse(path.read_text())
            skip = docstrings(tree)
            checks = own_checks(tree)
            for node in ast.walk(tree):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    name = getattr(node, "id", None) or node.attr
                    used.add(name)
                    if not isinstance(node.ctx, ast.Store):
                        read.add(name)
                        if isinstance(node, ast.Attribute) \
                                and id(node) not in checks:
                            fields.add(name)
                elif isinstance(node, ast.keyword) and node.arg:
                    used.add(node.arg)
                elif isinstance(node, ast.alias):
                    names = node.name.split(".")
                    used.update(names)
                    read.update(names)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and node.value.isidentifier()
                      and id(node) not in skip):
                    for kind in (used, read, fields):
                        kind.add(node.value)
    return {"used": used, "read": read, "fields": fields}


def _assert_only_allowlisted(test_only: dict, allowlist: dict) -> None:
    unlisted = [test_only[q] for q in test_only if q not in allowlist]
    assert not unlisted, f"only tests reach {len(unlisted)}: " + \
        ", ".join(unlisted)
    # An allowlisted name that is gone or now read drops off the list.
    stale = sorted(set(allowlist) - set(test_only))
    assert not stale, f"stale allowlist entries: {stale}"
