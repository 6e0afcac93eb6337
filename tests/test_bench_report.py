"""``tools/bench_report.py --oversub-gate`` against the committed
``fig-oversub`` entry: the fresh sweep must reproduce its makespans,
mean turnarounds and fabric counters exactly, and a mismatch exits 2
without touching the file."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
COMMITTED = ROOT / "BENCH_sim.json"


@pytest.fixture(scope="module")
def bench_report():
    spec = importlib.util.spec_from_file_location(
        "bench_report", ROOT / "tools" / "bench_report.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def sweep():
    """One fig_oversub sweep shared by every gate run below."""
    from repro.experiments.fig_oversub import run_fig_oversub

    return run_fig_oversub()


def _gate(bench_report, monkeypatch, sweep, path) -> int:
    import repro.experiments.fig_oversub as fig_oversub

    monkeypatch.setattr(fig_oversub, "run_fig_oversub", lambda: sweep)
    return bench_report.main(["--oversub-gate", "--output", str(path)])


def test_gate_reproduces_the_committed_entry(bench_report, monkeypatch,
                                             sweep, tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(COMMITTED.read_text())
    assert _gate(bench_report, monkeypatch, sweep, path) == 0
    written = json.loads(path.read_text())["fig-oversub"]["configs"]
    committed = json.loads(COMMITTED.read_text())["fig-oversub"]["configs"]
    assert written == committed


@pytest.mark.parametrize("field, delta", [
    ("makespan", 1000.0),
    ("mean_turnaround", 1e-9),
    ("fabric_link_refreshes", 1),
    ("fabric_route_evals", -1),
])
def test_gate_exits_2_on_a_diverging_committed_entry(
        bench_report, monkeypatch, sweep, tmp_path, field, delta):
    report = json.loads(COMMITTED.read_text())
    config = report["fig-oversub"]["configs"][-1]
    holder = config["counters"] if field in config["counters"] else config
    holder[field] += delta
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    before = path.read_text()
    assert _gate(bench_report, monkeypatch, sweep, path) == 2
    assert path.read_text() == before
