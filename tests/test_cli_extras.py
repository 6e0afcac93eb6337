"""CLI extras: quick mode and extension experiments."""

import pytest

from repro.cli import main


class TestQuickMode:
    def test_quick_runs_reduced_fig14(self, capsys):
        assert main(["run", "fig14", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "mean gain over CE" in out
        # The reduced configuration runs 12 sequences, not 36.
        assert out.count("\n") < 60

    def test_quick_on_fast_experiment_notes_and_runs(self, capsys):
        assert main(["run", "fig3", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "no reduced mode" in out
        assert "saturation" in out


class TestExtensionExperiments:
    def test_online_via_cli(self, capsys):
        assert main(["run", "online"]) == 0
        out = capsys.readouterr().out
        assert "converged" in out

    def test_ablations_via_cli(self, capsys):
        assert main(["run", "ablations"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "mba" in out

    def test_fragmentation_via_cli(self, capsys):
        assert main(["run", "fragmentation"]) == 0
        assert "idle-while-queued" in capsys.readouterr().out

    def test_list_includes_extensions(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp in ("online", "ablations", "baselines", "fragmentation"):
            assert exp in out


class TestTraceFlags:
    def test_simulate_writes_jsonl_and_chrome(self, capsys, tmp_path):
        import json

        from repro.obs import read_jsonl, verify_trace

        jsonl = tmp_path / "run.jsonl"
        chrome = tmp_path / "run.json"
        assert main([
            "simulate", "--policy", "SNS", "--nodes", "4", "--jobs", "6",
            "--trace", str(jsonl), "--trace-chrome", str(chrome),
            "--trace-level", "full",
        ]) == 0
        out = capsys.readouterr().out
        assert "trace records" in out
        assert "Chrome trace" in out
        assert "gauges" in out  # terminal summary printed
        events = read_jsonl(str(jsonl))
        verify_trace(events, label="cli")
        payload = json.loads(chrome.read_text())
        assert payload["traceEvents"]
        assert payload["otherData"]["policy"] == "SpreadNShareScheduler"

    def test_chrome_slices_name_their_programs(self):
        """Only ``submit`` records carry the program, so the export must
        take each slice's program from its job's submission."""
        from repro.config import SimConfig, TraceConfig
        from repro.experiments.common import run_policy
        from repro.hardware.topology import ClusterSpec
        from repro.obs.export import chrome_trace
        from repro.workloads.sequences import random_sequence

        jobs = random_sequence(seed=3, n_jobs=3)
        result = run_policy(
            "SNS", ClusterSpec(num_nodes=4), jobs,
            sim_config=SimConfig(trace=TraceConfig(level="decisions")),
        )
        names = sorted(r["name"] for r in
                       chrome_trace(result.trace.events)["traceEvents"]
                       if r["ph"] == "X")
        assert names == sorted(f"job {j.job_id} ({j.program.name})"
                               for j in jobs)

    def test_trace_with_faults_replays_clean(self, capsys, tmp_path):
        from repro.obs import read_jsonl, verify_trace

        jsonl = tmp_path / "faults.jsonl"
        assert main([
            "simulate", "--policy", "CE", "--nodes", "4", "--jobs", "6",
            "--faults", "mtbf=400,mttr=60,seed=2,horizon=1200",
            "--trace", str(jsonl),
        ]) == 0
        events = read_jsonl(str(jsonl))
        verify_trace(events, label="cli-faults")

    def test_untraced_simulate_prints_no_trace_output(self, capsys):
        assert main(["simulate", "--policy", "CE", "--nodes", "2",
                     "--jobs", "3"]) == 0
        out = capsys.readouterr().out
        assert "trace" not in out
