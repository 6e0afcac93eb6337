"""CLI smoke tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp in ("fig1", "fig13", "fig20"):
            assert exp in out


_CENSUS = """
import contextlib, io, json, sys
import repro.cli

argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    if argv:
        assert repro.cli.main(argv) == 0
    else:
        import repro.experiments.fig13_scaleout
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith("repro.experiments."))))
"""


def _harnesses_loaded(argv):
    """The ``repro.experiments`` modules, registry aside, that a fresh
    interpreter holds after ``main(argv)`` (after importing fig13's
    harness alone when ``argv`` is empty)."""
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CENSUS, json.dumps(argv)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout)) - {"repro.experiments.registry"}


class TestImportCensus:
    """Each subcommand loads only the harness it runs."""

    def test_list_loads_no_harness(self):
        assert _harnesses_loaded(["list"]) == set()

    def test_run_loads_only_its_own_harness(self):
        own = _harnesses_loaded([])
        assert "repro.experiments.fig13_scaleout" in own
        assert _harnesses_loaded(["run", "fig13", "--quick"]) == own


class TestRun:
    @pytest.mark.parametrize("exp", ["fig2", "fig3", "fig5", "fig6", "fig7"])
    def test_runs_fast_experiments(self, exp, capsys):
        assert main(["run", exp]) == 0
        assert capsys.readouterr().out.strip()

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "fig99"]) == 1
        assert "unknown experiment" in capsys.readouterr().err


class TestProfile:
    def test_profiles_program(self, capsys):
        assert main(["profile", "CG"]) == 0
        out = capsys.readouterr().out
        assert "class=scaling" in out
        assert "ideal scale=2x" in out

    def test_rejects_unknown_program(self):
        with pytest.raises(SystemExit):
            main(["profile", "NOPE"])


class TestSimulate:
    @pytest.mark.parametrize("policy", ["CE", "CS", "SNS"])
    def test_simulates_each_policy(self, policy, capsys):
        assert main(["simulate", "--policy", policy, "--jobs", "6",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert out.count("job ") == 6

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
