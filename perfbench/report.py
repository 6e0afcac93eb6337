#!/usr/bin/env python3
"""Print every benchmark metric for every workload in one command.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--workloads trinity-sns,...]

For each workload it makes one untraced run (the end-to-end metrics,
each with its unit, plus failed operations over attempted ones) and one
traced run (self time and share of wall per layer and span, which sum to
the traced wall with ``bench.unattributed``, and every count and ratio
with its base).  Each run is ``perfbench/run.py`` in a child process.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("trinity-sns", "trinity-ce-fabric", "service-sns")


def run(workload: str, seed: int, seconds: float, trace: int):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    lines = out.stdout.rstrip("\n").splitlines()
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    for workload in args.workloads.split(","):
        print(f"=== {workload} (seed {args.seed}) ===")
        _, res = run(workload, args.seed, args.seconds, 0)
        frac = res["failed"] / res["attempted"]
        print(f"end to end: correct={res['correct']} "
              f"failed_frac={frac:.4f} "
              f"({res['failed']} of {res['attempted']} operations)")
        for name, m in res["metrics"].items():
            print(f"  {name:16s} {m['value']:14.4f} {m['unit']}")
        notes, traced = run(workload, args.seed, args.seconds, 1)
        print(f"traced run: correct={traced['correct']} "
              f"({traced['failed']} of {traced['attempted']} failed)")
        for line in notes:
            print(line)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
