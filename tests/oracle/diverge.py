"""Readable reports of where two decision traces part ways."""

from __future__ import annotations

import json
from typing import Optional, Sequence


def first_divergence(fast: Sequence[str],
                     oracle: Sequence[str]) -> Optional[str]:
    """``None`` when the canonical JSONL lines agree; otherwise the
    first differing record's index, event time and job, with both
    records side by side."""
    for i, (a, b) in enumerate(zip(fast, oracle)):
        if a != b:
            rec = json.loads(a)
            return (f"record {i} (t={rec.get('t')!r}, "
                    f"job={rec.get('job')}):\n"
                    f"  fast path: {a}\n"
                    f"  oracle:    {b}")
    if len(fast) == len(oracle):
        return None
    i = min(len(fast), len(oracle))
    longer, name = (fast, "fast path") if len(fast) > i \
        else (oracle, "oracle")
    rec = json.loads(longer[i])
    return (f"record {i} (t={rec.get('t')!r}, job={rec.get('job')}): "
            f"only the {name} goes on ({len(fast)} fast-path records, "
            f"{len(oracle)} oracle records):\n"
            f"  {name}: {longer[i]}")


def divergence_report(fast: Sequence[str], oracle: Sequence[str],
                      mismatches: Sequence = ()) -> Optional[str]:
    """The first trace divergence, else the first refresh whose order
    or speeds disagree (see :class:`~tests.oracle.sim.Mismatch`), else
    ``None``."""
    report = first_divergence(fast, oracle)
    if report is None and mismatches:
        report = f"decision traces agree, but {mismatches[0]}"
    return report
