"""Trace exporters: canonical JSONL, Chrome ``trace_event`` JSON, and a
terminal summary (DESIGN.md §10).

JSONL is the *canonical* serialization: one record per line,
``json.dumps(record, separators=(",", ":"))`` with the tracer's fixed
key insertion order.  Python's float repr is deterministic, so two runs
that produce equal record streams produce byte-identical files — the
property the golden-trace test locks down.

The Chrome export targets ``chrome://tracing`` / https://ui.perfetto.dev:
each job run becomes a duration ("X") slice on its first node's track,
faults become instant ("i") markers, and the :class:`TimeSeries`
cluster totals become counter ("C") tracks.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Iterator, List, Optional, Union

from repro.errors import SimulationError

from repro.obs.timeseries import TimeSeries

_SEPARATORS = (",", ":")


# -- canonical JSONL -------------------------------------------------------

def trace_lines(events: Iterable[dict]) -> Iterator[str]:
    """Canonical one-line serialization of each record (no newline)."""
    for event in events:
        yield json.dumps(event, separators=_SEPARATORS)


def write_jsonl(events: Iterable[dict], dest: Union[str, IO[str]]) -> int:
    """Write records as canonical JSONL; returns the record count."""
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8") as handle:
            return write_jsonl(events, handle)
    count = 0
    for line in trace_lines(events):
        dest.write(line)
        dest.write("\n")
        count += 1
    return count


def read_jsonl(source: Union[str, IO[str]]) -> List[dict]:
    """Load a JSONL trace back into its record list."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return read_jsonl(handle)
    events = []
    for line in source:
        line = line.strip()
        if line:
            events.append(json.loads(line))
    return events


# -- Chrome trace_event ----------------------------------------------------

def chrome_trace(
    events: Iterable[dict],
    timeseries: Optional[TimeSeries] = None,
) -> dict:
    """Convert a trace into Chrome ``trace_event`` JSON (dict form).

    Simulated seconds map to trace microseconds.  Jobs appear as
    duration slices named ``job <id> (<program>)`` with the placement
    shape in ``args``; a job evicted mid-run gets a slice ending at the
    eviction instant.  The single ``pid`` 0 keeps everything on one
    process track group; ``tid`` is the job's first placed node so
    co-located jobs stack visually on the same row.
    """
    records: List[dict] = []
    meta: Optional[dict] = None
    # Open runs: job id -> start record.  Only ``submit`` records name
    # the program.
    open_runs = {}
    programs = {}
    last_t = 0.0
    for event in events:
        kind = event["ev"]
        t = event.get("t", 0.0)
        last_t = max(last_t, t)
        if kind == "meta":
            meta = event
        elif kind == "submit":
            programs[event["job"]] = event["program"]
        elif kind == "start":
            open_runs[event["job"]] = event
        elif kind in ("finish", "evict"):
            start = open_runs.pop(event["job"], None)
            if start is None:
                continue
            records.append({
                "name": f"job {event['job']} ({programs[event['job']]})",
                "ph": "X", "pid": 0, "tid": start["nodes"][0],
                "ts": start["t"] * 1e6, "dur": (t - start["t"]) * 1e6,
                "args": {
                    "scale": start["scale"], "n_nodes": start["n_nodes"],
                    "ways": start["ways"], "bw": start["bw"],
                    "wait": start["wait"], "degraded": start["degraded"],
                    "partners": start["partners"],
                    "outcome": kind,
                },
            })
        elif kind in ("node_fail", "node_recover"):
            records.append({
                "name": kind, "ph": "i", "pid": 0, "tid": event["node"],
                "ts": t * 1e6, "s": "t",
            })
        elif kind in ("profile_down", "profile_up", "job_failed"):
            records.append({
                "name": kind, "ph": "i", "pid": 0, "tid": 0,
                "ts": t * 1e6, "s": "g",
            })
    # Runs still open at the end of the trace (shouldn't happen for a
    # completed simulation) get zero-length slices so nothing is lost.
    for job_id, start in sorted(open_runs.items()):
        records.append({
            "name": f"job {job_id} ({programs[job_id]})",
            "ph": "X", "pid": 0, "tid": start["nodes"][0],
            "ts": start["t"] * 1e6, "dur": (last_t - start["t"]) * 1e6,
            "args": {"outcome": "open"},
        })
    if timeseries is not None:
        records.extend(timeseries.chrome_counters(pid=0))
    out = {"traceEvents": records, "displayTimeUnit": "ms"}
    if meta is not None:
        out["otherData"] = {
            "policy": meta["policy"], "nodes": meta["nodes"],
            "jobs": meta["jobs"],
        }
    return out


def write_chrome_trace(
    events: Iterable[dict],
    dest: str,
    timeseries: Optional[TimeSeries] = None,
) -> int:
    """Write the Chrome JSON file; returns the traceEvents count."""
    payload = chrome_trace(events, timeseries)
    with open(dest, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=_SEPARATORS)
    return len(payload["traceEvents"])


# -- terminal summary ------------------------------------------------------

def summarize(
    events: Iterable[dict],
    timeseries: Optional[TimeSeries] = None,
) -> str:
    """Human-readable digest of a trace for the terminal."""
    events = list(events)
    if not events:
        raise SimulationError("cannot summarize an empty trace")
    meta = events[0] if events[0]["ev"] == "meta" else None
    counts: dict = {}
    waits: List[float] = []
    degraded = 0
    shared = 0
    lost = 0.0
    for event in events:
        kind = event["ev"]
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "start":
            waits.append(event["wait"])
            degraded += bool(event["degraded"])
            shared += bool(event["partners"])
        elif kind == "evict":
            lost += event["lost_node_s"]
    # The meta record is deliberately level-free (decision-stream
    # byte-stability), so infer the level from what was recorded.
    if "batch" in counts or "speed" in counts:
        level = "full"
    elif "sched" in counts:
        level = "events"
    else:
        level = "decisions"
    lines = []
    if meta is not None:
        lines.append(
            f"trace: {meta['policy']} on {meta['nodes']} nodes, "
            f"{meta['jobs']} jobs (level={level})"
        )
    span = max(e.get("t", 0.0) for e in events)
    lines.append(f"span: {span:.2f}s simulated, {len(events)} records")
    order = ("submit", "start", "finish", "evict", "job_failed",
             "node_fail", "node_recover", "profile_down", "profile_up",
             "sched", "batch", "speed")
    parts = [f"{k}={counts[k]}" for k in order if k in counts]
    lines.append("records: " + " ".join(parts))
    if waits:
        lines.append(
            f"placements: {len(waits)} starts, mean wait "
            f"{sum(waits) / len(waits):.2f}s, {shared} co-located, "
            f"{degraded} degraded"
        )
    if counts.get("evict"):
        lines.append(
            f"faults: {counts.get('node_fail', 0)} node failures, "
            f"{counts['evict']} evictions, {lost:.1f} node-s lost"
        )
    if timeseries is not None and len(timeseries):
        ts_summary = timeseries.summary()
        lines.append(
            f"gauges ({len(timeseries)} samples, stride "
            f"{timeseries.stride}): " + " ".join(
                f"{ch}[mean={st['mean']:.1f} peak={st['peak']:.1f}]"
                for ch, st in ts_summary.items()
            )
        )
    return "\n".join(lines)
