"""Observability layer: structured decision tracing, bounded-memory
time-series gauges, episode telemetry, exporters, and the trace
invariant checker (DESIGN.md §10).

Everything here is owned per-:class:`~repro.sim.runtime.Simulation` and
injected at construction — no process globals — and costs nothing when
disabled (the no-allocation contract checked by ``tests/test_telemetry.py``).
"""

from repro._lazy import lazy_namespace

# Lazy (DESIGN.md §12): importing the tracer does not load the exporters
# or the invariant checker.
__all__, __getattr__, __dir__ = lazy_namespace(globals(), {
    "repro.obs.export": ("chrome_trace", "read_jsonl", "summarize",
                         "trace_lines", "write_chrome_trace",
                         "write_jsonl"),
    "repro.obs.invariants": ("check_trace", "verify_trace"),
    "repro.obs.telemetry": ("TelemetryRecorder",),
    "repro.obs.timeseries": ("CHANNELS", "TimeSeries",
                             "timeseries_from_trace"),
    "repro.obs.trace": ("DECISION_KINDS", "TraceLevel", "Tracer",
                        "decision_stream", "parse_level"),
})
