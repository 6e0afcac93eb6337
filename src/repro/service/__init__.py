"""Live scheduler service: the Uberun-style master/daemon split.

The batch simulator replays fixed traces; this package runs the same
:class:`~repro.sim.runtime.SchedulerCore` as a long-lived master that
accepts job submissions over TCP (JSON line protocol or minimal HTTP on
one auto-detected port) and advances simulated time only as submissions
arrive — wall-clock-decoupled streaming, bit-identical to a batch run
over the same arrival order.  See DESIGN.md §12.

Entry points: ``repro-sns serve`` / ``repro-sns submit`` (CLI),
:func:`serve_in_thread` (tests, loadgen), :class:`ServiceClient`.
"""

from repro._lazy import lazy_namespace

# Lazy (DESIGN.md §12): ``serve`` never loads the client.
__all__, __getattr__, __dir__ = lazy_namespace(globals(), {
    "repro.service.client": ("ServiceClient", "ServiceError"),
    "repro.service.master": ("SchedulerMaster", "ServiceHandle",
                             "serve_in_thread"),
})
