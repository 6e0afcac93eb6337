"""A test-only reference simulator, independent of the fast path.

:mod:`tests.oracle.sim` replays CE, CS and SNS from plain per-node
dicts and the scalar physics; :mod:`tests.oracle.diverge` names the
first record where its decision trace and the fast path's differ.
Nothing here imports the fast path's cluster, node, runtime, running
table, event queue, policies or batched kernels (``tests/test_oracle.py``
checks the imports).
"""

from tests.oracle.diverge import divergence_report, first_divergence
from tests.oracle.sim import (
    POLICY_NAMES,
    OracleRun,
    bookings_from_meta,
    node_view,
    run_oracle,
)

__all__ = [
    "POLICY_NAMES",
    "OracleRun",
    "bookings_from_meta",
    "divergence_report",
    "first_divergence",
    "node_view",
    "run_oracle",
]
