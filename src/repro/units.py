"""Physical units and platform constants used across the SNS reproduction.

All bandwidths are expressed in **GB/s** (10**9 bytes per second), cache
capacities in **MB**, and times in **seconds**, matching the units the
paper reports.  Keeping one canonical unit per quantity avoids silent
conversion bugs in the performance model.
"""

from __future__ import annotations

#: Bytes in one gigabyte (decimal, as used by STREAM and the paper).
GB = 10**9

#: Bytes in one megabyte (decimal).
MB = 10**6

#: Cache-line size in bytes (Intel Xeon E5 v4).
CACHE_LINE_BYTES = 64

# ---------------------------------------------------------------------------
# Reference platform: dual Intel Xeon E5-2680 v4 node (paper Section 6.1).
# ---------------------------------------------------------------------------

#: Physical cores per node (2 sockets x 14 cores).
REF_CORES_PER_NODE = 28

#: Last-level-cache ways available for CAT allocation.
REF_LLC_WAYS = 20

#: Aggregate LLC capacity per node in MB (35 MB per socket x 2, the paper
#: allocates the same way count on both sockets so we model the node's LLC
#: as one 70 MB / 20-way cache for job-level decisions).
REF_LLC_MB = 70.0

#: Node peak memory bandwidth in GB/s (STREAM with all 28 cores, Fig 3).
REF_NODE_PEAK_BW = 118.26

#: Single-core STREAM peak in GB/s (Fig 3).
REF_CORE_PEAK_BW = 18.80

#: Minimum LLC ways any job may receive; below 2 ways associativity loss
#: is catastrophic (Section 5.1).
MIN_LLC_WAYS = 2

#: Maximum number of disjoint CAT partitions per node (Section 5.1).
MAX_LLC_PARTITIONS = 16


def node_seconds(num_nodes: int, seconds: float) -> float:
    """Node-seconds consumed by ``num_nodes`` held for ``seconds``."""
    if num_nodes < 0 or seconds < 0:
        raise ValueError("node_seconds arguments must be non-negative")
    return num_nodes * seconds
