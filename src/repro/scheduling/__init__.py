"""Scheduling policies: Compact-n-Exclusive, Compact-n-Share, Spread-n-Share.

All three run on the same age-based priority queue (the paper implements
them in one prototype scheduler with a common basic algorithm, Section
6.2); they differ in scale-factor choice, node-sharing, and resource
awareness:

========  =====  =======  ===========================================
policy    scale  mode     resource accounting
========  =====  =======  ===========================================
CE        1x     E        whole idle nodes only
CS        >=1x   S        cores only (lowest scale currently possible)
SNS       auto   S        cores + LLC ways + memory bandwidth,
                          profile-driven, CAT actuation
========  =====  =======  ===========================================
"""

from repro._lazy import lazy_namespace

# Lazy (DESIGN.md §12): a master runs one policy and loads only its module.
__all__, _lazy_getattr, __dir__ = lazy_namespace(globals(), {
    "repro.scheduling.base": ("BaseScheduler",),
    "repro.scheduling.demand": ("ResourceDemand", "estimate_demand"),
    "repro.scheduling.placement": ("find_nodes", "split_procs"),
    "repro.scheduling.ce": ("CompactExclusiveScheduler",),
    "repro.scheduling.backfill": ("CompactExclusiveBackfillScheduler",),
    "repro.scheduling.cs": ("CompactShareScheduler",),
    "repro.scheduling.sns": ("SpreadNShareScheduler",),
    "repro.scheduling.online_sns": ("OnlineSpreadNShareScheduler",),
})
__all__.append("POLICIES")

#: Class name of each policy compared throughout the evaluation ("CE-BF"
#: is the extra EASY-backfilling baseline beyond the paper's trio).
#: Every policy constructs through the uniform ``(cluster_spec, config,
#: *, database=None)`` signature.  ``POLICIES`` (name -> class) is built
#: on first read; harnesses that run one policy resolve it with
#: :func:`policy_class` (see ``Simulation.from_policy_name``).
_POLICY_CLASSES = {
    "CE": "CompactExclusiveScheduler",
    "CE-BF": "CompactExclusiveBackfillScheduler",
    "CS": "CompactShareScheduler",
    "SNS": "SpreadNShareScheduler",
}


def policy_class(name: str) -> type:
    """The policy class registered under ``name``, importing only its
    module; unknown names raise ``KeyError``."""
    return _lazy_getattr(_POLICY_CLASSES[name])


def __getattr__(name: str) -> object:
    if name != "POLICIES":
        return _lazy_getattr(name)
    policies = {key: policy_class(key) for key in _POLICY_CLASSES}
    globals()["POLICIES"] = policies
    return policies
