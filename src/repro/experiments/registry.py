"""Registry mapping experiment ids to (runner, formatter) pairs, used by
the CLI (``python -m repro run-experiment <id>``).

The table names each harness module and its functions rather than
importing them, so listing the experiments loads no harness; only
:func:`get_experiment` imports the one harness it resolves.
"""

from __future__ import annotations

import importlib
from types import ModuleType
from typing import Callable, Dict, NamedTuple, Union

from repro.errors import ReproError


class Experiment(NamedTuple):
    description: str
    run: Callable[..., object]
    render: Callable[[object], str]
    #: kwargs for a reduced run (`repro-sns run --quick`); empty when the
    #: full experiment is already fast.
    quick_kwargs: dict = {}
    #: whether ``run`` accepts ``jobs=N`` for process-parallel grids
    #: (`repro-sns run --jobs N`); see repro.experiments.parallel.
    parallel: bool = False


class _Entry(NamedTuple):
    description: str
    #: harness module under ``repro.experiments``
    module: str
    run: str
    render: str
    #: :attr:`Experiment.quick_kwargs`, or a function of the imported
    #: harness module that builds them
    quick_kwargs: Union[dict, Callable[[ModuleType], dict]] = {}
    parallel: bool = False


def _fig20_quick(harness: ModuleType) -> dict:
    return {
        "cluster_sizes": (4096, 8192),
        "scaling_ratios": (0.9,),
        "trace_config": harness.smoke_trace_config(),
    }


EXPERIMENTS: Dict[str, _Entry] = {
    "fig1": _Entry(
        "motivating MG+HC+TS example (CE 3 nodes vs SNS 2 nodes)",
        "fig01_motivating", "run_fig01", "format_fig01",
    ),
    "fig2": _Entry(
        "scaling behaviour of 16-process runs",
        "fig02_scaling", "run_fig02", "format_fig02",
    ),
    "fig3": _Entry(
        "STREAM bandwidth vs core count",
        "fig03_stream", "run_fig03", "format_fig03",
    ),
    "fig4": _Entry(
        "per-node memory bandwidth by placement",
        "fig04_bandwidth", "run_fig04", "format_fig04",
    ),
    "fig5": _Entry(
        "LLC miss rate by placement",
        "fig05_missrate", "run_fig05", "format_fig05",
    ),
    "fig6": _Entry(
        "performance vs LLC way allocation",
        "fig06_cache_sensitivity", "run_fig06", "format_fig06",
    ),
    "fig7": _Entry(
        "computation/communication breakdown",
        "fig07_comm_breakdown", "run_fig07", "format_fig07",
    ),
    "fig12": _Entry(
        "cache sensitivity of the 12 test programs",
        "fig12_profiles", "run_fig12", "format_fig12",
    ),
    "fig13": _Entry(
        "speedup of scaling out + classification",
        "fig13_scaleout", "run_fig13", "format_fig13",
    ),
    "fig14": _Entry(
        "throughput on 36 random sequences (CE/CS/SNS)",
        "fig14_throughput", "run_fig14", "format_fig14",
        {"n_sequences": 12}, parallel=True,
    ),
    "fig15": _Entry(
        "sorted SNS/CE and SNS/CS throughput ratios",
        "fig15_relative", "run_fig15", "format_fig15",
        {"n_sequences": 12}, parallel=True,
    ),
    "fig16": _Entry(
        "normalized per-job runtimes + alpha violations",
        "fig16_runtime", "run_fig16", "format_fig16",
        {"n_sequences": 12}, parallel=True,
    ),
    "fig17": _Entry(
        "per-node bandwidth heat matrix (CE vs SNS)",
        "fig17_load_balance", "run_fig17", "format_fig17",
    ),
    "fig18": _Entry(
        "bandwidth histogram + variance",
        "fig18_histogram", "run_fig18", "format_fig18",
    ),
    "fig19": _Entry(
        "impact of the workload scaling ratio",
        "fig19_scaling_ratio", "run_fig19", "format_fig19",
    ),
    "fig20": _Entry(
        "Trinity-like trace on 4K..32K-node clusters",
        "fig20_large_cluster", "run_fig20", "format_fig20",
        _fig20_quick, parallel=True,
    ),
    "fig_oversub": _Entry(
        "leaf-spine oversubscription sweep (CE/CS/SNS +- locality)",
        "fig_oversub", "run_fig_oversub", "format_fig_oversub",
        {"oversub_ratios": (1.0, 4.0), "n_jobs": 40},
        parallel=True,
    ),
    "online": _Entry(
        "online-profiling convergence (piggybacked trial ladder)",
        "online_profiling", "run_convergence", "format_convergence",
    ),
    "ablations": _Entry(
        "ablate SNS design choices (beta, tolerance, residual share, MBA)",
        "ablations", "run_ablation", "format_ablation",
        parallel=True,
    ),
    "availability": _Entry(
        "MTBF sweep: makespan stretch and badput under node failures",
        "availability", "run_availability", "format_availability",
        {"n_sequences": 2, "mtbf_values": (5000.0,)},
    ),
    "baselines": _Entry(
        "four-way comparison incl. EASY-backfilled CE, with wide jobs",
        "baselines", "run_baselines", "format_baselines",
    ),
    "fragmentation": _Entry(
        "idle-while-queued core waste: the Fig 19 wait-time knee",
        "fragmentation", "run_fragmentation", "format_fragmentation",
    ),
}


def get_experiment(exp_id: str) -> Experiment:
    """Import ``exp_id``'s harness and resolve its runner, formatter
    and reduced-run kwargs."""
    try:
        entry = EXPERIMENTS[exp_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ReproError(
            f"unknown experiment {exp_id!r}; known: {known}"
        ) from None
    harness = importlib.import_module(f"repro.experiments.{entry.module}")
    quick = entry.quick_kwargs
    return Experiment(
        entry.description,
        getattr(harness, entry.run),
        getattr(harness, entry.render),
        quick(harness) if callable(quick) else quick,
        entry.parallel,
    )
