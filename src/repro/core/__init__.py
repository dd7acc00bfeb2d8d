"""The paper's contribution: WCET-safe prefetch insertion.

Entry point::

    from repro.core import optimize, OptimizerOptions

    optimized, report = optimize(cfg, cache_config, timing)
    assert report.tau_final <= report.tau_original        # Theorem 1
"""

from repro.core.guarantees import (
    GuaranteeCheck,
    find_undercharged_references,
    verify_effectiveness,
    verify_prefetch_equivalence,
    verify_wcet_guarantee,
)
from repro.core.join import select_join_predecessor
from repro.core.optimizer import (
    InsertedPrefetch,
    OptimizationReport,
    OptimizerOptions,
    TAU_EPSILON,
    optimize,
)
from repro.core.profit import ProfitTerms, estimate_profit, min_path_slack
from repro.core.relocation import (
    InsertionPoint,
    insertion_point_after,
    moved_blocks,
    relocation_cost,
)
from repro.core.update import (
    EvictionEvent,
    PrefetchCandidateEvent,
    apply_update,
    collect_optimization_states,
    collect_reverse_events,
)

__all__ = [
    "EvictionEvent",
    "PrefetchCandidateEvent",
    "collect_reverse_events",
    "find_undercharged_references",
    "GuaranteeCheck",
    "InsertedPrefetch",
    "InsertionPoint",
    "OptimizationReport",
    "OptimizerOptions",
    "ProfitTerms",
    "TAU_EPSILON",
    "apply_update",
    "collect_optimization_states",
    "estimate_profit",
    "insertion_point_after",
    "min_path_slack",
    "moved_blocks",
    "optimize",
    "relocation_cost",
    "select_join_predecessor",
    "verify_effectiveness",
    "verify_prefetch_equivalence",
    "verify_wcet_guarantee",
]
