"""Cache substrate: configurations, concrete LRU model, abstract domains.

Typical use::

    from repro.cache import CacheConfig, TABLE2, ConcreteCache, analyze_cache

    config = TABLE2["k14"]            # (2, 16, 1024)
    cache = ConcreteCache(config)     # concrete simulation
    analysis = analyze_cache(acfg, config)   # static classification
"""

from repro.cache.abstract import (
    AbstractCacheState,
    MayState,
    MustState,
    SetLines,
    join_all,
)
from repro.cache.classify import (
    CacheAnalysis,
    Classification,
    DataflowResult,
    MAX_FIXPOINT_PASSES,
    UNKNOWN_ACCESS,
    analyze_cache,
    propagate,
)
from repro.cache.concrete import ConcreteCache
from repro.cache.kernel import (
    BlockUniverse,
    DenseDataflowResult,
    KERNEL_ENV,
    KernelSchedule,
    SegmentMemo,
    classify_references_dense,
    propagate_kernel_batch,
    resolve_kernel,
    row_to_state,
    state_to_row,
)
from repro.cache.persistence import PersistenceState
from repro.cache.config import (
    CAPACITIES,
    CacheConfig,
    TABLE2,
    config_id,
    configs_with_capacity,
)

__all__ = [
    "AbstractCacheState",
    "BlockUniverse",
    "CAPACITIES",
    "CacheAnalysis",
    "CacheConfig",
    "Classification",
    "ConcreteCache",
    "DataflowResult",
    "DenseDataflowResult",
    "KERNEL_ENV",
    "KernelSchedule",
    "MAX_FIXPOINT_PASSES",
    "MayState",
    "MustState",
    "PersistenceState",
    "SegmentMemo",
    "SetLines",
    "UNKNOWN_ACCESS",
    "TABLE2",
    "analyze_cache",
    "classify_references_dense",
    "config_id",
    "configs_with_capacity",
    "join_all",
    "propagate",
    "propagate_kernel_batch",
    "resolve_kernel",
    "row_to_state",
    "state_to_row",
]
