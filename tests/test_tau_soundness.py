"""The WCET bound covers the measured time under the classic baseline.

For every Mälardalen program, the memory contribution of one simulated
run (``τ_a``) must not exceed the analysed bound (``τ_w``) of the same
executable on the same memory system.  Covered: the classic must/may
baseline on k1, k13, k25 and k1 with an L2, with and without the
model-checking refinement.  Each case is analysed once through its
use-case pipeline and the analysis is measured against every seed.

The persistence baseline stays out: its per-block first-miss charge is
known to undercharge (ROADMAP item 1).
"""

from __future__ import annotations

import pytest

from repro.bench.registry import load, program_names
from repro.core.optimizer import OptimizerOptions
from repro.experiments.usecase import (
    UseCase,
    measure_program,
    pipeline_for_usecase,
)

#: (Table 2 configuration, L2 spec): direct-mapped small, and two
#: larger set-associative shapes, single-level; plus a two-level k1.
MEMORY_SYSTEMS = (
    ("k1", None),
    ("k13", None),
    ("k25", None),
    ("k1", "4:16:4096:10"),
)


def _violations(program, seeds):
    """``(config, l2, refine, seed, τ_a, τ_w)`` of every run above its
    bound."""
    cfg = load(program)
    found = []
    for config_id, l2 in MEMORY_SYSTEMS:
        case = UseCase(program, config_id, "45nm", l2)
        for refine in (False, True):
            options = OptimizerOptions(with_persistence=False, refine=refine)
            pipeline = pipeline_for_usecase(case, options)
            analysis = pipeline.analyze(cfg)
            for seed in seeds:
                measured = measure_program(
                    cfg, case.cache_config(), case.tech, seed=seed,
                    pipeline=pipeline, l2=l2, analysis=analysis,
                )
                if measured.tau_a > measured.tau_w:
                    found.append((config_id, l2, refine, seed,
                                  measured.tau_a, measured.tau_w))
    return found


@pytest.mark.parametrize("program", program_names())
def test_classic_bound_covers_measured_time(program):
    assert _violations(program, seeds=(1,)) == []


@pytest.mark.slow
@pytest.mark.parametrize("program", program_names())
def test_classic_bound_covers_measured_time_across_seeds(program):
    assert _violations(program, seeds=(1, 2, 3)) == []
