"""Tests for the WCET-path solvers: structural DP and the IPET ILP.

The key property is that both backends compute the same optimum on any
program the builder can produce — the repo's substitute for validating
against a reference IPET implementation.  The run-by-run DP
(:func:`~repro.analysis.structural.solve_wcet_path_tables`) is also
held to :func:`solve_per_vertex`, the vertex-by-vertex recurrence it
replaced: ``best``, ``best_pred`` and the :class:`PathSolution` must be
equal, not approximately equal, cold and warm.
"""

from __future__ import annotations

import random
from typing import List, Sequence

import pytest

import repro.analysis.pipeline as pipeline_module
from repro.analysis.ipet import edge_list, solve_ipet
from repro.analysis.structural import (
    PathSolution,
    solve_wcet_path,
    solve_wcet_path_tables,
)
from repro.bench.generator import random_program
from repro.bench.registry import load, program_names
from repro.cache.config import CacheConfig
from repro.core.optimizer import OptimizerOptions, optimize
from repro.energy.cacti import cacti_model
from repro.energy.technology import technology
from repro.errors import AnalysisError
from repro.experiments.usecase import UseCase, pipeline_for_usecase
from repro.program.acfg import build_acfg, splice_insertion
from repro.program.builder import ProgramBuilder

K1 = CacheConfig(1, 16, 256)  # the paper's k1
K1_TIMING = cacti_model(K1, technology("45nm")).timing_model()


def solve_per_vertex(acfg, per_exec_time, warm=None):
    """The oracle: the WCET-path DP one vertex at a time.

    Same contract and results as
    :func:`~repro.analysis.structural.solve_wcet_path_tables`: every
    vertex takes the max over its predecessors (smallest rid among
    equals) and the path is walked back one ``best_pred`` at a time.
    """
    n = len(acfg)
    if len(per_exec_time) != n:
        raise AnalysisError(
            f"per_exec_time has {len(per_exec_time)} entries, ACFG has {n}"
        )
    weight = [per_exec_time[rid] * acfg.multiplier[rid] for rid in range(n)]
    best = [float("-inf")] * n
    best_pred = [-1] * n
    start = 0
    if warm is not None:
        boundary, base_best, base_best_pred = warm
        if 0 < boundary <= n and len(base_best) >= boundary and len(
            base_best_pred
        ) >= boundary:
            best[:boundary] = base_best[:boundary]
            best_pred[:boundary] = base_best_pred[:boundary]
            start = boundary
    if start == 0:
        best[acfg.source] = weight[acfg.source]
    for rid in range(start, n):
        if rid == acfg.source:
            continue
        preds = acfg.predecessors(rid)
        if not preds:
            raise AnalysisError(f"vertex {rid} has no predecessors")
        chosen = max(preds, key=lambda p: (best[p], -p))
        best[rid] = best[chosen] + weight[rid]
        best_pred[rid] = chosen

    path: List[int] = []
    cursor = acfg.sink
    while cursor != -1:
        path.append(cursor)
        cursor = best_pred[cursor]
    path.reverse()
    if path[0] != acfg.source:
        raise AnalysisError("WCET path does not start at the source")

    on_path = [False] * n
    for rid in path:
        on_path[rid] = True
    n_w = [acfg.multiplier[rid] if on_path[rid] else 0 for rid in range(n)]
    solution = PathSolution(
        objective=best[acfg.sink], n_w=n_w, on_path=on_path, path=path
    )
    return solution, best, best_pred


def assert_matches_oracle(acfg, times, warm=None):
    """The run-by-run DP equals the oracle exactly; returns its tables."""
    got = solve_wcet_path_tables(acfg, times, warm=warm)
    assert got == solve_per_vertex(acfg, times, warm=warm)
    return got


def uniform_times(acfg, ref_time=2.0):
    return [
        ref_time if instr is not None else 0.0 for instr in acfg.instr
    ]


class TestStructuralSolver:
    def test_straight_line_count(self, straight_program):
        acfg = build_acfg(straight_program, block_size=16)
        solution = solve_wcet_path(acfg, uniform_times(acfg))
        # every reference executes once: objective = 2 * ref_count
        assert solution.objective == 2.0 * acfg.ref_count

    def test_loop_counts_weighted_by_bound(self):
        b = ProgramBuilder("p")
        with b.loop(bound=10):
            b.code(1)
        cfg = b.build()
        acfg = build_acfg(cfg, block_size=16)
        solution = solve_wcet_path(acfg, uniform_times(acfg, 1.0))
        # entry(2) + exit(1) + body(3 instrs incl latch) x 10
        assert solution.objective == 2 + 1 + 3 * 10

    def test_branch_takes_worse_arm(self):
        b = ProgramBuilder("p")
        with b.if_else() as arms:
            with arms.then_():
                b.code(2)
            with arms.else_():
                b.code(9)
        cfg = b.build()
        acfg = build_acfg(cfg, block_size=16)
        solution = solve_wcet_path(acfg, uniform_times(acfg, 1.0))
        # entry 2 + cond branch 1 + worse arm 9 + exit 1
        assert solution.objective == 2 + 1 + 9 + 1

    def test_switch_takes_largest_case(self):
        b = ProgramBuilder("p")
        with b.switch() as sw:
            for size in (1, 5, 3):
                with sw.case():
                    b.code(size)
        cfg = b.build()
        acfg = build_acfg(cfg, block_size=16)
        solution = solve_wcet_path(acfg, uniform_times(acfg, 1.0))
        # entry 2 + selector 1 + (5 + break jump 1) + exit 1
        assert solution.objective == 2 + 1 + 6 + 1

    def test_nested_loop_multiplies_counts(self):
        b = ProgramBuilder("p")
        with b.loop(bound=3):
            with b.loop(bound=4):
                b.code(1)
        cfg = b.build()
        acfg = build_acfg(cfg, block_size=16)
        solution = solve_wcet_path(acfg, uniform_times(acfg, 1.0))
        # inner body (1+2 latch) runs 3*4, inner... outer latch 2 runs 3
        assert solution.objective == 2 + 1 + 3 * (4 * 3 + 2)

    def test_path_is_contiguous(self, nested_program):
        acfg = build_acfg(nested_program, block_size=16)
        solution = solve_wcet_path(acfg, uniform_times(acfg))
        for a, b2 in zip(solution.path, solution.path[1:]):
            assert b2 in acfg.successors(a)

    def test_counts_zero_off_path(self, loop_program):
        acfg = build_acfg(loop_program, block_size=16)
        solution = solve_wcet_path(acfg, uniform_times(acfg))
        for rid in range(len(acfg)):
            if not solution.on_path[rid]:
                assert solution.n_w[rid] == 0

    def test_time_vector_length_checked(self, loop_program):
        acfg = build_acfg(loop_program, block_size=16)
        with pytest.raises(AnalysisError):
            solve_wcet_path(acfg, [1.0])


class TestILPBackend:
    def test_edge_list_covers_all_edges(self, loop_program):
        acfg = build_acfg(loop_program, block_size=16)
        edges = edge_list(acfg)
        assert len(edges) == sum(
            len(acfg.successors(rid)) for rid in range(len(acfg))
        )

    def test_flow_is_single_path(self, loop_program):
        acfg = build_acfg(loop_program, block_size=16)
        solution = solve_ipet(acfg, uniform_times(acfg))
        edges = edge_list(acfg)
        out_flow = {}
        for idx, (src, _) in enumerate(edges):
            out_flow[src] = out_flow.get(src, 0) + solution.edge_flow[idx]
        assert out_flow[acfg.source] == 1

    def test_time_vector_length_checked(self, loop_program):
        acfg = build_acfg(loop_program, block_size=16)
        with pytest.raises(AnalysisError):
            solve_ipet(acfg, [0.0])


class TestBackendEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_structural_equals_ilp_on_random_programs(self, seed):
        cfg = random_program(seed + 500, target_size=70)
        acfg = build_acfg(cfg, block_size=16)
        # non-uniform weights to exercise arm selection
        times = [
            (1.0 + (rid % 7)) if instr is not None else 0.0
            for rid, instr in enumerate(acfg.instr)
        ]
        structural = solve_wcet_path(acfg, times)
        ilp = solve_ipet(acfg, times)
        assert structural.objective == pytest.approx(ilp.objective)

    @pytest.mark.parametrize("seed", range(5))
    def test_equivalence_with_fixture_programs(
        self, seed, loop_program, nested_program
    ):
        for cfg in (loop_program, nested_program):
            acfg = build_acfg(cfg, block_size=16)
            times = [
                (seed + 1.0) if instr is not None else 0.0
                for instr in acfg.instr
            ]
            assert solve_wcet_path(acfg, times).objective == pytest.approx(
                solve_ipet(acfg, times).objective
            )


class _Dag:
    """A bare predecessor-list DAG with the fields the DP reads: source
    0, sink last, edges ascending.  Its runs are derived here from the
    definition (a head is any vertex not fed by exactly ``rid - 1``),
    independently of :meth:`~repro.program.acfg.ACFG.run_ends`."""

    def __init__(self, preds: Sequence[Sequence[int]], multiplier=None):
        n = len(preds)
        self._pred = [tuple(p) for p in preds]
        self.multiplier = list(multiplier or [1] * n)
        self.source = 0
        self.sink = n - 1

    def __len__(self):
        return len(self._pred)

    def predecessors(self, rid):
        return self._pred[rid]

    def run_ends(self):
        n = len(self._pred)
        ends = [n] * n
        for rid in range(n - 2, -1, -1):
            head = self._pred[rid + 1] != (rid,)
            ends[rid] = rid + 1 if head else ends[rid + 1]
        return ends


#: Independent arms 1-2 and 3-4 rejoining at 5, then a tail to the sink.
DIAMOND = [(), (0,), (1,), (0,), (3,), (2, 4), (5,), (6,)]


class TestRunDPAgainstOracle:
    """Degenerate inputs, ties and warm boundaries on hand-made DAGs."""

    def test_equal_weight_arms_pick_the_smallest_rid(self):
        dag = _Dag(DIAMOND)
        times = [1.0] * len(DIAMOND)
        _, best, best_pred = assert_matches_oracle(dag, times)
        assert best[2] == best[4]
        assert best_pred[5] == 2

    def test_heavier_later_arm_wins(self):
        dag = _Dag(DIAMOND)
        times = [1.0, 1.0, 1.0, 1.0, 1.5, 0.0, 1.0, 0.0]
        solution, _, best_pred = assert_matches_oracle(dag, times)
        assert best_pred[5] == 4
        assert solution.path == [0, 3, 4, 5, 6, 7]

    def test_multipliers_weigh_the_path(self):
        dag = _Dag(DIAMOND, multiplier=[1, 1, 7, 1, 3, 1, 2, 1])
        times = [0.1, 0.3, 0.7, 0.2, 0.9, 0.0, 0.3, 0.0]
        solution, _, _ = assert_matches_oracle(dag, times)
        assert solution.n_w == [1, 1, 7, 0, 0, 1, 2, 1]

    def test_interior_best_pred_is_the_previous_rid(self):
        dag = _Dag([(), (0,), (1,), (2,), (3,)])
        _, best, best_pred = assert_matches_oracle(dag, [0.1] * 5)
        assert best_pred == [-1, 0, 1, 2, 3]
        assert best[4] == (((0.1 + 0.1) + 0.1) + 0.1) + 0.1

    def test_source_only_graph(self):
        solution, best, best_pred = assert_matches_oracle(_Dag([()]), [2.5])
        assert (solution.path, best, best_pred) == ([0], [2.5], [-1])

    def test_branch_right_after_the_source(self):
        # The source's run is {0, 1}; vertex 2 is a head fed by the
        # source alone.
        dag = _Dag([(), (0,), (0,), (1, 2)])
        solution, _, best_pred = assert_matches_oracle(dag, [1.0, 1.0, 3.0, 0.0])
        assert best_pred == [-1, 0, 0, 2]
        assert solution.path == [0, 2, 3]

    def test_head_without_predecessors_mid_graph(self):
        dag = _Dag([(), (0,), (), (1, 2)])
        for solve in (solve_wcet_path_tables, solve_per_vertex):
            with pytest.raises(AnalysisError, match="vertex 2 has no predecessors"):
                solve(dag, [1.0] * 4)

    def test_time_vector_length_message(self):
        dag = _Dag(DIAMOND)
        with pytest.raises(AnalysisError, match="per_exec_time has 3 entries"):
            solve_wcet_path_tables(dag, [1.0] * 3)

    @pytest.mark.parametrize("boundary", range(1, len(DIAMOND) + 1))
    def test_warm_boundary_anywhere(self, boundary):
        # Boundaries 2, 4 and 7 fall inside a run.
        dag = _Dag(DIAMOND)
        times = [1.0, 2.0, 1.0, 1.5, 1.5, 0.0, 1.0, 0.0]
        cold = assert_matches_oracle(dag, times)
        warm = assert_matches_oracle(dag, times, warm=(boundary, cold[1], cold[2]))
        assert warm == cold

    def test_unusable_warm_tables_run_cold(self):
        dag = _Dag(DIAMOND)
        times = [1.0] * len(DIAMOND)
        cold = assert_matches_oracle(dag, times)
        for boundary in (0, len(DIAMOND) + 1):
            warm = (boundary, cold[1], cold[2])
            assert assert_matches_oracle(dag, times, warm=warm) == cold
        assert assert_matches_oracle(dag, times, warm=(3, [0.0], [-1])) == cold


def _pipeline_times(program, config_id):
    case = UseCase(program, config_id, "45nm", None)
    analysis = pipeline_for_usecase(case, OptimizerOptions()).analyze(
        load(program)
    )
    return analysis.acfg, analysis.wcet.t_w


class TestMalardalenAgainstOracle:
    @pytest.mark.parametrize("config_id", ["k1", "k13"])
    @pytest.mark.parametrize("program", program_names())
    def test_cold(self, program, config_id):
        acfg, t_w = _pipeline_times(program, config_id)
        solution, _, _ = assert_matches_oracle(acfg, t_w)
        # The DP's objective is the IPET objective of its counts.
        assert solution.objective == pytest.approx(
            sum(t * n for t, n in zip(t_w, solution.n_w))
        )

    @pytest.mark.parametrize("program", ["fdct", "ndes", "adpcm"])
    def test_warm_from_every_boundary_of_a_splice_chain(self, program):
        # Weights keyed by instruction uid and context multiplier, so
        # every vertex below a splice's first changed rid keeps its
        # weight, as the warm-start contract requires; four distinct
        # values make equal-weight arms common.
        cfg = load(program)
        acfg = build_acfg(cfg, 16)
        rng = random.Random(program)
        target = cfg.blocks[-1].instructions[0].uid

        def times(graph):
            uids = graph.uid_arr.tolist()
            return [0.0 if uid < 0 else float(1 + uid % 4) for uid in uids]

        tables = assert_matches_oracle(acfg, times(acfg))
        for _ in range(4):
            block_name = rng.choice(sorted({
                acfg.block_name[rid] for rid in acfg.ref_rids
            }))
            index = rng.randint(0, len(cfg.block(block_name).instructions))
            cfg.insert_prefetch(block_name, index, target)
            acfg, first_changed = splice_insertion(acfg, cfg, block_name, index)
            t_w = times(acfg)
            cold = solve_per_vertex(acfg, t_w)
            for boundary in range(1, first_changed + 1):
                warm = (boundary, tables[1], tables[2])
                assert solve_wcet_path_tables(acfg, t_w, warm=warm) == cold
            tables = assert_matches_oracle(acfg, t_w)
            assert tables == cold

    def test_every_solve_of_an_optimizer_run(self, monkeypatch):
        # Each cold and warm IPET solve the pipeline makes while the
        # optimizer searches, checked against the oracle on its inputs.
        solves = []

        def checked(acfg, times, warm=None):
            solves.append(warm is not None)
            return assert_matches_oracle(acfg, times, warm=warm)

        monkeypatch.setattr(pipeline_module, "solve_wcet_path_tables", checked)
        options = OptimizerOptions(max_evaluations=25)
        for program in ("fdct", "ndes"):
            optimize(load(program), K1, K1_TIMING, options=options)
        assert True in solves and False in solves


@pytest.mark.slow
class TestGeneratedAgainstOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_program_non_uniform_weights(self, seed):
        cfg = random_program(seed + 900, target_size=90)
        acfg = build_acfg(cfg, block_size=16)
        rng = random.Random(seed)
        times = [
            rng.choice((0.5, 1.0, 1.0, 2.0, 3.25)) if instr is not None
            else 0.0
            for instr in acfg.instr
        ]
        solution, best, _ = assert_matches_oracle(acfg, times)
        for boundary in range(1, len(best) + 1, 7):
            cold = solve_per_vertex(acfg, times)
            warm = (boundary, cold[1], cold[2])
            assert solve_wcet_path_tables(acfg, times, warm=warm) == cold
        # The ILP checks the objective only: optimal paths may tie.
        assert solution.objective == pytest.approx(
            solve_ipet(acfg, times).objective
        )
