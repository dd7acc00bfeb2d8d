#!/usr/bin/env python3
"""Walkthrough of the paper's illustrative examples (Figures 1, 2, 6).

Reconstructs, on a cache small enough to print, what the paper shows in
its worked examples:

1. **Figure 1** — straight-line program on a 2-way set: the forward
   cache states at every program point, the reverse analysis detecting
   a replacement, and the resulting prefetch insertion.
2. **Figure 2** — a conditional: the conventional intersection join
   versus the prefetching join ``J_SE`` that propagates the WCET-path
   state.
3. **Figure 6** — a loop: the VIVU transformation instantiating the
   body in FIRST/REST contexts with the back edge broken.

Run:  python examples/paper_walkthrough.py
"""

from __future__ import annotations

from repro.analysis import TimingModel, analyze_wcet
from repro.cache import CacheConfig, MustState
from repro.core import (
    collect_optimization_states,
    collect_reverse_events,
    optimize,
    select_join_predecessor,
)
from repro.program import ProgramBuilder, build_acfg, context_label

# Toy latency: in a tiny 2-set cache most intervening blocks compete
# for the same sets, so the survivable prefetch window is only a couple
# of blocks ≈ a few hit-cycles; Λ = 3 keeps the example in the regime
# where insertion is possible (real configurations have 8-256 sets and
# correspondingly wide windows).
TIMING = TimingModel(hit_cycles=1, miss_penalty_cycles=3, prefetch_issue_cycles=1)


def show_state(state) -> str:
    parts = []
    for index in state.touched_sets():
        ages = [
            "{" + ",".join(f"s{b}" for b in sorted(entry)) + "}"
            for entry in state.lines(index)
        ]
        parts.append("[" + " ".join(ages) + "]")  # [MRU .. LRU]
    return " ".join(parts) or "[{} {}]  (all invalid)"


def figure1() -> None:
    print("=" * 72)
    print("Figure 1 — 2-way 64 B cache (2 sets), 8-block loop body")
    print("=" * 72)
    # The paper's Fig. 1 shows a short reference sequence revisiting
    # blocks; in a real address space revisits come from loops, so the
    # walkthrough uses a loop whose 8-block body cycles through a
    # 4-block cache — each iteration replaces blocks the next iteration
    # needs, which is exactly Property 3's trigger.
    config = CacheConfig(associativity=2, block_size=16, capacity=64)
    b = ProgramBuilder("fig1")
    with b.loop(bound=6):
        b.code(30)
    cfg = b.build()
    acfg = build_acfg(cfg, block_size=config.block_size)
    wcet = analyze_wcet(acfg, config, TIMING)

    print("\nforward states (first iteration; the right-hand side of Fig. 1a):")
    states, _ = collect_optimization_states(acfg, config, wcet.solution)
    shown = 0
    for rid in acfg.ref_rids:
        classification = wcet.cache.classification(rid)
        print(
            f"  r{rid:<3} block s{acfg.block_of(rid)}  "
            f"{classification.value:<3} state before: "
            f"{show_state(states[rid])}"
        )
        shown += 1
        if shown >= 14:
            print(f"  ... ({acfg.ref_count - shown} more references)")
            break

    print("\nreverse analysis (Fig. 1b): replacement points, sink -> source:")
    events = collect_reverse_events(acfg, config, wcet.solution)
    for event in events:
        where = (
            "program start"
            if event.insert_after_rid == acfg.source
            else f"after r{event.insert_after_rid}"
        )
        print(f"  prefetch candidate for s{event.dropped_block:<3} at {where}")

    optimized, report = optimize(cfg, config, TIMING)
    print(f"\noptimized program (Fig. 1c): {report.prefetch_count} prefetches, "
          f"τ_w {report.tau_original:.0f} -> {report.tau_final:.0f}, "
          f"worst-case misses {report.misses_original} -> {report.misses_final}")
    for record in report.inserted:
        print(f"  π for uid {record.target_uid} inserted at "
              f"{record.block_name}[{record.index}] "
              f"(slack {record.terms.slack:.0f} ≥ Λ={record.terms.latency:.0f})")


def figure2() -> None:
    print()
    print("=" * 72)
    print("Figure 2 — joins: conventional intersection vs J_SE")
    print("=" * 72)
    config = CacheConfig(associativity=2, block_size=16, capacity=32)
    b = ProgramBuilder("fig2")
    b.code(1)
    with b.if_else(taken_prob=0.5) as arms:
        with arms.then_():
            b.code(4)  # heavy arm: the WCET path
        with arms.else_():
            b.code(1)
    b.code(2)
    cfg = b.build()
    acfg = build_acfg(cfg, block_size=config.block_size)
    wcet = analyze_wcet(acfg, config, TIMING)

    join = next(rid for rid in range(len(acfg)) if acfg.is_join(rid))
    preds = acfg.predecessors(join)
    states, _ = collect_optimization_states(acfg, config, wcet.solution)

    must_states = {}
    for pred in preds:
        replay = MustState(config)
        # replay up to each predecessor along its own arm
        chain = []
        cursor = pred
        while cursor != acfg.source:
            chain.append(cursor)
            cursor = acfg.predecessors(cursor)[0]
        for rid in reversed(chain):
            if acfg.instr[rid] is not None:
                replay = replay.update(acfg.block_of(rid))
        must_states[pred] = replay
        flag = "on WCET path" if wcet.solution.on_path[pred] else "off path"
        print(f"  entering edge from r{pred} ({flag}): {show_state(replay)}")

    conventional = must_states[preds[0]].join(must_states[preds[1]])
    chosen = select_join_predecessor(acfg, wcet.solution, join)
    print(f"\n  conventional join (intersection): {show_state(conventional)}")
    print(f"  J_SE propagates the edge from r{chosen}: "
          f"{show_state(must_states[chosen])}")
    print("  -> J_SE keeps the WCET-path contents that the intersection "
          "discards,\n     which is what lets the optimizer see "
          "replacements behind joins.")


def figure6() -> None:
    print()
    print("=" * 72)
    print("Figure 6 — VIVU: loop body instantiated as FIRST and REST")
    print("=" * 72)
    b = ProgramBuilder("fig6")
    b.code(1)
    with b.loop(bound=5):
        b.code(2)
    b.code(1)
    cfg = b.build()
    acfg = build_acfg(cfg, block_size=16)
    for rid in acfg.ref_rids:
        print(f"  r{rid:<3} {acfg.block_name[rid]:<10} "
              f"context {context_label(acfg.context[rid]):<10} "
              f"worst-case executions x{acfg.multiplier[rid]}")
    print(f"  broken back edges (REST exit -> REST entry join): "
          f"{acfg.back_edges}")


def main() -> None:
    figure1()
    figure2()
    figure6()


if __name__ == "__main__":
    main()
