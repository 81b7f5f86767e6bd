"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance and runtime budget is pinned here.
"""

import time
from contextlib import contextmanager

from gicc.bounds import OPTIMAL_CASE1, certify_optimality, conjecture_sweep, mais, minrank_gf2
from gicc.codec import MessageVector, code_length, encode, round_trip
from gicc.cover import (
    clique_cover_length,
    cycle_cover_length,
    gicc_cover,
    icc_to_gic,
    plan_round_trip,
)
from gicc.digraph import Digraph, induced_subgraph
from gicc.generators import (
    DEMO_4GIC_REFERENCE_LENGTHS,
    gen_clique,
    gen_cycle,
    gen_demo_4gic,
    gen_icc,
    gen_random,
    gen_relay_family,
)
from gicc.structure import GicStructure, check_tree_consistency, require_valid, validate_gic

from .oracles import all_simple_cycles, has_cycle_coloring


@contextmanager
def budget(name: str, seconds: float):
    start = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - start
        verdict = "FAIL" if failed else "PASS"
        print(f"{verdict} {name} ({elapsed:.2f}s, budget {seconds:g}s)")
    assert elapsed < seconds, f"{name} exceeded its {seconds}s budget ({elapsed:.2f}s)"


def test_criterion_1_demo_reproduction():
    with budget("criterion 1: demo instance reproduction", 1.0):
        d, inner = gen_demo_4gic()
        g = require_valid(d, inner)
        assert g.k == 4
        code = encode(g, MessageVector.zeros(6, 1))
        assert [sorted(s.mask) for s in code.symbols] == [
            [1, 2, 3, 4],
            [2, 3, 5],
            [3, 4, 6],
        ]
        assert code.length == 3
        for value in range(64):
            m = MessageVector(1, tuple((value >> b) & 1 for b in range(6)))
            assert round_trip(g, m)


def test_criterion_2_family_lengths_and_decoding():
    with budget("criterion 2: family lengths 2K-1 with decode sweep", 10.0):
        for k in range(2, 9):
            d, inner = gen_relay_family(k)
            g = require_valid(d, inner)
            assert code_length(g) == 2 * k - 1
            for t in (1, 8, 64):
                for trial in range(100):
                    m = MessageVector.random(d.n, t, seed=trial * 7 + t)
                    assert round_trip(g, m)


def test_criterion_3_optimality_certificates():
    with budget("criterion 3: tight sandwich on family instances", 30.0):
        for k in range(2, 6):
            d, inner = gen_relay_family(k)
            g = require_valid(d, inner)
            assert certify_optimality(g) == OPTIMAL_CASE1
            bound = mais(d)
            assert bound == d.n - k + 1 == 2 * k - 1
            assert code_length(g) == bound


def test_criterion_4_minrank_concordance():
    with budget("criterion 4: minrank oracle concordance", 10.0):
        digon = Digraph.from_arcs(2, [(1, 2), (2, 1)])
        assert minrank_gf2(digon) == 1
        assert minrank_gf2(gen_cycle(3)) == 2
        d, inner = gen_demo_4gic()
        g = require_valid(d, inner)
        assert minrank_gf2(d) == 3 == mais(d) == code_length(g)


def test_criterion_5_icc_conversion_property():
    with budget("criterion 5: interlinked-cycle conversion property", 10.0):
        count = 0
        for k in (2, 3, 4):
            for seed in range(34):
                desc = gen_icc(k, seed=seed)
                d, inner = icc_to_gic(desc)
                assert inner == frozenset(p[-1] for p in desc.paths)
                g = validate_gic(d, inner)
                assert isinstance(g, GicStructure), (k, seed)
                code = encode(g, MessageVector.zeros(d.n, 1))
                assert code.symbols[0].mask == inner
                assert code.length == d.n - k + 1
                count += 1
        assert count >= 100


def test_criterion_6_clique_and_cycle_reductions():
    with budget("criterion 6: clique and cycle reductions", 5.0):
        for n in range(2, 11):
            clique = gen_clique(n)
            g = require_valid(clique, frozenset(range(1, n + 1)))
            assert code_length(g) == 1
            assert clique_cover_length(clique) == 1
            cycle = gen_cycle(n)
            g = require_valid(cycle, frozenset({1, 2}))
            assert code_length(g) == n - 1
            assert cycle_cover_length(cycle) == n - 1


def test_criterion_7_baseline_separation():
    with budget("criterion 7: baseline separation", 10.0):
        d, inner = gen_demo_4gic()
        g = require_valid(d, inner)
        assert code_length(g) == 3
        assert cycle_cover_length(d) == 4
        assert clique_cover_length(d) == 5
        assert 3 < 4 < 5
        fd, finner = gen_relay_family(4)
        fg = require_valid(fd, finner)
        assert clique_cover_length(fd) == 10 == 3 * 4 - 2
        assert code_length(fg) == 7 < cycle_cover_length(fd) == 8
        # values for schemes outside this package are carried as
        # documented constants only, never recomputed
        assert DEMO_4GIC_REFERENCE_LENGTHS["composite-coding"] == 3.5
        assert DEMO_4GIC_REFERENCE_LENGTHS["local-chromatic"] == 4.0
        assert DEMO_4GIC_REFERENCE_LENGTHS["fractional-partial-clique"] == 4.0
        assert DEMO_4GIC_REFERENCE_LENGTHS["interlinked-cycle-cover"] == 4.0


def test_criterion_8_property_sweep():
    with budget("criterion 8: 200-digraph property sweep", 60.0):
        for seed in range(200):
            n = 4 + seed % 7  # vertex counts 4..10
            d = gen_random(n, 0.12 + 0.04 * (seed % 6), seed)
            plan = gicc_cover(d, effort=150, seed=seed)
            m = MessageVector.random(d.n, 8, seed)
            assert plan_round_trip(plan, m)
            assert mais(d) <= plan.length <= d.n
            for part in plan.parts:
                g = part.structure
                assert check_tree_consistency(g)
                for cycle in all_simple_cycles(g.digraph):
                    inner_hits = sum(1 for v in cycle if v in g.inner)
                    assert inner_hits == 0 or inner_hits >= 2
                if g.non_inner:
                    sub, _ = induced_subgraph(g.digraph, g.non_inner)
                    assert not has_cycle_coloring(sub)
                roots = sorted(g.inner)
                for a in roots:
                    for b in roots:
                        if a >= b:
                            continue
                        shared = (g.trees[a].vertices & g.trees[b].vertices) - g.inner
                        for v in shared:
                            fan = g.trees[a].fanout_leaves(v) | g.trees[b].fanout_leaves(v)
                            assert a not in fan and b not in fan


def test_criterion_9_conjecture_sweep_records_findings():
    with budget("criterion 9: conjecture sweep (non-blocking)", 60.0):
        result = conjecture_sweep(max_exhaustive_n=4, samples=150, random_n=6, p=0.35, seed=9)
        assert result["validated"] > 0
        print(
            f"  conjecture sweep: {result['validated']} validated structures, "
            f"{len(result['counterexamples'])} with MAIS below the code length"
        )
        # findings are recorded, not asserted: either outcome is acceptable
        for ce in result["counterexamples"]:
            print(f"  finding: {ce}")
