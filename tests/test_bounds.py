import pytest

from gicc.bounds import (
    OPTIMAL_CASE1,
    SizeGateError,
    _case2_decomposition,
    certify_optimality,
    conjecture_sweep,
    gf2_rank,
    mais,
    minrank_gf2,
    sandwich_check,
)
from gicc.codec import code_length
from gicc.cover import clique_cover_length, cycle_cover_length, gicc_cover
from gicc.digraph import Digraph
from gicc.generators import (
    gen_clique,
    gen_cycle,
    gen_demo_4gic,
    gen_random,
    gen_relay_family,
)
from gicc.structure import ViolationReport, require_valid, validate_gic

from .oracles import mais_naive, minrank_naive, rank_gf2 as rank_oracle

DIGON = Digraph.from_arcs(2, [(1, 2), (2, 1)])


class TestMais:
    def test_single_vertex(self):
        assert mais(Digraph(1, frozenset())) == 1

    def test_arcless(self):
        assert mais(Digraph(6, frozenset())) == 6

    def test_digon(self):
        assert mais(DIGON) == 1

    def test_demo(self):
        d, _ = gen_demo_4gic()
        assert mais(d) == 3

    def test_family_instances(self):
        for k in range(2, 9):
            d, _ = gen_relay_family(k)
            assert mais(d) == 2 * k - 1  # n - k + 1

    def test_matches_naive_oracle(self):
        for seed in range(80):
            d = gen_random(2 + seed % 7, 0.1 + 0.07 * (seed % 6), seed + 11)
            assert mais(d) == mais_naive(d)

    def test_gate(self):
        with pytest.raises(SizeGateError):
            mais(Digraph(31, frozenset()))
        assert mais(Digraph(31, frozenset()), limit=40) == 31


class TestMinrank:
    def test_digon(self):
        assert minrank_gf2(DIGON) == 1

    def test_three_cycle(self):
        assert minrank_gf2(gen_cycle(3)) == 2
        assert minrank_naive(gen_cycle(3)) == 2

    def test_demo(self):
        d, _ = gen_demo_4gic()
        assert minrank_gf2(d) == 3

    def test_matches_full_enumeration(self):
        for seed in range(25):
            d = gen_random(2 + seed % 4, 0.4, seed + 31)
            if len(d.arcs) > 12:
                continue
            assert minrank_gf2(d) == minrank_naive(d)

    def test_acyclic_digraph_needs_everything(self):
        d = Digraph.from_arcs(4, [(1, 2), (2, 3), (3, 4), (1, 3)])
        assert minrank_gf2(d) == 4

    def test_gate(self):
        with pytest.raises(SizeGateError):
            minrank_gf2(gen_clique(6))  # 30 arcs
        assert minrank_gf2(gen_clique(6), max_arcs=30) == 1

    def test_rank_helper_matches_oracle(self):
        import random

        rng = random.Random(3)
        for _ in range(100):
            rows = [rng.getrandbits(8) for _ in range(rng.randrange(1, 8))]
            assert gf2_rank(rows) == rank_oracle(rows)


class TestCertify:
    def test_demo_case1(self, demo_structure):
        assert certify_optimality(demo_structure) == OPTIMAL_CASE1

    def test_family_case1_all_k(self):
        for k in range(2, 7):
            g = require_valid(*gen_relay_family(k))
            assert certify_optimality(g) == OPTIMAL_CASE1

    def test_clique_case1(self):
        g = require_valid(gen_clique(4), frozenset({1, 2, 3, 4}))
        assert certify_optimality(g) == OPTIMAL_CASE1

    def test_split_structure_with_detached_digon(self):
        # two inner singletons could absorb a non-inner digon cycle;
        # whole-digraph validation rejects the shape (the digon arcs sit
        # outside every tree), while the case-2 searcher accepts the
        # decomposition.  Recorded behavior, not asserted optimal.
        d = Digraph.from_arcs(4, [(1, 2), (2, 1), (3, 4), (4, 3)])
        r = validate_gic(d, {1, 2})
        assert isinstance(r, ViolationReport) and r.kind == "extra-arc"
        found = _case2_decomposition(d, frozenset({1, 2}))
        assert found is not None
        assert found["cycles"] == [[3, 4]]
        assert sorted(tuple(g["inner"]) for g in found["groups"]) == [(1,), (2,)]

    def test_case2_search_declines_impossible_split(self):
        # single inner vertex cannot be split into two groups
        d = Digraph.from_arcs(3, [(2, 3), (3, 2)])
        assert _case2_decomposition(d, frozenset({1})) is None

    def test_certified_structures_meet_lower_bound(self, structure_pool):
        for g in structure_pool:
            if g.digraph.n > 12:
                continue
            verdict = certify_optimality(g)
            assert verdict == OPTIMAL_CASE1  # coverage forces acyclic non-inner
            assert mais(g.digraph) == code_length(g)


class TestSandwich:
    def test_demo_equality(self):
        d, inner = gen_demo_4gic()
        g = require_valid(d, inner)
        lengths = {
            "gicc": code_length(g),
            "cycle": cycle_cover_length(d),
            "clique": clique_cover_length(d),
        }
        assert sandwich_check(mais(d), lengths)
        assert mais(d) == code_length(g)

    def test_arcless(self):
        d = Digraph(5, frozenset())
        assert sandwich_check(mais(d), {"uncoded": 5})
        assert mais(d) == 5

    def test_random_sweep(self):
        for seed in range(200):
            d = gen_random(3 + seed % 8, 0.08 + 0.05 * (seed % 7), seed)
            plan = gicc_cover(d, effort=120, seed=seed)
            lengths = {
                "gicc": plan.length,
                "cycle": cycle_cover_length(d),
                "clique": clique_cover_length(d),
            }
            assert sandwich_check(mais(d), lengths), (seed, lengths)

    def test_rank_sits_between_bound_and_lengths(self):
        lengths = {"gicc": 5.0, "cycle": 6.0}
        assert all(sandwich_check(3, lengths, rank) for rank in (3, 4, 5))
        assert not sandwich_check(3, lengths, rank=2)  # below MAIS
        assert not sandwich_check(3, lengths, rank=6)  # above the shortest length
        assert not sandwich_check(6, lengths)  # MAIS above a length

    def test_bound_chain_with_minrank(self):
        for seed in range(25):
            d = gen_random(5, 0.3, seed + 400)
            if len(d.arcs) > 20:
                continue
            bound = mais(d)
            rank = minrank_gf2(d)
            plan = gicc_cover(d, effort="exhaustive")
            assert bound <= rank <= plan.length <= d.n

    def test_certified_minrank_matches_length(self, structure_pool):
        for g in structure_pool:
            d = g.digraph
            if len(d.arcs) > 18 or d.n > 12:
                continue
            if certify_optimality(g) == OPTIMAL_CASE1:
                assert minrank_gf2(d) == code_length(g)


class TestConjectureSweep:
    def test_small_exhaustive_sweep_runs(self):
        result = conjecture_sweep(max_exhaustive_n=3, samples=40, random_n=5, seed=1)
        assert result["digraphs"] == 4 + 64 + 40
        assert result["validated"] > 0
        # finding nothing is not asserted as impossible; record only
        assert isinstance(result["counterexamples"], list)

    def test_deterministic(self):
        a = conjecture_sweep(max_exhaustive_n=2, samples=20, random_n=5, seed=7)
        b = conjecture_sweep(max_exhaustive_n=2, samples=20, random_n=5, seed=7)
        assert a == b
