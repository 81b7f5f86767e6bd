import pytest

from gicc.bounds import SizeGateError
from gicc.codec import MessageVector, code_length, encode
from gicc.cover import (
    IccDescription,
    clique_cover_length,
    cycle_cover_length,
    gicc_cover,
    icc_to_gic,
    plan_round_trip,
)
from gicc.digraph import Digraph
from gicc.generators import (
    gen_clique,
    gen_cycle,
    gen_demo_4gic,
    gen_icc,
    gen_random,
    gen_relay_family,
)
from gicc.structure import GicStructure, require_valid, validate_gic

TWO_DIGONS = Digraph.from_arcs(4, [(1, 2), (2, 1), (3, 4), (4, 3)])


class TestGiccCover:
    def test_demo_exact_single_part(self):
        d, _ = gen_demo_4gic()
        plan = gicc_cover(d, effort="exhaustive")
        assert plan.psi == 1 and plan.length == 3
        part = plan.parts[0]
        assert part.vertices == (1, 2, 3, 4, 5, 6)
        assert part.inner == {1, 2, 3, 4}
        assert not plan.uncoded

    def test_demo_heuristic_matches(self):
        d, _ = gen_demo_4gic()
        assert gicc_cover(d).length == 3

    def test_arcless_all_uncoded(self):
        d = Digraph(5, frozenset())
        for effort in ("exhaustive", 100):
            plan = gicc_cover(d, effort=effort)
            assert plan.psi == 0 and plan.length == 5 and plan.uncoded == set(d.vertices())

    def test_two_digons_two_parts(self):
        for effort in ("exhaustive", 100):
            plan = gicc_cover(TWO_DIGONS, effort=effort)
            assert plan.psi == 2 and plan.length == 2 and plan.savings == 2
            assert {p.vertices for p in plan.parts} == {(1, 2), (3, 4)}

    def test_parts_are_disjoint_and_cover(self):
        for seed in range(40):
            d = gen_random(4 + seed % 7, 0.3, seed)
            plan = gicc_cover(d, effort=200, seed=seed)
            seen: set[int] = set()
            for part in plan.parts:
                assert not (seen & set(part.vertices))
                seen |= set(part.vertices)
                assert isinstance(part.structure, GicStructure)
                assert part.structure.digraph.n == len(part.vertices)
            assert seen | set(plan.uncoded) == set(d.vertices())
            assert plan.length == d.n - sum(p.k - 1 for p in plan.parts)

    def test_deterministic(self):
        d = gen_random(9, 0.35, 17)
        a = gicc_cover(d, effort=300, seed=4)
        b = gicc_cover(d, effort=300, seed=4)
        assert a == b

    def test_exact_gate(self):
        with pytest.raises(SizeGateError):
            gicc_cover(gen_random(11, 0.3, 0), effort="exhaustive")

    def test_bad_effort(self):
        with pytest.raises(ValueError):
            gicc_cover(TWO_DIGONS, effort=0)

    def test_long_cycle_is_one_part(self):
        # the chordless-cycle fallback walks a 2000-vertex path
        assert gicc_cover(gen_cycle(2000)).length == 1999

    def test_exact_beats_or_matches_baselines(self):
        for seed in range(30):
            d = gen_random(4 + seed % 4, 0.25 + 0.05 * (seed % 3), seed + 50)
            plan = gicc_cover(d, effort="exhaustive")
            assert plan.length <= cycle_cover_length(d)
            assert plan.length <= clique_cover_length(d)


class TestSavings:
    def test_demo(self):
        d, _ = gen_demo_4gic()
        assert gicc_cover(d, effort="exhaustive").savings == 3

    def test_empty_plan(self):
        plan = gicc_cover(Digraph(5, frozenset()))
        assert plan.savings == 0

    def test_family(self):
        d, _ = gen_relay_family(4)
        plan = gicc_cover(d, effort="exhaustive")
        assert plan.savings == 3 and plan.length == 7

    def test_savings_equals_n_minus_length(self, structure_pool):
        for seed in range(20):
            d = gen_random(8, 0.3, seed + 90)
            plan = gicc_cover(d, effort=150, seed=seed)
            assert plan.savings == d.n - plan.length


class TestPlanDecoding:
    def test_every_plan_decodes(self):
        for seed in range(50):
            d = gen_random(4 + seed % 7, 0.1 + 0.06 * (seed % 5), seed + 7)
            plan = gicc_cover(d, effort=200, seed=seed)
            m = MessageVector.random(d.n, 8, seed)
            assert plan_round_trip(plan, m)

    def test_size_mismatch(self):
        plan = gicc_cover(TWO_DIGONS)
        with pytest.raises(ValueError):
            plan_round_trip(plan, MessageVector.zeros(3, 1))


class TestIccConversion:
    def test_digon_from_two_singleton_paths(self):
        desc = IccDescription(2, ((1,), (2,)), {(1, 2): (), (2, 1): ()})
        d, inner = icc_to_gic(desc)
        assert d == Digraph.from_arcs(2, [(1, 2), (2, 1)])
        assert inner == {1, 2}

    def test_single_path_rejected(self):
        with pytest.raises(ValueError, match="two paths"):
            icc_to_gic(IccDescription(1, ((1,),), {}))

    def test_overlapping_paths_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            icc_to_gic(IccDescription(2, ((1, 2), (2,)), {}))

    def test_label_gaps_rejected(self):
        with pytest.raises(ValueError, match="1..N"):
            icc_to_gic(IccDescription(2, ((1,), (3,)), {}))

    def test_seeded_descriptions_all_validate(self):
        count = 0
        for k in (2, 3, 4):
            for seed in range(34):
                desc = gen_icc(k, seed=seed)
                d, inner = icc_to_gic(desc)
                g = validate_gic(d, inner)
                assert isinstance(g, GicStructure), (k, seed)
                # conversion keeps the interlinked-cycle code: the lead
                # symbol XORs exactly the last vertex of every path
                code = encode(g, MessageVector.zeros(d.n, 1))
                assert code.symbols[0].mask == frozenset(p[-1] for p in desc.paths)
                assert code_length(g) == d.n - k + 1
                count += 1
        assert count >= 100

    def test_non_inner_out_degree_is_one(self):
        d, inner = icc_to_gic(gen_icc(3, seed=5))
        for v in d.vertices():
            if v not in inner:
                assert len(d.out_sorted(v)) == 1

    def test_every_path_head_has_positive_in_degree(self):
        for seed in range(10):
            desc = gen_icc(3, seed=seed)
            d, _ = icc_to_gic(desc)
            for path in desc.paths:
                assert len(d.in_sorted(path[0])) >= 1

    def test_generator_digon_description(self):
        desc = gen_icc(2, path_lengths=(1, 1), max_connector=0, seed=0)
        assert desc.paths == ((1,), (2,))
        assert all(not c for c in desc.connectors.values())
        d, inner = icc_to_gic(desc)
        assert d == Digraph.from_arcs(2, [(1, 2), (2, 1)]) and inner == {1, 2}


class TestCycleCover:
    def test_single_cycle(self):
        for n in (2, 5, 9):
            assert cycle_cover_length(gen_cycle(n)) == n - 1

    def test_demo(self):
        d, _ = gen_demo_4gic()
        assert cycle_cover_length(d) == 4

    def test_family_k4(self):
        d, _ = gen_relay_family(4)
        assert cycle_cover_length(d) == 8

    def test_greedy_mode_reasonable(self):
        # beyond the exact gate the greedy still packs the obvious digons
        arcs = []
        for i in range(1, 14, 2):
            arcs += [(i, i + 1), (i + 1, i)]
        d = Digraph.from_arcs(14, arcs)
        assert cycle_cover_length(d, exact_limit=12) == 7

    def test_arcless(self):
        assert cycle_cover_length(Digraph(4, frozenset())) == 4


class TestCliqueCover:
    def test_full_clique(self):
        for n in (2, 5, 7):
            assert clique_cover_length(gen_clique(n)) == 1

    def test_demo(self):
        d, _ = gen_demo_4gic()
        assert clique_cover_length(d) == 5  # the only digon is {1,4}

    def test_family_k4(self):
        d, _ = gen_relay_family(4)
        assert clique_cover_length(d) == 10  # no digons at all

    def test_directed_cycle_has_no_cliques(self):
        assert clique_cover_length(gen_cycle(6)) == 6

    def test_greedy_mode(self):
        d = gen_clique(14)
        assert clique_cover_length(d, exact_limit=12) == 1

    def test_greedy_never_beats_exact(self):
        for seed in range(80):
            d = gen_random(2 + seed % 11, 0.4 + 0.05 * (seed % 10), seed)
            assert clique_cover_length(d, exact_limit=0) >= clique_cover_length(d)

    def test_exact_on_mixed_instance(self):
        # digons {1,2} and {3,4} plus isolated 5: three parts
        d = Digraph.from_arcs(5, [(1, 2), (2, 1), (3, 4), (4, 3)])
        assert clique_cover_length(d) == 3


class TestCoverRelations:
    def test_clique_is_one_part_with_full_inner(self):
        for n in (3, 5):
            d = gen_clique(n)
            g = require_valid(d, frozenset(range(1, n + 1)))
            assert code_length(g) == 1
            plan = gicc_cover(d, effort="exhaustive")
            assert plan.length == 1

    def test_cycle_is_a_two_inner_structure(self):
        for n in (3, 6):
            d = gen_cycle(n)
            g = require_valid(d, frozenset({1, 2}))
            assert code_length(g) == n - 1
            plan = gicc_cover(d, effort="exhaustive")
            assert plan.length == n - 1
