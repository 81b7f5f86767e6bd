import pytest

from gicc.bounds import OPTIMAL_CASE1, certify_optimality, mais
from gicc.codec import MessageVector, code_length, encode
from gicc.cover import clique_cover_length, cycle_cover_length, icc_to_gic
from gicc.digraph import (
    Digraph,
    induced_subgraph,
    out_neighbors,
    serialize_digraph,
)
from gicc.generators import (
    DEMO_4GIC_REFERENCE_LENGTHS,
    gen_clique,
    gen_cycle,
    gen_demo_4gic,
    gen_icc,
    gen_random,
    gen_relay_family,
)
from gicc.structure import GicStructure, require_valid, validate_gic


class TestRelayFamily:
    def test_k2_exact_arcs(self):
        d, inner = gen_relay_family(2)
        assert d.n == 4
        assert d.arcs == {(1, 3), (3, 2), (2, 4), (4, 1)}
        assert inner == {1, 2}

    def test_k4_exact_arcs(self):
        d, inner = gen_relay_family(4)
        assert d.n == 10 and inner == {1, 2, 3, 4}
        assert d.arcs == {
            (1, 5), (5, 2), (5, 3), (5, 4),
            (2, 6), (2, 10), (6, 3), (6, 4),
            (3, 7), (3, 9), (7, 4), (9, 1), (9, 2),
            (4, 8), (8, 1), (8, 2), (8, 3),
            (10, 1),
        }

    def test_arc_count_formula(self):
        # middle inner vertices contribute k+1 arcs each, the two ends 2k
        for k in range(2, 10):
            d, _ = gen_relay_family(k)
            assert d.n == 3 * k - 2
            assert len(d.arcs) == (k + 2) * (k - 1)

    def test_out_neighbor_examples(self):
        d, _ = gen_relay_family(4)
        assert out_neighbors(d, 2) == {6, 10}
        assert out_neighbors(d, 8) == {1, 2, 3}

    def test_validates_for_all_k(self):
        for k in range(2, 9):
            d, inner = gen_relay_family(k)
            g = validate_gic(d, inner)
            assert isinstance(g, GicStructure)
            assert code_length(g) == 2 * k - 1

    def test_no_arcs_among_relays(self):
        for k in (3, 5, 7):
            d, inner = gen_relay_family(k)
            relays = set(d.vertices()) - inner
            sub, _ = induced_subgraph(d, relays)
            assert not sub.arcs
            assert certify_optimality(require_valid(d, inner)) == OPTIMAL_CASE1

    def test_no_digons_so_clique_cover_is_trivial(self):
        for k in (2, 4, 6):
            d, _ = gen_relay_family(k)
            assert all((h, t) not in d.arcs for (t, h) in d.arcs)
            assert clique_cover_length(d) == d.n == 3 * k - 2

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            gen_relay_family(1)


class TestDemoInstance:
    def test_pinned_arcs(self):
        d, inner = gen_demo_4gic()
        assert d.n == 6 and inner == {1, 2, 3, 4}
        assert d.arcs == {
            (1, 4), (1, 5), (2, 1), (2, 6), (3, 1), (3, 2), (3, 4),
            (4, 1), (4, 5), (5, 2), (5, 3), (6, 3), (6, 4),
        }

    def test_validates_with_published_masks(self):
        d, inner = gen_demo_4gic()
        g = require_valid(d, inner)
        code = encode(g, MessageVector.zeros(6, 1))
        assert [sorted(s.mask) for s in code.symbols] == [
            [1, 2, 3, 4], [2, 3, 5], [3, 4, 6],
        ]

    def test_mais_is_three(self):
        d, _ = gen_demo_4gic()
        assert mais(d) == 3

    def test_strict_scheme_ordering(self):
        d, inner = gen_demo_4gic()
        g = require_valid(d, inner)
        assert code_length(g) < cycle_cover_length(d) < clique_cover_length(d)
        assert (code_length(g), cycle_cover_length(d), clique_cover_length(d)) == (3, 4, 5)

    def test_reference_lengths_are_documentation_constants(self):
        # lengths of schemes this package does not implement; every one
        # of them sits strictly above our three symbols
        assert DEMO_4GIC_REFERENCE_LENGTHS == {
            "composite-coding": 3.5,
            "local-chromatic": 4.0,
            "fractional-partial-clique": 4.0,
            "interlinked-cycle-cover": 4.0,
            "cycle-cover": 4.0,
            "clique-cover": 5.0,
        }
        assert all(v > 3 for v in DEMO_4GIC_REFERENCE_LENGTHS.values())


class TestBasicShapes:
    def test_clique(self):
        assert gen_clique(2) == Digraph.from_arcs(2, [(1, 2), (2, 1)])
        d = gen_clique(5)
        assert len(d.arcs) == 20
        assert code_length(require_valid(d, frozenset(range(1, 6)))) == 1

    def test_cycle(self):
        d = gen_cycle(6)
        assert d.arcs == {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)}
        assert code_length(require_valid(d, frozenset({1, 2}))) == 5

    def test_small_sizes_rejected(self):
        with pytest.raises(ValueError):
            gen_clique(1)
        with pytest.raises(ValueError):
            gen_cycle(1)


class TestIccGenerator:
    def test_deterministic(self):
        assert gen_icc(3, seed=1) == gen_icc(3, seed=1)

    def test_pinned_seed(self):
        desc = gen_icc(3, seed=1)
        assert desc.paths == ((1,), (2, 3, 4), (5,))
        assert desc.connectors == {
            (1, 2): (6,), (1, 3): (), (2, 1): (7,),
            (2, 3): (8,), (3, 1): (9,), (3, 2): (10, 11),
        }

    def test_explicit_path_lengths(self):
        desc = gen_icc(3, path_lengths=(2, 1, 1), seed=0)
        assert tuple(len(p) for p in desc.paths) == (2, 1, 1)
        d, inner = icc_to_gic(desc)
        assert isinstance(validate_gic(d, inner), GicStructure)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_icc(1)
        with pytest.raises(ValueError):
            gen_icc(2, path_lengths=(1,))
        with pytest.raises(ValueError):
            gen_icc(2, path_lengths=(0, 1))
        with pytest.raises(ValueError):
            gen_icc(2, max_connector=-1)


class TestRandomGenerator:
    def test_p_zero(self):
        assert gen_random(6, 0.0, 1).arcs == frozenset()

    def test_p_one(self):
        assert gen_random(4, 1.0, 1) == gen_clique(4)

    def test_golden_seed(self):
        d = gen_random(8, 0.3, 42)
        assert sorted(d.arcs) == [
            (1, 3), (1, 4), (1, 5), (2, 1), (2, 4), (2, 5), (2, 7), (2, 8),
            (3, 4), (3, 7), (4, 3), (4, 7), (4, 8), (6, 8),
            (7, 1), (7, 2), (7, 3), (7, 4), (7, 5), (7, 6), (8, 3), (8, 4),
        ]

    def test_deterministic_serialization(self):
        a = serialize_digraph(gen_random(12, 0.4, 9))
        b = serialize_digraph(gen_random(12, 0.4, 9))
        assert a == b

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            gen_random(4, 1.5, 0)
