import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gicc.digraph import (
    Digraph,
    FormatError,
    bits_of,
    induced_subgraph,
    out_neighbors,
    parse_digraph,
    serialize_digraph,
)
from gicc._cycles import is_acyclic_mask, mask_of, out_masks
from gicc.generators import gen_demo_4gic, gen_relay_family
from gicc.structure import walk_p_paths

from .oracles import (
    has_cycle_coloring,
    p_path_walk_expected,
    paths_with_interior,
    subset_acyclic,
)

DIGON = Digraph.from_arcs(2, [(1, 2), (2, 1)])


def random_digraph(n: int, p: float, seed: int) -> Digraph:
    rng = random.Random(seed)
    arcs = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j and rng.random() < p
    ]
    return Digraph(n, frozenset(arcs))


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Digraph(2, frozenset({(1, 1)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Digraph(2, frozenset({(1, 3)}))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            Digraph(0, frozenset())

    def test_from_arcs_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            Digraph.from_arcs(3, [(1, 2), (1, 2)])


class TestParse:
    def test_digon(self):
        assert parse_digraph("n=2\n1 -> 2\n2 -> 1") == DIGON

    def test_self_loop_rejected(self):
        with pytest.raises(FormatError, match="line 2.*self-loop"):
            parse_digraph("n=2\n1 -> 1")

    def test_duplicate_arc_rejected(self):
        with pytest.raises(FormatError, match="line 3.*duplicate"):
            parse_digraph("n=3\n1 -> 2\n1 -> 2")

    def test_duplicate_within_line_rejected(self):
        with pytest.raises(FormatError, match="duplicate"):
            parse_digraph("n=3\n1 -> 2 2")

    def test_out_of_range_head(self):
        with pytest.raises(FormatError, match="line 2.*head 9"):
            parse_digraph("n=3\n1 -> 9")

    def test_malformed_line(self):
        with pytest.raises(FormatError, match="line 2.*malformed"):
            parse_digraph("n=3\n1 => 2")

    def test_missing_header(self):
        with pytest.raises(FormatError, match="header"):
            parse_digraph("1 -> 2")

    def test_comments_and_blanks_skipped(self):
        assert parse_digraph("# digon\n\nn=2\n# body\n1 -> 2\n2 -> 1") == DIGON

    def test_family_k4_file_shape(self):
        d, _ = gen_relay_family(4)
        reparsed = parse_digraph(serialize_digraph(d))
        assert reparsed.n == 10
        # 2 arcs per middle inner vertex, k per relay side, ends collapsed:
        # the construction rules emit (k+2)(k-1) arcs, 18 for k=4
        assert len(reparsed.arcs) == 18


class TestSerialize:
    def test_digon_canonical(self):
        assert serialize_digraph(DIGON) == "n=2\n1 -> 2\n2 -> 1"

    def test_empty_graph_has_no_arc_lines(self):
        assert serialize_digraph(Digraph(3, frozenset())) == "n=3"

    def test_round_trip_is_identity_on_canonical_text(self):
        d = random_digraph(20, 0.2, seed=7)
        text = serialize_digraph(d)
        assert serialize_digraph(parse_digraph(text)) == text
        assert parse_digraph(text) == d


@st.composite
def digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    if pairs:
        arcs = draw(st.frozensets(st.sampled_from(pairs)))
    else:
        arcs = frozenset()
    return Digraph(n, arcs)


@given(digraphs())
@settings(max_examples=120, deadline=None)
def test_parse_serialize_round_trip(d):
    assert parse_digraph(serialize_digraph(d)) == d


@given(digraphs())
@settings(max_examples=120, deadline=None)
def test_degree_sums_match_arc_count(d):
    assert sum(len(d.out_sorted(v)) for v in d.vertices()) == len(d.arcs)
    assert sum(len(d.in_sorted(v)) for v in d.vertices()) == len(d.arcs)
    for v in d.vertices():
        assert out_neighbors(d, v) == {h for (t, h) in d.arcs if t == v}


class TestOutNeighbors:
    def test_family_middle_vertex(self):
        d, _ = gen_relay_family(4)
        assert out_neighbors(d, 2) == {6, 10}

    def test_family_end_relay(self):
        d, _ = gen_relay_family(4)
        assert out_neighbors(d, 8) == {1, 2, 3}

    def test_digon(self):
        assert out_neighbors(DIGON, 1) == {2}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            out_neighbors(DIGON, 3)


class TestInducedSubgraph:
    def test_demo_non_inner_pair_has_no_arcs(self):
        d, _ = gen_demo_4gic()
        sub, originals = induced_subgraph(d, {5, 6})
        assert sub.n == 2 and not sub.arcs
        assert originals == (5, 6)

    def test_whole_vertex_set_is_identity(self):
        d, _ = gen_demo_4gic()
        sub, originals = induced_subgraph(d, d.vertices())
        assert sub == d and originals == tuple(d.vertices())

    def test_single_vertex(self):
        sub, originals = induced_subgraph(DIGON, {1})
        assert sub.n == 1 and not sub.arcs and originals == (1,)


class TestAcyclicity:
    """_cycles.is_acyclic_mask, the acyclicity test the library calls."""

    def test_digon_cyclic(self):
        assert not is_acyclic_mask(out_masks(DIGON), 0b11)

    def test_arcless_acyclic(self):
        assert is_acyclic_mask(out_masks(Digraph(4, frozenset())), 0b1111)

    def test_family_non_inner_part_acyclic(self):
        d, inner = gen_relay_family(4)
        assert is_acyclic_mask(out_masks(d), mask_of(set(d.vertices()) - inner))

    def test_matches_dfs_oracle_on_random_instances(self):
        rng = random.Random(5)
        for seed in range(200):
            d = random_digraph(2 + seed % 8, 0.05 + (seed % 10) * 0.08, seed)
            adj = out_masks(d)
            full = (1 << d.n) - 1
            assert is_acyclic_mask(adj, full) == (not has_cycle_coloring(d))
            for _ in range(5):
                mask = rng.randrange(full + 1)
                members = frozenset(v + 1 for v in bits_of(mask))
                assert mask_of(members) == mask
                assert is_acyclic_mask(adj, mask) == subset_acyclic(d, members)


class TestPathCounting:
    """P-path counts (0, 1, >= 2) from the per-root walk, against the oracle."""

    def test_demo_single_interior_path(self):
        d, inner = gen_demo_4gic()
        assert walk_p_paths(d, inner, 1) == {2, 3, 4}
        # a second 1 -> 3 path via 6 exposes the first one, 1 -> 5 -> 3
        target, paths = walk_p_paths(Digraph(d.n, d.arcs | {(1, 6)}), inner, 1)
        assert (target, paths) == (3, ((1, 5, 3), (1, 6, 3)))

    def test_digon_direct_arc(self):
        assert walk_p_paths(DIGON, {1, 2}, 1) == {2}
        assert walk_p_paths(DIGON, {1, 2}, 2) == {1}

    def test_demo_reverse_direct(self):
        d, inner = gen_demo_4gic()
        assert walk_p_paths(d, inner, 3) == {1, 2, 4}

    def test_rejects_equal_endpoints(self):
        # 1 -> 3 -> 1 closes a cycle at the root: no P-path, no target
        d = Digraph.from_arcs(3, [(1, 3), (3, 1), (3, 2), (2, 1)])
        assert walk_p_paths(d, {1, 2}, 1) == {2}
        assert p_path_walk_expected(d, frozenset({1, 2}), 1) == {2}

    def test_rejects_endpoint_in_interior(self):
        # 2 is inner, so 1 -> 2 -> 3 is no P-path from 1 to 3
        d = Digraph.from_arcs(3, [(1, 2), (2, 3)])
        assert walk_p_paths(d, {1, 2, 3}, 1) == {2}
        with pytest.raises(ValueError):
            walk_p_paths(d, {1, 3}, 2)

    def test_stops_at_second_path(self):
        # complete bidirectional digraph on 6 vertices has 65 simple 1->2 paths
        n = 6
        d = Digraph.from_arcs(
            n, ((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j)
        )
        inner = frozenset({1, 2})
        assert len(paths_with_interior(d, 1, 2, frozenset(range(3, n + 1)))) == 65
        assert walk_p_paths(d, inner, 1) == (2, ((1, 2), (1, 3, 2)))
        assert walk_p_paths(d, inner, 1) == p_path_walk_expected(d, inner, 1)

    def test_matches_enumeration_oracle(self):
        outcomes = {"multiple": 0, "unique": 0, "unreachable": 0}
        for seed in range(300):
            n = 3 + seed % 6
            d = random_digraph(n, 0.2 + 0.05 * (seed % 5), seed + 1000)
            rng = random.Random(seed)
            inner = frozenset(rng.sample(range(1, n + 1), rng.randint(2, n)))
            for root in sorted(inner):
                expected = p_path_walk_expected(d, inner, root)
                assert walk_p_paths(d, inner, root) == expected
                if isinstance(expected, tuple):
                    outcomes["multiple"] += 1
                else:
                    outcomes["unique"] += len(expected)
                    outcomes["unreachable"] += len(inner) - 1 - len(expected)
        assert min(outcomes.values()) >= 50, outcomes

    def test_restricted_interior_subsets(self):
        # inner 5 and 6 are leaves, so only paths with interior in {3, 4} count
        inner = frozenset({1, 2, 5, 6})
        for seed in range(40):
            d = random_digraph(6, 0.4, seed + 2000)
            for root in sorted(inner):
                assert walk_p_paths(d, inner, root) == p_path_walk_expected(
                    d, inner, root
                )
