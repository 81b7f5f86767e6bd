import random

import pytest

from gicc.cover import icc_to_gic
from gicc.digraph import Digraph, induced_subgraph, out_neighbors
from gicc.generators import gen_cycle, gen_demo_4gic, gen_icc, gen_random, gen_relay_family
from gicc.structure import (
    GicStructure,
    TreeConstructionError,
    ViolationReport,
    build_tree,
    check_tree_consistency,
    require_valid,
    validate_gic,
    walk_p_paths,
)

from .oracles import (
    all_simple_cycles,
    has_cycle_coloring,
    p_path_walk_expected,
    paths_with_interior,
)

DIGON = Digraph.from_arcs(2, [(1, 2), (2, 1)])
INNER4 = frozenset({1, 2, 3, 4})


def with_extra_arc(d: Digraph, arc: tuple[int, int]) -> Digraph:
    return Digraph(d.n, d.arcs | {arc})


class TestBuildTree:
    def test_demo_root_1(self):
        d, _ = gen_demo_4gic()
        tree = build_tree(d, INNER4, 1)
        assert tree.parent_of == {4: 1, 5: 1, 2: 5, 3: 5}
        assert tree.leaves == {2, 3, 4}
        assert tree.depth_of == {1: 0, 4: 1, 5: 1, 2: 2, 3: 2}

    def test_demo_root_3_is_flat(self):
        d, _ = gen_demo_4gic()
        tree = build_tree(d, INNER4, 3)
        assert tree.parent_of == {1: 3, 2: 3, 4: 3}
        assert tree.height == 1

    def test_digon(self):
        tree = build_tree(DIGON, {1, 2}, 1)
        assert tree.parent_of == {2: 1}
        assert tree.leaves == {2}

    def test_every_tree_arc_is_a_digraph_arc(self):
        d, inner = gen_relay_family(5)
        for root in sorted(inner):
            tree = build_tree(d, inner, root)
            assert tree.arcs() <= d.arcs

    def test_deterministic(self):
        d, inner = gen_relay_family(4)
        assert build_tree(d, inner, 2) == build_tree(d, inner, 2)

    def test_unreachable_inner_vertex(self):
        # 3 has no out-arcs at all, so its tree cannot reach 1
        d = Digraph.from_arcs(3, [(1, 2), (2, 3)])
        with pytest.raises(TreeConstructionError) as exc:
            build_tree(d, {1, 3}, 3)
        assert exc.value.missing == {1}

    def test_root_must_be_inner(self):
        with pytest.raises(ValueError):
            build_tree(DIGON, {1}, 2)

    def test_allowed_mask_matches_induced_subgraph(self):
        d, inner = gen_relay_family(4)
        for drop in d.vertices():
            if drop in inner:
                continue
            allowed = [v for v in d.vertices() if v != drop]
            sub, originals = induced_subgraph(d, allowed)
            local = frozenset(originals.index(v) + 1 for v in inner)
            for root in sorted(inner):
                try:
                    tree = build_tree(sub, local, originals.index(root) + 1)
                except TreeConstructionError:
                    with pytest.raises(TreeConstructionError):
                        build_tree(d, inner, root, allowed)
                    continue
                masked = build_tree(d, inner, root, allowed)
                assert masked.parent_of == {
                    originals[c - 1]: originals[p - 1] for c, p in tree.parent_of.items()
                }

    def test_pruning_drops_dead_branches(self):
        # vertex 4 hangs off the digon but reaches no inner leaf
        d = Digraph.from_arcs(4, [(1, 2), (2, 1), (1, 4), (4, 3)])
        tree = build_tree(d, {1, 2}, 1)
        assert tree.vertices == {1, 2}


class TestDetectICycles:
    """The I-cycle check inside validate_gic."""

    def test_demo_clean(self):
        d, _ = gen_demo_4gic()
        assert isinstance(validate_gic(d, INNER4), GicStructure)

    def test_three_cycle_single_inner(self):
        report = validate_gic(gen_cycle(3), {1})
        assert report.kind == "i-cycle"
        assert report.witness == {"inner_vertex": 1, "cycle": [1, 2, 3, 1]}

    def test_three_cycle_two_inner(self):
        assert isinstance(validate_gic(gen_cycle(3), {1, 2}), GicStructure)

    def test_matches_oracle_on_random_digraphs(self):
        # an I-cycle through inner i is a cycle i -> ... -> i whose
        # interior is non-inner; the smallest such i is reported, with a
        # shortest such cycle as witness
        rng = random.Random(17)
        offending = 0
        for seed in range(240):
            n = 3 + seed % 6
            d = gen_random(n, 0.15 + 0.05 * (seed % 5), seed)
            inner = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
            non_inner = frozenset(d.vertices()) - inner
            cycles = {i: paths_with_interior(d, i, i, non_inner) for i in sorted(inner)}
            offenders = [i for i, found in cycles.items() if found]
            result = validate_gic(d, inner)
            reported = isinstance(result, ViolationReport) and result.kind == "i-cycle"
            assert reported == bool(offenders), (seed, sorted(inner))
            if offenders:
                offending += 1
                i = offenders[0]
                cycle = tuple(result.witness["cycle"])
                assert result.witness["inner_vertex"] == i
                assert cycle in cycles[i]
                assert len(cycle) == min(len(c) for c in cycles[i])
        assert offending >= 40


class TestPPathUniqueness:
    def test_demo_all_pairs_unique(self):
        d, _ = gen_demo_4gic()
        for root in sorted(INNER4):
            assert walk_p_paths(d, INNER4, root) == INNER4 - {root}
            assert p_path_walk_expected(d, INNER4, root) == INNER4 - {root}

    def test_digon(self):
        assert walk_p_paths(DIGON, {1, 2}, 1) == {2}
        assert walk_p_paths(DIGON, {1, 2}, 2) == {1}

    def test_extra_arc_doubles_a_pair(self):
        d, _ = gen_demo_4gic()
        d = with_extra_arc(d, (1, 6))
        target, paths = walk_p_paths(d, INNER4, 1)
        assert target == 3
        assert paths == tuple(sorted(paths_with_interior(d, 1, 3, frozenset({5, 6}))))

    def test_validate_reports_two_smallest_paths(self):
        # arcs forward along 1, 3, 4, 5, 6, 2 plus 2 -> 1: 16 P-paths 1 -> 2
        order = (1, 3, 4, 5, 6, 2)
        n = len(order)
        d = Digraph.from_arcs(
            n, [(2, 1)] + [(a, b) for x, a in enumerate(order) for b in order[x + 1:]]
        )
        r = validate_gic(d, {1, 2})
        assert isinstance(r, ViolationReport) and r.kind == "p-path-multiplicity"
        smallest = sorted(paths_with_interior(d, 1, 2, frozenset(range(3, n + 1))))[:2]
        assert r.witness == {"from": 1, "to": 2, "paths": [list(p) for p in smallest]}


class TestValidate:
    def test_demo_valid(self):
        d, inner = gen_demo_4gic()
        g = validate_gic(d, inner)
        assert isinstance(g, GicStructure)
        assert g.k == 4 and g.non_inner == (5, 6)

    def test_three_cycle_single_inner_is_i_cycle(self):
        r = validate_gic(gen_cycle(3), {1})
        assert isinstance(r, ViolationReport) and r.kind == "i-cycle"
        cycle = r.witness["cycle"]
        assert cycle[0] == cycle[-1] == 1
        d = gen_cycle(3)
        assert all(d.has_arc(a, b) for a, b in zip(cycle, cycle[1:]))
        assert sum(1 for v in set(cycle) if v in {1}) == 1

    def test_family_valid(self):
        for k in range(2, 7):
            d, inner = gen_relay_family(k)
            assert isinstance(validate_gic(d, inner), GicStructure)

    def test_single_vertex_trivial_structure(self):
        g = validate_gic(Digraph(1, frozenset()), {1})
        assert isinstance(g, GicStructure) and g.k == 1

    def test_singleton_inner_rejected_on_larger_digraph(self):
        r = validate_gic(Digraph(3, frozenset()), {1})
        assert isinstance(r, ViolationReport) and r.kind == "extra-arc"
        assert r.witness["vertices"] == [2, 3]

    def test_any_cycle_is_valid_with_an_inner_pair(self):
        # non-adjacent pair on a 3-cycle: still exactly one P-path each way
        d = Digraph.from_arcs(3, [(1, 2), (2, 3), (3, 1)])
        assert isinstance(validate_gic(d, {1, 3}), GicStructure)

    def test_unreachable_pair(self):
        r = validate_gic(Digraph.from_arcs(3, [(1, 2), (2, 3)]), {1, 3})
        assert isinstance(r, ViolationReport) and r.kind == "inner-pair-unreachable"
        assert (r.witness["from"], r.witness["to"]) == (3, 1)

    def test_multiplicity_witness_replays(self):
        d, _ = gen_demo_4gic()
        r = validate_gic(with_extra_arc(d, (1, 6)), INNER4)
        assert isinstance(r, ViolationReport) and r.kind == "p-path-multiplicity"
        i, j = r.witness["from"], r.witness["to"]
        paths = [tuple(p) for p in r.witness["paths"]]
        assert len(set(paths)) == 2
        real = paths_with_interior(
            with_extra_arc(d, (1, 6)), i, j, frozenset({5, 6})
        )
        assert set(paths) <= set(real)

    def test_uncovered_arcs_reported_last(self):
        # conditions hold but the non-inner digon is outside every tree
        d = Digraph.from_arcs(4, [(1, 2), (2, 1), (3, 4), (4, 3)])
        r = validate_gic(d, {1, 2})
        assert isinstance(r, ViolationReport) and r.kind == "extra-arc"
        assert r.witness["arcs"] == [(3, 4), (4, 3)]
        assert r.witness["vertices"] == [3, 4]

    def test_long_cycle_valid(self):
        # far deeper than Python's recursion limit: the walks keep explicit stacks
        g = validate_gic(gen_cycle(5000), {1, 2})
        assert isinstance(g, GicStructure) and g.trees[2].height == 4999

    def test_long_interlinked_paths_valid(self):
        d, inner = icc_to_gic(gen_icc(3, path_lengths=(2000,) * 3, seed=1))
        assert d.n == 6004
        assert isinstance(validate_gic(d, inner), GicStructure)

    def test_validate_is_deterministic(self):
        d, inner = gen_relay_family(4)
        assert validate_gic(d, inner) == validate_gic(d, inner)

    def test_valid_structures_pass_all_condition_checks(self, structure_pool):
        for g in structure_pool[:60]:
            d = g.digraph
            if g.k < 2:
                continue
            for root in g.inner:
                assert walk_p_paths(d, g.inner, root) == g.inner - {root}
            covered = set()
            for tree in g.trees.values():
                covered |= tree.arcs()
            assert covered == set(d.arcs)


class TestTreeConsistency:
    def test_demo_shared_vertex_children_agree(self, demo_structure):
        g = demo_structure
        assert g.trees[1].children_of[5] == (2, 3)
        assert g.trees[4].children_of[5] == (2, 3)
        assert check_tree_consistency(g)

    def test_digon(self):
        assert check_tree_consistency(require_valid(DIGON, {1, 2}))

    def test_holds_on_every_validated_structure(self, structure_pool):
        assert all(check_tree_consistency(g) for g in structure_pool)


class TestStructuralProperties:
    def test_cycles_never_meet_exactly_one_inner_vertex(self, structure_pool):
        for g in structure_pool:
            if g.digraph.n > 10:
                continue
            for cycle in all_simple_cycles(g.digraph):
                assert sum(1 for v in cycle if v in g.inner) != 1

    def test_shared_vertex_fanout_excludes_both_roots(self, structure_pool):
        checked = 0
        for g in structure_pool:
            roots = sorted(g.inner)
            for a in roots:
                for b in roots:
                    if a >= b:
                        continue
                    shared = (g.trees[a].vertices & g.trees[b].vertices) - g.inner
                    for v in shared:
                        checked += 1
                        assert a not in g.trees[a].fanout_leaves(v)
                        assert b not in g.trees[a].fanout_leaves(v)
                        assert a not in g.trees[b].fanout_leaves(v)
                        assert b not in g.trees[b].fanout_leaves(v)
        assert checked > 0

    def test_tree_heights_bounded(self, structure_pool):
        for g in structure_pool:
            if g.k < 2:
                continue
            n, k = g.digraph.n, g.k
            for tree in g.trees.values():
                assert 1 <= tree.height <= n - k + 1

    def test_non_inner_vertices_induce_acyclic_subgraph(self, structure_pool):
        # stronger than the cycle test above: coverage by the trees forces it
        for g in structure_pool:
            if not g.non_inner:
                continue
            sub, _ = induced_subgraph(g.digraph, g.non_inner)
            assert not has_cycle_coloring(sub)

    def test_root_children_equal_out_neighborhood(self, structure_pool):
        for g in structure_pool[:80]:
            for root, tree in g.trees.items():
                if g.k < 2:
                    continue
                assert frozenset(tree.children_of[root]) == out_neighbors(
                    g.digraph, root
                )
