"""Interlinked-cycle structure validation.

A K-GIC structure on a digraph D is an inner vertex set V_I of size K
together with one rooted tree per inner vertex: the tree rooted at i
reaches every other inner vertex along paths whose interior is
non-inner.  (D, V_I) qualifies when

  1. no cycle of D contains exactly one inner vertex (no I-cycle), and
  2. every ordered inner pair (i, j) is joined by exactly one P-path,
     a simple i -> j path whose interior avoids V_I entirely,

and the trees jointly cover every vertex and arc of D.  Under these
conditions the tree family is forced: each root-to-leaf branch is the
unique P-path between its endpoints, which is why validation can pin
breadth-first trees without losing generality.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .digraph import Digraph, Path, VertexSet, format_vertex_set, out_neighbors


class TreeConstructionError(ValueError):
    """Some inner vertex cannot be reached without crossing another inner vertex."""

    def __init__(self, root: int, missing: VertexSet) -> None:
        super().__init__(
            f"no inner-interior-free path from {root} to {format_vertex_set(missing)}"
        )
        self.root = root
        self.missing = missing


class InvalidStructureError(ValueError):
    """Raised by require_valid when validation produced a ViolationReport."""

    def __init__(self, report: "ViolationReport") -> None:
        super().__init__(report.describe())
        self.report = report


@dataclass(frozen=True)
class RootedTree:
    """Directed rooted tree: root plus parent and depth maps for the rest.

    Tree arcs (parent -> child) are arcs of the host digraph.  After
    pruning, every leaf is an inner vertex and every internal non-root
    vertex is non-inner.
    """

    root: int
    parent_of: dict[int, int]
    depth_of: dict[int, int]

    @cached_property
    def vertices(self) -> VertexSet:
        return frozenset(self.depth_of)

    @cached_property
    def children_of(self) -> dict[int, tuple[int, ...]]:
        table: dict[int, list[int]] = {v: [] for v in self.depth_of}
        for child, parent in self.parent_of.items():
            table[parent].append(child)
        return {v: tuple(sorted(cs)) for v, cs in table.items()}

    @cached_property
    def leaves(self) -> VertexSet:
        return frozenset(v for v, cs in self.children_of.items() if not cs)

    @property
    def height(self) -> int:
        return max(self.depth_of.values())

    def arcs(self) -> frozenset[tuple[int, int]]:
        return frozenset((p, c) for c, p in self.parent_of.items())

    def fanout_leaves(self, v: int) -> VertexSet:
        """Leaves of the subtree rooted at v."""
        if v not in self.depth_of:
            raise ValueError(f"vertex {v} not in tree rooted at {self.root}")
        found: set[int] = set()
        stack = [v]
        while stack:
            w = stack.pop()
            kids = self.children_of[w]
            if kids:
                stack.extend(kids)
            else:
                found.add(w)
        return frozenset(found)


@dataclass(frozen=True)
class ViolationReport:
    """Why (digraph, inner set) is not a valid structure, with a replayable witness."""

    kind: str  # inner-pair-unreachable | i-cycle | p-path-multiplicity | extra-arc
    witness: dict

    def describe(self) -> str:
        w = self.witness
        if self.kind == "i-cycle":
            cycle = " -> ".join(str(v) for v in w["cycle"])
            return f"I-cycle through inner vertex {w['inner_vertex']}: {cycle}"
        if self.kind == "inner-pair-unreachable":
            return (
                f"no P-path from inner vertex {w['from']} to {w['to']} "
                "(interior must avoid the inner set)"
            )
        if self.kind == "p-path-multiplicity":
            paths = "; ".join(
                " -> ".join(str(v) for v in p) for p in w["paths"]
            )
            return f"multiple P-paths from {w['from']} to {w['to']}: {paths}"
        if self.kind == "extra-arc":
            parts = []
            if w["arcs"]:
                parts.append(
                    "arcs outside every tree: "
                    + ", ".join(f"{t}->{h}" for t, h in w["arcs"])
                )
            if w["vertices"]:
                parts.append(
                    "vertices in no tree: " + format_vertex_set(w["vertices"])
                )
            return "; ".join(parts)
        return f"{self.kind}: {w}"

    def to_record(self) -> dict:
        return {"kind": self.kind, **self.witness}


@dataclass(frozen=True)
class GicStructure:
    """A validated K-GIC: digraph, inner vertex set, and one tree per root."""

    digraph: Digraph
    inner: VertexSet
    trees: dict[int, RootedTree]

    @property
    def k(self) -> int:
        return len(self.inner)

    @cached_property
    def non_inner(self) -> tuple[int, ...]:
        return tuple(v for v in self.digraph.vertices() if v not in self.inner)

    def tree(self, root: int) -> RootedTree:
        return self.trees[root]


def build_tree(
    d: Digraph, inner: Iterable[int], root: int, allowed: Iterable[int] | None = None
) -> RootedTree:
    """Breadth-first tree from `root` that stops expanding at inner vertices.

    Inner vertices other than the root become leaves; the result is
    pruned to the branches that terminate at inner leaves.  Ties are
    broken by ascending label, so construction is deterministic.  When
    `allowed` is given, the tree enters no vertex outside it, which
    equals building the tree on the sub-digraph `allowed` induces.
    Raises TreeConstructionError when some inner vertex is unreachable
    without crossing another inner vertex.
    """
    inner_set = frozenset(inner)
    if root not in inner_set:
        raise ValueError(f"root {root} is not an inner vertex")
    others = inner_set - {root}
    if not others:
        raise ValueError("tree construction needs at least two inner vertices")
    allowed_set = None if allowed is None else frozenset(allowed)

    parent: dict[int, int] = {}
    depth: dict[int, int] = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        if v != root and v in inner_set:
            continue  # inner vertices are leaves, never expanded
        for u in d.out_sorted(v):
            if u in depth or (allowed_set is not None and u not in allowed_set):
                continue
            parent[u] = v
            depth[u] = depth[v] + 1
            queue.append(u)

    missing = others - parent.keys()
    if missing:
        raise TreeConstructionError(root, frozenset(missing))

    keep = {root}
    for leaf in others:
        v = leaf
        while v not in keep:
            keep.add(v)
            v = parent[v]
    return RootedTree(
        root,
        {v: p for v, p in parent.items() if v in keep},
        {v: dv for v, dv in depth.items() if v in keep},
    )


def _i_cycle_report(d: Digraph, inner: VertexSet) -> ViolationReport | None:
    """Report the smallest inner vertex lying on an I-cycle, else None.

    One breadth-first search per inner vertex i, ascending, through
    non-inner vertices only; the witness is a shortest cycle through i
    whose other vertices are all non-inner.
    """
    for i in sorted(inner):
        queue = deque(u for u in d.out_sorted(i) if u not in inner)
        parent = dict.fromkeys(queue, i)
        while queue:
            v = queue.popleft()
            for u in d.out_sorted(v):
                if u == i:
                    path = [v]
                    while path[-1] != i:
                        path.append(parent[path[-1]])
                    cycle = [*reversed(path), i]
                    return ViolationReport("i-cycle", {"inner_vertex": i, "cycle": cycle})
                if u not in inner and u not in parent:
                    parent[u] = v
                    queue.append(u)
    return None


def walk_p_paths(
    d: Digraph, inner: Iterable[int], root: int
) -> tuple[int, tuple[Path, Path]] | VertexSet:
    """Depth-first walk over the P-paths leaving `root`, on an explicit stack.

    Out-neighbors are visited in ascending order and the other inner
    vertices are leaves, so P-paths are found in lexicographic order.
    Returns (target, paths) as soon as some target gains a second
    P-path, with the first two P-paths to it; otherwise returns the set
    of targets reached, each by exactly one P-path.
    """
    inner_set = frozenset(inner)
    if root not in inner_set:
        raise ValueError(f"root {root} is not an inner vertex")
    first: dict[int, Path] = {}
    path = [root]
    on_path = {root}
    stack = [iter(d.out_sorted(root))]
    while stack:
        for u in stack[-1]:
            if u in inner_set:
                if u == root:
                    continue
                found = (*path, u)
                if u in first:
                    return u, (first[u], found)
                first[u] = found
            elif u not in on_path:
                path.append(u)
                on_path.add(u)
                stack.append(iter(d.out_sorted(u)))
                break
        else:
            stack.pop()
            on_path.discard(path.pop())
    return frozenset(first)


def validate_gic(d: Digraph, inner: Iterable[int]) -> GicStructure | ViolationReport:
    """Decide whether (d, inner) is a valid K-GIC.

    Returns the structure with its breadth-first trees on success, or a
    ViolationReport carrying a concrete counterexample.  Checks run in
    order: no I-cycle, exactly one P-path per ordered inner pair, and
    finally coverage (every vertex and arc of d must appear in the tree
    union).

    An I-cycle is reported at the smallest inner vertex on one, with a
    shortest such cycle as witness.  P-paths are checked by one
    walk_p_paths walk per root, roots in ascending order.  The first
    root with a violation is reported: the first target to gain a
    second P-path in the walk's lexicographic order
    ("p-path-multiplicity"), else the smallest target without a P-path
    ("inner-pair-unreachable").
    """
    inner_set = frozenset(inner)
    if not inner_set:
        raise ValueError("inner set must be nonempty")
    for v in inner_set:
        d._check_vertex(v)

    report = _i_cycle_report(d, inner_set)
    if report is not None:
        return report

    if len(inner_set) == 1:
        root = next(iter(inner_set))
        if d.n == 1:
            return GicStructure(d, inner_set, {root: RootedTree(root, {}, {root: 0})})
        return ViolationReport(
            "extra-arc",
            {
                "arcs": sorted(d.arcs),
                "vertices": sorted(set(d.vertices()) - {root}),
            },
        )

    for root in sorted(inner_set):
        reached = walk_p_paths(d, inner_set, root)
        if isinstance(reached, tuple):
            target, paths = reached
            return ViolationReport(
                "p-path-multiplicity",
                {"from": root, "to": target, "paths": [list(p) for p in paths]},
            )
        missing = inner_set - reached - {root}
        if missing:
            return ViolationReport(
                "inner-pair-unreachable", {"from": root, "to": min(missing)}
            )

    trees = {root: build_tree(d, inner_set, root) for root in sorted(inner_set)}

    covered_arcs: set[tuple[int, int]] = set()
    covered_vertices: set[int] = set()
    for tree in trees.values():
        covered_arcs |= tree.arcs()
        covered_vertices |= tree.vertices
    extra_arcs = sorted(d.arcs - covered_arcs)
    uncovered = sorted(set(d.vertices()) - covered_vertices)
    if extra_arcs or uncovered:
        return ViolationReport("extra-arc", {"arcs": extra_arcs, "vertices": uncovered})

    return GicStructure(d, inner_set, trees)


def require_valid(d: Digraph, inner: Iterable[int]) -> GicStructure:
    """validate_gic, raising InvalidStructureError instead of returning a report."""
    result = validate_gic(d, inner)
    if isinstance(result, ViolationReport):
        raise InvalidStructureError(result)
    return result


def check_tree_consistency(g: GicStructure) -> bool:
    """True iff tree child sets match digraph out-neighborhoods everywhere.

    Every non-inner vertex must have the same child set in every tree
    containing it, equal to its out-neighborhood in the digraph, and
    each root's children must be exactly its out-neighborhood.
    """
    d = g.digraph
    for root, tree in g.trees.items():
        if frozenset(tree.children_of[root]) != out_neighbors(d, root):
            return False
        for v in tree.vertices:
            if v in g.inner:
                continue
            if frozenset(tree.children_of[v]) != out_neighbors(d, v):
                return False
    return True
