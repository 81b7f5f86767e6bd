"""Brute-force oracles the tests trust instead of the library's own algorithms.

Everything here is deliberately naive and structurally different from
the implementations under test: path enumeration extends raw vertex
sequences, cycle detection uses three-color DFS, rank uses a pivot
list, and the acyclic-subgraph oracle enumerates subsets outright.
"""

from __future__ import annotations

from itertools import combinations, product

from gicc.digraph import Digraph


def all_simple_paths(d: Digraph, frm: int, to: int) -> list[tuple[int, ...]]:
    """Every simple frm -> to path, by extending raw vertex sequences."""
    found: list[tuple[int, ...]] = []

    def extend(path: list[int]) -> None:
        last = path[-1]
        for v in range(1, d.n + 1):
            if (last, v) not in d.arcs:
                continue
            if v == to:
                found.append(tuple(path) + (v,))
            elif v not in path:
                extend(path + [v])

    extend([frm])
    return found


def paths_with_interior(
    d: Digraph, frm: int, to: int, allowed: frozenset[int]
) -> list[tuple[int, ...]]:
    """Simple paths whose internal vertices all lie in `allowed` (filter after)."""
    return [
        p for p in all_simple_paths(d, frm, to) if all(v in allowed for v in p[1:-1])
    ]


def p_path_walk_expected(d: Digraph, inner: frozenset[int], root: int):
    """What the P-path walk from `root` must return, read off the enumeration.

    Per target: its P-paths in lexicographic order.  When some target
    has two or more, the answer is the target whose second P-path is
    smallest, with its two smallest P-paths; otherwise the set of
    targets with exactly one.
    """
    non_inner = frozenset(d.vertices()) - inner
    paths = {
        t: sorted(paths_with_interior(d, root, t, non_inner))
        for t in sorted(inner - {root})
    }
    multiple = [t for t, ps in paths.items() if len(ps) >= 2]
    if multiple:
        target = min(multiple, key=lambda t: paths[t][1])
        return target, tuple(paths[target][:2])
    return frozenset(t for t, ps in paths.items() if ps)


def has_cycle_coloring(d: Digraph) -> bool:
    """Cycle detection by three-color depth-first search."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in d.vertices()}

    def visit(v: int) -> bool:
        color[v] = GRAY
        for u in d.out_sorted(v):
            if color[u] == GRAY:
                return True
            if color[u] == WHITE and visit(u):
                return True
        color[v] = BLACK
        return False

    return any(color[v] == WHITE and visit(v) for v in d.vertices())


def subset_acyclic(d: Digraph, members: frozenset[int]) -> bool:
    """Acyclicity of the induced subset, checked on the raw arc set."""
    if not members:
        return True
    arcs = {(t, h) for (t, h) in d.arcs if t in members and h in members}
    color = {v: 0 for v in members}

    def visit(v: int) -> bool:
        color[v] = 1
        for (t, h) in arcs:
            if t != v:
                continue
            if color[h] == 1:
                return True
            if color[h] == 0 and visit(h):
                return True
        color[v] = 2
        return False

    return not any(color[v] == 0 and visit(v) for v in members)


def all_simple_cycles(d: Digraph) -> list[tuple[int, ...]]:
    """Every simple directed cycle, rooted at its minimum vertex."""
    found: list[tuple[int, ...]] = []

    def extend(start: int, path: list[int]) -> None:
        last = path[-1]
        for v in range(start, d.n + 1):
            if (last, v) not in d.arcs:
                continue
            if v == start:
                if len(path) >= 2:
                    found.append(tuple(path))
            elif v not in path:
                extend(start, path + [v])

    for s in range(1, d.n + 1):
        extend(s, [s])
    return found


def mais_naive(d: Digraph) -> int:
    """Maximum acyclic induced subset order by descending subset enumeration."""
    vertices = list(d.vertices())
    for size in range(d.n, 0, -1):
        for subset in combinations(vertices, size):
            if subset_acyclic(d, frozenset(subset)):
                return size
    return 0


def rank_gf2(rows: list[int]) -> int:
    """GF(2) rank via an explicit pivot list."""
    rows = [r for r in rows if r]
    rank = 0
    width = max((r.bit_length() for r in rows), default=0)
    for bit in reversed(range(width)):
        pivot = next((r for r in rows if (r >> bit) & 1), None)
        if pivot is None:
            continue
        rows = [r ^ pivot if (r >> bit) & 1 else r for r in rows if r != pivot]
        rank += 1
    return rank


def minrank_naive(d: Digraph) -> int:
    """Minimum fitting-matrix rank by enumerating every arc assignment."""
    arcs = sorted(d.arcs)
    best = d.n
    for assignment in product((0, 1), repeat=len(arcs)):
        rows = [1 << (i - 1) for i in d.vertices()]
        for (tail, head), bit in zip(arcs, assignment):
            if bit:
                rows[tail - 1] |= 1 << (head - 1)
        best = min(best, rank_gf2(rows))
        if best == 1:
            break
    return best
