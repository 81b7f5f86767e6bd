"""Bitmask cycle utilities shared by the cover and bound solvers.

Vertices are 0-based bit indices here; public modules translate to the
1-based labels of Digraph at their boundaries.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from .digraph import Digraph, bits_of


def out_masks(d: Digraph) -> list[int]:
    """Adjacency as bitmasks: masks[v-1] has bit h-1 set for each arc v->h."""
    masks = [0] * d.n
    for tail, head in d.arcs:
        masks[tail - 1] |= 1 << (head - 1)
    return masks


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with bit v-1 set for each 1-based label v; bits_of reads it back."""
    mask = 0
    for v in vertices:
        mask |= 1 << (v - 1)
    return mask


def in_masks(adj: list[int]) -> list[int]:
    rev = [0] * len(adj)
    for v, mask in enumerate(adj):
        for u in bits_of(mask):
            rev[u] |= 1 << v
    return rev


def is_acyclic_mask(adj: list[int], mask: int) -> bool:
    """True iff the sub-digraph induced by `mask` has no directed cycle."""
    indeg = {v: 0 for v in bits_of(mask)}
    for v in indeg:
        for u in bits_of(adj[v] & mask):
            indeg[u] += 1
    queue = deque(v for v, deg in indeg.items() if deg == 0)
    done = 0
    while queue:
        v = queue.popleft()
        done += 1
        for u in bits_of(adj[v] & mask):
            indeg[u] -= 1
            if indeg[u] == 0:
                queue.append(u)
    return done == len(indeg)


def shortest_cycle(adj: list[int], mask: int) -> tuple[int, ...] | None:
    """A shortest directed cycle inside `mask`, as a vertex tuple, else None."""
    best: tuple[int, ...] | None = None
    for s in bits_of(mask):
        sbit = 1 << s
        parent = {s: -1}
        queue = deque([s])
        found: tuple[int, ...] | None = None
        while queue and found is None:
            v = queue.popleft()
            heads = adj[v] & mask
            if heads & sbit:
                # closing arc v -> s: reconstruct s..v
                path = [v]
                while parent[path[-1]] != -1:
                    path.append(parent[path[-1]])
                found = tuple(reversed(path))
                break
            for u in bits_of(heads):
                if u not in parent:
                    parent[u] = v
                    queue.append(u)
        if found is not None and (best is None or len(found) < len(best)):
            best = found
            if len(best) == 2:
                break
    return best


def chordless_cycles(adj: list[int], mask: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield every chordless (induced) directed cycle inside `mask`.

    Each cycle is yielded once, rooted at its minimum vertex, as
    (vertex_mask, vertex_tuple).  Chordlessness prunes the search hard:
    on a complete digraph only the digons survive.
    """
    radj = in_masks(adj)
    for s in bits_of(mask):
        sbit = 1 << s
        allowed = mask & ~(sbit - 1)  # canonical root: minimum vertex of the cycle
        path = [s]
        path_mask = sbit
        stack = [bits_of(adj[s] & allowed & ~sbit)]  # candidate heads per path vertex
        while stack:
            for u in stack[-1]:
                ubit = 1 << u
                if radj[u] & (path_mask ^ (1 << path[-1])):
                    continue  # some earlier path vertex already points at u
                if adj[u] & (path_mask ^ sbit):
                    continue  # u points back into the path interior
                if adj[u] & sbit:
                    yield (path_mask | ubit, (*path, u))
                else:
                    path.append(u)
                    path_mask |= ubit
                    stack.append(bits_of(adj[u] & allowed & ~path_mask))
                    break
            else:
                stack.pop()
                path_mask ^= 1 << path.pop()


def max_disjoint_cycles(cycle_masks: list[int], mask0: int) -> int:
    """Maximum number of vertex-disjoint cycles from `cycle_masks` inside mask0.

    Exact when cycle_masks holds all chordless cycles: any packing of
    arbitrary cycles can be rewritten cycle-by-cycle into a chordless
    packing of the same size on subsets of the same vertices.
    """
    by_min: dict[int, list[int]] = {}
    for cm in cycle_masks:
        by_min.setdefault((cm & -cm).bit_length() - 1, []).append(cm)
    memo: dict[int, int] = {}

    def go(mask: int) -> int:
        if mask == 0:
            return 0
        cached = memo.get(mask)
        if cached is not None:
            return cached
        v = (mask & -mask).bit_length() - 1
        best = go(mask & (mask - 1))
        for cm in by_min.get(v, ()):
            if cm & mask == cm:
                best = max(best, 1 + go(mask & ~cm))
        memo[mask] = best
        return best

    return go(mask0)


def strongly_connected_mask(adj: list[int], radj: list[int], mask: int) -> bool:
    """True iff the sub-digraph induced by `mask` is strongly connected."""
    if mask == 0:
        return False

    def closure(start: int, graph: list[int]) -> int:
        seen = 1 << start
        stack = [start]
        while stack:
            v = stack.pop()
            fresh = graph[v] & mask & ~seen
            seen |= fresh
            stack.extend(bits_of(fresh))
        return seen

    root = (mask & -mask).bit_length() - 1
    return closure(root, adj) == mask and closure(root, radj) == mask
