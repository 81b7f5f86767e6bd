"""Exact desk-scale lower bounds and optimality certification.

Two oracles anchor everything: the order of a maximum acyclic induced
sub-digraph (a lower bound on every achievable broadcast rate) and the
GF(2) minrank (the optimal scalar linear length).  A structure is
certified optimal when the acyclic-remainder argument applies: its
code length then meets the lower bound, squeezing the optimum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

from . import _cycles
from .digraph import Digraph, VertexSet, bits_of, induced_subgraph
from .structure import (
    GicStructure,
    TreeConstructionError,
    ViolationReport,
    build_tree,
    validate_gic,
)

DEFAULT_MAIS_LIMIT = 30
DEFAULT_MINRANK_ARC_LIMIT = 24
CASE2_EXACT_LIMIT = 12

OPTIMAL_CASE1 = "optimal-case1"
OPTIMAL_CASE2 = "optimal-case2"
UNKNOWN = "unknown"


class SizeGateError(RuntimeError):
    """An exact oracle was asked to run beyond its configured size gate."""


@dataclass(frozen=True)
class BoundsReport:
    """Lower bounds versus achievable lengths for one digraph."""

    mais: int
    minrank: int | None
    scheme_lengths: dict[str, float]
    sandwich_ok: bool
    optimality: str

    def to_record(self) -> dict:
        return {
            "mais": self.mais,
            "minrank": self.minrank,
            "scheme_lengths": dict(self.scheme_lengths),
            "sandwich_ok": self.sandwich_ok,
            "optimality": self.optimality,
        }


def mais(d: Digraph, limit: int = DEFAULT_MAIS_LIMIT) -> int:
    """Order of a maximum acyclic induced sub-digraph, exactly.

    Branch and bound: find a shortest cycle and branch on which of its
    vertices to delete (the complement of a minimum feedback vertex
    set).  Gated at `limit` vertices.
    """
    if d.n > limit:
        raise SizeGateError(f"exact MAIS is gated at n <= {limit} (got {d.n})")
    adj = _cycles.out_masks(d)
    return _mais_masks(adj, (1 << d.n) - 1)


def _mais_masks(adj: list[int], full: int) -> int:
    # greedy seed: repeatedly delete the busiest vertex of a shortest cycle
    radj = _cycles.in_masks(adj)
    mask = full
    while True:
        cycle = _cycles.shortest_cycle(adj, mask)
        if cycle is None:
            break
        busiest = max(
            cycle,
            key=lambda v: bin(adj[v] & mask).count("1") + bin(radj[v] & mask).count("1"),
        )
        mask &= ~(1 << busiest)
    best = bin(mask).count("1")

    seen: set[int] = set()

    def search(mask: int) -> None:
        nonlocal best
        if bin(mask).count("1") <= best or mask in seen:
            return
        seen.add(mask)
        cycle = _cycles.shortest_cycle(adj, mask)
        if cycle is None:
            best = bin(mask).count("1")
            return
        for v in cycle:
            search(mask & ~(1 << v))

    search(full)
    return best


def minrank_gf2(d: Digraph, max_arcs: int = DEFAULT_MINRANK_ARC_LIMIT) -> int:
    """Minimum GF(2) rank over all matrices fitting the digraph.

    A matrix fits when its diagonal is all ones and off-diagonal
    entries are free exactly on arcs.  Rows are enumerated depth-first
    with rank-based pruning (rank only grows as rows are fixed), and
    the search stops early once the MAIS lower bound is met; the
    result equals plain exhaustive enumeration.  Gated by arc count.
    """
    if len(d.arcs) > max_arcs:
        raise SizeGateError(
            f"minrank enumeration is gated at {max_arcs} arcs (got {len(d.arcs)})"
        )
    n = d.n
    adj = _cycles.out_masks(d)
    lower = _mais_masks(adj, (1 << n) - 1)

    best = min(n, gf2_rank(1 << i | adj[i] for i in range(n)))
    if best == lower:
        return best

    basis: dict[int, int] = {}

    def dfs(i: int, rank: int) -> None:
        nonlocal best
        if rank >= best:
            return
        if i == n:
            best = rank
            return
        free = adj[i]
        sub = 0
        while True:
            row = _reduce((1 << i) | sub, basis)
            if row:
                hi = row.bit_length() - 1
                basis[hi] = row
                dfs(i + 1, rank + 1)
                del basis[hi]
            else:
                dfs(i + 1, rank)
            if best == lower:
                return
            if sub == free:
                break
            sub = (sub - free) & free
        return

    dfs(0, 0)
    return best


def _reduce(row: int, basis: dict[int, int]) -> int:
    while row:
        hi = row.bit_length() - 1
        pivot = basis.get(hi)
        if pivot is None:
            return row
        row ^= pivot
    return 0


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank of bitmask rows over GF(2) by elimination."""
    basis: dict[int, int] = {}
    rank = 0
    for row in rows:
        row = _reduce(row, basis)
        if row:
            basis[row.bit_length() - 1] = row
            rank += 1
    return rank


def certify_optimality(g: GicStructure, exact_limit: int = CASE2_EXACT_LIMIT) -> str:
    """Certify that g's code length meets the lower bound, when provable.

    "optimal-case1": the non-inner vertices induce an acyclic
    sub-digraph, so deleting K-1 inner vertices leaves the digraph
    acyclic and the bound is tight.  "optimal-case2": an exhaustive
    search (gated at `exact_limit` vertices) decomposes the digraph
    into disjoint non-inner cycles plus case-1 structures partitioning
    the inner set, with the same accounting.  "unknown" otherwise; it
    never lies, but it is only as strong as the search.
    """
    d = g.digraph
    if _is_case1(g):
        return OPTIMAL_CASE1
    if d.n > exact_limit:
        return UNKNOWN
    if _case2_decomposition(d, g.inner) is not None:
        return OPTIMAL_CASE2
    return UNKNOWN


def _is_case1(g: GicStructure) -> bool:
    """True iff the non-inner vertices of g induce an acyclic sub-digraph."""
    return _cycles.is_acyclic_mask(_cycles.out_masks(g.digraph), _cycles.mask_of(g.non_inner))


def _case2_decomposition(
    d: Digraph, inner: VertexSet, max_families: int = 20000
) -> dict | None:
    """Search for disjoint non-inner cycles plus disjoint case-1 structures.

    Looks for M >= 1 vertex-disjoint cycles among the non-inner
    vertices together with a partition of the inner set into M + 1
    groups, each group carried by a case-1 structure on its own
    vertices, all mutually disjoint.  Group vertex sets are grown
    canonically (tree union inside the available pool), which keeps
    the search exhaustive over cycle families and partitions but
    best-effort over vertex allocations.
    """
    adj = _cycles.out_masks(d)
    full = (1 << d.n) - 1
    cycles = list(_cycles.chordless_cycles(adj, full & ~_cycles.mask_of(inner)))
    if not cycles:
        return None

    families: list[list[int]] = []

    def collect(start: int, used: int, chosen: list[int]) -> None:
        if chosen:
            families.append(list(chosen))
        if len(families) >= max_families:
            return
        for idx in range(start, len(cycles)):
            cmask = cycles[idx][0]
            if cmask & used == 0:
                chosen.append(cmask)
                collect(idx + 1, used | cmask, chosen)
                chosen.pop()

    collect(0, 0, [])
    inner_sorted = sorted(inner)
    for family in families:
        family_mask = 0
        for cmask in family:
            family_mask |= cmask
        groups_needed = len(family) + 1
        if groups_needed > len(inner_sorted):
            continue
        pool = full & ~family_mask
        for partition in _set_partitions(inner_sorted, groups_needed):
            assignment = _assign_groups(d, partition, pool, inner)
            if assignment is not None:
                return {
                    "cycles": [list(v + 1 for v in verts) for cm, verts in cycles if cm in family],
                    "groups": assignment,
                }
    return None


def _assign_groups(
    d: Digraph, partition: list[list[int]], pool: int, inner: VertexSet
) -> list[dict] | None:
    inner_mask = _cycles.mask_of(inner)

    def grow(idx: int, avail: int, acc: list[dict]) -> list[dict] | None:
        if idx == len(partition):
            return acc
        group = partition[idx]
        own_mask = _cycles.mask_of(group)
        if own_mask & avail != own_mask:
            return None
        # the group may borrow non-inner vertices from the pool, never
        # inner vertices of other groups; its vertices are the union of
        # its breadth-first trees inside that allowance
        allowed = [v + 1 for v in bits_of((avail & ~inner_mask) | own_mask)]
        members: tuple[int, ...] = tuple(group)
        if len(group) > 1:
            try:
                trees = [build_tree(d, group, root, allowed) for root in group]
            except TreeConstructionError:
                return None
            members = tuple(sorted(set().union(*(t.vertices for t in trees))))
        sub, originals = induced_subgraph(d, members)
        local_inner = frozenset(originals.index(v) + 1 for v in group)
        result = validate_gic(sub, local_inner)
        if isinstance(result, ViolationReport) or not _is_case1(result):
            return None
        used = _cycles.mask_of(members)
        return grow(idx + 1, avail & ~used, acc + [{"inner": group, "vertices": list(members)}])

    return grow(0, pool, [])


def _set_partitions(items: list[int], blocks: int):
    """All partitions of `items` into exactly `blocks` nonempty groups."""
    if blocks == 1:
        yield [list(items)]
        return
    if len(items) < blocks:
        return
    first, rest = items[0], items[1:]

    def helper(remaining: list[int], groups: list[list[int]]):
        if not remaining:
            if len(groups) == blocks:
                yield [list(gr) for gr in groups]
            return
        item = remaining[0]
        for gi in range(len(groups)):
            groups[gi].append(item)
            yield from helper(remaining[1:], groups)
            groups[gi].pop()
        if len(groups) < blocks:
            groups.append([item])
            yield from helper(remaining[1:], groups)
            groups.pop()

    yield from helper(rest, [[first]])


def sandwich_check(
    bound: int, lengths: Mapping[str, float], rank: int | None = None
) -> bool:
    """True iff bound <= rank <= every reported length.

    `bound` is the MAIS lower bound and `rank` the GF(2) minrank; with
    no rank, the bound alone must be at most every length.
    """
    lower = bound if rank is None else rank
    return bound <= lower and all(lower <= value for value in lengths.values())


def conjecture_sweep(
    max_exhaustive_n: int = 4,
    samples: int = 200,
    random_n: int = 6,
    p: float = 0.35,
    seed: int = 0,
) -> dict:
    """Hunt for a validated structure whose code length beats the lower bound.

    Exhausts every digraph with up to `max_exhaustive_n` vertices and
    every inner set of size >= 2, then samples random digraphs.  Any
    validated structure with mais < N - K + 1 is reported; none is
    asserted to exist or not exist.
    """
    checked = 0
    validated = 0
    digraph_count = 0
    counterexamples: list[dict] = []

    def inspect(d: Digraph) -> None:
        nonlocal checked, validated
        bound: int | None = None
        for k in range(2, d.n + 1):
            for inner in combinations(range(1, d.n + 1), k):
                checked += 1
                result = validate_gic(d, frozenset(inner))
                if isinstance(result, ViolationReport):
                    continue
                validated += 1
                if bound is None:
                    bound = mais(d)
                length = d.n - k + 1
                if bound < length:
                    counterexamples.append(
                        {"n": d.n, "arcs": sorted(d.arcs), "inner": list(inner)}
                    )

    for n in range(2, max_exhaustive_n + 1):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        for picks in range(1 << len(pairs)):
            arcs = frozenset(pairs[b] for b in bits_of(picks))
            digraph_count += 1
            inspect(Digraph(n, arcs))

    rng = random.Random(seed)
    for _ in range(samples):
        arcs = [
            (i, j)
            for i in range(1, random_n + 1)
            for j in range(1, random_n + 1)
            if i != j and rng.random() < p
        ]
        digraph_count += 1
        inspect(Digraph(random_n, frozenset(arcs)))

    return {
        "digraphs": digraph_count,
        "candidates": checked,
        "validated": validated,
        "counterexamples": counterexamples,
    }
