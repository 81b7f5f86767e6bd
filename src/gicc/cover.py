"""Cover schemes: disjoint-structure covers of arbitrary digraphs plus baselines.

The cover scheme picks vertex-disjoint valid GIC sub-digraphs, codes
each one, and sends the remaining messages uncoded, for a total length
N - sum(K_i - 1).  Cycle covers and clique covers are special cases (a
chordless cycle is a 2-GIC, a bidirectional clique an n-GIC), and both
are provided as exact desk-scale baselines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable

from . import _cycles
from .bounds import SizeGateError
from .codec import MessageVector, round_trip
from .digraph import Digraph, VertexSet, bits_of, induced_subgraph
from .structure import (
    GicStructure,
    TreeConstructionError,
    ViolationReport,
    build_tree,
    validate_gic,
)

EXACT_COVER_LIMIT = 10
EXACT_BASELINE_LIMIT = 12
DEFAULT_COVER_BUDGET = 600


@dataclass(frozen=True)
class CoverPart:
    """One coded piece of a plan: vertices and inner set in original labels.

    `structure` lives on the induced sub-digraph relabeled to
    1..len(vertices); vertices[k-1] is the original label of its
    vertex k.
    """

    vertices: tuple[int, ...]
    inner: VertexSet
    structure: GicStructure

    @property
    def k(self) -> int:
        return len(self.inner)

    def local_messages(self, m: MessageVector) -> MessageVector:
        return MessageVector(m.t, tuple(m.payloads[v - 1] for v in self.vertices))


@dataclass(frozen=True)
class CoverPlan:
    """Disjoint GIC parts plus the uncoded remainder of an n-vertex digraph."""

    n: int
    parts: tuple[CoverPart, ...]
    uncoded: VertexSet

    @property
    def psi(self) -> int:
        return len(self.parts)

    @property
    def savings(self) -> int:
        return sum(p.k - 1 for p in self.parts)

    @property
    def length(self) -> int:
        return self.n - self.savings


def plan_round_trip(plan: CoverPlan, m: MessageVector) -> bool:
    """True iff per-part codes plus uncoded messages let all receivers decode."""
    if m.n != plan.n:
        raise ValueError(f"expected {plan.n} messages, got {m.n}")
    return all(round_trip(p.structure, p.local_messages(m)) for p in plan.parts)


def _make_part(d: Digraph, vertices: Iterable[int], inner: Iterable[int]) -> CoverPart | None:
    """Validate `inner` on the sub-digraph induced by `vertices`; None if invalid."""
    originals = tuple(sorted(set(vertices)))
    sub, _ = induced_subgraph(d, originals)
    local = {orig: idx for idx, orig in enumerate(originals, start=1)}
    result = validate_gic(sub, frozenset(local[v] for v in inner))
    if isinstance(result, ViolationReport):
        return None
    return CoverPart(originals, frozenset(inner), result)


def gicc_cover(d: Digraph, effort: int | str = DEFAULT_COVER_BUDGET, seed: int = 0) -> CoverPlan:
    """Find disjoint valid GIC sub-digraphs and the resulting cover plan.

    effort="exhaustive" maximizes the savings exactly (gated at
    n <= 10); an integer effort bounds the number of candidate inner
    sets the greedy search tries.  Deterministic for fixed
    (d, effort, seed); the worst case is every vertex uncoded.
    """
    if effort == "exhaustive":
        if d.n > EXACT_COVER_LIMIT:
            raise SizeGateError(
                f"exhaustive cover is gated at n <= {EXACT_COVER_LIMIT} (got {d.n})"
            )
        return _cover_exact(d)
    if not isinstance(effort, int) or effort < 1:
        raise ValueError("effort must be a positive budget or 'exhaustive'")
    return _cover_greedy(d, effort, seed)


def _cover_exact(d: Digraph) -> CoverPlan:
    adj = _cycles.out_masks(d)
    radj = _cycles.in_masks(adj)
    full = (1 << d.n) - 1

    part_memo: dict[int, tuple[int, VertexSet] | None] = {}
    miss = object()

    def part_value(mask: int) -> tuple[int, VertexSet] | None:
        cached = part_memo.get(mask, miss)
        if cached is not miss:
            return cached
        value: tuple[int, VertexSet] | None = None
        if bin(mask).count("1") >= 2 and _cycles.strongly_connected_mask(adj, radj, mask):
            originals = tuple(b + 1 for b in bits_of(mask))
            sub, _ = induced_subgraph(d, originals)
            for k in range(len(originals), 1, -1):
                for inner_local in combinations(range(1, len(originals) + 1), k):
                    if not isinstance(validate_gic(sub, frozenset(inner_local)), ViolationReport):
                        value = (k - 1, frozenset(originals[i - 1] for i in inner_local))
                        break
                if value:
                    break
        part_memo[mask] = value
        return value

    best_memo: dict[int, tuple[int, int | None]] = {}

    def best(mask: int) -> int:
        if mask == 0:
            return 0
        cached = best_memo.get(mask)
        if cached is not None:
            return cached[0]
        low = mask & -mask
        rest = mask ^ low
        best_val = best(rest)
        best_part: int | None = None
        sub = rest
        while True:
            part = sub | low
            pv = part_value(part)
            if pv is not None:
                candidate = pv[0] + best(mask & ~part)
                if candidate > best_val:
                    best_val = candidate
                    best_part = part
            if sub == 0:
                break
            sub = (sub - 1) & rest
        best_memo[mask] = (best_val, best_part)
        return best_val

    best(full)
    parts: list[CoverPart] = []
    mask = full
    while mask:
        _, chosen = best_memo[mask]
        if chosen is None:
            mask ^= mask & -mask
            continue
        savings_value = part_value(chosen)
        assert savings_value is not None
        vertices = tuple(b + 1 for b in bits_of(chosen))
        part = _make_part(d, vertices, savings_value[1])
        assert part is not None
        parts.append(part)
        mask &= ~chosen
    covered = {v for p in parts for v in p.vertices}
    return CoverPlan(d.n, tuple(parts), frozenset(d.vertices()) - covered)


def _cover_greedy(d: Digraph, budget: int, seed: int) -> CoverPlan:
    rng = random.Random(seed)
    adj = _cycles.out_masks(d)
    remaining = set(d.vertices())
    parts: list[CoverPart] = []
    attempts = 0

    while len(remaining) >= 2:
        originals = tuple(sorted(remaining))
        mask = _cycles.mask_of(originals)
        if _cycles.is_acyclic_mask(adj, mask):
            break
        found: CoverPart | None = None
        sizes = list(range(len(originals), 1, -1))
        for k in sizes:
            if attempts >= budget:
                break
            allowance = max(4, (budget - attempts) // max(1, k - 1))
            total = comb(len(originals), k)
            if total <= allowance:
                candidates = combinations(originals, k)
            else:
                candidates = (
                    tuple(sorted(rng.sample(originals, k))) for _ in range(allowance)
                )
            for inner in candidates:
                attempts += 1
                found = _try_part(d, remaining, frozenset(inner))
                if found is not None or attempts >= budget:
                    break
            if found is not None:
                break
        if found is None:
            # guaranteed fallback: a chordless cycle is always a valid 2-GIC
            cycle = next(_cycles.chordless_cycles(adj, mask), None)
            if cycle is None:
                break
            vertices = tuple(sorted(b + 1 for b in bits_of(cycle[0])))
            inner = frozenset((cycle[1][0] + 1, cycle[1][1] + 1))
            found = _make_part(d, vertices, inner)
            assert found is not None, "chordless cycle failed to validate"
        parts.append(found)
        remaining -= set(found.vertices)

    covered = {v for p in parts for v in p.vertices}
    return CoverPlan(d.n, tuple(parts), frozenset(d.vertices()) - covered)


def _try_part(d: Digraph, remaining: set[int], inner: VertexSet) -> CoverPart | None:
    """Grow a part from candidate inner vertices inside the uncovered vertices."""
    try:
        trees = [build_tree(d, inner, root, remaining) for root in sorted(inner)]
    except TreeConstructionError:
        return None
    return _make_part(d, set().union(*(t.vertices for t in trees)), inner)


@dataclass(frozen=True)
class IccDescription:
    """Interlinked-cycle description: k disjoint paths plus connector paths.

    paths[i] is the vertex sequence of the i-th path (1-indexed in the
    connector keys); connectors[(i, j)] holds the intermediate vertices
    inserted between the last vertex of path i and the first vertex of
    path j (possibly empty).  All vertex sequences are mutually
    disjoint and together use each label 1..N exactly once.
    """

    k: int
    paths: tuple[tuple[int, ...], ...]
    connectors: dict[tuple[int, int], tuple[int, ...]]


def icc_to_gic(desc: IccDescription) -> tuple[Digraph, VertexSet]:
    """Assemble the digraph an IccDescription denotes, with its inner set.

    Arcs: consecutive pairs inside each path; for every ordered pair
    (i, j) a chain from the last vertex of path i through the connector
    vertices into the first vertex of path j (so every path head has
    in-degree >= 1).  The inner set is the last vertex of each path,
    and the result always validates as a GIC.
    """
    if desc.k < 2:
        raise ValueError("need at least two paths")
    if len(desc.paths) != desc.k:
        raise ValueError(f"expected {desc.k} paths, got {len(desc.paths)}")
    seen: set[int] = set()
    for path in desc.paths:
        if not path:
            raise ValueError("paths need at least one vertex")
        seen_len = len(seen)
        seen.update(path)
        if len(seen) != seen_len + len(path):
            raise ValueError("path vertex sets are not disjoint")
    for (i, j), conn in desc.connectors.items():
        if not (1 <= i <= desc.k and 1 <= j <= desc.k) or i == j:
            raise ValueError(f"bad connector key ({i}, {j})")
        seen_len = len(seen)
        seen.update(conn)
        if len(seen) != seen_len + len(conn):
            raise ValueError("connector vertex sets are not disjoint")
    n = len(seen)
    if seen != set(range(1, n + 1)):
        raise ValueError("vertex labels must cover 1..N exactly")

    arcs: list[tuple[int, int]] = []
    for path in desc.paths:
        arcs.extend(zip(path, path[1:]))
    for i in range(1, desc.k + 1):
        for j in range(1, desc.k + 1):
            if i == j:
                continue
            prev = desc.paths[i - 1][-1]
            for c in desc.connectors.get((i, j), ()):
                arcs.append((prev, c))
                prev = c
            arcs.append((prev, desc.paths[j - 1][0]))
    inner = frozenset(path[-1] for path in desc.paths)
    return Digraph.from_arcs(n, arcs), inner


def cycle_cover_length(d: Digraph, exact_limit: int = EXACT_BASELINE_LIMIT) -> int:
    """Cycle-cover code length: N minus the number of disjoint cycles packed.

    Exact (exhaustive packing over chordless cycles) up to
    `exact_limit` vertices, greedy shortest-cycle-first beyond.
    """
    adj = _cycles.out_masks(d)
    full = (1 << d.n) - 1
    if d.n <= exact_limit:
        masks = [cm for cm, _ in _cycles.chordless_cycles(adj, full)]
        return d.n - _cycles.max_disjoint_cycles(masks, full)
    count = 0
    mask = full
    while True:
        cycle = _cycles.shortest_cycle(adj, mask)
        if cycle is None:
            break
        count += 1
        for v in cycle:
            mask &= ~(1 << v)
    return d.n - count


def clique_cover_length(d: Digraph, exact_limit: int = EXACT_BASELINE_LIMIT) -> int:
    """Minimum number of bidirectionally-complete parts covering all vertices.

    Computed as a coloring of the conflict graph (vertices clash unless
    joined by arcs both ways): exact branch-and-bound coloring up to
    `exact_limit` vertices, greedy largest-first beyond.
    """
    n = d.n
    conflict = [0] * n
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if not (d.has_arc(u, v) and d.has_arc(v, u)):
                conflict[u - 1] |= 1 << (v - 1)
                conflict[v - 1] |= 1 << (u - 1)
    order = sorted(range(n), key=lambda v: (-bin(conflict[v]).count("1"), v))
    if n <= exact_limit:
        return _chromatic_number(conflict, order)
    return _first_fit_colors(conflict, order)


def _first_fit_colors(conflict: list[int], order: list[int]) -> int:
    """Colors used when each vertex in `order` takes the first class it fits."""
    classes: list[int] = []
    for v in order:
        for idx, cmask in enumerate(classes):
            if conflict[v] & cmask == 0:
                classes[idx] |= 1 << v
                break
        else:
            classes.append(1 << v)
    return len(classes)


def _chromatic_number(conflict: list[int], order: list[int]) -> int:
    n = len(order)

    # greedy upper bound
    best = _first_fit_colors(conflict, order)

    # greedy clique lower bound
    clique = 0
    for v in order:
        if conflict[v] & clique == clique:
            clique |= 1 << v
    lower = bin(clique).count("1")
    if lower == best:
        return best

    state: list[int] = []

    def assign(idx: int) -> None:
        nonlocal best
        if len(state) >= best:
            return
        if idx == n:
            best = len(state)
            return
        v = order[idx]
        for ci in range(len(state)):
            if conflict[v] & state[ci] == 0:
                state[ci] |= 1 << v
                assign(idx + 1)
                state[ci] &= ~(1 << v)
                if best == lower:
                    return
        if len(state) + 1 < best:
            state.append(1 << v)
            assign(idx + 1)
            state.pop()

    assign(0)
    return best
