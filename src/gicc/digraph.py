"""Side-information digraphs: parsing, serialization and basic queries.

A digraph models one sender broadcasting N messages to N receivers:
vertex i stands for the receiver requesting message i, and an arc
(i -> j) records that receiver i already caches message j.  Vertices
are labeled 1..N.  Instances are immutable and every function in this
module is pure, so values can be shared freely across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

VertexSet = frozenset[int]
Path = tuple[int, ...]

_HEADER_RE = re.compile(r"^n=(\d+)$")
_ARC_RE = re.compile(r"^(\d+) -> (\d+(?: \d+)*)$")


class FormatError(ValueError):
    """Malformed arc-list or message text; carries the offending line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Digraph:
    """Immutable digraph on vertices 1..n.

    Arcs are ordered pairs (tail, head).  Self-loops are rejected: a
    receiver never caches the message it requests.
    """

    n: int
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("vertex count must be positive")
        for tail, head in self.arcs:
            if tail == head:
                raise ValueError(f"self-loop at vertex {tail}")
            if not (1 <= tail <= self.n and 1 <= head <= self.n):
                raise ValueError(f"arc ({tail}, {head}) out of range 1..{self.n}")

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> Digraph:
        """Build a digraph from an arc iterable, rejecting duplicates."""
        seen: set[tuple[int, int]] = set()
        for tail, head in arcs:
            if (tail, head) in seen:
                raise ValueError(f"duplicate arc ({tail}, {head})")
            seen.add((tail, head))
        return cls(n, frozenset(seen))

    @cached_property
    def _out(self) -> dict[int, tuple[int, ...]]:
        table: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
        for tail, head in self.arcs:
            table[tail].append(head)
        return {v: tuple(sorted(heads)) for v, heads in table.items()}

    @cached_property
    def _in(self) -> dict[int, tuple[int, ...]]:
        table: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
        for tail, head in self.arcs:
            table[head].append(tail)
        return {v: tuple(sorted(tails)) for v, tails in table.items()}

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def _check_vertex(self, v: int) -> None:
        if not (1 <= v <= self.n):
            raise ValueError(f"vertex {v} out of range 1..{self.n}")

    def out_sorted(self, v: int) -> tuple[int, ...]:
        """Heads of arcs with tail v, ascending."""
        self._check_vertex(v)
        return self._out[v]

    def in_sorted(self, v: int) -> tuple[int, ...]:
        """Tails of arcs with head v, ascending."""
        self._check_vertex(v)
        return self._in[v]

    def has_arc(self, tail: int, head: int) -> bool:
        return (tail, head) in self.arcs


def out_neighbors(d: Digraph, v: int) -> VertexSet:
    """The out-neighborhood of v: exactly the messages receiver v caches."""
    return frozenset(d.out_sorted(v))


def parse_digraph(text: str) -> Digraph:
    """Parse the arc-list format.

    Format: optional '#' comment lines, a "n=<N>" header, then lines
    "<tail> -> <head1> <head2> ..." with single ASCII spaces.  Blank
    lines are ignored.  Self-loops, duplicate arcs, out-of-range labels
    and malformed lines are all hard errors reported with their line
    number.
    """
    n: int | None = None
    arcs: dict[tuple[int, int], int] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        if n is None:
            header = _HEADER_RE.match(line)
            if header is None:
                raise FormatError(line_no, f"expected 'n=<count>' header, got {line!r}")
            n = int(header.group(1))
            if n < 1:
                raise FormatError(line_no, "vertex count must be positive")
            continue
        m = _ARC_RE.match(line)
        if m is None:
            raise FormatError(line_no, f"malformed arc line {line!r}")
        tail = int(m.group(1))
        if not (1 <= tail <= n):
            raise FormatError(line_no, f"tail {tail} out of range 1..{n}")
        for token in m.group(2).split(" "):
            head = int(token)
            if not (1 <= head <= n):
                raise FormatError(line_no, f"head {head} out of range 1..{n}")
            if head == tail:
                raise FormatError(line_no, f"self-loop {tail} -> {head}")
            if (tail, head) in arcs:
                first = arcs[(tail, head)]
                raise FormatError(
                    line_no, f"duplicate arc {tail} -> {head} (first on line {first})"
                )
            arcs[(tail, head)] = line_no
    if n is None:
        raise FormatError(1, "missing 'n=<count>' header")
    return Digraph(n, frozenset(arcs))


def serialize_digraph(d: Digraph) -> str:
    """Canonical arc-list text: tails ascending, heads ascending per line.

    Inverse of parse_digraph; re-serializing the parse yields identical
    text.  No trailing newline is emitted.
    """
    lines = [f"n={d.n}"]
    for tail in d.vertices():
        heads = d.out_sorted(tail)
        if heads:
            lines.append(f"{tail} -> " + " ".join(str(h) for h in heads))
    return "\n".join(lines)


def induced_subgraph(d: Digraph, members: Iterable[int]) -> tuple[Digraph, tuple[int, ...]]:
    """Sub-digraph induced by `members`, relabeled to 1..len(members).

    Returns (sub, originals) where originals[k-1] is the original label
    of the sub-digraph's vertex k; the relabeling preserves label order.
    All arcs of d with both endpoints in `members` are kept.
    """
    originals = tuple(sorted(set(members)))
    if not originals:
        raise ValueError("induced subgraph needs at least one vertex")
    for v in originals:
        d._check_vertex(v)
    local = {orig: k for k, orig in enumerate(originals, start=1)}
    arcs = frozenset(
        (local[t], local[h]) for (t, h) in d.arcs if t in local and h in local
    )
    return Digraph(len(originals), arcs), originals


def format_vertex_set(vs: Iterable[int]) -> str:
    """Render a vertex set as "{1,2,3}" with ascending labels."""
    return "{" + ",".join(str(v) for v in sorted(set(vs))) + "}"


def parse_vertex_list(text: str) -> VertexSet:
    """Parse "1,2,3" (or space separated) into a vertex set."""
    tokens = [tok for tok in re.split(r"[,\s]+", text.strip()) if tok]
    if not tokens:
        raise ValueError("empty vertex list")
    try:
        return frozenset(int(tok) for tok in tokens)
    except ValueError:
        raise ValueError(f"bad vertex list {text!r}") from None


def bits_of(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
