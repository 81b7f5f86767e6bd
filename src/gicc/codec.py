"""Scalar linear XOR code for a validated structure, and its decoders.

The code for a K-GIC on N vertices is N-K+1 symbols of t bits each:
one symbol XORing the messages of all inner vertices, then one symbol
per non-inner vertex j XORing j's message with the messages of its
out-neighborhood.  Payloads are opaque t-bit strings held as ints;
XOR is defined on exactly t bits.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Mapping

from .digraph import Digraph, FormatError, VertexSet, format_vertex_set, out_neighbors
from .structure import GicStructure


class SideInformationError(ValueError):
    """A decoder was not given a side-information payload it needs."""

    def __init__(self, receiver: int, missing: int) -> None:
        super().__init__(
            f"receiver {receiver} needs side information for vertex {missing}"
        )
        self.receiver = receiver
        self.missing = missing


class DecodeIntegrityError(RuntimeError):
    """Mask residue after removing side information was not the receiver itself.

    Impossible for codes produced by encode() on validated structures;
    signals a corrupted code or structure.
    """


@dataclass(frozen=True)
class MessageVector:
    """N messages of t bits each; payload i is the message vertex i requests."""

    t: int
    payloads: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError("messages need at least one bit")
        limit = 1 << self.t
        for idx, p in enumerate(self.payloads, start=1):
            if not (0 <= p < limit):
                raise ValueError(f"message {idx} does not fit in {self.t} bits")

    @classmethod
    def zeros(cls, n: int, t: int) -> MessageVector:
        return cls(t, (0,) * n)

    @classmethod
    def random(cls, n: int, t: int, seed: int) -> MessageVector:
        rng = random.Random(seed)
        return cls(t, tuple(rng.getrandbits(t) for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.payloads)


@dataclass(frozen=True)
class CodedSymbol:
    """One broadcast symbol: payload = XOR of the source messages in `mask`."""

    mask: VertexSet
    payload: int


@dataclass(frozen=True)
class IndexCode:
    """Ordered coded symbols: the inner-set symbol first, then per-vertex symbols."""

    symbols: tuple[CodedSymbol, ...]
    t: int

    @property
    def length(self) -> int:
        """Broadcast rate: transmitted bits per message bit."""
        return len(self.symbols)


def _xor(a: int, b: int) -> int:
    # single fold step; kept as a hook so tests can count XOR work
    return a ^ b


def encode(g: GicStructure, m: MessageVector) -> IndexCode:
    """Produce the index code: inner XOR, then one symbol per non-inner vertex."""
    d = g.digraph
    if m.n != d.n:
        raise ValueError(f"expected {d.n} messages, got {m.n}")
    inner_sorted = sorted(g.inner)
    payload = m.payloads[inner_sorted[0] - 1]
    for v in inner_sorted[1:]:
        payload = _xor(payload, m.payloads[v - 1])
    symbols = [CodedSymbol(g.inner, payload)]
    for j in g.non_inner:
        payload = m.payloads[j - 1]
        for q in d.out_sorted(j):
            payload = _xor(payload, m.payloads[q - 1])
        symbols.append(CodedSymbol(frozenset((j,)) | out_neighbors(d, j), payload))
    return IndexCode(tuple(symbols), m.t)


def code_length(g: GicStructure) -> int:
    """Symbols transmitted per t message bits: N - K + 1."""
    return g.digraph.n - g.k + 1


def xor_cost_bound(g: GicStructure, t: int) -> int:
    """Upper bound on bit-XOR operations encode() may spend at t bits per message."""
    if t < 1:
        raise ValueError("t must be positive")
    non_inner_degree = sum(len(g.digraph.out_sorted(j)) for j in g.non_inner)
    return t * ((g.k - 1) + non_inner_degree)


def _check_code(g: GicStructure, code: IndexCode) -> None:
    expected = g.digraph.n - g.k + 1
    if len(code.symbols) != expected:
        raise ValueError(f"expected {expected} symbols, got {len(code.symbols)}")
    if code.symbols[0].mask != g.inner:
        raise ValueError("first symbol mask is not the inner vertex set")


def _owned_symbol(code: IndexCode, inner_sorted: list[int], j: int) -> CodedSymbol:
    # symbols follow the ascending non-inner vertices after the inner
    # symbol, so j's index is j minus the inner vertices below it
    return code.symbols[j - bisect_left(inner_sorted, j)]


def _strip_side(
    receiver: int, mask: set[int], payload: int, side: Mapping[int, int]
) -> int:
    for q in sorted(mask - {receiver}):
        if q not in side:
            raise SideInformationError(receiver, q)
        payload ^= side[q]
        mask.discard(q)
    if mask != {receiver}:
        raise DecodeIntegrityError(
            f"receiver {receiver}: residue mask {format_vertex_set(mask)}"
        )
    return payload


def decode_noninner(
    g: GicStructure, code: IndexCode, j: int, side: Mapping[int, int]
) -> int:
    """Recover x_j for a non-inner receiver from its own symbol."""
    g.digraph._check_vertex(j)
    if j in g.inner:
        raise ValueError(f"vertex {j} is inner; use decode_inner")
    _check_code(g, code)
    symbol = _owned_symbol(code, sorted(g.inner), j)
    return _strip_side(j, set(symbol.mask), symbol.payload, side)


def decode_inner(
    g: GicStructure, code: IndexCode, i: int, side: Mapping[int, int]
) -> int:
    """Recover x_i for an inner receiver.

    Folds the symbols of the non-inner vertices of i's tree into the
    inner symbol; the branch contributions telescope, leaving the XOR
    of x_i with messages i already caches, which the side information
    removes.
    """
    if i not in g.inner:
        raise ValueError(f"vertex {i} is not inner")
    _check_code(g, code)
    inner_sorted = sorted(g.inner)
    mask = set(code.symbols[0].mask)
    payload = code.symbols[0].payload
    for j in sorted(g.trees[i].vertices - g.inner):
        symbol = _owned_symbol(code, inner_sorted, j)
        mask ^= set(symbol.mask)
        payload ^= symbol.payload
    return _strip_side(i, mask, payload, side)


def side_information(d: Digraph, m: MessageVector, v: int) -> dict[int, int]:
    """The payloads receiver v holds: one per out-neighbor."""
    return {q: m.payloads[q - 1] for q in d.out_sorted(v)}


def round_trip(g: GicStructure, m: MessageVector) -> bool:
    """True iff every receiver recovers its own message from the code.

    Each decoder is fed exactly the side information that receiver
    owns, so success proves no receiver peeks at anything else.
    """
    code = encode(g, m)
    d = g.digraph
    for v in d.vertices():
        side = side_information(d, m, v)
        if v in g.inner:
            got = decode_inner(g, code, v, side)
        else:
            got = decode_noninner(g, code, v, side)
        if got != m.payloads[v - 1]:
            return False
    return True


def symbolic_decode_check(g: GicStructure) -> bool:
    """Mask-level decodability, independent of t.

    For non-inner j the symbol mask minus j's out-neighborhood must be
    {j}; for inner i the symmetric difference of the inner mask with
    the masks of i's tree's non-inner symbols, minus i's
    out-neighborhood, must be {i}.
    """
    d = g.digraph
    for j in g.non_inner:
        mask = frozenset((j,)) | out_neighbors(d, j)
        if mask - out_neighbors(d, j) != {j}:
            return False
    for i in sorted(g.inner):
        acc = set(g.inner)
        for j in g.trees[i].vertices - g.inner:
            acc ^= {j} | out_neighbors(d, j)
        if acc - out_neighbors(d, i) != {i}:
            return False
    return True


def parse_messages(text: str) -> MessageVector:
    """Parse the message file format: "t=<bits>" then one lowercase hex line per message."""
    t: int | None = None
    payloads: list[int] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if t is None:
            if not line.startswith("t=") or not line[2:].isdigit():
                raise FormatError(line_no, f"expected 't=<bits>' header, got {line!r}")
            t = int(line[2:])
            if t < 1:
                raise FormatError(line_no, "bit width must be positive")
            continue
        expected_len = 2 * ((t + 7) // 8)
        if len(line) != expected_len or not all(
            c in "0123456789abcdef" for c in line
        ):
            raise FormatError(
                line_no, f"expected {expected_len} lowercase hex digits, got {line!r}"
            )
        value = int(line, 16)
        if value >= 1 << t:
            raise FormatError(line_no, f"padding bits beyond {t} must be zero")
        payloads.append(value)
    if t is None:
        raise FormatError(1, "missing 't=<bits>' header")
    if not payloads:
        raise FormatError(1, "no messages")
    return MessageVector(t, tuple(payloads))


def serialize_messages(m: MessageVector) -> str:
    """Inverse of parse_messages; lowercase hex, one message per line."""
    nbytes = (m.t + 7) // 8
    lines = [f"t={m.t}"]
    lines.extend(p.to_bytes(nbytes, "big").hex() for p in m.payloads)
    return "\n".join(lines)


def format_code(code: IndexCode) -> str:
    """Render symbols as "mask=<vertices> payload=<hex>" lines."""
    nbytes = (code.t + 7) // 8
    return "\n".join(
        "mask="
        + ",".join(str(v) for v in sorted(s.mask))
        + " payload="
        + s.payload.to_bytes(nbytes, "big").hex()
        for s in code.symbols
    )
