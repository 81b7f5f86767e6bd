import random

import pytest

from gicc import codec
from gicc.codec import (
    DecodeIntegrityError,
    IndexCode,
    MessageVector,
    SideInformationError,
    code_length,
    decode_inner,
    decode_noninner,
    encode,
    format_code,
    parse_messages,
    round_trip,
    serialize_messages,
    side_information,
    symbolic_decode_check,
    xor_cost_bound,
)
from gicc.digraph import Digraph, FormatError, out_neighbors
from gicc.generators import gen_relay_family
from gicc.structure import require_valid

DIGON = Digraph.from_arcs(2, [(1, 2), (2, 1)])


@pytest.fixture(scope="module")
def digon_structure():
    return require_valid(DIGON, {1, 2})


def all_vectors(n: int):
    for value in range(1 << n):
        yield MessageVector(1, tuple((value >> b) & 1 for b in range(n)))


class TestMessageVector:
    def test_rejects_oversized_payload(self):
        with pytest.raises(ValueError):
            MessageVector(2, (4,))

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            MessageVector(0, (0,))

    def test_random_is_seeded(self):
        assert MessageVector.random(5, 16, 3) == MessageVector.random(5, 16, 3)


class TestEncode:
    def test_demo_masks_and_order(self, demo_structure):
        m = MessageVector.random(6, 8, 0)
        code = encode(demo_structure, m)
        assert [sorted(s.mask) for s in code.symbols] == [
            [1, 2, 3, 4],
            [2, 3, 5],
            [3, 4, 6],
        ]
        x = m.payloads
        assert code.symbols[0].payload == x[0] ^ x[1] ^ x[2] ^ x[3]
        assert code.symbols[1].payload == x[4] ^ x[1] ^ x[2]
        assert code.symbols[2].payload == x[5] ^ x[2] ^ x[3]

    def test_digon_two_bit_example(self, digon_structure):
        code = encode(digon_structure, MessageVector(2, (0b01, 0b11)))
        assert len(code.symbols) == 1
        assert code.symbols[0].mask == {1, 2}
        assert code.symbols[0].payload == 0b10

    def test_family_symbol_count(self):
        d, inner = gen_relay_family(4)
        g = require_valid(d, inner)
        code = encode(g, MessageVector.zeros(10, 4))
        assert len(code.symbols) == 7  # 2k-1

    def test_size_mismatch(self, demo_structure):
        with pytest.raises(ValueError, match="expected 6"):
            encode(demo_structure, MessageVector.zeros(5, 8))

    def test_payload_equals_mask_xor(self, structure_pool):
        rng = random.Random(99)
        checks = 0
        while checks < 1000:
            g = structure_pool[rng.randrange(len(structure_pool))]
            m = MessageVector.random(g.digraph.n, 8, rng.randrange(1 << 30))
            for symbol in encode(g, m).symbols:
                expected = 0
                for v in symbol.mask:
                    expected ^= m.payloads[v - 1]
                assert symbol.payload == expected
                checks += 1

    def test_linearity(self, structure_pool):
        rng = random.Random(5)
        for g in structure_pool[:40]:
            n = g.digraph.n
            for t in (1, 8):
                a = MessageVector.random(n, t, rng.randrange(1 << 30))
                b = MessageVector.random(n, t, rng.randrange(1 << 30))
                ab = MessageVector(t, tuple(x ^ y for x, y in zip(a.payloads, b.payloads)))
                ca, cb, cab = encode(g, a), encode(g, b), encode(g, ab)
                for sa, sb, sab in zip(ca.symbols, cb.symbols, cab.symbols):
                    assert sab.payload == sa.payload ^ sb.payload
            zero = encode(g, MessageVector.zeros(n, 8))
            assert all(s.payload == 0 for s in zero.symbols)


class TestCodeLength:
    def test_demo(self, demo_structure):
        assert code_length(demo_structure) == 3

    def test_digon(self, digon_structure):
        assert code_length(digon_structure) == 1

    def test_family_k8(self):
        d, inner = gen_relay_family(8)
        assert code_length(require_valid(d, inner)) == 15

    def test_always_n_minus_k_plus_one(self, structure_pool):
        for g in structure_pool:
            assert code_length(g) == g.digraph.n - g.k + 1
            assert encode(g, MessageVector.zeros(g.digraph.n, 1)).length == code_length(g)


class TestXorCost:
    def test_digon(self, digon_structure):
        assert xor_cost_bound(digon_structure, 1) == 1

    def test_demo(self, demo_structure):
        assert xor_cost_bound(demo_structure, 1) == 7  # (K-1)=3 plus |N+(5)|+|N+(6)|=4

    def test_family_k4_at_8_bits(self):
        d, inner = gen_relay_family(4)
        g = require_valid(d, inner)
        total = sum(len(d.out_sorted(j)) for j in g.non_inner)
        assert total == 12
        assert xor_cost_bound(g, 8) == 8 * (3 + 12) == 120

    def test_encode_stays_within_bound(self, structure_pool, monkeypatch):
        calls = 0
        real = codec._xor

        def counting(a, b):
            nonlocal calls
            calls += 1
            return real(a, b)

        monkeypatch.setattr(codec, "_xor", counting)
        for g in structure_pool[:50]:
            for t in (1, 8):
                calls = 0
                encode(g, MessageVector.random(g.digraph.n, t, 7))
                assert calls * t <= xor_cost_bound(g, t)


class TestDecodeNonInner:
    def test_demo_vertex5_exhaustive(self, demo_structure):
        g = demo_structure
        for m in all_vectors(6):
            code = encode(g, m)
            side = side_information(g.digraph, m, 5)
            assert decode_noninner(g, code, 5, side) == m.payloads[4]

    def test_missing_side_entry(self, demo_structure):
        g = demo_structure
        m = MessageVector.random(6, 8, 2)
        code = encode(g, m)
        side = side_information(g.digraph, m, 5)
        del side[2]
        with pytest.raises(SideInformationError) as exc:
            decode_noninner(g, code, 5, side)
        assert exc.value.missing == 2

    def test_family_leaf_relay(self):
        d, inner = gen_relay_family(4)
        g = require_valid(d, inner)
        assert out_neighbors(d, 10) == {1}
        m = MessageVector.random(10, 8, 4)
        code = encode(g, m)
        assert decode_noninner(g, code, 10, {1: m.payloads[0]}) == m.payloads[9]

    def test_rejects_inner_vertex(self, demo_structure):
        m = MessageVector.zeros(6, 1)
        code = encode(demo_structure, m)
        with pytest.raises(ValueError, match="inner"):
            decode_noninner(demo_structure, code, 1, {})

    def test_rejects_receiver_outside_structure(self, demo_structure):
        code = encode(demo_structure, MessageVector.zeros(6, 1))
        for j in (0, -1, 7):
            with pytest.raises(ValueError, match="out of range"):
                decode_noninner(demo_structure, code, j, {})


class TestDecodeInner:
    def test_demo_vertex2_uses_one_tree_symbol(self, demo_structure):
        g = demo_structure
        assert g.trees[2].vertices - g.inner == {6}
        m = MessageVector.random(6, 8, 11)
        code = encode(g, m)
        side = {1: m.payloads[0], 6: m.payloads[5]}
        assert decode_inner(g, code, 2, side) == m.payloads[1]

    def test_demo_vertex3_needs_no_tree_symbols(self, demo_structure):
        g = demo_structure
        assert g.trees[3].vertices - g.inner == set()
        assert out_neighbors(g.digraph, 3) == {1, 2, 4}
        m = MessageVector.random(6, 8, 12)
        code = encode(g, m)
        side = side_information(g.digraph, m, 3)
        assert decode_inner(g, code, 3, side) == m.payloads[2]

    def test_digon(self, digon_structure):
        m = MessageVector(1, (1, 0))
        code = encode(digon_structure, m)
        assert decode_inner(digon_structure, code, 1, {2: 0}) == 1

    def test_corrupted_code_detected(self, demo_structure):
        g = demo_structure
        m = MessageVector.random(6, 8, 13)
        code = encode(g, m)
        bad = IndexCode(
            (code.symbols[0],)
            + (codec.CodedSymbol(frozenset({5, 2, 4}), code.symbols[1].payload),)
            + code.symbols[2:],
            code.t,
        )
        # receiver 4 folds the symbol of tree vertex 5, so it must notice
        assert 5 in g.trees[4].vertices
        side = side_information(g.digraph, m, 4)
        with pytest.raises((DecodeIntegrityError, SideInformationError)):
            decode_inner(g, bad, 4, side)


class TestRoundTrip:
    def test_demo_exhaustive_t1(self, demo_structure):
        assert all(round_trip(demo_structure, m) for m in all_vectors(6))

    def test_digon_exhaustive(self, digon_structure):
        assert all(round_trip(digon_structure, m) for m in all_vectors(2))

    def test_family_random_vectors(self):
        for k in range(2, 9):
            d, inner = gen_relay_family(k)
            g = require_valid(d, inner)
            for t in (1, 8, 64):
                for seed in range(8):
                    assert round_trip(g, MessageVector.random(d.n, t, seed))

    def test_pool_round_trips(self, structure_pool):
        for idx, g in enumerate(structure_pool):
            assert round_trip(g, MessageVector.random(g.digraph.n, 8, idx))

    def test_small_structures_exhaustively(self, structure_pool):
        for g in structure_pool:
            if g.digraph.n <= 6:
                assert all(round_trip(g, m) for m in all_vectors(g.digraph.n))

    def test_trivial_single_vertex_structure(self):
        g = require_valid(Digraph(1, frozenset()), {1})
        assert code_length(g) == 1
        m = MessageVector(4, (0b1010,))
        code = encode(g, m)
        assert len(code.symbols) == 1 and code.symbols[0].payload == 0b1010
        assert round_trip(g, m)


class TestSymbolicCheck:
    def test_demo(self, demo_structure):
        assert symbolic_decode_check(demo_structure)

    def test_digon(self, digon_structure):
        assert symbolic_decode_check(digon_structure)

    def test_every_validated_structure(self, structure_pool):
        assert len(structure_pool) >= 200
        assert all(symbolic_decode_check(g) for g in structure_pool)

    def test_branch_contributions_telescope(self, structure_pool):
        # the mask of the folded tree symbols must reduce to the
        # non-inner out-neighbors of the root plus the inner vertices
        # the root does not cache
        for g in structure_pool[:80]:
            d = g.digraph
            for i in sorted(g.inner):
                acc: set[int] = set()
                for j in g.trees[i].vertices - g.inner:
                    acc ^= {j} | out_neighbors(d, j)
                expected = (out_neighbors(d, i) - g.inner) | {
                    q for q in g.inner - {i} if q not in out_neighbors(d, i)
                }
                assert acc == expected


class TestMessageFiles:
    def test_round_trip(self):
        m = MessageVector.random(5, 12, 8)
        assert parse_messages(serialize_messages(m)) == m

    def test_digon_file(self):
        text = "t=2\n01\n03"
        m = parse_messages(text)
        assert m == MessageVector(2, (1, 3))
        assert serialize_messages(m) == text

    def test_bad_header(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_messages("bits=3\n00")

    def test_bad_hex_width(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_messages("t=9\nff")

    def test_nonzero_padding_rejected(self):
        with pytest.raises(FormatError, match="padding"):
            parse_messages("t=2\n07")

    def test_uppercase_rejected(self):
        with pytest.raises(FormatError):
            parse_messages("t=8\nFF")


class TestFormatCode:
    def test_demo_zero_messages(self, demo_structure):
        code = encode(demo_structure, MessageVector.zeros(6, 8))
        assert format_code(code) == (
            "mask=1,2,3,4 payload=00\nmask=2,3,5 payload=00\nmask=3,4,6 payload=00"
        )
