"""The four benchmark workloads: inputs from a seed, one operation, its check.

Every workload turns the seed into a fixed list of items and the
runner cycles through that list in whole passes.  For each item the
workload provides:

- `prepare(lib, item, op_index)`: per-operation input, built outside the
  timed region;
- `op(lib, item, inp)`: the timed call into the library;
- `check(lib, item, inp, out)`: the comparison against an independent
  reference, also outside the timed region.  It returns the failure
  reason (None when the output is right) and a signature that must
  repeat exactly whenever the item runs again.

Quality is per item: (codes meeting MAIS, codes with a known MAIS,
sum of length / MAIS and sum of length - MAIS over those codes).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

T_BITS = 12000  # one 1500-byte packet per receiver
T_BYTES = T_BITS // 8

# Generator seed of the fixed digraphs.  The cost of validating, covering
# or bounding a seeded random digraph swings by up to 3x between draws of
# the same size, so digraphs drawn per run seed would move every timing by
# more than its bound.  The run seed picks what costs about the same
# whatever its value: payloads, which inner vertex a violation uses, the
# sweep seeds and the order of items.
INSTANCE_SEED = 1504


@dataclass
class Item:
    name: str
    data: dict
    quality: tuple[int, int, float, int] | None = None
    ref: dict = field(default_factory=dict)  # references computed lazily in checks


def _quality(length: int, mais: int | None) -> tuple[int, int, float, int] | None:
    if mais is None:
        return None
    return (int(length == mais), 1, length / mais, length - mais)


def _require_valid(lib, d, inner):
    result = lib.validate_gic(d, inner)
    if isinstance(result, lib.ViolationReport):
        raise RuntimeError(f"set-up structure failed validation: {result.describe()}")
    return result


class Broadcast:
    """Encode a fresh 12000-bit message vector and decode it at every receiver."""

    name = "broadcast"
    tail_top = 99.0  # 7000-13000 operations in 28 s: 70 or more samples beyond p99

    def build(self, lib, seed: int, workdir: Path) -> list[Item]:
        graphs = random.Random(INSTANCE_SEED)
        rng = random.Random(seed)
        cases = []
        for k in (20, 40):
            d, inner = lib.gen_relay_family(k)
            cases.append((f"relay-{k}", d, inner, 2 * k - 1))
        for k in range(6, 11):
            d, inner = lib.icc_to_gic(lib.gen_icc(k, seed=graphs.randrange(1 << 30)))
            cases.append((f"icc-{k}", d, inner, None))
        d, inner = lib.gen_demo_4gic()
        cases.append(("demo", d, inner, 3))
        cases.append(("cycle-500", lib.gen_cycle(500), frozenset({1, 2}), 499))
        cases.append(("clique-30", lib.gen_clique(30), frozenset(range(1, 31)), 1))
        items = []
        for name, d, inner, mais in cases:
            g = _require_valid(lib, d, inner)
            xor_bits = lib.xor_cost_bound(g, T_BITS)
            items.append(Item(name, {"g": g, "mais": mais, "xor_bits": xor_bits, "seed": rng.randrange(1 << 30)}))
        return items

    def prepare(self, lib, item: Item, op_index: int):
        rng = random.Random(item.data["seed"] * 1_000_003 + op_index)
        return tuple(rng.getrandbits(T_BITS) for _ in range(item.data["g"].digraph.n))

    def op(self, lib, item: Item, payloads):
        g = item.data["g"]
        d = g.digraph
        m = lib.MessageVector(T_BITS, payloads)
        code = lib.encode(g, m)
        decoded = []
        for v in d.vertices():
            side = lib.side_information(d, m, v)
            if v in g.inner:
                decoded.append(lib.decode_inner(g, code, v, side))
            else:
                decoded.append(lib.decode_noninner(g, code, v, side))
        return len(code.symbols), decoded

    def check(self, lib, item: Item, payloads, out):
        length, decoded = out
        g = item.data["g"]
        expected = g.digraph.n - len(g.inner) + 1
        if length != expected:
            return f"{item.name}: code length {length}, expected N-K+1 = {expected}", None
        mais = item.data["mais"]
        if mais is not None and length != mais:
            return f"{item.name}: code length {length} differs from the closed-form MAIS {mais}", None
        for v, (sent, got) in enumerate(zip(payloads, decoded), start=1):
            if sent.to_bytes(T_BYTES, "big") != got.to_bytes(T_BYTES, "big"):
                return f"{item.name}: receiver {v} decoded the wrong payload", None
        item.quality = _quality(length, mais)
        return None, length


class Validate:
    """One validate_gic call on a large valid or deliberately broken candidate."""

    name = "validate"
    tail_top = 99.0  # 1600-2800 operations in 28 s: 16 or more samples beyond p99

    def build(self, lib, seed: int, workdir: Path) -> list[Item]:
        graphs = random.Random(INSTANCE_SEED)
        rng = random.Random(seed)
        bases = []
        for k in (20, 30, 40, 50, 60):
            d, inner = lib.gen_relay_family(k)
            bases.append((f"relay-{k}", d, inner, 2 * k - 1))
        for k in range(8, 13):
            d, inner = lib.icc_to_gic(lib.gen_icc(k, seed=graphs.randrange(1 << 30)))
            bases.append((f"icc-{k}", d, inner, None))
        bases.append(("cycle-500", lib.gen_cycle(500), frozenset({1, 2}), 499))

        items = []
        for name, d, inner, mais in bases:
            n, arcs = d.n, d.arcs
            ordered = sorted(inner)
            items.append(Item(name, {"n": n, "arcs": arcs, "inner": inner, "kind": "valid", "mais": mais}))
            # Dropping an inner vertex j closes the P-paths i -> j -> i into
            # a cycle whose only inner vertex is i.
            j = rng.choice(ordered)
            items.append(Item(f"{name}/i-cycle", {"n": n, "arcs": arcs, "inner": inner - {j}, "kind": "i-cycle"}))
            # The next two violations sit at the last inner pairs in label
            # order, so a rejection costs nearly a full validation whatever
            # the seed; early rejections are the sweep workload's part.
            # A direct arc a -> b next to the longer unique P-path is a second P-path.
            pairs = [(a, b) for a in ordered for b in ordered if a != b and (a, b) not in arcs]
            if not pairs:
                raise RuntimeError(f"{name}: every inner pair is already adjacent")
            items.append(
                Item(f"{name}/p-path-multiplicity",
                     {"n": n, "arcs": arcs | {pairs[-1]}, "inner": inner, "kind": "p-path-multiplicity"})
            )
            # Without out-arcs, the last inner vertex reaches no other inner vertex.
            items.append(
                Item(f"{name}/inner-pair-unreachable",
                     {"n": n, "arcs": frozenset((t, h) for t, h in arcs if t != ordered[-1]), "inner": inner,
                      "kind": "inner-pair-unreachable"})
            )
            # A fresh source vertex feeding an inner vertex lies on no P-path.
            a = rng.choice(ordered)
            items.append(
                Item(f"{name}/extra-arc",
                     {"n": n + 1, "arcs": arcs | {(n + 1, a)}, "inner": inner, "kind": "extra-arc"})
            )
        # A valid 2-GIC on which the recursive P-path walk of gicc 0.1.0
        # exceeds Python's recursion limit: a known defect, counted as a
        # failed operation until the walk is fixed.
        items.append(Item("cycle-2000", {"n": 2000, "arcs": lib.gen_cycle(2000).arcs,
                                         "inner": frozenset({1, 2}), "kind": "valid", "mais": 1999}))
        rng.shuffle(items)
        return items

    def prepare(self, lib, item: Item, op_index: int):
        # A fresh digraph per call, so no adjacency cache survives between calls.
        return lib.Digraph(item.data["n"], item.data["arcs"])

    def op(self, lib, item: Item, d):
        return lib.validate_gic(d, item.data["inner"])

    def check(self, lib, item: Item, d, out):
        kind = item.data["kind"]
        got = getattr(out, "kind", "valid")
        if got != kind:
            return f"{item.name}: verdict {got}, expected {kind}", None
        if kind != "valid":
            return None, got
        if out.inner != item.data["inner"]:
            return f"{item.name}: structure has the wrong inner set", None
        length = out.digraph.n - len(out.inner) + 1
        mais = item.data["mais"]
        if mais is not None and length != mais:
            return f"{item.name}: code length {length} differs from the closed-form MAIS {mais}", None
        item.quality = _quality(length, mais)
        return None, (got, length)


class Plan:
    """One in-process `gicc bounds FILE --json` call on a written instance file."""

    name = "plan"
    # 290-440 operations in 28 s would leave 14 or more samples beyond p95,
    # but p95 is then the single relay k = 8 call, whose latency moved by up
    # to 27 % between runs of the same code; p90 (the slowest exact-cover
    # instance) moved by 7-15 %.
    tail_top = 90.0

    def build(self, lib, seed: int, workdir: Path) -> list[Item]:
        # Digraphs and greedy-cover seeds are fixed: the greedy cover of one
        # digraph costs up to 3x more under one seed than under another.
        # The run seed picks the order of the calls.
        graphs = random.Random(INSTANCE_SEED)
        rng = random.Random(seed)
        cases = []
        for k in range(4, 10):
            d, _ = lib.gen_relay_family(k)
            cases.append((f"relay-{k}", d, {"mais": 2 * k - 1}))
        d, _ = lib.gen_demo_4gic()
        cases.append(("demo", d, {"mais": 3, "gicc": 3, "cycle": 4, "clique": 5}))
        for k in (3, 4):
            d, _ = lib.icc_to_gic(lib.gen_icc(k, seed=graphs.randrange(1 << 30)))
            cases.append((f"icc-{k}", d, {}))
        # Exact-cover instances with more than 24 arcs: minrank runs on the
        # small fixed instances above only.
        for n in (9, 9, 9, 10):
            d = lib.gen_random(n, 0.35, graphs.randrange(1 << 30))
            while len(d.arcs) <= 24:
                d = lib.gen_random(n, 0.35, graphs.randrange(1 << 30))
            cases.append((f"random-{n}-exact", d, {}))
        # Greedy-cover instances with mean out-degree 3 (p = 0.2 at n = 16
        # down to 0.1 at n = 30).
        for n in (16, 18, 20, 22, 24, 26, 28, 30) * 2:
            d = lib.gen_random(n, 3 / (n - 1), graphs.randrange(1 << 30))
            cases.append((f"random-{n}", d, {}))
        items = []
        for idx, (name, d, ref) in enumerate(cases):
            path = workdir / f"{idx:02d}-{name}.graph"
            path.write_text(_arc_list(d))
            argv = ["bounds", str(path), "--json", "--seed", str(graphs.randrange(1 << 20))]
            if len(d.arcs) <= 24:
                argv.append("--minrank")
            items.append(Item(name, {"argv": argv, "d": d}, ref=dict(ref)))
        rng.shuffle(items)
        return items

    def prepare(self, lib, item: Item, op_index: int):
        return None

    def op(self, lib, item: Item, _):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli_main(item.data["argv"])
        return code, out.getvalue()

    def check(self, lib, item: Item, _, out):
        code, text = out
        if code != 0:
            return f"{item.name}: exit code {code}", None
        record = json.loads(text.strip().splitlines()[-1])
        if not record.get("sandwich_ok"):
            return f"{item.name}: sandwich check failed", None
        lengths = record["scheme_lengths"]
        ref = _plan_reference(lib, item)
        for key in ("mais", "minrank"):
            if key in ref and record[key] != ref[key]:
                return f"{item.name}: {key} {record[key]}, reference {ref[key]}", None
        for key in ("gicc", "cycle", "clique"):
            if key in ref and lengths[key] != ref[key]:
                return f"{item.name}: {key} length {lengths[key]}, reference {ref[key]}", None
        item.quality = _quality(int(lengths["gicc"]), record["mais"])
        del record["graph"]  # the file path differs between processes
        return None, record


def _plan_reference(lib, item: Item) -> dict:
    """Closed forms, plus the brute-force oracles where they finish in well under a second."""
    ref = item.ref
    if "done" not in ref:
        d = item.data["d"]
        if "mais" not in ref and d.n <= 12:
            ref["mais"] = lib.oracles.mais_naive(d)
        if "--minrank" in item.data["argv"] and len(d.arcs) <= 13:
            ref["minrank"] = lib.oracles.minrank_naive(d)
        ref["done"] = True
    return ref


def _arc_list(d) -> str:
    """The arc-list file format, written independently of the library's serializer."""
    lines = [f"n={d.n}"]
    for v in d.vertices():
        heads = sorted(h for t, h in d.arcs if t == v)
        if heads:
            lines.append(f"{v} -> " + " ".join(map(str, heads)))
    return "\n".join(lines) + "\n"


SWEEP_CONFIGS = 8
SWEEP_DIGRAPHS = sum(1 << (n * (n - 1)) for n in (2, 3)) + 40
SWEEP_CANDIDATES = sum((1 << (n * (n - 1))) * ((1 << n) - n - 1) for n in (2, 3)) + 40 * ((1 << 6) - 6 - 1)


class Sweep:
    """One seeded conjecture sweep: exhaustive n <= 3 plus 40 random 6-vertex digraphs."""

    name = "sweep"
    tail_top = 95.0  # 500-870 operations in 28 s: 25 or more samples beyond p95

    def build(self, lib, seed: int, workdir: Path) -> list[Item]:
        rng = random.Random(seed)
        return [Item(f"sweep-{i}", {"seed": rng.randrange(1 << 30)}) for i in range(SWEEP_CONFIGS)]

    def prepare(self, lib, item: Item, op_index: int):
        return None

    def op(self, lib, item: Item, _):
        return lib.conjecture_sweep(max_exhaustive_n=3, samples=40, random_n=6, p=0.35, seed=item.data["seed"])

    def check(self, lib, item: Item, _, out):
        if out["digraphs"] != SWEEP_DIGRAPHS or out["candidates"] != SWEEP_CANDIDATES:
            return (f"{item.name}: {out['digraphs']} digraphs and {out['candidates']} candidates, "
                    f"expected {SWEEP_DIGRAPHS} and {SWEEP_CANDIDATES}"), None
        validated = out["validated"]
        ratio_sum, excess = float(validated - len(out["counterexamples"])), 0
        for ce in out["counterexamples"]:
            d = lib.Digraph(ce["n"], frozenset(map(tuple, ce["arcs"])))
            mais = lib.oracles.mais_naive(d)
            length = ce["n"] - len(ce["inner"]) + 1
            if not mais < length:
                return f"{item.name}: reported counterexample has MAIS {mais} >= length {length}", None
            ratio_sum += length / mais
            excess += length - mais
        if validated:
            item.quality = (validated - len(out["counterexamples"]), validated, ratio_sum, excess)
        return None, json.dumps(out, sort_keys=True)


WORKLOADS = {w.name: w for w in (Broadcast(), Validate(), Plan(), Sweep())}
