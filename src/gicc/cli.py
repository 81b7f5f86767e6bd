"""Command-line front end.

Exit codes: 0 all requested checks passed, 1 structural or decode
failure, 2 input error (parse failure, missing file, bad parameters),
3 an exact oracle was requested beyond its size gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bounds import (
    BoundsReport,
    SizeGateError,
    UNKNOWN,
    certify_optimality,
    conjecture_sweep,
    mais,
    minrank_gf2,
    sandwich_check,
)
from .codec import (
    MessageVector,
    encode,
    format_code,
    parse_messages,
    round_trip,
    serialize_messages,
    symbolic_decode_check,
)
from .cover import (
    CoverPlan,
    DEFAULT_COVER_BUDGET,
    EXACT_COVER_LIMIT,
    clique_cover_length,
    cycle_cover_length,
    gicc_cover,
    icc_to_gic,
)
from .digraph import (
    Digraph,
    FormatError,
    format_vertex_set,
    parse_digraph,
    parse_vertex_list,
    serialize_digraph,
)
from .generators import (
    gen_clique,
    gen_cycle,
    gen_demo_4gic,
    gen_icc,
    gen_random,
    gen_relay_family,
)
from .structure import InvalidStructureError, ViolationReport, require_valid, validate_gic

EXHAUSTIVE_VERIFY_LIMIT = 20
SWEEP_EXHAUSTIVE_LIMIT = 4


def _emit(args: argparse.Namespace, lines: list[str], record: dict, exit_code: int) -> int:
    record["exit_code"] = exit_code
    record["status"] = "pass" if exit_code == 0 else "fail"
    if args.json:
        print(json.dumps(record))
    else:
        for line in lines:
            print(line)
    return exit_code


def _load_graph(path: str) -> Digraph:
    return parse_digraph(Path(path).read_text())


def _inner_arg(args: argparse.Namespace):
    return parse_vertex_list(args.inner)


def cmd_validate(args: argparse.Namespace) -> int:
    d = _load_graph(args.graph)
    inner = _inner_arg(args)
    record: dict = {"command": "validate", "graph": args.graph, "inner": sorted(inner)}
    result = validate_gic(d, inner)
    if isinstance(result, ViolationReport):
        record["valid"] = False
        record["violation"] = result.to_record()
        return _emit(args, [f"invalid: {result.describe()}"], record, 1)
    length = d.n - len(inner) + 1
    record.update({"valid": True, "n": d.n, "k": len(inner), "code_length": length})
    lines = [
        f"valid {len(inner)}-GIC: inner {format_vertex_set(inner)}, "
        f"n={d.n}, code length {length}"
    ]
    return _emit(args, lines, record, 0)


def cmd_encode(args: argparse.Namespace) -> int:
    d = _load_graph(args.graph)
    g = require_valid(d, _inner_arg(args))
    if args.messages is not None:
        m = parse_messages(Path(args.messages).read_text())
        if m.n != d.n:
            raise ValueError(f"graph has {d.n} vertices but file has {m.n} messages")
    elif args.random:
        if args.t is None or args.seed is None:
            raise ValueError("--random requires --t and --seed")
        m = MessageVector.random(d.n, args.t, args.seed)
    else:
        raise ValueError("provide --messages FILE or --random --t BITS --seed SEED")
    code = encode(g, m)
    nbytes = (m.t + 7) // 8
    record = {
        "command": "encode",
        "graph": args.graph,
        "inner": sorted(g.inner),
        "t": m.t,
        "symbols": [
            {"mask": sorted(s.mask), "payload": s.payload.to_bytes(nbytes, "big").hex()}
            for s in code.symbols
        ],
    }
    lines = []
    if args.random:
        record["messages"] = [
            p.to_bytes(nbytes, "big").hex() for p in m.payloads
        ]
        lines.append("# messages")
        lines.append(serialize_messages(m))
        lines.append("# code")
    lines.append(format_code(code))
    return _emit(args, lines, record, 0)


def cmd_verify(args: argparse.Namespace) -> int:
    d = _load_graph(args.graph)
    g = require_valid(d, _inner_arg(args))
    symbolic = symbolic_decode_check(g)
    lines = [f"symbolic decode check: {'pass' if symbolic else 'FAIL'}"]
    record: dict = {
        "command": "verify",
        "graph": args.graph,
        "inner": sorted(g.inner),
        "symbolic": symbolic,
    }
    failures = 0
    if args.exhaustive_t1:
        if d.n > EXHAUSTIVE_VERIFY_LIMIT:
            raise SizeGateError(
                f"exhaustive verification is gated at n <= {EXHAUSTIVE_VERIFY_LIMIT}"
            )
        total = 1 << d.n
        for value in range(total):
            m = MessageVector(1, tuple((value >> b) & 1 for b in range(d.n)))
            if not round_trip(g, m):
                failures += 1
        record.update({"mode": "exhaustive", "t": 1, "trials": total})
        lines.append(
            f"round trips: {total - failures}/{total} pass (exhaustive, t=1)"
        )
    else:
        trials, t, seed = args.trials, args.t, args.seed
        for i in range(trials):
            m = MessageVector.random(d.n, t, seed + i)
            if not round_trip(g, m):
                failures += 1
        record.update({"mode": "random", "t": t, "trials": trials, "seed": seed})
        lines.append(f"round trips: {trials - failures}/{trials} pass (t={t})")
    record["failures"] = failures
    ok = symbolic and failures == 0
    return _emit(args, lines, record, 0 if ok else 1)


def _plan_lines(plan: CoverPlan) -> list[str]:
    lines = [
        f"cover: n={plan.n}, parts={plan.psi}, savings={plan.savings}, "
        f"code length {plan.length}"
    ]
    for idx, part in enumerate(plan.parts, start=1):
        lines.append(
            f"part {idx}: vertices {format_vertex_set(part.vertices)}, "
            f"inner {format_vertex_set(part.inner)}, K={part.k}, "
            f"length {len(part.vertices) - part.k + 1}"
        )
    lines.append(f"uncoded: {format_vertex_set(plan.uncoded)}")
    return lines


def _plan_record(plan: CoverPlan) -> dict:
    return {
        "n": plan.n,
        "psi": plan.psi,
        "savings": plan.savings,
        "length": plan.length,
        "parts": [
            {
                "vertices": list(p.vertices),
                "inner": sorted(p.inner),
                "k": p.k,
                "length": len(p.vertices) - p.k + 1,
            }
            for p in plan.parts
        ],
        "uncoded": sorted(plan.uncoded),
    }


def cmd_cover(args: argparse.Namespace) -> int:
    d = _load_graph(args.graph)
    effort: int | str = "exhaustive" if args.exact else args.budget
    plan = gicc_cover(d, effort=effort, seed=args.seed)
    record = {
        "command": "cover",
        "graph": args.graph,
        "exact": bool(args.exact),
        "seed": args.seed,
        **_plan_record(plan),
    }
    return _emit(args, _plan_lines(plan), record, 0)


def _bounds_report(d: Digraph, args: argparse.Namespace, minrank: bool) -> BoundsReport:
    """MAIS, scheme lengths, minrank when asked, then the optimality verdict.

    The order fixes which failure a user sees first: the MAIS size gate,
    then an invalid --inner structure.
    """
    bound = mais(d)
    effort: int | str = "exhaustive" if d.n <= EXACT_COVER_LIMIT else DEFAULT_COVER_BUDGET
    plan = gicc_cover(d, effort=effort, seed=args.seed)
    lengths = {
        "gicc": float(plan.length),
        "cycle": float(cycle_cover_length(d)),
        "clique": float(clique_cover_length(d)),
    }
    rank = minrank_gf2(d) if minrank else None
    if args.inner:
        verdict = certify_optimality(require_valid(d, _inner_arg(args)))
    elif plan.psi == 1 and not plan.uncoded:
        verdict = certify_optimality(plan.parts[0].structure)
    else:
        verdict = UNKNOWN
    return BoundsReport(bound, rank, lengths, sandwich_check(bound, lengths, rank), verdict)


def cmd_bounds(args: argparse.Namespace) -> int:
    report = _bounds_report(_load_graph(args.graph), args, args.minrank)
    record = {"command": "bounds", "graph": args.graph, **report.to_record()}
    lines = [f"MAIS = {report.mais}"]
    if report.minrank is not None:
        lines.append(f"minrank (GF(2)) = {report.minrank}")
    lines.append(
        "scheme lengths: "
        + " ".join(f"{name}={value:g}" for name, value in report.scheme_lengths.items())
    )
    lines.append(f"sandwich (MAIS <= lengths): {'ok' if report.sandwich_ok else 'VIOLATED'}")
    lines.append(f"optimality: {report.optimality}")
    return _emit(args, lines, record, 0 if report.sandwich_ok else 1)


def cmd_compare(args: argparse.Namespace) -> int:
    report = _bounds_report(_load_graph(args.graph), args, minrank=False)
    record = {
        "command": "compare",
        "graph": args.graph,
        "lengths": report.scheme_lengths,
        "mais": report.mais,
        "sandwich_ok": report.sandwich_ok,
        "optimality": report.optimality,
    }
    lines = [f"scheme lengths for {args.graph}:"]
    for name, value in report.scheme_lengths.items():
        lines.append(f"  {name:<7}{value:g}")
    lines.append(f"  {'MAIS':<7}{report.mais}")
    if report.optimality != UNKNOWN:
        lines.append(
            f"verdict: {report.optimality} (code length meets the MAIS lower bound)"
        )
    else:
        lines.append("verdict: unknown")
    return _emit(args, lines, record, 0 if report.sandwich_ok else 1)


def cmd_generate(args: argparse.Namespace) -> int:
    kind = args.kind
    inner = None
    description = None
    if kind == "relay-family":
        if args.k is None:
            raise ValueError("relay-family needs --k")
        d, inner = gen_relay_family(args.k)
    elif kind == "demo":
        d, inner = gen_demo_4gic()
    elif kind == "clique":
        if args.n is None:
            raise ValueError("clique needs --n")
        d = gen_clique(args.n)
    elif kind == "cycle":
        if args.n is None:
            raise ValueError("cycle needs --n")
        d = gen_cycle(args.n)
    elif kind == "icc":
        if args.k is None:
            raise ValueError("icc needs --k")
        paths = None
        if args.paths:
            paths = tuple(int(tok) for tok in args.paths.split(","))
        desc = gen_icc(args.k, paths, args.max_connector, args.seed)
        d, inner = icc_to_gic(desc)
        description = {
            "paths": [list(p) for p in desc.paths],
            "connectors": {f"{i}->{j}": list(c) for (i, j), c in sorted(desc.connectors.items())},
        }
    elif kind == "random":
        if args.n is None or args.p is None:
            raise ValueError("random needs --n and --p")
        d = gen_random(args.n, args.p, args.seed)
    else:  # unreachable; argparse restricts choices
        raise ValueError(f"unknown kind {kind!r}")

    text = serialize_digraph(d)
    record: dict = {
        "command": "generate",
        "kind": kind,
        "n": d.n,
        "arc_count": len(d.arcs),
        "graph": text,
    }
    lines: list[str] = []
    if args.out:
        Path(args.out).write_text(text + "\n")
        record["out"] = args.out
        lines.append(f"wrote {args.out}: n={d.n}, arcs={len(d.arcs)}")
    else:
        lines.append(text)
    if inner is not None:
        record["inner"] = sorted(inner)
        if args.out:
            lines.append("inner: " + " ".join(str(v) for v in sorted(inner)))
        else:
            lines.append("# inner: " + " ".join(str(v) for v in sorted(inner)))
    if description is not None:
        record["description"] = description
        for idx, path in enumerate(description["paths"], start=1):
            lines.append(f"# path {idx}: " + " ".join(str(v) for v in path))
        for key, conn in description["connectors"].items():
            lines.append(f"# connector {key}: " + " ".join(str(v) for v in conn))
    return _emit(args, lines, record, 0)


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.max_exhaustive_n > SWEEP_EXHAUSTIVE_LIMIT:
        raise SizeGateError(
            f"exhaustive sweep is gated at n <= {SWEEP_EXHAUSTIVE_LIMIT}"
        )
    result = conjecture_sweep(
        max_exhaustive_n=args.max_exhaustive_n,
        samples=args.samples,
        random_n=args.random_n,
        p=args.p,
        seed=args.seed,
    )
    record = {"command": "sweep", **result}
    lines = [
        f"conjecture sweep: {result['digraphs']} digraphs, "
        f"{result['candidates']} candidate structures, {result['validated']} validated",
        f"counterexamples (MAIS < code length): {len(result['counterexamples'])}",
    ]
    for ce in result["counterexamples"]:
        lines.append(f"  n={ce['n']} inner={ce['inner']} arcs={ce['arcs']}")
    return _emit(args, lines, record, 0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gicc",
        description="Interlinked-cycle index codes on side-information digraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, graph: bool = True) -> None:
        if graph:
            p.add_argument("graph", help="arc-list file")
        p.add_argument("--json", action="store_true", help="emit one JSON record")

    p = sub.add_parser("validate", help="check a structure and report violations")
    common(p)
    p.add_argument("--inner", required=True, help="inner vertices, e.g. 1,2,3")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("encode", help="emit the coded symbols")
    common(p)
    p.add_argument("--inner", required=True)
    p.add_argument("--messages", help="message file (t=<bits> header plus hex lines)")
    p.add_argument("--random", action="store_true", help="draw a seeded message vector")
    p.add_argument("--t", type=int, help="bits per message for --random")
    p.add_argument("--seed", type=int, help="seed for --random")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("verify", help="prove decodability by round-tripping")
    common(p)
    p.add_argument("--inner", required=True)
    p.add_argument("--exhaustive-t1", action="store_true", dest="exhaustive_t1")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--t", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cover", help="find disjoint structures covering the digraph")
    common(p)
    p.add_argument("--exact", action="store_true", help="exhaustive search (n <= 10)")
    p.add_argument("--budget", type=int, default=DEFAULT_COVER_BUDGET)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("bounds", help="lower bounds and scheme lengths")
    common(p)
    p.add_argument("--minrank", action="store_true", help="also run the GF(2) oracle")
    p.add_argument("--inner", help="certify optimality for this inner set")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("compare", help="scheme length table plus optimality verdict")
    common(p)
    p.add_argument("--inner", help="certify optimality for this inner set")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("generate", help="write benchmark instances")
    p.add_argument(
        "kind",
        choices=["relay-family", "demo", "clique", "cycle", "icc", "random"],
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("--k", type=int, help="inner size (relay-family) or path count (icc)")
    p.add_argument("--n", type=int, help="vertex count (clique, cycle, random)")
    p.add_argument("--p", type=float, help="arc probability (random)")
    p.add_argument("--paths", help="comma-separated path lengths (icc)")
    p.add_argument("--max-connector", type=int, default=2, dest="max_connector")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the arc-list file here")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sweep", help="search small instances for lower-bound gaps")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-exhaustive-n", type=int, default=4, dest="max_exhaustive_n")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--random-n", type=int, default=6, dest="random_n")
    p.add_argument("--p", type=float, default=0.35)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidStructureError as exc:
        record = {
            "command": args.command,
            "valid": False,
            "violation": exc.report.to_record(),
        }
        return _emit(args, [f"invalid: {exc.report.describe()}"], record, 1)
    except SizeGateError as exc:
        print(f"size gate: {exc}", file=sys.stderr)
        return 3
    except (FormatError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
