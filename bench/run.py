"""Benchmark runner for gicc.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the library is imported from the
checkout's src/ and the brute-force oracles from tests/oracles.py.
One process, one closed-loop client: each operation starts when the
previous one has been checked.  Operations cycle through the
workload's seeded items in whole passes until the timed operations
add up to --seconds.  Timings take each item at its 90th-percentile
latency over the run, because the shared host runs at two speeds in a
mix that changes from run to run; see bench/README.md.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes, and prints the per-layer metrics and the tracing
overhead.  The last line of stdout is the JSON result; the
line before it carries informational fields, and the full record is
written under bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SRC_PACKAGE = ROOT / "src" / "gicc"
ORACLES = ROOT / "tests" / "oracles.py"
SETUP_REPEATS = 15
TAIL_BEYOND = 10
ITEM_PERCENTILE = 90.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

sys.path.insert(0, str(BENCH))
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def import_library() -> SimpleNamespace:
    """Import gicc afresh from the checkout and return what the workloads call."""
    for name in [n for n in sys.modules if n == "gicc" or n.startswith("gicc.")]:
        del sys.modules[name]
    gicc = importlib.import_module("gicc")
    cli = importlib.import_module("gicc.cli")
    if Path(gicc.__file__).resolve().parent != SRC_PACKAGE:
        raise BenchError(f"imported gicc from {gicc.__file__}, not from {SRC_PACKAGE}")
    names = (
        "Digraph", "ViolationReport", "MessageVector", "validate_gic", "xor_cost_bound",
        "encode", "decode_inner", "decode_noninner", "side_information",
        "conjecture_sweep", "icc_to_gic", "gen_relay_family", "gen_demo_4gic",
        "gen_clique", "gen_cycle", "gen_icc", "gen_random",
    )
    lib = SimpleNamespace(**{n: getattr(gicc, n) for n in names})
    lib.cli_main = cli.main
    return lib


def load_oracles():
    spec = importlib.util.spec_from_file_location("gicc_bench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def setup(workload, seed: int, workdir: Path):
    """Import, instance generation, file writes and set-up validation; timed."""
    start = perf_counter()
    lib = import_library()
    items = workload.build(lib, seed, workdir)
    return perf_counter() - start, lib, items


class Run:
    """Latencies, failures and determinism records of the operations run so far."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        # Latencies per item index, of untraced and of traced passes.
        self.untraced: dict[int, list[float]] = {}
        self.traced: dict[int, list[float]] = {}
        self.failed = 0
        self.wrong: list[str] = []
        self.exceptions: Counter = Counter()
        self.first: dict[int, tuple] = {}  # item index -> (signature, counts)
        self.nondeterministic: set[str] = set()
        self.next_op = 0

    def passes(self, workload, lib, items, seconds: float, resetup=None) -> list[float]:
        """Run whole passes until the timed operations add up to `seconds`.

        Between passes, calls `resetup` each time another
        seconds / (SETUP_REPEATS - 1) of timed operations have run, so the
        repeated set-ups sample the host over the whole run.
        Returns the timed seconds of each pass.
        """
        gc.collect()
        pass_times: list[float] = []
        due = [seconds * k / (SETUP_REPEATS - 1) for k in range(1, SETUP_REPEATS)] if resetup else []
        while sum(pass_times) < seconds:
            pass_times.append(self.one_pass(workload, lib, items))
            while due and sum(pass_times) >= due[0]:
                resetup()
                due.pop(0)
        for _ in due:  # rounding can leave the last one due
            resetup()
        return pass_times

    def traced_passes(self, workload, lib, items, seconds: float, tracer: Tracer) -> tuple[list[float], list[float]]:
        """Alternate untraced and traced passes, so both halves see the same machine load.

        Returns the timed seconds of the untraced and of the traced passes.
        """
        gc.collect()
        untraced: list[float] = []
        traced: list[float] = []
        while sum(untraced) + sum(traced) < seconds:
            untraced.append(self.one_pass(workload, lib, items))
            tracer.install(lib)
            try:
                traced.append(self.one_pass(workload, lib, items, tracer))
            finally:
                tracer.uninstall()
        return untraced, traced

    def one_pass(self, workload, lib, items, tracer: Tracer | None = None) -> float:
        """Run every item once; returns the timed seconds of the pass."""
        busy = 0.0
        for idx, item in enumerate(items):
            op_index = self.next_op
            self.next_op += 1
            inp = workload.prepare(lib, item, op_index)
            error = None
            start = perf_counter()
            try:
                if tracer is None:
                    out = workload.op(lib, item, inp)
                else:
                    out = tracer.run_op(op_index, workload.op, lib, item, inp)
            except Exception as exc:  # a failed operation is counted, never fatal
                error = exc
            elapsed = perf_counter() - start
            busy += elapsed
            self.latencies.append(elapsed)
            (self.untraced if tracer is None else self.traced).setdefault(idx, []).append(elapsed)
            if error is not None:
                self.failed += 1
                self.exceptions[f"{item.name}: {type(error).__name__}"] += 1
                signature = ["raised", type(error).__name__]
            else:
                reason, signature = workload.check(lib, item, inp, out)
                if reason is not None:
                    self.failed += 1
                    self.wrong.append(reason)
                    continue
            counts = dict(sorted(tracer.op_counts.items())) if tracer else None
            self.record(idx, item, signature, counts)
        return busy

    def record(self, idx: int, item, signature, counts) -> None:
        seen = self.first.get(idx)
        if seen is None:
            self.first[idx] = (signature, counts)
            return
        if seen[0] != signature or (counts is not None and seen[1] is not None and seen[1] != counts):
            self.nondeterministic.add(item.name)
        elif counts is not None and seen[1] is None:
            self.first[idx] = (signature, counts)


def nearest_rank(ordered: list[float], pct: float) -> float:
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def item_latency(samples: list[float]) -> float:
    """An item's latency in the host's usual state: its ITEM_PERCENTILE over the run.

    The items are deterministic computations.  Their repeats spread
    because the host runs the benchmark either at full speed or, most of
    the time, at 0.5-0.65x of it, in a mix that changes from run to run.
    A high percentile of each item reads the slower, usual speed as long
    as full speed covers less than 90 % of the run, and ignores rare
    slower stretches.
    """
    return nearest_rank(sorted(samples), ITEM_PERCENTILE)


def item_latencies(by_item: dict[int, list[float]]) -> list[float]:
    """Every operation's latency, replaced by the item_latency of its item.

    Whole passes run every item equally often, so the list keeps each
    item's share of the operations.
    """
    return [item_latency(samples) for samples in by_item.values() for _ in samples]


def tail(latencies: list[float], top: float) -> tuple[float, float, int]:
    """Latency at the highest percentile, from `top` down, with TAIL_BEYOND samples beyond it.

    Returns (latency, percentile, sample count).  Each workload fixes `top`
    as the answer at its default run length, so the percentile does not
    jump when a faster program completes more operations.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if pct <= top and n - math.ceil(pct / 100.0 * n) >= TAIL_BEYOND:
            return nearest_rank(ordered, pct), pct, n
    return ordered[-1], 100.0, n


def rate(by_item: dict[int, list[float]]) -> float:
    """Operations per second of one pass with every item at its item_latency."""
    return len(by_item) / sum(item_latency(samples) for samples in by_item.values())


def quality(items) -> dict:
    """Code length against MAIS over the items whose MAIS is known."""
    optimal = known = excess = 0
    ratio = 0.0
    for item in items:
        if item.quality is not None:
            optimal += item.quality[0]
            known += item.quality[1]
            ratio += item.quality[2]
            excess += item.quality[3]
    if not known:
        raise BenchError("no item produced a code with a known MAIS")
    return {"length_over_mais": ratio / known, "optimal_share": optimal / known, "plan_excess": excess}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, workload, items, setup_times: list[float], rss: float) -> dict:
    n = len(run.latencies)
    latencies = item_latencies(run.untraced)
    tail_value, _, _ = tail(latencies, workload.tail_top)
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "ops_per_s": metric(rate(run.untraced), "ops/s"),
        "op_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": metric(tail_value * 1e3, "ms"),
        "ok_share": metric((n - run.failed) / n, "ratio"),
        "peak_rss_mb": metric(rss, "MB"),
        "length_over_mais": metric(quality(items)["length_over_mais"], "ratio"),
    }


def per_layer(run: Run, items, tracer: Tracer, traced: list[float], untraced: list[float]) -> dict:
    # Whole passes run every item equally often, so a count per operation
    # is the sum over items of each item's count divided by the item count.
    per_op = len(items)
    traced_ops = per_op * len(traced)

    def count(key: str) -> float:
        return sum(c.get(key, 0) for _, c in run.first.values() if c is not None)

    def ms(prefix: str) -> float:
        return tracer.self_ms("op", prefix) / traced_ops

    validate_calls = count("structure.validate.calls")
    attempts = count("cover.validate_attempts")
    traced_rate = rate(run.traced)
    untraced_rate = rate(run.untraced)
    total_self = sum(tracer.self_ms("op", layer) for layer in LAYERS)
    codes = quality(items)
    metrics = {
        "structure.validate.calls": metric(validate_calls / per_op, "count/op"),
        "structure.validate.self_ms": metric(ms("structure.validate"), "ms/op"),
        "structure.validate.reject_share": metric(
            count("structure.validate.reject") / validate_calls if validate_calls else 0.0, "ratio"),
        "structure.validate.fail": metric(count("structure.validate.fail") / per_op, "count/op"),
        "codec.encode.self_ms": metric(ms("codec.encode"), "ms/op"),
        "codec.decode.self_ms": metric(ms("codec.decode"), "ms/op"),
        "codec.decode.calls": metric(count("codec.decode.calls") / per_op, "count/op"),
        "codec.xor_bits": metric(sum(i.data.get("xor_bits", 0) for i in items) / per_op, "bits/op"),
        "bounds.mais.calls": metric(count("bounds.mais.calls") / per_op, "count/op"),
        "bounds.mais.self_ms": metric(ms("bounds.mais"), "ms/op"),
        "bounds.minrank.self_ms": metric(ms("bounds.minrank"), "ms/op"),
        "bounds.certify.self_ms": metric(ms("bounds.certify"), "ms/op"),
        "bounds.sweep.self_ms": metric(ms("bounds.sweep"), "ms/op"),
        "cover.gicc_cover.self_ms": metric(ms("cover.gicc_cover"), "ms/op"),
        "cover.baselines.self_ms": metric(ms("cover.baselines"), "ms/op"),
        "cover.validate_attempts": metric(attempts / per_op, "count/op"),
        "cover.accept_share": metric(count("cover.validate_accept") / attempts if attempts else 0.0, "ratio"),
        "digraph.parse.calls": metric(count("digraph.parse.calls") / per_op, "count/op"),
        "digraph.parse.self_ms": metric(ms("digraph.parse"), "ms/op"),
        "cli.main.calls": metric(count("cli.main.calls") / per_op, "count/op"),
        "cli.main.self_ms": metric(ms("cli.main"), "ms/op"),
        "generators.self_ms": metric(tracer.self_ms("setup", "generators"), "ms"),
        "plan_excess": metric(codes["plan_excess"], "symbols"),
        "optimal_share": metric(codes["optimal_share"], "ratio"),
    }
    for layer in LAYERS:
        share = tracer.self_ms("op", layer) / total_self if total_self else 0.0
        metrics[f"layer.{layer}.self_share"] = metric(share, "ratio")
    metrics["trace.ops_per_s"] = metric(traced_rate, "ops/s")
    metrics["trace.untraced_ops_per_s"] = metric(untraced_rate, "ops/s")
    metrics["trace.overhead_pct"] = metric(100.0 * (untraced_rate - traced_rate) / untraced_rate, "%")
    return metrics


def digest(run: Run, items) -> str:
    """Hash of every item's output signature, counts and quality: equal seeds, equal digest."""
    material = [
        [items[idx].name, run.first[idx][0], run.first[idx][1], items[idx].quality]
        for idx in sorted(run.first)
    ]
    return hashlib.sha256(json.dumps(material, sort_keys=True).encode()).hexdigest()[:16]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC_PACKAGE.glob("*.py")))


def benchmark(args) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        seconds, lib, items = setup(workload, args.seed, workdir)
        setup_times = [seconds]
        lib.oracles = load_oracles()
        run = Run()
        info: dict = {}
        if args.trace == 0:
            # The repeats rebuild the same inputs; the run keeps using the first.
            def resetup() -> None:
                setup_times.append(setup(workload, args.seed, workdir)[0])

            pass_times = run.passes(workload, lib, items, args.seconds, resetup)
            rss = peak_rss_mb()
            metrics = end_to_end(run, workload, items, setup_times, rss)
        else:
            tracer = Tracer()
            tracer.install(lib)
            try:
                items = tracer.run_setup(lambda: workload.build(lib, args.seed, workdir))
            finally:
                tracer.uninstall()
            untraced, traced = run.traced_passes(workload, lib, items, args.seconds, tracer)
            pass_times = untraced + traced
            metrics = per_layer(run, items, tracer, traced, untraced)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
            tracer.write_spans(spans_path)
            shares = {k: v["value"] for k, v in metrics.items() if k.startswith("layer.")}
            info.update({
                "spans_file": str(spans_path.relative_to(ROOT)),
                "spans_kept": len(tracer.spans),
                "spans_dropped": tracer.dropped,
                "dominant_layer": max(shares, key=shares.get).split(".")[1],
            })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(run.latencies)
    _, tail_pct, tail_n = tail(item_latencies(run.untraced), workload.tail_top)
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": len(items),
        "passes": len(pass_times),
        "timed_s": sum(pass_times),
        "fail_share": run.failed / n,
        **quality(items),
        "tail_percentile": tail_pct,
        "tail_samples": tail_n,
        "setup_runs_s": setup_times,
        "exceptions": dict(run.exceptions),
        "wrong_outputs": run.wrong[:20],
        "nondeterministic_items": sorted(run.nondeterministic),
        "determinism_digest": digest(run, items),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_gicc_lines": src_lines(),
    })
    result = {
        "correct": not run.wrong and not run.nondeterministic,
        "attempted": n,
        "failed": run.failed,
        "metrics": metrics,
    }
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for needed in (SRC_PACKAGE / "__init__.py", ORACLES):
        if not needed.is_file():
            print(f"bench: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result, info = benchmark(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    record = {"info": info, **result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
