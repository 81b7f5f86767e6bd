"""Span tracing around the public functions of the gicc layers.

The tracer replaces each traced public name, in every gicc module that
binds it and in the benchmark's own `lib` namespace, with a wrapper
that records a span: name, start, end, parent span and operation id.
Nothing under src/ changes; the wrappers live here.

Self time is a span's duration minus the time its child spans cover.
It is accumulated on the fly, so memory stays flat however long the
run; the first MAX_SPANS spans are also kept verbatim and written out
when the run ends.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

MAX_SPANS = 100_000

# (span name, defining module, attribute); the layer is the text before
# the first dot of the span name.
TARGETS = (
    ("structure.validate", "gicc.structure", "validate_gic"),
    ("structure.tree", "gicc.structure", "build_tree"),
    ("codec.message", "gicc.codec", "MessageVector"),
    ("codec.encode", "gicc.codec", "encode"),
    ("codec.decode", "gicc.codec", "decode_inner"),
    ("codec.decode", "gicc.codec", "decode_noninner"),
    ("codec.side", "gicc.codec", "side_information"),
    ("bounds.mais", "gicc.bounds", "mais"),
    ("bounds.minrank", "gicc.bounds", "minrank_gf2"),
    ("bounds.certify", "gicc.bounds", "certify_optimality"),
    ("bounds.sweep", "gicc.bounds", "conjecture_sweep"),
    ("cover.gicc_cover", "gicc.cover", "gicc_cover"),
    ("cover.baselines", "gicc.cover", "cycle_cover_length"),
    ("cover.baselines", "gicc.cover", "clique_cover_length"),
    ("digraph.parse", "gicc.digraph", "parse_digraph"),
    ("cli.main", "gicc.cli", "main"),
    ("generators", "gicc.generators", "gen_relay_family"),
    ("generators", "gicc.generators", "gen_demo_4gic"),
    ("generators", "gicc.generators", "gen_clique"),
    ("generators", "gicc.generators", "gen_cycle"),
    ("generators", "gicc.generators", "gen_icc"),
    ("generators", "gicc.generators", "gen_random"),
)

# Classes are wrapped only in the benchmark's namespace: library code
# calls their classmethods, which a function wrapper would hide.
BENCH_ONLY = {"MessageVector"}

# Layers whose self time is split into shares of an operation; `bench`
# is the runner's own loop between library calls.
LAYERS = ("structure", "codec", "bounds", "cover", "digraph", "cli", "bench")


class Tracer:
    """Records spans and per-operation counts while installed."""

    def __init__(self) -> None:
        self.t0 = perf_counter()
        self.stack: list[list] = []  # [span id, start, child time]
        self.next_id = 0
        self.op_id = -1  # -1 while setting up
        self.phase = "setup"
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.self_s = {"setup": Counter(), "op": Counter()}
        self.op_counts: Counter = Counter()
        self.cover_depth = 0
        self.violation_report = None
        self.patches: list[tuple] = []  # (holder, key, original, wrapper)

    def install(self, lib) -> None:
        """Wrap every traced name in the gicc modules and in `lib`."""
        if not self.patches:
            self.violation_report = sys.modules["gicc.structure"].ViolationReport
            modules = [m for n, m in sys.modules.items() if n == "gicc" or n.startswith("gicc.")]
            for span, module_name, attr in TARGETS:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(span, original)
                holders = [lib] if attr in BENCH_ONLY else [*modules, lib]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self.patches.append((holder, key, original, wrapper))
        for holder, key, _, wrapper in self.patches:
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        """Put the original functions back."""
        for holder, key, original, _ in self.patches:
            setattr(holder, key, original)

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        is_validate = name == "structure.validate"
        is_cover = name == "cover.gicc_cover"
        calls_key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.op_counts[calls_key] += 1
            if is_cover:
                self.cover_depth += 1
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if is_validate:
                    self.op_counts["structure.validate.fail"] += 1
                raise
            finally:
                self._leave(nid, frame)
                if is_cover:
                    self.cover_depth -= 1
            if is_validate:
                rejected = isinstance(result, self.violation_report)
                if rejected:
                    self.op_counts["structure.validate.reject"] += 1
                if self.cover_depth:
                    self.op_counts["cover.validate_attempts"] += 1
                    if not rejected:
                        self.op_counts["cover.validate_accept"] += 1
            return result

        return wrapper

    def _enter(self) -> list:
        frame = [self.next_id, 0.0, 0.0]
        self.next_id += 1
        self.stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _leave(self, nid: int, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        span_id, start, child = frame
        duration = end - start
        self.self_s[self.phase][nid] += duration - child
        parent = -1
        if self.stack:
            self.stack[-1][2] += duration
            parent = self.stack[-1][0]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, nid, start - self.t0, end - self.t0, parent, self.op_id))
        else:
            self.dropped += 1

    def run_setup(self, build):
        """Call build() as the traced set-up, under one bench.setup span."""
        nid = self._name_id("bench.setup")
        self.phase, self.op_id = "setup", -1
        frame = self._enter()
        try:
            return build()
        finally:
            self._leave(nid, frame)

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as one operation; its counts are in op_counts afterwards."""
        nid = self._name_id("bench.op")
        self.phase, self.op_id = "op", op_id
        self.op_counts = Counter()
        frame = self._enter()
        try:
            return fn(*args)
        finally:
            self._leave(nid, frame)

    def self_ms(self, phase: str, prefix: str) -> float:
        """Total self time in ms of spans whose name is prefix or starts with prefix + '.'."""
        total = sum(
            s
            for nid, s in self.self_s[phase].items()
            if self.names[nid] == prefix or self.names[nid].startswith(prefix + ".")
        )
        return total * 1e3

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as tab-separated values, times in microseconds."""
        with path.open("w") as out:
            out.write("span\tname\tstart_us\tend_us\tparent\top\n")
            for span_id, nid, start, end, parent, op in self.spans:
                out.write(
                    f"{span_id}\t{self.names[nid]}\t{start * 1e6:.1f}\t{end * 1e6:.1f}\t{parent}\t{op}\n"
                )
