"""Spans around each layer of vspec, recorded from the benchmark's side.

Each layer's public function is replaced, at the module attribute its
caller looks up, by a wrapper that records a span: name, start, end,
parent span and op id.  Spans stay in memory until the run ends.  A
layer's self time is its spans' duration minus the time their child spans
cover.  Counters are taken after a span closes, inside a ``trace.count``
span, so their cost is charged to no layer.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter


class TraceError(Exception):
    """A wrapped name is missing, or a layer that must fire never did."""


def _count_tokens(counts: Counter, args, result) -> None:
    counts["lexer.tokens"] += len(result)


def _count_queries(counts: Counter, args, plan) -> None:
    counts["queries.linear_queries"] += len(plan.queries)
    counts["queries.constraints"] += sum(len(q.constraints) for q in plan.queries)


def _count_engine(counts: Counter, args, verdict) -> None:
    from vspec.verifier import engine

    query, ctx = args[0], args[1]
    skeleton = engine.unroll_meta_network(query.meta, ctx)
    _, fixed = engine.propagate_bounds(skeleton, query)
    free = len(skeleton.relu_nodes) - len(fixed)
    counts["verifier.engine.queries"] += 1
    counts["verifier.engine.free_relus"] += free
    counts[f"free_relus_per_query={free}"] += 1


def _count_lp(counts: Counter, args, witness) -> None:
    counts["verifier.lp.calls"] += 1
    counts["verifier.lp.feasible"] += witness is not None
    counts["verifier.lp.rows"] += len(args[0].constraints)


def _count_files(counts: Counter, args, files) -> None:
    counts["marabou.files"] += len(files)
    counts["marabou.bytes"] += sum(len(line.encode()) + 1 for f in files for line in f.lines)


# (module, attribute its caller looks up, span name, counter)
TARGETS = (
    ("vspec.cli", "main", "cli", None),
    ("vspec.surface", "parse", "surface", None),
    ("vspec.surface", "tokenize", "lexer", _count_tokens),
    ("vspec.pipeline", "typecheck", "typecheck", None),
    ("vspec.pipeline", "analyze_network_types", "networks", None),
    ("vspec.pipeline", "hash_file", "networks", None),
    ("vspec.pipeline", "prune_non_prop", "normalise", None),
    ("vspec.pipeline", "compile_property", "queries", _count_queries),
    ("vspec.cli", "check_query", "verifier.engine", _count_engine),
    ("vspec.verifier.engine", "feasible", "verifier.lp", _count_lp),
    ("vspec.marabou", "emit_property_queries", "marabou", _count_files),
    ("vspec.cli", "emit_itp_module", "agda", None),
    ("vspec.proofcache", "write_proof_file", "proofcache.write", None),
    ("vspec.proofcache", "read_proof_file", "proofcache.check", None),
    ("vspec.proofcache", "check_all", "proofcache.check", None),
)

# Self-time metric -> span name; self times are in seconds.
SELF_TIMES = {
    "verifier.lp.self_s": "verifier.lp",
    "verifier.engine.self_s": "verifier.engine",
    "lexer.self_s": "lexer",
    "surface.self_s": "surface",
    "typecheck.self_s": "typecheck",
    "normalise.self_s": "normalise",
    "queries.self_s": "queries",
    "marabou.self_s": "marabou",
    "agda.self_s": "agda",
    "proofcache.write_s": "proofcache.write",
    "proofcache.check_s": "proofcache.check",
    "networks.self_s": "networks",
    "cli.self_s": "cli",
}
COUNTS = (
    "verifier.lp.calls",
    "verifier.engine.queries",
    "verifier.engine.free_relus",
    "lexer.tokens",
    "queries.linear_queries",
    "queries.constraints",
    "marabou.files",
    "marabou.bytes",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf_counter(), 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, count):
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if count is not None:
                hidden = self._enter("trace.count")
                try:
                    count(self.counts, args, result)
                finally:
                    self._exit(hidden)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; a missing name is an error, not a zero."""
        for module_name, attr, name, count in TARGETS:
            module = importlib.import_module(module_name)
            if not callable(getattr(module, attr, None)):
                self.uninstall()
                raise TraceError(f"cannot trace {name}: {module_name}.{attr} is missing")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        children: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - children[i]
        return out

    def fired(self) -> set[str]:
        return {span[0] for span in self.spans}

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except the tracing overhead."""
        own = self.self_times()
        out = {metric: own.get(span, 0.0) for metric, span in SELF_TIMES.items()}
        out.update({name: self.counts[name] for name in COUNTS})
        calls = self.counts["verifier.lp.calls"]
        out["verifier.lp.feasible_frac"] = self.counts["verifier.lp.feasible"] / calls if calls else 0.0
        out["verifier.lp.rows_mean"] = self.counts["verifier.lp.rows"] / calls if calls else 0.0
        return out

    def free_relu_histogram(self) -> dict[int, int]:
        prefix = "free_relus_per_query="
        return {
            int(key[len(prefix) :]): n
            for key, n in sorted(self.counts.items())
            if key.startswith(prefix)
        }


def check_complete(tracer: Tracer, expected: tuple[str, ...], workload: str) -> None:
    missing = sorted(set(expected) - tracer.fired())
    if missing:
        raise TraceError(f"on {workload}, these layers never fired: {', '.join(missing)}")
