"""Spans and counts around the calls into each quadchase layer.

The hooks replace names the program looks up at call time, so nothing
inside ``src/`` changes: the module globals ``quadchase.chase`` resolves
(``lclosure_quadgraph``, ``derive``, ``check_constraints``,
``skolemize_all`` and the three dependency-analysis calls), the
``instantiate_head`` global ``derive`` resolves, and three ``QuadGraph``
methods.  A hooked name that no longer exists, or a hook that never
fires, is a ``HookError``: the benchmark stops rather than report 0 for a
layer it can no longer see.

Spans stay in memory as ``[name, start, end, parent]`` (``parent`` is the
index of the enclosing span, -1 at the top) and are written once, when
the run ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

clock = time.perf_counter

# Worker exit code for a HookError.
HOOK_EXIT = 3


class HookError(RuntimeError):
    """A hooked name is gone or was never called."""


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.in_query = False
        self._stack = [-1]

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, clock(), None, self._stack[-1]])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def dump(self) -> dict:
        return {"run": self.run_id, "spans": self.spans,
                "counts": dict(self.counts)}


# Hooks that must fire at least once in every traced run.
REQUIRED = ("semantics.closure", "engine.derive", "engine.head_instances",
            "engine.constraints", "engine.skolemize", "contextgraph.build",
            "contextgraph.acyclic", "contextgraph.levels", "terms.graphs",
            "terms.index_builds", "query.candidate_calls")


def _lookup(owner, attr: str):
    try:
        return getattr(owner, attr)
    except AttributeError:
        raise HookError("hooked name %s.%s no longer exists"
                        % (getattr(owner, "__name__", owner), attr))


def _spanned(tracer: Tracer, owner, attr: str, name: str, after=None):
    """Replace ``owner.attr`` by a wrapper that records a span and counts
    the call; ``after(args, result)`` adds layer counts."""
    original = _lookup(owner, attr)

    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(index)
        tracer.counts[name] += 1
        if after is not None:
            after(args, result)
        return result

    setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Hook every traced layer of the already imported quadchase."""
    from quadchase import chase, engine, terms

    counts = tracer.counts

    def closure_added(args, result):
        counts["semantics.quads_added"] += len(result) - len(args[0])

    def derive_new(args, result):
        counts["engine.new_quads"] += len(result.difference(args[1].quads))

    _spanned(tracer, chase, "lclosure_quadgraph", "semantics.closure",
             closure_added)
    _spanned(tracer, chase, "derive", "engine.derive", derive_new)
    _spanned(tracer, chase, "check_constraints", "engine.constraints")
    _spanned(tracer, chase, "skolemize_all", "engine.skolemize")
    _spanned(tracer, chase, "build_dependency_graph", "contextgraph.build")
    _spanned(tracer, chase, "is_context_acyclic", "contextgraph.acyclic")
    _spanned(tracer, chase, "compute_levels", "contextgraph.levels")

    instantiate = _lookup(engine, "instantiate_head")

    def counted_instantiate(*args, **kwargs):
        counts["engine.head_instances"] += 1
        return instantiate(*args, **kwargs)

    engine.instantiate_head = counted_instantiate

    graph = terms.QuadGraph
    init = _lookup(graph, "__init__")
    ensure = _lookup(graph, "_ensure_indexes")
    candidates = _lookup(graph, "candidates")
    candidate_count = _lookup(graph, "candidate_count")

    def traced_init(self, *args, **kwargs):
        index = tracer.open("terms.graph")
        try:
            init(self, *args, **kwargs)
        finally:
            tracer.close(index)
        counts["terms.graphs"] += 1
        counts["terms.quads_copied"] += len(self)

    def traced_ensure(self):
        if self._by_ctx is not None:
            return ensure(self)
        index = tracer.open("terms.index")
        try:
            ensure(self)
        finally:
            tracer.close(index)
        counts["terms.index_builds"] += 1
        counts["terms.indexed_quads"] += len(self)

    def traced_candidates(self, ctx, s=None, p=None, o=None):
        rows = candidates(self, ctx, s, p, o)
        if tracer.in_query:
            counts["query.candidate_calls"] += 1
            counts["query.candidate_rows"] += len(rows)
            # the index bucket the call walked, as the join sizes it
            counts["query.scanned_rows"] += candidate_count(self, ctx, s, p,
                                                            o)
        return rows

    graph.__init__ = traced_init
    graph._ensure_indexes = traced_ensure
    graph.candidates = traced_candidates


def check_fired(tracer: Tracer) -> None:
    silent = [name for name in REQUIRED if not tracer.counts.get(name)]
    if silent:
        raise HookError("hooks never fired: %s" % ", ".join(silent))


def summarize(dump: dict, scale: dict) -> dict:
    """Per-layer figures of one traced run, keyed by metric name.  Each
    span's duration is multiplied by the ``scale`` of the top-level span
    (``step.chase`` or ``step.query``) it lies in."""
    spans, counts = dump["spans"], dump["counts"]
    root: list = []
    seconds: list = []
    total: dict = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        root.append(i if parent < 0 else root[parent])
        seconds.append((end - start) * scale[spans[root[i]][0]])
        total[name] += seconds[i]
    run = {i for i, s in enumerate(spans) if s[0] == "chase.run"}
    run_s = sum(seconds[i] for i in run)
    children_s = sum(seconds[i] for i, s in enumerate(spans)
                     if s[3] in run)
    heads = counts.get("engine.head_instances", 0)
    return {
        "syntax.parse_data_s": total["syntax.parse_data"],
        "syntax.parse_rules_s": total["syntax.parse_rules"],
        "syntax.serialize_s": total["syntax.serialize"],
        "syntax.parse_chase_s": total["syntax.parse_chase"],
        "contextgraph.deps_s": (total["contextgraph.build"]
                                + total["contextgraph.acyclic"]
                                + total["contextgraph.levels"]),
        "chase.run_s": run_s,
        "chase.self_s": run_s - children_s,
        "semantics.closure_s": total["semantics.closure"],
        "semantics.closure_calls": counts.get("semantics.closure", 0),
        "semantics.quads_added": counts.get("semantics.quads_added", 0),
        "engine.derive_s": total["engine.derive"],
        "engine.derive_calls": counts.get("engine.derive", 0),
        "engine.head_instances": heads,
        "engine.useful_ratio": (counts.get("engine.new_quads", 0) / heads
                                if heads else 0.0),
        "engine.constraints_s": total["engine.constraints"],
        "engine.skolemize_s": total["engine.skolemize"],
        "terms.graphs_built": counts.get("terms.graphs", 0),
        "terms.quads_copied": counts.get("terms.quads_copied", 0),
        "terms.index_builds": counts.get("terms.index_builds", 0),
        "terms.indexed_quads": counts.get("terms.indexed_quads", 0),
        "terms.index_s": total["terms.index"],
        "query.answer_s": total["query.answer"],
        "query.candidate_calls": counts.get("query.candidate_calls", 0),
        "query.candidate_rows": counts.get("query.candidate_rows", 0),
        "query.scanned_rows": counts.get("query.scanned_rows", 0),
    }
