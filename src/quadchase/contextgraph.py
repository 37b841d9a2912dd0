"""Context dependency analysis: TGC detection, acyclicity, and levels.

Every rule contributes an edge from each body context to each head
context.  A context is triple-generating (TGC) when some rule head puts
an existential variable in the subject, predicate or object of a quad
pattern in that context.  The system is context-acyclic when no TGC lies
on a directed cycle; paths have at least one edge, so a self-loop on a
TGC counts as a cycle.

Levels stratify an acyclic graph: a context's level is the number of
TGCs on the TGC-richest path leading into it (counting the context
itself when it is a TGC).  The chase needs at most max-level + 1
generating iterations, the last of which produces nothing.

The verdict and the levels both come from the strongly connected
components of the graph.  A graph computes them once, on first use,
and keeps them with its successor map, so the verdict, the levels and
the witness cycle of one graph share a single analysis.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from .engine import QuadSystem
from .terms import Constant, FrozenRecord


class ContextDependencyGraph(FrozenRecord):
    """The dependency graph of a quad-system.  Its successor map and its
    strongly connected components are computed on first use and kept."""

    nodes: frozenset[Constant]
    tgc: frozenset[Constant]
    edges: frozenset[tuple[Constant, Constant]]
    provenance: dict[tuple[Constant, Constant], tuple[str, ...]]

    @cached_property
    def successors(self) -> dict[Constant, list[Constant]]:
        """Each node's successors, in canonical order."""
        succ: dict[Constant, list[Constant]] = {n: [] for n in self.nodes}
        for (a, b) in sorted(self.edges, key=lambda e: (e[0].canonical,
                                                        e[1].canonical)):
            succ[a].append(b)
        return succ

    @cached_property
    def components(self) -> tuple[list[list[Constant]], dict[Constant, int]]:
        """The strongly connected components, in reverse topological order
        (successors first), and each node's index among them.  Tarjan's
        algorithm, iterative, deterministic node order."""
        succ = self.successors
        index: dict[Constant, int] = {}
        low: dict[Constant, int] = {}
        on_stack: set[Constant] = set()
        stack: list[Constant] = []
        sccs: list[list[Constant]] = []
        counter = [0]

        for root in _sorted_nodes(self):
            if root in index:
                continue
            work = [(root, iter(succ[root]))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for nxt in it:
                    if nxt not in index:
                        index[nxt] = low[nxt] = counter[0]
                        counter[0] += 1
                        stack.append(nxt)
                        on_stack.add(nxt)
                        work.append((nxt, iter(succ[nxt])))
                        advanced = True
                        break
                    if nxt in on_stack:
                        low[node] = min(low[node], index[nxt])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        top = stack.pop()
                        on_stack.discard(top)
                        comp.append(top)
                        if top == node:
                            break
                    sccs.append(comp)
        comp_of = {n: i for i, comp in enumerate(sccs) for n in comp}
        return sccs, comp_of


class AcyclicityVerdict(FrozenRecord):
    acyclic: bool
    witness: Optional[tuple[Constant, ...]] = None

    def witness_text(self) -> str:
        if self.witness is None:
            return ""
        return "(%s)" % ", ".join(c.lexical for c in self.witness)


class LevelMap(FrozenRecord):
    levels: dict[Constant, int]
    max_level: int


class NotContextAcyclicError(ValueError):
    def __init__(self, verdict: AcyclicityVerdict) -> None:
        self.verdict = verdict
        super().__init__("quad-system is not context acyclic; witness cycle "
                         + verdict.witness_text())


def build_dependency_graph(system: QuadSystem) -> ContextDependencyGraph:
    """Nodes are every context in the data or rules; edges body->head."""
    tgc: set[Constant] = set()
    prov: dict[tuple[Constant, Constant], list[str]] = {}
    for rule in system.rules:
        body_ctx = {p.ctx for p in rule.body}
        head_ctx = {p.ctx for p in rule.head}
        existential = rule.existential_variables()
        for pat in rule.head:
            if pat.variables() & existential:
                tgc.add(pat.ctx)
        for a in body_ctx:
            for b in head_ctx:
                prov.setdefault((a, b), []).append(rule.rule_id)
    return ContextDependencyGraph(
        frozenset(system.contexts()), frozenset(tgc),
        frozenset(prov.keys()),
        {edge: tuple(sorted(set(ids))) for edge, ids in prov.items()})


def _sorted_nodes(graph: ContextDependencyGraph) -> list[Constant]:
    return sorted(graph.nodes, key=lambda c: c.canonical)


def _shortest_cycle_through(graph: ContextDependencyGraph,
                            node: Constant) -> tuple[Constant, ...]:
    """Shortest directed cycle node -> ... -> node (BFS, sorted order)."""
    succ = graph.successors
    if node in succ[node]:
        return (node, node)
    parent: dict[Constant, Constant] = {}
    frontier = [node]
    seen = {node}
    while frontier:
        nxt_frontier = []
        for cur in frontier:
            for nxt in succ[cur]:
                if nxt == node:
                    chain = [cur]
                    while chain[-1] != node:
                        chain.append(parent[chain[-1]])
                    chain.reverse()
                    return tuple(chain) + (node,)
                if nxt not in seen:
                    seen.add(nxt)
                    parent[nxt] = cur
                    nxt_frontier.append(nxt)
        frontier = nxt_frontier
    raise AssertionError("no cycle through %s" % node.canonical)


def _rotate_cycle(cycle: tuple[Constant, ...]) -> tuple[Constant, ...]:
    """Canonical rotation: start (and end) at the smallest node."""
    ring = list(cycle[:-1])
    k = min(range(len(ring)), key=lambda i: ring[i].canonical)
    ring = ring[k:] + ring[:k]
    return tuple(ring) + (ring[0],)


def is_context_acyclic(graph: ContextDependencyGraph) -> AcyclicityVerdict:
    """Acyclic iff no TGC lies on any directed cycle.

    Returns one witness cycle through a TGC otherwise, rotated to start
    at its canonically smallest node.
    """
    comps, comp_of = graph.components
    offenders = [t for t in sorted(graph.tgc, key=lambda c: c.canonical)
                 if len(comps[comp_of[t]]) > 1 or (t, t) in graph.edges]
    if not offenders:
        return AcyclicityVerdict(True)
    best: Optional[tuple[Constant, ...]] = None
    for t in offenders:
        cycle = _shortest_cycle_through(graph, t)
        if best is None or len(cycle) < len(best):
            best = cycle
    return AcyclicityVerdict(False, _rotate_cycle(best))


def compute_levels(graph: ContextDependencyGraph) -> LevelMap:
    """Level assignment for a context-acyclic graph.

    level(c) = (1 if c is a TGC else 0) + max level of any TGC with a
    path (>= 1 edge) into c.  Computed by dynamic programming over the
    condensation: nodes of one component share TGC ancestors, and an
    acyclic graph has no TGC inside a nontrivial component.
    """
    verdict = is_context_acyclic(graph)
    if not verdict.acyclic:
        raise NotContextAcyclicError(verdict)
    comps, comp_of = graph.components
    preds: dict[int, set[int]] = {i: set() for i in range(len(comps))}
    for (a, b) in graph.edges:
        ca, cb = comp_of[a], comp_of[b]
        if ca != cb:
            preds[cb].add(ca)
    # Tarjan emits components in reverse topological order (successors
    # first); the DP wants predecessors first, so walk it backwards.
    order = reversed(range(len(comps)))
    value: dict[int, int] = {}
    for i in order:
        is_tgc = len(comps[i]) == 1 and comps[i][0] in graph.tgc
        best_in = max((value[p] for p in preds[i]), default=0)
        value[i] = (1 if is_tgc else 0) + best_in
    levels = {n: value[comp_of[n]] for n in graph.nodes}
    return LevelMap(levels, max(levels.values(), default=0))


def to_dot(graph: ContextDependencyGraph) -> str:
    """DOT rendering; TGC nodes are starred."""
    lines = ["digraph contexts {"]
    for n in _sorted_nodes(graph):
        label = n.lexical + (" *" if n in graph.tgc else "")
        lines.append('  "%s" [label="%s"%s];'
                     % (n.lexical, label,
                        ", shape=doublecircle" if n in graph.tgc else ""))
    for a in _sorted_nodes(graph):
        for b in graph.successors[a]:
            lines.append('  "%s" -> "%s";' % (a.lexical, b.lexical))
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(graph: ContextDependencyGraph) -> dict:
    """JSON-ready description: nodes, edges, flags, verdict, levels."""
    verdict = is_context_acyclic(graph)
    levels: Optional[LevelMap] = None
    if verdict.acyclic:
        levels = compute_levels(graph)
    return {
        "nodes": [{"context": n.lexical, "tgc": n in graph.tgc}
                  for n in _sorted_nodes(graph)],
        "edges": [{"from": a.lexical, "to": b.lexical,
                   "rules": list(graph.provenance[(a, b)])}
                  for a in _sorted_nodes(graph)
                  for b in graph.successors[a]],
        "context_acyclic": verdict.acyclic,
        "witness_cycle": ([c.lexical for c in verdict.witness]
                          if verdict.witness else None),
        "levels": ({n.lexical: levels.levels[n]
                    for n in _sorted_nodes(graph)} if levels else None),
        "max_level": levels.max_level if levels else None,
    }
