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

Both are statements about reachability, and both come from one map:
each TGC with the contexts it reaches, walked from the TGCs only
(``semantics.reach``, the walk that also closes the rdfs-core
hierarchies).  A TGC lies on a cycle exactly when it reaches itself.
On an acyclic graph a TGC that reaches another is reached by fewer
TGCs than that one, so visiting the TGCs in increasing count of the
TGCs that reach them visits each after every TGC upstream of it.
A graph computes the map once, on first use, and keeps it with its
successor map, so the verdict, the levels and the witness cycle of one
graph share a single walk.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain
from typing import Optional

from .engine import QuadSystem
from .semantics import reach
from .terms import Constant, FrozenRecord


class ContextDependencyGraph(FrozenRecord):
    """The dependency graph of a quad-system.  Its successor map and what
    its TGCs reach are computed on first use and kept."""

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
    def tgc_reach(self) -> dict[Constant, set[Constant]]:
        """Each TGC mapped to the contexts it reaches through one or more
        edges (itself only when it lies on a cycle)."""
        return reach(self.successors, self.tgc)


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
    offenders = [t for t in sorted(graph.tgc, key=lambda c: c.canonical)
                 if t in graph.tgc_reach[t]]
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
    path (>= 1 edge) into c.  Each TGC, visited in increasing count of
    the TGCs that reach it, has its level when its turn comes, and
    passes it on to every context it reaches (see the module docstring).
    """
    verdict = is_context_acyclic(graph)
    if not verdict.acyclic:
        raise NotContextAcyclicError(verdict)
    reach = graph.tgc_reach
    upstream = Counter(chain.from_iterable(reach.values()))
    levels = dict.fromkeys(graph.nodes, 0)
    for t in sorted(graph.tgc, key=upstream.__getitem__):
        levels[t] += 1
        for n in reach[t]:
            if levels[n] < levels[t]:
                levels[n] = levels[t]
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
