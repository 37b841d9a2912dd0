"""Pluggable per-context closure (lclosure) and its lift to quad-graphs.

A local semantics is a finite set of triple-level inference rules whose
least fixpoint is computable in polynomial time with polynomial output.
Two are built in:

* ``simple``    -- no rules; closure is the identity.
* ``rdfs-core`` -- a finite rho-df style fragment: subclass/subproperty
  transitivity and instantiation, domain and range typing, and (behind a
  flag, default on) the resource-typing rule (s,p,o) -> (o, rdf:type,
  rdfs:Resource).  Axiomatic triples are deliberately excluded to keep
  the closure finite.

Closure is strictly per context: each rule is compiled once per context
into an ordinary engine rule whose body and head lie in that context, so
the lift never mixes contexts.  The closure runs on the engine's
semi-naive join (``close``), the same one that applies bridge rules:
each round joins only through the quads the previous round added.
"""

from __future__ import annotations

from typing import Iterable

from .engine import SkolemAtom, SkolemRule, derive
from .terms import (Constant, FrozenRecord, QuadGraph, QuadPattern, Term,
                    Variable)
from . import vocab

TriplePattern = tuple[Term, Term, Term]


class LocalRule(FrozenRecord):
    name: str
    body: tuple[TriplePattern, ...]
    head: TriplePattern


class LocalSemantics(FrozenRecord):
    name: str
    rules: tuple[LocalRule, ...]


SIMPLE = LocalSemantics("simple", ())

_A, _B, _C = Variable("a"), Variable("b"), Variable("c")
_S, _P, _O, _Q = Variable("s"), Variable("p"), Variable("o"), Variable("q")

_RDFS_RULES = (
    LocalRule("subclass-transitivity",
              ((_A, vocab.RDFS_SUBCLASSOF, _B),
               (_B, vocab.RDFS_SUBCLASSOF, _C)),
              (_A, vocab.RDFS_SUBCLASSOF, _C)),
    LocalRule("subclass-instantiation",
              ((_S, vocab.RDF_TYPE, _A),
               (_A, vocab.RDFS_SUBCLASSOF, _B)),
              (_S, vocab.RDF_TYPE, _B)),
    LocalRule("subproperty-transitivity",
              ((_A, vocab.RDFS_SUBPROPERTYOF, _B),
               (_B, vocab.RDFS_SUBPROPERTYOF, _C)),
              (_A, vocab.RDFS_SUBPROPERTYOF, _C)),
    LocalRule("subproperty-instantiation",
              ((_S, _P, _O),
               (_P, vocab.RDFS_SUBPROPERTYOF, _Q)),
              (_S, _Q, _O)),
    LocalRule("domain-typing",
              ((_P, vocab.RDFS_DOMAIN, _C),
               (_S, _P, _O)),
              (_S, vocab.RDF_TYPE, _C)),
    LocalRule("range-typing",
              ((_P, vocab.RDFS_RANGE, _C),
               (_S, _P, _O)),
              (_O, vocab.RDF_TYPE, _C)),
)

_RESOURCE_RULE = LocalRule("resource-typing",
                           ((_S, _P, _O),),
                           (_O, vocab.RDF_TYPE, vocab.RDFS_RESOURCE))


def rdfs_core(resource_rule: bool = True) -> LocalSemantics:
    rules = _RDFS_RULES + ((_RESOURCE_RULE,) if resource_rule else ())
    return LocalSemantics("rdfs-core", rules)


SEMANTICS_NAMES = ("simple", "rdfs-core")


def get_semantics(name: str, resource_rule: bool = True) -> LocalSemantics:
    if name == "simple":
        return SIMPLE
    if name == "rdfs-core":
        return rdfs_core(resource_rule)
    raise ValueError("unknown local semantics %r (choose from %s)"
                     % (name, ", ".join(SEMANTICS_NAMES)))


def local_rules(sem: LocalSemantics,
                contexts: Iterable[Constant]) -> list[SkolemRule]:
    """The semantics' rules compiled for the engine: for each context,
    one rule per local rule with its body and head in that context."""
    return [SkolemRule(rule.name, 0,
                       tuple(QuadPattern(ctx, *pat) for pat in rule.body),
                       SkolemAtom(ctx, *rule.head))
            for ctx in contexts for rule in sem.rules]


def close(graph: QuadGraph, rules: list[SkolemRule], mark: int) -> None:
    """Close ``graph`` in place under ``rules`` semi-naively, given that
    the head of every grounding into its first ``mark`` quads is already
    in it: each round adds its new quads to ``graph`` and the next one
    joins only through them.

    ``rules`` are ``local_rules`` output, the same rules compiled for
    each of some contexts.  A context with no quad past ``mark`` is then
    closed, if rules were compiled for it; a context holding exactly its
    triples is closed too.  The rules of both are dropped: each rule's
    body and head lie in one context, so no round adds to either."""
    if not rules:
        return
    touched = {q[0] for q in graph.log[mark:]}
    open_contexts = touched - _replicas(graph, rules, touched)
    rules = [r for r in rules if r.head.ctx in open_contexts]
    while mark < len(graph):
        start = len(graph)
        for q in derive(rules, graph, mark):
            graph.add(q)
        mark = start


def _replicas(graph: QuadGraph, rules: list[SkolemRule],
              touched: set[Constant]) -> set[Constant]:
    """The ``touched`` contexts whose triples are those of an untouched
    context that ``rules`` were compiled for."""
    closed: dict[int, list[Constant]] = {}
    for ctx in {r.head.ctx for r in rules} - touched:
        size = graph.candidate_count(ctx)
        if size:
            closed.setdefault(size, []).append(ctx)
    return {ctx for ctx in touched
            if any(_same_triples(graph, ctx, source) for source
                   in closed.get(graph.candidate_count(ctx), ()))}


def _same_triples(graph: QuadGraph, ctx: Constant, other: Constant) -> bool:
    """Whether two contexts of the same size hold the same triples (a
    context holds no triple twice, so one inclusion is enough)."""
    return all((other, s, p, o) in graph
               for _, s, p, o in graph.candidates(ctx))


def lclosure_quadgraph(qg: QuadGraph, sem: LocalSemantics) -> QuadGraph:
    """Per-context closure of a quad-graph, as a new graph whose log
    starts with ``qg``'s quads; contexts never mix, and ``qg`` is not
    changed."""
    closed = QuadGraph(qg)
    if sem.rules:
        close(closed, local_rules(sem, qg.contexts()), 0)
    return closed
