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

Closure is strictly per context: the lift never mixes contexts, so
closing distinct contexts concurrently must equal the sequential result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .terms import Constant, Quad, QuadGraph, Term, Variable
from . import vocab

Triple = tuple[Constant, Constant, Constant]
TriplePattern = tuple[Term, Term, Term]


@dataclass(frozen=True)
class LocalRule:
    name: str
    body: tuple[TriplePattern, ...]
    head: TriplePattern


@dataclass(frozen=True)
class LocalSemantics:
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


def _match_triples(patterns: tuple[TriplePattern, ...],
                   triples: set[Triple],
                   by_p: dict[Constant, list[Triple]]):
    """Yield substitutions grounding all patterns into the triple set."""

    def step(i: int, bound: dict[Variable, Constant]):
        if i == len(patterns):
            yield bound
            return
        s, p, o = patterns[i]
        sb = bound.get(s) if isinstance(s, Variable) else s
        pb = bound.get(p) if isinstance(p, Variable) else p
        ob = bound.get(o) if isinstance(o, Variable) else o
        pool: Iterable[Triple]
        if pb is not None:
            pool = by_p.get(pb, ())
        else:
            pool = triples
        for t in pool:
            if sb is not None and t[0] != sb:
                continue
            if pb is not None and t[1] != pb:
                continue
            if ob is not None and t[2] != ob:
                continue
            new = dict(bound)
            ok = True
            for pat_t, val in zip((s, p, o), t):
                if isinstance(pat_t, Variable):
                    seen = new.get(pat_t)
                    if seen is None:
                        new[pat_t] = val
                    elif seen != val:
                        ok = False
                        break
            if ok:
                yield from step(i + 1, new)

    yield from step(0, {})


def lclosure_graph(triples: Iterable[Triple],
                   sem: LocalSemantics) -> frozenset[Triple]:
    """Least fixpoint of the semantics' rules over one graph."""
    current: set[Triple] = set(triples)
    if not sem.rules:
        return frozenset(current)
    by_p: dict[Constant, list[Triple]] = {}
    for t in current:
        by_p.setdefault(t[1], []).append(t)
    changed = True
    while changed:
        changed = False
        fresh: list[Triple] = []
        for rule in sem.rules:
            for mu in _match_triples(rule.body, current, by_p):
                hs, hp, ho = rule.head
                out = (mu[hs] if isinstance(hs, Variable) else hs,
                       mu[hp] if isinstance(hp, Variable) else hp,
                       mu[ho] if isinstance(ho, Variable) else ho)
                if out not in current:
                    fresh.append(out)
        for t in fresh:
            if t not in current:
                current.add(t)
                by_p.setdefault(t[1], []).append(t)
                changed = True
    return frozenset(current)


def lclosure_quadgraph(qg: QuadGraph, sem: LocalSemantics) -> QuadGraph:
    """Per-context closure of a quad-graph; contexts never mix."""
    if not sem.rules:
        return qg
    out: set[Quad] = set(qg.quads)
    for ctx in qg.contexts():
        before = qg.graph_of(ctx)
        closed = lclosure_graph(before, sem)
        if len(closed) != len(before):
            for (s, p, o) in closed:
                out.add(Quad(ctx, s, p, o))
    if len(out) == len(qg):
        return qg
    return QuadGraph(out)
