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

Closure is strictly per context, so the lift never mixes contexts, and
``close`` takes one of two paths for each context it closes.  Under
rdfs-core, a context that held no quad before the mark is closed from
scratch in one pass by a direct rho-df procedure (``_rho_df``) when its
own triples meet C1-C3: no schema property in a ``subPropertyOf``
triple, none as the subject of a ``domain`` or ``range`` triple, and,
with the resource rule on, no ``rdfs:Resource`` in a ``subClassOf``
triple.  Then no rule writes a triple that the schema side of a rule
reads, so the schema is the asserted one with its two hierarchies closed
by reachability, and the instance triples need one pass each of
subproperty instantiation, domain and range typing, and pushing every
type through its class's closed superclass set.  Every other context
takes the generic path: each rule is compiled on first use into an
ordinary engine rule whose body and head lie in that context, and run on
the engine's semi-naive join, the same one that applies bridge rules,
each round joining only through the quads the previous round added.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from .engine import SkolemAtom, SkolemRule, derive
from .terms import (Constant, FrozenRecord, Quad, QuadGraph, QuadPattern,
                    Term, Variable)
from . import vocab

TriplePattern = tuple[Term, Term, Term]

_TRIPLE = itemgetter(slice(1, None))


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


# The rules of rdfs-core, without and with the resource rule, mapped to
# whether that rule is on: the semantics ``_rho_df`` computes.
_RHO_DF = {_RDFS_RULES: False, _RDFS_RULES + (_RESOURCE_RULE,): True}

_SCHEMA = frozenset((vocab.RDF_TYPE, vocab.RDFS_SUBCLASSOF,
                     vocab.RDFS_SUBPROPERTYOF, vocab.RDFS_DOMAIN,
                     vocab.RDFS_RANGE))

SEMANTICS_NAMES = ("simple", "rdfs-core")


def get_semantics(name: str, resource_rule: bool = True) -> LocalSemantics:
    if name == "simple":
        return SIMPLE
    if name == "rdfs-core":
        return rdfs_core(resource_rule)
    raise ValueError("unknown local semantics %r (choose from %s)"
                     % (name, ", ".join(SEMANTICS_NAMES)))


def local_rules(sem: LocalSemantics, contexts: Iterable[Constant]) -> dict:
    """The contexts ``close`` closes under ``sem`` (none when it has no
    rule), each mapped to None until ``close`` compiles its rules."""
    return dict.fromkeys(contexts) if sem.rules else {}


def close(graph: QuadGraph, sem: LocalSemantics, local: dict,
          mark: int) -> None:
    """Close ``graph`` in place under ``sem``, given that the head of every
    grounding into its first ``mark`` quads is already in it.

    ``local`` is ``local_rules(sem, ...)`` output, kept across calls;
    only its contexts are closed.  A context with no quad past ``mark`` is
    then closed, and so is one holding exactly the triples of such a
    context: both are skipped.  Under rdfs-core a context with no quad
    before ``mark`` is closed from scratch by ``_rho_df`` when its
    triples meet C1-C3, which keep every rule's schema side to asserted
    triples and the closed hierarchies, so one pass in rule order
    completes it.  The rest go semi-naively through their rules,
    compiled into ``local`` on first use: each round adds its new quads
    to ``graph`` and the next one joins only through them.  Each rule's
    body and head lie in one context, so the contexts closed apart from
    the rules never feed them."""
    if not local:
        return
    touched = {q[0] for q in graph.log[mark:]}.intersection(local)
    open_contexts = touched - _replicas(graph, local, touched)
    resource = _RHO_DF.get(sem.rules)
    if resource is not None:
        for ctx in list(open_contexts):
            quads = graph.bucket(ctx, None, None, None)
            if graph.positions[quads[0]] >= mark:
                closed = _rho_df(quads, resource)
                if closed is not None:
                    open_contexts.discard(ctx)
                    graph.extend(closed)
    for ctx in open_contexts:
        local[ctx] = local[ctx] or [SkolemRule(r.name, 0, tuple(
            QuadPattern(ctx, *t) for t in r.body), SkolemAtom(ctx, *r.head))
            for r in sem.rules]
    rules = [r for ctx in open_contexts for r in local[ctx]]
    while mark < len(graph):
        start = len(graph)
        graph.extend(derive(rules, graph, mark))
        mark = start


def _rho_df(quads: Sequence[Quad], resource: bool) -> Optional[list[Quad]]:
    """The rdfs-core closure of one context's ``quads`` (the resource rule
    on or off) in one pass, or None when one of these fails:

    * C1: no ``subPropertyOf`` triple has a schema property (``type``,
      ``subClassOf``, ``subPropertyOf``, ``domain``, ``range``) as its
      subject or object;
    * C2: no ``domain`` or ``range`` triple has one as its subject;
    * C3: with the resource rule on, ``rdfs:Resource`` is in no
      ``subClassOf`` triple.

    By C1 subproperty instantiation neither reads nor writes a schema
    triple, so the ``subClassOf``, ``subPropertyOf``, ``domain`` and
    ``range`` triples are the asserted ones and the two hierarchies'
    transitive closures.  By C2 domain and range typing read only the
    other triples, which subproperty instantiation completes first.  So
    every type comes from an asserted type, domain or range, and pushing
    it once through its class's closed superclass set completes it; the
    types the resource rule adds last have no superclass by C3."""
    by_p: dict[Constant, set[tuple[Constant, Constant]]] = {}
    for _, s, p, o in quads:
        by_p.setdefault(p, set()).add((s, o))
    sc_edges = by_p.get(vocab.RDFS_SUBCLASSOF, ())
    sp_edges = by_p.get(vocab.RDFS_SUBPROPERTYOF, ())
    typing = [*by_p.get(vocab.RDFS_DOMAIN, ()),
              *by_p.get(vocab.RDFS_RANGE, ())]
    if any(s in _SCHEMA or o in _SCHEMA for s, o in sp_edges) \
            or any(p in _SCHEMA for p, _ in typing) \
            or resource and any(vocab.RDFS_RESOURCE in e for e in sc_edges):
        return None
    sc, sp = map(_reach_pairs, (sc_edges, sp_edges))
    for p, supers in sp.items():
        pairs = by_p.get(p)
        if pairs:
            for q in supers - {p}:
                by_p.setdefault(q, set()).update(pairs)
    types = set(by_p.get(vocab.RDF_TYPE, ()))
    for p, c in by_p.get(vocab.RDFS_DOMAIN, ()):
        types.update([(s, c) for s, _ in by_p.get(p, ())])
    for p, c in by_p.get(vocab.RDFS_RANGE, ()):
        types.update([(o, c) for _, o in by_p.get(p, ())])
    types.update([(s, b) for s, a in types for b in sc.get(a, ())])
    by_p[vocab.RDF_TYPE] = types
    for p, reach in ((vocab.RDFS_SUBCLASSOF, sc),
                     (vocab.RDFS_SUBPROPERTYOF, sp)):
        by_p[p] = {(a, b) for a, bs in reach.items() for b in bs}
    ctx = quads[0][0]
    # ``ctx`` is a quad's context and every term a quad's term, so the
    # checks of ``Quad.__new__`` would all pass
    out = [tuple.__new__(Quad, (ctx, s, p, o))
           for p, pairs in by_p.items() for s, o in pairs]
    if resource and out:
        objects = {q[3] for q in out}
        objects.add(vocab.RDFS_RESOURCE)
        out += [tuple.__new__(Quad, (ctx, o, vocab.RDF_TYPE,
                                     vocab.RDFS_RESOURCE)) for o in objects]
    return out


def reach(succ: Mapping[Constant, Iterable[Constant]],
          sources: Iterable[Constant]) -> dict[Constant, set[Constant]]:
    """Each of ``sources`` mapped to the nodes it reaches through one or
    more edges of the successor map ``succ`` (itself only on a cycle).
    The dependency graph walks its TGCs with it too."""
    out: dict[Constant, set[Constant]] = {}
    for a in sources:
        seen: set[Constant] = set()
        todo = [a]
        while todo:
            for b in succ.get(todo.pop(), ()):
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
        out[a] = seen
    return out


def _reach_pairs(pairs: Iterable[tuple[Constant, Constant]]
                 ) -> dict[Constant, set[Constant]]:
    """``reach`` from each subject of ``pairs``, the pairs as edges."""
    succ: dict[Constant, list[Constant]] = {}
    for a, b in pairs:
        succ.setdefault(a, []).append(b)
    return reach(succ, succ)


def _replicas(graph: QuadGraph, local: dict,
              touched: set[Constant]) -> set[Constant]:
    """The ``touched`` contexts whose triples are those of an untouched
    context of ``local``."""
    closed: dict[int, list[Constant]] = {}
    for ctx in local.keys() - touched:
        size = graph.candidate_count(ctx)
        if size:
            closed.setdefault(size, []).append(ctx)
    return {ctx for ctx in touched
            if any(_same_triples(graph, ctx, source) for source
                   in closed.get(graph.candidate_count(ctx), ()))}


def _same_triples(graph: QuadGraph, ctx: Constant, other: Constant) -> bool:
    """Whether two contexts of the same size hold the same triples (a
    context holds no triple twice, so one inclusion is enough)."""
    moved = map(add, repeat((other,)),
                map(_TRIPLE, graph.bucket(ctx, None, None, None)))
    return all(map(graph.positions.__contains__, moved))


def lclosure_quadgraph(qg: QuadGraph, sem: LocalSemantics) -> QuadGraph:
    """Per-context closure of a quad-graph, as a new graph whose log
    starts with ``qg``'s quads; contexts never mix, and ``qg`` is not
    changed."""
    closed = QuadGraph(qg)
    close(closed, sem, local_rules(sem, qg.contexts()), 0)
    return closed
