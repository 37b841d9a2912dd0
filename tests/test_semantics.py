import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from quadchase import chase
from quadchase.engine import BridgeRule, QuadSystem
from quadchase.semantics import (
    SIMPLE,
    _rho_df,
    close,
    get_semantics,
    lclosure_quadgraph,
    local_rules,
    rdfs_core,
)
from quadchase.terms import Quad, QuadGraph, QuadPattern, Variable, iri
from quadchase.vocab import (
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_RESOURCE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
)

from conftest import count_head_instances, examples
from oracles import (
    naive_local_closure,
    random_quadgraph,
    random_rdfs_quadgraph,
    triples_of,
)

RDFS = rdfs_core(resource_rule=False)
RDFS_FULL = rdfs_core(resource_rule=True)


def close_one_graph(triples, sem):
    """The closure of one graph, as the one context of a quad-graph."""
    ctx = iri("urn:x-test:graph")
    qg = QuadGraph(Quad(ctx, *t) for t in triples)
    return triples_of(lclosure_quadgraph(qg, sem), ctx)


def test_simple_is_identity():
    g = {(iri("a"), iri("b"), iri("c"))}
    assert close_one_graph(g, SIMPLE) == frozenset(g)
    qg = QuadGraph([Quad(iri("c"), iri("a"), iri("b"), iri("c"))])
    closed = lclosure_quadgraph(qg, SIMPLE)
    assert closed == qg and closed is not qg


def test_subclass_instantiation():
    g = {(iri("A"), RDFS_SUBCLASSOF, iri("B")),
         (iri("x"), RDF_TYPE, iri("A"))}
    closed = close_one_graph(g, RDFS)
    assert (iri("x"), RDF_TYPE, iri("B")) in closed


def test_subclass_transitivity():
    g = {(iri("A"), RDFS_SUBCLASSOF, iri("B")),
         (iri("B"), RDFS_SUBCLASSOF, iri("C"))}
    closed = close_one_graph(g, RDFS)
    assert (iri("A"), RDFS_SUBCLASSOF, iri("C")) in closed


def test_subproperty_domain_range():
    g = {(iri("p"), RDFS_SUBPROPERTYOF, iri("q")),
         (iri("s"), iri("p"), iri("o")),
         (iri("q"), iri("http://www.w3.org/2000/01/rdf-schema#domain"),
          iri("D")),
         (iri("q"), iri("http://www.w3.org/2000/01/rdf-schema#range"),
          iri("R"))}
    closed = close_one_graph(g, RDFS)
    assert (iri("s"), iri("q"), iri("o")) in closed
    assert (iri("s"), RDF_TYPE, iri("D")) in closed
    assert (iri("o"), RDF_TYPE, iri("R")) in closed


def test_resource_rule_flag():
    g = {(iri("s"), iri("p"), iri("o"))}
    with_rule = close_one_graph(g, RDFS_FULL)
    assert (iri("o"), RDF_TYPE, RDFS_RESOURCE) in with_rule
    without = close_one_graph(g, RDFS)
    assert (iri("o"), RDF_TYPE, RDFS_RESOURCE) not in without


def test_context_isolation_no_cross_inference():
    qg = QuadGraph([
        Quad(iri("c1"), iri("A"), RDFS_SUBCLASSOF, iri("B")),
        Quad(iri("c2"), iri("x"), RDF_TYPE, iri("A"))])
    closed = lclosure_quadgraph(qg, RDFS)
    assert closed == qg


def test_same_context_inference():
    qg = QuadGraph([
        Quad(iri("c1"), iri("A"), RDFS_SUBCLASSOF, iri("B")),
        Quad(iri("c1"), iri("x"), RDF_TYPE, iri("A"))])
    closed = lclosure_quadgraph(qg, RDFS)
    assert Quad(iri("c1"), iri("x"), RDF_TYPE, iri("B")) in closed


def test_get_semantics_names():
    assert get_semantics("simple") is SIMPLE
    assert get_semantics("rdfs-core").name == "rdfs-core"
    with pytest.raises(ValueError):
        get_semantics("owl-horst")


@settings(max_examples=examples(150), deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans())
def test_idempotence(seed, resource):
    rng = random.Random(seed)
    sem = rdfs_core(resource)
    qg = random_quadgraph(rng, max_quads=20)
    once = lclosure_quadgraph(qg, sem)
    assert lclosure_quadgraph(once, sem) == once


@settings(max_examples=examples(150), deadline=None)
@given(st.integers(0, 2 ** 32))
def test_monotonicity(seed):
    rng = random.Random(seed)
    small = random_quadgraph(rng, max_quads=12)
    extra = random_quadgraph(rng, max_quads=8)
    big = QuadGraph([*small, *extra])
    closed_small = lclosure_quadgraph(small, RDFS_FULL)
    closed_big = lclosure_quadgraph(big, RDFS_FULL)
    assert closed_small.quads <= closed_big.quads


@settings(max_examples=examples(150), deadline=None)
@given(st.integers(0, 2 ** 32))
def test_context_isolation_property(seed):
    rng = random.Random(seed)
    qg = random_quadgraph(rng, max_quads=20)
    closed = lclosure_quadgraph(qg, RDFS_FULL)
    for ctx in qg.contexts():
        alone = QuadGraph(q for q in qg if q.ctx is ctx)
        assert lclosure_quadgraph(alone, RDFS_FULL).quads \
            == {q for q in closed if q.ctx is ctx}


@settings(max_examples=examples(200), deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans())
def test_oracle_equivalence_small_graphs(seed, schema):
    """``schema`` draws the graph over the rdfs-core vocabulary, so that
    the context is closed by the direct pass or, when its triples break
    one of its conditions, by the compiled rules."""
    rng = random.Random(seed)
    graph = random_rdfs_quadgraph if schema else random_quadgraph
    qg = graph(rng, max_quads=30, n_contexts=1)
    closed = lclosure_quadgraph(qg, RDFS_FULL)
    for ctx in qg.contexts():
        assert triples_of(closed, ctx) \
            == naive_local_closure(triples_of(qg, ctx), RDFS_FULL)


@settings(max_examples=examples(100), deadline=None)
@given(st.integers(0, 2 ** 32))
def test_polynomial_output_bound(seed):
    # Closure can touch the fixed vocabulary (rdf:type, rdfs:Resource),
    # so the cube bound counts input constants plus those two.
    rng = random.Random(seed)
    qg = random_quadgraph(rng, max_quads=15)
    closed = lclosure_quadgraph(qg, RDFS_FULL)
    for ctx in qg.contexts():
        constants = {t for tri in triples_of(qg, ctx) for t in tri}
        bound = (len(constants) + 2) ** 3
        assert len(triples_of(closed, ctx)) <= bound


def test_local_rules_are_compiled_per_context():
    """``close`` compiles a context's rules the first time it closes the
    context through them, one engine rule per local rule with its body
    and head in that context, and reuses them at the next call; a
    context it does not close that way stays uncompiled."""
    c1, c2 = iri("c1"), iri("c2")
    local = local_rules(RDFS_FULL, [c1, c2])
    assert local == {c1: None, c2: None}
    # a subPropertyOf triple onto rdf:type breaks C1: no direct pass
    graph = QuadGraph([Quad(c1, iri("isA"), RDFS_SUBPROPERTYOF, RDF_TYPE)])
    close(graph, RDFS_FULL, local, 0)
    rules = local[c1]
    assert len(rules) == len(RDFS_FULL.rules) and local[c2] is None
    for rule in rules:
        assert not rule.is_generating
        assert {atom.ctx for atom in rule.body} == {rule.head.ctx} == {c1}
    mark = len(graph)
    graph.add(Quad(c1, iri("x"), iri("isA"), iri("A")))
    close(graph, RDFS_FULL, local, mark)
    assert local[c1] is rules and local[c2] is None
    assert Quad(c1, iri("x"), RDF_TYPE, iri("A")) in graph
    assert local_rules(SIMPLE, [c1]) == {}


@settings(max_examples=examples(200), deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans(), st.booleans())
def test_incremental_close_matches_naive_closure(seed, resource, schema):
    """Close a random multi-context part, add the rest of the graph, and
    close again through only what was added: each context ends up as
    the naive closure of its union.  ``schema`` draws the graphs over
    the rdfs-core vocabulary, so that every rule fires.  ``ctx2`` only
    ever appears in the rest, so the second close meets it empty before
    the mark and may close it by the direct pass, while the contexts of
    the first part that the rest adds to go through their compiled
    rules."""
    rng = random.Random(seed)
    sem = rdfs_core(resource)
    graph = random_rdfs_quadgraph if schema else random_quadgraph
    base = graph(rng, max_quads=15, n_contexts=2)
    extra = graph(rng, max_quads=15)
    union = QuadGraph([*base, *extra])
    local = local_rules(sem, union.contexts())
    closed = QuadGraph(base)
    close(closed, sem, local, 0)
    mark = len(closed)
    for q in extra:
        closed.add(q)
    close(closed, sem, local, mark)
    assert closed.contexts() == union.contexts()
    for ctx in union.contexts():
        assert triples_of(closed, ctx) == naive_local_closure(
            triples_of(union, ctx), sem)


def test_same_size_context_with_other_triples_is_still_closed():
    """A touched context as large as an untouched closed one, but with
    other triples, is no replica: its closure still runs."""
    c0, c1 = iri("c0"), iri("c1")
    A, B, C = iri("A"), iri("B"), iri("C")
    local = local_rules(RDFS, [c0, c1])
    graph = QuadGraph([Quad(c0, A, RDFS_SUBCLASSOF, B),
                       Quad(c0, iri("x"), RDF_TYPE, A)])
    close(graph, RDFS, local, 0)
    assert graph.candidate_count(c0) == 3
    mark = len(graph)
    for s, o in ((A, B), (B, C), (iri("y"), iri("z"))):
        graph.add(Quad(c1, s, RDFS_SUBCLASSOF, o))
    close(graph, RDFS, local, mark)
    assert Quad(c1, A, RDFS_SUBCLASSOF, C) in graph


def test_context_without_compiled_rules_is_never_a_source():
    """An untouched context that ``close`` was not given need not be
    closed, so a context holding its triples is closed all the same."""
    c0, c1 = iri("c0"), iri("c1")
    A, B, C = iri("A"), iri("B"), iri("C")
    chain = [(A, RDFS_SUBCLASSOF, B), (B, RDFS_SUBCLASSOF, C)]
    graph = QuadGraph(Quad(c0, *t) for t in chain)
    mark = len(graph)
    for t in chain:
        graph.add(Quad(c1, *t))
    close(graph, RDFS, local_rules(RDFS, [c1]), mark)
    assert Quad(c1, A, RDFS_SUBCLASSOF, C) in graph
    assert Quad(c0, A, RDFS_SUBCLASSOF, C) not in graph


def test_closing_a_copy_chain_after_iteration_zero_derives_nothing(
        monkeypatch):
    """ctx0 -> ctx1 -> ctx2 -> ctx3 copy rules under rdfs-core: each
    copied context replicates a closed one, so no closure after
    iteration 0 builds a head on either of the engine's paths (the copy
    heads, built in one pass, are counted), and ctx3 still ends up
    closed."""
    contexts = [iri("ctx%d" % i) for i in range(4)]
    classes = [iri("C%d" % i) for i in range(5)]
    data = [Quad(contexts[0], a, RDFS_SUBCLASSOF, b)
            for a, b in zip(classes, classes[1:])]
    data += [Quad(contexts[0], iri("e%d" % i), RDF_TYPE, classes[i % 4])
             for i in range(8)]
    s, p, o = Variable("s"), Variable("p"), Variable("o")
    copies = tuple(BridgeRule("copy%d" % i,
                              (QuadPattern(contexts[i], s, p, o),),
                              (QuadPattern(contexts[i + 1], s, p, o),))
                   for i in range(3))
    heads = count_head_instances(monkeypatch)
    per_close = []

    def counted_close(graph, sem, local, mark):
        before = heads[0]
        close(graph, sem, local, mark)
        per_close.append(heads[0] - before)

    monkeypatch.setattr(chase, "close", counted_close)
    result = chase.run_chase(QuadSystem(QuadGraph(data), copies),
                             chase.ChaseConfig(semantics=RDFS_FULL))
    assert result.complete and len(result.iteration_log) == 4
    assert per_close == [0, 0, 0]
    assert heads[0] > 0
    closed = triples_of(result.quads, contexts[0])
    assert closed == naive_local_closure([q.triple for q in data], RDFS_FULL)
    assert all(triples_of(result.quads, c) == closed for c in contexts)


SCHEMA = {RDF_TYPE, RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF, RDFS_DOMAIN,
          RDFS_RANGE}


def meets_conditions(triples, resource: bool) -> bool:
    """C1-C3 of the direct rdfs-core pass: no schema property in a
    subPropertyOf triple, none as the subject of a domain or range
    triple, and (resource rule on) no rdfs:Resource in a subClassOf
    triple."""
    return not any(
        p is RDFS_SUBPROPERTYOF and (s in SCHEMA or o in SCHEMA)
        or p in (RDFS_DOMAIN, RDFS_RANGE) and s in SCHEMA
        or resource and p is RDFS_SUBCLASSOF and RDFS_RESOURCE in (s, o)
        for s, p, o in triples)


@settings(max_examples=examples(300), deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans())
def test_direct_pass_matches_naive_closure(seed, resource):
    """The direct pass closes a context as the naive closure does, with
    the resource rule on and off, and declines exactly the contexts whose
    triples break C1, C2 or C3."""
    rng = random.Random(seed)
    qg = random_rdfs_quadgraph(rng, max_quads=20, n_contexts=1)
    assume(len(qg))
    ctx = qg.log[0].ctx
    triples = triples_of(qg, ctx)
    closed = _rho_df(qg.log, resource)
    if closed is not None:
        assert all(q.ctx is ctx for q in closed)
        assert {q.triple for q in closed} \
            == naive_local_closure(triples, rdfs_core(resource))
    assert (closed is not None) == meets_conditions(triples, resource)


@pytest.mark.parametrize("resource", [False, True])
def test_closing_a_class_chain_instantiates_no_head(monkeypatch, resource):
    """A 10-class subClassOf chain with 20 entities typed along it is
    closed by the direct pass: no rule head is instantiated, and the
    closure adds the chain's 36 implied subClassOf triples, each entity's
    classes above its own and, with the resource rule, a type for each
    class and for rdfs:Resource itself."""
    ctx = iri("urn:x-test:graph")
    classes = [iri("C%d" % i) for i in range(10)]
    data = [Quad(ctx, a, RDFS_SUBCLASSOF, b)
            for a, b in zip(classes, classes[1:])]
    data += [Quad(ctx, iri("e%d" % i), RDF_TYPE, classes[i % 10])
             for i in range(20)]
    heads = count_head_instances(monkeypatch)
    sem = rdfs_core(resource)
    closed = lclosure_quadgraph(QuadGraph(data), sem)
    added = 10 * 9 // 2 - 9 + sum(9 - i % 10 for i in range(20))
    if resource:
        added += len(classes) + 1
    assert heads[0] == 0
    assert len(closed) - len(data) == added
    assert triples_of(closed, ctx) \
        == naive_local_closure([q.triple for q in data], sem)


X, Y, P, C, D = (iri(name) for name in ("x", "y", "p", "C", "D"))

# One context per condition of the direct pass that its triples break,
# with the semantics it is closed under and a triple only the broken
# condition's inference gives.
BREAKING = {
    "C1": ([(P, RDFS_SUBPROPERTYOF, RDF_TYPE), (X, P, C),
            (C, RDFS_SUBCLASSOF, D)], RDFS, (X, RDF_TYPE, D)),
    "C2": ([(RDF_TYPE, RDFS_DOMAIN, D), (X, RDF_TYPE, C)], RDFS,
           (X, RDF_TYPE, D)),
    "C3": ([(RDFS_RESOURCE, RDFS_SUBCLASSOF, D), (X, P, Y)], RDFS_FULL,
           (Y, RDF_TYPE, D)),
}


@pytest.mark.parametrize("condition", sorted(BREAKING))
def test_context_breaking_a_condition_is_closed_by_its_rules(monkeypatch,
                                                             condition):
    triples, sem, implied = BREAKING[condition]
    heads = count_head_instances(monkeypatch)
    closed = close_one_graph(triples, sem)
    assert heads[0] > 0
    assert implied in closed
    assert closed == naive_local_closure(triples, sem)
