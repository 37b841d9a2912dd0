import itertools
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from quadchase.chase import (
    BUDGET_EXHAUSTED,
    ChaseConfig,
    ChaseResult,
    COMPLETE,
    INCONSISTENT,
    run_chase,
)
from quadchase.query import (
    InconsistentSystemWarning,
    PartialChaseWarning,
    answers,
    entails_boolean,
    entails_quad,
    entails_quadgraph,
)
from quadchase.reductions.cfg import CFG, encode_cfg_pair
from quadchase.reductions.horn import encode_horn, pad_to_pure
from quadchase.syntax import QueryDocument, parse_nquads, parse_query
from quadchase.terms import (
    Quad,
    QuadGraph,
    QuadPattern,
    Variable,
    blank,
    iri,
    skolem_constant,
)
from conftest import examples
from oracles import (
    exhaustive_answers,
    exhaustive_entails,
    random_acyclic_system,
    random_boolean_query,
)


def completed(quads) -> ChaseResult:
    return ChaseResult(QuadGraph(quads), COMPLETE, (), 0, [])


def test_cfg_intersection_query_entailed():
    g1 = CFG(frozenset(["S1"]), frozenset(["t1"]), "S1",
             (("S1", ("t1",)),))
    g2 = CFG(frozenset(["S2"]), frozenset(["t1"]), "S2",
             (("S2", ("t1",)),))
    system, query = encode_cfg_pair(g1, g2)
    result = run_chase(system, ChaseConfig(max_iterations=10))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PartialChaseWarning)
        assert entails_boolean(result, query)


def test_boolean_query_on_empty_chase_is_false():
    q = parse_query(b"ask { c(?x, <p>, ?y) }")
    assert not entails_boolean(completed([]), q)


def test_horn_fixture_boolean_and_answers():
    clauses = pad_to_pure([(("t",), "P"), (("P",), "f")])
    system, query = encode_horn(clauses)
    result = run_chase(system)
    assert entails_boolean(result, query)

    sat_clauses = pad_to_pure([(("t",), "P")])
    sat_system, sat_query = encode_horn(sat_clauses)
    sat_result = run_chase(sat_system)
    assert not entails_boolean(sat_result, sat_query)
    q = parse_query(b"select ?v where { ct(?v, rdf:type, <T>) }")
    got = answers(sat_result, q)
    assert got.complete
    assert got.tuples == {(iri("t"),), (iri("P"),)}


def test_motivating_two_context_answers(fixtures_dir):
    quads = parse_nquads((fixtures_dir / "beat.nq").read_bytes())
    q = parse_query((fixtures_dir / "beat.ccq").read_bytes())
    result = completed(quads)
    got = answers(result, q)
    assert got.tuples == {(iri("uruguay"),)}
    assert exhaustive_answers(result.quads, q) == {(iri("uruguay"),)}


def test_answers_empty_when_no_binding_matches():
    q = parse_query(b"select ?x where { c(?x, <p>, <nope>) }")
    result = completed([Quad(iri("c"), iri("a"), iri("p"), iri("b"))])
    assert answers(result, q).tuples == frozenset()


def test_free_variables_never_bind_skolems():
    sk = skolem_constant("r", 0, [iri("a")])
    result = completed([Quad(iri("c"), iri("a"), iri("p"), sk),
                        Quad(iri("c"), iri("a"), iri("p"), iri("b"))])
    q = parse_query(b"select ?x where { c(<a>, <p>, ?x) }")
    got = answers(result, q)
    assert got.tuples == {(iri("b"),)}
    # ... but quantified variables may
    boolean = parse_query(b"ask { c(<a>, <p>, ?y) }")
    assert entails_boolean(result, boolean)


def test_atom_order_independence():
    quads = [Quad(iri("c"), iri("a"), iri("p"), iri("b")),
             Quad(iri("c"), iri("b"), iri("q"), iri("d"))]
    result = completed(quads)
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    atoms = [QuadPattern(iri("c"), x, iri("p"), y),
             QuadPattern(iri("c"), y, iri("q"), z)]
    for perm in itertools.permutations(atoms):
        assert entails_boolean(result, QueryDocument((), tuple(perm)))
        got = answers(result, QueryDocument((x,), tuple(perm)))
        assert got.tuples == {(iri("a"),)}


def test_entails_quad_and_blank_as_existential():
    sk = skolem_constant("r", 0, [iri("a")])
    result = completed([Quad(iri("c"), iri("a"), iri("p"), sk)])
    assert entails_quad(result, Quad(iri("c"), iri("a"), iri("p"), sk))
    # a blank in the queried quad acts as a quantified variable
    assert entails_quad(result,
                        Quad(iri("c"), iri("a"), iri("p"), blank("x")))
    assert not entails_quad(result,
                            Quad(iri("c"), iri("a"), iri("q"), blank("x")))


def test_fully_bound_lookups_build_no_bucket():
    """A membership test reads no index bucket, so a fresh parsed graph
    builds none for it; the first partly bound lookup builds them."""
    graph = parse_nquads(b"<a> <p> <b> <c> .\n<b> <p> <d> <c> .\n")
    c, a, p, b = iri("c"), iri("a"), iri("p"), iri("b")
    assert graph.candidates(c, a, p, b) == [Quad(c, a, p, b)]
    assert graph.candidates(c, b, p, a) == []
    assert graph.candidate_count(c, a, p, b) == 1
    assert graph.candidate_count(iri("nowhere"), a, p, b) == 0
    result = ChaseResult(graph, COMPLETE, (), 0, [])
    assert entails_quad(result, Quad(c, a, p, b))
    assert not entails_quad(result, Quad(c, b, p, b))
    assert graph._by_ctx is None
    assert graph.candidate_count(c, s=a) == 1
    assert graph._by_ctx is not None


def test_entails_quadgraph_shares_blanks():
    result = completed([Quad(iri("c"), iri("a"), iri("p"), iri("m")),
                        Quad(iri("c"), iri("m"), iri("q"), iri("b"))])
    shared = QuadGraph([
        Quad(iri("c"), iri("a"), iri("p"), blank("j")),
        Quad(iri("c"), blank("j"), iri("q"), iri("b"))])
    assert entails_quadgraph(result, shared)
    disjoint = QuadGraph([
        Quad(iri("c"), iri("a"), iri("p"), blank("j")),
        Quad(iri("c"), blank("j"), iri("q"), iri("nope"))])
    assert not entails_quadgraph(result, disjoint)
    assert entails_quadgraph(result, QuadGraph())


def test_partial_chase_flags():
    partial = ChaseResult(
        QuadGraph([Quad(iri("c"), iri("a"), iri("p"), iri("b"))]),
        BUDGET_EXHAUSTED, (), 0, [])
    q = parse_query(b"ask { c(<a>, <p>, <b>) }")
    with pytest.warns(PartialChaseWarning):
        assert entails_boolean(partial, q)
    sel = parse_query(b"select ?x where { c(?x, <p>, <b>) }")
    with pytest.warns(PartialChaseWarning):
        got = answers(partial, sel)
    assert not got.complete
    assert got.tuples == {(iri("a"),)}


def test_inconsistent_system_entails_everything():
    bad = ChaseResult(
        QuadGraph([Quad(iri("c"), iri("a"), iri("p"), iri("b"))]),
        INCONSISTENT, (), 0, [])
    q = parse_query(b"ask { c(<never>, <seen>, <atoms>) }")
    with pytest.warns(InconsistentSystemWarning):
        assert entails_boolean(bad, q)
    sel = parse_query(b"select ?x where { c(?x, <p>, <b>) }")
    with pytest.warns(InconsistentSystemWarning):
        got = answers(bad, sel)
    assert not got.complete
    # ex falso: every non-skolem constant of the partial chase qualifies
    assert (iri("never"),) not in got.tuples
    assert {(iri("a"),), (iri("b"),), (iri("c"),),
            (iri("p"),)} <= got.tuples


def test_answer_tuples_are_self_checking():
    rng = random.Random(99)
    system = random_acyclic_system(rng)
    result = run_chase(system)
    pool = sorted(result.quads, key=Quad.sort_key)
    if not pool:
        return
    x = Variable("x")
    base = pool[0]
    q = QueryDocument((x,), (QuadPattern(base.ctx, x, base.p, base.o),))
    got = answers(result, q)
    for (value,) in got.tuples:
        assert not value.is_skolem()
        grounded = QueryDocument(
            (), (QuadPattern(base.ctx, value, base.p, base.o),))
        assert entails_boolean(result, grounded)


@settings(max_examples=examples(60), deadline=None)
@given(st.integers(0, 2 ** 32))
def test_boolean_matches_exhaustive_oracle(seed):
    rng = random.Random(seed)
    system = random_acyclic_system(rng, max_quads=10)
    result = run_chase(system)
    assert result.complete
    for _ in range(4):
        query = random_boolean_query(rng, result.quads)
        assert entails_boolean(result, query) \
            == exhaustive_entails(result.quads, query.atoms)


def _chase_with_nulls(rng):
    """The chase of a random context-acyclic system that holds at least
    one skolem blank."""
    while True:
        result = run_chase(random_acyclic_system(rng, max_quads=10))
        if any(c.is_skolem() for c in result.quads.constants()):
            return result


@settings(max_examples=examples(40), deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([1, 2]))
def test_answers_match_exhaustive_oracle_over_labelled_nulls(seed, width):
    """Free variables never bind a skolem blank, quantified ones may; and
    the answer order is that of the rows' tuples of canonicals."""
    rng = random.Random(seed)
    result = _chase_with_nulls(rng)
    assert result.complete
    for _ in range(4):
        atoms = random_boolean_query(rng, result.quads).atoms
        variables = sorted({v for a in atoms for v in a.variables()},
                           key=lambda v: v.name)
        if len(variables) < width:
            continue
        query = QueryDocument(tuple(rng.sample(variables, width)), atoms)
        got = answers(result, query)
        assert got.tuples == exhaustive_answers(result.quads, query)
        assert got.sorted_tuples() == sorted(
            got.tuples, key=lambda row: tuple(c.canonical for c in row))
