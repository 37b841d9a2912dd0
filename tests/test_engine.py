import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from quadchase.chase import ChaseConfig, run_chase
from quadchase.engine import (
    BridgeRule,
    QuadSystem,
    RuleError,
    SkolemTerm,
    Violation,
    check_constraints,
    derive,
    match_patterns,
    skolemize,
    skolemize_all,
)
from quadchase.terms import (
    Quad,
    QuadGraph,
    QuadPattern,
    Variable,
    blank,
    iri,
    skolem_constant,
    skolem_constants,
)
from quadchase.query import entails_boolean
from quadchase.syntax import parse_nquads, parse_query, serialize_nquads
from quadchase.vocab import RDF_TYPE, RDF_PROPERTY

from conftest import count_head_instances, count_join_rows, examples
from oracles import (grown_quadgraph, naive_match, naive_multihead_chase,
                     random_acyclic_system, substitute, symbol_size)

X1, X2, Y1 = Variable("x1"), Variable("x2"), Variable("y1")
C1, C2, C3 = iri("c1"), iri("c2"), iri("c3")
U1 = iri("U1")

EX1_RULE = BridgeRule(
    "r1",
    (QuadPattern(C1, X1, X2, U1),),
    (QuadPattern(C2, X1, X2, Y1),
     QuadPattern(C3, X2, RDF_TYPE, RDF_PROPERTY)))


def test_bridge_rule_invariants():
    with pytest.raises(RuleError):
        BridgeRule("r", (), (QuadPattern(C1, X1, X1, X1),))
    with pytest.raises(RuleError):
        BridgeRule("r", (QuadPattern(C1, blank("b"), X1, X1),),
                   (QuadPattern(C2, X1, X1, X1),))


@pytest.mark.parametrize("rule_id", ["r/1", "my rule", "r:1", "r\x1f"])
def test_a_rule_with_an_existential_refuses_an_id_its_nulls_cannot_carry(
        rule_id):
    """Its labelled nulls carry the rule id, and the N-Quads reader must
    read each label back as one blank node, so the rule is refused when
    it is built, not at its first null; a rule without an existential
    keeps any id."""
    body = (QuadPattern(C1, X1, iri("p"), iri("o")),)
    with pytest.raises(RuleError, match=re.escape("rule id %r" % rule_id)):
        BridgeRule(rule_id, body, (QuadPattern(C2, X1, iri("q"), Y1),))
    copy = BridgeRule(rule_id, body, (QuadPattern(C2, X1, iri("q"), X1),))
    assert copy.rule_id == rule_id


def test_every_null_of_an_accepted_rule_reads_back():
    rule = BridgeRule("r-1.x_2", (QuadPattern(C1, X1, iri("p"), iri("o")),),
                      (QuadPattern(C2, X1, iri("q"), Y1),))
    system = QuadSystem(QuadGraph([Quad(C1, iri("a"), iri("p"), iri("o"))]),
                        (rule,))
    chase = run_chase(system, ChaseConfig()).quads
    assert len(chase) == 2
    assert parse_nquads(serialize_nquads(chase)) == chase


def test_a_system_refuses_two_rules_with_one_id():
    """Two rules named ``r`` would name their nulls alike: over
    ``<a> <p> <o>`` in c1 and in c3 the chase wrote one null into both
    c2 and c4, so ``ask { c2(<a>,<q>,?z), c4(<a>,<q>,?z) }`` held though
    the system does not entail it.  Building the system refuses the
    second rule; with distinct ids the two nulls differ."""
    p, o, q, a = iri("p"), iri("o"), iri("q"), iri("a")
    c1, c2, c3, c4 = C1, C2, C3, iri("c4")
    data = QuadGraph([Quad(c1, a, p, o), Quad(c3, a, p, o)])
    first = BridgeRule("r", (QuadPattern(c1, X1, p, o),),
                       (QuadPattern(c2, X1, q, Y1),))
    body, head = (QuadPattern(c3, X1, p, o),), (QuadPattern(c4, X1, q, Y1),)
    with pytest.raises(RuleError, match="duplicate rule id 'r'"):
        QuadSystem(data, (first, BridgeRule("r", body, head)))
    system = QuadSystem(data, (first, BridgeRule("r2", body, head)))
    query = parse_query(b"ask { <c2>(<a>, <q>, ?z), <c4>(<a>, <q>, ?z) }")
    result = run_chase(system)
    assert result.complete and len(result.quads) == 4
    assert not entails_boolean(result, query)


def test_skolemize_splits_heads_and_shares_functions():
    sks = skolemize(EX1_RULE)
    assert len(sks) == 2
    first, second = sks
    assert first.head.ctx == C2
    assert isinstance(first.head.o, SkolemTerm)
    assert first.head.o.args == (X1, X2)
    assert first.is_generating
    assert second.head.ctx == C3
    assert not second.is_generating
    assert second.head.s is X2


def test_skolemize_no_existentials_is_unchanged():
    r = BridgeRule("r", (QuadPattern(C1, X1, X2, U1),),
                   (QuadPattern(C2, X1, X2, U1),))
    (sk,) = skolemize(r)
    assert sk.body == r.body
    assert (sk.head.ctx, sk.head.s, sk.head.p, sk.head.o) \
        == (C2, X1, X2, U1)


def test_skolemize_shared_existential_across_heads():
    r = BridgeRule("r", (QuadPattern(C1, X1, X1, U1),),
                   (QuadPattern(C2, X1, iri("p"), Y1),
                    QuadPattern(C3, Y1, iri("q"), X1)))
    a, b = skolemize(r)
    assert isinstance(a.head.o, SkolemTerm) and isinstance(b.head.s,
                                                           SkolemTerm)
    assert a.head.o == b.head.s  # same function f_0^r


def test_skolemize_refuses_constraints():
    c = BridgeRule("r", (QuadPattern(C1, X1, X1, X1),), ())
    with pytest.raises(RuleError):
        skolemize(c)
    non_gen, gen, constraints = skolemize_all([EX1_RULE, c])
    assert len(non_gen) == 1 and len(gen) == 1 and constraints == [c]


def test_derive_single_match():
    (gen, _) = skolemize(EX1_RULE)
    out = derive([gen], QuadGraph([Quad(C1, iri("a"), iri("b"), U1)]))
    sk = skolem_constant("r1", 0, [iri("a"), iri("b")])
    assert out == {Quad(C2, iri("a"), iri("b"), sk)}


def test_derive_no_match():
    (gen, _) = skolemize(EX1_RULE)
    out = derive([gen], QuadGraph([Quad(C1, iri("a"), iri("b"),
                                        iri("V"))]))
    assert out == set()


def test_derive_cfg_terminal_shape():
    # existential chain-extension rule: every class member sprouts a
    # t-edge to a fresh class member
    x, y = Variable("x"), Variable("y")
    c, cls = iri("c"), iri("C")
    r = BridgeRule("t1", (QuadPattern(c, x, RDF_TYPE, cls),),
                   (QuadPattern(c, x, iri("t1"), y),
                    QuadPattern(c, y, RDF_TYPE, cls)))
    data = QuadGraph([Quad(c, iri("a"), RDF_TYPE, cls)])
    edge_rule, typing_rule = skolemize(r)
    b1 = skolem_constant("t1", 0, [iri("a")])
    assert derive([edge_rule], data) == {Quad(c, iri("a"), iri("t1"), b1)}
    assert derive([typing_rule], data) == {Quad(c, b1, RDF_TYPE, cls)}


def test_derive_union_order_independence_and_known_heads():
    (gen, typing) = skolemize(EX1_RULE)
    data = QuadGraph([Quad(C1, iri("a"), iri("b"), U1)])
    both = derive([gen, typing], data)
    assert both == derive([typing, gen], data)
    assert len(both) == 2
    assert derive([], data) == set()
    # a head instance already in the graph is not returned, at mark 0
    typed = Quad(C3, iri("b"), RDF_TYPE, RDF_PROPERTY)
    assert derive([gen, typing], QuadGraph([*data, typed])) == both - {typed}


def test_derive_example1_first_step(example1_system):
    # hand-derived first application on the initial closure: only the
    # two heads of the existential rule can fire
    non_gen, gen, _ = skolemize_all(example1_system.rules)
    derived = derive(non_gen + gen, example1_system.quads)
    sk = skolem_constant("r1", 0, [iri("a"), iri("b")])
    assert derived == {Quad(C2, iri("a"), iri("b"), sk),
                       Quad(C3, iri("b"), RDF_TYPE, RDF_PROPERTY)}


@settings(max_examples=examples(80), deadline=None)
@given(st.integers(0, 2 ** 32))
def test_derive_monotone(seed):
    rng = random.Random(seed)
    system = random_acyclic_system(rng, max_rules=2)
    if not system.rules:  # random rules have heads, so none is a constraint
        return
    rule = skolemize(system.rules[0])[0]
    big = system.quads
    small = QuadGraph(list(big)[: len(big) // 2])
    assert derive([rule], small) <= derive([rule], big) | big.quads


def test_check_constraints_reports_groundings():
    sigma, sigma2 = iri("sigma"), iri("sigma2")
    z1, z2 = Variable("z1"), Variable("z2")
    cn = iri("cn")
    constraint = BridgeRule("excl",
                            (QuadPattern(cn, z1, sigma, z2),
                             QuadPattern(cn, z1, sigma2, z2)), ())
    clean = QuadGraph([Quad(cn, iri("k"), sigma, iri("v"))])
    assert check_constraints([constraint], clean) == []
    dirty = QuadGraph([*clean, Quad(cn, iri("k"), sigma2, iri("v"))])
    (violation,) = check_constraints([constraint], dirty)
    assert violation.rule_id == "excl"
    assert dict(violation.binding) == {z1: iri("k"), z2: iri("v")}
    # constraints are context-anchored: matches elsewhere don't count
    other_ctx = QuadGraph([Quad(iri("other"), iri("k"), sigma, iri("v")),
                           Quad(iri("other"), iri("k"), sigma2, iri("v"))])
    assert check_constraints([constraint], QuadGraph()) == []
    assert check_constraints([constraint], other_ctx) == []


def test_sizes():
    assert symbol_size(EX1_RULE) == 4 * 3
    assert [symbol_size(sk) for sk in skolemize(EX1_RULE)] == [4 * 2] * 2
    assert symbol_size(QuadSystem(
        QuadGraph([Quad(C1, iri("a"), iri("b"), U1)]), (EX1_RULE,))) \
        == 4 + 12


@settings(max_examples=examples(60), deadline=None)
@given(st.integers(0, 2 ** 32))
def test_skolemized_size_quadratic_bound(seed):
    rng = random.Random(seed)
    system = random_acyclic_system(rng)
    for r in system.rules:
        total = sum(map(symbol_size, skolemize(r)))
        assert total <= symbol_size(r) ** 2 + 4


@settings(max_examples=examples(60), deadline=None)
@given(st.integers(0, 2 ** 32))
def test_normalization_soundness_vs_multihead_oracle(seed):
    """Chasing the normalized single-head rules must build the same set
    as directly applying the original multi-head rules to fixpoint."""
    rng = random.Random(seed)
    system = random_acyclic_system(rng, max_contexts=3, max_rules=3,
                                   max_quads=8)
    result = run_chase(system, ChaseConfig())
    assert result.complete
    oracle_quads, finished = naive_multihead_chase(system)
    assert finished
    assert result.quads == oracle_quads


def _dense_patterns(rng, contexts, n):
    """``n`` patterns over three IRIs, mostly variables, so that bodies
    of up to three atoms often ground into a small random graph."""
    vocab = [iri("n%d" % i) for i in range(3)]
    variables = [Variable("v%d" % i) for i in range(3)]
    return tuple(QuadPattern(rng.choice(contexts), *(
        rng.choice(variables) if rng.random() < 0.7 else rng.choice(vocab)
        for _ in range(3))) for _ in range(n))


# Body atoms the examples below add to every rule and constraint: one
# whose three positions are constant, so its bucket is that one quad
# (which the graph then holds), and one whose only constant is its
# object, so its smallest bucket is the (context, object) one.
_GROUND_ATOM = QuadPattern(iri("ctx0"), iri("n0"), iri("n1"), iri("n2"))
_OBJECT_ATOM = QuadPattern(iri("ctx0"), Variable("v0"), Variable("v1"),
                           iri("n2"))


@settings(max_examples=examples(150), deadline=None)
@given(st.integers(0, 2 ** 32), st.none(), st.just(False))
@example(5, _GROUND_ATOM, False)
@example(9, _OBJECT_ATOM, False)
@example(4, None, True)  # the mark is the graph's size
def test_delta_evaluation_covers_exactly_the_groundings_through_the_delta(
        seed, atom, all_old):
    """Split a random graph into the quads before a mark and those after
    it.  Semi-naive derivation finds every quad that only the quads past
    the mark make derivable, and a constraint check from the mark reports
    each violation that uses a quad past it exactly once."""
    rng = random.Random(seed)
    contexts = [iri("ctx0"), iri("ctx1")]
    vocab = [iri("n%d" % i) for i in range(3)]
    quads = {Quad(rng.choice(contexts), rng.choice(vocab),
                  rng.choice(vocab), rng.choice(vocab))
             for _ in range(rng.randrange(16))}
    if atom is not None and not atom.variables():
        quads.add(Quad(atom.ctx, atom.s, atom.p, atom.o))
    quads = sorted(quads, key=Quad.sort_key)
    rng.shuffle(quads)
    mark = len(quads) if all_old else rng.randrange(len(quads) + 1)
    old, full = QuadGraph(quads[:mark]), QuadGraph(quads)
    grown = grown_quadgraph(quads)
    extra = (atom,) if atom is not None else ()

    def body():
        return _dense_patterns(rng, contexts, rng.randrange(1, 4)) + extra

    for i in range(3):
        rule = BridgeRule("r%d" % i, body(),
                          _dense_patterns(rng, contexts, 1))
        for sk in skolemize(rule):
            semi = derive([sk], grown, mark)
            assert semi <= derive([sk], full)
            assert derive([sk], full) - derive([sk], old) - full.quads \
                <= semi
    constraints = [BridgeRule("k%d" % i, body(), ()) for i in range(3)]
    found = check_constraints(constraints, grown, mark)
    assert len(found) == len(set(found))
    assert set(found) == set(check_constraints(constraints, full)) \
        - set(check_constraints(constraints, old))


def test_a_bucket_with_old_quads_does_not_end_the_delta_join():
    """Once an atom's bucket holds no quad before the mark, later atoms
    are not tried from the mark; a bucket that also holds an older quad
    must not pass for one that does not."""
    p = iri("p")
    old = Quad(C1, iri("a"), p, iri("b"))
    new = Quad(C1, iri("b"), p, iri("d"))
    rules = skolemize(BridgeRule(
        "r", (QuadPattern(C1, X1, p, X2), QuadPattern(C1, X2, p, Y1)),
        (QuadPattern(C1, X1, iri("q"), Y1),)))
    graph = QuadGraph([old, new])
    assert derive(rules, graph, 1) \
        == {Quad(C1, iri("a"), iri("q"), iri("d"))}


def test_a_grounding_through_the_quad_at_the_mark_is_reported_once():
    """The quad at position ``mark`` is in the tail of every bucket that
    holds it, so an atom before the seed, probed through its index, must
    not map to it: the grounding was already found from that atom."""
    p = iri("p")
    graph = QuadGraph([Quad(C1, iri("d"), p, iri("e")),
                       Quad(C1, iri("a"), p, iri("b")),
                       Quad(C1, iri("b"), p, iri("c"))])
    constraint = BridgeRule("k", (QuadPattern(C1, X1, p, X2),
                                  QuadPattern(C1, X2, p, Y1)), ())
    assert check_constraints([constraint], graph, 1) == [
        Violation("k", ((X1, iri("a")), (X2, iri("b")), (Y1, iri("c"))))]


def test_a_tail_that_is_its_whole_bucket_ends_the_delta_join(monkeypatch):
    """Once an atom's bucket holds no quad before the mark, no later atom
    seeds a join: its groundings would map that atom below the mark.  So
    the ten new quads of the second atom's bucket build no row."""
    rows = count_join_rows(monkeypatch)
    p = iri("p")
    old = Quad(C2, iri("b"), p, iri("c"))
    new = [Quad(C1, iri("a"), p, iri("b"))]
    new += [Quad(C2, iri("d%d" % i), p, iri("e%d" % i)) for i in range(10)]
    rules = skolemize(BridgeRule(
        "r", (QuadPattern(C1, X1, p, X2), QuadPattern(C2, X2, p, Y1)),
        (QuadPattern(C1, X1, iri("q"), Y1),)))
    assert derive(rules, QuadGraph([old, *new]), 1) \
        == {Quad(C1, iri("a"), iri("q"), iri("c"))}
    assert rows[0] == 2  # the seed quad's row and its one extension


_MATCH_CONTEXTS = [iri("ctx0"), iri("ctx1")]
_MATCH_VOCAB = [iri("n0"), iri("n1")]
_MATCH_SKOLEM = skolem_constant("m", 0, [iri("n0")])
_MATCH_VARS = [Variable("m%d" % i) for i in range(3)]
_match_terms = st.sampled_from(_MATCH_VOCAB + [_MATCH_SKOLEM])
# mostly variables, so most atoms match; ctx2 and n2 are in no quad,
# so their atoms have empty buckets
_match_pattern_terms = st.one_of(
    st.sampled_from(_MATCH_VARS), st.sampled_from(_MATCH_VARS),
    st.sampled_from(_MATCH_VOCAB + [_MATCH_SKOLEM, iri("n2")]))
_XX = [QuadPattern(C1, X1, X2, X1)]
_XXX = [QuadPattern(C1, X1, X1, X1)]
_XX_QUADS = [Quad(C1, a, b, c) for a in (U1, _MATCH_SKOLEM)
             for b in (U1, _MATCH_SKOLEM) for c in (U1, _MATCH_SKOLEM)]
# two subjects with two objects under each predicate: the second atom's
# object must be unbound again for the first atom's next quad
_JOIN = [QuadPattern(C1, X1, iri("n0"), X2),
         QuadPattern(C1, X1, iri("n1"), Y1)]
_JOIN_QUADS = [Quad(C1, s, p, o) for s in (U1, iri("n0"))
               for p in (iri("n0"), iri("n1")) for o in (U1, iri("n1"))]


def _canonicals(row):
    return [c.canonical for c in row]


@settings(max_examples=examples(300), deadline=None)
@given(quads=st.lists(st.builds(Quad, st.sampled_from(_MATCH_CONTEXTS),
                                _match_terms, _match_terms, _match_terms),
                      min_size=6, max_size=16),
       patterns=st.lists(st.builds(
           QuadPattern, st.sampled_from(_MATCH_CONTEXTS + [iri("ctx2")]),
           _match_pattern_terms, _match_pattern_terms,
           _match_pattern_terms), min_size=1, max_size=4),
       free=st.lists(st.sampled_from(_MATCH_VARS), unique=True))
@example(quads=_XX_QUADS, patterns=_XX, free=[])
@example(quads=_XX_QUADS, patterns=_XXX, free=[X1])
@example(quads=_XX_QUADS, patterns=_XX, free=[X2, X1])
@example(quads=_XX_QUADS, patterns=_XX + _XXX, free=[X2])
@example(quads=_XX_QUADS, patterns=[], free=[])
@example(quads=_JOIN_QUADS, patterns=_JOIN, free=[Y1, X1])
def test_match_patterns_agrees_with_naive_match(quads, patterns, free):
    """The compiled join gives the naive product matcher's groundings,
    projected to the ``free`` variables (those that occur in the
    patterns), except those binding a free variable to a skolem blank:
    one tuple per grounding, whatever the atom order."""
    free = [v for v in free if any(v in pat.variables() for pat in patterns)]
    expected = [tuple(mu[v] for v in free)
                for mu in naive_match(set(quads), patterns)
                if not any(mu[v].is_skolem() for v in free)]
    for graph in (QuadGraph(quads), grown_quadgraph(quads)):
        for order in (patterns, patterns[::-1]):
            got = list(match_patterns(graph, order, free))
            assert sorted(got, key=_canonicals) \
                == sorted(expected, key=_canonicals)


_rule_terms = st.one_of(st.sampled_from(_MATCH_VARS),
                        st.sampled_from(_MATCH_VOCAB + [iri("n2")]))
_rule_patterns = st.builds(QuadPattern, st.sampled_from(_MATCH_CONTEXTS),
                           _rule_terms, _rule_terms, _rule_terms)
# a head without variables makes a ground-head rule
_ground_patterns = st.builds(QuadPattern, st.sampled_from(_MATCH_CONTEXTS),
                             *[st.sampled_from(_MATCH_VOCAB)] * 3)
# (body, head) pairs; a head variable missing from the body is existential
_rule_shapes = st.tuples(
    st.lists(_rule_patterns, min_size=1, max_size=3),
    st.lists(st.one_of(_ground_patterns, _rule_patterns), min_size=1,
             max_size=2))
# a ground head that is in the graph, between the body's two groundings
_GROUND_HEAD = QuadPattern(iri("ctx1"), iri("n0"), iri("n1"), iri("n0"))
_GROUND_HEAD_QUADS = [Quad(iri("ctx0"), iri("n0"), iri("n0"), iri("n0")),
                      substitute(_GROUND_HEAD, {}),
                      Quad(iri("ctx0"), iri("n1"), iri("n1"), iri("n1"))]
_GROUND_HEAD_SHAPE = ([QuadPattern(iri("ctx0"), X1, X1, X1)], [_GROUND_HEAD])
# One-atom rules without a skolem function, whose groundings ``evaluate``
# gives as their head quads.  The graph is half of the ctx0 quads
# over n0, n1 and the skolem blank (IRI predicates), so that a quad a
# constant or a repeated variable should rule out gives a head that no
# matching quad gives, and one ctx1 quad.
_M0, _M1, _M2 = _MATCH_VARS
_N0, _N1 = _MATCH_VOCAB
_ONE_ATOM_TERMS = (_N0, _N1, _MATCH_SKOLEM)
_ONE_ATOM_QUADS = [Quad(iri("ctx0"), _ONE_ATOM_TERMS[i], _ONE_ATOM_TERMS[j],
                        _ONE_ATOM_TERMS[k])
                   for i in range(3) for j in range(2) for k in range(3)
                   if (i + j + k) % 2 == 0]
_ONE_ATOM_QUADS.append(Quad(iri("ctx1"), _N1, _N0, _N1))


def _one_atom(body, head):
    return [([QuadPattern(iri("ctx0"), *body)],
             [QuadPattern(iri("ctx1"), *head)])]


_ONE_ATOM_SHAPES = {
    "repeated variable": _one_atom((_M0, _M1, _M0), (_M0, _M1, _M0)),
    "body constant": _one_atom((_M0, _N1, _M1), (_M1, _M0, _M0)),
    # the smaller of the two constants' buckets holds quads of the other
    # constant's position that do not match it
    "two body constants": _one_atom((_N0, _M0, _N1), (_M0, _M0, _M0)),
    "head constant": _one_atom((_M0, _M1, _M2), (_M2, _N0, _M0)),
    "projection dropping a slot": _one_atom((_M0, _M1, _M2), (_M0, _M0, _M2)),
    "ground body": _one_atom((_N1, _N0, _N1), (_N0, _N0, _N1)),
}


# Multi-atom rules for the join evaluator, over both contexts' quads on
# n0, n1 and the skolem blank, the contexts interleaved in the log so
# that each mark splits both.
_E = Variable("e")
_MULTI_QUADS = [Quad(ctx, a, b, c) for a in _ONE_ATOM_TERMS[:2]
                for b in _ONE_ATOM_TERMS[:2] for c in _ONE_ATOM_TERMS
                for ctx in _MATCH_CONTEXTS
                if (a is _N0) + (b is _N0) + (c is _N0) + (ctx is C1) != 2]
_MULTI_ATOM_SHAPES = {
    # a variable shared across atoms at different positions, a constant
    # in the first atom and a null minted per frontier binding
    "join through a repeated variable, generating head": [(
        [QuadPattern(iri("ctx0"), _M0, _N0, _M1),
         QuadPattern(iri("ctx1"), _M1, _M2, _M0)],
        [QuadPattern(iri("ctx1"), _M0, _N1, _E)])],
    "three atoms, ground head": [(
        [QuadPattern(iri("ctx0"), _M0, _M1, _M2),
         QuadPattern(iri("ctx1"), _M2, _N1, _M0),
         QuadPattern(iri("ctx0"), _M1, _M1, _M0)],
        [QuadPattern(iri("ctx1"), _N0, _N0, _N1)])],
    "chain with a constant in every atom": [(
        [QuadPattern(iri("ctx0"), _M0, _N1, _M1),
         QuadPattern(iri("ctx0"), _M1, _N1, _M2),
         QuadPattern(iri("ctx1"), _M2, _N0, _N1)],
        [QuadPattern(iri("ctx1"), _M0, _N1, _M2)])],
    # the second atom shares no variable with the first: a cross product
    "disconnected atoms": [(
        [QuadPattern(iri("ctx0"), _M0, _N0, _M1),
         QuadPattern(iri("ctx1"), _M2, _M2, _N1)],
        [QuadPattern(iri("ctx0"), _M0, _M2, _M1),
         QuadPattern(iri("ctx1"), _M1, _M2, _E)])],
    # the second atom's three positions are bound by the first one
    "an atom bound at every position": [(
        [QuadPattern(iri("ctx0"), _M0, _M1, _M2),
         QuadPattern(iri("ctx1"), _M0, _M1, _M2)],
        [QuadPattern(iri("ctx1"), _M2, _M1, _M0)])],
}
# Generating heads, whose plans give each grounding the slots the head
# reads and build a head per distinct row: every shape of the getter of
# a function's argument tuple (none, one and several slots), two
# functions in one head, and head constants and frontier variables that
# the row holds once.
_F = Variable("f")
_GENERATING_SHAPES = {
    # no frontier variable: one null, and one head, for every grounding
    "zero-argument function": [(
        [QuadPattern(iri("ctx0"), _M0, _N0, _M1),
         QuadPattern(iri("ctx1"), _M1, _M2, _M0)],
        [QuadPattern(iri("ctx1"), _N0, _N1, _E)])],
    "two skolem functions": [(
        [QuadPattern(iri("ctx0"), _M0, _N0, _M1),
         QuadPattern(iri("ctx1"), _M1, _M2, _M0)],
        [QuadPattern(iri("ctx1"), _E, _M1, _F)])],
    # a constant the body shares and one it does not, and a frontier
    # variable at two head positions and in the function's arguments
    "head constant, frontier variable repeated in the head": [
        ([QuadPattern(iri("ctx0"), _M0, _N1, _M1)],
         [QuadPattern(iri("ctx1"), _M1, _N1, _E)]),
        ([QuadPattern(iri("ctx0"), _M0, _M1, _M2),
          QuadPattern(iri("ctx1"), _M2, _M1, _N0)],
         [QuadPattern(iri("ctx1"), _M0, _M0, _E)]),
        ([QuadPattern(iri("ctx0"), _M0, _M1, _M2)],
         [QuadPattern(iri("ctx0"), _E, _N0, _M2)])],
}


def _naive_head(head, mu):
    """The quad a skolemized head atom names under the grounding ``mu``."""
    def ground(t):
        if isinstance(t, SkolemTerm):
            return skolem_constant(t.rule_id, t.fn_index,
                                   [mu[a] for a in t.args])
        return mu[t] if isinstance(t, Variable) else t
    return Quad(head.ctx, *map(ground, head.terms()))


@settings(max_examples=examples(200), deadline=None)
@given(quads=st.lists(st.builds(Quad, st.sampled_from(_MATCH_CONTEXTS),
                                _match_terms, _match_terms, _match_terms),
                      max_size=12),
       shapes=st.lists(_rule_shapes, min_size=1, max_size=3))
@example(quads=_GROUND_HEAD_QUADS, shapes=[_GROUND_HEAD_SHAPE])
@example(quads=_GROUND_HEAD_QUADS[::-1], shapes=[_GROUND_HEAD_SHAPE])
@example(quads=_ONE_ATOM_QUADS,
         shapes=_ONE_ATOM_SHAPES["repeated variable"])
@example(quads=_ONE_ATOM_QUADS, shapes=_ONE_ATOM_SHAPES["body constant"])
@example(quads=_ONE_ATOM_QUADS,
         shapes=_ONE_ATOM_SHAPES["two body constants"])
@example(quads=_ONE_ATOM_QUADS, shapes=_ONE_ATOM_SHAPES["head constant"])
@example(quads=_ONE_ATOM_QUADS,
         shapes=_ONE_ATOM_SHAPES["projection dropping a slot"])
@example(quads=_ONE_ATOM_QUADS, shapes=_ONE_ATOM_SHAPES["ground body"])
@example(quads=_MULTI_QUADS, shapes=_MULTI_ATOM_SHAPES[
    "join through a repeated variable, generating head"])
@example(quads=_MULTI_QUADS,
         shapes=_MULTI_ATOM_SHAPES["three atoms, ground head"])
@example(quads=_MULTI_QUADS,
         shapes=_MULTI_ATOM_SHAPES["chain with a constant in every atom"])
@example(quads=_MULTI_QUADS, shapes=_MULTI_ATOM_SHAPES["disconnected atoms"])
@example(quads=_MULTI_QUADS,
         shapes=_MULTI_ATOM_SHAPES["an atom bound at every position"])
@example(quads=_MULTI_QUADS,
         shapes=_GENERATING_SHAPES["zero-argument function"])
@example(quads=_MULTI_QUADS, shapes=_GENERATING_SHAPES["two skolem functions"])
@example(quads=_MULTI_QUADS, shapes=_GENERATING_SHAPES[
    "head constant, frontier variable repeated in the head"])
def test_derive_agrees_with_naive_match_at_every_mark(quads, shapes):
    """At every mark from 0 to the graph's size, ``derive`` returns the
    heads of the naive groundings that use a quad at a log position at or
    past the mark (every grounding at mark 0), minus the graph's quads,
    for random rules that include ground-head and generating ones; for
    one-atom rules that repeat a variable, bind constants, have a
    constant in the head, drop a slot or have a ground body; for
    multi-atom rules that join through a variable repeated across atoms,
    bind constants, have a ground or a generating head, share no
    variable between two atoms or bind an atom at every position; and
    for generating heads with a function of no argument, two functions,
    head constants and a frontier variable repeated in the head."""
    quads = list(dict.fromkeys(quads))
    position = {q: i for i, q in enumerate(quads)}
    rules = [sk for i, (body, head) in enumerate(shapes)
             for sk in skolemize(BridgeRule("r%d" % i, tuple(body),
                                            tuple(head)))]
    # each grounding's head and the last log position of its body quads
    heads = [(_naive_head(rule.head, mu),
              max(position[substitute(pat, mu)]
                  for pat in rule.body))
             for rule in rules for mu in naive_match(set(quads), rule.body)]
    for graph in (QuadGraph(quads), grown_quadgraph(quads)):
        for mark in range(len(quads) + 1):
            expected = {head for head, last in heads if last >= mark}
            assert derive(rules, graph, mark) == expected - set(quads)


# Constraint bodies: mostly variables over n0 and n1, and graphs that
# hold a labelled null, so that most bodies ground, many through a null.
_constraint_terms = st.one_of(st.sampled_from(_MATCH_VARS),
                              st.sampled_from(_MATCH_VARS),
                              st.sampled_from(_MATCH_VOCAB))
_constraint_patterns = st.builds(
    QuadPattern, st.sampled_from(_MATCH_CONTEXTS), *[_constraint_terms] * 3)
_constraint_quad_terms = st.sampled_from(_ONE_ATOM_TERMS)
# the second atom is bound at every position by the first, and the third
# binds a new variable after it
_BOUND_THEN_FREE = [QuadPattern(iri("ctx0"), _M0, _M1, _M2),
                    QuadPattern(iri("ctx1"), _M0, _M1, _M2),
                    QuadPattern(iri("ctx0"), _M2, _N1, _E)]


@settings(max_examples=examples(200), deadline=None)
@given(quads=st.lists(st.builds(Quad, st.sampled_from(_MATCH_CONTEXTS),
                                *[_constraint_quad_terms] * 3),
                      min_size=8, max_size=24),
       bodies=st.lists(st.lists(_constraint_patterns, min_size=2,
                                max_size=3), min_size=1, max_size=3))
@example(quads=_XX_QUADS, bodies=[_XX + _XXX, _JOIN])
@example(quads=_MULTI_QUADS, bodies=[_BOUND_THEN_FREE])
@example(quads=_MULTI_QUADS, bodies=[_MULTI_ATOM_SHAPES[
    "chain with a constant in every atom"][0][0]])
def test_constraint_bindings_are_the_naive_groundings_through_the_delta(
        quads, bodies):
    """At every mark from 0 to the graph's size, ``check_constraints``
    reports one violation per naive grounding of a constraint body that
    uses a quad at or past the mark, whose binding is that grounding's,
    for 2- and 3-atom bodies with repeated variables and constants over
    quads that hold a labelled null."""
    quads = list(dict.fromkeys(quads))
    position = {q: i for i, q in enumerate(quads)}
    constraints = [BridgeRule("k%d" % i, tuple(body), ())
                   for i, body in enumerate(bodies)]
    # each grounding's violation and the last log position of its quads
    groundings = [(Violation(rule.rule_id, tuple(sorted(
                       mu.items(), key=lambda kv: kv[0].name))),
                   max(position[substitute(pat, mu)] for pat in rule.body))
                  for rule in constraints
                  for mu in naive_match(set(quads), rule.body)]
    for graph in (QuadGraph(quads), grown_quadgraph(quads)):
        for mark in range(len(quads) + 1):
            expected = [v for v, last in groundings if last >= mark]
            found = check_constraints(constraints, graph, mark)
            assert Counter(found) == Counter(expected)


def test_a_one_atom_ground_head_is_built_in_one_pass(monkeypatch):
    """``c1(?x,?y,?z) -> c2(<a>,<b>,<c>)`` over 20,000 quads has one body
    atom, so ``derive`` reads c1's bucket in one pass and instantiates no
    head per grounding: it returns that one quad at mark 0 and at a
    middle mark, and nothing once the graph holds it."""
    from quadchase import engine

    def per_grounding(*args):
        raise AssertionError("a head instantiated per grounding")

    monkeypatch.setattr(engine, "instantiate_head", per_grounding)
    a, b, c = iri("a"), iri("b"), iri("c")
    (rule,) = skolemize(BridgeRule(
        "ground", (QuadPattern(C1, X1, X2, Variable("x3")),),
        (QuadPattern(C2, a, b, c),)))
    graph = QuadGraph(Quad(C1, iri("s%d" % i), iri("p%d" % (i % 7)),
                           iri("o%d" % (i % 100))) for i in range(20000))
    head = Quad(C2, a, b, c)
    for mark in (0, 10000):
        assert derive([rule], graph, mark) == {head}
    graph.add(head)
    for mark in (0, 10000):
        assert derive([rule], graph, mark) == set()


def test_each_frontier_binding_mints_its_null_once(monkeypatch):
    """A rule with a body-only variable grounds once per body match (18
    times) but mints each distinct frontier binding's null once, in one
    ``skolem_constants`` call, and builds its head once (3 times); the
    nulls are the labels the function gives for those arguments."""
    from quadchase import engine

    knows, pet = iri("knows"), iri("hasPet")
    people = [iri("person%d" % i) for i in range(6)]
    data = [Quad(C1, a, knows, b) for a in people[:3] for b in people]
    rule = BridgeRule("pet", (QuadPattern(C1, X1, knows, X2),),
                      (QuadPattern(C2, X1, pet, Y1),))
    calls = []

    def counted(rule_id, fn_index, keys):
        calls.append((rule_id, fn_index, list(keys)))
        return skolem_constants(rule_id, fn_index, calls[-1][2])

    monkeypatch.setattr(engine, "skolem_constants", counted)
    heads = count_head_instances(monkeypatch)
    (sk,) = skolemize(rule)
    assert len(list(engine.evaluate(sk.plan, QuadGraph(data)))) == 18
    derived = derive([sk], QuadGraph(data))
    assert calls == [("pet", 0, [(a,) for a in people[:3]])]
    assert heads == [3]
    assert derived == {Quad(C2, a, pet, skolem_constant("pet", 0, [a]))
                       for a in people[:3]}
