import pytest

from quadchase.chase import ChaseConfig, run_chase
from quadchase.contextgraph import (
    build_dependency_graph,
    compute_levels,
    is_context_acyclic,
)
from quadchase.query import entails_boolean
from quadchase.reductions.dtm import (
    CELL_CLASS,
    DTM,
    dtm_oracle,
    element_context,
    encode_dtm,
    encoding_bounds,
    parse_dtm,
)
from quadchase.syntax import ParseError
from quadchase.terms import iri
from quadchase.vocab import RDF_TYPE

ACCEPTING_1STEP = DTM(frozenset(["q0", "qA"]), frozenset(["a", "_"]), "_",
                      {("q0", "a"): ("qA", "a", 1)}, "q0", "qA")
NO_ACCEPT_PATH = DTM(frozenset(["q0", "qA"]), frozenset(["a", "_"]), "_",
                     {("q0", "a"): ("q0", "a", 1)}, "q0", "qA")


def test_dtm_validation():
    with pytest.raises(ValueError):
        DTM(frozenset(["q0"]), frozenset(["a"]), "_", {}, "q0", "q0")
    with pytest.raises(ValueError):
        DTM(frozenset(["q0", "qA"]), frozenset(["a", "_"]), "_",
            {("qA", "a"): ("q0", "a", 1)}, "q0", "qA")


def test_encode_rejects_bad_inputs():
    with pytest.raises(ValueError):
        encode_dtm(ACCEPTING_1STEP, "aa", n=1)
    with pytest.raises(ValueError):
        encode_dtm(ACCEPTING_1STEP, "aaa", n=3)  # beyond the desk cap
    with pytest.raises(ValueError):
        encode_dtm(ACCEPTING_1STEP, "x", n=1)


def test_encoding_is_context_acyclic_with_chain():
    system, _ = encode_dtm(ACCEPTING_1STEP, "a", n=1)
    graph = build_dependency_graph(system)
    verdict = is_context_acyclic(graph)
    assert verdict.acyclic
    edges = {(a.lexical, b.lexical) for a, b in graph.edges}
    assert ("c0", "c1") in edges  # the level chain survives
    assert ("c1", "sim") in edges
    lm = compute_levels(graph)
    assert lm.max_level == 1
    assert lm.levels[iri("c0")] == 0
    assert lm.levels[iri("c1")] == 1


def test_counter_builds_four_chained_cells():
    system, _ = encode_dtm(ACCEPTING_1STEP, "a", n=1)
    result = run_chase(system, ChaseConfig())
    assert result.complete
    assert result.generating_iterations <= 2
    c1 = element_context(1)
    cells = {q.s for q in result.quads
             if q.ctx == c1 and q.p == RDF_TYPE and q.o == CELL_CLASS}
    assert len(cells) == 4
    succ1 = {(q.s, q.o) for q in result.quads
             if q.ctx == c1 and q.p == iri("succ1")}
    assert len(succ1) == 3
    # the succ1 edges form one linear chain over exactly those cells
    sources = {a for a, _ in succ1}
    targets = {b for _, b in succ1}
    assert sources | targets == cells
    (first,) = sources - targets
    (last,) = targets - sources
    seen = [first]
    nxt = dict(succ1)
    while seen[-1] in nxt:
        seen.append(nxt[seen[-1]])
    assert len(seen) == 4 and seen[-1] == last


def test_accepting_machine_entailed_and_oracle_agrees():
    system, query = encode_dtm(ACCEPTING_1STEP, "a", n=1)
    result = run_chase(system)
    assert result.complete and not result.violations
    assert entails_boolean(result, query)
    assert dtm_oracle(ACCEPTING_1STEP, "a", *encoding_bounds(1)) == "accept"


def test_unreachable_accept_not_entailed():
    system, query = encode_dtm(NO_ACCEPT_PATH, "a", n=1)
    result = run_chase(system)
    assert result.complete
    assert not entails_boolean(result, query)
    assert dtm_oracle(NO_ACCEPT_PATH, "a", *encoding_bounds(1)) != "accept"


def test_left_moving_machine_differential():
    # moves right then left then accepts: exercises the left-transition
    # rule and inertia on both sides of the head
    m = DTM(frozenset(["q0", "q1", "qA"]), frozenset(["a", "b", "_"]), "_",
            {("q0", "a"): ("q1", "b", 1),
             ("q1", "_"): ("qA", "_", -1)}, "q0", "qA")
    system, query = encode_dtm(m, "a", n=1)
    result = run_chase(system)
    assert result.complete and not result.violations
    assert entails_boolean(result, query)
    assert dtm_oracle(m, "a", *encoding_bounds(1)) == "accept"


def test_left_fall_off_rejects():
    m = DTM(frozenset(["q0", "qA"]), frozenset(["a", "_"]), "_",
            {("q0", "a"): ("q0", "a", -1)}, "q0", "qA")
    system, query = encode_dtm(m, "a", n=1)
    result = run_chase(system)
    assert not entails_boolean(result, query)
    assert dtm_oracle(m, "a", *encoding_bounds(1)) == "reject"


def test_two_level_encoding_sixteen_cells():
    m = DTM(frozenset(["q0", "q1", "qA"]), frozenset(["a", "b", "_"]), "_",
            {("q0", "a"): ("q0", "a", 1),
             ("q0", "b"): ("q1", "b", 1),
             ("q1", "_"): ("qA", "_", -1)}, "q0", "qA")
    system, query = encode_dtm(m, "ab", n=2)
    graph = build_dependency_graph(system)
    assert is_context_acyclic(graph).acyclic
    lm = compute_levels(graph)
    assert lm.max_level == 2
    result = run_chase(system)
    assert result.complete
    assert result.generating_iterations <= 3
    c2 = element_context(2)
    cells = {q.s for q in result.quads
             if q.ctx == c2 and q.p == RDF_TYPE and q.o == CELL_CLASS}
    assert len(cells) == 16  # squared twice from the two seeds
    assert entails_boolean(result, query)
    assert dtm_oracle(m, "ab", *encoding_bounds(2)) == "accept"


def test_oracle_timeout():
    bouncer = DTM(frozenset(["q0", "q1", "qA"]),
                  frozenset(["a", "_"]), "_",
                  {("q0", "a"): ("q1", "a", 1),
                   ("q1", "_"): ("q0", "_", -1),
                   ("q1", "a"): ("q0", "a", -1),
                   ("q0", "_"): ("q1", "_", 1)}, "q0", "qA")
    assert dtm_oracle(bouncer, "a", max_steps=50) == "timeout"


def test_parse_dtm():
    m = parse_dtm("""
    states: q0 qA
    alphabet: a _
    blank: _
    start: q0
    accept: qA
    delta: q0 a -> qA a R
    """)
    assert m == ACCEPTING_1STEP
    with pytest.raises(ParseError):
        parse_dtm("states: q0\n")
    with pytest.raises(ParseError):
        parse_dtm("blank: _\nstart: q0\naccept: qA\ndelta: q0 a -> qA a X\n")
