import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from quadchase import cli
from quadchase.chase import ChaseConfig, run_chase
from quadchase.contextgraph import (
    ContextDependencyGraph,
    NotContextAcyclicError,
    build_dependency_graph,
    compute_levels,
    is_context_acyclic,
    to_dot,
    to_json_dict,
)
from quadchase.engine import QuadSystem
from quadchase.syntax import parse_rules
from quadchase.terms import QuadGraph, iri

from conftest import FIXTURES, load_system
from oracles import brute_force_levels, random_rule


def ctx(name):
    return iri(name)


def test_example1_graph(example1_system):
    g = build_dependency_graph(example1_system)
    assert {c.lexical for c in g.tgc} == {"c2"}
    assert {(a.lexical, b.lexical) for a, b in g.edges} \
        == {("c1", "c2"), ("c1", "c3"), ("c2", "c1"), ("c3", "c1")}
    verdict = is_context_acyclic(g)
    assert not verdict.acyclic
    assert verdict.witness_text() == "(c1, c2, c1)"
    assert "r1" in g.provenance[(ctx("c1"), ctx("c2"))]


def test_no_existentials_means_no_tgc():
    doc = parse_rules(b"r: c1(?x,?y,?z) -> c2(?x,?y,?z).")
    g = build_dependency_graph(QuadSystem(QuadGraph(), doc.rules))
    assert not g.tgc
    assert is_context_acyclic(g).acyclic


def test_multi_context_rule_edges_and_tgc_positions():
    doc = parse_rules(
        b"r: c1(?x,?y,?z), c2(?x,?y,?z) -> c3(?x,?y,?w), c4(?x,?y,?z).")
    g = build_dependency_graph(QuadSystem(QuadGraph(), doc.rules))
    assert {(a.lexical, b.lexical) for a, b in g.edges} \
        == {("c1", "c3"), ("c1", "c4"), ("c2", "c3"), ("c2", "c4")}
    # the existential ?w only lands in c3's pattern
    assert {c.lexical for c in g.tgc} == {"c3"}


def test_fig3_graph_acyclic_and_levels(fig3_system):
    g = build_dependency_graph(fig3_system)
    assert {c.lexical for c in g.tgc} == {"c1", "c3"}
    verdict = is_context_acyclic(g)
    assert verdict.acyclic
    lm = compute_levels(g)
    named = {c.lexical: lvl for c, lvl in lm.levels.items()}
    assert named == {"c1": 1, "c2": 0, "c3": 2, "c4": 0}
    assert lm.max_level == 2


def test_empty_graph_is_acyclic():
    g = build_dependency_graph(QuadSystem(QuadGraph(), ()))
    assert is_context_acyclic(g).acyclic
    assert compute_levels(g).max_level == 0


def test_tgc_self_loop_is_a_cycle():
    doc = parse_rules(b"r: c(?x,?y,?z) -> c(?x,?y,?w).")
    g = build_dependency_graph(QuadSystem(QuadGraph(), doc.rules))
    verdict = is_context_acyclic(g)
    assert not verdict.acyclic
    assert verdict.witness_text() == "(c, c)"


def test_non_tgc_cycle_is_fine():
    doc = parse_rules(b"a: c1(?x,?y,?z) -> c2(?x,?y,?z).\n"
                      b"b: c2(?x,?y,?z) -> c1(?x,?y,?z).")
    g = build_dependency_graph(QuadSystem(QuadGraph(), doc.rules))
    assert is_context_acyclic(g).acyclic
    assert compute_levels(g).max_level == 0


def test_tgc_chain_levels():
    doc = parse_rules(b"a: c0(?x,?y,?z) -> c1(?x,?y,?w).\n"
                      b"b: c1(?x,?y,?z) -> c2(?x,?y,?w).\n"
                      b"c: c2(?x,?y,?z) -> c3(?x,?y,?w).")
    g = build_dependency_graph(QuadSystem(QuadGraph(), doc.rules))
    lm = compute_levels(g)
    named = {c.lexical: lvl for c, lvl in lm.levels.items()}
    assert named == {"c0": 0, "c1": 1, "c2": 2, "c3": 3}


def test_data_only_contexts_are_level_zero(example1_system):
    quads = example1_system.quads
    doc = parse_rules(b"r: c1(?x,?y,?z) -> c2(?x,?y,?w).")
    system = QuadSystem(quads, doc.rules)
    g = build_dependency_graph(system)
    lm = compute_levels(g)
    # c1 appears only in data + rule body; isolated data context too
    assert lm.levels[ctx("c1")] == 0


def test_compute_levels_refuses_cyclic(example1_system):
    g = build_dependency_graph(example1_system)
    with pytest.raises(NotContextAcyclicError) as err:
        compute_levels(g)
    assert "(c1, c2, c1)" in str(err.value)


def test_edge_provenance_soundness(fig3_system):
    g = build_dependency_graph(fig3_system)
    by_id = {r.rule_id: r for r in fig3_system.rules}
    for (a, b), rule_ids in g.provenance.items():
        assert rule_ids
        for rid in rule_ids:
            rule = by_id[rid]
            assert a in {p.ctx for p in rule.body}
            assert b in {p.ctx for p in rule.head}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_levels_match_brute_force_on_small_graphs(seed):
    rng = random.Random(seed)
    contexts = [iri("g%d" % i) for i in range(rng.randrange(2, 9))]
    rules = tuple(random_rule(rng, "r%d" % i, contexts)
                  for i in range(rng.randrange(1, 6)))
    system = QuadSystem(QuadGraph(), rules)
    graph = build_dependency_graph(system)
    if not is_context_acyclic(graph).acyclic:
        return
    lm = compute_levels(graph)
    assert lm.levels == brute_force_levels(graph)


def test_dot_output_stars_tgcs(example1_system):
    g = build_dependency_graph(example1_system)
    dot = to_dot(g)
    assert '"c2" [label="c2 *", shape=doublecircle];' in dot
    assert '"c1" -> "c2";' in dot


def test_json_output_shape(fig3_system):
    g = build_dependency_graph(fig3_system)
    doc = json.loads(json.dumps(to_json_dict(g)))
    assert doc["context_acyclic"] is True
    assert doc["levels"]["c3"] == 2
    assert doc["max_level"] == 2
    assert {"from": "c4", "to": "c2", "rules": ["ra"]} in doc["edges"]
    assert {"context": "c1", "tgc": True} in doc["nodes"]


# Each way into the analysis decides acyclicity and, for an acyclic
# graph, computes its levels; a budget lets the cyclic system run.
ANALYSES = {
    "run_chase": lambda system, paths: run_chase(
        system, ChaseConfig(max_iterations=5)),
    "check": lambda system, paths: cli.main(["check", *paths]),
    "to_json_dict": lambda system, paths: to_json_dict(
        build_dependency_graph(system)),
}


@pytest.mark.parametrize("entry", ANALYSES)
@pytest.mark.parametrize("name", ["fig3", "example1"])
def test_each_graph_is_analysed_once(monkeypatch, entry, name):
    """One successor map and one run of Tarjan's algorithm per graph."""
    counts = {"successors": 0, "components": 0}
    for prop in counts:
        cached = vars(ContextDependencyGraph)[prop]

        def counted(graph, func=cached.func, prop=prop):
            counts[prop] += 1
            return func(graph)

        monkeypatch.setattr(cached, "func", counted)
    files = [name + ".nq", name + ".qrules"]
    ANALYSES[entry](load_system(*files), [str(FIXTURES / f) for f in files])
    assert counts == {"successors": 1, "components": 1}
