import random

import pytest
from hypothesis import given, settings, strategies as st

from quadchase.chase import (
    BUDGET_EXHAUSTED,
    BudgetRequiredError,
    COMPLETE,
    ChaseConfig,
    GENERATING,
    INCONSISTENT,
    NON_GENERATING,
    entailment_closure_check,
    run_chase,
    saturation_report,
)
from quadchase.contextgraph import build_dependency_graph, compute_levels
from quadchase import chase as chase_module
from quadchase.engine import BridgeRule, QuadSystem
from quadchase.reductions.cfg import CFG, CFG_CLASS, CFG_CONTEXT, CFG_SEED, \
    encode_cfg_pair, symbol_iri
from quadchase.reductions.horn import (CTX_TRUE, TRUTH_CLASS, HornClause,
                                       encode_horn)
from quadchase import semantics
from quadchase.semantics import SIMPLE, lclosure_quadgraph, rdfs_core
from quadchase.syntax import parse_rules, serialize_nquads
from quadchase.terms import Quad, QuadGraph, iri, skolem_constant
from quadchase.vocab import RDF_TYPE, RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF

from conftest import count_head_instances, count_join_rows, examples
from oracles import (
    naive_chase,
    naive_local_closure,
    random_acyclic_system,
    random_copy_system,
    random_firing_system,
    random_rdfs_quadgraph,
    random_rule,
    symbol_size,
    triples_of,
)


def test_cfg_first_step_fixture():
    g1 = CFG(frozenset(["S1"]), frozenset(["t1"]), "S1",
             (("S1", ("t1",)),))
    g2 = CFG(frozenset(["S2"]), frozenset(["t1"]), "S2",
             (("S2", ("t1",)),))
    system, _ = encode_cfg_pair(g1, g2)
    result = run_chase(system, ChaseConfig(max_iterations=10))
    assert result.status == BUDGET_EXHAUSTED
    b1 = skolem_constant("t_t1", 0, [CFG_SEED])
    c = CFG_CONTEXT
    for expected in [
            Quad(c, CFG_SEED, symbol_iri("t1"), b1),
            Quad(c, b1, RDF_TYPE, CFG_CLASS),
            Quad(c, CFG_SEED, symbol_iri("S1"), b1),
            Quad(c, CFG_SEED, symbol_iri("S2"), b1)]:
        assert expected in result.quads


def test_example1_simple_semantics_terminates(example1_system):
    result = run_chase(example1_system,
                       ChaseConfig(force_unrestricted=True))
    assert result.status == COMPLETE
    # the c2-echo re-derives the same skolem constant, so the fixpoint
    # holds exactly four quads
    assert len(result.quads) == 4
    sk = skolem_constant("r1", 0, [iri("a"), iri("b")])
    assert Quad(iri("c2"), iri("a"), iri("b"), sk) in result.quads


@pytest.mark.parametrize("budget", [10, 50, 100])
def test_example1_rdfs_core_diverges(example1_system, budget):
    result = run_chase(example1_system, ChaseConfig(
        semantics=rdfs_core(resource_rule=True), max_iterations=budget))
    assert result.status == BUDGET_EXHAUSTED
    assert len(result.iteration_log) == budget
    sizes = [rec.cumulative for rec in result.iteration_log]
    assert all(b > a for a, b in zip(sizes, sizes[1:]))


def test_example1_rdfs_core_without_resource_rule_terminates(
        example1_system):
    result = run_chase(example1_system, ChaseConfig(
        semantics=rdfs_core(resource_rule=False),
        force_unrestricted=True))
    assert result.status == COMPLETE


def test_budget_refusal_policy(example1_system):
    with pytest.raises(BudgetRequiredError) as err:
        run_chase(example1_system)
    assert "(c1, c2, c1)" in str(err.value)
    # a quad cap is also an acceptable budget
    result = run_chase(example1_system, ChaseConfig(max_quads=1000))
    assert result.status == COMPLETE


def test_acyclic_systems_never_need_budget(fig3_system):
    result = run_chase(fig3_system, ChaseConfig())
    assert result.status == COMPLETE
    assert result.generating_iterations <= 3


def test_fig3_saturation_schedule(fig3_system):
    result = run_chase(fig3_system, ChaseConfig())
    levels = result.levels
    assert levels == compute_levels(build_dependency_graph(fig3_system))
    report = saturation_report(result)
    assert report.schedule_ok, report.problems
    gen = report.generating_indices
    named = {c.lexical: i for c, i in report.saturation.items()}
    lvl = {c.lexical: l for c, l in levels.levels.items()}
    # level-0 contexts are done before the first generating iteration
    for name in ("c2", "c4"):
        assert lvl[name] == 0 and named[name] < gen[0]
    # the level-2 context saturates exactly at the second generating
    # iteration on this fixture
    assert named["c3"] == gen[1]


def test_no_tgc_fixture_saturates_before_any_generating_iteration():
    doc = parse_rules(b"a: c1(?x,?y,?z) -> c2(?x,?y,?z).\n"
                      b"b: c2(?x,?y,?z) -> c3(?x,?y,?z).")
    system = QuadSystem(
        QuadGraph([Quad(iri("c1"), iri("s"), iri("p"), iri("o"))]),
        doc.rules)
    result = run_chase(system, ChaseConfig())
    assert result.levels == compute_levels(build_dependency_graph(system))
    assert result.levels.max_level == 0
    report = saturation_report(result)
    assert report.schedule_ok
    (vacuous_gen,) = report.generating_indices
    assert all(i < vacuous_gen for i in report.saturation.values())


def test_inconsistency_stops_the_run():
    doc = parse_rules(
        b"copy: c1(?x,?y,?z) -> c2(?x,?y,?z).\n"
        b"chk: c2(?x,<p>,?y) -> .")
    system = QuadSystem(
        QuadGraph([Quad(iri("c1"), iri("s"), iri("p"), iri("o"))]),
        doc.rules)
    result = run_chase(system)
    assert result.status == INCONSISTENT
    assert result.violations
    assert result.violations[0].rule_id == "chk"


def test_inconsistency_detected_at_iteration_zero():
    doc = parse_rules(b"chk: c1(?x,<p>,?y) -> .")
    system = QuadSystem(
        QuadGraph([Quad(iri("c1"), iri("s"), iri("p"), iri("o"))]),
        doc.rules)
    result = run_chase(system)
    assert result.status == INCONSISTENT
    assert result.iteration_log == ()


@pytest.mark.parametrize("semantics", [SIMPLE, rdfs_core(True)],
                         ids=["simple", "rdfs-core"])
@pytest.mark.parametrize("status", [COMPLETE, BUDGET_EXHAUSTED, INCONSISTENT])
def test_the_chase_never_grows_its_callers_graph(example1_system,
                                                 fig3_system, semantics,
                                                 status):
    """``run_chase`` and ``lclosure_quadgraph`` add only to graphs of
    their own: the input graph keeps its length and its quads, whether
    the run completes, runs out of budget or stops inconsistent
    (under ``simple`` the closure returns its argument itself)."""
    cfg = ChaseConfig(semantics=semantics)
    if status == COMPLETE:
        system = fig3_system
    elif status == BUDGET_EXHAUSTED:
        system = example1_system
        cfg = ChaseConfig(semantics=semantics, max_iterations=2)
    else:
        system = QuadSystem(
            QuadGraph([Quad(iri("c1"), iri("s"), iri("p"), iri("o"))]),
            parse_rules(b"copy: c1(?x,?y,?z) -> c2(?x,?y,?z).\n"
                        b"chk: c2(?x,<p>,?y) -> .").rules)
    graph = system.quads
    size, twin = len(graph), QuadGraph(graph)
    closed = lclosure_quadgraph(graph, semantics)
    result = run_chase(system, cfg)
    assert result.status == status
    assert len(result.quads) > size
    assert len(closed) >= size
    assert len(graph) == size
    assert graph == twin


def test_a_checked_config_and_its_result_cannot_change(example1_system):
    """A budget is checked once, when the config is built; no field of a
    config or a result can be set afterwards, so a run cannot see a
    budget that was never checked."""
    cfg = ChaseConfig(max_iterations=2)
    result = run_chase(example1_system, cfg)
    for record, value in [(cfg, -3), (result, None)]:
        for name in type(record)._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, value)
    assert cfg.max_iterations == 2
    again = run_chase(example1_system, cfg)
    assert again.status == BUDGET_EXHAUSTED
    assert len(again.iteration_log) == 2


def test_max_quads_budget(example1_system):
    result = run_chase(example1_system, ChaseConfig(
        semantics=rdfs_core(True), max_quads=60))
    assert result.status == BUDGET_EXHAUSTED
    assert len(result.quads) > 60


@pytest.mark.parametrize("field", ["max_iterations", "max_quads"])
def test_negative_budgets_are_refused(example1_system, field):
    with pytest.raises(ValueError, match="^%s must not be negative" % field):
        ChaseConfig(**{field: -1})
    # zero stays valid: no iteration, or a stop after the first
    result = run_chase(example1_system, ChaseConfig(**{field: 0}))
    assert result.status == BUDGET_EXHAUSTED
    assert len(result.iteration_log) == (field == "max_quads")


def test_determinism_in_process(example1_system, fig3_system):
    for system, cfg in [
            (example1_system, ChaseConfig(force_unrestricted=True)),
            (example1_system, ChaseConfig(semantics=rdfs_core(True),
                                          max_iterations=25)),
            (fig3_system, ChaseConfig())]:
        a = serialize_nquads(run_chase(system, cfg).quads)
        b = serialize_nquads(run_chase(system, cfg).quads)
        assert a == b


def test_entailment_closure_check(fig3_system):
    result = run_chase(fig3_system)
    assert entailment_closure_check(result, fig3_system)
    broken = result
    removed = QuadGraph(list(result.quads)[1:])
    broken = type(result)(removed, result.status, result.iteration_log,
                          result.generating_iterations, result.violations)
    assert not entailment_closure_check(broken, fig3_system)
    empty = run_chase(QuadSystem(QuadGraph(), ()))
    assert entailment_closure_check(empty, QuadSystem(QuadGraph(), ()))


@settings(max_examples=examples(40), deadline=None)
@given(st.integers(0, 2 ** 32))
def test_schedule_conformance_and_monotone_growth(seed):
    rng = random.Random(seed)
    system = random_acyclic_system(rng)
    cfg = ChaseConfig()
    result = run_chase(system, cfg)
    assert result.complete
    reference = naive_chase(system, cfg)
    assert reference.quads == result.quads
    assert reference.iteration_log == result.iteration_log
    sizes = [r.cumulative for r in result.iteration_log]
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
    # every non-final iteration is productive; only the closing
    # generating iteration derives nothing
    for rec in result.iteration_log[:-1]:
        assert rec.new_quads > 0
    n_contexts = len(system.contexts()) or 1
    assert result.generating_iterations <= n_contexts
    levels = compute_levels(build_dependency_graph(system))
    assert result.generating_iterations <= levels.max_level + 1


def test_growth_rate_stays_under_loose_exponent_bound(
        fig3_system, example1_system):
    """After a generating iteration and its non-generating tail, symbol
    size stays below ||before||^||rules|| (a deliberately loose cap)."""
    corpus = [(fig3_system, ChaseConfig()),
              (example1_system, ChaseConfig(force_unrestricted=True))]
    for system, cfg in corpus:
        result = run_chase(system, cfg)
        rules_size = max(sum(map(symbol_size, system.rules)), 2)
        start = symbol_size(lclosure_quadgraph(system.quads, cfg.semantics))
        sizes = [start] + [4 * rec.cumulative
                           for rec in result.iteration_log]
        kinds = [None] + [rec.kind for rec in result.iteration_log]
        for i, kind in enumerate(kinds):
            if kind != GENERATING:
                continue
            j = i
            while j + 1 < len(kinds) and kinds[j + 1] == NON_GENERATING:
                j += 1
            assert sizes[j] <= max(sizes[i - 1], 2) ** rules_size


def _assert_same_as_naive(system, cfg):
    fast = run_chase(system, cfg)
    slow = naive_chase(system, cfg)
    assert fast.quads == slow.quads
    assert fast.status == slow.status
    assert fast.generating_iterations == slow.generating_iterations
    assert fast.iteration_log == slow.iteration_log
    assert set(fast.violations) == set(slow.violations)


@settings(max_examples=examples(150), deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans(), st.booleans(),
       st.booleans())
def test_semi_naive_chase_matches_naive_oracle(seed, firing, rdfs,
                                               with_constraint):
    """Random systems, optionally with a constraint, chased semi-naively
    and by the naive reference: the criterion-7 systems, and systems
    whose rules fire over several iterations.  A constraint is a random
    body or, so that it can fire after iteration 0, a rule's head."""
    rng = random.Random(seed)
    if firing:
        system = random_firing_system(rng)
    else:
        system = random_acyclic_system(rng, max_contexts=4, max_rules=4,
                                       max_quads=12)
    if with_constraint:
        contexts = sorted(system.contexts(), key=lambda c: c.canonical)
        body = random_rule(rng, "chk", contexts).body
        if system.rules and rng.random() < 0.5:
            body = rng.choice(system.rules).head
        system = QuadSystem(system.quads,
                            system.rules + (BridgeRule("chk", body, ()),))
    cfg = ChaseConfig(semantics=rdfs_core(rng.random() < 0.5) if rdfs
                      else SIMPLE, max_iterations=30, max_quads=300)
    _assert_same_as_naive(system, cfg)


@settings(max_examples=examples(100), deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans())
def test_semi_naive_rdfs_chase_matches_naive_oracle(seed, resource):
    """Firing systems whose data also holds rdfs-core schema quads, so
    that the rules carry them across contexts and every iteration's
    closure has work to do."""
    rng = random.Random(seed)
    system = random_firing_system(rng)
    schema = random_rdfs_quadgraph(rng, max_quads=10, n_contexts=2)
    system = QuadSystem(QuadGraph([*system.quads, *schema]), system.rules)
    _assert_same_as_naive(system, ChaseConfig(
        semantics=rdfs_core(resource), max_iterations=30, max_quads=300))


@settings(max_examples=examples(150), deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans())
def test_copy_system_chase_matches_naive_oracle(seed, resource):
    """Systems that copy rdfs-core contexts forward (wholly, one
    predicate at a time or turned around; in chains, into non-empty
    contexts and from two sources at once): the chase skips closing a
    context that replicates a closed one, and must still match the
    reference."""
    rng = random.Random(seed)
    _assert_same_as_naive(random_copy_system(rng), ChaseConfig(
        semantics=rdfs_core(resource), max_iterations=30, max_quads=600))


@pytest.mark.parametrize("semantics", [SIMPLE, rdfs_core(True),
                                       rdfs_core(False)])
@pytest.mark.parametrize("budget", [dict(max_iterations=25),
                                    dict(max_quads=60)])
def test_semi_naive_chase_matches_naive_oracle_on_fixtures(
        example1_system, fig3_system, semantics, budget):
    for system in (example1_system, fig3_system):
        _assert_same_as_naive(system, ChaseConfig(
            semantics=semantics, **budget))


def _horn_chain(k):
    """``t t -> p0``, ``p0 t -> p1``, ..., ending in ``f``, plus 20
    distractor clauses that never fire (``q0`` is never derived)."""
    heads = ["p%d" % i for i in range(k - 1)] + ["f"]
    clauses = [HornClause("t", "t", heads[0])]
    clauses += [HornClause(heads[i], "t", heads[i + 1])
                for i in range(k - 1)]
    clauses += [HornClause("q%d" % j, "t", "q%d" % (j + 1))
                for j in range(20)]
    return clauses


def test_horn_chain_head_instances_grow_linearly(monkeypatch):
    """Doubling a Horn chain at most about doubles the head instances:
    each iteration joins only through the quad the last one added."""
    calls = count_head_instances(monkeypatch)
    counts = []
    for k in (32, 64):
        calls[0] = 0
        system, _ = encode_horn(_horn_chain(k))
        result = run_chase(system)
        assert result.complete and len(result.iteration_log) == k + 1
        counts.append(calls[0])
    assert counts[1] <= 2.2 * counts[0], counts


@pytest.mark.parametrize("breaks_c1", [False, True])
def test_local_closure_head_instances_grow_linearly(monkeypatch, breaks_c1):
    """The same chain under rdfs-core, its truth context also holding k
    entities typed under a four-class ``subClassOf`` chain.  Each
    iteration closes only through the quads it added, so doubling k at
    most about doubles the head instances; re-closing the context from
    scratch every iteration would make them grow about 4x.  With a
    ``subPropertyOf`` triple onto ``rdf:type`` (breaking C1) the compiled
    rules close the context from iteration 0 on, and the bound holds
    for them too."""
    calls = count_head_instances(monkeypatch)
    classes = [iri("C%d" % i) for i in range(4)]
    counts = []
    for k in (32, 64):
        calls[0] = 0
        system, _ = encode_horn(_horn_chain(k))
        typed = [Quad(CTX_TRUE, a, RDFS_SUBCLASSOF, b)
                 for a, b in zip(classes, classes[1:])]
        typed += [Quad(CTX_TRUE, iri("e%d" % j), RDF_TYPE, classes[0])
                  for j in range(k)]
        if breaks_c1:
            typed += [Quad(CTX_TRUE, iri("isA"), RDFS_SUBPROPERTYOF,
                           RDF_TYPE),
                      Quad(CTX_TRUE, iri("e0"), iri("isA"), classes[1])]
        system = QuadSystem(QuadGraph([*system.quads, *typed]), system.rules)
        result = run_chase(system, ChaseConfig(semantics=rdfs_core(True)))
        assert result.complete and len(result.iteration_log) == k + 1
        assert Quad(CTX_TRUE, iri("e0"), RDF_TYPE, classes[-1]) \
            in result.quads
        counts.append(calls[0])
    assert counts[1] <= 2.2 * counts[0], counts


def test_horn_chain_join_rows_grow_linearly(monkeypatch):
    """The Horn rule's body has three atoms and each iteration adds one
    quad.  Joined from that quad through the clause atom, the rows the
    evaluator builds grow linearly with the chain; joining the two truth
    atoms first, a cross product, would make them grow quadratically."""
    rows = count_join_rows(monkeypatch)
    counts = []
    for k in (32, 64):
        rows[0] = 0
        system, _ = encode_horn(_horn_chain(k))
        result = run_chase(system)
        assert result.complete and len(result.iteration_log) == k + 1
        counts.append(rows[0])
    assert counts[1] <= 2.2 * counts[0], counts


@pytest.mark.parametrize("breaks_c1", [False, True])
def test_compiled_local_rules_close_like_the_naive_closure(monkeypatch,
                                                          breaks_c1):
    """Under rdfs-core, the truth context of a Horn chain holds quads
    before each iteration's mark, so each iteration closes it through
    the compiled rules on the join evaluator, not by the direct pass;
    with a ``subPropertyOf`` triple onto ``rdf:type`` (breaking C1) its
    first closure takes them too.  Each new truth quad joins the class
    chain above ``T``.  The context ends as the naive closure of its
    asserted and fired triples, and doubling the chain at most about
    doubles the head instances."""
    heads = count_head_instances(monkeypatch)
    direct = []
    rho_df = semantics._rho_df

    def recorded(quads, resource):
        closed = rho_df(quads, resource)
        if closed is not None:
            direct.append(quads[0][0])
        return closed

    monkeypatch.setattr(semantics, "_rho_df", recorded)
    classes = [TRUTH_CLASS] + [iri("C%d" % i) for i in range(4)]
    sem = rdfs_core(True)
    counts = []
    for k in (32, 64):
        heads[0] = 0
        direct.clear()
        clauses = _horn_chain(k)
        system, _ = encode_horn(clauses)
        local = [Quad(CTX_TRUE, a, RDFS_SUBCLASSOF, b)
                 for a, b in zip(classes, classes[1:])]
        local += [Quad(CTX_TRUE, iri("e%d" % j), RDF_TYPE, classes[1])
                  for j in range(k)]
        if breaks_c1:
            local += [Quad(CTX_TRUE, iri("isA"), RDFS_SUBPROPERTYOF,
                           RDF_TYPE),
                      Quad(CTX_TRUE, iri("e0"), iri("isA"), classes[2])]
        system = QuadSystem(QuadGraph([*system.quads, *local]), system.rules)
        result = run_chase(system, ChaseConfig(semantics=sem))
        assert result.complete and len(result.iteration_log) == k + 1
        assert direct.count(CTX_TRUE) == (0 if breaks_c1 else 1)
        assert Quad(CTX_TRUE, iri("f"), RDF_TYPE, classes[-1]) \
            in result.quads
        counts.append(heads[0])
        if k == 32:
            fired = {(iri(c.head), RDF_TYPE, TRUTH_CLASS)
                     for c in clauses[:k]}
            asserted = triples_of(system.quads, CTX_TRUE)
            assert triples_of(result.quads, CTX_TRUE) \
                == naive_local_closure(asserted | fired, sem)
    assert counts[1] <= 2.2 * counts[0], counts


def _count_local_rules(monkeypatch):
    """The head context of every compiled local rule built from now on,
    in order."""
    built = []
    compile_rule = semantics.SkolemRule

    def counted(*args):
        rule = compile_rule(*args)
        built.append(rule.head.ctx)
        return rule

    monkeypatch.setattr(semantics, "SkolemRule", counted)
    return built


def test_replicas_of_directly_closed_contexts_compile_no_local_rule(
        monkeypatch):
    """The shape of the rdfs-closure benchmark: ctx0 and ``out`` close by
    the direct pass and ctx1-ctx3 are copies of ctx0, so a chase under
    rdfs-core builds no compiled local rule, and still closes every
    context."""
    built = _count_local_rules(monkeypatch)
    contexts = [iri("ctx%d" % i) for i in range(4)]
    classes = [iri("C%d" % i) for i in range(6)]
    data = [Quad(contexts[0], a, RDFS_SUBCLASSOF, b)
            for a, b in zip(classes, classes[1:])]
    data += [Quad(contexts[0], iri("e%d" % i), RDF_TYPE, classes[i % 5])
             for i in range(10)]
    data += [Quad(contexts[0], iri("e%d" % i), iri("knows"),
                  iri("e%d" % (i + 1))) for i in range(9)]
    rules = parse_rules(
        "c01: <ctx0>(?s, ?p, ?o) -> <ctx1>(?s, ?p, ?o) .\n"
        "c12: <ctx1>(?s, ?p, ?o) -> <ctx2>(?s, ?p, ?o) .\n"
        "c23: <ctx2>(?s, ?p, ?o) -> <ctx3>(?s, ?p, ?o) .\n"
        "pet: <ctx3>(?x, <knows>, ?y) -> <out>(?x, <hasPet>, ?z) .\n").rules
    system = QuadSystem(QuadGraph(data), rules)
    sem = rdfs_core(True)
    result = run_chase(system, ChaseConfig(semantics=sem))
    assert result.complete
    assert built == []
    reference = naive_chase(system, ChaseConfig(semantics=sem))
    assert result.quads == reference.quads


def test_local_rules_are_compiled_once_per_closure_path(monkeypatch):
    """The Horn chain whose truth context breaks C1 closes that context
    through its compiled rules in every iteration, but compiles them
    once for iteration 0's closure and once for the iterations after
    it, not once per iteration; no other context is compiled."""
    built = _count_local_rules(monkeypatch)
    sem = rdfs_core(True)
    k = 16
    system, _ = encode_horn(_horn_chain(k))
    local = [Quad(CTX_TRUE, TRUTH_CLASS, RDFS_SUBCLASSOF, iri("C0")),
             Quad(CTX_TRUE, iri("isA"), RDFS_SUBPROPERTYOF, RDF_TYPE),
             Quad(CTX_TRUE, iri("e0"), iri("isA"), iri("C0"))]
    system = QuadSystem(QuadGraph([*system.quads, *local]), system.rules)
    result = run_chase(system, ChaseConfig(semantics=sem))
    assert result.complete and len(result.iteration_log) == k + 1
    assert Quad(CTX_TRUE, iri("f"), RDF_TYPE, iri("C0")) in result.quads
    assert built == [CTX_TRUE] * (2 * len(sem.rules))


def test_constraints_check_each_added_quad_once(monkeypatch):
    """A copy chain with an existential rule and a constraint: each
    constraint check joins through the quads added since the last one,
    so the checks of the run tile the graph's log, and the chase is the
    naive one."""
    checked = []
    check = chase_module.check_constraints

    def recorded(constraints, graph, mark=0):
        checked.append((mark, len(graph)))
        return check(constraints, graph, mark)

    monkeypatch.setattr(chase_module, "check_constraints", recorded)
    c = [iri("ctx%d" % i) for i in range(4)]
    data = QuadGraph(Quad(c[0], iri("e%d" % i), iri("knows"),
                          iri("e%d" % (i + 1))) for i in range(20))
    rules = parse_rules(
        "c01: <ctx0>(?s, ?p, ?o) -> <ctx1>(?s, ?p, ?o) .\n"
        "c12: <ctx1>(?s, ?p, ?o) -> <ctx2>(?s, ?p, ?o) .\n"
        "c23: <ctx2>(?s, ?p, ?o) -> <ctx3>(?s, ?p, ?o) .\n"
        "pet: <ctx3>(?x, <knows>, ?y) -> <out>(?x, <hasPet>, ?z) .\n"
        "k: <out>(?x, <hasPet>, ?x) -> .\n").rules
    system = QuadSystem(data, rules)
    result = run_chase(system)
    assert result.complete and len(result.quads) == 100
    reference = naive_chase(system, ChaseConfig())
    assert (result.quads, result.status, result.iteration_log) \
        == (reference.quads, reference.status, reference.iteration_log)
    assert checked[0] == (0, len(data))
    assert all(a[1] == b[0] for a, b in zip(checked, checked[1:]))
    assert checked[-1][1] == len(result.quads), checked
