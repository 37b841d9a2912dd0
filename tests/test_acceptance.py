"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import os
import random
import subprocess
import sys
import time
import warnings

import pytest

import quadchase
from quadchase.chase import (
    BUDGET_EXHAUSTED,
    COMPLETE,
    ChaseConfig,
    GENERATING,
    run_chase,
    saturation_report,
)
from quadchase.cli import main as cli_main
from quadchase.contextgraph import (
    build_dependency_graph,
    compute_levels,
    is_context_acyclic,
)
from quadchase.query import PartialChaseWarning, entails_boolean
from quadchase.reductions.cfg import (
    CFG,
    cfg_intersection_oracle,
    encode_cfg_pair,
)
from quadchase.reductions.dtm import (
    CELL_CLASS,
    DTM,
    dtm_oracle,
    element_context,
    encode_dtm,
    encoding_bounds,
)
from quadchase.reductions.horn import HornClause, encode_horn, \
    horn_sat_oracle
from quadchase.semantics import lclosure_quadgraph, rdfs_core
from quadchase.syntax import parse_nquads, serialize_nquads
from quadchase.terms import QuadGraph, iri, skolem_constant
from quadchase.vocab import RDF_TYPE

from conftest import FIXTURES, load_system
from oracles import (
    exhaustive_entails,
    random_acyclic_system,
    random_boolean_query,
    random_quadgraph,
    random_rule,
)

RDFS_FULL = rdfs_core(resource_rule=True)


class Timer:
    def __init__(self, budget_seconds):
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.budget, \
                "ran %.2fs, budget %.2fs" % (self.elapsed, self.budget)
        return False


_REPORTS = []


@pytest.fixture(autouse=True)
def _emit_reports(capsys):
    """One visible PASS line per criterion, even under output capture."""
    _REPORTS.clear()
    yield
    if _REPORTS:
        with capsys.disabled():
            for line in _REPORTS:
                print(line)


def report(n, timer, detail):
    _REPORTS.append("acceptance criterion %d: PASS (%.2fs) - %s"
                    % (n, timer.elapsed, detail))


def test_criterion_1_example1_check(capsys):
    with Timer(1.0) as t:
        code = cli_main(["check", str(FIXTURES / "example1.nq"),
                         str(FIXTURES / "example1.qrules")])
        out = capsys.readouterr().out
        assert code == 1
        assert "triple-generating contexts: {c2}" in out
        assert "context acyclic: no" in out
        assert "(c1, c2, c1)" in out
    report(1, t, "not context acyclic, TGC {c2}, witness (c1, c2, c1)")


def test_criterion_2_fig3_levels_and_schedule():
    with Timer(1.0) as t:
        system = load_system("fig3.nq", "fig3.qrules")
        graph = build_dependency_graph(system)
        levels = compute_levels(graph)
        named = {c.lexical: lvl for c, lvl in levels.levels.items()}
        assert named == {"c2": 0, "c4": 0, "c1": 1, "c3": 2}
        result = run_chase(system, ChaseConfig())
        assert result.complete
        assert result.generating_iterations <= 3
        assert result.levels == levels
        sat = saturation_report(result)
        assert sat.schedule_ok, sat.problems
    report(2, t, "levels c2=0 c4=0 c1=1 c3=2; %d generating iterations; "
                 "saturation schedule holds" % result.generating_iterations)


def test_criterion_3_nontermination_witness():
    with Timer(10.0) as t:
        system = load_system("example1.nq", "example1.qrules")
        for budget in (10, 50, 100):
            result = run_chase(system, ChaseConfig(
                semantics=RDFS_FULL, max_iterations=budget))
            assert result.status == BUDGET_EXHAUSTED
            sizes = [r.cumulative for r in result.iteration_log]
            assert len(sizes) == budget
            assert all(b > a for a, b in zip(sizes, sizes[1:])), \
                "quad counts must strictly grow"
        simple_run = run_chase(system,
                               ChaseConfig(force_unrestricted=True))
        assert simple_run.status == COMPLETE
    report(3, t, "rdfs-core run exhausts budgets 10/50/100 with strictly "
                 "growing counts; simple semantics reaches a fixpoint")


def _random_horn(rng):
    variables = ["P%d" % i for i in range(rng.randrange(1, 13))]
    pool = variables + ["t", "f"]
    return [HornClause(rng.choice(pool), rng.choice(pool),
                       rng.choice(pool))
            for _ in range(rng.randrange(21))]


def test_criterion_4_horn_differential():
    rng = random.Random(34001)
    disagreements = 0
    with Timer(30.0) as t:
        for _ in range(200):
            clauses = _random_horn(rng)
            system, query = encode_horn(clauses)
            result = run_chase(system)
            assert result.complete
            entailed = entails_boolean(result, query)
            unsat = not horn_sat_oracle(clauses).satisfiable
            if entailed != unsat:
                disagreements += 1
        assert disagreements == 0
    report(4, t, "200 random 3Horn instances, 0 disagreements")


def _random_cfg(rng, prefix, terminals):
    variables = ["%s%d" % (prefix, i) for i in range(rng.randrange(1, 3))]
    prods = [(rng.choice(variables),
              tuple(rng.choice(variables + terminals)
                    for _ in range(rng.randrange(1, 4))))
             for _ in range(rng.randrange(1, 5))]
    prods.append((variables[0], (rng.choice(terminals),)))
    return CFG(frozenset(variables), frozenset(terminals), variables[0],
               tuple(prods))


def _chase_to_wave(system, waves):
    budget = 2 * waves - 1
    while True:
        result = run_chase(system, ChaseConfig(max_iterations=budget))
        gens = sum(1 for r in result.iteration_log
                   if r.kind == GENERATING)
        if gens >= waves or result.complete:
            return result, gens
        budget += 2


def test_criterion_5_cfg_differential():
    rng = random.Random(35001)
    violations = 0
    with Timer(60.0) as t:
        for _ in range(50):
            terminals = ["t1", "t2"]
            g1 = _random_cfg(rng, "A", terminals)
            g2 = _random_cfg(rng, "B", terminals)
            system, query = encode_cfg_pair(g1, g2)
            # five generating waves make length-4 chains and their full
            # production closure available before the run stops
            result, gens = _chase_to_wave(system, waves=5)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PartialChaseWarning)
                entailed = entails_boolean(result, query)
            verdict = cfg_intersection_oracle(g1, g2, max(4, gens))
            if entailed and not verdict.nonempty:
                violations += 1  # entailment must imply intersection
            if verdict.nonempty and len(verdict.witness) <= 4 \
                    and not entailed:
                violations += 1  # short witness must be entailed
        assert violations == 0
    report(5, t, "50 random grammar pairs, one-sided agreement, "
                 "0 violations")


def test_criterion_6_dtm_fixture():
    with Timer(10.0) as t:
        accepting = DTM(frozenset(["q0", "qA"]),
                        frozenset(["a", "_"]), "_",
                        {("q0", "a"): ("qA", "a", 1)}, "q0", "qA")
        system, query = encode_dtm(accepting, "a", n=1)
        graph = build_dependency_graph(system)
        assert is_context_acyclic(graph).acyclic
        result = run_chase(system)
        assert result.complete
        c1 = element_context(1)
        cells = {q.s for q in result.quads
                 if q.ctx == c1 and q.p == RDF_TYPE
                 and q.o == CELL_CLASS}
        succ1 = {(q.s, q.o) for q in result.quads
                 if q.ctx == c1 and q.p == iri("succ1")}
        assert len(cells) == 4 and len(succ1) == 3
        assert {a for a, _ in succ1} | {b for _, b in succ1} == cells
        assert entails_boolean(result, query)
        assert dtm_oracle(accepting, "a", *encoding_bounds(1)) == "accept"

        stuck = DTM(frozenset(["q0", "qA"]), frozenset(["a", "_"]), "_",
                    {("q0", "a"): ("q0", "a", 1)}, "q0", "qA")
        system2, query2 = encode_dtm(stuck, "a", n=1)
        result2 = run_chase(system2)
        assert not entails_boolean(result2, query2)
        assert dtm_oracle(stuck, "a", *encoding_bounds(1)) != "accept"
    report(6, t, "counter holds exactly 4 succ1-chained cells; both "
                 "machines match the direct simulation")


def test_criterion_7_brute_force_equivalence():
    rng = random.Random(37001)
    disagreements = 0
    with Timer(60.0) as t:
        for _ in range(300):
            system = random_acyclic_system(rng, max_contexts=4,
                                           max_rules=4, max_quads=12)
            result = run_chase(system)
            assert result.complete
            query = random_boolean_query(rng, result.quads, max_atoms=3)
            fast = entails_boolean(result, query)
            slow = exhaustive_entails(result.quads, query.atoms)
            if fast != slow:
                disagreements += 1
        assert disagreements == 0
    report(7, t, "300 random context-acyclic systems vs exhaustive "
                 "substitution oracle, 0 disagreements")


# The child process runs the sources this process imported.
_SRC = os.path.dirname(os.path.dirname(quadchase.__file__))


def _run_cli(args, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed), PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-m", "quadchase"] + args,
                          capture_output=True, env=env)
    return proc.returncode


def test_criterion_8_determinism_across_processes(tmp_path):
    horn_dir = tmp_path / "horn"
    phi = tmp_path / "phi.horn"
    phi.write_text("t -> P\nP Q -> f\nt -> Q\n")
    machine = tmp_path / "m.dtm"
    machine.write_text("states: q0 qA\nalphabet: a _\nblank: _\n"
                       "start: q0\naccept: qA\ndelta: q0 a -> qA a R\n")
    dtm_dir = tmp_path / "dtm"
    g1 = tmp_path / "g1.cfg"
    g1.write_text("S1 -> t1\nS1 -> t1 S1\n")
    g2 = tmp_path / "g2.cfg"
    g2.write_text("S2 -> t1 t1\n")
    cfg_dir = tmp_path / "cfg"
    assert _run_cli(["encode", "horn", str(phi), "-o", str(horn_dir)],
                    0) == 0
    assert _run_cli(["encode", "dtm", str(machine), "--input", "a",
                     "--n", "1", "-o", str(dtm_dir)], 0) == 0
    assert _run_cli(["encode", "cfg", str(g1), str(g2), "-o",
                     str(cfg_dir)], 0) == 0

    fixture_runs = [
        (["chase", str(FIXTURES / "example1.nq"),
          str(FIXTURES / "example1.qrules"), "--force-unrestricted"], 0),
        (["chase", str(FIXTURES / "example1.nq"),
          str(FIXTURES / "example1.qrules"), "--local-semantics",
          "rdfs-core", "--max-iterations", "25"], 3),
        (["chase", str(FIXTURES / "fig3.nq"),
          str(FIXTURES / "fig3.qrules")], 0),
        (["chase", str(horn_dir / "system.nq"),
          str(horn_dir / "rules.qrules")], 0),
        (["chase", str(dtm_dir / "system.nq"),
          str(dtm_dir / "rules.qrules")], 0),
        (["chase", str(cfg_dir / "system.nq"),
          str(cfg_dir / "rules.qrules"), "--max-iterations", "12"], 3),
    ]
    with Timer(120.0) as t:
        for k, (args, want_code) in enumerate(fixture_runs):
            outputs = []
            for run_i, hashseed in enumerate((11, 3677)):
                out = tmp_path / ("out_%d_%d.nq" % (k, run_i))
                code = _run_cli(args + ["-o", str(out)], hashseed)
                assert code == want_code, (args, code)
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], \
                "fixture %d not byte-identical across processes" % k
    report(8, t, "%d fixture chases byte-identical across independent "
                 "processes (different hash seeds)" % len(fixture_runs))


def test_criterion_9_invariant_suites():
    rng = random.Random(39001)
    with Timer(120.0) as t:
        # lclosure: idempotence, monotonicity, context isolation
        for _ in range(1000):
            g = random_quadgraph(rng, max_quads=10)
            closed = lclosure_quadgraph(g, RDFS_FULL)
            assert lclosure_quadgraph(closed, RDFS_FULL) == closed
            sub = QuadGraph(list(g)[: len(g) // 2])
            assert lclosure_quadgraph(sub, RDFS_FULL).quads \
                <= closed.quads
            for ctx in g.contexts():
                alone = QuadGraph(q for q in g if q.ctx is ctx)
                assert lclosure_quadgraph(alone, RDFS_FULL).quads \
                    == {q for q in closed if q.ctx is ctx}

        # parse/serialize round trip on graphs of up to 50 quads
        for _ in range(1000):
            g = random_quadgraph(rng, max_quads=50, n_contexts=4)
            assert parse_nquads(serialize_nquads(g)) == g

        # rule-variable partition on random rules
        contexts = [iri("g%d" % i) for i in range(3)]
        for i in range(300):
            rule = random_rule(rng, "r%d" % i, contexts)
            x, y, z = (rule.frontier_variables(),
                       rule.existential_variables(),
                       rule.body_variables() - rule.head_variables())
            assert x | y | z == rule.body_variables() \
                | rule.head_variables()
            assert not (x & y or x & z or y & z)

        # skolem determinism and distinctness
        assert skolem_constant("rA", 0, [iri("a")]) \
            is skolem_constant("rA", 0, [iri("a")])
        labels = {skolem_constant("rA", i, [iri("a%d" % j)]).lexical
                  for i in range(3) for j in range(5)}
        assert len(labels) == 15

        # chase growth, schedule, generating-iteration bounds
        for _ in range(60):
            system = random_acyclic_system(rng)
            result = run_chase(system, ChaseConfig())
            assert result.complete
            sizes = [r.cumulative for r in result.iteration_log]
            assert all(b >= a for a, b in zip(sizes, sizes[1:]))
            for rec in result.iteration_log[:-1]:
                assert rec.new_quads > 0
            assert result.iteration_log[-1].kind == GENERATING
            assert result.iteration_log[-1].new_quads == 0
            levels = compute_levels(build_dependency_graph(system))
            assert result.generating_iterations <= levels.max_level + 1
            assert result.generating_iterations \
                <= len(system.contexts())
            assert result.levels == levels
            sat = saturation_report(result)
            assert sat.schedule_ok, sat.problems
    report(9, t, "lclosure x1000, round-trip x1000, partition x300, "
                 "skolem identity, chase growth/schedule/bounds x60")
