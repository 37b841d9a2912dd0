"""The distributed skolem chase: iterated local closure + rule application.

Iteration 0 is the local closure of the input quads.  Each later
iteration applies the non-generating rules if they derive anything new,
otherwise the generating rules, then closes locally again; a generating
iteration that derives nothing is the fixpoint and ends the run.  This
all-of-R-at-once schedule is what makes the saturation bounds hold: a
context-acyclic system finishes within max-level + 1 generating
iterations (the last one vacuous), never more than its context count.

Evaluation is semi-naive over one quad-graph, indexed as it grows and
returned as the result: each rule group and the constraints join only
through the quads added since they last ran, and the local closure only
through the quads the iteration added, so an iteration's work follows
what it adds rather than the size of the whole graph.  What was added
since is named by a mark, the graph size they last saw, and never
copied.  A context the iteration fills with exactly the triples of a
context it left alone is already closed, and its closure is skipped.
Under rdfs-core, a context the iteration fills from empty (every
context, in iteration 0) is closed in one pass by the direct procedure
of ``semantics`` when its own triples meet that procedure's conditions
C1-C3; every other context runs the semantics' rules, compiled per
context onto the same join.
The schedule and the output are those of re-running every rule over the
whole graph and re-closing it from scratch.  ``derive`` returns only the
quads it adds, and every iteration's record counts them per context.
Every rule body is grounded by the engine's one join; a rule that
copies or projects one context into another (one body atom, no skolem
function in its head) gets each head from it as the quad the grounding
gives, with no head built per grounding, and each round's quads go into
the graph with one bulk ``QuadGraph.extend``.

Constraints (empty-head rules) are checked after every iteration's
closure; the first violation stops the run with an inconsistent status.
Non-context-acyclic systems are refused unless a budget (iteration or
quad cap) or the force flag makes the possible divergence explicit.
"""

from __future__ import annotations

from typing import Optional

from .contextgraph import (
    LevelMap,
    build_dependency_graph,
    compute_levels,
    is_context_acyclic,
)
from .engine import (
    QuadSystem,
    Violation,
    check_constraints,
    derive,
    skolemize_all,
)
from .semantics import (SIMPLE, LocalSemantics, close, lclosure_quadgraph,
                        local_rules)
from .terms import Constant, FrozenRecord, QuadGraph

COMPLETE = "complete"
BUDGET_EXHAUSTED = "budget-exhausted"
INCONSISTENT = "inconsistent"

NON_GENERATING = "non-generating"
GENERATING = "generating"


class BudgetRequiredError(ValueError):
    """Non-context-acyclic input without a budget or force flag."""

    def __init__(self, witness_text: str) -> None:
        self.witness_text = witness_text
        super().__init__(
            "quad-system is not context acyclic (witness cycle %s); "
            "set an iteration or quad budget, or force an unrestricted run"
            % witness_text)


class ScheduleInvariantError(RuntimeError):
    """A proven bound failed at runtime; indicates an engine bug."""


class ChaseConfig(FrozenRecord):
    semantics: LocalSemantics = SIMPLE
    max_iterations: Optional[int] = None
    max_quads: Optional[int] = None
    force_unrestricted: bool = False

    def __post_init__(self) -> None:
        for name in ("max_iterations", "max_quads"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError("%s must not be negative, got %d"
                                 % (name, value))

    def has_budget(self) -> bool:
        return self.max_iterations is not None or self.max_quads is not None


class IterationRecord(FrozenRecord):
    index: int
    kind: str
    new_quads: int
    cumulative: int
    per_context: dict[Constant, int]


class ChaseResult(FrozenRecord):
    """The record of one run.  ``levels`` is the level map of a
    context-acyclic system, None for any other."""

    quads: QuadGraph
    status: str
    iteration_log: tuple[IterationRecord, ...]
    generating_iterations: int
    violations: list[Violation]
    levels: Optional[LevelMap] = None

    @property
    def complete(self) -> bool:
        return self.status == COMPLETE


def run_chase(system: QuadSystem,
              config: Optional[ChaseConfig] = None) -> ChaseResult:
    """Materialize the chase of a quad-system under the given config."""
    cfg = config or ChaseConfig()
    graph = build_dependency_graph(system)
    verdict = is_context_acyclic(graph)
    if not verdict.acyclic and not cfg.has_budget() \
            and not cfg.force_unrestricted:
        raise BudgetRequiredError(verdict.witness_text())
    levels: Optional[LevelMap] = None
    if verdict.acyclic:
        levels = compute_levels(graph)

    non_gen, gen, constraints = skolemize_all(system.rules)
    local = local_rules(cfg.semantics, graph.nodes)
    qg = lclosure_quadgraph(system.quads, cfg.semantics)
    log: list[IterationRecord] = []
    gen_count = 0

    violations = check_constraints(constraints, qg)
    if violations:
        return ChaseResult(qg, INCONSISTENT, tuple(log), 0, violations,
                           levels)

    # Graph sizes when each rule group last saw the graph: the next
    # evaluation only joins through what came after.
    non_gen_mark = gen_mark = 0
    status = COMPLETE
    index = 0
    while True:
        if cfg.max_iterations is not None and index >= cfg.max_iterations:
            status = BUDGET_EXHAUSTED
            break
        index += 1
        before = len(qg)
        new = derive(non_gen, qg, non_gen_mark)
        non_gen_mark = before
        kind = NON_GENERATING
        if not new:
            kind = GENERATING
            gen_count += 1
            new = derive(gen, qg, gen_mark)
            gen_mark = before
            if not new:
                log.append(IterationRecord(index, kind, 0, before, {}))
                break
        qg.extend(new)
        close(qg, cfg.semantics, local, before)
        per_context: dict[Constant, int] = {}
        for q in qg.log[before:]:
            per_context[q[0]] = per_context.get(q[0], 0) + 1
        log.append(IterationRecord(index, kind, len(qg) - before, len(qg),
                                   per_context))
        # the constraints last saw the graph at ``before``
        violations = check_constraints(constraints, qg, before)
        if violations:
            status = INCONSISTENT
            break
        if cfg.max_quads is not None and len(qg) > cfg.max_quads:
            status = BUDGET_EXHAUSTED
            break

    if status == COMPLETE and levels is not None:
        bound = levels.max_level + 1
        n_contexts = len(graph.nodes) or 1
        if gen_count > bound or gen_count > n_contexts:
            raise ScheduleInvariantError(
                "complete acyclic run used %d generating iterations; "
                "bound is min(max level + 1 = %d, contexts = %d)"
                % (gen_count, bound, n_contexts))
    return ChaseResult(qg, status, tuple(log), gen_count, violations, levels)


def entailment_closure_check(result: ChaseResult,
                             system: QuadSystem) -> bool:
    """True iff the chase output satisfies every rule operationally:
    each body grounding's head instance is already present."""
    if not result.complete:
        raise ValueError("closure check needs a complete chase")
    non_gen, gen, _ = skolemize_all(system.rules)
    return not derive(non_gen + gen, result.quads)


class SaturationReport(FrozenRecord):
    """Earliest iteration after which each context stopped growing,
    checked against the level schedule (level-k contexts must be
    saturated before the (k+1)-th generating iteration)."""

    saturation: dict[Constant, int]
    generating_indices: list[int]
    schedule_ok: bool
    problems: list[str]


def saturation_report(result: ChaseResult) -> SaturationReport:
    """The report of a complete run of a context-acyclic system, from the
    level map it carries; that map has every context of the system."""
    levels = result.levels
    if not result.complete or levels is None:
        raise ValueError("saturation report needs a complete chase of a "
                         "context-acyclic system")
    last_add: dict[Constant, int] = {c: 0 for c in levels.levels}
    for rec in result.iteration_log:  # in index order
        for ctx in rec.per_context:
            last_add[ctx] = rec.index
    gen_indices = [rec.index for rec in result.iteration_log
                   if rec.kind == GENERATING]
    problems: list[str] = []
    for ctx, level in levels.levels.items():
        if level < len(gen_indices):
            deadline = gen_indices[level]  # (level+1)-th generating index
            if last_add.get(ctx, 0) >= deadline:
                problems.append(
                    "level-%d context %s still grew at iteration %d, on or "
                    "after generating iteration #%d (index %d)"
                    % (level, ctx.lexical, last_add[ctx],
                       level + 1, deadline))
    return SaturationReport(last_add, gen_indices, not problems, problems)
