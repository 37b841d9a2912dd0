"""Conjunctive query answering over a materialized chase.

Boolean entailment is a homomorphism check from the query atoms into the
chase; answer enumeration binds the free variables.  Free variables only
range over non-skolem constants (skolem blanks are labelled nulls, not
certain individuals); quantified variables may bind anything, skolem
blanks included.

Results over a partial (budget-exhausted) chase are sound for "true" and
for returned tuples, but "false"/absence is inconclusive: a warning is
emitted and answer sets carry ``complete=False``.  After an
inconsistency, every query is entailed (ex falso), again with a warning.
"""

from __future__ import annotations

import itertools
import warnings

from .chase import BUDGET_EXHAUSTED, COMPLETE, INCONSISTENT, ChaseResult
from .engine import match_patterns
from .syntax import QueryDocument
from .terms import (BLANK, SKOLEM, Constant, FrozenRecord, Quad, QuadGraph,
                    QuadPattern, Term, Variable)


class PartialChaseWarning(UserWarning):
    """Query ran over a budget-exhausted chase; negatives inconclusive."""


class InconsistentSystemWarning(UserWarning):
    """Query ran over an inconsistent system; everything is entailed."""


class AnswerSet(FrozenRecord):
    variables: tuple[Variable, ...]
    tuples: frozenset[tuple[Constant, ...]]
    complete: bool

    def sorted_tuples(self) -> list[tuple[Constant, ...]]:
        # a space-joined row sorts as the tuple of its canonicals: no
        # canonical is a prefix of another followed by U+0020 or below
        return sorted(self.tuples,
                      key=lambda row: " ".join([c.canonical for c in row]))


def _flag_status(result: ChaseResult) -> None:
    if result.status == BUDGET_EXHAUSTED:
        warnings.warn(
            "chase is partial (budget exhausted): positive answers are "
            "sound, absence is inconclusive", PartialChaseWarning,
            stacklevel=3)
    elif result.status == INCONSISTENT:
        warnings.warn(
            "quad-system is inconsistent: every query is entailed",
            InconsistentSystemWarning, stacklevel=3)


def entails_boolean(result: ChaseResult, query: QueryDocument) -> bool:
    """True iff some homomorphism maps the query atoms into the chase."""
    if not query.is_boolean:
        raise ValueError("boolean entailment needs a boolean query")
    _flag_status(result)
    if result.status == INCONSISTENT:
        return True
    for _ in match_patterns(result.quads, query.atoms):
        return True
    return False


def answers(result: ChaseResult, query: QueryDocument) -> AnswerSet:
    """All certain bindings of the free variables.

    A tuple is returned when the query, grounded with it, is entailed;
    free variables never bind skolem blanks.
    """
    _flag_status(result)
    free = tuple(query.free_vars)
    if result.status == INCONSISTENT:
        universe = sorted(
            (c for c in result.quads.constants() if not c.is_skolem()),
            key=lambda c: c.canonical)
        rows = frozenset(itertools.product(universe, repeat=len(free)))
        return AnswerSet(free, rows, False)
    rows = frozenset(match_patterns(result.quads, query.atoms, free))
    return AnswerSet(free, rows, result.status == COMPLETE)


def _quad_to_atom(quad: Quad, blank_vars: dict[Constant, Variable]
                  ) -> QuadPattern:
    def conv(t: Constant) -> Term:
        if t.kind in (BLANK, SKOLEM):
            var = blank_vars.get(t)
            if var is None:
                var = Variable("blank_%d" % len(blank_vars))
                blank_vars[t] = var
            return var
        return t

    return QuadPattern(quad.ctx, conv(quad.s), conv(quad.p), conv(quad.o))


def entails_quad(result: ChaseResult, quad: Quad) -> bool:
    """Quad entailment: the single-atom boolean query, with blank nodes
    in the queried quad read as quantified variables."""
    blanks: dict[Constant, Variable] = {}
    q = QueryDocument((), (_quad_to_atom(quad, blanks),))
    return entails_boolean(result, q)


def entails_quadgraph(result: ChaseResult, qg: QuadGraph) -> bool:
    """Quad-graph entailment: the conjunction over its quads, blank
    nodes shared across quads becoming shared quantified variables."""
    if not len(qg):
        return True
    blanks: dict[Constant, Variable] = {}
    atoms = tuple(_quad_to_atom(q, blanks) for q in qg)
    return entails_boolean(result, QueryDocument((), atoms))
