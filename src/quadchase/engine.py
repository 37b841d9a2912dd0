"""Bridge rules, skolemization, and the rule-application operator.

A bridge rule is a forall-existential implication between conjunctions of
quad patterns across contexts.  For evaluation, each rule is skolemized
(existential variables become deterministic skolem functions over the
frontier variables) and normalized to single-head form; a rule whose head
mentions a skolem function is *generating*, the rest are *non-generating*.
Empty-head rules are constraints: a body match signals inconsistency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from .terms import (
    BLANK,
    Constant,
    SKOLEM,
    Quad,
    QuadGraph,
    QuadPattern,
    QuadStore,
    Substitution,
    Term,
    Variable,
    quad_graph_size,
    skolem_constant,
)


class RuleError(ValueError):
    """Ill-formed bridge rule."""


@dataclass(frozen=True)
class BridgeRule:
    """A forall-existential rule between quad patterns.

    Variables partition into frontier (body and head), existential
    (head only), and body-only; patterns must not contain blank nodes.
    An empty head makes the rule a constraint.
    """

    rule_id: str
    body: tuple[QuadPattern, ...]
    head: tuple[QuadPattern, ...]

    def __post_init__(self) -> None:
        if not self.rule_id:
            raise RuleError("rules need a nonempty id")
        if not self.body:
            raise RuleError("rule %s: empty body" % self.rule_id)
        for pat in self.body + self.head:
            for t in (pat.s, pat.p, pat.o):
                if isinstance(t, Constant) and t.kind in (BLANK, SKOLEM):
                    raise RuleError(
                        "rule %s: blank node %s in pattern"
                        % (self.rule_id, t.canonical))

    @property
    def is_constraint(self) -> bool:
        return not self.head

    def body_variables(self) -> set[Variable]:
        out: set[Variable] = set()
        for pat in self.body:
            out |= pat.variables()
        return out

    def head_variables(self) -> set[Variable]:
        out: set[Variable] = set()
        for pat in self.head:
            out |= pat.variables()
        return out

    def frontier_variables(self) -> set[Variable]:
        return self.body_variables() & self.head_variables()

    def existential_variables(self) -> set[Variable]:
        return self.head_variables() - self.body_variables()

    def body_only_variables(self) -> set[Variable]:
        return self.body_variables() - self.head_variables()

    def frontier_vector(self) -> tuple[Variable, ...]:
        """Frontier variables in order of first occurrence in the body.

        This order is the (fixed) argument order of every skolem function
        of the rule.
        """
        frontier = self.frontier_variables()
        seen: list[Variable] = []
        for pat in self.body:
            for t in (pat.s, pat.p, pat.o):
                if isinstance(t, Variable) and t in frontier \
                        and t not in seen:
                    seen.append(t)
        return tuple(seen)

    def existential_vector(self) -> tuple[Variable, ...]:
        """Existential variables in order of first occurrence in the head."""
        existential = self.existential_variables()
        seen: list[Variable] = []
        for pat in self.head:
            for t in (pat.s, pat.p, pat.o):
                if isinstance(t, Variable) and t in existential \
                        and t not in seen:
                    seen.append(t)
        return tuple(seen)

    def contexts(self) -> set[Constant]:
        return {pat.ctx for pat in self.body + self.head}


@dataclass(frozen=True)
class SkolemTerm:
    """A skolem function application f_i^r(x...) inside a rule head."""

    rule_id: str
    fn_index: int
    args: tuple[Variable, ...]


HeadTerm = Union[Constant, Variable, SkolemTerm]


@dataclass(frozen=True)
class SkolemAtom:
    """A single head quad pattern whose terms may be skolem applications."""

    ctx: Constant
    s: HeadTerm
    p: HeadTerm
    o: HeadTerm

    def terms(self) -> tuple[HeadTerm, HeadTerm, HeadTerm]:
        return (self.s, self.p, self.o)

    def is_ground(self) -> bool:
        return all(isinstance(t, Constant) for t in self.terms())

    def has_function(self) -> bool:
        return any(isinstance(t, SkolemTerm) for t in self.terms())


@dataclass(frozen=True)
class SkolemRule:
    """A skolemized single-head rule.

    ``head_index`` records which head atom of the origin rule this is;
    the (rule_id, head_index) pair identifies the normalized rule.
    """

    rule_id: str
    head_index: int
    body: tuple[QuadPattern, ...]
    head: SkolemAtom

    @property
    def is_generating(self) -> bool:
        return self.head.has_function()

    def size(self) -> int:
        return 4 * (len(self.body) + 1)


def rule_size(r: Union[BridgeRule, SkolemRule]) -> int:
    """Symbol size of a rule: four symbols per quad pattern."""
    if isinstance(r, SkolemRule):
        return r.size()
    return 4 * (len(r.body) + len(r.head))


@dataclass(frozen=True)
class QuadSystem:
    """A quad-graph together with its bridge rules."""

    quads: QuadGraph
    rules: tuple[BridgeRule, ...]

    def contexts(self) -> set[Constant]:
        out = self.quads.contexts()
        for r in self.rules:
            out |= r.contexts()
        return out

    def bridge_rules(self) -> list[BridgeRule]:
        return [r for r in self.rules if not r.is_constraint]

    def constraints(self) -> list[BridgeRule]:
        return [r for r in self.rules if r.is_constraint]


def quad_system_size(qs: QuadSystem) -> int:
    return quad_graph_size(qs.quads) + sum(rule_size(r) for r in qs.rules)


def symbol_size(x: Union[QuadGraph, BridgeRule, SkolemRule,
                         QuadSystem]) -> int:
    """Number of symbols needed to print the object."""
    if isinstance(x, QuadGraph):
        return quad_graph_size(x)
    if isinstance(x, (BridgeRule, SkolemRule)):
        return rule_size(x)
    if isinstance(x, QuadSystem):
        return quad_system_size(x)
    raise TypeError("no symbol size for %r" % (x,))


def skolemize(rule: BridgeRule) -> list[SkolemRule]:
    """Skolemize and normalize a rule to single-head form.

    Every existential variable y_i is replaced by the application of the
    rule's i-th skolem function to the full frontier vector, then the
    (shared-body) head splits into one rule per head atom.  Constraints
    are not skolemized; they stay as checks.
    """
    if rule.is_constraint:
        raise RuleError("constraint rules have no skolemization")
    frontier = rule.frontier_vector()
    fn_of = {y: SkolemTerm(rule.rule_id, i, frontier)
             for i, y in enumerate(rule.existential_vector())}

    def convert(t: Term) -> HeadTerm:
        if isinstance(t, Variable) and t in fn_of:
            return fn_of[t]
        return t

    out = []
    for i, pat in enumerate(rule.head):
        atom = SkolemAtom(pat.ctx, convert(pat.s), convert(pat.p),
                          convert(pat.o))
        out.append(SkolemRule(rule.rule_id, i, rule.body, atom))
    return out


def skolemize_all(rules: Iterable[BridgeRule]
                  ) -> tuple[list[SkolemRule], list[SkolemRule],
                             list[BridgeRule]]:
    """Split a rule set into (non-generating, generating, constraints)."""
    non_gen: list[SkolemRule] = []
    gen: list[SkolemRule] = []
    constraints: list[BridgeRule] = []
    for r in rules:
        if r.is_constraint:
            constraints.append(r)
            continue
        for sk in skolemize(r):
            (gen if sk.is_generating else non_gen).append(sk)
    return non_gen, gen, constraints


def _resolve(t: Term, binding: Substitution) -> Optional[Constant]:
    if isinstance(t, Constant):
        return t
    return binding.get(t)


def _extend(pat: QuadPattern, quad: Quad, bound: Substitution,
            no_skolem: frozenset[Variable] = frozenset()
            ) -> Optional[Substitution]:
    """``bound`` extended to map the triple of ``pat`` onto ``quad``'s, or
    None when they clash."""
    new = dict(bound)
    _, s, p, o = quad
    for t, v in ((pat.s, s), (pat.p, p), (pat.o, o)):
        if isinstance(t, Variable):
            seen = new.get(t)
            if seen is None:
                if t in no_skolem and v.is_skolem():
                    return None
                new[t] = v
            elif seen is not v:
                return None
        elif t is not v:
            return None
    return new


def match_patterns(qg: Union[QuadGraph, QuadStore],
                   patterns: Iterable[QuadPattern],
                   binding: Optional[Substitution] = None,
                   no_skolem: frozenset[Variable] = frozenset()
                   ) -> Iterator[Substitution]:
    """All substitutions grounding every pattern into ``qg``.

    Backtracking join, picking the most constrained remaining atom first
    (smallest index bucket under the current binding).  Variables listed
    in ``no_skolem`` never bind to skolem blank nodes.  The result is
    independent of atom order.
    """
    remaining = list(patterns)
    base: Substitution = dict(binding) if binding else {}

    def step(atoms: list[QuadPattern], bound: Substitution
             ) -> Iterator[Substitution]:
        if not atoms:
            yield dict(bound)
            return
        best_i = 0
        best_count = None
        for i, pat in enumerate(atoms):
            count = qg.candidate_count(
                pat.ctx,
                _resolve(pat.s, bound),
                _resolve(pat.p, bound),
                _resolve(pat.o, bound))
            if best_count is None or count < best_count:
                best_i, best_count = i, count
                if count == 0:
                    break
        pat = atoms[best_i]
        rest = atoms[:best_i] + atoms[best_i + 1:]
        for quad in qg.candidates(pat.ctx,
                                  _resolve(pat.s, bound),
                                  _resolve(pat.p, bound),
                                  _resolve(pat.o, bound)):
            new = _extend(pat, quad, bound, no_skolem)
            if new is not None:
                yield from step(rest, new)

    return step(remaining, base)


class _Delta:
    """Quads added since a rule set was last evaluated, as a set and
    bucketed by context and by (context, predicate).  Each quad is
    bucketed once, as ``_groundings`` compares bucket sizes with those of
    the graph."""

    __slots__ = ("by_ctx", "by_ctx_p", "quads")

    def __init__(self, quads: Iterable[Quad]) -> None:
        self.by_ctx: dict[Constant, list[Quad]] = {}
        self.by_ctx_p: dict[tuple, list[Quad]] = {}
        self.quads: set[Quad] = set()
        for q in quads:
            if q not in self.quads:
                self.quads.add(q)
                ctx, _, p, _ = q
                self.by_ctx.setdefault(ctx, []).append(q)
                self.by_ctx_p.setdefault((ctx, p), []).append(q)

    def holds(self, pat: QuadPattern, mu: Substitution) -> bool:
        """Whether ``pat`` grounded by ``mu`` is a delta quad (a quad
        equals its plain tuple)."""
        return (pat.ctx, mu.get(pat.s, pat.s), mu.get(pat.p, pat.p),
                mu.get(pat.o, pat.o)) in self.quads


def _groundings(body: tuple[QuadPattern, ...],
                qg: Union[QuadGraph, QuadStore],
                delta: Optional[_Delta]) -> Iterator[Substitution]:
    """Body groundings into ``qg``; with a delta, only those that map
    some atom to a delta quad, each once.

    Atom ``i`` is unified with each delta quad of its context (and
    predicate, when that is a constant) in turn, and the rest of the body
    is joined over ``qg``.  A grounding that also maps an earlier atom
    into the delta was already yielded for that atom; so once every quad
    of ``qg`` an atom could match is a delta quad, later atoms yield
    nothing new.
    """
    if delta is None:
        yield from match_patterns(qg, body)
        return
    for atom in body:
        if not qg.candidate_count(atom.ctx, _resolve(atom.s, {}),
                                  _resolve(atom.p, {}),
                                  _resolve(atom.o, {})):
            return  # no grounding at all: the delta is part of qg
    for i, atom in enumerate(body):
        rest = body[:i] + body[i + 1:]
        p = _resolve(atom.p, {})
        fresh = (delta.by_ctx.get(atom.ctx, []) if p is None
                 else delta.by_ctx_p.get((atom.ctx, p), []))
        for quad in fresh:
            mu = _extend(atom, quad, {})
            if mu is None:
                continue
            for full in match_patterns(qg, rest, mu):
                if not any(delta.holds(a, full) for a in body[:i]):
                    yield full
        if len(fresh) == qg.candidate_count(atom.ctx, None, p, None):
            return


def instantiate_head(atom: SkolemAtom, binding: Substitution) -> Quad:
    """Ground a skolemized head atom, evaluating skolem applications."""

    def ground(t: HeadTerm) -> Constant:
        if isinstance(t, Constant):
            return t
        if isinstance(t, Variable):
            try:
                return binding[t]
            except KeyError:
                raise RuleError("unbound head variable ?%s" % t.name)
        return skolem_constant(t.rule_id, t.fn_index,
                               [binding[a] for a in t.args])

    return Quad(atom.ctx, ground(atom.s), ground(atom.p), ground(atom.o))


def apply_rule(rule: SkolemRule, qg: QuadGraph) -> QuadGraph:
    """The head instances of every body grounding into ``qg``.

    Exactly the derived set: quads of ``qg`` appear in the result only if
    they happen to be head instances.
    """
    return QuadGraph(derive([rule], qg))


def apply_ruleset(rules: Sequence[SkolemRule], qg: QuadGraph) -> QuadGraph:
    """Union of per-rule applications; rule order never matters."""
    return QuadGraph(derive(rules, qg))


def derive(rules: Sequence[SkolemRule], qg: Union[QuadGraph, QuadStore],
           delta: Optional[Iterable[Quad]] = None) -> set[Quad]:
    """Set-level rule application.

    Without ``delta``, the head instances of every body grounding into
    ``qg``.  With ``delta`` (quads of ``qg``, typically those added since
    the rules were last applied), only those of groundings that use at
    least one delta quad: semi-naive evaluation, which misses nothing new
    when every other grounding's head is already in ``qg``.  A delta run
    also skips a rule whose ground head is already in ``qg``.
    """
    out: set[Quad] = set()
    if not rules:
        return out
    fresh = None if delta is None else _Delta(delta)
    for rule in rules:
        if rule.head.is_ground():
            head = instantiate_head(rule.head, {})
            if fresh is None or head not in qg:
                # single possible output; one body match decides it
                for _ in _groundings(rule.body, qg, fresh):
                    out.add(head)
                    break
            continue
        for mu in _groundings(rule.body, qg, fresh):
            out.add(instantiate_head(rule.head, mu))
    return out


@dataclass(frozen=True)
class Violation:
    """A constraint body grounded into the data."""

    rule_id: str
    binding: tuple[tuple[Variable, Constant], ...]

    @classmethod
    def from_mapping(cls, rule_id: str, mu: Substitution) -> "Violation":
        items = tuple(sorted(mu.items(), key=lambda kv: kv[0].name))
        return cls(rule_id, items)


def check_constraints(constraints: Sequence[BridgeRule],
                      qg: Union[QuadGraph, QuadStore],
                      delta: Optional[Iterable[Quad]] = None
                      ) -> list[Violation]:
    """Every grounding of an empty-head rule body is a violation.

    With ``delta``, only groundings that use a delta quad are checked:
    all of them when ``qg`` without the delta violated nothing.
    """
    found: list[Violation] = []
    if not constraints:
        return found
    fresh = None if delta is None else _Delta(delta)
    for rule in constraints:
        if not rule.is_constraint:
            raise RuleError("rule %s is not a constraint" % rule.rule_id)
        for mu in _groundings(rule.body, qg, fresh):
            found.append(Violation.from_mapping(rule.rule_id, mu))
    return found
