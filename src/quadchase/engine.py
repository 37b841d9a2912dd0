"""Bridge rules, skolemization, and the rule-application operator.

A bridge rule is a forall-existential implication between conjunctions of
quad patterns across contexts.  For evaluation, each rule is skolemized
(existential variables become deterministic skolem functions over the
frontier variables) and normalized to single-head form; a rule whose head
mentions a skolem function is *generating*, the rest are *non-generating*.
Empty-head rules are constraints: a body match signals inconsistency.

Every rule body, constraint body and query is compiled once into a
``JoinPlan``: each variable numbered into a slot of one binding row,
each atom its context and a slot per position (a constant's slot is
bound before the join starts), and each head position a slot or a skolem
function over argument slots.  One evaluator (``evaluate``) grounds every
query, constraint and rule body but a select-project's (below), one
atom at a time: a seed atom's matching quads give the first rows,
then each later atom, in an order compiled once per seed
(``JoinPlan.order``), extends the rows through one index map of a bound
position, chosen once per step.  No step stores its rows: each streams
them to the next, and the last hands each grounding to its consumer, so
memory is bounded by one row per step and a caller that takes only the
first grounding (a boolean query) stops there.  A rule
whose body is one atom and whose head has no skolem function (a copy or
projection of one context into another) needs no join and no binding
row: it compiles to a select-project over rows (``_select_project``),
and ``_select`` keeps the quads of the atom's bucket that match its
constants and repeated variables and builds each head from the quad's
terms in one pass.  A rule compiles on first use and keeps its plan, so
a chase compiles each rule once.  A head with a skolem function keeps,
per function, the nulls it has minted, keyed by argument tuple;
``derive`` mints the argument tuples a call's groundings bring that are
not there yet in bulk, with one ``skolem_constants`` call per function,
before it instantiates the heads.

Semi-naive evaluation takes a mark into a ``QuadGraph``: the quads added
since the graph held ``mark`` quads are the tail of each index bucket,
found by binary search on their log positions, so no delta is copied.
The rule-application operator, ``derive``, returns only the head
instances that are not in the graph yet, at every mark, so it is the one
place that decides what a rule adds.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import filterfalse, repeat
from operator import add, itemgetter
from typing import Iterable, Iterator, Optional, Sequence, Union

from .terms import (
    BLANK,
    Constant,
    FrozenRecord,
    SKOLEM,
    Quad,
    QuadGraph,
    QuadPattern,
    Term,
    Variable,
    is_skolem_rule_id,
    skolem_constants,
)


class RuleError(ValueError):
    """Ill-formed bridge rule."""


class BridgeRule(FrozenRecord):
    """A forall-existential rule between quad patterns.

    Variables partition into frontier (body and head), existential
    (head only), and body-only; patterns must not contain blank nodes.
    An empty head makes the rule a constraint.  A rule with an
    existential variable names its labelled nulls after its id, so that
    id may hold only the characters ``[A-Za-z0-9_.-]``.
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
        if not is_skolem_rule_id(self.rule_id) \
                and self.existential_variables():
            raise RuleError("rule id %r of a rule with an existential "
                            "variable holds a character outside "
                            "[A-Za-z0-9_.-]" % self.rule_id)

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

    def frontier_vector(self) -> tuple[Variable, ...]:
        """Frontier variables in order of first occurrence in the body.

        This order is the (fixed) argument order of every skolem function
        of the rule.
        """
        return _first_occurrences(self.body, self.frontier_variables())

    def existential_vector(self) -> tuple[Variable, ...]:
        """Existential variables in order of first occurrence in the head."""
        return _first_occurrences(self.head, self.existential_variables())

    def contexts(self) -> set[Constant]:
        return {pat.ctx for pat in self.body + self.head}

    @cached_property
    def plan(self) -> "JoinPlan":
        """The body compiled for the join (constraints use it)."""
        return JoinPlan(self.body)


def _first_occurrences(patterns: tuple[QuadPattern, ...],
                       among: set[Variable]) -> tuple[Variable, ...]:
    """The variables of ``among`` in order of first occurrence in
    ``patterns``."""
    return tuple(dict.fromkeys(t for pat in patterns
                               for t in (pat.s, pat.p, pat.o) if t in among))


class SkolemTerm(FrozenRecord):
    """A skolem function application f_i^r(x...) inside a rule head."""

    rule_id: str
    fn_index: int
    args: tuple[Variable, ...]


HeadTerm = Union[Constant, Variable, SkolemTerm]


class SkolemAtom(FrozenRecord):
    """A single head quad pattern whose terms may be skolem applications."""

    ctx: Constant
    s: HeadTerm
    p: HeadTerm
    o: HeadTerm

    def terms(self) -> tuple[HeadTerm, HeadTerm, HeadTerm]:
        return (self.s, self.p, self.o)

    def has_function(self) -> bool:
        return any(isinstance(t, SkolemTerm) for t in self.terms())


class SkolemRule(FrozenRecord):
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

    @cached_property
    def plan(self) -> "JoinPlan":
        """The body and head compiled for the join, once per rule."""
        return JoinPlan(self.body, self.head)


class QuadSystem(FrozenRecord):
    """A quad-graph together with its bridge rules.

    Rule ids are distinct: a rule's labelled nulls are named after its
    id, so two rules with one id would share their nulls.
    """

    quads: QuadGraph
    rules: tuple[BridgeRule, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for r in self.rules:
            if r.rule_id in seen:
                raise RuleError("duplicate rule id %r" % r.rule_id)
            seen.add(r.rule_id)

    def contexts(self) -> set[Constant]:
        out = self.quads.contexts()
        for r in self.rules:
            out |= r.contexts()
        return out


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


class JoinPlan:
    """A conjunction of quad patterns, and optionally a rule head,
    compiled for the join.

    Every variable gets a slot in one binding list, and so does every
    distinct constant (bound before the join starts) and every skolem
    application of the head (bound when the head is instantiated).
    Variable slots come first, in ``variables`` order.  A body atom is
    its context and the slots of its three positions, so a position's
    key is one list read and ``None`` means unbound.  The head is its
    context, the slots of its three positions and, per skolem
    application, its slot, function, argument slots and the nulls it has
    minted, keyed by argument tuple.
    """

    __slots__ = ("variables", "atoms", "initial", "head", "select",
                 "_orders")

    def __init__(self, patterns: Iterable[QuadPattern],
                 head: Optional[SkolemAtom] = None) -> None:
        slots: dict[object, int] = {}
        initial: list[Optional[Constant]] = []
        patterns = tuple(patterns)
        for pat in patterns:
            for t in (pat.s, pat.p, pat.o):
                if isinstance(t, Variable) and t not in slots:
                    slots[t] = len(initial)
                    initial.append(None)
        self.variables: tuple[Variable, ...] = tuple(slots)

        def slot(t: Union[HeadTerm, Variable]) -> int:
            if t not in slots:
                if isinstance(t, Variable):
                    raise RuleError("unbound head variable ?%s" % t.name)
                slots[t] = len(initial)
                initial.append(t if isinstance(t, Constant) else None)
            return slots[t]

        self.atoms = tuple((pat.ctx, slot(pat.s), slot(pat.p), slot(pat.o))
                           for pat in patterns)
        self.head = self.select = None
        if head is not None:
            terms = tuple(slot(t) for t in head.terms())
            functions = tuple((slots[t], t.rule_id, t.fn_index,
                               tuple(slot(a) for a in t.args), {})
                              for t in dict.fromkeys(head.terms())
                              if isinstance(t, SkolemTerm))
            self.head = (head.ctx,) + terms + (functions,)
            if len(self.atoms) == 1 and not functions:
                self.select = _select_project(self.atoms[0], self.head,
                                              initial)
        self.initial = tuple(initial)
        self._orders: dict[int, tuple] = {}

    def order(self, seed: int) -> tuple:
        """The join steps from atom ``seed``, compiled on first use.

        The seed comes first.  Next is the atom with the most positions
        bound by variables of the atoms before it, then the most constant
        positions, then the least index, so an atom that shares no
        variable waits while a connected one is left.  A step is an
        atom's context; its bound positions, free positions and repeated
        free positions, as pairs of a quad index and a slot (of the first
        occurrence, for a repeat); and whether the atom comes before the
        seed in the body.  The seed's step has no bound position: the
        quads it reads match its constants already.
        """
        steps = self._orders.get(seed)
        if steps is None:
            steps = self._orders[seed] = _compile_order(
                self.atoms, self.initial, seed)
        return steps


def _compile_order(atoms: tuple, initial: tuple, seed: int) -> tuple:
    bound = {k for k, value in enumerate(initial) if value is not None}
    constants = frozenset(bound)
    left = [i for i in range(len(atoms)) if i != seed]
    steps = []
    i = seed
    while True:
        ctx, *slots = atoms[i]
        # the seed's quads already match its constants
        known = [(j, k) for j, k in enumerate(slots, 1)
                 if k in bound and steps]
        free: list[tuple[int, int]] = []
        repeats = []
        first: dict[int, int] = {}
        for j, k in enumerate(slots, 1):
            if k in first:
                repeats.append((j, first[k]))
            elif k not in bound:
                first[k] = j
                free.append((j, k))
        steps.append((ctx, tuple(known), tuple(free), tuple(repeats),
                      i < seed))
        bound.update(first)
        if not left:
            return tuple(steps)
        i = max(left, key=lambda a: (
            sum(k in bound and k not in constants for k in atoms[a][1:]),
            sum(k in constants for k in atoms[a][1:]), -a))
        left.remove(i)


def _select_project(atom: tuple, head: tuple, initial: list) -> tuple:
    """Compile a one-atom body and a head without skolem function to work
    on rows, a row being a quad of the atom's bucket followed by
    ``suffix`` (the head context, then ``initial``, so slot ``k``'s
    constant is at index ``5 + k``).  Returns ``suffix``; two row getters
    that must agree for the quad to match the atom's constants and
    repeated variables, or None if every quad of the bucket does; and the
    row getter of the head."""
    _, *slots = atom
    first: dict[int, int] = {}
    checks = []
    for j, slot in enumerate(slots, 1):
        if initial[slot] is not None:
            checks.append((j, 5 + slot))
        elif slot in first:
            checks.append((j, first[slot]))
        else:
            first[slot] = j
    tested = None
    if checks:
        positions, sources = zip(*checks)
        tested = itemgetter(*positions), itemgetter(*sources)
    return ((head[0], *initial), tested,
            itemgetter(4, *(first.get(k, 5 + k) for k in head[1:4])))


def evaluate(plan: JoinPlan, qg: QuadGraph, mark: int = 0,
             no_skolem: frozenset[int] = frozenset()) -> Iterator[list]:
    """The groundings of ``plan``'s atoms into ``qg`` as binding rows,
    lists in slot order (``plan.initial`` with every variable bound); at
    a nonzero ``mark``, only those that map some atom to a quad added
    since ``qg`` held ``mark`` quads, each once.  Slots in ``no_skolem``
    never bind skolem blanks.

    The join runs one atom at a time: a seed atom's matching quads give
    the first rows, and each later atom extends them (``_extend``), in
    the order ``JoinPlan.order`` compiled for that seed.  The steps
    stream: no relation is stored, so the first grounding costs one path
    through the steps.  At mark 0 the seed is the atom with the smallest
    bucket under its constants.  At a nonzero mark each atom seeds in
    turn with the quads of its bucket's tail from ``mark`` that match
    its constants, earlier atoms reading only
    quads below ``mark`` and later ones every quad, so a grounding that
    also maps an earlier atom past ``mark`` is left to that atom; once an
    atom's tail is its whole bucket, later atoms yield nothing new.
    """
    atoms, initial = plan.atoms, plan.initial
    if not atoms:
        yield list(initial)
        return
    buckets = [qg.bucket(ctx, initial[s], initial[p], initial[o])
               for ctx, s, p, o in atoms]
    if not all(buckets):
        return  # no grounding at all
    if not mark:
        sizes = list(map(len, buckets))
        seed = sizes.index(min(sizes))
        ctx, s, p, o = atoms[seed]
        yield from _join_from(plan, seed, qg.candidates(
            ctx, initial[s], initial[p], initial[o]), qg, 0, no_skolem)
        return
    log_index = qg.positions.__getitem__
    for seed, bucket in enumerate(buckets):
        start = bisect_left(bucket, mark, key=log_index)
        if start < len(bucket):
            s, p, o = [initial[k] for k in atoms[seed][1:]]
            tail = [q for q in bucket[start:]
                    if (s is None or q[1] is s) and (p is None or q[2] is p)
                    and (o is None or q[3] is o)]
            yield from _join_from(plan, seed, tail, qg, mark, no_skolem)
        if not start:
            return


def _join_from(plan: JoinPlan, seed: int, quads: Sequence[Quad],
               qg: QuadGraph, mark: int, no_skolem: frozenset[int]
               ) -> Iterable[list]:
    """The groundings whose ``seed`` atom maps into ``quads``, each
    step reading the rows the one before it yields."""
    first, *steps = plan.order(seed)
    rows = _extend([list(plan.initial)], first, qg, mark, no_skolem, quads)
    for step in steps:
        rows = _extend(rows, step, qg, mark, no_skolem)
    return rows


def _extend(rows: Iterable[list], step: tuple, qg: QuadGraph, mark: int,
            no_skolem: frozenset[int],
            quads: Optional[Sequence[Quad]] = None) -> Iterator[list]:
    """Each row of ``rows`` extended by each quad its ``step`` atom maps
    to: one of ``quads``, when given, else one found through the graph's
    index on a bound position.  A quad must agree with the row on every
    bound position and repeat a repeated free variable; a ``no_skolem``
    slot binds no skolem blank, and an atom before the seed reads no
    quad at ``mark`` or later.  The free slots are bound in a copy of the
    row."""
    ctx, bound, free, repeats, early = step
    limit = mark if early and mark else None
    positions = qg.positions
    if quads is None and len(bound) == 3:
        # every position bound: one lookup per row
        (_, s), (_, p), (_, o) = bound
        find = positions.get
        for row in rows:
            i = find((ctx, row[s], row[p], row[o]))
            if i is not None and (limit is None or i < limit):
                yield row
        return
    probe = None
    if quads is None and not bound:
        quads = qg.bucket(ctx, None, None, None)  # a cross product
    elif quads is None:
        # the map of the bound position with the most keys
        index = {}
        for j, slot in bound:
            candidate = qg.slot_map(ctx, j)
            if probe is None or len(candidate) > len(index):
                index, probe, at = candidate, slot, j
        bound = [(j, slot) for j, slot in bound if j != at]
        lookup = index.get
    if bound:
        tested = itemgetter(*[j for j, _ in bound])
        wanted = itemgetter(*[slot for _, slot in bound])
    guarded = [j for j, slot in free if slot in no_skolem]
    for row in rows:
        found = quads if probe is None else lookup(row[probe], ())
        if bound:
            found = [q for q in found if tested(q) == wanted(row)]
        for j, k in repeats:
            found = [q for q in found if q[j] is q[k]]
        for j in guarded:
            found = [q for q in found if q[j].kind != SKOLEM]
        if limit is not None:
            found = [q for q in found if positions[q] < limit]
        for q in found:
            new = row.copy()
            for j, slot in free:
                new[slot] = q[j]
            yield new


def match_patterns(qg: QuadGraph, patterns: Iterable[QuadPattern],
                   free: Sequence[Variable] = ()
                   ) -> Iterator[tuple[Constant, ...]]:
    """The values of the ``free`` variables, in order, in each grounding
    of every pattern into ``qg``: one tuple per grounding.

    The patterns are compiled into a ``JoinPlan`` and joined by
    ``evaluate``.  Free variables, which must occur in the patterns,
    never bind skolem blank nodes.  The result is independent of atom
    order.
    """
    plan = JoinPlan(patterns)
    slots = [plan.variables.index(v) for v in free]
    rows = evaluate(plan, qg, 0, frozenset(slots))
    if len(slots) == 1:
        return zip(map(itemgetter(*slots), rows))
    if slots:
        return map(itemgetter(*slots), rows)
    return (() for _ in rows)


def _select(plan: JoinPlan, qg: QuadGraph, mark: int) -> Iterator[Quad]:
    """The heads of a ``select`` plan's groundings into ``qg`` that use a
    quad added since ``qg`` held ``mark`` quads, in one pass over the
    tail of the atom's bucket."""
    (ctx, s, p, o), = plan.atoms
    suffix, tested, head = plan.select
    initial = plan.initial
    quads = qg.bucket(ctx, initial[s], initial[p], initial[o])
    if mark:
        quads = quads[bisect_left(quads, mark,
                                  key=qg.positions.__getitem__):]
    rows = map(add, quads, repeat(suffix))
    if tested is not None:
        left, right = tested
        rows = [row for row in rows if left(row) == right(row)]
    # the head context is a pattern context, so an IRI, and every term a
    # quad's or a constant: the checks of ``Quad.__new__`` would all pass
    return map(tuple.__new__, repeat(Quad), map(head, rows))


def instantiate_head(head: tuple, binding: list) -> Quad:
    """Ground a compiled head (``JoinPlan.head``) under a binding list,
    putting the null each skolem application has minted for its argument
    tuple into its slot first (``derive`` mints them beforehand)."""
    ctx, s, p, o, functions = head
    for slot, _, _, args, minted in functions:
        binding[slot] = minted[tuple([binding[a] for a in args])]
    # the context is a pattern context, so an IRI, and every slot holds
    # a constant: the checks of ``Quad.__new__`` would all pass
    return tuple.__new__(Quad, (ctx, binding[s], binding[p], binding[o]))


def _mint(functions: tuple, groundings: list[list]) -> None:
    """Mint, for each skolem application of ``functions``, the nulls of
    the argument tuples of ``groundings`` it has not minted yet: the new
    tuples in first-seen order, in one ``skolem_constants`` call."""
    for _, rule_id, fn_index, args, minted in functions:
        keys = dict.fromkeys([tuple([g[a] for a in args])
                              for g in groundings])
        new = list(filterfalse(minted.__contains__, keys))
        if new:
            minted.update(zip(new, skolem_constants(rule_id, fn_index, new)))


def derive(rules: Sequence[SkolemRule], qg: QuadGraph,
           mark: int = 0) -> set[Quad]:
    """The head instances of the rules' body groundings into ``qg`` that
    are not in ``qg``.

    With a nonzero ``mark`` (typically the size ``qg`` had when the rules
    were last applied), only groundings that use at least one quad added
    since ``qg`` held ``mark`` quads count: semi-naive evaluation, which
    misses nothing when every other grounding's head is already in
    ``qg``.  A rule with a ``select`` plan reads the tail of its atom's
    bucket from ``mark`` in one pass (``_select``); every other rule
    grounds its body through ``evaluate`` and instantiates its head per
    grounding (``instantiate_head``).  A head with skolem functions first
    has its groundings collected, and each function mints the nulls of
    their new argument tuples in bulk (``_mint``), so a null is minted
    once per rule head and frontier binding, by one ``skolem_constants``
    call per function and ``derive`` call.
    """
    out: set[Quad] = set()
    known = qg.positions
    for rule in rules:
        plan = rule.plan
        if plan.select is not None:
            out.update(filterfalse(known.__contains__,
                                   _select(plan, qg, mark)))
            continue
        rows = evaluate(plan, qg, mark)
        functions = plan.head[4]
        if functions:
            rows = list(rows)
            _mint(functions, rows)
        out.update(filterfalse(known.__contains__, map(
            instantiate_head, repeat(plan.head), rows)))
    return out


class Violation(FrozenRecord):
    """A constraint body grounded into the data; ``binding`` lists its
    variables' values by variable name."""

    rule_id: str
    binding: tuple[tuple[Variable, Constant], ...]


def check_constraints(constraints: Sequence[BridgeRule], qg: QuadGraph,
                      mark: int = 0) -> list[Violation]:
    """Every grounding of an empty-head rule body is a violation.

    With a nonzero ``mark``, only groundings that use a quad added since
    ``qg`` held ``mark`` quads are checked: all of them when its first
    ``mark`` quads violated nothing.
    """
    found: list[Violation] = []
    for rule in constraints:
        if not rule.is_constraint:
            raise RuleError("rule %s is not a constraint" % rule.rule_id)
        plan = rule.plan
        for row in evaluate(plan, qg, mark):
            found.append(Violation(rule.rule_id, tuple(sorted(
                zip(plan.variables, row), key=lambda kv: kv[0].name))))
    return found
