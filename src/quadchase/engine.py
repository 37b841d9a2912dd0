"""Bridge rules, skolemization, and the rule-application operator.

A bridge rule is a forall-existential implication between conjunctions of
quad patterns across contexts.  For evaluation, each rule is skolemized
(existential variables become deterministic skolem functions over the
frontier variables) and normalized to single-head form; a rule whose head
mentions a skolem function is *generating*, the rest are *non-generating*.
Empty-head rules are constraints: a body match signals inconsistency.

Every rule body, constraint body and query is compiled once into a
``JoinPlan``: each variable numbered into a slot, each atom its context
and a slot per position (a constant's slot holds it before the join
starts), and each head position a slot or a skolem function over
argument slots.  One evaluator (``evaluate``) grounds every query,
constraint and rule body, one atom at a time: a seed atom's matching
quads give the first rows, then each later atom, in an order compiled
once per seed (``JoinPlan.order``), extends the rows through one index
map of a bound position, chosen once per step.  A row is the plan's
constants followed by each quad a step matched, so a step binds its
variables by appending its quad, and a getter compiled with the order
reads the plan's output off each grounding's row: a query's free
variables, the head quad of a one-atom rule whose head has no skolem
function (a copy or projection of one context into another), the slots
a head with a skolem function reads, and every slot otherwise.  No step
stores its rows: each streams them to the next, and the last hands each
grounding to its consumer, so memory is bounded by one row per step and
a caller that takes only the first grounding (a boolean query) stops
there.  A rule compiles on first use and keeps its plan, so a chase
compiles each rule once.  A head with a skolem function keeps, per
function, a getter of its argument tuple and the nulls it has minted,
keyed by that tuple.  ``derive`` takes the distinct rows of a call's
groundings in first-seen order, one per frontier binding, mints the
argument tuples they bring that are not there yet in bulk, with one
``skolem_constants`` call per function, and then instantiates one head
per row.

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
from itertools import chain, filterfalse, repeat, starmap
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
    is_rule_id,
    skolem_constants,
)


class RuleError(ValueError):
    """Ill-formed bridge rule."""


class BridgeRule(FrozenRecord):
    """A forall-existential rule between quad patterns.

    Variables partition into frontier (body and head), existential
    (head only), and body-only; patterns must not contain blank nodes.
    An empty head makes the rule a constraint.  The id is a name that
    the rule reader reads back (``terms.is_rule_id``: a letter or ``_``,
    then ``[A-Za-z0-9_.-]``, not ending in ``.``), so every rule writes
    a rule file that parses back to it, and a rule with an existential
    variable can name its labelled nulls after it.
    """

    rule_id: str
    body: tuple[QuadPattern, ...]
    head: tuple[QuadPattern, ...]

    def __post_init__(self) -> None:
        if not is_rule_id(self.rule_id):
            raise RuleError("rule id %r is not a name: a letter or '_', "
                            "then [A-Za-z0-9_.-], not ending in '.'"
                            % self.rule_id)
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

    Every variable gets a slot, and so does every distinct constant and
    every skolem application of the head.  Variable slots come first, in
    ``variables`` order; ``initial`` holds each constant at its slot and
    None elsewhere.  A body atom is its context and the slots of its
    three positions, and its key (``keys``) what ``QuadGraph.bucket``
    takes.  The head is its context, the indexes of its three positions
    in a grounding and, per skolem application, its rule id and function
    index, a getter of its argument tuple from a grounding (a 1-tuple
    for one argument, the empty tuple for none) and the nulls it has
    minted, keyed by that tuple.

    ``output`` lists the slots each grounding gives, in order: the free
    variables' of a query; the head context's and positions' for a
    one-atom body whose head has no skolem function, so each grounding
    is its head quad; and for a head with a skolem function, the slots
    it reads, each once: its positions that are not a function, then
    each function's arguments.  Such a head reads its nulls after those
    slots, in function order.  ``output`` is None for every other plan,
    whose groundings give every slot in slot order.
    """

    __slots__ = ("variables", "atoms", "keys", "initial", "head", "output",
                 "_orders")

    def __init__(self, patterns: Iterable[QuadPattern],
                 head: Optional[SkolemAtom] = None,
                 free: Optional[Sequence[Variable]] = None) -> None:
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
        self.head = self.output = None
        if free is not None:
            self.output = tuple(map(self.variables.index, free))
        if head is not None:
            terms = tuple(slot(t) for t in head.terms())
            skolems = [t for t in dict.fromkeys(head.terms())
                       if isinstance(t, SkolemTerm)]
            if not skolems:
                self.head = (head.ctx,) + terms + ((),)
                if len(self.atoms) == 1:
                    self.output = (slot(head.ctx),) + terms
            else:
                # the slots the head reads; each null goes after them
                self.output = tuple(dict.fromkeys(chain(
                    [k for t, k in zip(head.terms(), terms)
                     if not isinstance(t, SkolemTerm)],
                    *[map(slot, t.args) for t in skolems])))
                at = {k: i for i, k in enumerate(self.output)}
                at.update((slots[t], len(self.output) + i)
                          for i, t in enumerate(skolems))
                functions = tuple(
                    (t.rule_id, t.fn_index,
                     _tuple_getter([at[slots[a]] for a in t.args]), {})
                    for t in skolems)
                self.head = ((head.ctx,) + tuple(map(at.__getitem__, terms))
                             + (functions,))
        self.initial = tuple(initial)
        self.keys = tuple((ctx, initial[s], initial[p], initial[o])
                          for ctx, s, p, o in self.atoms)
        self._orders: dict[int, tuple] = {}

    def order(self, seed: int) -> tuple:
        """The join steps from atom ``seed`` and the getter of the
        output, compiled on first use.

        A binding row is ``initial`` followed by each quad a step
        matched, so a constant's value is at its slot and a variable's
        in the quad of the step that first bound it.  The seed comes
        first.  Next is the atom with the most positions bound by
        variables of the atoms before it, then the most constant
        positions, then the least index, so an atom that shares no
        variable waits while a connected one is left.  A step is an
        atom's context; its bound positions, as pairs of a quad index and
        the row index of their value; its free positions, as pairs of a
        quad index and a slot; its repeated free positions, as pairs of
        quad indexes; and whether the atom comes before the seed in the
        body.  The seed's step has no bound position: the quads it reads
        match its constants already.  A step whose positions are all
        bound appends no quad to the row.
        """
        compiled = self._orders.get(seed)
        if compiled is None:
            compiled = self._orders[seed] = _compile_order(self, seed)
        return compiled


def _compile_order(plan: JoinPlan, seed: int) -> tuple:
    atoms, initial = plan.atoms, plan.initial
    constants = {k for k, value in enumerate(initial) if value is not None}
    where = dict(zip(constants, constants))  # each bound slot's row index
    width = len(initial)
    left = list(range(len(atoms)))
    steps = []
    while left:
        i = seed if not steps else max(left, key=lambda a: (
            sum(k in where and k not in constants for k in atoms[a][1:]),
            sum(k in constants for k in atoms[a][1:]), -a))
        left.remove(i)
        ctx, *slots = atoms[i]
        # the seed's quads already match its constants
        known = [(j, where[k]) for j, k in enumerate(slots, 1)
                 if k in where and steps]
        repeats = []
        first: dict[int, int] = {}
        for j, k in enumerate(slots, 1):
            if k in first:
                repeats.append((j, first[k]))
            elif k not in where:
                first[k] = j
        free = tuple((j, k) for k, j in first.items())
        steps.append((ctx, tuple(known), free, tuple(repeats), i < seed))
        if len(known) < 3:  # a fully bound step appends no quad
            where.update((k, width + j) for k, j in first.items())
            width += 4
    output = range(len(initial)) if plan.output is None else plan.output
    return tuple(steps), _tuple_getter([where.get(k, k) for k in output])


def _tuple_getter(at: Sequence[int]) -> itemgetter:
    """A getter of the tuple of the items at ``at``, however many."""
    # a one-item slice gives a 1-tuple and an empty one the empty tuple
    return (itemgetter(*at) if len(at) > 1
            else itemgetter(slice(at[0], at[0] + 1)) if at
            else itemgetter(slice(0)))


def evaluate(plan: JoinPlan, qg: QuadGraph, mark: int = 0,
             no_skolem: frozenset[int] = frozenset()) -> Iterator[tuple]:
    """The groundings of ``plan``'s atoms into ``qg``, each as the tuple
    of ``plan.output``'s values (of every slot, in slot order, when it is
    None); at a nonzero ``mark``, only those that map some atom to a
    quad added since ``qg`` held ``mark`` quads, each once.  Slots in
    ``no_skolem`` never bind skolem blanks.

    The join runs one atom at a time: a seed atom's matching quads give
    the first rows (``_seed``), and each later atom extends them
    (``_extend``), in the order ``JoinPlan.order`` compiled for that
    seed, whose getter then reads each grounding off its row.  The steps
    stream: no relation is stored, so the first grounding costs one path
    through the steps.  At mark 0 the seed is the atom with the smallest
    bucket under its constants.  At a nonzero mark each atom seeds in
    turn with the quads of its bucket's tail from ``mark`` that match
    its constants, earlier atoms reading only quads below ``mark`` and
    later ones every quad, so a grounding that also maps an earlier atom
    past ``mark`` is left to that atom; once an atom's tail is its whole
    bucket, later atoms yield nothing new.
    """
    if not plan.atoms:
        return iter([plan.order(0)[1](plan.initial)])
    buckets = list(starmap(qg.bucket, plan.keys))
    if not all(buckets):
        return iter(())  # no grounding at all
    if not mark:
        sizes = list(map(len, buckets))
        seed = sizes.index(min(sizes))
        ctx, s, p, o = plan.keys[seed]
        quads = buckets[seed]
        if s is not None or p is not None or o is not None:
            quads = qg.candidates(ctx, s, p, o)
        return _join_from(plan, seed, quads, qg, 0, no_skolem)
    relations = []
    log_index = qg.positions.__getitem__
    for seed, bucket in enumerate(buckets):
        start = bisect_left(bucket, mark, key=log_index)
        if start < len(bucket):
            tail = bucket[start:]
            _, s, p, o = plan.keys[seed]
            if s is not None or p is not None or o is not None:
                tail = [q for q in tail
                        if (s is None or q[1] is s)
                        and (p is None or q[2] is p)
                        and (o is None or q[3] is o)]
            relations.append(_join_from(plan, seed, tail, qg, mark,
                                        no_skolem))
        if not start:
            break
    # chained in C: a generator here would resume once per grounding
    return chain.from_iterable(relations)


def _join_from(plan: JoinPlan, seed: int, quads: Sequence[Quad],
               qg: QuadGraph, mark: int, no_skolem: frozenset[int]
               ) -> Iterator[tuple]:
    """The groundings whose ``seed`` atom maps into ``quads``, each
    step reading the rows the one before it yields."""
    (first, *steps), project = plan.order(seed)
    rows = _seed(plan.initial, first, quads, no_skolem)
    for step in steps:
        rows = _extend(rows, step, qg, mark, no_skolem)
    return map(project, rows)


def _seed(initial: tuple, step: tuple, quads: Sequence[Quad],
          no_skolem: frozenset[int]) -> Iterator[tuple]:
    """The rows of the seed ``step``: ``initial`` followed by each quad
    of ``quads`` that repeats its repeated free variables and binds no
    skolem blank to a ``no_skolem`` slot."""
    _, _, free, repeats, _ = step
    for j, k in repeats:
        quads = [q for q in quads if q[j] is q[k]]
    for j, slot in free:
        if slot in no_skolem:
            quads = [q for q in quads if q[j].kind != SKOLEM]
    return map(add, repeat(initial), quads)


def _extend(rows: Iterable[tuple], step: tuple, qg: QuadGraph, mark: int,
            no_skolem: frozenset[int]) -> Iterator[tuple]:
    """Each row of ``rows`` followed by each quad its ``step`` atom maps
    to, found through the graph's index on a bound position.  A quad
    must agree with the row on every bound position and repeat a
    repeated free variable; a ``no_skolem`` slot binds no skolem blank,
    and an atom before the seed reads no quad at ``mark`` or later.  A
    row whose atom is fully bound is yielded as it is."""
    ctx, bound, free, repeats, early = step
    limit = mark if early and mark else None
    positions = qg.positions
    if len(bound) == 3:
        # every position bound: one lookup per row
        (_, s), (_, p), (_, o) = bound
        find = positions.get
        for row in rows:
            i = find((ctx, row[s], row[p], row[o]))
            if i is not None and (limit is None or i < limit):
                yield row
        return
    probe = None
    if not bound:
        quads = qg.bucket(ctx, None, None, None)  # a cross product
    else:
        # the map of the bound position with the most keys
        index = {}
        for j, at in bound:
            candidate = qg.slot_map(ctx, j)
            if probe is None or len(candidate) > len(index):
                index, probe, probed = candidate, at, j
        bound = [(j, at) for j, at in bound if j != probed]
        lookup = index.get
    if bound:
        tested = itemgetter(*[j for j, _ in bound])
        wanted = itemgetter(*[at for _, at in bound])
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
        yield from map(add, repeat(row), found)


def match_patterns(qg: QuadGraph, patterns: Iterable[QuadPattern],
                   free: Sequence[Variable] = ()
                   ) -> Iterator[tuple[Constant, ...]]:
    """The values of the ``free`` variables, in order, in each grounding
    of every pattern into ``qg``: one tuple per grounding.

    The patterns are compiled into a ``JoinPlan`` whose output is the
    free variables, and joined by ``evaluate``.  Free variables, which
    must occur in the patterns, never bind skolem blank nodes.  The
    result is independent of atom order.
    """
    plan = JoinPlan(patterns, free=free)
    return evaluate(plan, qg, 0, frozenset(plan.output))


def instantiate_head(head: tuple, row: tuple) -> Quad:
    """Ground a compiled head (``JoinPlan.head``) under a row of the
    slots it reads, to which the null each skolem application has minted
    for its argument tuple is appended first (``derive`` mints them
    beforehand)."""
    ctx, s, p, o, functions = head
    for _, _, key, minted in functions:
        row += (minted[key(row)],)
    # the context is a pattern context, so an IRI, and every slot holds
    # a constant: the checks of ``Quad.__new__`` would all pass
    return tuple.__new__(Quad, (ctx, row[s], row[p], row[o]))


def _mint(functions: tuple, rows: list[tuple]) -> None:
    """Mint, for each skolem application of ``functions``, the nulls of
    the argument tuples of the distinct ``rows`` it has not minted yet:
    the new tuples in row order, in one ``skolem_constants`` call."""
    for rule_id, fn_index, key, minted in functions:
        # distinct rows give distinct tuples: a function's arguments are
        # the rule's frontier, which holds every variable the row holds
        new = list(filterfalse(minted.__contains__, map(key, rows)))
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
    ``qg``.  Every rule grounds its body through ``evaluate``.  A rule
    whose head has no skolem function gets each head as a grounding when
    its body is one atom, and instantiates its head per grounding
    (``instantiate_head``) otherwise.  A head with skolem functions
    gets, per grounding, the slots it reads; the distinct ones are
    collected in first-seen order, each function mints the nulls of
    their new argument tuples in bulk (``_mint``), and the head is
    instantiated once per distinct row.  So a null, and its head, is
    built once per rule head and frontier binding, by one
    ``skolem_constants`` call per function and ``derive`` call.
    """
    out: set[Quad] = set()
    known = qg.positions
    for rule in rules:
        plan = rule.plan
        rows = evaluate(plan, qg, mark)
        functions = plan.head[4]
        if functions:
            # one head per frontier binding, not per grounding
            rows = list(dict.fromkeys(rows))
            _mint(functions, rows)
        if functions or plan.output is None:
            heads = map(instantiate_head, repeat(plan.head), rows)
        else:
            # a one-atom copy rule: each row is its head quad, whose
            # context is a pattern context, so an IRI, and every term a
            # quad's or a constant: the checks of ``Quad.__new__`` would
            # all pass
            heads = map(tuple.__new__, repeat(Quad), rows)
        out.update(filterfalse(known.__contains__, heads))
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
