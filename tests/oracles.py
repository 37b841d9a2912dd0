"""Independent brute-force oracles and random-instance generators.

Everything here deliberately avoids the engine's machinery: matching is
a plain nested product with unification (no indexes, no join ordering),
the reference chase applies the original multi-head rules directly (no
single-head normalization, no generating/non-generating scheduling), and
entailment enumerates every substitution.  Results must coincide with
the production code paths on terminating inputs.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Union

from quadchase.chase import (
    BUDGET_EXHAUSTED,
    COMPLETE,
    GENERATING,
    INCONSISTENT,
    NON_GENERATING,
    ChaseConfig,
    ChaseResult,
    IterationRecord,
)
from quadchase.contextgraph import build_dependency_graph, is_context_acyclic
from quadchase.engine import (
    BridgeRule,
    QuadSystem,
    SkolemRule,
    check_constraints,
    derive,
    skolemize_all,
)
from quadchase.semantics import LocalSemantics, SIMPLE
from quadchase.syntax import QueryDocument
from quadchase.terms import (
    Constant,
    Quad,
    QuadGraph,
    QuadPattern,
    Variable,
    blank,
    iri,
    literal,
    skolem_constant,
)
from quadchase.vocab import (
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_RESOURCE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
)


def substitute(pattern: Union[Quad, QuadPattern],
               mapping: dict[Variable, Constant]) -> Union[Quad, QuadPattern]:
    """Replace exactly the in-domain variables of ``pattern``: a total
    substitution gives a Quad, a partial one a pattern, and a ground
    quad is returned as it is."""
    if isinstance(pattern, Quad):
        return pattern
    terms = [mapping.get(t, t) if isinstance(t, Variable) else t
             for t in (pattern.s, pattern.p, pattern.o)]
    if all(isinstance(t, Constant) for t in terms):
        return Quad(pattern.ctx, *terms)
    return QuadPattern(pattern.ctx, *terms)


def triples_of(qg: QuadGraph, ctx: Constant) -> frozenset[tuple]:
    """The triple projection of one context of ``qg``; empty if unused."""
    return frozenset(q.triple for q in qg if q.ctx is ctx)


def symbol_size(x: Union[QuadGraph, BridgeRule, SkolemRule,
                         QuadSystem]) -> int:
    """Number of symbols needed to print the object: four per quad or
    quad pattern (a skolemized rule has one head pattern)."""
    if isinstance(x, QuadSystem):
        return symbol_size(x.quads) + sum(map(symbol_size, x.rules))
    if isinstance(x, BridgeRule):
        return 4 * (len(x.body) + len(x.head))
    if isinstance(x, SkolemRule):
        return 4 * (len(x.body) + 1)
    return 4 * len(x)


def naive_match(quads: set[Quad], patterns: Iterable[QuadPattern]
                ) -> list[dict[Variable, Constant]]:
    """All groundings of the pattern conjunction, by exhaustive product."""
    subs: list[dict[Variable, Constant]] = [{}]
    for pat in patterns:
        nxt: list[dict[Variable, Constant]] = []
        for mu in subs:
            for q in quads:
                if q.ctx != pat.ctx:
                    continue
                cur = dict(mu)
                ok = True
                for t, v in zip((pat.s, pat.p, pat.o), q.triple):
                    if isinstance(t, Variable):
                        if cur.get(t, v) != v:
                            ok = False
                            break
                        cur[t] = v
                    elif t != v:
                        ok = False
                        break
                if ok:
                    nxt.append(cur)
        subs = nxt
        if not subs:
            break
    return subs


def naive_multihead_chase(system: QuadSystem, sem: LocalSemantics = SIMPLE,
                          max_rounds: int = 400
                          ) -> tuple[QuadGraph, bool]:
    """Reference chase: apply every original rule with all heads at once,
    no normalization and no iteration scheduling.  Returns (quads,
    reached_fixpoint)."""
    current: set[Quad] = set(naive_quad_closure(system.quads, sem).quads)
    for _ in range(max_rounds):
        new: set[Quad] = set()
        for rule in system.rules:
            if rule.is_constraint:
                continue
            frontier = rule.frontier_vector()
            existential = rule.existential_vector()
            for mu in naive_match(current, rule.body):
                ext = dict(mu)
                for i, yvar in enumerate(existential):
                    ext[yvar] = skolem_constant(
                        rule.rule_id, i, [mu[a] for a in frontier])
                for pat in rule.head:
                    out = substitute(pat, ext)
                    assert isinstance(out, Quad)
                    new.add(out)
        if new <= current:
            return QuadGraph(current), True
        current |= new
        current = set(naive_quad_closure(QuadGraph(current), sem).quads)
    return QuadGraph(current), False


def naive_chase(system: QuadSystem, cfg: ChaseConfig) -> ChaseResult:
    """Reference for ``run_chase``: the same schedule, budgets, log and
    constraint checks, but every iteration re-derives every rule over
    the whole graph, closes it afresh and checks every constraint."""
    non_gen, gen, constraints = skolemize_all(system.rules)
    current = naive_quad_closure(system.quads, cfg.semantics)
    log: list[IterationRecord] = []
    gen_count = 0
    violations = check_constraints(constraints, current)
    if violations:
        return ChaseResult(current, INCONSISTENT, (), 0, violations)
    status = COMPLETE
    index = 0
    while True:
        if cfg.max_iterations is not None and index >= cfg.max_iterations:
            status = BUDGET_EXHAUSTED
            break
        index += 1
        new = derive(non_gen, current) - current.quads
        kind = NON_GENERATING
        if not new:
            kind = GENERATING
            gen_count += 1
            new = derive(gen, current) - current.quads
            if not new:
                log.append(IterationRecord(index, kind, 0, len(current), {}))
                break
        updated = naive_quad_closure(QuadGraph([*current, *new]),
                                     cfg.semantics)
        added = updated.quads - current.quads
        current = updated
        per_ctx: dict[Constant, int] = {}
        for q in added:
            per_ctx[q.ctx] = per_ctx.get(q.ctx, 0) + 1
        log.append(IterationRecord(index, kind, len(added), len(current),
                                   per_ctx))
        violations = check_constraints(constraints, current)
        if violations:
            status = INCONSISTENT
            break
        if cfg.max_quads is not None and len(current) > cfg.max_quads:
            status = BUDGET_EXHAUSTED
            break
    return ChaseResult(current, status, tuple(log), gen_count, violations)


def exhaustive_entails(qg: QuadGraph,
                       atoms: Iterable[QuadPattern]) -> bool:
    """Boolean CCQ entailment by enumerating every substitution of the
    query variables over the chase constants."""
    atoms = list(atoms)
    variables = sorted({v for a in atoms for v in a.variables()},
                       key=lambda v: v.name)
    constants = sorted(qg.constants(), key=lambda c: c.canonical)
    if not variables:
        return all(substitute(a, {}) in qg for a in atoms)
    for combo in itertools.product(constants, repeat=len(variables)):
        mu = dict(zip(variables, combo))
        for a in atoms:
            q = substitute(a, mu)
            if not isinstance(q, Quad) or q not in qg:
                break
        else:
            return True
    return False


def exhaustive_answers(qg: QuadGraph,
                       query: QueryDocument) -> set[tuple[Constant, ...]]:
    """Answer enumeration: try every non-skolem binding of the free
    variables, then decide the grounded boolean query exhaustively."""
    candidates = sorted((c for c in qg.constants() if not c.is_skolem()),
                        key=lambda c: c.canonical)
    out: set[tuple[Constant, ...]] = set()
    for combo in itertools.product(candidates,
                                   repeat=len(query.free_vars)):
        mu = dict(zip(query.free_vars, combo))
        grounded = [substitute(a, mu) for a in query.atoms]
        patterns = [g if isinstance(g, QuadPattern)
                    else QuadPattern(g.ctx, g.s, g.p, g.o)
                    for g in grounded]
        if exhaustive_entails(qg, patterns):
            out.add(combo)
    return out


def naive_local_closure(triples: Iterable[tuple],
                        sem: LocalSemantics) -> frozenset[tuple]:
    """Apply-all-rules-until-fixpoint closure without any indexing."""
    current = set(triples)
    while True:
        added: set[tuple] = set()
        for rule in sem.rules:
            subs: list[dict] = [{}]
            for pat in rule.body:
                nxt = []
                for mu in subs:
                    for t in current:
                        cur = dict(mu)
                        ok = True
                        for p_term, val in zip(pat, t):
                            if isinstance(p_term, Variable):
                                if cur.get(p_term, val) != val:
                                    ok = False
                                    break
                                cur[p_term] = val
                            elif p_term != val:
                                ok = False
                                break
                        if ok:
                            nxt.append(cur)
                subs = nxt
            for mu in subs:
                head = tuple(mu[t] if isinstance(t, Variable) else t
                             for t in rule.head)
                added.add(head)
        if added <= current:
            return frozenset(current)
        current |= added


def naive_quad_closure(qg: QuadGraph, sem: LocalSemantics) -> QuadGraph:
    """Close every context of ``qg`` on its own with
    ``naive_local_closure``."""
    out: set[Quad] = set()
    for ctx in qg.contexts():
        triples = [q.triple for q in qg if q.ctx is ctx]
        out.update(Quad(ctx, *t) for t in naive_local_closure(triples, sem))
    return QuadGraph(out)


def brute_force_levels(graph) -> dict:
    """Levels straight from the definition: reachability plus iterating
    level(c) = tgc(c) + max over TGCs reaching c."""
    nodes = sorted(graph.nodes, key=lambda c: c.canonical)
    reach = set(graph.edges)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(reach):
            for (c, d) in list(reach):
                if b == c and (a, d) not in reach:
                    reach.add((a, d))
                    changed = True
    levels = {c: (1 if c in graph.tgc else 0) for c in nodes}
    for _ in range(len(nodes) + 1):
        new = {}
        for ctx in nodes:
            upstream = max((levels[t] for t in graph.tgc
                            if (t, ctx) in reach), default=0)
            new[ctx] = (1 if ctx in graph.tgc else 0) + upstream
        if new == levels:
            break
        levels = new
    return levels


def grown_quadgraph(quads: Iterable[Quad]) -> QuadGraph:
    """A graph of ``quads`` whose index is built while it is empty, so
    that ``add`` fills every bucket, as the chase fills its graph (a
    graph built in one call buckets its log on the first lookup)."""
    graph = QuadGraph()
    graph.candidate_count(iri("urn:x-test:unused"))
    for q in quads:
        graph.add(q)
    return graph


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

def random_constant(rng: random.Random, allow_blank: bool = True) -> Constant:
    roll = rng.random()
    if roll < 0.6:
        return iri("n%d" % rng.randrange(6))
    if roll < 0.8 or not allow_blank:
        if rng.random() < 0.5:
            return literal("v%d" % rng.randrange(4))
        return literal("v%d" % rng.randrange(4),
                       datatype="dt%d" % rng.randrange(2))
    return blank("b%d" % rng.randrange(4))


def random_quadgraph(rng: random.Random, max_quads: int = 12,
                     n_contexts: int = 3) -> QuadGraph:
    contexts = [iri("ctx%d" % i) for i in range(n_contexts)]
    quads = set()
    for _ in range(rng.randrange(max_quads + 1)):
        quads.add(Quad(rng.choice(contexts),
                       random_constant(rng),
                       random_constant(rng),
                       random_constant(rng)))
    return QuadGraph(quads)


def random_rdfs_quadgraph(rng: random.Random, max_quads: int = 15,
                          n_contexts: int = 3) -> QuadGraph:
    """A random quad-graph over four IRIs and the rdfs-core vocabulary,
    on which every rdfs-core rule can fire (``random_quadgraph`` never
    holds that vocabulary, so only its resource rule fires).

    A subject or object is now and then a schema property,
    ``rdfs:Resource``, a literal or a blank node, and a predicate now and
    then a literal, so some contexts hold generalized triples and schema
    triples about the schema itself, and close through the compiled
    rules instead of the direct rho-df pass.  Over four names,
    ``subClassOf`` and ``subPropertyOf`` cycles and self-loops are
    common."""
    contexts = [iri("ctx%d" % i) for i in range(n_contexts)]
    names = [iri("n%d" % i) for i in range(4)]
    schema = [RDF_TYPE, RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF, RDFS_DOMAIN,
              RDFS_RANGE]
    odd = schema + [RDFS_RESOURCE, literal("v0"), blank("b0")]

    def node() -> Constant:
        return rng.choice(odd if rng.random() < 0.1 else names)

    def predicate() -> Constant:
        if rng.random() < 0.05:
            return literal("v1")
        return rng.choice(schema + names[:2])

    return QuadGraph(Quad(rng.choice(contexts), node(), predicate(), node())
                     for _ in range(rng.randrange(max_quads + 1)))


def _random_pattern_term(rng: random.Random,
                         variables: list[Variable]):
    if rng.random() < 0.5:
        return rng.choice(variables)
    if rng.random() < 0.85:
        return iri("n%d" % rng.randrange(6))
    return literal("v%d" % rng.randrange(4))


def random_rule(rng: random.Random, rule_id: str,
                contexts: list[Constant]) -> BridgeRule:
    body_vars = [Variable("v%d" % i) for i in range(3)]
    head_vars = body_vars + [Variable("w%d" % i) for i in range(2)]
    body = tuple(
        QuadPattern(rng.choice(contexts),
                    _random_pattern_term(rng, body_vars),
                    _random_pattern_term(rng, body_vars),
                    _random_pattern_term(rng, body_vars))
        for _ in range(rng.randrange(1, 3)))
    head = tuple(
        QuadPattern(rng.choice(contexts),
                    _random_pattern_term(rng, head_vars),
                    _random_pattern_term(rng, head_vars),
                    _random_pattern_term(rng, head_vars))
        for _ in range(rng.randrange(1, 3)))
    return BridgeRule(rule_id, body, head)


def random_acyclic_system(rng: random.Random, max_contexts: int = 4,
                          max_rules: int = 4,
                          max_quads: int = 12) -> QuadSystem:
    """Rejection-sample a context-acyclic quad-system."""
    while True:
        n_ctx = rng.randrange(1, max_contexts + 1)
        contexts = [iri("ctx%d" % i) for i in range(n_ctx)]
        quads = set()
        for _ in range(rng.randrange(1, max_quads + 1)):
            quads.add(Quad(rng.choice(contexts),
                           random_constant(rng, allow_blank=False),
                           iri("n%d" % rng.randrange(6)),
                           random_constant(rng, allow_blank=False)))
        rules = tuple(random_rule(rng, "r%d" % i, contexts)
                      for i in range(rng.randrange(max_rules + 1)))
        system = QuadSystem(QuadGraph(quads), rules)
        if is_context_acyclic(build_dependency_graph(system)).acyclic:
            return system


def random_firing_system(rng: random.Random, n_contexts: int = 4,
                         max_rules: int = 5,
                         max_quads: int = 10) -> QuadSystem:
    """Rejection-sample a context-acyclic quad-system over a small
    vocabulary whose rules mostly hold variables and write into the same
    or a later context, so that they fire over several iterations (the
    criterion-7 systems rarely fire at all)."""
    vocab = [iri("n%d" % i) for i in range(4)]
    body_vars = [Variable("v%d" % i) for i in range(3)]
    head_vars = body_vars + [Variable("w0")]
    contexts = [iri("ctx%d" % i) for i in range(n_contexts)]

    def terms(variables: list[Variable], p_var: float) -> list:
        return [rng.choice(variables) if rng.random() < p_var
                else rng.choice(vocab) for _ in range(3)]

    def rule(rule_id: str) -> BridgeRule:
        low = rng.randrange(n_contexts)
        body = tuple(QuadPattern(contexts[rng.randrange(low + 1)],
                                 *terms(body_vars, 0.9))
                     for _ in range(rng.randrange(1, 3)))
        head = tuple(QuadPattern(contexts[rng.randrange(low, n_contexts)],
                                 *terms(head_vars, 0.7))
                     for _ in range(rng.randrange(1, 3)))
        return BridgeRule(rule_id, body, head)

    while True:
        quads = {Quad(contexts[rng.randrange(2)], rng.choice(vocab),
                      rng.choice(vocab[:2]), rng.choice(vocab))
                 for _ in range(rng.randrange(1, max_quads + 1))}
        rules = tuple(rule("r%d" % i)
                      for i in range(rng.randrange(1, max_rules + 1)))
        system = QuadSystem(QuadGraph(quads), rules)
        if is_context_acyclic(build_dependency_graph(system)).acyclic:
            return system


def random_copy_system(rng: random.Random, n_contexts: int = 4,
                       max_quads: int = 12) -> QuadSystem:
    """An rdfs-core schema in ``ctx0`` (and sometimes a little data in a
    later context, so that a copy lands in a context that is not empty)
    and rules that copy contexts forward: each later context copies from
    one or two earlier ones: the whole context, only the triples of one
    predicate, or every triple turned around (a context as large as its
    source but with other triples).  Copies chain through the contexts,
    so a context is often filled with exactly the triples of another,
    closed one.  An existential rule is sometimes added, so that
    generating iterations copy too."""
    contexts = [iri("ctx%d" % i) for i in range(n_contexts)]
    schema = random_rdfs_quadgraph(rng, max_quads, n_contexts=1)
    quads = {Quad(contexts[0], *q.triple) for q in schema}
    if rng.random() < 0.4:
        extra = random_rdfs_quadgraph(rng, 3, n_contexts=1)
        target = rng.choice(contexts[1:])
        quads |= {Quad(target, *q.triple) for q in extra}
    predicates = sorted({q.p for q in quads}, key=lambda c: c.canonical)
    s, p, o, y = (Variable(v) for v in ("s", "p", "o", "y"))
    rules = []
    for j in range(1, n_contexts):
        for i in rng.sample(range(j), min(j, rng.choice((1, 1, 2)))):
            pred, head = p, (s, p, o)
            roll = rng.random()
            if predicates and roll < 0.3:
                pred = rng.choice(predicates)
                head = (s, pred, o)
            elif roll < 0.45:
                head = (o, p, s)
            rules.append(BridgeRule(
                "copy%d_%d" % (i, j), (QuadPattern(contexts[i], s, pred, o),),
                (QuadPattern(contexts[j], *head),)))
    if rng.random() < 0.5:
        i, j = sorted(rng.sample(range(n_contexts), 2))
        rules.append(BridgeRule(
            "gen", (QuadPattern(contexts[i], s, RDF_TYPE, o),),
            (QuadPattern(contexts[j], s, RDF_TYPE, y),
             QuadPattern(contexts[j], y, RDFS_SUBCLASSOF, o))))
    return QuadSystem(QuadGraph(quads), tuple(rules))


def random_boolean_query(rng: random.Random, chase: QuadGraph,
                         max_atoms: int = 3) -> QueryDocument:
    """A boolean CCQ biased toward satisfiable shapes: atoms start from
    chase quads, positions then flip to shared variables or junk."""
    pool = sorted(chase.quads, key=Quad.sort_key)
    variables = [Variable("q%d" % i) for i in range(3)]
    atoms = []
    for _ in range(rng.randrange(1, max_atoms + 1)):
        if pool:
            base = rng.choice(pool)
        else:
            base = Quad(iri("ctx0"), iri("n0"), iri("n1"), iri("n2"))
        terms = []
        for val in base.triple:
            roll = rng.random()
            if roll < 0.45:
                terms.append(rng.choice(variables))
            elif roll < 0.55:
                terms.append(iri("n%d" % rng.randrange(6)))
            else:
                terms.append(val)
        atoms.append(QuadPattern(base.ctx, *terms))
    return QueryDocument((), tuple(atoms))


def reference_escape_literal(text: str) -> str:
    """N-Quads literal escaping, one character at a time: the short
    escapes, lowercase ``\\uXXXX`` for other C0 controls and DEL."""
    short = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r",
             "\t": "\\t"}
    return "".join(short.get(ch) or ("\\u%04x" % ord(ch)
                                     if ord(ch) < 0x20 or ord(ch) == 0x7F
                                     else ch)
                   for ch in text)


def reference_escape_iri(text: str) -> str:
    """N-Quads IRI escaping, one character at a time: lowercase
    ``\\uXXXX`` for the IRI-unsafe characters, the space and C0 controls."""
    return "".join("\\u%04x" % ord(ch) if ch in '<>"{}|^`\\' or ord(ch) <= 0x20
                   else ch for ch in text)
