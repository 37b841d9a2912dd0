"""Seeded workload generators, their closed-form expectations, and the
checker that compares a chase file and a query answer against them.

``rdfs-closure`` and ``bridge-join`` set the chase up the same way:
``ctx0`` holds the data, copy rules run ``ctx0 -> ctx1 -> ctx2 -> ctx3``,
and one existential rule ``pet`` maps ``ctx3(?x, knows, ?y)`` to
``out(?x, hasPet, ?z)``.  ``horn-deep`` keeps the Horn encoding's own
two contexts and rule.  Each workload has a fixed structure; a seed
relabels its entities or propositions with a seeded permutation, so
every seed gives an isomorphic instance and the same amount of work.

The generators for ``rdfs-closure`` and ``bridge-join`` write N-Quads
text directly and derive the expected chase without calling quadchase.
``horn-deep`` goes through ``quadchase.reductions.encode_horn`` (what
``quadchase encode horn`` does); its expected chase is the input plus one
truth quad per chain proposition, and its verdict is cross-checked
against ``horn_sat_oracle``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable, Optional, Union

EX = "http://bench.example.org/"
RDF_TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
RDFS_SUBCLASSOF = "<http://www.w3.org/2000/01/rdf-schema#subClassOf>"
CTX = ["<%sctx%d>" % (EX, i) for i in range(4)]
OUT = "<%sout>" % EX
KNOWS = "<%sknows>" % EX
HAS_PET = "<%shasPet>" % EX

COPY_AND_PET_RULES = (
    "@prefix ex: <%s> .\n"
    "c01: ex:ctx0(?s, ?p, ?o) -> ex:ctx1(?s, ?p, ?o) .\n"
    "c12: ex:ctx1(?s, ?p, ?o) -> ex:ctx2(?s, ?p, ?o) .\n"
    "c23: ex:ctx2(?s, ?p, ?o) -> ex:ctx3(?s, ?p, ?o) .\n"
    "pet: ex:ctx3(?x, ex:knows, ?y) -> ex:out(?x, ex:hasPet, ?z) .\n"
    % EX).encode("ascii")

SKOLEM_LINE = re.compile(
    r"^(<[^>]*>) %s (_:sk_pet_0_[0-9a-f]{16}) %s \.$"
    % (re.escape(HAS_PET), re.escape(OUT)))

Answer = Union[bool, frozenset]


@dataclass(frozen=True)
class Inputs:
    """The bytes the program sees plus what a correct run must produce."""

    data: bytes
    rules: bytes
    query: bytes
    semantics: str
    resource_rule: bool
    quads_in: int
    # Every line of the chase file that holds no labelled null.
    plain_lines: frozenset
    # Subjects of the out(?x, hasPet, _:sk_pet_0_...) quads, one each.
    pet_subjects: frozenset
    # Per-context quad counts, from the generator's own formulas.
    context_counts: dict
    answer: Answer
    quads_out: int


def _entity(i: int) -> str:
    return "<%se%05d>" % (EX, i)


def _line(s: str, p: str, o: str, ctx: str) -> str:
    return "%s %s %s %s ." % (s, p, o, ctx)


def _copied(triples: list, pet_subjects: set, data_lines: list,
            semantics: str, resource_rule: bool, query: str,
            answer: Answer, counts: dict) -> Inputs:
    plain = frozenset(_line(s, p, o, c) for c in CTX for s, p, o in triples)
    return Inputs(
        data=("\n".join(data_lines) + "\n").encode("ascii"),
        rules=COPY_AND_PET_RULES,
        query=query.encode("ascii"),
        semantics=semantics,
        resource_rule=resource_rule,
        quads_in=len(data_lines),
        plain_lines=plain,
        pet_subjects=frozenset(pet_subjects),
        context_counts=counts,
        answer=answer,
        quads_out=len(plain) + len(pet_subjects),
    )


def _structure() -> random.Random:
    """The random source of a workload's fixed structure."""
    return random.Random(0)


def _relabel(seed: int, n: int) -> list:
    """A seeded permutation of ``range(n)``.  A seed only relabels a
    fixed structure, so every seed gives an isomorphic instance and the
    same amount of work, down to the number of objects allocated."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


def gen_rdfs_closure(seed: int, entities: int, classes: int) -> Inputs:
    """Entities spread evenly over a ``subClassOf`` chain, one ``knows``
    edge each, closed under rdfs-core without the resource rule."""
    rng = _structure()
    name = [_entity(k) for k in _relabel(seed, entities)]
    level = [i % classes for i in range(entities)]
    cls = ["<%sC%d>" % (EX, k) for k in range(classes)]
    data = [_line(cls[k], RDFS_SUBCLASSOF, cls[k + 1], CTX[0])
            for k in range(classes - 1)]
    closed = [(cls[a], RDFS_SUBCLASSOF, cls[b])
              for a in range(classes) for b in range(a + 1, classes)]
    for i in range(entities):
        data.append(_line(name[i], RDF_TYPE, cls[level[i]], CTX[0]))
        closed += [(name[i], RDF_TYPE, cls[k])
                   for k in range(level[i], classes)]
    for i in range(entities):
        target = name[rng.randrange(entities)]
        data.append(_line(name[i], KNOWS, target, CTX[0]))
        closed.append((name[i], KNOWS, target))
    asked = classes // 2
    query = ("@prefix ex: <%s> .\nselect ?x where { ex:ctx3(?x, rdf:type, "
             "ex:C%d) }\n" % (EX, asked))
    answer = frozenset((name[i],) for i in range(entities)
                       if level[i] <= asked)
    per_ctx = (classes * (classes - 1) // 2
               + sum(classes - lv for lv in level) + entities)
    counts = {c: per_ctx for c in CTX}
    counts[OUT] = entities
    return _copied(closed, set(name), data, "rdfs-core", False, query,
                   answer, counts)


def gen_bridge_join(seed: int, entities: int, knows_per_subject: int
                    ) -> Inputs:
    """Half of the entities each know a fixed number of distinct
    entities.  Simple semantics, so the chase only copies and mints."""
    rng = _structure()
    name = [_entity(k) for k in _relabel(seed, entities)]
    subjects = [name[i] for i in range(entities // 2)]
    triples = []
    for subject in subjects:
        for j in rng.sample(range(entities), knows_per_subject):
            triples.append((subject, KNOWS, name[j]))
    data = [_line(s, p, o, CTX[0]) for s, p, o in triples]
    query = ("@prefix ex: <%s> .\nselect ?x where { ex:ctx3(?x, ex:knows, "
             "?y), ex:out(?x, ex:hasPet, ?z) }\n" % EX)
    answer = frozenset((subject,) for subject in subjects)
    counts = {c: len(triples) for c in CTX}
    counts[OUT] = len(subjects)
    return _copied(triples, set(subjects), data, "simple", True, query,
                   answer, counts)


def horn_clauses(seed: int, chain: int, distractors: int) -> list:
    """A chain ``t t -> p``, ``p t -> p'``, ... of ``chain`` clauses
    ending in ``f``, plus distinct distractor clauses.  Each distractor's
    body holds some ``q`` proposition, and a ``q`` is only ever a head
    of a distractor, so by induction no distractor fires."""
    from quadchase.reductions import HornClause

    rng = _structure()
    props = ["p%04d" % k for k in _relabel(seed, chain - 1)]
    qs = ["q%04d" % k for k in _relabel(seed, max(1, distractors // 2))]
    clauses = [HornClause("t", "t", props[0] if props else "f")]
    for k, prop in enumerate(props):
        clauses.append(HornClause(
            prop, "t", props[k + 1] if k + 1 < len(props) else "f"))
    body_pool = qs + props + ["t"]
    head_pool = qs + props + ["f"]
    extra: list = []
    seen: set = set()
    while len(extra) < distractors:
        guard = qs[rng.randrange(len(qs))]
        other = body_pool[rng.randrange(len(body_pool))]
        a, b = (guard, other) if rng.random() < 0.5 else (other, guard)
        clause = HornClause(a, b, head_pool[rng.randrange(len(head_pool))])
        if clause not in seen:
            seen.add(clause)
            extra.append(clause)
    return clauses + extra


def gen_horn_deep(seed: int, chain: int, distractors: int) -> Inputs:
    """A Horn implication chain ending in ``f`` among distractors that
    never fire, encoded by ``encode_horn``; the query asks for ``f``."""
    from quadchase import serialize_nquads, serialize_query, serialize_rules
    from quadchase.reductions import encode_horn, horn_sat_oracle

    clauses = horn_clauses(seed, chain, distractors)
    system, query = encode_horn(clauses)
    data = serialize_nquads(system.quads)
    true_ctx, truth = "<ct>", "<T>"
    derived = [clause.head for clause in clauses[:chain]]
    plain = set(data.decode("ascii").splitlines())
    plain |= {_line("<%s>" % p, RDF_TYPE, truth, true_ctx) for p in derived}
    verdict = horn_sat_oracle(clauses)
    if verdict.satisfiable:
        raise AssertionError("horn-deep generator made a satisfiable set")
    return Inputs(
        data=data,
        rules=serialize_rules(system.rules).encode("ascii"),
        query=serialize_query(query).encode("ascii"),
        semantics="simple",
        resource_rule=True,
        quads_in=len(system.quads),
        plain_lines=frozenset(plain),
        pet_subjects=frozenset(),
        context_counts={true_ctx: 1 + len(derived), "<cf>": len(clauses)},
        answer=True,
        quads_out=len(plain),
    )


@dataclass(frozen=True)
class Workload:
    """A generator with its full-size parameters.  Why each workload was
    chosen is recorded in ``BENCHMARK.json`` and the README."""

    name: str
    default_seed: int
    params: dict
    # Parameters scaled for the growth report, by a factor in (0, 1].
    scaled: Callable[[float], dict]
    generate: Callable[..., Inputs]

    def inputs(self, seed: int, scale: float = 1.0) -> Inputs:
        return self.generate(seed, **self.scaled(scale))


def _scale(value: int, factor: float) -> int:
    return max(1, round(value * factor))


RDFS = dict(entities=64, classes=10)
BRIDGE = dict(entities=700, knows_per_subject=2)
HORN = dict(chain=64, distractors=800)

WORKLOADS = {
    "rdfs-closure": Workload(
        "rdfs-closure", 11, RDFS,
        lambda f: dict(RDFS, entities=_scale(RDFS["entities"], f)),
        gen_rdfs_closure),
    "bridge-join": Workload(
        "bridge-join", 22, BRIDGE,
        lambda f: dict(BRIDGE, entities=_scale(BRIDGE["entities"], f)),
        gen_bridge_join),
    "horn-deep": Workload(
        "horn-deep", 33, HORN,
        lambda f: dict(chain=_scale(HORN["chain"], f),
                       distractors=_scale(HORN["distractors"], f)),
        gen_horn_deep),
}


def check_chase(inputs: Inputs, chase: bytes) -> list:
    """Problems found in a chase file; empty when it is what the
    generator predicted."""
    text = chase.decode("utf-8")
    if not text.endswith("\n"):
        return ["chase file does not end with a newline"]
    lines = text[:-1].split("\n")
    problems = []
    if len(set(lines)) != len(lines):
        problems.append("chase file repeats a quad")
    counts: dict = {}
    for line in lines:
        ctx = line.rsplit(" ", 2)[-2] if line.endswith(" .") else "?"
        counts[ctx] = counts.get(ctx, 0) + 1
    if counts != inputs.context_counts:
        problems.append("per-context counts %s, expected %s"
                        % (sorted(counts.items()),
                           sorted(inputs.context_counts.items())))
    plain = {line for line in lines if "_:sk_" not in line}
    missing = inputs.plain_lines - plain
    extra = plain - inputs.plain_lines
    if missing or extra:
        problems.append("%d expected quads missing, %d unexpected "
                        "(e.g. %s)" % (len(missing), len(extra),
                                       sorted(missing or extra)[0]))
    subjects, nulls = [], set()
    for line in lines:
        if "_:sk_" not in line:
            continue
        m = SKOLEM_LINE.match(line)
        if m is None:
            problems.append("unexpected labelled-null quad %s" % line)
            continue
        subjects.append(m.group(1))
        nulls.add(m.group(2))
    if sorted(subjects) != sorted(inputs.pet_subjects) \
            or len(nulls) != len(subjects):
        problems.append("%d hasPet nulls for %d subjects; expected one "
                        "distinct null for each of %d"
                        % (len(nulls), len(subjects),
                           len(inputs.pet_subjects)))
    return problems


def check_answer(inputs: Inputs, answer: Optional[object]) -> list:
    """Problems with a query result: a boolean, or a list of rows of
    canonical terms."""
    if isinstance(inputs.answer, bool):
        if answer is not inputs.answer:
            return ["ask returned %r, expected %r" % (answer, inputs.answer)]
        return []
    if not isinstance(answer, list):
        return ["select returned %r, expected rows" % (answer,)]
    rows = [tuple(row) for row in answer]
    problems = []
    if any(term.startswith("_:") for row in rows for term in row):
        problems.append("an answer holds a blank node")
    if len(set(rows)) != len(rows):
        problems.append("an answer row repeats")
    if set(rows) != inputs.answer:
        problems.append("%d answers, expected %d (%d missing)"
                        % (len(rows), len(inputs.answer),
                           len(inputs.answer - set(rows))))
    return problems


def corruptions(chase: bytes) -> list:
    """Damaged copies of a correct chase file that the checker must
    reject: a dropped quad, a renamed subject, a quad moved to another
    context, and two labelled nulls merged."""
    lines = chase.decode("utf-8").splitlines()
    plain = [i for i, line in enumerate(lines) if "_:sk_" not in line]
    out = []
    k = plain[len(plain) // 2]
    out.append(("dropped quad", lines[:k] + lines[k + 1:]))
    retyped = list(lines)
    k = plain[-1]
    retyped[k] = retyped[k].replace(">", "x>", 1)
    out.append(("renamed subject", retyped))
    moved = list(lines)
    k = plain[0]
    head, ctx, dot = moved[k].rsplit(" ", 2)
    moved[k] = "%s <%sctx9> %s" % (head, EX, dot)
    out.append(("moved context", moved))
    nulls = [i for i, line in enumerate(lines) if "_:sk_" in line]
    if len(nulls) >= 2:
        merged = list(lines)
        label = merged[nulls[0]].split(" ")[2]
        parts = merged[nulls[1]].split(" ")
        parts[2] = label
        merged[nulls[1]] = " ".join(parts)
        out.append(("merged nulls", merged))
    return [(what, ("\n".join(ls) + "\n").encode("utf-8"))
            for what, ls in out]
