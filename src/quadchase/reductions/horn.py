"""Propositional Horn satisfiability encoder and unit-propagation oracle.

A set of pure 3Horn clauses P1 /\\ P2 -> P3 (over variables plus the
constants ``t`` and ``f``) becomes a two-context quad-system: every
clause is one data quad in the clause context, truth of ``t`` seeds the
truth context, and a single fixed rule fires clause heads whose two body
atoms are already true.  The fixed ground query "is f true?" is entailed
exactly when the clause set is unsatisfiable.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

from ..engine import BridgeRule, QuadSystem
from ..syntax import ParseError, QueryDocument, _decode
from ..terms import (FrozenRecord, Quad, QuadGraph, QuadPattern, Variable,
                     iri)
from ..vocab import RDF_TYPE

TRUE_PROP = "t"
FALSE_PROP = "f"
TRUTH_CLASS = iri("T")
CTX_TRUE = iri("ct")
CTX_FALSE = iri("cf")


class HornClause(FrozenRecord):
    """A pure 3Horn clause: exactly two body literals and one head."""

    a: str
    b: str
    head: str

    def __post_init__(self) -> None:
        for name in (self.a, self.b, self.head):
            if not name or any(ch.isspace() for ch in name):
                raise ValueError("bad proposition name %r" % name)
            if name == "T":
                raise ValueError(
                    "proposition name 'T' is reserved by the encoding")


def pad_to_pure(clauses: Iterable[tuple[Sequence[str], str]]
                ) -> list[HornClause]:
    """Normalize impure 3Horn clauses (fewer than two body literals) by
    padding the body with the always-true constant ``t``."""
    out: list[HornClause] = []
    for body, head in clauses:
        body = list(body)
        while len(body) < 2:
            body.append(TRUE_PROP)
        if len(body) > 2:
            raise ValueError("clause body has more than two literals: %r"
                             % (body,))
        out.append(HornClause(body[0], body[1], head))
    return out


def parse_horn(data: Union[bytes, str]) -> list[HornClause]:
    """Line-oriented clause file: ``P1 P2 -> P3``; shorter bodies are
    padded with ``t``; ``#`` comments."""
    raw_clauses: list[tuple[list[str], str]] = []
    for lineno, raw in enumerate(_decode(data).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise ParseError("expected 'P1 P2 -> P3'", lineno, 1)
        body_text, head_text = line.split("->", 1)
        head = head_text.split()
        if len(head) != 1:
            raise ParseError("clause needs exactly one head literal",
                             lineno, 1)
        raw_clauses.append((body_text.split(), head[0]))
    try:
        return pad_to_pure(raw_clauses)
    except ValueError as exc:
        raise ParseError(str(exc))


def encode_horn(clauses: Sequence[HornClause]
                ) -> tuple[QuadSystem, QueryDocument]:
    """Encode pure 3Horn clauses; query entailed iff unsatisfiable."""
    quads = {Quad(CTX_TRUE, iri(TRUE_PROP), RDF_TYPE, TRUTH_CLASS)}
    for cl in clauses:
        quads.add(Quad(CTX_FALSE, iri(cl.a), iri(cl.b), iri(cl.head)))
    x1, x2, x3 = Variable("x1"), Variable("x2"), Variable("x3")
    rule = BridgeRule(
        "fire",
        (QuadPattern(CTX_TRUE, x1, RDF_TYPE, TRUTH_CLASS),
         QuadPattern(CTX_TRUE, x2, RDF_TYPE, TRUTH_CLASS),
         QuadPattern(CTX_FALSE, x1, x2, x3)),
        (QuadPattern(CTX_TRUE, x3, RDF_TYPE, TRUTH_CLASS),))
    query = QueryDocument((), (
        QuadPattern(CTX_TRUE, iri(FALSE_PROP), RDF_TYPE, TRUTH_CLASS),))
    return QuadSystem(QuadGraph(quads), (rule,)), query


class HornVerdict(FrozenRecord):
    satisfiable: bool
    model: frozenset[str]


def horn_sat_oracle(clauses: Sequence[HornClause]) -> HornVerdict:
    """Least-model unit propagation from {t}; unsatisfiable iff ``f``
    gets derived."""
    derived = {TRUE_PROP}
    changed = True
    while changed:
        changed = False
        for cl in clauses:
            if cl.a in derived and cl.b in derived \
                    and cl.head not in derived:
                derived.add(cl.head)
                changed = True
    return HornVerdict(FALSE_PROP not in derived, frozenset(derived))
