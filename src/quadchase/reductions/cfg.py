"""Grammar-intersection encoder and CYK oracle.

Two context-free grammars over a shared terminal alphabet become a
single-context quad-system: the seed quad types a node as a chain start,
one existential rule per terminal lets every chain node sprout a
t-labelled successor (so all terminal strings appear as edge chains),
and each production v -> w1...wn becomes a rule collapsing a w-labelled
chain into a single v-labelled edge.  The boolean query "some node is
reachable from the seed by both start symbols" is then entailed exactly
when the two languages intersect, up to the chain length the chase
budget reaches.

The oracle answers the same question directly: Chomsky-normal-form
conversion plus CYK membership over every terminal string up to a length
bound.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Union

from ..engine import BridgeRule, QuadSystem
from ..syntax import ParseError, QueryDocument, _decode
from ..terms import (Constant, FrozenRecord, Quad, QuadGraph, QuadPattern,
                     Variable, iri)
from ..vocab import RDF_TYPE

CFG_CONTEXT = iri("c")
CFG_SEED = iri("a")
CFG_CLASS = iri("C")
SYMBOL_NS = "sym:"


def symbol_iri(name: str) -> Constant:
    return iri(SYMBOL_NS + name)


class CFG(FrozenRecord):
    """A context-free grammar; productions map one variable to a
    sequence over variables and terminals."""

    variables: frozenset[str]
    terminals: frozenset[str]
    start: str
    productions: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        if self.start not in self.variables:
            raise ValueError("start symbol %r is not a variable" % self.start)
        if self.variables & self.terminals:
            raise ValueError("variables and terminals overlap: %s"
                             % sorted(self.variables & self.terminals))
        for lhs, rhs in self.productions:
            if lhs not in self.variables:
                raise ValueError("production head %r is not a variable" % lhs)
            for sym in rhs:
                if sym not in self.variables and sym not in self.terminals:
                    raise ValueError("unknown symbol %r in production" % sym)


def parse_cfg(data: Union[bytes, str]) -> CFG:
    """Line-oriented grammar file: ``V -> sym sym ...`` per line, ``#``
    comments, empty right side for epsilon.  Symbols appearing on some
    left side are the variables, the rest are terminals; the first
    production's left side is the start symbol."""
    productions: list[tuple[str, tuple[str, ...]]] = []
    for lineno, raw in enumerate(_decode(data).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise ParseError("expected 'V -> ...'", lineno, 1)
        lhs, rhs = line.split("->", 1)
        lhs = lhs.strip()
        if not lhs or len(lhs.split()) != 1:
            raise ParseError("production needs a single-variable left side",
                             lineno, 1)
        productions.append((lhs, tuple(rhs.split())))
    if not productions:
        raise ParseError("grammar file has no productions")
    variables = frozenset(lhs for lhs, _ in productions)
    symbols = {sym for _, rhs in productions for sym in rhs}
    terminals = frozenset(symbols - variables)
    return CFG(variables, terminals, productions[0][0], productions)


def encode_cfg_pair(g1: CFG, g2: CFG) -> tuple[QuadSystem, QueryDocument]:
    """Encode a grammar pair over shared terminals as one quad-system
    plus the intersection query.

    Epsilon productions are dropped: the encoding covers nonempty
    terminal strings only.  Variable alphabets must be disjoint from
    each other and from the terminals.
    """
    if g1.variables & g2.variables:
        raise ValueError("grammar variable alphabets overlap: %s"
                         % sorted(g1.variables & g2.variables))
    terminals = g1.terminals | g2.terminals
    overlap = (g1.variables | g2.variables) & terminals
    if overlap:
        raise ValueError("variables and terminals overlap: %s"
                         % sorted(overlap))
    c = CFG_CONTEXT
    rules: list[BridgeRule] = []
    k = 0
    for lhs, rhs in g1.productions + g2.productions:
        k += 1
        if not rhs:
            continue  # epsilon production: outside the encoded language
        xs = [Variable("x%d" % i) for i in range(len(rhs) + 1)]
        body = tuple(QuadPattern(c, xs[i], symbol_iri(sym), xs[i + 1])
                     for i, sym in enumerate(rhs))
        head = (QuadPattern(c, xs[0], symbol_iri(lhs), xs[-1]),)
        rules.append(BridgeRule("p%d" % k, body, head))
    x, y = Variable("x"), Variable("y")
    for t in sorted(terminals):
        rules.append(BridgeRule(
            "t_%s" % t,
            (QuadPattern(c, x, RDF_TYPE, CFG_CLASS),),
            (QuadPattern(c, x, symbol_iri(t), y),
             QuadPattern(c, y, RDF_TYPE, CFG_CLASS))))
    data = QuadGraph([Quad(c, CFG_SEED, RDF_TYPE, CFG_CLASS)])
    query = QueryDocument((), (
        QuadPattern(c, CFG_SEED, symbol_iri(g1.start), y),
        QuadPattern(c, CFG_SEED, symbol_iri(g2.start), y)))
    return QuadSystem(data, tuple(rules)), query


# ---------------------------------------------------------------------------
# CYK oracle
# ---------------------------------------------------------------------------

def _to_cnf(g: CFG) -> tuple[set[tuple[str, str, str]],
                             set[tuple[str, str]], str, bool]:
    """Chomsky normal form: (binary rules, terminal rules, start,
    nullable-start flag)."""
    fresh = itertools.count()

    def new_var() -> str:
        return "_N%d" % next(fresh)

    start = new_var()
    prods: list[tuple[str, tuple[str, ...]]] = [(start, (g.start,))]
    prods.extend(g.productions)

    # TERM: lift terminals out of long right sides.
    lifted: dict[str, str] = {}
    step1: list[tuple[str, tuple[str, ...]]] = []
    for lhs, rhs in prods:
        if len(rhs) >= 2:
            new_rhs = []
            for sym in rhs:
                if sym in g.terminals:
                    if sym not in lifted:
                        lifted[sym] = new_var()
                        step1.append((lifted[sym], (sym,)))
                    new_rhs.append(lifted[sym])
                else:
                    new_rhs.append(sym)
            step1.append((lhs, tuple(new_rhs)))
        else:
            step1.append((lhs, rhs))

    # BIN: binarize long right sides.
    step2: list[tuple[str, tuple[str, ...]]] = []
    for lhs, rhs in step1:
        while len(rhs) > 2:
            helper = new_var()
            step2.append((lhs, (rhs[0], helper)))
            lhs, rhs = helper, rhs[1:]
        step2.append((lhs, rhs))

    # DEL: eliminate epsilon productions.
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in step2:
            if lhs not in nullable and all(s in nullable for s in rhs):
                nullable.add(lhs)
                changed = True
    step3: set[tuple[str, tuple[str, ...]]] = set()
    for lhs, rhs in step2:
        if not rhs:
            continue
        if len(rhs) == 1:
            step3.add((lhs, rhs))
        else:
            a, b = rhs
            step3.add((lhs, (a, b)))
            if a in nullable:
                step3.add((lhs, (b,)))
            if b in nullable:
                step3.add((lhs, (a,)))

    # UNIT: closure over unit chains (A -> B with B a nonterminal).
    nonterminals = {lhs for lhs, _ in step3} | {start}
    unit: dict[str, set[str]] = {}
    for v in nonterminals:
        reach = {v}
        frontier = [v]
        while frontier:
            u = frontier.pop()
            for lhs, rhs in step3:
                if lhs == u and len(rhs) == 1 \
                        and rhs[0] not in g.terminals \
                        and rhs[0] not in reach:
                    reach.add(rhs[0])
                    frontier.append(rhs[0])
        unit[v] = reach

    binary: set[tuple[str, str, str]] = set()
    term: set[tuple[str, str]] = set()
    for v, reach in unit.items():
        for u in reach:
            for lhs, rhs in step3:
                if lhs != u:
                    continue
                if len(rhs) == 2:
                    binary.add((v, rhs[0], rhs[1]))
                elif len(rhs) == 1 and rhs[0] in g.terminals:
                    term.add((v, rhs[0]))
    return binary, term, start, start in nullable


def cfg_membership(g: CFG, string: Sequence[str]) -> bool:
    """CYK membership after CNF conversion."""
    binary, term, start, null_start = _to_cnf(g)
    word = tuple(string)
    if not word:
        return null_start
    n = len(word)
    table: list[list[set[str]]] = [[set() for _ in range(n + 1)]
                                   for _ in range(n + 1)]
    for i, t in enumerate(word):
        for (v, u) in term:
            if u == t:
                table[i][i + 1].add(v)
    for width in range(2, n + 1):
        for i in range(n - width + 1):
            j = i + width
            cell = table[i][j]
            for mid in range(i + 1, j):
                left, right = table[i][mid], table[mid][j]
                for (v, b, c) in binary:
                    if b in left and c in right:
                        cell.add(v)
    return start in table[0][n]


class CfgOracleVerdict(FrozenRecord):
    nonempty: bool
    witness: Optional[tuple[str, ...]]
    checked_up_to: int


def cfg_intersection_oracle(g1: CFG, g2: CFG,
                            max_len: int) -> CfgOracleVerdict:
    """Exhaustive intersection test over strings of length 1..max_len;
    returns the shortest witness when one exists in range."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    terminals = sorted(g1.terminals | g2.terminals)
    for length in range(1, max_len + 1):
        for word in itertools.product(terminals, repeat=length):
            if cfg_membership(g1, word) and cfg_membership(g2, word):
                return CfgOracleVerdict(True, word, length)
    return CfgOracleVerdict(False, None, max_len)
