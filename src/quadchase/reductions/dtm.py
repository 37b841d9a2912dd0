"""Bounded Turing-machine encoder and direct-simulation oracle.

The encoder simulates a deterministic machine whose tape and run length
are capped at 2^(2^n) by materializing two counter chains, then the run
itself:

* level 0 seeds two cell objects and two configuration objects;
* for each level, an existential rule pairs up the previous level's
  objects inside a dedicated *pair context* ``p{i+1}`` (squaring the
  count, so level i holds 2^(2^i) objects), and non-generating rules
  derive the new level's typing, min/max marks and successor order in
  the element context ``c{i+1}``;
* a *simulation context* ``sim`` receives copies of the level-n chains
  and hosts initialization, transition, inertia, acceptance and
  back-propagation rules, plus empty-head constraints forbidding two
  symbols on one cell.

Splitting pair, element and simulation roles into separate contexts
keeps every rule's body contexts distinct from its existential head
contexts, so the dependency graph is context-acyclic (the only cycles
are self-loops on the non-generating ``sim``) and the chase terminates
without a budget, in one generating wave per level.  The query asks
whether the initial configuration is accepting.
"""

from __future__ import annotations

from typing import Optional, Union

from ..engine import BridgeRule, QuadSystem
from ..syntax import ParseError, QueryDocument, _decode
from ..terms import (Constant, FrozenRecord, Quad, QuadGraph, QuadPattern,
                     Variable, iri)
from ..vocab import RDF_TYPE

LEFT = -1
RIGHT = +1

# The largest counter depth ``encode_dtm`` encodes.
MAX_N = 2

STATE_NS = "state:"
SYMBOL_NS = "sym:"

SUCC = iri("succ")
SUCCT = iri("succt")
CON_SUCC = iri("conSucc")
CON_INIT = iri("conInit")
MIN_CELL = iri("minCell")
HEAD = iri("head")
STATE = iri("state")
ACCEPT = iri("Accept")

CELL_CLASS = iri("R")
CONF_CLASS = iri("K")


def element_context(i: int) -> Constant:
    return iri("c%d" % i)


def pair_context(i: int) -> Constant:
    return iri("p%d" % i)


SIM_CONTEXT = iri("sim")


def state_iri(q: str) -> Constant:
    return iri(STATE_NS + q)


def symbol_iri(sigma: str) -> Constant:
    return iri(SYMBOL_NS + sigma)


class DTM(FrozenRecord):
    """A deterministic Turing machine on a left-bounded tape.

    ``delta`` maps (state, symbol) to (state, symbol, direction) with
    direction +1/-1; the accepting state is also halting.
    """

    states: frozenset[str]
    alphabet: frozenset[str]
    blank: str
    delta: dict[tuple[str, str], tuple[str, str, int]]
    start: str
    accept: str

    def __post_init__(self) -> None:
        if self.blank not in self.alphabet:
            raise ValueError("blank symbol must be in the alphabet")
        for q in (self.start, self.accept):
            if q not in self.states:
                raise ValueError("state %r not declared" % q)
        for (q, s), (q2, s2, d) in self.delta.items():
            if q == self.accept:
                raise ValueError("accepting state is halting; no "
                                 "transition may leave %r" % q)
            if q not in self.states or q2 not in self.states:
                raise ValueError("undeclared state in transition (%r,%r)"
                                 % (q, s))
            if s not in self.alphabet or s2 not in self.alphabet:
                raise ValueError("undeclared symbol in transition (%r,%r)"
                                 % (q, s))
            if d not in (LEFT, RIGHT):
                raise ValueError("direction must be +1 or -1")


def parse_dtm(data: Union[bytes, str]) -> DTM:
    """Machine file: ``states:``, ``alphabet:``, ``blank:``, ``start:``,
    ``accept:`` headers plus ``delta: q s -> q' s' R|L`` lines."""
    states: list[str] = []
    alphabet: list[str] = []
    blank: Optional[str] = None
    start: Optional[str] = None
    accept: Optional[str] = None
    delta: dict[tuple[str, str], tuple[str, str, int]] = {}
    for lineno, raw in enumerate(_decode(data).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected 'keyword: ...'", lineno, 1)
        key, rest = line.split(":", 1)
        key = key.strip()
        fields = rest.split()
        if key == "states":
            states.extend(fields)
        elif key == "alphabet":
            alphabet.extend(fields)
        elif key == "blank":
            if len(fields) != 1:
                raise ParseError("blank needs one symbol", lineno, 1)
            blank = fields[0]
        elif key == "start":
            if len(fields) != 1:
                raise ParseError("start needs one state", lineno, 1)
            start = fields[0]
        elif key == "accept":
            if len(fields) != 1:
                raise ParseError("accept needs one state", lineno, 1)
            accept = fields[0]
        elif key == "delta":
            if len(fields) != 6 or fields[2] != "->":
                raise ParseError("expected 'delta: q s -> q2 s2 R|L'",
                                 lineno, 1)
            q, s, _, q2, s2, d = fields
            if d not in ("R", "L", "+1", "-1"):
                raise ParseError("direction must be R, L, +1 or -1",
                                 lineno, 1)
            if (q, s) in delta:
                raise ParseError("duplicate transition for (%s, %s)"
                                 % (q, s), lineno, 1)
            delta[(q, s)] = (q2, s2, RIGHT if d in ("R", "+1") else LEFT)
        else:
            raise ParseError("unknown keyword %r" % key, lineno, 1)
    if blank is None or start is None or accept is None:
        raise ParseError("machine file needs blank:, start: and accept:")
    try:
        return DTM(frozenset(states), frozenset(alphabet), blank, delta,
                   start, accept)
    except ValueError as exc:
        raise ParseError(str(exc))


def _counter_rules(rules: list[BridgeRule], chain: str, cls: Constant,
                   mark_min: str, mark_max: str, succ: str, n: int) -> None:
    """Doubling machinery for one counter chain across levels 0..n."""
    x0, x1, x2 = Variable("x0"), Variable("x1"), Variable("x2")
    x3, x4, x5, x6 = (Variable("x3"), Variable("x4"),
                      Variable("x5"), Variable("x6"))
    y = Variable("y")
    for i in range(n):
        ce, cn = element_context(i), element_context(i + 1)
        pn = pair_context(i + 1)
        min_i, min_n = iri("%s%d" % (mark_min, i)), iri("%s%d"
                                                        % (mark_min, i + 1))
        max_i, max_n = iri("%s%d" % (mark_max, i)), iri("%s%d"
                                                        % (mark_max, i + 1))
        succ_i, succ_n = iri("%s%d" % (succ, i)), iri("%s%d"
                                                      % (succ, i + 1))
        rules.append(BridgeRule(
            "dbl_%s_%d" % (chain, i),
            (QuadPattern(ce, x0, RDF_TYPE, cls),
             QuadPattern(ce, x1, RDF_TYPE, cls)),
            (QuadPattern(pn, x0, x1, y),
             QuadPattern(pn, y, RDF_TYPE, cls))))
        rules.append(BridgeRule(
            "copy_%s_%d" % (chain, i),
            (QuadPattern(pn, y, RDF_TYPE, cls),),
            (QuadPattern(cn, y, RDF_TYPE, cls),)))
        rules.append(BridgeRule(
            "min_%s_%d" % (chain, i),
            (QuadPattern(pn, x0, x0, x1),
             QuadPattern(ce, x0, RDF_TYPE, min_i)),
            (QuadPattern(cn, x1, RDF_TYPE, min_n),)))
        rules.append(BridgeRule(
            "max_%s_%d" % (chain, i),
            (QuadPattern(pn, x0, x0, x1),
             QuadPattern(ce, x0, RDF_TYPE, max_i)),
            (QuadPattern(cn, x1, RDF_TYPE, max_n),)))
        rules.append(BridgeRule(
            "succa_%s_%d" % (chain, i),
            (QuadPattern(ce, x1, succ_i, x2),
             QuadPattern(pn, x0, x1, x3),
             QuadPattern(pn, x0, x2, x4)),
            (QuadPattern(cn, x3, succ_n, x4),)))
        rules.append(BridgeRule(
            "succb_%s_%d" % (chain, i),
            (QuadPattern(ce, x1, succ_i, x2),
             QuadPattern(pn, x1, x3, x5),
             QuadPattern(pn, x2, x4, x6),
             QuadPattern(ce, x3, RDF_TYPE, max_i),
             QuadPattern(ce, x4, RDF_TYPE, min_i)),
            (QuadPattern(cn, x5, succ_n, x6),)))


def encode_dtm(m: DTM, w: str, n: Optional[int] = None
               ) -> tuple[QuadSystem, QueryDocument]:
    """Encode machine ``m`` on input ``w`` with tape/run bound 2^(2^n).

    ``n`` defaults to len(w) and must equal it; encodings beyond
    ``MAX_N`` are refused (the chase would materialize 2^(2^n) objects).
    """
    symbols = list(w)
    if n is None:
        n = len(symbols)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n != len(symbols):
        raise ValueError("input length %d must equal n=%d"
                         % (len(symbols), n))
    if n > MAX_N:
        raise ValueError("n=%d exceeds the desk-scale cap %d" % (n, MAX_N))
    for s in symbols:
        if s not in m.alphabet:
            raise ValueError("input symbol %r not in the alphabet" % s)

    c0 = element_context(0)
    k0, k1, m0, m1 = iri("k0"), iri("k1"), iri("m0"), iri("m1")
    quads = {
        Quad(c0, k0, RDF_TYPE, CELL_CLASS),
        Quad(c0, k1, RDF_TYPE, CELL_CLASS),
        Quad(c0, k0, RDF_TYPE, iri("min0")),
        Quad(c0, k1, RDF_TYPE, iri("max0")),
        Quad(c0, k0, iri("succ0"), k1),
        Quad(c0, m0, RDF_TYPE, CONF_CLASS),
        Quad(c0, m1, RDF_TYPE, CONF_CLASS),
        Quad(c0, m0, RDF_TYPE, iri("kmin0")),
        Quad(c0, m1, RDF_TYPE, iri("kmax0")),
        Quad(c0, m0, iri("ksucc0"), m1),
    }

    rules: list[BridgeRule] = []
    _counter_rules(rules, "cell", CELL_CLASS, "min", "max", "succ", n)
    _counter_rules(rules, "conf", CONF_CLASS, "kmin", "kmax", "ksucc", n)

    cn = element_context(n)
    sim = SIM_CONTEXT
    x0, x1 = Variable("x0"), Variable("x1")
    rules.append(BridgeRule(
        "sim_succ", (QuadPattern(cn, x0, iri("succ%d" % n), x1),),
        (QuadPattern(sim, x0, SUCC, x1),)))
    rules.append(BridgeRule(
        "sim_consucc", (QuadPattern(cn, x0, iri("ksucc%d" % n), x1),),
        (QuadPattern(sim, x0, CON_SUCC, x1),)))
    rules.append(BridgeRule(
        "sim_init", (QuadPattern(cn, x0, RDF_TYPE, iri("kmin%d" % n)),),
        (QuadPattern(sim, x0, RDF_TYPE, CON_INIT),)))
    rules.append(BridgeRule(
        "sim_mincell", (QuadPattern(cn, x0, RDF_TYPE, iri("min%d" % n)),),
        (QuadPattern(sim, x0, RDF_TYPE, MIN_CELL),)))

    x2 = Variable("x2")
    rules.append(BridgeRule(
        "succt_base", (QuadPattern(sim, x0, SUCC, x1),),
        (QuadPattern(sim, x0, SUCCT, x1),)))
    rules.append(BridgeRule(
        "succt_trans",
        (QuadPattern(sim, x0, SUCCT, x1), QuadPattern(sim, x1, SUCCT, x2)),
        (QuadPattern(sim, x0, SUCCT, x2),)))

    conf = Variable("conf")
    blank_sym = symbol_iri(m.blank)
    rules.append(BridgeRule(
        "init_head",
        (QuadPattern(sim, conf, RDF_TYPE, CON_INIT),
         QuadPattern(sim, x0, RDF_TYPE, MIN_CELL)),
        (QuadPattern(sim, conf, HEAD, x0),
         QuadPattern(sim, conf, STATE, state_iri(m.start)))))
    cells = [Variable("cell%d" % i) for i in range(n + 1)]
    input_body = [QuadPattern(sim, cells[0], RDF_TYPE, MIN_CELL)]
    input_body += [QuadPattern(sim, cells[i], SUCC, cells[i + 1])
                   for i in range(n)]
    input_body.append(QuadPattern(sim, conf, RDF_TYPE, CON_INIT))
    input_head = [QuadPattern(sim, conf, symbol_iri(symbols[i]), cells[i])
                  for i in range(n)]
    input_head.append(QuadPattern(sim, conf, blank_sym, cells[n]))
    rules.append(BridgeRule("init_input", tuple(input_body),
                            tuple(input_head)))
    rules.append(BridgeRule(
        "init_blanks",
        (QuadPattern(sim, conf, RDF_TYPE, CON_INIT),
         QuadPattern(sim, conf, blank_sym, x0),
         QuadPattern(sim, x0, SUCCT, x1)),
        (QuadPattern(sim, conf, blank_sym, x1),)))

    c_var, c2_var = Variable("c"), Variable("c2")
    i_var, j_var = Variable("i"), Variable("j")
    for k, ((q, s), (q2, s2, d)) in enumerate(sorted(m.delta.items())):
        move = QuadPattern(sim, i_var, SUCC, j_var) if d == RIGHT \
            else QuadPattern(sim, j_var, SUCC, i_var)
        rules.append(BridgeRule(
            "trans%d" % k,
            (QuadPattern(sim, c_var, HEAD, i_var),
             QuadPattern(sim, c_var, symbol_iri(s), i_var),
             QuadPattern(sim, c_var, STATE, state_iri(q)),
             move,
             QuadPattern(sim, c_var, CON_SUCC, c2_var)),
            (QuadPattern(sim, c2_var, HEAD, j_var),
             QuadPattern(sim, c2_var, symbol_iri(s2), i_var),
             QuadPattern(sim, c2_var, STATE, state_iri(q2)))))

    for k, s in enumerate(sorted(m.alphabet)):
        sym = symbol_iri(s)
        rules.append(BridgeRule(
            "inertia_before%d" % k,
            (QuadPattern(sim, c_var, HEAD, i_var),
             QuadPattern(sim, c_var, CON_SUCC, c2_var),
             QuadPattern(sim, j_var, SUCCT, i_var),
             QuadPattern(sim, c_var, sym, j_var)),
            (QuadPattern(sim, c2_var, sym, j_var),)))
        rules.append(BridgeRule(
            "inertia_after%d" % k,
            (QuadPattern(sim, c_var, HEAD, i_var),
             QuadPattern(sim, c_var, CON_SUCC, c2_var),
             QuadPattern(sim, i_var, SUCCT, j_var),
             QuadPattern(sim, c_var, sym, j_var)),
            (QuadPattern(sim, c2_var, sym, j_var),)))

    rules.append(BridgeRule(
        "acc", (QuadPattern(sim, c_var, STATE, state_iri(m.accept)),),
        (QuadPattern(sim, c_var, RDF_TYPE, ACCEPT),)))
    rules.append(BridgeRule(
        "acc_backprop",
        (QuadPattern(sim, c_var, CON_SUCC, c2_var),
         QuadPattern(sim, c2_var, RDF_TYPE, ACCEPT)),
        (QuadPattern(sim, c_var, RDF_TYPE, ACCEPT),)))

    z1, z2 = Variable("z1"), Variable("z2")
    ordered = sorted(m.alphabet)
    k = 0
    for a_i in range(len(ordered)):
        for b_i in range(a_i + 1, len(ordered)):
            rules.append(BridgeRule(
                "excl%d" % k,
                (QuadPattern(sim, z1, symbol_iri(ordered[a_i]), z2),
                 QuadPattern(sim, z1, symbol_iri(ordered[b_i]), z2)),
                ()))
            k += 1

    y = Variable("y")
    query = QueryDocument((), (
        QuadPattern(sim, y, RDF_TYPE, CON_INIT),
        QuadPattern(sim, y, RDF_TYPE, ACCEPT)))
    return QuadSystem(QuadGraph(quads), tuple(rules)), query


def dtm_oracle(m: DTM, w: str, max_steps: int,
               max_cells: Optional[int] = None) -> str:
    """Direct successor-configuration simulation.

    Returns ``accept``, ``reject`` (halted, stuck, fell off an end or a
    cell bound) or ``timeout`` (still running at max_steps).  Passing
    the encoding's bounds (max_steps = 2^(2^n) - 1 configurations-worth
    of moves, max_cells = 2^(2^n)) makes the verdict comparable with
    query entailment over the encoded system.
    """
    tape: dict[int, str] = {i: s for i, s in enumerate(w)}
    head = 0
    state = m.start
    steps = 0
    while True:
        if state == m.accept:
            return "accept"
        if steps >= max_steps:
            return "timeout"
        key = (state, tape.get(head, m.blank))
        if key not in m.delta:
            return "reject"
        state, written, direction = m.delta[key]
        tape[head] = written
        head += direction
        if head < 0:
            return "reject"
        if max_cells is not None and head >= max_cells:
            return "reject"
        steps += 1


def encoding_bounds(n: int) -> tuple[int, int]:
    """(max steps, max cells) covered by the n-level encoding."""
    cells = 2 ** (2 ** n)
    return cells - 1, cells
