"""The value-class contract shared by every record type in quadchase.

Each record is built from its fields, positionally or by keyword, with
class-body defaults.  Records are equal only to records of the same class
with equal fields, hash consistently with that equality, refuse every
set and delete, print as ``Name(field=value, ...)``, and survive copy,
deepcopy and pickle.
"""

import copy
import functools
import itertools
import pickle
import types

import pytest

from quadchase.chase import (
    ChaseConfig,
    ChaseResult,
    IterationRecord,
    SaturationReport,
)
from quadchase.contextgraph import (
    AcyclicityVerdict,
    ContextDependencyGraph,
    LevelMap,
)
from quadchase.engine import (
    BridgeRule,
    QuadSystem,
    RuleError,
    SkolemAtom,
    SkolemRule,
    SkolemTerm,
    Violation,
)
from quadchase.query import AnswerSet
from quadchase.reductions.cfg import CFG, CfgOracleVerdict
from quadchase.reductions.dtm import DTM
from quadchase.reductions.horn import HornClause, HornVerdict
from quadchase.semantics import SIMPLE, LocalRule, LocalSemantics
from quadchase.syntax import QueryDocument, RuleDocument, _Token
from quadchase.terms import (
    Quad,
    QuadGraph,
    QuadPattern,
    TermError,
    Variable,
    blank,
    iri,
    literal,
)

C, D = iri("http://example.org/c"), iri("http://example.org/d")
A, B = iri("http://example.org/a"), iri("http://example.org/b")
P = iri("http://example.org/p")
X, Y = Variable("x"), Variable("y")
PAT = QuadPattern(C, X, P, Y)
RULE = BridgeRule("r", (PAT,), (QuadPattern(D, X, P, Y),))
SK_TERM = SkolemTerm("r", 0, (X,))
ATOM = SkolemAtom(D, X, P, SK_TERM)
SK_RULE = SkolemRule("r", 0, (PAT,), ATOM)
GRAPH = QuadGraph([Quad(C, A, P, B)])
LEVELS = LevelMap({C: 0, D: 1}, 1)
LOCAL_RULE = LocalRule("swap", ((X, P, Y),), (Y, P, X))

# (class, its fields in declaration order, another value for one field)
CASES = [
    (QuadPattern, dict(ctx=C, s=X, p=P, o=Y), dict(o=B)),
    (BridgeRule, dict(rule_id="r", body=(PAT,), head=()), dict(rule_id="q")),
    (SkolemTerm, dict(rule_id="r", fn_index=0, args=(X,)), dict(fn_index=1)),
    (SkolemAtom, dict(ctx=D, s=X, p=P, o=SK_TERM), dict(o=A)),
    (SkolemRule, dict(rule_id="r", head_index=0, body=(PAT,), head=ATOM),
     dict(head_index=1)),
    (QuadSystem, dict(quads=GRAPH, rules=(RULE,)), dict(rules=())),
    (Violation, dict(rule_id="r", binding=((X, A),)),
     dict(binding=((X, B),))),
    (_Token, dict(kind="NAME", value="@prefix", line=1, col=1), dict(col=2)),
    (RuleDocument, dict(rules=(RULE,)), dict(rules=())),
    (QueryDocument, dict(free_vars=(X,), atoms=(PAT,)), dict(free_vars=())),
    (LocalRule, dict(name="swap", body=((X, P, Y),), head=(Y, P, X)),
     dict(name="turn")),
    (LocalSemantics, dict(name="mine", rules=(LOCAL_RULE,)), dict(rules=())),
    (ContextDependencyGraph,
     dict(nodes=frozenset({C, D}), tgc=frozenset({D}),
          edges=frozenset({(C, D)}), provenance={(C, D): ("r",)}),
     dict(tgc=frozenset())),
    (AcyclicityVerdict, dict(acyclic=False, witness=(C, D)),
     dict(witness=(D, C))),
    (LevelMap, dict(levels={C: 0, D: 1}, max_level=1), dict(max_level=2)),
    (ChaseConfig,
     dict(semantics=SIMPLE, max_iterations=3, max_quads=10,
          force_unrestricted=False),
     dict(max_quads=11)),
    (IterationRecord,
     dict(index=1, kind="generating", new_quads=2, cumulative=3,
          per_context={C: 2}),
     dict(cumulative=4)),
    (ChaseResult,
     dict(quads=GRAPH, status="complete", iteration_log=(),
          generating_iterations=0, violations=[Violation("r", ((X, A),))],
          levels=LEVELS),
     dict(status="inconsistent")),
    (SaturationReport,
     dict(saturation={C: 1}, generating_indices=[1], schedule_ok=True,
          problems=[]),
     dict(problems=["late"])),
    (AnswerSet,
     dict(variables=(X,), tuples=frozenset({(A,), (literal("1"),)}),
          complete=True),
     dict(complete=False)),
    (HornClause, dict(a="p", b="q", head="r"), dict(head="s")),
    (HornVerdict, dict(satisfiable=True, model=frozenset({"t"})),
     dict(satisfiable=False)),
    (DTM,
     dict(states=frozenset({"q0", "qA"}), alphabet=frozenset({"a", "_"}),
          blank="_", delta={("q0", "a"): ("qA", "a", 1)}, start="q0",
          accept="qA"),
     dict(start="qA")),
    (CFG,
     dict(variables=frozenset({"S"}), terminals=frozenset({"a"}), start="S",
          productions=(("S", ("a",)),)),
     dict(productions=())),
    (CfgOracleVerdict, dict(nonempty=True, witness=("a",), checked_up_to=1),
     dict(witness=None)),
]

# a field holds a dict, a list or a quad-graph, so hashing fails as it
# does for that field
UNHASHABLE = {ContextDependencyGraph, LevelMap, DTM, IterationRecord,
              QuadSystem, ChaseResult, SaturationReport}
# classes that print themselves in their own notation
OWN_REPR = {QuadPattern: "<http://example.org/c>:(?x, <http://example.org/p>, ?y)"}
DEFAULTS = {
    AcyclicityVerdict: dict(witness=None),
    ChaseConfig: dict(semantics=SIMPLE, max_iterations=None, max_quads=None,
                      force_unrestricted=False),
    ChaseResult: dict(levels=None),
}

params = pytest.mark.parametrize(
    "cls, fields, other", CASES, ids=[c[0].__name__ for c in CASES])


def build(cls, fields):
    return cls(*fields.values())


def test_every_record_class_is_covered():
    assert len({c[0] for c in CASES}) == len(CASES) == 25


@params
def test_positional_and_keyword_construction_agree(cls, fields, other):
    by_position = build(cls, fields)
    by_keyword = cls(**fields)
    for name, value in fields.items():
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value
    assert by_position == by_keyword


@params
def test_constructor_rejects_bad_argument_lists(cls, fields, other):
    values = list(fields.values())
    with pytest.raises(TypeError):
        cls(*values, "extra")
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{next(iter(fields)): values[0]})
    if cls not in DEFAULTS:
        with pytest.raises(TypeError):
            cls(*values[:-1])


@pytest.mark.parametrize("cls", sorted(DEFAULTS, key=lambda c: c.__name__))
def test_defaults_fill_omitted_fields(cls):
    fields = dict(CASES[[c[0] for c in CASES].index(cls)][1])
    defaults = DEFAULTS[cls]
    required = [v for k, v in fields.items() if k not in defaults]
    record = cls(*required)
    for name, value in defaults.items():
        assert getattr(record, name) is value


def test_chase_config_defaults_to_simple_semantics():
    assert ChaseConfig().semantics is SIMPLE


@params
def test_equality_needs_the_same_class_and_equal_fields(cls, fields, other):
    record = build(cls, fields)
    assert record == build(cls, fields)
    assert not record != build(cls, fields)
    assert record != cls(**{**fields, **other})
    assert record != tuple(fields.values())
    assert record != types.SimpleNamespace(**fields)


def test_pattern_never_equals_the_quad_with_its_terms():
    assert QuadPattern(C, A, P, B) != Quad(C, A, P, B)
    assert Quad(C, A, P, B) != QuadPattern(C, A, P, B)


@pytest.mark.parametrize("one, other", [
    (QuadPattern(C, X, P, Y), SkolemAtom(C, X, P, Y)),
    (RuleDocument(()), QueryDocument((), ())),
    (HornVerdict(True, None), AcyclicityVerdict(True, None)),
], ids=["pattern-atom", "rules-query", "horn-acyclicity"])
def test_records_of_two_classes_differ_even_with_equal_fields(one, other):
    assert one != other
    assert other != one


@params
def test_hash_agrees_with_equality(cls, fields, other):
    record = build(cls, fields)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(build(cls, fields))
        assert {record: 1}[build(cls, fields)] == 1


@params
def test_frozen_records_refuse_set_and_delete(cls, fields, other):
    record = build(cls, fields)
    value = next(iter(other.values()))
    for attr in fields:
        with pytest.raises(AttributeError):
            setattr(record, attr, value)
        with pytest.raises(AttributeError):
            delattr(record, attr)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert record == build(cls, fields)


@params
def test_repr_names_the_class_and_its_fields(cls, fields, other):
    expected = OWN_REPR.get(cls) or "%s(%s)" % (
        cls.__name__,
        ", ".join("%s=%r" % (k, v) for k, v in fields.items()))
    assert repr(build(cls, fields)) == expected


def _round_trips(record):
    return (copy.copy(record), copy.deepcopy(record),
            pickle.loads(pickle.dumps(record)))


def _own_repr(record):
    """The repr a record must have, built from its own fields: two equal
    records may print a set field's members in different orders."""
    cls = type(record)
    return OWN_REPR.get(cls) or "%s(%s)" % (cls.__name__, ", ".join(
        "%s=%r" % (name, getattr(record, name)) for name in cls._fields))


@params
def test_copy_deepcopy_and_pickle_round_trip(cls, fields, other):
    record = build(cls, fields)
    for twin in _round_trips(record):
        assert type(twin) is cls
        assert twin == record
        assert repr(twin) == _own_repr(twin)


def test_round_trip_of_a_set_whose_order_flips():
    """Constants hash by identity, and a copied or unpickled set is
    rebuilt in the original's iteration order, so two members that
    collide in the table can swap places: the twin is equal but prints
    its members in the other order.  Search for such a pair."""
    rows = [(iri("http://example.org/flip%d" % i),) for i in range(200)]
    pair = next(frozenset(two) for two in itertools.combinations(rows, 2)
                if list(frozenset(two)) != list(frozenset(list(
                    frozenset(two)))))
    record = AnswerSet((X,), pair, True)
    twins = _round_trips(record)
    assert any(list(t.tuples) != list(pair) for t in twins)
    for twin in twins:
        assert twin == record
        assert repr(twin) == _own_repr(twin)


@pytest.mark.parametrize("record", [RULE, SK_RULE], ids=["BridgeRule",
                                                        "SkolemRule"])
def test_rule_plans_are_cached_properties(record):
    assert isinstance(type(record).__dict__["plan"], functools.cached_property)
    rule = copy.copy(record)
    assert rule.plan is rule.plan
    assert rule == record


@pytest.mark.parametrize("build_bad, error", [
    (lambda: BridgeRule("", (PAT,), ()), RuleError),
    (lambda: BridgeRule("r", (), (PAT,)), RuleError),
    (lambda: BridgeRule("r", (QuadPattern(C, blank("b"), P, Y),), ()),
     RuleError),
    (lambda: QuadPattern(blank("g"), X, P, Y), TermError),
    (lambda: QuadPattern(literal("c"), X, P, Y), TermError),
    (lambda: QuadPattern(C, X, P, "y"), TermError),
    (lambda: HornClause("p", "T", "q"), ValueError),
    (lambda: HornClause("p", "q r", "s"), ValueError),
    (lambda: DTM(frozenset({"q0"}), frozenset({"a"}), "_", {}, "q0", "q0"),
     ValueError),
    (lambda: CFG(frozenset({"S"}), frozenset({"a"}), "T", ()), ValueError),
], ids=["rule-empty-id", "rule-empty-body", "rule-blank-node",
        "pattern-blank-context", "pattern-literal-context",
        "pattern-bad-term", "horn-reserved-name", "horn-space-in-name",
        "dtm-blank-not-in-alphabet", "cfg-start-not-a-variable"])
def test_post_init_checks_reject_bad_fields(build_bad, error):
    with pytest.raises(error):
        build_bad()
