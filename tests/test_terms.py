import copy
import itertools
import operator
import pickle
import random
import re
import sys
import threading
import uuid

import pytest
from hypothesis import example, given, settings, strategies as st

from quadchase import terms
from quadchase.terms import (
    Quad,
    QuadGraph,
    QuadPattern,
    SkolemCollisionError,
    TermError,
    Variable,
    blank,
    interned,
    iri,
    literal,
    skolem_constant,
)

from conftest import examples
from oracles import (
    grown_quadgraph,
    random_constant,
    random_quadgraph,
    reference_escape_iri,
    reference_escape_literal,
    substitute,
    symbol_size,
)


def test_interning_returns_identical_handles():
    assert iri("http://example.org/a") is iri("http://example.org/a")
    assert blank("b1") is blank("b1")
    assert literal("x", datatype="dt") is literal("x", datatype="dt")
    assert literal("x") is not literal("y")
    assert iri("a") != blank("a")


def test_constants_are_immutable_and_carry_their_canonical():
    c = literal("x\n", lang="en")
    assert c.canonical == '"x\\n"@en' and not hasattr(c, "__dict__")
    for attr in ("kind", "lexical", "datatype", "lang", "canonical"):
        with pytest.raises(AttributeError):
            setattr(c, attr, "y")
        with pytest.raises(AttributeError):
            delattr(c, attr)
    with pytest.raises(AttributeError):
        c.extra = 1
    assert c.canonical == '"x\\n"@en' and c.lang == "en"
    for again in (copy.copy(c), copy.deepcopy(c),
                  pickle.loads(pickle.dumps(c))):
        assert again is c


def test_variables_are_interned_and_compare_by_identity():
    x = Variable("x")
    assert Variable("x") is x and x.name == "x"
    assert x != Variable("y")
    assert copy.deepcopy(x) is x
    assert pickle.loads(pickle.dumps(x)) is x
    with pytest.raises(AttributeError):
        x.name = "y"
    with pytest.raises(AttributeError):
        del x.name
    assert Variable("x") is x and Variable("x").name == "x"


def test_canonical_serialization_drives_equality():
    assert iri("a").canonical == "<a>"
    assert blank("b").canonical == "_:b"
    assert literal("hi").canonical == '"hi"'
    assert literal("hi", lang="en").canonical == '"hi"@en'
    assert literal("1", datatype="dt").canonical == '"1"^^<dt>'


def test_canonical_escapes_are_lowercase_hex():
    assert literal('a"b\\c\nd').canonical == '"a\\"b\\\\c\\nd"'
    assert literal("\x01").canonical == '"\\u0001"'
    assert iri("a b<c>").canonical == "<a\\u0020b\\u003cc\\u003e>"


def test_variable_must_be_named():
    with pytest.raises(TermError):
        Variable("")
    for name in ("a b", "x.", "\u00e9", "?x"):
        with pytest.raises(TermError, match=re.escape(repr(name))):
            Variable(name)
    assert Variable("x-1.y_2").name == "x-1.y_2"


def test_quad_context_must_be_iri():
    with pytest.raises(TermError):
        Quad(literal("c"), iri("a"), iri("b"), iri("c"))
    with pytest.raises(TermError):
        Quad(blank("c"), iri("a"), iri("b"), iri("c"))
    q = Quad(iri("c"), literal("l"), blank("b"), iri("o"))
    assert q.triple == (literal("l"), blank("b"), iri("o"))


def test_quads_are_ground():
    with pytest.raises(TermError):
        Quad(iri("c"), Variable("x"), iri("p"), iri("o"))
    with pytest.raises(TermError):
        Quad(iri("c"), iri("s"), iri("p"), "o")


def test_quad_is_its_plain_tuple():
    q = Quad(iri("c"), iri("s"), literal("p"), blank("o"))
    plain = (iri("c"), iri("s"), literal("p"), blank("o"))
    assert isinstance(q, tuple) and q == plain and hash(q) == hash(plain)
    assert plain in {q} and q in {plain}
    assert (q.ctx, q.s, q.p, q.o) == plain
    assert q != QuadPattern(*plain)


def test_quad_copies_and_pickles_to_an_equal_quad():
    q = Quad(iri("c"), skolem_constant("r1", 0, [iri("a")]),
             literal("x\n", datatype="dt"), literal("y", lang="en"))
    for again in (copy.copy(q), copy.deepcopy(q),
                  pickle.loads(pickle.dumps(q))):
        assert type(again) is Quad and again == q
        assert all(a is b for a, b in zip(again, q))
    assert copy.deepcopy(q.s) is q.s and q.s.is_skolem()


def test_quad_attributes_cannot_be_set():
    q = Quad(iri("c"), iri("s"), iri("p"), iri("o"))
    with pytest.raises(AttributeError):
        q.s = iri("t")
    with pytest.raises(AttributeError):
        q.extra = 1
    assert q.s is iri("s")


def test_quad_graph_rejects_plain_tuples():
    plain = (iri("c"), iri("s"), iri("p"), iri("o"))
    q = Quad(*plain)
    other = Quad(iri("c"), iri("s"), iri("p"), iri("o2"))
    with pytest.raises(TermError):
        QuadGraph([plain])
    with pytest.raises(TermError, match="o2"):
        QuadGraph([q, tuple(other), q])
    # a plain tuple equal to an earlier quad is a duplicate of it
    g = QuadGraph([q, plain])
    assert g.log == [q] and type(g.log[0]) is Quad


_escapable = st.text(st.one_of(
    st.sampled_from(list('<>"{}|^`\\ \x00\x1f\x7f\n\r\t\x80\u00e9\u2028')),
    st.characters(max_codepoint=0x7F),
    st.characters(blacklist_categories=("Cs",))), max_size=30)


@given(_escapable)
@example('<>"{}|^`\\ \x00\x1f\x7f\n\r\t\x80\u00e9\u2028')
def test_escapers_equal_the_per_character_reference(text):
    # the whole text, and each character alone: one unsafe character
    # among safe ones must still leave the fast path
    for part in [text] + ["a%sb" % ch for ch in text]:
        assert terms._escape_iri(part) == reference_escape_iri(part)
        assert terms._escape_literal(part) == reference_escape_literal(part)


def test_skolem_constant_is_deterministic():
    a = skolem_constant("r1", 0, [iri("a"), iri("b")])
    b = skolem_constant("r1", 0, [iri("a"), iri("b")])
    assert a is b
    assert a.lexical.startswith("sk_r1_0_")


def test_skolem_constant_distinguishes_argument_order():
    ab = skolem_constant("r1", 0, [iri("a"), iri("b")])
    ba = skolem_constant("r1", 0, [iri("b"), iri("a")])
    assert ab != ba


def test_skolem_constant_distinguishes_rules_and_indices():
    assert skolem_constant("r1", 0, [iri("a")]) \
        != skolem_constant("r2", 0, [iri("a")])
    assert skolem_constant("r1", 0, [iri("a")]) \
        != skolem_constant("r1", 1, [iri("a")])


def test_skolem_roundtrips_through_blank_factory():
    sk = skolem_constant("r1", 0, [iri("a")])
    again = blank(sk.lexical)
    assert again is sk
    assert again.is_skolem()


def test_skolem_collision_error_type_exists():
    # Collisions are astronomically unlikely; just pin the contract that
    # the registry raises rather than merging.
    assert issubclass(SkolemCollisionError, RuntimeError)


def test_skolem_label_collision_raises(monkeypatch):
    monkeypatch.setattr(terms, "fnv1a_64", lambda data: 0)
    rule_id = "collide" + uuid.uuid4().hex
    first = skolem_constant(rule_id, 0, [iri("a")])
    assert skolem_constant(rule_id, 0, [iri("a")]) is first
    with pytest.raises(SkolemCollisionError):
        skolem_constant(rule_id, 0, [iri("b")])


@pytest.mark.parametrize("data, digest", [
    (b"", 0xcbf29ce484222325),
    (b"a", 0xaf63dc4c8601ec8c),
    (b"foobar", 0x85944171f73967e8),
])
def test_fnv1a_64_gives_the_published_vectors(data, digest):
    assert terms.fnv1a_64(data) == digest
    # alone, twice (one common prefix: the whole string), and beside a
    # string of its length that differs in every byte (no common prefix)
    assert terms.fnv1a_64_many([data]) == [digest]
    other = bytes(b ^ 1 for b in data)
    assert terms.fnv1a_64_many([data, other, data])[::2] == [digest, digest]


# Byte strings that often share a length and a prefix, so the lanes of
# one length are hashed together, and that hold 0xff bytes (the largest
# lane values) and non-ASCII UTF-8.
_HASHED = st.builds(
    bytes.__add__,
    st.sampled_from([b"", b"<http://bench.example.org/e",
                     "\u00e9\x1f\U0001f600".encode(), b"\xff" * 9]),
    st.binary(max_size=4) | st.text(max_size=3).map(str.encode)
    | st.sampled_from([b"\xff", b"\xff" * 3]))


@settings(max_examples=examples(300), deadline=None)
@given(st.lists(_HASHED, max_size=12))
@example([])
@example([b""])
@example([b"", b"", b"a"])
@example([b"\xff" * 40, b"\xff" * 40, b"\xfe" + b"\xff" * 39])
def test_fnv1a_64_many_equals_the_scalar_hash(datas):
    assert terms.fnv1a_64_many(datas) == list(map(terms.fnv1a_64, datas))


# Skolem arguments: IRIs, literals with and without a tag or datatype,
# blank nodes, and nulls minted over these in turn.
_SKOLEM_ARG = st.recursive(
    st.builds(iri, st.text("a\u00e9/", min_size=1, max_size=3))
    | st.builds(literal, st.text('x\u00e9"\n', max_size=3))
    | st.builds(lambda text: literal(text, lang="fr"), st.text("xy"))
    | st.builds(lambda text: literal(text, datatype="urn:t"),
                st.text("12", max_size=2))
    | st.builds(blank, st.text("bc", min_size=1, max_size=3)),
    lambda args: st.builds(lambda key: skolem_constant("inner", 0, key),
                           st.lists(args, min_size=1, max_size=2)),
    max_leaves=4)


@settings(max_examples=examples(100), deadline=None)
@given(st.integers(0, 3),
       st.lists(st.lists(_SKOLEM_ARG, max_size=3).map(tuple), max_size=8),
       st.integers(0, 8))
def test_skolem_constants_are_the_per_key_constants(fn_index, keys, split):
    """One bulk call gives the very constants that one call per key
    gives, whether the per-key call comes first (the first ``split``
    keys) or after, and each label is the scalar hash of its key."""
    rule_id = "bulk" + uuid.uuid4().hex
    before = [skolem_constant(rule_id, fn_index, key)
              for key in keys[:split]]
    bulk = terms.skolem_constants(rule_id, fn_index, keys)
    after = [skolem_constant(rule_id, fn_index, key) for key in keys]
    assert len(bulk) == len(keys)
    assert all(map(operator.is_, bulk, before))
    assert all(map(operator.is_, bulk, after))
    for key, null in zip(keys, bulk):
        text = "\x1f".join(c.canonical for c in key)
        assert null.lexical == "sk_%s_%d_%016x" % (
            rule_id, fn_index, terms.fnv1a_64(text.encode()))


def test_a_bulk_label_collision_names_the_label_and_both_vectors(
        monkeypatch):
    """With every bulk hash 0, two argument vectors collide both inside
    one call and against a null minted by an earlier one, and the error
    names the label and both vectors."""
    monkeypatch.setattr(terms, "fnv1a_64_many",
                        lambda datas: [0] * len(datas))
    rule_id = "bulkcollide" + uuid.uuid4().hex
    label = "sk_%s_0_%016x" % (rule_id, 0)
    a, b, c = iri("a"), blank("b"), literal("c", lang="en")
    with pytest.raises(SkolemCollisionError) as inside:
        terms.skolem_constants(rule_id, 0, [(a,), (a,), (b, c)])
    first = skolem_constant(rule_id, 0, [a])
    assert terms.skolem_constants(rule_id, 0, [(a,), (a,)]) == [first] * 2
    with pytest.raises(SkolemCollisionError) as earlier:
        terms.skolem_constants(rule_id, 0, [(a,), (c,)])
    for err, other in ((inside, ("_:b", '"c"@en')), (earlier, ('"c"@en',))):
        message = str(err.value)
        assert label in message
        assert repr((rule_id, 0, ("<a>",))) in message
        assert repr((rule_id, 0, other)) in message


def test_skolem_labels_are_pinned():
    """Chase files name labelled nulls by these bytes."""
    null = skolem_constant("pet", 0, [iri("http://bench.example.org/e00401")])
    assert null.canonical == "_:sk_pet_0_178436cc7f4e1326"
    assert null.kind == terms.SKOLEM
    label = skolem_constant("r", 2, [iri("a"), literal("\u00e9", lang="fr"),
                                     blank("b")]).lexical
    digest = terms.fnv1a_64('<a>\x1f"\u00e9"@fr\x1f_:b'.encode("utf-8"))
    assert label == "sk_r_2_%016x" % digest


def test_skolem_arguments_must_be_constants():
    with pytest.raises(TermError):
        skolem_constant("r", 0, [iri("a"), Variable("x")])


# The reader reads a blank node label or a language tag only as far as a
# run of name characters goes, and hands a trailing '.' to the
# punctuation, so the factories refuse any label or tag that is not such
# a name: a written file holding it would not read back.  A skolem rule
# id outside [A-Za-z0-9_.-] is refused for the same reason.

@pytest.mark.parametrize("label", ["", "a b", "a\x01", "tab\t", " ", "a.",
                                   "a.b.", "a/b", "\u00e9"])
def test_blank_refuses_a_label_the_reader_cannot_read_back(label):
    with pytest.raises(TermError) as refused:
        blank(label)
    assert repr(label) in str(refused.value)


@pytest.mark.parametrize("tag", ["", "en x", "en\n", "\x00", "en.", "en/gb",
                                 "en-gb."])
def test_literal_refuses_a_tag_the_reader_cannot_read_back(tag):
    with pytest.raises(TermError) as refused:
        literal("x", lang=tag)
    assert repr(tag) in str(refused.value)


def test_literal_refuses_an_empty_datatype():
    """The reader reads no empty IRI, as a datatype or anywhere else."""
    with pytest.raises(TermError):
        literal("x", datatype="")


@pytest.mark.parametrize("rule_id", ["my rule", "r\x1f", "\n", "r/1", "r:1"])
def test_skolem_constant_refuses_a_rule_id_the_reader_cannot_read_back(
        rule_id):
    with pytest.raises(TermError):
        skolem_constant(rule_id, 0, [iri("a")])
    assert rule_id not in {ident[0] for ident in terms._SKOLEM_ARGS.values()}


def test_an_intern_table_hit_builds_no_constant(monkeypatch):
    """Each factory looks the canonical up first and builds a
    ``Constant`` only on a miss."""
    stem = "urn:hit:" + uuid.uuid4().hex
    built = []
    init = terms.Constant.__init__

    def counted_init(self, *fields):
        built.append(fields)
        init(self, *fields)

    monkeypatch.setattr(terms.Constant, "__init__", counted_init)
    makers = [lambda: iri(stem), lambda: iri(stem + " x"),
              lambda: blank("b" + stem[8:]),
              lambda: blank("sk_" + stem[8:]),
              lambda: literal(stem), lambda: literal(stem, lang="en"),
              lambda: literal(stem, datatype=stem),
              lambda: skolem_constant("hit", 0, [iri(stem)])]
    for make in makers:
        first = make()
        assert len(built) == 1
        assert built[0] == (first.kind, first.lexical, first.datatype,
                            first.lang, first.canonical)
        built.clear()
        assert make() is first
        assert interned(first.canonical) is first
        assert built == []
    assert copy.deepcopy(first) is first
    assert pickle.loads(pickle.dumps(first)) is first
    assert built == []


def _fields(c):
    return (c.kind, c.lexical, c.datatype, c.lang, c.canonical)


def test_mint_iris_takes_only_iris_spelled_without_an_escape():
    stem = "urn:mint:" + uuid.uuid4().hex
    plain = ["<%s/a>" % stem, "<%s/\u00e9\x7f#q?r=1>" % stem,
             "<%s/\U0001f600>" % stem]
    # every character _escape_iri rewrites
    others = ["<%s/%s>" % (stem, ch)
              for ch in '<>"{}|^`\\' + "".join(map(chr, range(0x21)))]
    others += ["<%s/\\u0041>" % stem, "<>", "<%s" % stem, "%s>" % stem,
               "_:%s" % stem[9:], '"%s"' % stem, "<%s/a>x" % stem,
               "x<%s/a>" % stem, "<%s/a>\n" % stem]
    minted = terms.mint_iris(plain + others)
    assert list(minted) == plain
    for text, c in minted.items():
        assert c is iri(text[1:-1]) and interned(text) is c
        assert _fields(c) == (terms.IRI, text[1:-1], None, None, text)
    # a text the table holds gives the interned constant
    assert terms.mint_iris(plain) == minted
    assert terms.mint_iris([]) == {}


def test_interned_finds_exactly_the_canonical_text():
    stem = "urn:interned:" + uuid.uuid4().hex
    assert interned("<%s>" % stem) is None
    c = iri(stem + ">")
    assert interned("<%s\\u003e>" % stem) is c
    assert interned("<%s\\u003E>" % stem) is None
    assert interned(blank("b1").canonical) is blank("b1")
    assert interned(literal("x", lang="en").canonical) \
        is literal("x", lang="en")


def test_concurrent_interning_mints_one_constant_per_canonical():
    """Four threads intern the same fresh terms while the interpreter
    switches threads as often as it can; every canonical (and every
    variable name) must still map to a single object."""
    run = uuid.uuid4().hex
    barrier = threading.Barrier(4, timeout=30)
    results = [None] * 4

    def work(slot):
        row = []
        for batch in range(100):
            # start each batch together, so the threads contend for the
            # same fresh canonicals instead of one running ahead
            barrier.wait()
            for i in range(batch * 20, batch * 20 + 20):
                c = iri("urn:race:%s:%d" % (run, i))
                row += [c, blank("race%s_%d" % (run, i)),
                        skolem_constant("race" + run, 0, [c]),
                        Variable("race%s_%d" % (run, i))]
        results[slot] = row

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert None not in results
    for row in results[1:]:
        assert all(a is b for a, b in zip(results[0], row))
    assert all(interned(c.canonical) is c for c in results[0]
               if not isinstance(c, Variable))


def test_by_context_groups_each_context_in_log_order():
    c1, c2 = iri("c1"), iri("c2")
    quads = [Quad(c1, iri("a"), iri("b"), iri("U1")),
             Quad(c2, iri("x"), iri("y"), iri("z")),
             Quad(c1, iri("a"), iri("b"), iri("U0"))]
    g = QuadGraph(quads)
    assert g.by_context() == {c1: [quads[0], quads[2]], c2: [quads[1]]}
    assert iri("unused") not in g.by_context()


def test_substitute_total_partial_identity():
    c = iri("c")
    x, y = Variable("x"), Variable("y")
    pat = QuadPattern(c, x, iri("p"), y)
    total = substitute(pat, {x: iri("a"), y: iri("b")})
    assert total == Quad(c, iri("a"), iri("p"), iri("b"))
    partial = substitute(pat, {x: iri("a")})
    assert isinstance(partial, QuadPattern)
    assert partial.s == iri("a") and partial.o is y
    ground = Quad(c, iri("a"), iri("p"), iri("b"))
    assert substitute(ground, {x: iri("z")}) is ground


def test_size_of_quadgraph():
    assert symbol_size(QuadGraph()) == 0
    g = QuadGraph([Quad(iri("c"), iri("a%d" % i), iri("p"), iri("o"))
                   for i in range(3)])
    assert symbol_size(g) == 12


@given(st.integers(0, 2 ** 32))
def test_union_is_idempotent_commutative_associative(seed):
    # a graph of two graphs' quads is their union: duplicates drop
    rng = random.Random(seed)
    a = random_quadgraph(rng, max_quads=8)
    b = random_quadgraph(rng, max_quads=8)
    c = random_quadgraph(rng, max_quads=8)
    ab = QuadGraph([*a, *b])
    assert QuadGraph([*a, *a]) == a
    assert ab == QuadGraph([*b, *a])
    assert QuadGraph([*ab, *c]) == QuadGraph([*a, *QuadGraph([*b, *c])])
    assert ab.log[:len(a)] == a.log


def test_graph_equality_follows_add_and_a_graph_does_not_hash():
    c = iri("c")
    q1, q2 = (Quad(c, iri("s%d" % i), iri("p"), iri("o")) for i in (1, 2))
    g = QuadGraph([q1])
    assert g == QuadGraph([q1])
    g.extend((q2, q2))
    assert g == QuadGraph([q2, q1]) and g != QuadGraph([q1])
    with pytest.raises(TypeError):
        hash(g)
    with pytest.raises(TypeError):
        {g}
    assert g.log == [q1, q2] and list(g) == [q1, q2]
    assert g.positions == {q1: 0, q2: 1} and g.quads == {q1, q2}


def test_graph_keeps_first_occurrences_in_order_through_copies():
    c = iri("c")
    q1, q2, q3 = (Quad(c, iri("s%d" % i), iri("p"), iri("o"))
                  for i in (1, 2, 3))
    g = QuadGraph([q2, q1, q2, q3, q1])
    assert g.log == [q2, q1, q3] and len(g) == 3
    assert g.positions == {q2: 0, q1: 1, q3: 2}
    assert QuadGraph(iter([q2, q1, q2, q3, q1])).positions == g.positions
    assert QuadGraph(iter([q2, q1, q3])).positions == g.positions
    g.candidates(c, p=iri("p"))
    for twin in (copy.copy(g), copy.deepcopy(g),
                 pickle.loads(pickle.dumps(g))):
        assert twin == g and twin.log == g.log
        assert twin._by_ctx is None
        assert twin.log is not g.log


def test_candidates_respect_indexes():
    c = iri("c")
    quads = [Quad(c, iri("s%d" % i), iri("p%d" % (i % 2)), iri("o"))
             for i in range(6)]
    g = QuadGraph(quads)
    assert len(g.candidates(c, p=iri("p0"))) == 3
    assert len(g.candidates(c, s=iri("s1"))) == 1
    assert g.candidates(c, s=iri("s1"), p=iri("p1"), o=iri("o")) \
        == [Quad(c, iri("s1"), iri("p1"), iri("o"))]
    assert g.candidates(iri("other")) == []


@given(st.integers(0, 2 ** 32))
def test_candidates_equal_a_filter_for_every_bound_slot_combination(seed):
    rng = random.Random(seed)
    g = random_quadgraph(rng, max_quads=20, n_contexts=2)
    grown = grown_quadgraph(g)
    probes = [Quad(iri("ctx%d" % rng.randrange(2)), random_constant(rng),
                   random_constant(rng), random_constant(rng))]
    probes += rng.sample(sorted(g, key=Quad.sort_key), min(3, len(g)))
    for probe in probes:
        for mask in itertools.product((False, True), repeat=3):
            s, p, o = (t if bound else None
                       for t, bound in zip(probe.triple, mask))
            expected = sorted(
                (q for q in g if q.ctx is probe.ctx
                 and s in (None, q.s) and p in (None, q.p)
                 and o in (None, q.o)), key=Quad.sort_key)
            for index in (g, grown):
                got = index.candidates(probe.ctx, s, p, o)
                assert sorted(got, key=Quad.sort_key) == expected
                count = index.candidate_count(probe.ctx, s, p, o)
                assert count >= len(got)
                # the lookup walks the smallest bucket of the bound slots
                for i in range(3):
                    if mask[i]:
                        single = [None, None, None]
                        single[i] = probe.triple[i]
                        assert count <= index.candidate_count(probe.ctx,
                                                              *single)


# A small universe, so lookups share buckets and meet the tie-break.
_LAZY_CTX = [iri("lazy-ctx%d" % i) for i in range(3)]
_LAZY_TERMS = [iri("lazy-t%d" % i) for i in range(3)] + [literal("lazy")]
_lazy_quad = st.builds(
    lambda c, s, p, o: Quad(_LAZY_CTX[c], _LAZY_TERMS[s], _LAZY_TERMS[p],
                            _LAZY_TERMS[o]),
    st.integers(0, 2), st.integers(0, 3), st.integers(0, 3),
    st.integers(0, 3))
_lazy_op = st.one_of(
    st.tuples(st.just("add"), _lazy_quad, st.none()),
    st.tuples(st.sampled_from(["bucket", "candidates", "candidate_count"]),
              _lazy_quad, st.tuples(st.booleans(), st.booleans(),
                                    st.booleans())))


def _reference_bucket(log, ctx, keys):
    """The bucket a lookup must walk, as a filter over the log: the
    quad itself when every slot is bound, else the smallest of the
    context's bucket and the bound slots' buckets, the first on a tie."""
    if None not in keys:
        return [Quad(ctx, *keys)] if Quad(ctx, *keys) in log else []
    pool = [q for q in log if q[0] is ctx]
    for j, key in enumerate(keys, 1):
        if key is not None:
            bucket = [q for q in log if q[0] is ctx and q[j] is key]
            if len(bucket) < len(pool):
                pool = bucket
    return pool


def _check_lookup(index, log, kind, ctx, keys):
    expected = _reference_bucket(log, ctx, keys)
    got = getattr(index, kind)(ctx, *keys)
    if kind == "candidate_count":
        assert got == len(expected)
        return
    if kind == "candidates":
        expected = [q for q in expected
                    if all(k is None or q[j] is k
                           for j, k in enumerate(keys, 1))]
    assert list(got) == expected


def _stale_map_ops():
    # the map of s in ctx0 is built, then ctx0 grows in that s
    q0, q1 = (Quad(_LAZY_CTX[0], _LAZY_TERMS[0], _LAZY_TERMS[k],
                   _LAZY_TERMS[0]) for k in (0, 1))
    return [("add", q0, None), ("candidates", q0, (True, False, False)),
            ("add", q1, None), ("candidates", q0, (True, False, False))]


@settings(max_examples=300, deadline=None)
@given(st.lists(_lazy_op, max_size=40))
@example(_stale_map_ops())
@example([("bucket", Quad(_LAZY_CTX[2], *_LAZY_TERMS[:3]),
           (False, True, True))]
         + [("add", Quad(_LAZY_CTX[2], *_LAZY_TERMS[:3]), None)]
         + [("bucket", Quad(_LAZY_CTX[2], *_LAZY_TERMS[:3]),
             (False, True, True))])
def test_lazy_index_maps_agree_with_a_filter_over_the_log(ops):
    """Any interleaving of adds and lookups, under every mask of bound
    slots: a growing graph's buckets are exactly the filters over its
    log that the tie-break picks, in log order, and a graph built from
    that log in one call gives the same buckets.  Buckets and maps are
    built by whichever lookup first reads them, before a context's first
    quad or mid-stream."""
    grown = QuadGraph()
    log: list[Quad] = []
    graph = None
    for kind, probe, mask in ops:
        if kind == "add":
            grown.extend((probe,))
            if probe not in log:
                log.append(probe)
                graph = None
            continue
        ctx, keys = probe[0], tuple(
            t if bound else None for t, bound in zip(probe[1:], mask))
        _check_lookup(grown, log, kind, ctx, keys)
        if graph is None:
            graph = QuadGraph(log)
        _check_lookup(graph, log, kind, ctx, keys)
    assert grown.log == log
    assert {q: i for i, q in enumerate(log)} == grown.positions
    # then every lookup, through whatever maps the stream left behind
    if graph is None:
        graph = QuadGraph(log)
    probes = log + [Quad(ctx, *_LAZY_TERMS[:3]) for ctx in _LAZY_CTX]
    for probe in probes:
        for mask in itertools.product((False, True), repeat=3):
            keys = tuple(t if bound else None
                         for t, bound in zip(probe[1:], mask))
            for index in (grown, graph):
                _check_lookup(index, log, "bucket", probe[0], keys)


_EXTEND_CTX = [iri("ctx%d" % i) for i in range(3)]
_EXTEND_TERMS = [iri("t0"), iri("t1")]
_extend_quads = st.lists(st.builds(Quad, st.sampled_from(_EXTEND_CTX),
                                   *[st.sampled_from(_EXTEND_TERMS)] * 3),
                         max_size=12)
# which s, p and o maps (0, 1, 2) of every context to build; None builds
# no index at all
_EXTEND_BUILT = [None, (), (0,), (1, 2), (0, 1, 2)]
_EXTEND_BASE = [Quad(_EXTEND_CTX[0], *_EXTEND_TERMS[:1] * 3),
                Quad(_EXTEND_CTX[1], *_EXTEND_TERMS[1:] * 3)]
# a duplicate, a quad already present and a context new to the graph
_EXTEND_MORE = [Quad(_EXTEND_CTX[0], *_EXTEND_TERMS[1:] * 3),
                _EXTEND_BASE[1],
                Quad(_EXTEND_CTX[2], *_EXTEND_TERMS[:1] * 3),
                Quad(_EXTEND_CTX[0], *_EXTEND_TERMS[1:] * 3),
                Quad(_EXTEND_CTX[0], _EXTEND_TERMS[0], *_EXTEND_TERMS[1:] * 2)]


def _build_indexes(graph, built):
    if built is not None:
        graph.candidate_count(_EXTEND_CTX[0])
        for ctx in graph.contexts():
            for j in built:
                keys = [None, None, None]
                keys[j] = _EXTEND_TERMS[0]
                graph.candidates(ctx, *keys)


@settings(max_examples=examples(200), deadline=None)
@given(base=_extend_quads, more=_extend_quads,
       built=st.sampled_from(_EXTEND_BUILT),
       build_at=st.none() | st.integers(0, 12))
@example(base=_EXTEND_BASE, more=_EXTEND_MORE, built=None, build_at=None)
@example(base=_EXTEND_BASE, more=_EXTEND_MORE, built=(0, 1, 2),
         build_at=None)
@example(base=_EXTEND_BASE, more=_EXTEND_MORE, built=(0, 1, 2), build_at=2)
def test_extend_agrees_with_repeated_add(base, more, built, build_at):
    """``extend`` leaves a graph as it does given one quad at a time: the
    same log, positions, buckets and built s, p and o maps, with no index
    built, only the buckets, or some or all maps of every context, built
    before ``extend`` or, when ``build_at`` is set, by the iterable it
    reads just before that quad.  Each bucket is the filter of the log by
    its context, and each built map the grouping of its bucket."""
    def fed(graph):
        for i, q in enumerate(more):
            if i == build_at:
                _build_indexes(graph, built)
            yield q

    one_by_one, bulk = QuadGraph(base), QuadGraph(base)
    if build_at is None:
        _build_indexes(one_by_one, built)
        _build_indexes(bulk, built)
    for q in fed(one_by_one):
        one_by_one.extend((q,))
    bulk.extend(fed(bulk))
    assert bulk.log == one_by_one.log
    assert bulk.positions == one_by_one.positions
    assert bulk._by_ctx == one_by_one._by_ctx
    assert bulk._maps == one_by_one._maps
    for ctx, bucket in (bulk._by_ctx or {}).items():
        assert bucket == [q for q in bulk.log if q[0] is ctx]
        for j, index in enumerate(bulk._maps[ctx], 1):
            if index is not None:
                grouped: dict = {}
                for q in bucket:
                    grouped.setdefault(q[j], []).append(q)
                assert index == grouped


def test_concurrent_lookups_on_a_shared_graph_agree():
    """Four threads look up every slot of every context of one fresh
    graph, so they race to build the same maps; each sees the filter."""
    rng = random.Random(7)
    graph = random_quadgraph(rng, max_quads=60, n_contexts=3)
    probes = sorted(graph, key=Quad.sort_key)
    barrier = threading.Barrier(4, timeout=30)
    failures: list = []

    def work():
        barrier.wait()
        for probe in probes:
            for mask in itertools.product((False, True), repeat=3):
                keys = tuple(t if bound else None
                             for t, bound in zip(probe[1:], mask))
                got = graph.candidates(probe[0], *keys)
                expected = [q for q in graph if q[0] is probe[0]
                            and all(k is None or q[j] is k
                                    for j, k in enumerate(keys, 1))]
                if sorted(got, key=Quad.sort_key) \
                        != sorted(expected, key=Quad.sort_key):
                    failures.append((probe, mask))

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
