import collections
import functools
import io
import itertools
import pickle
import random
import sys
import threading
import tracemalloc
import uuid
from operator import attrgetter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from quadchase import syntax
from quadchase.syntax import (
    ParseError,
    StrictModeError,
    parse_nquads,
    parse_query,
    parse_rules,
    serialize_nquads,
    serialize_query,
    serialize_rules,
    write_nquads,
)
from quadchase.terms import (
    IRI,
    NAME_PATTERN,
    Quad,
    QuadGraph,
    TermError,
    blank,
    interned,
    iri,
    literal,
    skolem_constant,
)
from quadchase.vocab import RDF_TYPE, RDF_PROPERTY

from conftest import examples
from oracles import random_quadgraph


# ---------------------------------------------------------------------------
# N-Quads
# ---------------------------------------------------------------------------

def test_parse_single_line_context_last():
    g = parse_nquads(b"<a> <b> <U1> <c1> .")
    assert g == QuadGraph([Quad(iri("c1"), iri("a"), iri("b"), iri("U1"))])


def test_parse_empty_file():
    assert len(parse_nquads(b"")) == 0
    assert len(parse_nquads(b"# only a comment\n\n")) == 0


def test_parse_collapses_duplicates():
    g = parse_nquads(b"<a> <b> <c> <g> .\n<a> <b> <c> <g> .")
    assert len(g) == 1


def test_missing_graph_label_is_an_error():
    with pytest.raises(ParseError) as err:
        parse_nquads(b"<a> <b> <c> .")
    assert err.value.line == 1
    assert "graph label" in str(err.value)


def test_non_iri_context_rejected():
    with pytest.raises(ParseError):
        parse_nquads(b'<a> <b> <c> "lit" .')
    with pytest.raises(ParseError):
        parse_nquads(b"<a> <b> <c> _:g .")


def test_unterminated_statement():
    with pytest.raises(ParseError):
        parse_nquads(b"<a> <b> <c> <g>")


def test_generalized_triples_default_strict_rejects():
    line = b'"lit" <p> <o> <g> .'
    g = parse_nquads(line)
    assert len(g) == 1
    with pytest.raises(StrictModeError):
        parse_nquads(line, strict=True)
    with pytest.raises(StrictModeError):
        parse_nquads(b"<s> _:p <o> <g> .", strict=True)
    # blank subject and literal object stay legal in strict mode
    parse_nquads(b'_:s <p> "o" <g> .', strict=True)


def test_literals_with_datatype_and_lang():
    g = parse_nquads(b'<s> <p> "v"^^<dt> <g> .\n<s> <p> "w"@en-US <g> .')
    objs = {q.o for q in g}
    assert literal("v", datatype="dt") in objs
    assert literal("w", lang="en-US") in objs


def test_escape_round_trip_in_literal():
    g = parse_nquads(rb'<s> <p> "a\nb\"c\\dA" <g> .')
    (q,) = list(g)
    assert q.o == literal('a\nb"c\\dA')


@pytest.mark.parametrize("escape", [
    r"\u00zz", r"\u00_1", r"\u+0e9", r"\u 0e9", r"\u-0e9", r"\u0e",
    r"\U0000_0e9", r"\U+00000e9", r"\U000e9", r"\U00110000", r"\ud800",
    r"\U0000DFFF",
])
@pytest.mark.parametrize("template, col", [
    ("<http://x/%s> <p> <o> <g> .", 11),
    ('<s> <p> "a%s" <g> .', 11),
    ('<s> <p> "x"^^<dt%s> <g> .', 17),
])
def test_malformed_unicode_escapes_are_parse_errors_at_the_escape(
        escape, template, col):
    """``\\u`` takes exactly 4 and ``\\U`` exactly 8 hex digits; a sign,
    underscore or space that ``int()`` would accept is an error too, and
    so is a surrogate, which serialization could not encode."""
    with pytest.raises(ParseError) as err:
        parse_nquads(template % escape)
    assert (err.value.line, err.value.col) == (1, col)
    assert "escape" in err.value.message
    assert str(err.value).count("line ") == 1


def test_well_formed_unicode_escapes_decode():
    g = parse_nquads(r'<http://x/\u00e9\U0001F600> <p> "\u00E9\U0010ffff" '
                     r'<g> .')
    (q,) = list(g)
    assert q.s is iri("http://x/\u00e9\U0001f600")
    assert q.o is literal("\u00e9\U0010ffff")


def test_bad_escape_in_rules_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_rules("r: <c>(?x, <p\\u00_1>, ?y) -> <d>(?x, <p>, ?y) .")
    assert (err.value.line, err.value.col) == (1, 14)


@pytest.mark.parametrize("term, message, offset", [
    (r'"a\u00zz"', r"bad \u escape '00zz'", 2),
    # an IRI that ends in a backslash
    (r"<o\>", "dangling escape", 2),
    ('"abc', "unterminated string literal", 0),
    ('"a"^^dt', "datatype must be an IRI", 5),
    # the character after the '@'
    ('"a"@ ', "empty language tag", 4),
    ("_:b", "blank node _:b not allowed in a pattern", 0),
])
def test_rule_and_query_files_read_terms_as_nquads_does(term, message,
                                                        offset):
    """A rule file and a query file reject a bad term with the N-Quads
    reader's message, ``offset`` columns past the term's first
    character; a blank node, which N-Quads accepts, has no place in a
    pattern."""
    nquads = "<s> <p> %s <g> ." % term
    if term.startswith("_:"):
        assert len(parse_nquads(nquads)) == 1
    else:
        with pytest.raises(ParseError) as err:
            parse_nquads(nquads)
        assert err.value.col == len("<s> <p> ") + 1 + offset
        assert err.value.message.startswith(message)
        message = err.value.message
    for parse, template in [
            (parse_rules, "r: <c>(?x, <p>, %s) -> <d>(?x, <p>, ?x) ."),
            (parse_query, "ask { <c>(?x, <p>, %s) }")]:
        with pytest.raises(ParseError) as err:
            parse(template % term)
        assert (err.value.line, err.value.col, err.value.message) \
            == (1, template.index("%s") + 1 + offset, message)


def test_serialize_sorted_and_parse_round_trip():
    quads = [Quad(iri("g2"), iri("s"), iri("p"), iri("o")),
             Quad(iri("g1"), iri("s"), iri("p"), literal("x\ny")),
             Quad(iri("g1"), blank("b"), iri("p"), iri("o"))]
    data = serialize_nquads(QuadGraph(quads))
    lines = data.decode().strip().split("\n")
    assert lines == sorted(lines, key=lambda l: l.split(" ")[3] + l)
    assert parse_nquads(data) == QuadGraph(quads)


def test_serialization_is_insertion_order_free():
    quads = [Quad(iri("g"), iri("s%d" % i), iri("p"), iri("o"))
             for i in range(10)]
    a = serialize_nquads(QuadGraph(quads))
    b = serialize_nquads(QuadGraph(reversed(quads)))
    assert a == b


_label = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)
_iri_text = st.text(min_size=1, max_size=20)
_lang = st.from_regex(r"[a-zA-Z]{1,4}(-[a-zA-Z0-9]{1,4})?", fullmatch=True)

_constant = st.one_of(
    _iri_text.map(iri),
    _label.map(blank),
    st.builds(lambda lex: literal(lex), st.text(max_size=20)),
    st.builds(lambda lex, dt: literal(lex, datatype=dt),
              st.text(max_size=10), _iri_text),
    st.builds(lambda lex, lang: literal(lex, lang=lang),
              st.text(max_size=10), _lang),
)

_quad = st.builds(Quad, _iri_text.map(iri), _constant, _constant, _constant)


@settings(max_examples=examples(300), deadline=None)
@given(st.lists(_quad, max_size=50))
def test_round_trip_property(quads):
    g = QuadGraph(quads)
    assert parse_nquads(serialize_nquads(g)) == g


def test_round_trip_seeded_corpus():
    rng = random.Random(20240817)
    for _ in range(300):
        g = random_quadgraph(rng, max_quads=50, n_contexts=4)
        assert parse_nquads(serialize_nquads(g)) == g


# ---------------------------------------------------------------------------
# Terms resolved by their source text in the intern table
# ---------------------------------------------------------------------------
#
# ``parse_nquads`` looks each IRI and blank token up by its exact source
# text before decoding it.  Every test below runs cold (labels no parse or
# factory has seen) and warm (the terms interned first): the result must
# be the same either way.

_RUN = uuid.uuid4().hex[:12]
_FRESH = itertools.count()


def _fresh(stem: str) -> str:
    return "%s%s_%d" % (stem, _RUN, next(_FRESH))


_SHORT_ESCAPES = {"\t": r"\t", "\b": r"\b", "\n": r"\n", "\r": r"\r",
                  "\f": r"\f", '"': r"\"", "'": r"\'", "\\": r"\\"}


@st.composite
def _spelled_iri(draw):
    """An IRI lexical form and one of its many legal source spellings."""
    chars = draw(st.lists(st.one_of(
        st.sampled_from(sorted(_SHORT_ESCAPES) + list('<>{}|^` aZ')),
        st.characters(blacklist_categories=("Cs",))), min_size=1,
        max_size=8))
    out = []
    for ch in chars:
        ways = ["\\u%04X" % ord(ch), "\\U%08x" % ord(ch)]
        if ord(ch) > 0xFFFF:
            ways = ways[1:]
        else:
            ways.append("\\u%04x" % ord(ch))
        if ch in _SHORT_ESCAPES:
            ways.append(_SHORT_ESCAPES[ch])
        if ch not in ">\\\n":
            ways.append(ch)
        out.append(draw(st.sampled_from(ways)))
    return "".join(chars), "".join(out)


@settings(max_examples=examples(200), deadline=None)
@given(_spelled_iri(), st.booleans())
@example((">", r"\u003E"), False)
@example((">", r"\u003E"), True)
@example((">", r"\U0000003e"), False)
@example((">", r"\U0000003e"), True)
@example(("A", r"\u0041"), False)
@example(("A", r"\u0041"), True)
def test_any_iri_spelling_parses_to_the_factory_constant(spelled, warm):
    """A non-canonical spelling and the canonical one give one object."""
    lexical, source = spelled
    stem = _fresh("urn:any:") + "/"
    if warm:
        iri(stem + lexical)
    (q,) = list(parse_nquads("<%s%s> <p> <o> <g> ." % (stem, source)))
    assert q.s is iri(stem + lexical)
    (again,) = list(parse_nquads("%s <p> <o> <g> ." % q.s.canonical))
    assert again.s is q.s


@pytest.mark.parametrize("warm", [False, True])
def test_strict_rejects_interned_generalized_terms(warm):
    lex, bnode, g = _fresh("lit"), _fresh("b"), _fresh("g")
    if warm:
        literal(lex)
        blank(bnode)
        iri(g)
    with pytest.raises(StrictModeError):
        parse_nquads('"%s" <p> <o> <%s> .' % (lex, g), strict=True)
    with pytest.raises(StrictModeError):
        parse_nquads("<s> _:%s <o> <%s> ." % (bnode, g), strict=True)
    assert len(parse_nquads("<s> _:%s <o> <%s> ." % (bnode, g))) == 1


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("bad, col, message", [
    ("<%s> <> <o> <g> .", 5, "empty IRI"),
    (r"<%s> <a\u00zz> <o> <g> .", 7, r"bad \u escape '00zz'"),
    ("<%s> <p> <o <g .", 9, "unterminated IRI"),
])
def test_bad_iri_errors_keep_their_position(warm, bad, col, message):
    subject = _fresh("s")
    if warm:
        iri(subject)
    doc = "<%s> <p> <o> <g> .\n%s" % (subject, bad % subject)
    with pytest.raises(ParseError) as err:
        parse_nquads(doc)
    # the columns are those of a one-character subject, as at "<s> "
    assert (err.value.line, err.value.col) == (2, col + len(subject) - 1)
    assert err.value.message.startswith(message)


def _count_calls(monkeypatch, *names):
    """A counter of the calls to each named function of ``syntax``."""
    calls = collections.Counter()
    for name in names:
        def wrapper(*args, _name=name, _fn=getattr(syntax, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(syntax, name, wrapper)
    return calls


def test_interned_terms_are_not_decoded_again(monkeypatch):
    """A cold parse decodes and builds each distinct IRI or blank term
    once, not once per occurrence; re-parsing a serialized ~1,000-quad
    graph whose terms are all interned decodes and builds none.  (Literals
    are decoded on every occurrence, so the graph holds none.)"""
    stem = _fresh("urn:guard:")
    iris = ["<%s/%s%d>" % (stem, kind, i)
            for kind, n in (("s", 200), ("p", 5), ("o", 50), ("g", 3))
            for i in range(n)]
    iris.append("<%s/with\\u0020space>" % stem)
    blanks = ["_:%s" % _fresh("b") for _ in range(40)]
    blanks += ["_:%s" % _fresh("sk_guard_0_") for _ in range(10)]
    subjects, preds = iris[:200], iris[200:205]
    objects = iris[205:255] + iris[-1:] + blanks
    contexts = iris[255:258]
    lines = ["%s %s %s %s ." % (s, p, objects[(i * 7 + j) % len(objects)],
                                contexts[(i + j) % 3])
             for i, s in enumerate(subjects) for j, p in enumerate(preds)]
    doc = "\n".join(lines)
    used = set(" ".join(lines).split()) - {"."}
    n_iris = sum(1 for t in used if t.startswith("<"))
    n_blanks = len(used) - n_iris

    calls = _count_calls(monkeypatch, "_unescape", "iri", "blank")

    g = parse_nquads(doc)
    assert len(g) == 1000
    assert 0 < calls["_unescape"] <= n_iris
    assert 0 < calls["iri"] <= n_iris
    assert 0 < calls["blank"] <= n_blanks

    calls.clear()
    again = parse_nquads(serialize_nquads(g))
    assert again == g
    assert calls == {}


def test_reparsing_a_serialization_never_scans_a_term(monkeypatch):
    """Every line of a serialization whose terms are interned is read by
    the statement regex: re-parsing ~1,000 quads with IRIs, escaped
    IRIs, plain and skolem blanks and literals of every shape calls the
    character scanner for no term."""
    stem = _fresh("urn:scanless:")
    objects = [iri("%s/o%d" % (stem, i)) for i in range(20)]
    objects += [iri("%s/with space>%d" % (stem, i)) for i in range(5)]
    objects += [blank(_fresh("b")) for _ in range(10)]
    objects += [skolem_constant("scanless", 0, [iri(stem), iri(str(i))])
                for i in range(10)]
    objects += [literal('%s "%d"\n\t\\' % (stem, i)) for i in range(10)]
    objects += [literal(str(i), datatype=stem + "/dt") for i in range(10)]
    objects += [literal("x%d" % i, lang="en-GB") for i in range(10)]
    contexts = [iri("%s/g%d" % (stem, i)) for i in range(3)]
    g = QuadGraph(Quad(contexts[i % 3], iri("%s/s%d" % (stem, i // 5)),
                       iri("%s/p%d" % (stem, i % 5)),
                       objects[i % len(objects)])
                  for i in range(1000))
    assert len(g) == 1000
    data = serialize_nquads(g)

    calls = _count_calls(monkeypatch, "_scan_term", "_unescape")
    assert parse_nquads(data) == g
    assert calls == {}
    # the counters do see a line the regex leaves to the scanner
    assert parse_nquads(data + b"<a><b><c><d> .\n") != g
    assert calls["_scan_term"] == 4


def test_a_cold_parse_decodes_terms_without_the_line_scanner(monkeypatch):
    """Lines in the usual shape whose terms are new to the intern table
    never reach the character scanner: only the unseen terms are decoded,
    each where the scanner would decode it."""
    stem = _fresh("urn:cold:")
    lines = ['<%s/s%d> <%s/p%d> %s <%s/g%d> .'
             % (stem, i, stem, i % 3,
                ('"%d\\n"@en' % i, "_:%s" % _fresh("b"),
                 '"%d"^^<%s/dt>' % (i, stem), "<%s/o%d>" % (stem, i))[i % 4],
                stem, i % 2)
             for i in range(40)]
    calls = _count_calls(monkeypatch, "_scan_nquads_line", "_scan_term")
    minted = _count_minted(monkeypatch)
    g = parse_nquads("\n".join(lines))
    assert calls["_scan_nquads_line"] == 0
    # 40 subjects, 3 predicates, 40 objects and 2 contexts are new: the
    # 55 IRIs among them are minted in bulk, the 30 other terms decoded
    assert calls["_scan_term"] == 30
    assert len(minted) == 55
    assert all(c is iri(c.lexical) for c in minted)
    assert g == _scanned("\n".join(lines))


def _count_minted(monkeypatch):
    """The list of the constants ``syntax.mint_iris`` returns."""
    minted = []
    mint = syntax.mint_iris

    def counted(texts):
        out = mint(texts)
        minted.extend(out.values())
        return out
    monkeypatch.setattr(syntax, "mint_iris", counted)
    return minted


# How a character may be spelled inside an IRI on a line of a quad file:
# every character ``_escape_iri`` rewrites, raw where a line can hold it
# (not '>', '\\' or a newline) and escaped; other escapes, non-ASCII
# text and '\x7f'.
_IRI_PIECES = st.one_of(
    st.sampled_from(list('<"{}|^`') + [chr(c) for c in range(0x21)
                                       if c != 0x0A]),
    st.sampled_from([r"\u003e", r"\u003E", r"\U0000003e", r"\u000a",
                     r"\u005c", r"\\", r"\t", r"\u0041", r"\u0020",
                     r"\u00e9", r"\U0001F600"]),
    st.sampled_from(["\x7f", "\x80", "\u00e9", "\u2028", "\U0001f600"]),
    st.characters(blacklist_categories=("Cs",),
                  blacklist_characters=">\\\n"),
    st.text("abcXYZ0189:/#?=-._~%", min_size=1, max_size=6))


@settings(max_examples=examples(100), deadline=None)
@given(st.lists(st.lists(_IRI_PIECES, max_size=6).map("".join),
                min_size=1, max_size=12))
@example(["a", "b/c#d", "\u00e9\x7f", "\U0001f600"])
@example(['<"{}|^`\x00\x1f\r\t x', r"\u0041", r"\u003e\u003E"])
def test_a_cold_bulk_parse_builds_the_scanner_constants(bodies):
    """IRIs new to the intern table, read in bulk (minted, or decoded when
    spelled with an escape or a character the canonical escapes), are the
    constants the line scanner and ``iri`` give, field by field."""
    def doc(stem):
        texts = ["<%s/%d/%s>" % (stem, k, b) for k, b in enumerate(bodies)]
        n = len(texts)
        return "\n".join("%s <%s/p> %s %s ." % (texts[k], stem,
                                               texts[(k + 1) % n],
                                               texts[(k + 2) % n])
                          for k in range(n))

    def fields(c, stem):
        return (c.kind, c.lexical.replace(stem, "~"), c.datatype, c.lang,
                c.canonical.replace(stem, "~"))

    cold, reference = _fresh("urn:bulk-cold:"), _fresh("urn:scan-cold:")
    with mock.patch.object(syntax, "_scan_nquads_line",
                           wraps=syntax._scan_nquads_line) as scanner:
        got = parse_nquads(doc(cold)).log
    assert not scanner.called
    want = _scanned(doc(reference)).log
    assert [[fields(c, cold) for c in q] for q in got] \
        == [[fields(c, reference) for c in q] for q in want]
    for q in got:
        assert all(c is iri(c.lexical) for c in q)
    # once interned, the scanner finds the very same constants
    assert _scanned(doc(cold)).log == got


def test_bulk_parses_race_the_factory_to_one_constant_per_canonical():
    """Four threads take batches of fresh IRIs together, each reading a
    batch in bulk from a document two times in three and building it
    with ``iri`` (in reverse order, to meet a parse halfway) the third,
    while the interpreter switches threads as often as it can; each
    canonical must map to a single constant."""
    run = _fresh("urn:race:")
    barrier = threading.Barrier(4, timeout=30)
    results = [None] * 4

    def batch_lexicals(batch):
        return ["%s/%d/%dA" % (run, batch, i) for i in range(40)]

    def work(slot):
        row = []
        for batch in range(200):
            lexicals = batch_lexicals(batch)
            # one escaped spelling in three, which is decoded, not minted
            spelled = [lex[:-1] + "\\u0041" if i % 3 == 2 else lex
                       for i, lex in enumerate(lexicals)]
            doc = "\n".join("<%s> <%s> <%s> <%s> ." % (t, t, t, t)
                            for t in spelled)
            barrier.wait()
            if (slot + batch) % 3:
                row += [q.s for q in parse_nquads(doc)]
            else:
                row += reversed(list(map(iri, reversed(lexicals))))
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
    assert len(results[0]) == 8000
    for row in results[1:]:
        assert all(a is b for a, b in zip(results[0], row))
    lexicals = [lex for b in range(200) for lex in batch_lexicals(b)]
    assert [c.lexical for c in results[0]] == lexicals
    assert all(interned(c.canonical) is c for c in results[0])


def _reread_graph(stem, gap=" "):
    """A graph of 600 quads with IRIs, blank and skolem nodes and
    literals, each literal holding ``gap``, whose serialization fills
    over ten 4 KiB chunks."""
    objects = [iri("%s/o%d" % (stem, i)) for i in range(20)]
    objects += [blank(_fresh("b")) for _ in range(10)]
    objects += [skolem_constant("bulk", 0, [iri(stem), iri(str(i))])
                for i in range(10)]
    objects += [literal('%s%s"%d"\n' % (stem, gap, i)) for i in range(10)]
    objects += [literal("x%d" % i, lang="en-GB") for i in range(10)]
    return QuadGraph(Quad(iri("%s/g%d" % (stem, i % 3)),
                          iri("%s/s%d" % (stem, i // 5)),
                          iri("%s/p%d" % (stem, i % 5)),
                          objects[i % len(objects)])
                     for i in range(600))


def test_a_reread_chase_stays_on_the_bulk_path(monkeypatch):
    """Re-reading a serialized graph of over ten chunks, as bytes, text,
    a binary or a text file, with or without blank and comment lines,
    runs the row regex once per chunk and never the character scanner
    (its literals hold a space, so the split reader takes no chunk);
    one odd line sends only itself to the scanner."""
    stem = _fresh("urn:bulk:")
    g = _reread_graph(stem)
    data = serialize_nquads(g)
    lines = data.decode("utf-8").split("\n")
    commented = "\n".join(
        line + ("  # note\n\n \t\n# a comment line" if i % 9 == 0 else "")
        for i, line in enumerate(lines)).encode("utf-8")
    monkeypatch.setattr(syntax, "_CHUNK_BYTES", 4096)
    calls = _count_calls(monkeypatch, "_rows", "_scan_nquads_line",
                         "_scan_term")
    text = data.decode("utf-8")
    for source in (data, text, io.BytesIO(data), io.StringIO(text),
                   commented):
        chunks = len(list(syntax._pieces(source)))
        if not isinstance(source, (bytes, str)):
            source.seek(0)
        assert chunks > 10
        calls.clear()
        assert parse_nquads(source) == g
        assert calls == {"_rows": chunks}

    lines[300] = "<%s/a><%s/b><%s/c><%s/d> ." % ((stem,) * 4)
    odd = "\n".join(lines)
    calls.clear()
    assert len(parse_nquads(odd)) == 600
    assert calls == {"_rows": len(list(syntax._pieces(odd))),
                     "_scan_nquads_line": 1, "_scan_term": 4}


def test_a_written_chase_is_split_without_the_rows(monkeypatch):
    """Re-reading a serialized graph of over ten chunks whose literals
    hold no space, as bytes, text, a binary or a text file, splits every
    chunk: neither the row regex nor the character scanner runs, and no
    term is decoded.  One comment line sends only its own chunk to the
    row regex."""
    stem = _fresh("urn:split:")
    g = _reread_graph(stem, gap="")
    data = serialize_nquads(g)
    text = data.decode("utf-8")
    monkeypatch.setattr(syntax, "_CHUNK_BYTES", 4096)
    calls = _count_calls(monkeypatch, "_rows", "_scan_nquads_line",
                         "_scan_term")
    assert len(list(syntax._pieces(data))) > 10
    for source in (data, text, io.BytesIO(data), io.StringIO(text)):
        calls.clear()
        assert parse_nquads(source) == g
        assert calls == {}

    lines = text.split("\n")
    lines.insert(300, "# a comment line")
    calls.clear()
    assert parse_nquads("\n".join(lines)) == g
    assert calls == {"_rows": 1}


def test_an_odd_line_in_every_chunk_is_read_around(monkeypatch):
    """A file with an odd but valid line in each of its many chunks, after
    blank and comment lines: one regex pass per chunk, one scanner call
    per odd line, and the quads the scanner reads, in its order."""
    stem = _fresh("urn:around:")
    lines = serialize_nquads(_reread_graph(stem)).decode("utf-8").split("\n")
    # every eighth statement and the last, so that every chunk has one
    odd = sorted({*range(0, len(lines) - 1, 8), len(lines) - 2})
    for i in odd:
        lines[i] = "# note\n\n<%s/a%d><%s/b> <%s/c>  <%s/d>." % (
            stem, i, stem, stem, stem)
    doc = "\n".join(lines)
    monkeypatch.setattr(syntax, "_CHUNK_BYTES", 2048)
    chunks = list(syntax._pieces(doc))
    assert len(chunks) > 10
    assert all("><" in text for text in chunks)
    expected = _scanned(doc).log
    calls = _count_calls(monkeypatch, "_rows", "_scan_nquads_line")
    assert parse_nquads(doc).log == expected
    assert calls == {"_rows": len(chunks), "_scan_nquads_line": len(odd)}


@pytest.mark.parametrize("size", [1, 7, 64, 1 << 16])
def test_text_and_bytes_read_alike(size):
    """Text, a text file, bytes and a binary file give the same graph at
    every chunk size, and an empty file gives an empty one."""
    doc = _CHUNKED + "\n<é> <p> <o> <g> .\n"
    expected = parse_nquads(doc.encode("utf-8"))
    for source in (doc, io.StringIO(doc), io.BytesIO(doc.encode("utf-8"))):
        assert _chunked(size, source) == expected
    for empty in ("", b"", io.StringIO(""), io.BytesIO(b"")):
        assert len(_chunked(size, empty)) == 0


# ---------------------------------------------------------------------------
# The statement regex against the character scanner
# ---------------------------------------------------------------------------
#
# ``parse_nquads`` reads the usual rows of a chunk in bulk only when the
# result is certain to be the scanner's, and sends every other line to
# the scanner.  The properties below read random documents, in chunks of
# several sizes, and with the character scanner alone, and demand the
# same quads in the same order or the same error.

def _scanned(doc, strict=False):
    """``doc`` read with every line left to the character scanner."""
    quads = []
    for lineno, raw in enumerate(doc.split("\n"), start=1):
        quads.extend(syntax._scan_nquads_line(raw, lineno, strict))
    return QuadGraph(quads)


def _chunked(size, doc, **options):
    """``parse_nquads`` reading ``size`` bytes (characters of text) at a
    time."""
    with mock.patch.object(syntax, "_CHUNK_BYTES", size):
        return parse_nquads(doc, **options)


def _outcome(read, doc, **options):
    """The quads read, in log order, or the error's class and place."""
    try:
        return read(doc, **options).log
    except ParseError as exc:
        return (type(exc), exc.line, exc.col, exc.message)


_blank_label = st.from_regex(r"(sk_)?[A-Za-z0-9_.-]{0,4}[A-Za-z0-9_-]",
                             fullmatch=True)
_doc_constant = st.one_of(
    _constant,
    _blank_label.map(blank),
    st.builds(lambda args: skolem_constant("rd", 0, [iri(a) for a in args]),
              st.lists(_label, min_size=1, max_size=2)),
)
_blanks = st.text(st.sampled_from(" \t\r"), max_size=3)
# terms no parse or factory has seen: their texts miss the intern table
_cold_iri = st.uuids().map(lambda u: "<urn:cold:%s>" % u.hex)
_cold_text = st.one_of(_cold_iri, st.builds(
    lambda spelling, u: spelling % u.hex,
    st.sampled_from(["_:c%s", '"%s"', '"%s"@en', '"%s"^^<urn:cold:dt>']),
    st.uuids()))
_respelled_iri = _spelled_iri().map(lambda spelled: "<urn:rd:%s>" % spelled[1])
# a term of a line in the usual shape: warm (the canonical of a constant
# already built), cold, or an IRI spelled non-canonically
_usual_text = st.one_of(_doc_constant.map(attrgetter("canonical")),
                        _cold_text, _respelled_iri)
_usual_context = st.one_of(_iri_text.map(lambda t: iri(t).canonical),
                           _cold_iri, _respelled_iri)


@st.composite
def _term_text(draw):
    """A term as a document might spell it: a canonical serialization
    (the common case), a new or non-canonical one, one that does not
    decode, a blank label that may end in dots, or garbage."""
    kind = draw(st.sampled_from(["canonical"] * 5
                                + ["usual", "bad", "label", "garbage"]))
    if kind == "canonical":
        return draw(_doc_constant).canonical
    if kind == "usual":
        return draw(_usual_text)
    if kind == "bad":
        return draw(st.sampled_from(
            [r"<urn:bad:\u00zz>", r'"bad \q"', r"<urn:bad:\U0000D800>"]))
    if kind == "label":
        return "_:" + draw(st.from_regex(r"[A-Za-z0-9_.-]{0,5}",
                                         fullmatch=True))
    return draw(st.text(st.sampled_from('<>"_:.@^#\\ uUaA0-'), max_size=6))


_gap = st.text(st.sampled_from(" \t\r"), min_size=1, max_size=3)


@st.composite
def _statement_text(draw, usual=False, written=None):
    """A statement, in the usual shape (blanks between the terms) half
    of the time, or always when ``usual``; its four terms and ``.``
    joined by single spaces, as ``write_nquads`` writes them, half of
    the time, or always when ``written``."""
    if written is None:
        written = draw(st.booleans())
    if usual or draw(st.booleans()):
        # mostly IRIs as subject and predicate, so that most of these
        # statements hold under strict mode too
        terms = [draw(st.one_of(_usual_context, _usual_context, _usual_text))
                 for _ in range(2)]
        terms += [draw(_usual_text), draw(_usual_context)]
        gaps = [draw(_blanks)] + [draw(_gap) for _ in range(3)] \
            + [draw(_blanks), draw(_blanks)]
    else:
        terms = [draw(_term_text()) for _ in range(3)]
        terms.append(draw(st.one_of(
            _iri_text.map(lambda t: iri(t).canonical), _term_text())))
        gaps = [draw(st.one_of(_blanks, _gap)) for _ in range(6)]
    if written:
        return " ".join(terms) + " ."
    text = "".join(gap + term for gap, term in zip(gaps, terms))
    text += gaps[4] + "." + gaps[5]
    if draw(st.booleans()):
        text += "#" + draw(st.text(max_size=8))
    return text


@st.composite
def _line_text(draw, usual=False):
    """A line of a document; when ``usual``, a statement in the usual
    shape, a blank line or a comment."""
    kinds = ["statement"] * 5 + ["comment"] * 2
    kind = draw(st.sampled_from(
        kinds if usual else kinds + ["two", "truncated", "garbage"]))
    if kind == "statement":
        return draw(_statement_text(usual))
    if kind == "two":
        # both in the usual shape half of the time: an odd line that reads
        both = draw(st.booleans())
        return draw(_statement_text(both)) + draw(_blanks) \
            + draw(_statement_text(both))
    if kind == "truncated":
        text = draw(_statement_text())
        return text[:draw(st.integers(0, max(0, len(text) - 1)))]
    if kind == "garbage":
        return draw(st.text(max_size=20))
    return draw(_blanks) + draw(st.sampled_from(["", "# note"]))


def _lines(max_size):
    """The lines of a document: all of them statements as the writer
    spaces them (which ``parse_nquads`` splits in bulk), all in the
    usual shape, blank or comments (which it reads by rows in bulk), or
    any lines, a third of the time each."""
    return st.sampled_from(["written", "usual", "any"]).flatmap(
        lambda kind: st.lists(
            _statement_text(written=True) if kind == "written"
            else _line_text(kind == "usual"), max_size=max_size))


# Chunk sizes that cut a document of a few lines into several chunks,
# and the default, which reads it in one.
_SIZES = (48, 160, syntax._CHUNK_BYTES)


@settings(max_examples=examples(200), deadline=None)
@given(st.builds(lambda lines, end: "\n".join(lines) + end, _lines(12),
                 st.sampled_from(["", "\n"])),
       st.booleans(), st.booleans())
@example("<s> <p> <o> <g> .", False, True)
@example("<s>\t<p>\r<o>  <g>. # note", False, True)
@example("<s><p><o><g>.", False, True)
@example("<s> <p> <o> <g> . <s> <p> <o2> <g> .", False, True)
@example("<s> <p> <o> <g> .#", False, True)
@example("<s> <p> <o> <g> . x", False, True)
@example(r"<s> <p> <o>> <g> .", False, True)
@example(r"<s> <p> <s> <g> .", False, True)
@example('<s> <p> "x"^^<> <g> .', False, True)
@example('<s> <p> "x"^^<dt>@en <g> .', False, True)
@example('<s> <p> "x"@en. <g> .', False, True)
@example('<s> <p> "x"@en-GB <g> .', False, True)
@example('<s> <p> "a\\"b" <g> .', False, True)
@example('<s> <p> "a\\" <g> .', False, True)
@example('<s> <p> "abc', False, True)
@example("<s> <p> _:a. <g> .", False, True)
@example("<s> <p> _:a.b <g> .", False, True)
@example("<s> <p> _:... <g> .", False, True)
@example("<s> <p> <o> _:g .", False, True)
@example("<s> <p> <o> <g>", False, True)
@example("<s> <p> <o> .", False, True)
@example('"lit" <p> <o> <g> .', True, True)
@example("<s> _:b <o> <g> .", True, True)
@example('<s> "lit" <o> <g> .', True, True)
@example("_:b <p> _:sk_r1_0_x <g> .", False, True)
@example("_:b <p> _:sk_r1_0_x <g> .", False, False)
# an odd row between usual lines of one chunk: a term that runs past its
# line, a valid odd line, a term that does not decode, a line that
# strict mode rejects
@example("<a> <b> <c> <d> .\n<s> <p> <o> <g\nx> .\n<a> <b> <c> <e> .",
         False, True)
@example('<a> <b> <c> <d> .\n<s> <p> "a\nb" <g> .\n<a> <b> <c> <e> .',
         False, True)
@example("<a> <b> <c> <d> .\n<a><b><c><d> .\n<a> <b> <c> <e> .", False, True)
@example("<a> <b> <c> <d> .\n<a><b><c><d> .\n<a> <b> <c> <e> .", True, False)
@example("<a> <b> <c> <d> .\n<s> <p> <urn:bad:\\u00zz> <g> .\n"
         "<a> <b> <c> <e> .", False, True)
@example('<a> <b> <c> <d> .\n"lit" <p> <o> <g> .\n<a> <b> <c> <e> .',
         True, True)
@example('<a> <b> <c> <d> .\n<s> _:b <o> <g> .\n<a> <b> <c> <e> .',
         True, False)
@example("<a> <b> <c> <d> .\n# note\n\n<a><b><c><f> .\n<a> <b> <c> <e> .",
         False, True)
# one chunk declined by the rows, read whole by the scanner: a valid odd
# line, then a term that does not decode, then a row that runs past its
# line; and a valid odd line, then a line strict mode rejects
@example("<a><b><c><d> .\n<s> <p> <urn:bad:\\u00zz> <g> .\n"
         '<s> <p> "a\nb" <g> .\n<a> <b> <c> <e> .', False, False)
@example("<a><b><c><d> .\n<s> <p> <urn:bad:\\u00zz> <g> .\n"
         '<s> <p> "a\nb" <g> .\n<a> <b> <c> <e> .', False, True)
@example('<a><b><c><d> .\n<a> <b> <c> <d> .\n"lit" <p> <o> <g> .\n'
         "<a> <b> <c> <e> .", True, True)
# chunks in the writer's shape, split in bulk, and chunks that look like
# it that the split reader must leave to the rows and the scanner: a
# 6-term line next to a 4-term one, nine terms and '.' on one line, a
# literal holding " . " or IRIs, an interned name that is not a whole
# term, a term with a tail, a blank context, a double space, CRLF, no
# final newline, and a lone '.'
@example('_:b <p> "x"@en <g> .\n<s> <p> "1"^^<dt> <g> .\n', False, False)
@example('_:b <p> "x"@en <g> .\n<s> <p> "1"^^<dt> <g> .\n', True, True)
@example('"lit" <p> <o> <g> .\n<s> <p> <o> <g> .\n', True, True)
@example("<s> _:b <o> <g> .\n<s> <p> <o> <g> .\n", True, False)
@example("<a> <b> <c> <d> <e> .\n<s> <p> <g> .\n", False, True)
@example("<a> <b> <c> <d> <e> <s> <p> <o> <g> .\n", False, True)
@example('<s> <p> <o> "a . b" <g> .\n<x> .\n', False, True)
@example('<s> <p> "<a> <b> <c> <d> ." <g> .\n<a> <b> <c> <d> .\n',
         False, True)
@example("<s> <p> _:a. <g> .\n<a> <b> <c> <d> .\n", False, True)
@example("<s> <p> _:a/b <g> .\n<a> <b> <c> <d> .\n", False, True)
@example('<s> <p> "x"@en. <g> .\n<a> <b> <c> <d> .\n', False, True)
@example("<s> <p> <a>b <g> .\n<a> <b> <c> <d> .\n", False, True)
@example("<s> <p> <o> _:g .\n<a> <b> <c> <d> .\n", False, True)
@example("<s>  <p> <o> .\n<a> <b> <c> <d> .\n", False, True)
@example("<s> <p> <o> <g> .\r\n<s> <p> <o2> <g> .\r\n", False, True)
@example("<s> <p> <o> <g> .\n<s> <p> <o2> <g> .", False, True)
@example("<s> <p> <o> <g> .\n. <p> <o> <g> .\n", False, True)
@example("<s> <p> <o> . .\n", False, True)
# a literal that holds a space where the chunk still has four spaces a
# line, and literals without one in the writer's shape, split in bulk
@example('<s> <p> "a b" <g> .\n<s> <p> <g> .\n', False, True)
@example('<s> <p> "ab" <g> .\n<s> <p> "c"@en <g> .\n<s> <p> <o> <g> .\n',
         False, True)
def test_statement_regex_reads_like_the_scanner(doc, strict, scanner_first):
    """The same quads in the same order or the same error (class, line,
    column, message), for the whole document read in chunks of each size
    and for each line on its own: whether ``parse_nquads`` splits a
    chunk, reads it by rows or leaves lines to the scanner.  With
    ``scanner_first`` the scanner interns the document's terms before
    ``parse_nquads`` reads it, so most chunks are read in bulk; without
    it the first read, in the smallest chunks, meets terms new to the
    intern table."""
    readers = [functools.partial(_chunked, size) for size in _SIZES]
    readers.insert(0 if scanner_first else len(readers), _scanned)
    for text in [doc] + doc.split("\n"):
        outcomes = [_outcome(read, text, strict=strict) for read in readers]
        assert outcomes == outcomes[:1] * len(readers), text


def test_interned_names_ending_in_a_dot_are_left_to_the_scanner():
    """The scanner hands a name's trailing dots to the punctuation, so a
    canonical that ends in one is never a whole term: the factories
    refuse the name, and a line spaced as the writer spaces it is not
    split either."""
    label, tag = _fresh("a") + ".", "en."
    with pytest.raises(TermError):
        blank(label)
    with pytest.raises(TermError):
        literal("x", lang=tag)
    for doc in ("<s> <p> _:%s <g> ." % label, '<s> <p> "x"@%s <g> .' % tag):
        for text in (doc, doc + "\n"):
            with pytest.raises(ParseError) as err:
                parse_nquads(text)
            assert err.value.message == "line missing graph label (context)"


_name = st.from_regex(NAME_PATTERN, fullmatch=True)
_rule_id = st.from_regex(r"[A-Za-z0-9_.-]{1,6}", fullmatch=True)
_factory_constant = st.one_of(
    _iri_text.map(iri),
    _name.map(blank),
    st.builds(literal, st.text(max_size=8)),
    st.builds(lambda lex, dt: literal(lex, datatype=dt),
              st.text(max_size=8), _iri_text),
    st.builds(lambda lex, tag: literal(lex, lang=tag),
              st.text(max_size=8), _name),
    st.builds(lambda rule, n, args: skolem_constant(
        rule, n, [iri(a) for a in args]),
        _rule_id, st.integers(0, 3), st.lists(_label, max_size=2)),
)


@settings(max_examples=examples(300), deadline=None)
@given(_factory_constant)
@example(blank("sk_a.b"))
@example(literal("a b", lang="en-GB"))
@example(skolem_constant("r-1.x", 0, [iri("a")]))
def test_the_intern_table_holds_exactly_the_whole_terms(c):
    """``interned`` finds every constant by its canonical, and the
    scanner reads that canonical, then a space, back as the constant and
    stops at the space: so a reader may split a line at its spaces and
    look each piece up.  A copy is the constant."""
    assert pickle.loads(pickle.dumps(c)) is c
    assert interned(c.canonical) is c
    assert syntax._scan_term(c.canonical + " ", 0, 1) == (
        c, len(c.canonical))


# Any text a caller may hand a term factory: names, names with a
# character the reader stops at, and arbitrary text.
_any_text = st.one_of(
    st.from_regex(NAME_PATTERN, fullmatch=True),
    st.text(st.sampled_from("aZ0_-.:/@\u00e9 \t\x00"), max_size=6),
    st.text(max_size=6))


def _skolem_of(rule_id, fn_index, makers):
    return skolem_constant(rule_id, fn_index, [make() for make in makers])


# A factory call on such text, not made yet: the factory may refuse it.
_factory_call = st.deferred(lambda: st.one_of(
    st.builds(functools.partial, st.sampled_from([iri, blank, literal]),
              _any_text),
    st.builds(lambda lex, dt: functools.partial(literal, lex, datatype=dt),
              _any_text, _any_text),
    st.builds(lambda lex, tag: functools.partial(literal, lex, lang=tag),
              _any_text, _any_text),
    st.builds(functools.partial, st.just(_skolem_of), _any_text,
              st.integers(0, 3), st.lists(_factory_call, max_size=2)),
))


@settings(max_examples=examples(300), deadline=None)
@given(_factory_call)
@example(functools.partial(blank, "a."))
@example(functools.partial(blank, "a/b"))
@example(functools.partial(blank, "\u00e9"))
@example(functools.partial(literal, "x", lang="en."))
@example(functools.partial(literal, " ", datatype=""))
@example(functools.partial(_skolem_of, "r.", 0,
                           [functools.partial(blank, "a.b")]))
def test_every_constant_a_factory_makes_reads_back(make):
    """A factory refuses the text, or the constant it makes is interned
    under its canonical and a graph holding it in each place reads back
    as written."""
    try:
        c = make()
    except TermError:
        return
    g, p = iri("g"), iri("p")
    quads = [Quad(g, c, p, p), Quad(g, p, c, p), Quad(g, p, p, c)]
    if c.kind == IRI:
        quads.append(Quad(c, p, p, p))
    graph = QuadGraph(quads)
    assert parse_nquads(serialize_nquads(graph)) == graph
    assert interned(c.canonical) is c


# ---------------------------------------------------------------------------
# Writing in blocks, reading in chunks
# ---------------------------------------------------------------------------
#
# ``write_nquads`` sorts one context at a time and writes the lines in
# blocks; ``parse_nquads`` decodes bytes a chunk at a time.  Either must
# give what the whole-file code gives: the writer the bytes of one sorted
# key list, the reader what it reads from the text decoded in one piece.

def _one_shot(qg):
    """The whole file from one sorted list of (context, s, p, o) keys."""
    keys = sorted(map(Quad.sort_key, qg))
    return "".join("%s %s %s %s .\n" % (s, p, o, ctx)
                   for ctx, s, p, o in keys).encode("utf-8")


class _Sink:
    """A binary file that keeps the line count of each write and drops
    the bytes."""

    def __init__(self):
        self.lines = []

    def write(self, data):
        self.lines.append(data.count(b"\n"))
        return len(data)


_written_constant = st.one_of(
    _constant,
    st.sampled_from([literal('q"uote\\d \n\t\x00 line'), literal("é€𝄞"),
                     literal("x", lang="en-GB"),
                     literal("1", datatype="http://www.w3.org/2001/"
                                           "XMLSchema#integer")]),
    st.builds(lambda args: skolem_constant("wr", 0, [iri(a) for a in args]),
              st.lists(_label, min_size=1, max_size=2)),
)
# contexts whose canonicals share prefixes
_written_context = st.one_of(
    st.sampled_from(["a", "a/b", "ab", "a b", "a%2F", "é"]).map(iri),
    _iri_text.map(iri))
_written_quad = st.builds(Quad, _written_context, _written_constant,
                          _written_constant, _written_constant)


def _around(*terms):
    """Quads of one context holding each of ``terms`` in each of s, p and
    o, next to an IRI that sorts before every term and one that sorts
    after: the writer sorts whole lines, which order as the tuples of
    canonicals only while no term is a prefix of another followed by
    U+0020 or below."""
    g, low, high = iri("g"), iri("!"), iri("~")
    return [Quad(g, *slots) for t in terms
            for slots in ((t, low, high), (t, high, low), (low, t, high),
                          (high, t, low), (low, high, t), (high, low, t))]


@settings(max_examples=examples(150), deadline=None)
@given(st.lists(_written_quad, max_size=40), st.sampled_from([1, 2, 3, 1024]),
       st.booleans())
@example(_around(blank("b"), blank("b1"), blank("b.c")), 2, False)
@example(_around(literal("a"), literal("a", lang="en"),
                 literal("a", lang="en-gb"),
                 literal("a", datatype="http://example.org/t")), 3, True)
@example(_around(literal("a"), literal("a b")), 1024, False)
@example(_around(iri("a"), iri("a/b"), iri("ab")), 1024, True)
@example(_around(*(skolem_constant("wr", 0, [iri(a)]) for a in "ab")),
         1024, False)
def test_block_writer_matches_the_one_shot_serialization(quads, block,
                                                         indexed):
    g = QuadGraph(quads)
    if indexed and quads:
        g.candidate_count(quads[0].ctx)
    out, sink = io.BytesIO(), _Sink()
    with mock.patch.object(syntax, "_BLOCK_LINES", block):
        write_nquads(g, out)
        write_nquads(g, sink)
    assert out.getvalue() == serialize_nquads(g) == _one_shot(g)
    assert all(0 < lines <= block for lines in sink.lines)
    assert sum(sink.lines) == len(g)


def test_a_context_spans_several_blocks():
    big, small = iri("http://example.org/big"), iri("http://example.org/b")
    quads = [Quad(big, iri("http://example.org/e%d" % (i % 613)),
                  iri("http://example.org/p"), literal("v%d é" % i))
             for i in range(2500)]
    quads += [Quad(small, blank("x"), iri("p"), literal("y"))]
    g = QuadGraph(reversed(quads))
    sink = _Sink()
    write_nquads(g, sink)
    assert sink.lines == [1, 1024, 1024, 452]
    assert serialize_nquads(g) == _one_shot(g)


def test_writing_builds_no_index():
    g = QuadGraph([Quad(iri("g%d" % (i % 3)), iri("s"), iri("p"),
                        literal(str(i))) for i in range(10)])
    assert serialize_nquads(g) == _one_shot(g)
    assert g._by_ctx is None


def test_writing_holds_one_context_and_one_block():
    """The writer holds one context's formatted lines and one block of
    text, so twenty contexts of 1,000 quads each,
    indexed as a chase leaves its graph, are written with a peak under a
    quarter of the file.  The one-shot serializer peaks at about three
    and a half times the file."""
    quads = [Quad(iri("http://example.org/c%d" % c),
                  iri("http://example.org/e%d" % (i % 997)),
                  iri("http://example.org/p%d" % (i % 7)),
                  literal("value %d" % i))
             for c in range(20) for i in range(1000)]
    g = QuadGraph(quads)
    g.candidate_count(quads[0].ctx)
    sink = _Sink()
    tracemalloc.start()
    try:
        write_nquads(g, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = len(serialize_nquads(g))
    assert sum(sink.lines) == len(g) and size > 1_500_000
    assert peak < size / 4


_CHUNKED = (
    "# a comment\n"
    '<s> <p> "é€𝄞 near a cut" <g> .\r\n'
    "\n"
    " \t\r\n"
    "<s> <p> <o> <a/b> . # and a comment\r\n"
    '_:b1 <p> "x"@en-GB <ab> .\n'
    "# another comment\n"
    '<s> <p> "1"^^<http://www.w3.org/2001/XMLSchema#integer> <a> .\n'
    '<s> <p> "𝄞𝄞" <g> .'
)


@pytest.mark.parametrize("tail", [
    "", "\n", "\r\n", "\n\n# last\n",
    "\n<s> <p> <o> .\n",
    '\n<é> <p> "é\\q" <g> .',
    '\r\n<s> <p> "é" "x" <g> .\r\n',
])
def test_chunked_read_matches_the_whole_text(tail):
    """Every cut of the bytes, of the text and of a binary and a text
    file: the same quads in the same order, or the same error at the same
    line and column, as the text read in one piece."""
    text = _CHUNKED + tail
    data = text.encode("utf-8")
    expected = _outcome(parse_nquads, text)
    for size in range(1, len(data) + 2):
        for source in (data, text, io.BytesIO(data),
                       io.StringIO(text, newline="")):
            assert _outcome(functools.partial(_chunked, size), source) \
                == expected, (size, type(source))


@settings(max_examples=examples(150), deadline=None)
@given(_lines(16), st.sampled_from(["\n", "\r\n"]), st.integers(1, 64),
       st.booleans())
def test_chunked_read_of_random_documents(lines, newline, size, strict):
    """Bytes, text, a binary and a text file, read in chunks of ``size``
    and before the character scanner: the same quads in the same order,
    or the same error, as the scanner."""
    text = newline.join(lines)
    data = text.encode("utf-8")
    outcomes = [_outcome(functools.partial(_chunked, size), source,
                         strict=strict)
                for source in (data, text, io.BytesIO(data),
                               io.StringIO(text, newline=""))]
    assert outcomes == [_outcome(_scanned, text, strict=strict)] * 4


_GOOD_LINE = '<s> <p> "é" <g> .\n'.encode("utf-8")


@pytest.mark.parametrize("before, bad, col, reason", [
    (3, b'<s> <p> "\xe2\x82\xac\xff" <g> .\n', 11, "invalid start byte"),
    (5000, b'<s> <p> "\xe2\x82\xac\xff" <g> .\n', 11, "invalid start byte"),
    (5000, b'<s\xc3\xa9> <p> <o> <g> . # \xe2\x82\n', 22,
     "invalid continuation byte"),
    (5000, b'<s\xc3\xa9> <p> <o> <g> . # \xe2\x82', 22,
     "unexpected end of data"),
])
def test_a_byte_that_is_not_utf8_is_located(before, bad, col, reason):
    """In the first chunk and in a later one, with multi-byte characters
    before the bad byte on its line, from bytes and from a file."""
    data = _GOOD_LINE * before + bad
    assert (len(_GOOD_LINE * before) > syntax._CHUNK_BYTES) == (before > 3)
    for source in (data, io.BytesIO(data)):
        with pytest.raises(ParseError) as err:
            parse_nquads(source)
        assert (err.value.line, err.value.col) == (before + 1, col)
        assert err.value.message.startswith(
            "input is not valid UTF-8: %s (byte 0x" % reason)


def test_rule_and_query_files_locate_a_byte_that_is_not_utf8():
    with pytest.raises(ParseError) as err:
        parse_rules(b"r1: c1(?x, <p>, ?y) ->\n  c2(?x, <\xc3\xa9\xc3>, ?y) .")
    assert (err.value.line, err.value.col) == (2, 12)
    with pytest.raises(ParseError) as err:
        parse_query(b"ask { c1(<\xff>, <p>, <o>) }")
    assert (err.value.line, err.value.col) == (1, 11)


# ---------------------------------------------------------------------------
# Rule files
# ---------------------------------------------------------------------------

EX1_RULE = (b"r1: c1(?x1,?x2,<U1>) -> c2(?x1,?x2,?y1), "
            b"c3(?x2,rdf:type,rdf:Property).")


def test_rule_classification_with_existential():
    doc = parse_rules(EX1_RULE)
    (r,) = doc.rules
    assert r.rule_id == "r1"
    assert {v.name for v in r.frontier_variables()} == {"x1", "x2"}
    assert {v.name for v in r.existential_variables()} == {"y1"}
    assert r.body_variables() - r.head_variables() == set()
    assert r.head[1].p == RDF_TYPE and r.head[1].o == RDF_PROPERTY


def test_rule_classification_body_only():
    doc = parse_rules(b"r2: c2(?x1,?x2,?z1) -> c1(?x1,?x2,<U1>).")
    (r,) = doc.rules
    assert {v.name for v in r.frontier_variables()} == {"x1", "x2"}
    assert {v.name for v in r.body_variables() - r.head_variables()} \
        == {"z1"}
    assert r.existential_variables() == set()


def test_blank_node_in_pattern_rejected():
    with pytest.raises(ParseError) as err:
        parse_rules(b"bad: c1(_:b,?x,?x) -> c2(?x,?x,?x).")
    assert "blank node" in str(err.value)


def test_empty_body_rejected():
    with pytest.raises(ParseError) as err:
        parse_rules(b"bad: -> c2(<a>,<b>,<c>).")
    assert "empty body" in str(err.value)


def test_constraint_rule_has_empty_head():
    doc = parse_rules(b"chk: c(?x,<p>,?y), c(?y,<p>,?x) -> .")
    (r,) = doc.rules
    assert r.is_constraint
    assert doc.constraints() == [r]


def test_auto_assigned_ids_and_duplicates():
    doc = parse_rules(b"c(?x,?y,?z) -> d(?x,?y,?z).\n"
                      b"c(?x,?y,?z) -> e(?x,?y,?z).")
    assert [r.rule_id for r in doc.rules] == ["r1", "r2"]
    with pytest.raises(ParseError):
        parse_rules(b"a: c(?x,?y,?z) -> d(?x,?y,?z).\n"
                    b"a: c(?x,?y,?z) -> e(?x,?y,?z).")


def test_rules_over_several_lines_name_their_first_line():
    text = (b"# comment\nr1: c(?x,?y,?z) -> d(?x,?y,?z).\n"
            b"r2: c(?x,?y,?z) ->\n  e(?x,?y,?z).")
    doc = parse_rules(text)
    assert [r.rule_id for r in doc.rules] == ["r1", "r2"]
    assert doc.rules[1].head[0].ctx == iri("e")
    with pytest.raises(ParseError) as err:
        parse_rules(text + b"\nr1:\n c(?x,?y,?z) -> f(?x,?y,?z).")
    assert err.value.line == 5


def test_exists_clause_accepted_when_exact():
    doc = parse_rules(b"r: c(?x,<p>,?x) -> exists ?y . d(?x,<p>,?y).")
    (r,) = doc.rules
    assert {v.name for v in r.existential_variables()} == {"y"}


def test_exists_clause_mismatch_rejected():
    with pytest.raises(ParseError) as err:
        parse_rules(b"r: c(?x,<p>,?x) -> exists ?z . d(?x,<p>,?y).")
    assert "exists" in str(err.value)


def test_unknown_prefix_rejected_and_prefix_decls_work():
    with pytest.raises(ParseError):
        parse_rules(b"r: c(?x, ex:p, ?y) -> d(?x, ex:p, ?y).")
    doc = parse_rules(b"@prefix ex: <http://ex.org/> .\n"
                      b"r: c(?x, ex:p, ?y) -> d(?x, ex:p, ?y).")
    assert doc.rules[0].body[0].p == iri("http://ex.org/p")


def test_variable_partition_is_exact():
    text = b"""
    ra: c4(?x, ?p, ?o) -> c2(?x, ?p, ?o) .
    rc: c4(?x, ?p, ?o) -> c1(?x, <to>, ?w) .
    rd: c1(?x, ?p, ?o), c2(?o, ?p, ?q) -> c3(?x, <rel>, ?w), c3(?q, <r2>, ?x) .
    """
    for r in parse_rules(text).rules:
        x = r.frontier_variables()
        y = r.existential_variables()
        z = r.body_variables() - r.head_variables()
        assert x | y | z == r.body_variables() | r.head_variables()
        assert not (x & y) and not (x & z) and not (y & z)


def test_serialize_rules_round_trip():
    doc = parse_rules(EX1_RULE + b"\nchk: c1(?a,?b,?c) -> .")
    text = serialize_rules(doc.rules)
    again = parse_rules(text)
    assert again.rules == doc.rules


# ---------------------------------------------------------------------------
# Query files
# ---------------------------------------------------------------------------

def test_select_query_motivating_shape():
    q = parse_query(b"select ?x where { c1(?x,<beat>,<Italy>), "
                    b"c2(?x,<beat>,<Italy>) }")
    assert [v.name for v in q.free_vars] == ["x"]
    assert len(q.atoms) == 2
    assert not q.is_boolean
    assert q.variables() - set(q.free_vars) == set()


def test_ask_query_is_boolean_with_quantified_vars():
    q = parse_query(b"ask { c(?y, <S1>, ?y2) }")
    assert q.is_boolean
    assert {v.name for v in q.variables() - set(q.free_vars)} \
        == {"y", "y2"}


def test_empty_body_query_rejected():
    with pytest.raises(ParseError):
        parse_query(b"select ?x where { }")
    with pytest.raises(ParseError):
        parse_query(b"ask { }")


@pytest.mark.parametrize("text, message, line, col", [
    ("c(?x,<p>,?y)", "expected 'ask' or 'select'", 1, 1),
    ("select ?x ?y ?x where { c(?x,<p>,?y) }",
     "duplicate select variable ?x", 1, 14),
    ("select where { c(?x,<p>,?y) }",
     "select needs at least one variable", 1, 8),
    ("select ?x { c(?x,<p>,?y) }", "expected 'where'", 1, 11),
    ("ask { c(?x,<p>,?y) } ask", "trailing input after query", 1, 22),
], ids=["no-keyword", "duplicate-variable", "no-variable", "no-where",
        "trailing-input"])
def test_query_refusals_name_their_location(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_query(text)
    assert (err.value.message, err.value.line, err.value.col) \
        == (message, line, col)


def test_free_variable_must_occur():
    with pytest.raises(ParseError):
        parse_query(b"select ?z where { c(?x,<p>,?y) }")


def test_query_prefixes_and_serialization():
    q = parse_query(b"@prefix ex: <http://ex.org/> .\n"
                    b"select ?x where { c(?x, ex:p, rdf:type) }")
    assert q.atoms[0].p == iri("http://ex.org/p")
    assert parse_query(serialize_query(q)) == q
    boolean = parse_query(b"ask { c(?x,<p>,?y) }")
    assert parse_query(serialize_query(boolean)) == boolean
