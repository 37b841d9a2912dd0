"""Parsers and serializers for quad files, rule files and query files.

Quad files are N-Quads with the graph label in last position naming the
context; ``#`` starts a comment and generalized triples (any constant in
any of s/p/o) are accepted unless strict mode is on.  Diagnostics print
quads context-first, matching the rest of the tool.

Rule files (``.qrules``)::

    @prefix ex: <http://example.org/> .
    r1: c1(?x, ?y, <U1>) -> c2(?x, ?y, ?z), c3(?y, rdf:type, rdf:Property) .
    chk: cn(?a, <s1>, ?b), cn(?a, <s2>, ?b) -> .        # constraint

One rule per ``.``-terminated statement; the id prefix is optional
(position-based ids ``r1``, ``r2``, ... are assigned).  Head-only
variables are existential; an optional ``exists ?z .`` clause right after
``->`` is accepted and checked against the computed existential set.  An
empty head denotes a constraint.  Contexts and terms may be ``<iri>``,
``prefix:name`` or bare names (taken as relative IRIs); ``rdf:`` and
``rdfs:`` are predeclared.

Query files (``.ccq``)::

    ask { c1(?x, <beat>, <Italy>) }
    select ?x where { c1(?x, <beat>, <Italy>), c2(?x, <beat>, <Italy>) }

A quad file is read a chunk at a time, by the first of three readers
that takes the whole chunk:

1. The split reader (``_read_split``) takes a chunk whose every line
   is four terms and ``.`` joined by single spaces, the shape
   ``write_nquads`` writes (a chase file whose literals hold no space).
   Counting proves the shape in six passes: the newline count that
   numbers the lines, the `` .`` count, a search for ``"`` (a chunk
   with one counts its spaces too, so a literal holding a space
   declines it unsplit), newlines made spaces, one ``split(" ")`` into
   five texts a line, and the count of ``.`` every fifth text.
2. The row reader runs one ``findall`` of one regex, compiled on its
   first use, that gives every line a row.  A line in the usual shape
   (four terms separated by blanks, then ``.`` and an optional
   comment), blank, or holding only a comment is a usual row; any
   other line is odd.
3. The character scanner ``_scan_nquads_line`` reads the odd lines, in
   line order, between the runs of usual rows around them.  A chunk the
   row reader declines (a row that runs past its line, a term that does
   not decode or, under strict mode, a generalized triple) goes to the
   scanner whole, every line in order.

The split and row readers read their term texts in bulk with one
routine (``_read_usual``): one pass looks them up in the intern table
(``terms.interned``); of the distinct texts the table does not hold,
``terms.mint_iris`` builds in bulk each IRI written as its own canonical
serialization (no escape, and no character the canonical escapes),
``_scan_term`` decodes each other one once (a blank node, a literal, an
IRI spelled with an escape), and the quads are built with no Python
work per line.  The split reader leaves the whole chunk to the row
reader, and the row reader to the scanner, when a text is not one
whole term (a hit always is, see ``terms.interned``; a decoded miss
must use up its text), a context is not an IRI, or strict mode rejects
a statement.  So a line reads the same, and fails with the same
``ParseError``, on every path, and the scanner alone reports an error's
line and column.  Only ``_scan_term`` decodes a term (a minted IRI has
nothing to decode), and the regex delimits each term exactly as the
scanner does: the scanner takes a name's extent from
``terms.NAME_PATTERN`` and a literal's from ``_LITERAL_TOKEN``, the
patterns the row regex is built from.  The rule and query tokenizer
reads its terms with ``_scan_term`` and its variables and words with
the same name pattern, so a term is spelled, and rejected, alike in
every file.

Quad files stream, so neither side holds the whole file.
``parse_nquads`` takes bytes, text, or a binary or text file and reads
``_CHUNK_BYTES`` (64 KiB) at a time, each chunk cut after the first
newline past that size (characters, for text), and numbers lines
across chunks, so a byte that is not UTF-8 is reported at its line and
column.  ``write_nquads`` writes a graph to a binary file one context at
a time, in canonical order: it formats each quad of that context as its
line once, sorts the lines, and encodes and writes ``_BLOCK_LINES``
(1,024) lines at a time.  Beyond the graph it holds one formatted line
per quad of the context it writes, and one block: at 225,000 quads (a
30 MB file in five contexts) its peak is 18.4 MB, and the peak resident
set of the ``chase`` command 103 MB.  ``serialize_nquads`` is the same
writer into memory.

Parsers are not pure: every constant they read is interned into the
process-wide table in ``terms``.  They are safe to call concurrently
because interning is atomic.
"""

from __future__ import annotations

import io
import re
from functools import cache, partial
from itertools import chain, compress, count, islice, repeat
from operator import attrgetter, is_, itemgetter
from typing import IO, BinaryIO, Iterable, Iterator, Optional, Union

from .engine import BridgeRule, RuleError
from .terms import (
    BLANK,
    IRI,
    LITERAL,
    NAME_PATTERN,
    Constant,
    FrozenRecord,
    Quad,
    QuadGraph,
    QuadPattern,
    SKOLEM,
    Term,
    Variable,
    blank,
    interned,
    iri,
    literal,
    mint_iris,
)
from .vocab import PREDECLARED_PREFIXES


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        self.message = message
        self.line = line
        self.col = col
        where = ""
        if line:
            where = "line %d" % line
            if col:
                where += ", col %d" % col
            where += ": "
        super().__init__(where + message)


class StrictModeError(ParseError):
    """Generalized triple rejected under --strict."""


# ---------------------------------------------------------------------------
# Shared low-level scanning
# ---------------------------------------------------------------------------

_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
            '"': '"', "'": "'", "\\": "\\"}
_HEX = frozenset("0123456789abcdefABCDEF")


def _unescape(text: str, line: int, col: int) -> str:
    if "\\" not in text:
        return text
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(text):
            raise ParseError("dangling escape", line, col + i)
        nxt = text[i + 1]
        if nxt in _ESCAPES:
            out.append(_ESCAPES[nxt])
            i += 2
        elif nxt in "uU":
            # exactly 4 or 8 hex digits (int() alone would also take
            # signs, underscores and spaces) naming a character, not a
            # surrogate, which no output could encode
            width = 4 if nxt == "u" else 8
            digits = text[i + 2:i + 2 + width]
            code = (int(digits, 16) if len(digits) == width
                    and _HEX.issuperset(digits) else -1)
            if not 0 <= code <= 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                raise ParseError("bad \\%s escape %r: needs %d hex digits "
                                 "naming a character" % (nxt, digits, width),
                                 line, col + i)
            out.append(chr(code))
            i += 2 + width
        else:
            raise ParseError("unknown escape \\%s" % nxt, line, col + i)
    return "".join(out)


def _scan_iriref(s: str, i: int, line: int) -> tuple[str, int]:
    # s[i] == '<'
    j = s.find(">", i + 1)
    if j < 0:
        raise ParseError("unterminated IRI", line, i + 1)
    value = _unescape(s[i + 1:j], line, i + 2)
    if not value:
        raise ParseError("empty IRI", line, i + 1)
    return value, j + 1


# A quoted literal, up to its first '"' that no backslash escapes.
_LITERAL_TOKEN = r'"[^"\\]*(?:\\.[^"\\]*)*"'
_literal_match = re.compile(_LITERAL_TOKEN).match
_name_match = re.compile(NAME_PATTERN).match


def _scan_string(s: str, i: int, line: int) -> tuple[str, int]:
    # s[i] == '"'
    m = _literal_match(s, i)
    if m is None:
        raise ParseError("unterminated string literal", line, i + 1)
    return _unescape(m[0][1:-1], line, i + 2), m.end()


_NAME_START = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


def _scan_name(s: str, i: int) -> tuple[str, int]:
    # a name cannot end in '.': trailing dots belong to the punctuation
    m = _name_match(s, i)
    return (m[0], m.end()) if m else ("", i)


# ---------------------------------------------------------------------------
# N-Quads
# ---------------------------------------------------------------------------

def _decode(data: Union[bytes, str], line: int = 1) -> str:
    """``data`` as text; ``line`` numbers its first line in the input,
    so a byte that is not UTF-8 is reported at its line and column."""
    if not isinstance(data, bytes):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        start = data.rfind(b"\n", 0, exc.start) + 1
        raise ParseError("input is not valid UTF-8: %s (byte 0x%02x)"
                         % (exc.reason, data[exc.start]),
                         line + data.count(b"\n", 0, start),
                         len(data[start:exc.start].decode("utf-8")) + 1
                         ) from None


# Bytes decoded at a time when reading a quad file (and on to the end of
# the line), and lines formatted and encoded at a time when writing one.
_CHUNK_BYTES = 1 << 16
_BLOCK_LINES = 1024


def _pieces(data: Union[bytes, str, IO]) -> Iterator[Union[bytes, str]]:
    """``data`` cut after the first newline past each ``_CHUNK_BYTES``
    bytes (characters of text), so never inside a UTF-8 character; a
    file is read ``_CHUNK_BYTES`` at a time and then to the end of the
    line."""
    stream = not isinstance(data, (bytes, str))
    empty = data.read(0) if stream else data[:0]
    newline = "\n" if isinstance(empty, str) else b"\n"
    if stream:
        for piece in iter(partial(data.read, _CHUNK_BYTES), empty):
            # a text file may end a line read at a lone "\r"
            while not piece.endswith(newline) and (rest := data.readline()):
                piece += rest
            yield piece
        return
    start = 0
    while start < len(data):
        end = data.find(newline, start + _CHUNK_BYTES) + 1 or len(data)
        yield data[start:end]
        start = end


def _scan_term(s: str, i: int, line: int) -> tuple[Constant, int]:
    """The IRI, blank node or literal spelled at ``s[i]``, and the index
    after it."""
    ch = s[i:i + 1]
    if ch == "<":
        # An IRI whose source text is an interned canonical is that
        # constant (see ``terms.interned``), so only a miss is decoded.
        # An unterminated IRI slices to "", which is never interned.
        j = s.find(">", i + 1) + 1
        known = interned(s[i:j])
        if known is not None:
            return known, j
        value, j = _scan_iriref(s, i, line)
        return iri(value), j
    if ch == "_" and s[i:i + 2] == "_:":
        label, j = _scan_name(s, i + 2)
        if not label:
            raise ParseError("empty blank node label", line, i + 1)
        return blank(label), j
    if ch == '"':
        lex, j = _scan_string(s, i, line)
        if s[j:j + 2] == "^^":
            if j + 2 >= len(s) or s[j + 2] != "<":
                raise ParseError("datatype must be an IRI", line, j + 3)
            dt, j2 = _scan_iriref(s, j + 2, line)
            return literal(lex, datatype=dt), j2
        if s[j:j + 1] == "@":
            tag, j2 = _scan_name(s, j + 1)
            if not tag:
                raise ParseError("empty language tag", line, j + 2)
            return literal(lex, lang=tag), j2
        return literal(lex), j
    raise ParseError("expected an RDF term", line, i + 1)


# Every line is one row of this regex.  A statement in its usual shape
# sets the first four groups: four terms (IRI, blank node or literal;
# the context an IRI) separated by blanks, then '.', then an optional
# comment.  Each term is delimited exactly as ``_scan_term`` delimits
# it: an IRI ends at the first '>', and a literal and a name (blank
# label, language tag) are the scanner's own patterns.  The name
# pattern cannot end in '.', so a name followed by '.' is left to the
# scanner, which hands that dot to the punctuation, and so is an empty
# IRI, which it rejects.  A line of blanks and an optional comment sets
# no group; any other line is the fifth group, whole.
#
# ``_rows`` gives the rows of a chunk, each a 5-tuple of texts.  Each
# row starts a line.  A statement row that runs past a newline (inside
# an IRI or a literal) leaves the next line without one, so a chunk has
# fewer rows than lines exactly when a row opens an IRI or a literal
# that its own line does not close; the chunk then goes to the scanner,
# which rejects that line.
_IRI_TOKEN = r"<[^>]+>"
_TERM_TOKEN = (r"(%s|_:%s|%s(?:\^\^%s|@%s)?)"
               % (_IRI_TOKEN, NAME_PATTERN, _LITERAL_TOKEN, _IRI_TOKEN,
                  NAME_PATTERN))
_LINE = (
    r"^(?:[ \t\r]*%s[ \t\r]+%s[ \t\r]+%s[ \t\r]+(%s)[ \t\r]*\.[ \t\r]*(?:#.*)?"
    r"|[ \t\r]*(?:#.*)?|(.*))$"
    % (_TERM_TOKEN, _TERM_TOKEN, _TERM_TOKEN, _IRI_TOKEN))


@cache
def _line_regex() -> re.Pattern:
    # compiled on first use: a file whose chunks all split never reads it
    return re.compile(_LINE, re.MULTILINE)


def _rows(text: str) -> list[tuple[str, ...]]:
    return _line_regex().findall(text)


_new_tuple = tuple.__new__


def _scan_nquads_line(raw: str, lineno: int, strict: bool) -> list[Quad]:
    """The quads of one line, read a character at a time."""
    quads: list[Quad] = []
    i = 0
    terms: list[Constant] = []
    n = len(raw)
    while i < n:
        ch = raw[i]
        if ch in " \t\r":
            i += 1
            continue
        if ch == "#":
            break
        if ch == ".":
            if len(terms) == 3:
                raise ParseError("line missing graph label (context)",
                                 lineno, i + 1)
            if len(terms) != 4:
                raise ParseError(
                    "expected 4 terms before '.', got %d" % len(terms),
                    lineno, i + 1)
            s, p, o, g = terms
            if g.kind != IRI:
                raise ParseError(
                    "context (graph label) must be an IRI, got %s"
                    % g.canonical, lineno, i + 1)
            if strict:
                if s.kind == LITERAL:
                    raise StrictModeError(
                        "strict mode: literal subject", lineno, 1)
                if p.kind != IRI:
                    raise StrictModeError(
                        "strict mode: predicate must be an IRI", lineno, 1)
            quads.append(Quad(g, s, p, o))
            terms = []
            i += 1
            continue
        if len(terms) >= 4:
            raise ParseError("too many terms in statement", lineno, i + 1)
        term, i = _scan_term(raw, i, lineno)
        terms.append(term)
    if terms:
        raise ParseError("statement not terminated by '.'", lineno, n)
    return quads


def _read_usual(texts: list[str], strict: bool
                ) -> Optional[Iterator[Quad]]:
    """The quads of the statements whose term texts ``texts`` lists, four
    a statement in (s, p, o, context) order, read in bulk; None when a
    text is not one whole term, a context is not an IRI, or ``strict``
    rejects a statement."""
    terms = list(map(interned, texts))
    if not all(terms):  # a constant is always true
        # mint the new IRIs spelled without an escape in bulk, and decode
        # each other distinct text the table lacks once; a hit is a whole
        # term (see ``terms.interned``), and a miss must decode to one
        missing = set(compress(texts, map(is_, terms, repeat(None))))
        decoded = mint_iris(missing)
        try:
            for token in missing.difference(decoded):
                decoded[token], end = _scan_term(token, 0, 0)
                if end != len(token):
                    return None
        except ParseError:
            return None
        terms = list(map(decoded.get, texts, terms))
    s, p, g = terms[0::4], terms[1::4], terms[3::4]
    if not {IRI}.issuperset(map(attrgetter("kind"), set(g))) or strict and (
            LITERAL in map(attrgetter("kind"), s)
            or not {IRI}.issuperset(map(attrgetter("kind"), p))):
        return None
    # interned constants with an IRI context: what Quad() checks holds
    return map(_new_tuple, repeat(Quad), zip(g, s, p, terms[2::4]))


def _read_split(text: str, lines: int, strict: bool
                ) -> Optional[Iterator[Quad]]:
    """The quads of ``text``, which holds ``lines`` newlines, read in bulk
    when each of its lines is four terms and ``.`` joined by single
    spaces, the shape ``write_nquads`` writes; else None."""
    if text.count(" .\n") != lines or not text.endswith("\n") \
            or '"' in text and text.count(" ") != 4 * lines:
        return None
    texts = text.replace("\n", " ").split(" ")
    if len(texts) != 5 * lines + 1 or texts[4::5].count(".") != lines:
        return None
    del texts[-1], texts[4::5]
    return _read_usual(texts, strict)


def _row_texts(rows: list[tuple[str, ...]]) -> list[str]:
    """The term texts of the statement rows among ``rows``, four a row."""
    texts = list(chain.from_iterable(filter(itemgetter(0), rows)))
    del texts[4::5]
    return texts


def _read_chunk(text: str, first: int, lines: int, strict: bool,
                quads: list[Quad]) -> None:
    """Append the quads of ``text``, whose ``lines`` lines start at line
    ``first``, to ``quads``: all of them split in bulk, or else the usual
    rows in bulk and each odd line in its place with the scanner, or else
    every line with the scanner."""
    bulk = _read_split(text, lines - 1, strict)
    if bulk is not None:
        quads.extend(bulk)
        return
    rows = _rows(text)
    bulk = (_read_usual(_row_texts(rows), strict) if len(rows) == lines
            else None)
    if bulk is None:
        # a row runs past its line, a term does not decode, or strict
        # mode rejects a statement: the scanner reads the chunk whole and
        # raises the first error in line order
        for lineno, line in enumerate(text.split("\n"), first):
            quads.extend(_scan_nquads_line(line, lineno, strict))
        return
    start = 0
    for odd in compress(count(), map(itemgetter(4), rows)):
        # the quads of the statements before the odd line, then its own
        before = len(list(filter(itemgetter(0), rows[start:odd])))
        quads.extend(islice(bulk, before))
        quads.extend(_scan_nquads_line(rows[odd][4], first + odd, strict))
        start = odd + 1
    del rows  # so that the quads reuse the memory of the rows' texts
    quads.extend(bulk)


def parse_nquads(data: Union[bytes, str, IO], strict: bool = False
                 ) -> QuadGraph:
    """Parse N-Quads from bytes, text or a binary or text file: one quad
    per statement, graph label required.

    Duplicates collapse (set semantics); the graph's log keeps the
    quads in file order.  Strict mode rejects generalized triples:
    literal subjects or predicates and blank-node predicates.  The
    module docstring says how a chunk is read.
    """
    quads: list[Quad] = []
    first = 1
    for piece in _pieces(data):
        text = _decode(piece, first)
        lines = text.count("\n") + 1
        _read_chunk(text, first, lines, strict, quads)
        first += lines - 1
    return QuadGraph(quads)


def write_nquads(qg: QuadGraph, fh: BinaryIO) -> None:
    """Write deterministic N-Quads to the binary file ``fh``: the quads
    sorted by canonical (context, s, p, o), in UTF-8.

    Contexts go in canonical order (distinct contexts have distinct
    canonicals).  The lines of one context all end in its canonical, so
    sorting them sorts the quads by canonical (s, p, o): no canonical is
    a proper prefix of another whose next character is U+0020 or below
    (an IRI ends at its only ``>``, a literal's closing quote is followed
    only by ``@`` or ``^^``, and labels and tags hold no such character).
    Lines are encoded and written ``_BLOCK_LINES`` at a time.  Beyond the
    graph, this holds one formatted line per quad of the context it is
    writing (about 190 bytes a quad at the bridge-join benchmark's
    shape) and one block of text, never the whole file.
    """
    by_ctx = qg.by_context()
    for ctx in sorted(by_ctx, key=attrgetter("canonical")):
        c = ctx.canonical
        lines = ["%s %s %s %s .\n" % (s.canonical, p.canonical,
                                       o.canonical, c)
                 for _, s, p, o in by_ctx[ctx]]
        lines.sort()
        for i in range(0, len(lines), _BLOCK_LINES):
            fh.write("".join(lines[i:i + _BLOCK_LINES]).encode("utf-8"))


def serialize_nquads(qg: QuadGraph) -> bytes:
    """The bytes ``write_nquads`` writes for ``qg``."""
    out = io.BytesIO()
    write_nquads(qg, out)
    return out.getvalue()


# ---------------------------------------------------------------------------
# Rule / query tokenizer
# ---------------------------------------------------------------------------

class _Token(FrozenRecord):
    kind: str   # TERM PNAME NAME VAR PUNCT EOF
    value: object
    line: int
    col: int


_PUNCT2 = ("->",)
_PUNCT1 = "(),.{}"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        i = 0
        n = len(raw)
        while i < n:
            ch = raw[i]
            if ch in " \t\r":
                i += 1
                continue
            if ch == "#":
                break
            col = i + 1
            if raw[i:i + 2] in _PUNCT2:
                tokens.append(_Token("PUNCT", raw[i:i + 2], lineno, col))
                i += 2
                continue
            if ch in _PUNCT1:
                tokens.append(_Token("PUNCT", ch, lineno, col))
                i += 1
                continue
            # "_:" opens a blank node only before a label; "_: " is the
            # rule id "_" and its colon
            if ch in '<"' or raw[i:i + 2] == "_:" and _name_match(raw, i + 2):
                term, i = _scan_term(raw, i, lineno)
                tokens.append(_Token("TERM", term, lineno, col))
                continue
            if ch == "?":
                name, i = _scan_name(raw, i + 1)
                if not name:
                    raise ParseError("empty variable name", lineno, col)
                tokens.append(_Token("VAR", name, lineno, col))
                continue
            if ch == "@":
                word, i = _scan_name(raw, i + 1)
                tokens.append(_Token("NAME", "@" + word, lineno, col))
                continue
            if ch in _NAME_START:
                word, i = _scan_name(raw, i)
                if i < n and raw[i] == ":":
                    local, j = _scan_name(raw, i + 1)
                    # "name:" followed by a local part is a prefixed name;
                    # a bare "name:" is left as NAME + ':' for rule ids.
                    if local:
                        tokens.append(_Token("PNAME", (word, local),
                                             lineno, col))
                        i = j
                        continue
                tokens.append(_Token("NAME", word, lineno, col))
                continue
            if ch == ":":
                tokens.append(_Token("PUNCT", ":", lineno, col))
                i += 1
                continue
            raise ParseError("unexpected character %r" % ch, lineno, col)
    last_line = text.count("\n") + 1
    tokens.append(_Token("EOF", None, last_line, 1))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.peek()
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect_punct(self, value: str) -> _Token:
        tok = self.next()
        if tok.kind != "PUNCT" or tok.value != value:
            raise ParseError("expected %r" % value, tok.line, tok.col)
        return tok

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.value == value


def _expand_pname(prefixes: dict[str, str], tok: _Token) -> str:
    prefix, local = tok.value
    ns = prefixes.get(prefix)
    if ns is None:
        raise ParseError("unknown prefix %r" % prefix, tok.line, tok.col)
    return ns + local


def _parse_prefix_decl(ts: _TokenStream, prefixes: dict[str, str]) -> None:
    ts.next()  # @prefix
    tok = ts.next()
    if tok.kind == "PNAME":
        # "@prefix pfx: <iri> ." tokenizes oddly when the local part is
        # stuck to the colon; only "pfx" + ':' is accepted here.
        raise ParseError("malformed prefix declaration", tok.line, tok.col)
    if tok.kind != "NAME":
        raise ParseError("expected prefix name", tok.line, tok.col)
    name = tok.value
    ts.expect_punct(":")
    ns_tok = ts.next()
    if ns_tok.kind != "TERM" or ns_tok.value.kind != IRI:
        raise ParseError("expected namespace IRI", ns_tok.line, ns_tok.col)
    ts.expect_punct(".")
    prefixes[name] = ns_tok.value.lexical


_KEYWORDS = {"ask", "select", "where", "exists"}


def _term_from_token(tok: _Token, prefixes: dict[str, str],
                     allow_var: bool = True) -> Term:
    if tok.kind == "TERM":
        if tok.value.kind in (BLANK, SKOLEM):
            raise ParseError("blank node %s not allowed in a pattern"
                             % tok.value.canonical, tok.line, tok.col)
        return tok.value
    if tok.kind == "PNAME":
        return iri(_expand_pname(prefixes, tok))
    if tok.kind == "NAME":
        if tok.value in _KEYWORDS or tok.value.startswith("@"):
            raise ParseError("reserved word %r used as term; write <%s>"
                             % (tok.value, tok.value), tok.line, tok.col)
        return iri(tok.value)
    if tok.kind == "VAR":
        if not allow_var:
            raise ParseError("variable not allowed here", tok.line, tok.col)
        return Variable(tok.value)
    raise ParseError("expected a term", tok.line, tok.col)


def _parse_atom(ts: _TokenStream, prefixes: dict[str, str]) -> QuadPattern:
    ctx_tok = ts.next()
    ctx = _term_from_token(ctx_tok, prefixes, allow_var=False)
    if not isinstance(ctx, Constant) or ctx.kind != IRI:
        raise ParseError("context must be an IRI", ctx_tok.line, ctx_tok.col)
    ts.expect_punct("(")
    terms = []
    for slot in range(3):
        tok = ts.next()
        terms.append(_term_from_token(tok, prefixes))
        if slot < 2:
            ts.expect_punct(",")
    ts.expect_punct(")")
    return QuadPattern(ctx, *terms)


def _parse_atom_list(ts: _TokenStream, prefixes: dict[str, str],
                     stop: str) -> list[QuadPattern]:
    atoms: list[QuadPattern] = []
    if ts.at_punct(stop):
        return atoms
    while True:
        atoms.append(_parse_atom(ts, prefixes))
        if ts.at_punct(","):
            ts.next()
            continue
        return atoms


# ---------------------------------------------------------------------------
# Rule documents
# ---------------------------------------------------------------------------

class RuleDocument(FrozenRecord):
    """An ordered rule list."""

    rules: tuple[BridgeRule, ...]

    def bridge_rules(self) -> list[BridgeRule]:
        return [r for r in self.rules if not r.is_constraint]

    def constraints(self) -> list[BridgeRule]:
        return [r for r in self.rules if r.is_constraint]


def parse_rules(data: Union[bytes, str]) -> RuleDocument:
    """Parse a rule file; see the module docstring for the grammar."""
    text = _decode(data)
    ts = _TokenStream(_tokenize(text))
    prefixes = dict(PREDECLARED_PREFIXES)
    rules: list[BridgeRule] = []
    ids_seen: set[str] = set()
    index = 0
    while ts.peek().kind != "EOF":
        tok = ts.peek()
        if tok.kind == "NAME" and tok.value == "@prefix":
            _parse_prefix_decl(ts, prefixes)
            continue
        index += 1
        start_line = tok.line
        rule_id = "r%d" % index
        if tok.kind == "NAME" and ts.peek(1).kind == "PUNCT" \
                and ts.peek(1).value == ":":
            rule_id = tok.value
            ts.next()
            ts.next()
        body = _parse_atom_list(ts, prefixes, stop="->")
        arrow = ts.expect_punct("->")
        if not body:
            raise ParseError("rule %s: empty body" % rule_id,
                             arrow.line, arrow.col)
        declared: Optional[set[Variable]] = None
        if ts.peek().kind == "NAME" and ts.peek().value == "exists":
            ts.next()
            declared = set()
            while ts.peek().kind == "VAR":
                v = ts.next()
                declared.add(Variable(v.value))
            if not declared:
                raise ParseError("empty exists clause", arrow.line,
                                 arrow.col)
            ts.expect_punct(".")
        head = _parse_atom_list(ts, prefixes, stop=".")
        ts.expect_punct(".")
        try:
            rule = BridgeRule(rule_id, tuple(body), tuple(head))
        except RuleError as exc:
            raise ParseError(str(exc), start_line, tok.col)
        if declared is not None:
            actual = rule.existential_variables()
            if declared != actual:
                raise ParseError(
                    "rule %s: exists clause {%s} does not match head-only "
                    "variables {%s}" % (
                        rule_id,
                        ", ".join(sorted("?" + v.name for v in declared)),
                        ", ".join(sorted("?" + v.name for v in actual))),
                    start_line, tok.col)
        if rule_id in ids_seen:
            raise ParseError("duplicate rule id %r" % rule_id,
                             start_line, tok.col)
        ids_seen.add(rule_id)
        rules.append(rule)
    return RuleDocument(tuple(rules))


def _term_text(t: Union[Term, Constant]) -> str:
    if isinstance(t, Variable):
        return "?" + t.name
    return t.canonical


def _atom_text(pat: QuadPattern) -> str:
    return "%s(%s, %s, %s)" % (pat.ctx.canonical, _term_text(pat.s),
                               _term_text(pat.p), _term_text(pat.o))


def serialize_rules(rules: Iterable[BridgeRule]) -> str:
    """Rule file text that parses back to the same rules."""
    lines = []
    for r in rules:
        body = ", ".join(_atom_text(p) for p in r.body)
        head = ", ".join(_atom_text(p) for p in r.head)
        lines.append("%s: %s -> %s ." % (r.rule_id, body, head)
                     if head else "%s: %s -> ." % (r.rule_id, body))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Query documents
# ---------------------------------------------------------------------------

class QueryDocument(FrozenRecord):
    """A contextualized conjunctive query.

    ``free_vars`` is the (ordered) projection; every other variable in
    the atoms is quantified.  Boolean queries have no free variables.
    """

    free_vars: tuple[Variable, ...]
    atoms: tuple[QuadPattern, ...]

    @property
    def is_boolean(self) -> bool:
        return not self.free_vars

    def variables(self) -> set[Variable]:
        out: set[Variable] = set()
        for a in self.atoms:
            out |= a.variables()
        return out


def parse_query(data: Union[bytes, str]) -> QueryDocument:
    """Parse ``ask { ... }`` or ``select ?v ... where { ... }``."""
    text = _decode(data)
    ts = _TokenStream(_tokenize(text))
    prefixes = dict(PREDECLARED_PREFIXES)
    while ts.peek().kind == "NAME" and ts.peek().value == "@prefix":
        _parse_prefix_decl(ts, prefixes)
    tok = ts.next()
    if tok.kind != "NAME" or tok.value not in ("ask", "select"):
        raise ParseError("expected 'ask' or 'select'", tok.line, tok.col)
    free: list[Variable] = []
    if tok.value == "select":
        while ts.peek().kind == "VAR":
            v = ts.next()
            var = Variable(v.value)
            if var in free:
                raise ParseError("duplicate select variable ?%s" % var.name,
                                 v.line, v.col)
            free.append(var)
        if not free:
            t = ts.peek()
            raise ParseError("select needs at least one variable",
                             t.line, t.col)
        w = ts.next()
        if w.kind != "NAME" or w.value != "where":
            raise ParseError("expected 'where'", w.line, w.col)
    brace = ts.expect_punct("{")
    atoms = _parse_atom_list(ts, prefixes, stop="}")
    ts.expect_punct("}")
    tail = ts.peek()
    if tail.kind != "EOF":
        raise ParseError("trailing input after query", tail.line, tail.col)
    if not atoms:
        raise ParseError("empty query body", brace.line, brace.col)
    query = QueryDocument(tuple(free), tuple(atoms))
    atom_vars = query.variables()
    for var in free:
        if var not in atom_vars:
            raise ParseError("free variable ?%s occurs in no atom"
                             % var.name, brace.line, brace.col)
    return query


def serialize_query(q: QueryDocument) -> str:
    atoms = ", ".join(_atom_text(a) for a in q.atoms)
    if q.is_boolean:
        return "ask { %s }\n" % atoms
    heads = " ".join("?" + v.name for v in q.free_vars)
    return "select %s where { %s }\n" % (heads, atoms)
