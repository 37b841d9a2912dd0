"""Core term and quad model: interned RDF constants, variables, quads,
and quad-graphs (the one quad container: parser output, chase working
set and result, query input) with matching indexes.

Every constant has a canonical serialization (N-Quads term syntax with
lowercase hex escapes) and two constants are equal exactly when their
canonical serializations are byte-equal.  Construction goes through the
factory functions ``iri``, ``blank``, ``literal`` and ``skolem_constant``
(and the bulk factories ``mint_iris`` and ``skolem_constants``), which
intern instances so equal terms are the identical object; constants
therefore compare and hash by identity.  A factory looks the canonical
up first and builds a constant only when the table lacks it;
``mint_iris`` builds a batch of new IRIs that need no escaping at once.
Interning is atomic, so threads interning the same term concurrently get
the same object.

Skolem blank nodes are labelled nulls whose identity is a deterministic
function of (rule id, function index, argument vector); their labels use
the reserved ``sk_`` prefix and are recognised on re-parse.
``skolem_constants`` mints the nulls of many argument vectors of one
skolem function in one call, hashing their labels together
(``fnv1a_64_many``); ``skolem_constant`` is its one-vector call.

The module also holds ``FrozenRecord``, the one base class of every
value record in the package (patterns, rules, parse results, chase
configuration, results and reports): its fields are set once, when it
is built.  A quad-graph is not a record: it grows, and like a ``set``
it does not hash.
"""

from __future__ import annotations

import re
from itertools import chain, count, repeat
from operator import attrgetter, itemgetter
from struct import unpack
from typing import Iterable, Iterator, KeysView, Optional, Sequence, Union

IRI = "iri"
BLANK = "blank"
SKOLEM = "skolem-blank"
LITERAL = "literal"

SKOLEM_LABEL_PREFIX = "sk_"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
# One 128-bit lane of ``fnv1a_64_many`` holding 1, little-endian.
_LANE_ONE = b"\x01" + bytes(15)


class TermError(ValueError):
    """Malformed term or quad construction."""


class SkolemCollisionError(RuntimeError):
    """Two distinct skolem argument vectors hashed to the same label.

    This is an internal error: labels are meant to be injective at desk
    scale, so a collision must abort the run rather than silently merge
    two labelled nulls.
    """


class FrozenRecord:
    """A value record whose fields are the names annotated in its class
    body, in order; a field assigned in the class body takes that value
    as its default.

    ``Name(a, b=...)`` sets the fields positionally or by keyword and
    then calls ``__post_init__``, which a subclass overrides to check
    them; a field cannot be set or deleted after that.  Two records are
    equal when they are of the same class and their fields are equal,
    and a record hashes by its fields, so one whose fields hold a dict
    or a graph is unhashable, like the dict.  The ``repr`` is
    ``Name(field=value, ...)``.  Records copy and pickle through their
    instance ``__dict__``, without running ``__post_init__`` again.
    Fields are not inherited, so a record class derives from this base
    directly.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(vars(cls).get("__annotations__", ()))

    def __init__(self, *args: object, **kwargs: object) -> None:
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError("%s takes %d arguments but %d were given"
                            % (cls.__name__, len(fields), len(args)))
        values = dict(zip(fields, args))
        for name in fields[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif hasattr(cls, name):
                values[name] = getattr(cls, name)
            else:
                raise TypeError("%s missing argument %r"
                                % (cls.__name__, name))
        if kwargs:
            raise TypeError("%s got unexpected or repeated arguments %s"
                            % (cls.__name__, ", ".join(map(repr, kwargs))))
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("cannot assign to %s.%s"
                             % (type(self).__name__, name))

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete %s.%s"
                             % (type(self).__name__, name))

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))


def fnv1a_64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def fnv1a_64_many(datas: Sequence[bytes]) -> list[int]:
    """``fnv1a_64`` of each byte string of ``datas``, in order.

    The strings of one length are hashed together: their longest common
    prefix once, by ``fnv1a_64``, then each later byte position for all
    of them at once, on one integer that holds each string's state in a
    128-bit lane (little-endian).  A state is below 2**64 and the prime
    below 2**41, so one xor, multiply and mask steps every lane and no
    product carries into the next lane.  A string alone at its length
    is hashed by ``fnv1a_64``, with none of that set-up.
    """
    out = [0] * len(datas)
    groups: dict[int, list[int]] = {}
    for i, data in enumerate(datas):
        groups.setdefault(len(data), []).append(i)
    for size, members in groups.items():
        if len(members) == 1:
            out[members[0]] = fnv1a_64(datas[members[0]])
            continue
        group = [datas[i] for i in members]
        # the longest common prefix of the group is that of its least
        # and greatest strings: it ends where they first differ
        diff = (int.from_bytes(min(group), "big")
                ^ int.from_bytes(max(group), "big"))
        start = size - (diff.bit_length() + 7) // 8
        lanes = len(members)
        ones = int.from_bytes(_LANE_ONE * lanes, "little")
        state = fnv1a_64(group[0][:start]) * ones
        mask = _MASK64 * ones
        joined = b"".join(group)
        column = bytearray(16 * lanes)
        for j in range(start, size):
            column[::16] = joined[j::size]
            state = ((state ^ int.from_bytes(column, "little"))
                     * _FNV_PRIME) & mask
        words = unpack("<%dQ" % (2 * lanes),
                       state.to_bytes(16 * lanes, "little"))
        for i, h in zip(members, words[::2]):
            out[i] = h
    return out


# The characters each escaper rewrites.  Most text holds none of them,
# and ``sub`` then returns the text itself.
_LITERAL_ESCAPED = re.compile(r'[\\"\x00-\x1f\x7f]')
_IRI_SPECIAL = r'<>"{}|^`\\\x00-\x20'
_IRI_ESCAPED = re.compile("[%s]" % _IRI_SPECIAL)
# An IRI spelled as its canonical serialization with no escape: the text
# between the brackets is the IRI, and ``_escape_iri`` leaves it alone.
_PLAIN_IRI = re.compile("<[^%s]+>" % _IRI_SPECIAL)
# A blank node label or language tag that the N-Quads scanner reads back
# whole: a run of name characters that does not end in '.', which the
# scanner hands to the punctuation.  The factories take no other.
NAME_PATTERN = r"[A-Za-z0-9_.-]*[A-Za-z0-9_-]"
_WHOLE_NAME = re.compile(NAME_PATTERN).fullmatch
# A rule id that a skolem label can carry and stay such a name.
is_skolem_rule_id = re.compile(r"[A-Za-z0-9_.-]*").fullmatch
# A rule id that the rule reader reads back as one name: such a name
# that starts with a letter or '_', as the tokenizer's names do.
is_rule_id = re.compile("(?=[A-Za-z_])" + NAME_PATTERN).fullmatch
_LITERAL_SHORT = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r",
                  "\t": "\\t"}


def _hex_escape(match: re.Match) -> str:
    return "\\u%04x" % ord(match.group())


def _literal_escape(match: re.Match) -> str:
    return _LITERAL_SHORT.get(match.group()) or _hex_escape(match)


def _escape_literal(text: str) -> str:
    return _LITERAL_ESCAPED.sub(_literal_escape, text)


def _escape_iri(text: str) -> str:
    return _IRI_ESCAPED.sub(_hex_escape, text)


class Constant:
    """An RDF constant: IRI, blank node, skolem blank node, or literal.

    ``lexical`` holds the IRI string, the blank node label (without the
    ``_:`` sigil), or the literal's lexical form; ``canonical`` is the
    constant's serialization, computed once, before it is built.  Equality
    is identity: build constants only through the interning factories
    below.  Constants are immutable.
    """

    __slots__ = ("kind", "lexical", "datatype", "lang", "canonical")
    kind: str
    lexical: str
    datatype: Optional[str]
    lang: Optional[str]
    canonical: str

    def __init__(self, kind: str, lexical: str, datatype: Optional[str],
                 lang: Optional[str], canonical: str) -> None:
        init = object.__setattr__
        init(self, "kind", kind)
        init(self, "lexical", lexical)
        init(self, "datatype", datatype)
        init(self, "lang", lang)
        init(self, "canonical", canonical)

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError("constants are immutable")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError("constants are immutable")

    def is_skolem(self) -> bool:
        return self.kind == SKOLEM

    def __reduce__(self) -> tuple:
        # copies and unpickled constants resolve to the interned one
        return (_interned_constant,
                (self.kind, self.lexical, self.datatype, self.lang))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Constant({self.canonical})"


class Variable:
    """A pattern variable; never appears inside a ground Quad.

    Variables are interned by name, like constants by canonical, so
    ``Variable("x")`` is always the same object and variables compare
    and hash by identity.  The name must be a whole name
    (``NAME_PATTERN``), so ``?name`` reads back as this variable.
    """

    __slots__ = ("name",)
    name: str

    def __new__(cls, name: str) -> "Variable":
        var = _VARIABLES.get(name)
        if var is None:
            if not _WHOLE_NAME(name):
                raise TermError("variable name %r is not a name the rule "
                                "and query reader reads back" % name)
            var = object.__new__(cls)
            object.__setattr__(var, "name", name)
            var = _VARIABLES.setdefault(name, var)
        return var

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError("variables are immutable")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError("variables are immutable")

    def __reduce__(self) -> tuple:
        # copies and unpickled variables resolve to the interned one
        return (Variable, (self.name,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "?" + self.name


Term = Union[Constant, Variable]

# Interning: canonical serialization -> the unique Constant instance.
_INTERN: dict[str, Constant] = {}

# Variable name -> the unique Variable instance.
_VARIABLES: dict[str, Variable] = {}

# Skolem registry: label -> (rule_id, fn_index, argument canonicals).
# Used to detect (improbable) FNV collisions instead of merging nulls.
_SKOLEM_ARGS: dict[str, tuple] = {}


def _constant(kind: str, lexical: str, datatype: Optional[str],
              lang: Optional[str], canonical: str) -> Constant:
    """The interned constant serialized as ``canonical``, built from these
    fields only when the table lacks it."""
    # A get first, so a hit builds nothing; on a miss one setdefault, not
    # a store, since a thread switch between the get and the store could
    # mint two unequal constants for one canonical.
    return _INTERN.get(canonical) or _INTERN.setdefault(
        canonical, Constant(kind, lexical, datatype, lang, canonical))


def _interned_constant(kind: str, lexical: str, datatype: Optional[str],
                       lang: Optional[str]) -> Constant:
    if kind == IRI:
        return iri(lexical)
    if kind == LITERAL:
        return literal(lexical, datatype, lang)
    return blank(lexical)


# ``interned(text)`` is the interned constant whose canonical
# serialization is exactly ``text``, or None if there is none yet.  It is
# the table's own ``get``, so a lookup is one C call.
#
# A parser may try a term's source text here before decoding it.  Every
# escape in a canonical key is a valid one (lowercase ``\uXXXX`` in an
# IRI; ``\\``, ``\"``, ``\n``, ``\r``, ``\t`` and lowercase ``\uXXXX``
# in a literal), so decoding the text of a hit, read as one term, gives
# back that constant's fields: a hit is exactly the constant that decoding
# the text and calling the factory would give.  A miss (a term not seen
# yet, or a non-canonical spelling such as ``\u003E``) says nothing.  The
# caller hands its misses to ``mint_iris``, which builds the IRIs spelled
# without an escape in bulk, and decodes only the rest one by one.
#
# The N-Quads scanner reads every canonical in the table back as one whole
# term, stopping right after it, since the factories take a blank node
# label or language tag only when it is a whole name (``NAME_PATTERN``).
# So a hit is a whole term wherever the text was cut, and a reader may
# split a line at its spaces and look each piece up.
interned = _INTERN.get

# The member descriptors of the slots of ``Constant``, in slot order.
_SLOTS = tuple(map(vars(Constant).get, Constant.__slots__))
_BRACKETED = itemgetter(slice(1, -1))
_CANONICAL = attrgetter("canonical")


def mint_iris(texts: Iterable[str]) -> dict[str, Constant]:
    """The interned IRI constant of each text among ``texts`` that is
    ``<``, a nonempty IRI with no character ``_escape_iri`` rewrites, and
    ``>``, keyed by that text; every other text is left out.

    Such a text is its own canonical serialization and, between the
    brackets, its own lexical form, so nothing is decoded or escaped.
    Meant for distinct texts the table lacks: each one is built with no
    Python call per constant (a text the table holds only costs a
    throwaway build) and interned with one atomic ``setdefault``, so a
    thread minting the same text concurrently gets the same constant.
    """
    plain = list(filter(_PLAIN_IRI.fullmatch, texts))
    new = list(map(object.__new__, repeat(Constant, len(plain))))
    fields = (repeat(IRI), map(_BRACKETED, plain), repeat(None),
              repeat(None), plain)
    for slot, values in zip(_SLOTS, fields):
        # ``__set__`` returns None, so ``any`` runs the whole map
        any(map(slot.__set__, new, values))
    return dict(zip(plain, map(_INTERN.setdefault, plain, new)))


def iri(value: str) -> Constant:
    if not value:
        raise TermError("empty IRI")
    return _constant(IRI, value, None, None, "<%s>" % _escape_iri(value))


def blank(label: str) -> Constant:
    """A blank node; labels with the reserved ``sk_`` prefix come back as
    skolem blanks so skolem-ness survives a serialize/parse round trip."""
    if not _WHOLE_NAME(label):
        raise TermError("blank node label %r is not a name the N-Quads "
                        "reader reads back" % label)
    kind = SKOLEM if label.startswith(SKOLEM_LABEL_PREFIX) else BLANK
    return _constant(kind, label, None, None, "_:" + label)


def literal(lexical: str, datatype: Optional[str] = None,
            lang: Optional[str] = None) -> Constant:
    if datatype is not None and lang is not None:
        raise TermError("literal cannot carry both datatype and language tag")
    if datatype == "":
        raise TermError("empty datatype IRI")
    if lang is not None and not _WHOLE_NAME(lang):
        raise TermError("language tag %r is not a name the N-Quads reader "
                        "reads back" % lang)
    canonical = '"%s"' % _escape_literal(lexical)
    if lang is not None:
        canonical += "@" + lang
    elif datatype is not None:
        canonical += "^^<%s>" % _escape_iri(datatype)
    return _constant(LITERAL, lexical, datatype, lang, canonical)


def skolem_constant(rule_id: str, fn_index: int,
                    args: Iterable[Constant]) -> Constant:
    """The labelled null produced by skolem function ``fn_index`` of rule
    ``rule_id`` applied to the ground argument vector ``args``: the
    one-key call of ``skolem_constants``."""
    return skolem_constants(rule_id, fn_index, (tuple(args),))[0]


def skolem_constants(rule_id: str, fn_index: int,
                     keys: Iterable[Sequence[Constant]]) -> list[Constant]:
    """The labelled null of each ground argument vector of ``keys``, in
    order, for skolem function ``fn_index`` of rule ``rule_id``.

    Deterministic: identical inputs yield the byte-identical label.  The
    label is ``sk_<rule>_<index>_<hex64>`` with hex64 an FNV-1a 64 hash of
    the UTF-8 bytes of the argument canonicals joined by ``\x1f``.  The
    rule id and the argument kinds are checked once per call and the
    labels hashed in bulk (``fnv1a_64_many``); a constant is built only
    when the intern table lacks it.  A rule id outside ``[A-Za-z0-9_.-]``
    is refused, so the label is a name the N-Quads reader reads back
    whole.  Two argument vectors whose labels collide, in one call or
    across calls, raise ``SkolemCollisionError``.
    """
    if not is_skolem_rule_id(rule_id):
        raise TermError("skolem rule id %r holds a character outside "
                        "[A-Za-z0-9_.-]" % rule_id)
    keys = list(keys)
    if not all(map(isinstance, chain.from_iterable(keys), repeat(Constant))):
        raise TermError("skolem arguments must be ground constants")
    canons = [tuple(map(_CANONICAL, key)) for key in keys]
    digests = fnv1a_64_many(["\x1f".join(c).encode() for c in canons])
    stem = "%s%s_%d_" % (SKOLEM_LABEL_PREFIX, rule_id, fn_index)
    labels = ["%s%016x" % (stem, d) for d in digests]
    idents = [(rule_id, fn_index, c) for c in canons]
    seen = list(map(_SKOLEM_ARGS.setdefault, labels, idents))
    if seen != idents:
        label, first, ident = next(row for row in zip(labels, seen, idents)
                                   if row[1] != row[2])
        raise SkolemCollisionError(
            "skolem label collision on %s: %r vs %r" % (label, first, ident))
    return list(map(_constant, repeat(SKOLEM), labels, repeat(None),
                    repeat(None), ["_:" + label for label in labels]))


class Quad(tuple):
    """A ground quad c:(s,p,o).  The context is always an IRI; subject,
    predicate and object may be any constant (generalized triples).

    A quad is the tuple ``(ctx, s, p, o)`` and equals, and hashes like,
    that plain tuple, so sets of quads hash and compare in C.  It is
    immutable: the slots are read-only and there is no attribute dict.
    """

    __slots__ = ()

    def __new__(cls, ctx: Constant, s: Constant, p: Constant,
                o: Constant) -> "Quad":
        for t in (ctx, s, p, o):
            if not isinstance(t, Constant):
                raise TermError("quads are ground: got %r" % (t,))
        if ctx.kind != IRI:
            raise TermError("context must be an IRI, got %s" % ctx.canonical)
        return tuple.__new__(cls, (ctx, s, p, o))

    ctx = property(itemgetter(0))
    s = property(itemgetter(1))
    p = property(itemgetter(2))
    o = property(itemgetter(3))

    def __getnewargs__(self) -> tuple[Constant, Constant, Constant,
                                      Constant]:
        # copy and pickle rebuild through __new__, and so its checks
        return tuple(self)

    @property
    def triple(self) -> tuple[Constant, Constant, Constant]:
        return self[1:]

    def sort_key(self) -> tuple[str, str, str, str]:
        ctx, s, p, o = self
        return (ctx.canonical, s.canonical, p.canonical, o.canonical)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ctx, s, p, o = self
        return "%s:(%s, %s, %s)" % (ctx.canonical, s.canonical,
                                    p.canonical, o.canonical)


class QuadPattern(FrozenRecord):
    """A quad pattern: ground IRI context, terms may be variables."""

    ctx: Constant
    s: Term
    p: Term
    o: Term

    def __post_init__(self) -> None:
        if not isinstance(self.ctx, Constant) or self.ctx.kind != IRI:
            raise TermError("pattern context must be a ground IRI")
        for t in (self.s, self.p, self.o):
            if not isinstance(t, (Constant, Variable)):
                raise TermError("bad pattern term %r" % (t,))

    def variables(self) -> set[Variable]:
        return {t for t in (self.s, self.p, self.o)
                if isinstance(t, Variable)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        def show(t: Term) -> str:
            return t.canonical if isinstance(t, Constant) else "?" + t.name
        return "%s:(%s, %s, %s)" % (self.ctx.canonical, show(self.s),
                                    show(self.p), show(self.o))


class QuadGraph:
    """A set of quads in insertion order, with matching indexes.

    ``log`` lists the quads in the order they came in, and ``positions``
    maps each quad to its index there; ``quads`` is the set view of
    ``positions``.  ``QuadGraph(quads)`` drops duplicates, keeping first
    occurrences; ``extend`` appends the new quads of many in one pass,
    so ``log[mark:]`` is what was added since the graph held ``mark``
    quads.  Equality goes by the set of quads; like a ``set``, a graph
    grows and so does not hash.

    The first lookup that reads a bucket builds one bucket per context
    from the log (``_ensure_indexes``); the s, p or o map of a context
    is built from its bucket by the first lookup that binds that slot
    there.  ``extend`` extends the buckets and maps built so far, so
    each bucket lists its quads in log order: the quads of a bucket
    added since ``mark`` are its tail from the first one at position
    ``mark`` or later.  A fully bound lookup reads no bucket.
    A graph that does not grow is safe to share across threads: each
    index is assigned only once it is complete (the context maps before
    the buckets that mark them built), and two threads that build the
    same index build equal ones.
    """

    __slots__ = ("log", "positions", "_by_ctx", "_maps")

    _by_ctx: Optional[dict[Constant, list[Quad]]]
    # context -> its s, p and o maps, None until a lookup reads one
    _maps: Optional[dict[Constant,
                         list[Optional[dict[Constant, list[Quad]]]]]]

    def __init__(self, quads: Iterable[Quad] = ()) -> None:
        # one hash per quad; a dict keeps the first occurrence of a key in
        # its place, and zip stops at the end of ``quads`` before taking
        # a number, so the next one is the count of quads given
        numbers = count()
        positions = dict(zip(quads, numbers))
        if len(positions) < next(numbers):
            # a duplicate kept a later number: renumber
            positions = dict(zip(positions, count()))
        log = list(positions)
        if not all(map(isinstance, log, repeat(Quad))):
            bad = next(q for q in log if not isinstance(q, Quad))
            raise TermError("QuadGraph holds Quads, got %r" % (bad,))
        self.log: list[Quad] = log
        self.positions: dict[Quad, int] = positions
        self._by_ctx = self._maps = None

    @property
    def quads(self) -> KeysView[Quad]:
        """The quads, as a set view."""
        return self.positions.keys()

    def __len__(self) -> int:
        return len(self.log)

    def __iter__(self) -> Iterator[Quad]:
        return iter(self.log)

    def __contains__(self, q: object) -> bool:
        return q in self.positions

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuadGraph):
            return NotImplemented
        return self.positions.keys() == other.positions.keys()

    __hash__ = None

    def __reduce__(self) -> tuple:
        # copies and unpickled graphs rebuild from the log, without the
        # indexes
        return (QuadGraph, (self.log,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "QuadGraph(%d quads)" % len(self.log)

    def extend(self, quads: Iterable[Quad]) -> None:
        """Append each quad of ``quads`` that is not present yet, in
        order, and extend the buckets and maps built so far."""
        positions, log = self.positions, self.log
        for q in quads:
            if q in positions:
                continue
            positions[q] = len(log)
            log.append(q)
            # read for each quad: reading ``quads`` may build the indexes
            by_ctx = self._by_ctx
            if by_ctx is None:
                continue
            bucket = by_ctx.get(q[0])
            if bucket is None:
                # a lookup builds no map for a context without quads
                self._maps[q[0]] = [None, None, None]
                by_ctx[q[0]] = [q]
                continue
            bucket.append(q)
            s_map, p_map, o_map = self._maps[q[0]]
            if s_map is not None:
                s_map.setdefault(q[1], []).append(q)
            if p_map is not None:
                p_map.setdefault(q[2], []).append(q)
            if o_map is not None:
                o_map.setdefault(q[3], []).append(q)

    def contexts(self) -> set[Constant]:
        return {q[0] for q in self.log}

    def constants(self) -> set[Constant]:
        out: set[Constant] = set()
        for q in self.log:
            out.update(q)
        return out

    def by_context(self) -> dict[Constant, list[Quad]]:
        """Each context's quads in log order, not to be modified: the
        buckets once a lookup has built them, else a grouping made in one
        pass over the log and not kept, so no index is built."""
        if self._by_ctx is not None:
            return self._by_ctx
        by_ctx: dict[Constant, list[Quad]] = {}
        for q in self.log:
            by_ctx.setdefault(q[0], []).append(q)
        return by_ctx

    def _ensure_indexes(self) -> None:
        if self._by_ctx is not None:
            return
        by_ctx = self.by_context()
        self._maps = {ctx: [None, None, None] for ctx in by_ctx}
        self._by_ctx = by_ctx

    def bucket(self, ctx: Constant, s: Optional[Constant],
               p: Optional[Constant], o: Optional[Constant]
               ) -> Sequence[Quad]:
        """The smallest index bucket holding every quad of context ``ctx``
        that matches the given ground slots; it may hold others too.
        Ties go to the context, then s, then p, then o."""
        if s is not None and p is not None and o is not None:
            i = self.positions.get((ctx, s, p, o))
            return () if i is None else (self.log[i],)
        if self._by_ctx is None:
            self._ensure_indexes()
        pool = self._by_ctx.get(ctx)
        if not pool:
            return ()
        maps = self._maps[ctx]
        for j, term in enumerate((s, p, o)):
            if term is not None:
                bucket = (maps[j] or self._slot_map(ctx, j)).get(term, ())
                if len(bucket) < len(pool):
                    pool = bucket
        return pool

    def slot_map(self, ctx: Constant, j: int) -> dict[Constant, list[Quad]]:
        """The map of quad position ``j`` (1 s, 2 p, 3 o) of context
        ``ctx``: each term there to the quads of ``ctx`` holding it, in
        log order, built on first use like the maps ``bucket`` reads, and
        not to be modified."""
        if self._by_ctx is None:
            self._ensure_indexes()
        maps = self._maps.get(ctx)
        if maps is None:
            return {}
        return maps[j - 1] or self._slot_map(ctx, j - 1)

    def _slot_map(self, ctx: Constant, j: int) -> dict[Constant, list[Quad]]:
        """Build the map of slot ``j`` (0 s, 1 p, 2 o) of context ``ctx``
        from its bucket, and publish it once it is complete."""
        index: dict[Constant, list[Quad]] = {}
        for q in self._by_ctx[ctx]:
            index.setdefault(q[j + 1], []).append(q)
        self._maps[ctx][j] = index
        return index

    def candidates(self, ctx: Constant, s: Optional[Constant] = None,
                   p: Optional[Constant] = None,
                   o: Optional[Constant] = None) -> list[Quad]:
        """Quads of context ``ctx`` matching the given ground slots."""
        return [q for q in self.bucket(ctx, s, p, o)
                if (s is None or q[1] is s) and (p is None or q[2] is p)
                and (o is None or q[3] is o)]

    def candidate_count(self, ctx: Constant, s: Optional[Constant] = None,
                        p: Optional[Constant] = None,
                        o: Optional[Constant] = None) -> int:
        """Cheap upper estimate of matching quads (index bucket size)."""
        return len(self.bucket(ctx, s, p, o))
