"""Abstract and concrete syntax for the calculus.

Types are Top, Bot, bounded type declarations ``{A: S .. T}``, path-dependent
selections ``x.A``, and dependent function types ``all(x: S) T``.  Terms are
in administrative normal form: variables, type tags ``{A = T}``, lambdas,
variable-to-variable applications, and lets.

Binding uses concrete names, and the three binders ``all(x: S) T``,
``lam(x: S) t`` and ``let x = t in u`` follow one rule: the variable scopes
over the last field only (never the annotation or right side), and a binder
that would capture a substituted variable is renamed.  So free variables,
size, substitution, canonical keys and alpha-equivalence are each one
function over types and terms alike, with one case for the three binders;
they refuse only what is not a node.  A sort is checked where one is
required, by :func:`check_sort`: when a variable is bound and when a
judgment is built.  Outputs are meaningful up to alpha-equivalence.

Nodes are hash-consed: there is one live node per structure, so ``==`` on
types and terms is identity.  A node lives while something refers to it or
until :data:`RETAIN` newer nodes have been built.  The parser refuses input
nested deeper than :data:`MAX_NESTING` levels.
"""

from __future__ import annotations

import re
import threading
import weakref
from collections import deque

from _weakref import _remove_dead_weakref

from .errors import DsubError

# ---------------------------------------------------------------------------
# ASTs
#
# Every node is hash-consed (Filliatre & Conchon, "Type-safe modular
# hash-consing", 2006): constructing a structure that already has a live node
# returns that node, so equality is identity, the structural hash is computed
# once from the children's, and per-node facts (free variables, size,
# canonical key) are cached on the node.  The table maps each key to a weak
# reference; when a node goes, the reference's callback removes its entry, so
# the table holds live nodes only.  The last RETAIN nodes built are also held
# by a bounded queue, so what one query built, with the facts cached on it,
# is still there for the next; a lookup does not reorder the queue.


class _Ref(weakref.ref):
    """A table entry: a weak reference to a node, knowing the node's key."""

    __slots__ = ("key",)


_TABLE: dict = {}
_TABLE_LOCK = threading.Lock()

RETAIN = 2048
"""How many of the most recently built nodes are kept alive, referred to or not."""

_RECENT: deque = deque(maxlen=RETAIN)


def _drop(ref: _Ref, table: dict = _TABLE, remove=_remove_dead_weakref) -> None:
    # ``remove`` deletes the entry only while it is this dead reference
    remove(table, ref.key)


# What a lookup calls for a key with no entry: NoneType() is None, and the
# call runs no Python frame.
_absent = type(None)


def _build(cls, key, fields: tuple, size: int, shape: tuple, names: tuple = (), labels: tuple = ()):
    """The node for ``key``, of ``size`` nodes, once a lookup has missed:
    under the lock, look again, then check ``names`` and ``labels`` and
    build it.  Its hash is that of ``shape``: the class name and the fields,
    a child node standing as its own cached hash, so it depends on the
    structure alone.  A key holds its child nodes by id: they are live, as
    the new node holds them."""
    with _TABLE_LOCK:  # one thread builds a structure's node, the others find it
        node = _TABLE.get(key, _absent)()
        if node is None:
            for name in names:
                if not is_ident(name):
                    raise ValueError(f"invalid variable name: {name!r}")
            for label in labels:
                if not is_label(label):
                    raise ValueError(f"invalid type label: {label!r}")
            node = object.__new__(cls)
            for set_field, value in zip(cls._setters, fields):
                set_field(node, value)
            _set_size(node, size)
            _set_hash(node, hash(shape))
            ref = _Ref(node, _drop)
            ref.key = key
            _TABLE[key] = ref
            _RECENT.append(node)
    return node


class _Node:
    """A hash-consed syntax node; immutable, compared by identity."""

    # _fv and _canon are set when first computed
    __slots__ = ("_hash", "_size", "_fv", "_canon", "__weakref__")
    __match_args__: tuple = ()

    def __init_subclass__(cls) -> None:
        # the slot setters of the fields, which bypass the refusing __setattr__
        cls._setters = tuple(cls.__dict__[f].__set__ for f in cls.__match_args__)

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"


_set_size, _set_hash, _set_fv, _set_canon = (
    _Node.__dict__[f].__set__ for f in ("_size", "_hash", "_fv", "_canon")
)


class Top(_Node):
    """The top type."""

    __slots__ = ()

    def __new__(cls):
        return _TABLE.get(cls, _absent)() or _build(cls, cls, (), 1, (cls.__name__,))


class Bot(_Node):
    """The bottom type."""

    __slots__ = ()

    def __new__(cls):
        return _TABLE.get(cls, _absent)() or _build(cls, cls, (), 1, (cls.__name__,))


class Decl(_Node):
    """Type declaration ``{label: lower .. upper}``."""

    __slots__ = __match_args__ = ("label", "lower", "upper")

    def __new__(cls, label: str, lower: "Type", upper: "Type"):
        key = (cls, label, id(lower), id(upper))
        return _TABLE.get(key, _absent)() or _build(
            cls, key, (label, lower, upper), 1 + lower._size + upper._size,
            ("Decl", label, lower._hash, upper._hash), labels=(label,),
        )


class Path(_Node):
    """Path-dependent type ``var.label``."""

    __slots__ = __match_args__ = ("var", "label")

    def __new__(cls, var: str, label: str):
        key = (cls, var, label)
        return _TABLE.get(key, _absent)() or _build(cls, key, key[1:], 1, ("Path", var, label), (var,), (label,))


class All(_Node):
    """Dependent function type ``all(param: param_type) result``.

    ``param`` is bound in ``result`` only, not in ``param_type``.
    """

    __slots__ = __match_args__ = ("param", "param_type", "result")

    def __new__(cls, param: str, param_type: "Type", result: "Type"):
        key = (cls, param, id(param_type), id(result))
        return _TABLE.get(key, _absent)() or _build(
            cls, key, (param, param_type, result), 1 + param_type._size + result._size,
            ("All", param, param_type._hash, result._hash), (param,),
        )


Type = Top | Bot | Decl | Path | All


class Var(_Node):
    """Term variable."""

    __slots__ = __match_args__ = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        return _TABLE.get(key, _absent)() or _build(cls, key, key[1:], 1, ("Var", name), key[1:])


class Tag(_Node):
    """Type tag ``{label = alias}``, a value naming a type."""

    __slots__ = __match_args__ = ("label", "alias")

    def __new__(cls, label: str, alias: Type):
        key = (cls, label, id(alias))
        return _TABLE.get(key, _absent)() or _build(
            cls, key, (label, alias), 1 + alias._size, ("Tag", label, alias._hash), labels=(label,)
        )


class Lam(_Node):
    """Lambda ``lam(param: param_type) body``; ``param`` bound in ``body``."""

    __slots__ = __match_args__ = ("param", "param_type", "body")

    def __new__(cls, param: str, param_type: Type, body: "Term"):
        key = (cls, param, id(param_type), id(body))
        return _TABLE.get(key, _absent)() or _build(
            cls, key, (param, param_type, body), 1 + param_type._size + body._size,
            ("Lam", param, param_type._hash, body._hash), (param,),
        )


class App(_Node):
    """Application of a variable to a variable (ANF)."""

    __slots__ = __match_args__ = ("fun", "arg")

    def __new__(cls, fun: str, arg: str):
        key = (cls, fun, arg)
        return _TABLE.get(key, _absent)() or _build(cls, key, key[1:], 1, ("App", fun, arg), key[1:])


class Let(_Node):
    """``let bound = rhs in body``; ``bound`` is bound in ``body`` only."""

    __slots__ = __match_args__ = ("bound", "rhs", "body")

    def __new__(cls, bound: str, rhs: "Term", body: "Term"):
        key = (cls, bound, id(rhs), id(body))
        return _TABLE.get(key, _absent)() or _build(
            cls, key, (bound, rhs, body), 1 + rhs._size + body._size,
            ("Let", bound, rhs._hash, body._hash), (bound,),
        )


Term = Var | Tag | Lam | App | Let

# The head of each binder's canonical key.
_BINDER_HEADS = {All: "A", Lam: "L", Let: "let"}


def check_sort(t, sort) -> None:
    """Refuse ``t`` unless it is a node of ``sort``, :data:`Type` or
    :data:`Term`: the check made where a sort is required (a binding, a
    judgment); the operations below take a node of either sort."""
    if not isinstance(t, sort):
        raise TypeError(f"not a {'type' if sort is Type else 'term'}: {t!r}")


# ---------------------------------------------------------------------------
# Free variables and sizes


_NO_VARS = frozenset()


def _union(a: frozenset, b: frozenset) -> frozenset:
    # a kept node holds its set for as long as it lives, so share a child's
    # set when it is already the union
    if b <= a:
        return a
    return b if a <= b else a | b


def fv(t: Type | Term) -> frozenset:
    try:
        return t._fv
    except AttributeError:
        pass
    match t:
        case Top() | Bot():
            free = _NO_VARS
        case Path(x) | Var(x):
            free = frozenset((x,))
        case App(f, a):
            free = frozenset((f, a))
        case Decl(_, lo, hi):
            free = _union(fv(lo), fv(hi))
        case Tag(_, ty):
            free = fv(ty)
        case All(x, s, u) | Lam(x, s, u) | Let(x, s, u):
            inner = fv(u)
            free = _union(fv(s), inner - {x} if x in inner else inner)
        case _:
            raise TypeError(f"not a node: {t!r}")
    _set_fv(t, free)
    return free


def size(t: Type | Term) -> int:
    if not isinstance(t, _Node):
        raise TypeError(f"not a node: {t!r}")
    return t._size


# ---------------------------------------------------------------------------
# Fresh names and substitution


def fresh_name(base: str, avoid) -> str:
    """Deterministic fresh name: ``base`` itself if free, else the least
    ``base<n>`` (n = 1, 2, ...) not in ``avoid``."""
    if base not in avoid:
        return base
    n = 1
    while f"{base}{n}" in avoid:
        n += 1
    return f"{base}{n}"


def subst_var(t: Type | Term, frm: str, to: str) -> Type | Term:
    """Replace free occurrences of variable ``frm`` with ``to``, through the
    types embedded in a term too.

    Binders equal to ``to`` are renamed first so the substituted variable is
    never captured.  A node in which ``frm`` is not free is returned as is.
    """
    if frm == to or frm not in fv(t):
        return t
    match t:
        case Path(_, a):
            return Path(to, a)
        case Var():
            return Var(to)
        case App(f, a):
            return App(to if f == frm else f, to if a == frm else a)
        case Decl(a, lo, hi):
            return Decl(a, subst_var(lo, frm, to), subst_var(hi, frm, to))
        case Tag(a, ty):
            return Tag(a, subst_var(ty, frm, to))
        case All(x, s, u) | Lam(x, s, u) | Let(x, s, u):
            s = subst_var(s, frm, to)
            if x != frm:
                if x == to and frm in fv(u):
                    x2 = fresh_name(x, fv(u) | {frm, to})
                    u, x = subst_var(u, x, x2), x2
                u = subst_var(u, frm, to)
            return type(t)(x, s, u)


# ---------------------------------------------------------------------------
# Alpha-equivalence


def _canon_var(x: str, bound: tuple) -> str:
    # a bound variable is its distance to its binder, innermost first
    return f"@{bound[::-1].index(x)}" if x in bound else x


def _canon(t: Type | Term, bound: tuple) -> str:
    """``t``'s key under the enclosing binders ``bound``, innermost last.  A
    node that mentions none of them has its own key, cached on the node."""
    closed = not bound or fv(t).isdisjoint(bound)
    if closed:
        try:
            return t._canon
        except AttributeError:
            bound = ()
    match t:
        case Top():
            key = "T"
        case Bot():
            key = "B"
        case Path(x, a):
            key = f"{_canon_var(x, bound)}.{a}"
        case Var(x):
            key = _canon_var(x, bound)
        case App(f, a):
            key = f"({_canon_var(f, bound)} {_canon_var(a, bound)})"
        case Decl(a, lo, hi):
            key = f"{{{a}:{_canon(lo, bound)}..{_canon(hi, bound)}}}"
        case Tag(a, ty):
            key = f"{{{a}={_canon(ty, bound)}}}"
        case All(x, s, u) | Lam(x, s, u) | Let(x, s, u):
            key = f"{_BINDER_HEADS[type(t)]}({_canon(s, bound)}){_canon(u, bound + (x,))}"
        case _:
            raise TypeError(f"not a node: {t!r}")
    if closed:
        _set_canon(t, key)
    return key


def canon(t: Type | Term) -> str:
    """A nameless key: bound variables are rendered by binder position (de
    Bruijn indices), free ones by name, so two nodes have the same key
    exactly when they are alpha-equivalent.  Built once per node."""
    return _canon(t, ())


def alpha_eq(a: Type | Term, b: Type | Term) -> bool:
    """Equality up to consistent renaming of bound variables; identical
    nodes are equal without computing a key."""
    return (a is b and isinstance(a, _Node)) or canon(a) == canon(b)


# ---------------------------------------------------------------------------
# Printing


def print_type(t: Type) -> str:
    match t:
        case Top():
            return "Top"
        case Bot():
            return "Bot"
        case Path(var=x, label=a):
            return f"{x}.{a}"
        case Decl(label=a, lower=lo, upper=hi):
            return f"{{{a}: {print_type(lo)} .. {print_type(hi)}}}"
        case All(param=x, param_type=s, result=u):
            return f"all({x}: {print_type(s)}) {print_type(u)}"
    raise TypeError(f"not a type: {t!r}")


def print_term(t: Term) -> str:
    match t:
        case Var(name=x):
            return x
        case Tag(label=a, alias=ty):
            return f"{{{a} = {print_type(ty)}}}"
        case Lam(param=x, param_type=ty, body=b):
            return f"lam({x}: {print_type(ty)}) {print_term(b)}"
        case App(fun=f, arg=a):
            return f"{f} {a}"
        case Let(bound=x, rhs=r, body=b):
            return f"let {x} = {print_term(r)} in {print_term(b)}"
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Parsing (hand-rolled recursive descent; whitespace-insensitive, // comments)


class ParseError(DsubError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# Deepest nesting the parser accepts: a component of a compound form (a
# declaration's bounds, a function type's parameter and result, a tag's
# alias, a lambda's annotation and body, a let's right side and body) is one
# level deeper than the form.  Every decision procedure and writer recurses
# once or twice per level, so this keeps them within Python's recursion
# limit; ``{A: Bot .. Top}`` nested 400 times is accepted, 401 times refused.
MAX_NESTING = 400

_KEYWORDS = frozenset(("Top", "Bot", "all", "lam", "let", "in"))
_PUNCT = frozenset(("{", "}", "(", ")", ":", "=", ".", "..", ";"))

# One match per token: the whitespace and comments before it, then the token
# (group 1): punctuation, a run of word characters, any other character, or
# "" at the end of the input.  ``\s`` and ``\w`` are exactly ``str.isspace``
# and ``str.isalnum`` or ``_``.  A token that is neither punctuation nor a
# word (a letter or ``_`` first) is a character the grammar has no use for;
# the parser never accepts one, and reports the first when it fails.
_TOKEN = re.compile(r"(?:\s+|//[^\n]*)*(\.\.|[{}():=.;]|\w+|.|\Z)", re.S)


def _reads_as(text: str) -> str | None:
    """The one rule for names: the kind of ``text`` ("keyword", "label" when
    it starts upper-case, else "ident") when it is one word as the scanner
    reads words (a letter or ``_`` followed by letters, digits and ``_``),
    else None."""
    if not (text[:1] == "_" or text[:1].isalpha()) or not text.replace("_", "a").isalnum():
        return None
    if text in _KEYWORDS:
        return "keyword"
    return "label" if text[0].isupper() else "ident"


# Names known to read as a variable or a label.  The parser and the node
# constructors test these first, so each distinct name is checked once.  A
# set that reaches _NAMES_KEPT names is emptied, so it never holds more.
_NAMES_KEPT = 1024
_VARS: set = set()
_LABELS: set = set()


def _is_name(text: str, kind: str, kept: set) -> bool:
    """Whether ``text`` reads as a name of ``kind`` ("ident" or "label");
    if it does, ``kept`` (``_VARS`` or ``_LABELS``) keeps it."""
    if _reads_as(text) != kind:
        return False
    if len(kept) >= _NAMES_KEPT:
        kept.clear()
    kept.add(text)
    return True


def is_ident(text: str) -> bool:
    """True when ``text`` reads as exactly one variable name."""
    return text in _VARS or _is_name(text, "ident", _VARS)


def is_label(text: str) -> bool:
    """True when ``text`` reads as exactly one type label."""
    return text in _LABELS or _is_name(text, "label", _LABELS)


def _parse_error(text: str, index: int, message: str) -> ParseError:
    """The error ``message`` at token ``index`` of ``text``, unless the
    input holds a character the grammar has no use for: then the first of
    those, wherever it is.  Line and column come from the offset; at the end
    of input after a comment on the last line, the column is where the
    ``//`` starts."""
    at = None
    for k, match in enumerate(_TOKEN.finditer(text)):
        tok = match[1]
        if tok and tok not in _PUNCT and not (tok[0] == "_" or tok[0].isalpha()):
            message, at = f"unexpected character {tok[0]!r}", match.start(1)
            break
        if k == index:
            at = match.start(1)
    if at == len(text):
        comment = text.find("//", text.rfind("\n") + 1)
        if comment >= 0:
            at = comment
    return ParseError(message, text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))


class _Parser:
    """Recursive descent over the token texts of ``text``, compared as
    strings; ``pos`` is the index of the current token."""

    __slots__ = ("text", "toks", "pos")

    def __init__(self, text: str):
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.pos = 0

    def fail(self, message: str, index: int | None = None):
        raise _parse_error(self.text, self.pos if index is None else index, message)

    def expected(self, want: str, index: int):
        got = self.toks[index]
        self.fail(f"expected {want!r}, found {got if got else 'end of input'!r}", index)

    def too_deep(self):
        self.fail(f"input is nested more than {MAX_NESTING} levels deep")

    # type ::= "Top" | "Bot" | "{" LABEL ":" type ".." type "}"
    #        | IDENT "." LABEL | "all" binder type
    # ``depth`` is the number of compound forms enclosing this one.
    def type_(self, depth: int) -> Type:
        if depth > MAX_NESTING:
            self.too_deep()
        toks, i = self.toks, self.pos
        tok = toks[i]
        if tok == "{":
            label = toks[i + 1]
            if not is_label(label):
                self.expected("label", i + 1)
            if toks[i + 2] != ":":
                self.expected(":", i + 2)
            self.pos = i + 3
            lo = self.type_(depth + 1)
            i = self.pos
            if toks[i] != "..":
                self.expected("..", i)
            self.pos = i + 1
            hi = self.type_(depth + 1)
            i = self.pos
            if toks[i] != "}":
                self.expected("}", i)
            self.pos = i + 1
            return Decl(label, lo, hi)
        if tok == "Top":
            self.pos = i + 1
            return Top()
        if tok == "Bot":
            self.pos = i + 1
            return Bot()
        if tok == "all":
            return All(*self.binder(depth), self.type_(depth + 1))
        if is_ident(tok):
            if toks[i + 1] != ".":
                self.expected(".", i + 1)
            label = toks[i + 2]
            if not is_label(label):
                self.expected("label", i + 2)
            self.pos = i + 3
            return Path(tok, label)
        self.fail("expected a type")

    # term ::= IDENT | IDENT IDENT | "{" LABEL "=" type "}"
    #        | "lam" binder term | "let" IDENT "=" term "in" term
    def term(self, depth: int) -> Term:
        if depth > MAX_NESTING:
            self.too_deep()
        toks, i = self.toks, self.pos
        tok = toks[i]
        if tok == "let":
            bound = toks[i + 1]
            if not is_ident(bound):
                self.expected("ident", i + 1)
            if toks[i + 2] != "=":
                self.expected("=", i + 2)
            self.pos = i + 3
            rhs = self.term(depth + 1)
            i = self.pos
            if toks[i] != "in":
                self.expected("in", i)
            self.pos = i + 1
            return Let(bound, rhs, self.term(depth + 1))
        if tok == "{":
            label = toks[i + 1]
            if not is_label(label):
                self.expected("label", i + 1)
            if toks[i + 2] != "=":
                self.expected("=", i + 2)
            self.pos = i + 3
            ty = self.type_(depth + 1)
            i = self.pos
            if toks[i] != "}":
                self.expected("}", i)
            self.pos = i + 1
            return Tag(label, ty)
        if tok == "lam":
            return Lam(*self.binder(depth), self.term(depth + 1))
        if is_ident(tok):
            arg = toks[i + 1]
            if is_ident(arg):  # application binds tighter than binder bodies
                self.pos = i + 2
                return App(tok, arg)
            self.pos = i + 1
            return Var(tok)
        self.fail("expected a term")

    # binder ::= "(" IDENT ":" type ")", read from the "all" or "lam" before
    # it; the parameter and its type, which is one level deeper than the form
    def binder(self, depth: int) -> tuple:
        toks, i = self.toks, self.pos
        if toks[i + 1] != "(":
            self.expected("(", i + 1)
        param = toks[i + 2]
        if not is_ident(param):
            self.expected("ident", i + 2)
        if toks[i + 3] != ":":
            self.expected(":", i + 3)
        self.pos = i + 4
        s = self.type_(depth + 1)
        i = self.pos
        if toks[i] != ")":
            self.expected(")", i)
        self.pos = i + 1
        return param, s

    # env ::= (IDENT ":" type ";")*, oldest binding first
    def bindings(self) -> list:
        toks, pairs = self.toks, []
        while toks[self.pos]:
            i = self.pos
            x = toks[i]
            if not is_ident(x):
                self.expected("ident", i)
            if toks[i + 1] != ":":
                self.expected(":", i + 1)
            self.pos = i + 2
            t = self.type_(0)
            i = self.pos
            if toks[i] != ";":
                self.expected(";", i)
            self.pos = i + 1
            pairs.append((x, t))
        return pairs

    def eof(self) -> None:
        tok = self.toks[self.pos]
        if tok:
            self.fail(f"unexpected trailing input {tok!r}")


def parse_type(text: str) -> Type:
    p = _Parser(text)
    t = p.type_(0)
    p.eof()
    return t


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.term(0)
    p.eof()
    return t
