"""Abstract and concrete syntax for the calculus.

Types are Top, Bot, bounded type declarations ``{A: S .. T}``, path-dependent
selections ``x.A``, and dependent function types ``all(x: S) T``.  Terms are
in administrative normal form: variables, type tags ``{A = T}``, lambdas,
variable-to-variable applications, and lets.

Binding uses concrete names.  ``all``/``lam``/``let`` bind their variable in
the body only (never in the annotation), and every operation here is
capture-avoiding; outputs are meaningful up to alpha-equivalence.

Nodes are hash-consed: there is one live node per structure, so ``==`` on
types and terms is identity.  The parser refuses input nested deeper than
:data:`MAX_NESTING` levels.
"""

from __future__ import annotations

import threading
import weakref
from typing import Iterator, NamedTuple, Union

from .errors import DsubError

# ---------------------------------------------------------------------------
# ASTs
#
# Every node is hash-consed (Filliatre & Conchon, "Type-safe modular
# hash-consing", 2006): constructing a structure that already has a live node
# returns that node, so equality is identity, the structural hash is computed
# once from the children's, and per-node facts (free variables, size,
# canonical key) are cached on the node.  The table holds nodes weakly; a
# node leaves it when the last reference to it goes.


_TABLE: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()
_TABLE_LOCK = threading.Lock()
_SET = object.__setattr__  # nodes refuse plain assignment


def _build(cls, key: tuple, fields: tuple, names: tuple = (), labels: tuple = ()):
    """The node for ``key`` once a lookup has missed: under the lock, look
    again, then validate ``names`` and ``labels`` and build it.  A key holds
    its child nodes by id: they are live, as the new node holds them."""
    with _TABLE_LOCK:  # one thread builds a structure's node, the others find it
        node = _TABLE.get(key)
        if node is None:
            for name in names:
                _check_var(name)
            for label in labels:
                _check_label(label)
            node = object.__new__(cls)
            size = 1
            for attr, value in zip(cls.__match_args__, fields):
                _SET(node, attr, value)
                if isinstance(value, _Node):
                    size += value._size
            _SET(node, "_size", size)
            _SET(node, "_hash", hash((cls.__name__, *fields)))
            _TABLE[key] = node
    return node


class _Node:
    """A hash-consed syntax node; immutable, compared by identity."""

    # _fv and _canon are set when first computed
    __slots__ = ("_hash", "_size", "_fv", "_canon", "__weakref__")
    __match_args__: tuple = ()

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


class Top(_Node):
    """The top type."""

    __slots__ = ()

    def __new__(cls):
        return _TABLE.get(cls) or _build(cls, cls, ())


class Bot(_Node):
    """The bottom type."""

    __slots__ = ()

    def __new__(cls):
        return _TABLE.get(cls) or _build(cls, cls, ())


class Decl(_Node):
    """Type declaration ``{label: lower .. upper}``."""

    __slots__ = __match_args__ = ("label", "lower", "upper")

    def __new__(cls, label: str, lower: "Type", upper: "Type"):
        key = (cls, label, id(lower), id(upper))
        return _TABLE.get(key) or _build(cls, key, (label, lower, upper), labels=(label,))


class Path(_Node):
    """Path-dependent type ``var.label``."""

    __slots__ = __match_args__ = ("var", "label")

    def __new__(cls, var: str, label: str):
        key = (cls, var, label)
        return _TABLE.get(key) or _build(cls, key, key[1:], (var,), (label,))


class All(_Node):
    """Dependent function type ``all(param: param_type) result``.

    ``param`` is bound in ``result`` only, not in ``param_type``.
    """

    __slots__ = __match_args__ = ("param", "param_type", "result")

    def __new__(cls, param: str, param_type: "Type", result: "Type"):
        key = (cls, param, id(param_type), id(result))
        return _TABLE.get(key) or _build(cls, key, (param, param_type, result), (param,))


Type = Union[Top, Bot, Decl, Path, All]
_TYPE_CLASSES = (Top, Bot, Decl, Path, All)


class Var(_Node):
    """Term variable."""

    __slots__ = __match_args__ = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        return _TABLE.get(key) or _build(cls, key, key[1:], key[1:])


class Tag(_Node):
    """Type tag ``{label = alias}``, a value naming a type."""

    __slots__ = __match_args__ = ("label", "alias")

    def __new__(cls, label: str, alias: Type):
        key = (cls, label, id(alias))
        return _TABLE.get(key) or _build(cls, key, (label, alias), labels=(label,))


class Lam(_Node):
    """Lambda ``lam(param: param_type) body``; ``param`` bound in ``body``."""

    __slots__ = __match_args__ = ("param", "param_type", "body")

    def __new__(cls, param: str, param_type: Type, body: "Term"):
        key = (cls, param, id(param_type), id(body))
        return _TABLE.get(key) or _build(cls, key, (param, param_type, body), (param,))


class App(_Node):
    """Application of a variable to a variable (ANF)."""

    __slots__ = __match_args__ = ("fun", "arg")

    def __new__(cls, fun: str, arg: str):
        key = (cls, fun, arg)
        return _TABLE.get(key) or _build(cls, key, key[1:], key[1:])


class Let(_Node):
    """``let bound = rhs in body``; ``bound`` is bound in ``body`` only."""

    __slots__ = __match_args__ = ("bound", "rhs", "body")

    def __new__(cls, bound: str, rhs: "Term", body: "Term"):
        key = (cls, bound, id(rhs), id(body))
        return _TABLE.get(key) or _build(cls, key, (bound, rhs, body), (bound,))


Term = Union[Var, Tag, Lam, App, Let]
_TERM_CLASSES = (Var, Tag, Lam, App, Let)


# ---------------------------------------------------------------------------
# Free variables and sizes


def _cache(node: _Node, attr: str, value):
    _SET(node, attr, value)
    return value


def fv_type(t: Type) -> frozenset:
    if not isinstance(t, _TYPE_CLASSES):
        raise TypeError(f"not a type: {t!r}")
    try:
        return t._fv
    except AttributeError:
        pass
    match t:
        case Top() | Bot():
            free = frozenset()
        case Path(var=x):
            free = frozenset((x,))
        case Decl(lower=lo, upper=hi):
            free = fv_type(lo) | fv_type(hi)
        case All(param=x, param_type=s, result=u):
            free = fv_type(s) | (fv_type(u) - {x})
    return _cache(t, "_fv", free)


def fv_term(t: Term) -> frozenset:
    if not isinstance(t, _TERM_CLASSES):
        raise TypeError(f"not a term: {t!r}")
    try:
        return t._fv
    except AttributeError:
        pass
    match t:
        case Var(name=x):
            free = frozenset((x,))
        case Tag(alias=ty):
            free = fv_type(ty)
        case Lam(param=x, param_type=ty, body=b):
            free = fv_type(ty) | (fv_term(b) - {x})
        case App(fun=f, arg=a):
            free = frozenset((f, a))
        case Let(bound=x, rhs=r, body=b):
            free = fv_term(r) | (fv_term(b) - {x})
    return _cache(t, "_fv", free)


def type_size(t: Type) -> int:
    if not isinstance(t, _TYPE_CLASSES):
        raise TypeError(f"not a type: {t!r}")
    return t._size


def term_size(t: Term) -> int:
    if not isinstance(t, _TERM_CLASSES):
        raise TypeError(f"not a term: {t!r}")
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


def subst_var_in_type(t: Type, frm: str, to: str) -> Type:
    """Replace free occurrences of variable ``frm`` with ``to``.

    Binders equal to ``to`` are renamed first so the substituted variable is
    never captured.  A type in which ``frm`` is not free is returned as is.
    """
    if frm == to or frm not in fv_type(t):
        return t
    match t:
        case Path(var=x, label=a):
            return Path(to, a) if x == frm else t
        case Decl(label=a, lower=lo, upper=hi):
            return Decl(a, subst_var_in_type(lo, frm, to), subst_var_in_type(hi, frm, to))
        case All(param=x, param_type=s, result=u):
            s2 = subst_var_in_type(s, frm, to)
            if x == frm:
                return All(x, s2, u)
            if x == to and frm in fv_type(u):
                x2 = fresh_name(x, fv_type(u) | {frm, to})
                u = subst_var_in_type(u, x, x2)
                x = x2
            return All(x, s2, subst_var_in_type(u, frm, to))
    raise TypeError(f"not a type: {t!r}")


def subst_var_in_term(t: Term, frm: str, to: str) -> Term:
    """Variable-for-variable substitution through a term, including the types
    embedded in it; capture-avoiding like :func:`subst_var_in_type`."""
    if frm == to or frm not in fv_term(t):
        return t
    match t:
        case Var(name=x):
            return Var(to) if x == frm else t
        case Tag(label=a, alias=ty):
            return Tag(a, subst_var_in_type(ty, frm, to))
        case App(fun=f, arg=a):
            return App(to if f == frm else f, to if a == frm else a)
        case Lam(param=x, param_type=ty, body=b):
            ty2 = subst_var_in_type(ty, frm, to)
            if x == frm:
                return Lam(x, ty2, b)
            if x == to and frm in fv_term(b):
                x2 = fresh_name(x, fv_term(b) | {frm, to})
                b = subst_var_in_term(b, x, x2)
                x = x2
            return Lam(x, ty2, subst_var_in_term(b, frm, to))
        case Let(bound=x, rhs=r, body=b):
            r2 = subst_var_in_term(r, frm, to)
            if x == frm:
                return Let(x, r2, b)
            if x == to and frm in fv_term(b):
                x2 = fresh_name(x, fv_term(b) | {frm, to})
                b = subst_var_in_term(b, x, x2)
                x = x2
            return Let(x, r2, subst_var_in_term(b, frm, to))
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Alpha-equivalence


def _canon_var(x: str, bound: tuple) -> str:
    # a bound variable is its distance to its binder, innermost first
    return f"@{bound[::-1].index(x)}" if x in bound else x


def _canon_type(t: Type, bound: tuple) -> str:
    """``t``'s key under the enclosing binders ``bound``, innermost last.  A
    type that mentions none of them has its own key, cached on the node."""
    closed = not bound or fv_type(t).isdisjoint(bound)
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
        case Path(var=x, label=a):
            key = f"{_canon_var(x, bound)}.{a}"
        case Decl(label=a, lower=lo, upper=hi):
            key = f"{{{a}:{_canon_type(lo, bound)}..{_canon_type(hi, bound)}}}"
        case All(param=x, param_type=s, result=u):
            key = f"A({_canon_type(s, bound)}){_canon_type(u, bound + (x,))}"
        case _:
            raise TypeError(f"not a type: {t!r}")
    return _cache(t, "_canon", key) if closed else key


def canon_type(t: Type) -> str:
    """A nameless key: bound variables are rendered by binder position (de
    Bruijn indices), free ones by name, so two types have the same key
    exactly when they are alpha-equivalent.  Built once per node."""
    if not isinstance(t, _TYPE_CLASSES):
        raise TypeError(f"not a type: {t!r}")
    return _canon_type(t, ())


def _canon_term(t: Term, bound: tuple) -> str:
    closed = not bound or fv_term(t).isdisjoint(bound)
    if closed:
        try:
            return t._canon
        except AttributeError:
            bound = ()
    match t:
        case Var(name=x):
            key = _canon_var(x, bound)
        case Tag(label=a, alias=ty):
            key = f"{{{a}={_canon_type(ty, bound)}}}"
        case Lam(param=x, param_type=ty, body=b):
            key = f"L({_canon_type(ty, bound)}){_canon_term(b, bound + (x,))}"
        case App(fun=f, arg=a):
            key = f"({_canon_var(f, bound)} {_canon_var(a, bound)})"
        case Let(bound=x, rhs=r, body=b):
            key = f"let({_canon_term(r, bound)}){_canon_term(b, bound + (x,))}"
        case _:
            raise TypeError(f"not a term: {t!r}")
    return _cache(t, "_canon", key) if closed else key


def canon_term(t: Term) -> str:
    if not isinstance(t, _TERM_CLASSES):
        raise TypeError(f"not a term: {t!r}")
    return _canon_term(t, ())


def alpha_eq_type(a: Type, b: Type) -> bool:
    """Equality up to consistent renaming of bound variables; identical
    nodes are equal without computing a key."""
    return (a is b and isinstance(a, _TYPE_CLASSES)) or canon_type(a) == canon_type(b)


def alpha_eq_term(a: Term, b: Term) -> bool:
    return (a is b and isinstance(a, _TERM_CLASSES)) or canon_term(a) == canon_term(b)


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
_PUNCT = frozenset("{}():=.;")  # and "..", read where "." starts it


class _Token(NamedTuple):
    kind: str  # "ident", "label", "punct", "keyword", "eof"
    text: str
    line: int
    col: int


def _word_kind(word: str) -> str:
    """A word's token kind: a keyword, else a label when it starts
    upper-case, else a variable ("ident")."""
    if word in _KEYWORDS:
        return "keyword"
    return "label" if word[0].isupper() else "ident"


def _reads_as(text: str) -> str | None:
    """The one rule for names: the kind of ``text`` when it is one word as
    the tokenizer scans words (a letter or ``_`` followed by letters, digits
    and ``_``), else None."""
    if not (text[:1] == "_" or text[:1].isalpha()) or not text.replace("_", "a").isalnum():
        return None
    return _word_kind(text)


def _tokenize(text: str) -> Iterator[_Token]:
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
        elif c.isspace():
            i += 1
            col += 1
        elif c == "/" and text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
        elif c in _PUNCT:
            p = ".." if text.startswith("..", i) else c
            yield _Token("punct", p, line, col)
            i += len(p)
            col += len(p)
        elif c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            yield _Token(_word_kind(word), word, line, col)
            col += j - i
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    yield _Token("eof", "", line, col)


def is_ident(text: str) -> bool:
    """True when ``text`` reads as exactly one variable name."""
    return _reads_as(text) == "ident"


def _check_var(name: str) -> None:
    if _reads_as(name) != "ident":
        raise ValueError(f"invalid variable name: {name!r}")


def _check_label(name: str) -> None:
    if _reads_as(name) != "label":
        raise ValueError(f"invalid type label: {name!r}")


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.depth = 0  # compound forms enclosing the component being parsed

    def descend(self) -> None:
        """Enter the components of a compound form, one level deeper than
        the form; refuse to go past :data:`MAX_NESTING` levels.  The caller
        leaves with ``self.depth -= 1``."""
        if self.depth == MAX_NESTING:
            self.fail(f"input is nested more than {MAX_NESTING} levels deep")
        self.depth += 1

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def fail(self, message: str):
        raise ParseError(message, self.cur.line, self.cur.col)

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.cur
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            got = tok.text if tok.text else "end of input"
            self.fail(f"expected {want!r}, found {got!r}")
        return self.advance()

    def at(self, kind: str, text: str | None = None) -> bool:
        return self.cur.kind == kind and (text is None or self.cur.text == text)

    # type ::= "Top" | "Bot" | "{" LABEL ":" type ".." type "}"
    #        | IDENT "." LABEL | "all" "(" IDENT ":" type ")" type
    def type_(self) -> Type:
        if self.at("keyword", "Top"):
            self.advance()
            return Top()
        if self.at("keyword", "Bot"):
            self.advance()
            return Bot()
        if self.at("punct", "{"):
            self.advance()
            label = self.expect("label").text
            self.expect("punct", ":")
            self.descend()
            lo = self.type_()
            self.expect("punct", "..")
            hi = self.type_()
            self.depth -= 1
            self.expect("punct", "}")
            return Decl(label, lo, hi)
        if self.at("keyword", "all"):
            self.advance()
            self.expect("punct", "(")
            param = self.expect("ident").text
            self.expect("punct", ":")
            self.descend()
            s = self.type_()
            self.expect("punct", ")")
            u = self.type_()
            self.depth -= 1
            return All(param, s, u)
        if self.at("ident"):
            var = self.advance().text
            self.expect("punct", ".")
            label = self.expect("label").text
            return Path(var, label)
        self.fail("expected a type")

    # term ::= IDENT | IDENT IDENT | "{" LABEL "=" type "}"
    #        | "lam" "(" IDENT ":" type ")" term | "let" IDENT "=" term "in" term
    def term(self) -> Term:
        if self.at("punct", "{"):
            self.advance()
            label = self.expect("label").text
            self.expect("punct", "=")
            self.descend()
            ty = self.type_()
            self.depth -= 1
            self.expect("punct", "}")
            return Tag(label, ty)
        if self.at("keyword", "lam"):
            self.advance()
            self.expect("punct", "(")
            param = self.expect("ident").text
            self.expect("punct", ":")
            self.descend()
            ty = self.type_()
            self.expect("punct", ")")
            body = self.term()
            self.depth -= 1
            return Lam(param, ty, body)
        if self.at("keyword", "let"):
            self.advance()
            bound = self.expect("ident").text
            self.expect("punct", "=")
            self.descend()
            rhs = self.term()
            self.expect("keyword", "in")
            body = self.term()
            self.depth -= 1
            return Let(bound, rhs, body)
        if self.at("ident"):
            name = self.advance().text
            if self.at("ident"):  # application binds tighter than binder bodies
                return App(name, self.advance().text)
            return Var(name)
        self.fail("expected a term")

    def eof(self) -> None:
        if self.cur.kind != "eof":
            self.fail(f"unexpected trailing input {self.cur.text!r}")


def parse_type(text: str) -> Type:
    p = _Parser(text)
    t = p.type_()
    p.eof()
    return t


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.term()
    p.eof()
    return t
