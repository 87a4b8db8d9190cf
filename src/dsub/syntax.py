"""Abstract and concrete syntax for the calculus.

Types are Top, Bot, bounded type declarations ``{A: S .. T}``, path-dependent
selections ``x.A``, and dependent function types ``all(x: S) T``.  Terms are
in administrative normal form: variables, type tags ``{A = T}``, lambdas,
variable-to-variable applications, and lets.

Binding uses concrete names.  ``all``/``lam``/``let`` bind their variable in
the body only (never in the annotation), and every operation here is
capture-avoiding; outputs are meaningful up to alpha-equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Union

from .errors import DsubError

# ---------------------------------------------------------------------------
# ASTs


def _check_var(name: str) -> None:
    if not name or not (name[0].islower()) or not name.replace("_", "").isalnum():
        raise ValueError(f"invalid variable name: {name!r}")


def _check_label(name: str) -> None:
    if not name or not (name[0].isupper()) or not name.replace("_", "").isalnum():
        raise ValueError(f"invalid type label: {name!r}")


@dataclass(frozen=True)
class Top:
    """The top type."""


@dataclass(frozen=True)
class Bot:
    """The bottom type."""


@dataclass(frozen=True)
class Decl:
    """Type declaration ``{label: lower .. upper}``."""

    label: str
    lower: "Type"
    upper: "Type"

    def __post_init__(self) -> None:
        _check_label(self.label)


@dataclass(frozen=True)
class Path:
    """Path-dependent type ``var.label``."""

    var: str
    label: str

    def __post_init__(self) -> None:
        _check_var(self.var)
        _check_label(self.label)


@dataclass(frozen=True)
class All:
    """Dependent function type ``all(param: param_type) result``.

    ``param`` is bound in ``result`` only, not in ``param_type``.
    """

    param: str
    param_type: "Type"
    result: "Type"

    def __post_init__(self) -> None:
        _check_var(self.param)


Type = Union[Top, Bot, Decl, Path, All]


@dataclass(frozen=True)
class Var:
    """Term variable."""

    name: str

    def __post_init__(self) -> None:
        _check_var(self.name)


@dataclass(frozen=True)
class Tag:
    """Type tag ``{label = alias}``, a value naming a type."""

    label: str
    alias: Type

    def __post_init__(self) -> None:
        _check_label(self.label)


@dataclass(frozen=True)
class Lam:
    """Lambda ``lam(param: param_type) body``; ``param`` bound in ``body``."""

    param: str
    param_type: Type
    body: "Term"

    def __post_init__(self) -> None:
        _check_var(self.param)


@dataclass(frozen=True)
class App:
    """Application of a variable to a variable (ANF)."""

    fun: str
    arg: str

    def __post_init__(self) -> None:
        _check_var(self.fun)
        _check_var(self.arg)


@dataclass(frozen=True)
class Let:
    """``let bound = rhs in body``; ``bound`` is bound in ``body`` only."""

    bound: str
    rhs: "Term"
    body: "Term"

    def __post_init__(self) -> None:
        _check_var(self.bound)


Term = Union[Var, Tag, Lam, App, Let]


# ---------------------------------------------------------------------------
# Free variables and sizes


@lru_cache(maxsize=None)
def fv_type(t: Type) -> frozenset:
    match t:
        case Top() | Bot():
            return frozenset()
        case Path(var=x):
            return frozenset((x,))
        case Decl(lower=lo, upper=hi):
            return fv_type(lo) | fv_type(hi)
        case All(param=x, param_type=s, result=u):
            return fv_type(s) | (fv_type(u) - {x})
    raise TypeError(f"not a type: {t!r}")


@lru_cache(maxsize=None)
def fv_term(t: Term) -> frozenset:
    match t:
        case Var(name=x):
            return frozenset((x,))
        case Tag(alias=ty):
            return fv_type(ty)
        case Lam(param=x, param_type=ty, body=b):
            return fv_type(ty) | (fv_term(b) - {x})
        case App(fun=f, arg=a):
            return frozenset((f, a))
        case Let(bound=x, rhs=r, body=b):
            return fv_term(r) | (fv_term(b) - {x})
    raise TypeError(f"not a term: {t!r}")


def type_size(t: Type) -> int:
    match t:
        case Top() | Bot() | Path():
            return 1
        case Decl(lower=lo, upper=hi):
            return 1 + type_size(lo) + type_size(hi)
        case All(param_type=s, result=u):
            return 1 + type_size(s) + type_size(u)
    raise TypeError(f"not a type: {t!r}")


def term_size(t: Term) -> int:
    match t:
        case Var() | App():
            return 1
        case Tag(alias=ty):
            return 1 + type_size(ty)
        case Lam(param_type=ty, body=b):
            return 1 + type_size(ty) + term_size(b)
        case Let(rhs=r, body=b):
            return 1 + term_size(r) + term_size(b)
    raise TypeError(f"not a term: {t!r}")


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
    never captured.
    """
    match t:
        case Top() | Bot():
            return t
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
    match t:
        case Top():
            return "T"
        case Bot():
            return "B"
        case Path(var=x, label=a):
            return f"{_canon_var(x, bound)}.{a}"
        case Decl(label=a, lower=lo, upper=hi):
            return f"{{{a}:{_canon_type(lo, bound)}..{_canon_type(hi, bound)}}}"
        case All(param=x, param_type=s, result=u):
            return f"A({_canon_type(s, bound)}){_canon_type(u, bound + (x,))}"
    raise TypeError(f"not a type: {t!r}")


@lru_cache(maxsize=None)
def canon_type(t: Type) -> str:
    """A nameless key: bound variables are rendered by binder position (de
    Bruijn indices), free ones by name, so two types have the same key
    exactly when they are alpha-equivalent."""
    return _canon_type(t, ())


def _canon_term(t: Term, bound: tuple) -> str:
    match t:
        case Var(name=x):
            return _canon_var(x, bound)
        case Tag(label=a, alias=ty):
            return f"{{{a}={_canon_type(ty, bound)}}}"
        case Lam(param=x, param_type=ty, body=b):
            return f"L({_canon_type(ty, bound)}){_canon_term(b, bound + (x,))}"
        case App(fun=f, arg=a):
            return f"({_canon_var(f, bound)} {_canon_var(a, bound)})"
        case Let(bound=x, rhs=r, body=b):
            return f"let({_canon_term(r, bound)}){_canon_term(b, bound + (x,))}"
    raise TypeError(f"not a term: {t!r}")


@lru_cache(maxsize=None)
def canon_term(t: Term) -> str:
    return _canon_term(t, ())


def alpha_eq_type(a: Type, b: Type) -> bool:
    """Equality up to consistent renaming of bound variables."""
    return canon_type(a) == canon_type(b)


def alpha_eq_term(a: Term, b: Term) -> bool:
    return canon_term(a) == canon_term(b)


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


_KEYWORDS = frozenset(("Top", "Bot", "all", "lam", "let", "in"))
_PUNCT = ("..", "{", "}", "(", ")", ":", "=", ".", ";")


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "label", "punct", "keyword", "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> Iterator[_Token]:
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                yield _Token("punct", p, line, col)
                i += len(p)
                col += len(p)
                break
        else:
            if c.isalpha() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                if word in _KEYWORDS:
                    kind = "keyword"
                elif word[0].isupper():
                    kind = "label"
                else:
                    kind = "ident"
                yield _Token(kind, word, line, col)
                col += j - i
                i = j
            else:
                raise ParseError(f"unexpected character {c!r}", line, col)
    yield _Token("eof", "", line, col)


@lru_cache(maxsize=None)
def is_ident(text: str) -> bool:
    """True when ``text`` reads as exactly one variable name."""
    try:
        first = next(_tokenize(text))
    except ParseError:
        return False
    return first.kind == "ident" and first.text == text


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0

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
            lo = self.type_()
            self.expect("punct", "..")
            hi = self.type_()
            self.expect("punct", "}")
            return Decl(label, lo, hi)
        if self.at("keyword", "all"):
            self.advance()
            self.expect("punct", "(")
            param = self.expect("ident").text
            self.expect("punct", ":")
            s = self.type_()
            self.expect("punct", ")")
            u = self.type_()
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
            ty = self.type_()
            self.expect("punct", "}")
            return Tag(label, ty)
        if self.at("keyword", "lam"):
            self.advance()
            self.expect("punct", "(")
            param = self.expect("ident").text
            self.expect("punct", ":")
            ty = self.type_()
            self.expect("punct", ")")
            return Lam(param, ty, self.term())
        if self.at("keyword", "let"):
            self.advance()
            bound = self.expect("ident").text
            self.expect("punct", "=")
            rhs = self.term()
            self.expect("keyword", "in")
            return Let(bound, rhs, self.term())
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
