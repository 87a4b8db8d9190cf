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

import re
import threading
import weakref

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
# the table holds live nodes only.


class _Ref(weakref.ref):
    """A table entry: a weak reference to a node, knowing the node's key."""

    __slots__ = ("key",)


_TABLE: dict = {}
_TABLE_LOCK = threading.Lock()


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
_TYPE_CLASSES = (Top, Bot, Decl, Path, All)


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
_TERM_CLASSES = (Var, Tag, Lam, App, Let)


# ---------------------------------------------------------------------------
# Free variables and sizes


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
    _set_fv(t, free)
    return free


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
    _set_fv(t, free)
    return free


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
    if closed:
        _set_canon(t, key)
    return key


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
    if closed:
        _set_canon(t, key)
    return key


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
    #        | IDENT "." LABEL | "all" "(" IDENT ":" type ")" type
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
            return All(param, s, self.type_(depth + 1))
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
    #        | "lam" "(" IDENT ":" type ")" term | "let" IDENT "=" term "in" term
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
            if toks[i + 1] != "(":
                self.expected("(", i + 1)
            param = toks[i + 2]
            if not is_ident(param):
                self.expected("ident", i + 2)
            if toks[i + 3] != ":":
                self.expected(":", i + 3)
            self.pos = i + 4
            ty = self.type_(depth + 1)
            i = self.pos
            if toks[i] != ")":
                self.expected(")", i)
            self.pos = i + 1
            return Lam(param, ty, self.term(depth + 1))
        if is_ident(tok):
            arg = toks[i + 1]
            if is_ident(arg):  # application binds tighter than binder bodies
                self.pos = i + 2
                return App(tok, arg)
            self.pos = i + 1
            return Var(tok)
        self.fail("expected a term")

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
