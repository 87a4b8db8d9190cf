"""Derivation trees, the judgments they conclude, and the outcome of an
algorithmic relation.

A :class:`DerivationTree` node names the applied rule, records the judgment
it establishes and holds the derivations of its premises.  The same node
type carries both kinds of tree:

- step traces: every successful exposure, promotion/demotion,
  step-subtyping and step-typing computation produces one, with rules from
  :data:`TRACE_RULES`; the declarative elaborator replays them as checkable
  declarative derivations;
- declarative derivations, checked by ``decl_verify`` and found by
  ``decl_search``.

Exposure, promotion/demotion and step typing each compute at most one type.
They answer :class:`Derived` (truthy: the type and its trace) when a rule
applies; promotion/demotion and step typing answer :class:`Failed` (falsy:
why no rule applies, and where in the term) when none does.  Exposure's
failure is its own :class:`~dsub.exposure.Stuck`, whose fields its callers
read.

Each judgment form writes its own JSON payload (``kind``, ``env``, then its
fields in surface syntax); :func:`derivation_to_json` is the one tree writer.
"""

from __future__ import annotations

from .environment import TypeEnv
from .syntax import Term, Type, canon, check_sort, fv, print_term, print_type

# Rule names that may appear in step traces: step subtyping (S-), then one
# line each for step typing (T-), exposure (X-), promotion (P-) and demotion
# (D-).  ``dsub.declarative`` has one elaborator for each.
TRACE_RULES = frozenset(
    (
        "S-Bot",
        "S-Top",
        "S-Refl",
        "S-Typ-<:-Typ",
        "S-All-<:-All",
        "S-<:-Sel",
        "S-Sel-<:",
        "S-Bot-<:",
        "S-<:-Bot",
        "T-Var", "T-All-I", "T-Typ-I", "T-All-E", "T-App-Bot", "T-Let",
        "X-Bot", "X-Path", "X-Other",
        "P-Up", "P-Up-Bot", "P-Lam", "P-Var", "P-Bot", "P-Top", "P-Decl", "P-Cap",
        "D-Down", "D-Down-Bot", "D-Lam", "D-Var", "D-Bot", "D-Top", "D-Decl", "D-Cap",
    )
)


# ---------------------------------------------------------------------------
# Judgments


def _env_json(env: TypeEnv) -> list:
    return [[x, print_type(t)] for x, t in env]


class _Record:
    """Judgments, tree nodes and outcomes: records of named fields.  As
    frozen dataclasses do, they refuse assignment, equal only records of
    their own class with equal fields, and hash as the tuple of their
    fields.  A class's ``__init__`` sets its fields through the setters
    :func:`_setters` gives it."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        return type(other) is type(self) and self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} records are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} records are immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


def _setters(cls) -> tuple:
    """The slot setters of ``cls``'s fields, in order; they bypass its
    refusing ``__setattr__``."""
    return tuple(cls.__dict__[f].__set__ for f in cls.__slots__)


class SubJ(_Record):
    """``env |- lhs <: rhs``; ``env`` must bind the types' free variables."""

    __slots__ = ("env", "lhs", "rhs")

    def __init__(self, env: TypeEnv, lhs: Type, rhs: Type):
        check_sort(lhs, Type)
        check_sort(rhs, Type)
        env.check_scope("judgment", fv(lhs), fv(rhs), ValueError)
        set_env, set_lhs, set_rhs = _SUBJ
        set_env(self, env)
        set_lhs(self, lhs)
        set_rhs(self, rhs)

    def key(self) -> str:
        return f"sub[{self.env.key}]{canon(self.lhs)}<:{canon(self.rhs)}"

    def to_json(self) -> dict:
        return {
            "kind": "sub",
            "env": _env_json(self.env),
            "lhs": print_type(self.lhs),
            "rhs": print_type(self.rhs),
        }


class TypJ(_Record):
    """``env |- term : ty``; ``env`` must bind their free variables."""

    __slots__ = ("env", "term", "ty")

    def __init__(self, env: TypeEnv, term: Term, ty: Type):
        check_sort(term, Term)
        check_sort(ty, Type)
        env.check_scope("judgment", fv(term), fv(ty), ValueError)
        set_env, set_term, set_ty = _TYPJ
        set_env(self, env)
        set_term(self, term)
        set_ty(self, ty)

    def key(self) -> str:
        return f"typ[{self.env.key}]{canon(self.term)}:{canon(self.ty)}"

    def to_json(self) -> dict:
        return {
            "kind": "typ",
            "env": _env_json(self.env),
            "term": print_term(self.term),
            "type": print_type(self.ty),
        }


class ExposeJ(_Record):
    """``env |- src`` exposes to ``out``; written as ``from``/``to``."""

    __slots__ = ("env", "src", "out")

    def __init__(self, env: TypeEnv, src: Type, out: Type):
        set_env, set_src, set_out = _EXPOSEJ
        set_env(self, env)
        set_src(self, src)
        set_out(self, out)

    def to_json(self) -> dict:
        return {
            "kind": "expose",
            "env": _env_json(self.env),
            "from": print_type(self.src),
            "to": print_type(self.out),
        }


class ShiftJ(_Record):
    """``env |- src`` promotes (``up``) or demotes away from ``var`` to
    ``out``; written as ``from``/``var``/``to``."""

    __slots__ = ("env", "src", "var", "out", "up")

    def __init__(self, env: TypeEnv, src: Type, var: str, out: Type, up: bool):
        set_env, set_src, set_var, set_out, set_up = _SHIFTJ
        set_env(self, env)
        set_src(self, src)
        set_var(self, var)
        set_out(self, out)
        set_up(self, up)

    def to_json(self) -> dict:
        return {
            "kind": "promote" if self.up else "demote",
            "env": _env_json(self.env),
            "from": print_type(self.src),
            "var": self.var,
            "to": print_type(self.out),
        }


# ---------------------------------------------------------------------------
# Derivation trees


class DerivationTree(_Record):
    """A node: the ``rule`` applied, its ``conclusion`` (a judgment), and
    the derivations of its ``premises``."""

    __slots__ = ("rule", "conclusion", "premises")

    def __init__(self, rule: str, conclusion, premises: tuple = ()):
        set_rule, set_conclusion, set_premises = _TREE
        set_rule(self, rule)
        set_conclusion(self, conclusion)
        set_premises(self, premises)


class Derived(_Record):
    """An algorithmic relation computed ``ty``; ``trace`` derives it.
    Truthy, as objects are by default; :class:`Failed` is falsy."""

    __slots__ = ("ty", "trace")

    def __init__(self, ty: Type, trace: DerivationTree):
        set_ty, set_trace = _DERIVED
        set_ty(self, ty)
        set_trace(self, trace)


class Failed(_Record):
    """No algorithmic rule applies, for ``reason``; ``location`` is the
    dotted path into the term at fault ("" for the root, or no term)."""

    __slots__ = ("reason", "location")

    def __init__(self, reason: str, location: str = ""):
        set_reason, set_location = _FAILED
        set_reason(self, reason)
        set_location(self, location)

    def __bool__(self) -> bool:
        return False

    def describe(self) -> str:
        where = self.location or "term"
        return f"{where}: {self.reason}"


_SUBJ, _TYPJ, _EXPOSEJ, _SHIFTJ, _TREE, _DERIVED, _FAILED = map(
    _setters, (SubJ, TypJ, ExposeJ, ShiftJ, DerivationTree, Derived, Failed)
)


def step_node(rule: str, conclusion, premises: tuple = ()) -> DerivationTree:
    """A step-trace node; ``rule`` must be one of :data:`TRACE_RULES`."""
    if rule not in TRACE_RULES:
        raise ValueError(f"unknown trace rule: {rule!r}")
    return DerivationTree(rule, conclusion, premises)


def derivation_to_json(tree: DerivationTree) -> dict:
    return {
        "rule": tree.rule,
        "judgment": tree.conclusion.to_json(),
        "premises": list(map(derivation_to_json, tree.premises)),
    }
