"""Derivation trees, the judgments they conclude, and the outcome of an
algorithmic relation.

A :class:`DerivationTree` node names the applied rule, records the judgment
it establishes and holds the derivations of its premises.  The same node
type carries both kinds of tree:

- step traces: every successful exposure, promotion/demotion,
  step-subtyping and step-typing computation produces one; the step rules
  are the keys of ``dsub.declarative._ELABORATORS``, whose elaborators
  replay the traces as checkable declarative derivations;
- declarative derivations, checked by ``decl_verify`` and found by
  ``decl_search``.

Exposure, promotion/demotion and step typing each compute at most one type.
They answer :class:`Derived` (truthy: the type and its trace) when a rule
applies; promotion/demotion and step typing answer :class:`Failed` (falsy:
why no rule applies, and where in the term) when none does.  Exposure's
failure is its own :class:`~dsub.exposure.Stuck`, whose fields its callers
read.  Judgments, tree nodes and every outcome, ``step.SubtypeResult`` and
``declarative.VerifyResult`` too, share one record base with syntax nodes,
as do the lab's reports and the compiler model's types.

Each judgment form writes its own JSON payload (``kind``, ``env``, then its
fields in surface syntax); :func:`derivation_to_json` is the one tree writer.
"""

from __future__ import annotations

from .environment import TypeEnv
from .syntax import Term, Type, _Frozen, canon, check_sort, fv, print_term, print_type

# ---------------------------------------------------------------------------
# Judgments


def _env_json(env: TypeEnv) -> list:
    return [[x, print_type(t)] for x, t in env]


class _Record(_Frozen):
    """Judgments, tree nodes, outcomes, the lab's reports and the compiler
    model's types.  They equal only records of their own class with equal
    fields, and hash as the tuple of their fields.  They are built from
    every field, in order; a class that checks its fields, gives defaults or
    is built on a hot path has its own ``__init__``, which sets them through
    its ``_setters``."""

    __slots__ = ()

    def __init__(self, *fields):
        setters = self._setters
        if len(fields) != len(setters):
            raise TypeError(f"{type(self).__name__} takes {len(setters)} fields, not {len(fields)}")
        for set_field, value in zip(setters, fields):
            set_field(self, value)

    def __eq__(self, other):
        return type(other) is type(self) and self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())


class SubJ(_Record):
    """``env |- lhs <: rhs``; ``env`` must bind the types' free variables."""

    __slots__ = __match_args__ = ("env", "lhs", "rhs")

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

    __slots__ = __match_args__ = ("env", "term", "ty")

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

    __slots__ = __match_args__ = ("env", "src", "out")

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

    __slots__ = __match_args__ = ("env", "src", "var", "out", "up")

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

    __slots__ = __match_args__ = ("rule", "conclusion", "premises")

    def __init__(self, rule: str, conclusion, premises: tuple = ()):
        set_rule, set_conclusion, set_premises = _TREE
        set_rule(self, rule)
        set_conclusion(self, conclusion)
        set_premises(self, premises)


class Derived(_Record):
    """An algorithmic relation computed ``ty``; ``trace`` derives it.
    Truthy, as objects are by default; :class:`Failed` is falsy."""

    __slots__ = __match_args__ = ("ty", "trace")

    def __init__(self, ty: Type, trace: DerivationTree):
        set_ty, set_trace = _DERIVED
        set_ty(self, ty)
        set_trace(self, trace)


class Failed(_Record):
    """No algorithmic rule applies, for ``reason``; ``location`` is the
    dotted path into the term at fault ("" for the root, or no term)."""

    __slots__ = __match_args__ = ("reason", "location")

    def __init__(self, reason: str, location: str = ""):
        set_reason, set_location = _FAILED
        set_reason(self, reason)
        set_location(self, location)

    def __bool__(self) -> bool:
        return False

    def describe(self) -> str:
        where = self.location or "term"
        return f"{where}: {self.reason}"


_SUBJ, _TYPJ, _EXPOSEJ, _SHIFTJ, _TREE, _DERIVED, _FAILED = (
    cls._setters for cls in (SubJ, TypJ, ExposeJ, ShiftJ, DerivationTree, Derived, Failed)
)


def derivation_to_json(tree: DerivationTree) -> dict:
    return {
        "rule": tree.rule,
        "judgment": tree.conclusion.to_json(),
        "premises": list(map(derivation_to_json, tree.premises)),
    }
