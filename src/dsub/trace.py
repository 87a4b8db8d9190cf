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

from dataclasses import dataclass, field
from typing import Union

from .environment import TypeEnv
from .syntax import Term, Type, canon_term, canon_type, fv_term, fv_type, print_term, print_type

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


@dataclass(frozen=True)
class SubJ:
    """``env |- lhs <: rhs``"""

    env: TypeEnv
    lhs: Type
    rhs: Type

    def __post_init__(self) -> None:
        loose = self.env.unbound(fv_type(self.lhs) | fv_type(self.rhs))
        if loose:
            raise ValueError(f"judgment mentions unbound variable(s): {', '.join(sorted(loose))}")

    def key(self) -> str:
        return f"sub[{self.env.key}]{canon_type(self.lhs)}<:{canon_type(self.rhs)}"

    def to_json(self) -> dict:
        return {
            "kind": "sub",
            "env": _env_json(self.env),
            "lhs": print_type(self.lhs),
            "rhs": print_type(self.rhs),
        }


@dataclass(frozen=True)
class TypJ:
    """``env |- term : ty``"""

    env: TypeEnv
    term: Term
    ty: Type

    def __post_init__(self) -> None:
        loose = self.env.unbound(fv_term(self.term) | fv_type(self.ty))
        if loose:
            raise ValueError(f"judgment mentions unbound variable(s): {', '.join(sorted(loose))}")

    def key(self) -> str:
        return f"typ[{self.env.key}]{canon_term(self.term)}:{canon_type(self.ty)}"

    def to_json(self) -> dict:
        return {
            "kind": "typ",
            "env": _env_json(self.env),
            "term": print_term(self.term),
            "type": print_type(self.ty),
        }


@dataclass(frozen=True)
class ExposeJ:
    """``env |- src`` exposes to ``out``; written as ``from``/``to``."""

    env: TypeEnv
    src: Type
    out: Type

    def to_json(self) -> dict:
        return {
            "kind": "expose",
            "env": _env_json(self.env),
            "from": print_type(self.src),
            "to": print_type(self.out),
        }


@dataclass(frozen=True)
class ShiftJ:
    """``env |- src`` promotes (``up``) or demotes away from ``var`` to
    ``out``; written as ``from``/``var``/``to``."""

    env: TypeEnv
    src: Type
    var: str
    out: Type
    up: bool

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


@dataclass(frozen=True)
class DerivationTree:
    rule: str
    conclusion: Union[SubJ, TypJ, ExposeJ, ShiftJ]
    premises: tuple = field(default=())


@dataclass(frozen=True)
class Derived:
    """An algorithmic relation computed ``ty``; ``trace`` derives it.
    Truthy, as objects are by default; :class:`Failed` is falsy."""

    ty: Type
    trace: DerivationTree


@dataclass(frozen=True)
class Failed:
    """No algorithmic rule applies, for ``reason``; ``location`` is the
    dotted path into the term at fault ("" for the root, or no term)."""

    reason: str
    location: str = ""

    def __bool__(self) -> bool:
        return False

    def describe(self) -> str:
        where = self.location or "term"
        return f"{where}: {self.reason}"


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
