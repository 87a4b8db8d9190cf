"""Exposure: climb declaration upper bounds until the type is not a path.

``expose(g, t)`` rewrites a path-dependent type ``x.A`` to a supertype that
is not a path, by exposing the head variable's stored type and following the
matching declaration's upper bound.  Non-path types expose to themselves.

The head variable's stored type can only mention strictly earlier bindings
(environments are well-formed), so the recursion always terminates.

When the head's stored type exposes to Top, a function type, or a
declaration with a different label, no rewrite applies; the explicit
:class:`Stuck` outcome reports that, and callers treat it as failure of
their own rule's premise.

``exposed_type(g, t)`` computes the same exposed type without building the
derivation, for callers (the declarative search) that keep only the type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .environment import TypeEnv, UnboundVariable
from .syntax import Bot, Decl, Path, Type, print_type
from .trace import DerivationTree, ExposeJ, step_node


@dataclass(frozen=True)
class Exposed:
    """Successful exposure; ``ty`` is never a path."""

    ty: Type
    trace: DerivationTree

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class Stuck:
    """No exposure rule applies to ``path``; ``blocker`` is the exposed type
    of its head variable (Top, a function type, or a mismatched-label
    declaration)."""

    path: Type
    blocker: Type

    def __bool__(self) -> bool:
        return False

    def describe(self) -> str:
        return f"{print_type(self.path)} blocked on {print_type(self.blocker)}"


ExposureResult = Union[Exposed, Stuck]


def expose(g: TypeEnv, t: Type) -> ExposureResult:
    if not isinstance(t, Path):
        return Exposed(t, step_node("X-Other", ExposeJ(g, t, t)))

    stored = g.lookup(t.var)
    if stored is None:
        raise UnboundVariable(f"unbound variable {t.var!r} in {print_type(t)}")

    head = expose(g, stored)
    if isinstance(head, Stuck):
        return head

    match head.ty:
        case Bot():
            return Exposed(Bot(), step_node("X-Bot", ExposeJ(g, t, Bot()), (head.trace,)))
        case Decl(label=label, upper=upper) if label == t.label:
            tail = expose(g, upper)
            if isinstance(tail, Stuck):
                return tail
            return Exposed(tail.ty, step_node("X-Path", ExposeJ(g, t, tail.ty), (head.trace, tail.trace)))
        case _:
            return Stuck(t, head.ty)


def exposed_type(g: TypeEnv, t: Type) -> Optional[Type]:
    """``expose(g, t).ty`` without the trace, or None where ``expose`` is
    stuck; for callers that keep only the exposed type."""
    if not isinstance(t, Path):
        return t
    stored = g.lookup(t.var)
    if stored is None:
        raise UnboundVariable(f"unbound variable {t.var!r} in {print_type(t)}")
    match exposed_type(g, stored):
        case Bot():
            return Bot()
        case Decl(label=label, upper=upper) if label == t.label:
            return exposed_type(g, upper)
    return None
