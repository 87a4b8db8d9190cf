"""Exposure: climb declaration upper bounds until the type is not a path.

``expose(g, t)`` rewrites a path-dependent type ``x.A`` to a supertype that
is not a path, by exposing the head variable's stored type and following the
matching declaration's upper bound.  Non-path types expose to themselves.
A query exposes each node once per environment: the outcome, stuck or not,
is kept in the memo the query passes down.

The head variable's stored type can only mention strictly earlier bindings
(environments are well-formed), so the recursion always terminates.

``select(g, x.A)`` is the premise every selection rule shares: exposure's
X-Bot/X-Path, promotion's P-Up/D-Down and step subtyping's selection rules.
It holds when ``x``'s stored type exposes to Bot or to a declaration
labelled ``A``.  When it exposes to Top, a function type, or a declaration
with a different label, no rule applies; the explicit :class:`Stuck`
outcome reports that, and callers treat it as failure of their own rule's
premise.

Both answer :class:`~dsub.trace.Derived` on success.  Their failure is
:class:`Stuck` rather than :class:`~dsub.trace.Failed`, because promotion
and ``dsub expose`` read which path is stuck and what blocks it.
"""

from __future__ import annotations

from .environment import TypeEnv, UnboundVariable
from .syntax import Bot, Decl, Path, Type, print_type
from .trace import DerivationTree, Derived, ExposeJ, _Record


class Stuck(_Record):
    """No exposure rule applies to ``path``; ``blocker`` is the exposed type
    of its head variable (Top, a function type, or a mismatched-label
    declaration)."""

    __slots__ = __match_args__ = ("path", "blocker")

    def __bool__(self) -> bool:
        return False

    def describe(self) -> str:
        return f"{print_type(self.path)} blocked on {print_type(self.blocker)}"


def expose(g: TypeEnv, t: Type, memo: dict | None = None) -> Derived | Stuck:
    """Expose ``t`` in ``g``.  ``memo`` is the query's memo (a fresh one when
    None): its entry under ``("expose", id(g), id(t))`` holds the outcome
    with ``g`` and ``t``, so neither id is reused while the entry lives."""
    if memo is None:
        memo = {}
    key = ("expose", id(g), id(t))
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = _expose(g, t, memo), g, t
    return entry[0]


def _expose(g: TypeEnv, t: Type, memo: dict) -> Derived | Stuck:
    if not isinstance(t, Path):
        return Derived(t, DerivationTree("X-Other", ExposeJ(g, t, t)))
    head = select(g, t, memo)
    if not head:
        return head
    if isinstance(head.ty, Bot):
        return Derived(Bot(), DerivationTree("X-Bot", ExposeJ(g, t, Bot()), (head.trace,)))
    tail = expose(g, head.ty.upper, memo)
    if not tail:
        return tail
    return Derived(tail.ty, DerivationTree("X-Path", ExposeJ(g, t, tail.ty), (head.trace, tail.trace)))


def select(g: TypeEnv, path: Path, memo: dict) -> Derived | Stuck:
    """Expose the stored type of ``path``'s head variable; the result is
    Bot or a declaration with ``path``'s label, or else :class:`Stuck`: the
    head's own when the head is stuck, otherwise on ``path``, blocked on
    what the head exposes to."""
    stored = g.lookup(path.var)
    if stored is None:
        raise UnboundVariable(f"unbound variable {path.var!r} in {print_type(path)}")
    head = expose(g, stored, memo)
    if not head:
        return head
    match head.ty:
        case Bot():
            return head
        case Decl(label=label) if label == path.label:
            return head
    return Stuck(path, head.ty)
