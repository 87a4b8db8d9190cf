"""Promotion and demotion: erase one variable from a type.

``promote(g, t, x)`` rewrites ``t`` to a supertype in which ``x`` no longer
occurs free; ``demote`` does the same toward a subtype.  Selections on the
erased variable are replaced by the matching declaration's upper bound
(promotion) or lower bound (demotion), discovered through exposure; a head
that exposes to Bot promotes to Bot and demotes to Top.  The two relations
are mutually recursive through declaration bounds and function parameters.
Each answers :class:`~dsub.trace.Derived` (the shifted type and its trace),
or :class:`~dsub.trace.Failed` naming the selection whose head is stuck.

Binders equal to the erased variable shield their body and the type is
returned unchanged; this is unreachable for fresh-named inputs but keeps the
functions total on raw parsed input.

Note the asymmetry in the function-type cases: promotion extends the
environment with the demoted parameter type, demotion with the original one.
"""

from __future__ import annotations

from .environment import TypeEnv
from .exposure import select
from .syntax import (
    All,
    Bot,
    Decl,
    Path,
    Top,
    Type,
    fv,
    print_type,
    size,
    subst_var,
)
from .trace import Derived, Failed, ShiftJ, step_node


class ShiftInvariantError(AssertionError):
    """A termination-measure or erasure invariant was violated (a bug)."""


def promote(g: TypeEnv, t: Type, x: str, memo: dict | None = None) -> Derived | Failed:
    """``memo`` is the query's memo for exposure (a fresh one when None)."""
    result = _shift(g, t, x, True, {} if memo is None else memo)
    if result and x in fv(result.ty):
        raise ShiftInvariantError(f"promotion left {x!r} free in {print_type(result.ty)}")
    return result


def demote(g: TypeEnv, t: Type, x: str) -> Derived | Failed:
    result = _shift(g, t, x, False, {})
    if result and x in fv(result.ty):
        raise ShiftInvariantError(f"demotion left {x!r} free in {print_type(result.ty)}")
    return result


def _shift(g: TypeEnv, t: Type, x: str, up: bool, memo: dict, parent: Type | None = None) -> Derived | Failed:
    """Shift ``t``; a component of ``parent`` asserts the structural-size
    termination measure first."""
    if parent is not None and not size(t) < size(parent):
        raise ShiftInvariantError(
            f"size did not decrease: {print_type(t)} inside {print_type(parent)}"
        )
    direction = "promote" if up else "demote"
    match t:
        case Bot():
            return Derived(t, step_node("P-Bot" if up else "D-Bot", ShiftJ(g, t, x, t, up)))
        case Top():
            return Derived(t, step_node("P-Top" if up else "D-Top", ShiftJ(g, t, x, t, up)))
        case Path(var=y):
            if y != x:
                return Derived(t, step_node("P-Var" if up else "D-Var", ShiftJ(g, t, x, t, up)))
            head = select(g, t, memo)
            if not head:
                why = f"head exposes to {print_type(head.blocker)}" if head.path is t else head.describe()
                return Failed(f"cannot {direction} {print_type(t)}: {why}")
            if isinstance(head.ty, Bot):
                out = Bot() if up else Top()
                rule = "P-Up-Bot" if up else "D-Down-Bot"
            else:
                out = head.ty.upper if up else head.ty.lower
                rule = "P-Up" if up else "D-Down"
            return Derived(out, step_node(rule, ShiftJ(g, t, x, out, up), (head.trace,)))
        case Decl(label=label, lower=lo, upper=hi):
            lo_result = _shift(g, lo, x, not up, memo, t)
            if not lo_result:
                return lo_result
            hi_result = _shift(g, hi, x, up, memo, t)
            if not hi_result:
                return hi_result
            out = Decl(label, lo_result.ty, hi_result.ty)
            rule = "P-Decl" if up else "D-Decl"
            return Derived(out, step_node(rule, ShiftJ(g, t, x, out, up), (lo_result.trace, hi_result.trace)))
        case All(param=y, param_type=s, result=u):
            if y == x:
                return Derived(t, step_node("P-Cap" if up else "D-Cap", ShiftJ(g, t, x, t, up)))
            s_result = _shift(g, s, x, not up, memo, t)
            if not s_result:
                return s_result
            z = g.fresh(y, (fv(u) - {y}) | {x})
            # promotion recurses under the demoted parameter type, demotion
            # under the original one
            inner_env = g.extend(z, s_result.ty if up else s)
            u_result = _shift(inner_env, subst_var(u, y, z), x, up, memo, t)
            if not u_result:
                return u_result
            out = All(z, s_result.ty, u_result.ty)
            rule = "P-Lam" if up else "D-Lam"
            return Derived(out, step_node(rule, ShiftJ(g, t, x, out, up), (s_result.trace, u_result.trace)))
    raise TypeError(f"not a type: {t!r}")
