"""Step typing and step subtyping: total, syntax-directed decision procedures.

Step subtyping has no transitivity rule; path-dependent types are compared
by exposing their head variable's declaration and recursing into its bounds.
Function types are only related when their parameter types agree up to
alpha-equivalence (the kernel restriction that makes the relation decidable).

Step typing drops subsumption: applications expose the function's type to a
function type (or Bot) and perform a single subtype check against the
parameter type; lets promote the body's type to erase the bound variable.
Both procedures compute at most one type per input.  Step typing answers
:class:`~dsub.trace.Derived` or :class:`~dsub.trace.Failed` with the dotted
location of the subterm at fault; step subtyping computes no type, so it
answers a :class:`SubtypeResult` that holds or not.

``weight`` is the termination measure for subtyping; every recursive
subtyping call re-measures itself in its own environment and asserts it
is strictly lighter than its parent.  A generous depth valve turns any
runaway recursion into a distinct :class:`InternalLimit` error.
"""

from __future__ import annotations

from typing import Optional

from .bounds_shift import promote
from .environment import TypeEnv, UnboundVariable
from .errors import InternalLimit
from .exposure import expose, select
from .syntax import (
    All,
    App,
    Bot,
    Decl,
    Lam,
    Let,
    Path,
    Tag,
    Term,
    Top,
    Type,
    Var,
    alpha_eq,
    fv,
    print_type,
    subst_var,
)
from .trace import DerivationTree, Derived, Failed, SubJ, TypJ, _Record

DEPTH_LIMIT = 10_000


class StepInvariantError(AssertionError):
    """The weight measure failed to decrease strictly (a bug)."""


# ---------------------------------------------------------------------------
# Weight


def weight(g: TypeEnv, t: Type, memo: dict | None = None) -> int:
    """Termination measure: Top/Bot weigh 1; a declaration weighs one more
    than its heavier bound; a path weighs one more than its head's stored
    type measured in the strict prefix; a function type weighs one more than
    its result measured under the extended environment.  A query measures
    each node once per environment: ``memo`` (a fresh one when None) keeps
    the weight under ``(id(g), id(t))`` with both objects, so that no id is
    reused while the entry lives."""
    if memo is None:
        memo = {}
    key = (id(g), id(t))
    entry = memo.get(key)
    if entry is not None:
        return entry[0]
    match t:
        case Top() | Bot():
            w = 1
        case Decl(lower=lo, upper=hi):
            w = 1 + max(weight(g, lo, memo), weight(g, hi, memo))
        case Path(var=x):
            found = g.binding(x)
            if found is None:
                raise UnboundVariable(f"unbound variable {x!r} in {print_type(t)}")
            prefix, stored = found
            w = 1 + weight(prefix, stored, memo)
        case All(param=x, param_type=s, result=u):
            z = g.fresh(x, fv(u) - {x})
            w = 1 + weight(g.extend(z, s), subst_var(u, x, z), memo)
        case _:
            raise TypeError(f"not a type: {t!r}")
    memo[key] = w, g, t
    return w


# ---------------------------------------------------------------------------
# Step subtyping


class SubtypeResult(_Record):
    """Whether step subtyping ``holds``; when it does, ``trace`` derives it."""

    __slots__ = __match_args__ = ("holds", "trace")

    def __bool__(self) -> bool:
        return self.holds


def step_subtype(g: TypeEnv, s: Type, t: Type, memo: dict | None = None) -> SubtypeResult:
    """Decide the step subtype relation; on success the result carries the
    full rule trace.  The root call weighs both sides, so a variable ``g``
    does not bind raises :class:`UnboundVariable` before any rule is tried.

    A subgoal met again within one query is answered from the query's memo
    (a fresh one when ``memo`` is None), keyed by the identities of its
    environment and nodes (hash-consed, so identity is structure), so a
    repeated premise is one shared trace node, and a failing goal builds no
    subtree twice.  The memo keeps the query's weights and exposures too;
    each entry holds the objects whose ids make its key, so no id is reused."""
    trace = _sub(g, s, t, None, 0, {} if memo is None else memo)
    return SubtypeResult(trace is not None, trace)


def _measure_entry(g: TypeEnv, s: Type, t: Type, parent: Optional[int], memo: dict) -> int:
    """Assert the strict weight-sum decrease against the parent call."""
    measure = weight(g, s, memo) + weight(g, t, memo)
    if parent is not None and measure >= parent:
        raise StepInvariantError(
            f"weight did not decrease: {measure} >= {parent} "
            f"at {print_type(s)} <: {print_type(t)}"
        )
    return measure


def _sub(
    g: TypeEnv, s: Type, t: Type, parent: Optional[int], depth: int, memo: dict
) -> Optional[DerivationTree]:
    if depth > DEPTH_LIMIT:
        raise InternalLimit(f"subtype recursion exceeded depth {DEPTH_LIMIT}")
    measure = _measure_entry(g, s, t, parent, memo)  # asserted on every call, memo hits included
    key = (id(g), id(s), id(t))
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = (_sub_rules(g, s, t, measure, depth, memo), g, s, t)
    return entry[0]


def _sub_rules(
    g: TypeEnv, s: Type, t: Type, measure: int, depth: int, memo: dict
) -> Optional[DerivationTree]:
    if isinstance(s, Bot):
        return DerivationTree("S-Bot", SubJ(g, s, t))
    if isinstance(t, Top):
        return DerivationTree("S-Top", SubJ(g, s, t))
    if isinstance(s, Path) and isinstance(t, Path) and s == t:
        return DerivationTree("S-Refl", SubJ(g, s, t))

    if isinstance(s, Decl) and isinstance(t, Decl) and s.label == t.label:
        lower = _sub(g, t.lower, s.lower, measure, depth + 1, memo)
        if lower is not None:
            upper = _sub(g, s.upper, t.upper, measure, depth + 1, memo)
            if upper is not None:
                return DerivationTree("S-Typ-<:-Typ", SubJ(g, s, t), (lower, upper))

    if isinstance(s, All) and isinstance(t, All) and alpha_eq(s.param_type, t.param_type):
        z = g.fresh(s.param, (fv(s.result) - {s.param}) | (fv(t.result) - {t.param}))
        inner_env = g.extend(z, s.param_type)
        lhs_body = subst_var(s.result, s.param, z)
        rhs_body = subst_var(t.result, t.param, z)
        inner = _sub(inner_env, lhs_body, rhs_body, measure, depth + 1, memo)
        if inner is not None:
            return DerivationTree("S-All-<:-All", SubJ(g, s, t), (inner,))

    if isinstance(s, Path):
        found = _path_attempt(g, s, t, left=True, parent=measure, depth=depth, memo=memo)
        if found is not None:
            return found
    if isinstance(t, Path):
        found = _path_attempt(g, s, t, left=False, parent=measure, depth=depth, memo=memo)
        if found is not None:
            return found
    return None


def _path_attempt(
    g: TypeEnv,
    s: Type,
    t: Type,
    left: bool,
    parent: Optional[int],
    depth: int,
    memo: dict,
) -> Optional[DerivationTree]:
    head = select(g, s if left else t, memo)
    if not head:
        return None
    if isinstance(head.ty, Bot):
        rule = "S-<:-Bot" if left else "S-Bot-<:"
        return DerivationTree(rule, SubJ(g, s, t), (head.trace,))
    if left:
        inner = _sub(g, head.ty.upper, t, parent, depth + 1, memo)
        if inner is not None:
            return DerivationTree("S-<:-Sel", SubJ(g, s, t), (head.trace, inner))
    else:
        inner = _sub(g, s, head.ty.lower, parent, depth + 1, memo)
        if inner is not None:
            return DerivationTree("S-Sel-<:", SubJ(g, s, t), (head.trace, inner))
    return None


# ---------------------------------------------------------------------------
# Step typing


def step_type(g: TypeEnv, term: Term) -> Derived | Failed:
    """Compute the unique step type of ``term`` under ``g``, or explain why
    there is none.  The exposures, promotions and subtype checks made on
    the way share one memo."""
    return _typ(g, term, {})


def _typ(g: TypeEnv, term: Term, memo: dict) -> Derived | Failed:
    match term:
        case Var(name=x):
            stored = g.lookup(x)
            if stored is None:
                return Failed(f"unbound variable {x!r}")
            return Derived(stored, DerivationTree("T-Var", TypJ(g, term, stored)))

        case Tag(label=a, alias=ty):
            out_of_scope = g.unbound(fv(ty))
            if out_of_scope:
                return Failed(f"tag type mentions unbound variable(s): {', '.join(sorted(out_of_scope))}")
            result = Decl(a, ty, ty)
            return Derived(result, DerivationTree("T-Typ-I", TypJ(g, term, result)))

        case Lam(param=x, param_type=ty, body=body):
            out_of_scope = g.unbound(fv(ty))
            if out_of_scope:
                return Failed(
                    f"parameter type mentions unbound variable(s): {', '.join(sorted(out_of_scope))}"
                )
            z = g.fresh(x, fv(body) - {x})
            inner = _typ(g.extend(z, ty), subst_var(body, x, z), memo)
            if not inner:
                return _at("body", inner)
            result = All(z, ty, inner.ty)
            return Derived(result, DerivationTree("T-All-I", TypJ(g, term, result), (inner.trace,)))

        case App(fun=f, arg=a):
            fun_typed = _typ(g, Var(f), memo)
            if not fun_typed:
                return _at("fun", fun_typed)
            head = expose(g, fun_typed.ty, memo)
            if not head:
                return Failed(f"function position not exposable ({head.describe()})")
            arg_typed = _typ(g, Var(a), memo)
            if not arg_typed:
                return _at("arg", arg_typed)
            match head.ty:
                case Bot():
                    premises = (fun_typed.trace, head.trace, arg_typed.trace)
                    return Derived(Bot(), DerivationTree("T-App-Bot", TypJ(g, term, Bot()), premises))
                case All(param=z, param_type=s, result=u):
                    check = step_subtype(g, arg_typed.ty, s, memo)
                    if not check.holds:
                        return Failed(
                            f"argument type {print_type(arg_typed.ty)} is not a step subtype "
                            f"of parameter type {print_type(s)}"
                        )
                    result = subst_var(u, z, a)
                    premises = (fun_typed.trace, head.trace, arg_typed.trace, check.trace)
                    return Derived(result, DerivationTree("T-All-E", TypJ(g, term, result), premises))
                case other:
                    return Failed(f"function position has non-function type {print_type(other)}")

        case Let(bound=x, rhs=rhs, body=body):
            rhs_typed = _typ(g, rhs, memo)
            if not rhs_typed:
                return _at("rhs", rhs_typed)
            z = g.fresh(x, fv(body) - {x})
            inner_env = g.extend(z, rhs_typed.ty)
            body_typed = _typ(inner_env, subst_var(body, x, z), memo)
            if not body_typed:
                return _at("body", body_typed)
            promoted = promote(inner_env, body_typed.ty, z, memo)
            if not promoted:
                return Failed(f"let body type not promotable ({promoted.reason})")
            premises = (rhs_typed.trace, body_typed.trace, promoted.trace)
            return Derived(promoted.ty, DerivationTree("T-Let", TypJ(g, term, promoted.ty), premises))
    raise TypeError(f"not a term: {term!r}")


def _at(field_name: str, failed: Failed) -> Failed:
    """The failure of the subterm in ``field_name``, located from its parent."""
    loc = failed.location
    return Failed(failed.reason, f"{field_name}.{loc}" if loc else field_name)


__all__ = [
    "DEPTH_LIMIT",
    "StepInvariantError",
    "SubtypeResult",
    "step_subtype",
    "step_type",
    "weight",
]
