"""The standard declarative rules as an explicit derivation checker, a
fuel-bounded proof search, and an elaborator from algorithmic traces.

The checker (:func:`decl_verify`) validates that every node of a derivation
tree instantiates its rule schema; it is the soundness oracle for the whole
package.  The search (:func:`decl_search`) looks for derivations up to a
depth bound, guessing transitivity/subsumption midpoints from a finite
candidate set; failure to find one is never a refutation.  The elaborator
(:func:`elaborate_step`) replays exposure, promotion/demotion and step
typing/subtyping traces as declarative derivations, inserting the
transitivity and subsumption steps the algorithmic rules fuse away.

Subtyping rules: Top and Bot are axioms; Refl is a general axiom; Trans
supplies its own midpoint through its premises; <:-Sel and Sel-<: relate a
path to the bounds in a typing premise ``x : {A: S..T}``; Typ-<:-Typ relates
same-label declarations contravariantly in the lower bound and covariantly
in the upper; All-<:-All is the full dependent rule (contravariant parameter,
result compared under the narrower parameter type).

Typing rules: Var, Typ-I, All-I, All-E (dependent application), Let (with
the bound variable escaping check), and subsumption (Sub).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from .environment import TypeEnv, env_from_bindings
from .errors import DsubError
from .exposure import expose
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
    canon,
    fv,
    parse_term,
    parse_type,
    size,
    subst_var,
)
from .trace import DerivationTree, ShiftJ, SubJ, TypJ, derivation_to_json

Judgment = SubJ | TypJ


class ElaborationGap(DsubError):
    """A trace node had no declarative mapping (an implementation bug)."""


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    path: str = ""
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# Checker


def decl_verify(tree: DerivationTree) -> VerifyResult:
    """Check that every node instantiates its rule schema; on failure report
    the first offending node (paths index into ``premises``).  A node shared
    by several premises (the search shares memoised subtrees) is checked
    once, so the cost is linear in the distinct nodes."""
    trail: list = []
    message = _verify(tree, trail, set())
    if message is None:
        return VerifyResult(True)
    return VerifyResult(False, "root" + "".join(f".premises[{i}]" for i in reversed(trail)), message)


def _same_env(a: TypeEnv, b: TypeEnv) -> bool:
    return a is b or a.key == b.key


def _extends_by_one(inner: TypeEnv, outer: TypeEnv):
    """Return the extra (var, type) binding if ``inner`` is ``outer`` plus
    exactly one binding, else None."""
    if len(inner) != len(outer) + 1 or not _same_env(inner.parent, outer):
        return None
    return inner.last


def _verify(node: DerivationTree, trail: list, valid: set) -> Optional[str]:
    """The first failure's message, with the premise indices leading to the
    failing node appended to ``trail`` innermost first; None if valid.
    ``valid`` holds the ids of the nodes already found valid."""
    if id(node) in valid:
        return None
    entry = _CHECKERS.get(node.rule)
    if entry is None:
        return f"unknown rule {node.rule!r}"
    form, check = entry
    if not isinstance(node.conclusion, form):
        return f"rule {node.rule} concludes the wrong judgment form"
    message = check(node)
    if message is not None:
        return f"{node.rule}: {message}"
    for i, premise in enumerate(node.premises):
        message = _verify(premise, trail, valid)
        if message is not None:
            trail.append(i)
            return message
    valid.add(id(node))
    return None


def _arity(node: DerivationTree, n: int) -> Optional[str]:
    if len(node.premises) != n:
        return f"expected {n} premise(s), found {len(node.premises)}"
    return None


def _check_top(node: DerivationTree) -> Optional[str]:
    if not isinstance(node.conclusion.rhs, Top):
        return "right-hand side must be Top"
    return _arity(node, 0)


def _check_bot(node: DerivationTree) -> Optional[str]:
    if not isinstance(node.conclusion.lhs, Bot):
        return "left-hand side must be Bot"
    return _arity(node, 0)


def _check_refl(node: DerivationTree) -> Optional[str]:
    if not alpha_eq(node.conclusion.lhs, node.conclusion.rhs):
        return "sides are not alpha-equal"
    return _arity(node, 0)


def _check_trans(node: DerivationTree) -> Optional[str]:
    bad = _arity(node, 2)
    if bad:
        return bad
    left, right = node.premises[0].conclusion, node.premises[1].conclusion
    if not isinstance(left, SubJ) or not isinstance(right, SubJ):
        return "premises must be subtyping judgments"
    c = node.conclusion
    if not (_same_env(left.env, c.env) and _same_env(right.env, c.env)):
        return "premise environments differ from the conclusion's"
    if not alpha_eq(left.lhs, c.lhs):
        return "first premise does not start at the conclusion's left side"
    if not alpha_eq(right.rhs, c.rhs):
        return "second premise does not end at the conclusion's right side"
    if not alpha_eq(left.rhs, right.lhs):
        return "premises do not agree on a midpoint"
    return None


def _sel_typing_premise(node: DerivationTree, path_side: Type) -> Optional[str]:
    premise = node.premises[0].conclusion
    if not isinstance(premise, TypJ):
        return "premise must be a typing judgment"
    if not _same_env(premise.env, node.conclusion.env):
        return "premise environment differs from the conclusion's"
    if not isinstance(path_side, Path):
        return "conclusion does not select on a path"
    if not isinstance(premise.term, Var) or premise.term.name != path_side.var:
        return "premise must type the path's head variable"
    if not isinstance(premise.ty, Decl) or premise.ty.label != path_side.label:
        return "premise must assign a declaration with the path's label"
    return None


def _check_sel(node: DerivationTree) -> Optional[str]:
    # Sel-<: concludes x.A <: T and <:-Sel concludes S <: x.A from x : {A: S..T}
    bad = _arity(node, 1)
    if bad:
        return bad
    c = node.conclusion
    left = node.rule == "Sel-<:"
    bad = _sel_typing_premise(node, c.lhs if left else c.rhs)
    if bad:
        return bad
    decl = node.premises[0].conclusion.ty
    if left and not alpha_eq(decl.upper, c.rhs):
        return "declaration's upper bound differs from the conclusion's right side"
    if not left and not alpha_eq(decl.lower, c.lhs):
        return "declaration's lower bound differs from the conclusion's left side"
    return None


def _check_all_sub(node: DerivationTree) -> Optional[str]:
    bad = _arity(node, 2)
    if bad:
        return bad
    c = node.conclusion
    if not isinstance(c.lhs, All) or not isinstance(c.rhs, All):
        return "both sides must be function types"
    params, bodies = node.premises[0].conclusion, node.premises[1].conclusion
    if not isinstance(params, SubJ) or not isinstance(bodies, SubJ):
        return "premises must be subtyping judgments"
    if not _same_env(params.env, c.env):
        return "parameter premise environment differs from the conclusion's"
    if not (alpha_eq(params.lhs, c.rhs.param_type) and alpha_eq(params.rhs, c.lhs.param_type)):
        return "parameter premise is not the contravariant comparison"
    extra = _extends_by_one(bodies.env, c.env)
    if extra is None:
        return "body premise environment must extend the conclusion's by one binding"
    z, bound = extra
    if not alpha_eq(bound, c.rhs.param_type):
        return "body premise binds the variable at the wrong type"
    if not alpha_eq(bodies.lhs, subst_var(c.lhs.result, c.lhs.param, z)):
        return "body premise left side does not match the conclusion's"
    if not alpha_eq(bodies.rhs, subst_var(c.rhs.result, c.rhs.param, z)):
        return "body premise right side does not match the conclusion's"
    return None


def _check_typ_sub(node: DerivationTree) -> Optional[str]:
    bad = _arity(node, 2)
    if bad:
        return bad
    c = node.conclusion
    if not isinstance(c.lhs, Decl) or not isinstance(c.rhs, Decl) or c.lhs.label != c.rhs.label:
        return "both sides must be declarations with the same label"
    lowers, uppers = node.premises[0].conclusion, node.premises[1].conclusion
    if not isinstance(lowers, SubJ) or not isinstance(uppers, SubJ):
        return "premises must be subtyping judgments"
    if not (_same_env(lowers.env, c.env) and _same_env(uppers.env, c.env)):
        return "premise environments differ from the conclusion's"
    if not (alpha_eq(lowers.lhs, c.rhs.lower) and alpha_eq(lowers.rhs, c.lhs.lower)):
        return "lower-bound premise is not the contravariant comparison"
    if not (alpha_eq(uppers.lhs, c.lhs.upper) and alpha_eq(uppers.rhs, c.rhs.upper)):
        return "upper-bound premise is not the covariant comparison"
    return None


def _check_var(node: DerivationTree) -> Optional[str]:
    c = node.conclusion
    if not isinstance(c.term, Var):
        return "term must be a variable"
    stored = c.env.lookup(c.term.name)
    if stored is None:
        return f"variable {c.term.name!r} is unbound"
    if not alpha_eq(stored, c.ty):
        return "assigned type differs from the environment's"
    return _arity(node, 0)


def _check_typ_i(node: DerivationTree) -> Optional[str]:
    c = node.conclusion
    if not isinstance(c.term, Tag):
        return "term must be a type tag"
    ok = (
        isinstance(c.ty, Decl)
        and c.ty.label == c.term.label
        and alpha_eq(c.ty.lower, c.term.alias)
        and alpha_eq(c.ty.upper, c.term.alias)
    )
    if not ok:
        return "assigned type must be the tag's label bounded by its alias on both sides"
    return _arity(node, 0)


def _check_all_i(node: DerivationTree) -> Optional[str]:
    bad = _arity(node, 1)
    if bad:
        return bad
    c = node.conclusion
    if not isinstance(c.term, Lam):
        return "term must be a lambda"
    if not isinstance(c.ty, All):
        return "assigned type must be a function type"
    if not alpha_eq(c.ty.param_type, c.term.param_type):
        return "function type's parameter differs from the lambda's annotation"
    body = node.premises[0].conclusion
    if not isinstance(body, TypJ):
        return "premise must be a typing judgment"
    extra = _extends_by_one(body.env, c.env)
    if extra is None:
        return "premise environment must extend the conclusion's by one binding"
    z, bound = extra
    if not alpha_eq(bound, c.term.param_type):
        return "premise binds the parameter at the wrong type"
    if not alpha_eq(body.term, subst_var(c.term.body, c.term.param, z)):
        return "premise does not type the lambda's body"
    if not alpha_eq(body.ty, subst_var(c.ty.result, c.ty.param, z)):
        return "premise type does not match the function type's result"
    return None


def _check_all_e(node: DerivationTree) -> Optional[str]:
    bad = _arity(node, 2)
    if bad:
        return bad
    c = node.conclusion
    if not isinstance(c.term, App):
        return "term must be an application"
    fun, arg = node.premises[0].conclusion, node.premises[1].conclusion
    if not isinstance(fun, TypJ) or not isinstance(arg, TypJ):
        return "premises must be typing judgments"
    if not (_same_env(fun.env, c.env) and _same_env(arg.env, c.env)):
        return "premise environments differ from the conclusion's"
    if not isinstance(fun.term, Var) or fun.term.name != c.term.fun:
        return "first premise must type the function variable"
    if not isinstance(arg.term, Var) or arg.term.name != c.term.arg:
        return "second premise must type the argument variable"
    if not isinstance(fun.ty, All):
        return "function premise must assign a function type"
    if not alpha_eq(arg.ty, fun.ty.param_type):
        return "argument type differs from the parameter type"
    expected = subst_var(fun.ty.result, fun.ty.param, c.term.arg)
    if not alpha_eq(c.ty, expected):
        return "assigned type is not the instantiated result type"
    return None


def _check_let(node: DerivationTree) -> Optional[str]:
    bad = _arity(node, 2)
    if bad:
        return bad
    c = node.conclusion
    if not isinstance(c.term, Let):
        return "term must be a let"
    rhs, body = node.premises[0].conclusion, node.premises[1].conclusion
    if not isinstance(rhs, TypJ) or not isinstance(body, TypJ):
        return "premises must be typing judgments"
    if not _same_env(rhs.env, c.env):
        return "right-hand-side premise environment differs from the conclusion's"
    if not alpha_eq(rhs.term, c.term.rhs):
        return "first premise does not type the bound expression"
    extra = _extends_by_one(body.env, c.env)
    if extra is None:
        return "body premise environment must extend the conclusion's by one binding"
    z, bound = extra
    if not alpha_eq(bound, rhs.ty):
        return "body premise binds the variable at a different type"
    if not alpha_eq(body.term, subst_var(c.term.body, c.term.bound, z)):
        return "body premise does not type the let body"
    if z in fv(body.ty):
        return "bound variable escapes in the body's type"
    if not alpha_eq(body.ty, c.ty):
        return "assigned type differs from the body's type"
    return None


def _check_sub(node: DerivationTree) -> Optional[str]:
    bad = _arity(node, 2)
    if bad:
        return bad
    c = node.conclusion
    typing, widening = node.premises[0].conclusion, node.premises[1].conclusion
    if not isinstance(typing, TypJ) or not isinstance(widening, SubJ):
        return "premises must be a typing judgment then a subtyping judgment"
    if not (_same_env(typing.env, c.env) and _same_env(widening.env, c.env)):
        return "premise environments differ from the conclusion's"
    if not alpha_eq(typing.term, c.term):
        return "typing premise is about a different term"
    if not alpha_eq(widening.lhs, typing.ty):
        return "subtyping premise does not start at the premise type"
    if not alpha_eq(widening.rhs, c.ty):
        return "subtyping premise does not end at the assigned type"
    return None


# rule -> (judgment form it concludes, schema checker)
_CHECKERS = {
    "Top": (SubJ, _check_top),
    "Bot": (SubJ, _check_bot),
    "Refl": (SubJ, _check_refl),
    "Trans": (SubJ, _check_trans),
    "<:-Sel": (SubJ, _check_sel),
    "Sel-<:": (SubJ, _check_sel),
    "All-<:-All": (SubJ, _check_all_sub),
    "Typ-<:-Typ": (SubJ, _check_typ_sub),
    "Var": (TypJ, _check_var),
    "Typ-I": (TypJ, _check_typ_i),
    "All-I": (TypJ, _check_all_i),
    "All-E": (TypJ, _check_all_e),
    "Let": (TypJ, _check_let),
    "Sub": (TypJ, _check_sub),
}


# ---------------------------------------------------------------------------
# Bounded search

#: The most fuel a search may be given: the search, the tree it finds and that
#: tree's JSON nest ~2 Python frames per unit, under the default limit of 1000.
MAX_FUEL = 200


def _add_candidate(t: Type, scope: frozenset, seen: dict) -> None:
    if fv(t) <= scope:  # candidates must stay well-scoped in the goal's env
        seen.setdefault(canon(t), t)


def _add_subterms(t: Type, scope: frozenset, seen: dict) -> None:
    _add_candidate(t, scope, seen)
    match t:
        case Decl(lower=lo, upper=hi):
            _add_subterms(lo, scope, seen)
            _add_subterms(hi, scope, seen)
        case All(param_type=s, result=u):
            _add_subterms(s, scope, seen)
            _add_subterms(u, scope, seen)


def _env_candidates(g: TypeEnv, memo: dict) -> dict:
    """The environment's share of every goal's candidates, kept in the
    searcher's ``memo`` under ``("candidates", id(g))`` with ``g``:
    canonical key -> the first type met with it, over the stored types,
    their subterms and each variable's own selection.  It holds every
    in-scope path's exposure too: a path exposes to Bot or to an upper bound
    reached from a stored type through upper bounds alone, never under a
    binder, so a stored subterm."""
    key = ("candidates", id(g))
    entry = memo.get(key)
    if entry is None:
        scope = g.dom()
        share = {}
        for x, t in g:
            _add_subterms(t, scope, share)
            head = expose(g, t, memo)
            if head and isinstance(head.ty, Decl):
                _add_candidate(Path(x, head.ty.label), scope, share)
        entry = memo[key] = share, g
    return entry[0]


def _candidates(g: TypeEnv, own: tuple, memo: dict) -> list:
    """A goal's candidates as (canonical key, type) pairs, ordered by size
    then key: Top, Bot, the subterms of the goal's types ``own`` and the
    environment's share, the first of each alpha class met standing for it.
    A searcher builds each goal's list once per search, and each key travels
    with its type into the premises that take the type as a midpoint."""
    scope = g.dom()
    seen: dict = {}
    for t in (Top(), Bot(), *own):
        _add_subterms(t, scope, seen)
    return sorted({**_env_candidates(g, memo), **seen}.items(), key=lambda kt: (size(kt[1]), kt[0]))


def _tree(proof: tuple, built: dict) -> DerivationTree:
    """The derivation ``proof`` stands for; a proof met again is one node."""
    tree = built.get(id(proof))
    if tree is None:
        rule, form, g, left, right, premises = proof
        premises = tuple(_tree(p, built) for p in premises)
        tree = built[id(proof)] = DerivationTree(rule, form(g, left, right), premises)
    return tree


class DeclSearcher:
    """Fuel-bounded backward search over the declarative rules.

    Midpoints for Trans/Sub (and the unknown bound in the Sel rules) are
    drawn from a finite candidate set: Top, Bot, subterms of the goal's
    types, environment types and their subterms (which include the
    exposures of the paths in that set), and each environment variable's
    own selection when its type exposes to a declaration.

    A goal is ``(kind, env.key, left key, right key)``, from keys cached on
    the nodes, so a lookup joins no key string; candidates carry their keys,
    so Refl and the midpoint skips compare keys in hand and the Trans, Sub,
    Let and All-E premises get their candidate's key with it.  A goal's
    candidate list is built once per search, whatever fuel it is searched
    at, and dropped when the search returns.  Found proofs are memoized per
    (goal, fuel).
    A failure is kept once per goal, at the highest fuel searched, and
    answers every search of it with no more fuel: each rule tries its
    premises in the same order at any fuel, so whatever is found at some
    fuel is found at every higher one.  The failures of the goals that
    differ only in the right key share one row, which is never replaced.  A
    candidate loop whose premises share a row (the Trans premises from the
    left side and the Sub premises, which share their goal's row; the Let
    right-side typings; the All-E function typings) fetches it once and
    answers a recorded failure in place, with no call.

    A proof is ``(rule, judgment form, env, left, right, premise proofs)``.
    Only :meth:`search` builds judgments, one per distinct proof in the tree
    it returns, so each of them still passes its scope check.
    """

    def __init__(self) -> None:
        self._found: dict = {}  # goal + (fuel,) -> the proof found
        self._failed = defaultdict(dict)  # goal[:3] -> {goal[3]: highest fuel that found nothing}
        self._memo: dict = {}  # each root environment's exposures and share of the candidates
        self._root = self._local = None  # the search's environment; the same for those it extends

    def search(self, goal: Judgment, fuel: int) -> Optional[DerivationTree]:
        if fuel <= 0:
            return None
        self._root, self._local = goal.env, {}
        try:
            if isinstance(goal, SubJ):
                proof = self._sub(goal.env, goal.lhs, goal.rhs, fuel)
            else:
                proof = self._typ(goal.env, goal.term, goal.ty, fuel)
        finally:
            self._root = self._local = None
        return None if proof is None else _tree(proof, {})

    def _candidates(self, g: TypeEnv, own: tuple) -> list:
        """A goal's candidates, built once per search: the list is kept in the
        search's memo under ``("goal", id(g), *map(id, own))`` with ``g`` and
        ``own``, so a goal searched again at less fuel reuses it.  An extended
        environment's share lasts one search too."""
        key = ("goal", id(g), *map(id, own))
        entry = self._local.get(key)
        if entry is None:
            memo = self._memo if g is self._root else self._local
            entry = self._local[key] = _candidates(g, own, memo), g, own
        return entry[0]

    def _keep(self, key: tuple, failed: dict, proof: Optional[tuple]) -> Optional[tuple]:
        if proof is None:
            failed[key[3]] = key[4]  # every search made inside this one had less fuel
        else:
            self._found[key] = proof
        return proof

    # -- subtyping goals

    def _sub(
        self, g: TypeEnv, lhs: Type, rhs: Type, fuel: int, lk: Optional[str] = None, rk: Optional[str] = None
    ) -> Optional[tuple]:
        lk, rk = lk or canon(lhs), rk or canon(rhs)
        failed = self._failed["sub", g.key, lk]
        if failed.get(rk, 0) >= fuel:
            return None
        key = ("sub", g.key, lk, rk, fuel)
        return self._found.get(key) or self._keep(key, failed, self._sub_rules(g, lhs, lk, rhs, rk, fuel, failed))

    def _sub_rules(
        self, g: TypeEnv, lhs: Type, lk: str, rhs: Type, rk: str, fuel: int, failed: dict
    ) -> Optional[tuple]:
        """``failed`` is the goal's failure row, which the Trans premises
        from ``lhs`` share."""
        axiom = "Top" if isinstance(rhs, Top) else "Bot" if isinstance(lhs, Bot) else "Refl" if lk == rk else None
        if axiom is not None:
            return (axiom, SubJ, g, lhs, rhs, ())
        fuel -= 1  # every other rule has premises
        if fuel == 0:
            return None

        if isinstance(lhs, Decl) and isinstance(rhs, Decl) and lhs.label == rhs.label:
            lowers = self._sub(g, rhs.lower, lhs.lower, fuel)
            if lowers is not None:
                uppers = self._sub(g, lhs.upper, rhs.upper, fuel)
                if uppers is not None:
                    return ("Typ-<:-Typ", SubJ, g, lhs, rhs, (lowers, uppers))

        if isinstance(lhs, All) and isinstance(rhs, All):
            params = self._sub(g, rhs.param_type, lhs.param_type, fuel)
            if params is not None:
                z = g.fresh(lhs.param, (fv(lhs.result) - {lhs.param}) | (fv(rhs.result) - {rhs.param}))
                left = subst_var(lhs.result, lhs.param, z)
                right = subst_var(rhs.result, rhs.param, z)
                bodies = self._sub(g.extend(z, rhs.param_type), left, right, fuel)
                if bodies is not None:
                    return ("All-<:-All", SubJ, g, lhs, rhs, (params, bodies))

        candidates = self._candidates(g, (lhs, rhs))
        # Sel-<: x.A <: rhs from x : {A: S..rhs}, <:-Sel lhs <: x.A from x : {A: lhs..T}
        for rule, path in (("Sel-<:", lhs), ("<:-Sel", rhs)):
            if isinstance(path, Path):
                x = Var(path.var)
                for _, guess in candidates:
                    bounds = (guess, rhs) if rule == "Sel-<:" else (lhs, guess)
                    premise = self._typ(g, x, Decl(path.label, *bounds), fuel)
                    if premise is not None:
                        return (rule, SubJ, g, lhs, rhs, (premise,))

        for mk, mid in candidates:
            if mk == lk or mk == rk or failed.get(mk, 0) >= fuel:
                continue
            left = self._sub(g, lhs, mid, fuel, lk, mk)
            if left is None:
                continue
            right = self._sub(g, mid, rhs, fuel, mk, rk)
            if right is not None:
                return ("Trans", SubJ, g, lhs, rhs, (left, right))
        return None

    # -- typing goals

    def _typ(self, g: TypeEnv, term: Term, ty: Type, fuel: int, tk: Optional[str] = None) -> Optional[tuple]:
        mk, tk = canon(term), tk or canon(ty)
        failed = self._failed["typ", g.key, mk]
        if failed.get(tk, 0) >= fuel:
            return None
        key = ("typ", g.key, mk, tk, fuel)
        return self._found.get(key) or self._keep(key, failed, self._typ_rules(g, term, ty, tk, fuel, failed))

    def _typ_rules(self, g: TypeEnv, term: Term, ty: Type, tk: str, fuel: int, failed: dict) -> Optional[tuple]:
        """``failed`` is the goal's failure row, which the Sub premises
        typing ``term`` share."""
        match term:
            case Var(name=x):
                stored = g.lookup(x)
                if stored is not None and canon(stored) == tk:
                    return ("Var", TypJ, g, term, ty, ())
            case Tag(label=a, alias=alias):
                if canon(Decl(a, alias, alias)) == tk:
                    return ("Typ-I", TypJ, g, term, ty, ())
        fuel -= 1  # every other rule has premises
        if fuel == 0:
            return None
        candidates = None  # computed by the first rule that guesses a type

        match term:
            case Lam(param=x, param_type=annot, body=body):
                if isinstance(ty, All) and alpha_eq(ty.param_type, annot):
                    z = g.fresh(x, (fv(body) - {x}) | (fv(ty.result) - {ty.param}))
                    inner = subst_var(body, x, z), subst_var(ty.result, ty.param, z)
                    premise = self._typ(g.extend(z, annot), *inner, fuel)
                    if premise is not None:
                        return ("All-I", TypJ, g, term, ty, (premise,))
            case App(fun=f, arg=a):
                candidates = self._candidates(g, (ty,))
                fun = Var(f)
                fun_failed = self._failed["typ", g.key, canon(fun)]
                for fk, fun_ty in candidates:
                    if not isinstance(fun_ty, All):
                        continue
                    if canon(subst_var(fun_ty.result, fun_ty.param, a)) != tk or fun_failed.get(fk, 0) >= fuel:
                        continue
                    fun_premise = self._typ(g, fun, fun_ty, fuel, fk)
                    if fun_premise is None:
                        continue
                    arg_premise = self._typ(g, Var(a), fun_ty.param_type, fuel)
                    if arg_premise is not None:
                        return ("All-E", TypJ, g, term, ty, (fun_premise, arg_premise))
            case Let(bound=x, rhs=rhs, body=body):
                if x not in fv(ty):
                    candidates = self._candidates(g, (ty,))
                    rhs_failed = self._failed["typ", g.key, canon(rhs)]
                    for rk, rhs_ty in candidates:
                        if rhs_failed.get(rk, 0) >= fuel:
                            continue
                        rhs_premise = self._typ(g, rhs, rhs_ty, fuel, rk)
                        if rhs_premise is None:
                            continue
                        z = g.fresh(x, (fv(body) - {x}) | fv(ty))
                        body_premise = self._typ(g.extend(z, rhs_ty), subst_var(body, x, z), ty, fuel)
                        if body_premise is not None:
                            return ("Let", TypJ, g, term, ty, (rhs_premise, body_premise))

        for mk, mid in candidates or self._candidates(g, (ty,)):
            if mk == tk or failed.get(mk, 0) >= fuel:
                continue
            typing = self._typ(g, term, mid, fuel, mk)
            if typing is None:
                continue
            widening = self._sub(g, mid, ty, fuel, mk, tk)
            if widening is not None:
                return ("Sub", TypJ, g, term, ty, (typing, widening))
        return None


def decl_search(goal: Judgment, fuel: int):
    """Find a derivation of ``goal`` within ``fuel`` nesting depth, or None.

    None means "not found with this strategy and budget", never "underivable".
    """
    return DeclSearcher().search(goal, fuel)


# ---------------------------------------------------------------------------
# Elaboration of algorithmic traces


def elaborate_step(node: DerivationTree) -> DerivationTree:
    """Turn a step trace into a declarative derivation.  A step-subtyping or
    step-typing node elaborates to a derivation of its own judgment; an
    exposure of ``src`` to ``out`` to one of ``src <: out``; a promotion to
    one of ``src <: out`` and a demotion to one of ``out <: src``.  Raises
    :class:`ElaborationGap` on a node this function cannot map; that never
    happens for traces produced by this package.

    Each trace node is elaborated once per call, so a node the trace shares
    elaborates to one shared derivation, and each variable is typed at its
    stored type by one Var node per environment.  Every node built is part
    of the result."""
    return _elab(node, {})


def _elab(node: DerivationTree, memo: dict) -> DerivationTree:
    """``node``'s derivation, built once per call.  ``memo`` maps a trace
    node's id to its derivation (the root of the call holds every trace node)
    and ``(environment id, variable)`` to the variable's Var node (which
    holds the environment)."""
    tree = memo.get(id(node))
    if tree is None:
        handler = _ELABORATORS.get(node.rule)
        if handler is None:
            raise ElaborationGap(f"no declarative mapping for trace rule {node.rule!r}")
        tree = memo[id(node)] = handler(node, memo)
    return tree


def _sub_tree(rule: str, g: TypeEnv, lhs: Type, rhs: Type, premises: tuple = ()) -> DerivationTree:
    return DerivationTree(rule, SubJ(g, lhs, rhs), premises)


def _typ_tree(rule: str, g: TypeEnv, term: Term, ty: Type, premises: tuple = ()) -> DerivationTree:
    return DerivationTree(rule, TypJ(g, term, ty), premises)


def _trans(g: TypeEnv, first: DerivationTree, second: DerivationTree) -> DerivationTree:
    return _sub_tree("Trans", g, first.conclusion.lhs, second.conclusion.rhs, (first, second))


def _var_node(g: TypeEnv, x: str, memo: dict, conclusion: Optional[TypJ] = None) -> DerivationTree:
    """The one Var node typing ``x`` at its stored type in ``g``; its
    judgment is ``conclusion`` when one is given."""
    key = (id(g), x)
    tree = memo.get(key)
    if tree is None:
        tree = memo[key] = DerivationTree("Var", conclusion or TypJ(g, Var(x), g.lookup(x)))
    return tree


def _var_at(g: TypeEnv, x: str, ty: Type, memo: dict, widening) -> DerivationTree:
    """x : ty via Var at the stored type, then, when ``ty`` differs from it,
    one subsumption step by ``widening()``, a derivation of stored <: ty."""
    var_node = _var_node(g, x, memo)
    if alpha_eq(var_node.conclusion.ty, ty):
        return var_node
    return _typ_tree("Sub", g, Var(x), ty, (var_node, widening()))


def _bot_bridge(g: TypeEnv, x: str, head: DerivationTree, ty: Type, memo: dict) -> DerivationTree:
    """From ``head``, which exposes ``x``'s stored type to Bot, build
    ``x : ty`` for any type, by widening through Bot."""
    return _var_at(g, x, ty, memo, lambda: _trans(g, _elab(head, memo), _sub_tree("Bot", g, Bot(), ty)))


def _elab_same(rule: str):
    """A step rule that concludes the same judgment as ``rule`` and whose
    premises elaborate, in order, to ``rule``'s premises."""

    def handler(node: DerivationTree, memo: dict) -> DerivationTree:
        return DerivationTree(rule, node.conclusion, tuple(_elab(p, memo) for p in node.premises))

    return handler


def _elab_t_var(node: DerivationTree, memo: dict) -> DerivationTree:
    c = node.conclusion
    return _var_node(c.env, c.term.name, memo, c)


def _elab_identity(node: DerivationTree, memo: dict) -> DerivationTree:
    # X-Other and the shifts that leave the type unchanged
    c = node.conclusion
    return _sub_tree("Refl", c.env, c.src, c.out)


def _select(
    goal: SubJ, left: bool, memo: dict, head: DerivationTree, rest: Optional[DerivationTree] = None
) -> DerivationTree:
    """Derive ``goal``, ``x.A <: other`` by Sel-<: when ``left`` and ``other
    <: x.A`` by <:-Sel otherwise, from ``head``, the exposure of ``x``'s
    stored type.  A head exposing to Bot types ``x``, through Bot, at a
    declaration whose bound is ``other``; any other head at its exposed
    declaration, whose bound ``rest`` relates to ``other`` by Trans when the
    two differ."""
    g = goal.env
    path, other = (goal.lhs, goal.rhs) if left else (goal.rhs, goal.lhs)
    decl = head.conclusion.out
    if isinstance(decl, Bot):
        decl = Decl(path.label, Top(), other) if left else Decl(path.label, other, Top())
        typing = _bot_bridge(g, path.var, head, decl, memo)
    else:
        typing = _var_at(g, path.var, decl, memo, lambda: _elab(head, memo))
    rule, bound = ("Sel-<:", decl.upper) if left else ("<:-Sel", decl.lower)
    if alpha_eq(bound, other):
        return DerivationTree(rule, goal, (typing,))
    if left:
        to_bound = _sub_tree(rule, g, path, bound, (typing,))
        return DerivationTree("Trans", goal, (to_bound, _elab(rest, memo)))  # bound <: other
    from_bound = _sub_tree(rule, g, bound, path, (typing,))
    return DerivationTree("Trans", goal, (_elab(rest, memo), from_bound))  # other <: bound


def _elab_expose_path(node: DerivationTree, memo: dict) -> DerivationTree:
    # X-Bot / X-Path: x.A <: out
    c = node.conclusion
    return _select(SubJ(c.env, c.src, c.out), True, memo, *node.premises)


def _shift_goal(c: ShiftJ) -> SubJ:
    """``src <: out`` for a promotion, ``out <: src`` for a demotion."""
    return SubJ(c.env, c.src, c.out) if c.up else SubJ(c.env, c.out, c.src)


def _elab_shift_path(node: DerivationTree, memo: dict) -> DerivationTree:
    # P-Up / P-Up-Bot and D-Down / D-Down-Bot: x.A to its bound
    return _select(_shift_goal(node.conclusion), node.conclusion.up, memo, *node.premises)


def _elab_shift_congruence(node: DerivationTree, memo: dict) -> DerivationTree:
    # P-Decl / D-Decl and P-Lam / D-Lam: the first premise shifts the lower
    # bound (parameter type) the other way, the second the upper bound
    # (result) this way; they elaborate, in order, to the premises of
    # Typ-<:-Typ / All-<:-All
    rule = "Typ-<:-Typ" if isinstance(node.conclusion.src, Decl) else "All-<:-All"
    return DerivationTree(rule, _shift_goal(node.conclusion), tuple(_elab(p, memo) for p in node.premises))


def _elab_s_all(node: DerivationTree, memo: dict) -> DerivationTree:
    c = node.conclusion
    inner = _elab(node.premises[0], memo)
    # parameter types agree up to alpha in a step trace
    params = _sub_tree("Refl", c.env, c.rhs.param_type, c.lhs.param_type)
    return DerivationTree("All-<:-All", c, (params, inner))


def _elab_s_select(node: DerivationTree, memo: dict) -> DerivationTree:
    # S-<:-Sel / S-<:-Bot: x.A <: U; S-Sel-<: / S-Bot-<:: U <: x.A
    return _select(node.conclusion, node.rule in ("S-<:-Sel", "S-<:-Bot"), memo, *node.premises)


def _elab_t_all_e(node: DerivationTree, memo: dict) -> DerivationTree:
    c = node.conclusion
    g, term = c.env, c.term
    fun_node, head_node, arg_node, sub_node = node.premises
    fun_ty = head_node.conclusion.out
    fun_deriv = _elab(fun_node, memo)
    if not alpha_eq(fun_deriv.conclusion.ty, fun_ty):
        fun_deriv = _typ_tree("Sub", g, Var(term.fun), fun_ty, (fun_deriv, _elab(head_node, memo)))
    arg_deriv = _elab(arg_node, memo)
    param_ty = fun_ty.param_type
    if not alpha_eq(arg_deriv.conclusion.ty, param_ty):
        arg_deriv = _typ_tree("Sub", g, Var(term.arg), param_ty, (arg_deriv, _elab(sub_node, memo)))
    return DerivationTree("All-E", c, (fun_deriv, arg_deriv))


def _elab_t_app_bot(node: DerivationTree, memo: dict) -> DerivationTree:
    c = node.conclusion
    g = c.env
    _, head_node, arg_node = node.premises  # the first types the function at its stored type
    arg_deriv = _elab(arg_node, memo)
    fun_ty = All(g.fresh("z"), arg_deriv.conclusion.ty, Bot())
    fun_at = _bot_bridge(g, c.term.fun, head_node, fun_ty, memo)
    return DerivationTree("All-E", c, (fun_at, arg_deriv))


def _elab_t_let(node: DerivationTree, memo: dict) -> DerivationTree:
    c = node.conclusion
    rhs_node, body_node, promote_node = node.premises
    rhs_deriv = _elab(rhs_node, memo)
    body_deriv = _elab(body_node, memo)
    if not alpha_eq(body_deriv.conclusion.ty, c.ty):
        widening = _elab(promote_node, memo)  # body type <: promoted type
        body = body_node.conclusion
        body_deriv = _typ_tree("Sub", body.env, body.term, c.ty, (body_deriv, widening))
    return DerivationTree("Let", c, (rhs_deriv, body_deriv))


_ELABORATORS = {
    "X-Other": _elab_identity,
    "X-Bot": _elab_expose_path,
    "X-Path": _elab_expose_path,
    "P-Var": _elab_identity,
    "P-Bot": _elab_identity,
    "P-Top": _elab_identity,
    "P-Cap": _elab_identity,
    "D-Var": _elab_identity,
    "D-Bot": _elab_identity,
    "D-Top": _elab_identity,
    "D-Cap": _elab_identity,
    "P-Up": _elab_shift_path,
    "P-Up-Bot": _elab_shift_path,
    "D-Down": _elab_shift_path,
    "D-Down-Bot": _elab_shift_path,
    "P-Decl": _elab_shift_congruence,
    "D-Decl": _elab_shift_congruence,
    "P-Lam": _elab_shift_congruence,
    "D-Lam": _elab_shift_congruence,
    "S-Bot": _elab_same("Bot"),
    "S-Top": _elab_same("Top"),
    "S-Refl": _elab_same("Refl"),
    "S-Typ-<:-Typ": _elab_same("Typ-<:-Typ"),
    "S-All-<:-All": _elab_s_all,
    "S-<:-Sel": _elab_s_select,
    "S-Sel-<:": _elab_s_select,
    "S-<:-Bot": _elab_s_select,
    "S-Bot-<:": _elab_s_select,
    "T-Var": _elab_t_var,
    "T-Typ-I": _elab_same("Typ-I"),
    "T-All-I": _elab_same("All-I"),
    "T-All-E": _elab_t_all_e,
    "T-App-Bot": _elab_t_app_bot,
    "T-Let": _elab_t_let,
}


# ---------------------------------------------------------------------------
# JSON deserialization


def _field(data, key: str, kind: type, where: str):
    """``data[key]``, or a ValueError naming the missing or mistyped part."""
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected a JSON object")
    if key not in data:
        raise ValueError(f"{where}: missing {key!r}")
    if not isinstance(data[key], kind):
        raise ValueError(f"{where}.{key}: expected a {kind.__name__}")
    return data[key]


def judgment_from_json(data: dict, where: str = "judgment") -> Judgment:
    def text(key: str) -> str:
        return _field(data, key, str, where)

    pairs = []
    for i, binding in enumerate(_field(data, "env", list, where)):
        if not (isinstance(binding, list) and len(binding) == 2 and all(isinstance(p, str) for p in binding)):
            raise ValueError(f"{where}.env[{i}]: expected a [variable, type] pair of strings")
        pairs.append((binding[0], parse_type(binding[1])))
    env = env_from_bindings(pairs)
    kind = text("kind")
    if kind == "sub":
        return SubJ(env, parse_type(text("lhs")), parse_type(text("rhs")))
    if kind == "typ":
        return TypJ(env, parse_term(text("term")), parse_type(text("type")))
    raise ValueError(f"unknown judgment kind {kind!r}")


def derivation_from_json(data: dict, where: str = "root") -> DerivationTree:
    """Read a tree written by ``derivation_to_json``; a ValueError names the
    first missing or mistyped part (paths index into ``premises``)."""
    rule = _field(data, "rule", str, where)
    if rule not in _CHECKERS:
        raise ValueError(f"unknown rule {rule!r}")
    judgment = judgment_from_json(_field(data, "judgment", dict, where), f"{where}.judgment")
    premises = _field(data, "premises", list, where) if "premises" in data else ()
    return DerivationTree(
        rule,
        judgment,
        tuple(derivation_from_json(p, f"{where}.premises[{i}]") for i, p in enumerate(premises)),
    )
