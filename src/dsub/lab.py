"""Bad-bounds corpus, systematic enumerators, and falsification harnesses.

The corpus centers on a single-binding environment whose declaration bounds
a type member by two function types that differ only in their result's
label; the bounds are related through the member's selection but not
directly, which is what breaks minimal typing.

The harnesses enumerate all types up to a size bound, use the bounded
declarative search as their derivability source, and check the
well-behavedness implications and the no-tag-switch property against every
derivable judgment found.  They are falsification (bug-finding) tests, not
proofs: a clean report only says no counterexample exists within the
explored bounds, while every violation found is genuine and is reported,
never suppressed.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .declarative import (
    DeclSearcher,
    DerivationTree,
    SubJ,
    TypJ,
    decl_verify,
)
from .environment import TypeEnv
from .step import step_subtype, step_type
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
    print_type,
)
from .trace import _Record

# ---------------------------------------------------------------------------
# Corpus constants

DECL_V = Decl("V", Top(), Top())
DECL_Z = Decl("Z", Top(), Top())
FUN_VV = All("b", DECL_V, DECL_V)
FUN_VZ = All("b", DECL_V, DECL_Z)
BAD_BOUNDS_DECL = Decl("E", FUN_VV, FUN_VZ)

PIVOT_VAR = "e"
PIVOT_LABEL = "E"


def bad_bounds_env() -> TypeEnv:
    """The environment ``e: {E: all(b: {V: Top..Top}) {V: Top..Top} ..
    all(b: {V: Top..Top}) {Z: Top..Top}}``."""
    return TypeEnv.empty().extend(PIVOT_VAR, BAD_BOUNDS_DECL)


def minimality_body() -> Term:
    """``let f = lam(b: {V: Top..Top}) b in let b1 = {V = Top} in f b1``,
    the term that is step-typable at exactly one of its two declarative
    types."""
    return Let(
        "f",
        Lam("b", DECL_V, Var("b")),
        Let("b1", Tag("V", Top()), App("f", "b1")),
    )


def fun_bounds_bridge(env: Optional[TypeEnv] = None) -> DerivationTree:
    """Transitivity derivation of ``all(b: V)V <: all(b: V)Z`` routed through
    the member selection; valid in any environment containing the pivot
    binding."""
    g = env if env is not None else bad_bounds_env()
    sel = Path(PIVOT_VAR, PIVOT_LABEL)
    var_e = DerivationTree("Var", TypJ(g, Var(PIVOT_VAR), BAD_BOUNDS_DECL))
    lower_to_sel = DerivationTree("<:-Sel", SubJ(g, FUN_VV, sel), (var_e,))
    sel_to_upper = DerivationTree("Sel-<:", SubJ(g, sel, FUN_VZ), (var_e,))
    return DerivationTree("Trans", SubJ(g, FUN_VV, FUN_VZ), (lower_to_sel, sel_to_upper))


def _body_typing(result_label_wide: bool) -> DerivationTree:
    """Hand-built declarative typing of the minimality body at ``{V: Top..Top}``
    (narrow) or ``{Z: Top..Top}`` (wide, through subsumption on the function)."""
    g = bad_bounds_env()
    target = DECL_Z if result_label_wide else DECL_V
    fun_ty = FUN_VZ if result_label_wide else FUN_VV

    g_f = g.extend("f", FUN_VV)
    g_fb = g_f.extend("b1", DECL_V)

    lam_body = DerivationTree("Var", TypJ(g.extend("b", DECL_V), Var("b"), DECL_V))
    lam_tree = DerivationTree("All-I", TypJ(g, Lam("b", DECL_V, Var("b")), FUN_VV), (lam_body,))

    fun_at = DerivationTree("Var", TypJ(g_fb, Var("f"), FUN_VV))
    if result_label_wide:
        fun_at = DerivationTree(
            "Sub", TypJ(g_fb, Var("f"), FUN_VZ), (fun_at, fun_bounds_bridge(g_fb))
        )
    arg_at = DerivationTree("Var", TypJ(g_fb, Var("b1"), DECL_V))
    app_tree = DerivationTree("All-E", TypJ(g_fb, App("f", "b1"), target), (fun_at, arg_at))

    tag_tree = DerivationTree("Typ-I", TypJ(g_f, Tag("V", Top()), DECL_V))
    inner_let = DerivationTree(
        "Let",
        TypJ(g_f, Let("b1", Tag("V", Top()), App("f", "b1")), target),
        (tag_tree, app_tree),
    )
    return DerivationTree("Let", TypJ(g, minimality_body(), target), (lam_tree, inner_let))


def body_typing_narrow() -> DerivationTree:
    return _body_typing(result_label_wide=False)


def body_typing_wide() -> DerivationTree:
    return _body_typing(result_label_wide=True)


# ---------------------------------------------------------------------------
# Colour predicates


def is_blue(t: Type) -> bool:
    """Blue: the distinguished selection, and every function type."""
    match t:
        case All():
            return True
        case Path(var=v, label=a):
            return v == PIVOT_VAR and a == PIVOT_LABEL
        case _:
            return False


def is_red(t: Type) -> bool:
    """Red: a declaration whose lower bound is Bot or blue and whose upper
    bound is Top or blue.  The declaration's own label is not constrained."""
    match t:
        case Decl(lower=lo, upper=hi):
            lo_ok = isinstance(lo, Bot) or is_blue(lo)
            hi_ok = isinstance(hi, Top) or is_blue(hi)
            return lo_ok and hi_ok
        case _:
            return False


# ---------------------------------------------------------------------------
# Enumerators

# Largest universe size the harnesses take from the command line.  Types of
# this grammar have odd sizes, so 5 and 6 give the same 5,890 types; size 7
# gives 400,305, with some 10^11 searches to run over them.
MAX_SIZE = 5

_BINDER_BASES = ("x", "y", "z")


def _binder_for(scope: tuple) -> str:
    for name in _BINDER_BASES:
        if name not in scope:
            return name
    i = 1
    while True:
        for base in _BINDER_BASES:
            candidate = f"{base}{i}"
            if candidate not in scope:
                return candidate
        i += 1


class Enumerator:
    """Deterministic, alpha-duplicate-free streams of types, terms, and
    well-formed environments over a fixed alphabet.

    Sizes count AST nodes (paths, variables, and applications are leaves).
    Binders are named canonically, so two enumerated values are
    alpha-equivalent only if they are equal.
    """

    def __init__(self, variables: tuple = ("x", "y"), labels: tuple = ("A", "B", "C")):
        self.variables = tuple(variables)
        self.labels = tuple(labels)
        self._type_memo: dict = {}
        self._term_memo: dict = {}

    @staticmethod
    def _binders(cls, size: int, scope: tuple, outer, inner) -> Iterator:
        """Every ``cls(z, s, u)`` of ``size`` nodes, ``z`` the binder for
        ``scope``: ``s`` from ``outer(n, scope)``, ``u`` from ``inner(n,
        scope + (z,))``, smaller ``s`` first."""
        binder = _binder_for(scope)
        for s_size in range(1, size - 1):
            for s in outer(s_size, scope):
                for u in inner(size - 1 - s_size, scope + (binder,)):
                    yield cls(binder, s, u)

    def types_of_size(self, size: int, scope: tuple) -> tuple:
        key = (size, scope)
        if key in self._type_memo:
            return self._type_memo[key]
        out: list = []
        if size == 1:
            out.append(Top())
            out.append(Bot())
            for v in scope:
                for a in self.labels:
                    out.append(Path(v, a))
        elif size >= 3:
            for a in self.labels:
                for lo_size in range(1, size - 1):
                    hi_size = size - 1 - lo_size
                    for lo in self.types_of_size(lo_size, scope):
                        for hi in self.types_of_size(hi_size, scope):
                            out.append(Decl(a, lo, hi))
            out.extend(self._binders(All, size, scope, self.types_of_size, self.types_of_size))
        result = tuple(out)
        self._type_memo[key] = result
        return result

    def types(self, max_size: int, scope: tuple = ()) -> Iterator[Type]:
        for size in range(1, max_size + 1):
            yield from self.types_of_size(size, scope)

    def terms_of_size(self, size: int, scope: tuple) -> tuple:
        key = (size, scope)
        if key in self._term_memo:
            return self._term_memo[key]
        out: list = []
        if size == 1:
            for v in scope:
                out.append(Var(v))
            for f in scope:
                for a in scope:
                    out.append(App(f, a))
        elif size >= 2:
            for a in self.labels:
                for ty in self.types_of_size(size - 1, scope):
                    out.append(Tag(a, ty))
            out.extend(self._binders(Lam, size, scope, self.types_of_size, self.terms_of_size))
            out.extend(self._binders(Let, size, scope, self.terms_of_size, self.terms_of_size))
        result = tuple(out)
        self._term_memo[key] = result
        return result

    def terms(self, max_size: int, scope: tuple = ()) -> Iterator[Term]:
        for size in range(1, max_size + 1):
            yield from self.terms_of_size(size, scope)


# ---------------------------------------------------------------------------
# Harness reports


class Finding(_Record):
    __slots__ = __match_args__ = ("check", "detail")


class HarnessReport(_Record):
    """A harness's count of derivable judgments and its ``violations``, a
    tuple of :class:`Finding` sorted by check and detail."""

    __slots__ = __match_args__ = ("title", "bounds", "derivable_count", "violations")

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [
            f"{self.title} ({self.bounds})",
            "falsification harness: bounded search is the derivability source, "
            "so a clean report is evidence within bounds, not a proof",
            f"derivable judgments exercised: {self.derivable_count}",
            f"implication instances checked: {self.derivable_count}",
            f"violations: {len(self.violations)}",
        ]
        for v in self.violations[:20]:
            lines.append(f"  [{v.check}] {v.detail}")
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)


def _report(title: str, max_size: int, fuel: int, derivable: int, violations: list) -> HarnessReport:
    violations.sort(key=Finding._fields)
    return HarnessReport(title, f"max_size={max_size}, fuel={fuel}", derivable, tuple(violations))


def _lab_universe(max_size: int) -> list:
    enum = Enumerator(variables=(PIVOT_VAR,), labels=(PIVOT_LABEL, "V", "Z"))
    return list(enum.types(max_size, scope=(PIVOT_VAR,)))


def _derivable_pairs(env: TypeEnv, universe: list, fuel: int, searcher: DeclSearcher) -> set:
    derivable = set()
    for i, lhs in enumerate(universe):
        for j, rhs in enumerate(universe):
            if searcher.search(SubJ(env, lhs, rhs), fuel) is not None:
                derivable.add((i, j))
    return derivable


def check_wellbehaved(max_size: int = 4, fuel: int = 6) -> HarnessReport:
    """Check the seven well-behavedness implications for the bad-bounds
    environment over every derivable judgment found within bounds.

    The implications, with ``red``/``blue`` as defined above:

    1. every type assigned to the pivot variable is Top or red
    2. anything derivably above a red type is Top or red
    3. anything derivably below a red type is Bot or red
    4. anything derivably above a blue type is Top or blue
    5. anything derivably below a blue type is Bot or blue
    6. only Bot is derivably below Bot
    7. only Top is derivably above Top
    """
    env = bad_bounds_env()
    universe = _lab_universe(max_size)
    searcher = DeclSearcher()
    violations = []

    def blame(check: str, detail: str) -> None:
        violations.append(Finding(check, detail))

    for t in universe:
        if is_red(t) and is_blue(t):
            blame("colour-disjointness", f"{print_type(t)} is both red and blue")

    derivable = _derivable_pairs(env, universe, fuel, searcher)
    derivable_count = len(derivable)

    for i, j in sorted(derivable):
        lhs, rhs = universe[i], universe[j]
        if is_red(lhs) and not (isinstance(rhs, Top) or is_red(rhs)):
            blame("2-above-red", f"{print_type(lhs)} <: {print_type(rhs)}")
        if is_red(rhs) and not (isinstance(lhs, Bot) or is_red(lhs)):
            blame("3-below-red", f"{print_type(lhs)} <: {print_type(rhs)}")
        if is_blue(lhs) and not (isinstance(rhs, Top) or is_blue(rhs)):
            blame("4-above-blue", f"{print_type(lhs)} <: {print_type(rhs)}")
        if is_blue(rhs) and not (isinstance(lhs, Bot) or is_blue(lhs)):
            blame("5-below-blue", f"{print_type(lhs)} <: {print_type(rhs)}")
        if isinstance(rhs, Bot) and not isinstance(lhs, Bot):
            blame("6-below-bot", f"{print_type(lhs)} <: Bot")
        if isinstance(lhs, Top) and not isinstance(rhs, Top):
            blame("7-above-top", f"Top <: {print_type(rhs)}")

    for t in universe:
        if searcher.search(TypJ(env, Var(PIVOT_VAR), t), fuel) is not None:
            derivable_count += 1
            if not (isinstance(t, Top) or is_red(t)):
                blame("1-pivot-types-red", f"{PIVOT_VAR} : {print_type(t)}")

    return _report("well-behavedness suite", max_size, fuel, derivable_count, violations)


def check_no_tag_switch(max_size: int = 4, fuel: int = 6) -> HarnessReport:
    """Check that below a declaration only Bot and same-label declarations
    are derivable in the bad-bounds environment."""
    env = bad_bounds_env()
    universe = _lab_universe(max_size)
    searcher = DeclSearcher()
    derivable_count = 0
    violations = []

    decl_indices = [j for j, t in enumerate(universe) if isinstance(t, Decl)]
    for j in decl_indices:
        rhs = universe[j]
        for i, lhs in enumerate(universe):
            if searcher.search(SubJ(env, lhs, rhs), fuel) is None:
                continue
            derivable_count += 1
            compliant = isinstance(lhs, Bot) or (isinstance(lhs, Decl) and lhs.label == rhs.label)
            if not compliant:
                violations.append(Finding("tag-switch", f"{print_type(lhs)} <: {print_type(rhs)}"))

    return _report("no-tag-switch suite", max_size, fuel, derivable_count, violations)


# ---------------------------------------------------------------------------
# Minimality counterexample


class MinimalityReport(_Record):
    __slots__ = __match_args__ = (
        "step_result",
        "step_result_ok",
        "narrow_tree_ok",
        "wide_tree_ok",
        "bridge_ok",
        "not_subtype_ok",
    )

    @property
    def ok(self) -> bool:
        """Every check passed: each field after ``step_result``."""
        return all(self._fields()[1:])

    def render(self) -> str:
        def mark(flag: bool) -> str:
            return "ok" if flag else "FAIL"

        return "\n".join(
            [
                "minimal-typing counterexample",
                f"  step typing of the body: {self.step_result} "
                f"[{mark(self.step_result_ok)}]",
                f"  declarative typing at {print_type(DECL_V)}: {mark(self.narrow_tree_ok)}",
                f"  declarative typing at {print_type(DECL_Z)}: {mark(self.wide_tree_ok)}",
                f"  declarative bridge {print_type(FUN_VV)} <: {print_type(FUN_VZ)}: "
                f"{mark(self.bridge_ok)}",
                f"  step subtyping relates the two assigned types: "
                f"{'no [ok]' if self.not_subtype_ok else 'yes [FAIL]'}",
            ]
        )


def run_minimality_counterexample() -> MinimalityReport:
    """Reproduce the minimal-typing counterexample: the body step-types to
    exactly one of its two declaratively valid types, and those two types are
    unrelated by step subtyping."""
    env = bad_bounds_env()
    outcome = step_type(env, minimality_body())
    if outcome:
        step_result, step_result_ok = print_type(outcome.ty), alpha_eq(outcome.ty, DECL_V)
    else:
        step_result, step_result_ok = outcome.describe(), False
    return MinimalityReport(
        step_result,
        step_result_ok,
        bool(decl_verify(body_typing_narrow())),
        bool(decl_verify(body_typing_wide())),
        bool(decl_verify(fun_bounds_bridge())),
        not step_subtype(env, DECL_V, DECL_Z) and not step_subtype(env, DECL_Z, DECL_V),
    )
