import copy
import hashlib
import importlib
import json
import pickle
import pkgutil
import random
import time
from collections import Counter
from pathlib import Path as FsPath

import pytest

import dsub
from dsub import declarative
from dsub.declarative import (
    DeclSearcher,
    DerivationTree,
    SubJ,
    TypJ,
    VerifyResult,
    decl_search,
    decl_verify,
    derivation_from_json,
    derivation_to_json,
    elaborate_step,
)
from dsub.bounds_shift import demote, promote
from dsub.cli import _decide_case
from dsub.environment import TypeEnv, env_from_bindings, parse_env
from dsub.dotty import INT, STRING, Base, Bounds, BoundsUniverse, Fun, Member, SubStats
from dsub.errors import DsubError
from dsub.exposure import Stuck, expose
from dsub.lab import (
    BAD_BOUNDS_DECL,
    DECL_V,
    FUN_VV,
    FUN_VZ,
    Enumerator,
    Finding,
    HarnessReport,
    MinimalityReport,
    bad_bounds_env,
    body_typing_narrow,
    body_typing_wide,
    fun_bounds_bridge,
    _lab_universe,
)
from dsub.step import SubtypeResult, step_subtype, step_type
from dsub.syntax import (
    All,
    Bot,
    Decl,
    Lam,
    Path,
    Tag,
    Top,
    Var,
    alpha_eq,
    canon,
    fv,
    parse_term,
    parse_type,
    size,
    subst_var,
)
from dsub.trace import Derived, ExposeJ, Failed, ShiftJ, _Record

EMPTY = TypeEnv.empty()


def _env(*pairs):
    return env_from_bindings(pairs)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: EMPTY.extend("x", Var("y")), "not a type: Var(name='y')"),
        (lambda: SubJ(EMPTY, Var("y"), Top()), "not a type: Var(name='y')"),
        (lambda: TypJ(EMPTY, Top(), Top()), "not a term: Top()"),
        (lambda: TypJ(EMPTY, Var("y"), Var("y")), "not a type: Var(name='y')"),
    ],
)
def test_bindings_and_judgments_refuse_nodes_of_the_wrong_sort(build, message):
    with pytest.raises(TypeError) as exc:
        build()
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# decl_verify


def test_verify_top_axiom():
    assert decl_verify(DerivationTree("Top", SubJ(EMPTY, Bot(), Top()))).ok


def test_verify_rejects_misapplied_axiom():
    result = decl_verify(DerivationTree("Top", SubJ(EMPTY, Top(), Bot())))
    assert not result.ok
    assert result.path == "root"


def test_verify_rejects_unknown_rule():
    tree = DerivationTree("Guess", SubJ(EMPTY, Bot(), Top()))
    assert not decl_verify(tree).ok


def test_verify_bridge_through_member():
    assert decl_verify(fun_bounds_bridge()).ok


def test_verify_locates_broken_premise():
    g = bad_bounds_env()
    var_e = DerivationTree("Var", TypJ(g, Var("e"), BAD_BOUNDS_DECL))
    good = DerivationTree("<:-Sel", SubJ(g, FUN_VV, Path("e", "E")), (var_e,))
    bad_inner = DerivationTree("Sel-<:", SubJ(g, Path("e", "E"), FUN_VV), (var_e,))
    tree = DerivationTree("Trans", SubJ(g, FUN_VV, FUN_VV), (good, bad_inner))
    result = decl_verify(tree)
    assert not result.ok
    assert result.path == "root.premises[1]"


def _shared_trans_tower(base: DerivationTree, height: int) -> DerivationTree:
    # Top <: Top by Trans through Top, both premises one shared object: a
    # DAG with height + 1 distinct nodes and 2 ** height root-to-leaf paths
    tree = base
    for _ in range(height):
        tree = DerivationTree("Trans", SubJ(EMPTY, Top(), Top()), (tree, tree))
    return tree


def test_verify_checks_each_shared_node_once():
    tree = _shared_trans_tower(DerivationTree("Top", SubJ(EMPTY, Top(), Top())), 40)
    start = time.perf_counter()
    assert decl_verify(tree).ok
    assert time.perf_counter() - start < 1.0


def test_verify_reports_a_broken_shared_node_at_its_first_path():
    tree = _shared_trans_tower(DerivationTree("Bot", SubJ(EMPTY, Top(), Top())), 40)
    result = decl_verify(tree)
    assert not result.ok and "left-hand side must be Bot" in result.message
    assert result.path == "root" + ".premises[0]" * 40


def test_verify_trans_midpoint_must_agree():
    top1 = DerivationTree("Top", SubJ(EMPTY, Bot(), Top()))
    bot1 = DerivationTree("Bot", SubJ(EMPTY, Bot(), Bot()))
    tree = DerivationTree("Trans", SubJ(EMPTY, Bot(), Bot()), (top1, bot1))
    result = decl_verify(tree)
    assert not result.ok and "midpoint" in result.message


def test_verify_var_requires_matching_type():
    g = _env(("x", Top()))
    assert decl_verify(DerivationTree("Var", TypJ(g, Var("x"), Top()))).ok
    assert not decl_verify(DerivationTree("Var", TypJ(g, Var("x"), Bot()))).ok


def test_verify_typ_i():
    tree = DerivationTree("Typ-I", TypJ(EMPTY, Tag("A", Top()), Decl("A", Top(), Top())))
    assert decl_verify(tree).ok
    bad = DerivationTree("Typ-I", TypJ(EMPTY, Tag("A", Top()), Decl("A", Bot(), Top())))
    assert not decl_verify(bad).ok


def test_verify_all_i_alpha_insensitive():
    lam = Lam("x", Top(), Var("x"))
    inner = DerivationTree("Var", TypJ(_env(("q", Top())), Var("q"), Top()))
    tree = DerivationTree("All-I", TypJ(EMPTY, lam, All("y", Top(), Top())), (inner,))
    assert decl_verify(tree).ok


def test_verify_let():
    # the bound variable's non-escape condition is subsumed by judgment
    # scoping: an escaping type could not appear in a well-scoped conclusion
    g = EMPTY
    rhs = DerivationTree("Typ-I", TypJ(g, Tag("A", Top()), Decl("A", Top(), Top())))
    g_x = g.extend("x", Decl("A", Top(), Top()))
    body = DerivationTree("Var", TypJ(g_x, Var("x"), Decl("A", Top(), Top())))
    term = parse_term("let x = {A = Top} in x")
    tree = DerivationTree("Let", TypJ(g, term, Decl("A", Top(), Top())), (rhs, body))
    assert decl_verify(tree).ok
    # binding the variable at a type other than the right-hand side's fails
    body_wrong = DerivationTree("Var", TypJ(g.extend("x", Top()), Var("x"), Top()))
    tree_wrong = DerivationTree("Let", TypJ(g, term, Top()), (rhs, body_wrong))
    assert not decl_verify(tree_wrong).ok


def test_verify_full_all_rule_contravariance():
    g = EMPTY
    lhs = All("x", Top(), Top())
    rhs = All("x", Bot(), Top())
    params = DerivationTree("Bot", SubJ(g, Bot(), Top()))
    bodies = DerivationTree("Top", SubJ(g.extend("x", Bot()), Top(), Top()))
    tree = DerivationTree("All-<:-All", SubJ(g, lhs, rhs), (params, bodies))
    assert decl_verify(tree).ok
    # body premise must live under the narrower (right) parameter type
    bodies_wrong = DerivationTree("Top", SubJ(g.extend("x", Top()), Top(), Top()))
    tree_wrong = DerivationTree("All-<:-All", SubJ(g, lhs, rhs), (params, bodies_wrong))
    assert not decl_verify(tree_wrong).ok


# Environment agreement: a premise that shares its conclusion's environment
# must have the same variables, in order, at alpha-equivalent types.

SEL_DECL = Decl("A", Bot(), Top())
FUN_YA = All("y", Top(), Path("y", "A"))
AGREE_ENV = _env(("x", SEL_DECL), ("u", FUN_YA))
PREMISE_ENVS = {
    "same": AGREE_ENV,
    "alpha-variant type": _env(("x", SEL_DECL), ("u", All("w", Top(), Path("w", "A")))),
    "renamed variable": _env(("x", SEL_DECL), ("v", FUN_YA)),
    "changed type": _env(("x", SEL_DECL), ("u", Top())),
    "added binding": _env(("x", SEL_DECL), ("u", FUN_YA), ("v", Top())),
}
TAG_A = Tag("A", Top())
DECL_A = Decl("A", Top(), Top())


def _trans_with_first_premise_in(env):
    first = DerivationTree("Top", SubJ(env, Bot(), Top()))
    second = DerivationTree("Top", SubJ(AGREE_ENV, Top(), Top()))
    return DerivationTree("Trans", SubJ(AGREE_ENV, Bot(), Top()), (first, second))


def _sub_with_typing_premise_in(env):
    typing = DerivationTree("Typ-I", TypJ(env, TAG_A, DECL_A))
    widening = DerivationTree("Top", SubJ(AGREE_ENV, DECL_A, Top()))
    return DerivationTree("Sub", TypJ(AGREE_ENV, TAG_A, Top()), (typing, widening))


def _sel_with_premise_in(env):
    typing = DerivationTree("Var", TypJ(env, Var("x"), SEL_DECL))
    return DerivationTree("<:-Sel", SubJ(AGREE_ENV, Bot(), Path("x", "A")), (typing,))


@pytest.mark.parametrize("variant", PREMISE_ENVS)
@pytest.mark.parametrize(
    "build", (_trans_with_first_premise_in, _sub_with_typing_premise_in, _sel_with_premise_in)
)
def test_verify_premise_environment_must_agree(build, variant):
    result = decl_verify(build(PREMISE_ENVS[variant]))
    if variant in ("same", "alpha-variant type"):
        assert result.ok, result.message
    else:
        assert (result.ok, result.path) == (False, "root")
        assert "environment" in result.message


# ``Top <: Bot`` through ``b.A``: the conclusion binds one variable named
# "b:{A:T..B};c", the premises bind b and c; both environments once rendered
# the key "b:{A:T..B};c:T"
_PREMISE_ENV = [["b", "{A: Top .. Bot}"], ["c", "Top"]]
_B_AT_DECL = {
    "rule": "Var",
    "judgment": {"kind": "typ", "env": _PREMISE_ENV, "term": "b", "type": "{A: Top .. Bot}"},
}
KEY_COLLISION = {
    "rule": "Trans",
    "judgment": {"kind": "sub", "env": [["b:{A:T..B};c", "Top"]], "lhs": "Top", "rhs": "Bot"},
    "premises": [
        {
            "rule": "<:-Sel",
            "judgment": {"kind": "sub", "env": _PREMISE_ENV, "lhs": "Top", "rhs": "b.A"},
            "premises": [_B_AT_DECL],
        },
        {
            "rule": "Sel-<:",
            "judgment": {"kind": "sub", "env": _PREMISE_ENV, "lhs": "b.A", "rhs": "Bot"},
            "premises": [_B_AT_DECL],
        },
    ],
}


def test_verify_never_accepts_premise_environments_that_only_print_alike():
    try:
        result = decl_verify(derivation_from_json(KEY_COLLISION))
    except DsubError as exc:  # the name is refused when the tree is read
        assert "not a variable name" in str(exc)
    else:
        assert not result.ok


def _all_i_with_body_in(env):
    lam = Lam("z", Top(), TAG_A)
    body = DerivationTree("Typ-I", TypJ(env, TAG_A, DECL_A))
    return DerivationTree("All-I", TypJ(AGREE_ENV, lam, All("z", Top(), DECL_A)), (body,))


def _let_with_body_in(env):
    term = parse_term("let z = {A = Top} in {A = Top}")
    rhs = DerivationTree("Typ-I", TypJ(AGREE_ENV, TAG_A, DECL_A))
    body = DerivationTree("Typ-I", TypJ(env, TAG_A, DECL_A))
    return DerivationTree("Let", TypJ(AGREE_ENV, term, DECL_A), (rhs, body))


@pytest.mark.parametrize(
    "build, bound", ((_all_i_with_body_in, Top()), (_let_with_body_in, DECL_A)), ids=("All-I", "Let")
)
def test_verify_body_environment_extends_by_one(build, bound):
    alpha_prefix = PREMISE_ENVS["alpha-variant type"]
    assert decl_verify(build(AGREE_ENV.extend("z", bound))).ok
    assert decl_verify(build(alpha_prefix.extend("z", bound))).ok
    rejected = {
        "zero": AGREE_ENV,
        "two": AGREE_ENV.extend("z", bound).extend("v", Top()),
        "renamed prefix": PREMISE_ENVS["renamed variable"].extend("z", bound),
        "changed prefix": PREMISE_ENVS["changed type"].extend("z", bound),
    }
    for name, env in rejected.items():
        result = decl_verify(build(env))
        assert (result.ok, result.path) == (False, "root"), name
        assert "extend" in result.message, name


# ---------------------------------------------------------------------------
# decl_search


def test_search_axioms_at_fuel_one():
    tree = decl_search(SubJ(EMPTY, Bot(), Top()), 1)
    assert tree is not None and tree.rule == "Top"
    assert decl_verify(tree).ok


def test_search_finds_bridge_within_fuel_six():
    tree = decl_search(SubJ(bad_bounds_env(), FUN_VV, FUN_VZ), 6)
    assert tree is not None
    assert decl_verify(tree).ok
    assert tree.rule == "Trans"


def test_search_top_below_bot_unknown():
    assert decl_search(SubJ(EMPTY, Top(), Bot()), 8) is None


def test_search_typing_by_variable():
    g = bad_bounds_env()
    tree = decl_search(TypJ(g, Var("e"), BAD_BOUNDS_DECL), 3)
    assert tree is not None and tree.rule == "Var"


def test_search_monotone_in_fuel():
    goals = [
        SubJ(bad_bounds_env(), FUN_VV, FUN_VZ),
        SubJ(EMPTY, Bot(), Top()),
        SubJ(bad_bounds_env(), DECL_V, DECL_V),
        TypJ(bad_bounds_env(), Var("e"), BAD_BOUNDS_DECL),
    ]
    for goal in goals:
        found_at = None
        for fuel in range(1, 10):
            tree = decl_search(goal, fuel)
            if tree is not None:
                found_at = found_at or fuel
                assert decl_verify(tree).ok
            if found_at is not None:
                assert tree is not None, f"lost at fuel {fuel} after finding at {found_at}"


def test_search_results_always_verify():
    g = _env(("x", Decl("A", Bot(), Top())))
    enum = Enumerator(labels=("A", "B"))
    searcher = DeclSearcher()
    found = 0
    for s in enum.types(3, ("x",)):
        for t in enum.types(3, ("x",)):
            tree = searcher.search(SubJ(g, s, t), 4)
            if tree is not None:
                found += 1
                verdict = decl_verify(tree)
                assert verdict.ok, f"{verdict.path}: {verdict.message}"
    assert found > 100


def _count_judgments(monkeypatch) -> list:
    """Patch both judgment forms to count their constructions."""
    built = []
    for form in (SubJ, TypJ):
        init = form.__init__

        def counting(self, *fields, init=init):
            init(self, *fields)
            built.append(self)

        monkeypatch.setattr(form, "__init__", counting)
    return built


def _distinct_nodes(tree, seen=None) -> dict:
    seen = {} if seen is None else seen
    if id(tree) not in seen:
        seen[id(tree)] = tree
        for premise in tree.premises:
            _distinct_nodes(premise, seen)
    return seen


def test_search_builds_judgments_only_for_the_tree_it_returns(monkeypatch):
    # the search recurses over keys and builds a judgment only for a node
    # of the tree it hands back: none when it finds nothing
    failing = SubJ(bad_bounds_env(), Top(), Bot())
    found = SubJ(bad_bounds_env(), FUN_VV, FUN_VZ)
    built = _count_judgments(monkeypatch)
    assert DeclSearcher().search(failing, 6) is None
    assert built == []
    tree = DeclSearcher().search(found, 6)
    nodes = _distinct_nodes(tree)
    assert tree is not None and len(nodes) > 1
    assert 0 < len(built) <= len(nodes)
    assert {id(j) for j in built} <= {id(node.conclusion) for node in nodes.values()}


def test_search_deterministic():
    goal = SubJ(bad_bounds_env(), FUN_VV, FUN_VZ)
    a = decl_search(goal, 6)
    b = decl_search(goal, 6)
    assert a == b


def _subterms(t):
    yield t
    if isinstance(t, Decl):
        yield from _subterms(t.lower)
        yield from _subterms(t.upper)
    elif isinstance(t, All):
        yield from _subterms(t.param_type)
        yield from _subterms(t.result)


def _reference_candidates(goal):
    """The candidate set as built before the environment's share was kept:
    every call walks the environment again and exposes every path."""
    scope = goal.env.dom()
    seen = {}

    def add(t):
        if fv(t) - scope:
            return
        seen.setdefault(canon(t), t)

    add(Top())
    add(Bot())
    for t in (goal.lhs, goal.rhs) if isinstance(goal, SubJ) else (goal.ty,):
        for u in _subterms(t):
            add(u)
    for x, stored in goal.env:
        for u in _subterms(stored):
            add(u)
        head = expose(goal.env, stored)
        if head and isinstance(head.ty, Decl):
            add(Path(x, head.ty.label))
    for t in list(seen.values()):
        if isinstance(t, Path):
            exposed = expose(goal.env, t)
            if exposed:
                add(exposed.ty)
    return tuple(sorted(seen.values(), key=lambda t: (size(t), canon(t))))


def _all_sub_all_extension():
    # the body premise's environment, as All-<:-All opens it for two
    # function types over x.A, under x : {A: Bot .. {B: Top .. Top}}
    g = _env(("x", Decl("A", Bot(), Decl("B", Top(), Top()))))
    lhs, rhs = All("y", Path("x", "A"), Path("y", "B")), All("y", Path("x", "A"), Top())
    z = g.fresh(lhs.param, (fv(lhs.result) - {lhs.param}) | (fv(rhs.result) - {rhs.param}))
    return g.extend(z, rhs.param_type)


@pytest.mark.parametrize(
    "env",
    [EMPTY, _env(("x", Decl("A", Bot(), Top()))), bad_bounds_env(), _all_sub_all_extension()],
    ids=["empty", "x-decl", "bad-bounds", "all-sub-all-extension"],
)
def test_candidates_match_the_reference(env):
    # goals over the environment's variables, plus closed types whose
    # binders may reuse a bound name, so that alpha-equivalent candidates
    # meet and the first of each class must stay the one kept
    scope = tuple(x for x, _ in env)
    labels = tuple(sorted({"A", "B", "V"} | {t.label for _, t in env if isinstance(t, Decl)}))
    enum = Enumerator(variables=scope, labels=labels)
    stored = [u for _, t in env for u in _subterms(t)]
    renamed = [
        All(f"{u.param}1", u.param_type, subst_var(u.result, u.param, f"{u.param}1"))
        for u in stored
        if isinstance(u, All)
    ]
    types = list(dict.fromkeys([*enum.types(3, scope), *enum.types(3), *stored, *renamed]))
    goals = [SubJ(env, s, t) for s in types for t in types[::7]]
    goals += [TypJ(env, Tag("A", Top()), t) for t in types]
    memo = {}  # shared by the goals, as a searcher shares its memo
    for goal in goals:
        own = (goal.lhs, goal.rhs) if isinstance(goal, SubJ) else (goal.ty,)
        got, want = declarative._candidates(goal.env, own, memo), _reference_candidates(goal)
        assert len(got) == len(want) and all(a is b for (_, a), b in zip(got, want)), goal
        assert all(key == canon(t) for key, t in got), goal


def test_shared_searcher_answers_as_fresh_ones():
    # one searcher visits every goal at fuel 6, then 5, then 4, so that its
    # failures at higher fuel answer the lower; another visits them at 4, 5
    # and 6, so that nothing found with less fuel may stand for a search
    # with more.  Each answer must be the tree a fresh search at that fuel
    # finds.
    env = bad_bounds_env()
    universe = list(Enumerator(variables=("e",), labels=("E", "V", "Z")).types(4, ("e",)))
    decls = [t for t in universe if isinstance(t, Decl)]
    goals = [SubJ(env, s, t) for s in universe for t in universe][::600]
    goals += [SubJ(env, s, t) for s in decls for t in decls if s.label == t.label][::20]
    # the few lab goals first found at fuel 5, or found as another tree at 6
    pivot = Path("e", "E")
    for t in universe:
        if isinstance(t, All) and Bot() in (t.param_type, t.result):
            goals += [SubJ(env, pivot, t), SubJ(env, t, pivot)]
    fresh = {}
    for fuel in (6, 5, 4):
        for goal in goals:
            tree = decl_search(goal, fuel)
            fresh[goal, fuel] = tree and derivation_to_json(tree)
    assert sum(tree is not None for tree in fresh.values()) > 100
    for fuels in ((6, 5, 4), (4, 5, 6)):
        searcher = DeclSearcher()
        for fuel in fuels:
            for goal in goals:
                tree = searcher.search(goal, fuel)
                assert (tree and derivation_to_json(tree)) == fresh[goal, fuel], (goal, fuel, fuels)


def test_shared_searcher_keeps_only_its_goal_environments_memo():
    # over a sweep in one environment the searcher keeps that environment's
    # exposures and share of the candidates; what a search computes in an
    # environment it extends (All-<:-All) goes when that search returns
    env = bad_bounds_env()
    universe = list(Enumerator(variables=("e",), labels=("E", "V", "Z")).types(3, ("e",)))
    searcher = DeclSearcher()
    for s in universe:
        for t in universe:
            searcher.search(SubJ(env, s, t), 4)
    prefixes, g = set(), env
    while g is not None:
        prefixes.add(id(g))
        g = g.parent
    assert searcher._memo and {key[1] for key in searcher._memo} <= prefixes


def test_each_goal_gets_its_candidates_built_once_per_search(monkeypatch):
    # a searcher builds a goal's list once per search, whatever fuel the goal
    # is searched at: every list a rule gets is one this search built, with
    # the nodes a fresh build has, in its order; no (environment, own types)
    # is built twice in a search; and no list outlives its search
    build, rules_get = declarative._candidates, DeclSearcher._candidates
    builds = []  # this search's (environment, own types, list), which keeps their ids unique

    def counted(g, own, memo):
        out = build(g, own, memo)
        builds.append((g, own, out))
        return out

    def checked(self, g, own):
        out = rules_get(self, g, own)
        assert any(out is built for _, _, built in builds)
        fresh = build(g, own, {})
        assert len(out) == len(fresh) and all(a is b for (_, a), (_, b) in zip(out, fresh))
        return out

    monkeypatch.setattr(declarative, "_candidates", counted)
    monkeypatch.setattr(DeclSearcher, "_candidates", checked)
    searcher = DeclSearcher()

    def search(goal):
        builds.clear()
        searcher.search(goal, 5)
        built = [(id(g), *map(id, own)) for g, own, _ in builds]
        assert len(set(built)) == len(built), goal
        assert searcher._local is None and not any(key[0] == "goal" for key in searcher._memo)
        return len(built)

    env = bad_bounds_env()
    universe = list(Enumerator(variables=("e",), labels=("E", "V", "Z")).types(3, ("e",)))
    total = sum(search(SubJ(env, s, t)) for s in universe for t in universe)
    g = _env(("x", Decl("A", Bot(), Top())), ("y", Decl("B", Path("x", "A"), Path("x", "A"))))
    enum = Enumerator(variables=("x", "y"), labels=("A", "B"))
    types, terms = list(enum.types(3, ("x", "y"))), list(enum.terms(3, ("x", "y")))
    total += sum(search(SubJ(g, s, t)) for s in types[::3] for t in types[::5])
    total += sum(search(TypJ(g, m, t)) for m in terms for t in types[::4])
    assert total > 1000


def _pinned_goals() -> tuple:
    """The (3, 5) bad-bounds sweep, as ``dsub lab tags`` searches it, and
    seeded subtyping and typing goals over the empty, a two-variable and
    the bad-bounds environments at fuel 4 to 6, with every term shape."""
    env = bad_bounds_env()
    universe = list(Enumerator(variables=("e",), labels=("E", "V", "Z")).types(3, ("e",)))
    sweep = [(SubJ(env, s, t), 5) for s in universe for t in universe]
    two = _env(("x", Decl("A", Bot(), Top())), ("y", Decl("B", Path("x", "A"), Path("x", "A"))))
    rng = random.Random(1)
    seeded = []
    for g, labels in ((EMPTY, ("A", "B")), (two, ("A", "B")), (env, ("E", "V", "Z"))):
        scope = tuple(x for x, _ in g)
        enum = Enumerator(variables=scope, labels=labels)
        types, shapes = list(enum.types(3, scope)), {}
        for m in enum.terms(3, scope):
            shapes.setdefault(type(m).__name__, []).append(m)
        for fuel in (4, 5, 6):
            seeded += [(SubJ(g, rng.choice(types), rng.choice(types)), fuel) for _ in range(6)]
            for shape in sorted(shapes):
                seeded += [(TypJ(g, rng.choice(shapes[shape]), rng.choice(types)), fuel) for _ in range(3)]
    return sweep, seeded


def test_search_answers_and_work_are_pinned(monkeypatch):
    # one searcher per goal (as `dsub decl search`) and one shared searcher
    # (as the lab) find the same trees, pinned by a digest, with a pinned
    # number of rule applications and candidate list builds
    counts = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(declarative, "_candidates", counted("builds", declarative._candidates))
    for name in ("_sub", "_typ", "_sub_rules", "_typ_rules"):
        monkeypatch.setattr(DeclSearcher, name, counted(name, getattr(DeclSearcher, name)))

    def run(goals, fresh: bool) -> tuple:
        counts.clear()
        searcher = DeclSearcher()
        answers = []
        for goal, fuel in goals:
            tree = (DeclSearcher() if fresh else searcher).search(goal, fuel)
            answers.append(tree and json.dumps(derivation_to_json(tree)))
        return answers, dict(counts)

    def digest(answers) -> str:
        found = "".join(f"{i} {text}\n" for i, text in enumerate(answers) if text is not None)
        return hashlib.sha256(found.encode()).hexdigest()

    sweep, seeded = _pinned_goals()
    assert {type(goal.term).__name__ for goal, _ in seeded if isinstance(goal, TypJ)} >= {"App", "Lam", "Let"}
    shared, shared_work = run(sweep + seeded, fresh=False)
    fresh, fresh_work = run(sweep[::47] + seeded, fresh=True)
    assert fresh == shared[: len(sweep) : 47] + shared[len(sweep) :]
    assert sum(text is not None for text in shared) == 1090
    assert digest(shared) == "222286368017a21bfe487e68875ccf82ee1aed6c535253088fc2a597d9ef6aaa"
    assert {k: shared_work[k] for k in ("_sub_rules", "_typ_rules", "builds")} == {
        "_sub_rules": 46275,
        "_typ_rules": 30593,
        "builds": 52396,
    }
    assert {k: fresh_work[k] for k in ("_sub_rules", "_typ_rules", "builds")} == {
        "_sub_rules": 61116,
        "_typ_rules": 49954,
        "builds": 47063,
    }
    # the rule loops skip a candidate whose premise a recorded failure
    # answers, so most goals they ask about are never called
    assert shared_work["_sub"] <= 117_856 and shared_work["_typ"] <= 62_261
    assert fresh_work["_sub"] <= 101_251 and fresh_work["_typ"] <= 88_960


# ---------------------------------------------------------------------------
# Elaboration

CORPUS = FsPath(__file__).resolve().parent.parent / "corpus"


# Queries for the step rules no corpus case reaches, among them the Cap,
# Bot and selection rules, in one environment: (relation, its arguments)
STEP_ENV = "x : {A: Bot .. Top} ; b : Bot ; y : {B: x.A .. x.A} ;"
STEP_QUERIES = (
    ("expose", "x.A"),
    ("expose", "b.A"),
    ("promote", "all(x: Top) x.A", "x"),
    ("demote", "all(x: Top) x.A", "x"),
    ("promote", "all(w: x.A) {B: x.A .. y.B}", "x"),
    ("demote", "all(w: x.A) {B: x.A .. y.B}", "x"),
    ("promote", "{B: b.A .. b.A}", "b"),
    ("demote", "{B: b.A .. b.A}", "b"),
    ("promote", "all(w: Bot) Top", "x"),
    ("demote", "all(w: Bot) Top", "x"),
    ("sub", "Bot", "x.A"),
    ("sub", "x.A", "x.A"),
    ("sub", "y.B", "x.A"),
    ("sub", "x.A", "y.B"),
    ("sub", "b.A", "x.A"),
    ("sub", "Top", "b.A"),
)


def _step_traces() -> list:
    """The traces of the corpus's positive step typings and subtypings, as
    ``dsub corpus run`` decides them, then of :data:`STEP_QUERIES`."""
    traces = []
    for case in sorted(CORPUS.glob("*.dsub")) + sorted(CORPUS.glob("*.sub")):
        (outcome, _, _), _ = _decide_case(case)
        if outcome:
            traces.append(outcome.trace)
    g = parse_env(STEP_ENV)
    for verb, *args in STEP_QUERIES:
        if verb in ("promote", "demote"):
            text, var = args
            outcome = (promote if verb == "promote" else demote)(g, parse_type(text), var)
        else:
            outcome = {"expose": expose, "sub": step_subtype}[verb](g, *map(parse_type, args))
        assert outcome, (verb, args)
        traces.append(outcome.trace)
    return traces


def test_step_rules_are_the_elaborators():
    # every step rule the procedures apply has an elaborator, and each has
    # one the queries reach; every trace elaborates to a valid derivation
    rules = set()

    def walk(node):
        rules.add(node.rule)
        for premise in node.premises:
            walk(premise)

    for trace in _step_traces():
        walk(trace)
        verdict = decl_verify(elaborate_step(trace))
        assert verdict, f"{trace.rule}: {verdict.path}: {verdict.message}"
    assert rules == set(declarative._ELABORATORS)


def test_elaborate_bot_axiom():
    result = step_subtype(EMPTY, Bot(), Top())
    tree = elaborate_step(result.trace)
    assert tree.rule == "Bot"
    assert decl_verify(tree).ok


def test_elaborate_subtype_traces_on_enumerated_pairs():
    g = _env(("x", Decl("A", Bot(), Top())), ("y", Decl("B", Path("x", "A"), Top())))
    enum = Enumerator(labels=("A", "B"))
    types = list(enum.types(3, ("x", "y")))
    checked = 0
    for s in types:
        for t in types:
            result = step_subtype(g, s, t)
            if result.holds:
                tree = elaborate_step(result.trace)
                assert alpha_eq(tree.conclusion.lhs, s)
                assert alpha_eq(tree.conclusion.rhs, t)
                verdict = decl_verify(tree)
                assert verdict.ok, f"{verdict.path}: {verdict.message}"
                checked += 1
    assert checked > 900


def test_elaborate_typing_traces():
    cases = [
        (EMPTY, "lam(x: Top) x"),
        (EMPTY, "{A = Top}"),
        (EMPTY, "let x = {A = Top} in lam(y: x.A) y"),
        (EMPTY, "lam(x: Bot) lam(y: Top) x y"),
        (EMPTY, "lam(f: all(z: Top) z.A) lam(y: Top) f y"),
        (bad_bounds_env(), "let f = lam(b: {V: Top .. Top}) b in let b1 = {V = Top} in f b1"),
    ]
    for g, text in cases:
        outcome = step_type(g, parse_term(text))
        assert isinstance(outcome, Derived), text
        tree = elaborate_step(outcome.trace)
        assert alpha_eq(tree.conclusion.ty, outcome.ty)
        verdict = decl_verify(tree)
        assert verdict.ok, f"{text}: {verdict.path}: {verdict.message}"


def test_shipped_minimality_trees_verify():
    assert decl_verify(body_typing_narrow()).ok
    assert decl_verify(body_typing_wide()).ok


# ---------------------------------------------------------------------------
# JSON


def test_json_roundtrip():
    tree = fun_bounds_bridge()
    data = derivation_to_json(tree)
    back = derivation_from_json(json.loads(json.dumps(data)))
    assert decl_verify(back).ok
    assert derivation_to_json(back) == data


def test_json_rejects_unknown_rule():
    with pytest.raises(ValueError):
        derivation_from_json(
            {"rule": "Guess", "judgment": {"kind": "sub", "env": [], "lhs": "Top", "rhs": "Top"}}
        )


def test_judgment_validation_rejects_unbound():
    with pytest.raises(ValueError):
        SubJ(EMPTY, Path("x", "A"), Top())


def _records() -> list:
    """One instance of every record class, in each truth value the class
    has, as (build, field names in order, truth): ``build`` makes a fresh,
    equal record on each call."""
    g = env_from_bindings([("x", Decl("A", Bot(), Top()))])
    x_a = Path("x", "A")
    j = SubJ(g, x_a, Top())
    leaf = DerivationTree("S-Top", j)
    return [
        (lambda: SubJ(g, x_a, Top()), ("env", "lhs", "rhs"), True),
        (lambda: TypJ(g, Var("x"), Decl("A", Bot(), Top())), ("env", "term", "ty"), True),
        (lambda: ExposeJ(g, x_a, Top()), ("env", "src", "out"), True),
        (lambda: ShiftJ(g, x_a, "x", Top(), True), ("env", "src", "var", "out", "up"), True),
        (lambda: DerivationTree("S-<:-Sel", j, (leaf,)), ("rule", "conclusion", "premises"), True),
        (lambda: Derived(Top(), leaf), ("ty", "trace"), True),
        (lambda: Failed("no rule applies", "body"), ("reason", "location"), False),
        (lambda: Stuck(x_a, Top()), ("path", "blocker"), False),
        (lambda: SubtypeResult(True, leaf), ("holds", "trace"), True),
        (lambda: SubtypeResult(False, None), ("holds", "trace"), False),
        (lambda: VerifyResult(True, "", ""), ("ok", "path", "message"), True),
        (lambda: VerifyResult(False, "root", "unknown rule 'Guess'"), ("ok", "path", "message"), False),
        (lambda: Finding("tag-switch", "x.A <: {A: Top .. Top}"), ("check", "detail"), True),
        (
            lambda: HarnessReport("tags", "max_size=3, fuel=5", 507, (Finding("tag-switch", "x.A <: Top"),)),
            ("title", "bounds", "derivable_count", "violations"),
            True,
        ),
        (
            lambda: MinimalityReport("{V: Top .. Top}", True, True, True, True, False),
            ("step_result", "step_result_ok", "narrow_tree_ok", "wide_tree_ok", "bridge_ok", "not_subtype_ok"),
            True,
        ),
        (lambda: Base("Int"), ("name",), True),
        (lambda: Fun(INT, Member("E")), ("param", "result"), True),
        (lambda: Member("E"), ("name",), True),
        (lambda: Bounds(lower=Fun(INT, INT), upper=Fun(INT, STRING)), ("lower", "upper"), True),
        (lambda: BoundsUniverse.of({"E": Bounds(upper=INT), "F": Bounds()}), ("members",), True),
        (lambda: SubStats(False, 19, 5), ("result", "calls", "max_depth"), True),
    ]


def _same(a, b) -> bool:
    """``a == b``, but environments compared by ``key``: one that has been
    round-tripped is a new object, and ``==`` on environments is identity."""
    if isinstance(a, TypeEnv):
        return type(b) is TypeEnv and a.key == b.key
    if isinstance(a, _Record):
        return type(b) is type(a) and _same(a._fields(), b._fields())
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(_same, a, b))
    return a == b


def test_judgments_are_immutable_records():
    # a judgment's scope is checked when it is built, so nothing may change
    # its fields afterwards; records equal and hash by class and fields
    g = env_from_bindings([("x", Decl("A", Bot(), Top()))])
    j = SubJ(g, Path("x", "A"), Top())
    for attempt in (lambda: setattr(j, "env", EMPTY), lambda: delattr(j, "env")):
        with pytest.raises(AttributeError, match="^SubJ records are immutable$"):
            attempt()
    assert j.env is g and not isinstance(j, tuple) and not hasattr(j, "_replace")
    records = []
    for build, fields, truth in _records():
        r, twin = build(), build()
        assert bool(r) is truth and twin is not r
        for attempt in (lambda: setattr(r, fields[0], None), lambda: delattr(r, fields[0])):
            with pytest.raises(AttributeError, match=f"^{type(r).__name__} records are immutable$"):
                attempt()
        assert twin == r and hash(twin) == hash(r)
        with pytest.raises(TypeError):  # a record is built from its fields, no more
            type(r)(*r._fields(), None)
        assert copy.copy(r) == r and _same(pickle.loads(pickle.dumps(r)), r)
        assert repr(r) == f"{type(r).__name__}({', '.join(f'{f}={getattr(r, f)!r}' for f in fields)})"
        records.append(r)
    for a in records:
        assert all(a != b for b in records if type(b) is not type(a))
    g = env_from_bindings([("x", Decl("A", Bot(), Top())), ("y", Path("x", "A"))])
    back = pickle.loads(pickle.dumps(g))
    assert back is not g and back.key == g.key and back.bindings == g.bindings


def test_every_record_class_is_in_the_record_contract():
    for module in pkgutil.iter_modules(dsub.__path__):
        importlib.import_module(f"dsub.{module.name}")
    classes, todo = set(), [_Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("dsub."):
                classes.add(cls)
    assert classes == {type(build()) for build, _, _ in _records()}


# ---------------------------------------------------------------------------
# Single-point mutants

DECL_RULES = (
    "Top", "Bot", "Refl", "Trans", "<:-Sel", "Sel-<:", "All-<:-All", "Typ-<:-Typ",
    "Var", "Typ-I", "All-I", "All-E", "Let", "Sub",
)  # fmt: skip


def _valid_derivations() -> list:
    """Valid derivations of every declarative rule: the lab's hand-built
    trees, the elaborated typings of the corpus ``.dsub`` cases and of a
    let-6 chain, two elaborated subtypings, and the trees the search finds
    over the first 12 x 12 pairs of the lab's size-3 universe at fuel 5."""
    trees = [fun_bounds_bridge(), body_typing_narrow(), body_typing_wide()]
    bad = bad_bounds_env()
    for case in sorted(CORPUS.glob("*.dsub")):
        text = case.read_text()
        g = bad if "//! env: bad_bounds.env" in text else EMPTY
        typed = step_type(g, parse_term(text))
        if typed:
            trees.append(elaborate_step(typed.trace))
    chain = "".join(f"let v{i} = {{A = {f'v{i - 1}.A' if i else 'Top'}}} in " for i in range(6)) + "v5"
    trees.append(elaborate_step(step_type(EMPTY, parse_term(chain)).trace))
    two = _env(("x", Decl("A", Bot(), Top())), ("y", Decl("B", Path("x", "A"), Path("x", "A"))))
    narrow, wide = (parse_type(f"all(z: {{A: Bot .. Top}}) {{B: {p} .. Top}}") for p in ("y.B", "x.A"))
    for g, lhs, rhs in ((bad, FUN_VV, Path("e", "E")), (two, narrow, wide)):
        trees.append(elaborate_step(step_subtype(g, lhs, rhs).trace))
    universe = _lab_universe(3)[:12]
    searcher = DeclSearcher()
    for lhs in universe:
        for rhs in universe:
            tree = searcher.search(SubJ(bad, lhs, rhs), 5)
            if tree is not None:
                trees.append(tree)
    return trees


def _positions(tree: DerivationTree, path: tuple = ()) -> list:
    """Every place in ``tree`` (a shared node at each place it occurs), as
    (premise indices from the root, node), in pre-order."""
    out = [(path, tree)]
    for i, premise in enumerate(tree.premises):
        out += _positions(premise, path + (i,))
    return out


def _replace(tree: DerivationTree, path: tuple, node: DerivationTree) -> DerivationTree:
    if not path:
        return node
    premises = list(tree.premises)
    premises[path[0]] = _replace(premises[path[0]], path[1:], node)
    return DerivationTree(tree.rule, tree.conclusion, tuple(premises))


def _mutate(node: DerivationTree, rng: random.Random) -> DerivationTree:
    """``node`` with one change: its rule renamed, Top or Bot put on one side
    or in the type, its sides swapped, one premise dropped or its premises
    reversed."""
    rule, c, premises = node.rule, node.conclusion, node.premises
    kinds = ["rename", "extreme"] + ["swap"] * isinstance(c, SubJ)
    kinds += ["drop"] * (len(premises) > 0) + ["reverse"] * (len(premises) > 1)
    kind = rng.choice(kinds)
    if kind == "rename":
        rule = rng.choice([r for r in DECL_RULES if r != rule])
    elif kind == "extreme":
        t = rng.choice((Top(), Bot()))
        if isinstance(c, TypJ):
            c = TypJ(c.env, c.term, t)
        else:
            c = SubJ(c.env, t, c.rhs) if rng.choice((True, False)) else SubJ(c.env, c.lhs, t)
    elif kind == "swap":
        c = SubJ(c.env, c.rhs, c.lhs)
    elif kind == "drop":
        i = rng.randrange(len(premises))
        premises = premises[:i] + premises[i + 1 :]
    else:
        premises = premises[::-1]
    return DerivationTree(rule, c, premises)


def test_verify_answers_on_single_point_mutants_are_pinned():
    # 1,000 seeded mutants of valid derivations: which are accepted, and
    # the path of each rejection, are pinned (the messages are not)
    trees = _valid_derivations()
    assert all(decl_verify(tree) for tree in trees)
    rules = {node.rule for tree in trees for _, node in _positions(tree)}
    assert rules == set(DECL_RULES)
    rng = random.Random(22)
    answers = []
    for _ in range(1000):
        tree = rng.choice(trees)
        path, node = rng.choice(_positions(tree))
        verdict = decl_verify(_replace(tree, path, _mutate(node, rng)))
        answers.append([verdict.ok, verdict.path])
    assert (len(trees), sum(ok for ok, _ in answers)) == (56, 212)
    digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
    assert digest == "ca9f41313eef218c7f75a4a33df9b1df0cf6870123fae0a9274b3ece006774ef"
