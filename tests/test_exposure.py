import pytest

from dsub.declarative import SubJ, decl_verify, elaborate_step
from dsub.environment import TypeEnv, UnboundVariable, env_from_bindings
from dsub.exposure import Stuck, expose
from dsub.lab import Enumerator, bad_bounds_env
from dsub.step import weight
from dsub.syntax import All, Bot, Decl, Path, Top, alpha_eq
from dsub.trace import Derived


def _env(*pairs):
    return env_from_bindings(pairs)


def test_expose_path_to_upper_bound():
    g = _env(("x", Decl("A", Bot(), Top())))
    result = expose(g, Path("x", "A"))
    assert isinstance(result, Derived) and result.ty == Top()


def test_expose_non_path_is_identity():
    g = TypeEnv.empty()
    result = expose(g, Top())
    assert isinstance(result, Derived) and result.ty == Top()
    fn = All("x", Top(), Top())
    assert expose(g, fn).ty == fn


def test_expose_bot_head():
    g = _env(("x", Bot()))
    result = expose(g, Path("x", "A"))
    assert isinstance(result, Derived) and result.ty == Bot()
    assert result.trace.rule == "X-Bot"


def test_expose_chained_paths():
    g = _env(("x", Decl("A", Bot(), Top())), ("y", Decl("B", Bot(), Path("x", "A"))))
    result = expose(g, Path("y", "B"))
    assert isinstance(result, Derived) and result.ty == Top()


def test_expose_stuck_on_top_head():
    g = _env(("x", Top()))
    result = expose(g, Path("x", "A"))
    assert isinstance(result, Stuck)
    assert result.path == Path("x", "A")
    assert result.blocker == Top()


def test_expose_stuck_on_function_head():
    fn = All("y", Top(), Top())
    g = _env(("x", fn))
    result = expose(g, Path("x", "A"))
    assert isinstance(result, Stuck) and result.blocker == fn


def test_expose_stuck_on_label_mismatch():
    g = _env(("x", Decl("B", Bot(), Top())))
    result = expose(g, Path("x", "A"))
    assert isinstance(result, Stuck)
    assert result.blocker == Decl("B", Bot(), Top())


def test_expose_is_computed_once_per_environment():
    # within one query's memo, each environment exposes each node once
    bindings = (("x", Decl("A", Bot(), Top())), ("y", Top()))
    g = env_from_bindings(bindings)
    memo = {}
    exposed, stuck = expose(g, Path("x", "A"), memo), expose(g, Path("y", "A"), memo)
    assert isinstance(exposed, Derived) and isinstance(stuck, Stuck)
    assert expose(g, Path("x", "A"), memo) is exposed and expose(g, Path("y", "A"), memo) is stuck
    other = env_from_bindings(bindings)
    assert expose(other, Path("x", "A"), memo) is not exposed
    assert expose(other, Path("x", "A"), memo).ty is exposed.ty
    assert expose(g, Path("x", "A")) is not exposed  # a fresh memo


def test_expose_unbound_head():
    with pytest.raises(UnboundVariable):
        expose(TypeEnv.empty(), Path("x", "A"))


def _envs():
    return [
        TypeEnv.empty(),
        _env(("x", Decl("A", Bot(), Top()))),
        _env(("x", Bot())),
        _env(("x", Decl("A", Bot(), Top())), ("y", Decl("B", Path("x", "A"), Path("x", "A")))),
        bad_bounds_env(),
    ]


def _enumerated_cases(max_size=4):
    for g in _envs():
        scope = tuple(x for x, _ in g.bindings)
        labels = ("A", "B", "E", "V") if "e" in scope else ("A", "B", "C")
        enum_g = Enumerator(labels=labels)
        for t in enum_g.types(max_size, scope):
            yield g, t


def test_exposed_is_never_a_path():
    for g, t in _enumerated_cases():
        result = expose(g, t)
        if isinstance(result, Derived):
            assert not isinstance(result.ty, Path)


def test_exposure_weight_monotonic():
    checked = 0
    for g, t in _enumerated_cases():
        result = expose(g, t)
        if isinstance(result, Derived):
            assert weight(g, result.ty) <= weight(g, t)
            checked += 1
    assert checked > 500


def test_exposure_elaborates_to_valid_subtyping():
    checked = 0
    for g, t in _enumerated_cases(max_size=3):
        result = expose(g, t)
        if isinstance(result, Derived):
            tree = elaborate_step(result.trace)
            assert isinstance(tree.conclusion, SubJ)
            assert alpha_eq(tree.conclusion.lhs, t)
            assert alpha_eq(tree.conclusion.rhs, result.ty)
            verdict = decl_verify(tree)
            assert verdict.ok, f"{verdict.path}: {verdict.message}"
            checked += 1
    assert checked > 500


def test_full_env_matches_prefix_env():
    # well-formedness makes exposing a stored type in the full environment
    # equal to exposing it in the strict prefix before its binder; checked
    # for every binding of every enumeration environment and of each prefix
    envs = {env_from_bindings(g.bindings[:n]) for g in _envs() for n in range(len(g) + 1)}
    checked = 0
    for g in envs:
        for x, stored in g:
            prefix, _ = g.binding(x)
            full, strict = expose(g, stored), expose(prefix, stored)
            assert isinstance(full, Derived) == isinstance(strict, Derived), x
            if isinstance(full, Derived):
                assert alpha_eq(full.ty, strict.ty), x
            checked += 1
    assert checked > 0
