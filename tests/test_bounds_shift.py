import pytest

from dsub.bounds_shift import demote, promote
from dsub.declarative import decl_verify, elaborate_step
from dsub.environment import TypeEnv, UnboundVariable, env_from_bindings
from dsub.lab import Enumerator, bad_bounds_env
from dsub.syntax import All, Bot, Decl, Path, Top, alpha_eq, fv
from dsub.trace import Derived, Failed


def _env(*pairs):
    return env_from_bindings(pairs)


G1 = _env(("x", Decl("A", Bot(), Top())))


def test_promote_path_to_upper():
    result = promote(G1, Path("x", "A"), "x")
    assert isinstance(result, Derived) and result.ty == Top()


def test_promote_bot_and_top_fixed():
    assert promote(G1, Bot(), "x").ty == Bot()
    assert promote(G1, Top(), "x").ty == Top()
    assert demote(G1, Top(), "x").ty == Top()
    assert demote(G1, Bot(), "x").ty == Bot()


def test_promote_decl_flips_lower():
    before = Decl("B", Path("x", "A"), Path("x", "A"))
    result = promote(G1, before, "x")
    assert result.ty == Decl("B", Bot(), Top())


def test_demote_path_to_lower():
    result = demote(G1, Path("x", "A"), "x")
    assert isinstance(result, Derived) and result.ty == Bot()


def test_demote_bot_head_gives_top():
    g = _env(("x", Bot()))
    result = demote(g, Path("x", "A"), "x")
    assert result.ty == Top()
    assert promote(g, Path("x", "A"), "x").ty == Bot()


def test_other_variables_untouched():
    g = _env(("x", Decl("A", Bot(), Top())), ("y", Decl("A", Bot(), Top())))
    assert promote(g, Path("y", "A"), "x").ty == Path("y", "A")
    assert demote(g, Path("y", "A"), "x").ty == Path("y", "A")


def test_function_types_shift_both_sides():
    before = All("y", Path("x", "A"), Path("x", "A"))
    promoted = promote(G1, before, "x")
    assert alpha_eq(promoted.ty, All("y", Bot(), Top()))
    demoted = demote(G1, before, "x")
    assert alpha_eq(demoted.ty, All("y", Top(), Bot()))


def test_binder_matching_target_shields_body():
    before = All("x", Top(), Path("x", "A"))
    assert promote(G1, before, "x").ty == before
    assert demote(G1, before, "x").ty == before


def test_stuck_on_unexposable_head():
    g = _env(("x", Top()))
    result = promote(g, Path("x", "A"), "x")
    assert isinstance(result, Failed)
    assert "expose" in result.reason or "blocked" in result.reason


def test_unbound_target():
    with pytest.raises(UnboundVariable):
        promote(TypeEnv.empty(), Path("x", "A"), "x")


def _cases(max_size=4):
    envs = [
        G1,
        _env(("x", Bot())),
        _env(("x", Decl("A", Bot(), Top())), ("y", Decl("B", Path("x", "A"), Top()))),
        bad_bounds_env(),
    ]
    for g in envs:
        scope = tuple(x for x, _ in g.bindings)
        labels = ("A", "B", "E", "V") if "e" in scope else ("A", "B", "C")
        enum = Enumerator(labels=labels)
        for t in enum.types(max_size, scope):
            for x in scope:
                yield g, t, x


def test_erasure_on_enumerated_inputs():
    checked = 0
    for g, t, x in _cases():
        for op in (promote, demote):
            result = op(g, t, x)
            if isinstance(result, Derived):
                assert x not in fv(result.ty)
                checked += 1
    assert checked > 1000


def test_identity_on_types_without_the_variable():
    for g, t, x in _cases(max_size=3):
        if x in fv(t):
            continue
        for op in (promote, demote):
            result = op(g, t, x)
            assert isinstance(result, Derived)
            assert alpha_eq(result.ty, t)


def test_shift_directions_elaborate_and_verify():
    checked = 0
    for g, t, x in _cases(max_size=3):
        promoted = promote(g, t, x)
        if isinstance(promoted, Derived):
            tree = elaborate_step(promoted.trace)
            assert alpha_eq(tree.conclusion.lhs, t)
            assert alpha_eq(tree.conclusion.rhs, promoted.ty)
            verdict = decl_verify(tree)
            assert verdict.ok, f"{verdict.path}: {verdict.message}"
            checked += 1
        demoted = demote(g, t, x)
        if isinstance(demoted, Derived):
            tree = elaborate_step(demoted.trace)
            assert alpha_eq(tree.conclusion.lhs, demoted.ty)
            assert alpha_eq(tree.conclusion.rhs, t)
            verdict = decl_verify(tree)
            assert verdict.ok, f"{verdict.path}: {verdict.message}"
            checked += 1
    assert checked > 1000
