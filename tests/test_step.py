import gc
import itertools
import sys
from pathlib import Path as FsPath

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dsub.environment
import dsub.step
import dsub.syntax
import dsub.trace
from dsub.cli import _decide_case
from dsub.declarative import decl_verify, elaborate_step
from dsub.environment import TypeEnv, UnboundVariable, env_from_bindings
from dsub.errors import InternalLimit
from dsub.exposure import expose
from dsub.lab import (
    DECL_V,
    DECL_Z,
    FUN_VV,
    FUN_VZ,
    Enumerator,
    bad_bounds_env,
    fun_bounds_bridge,
    minimality_body,
    minimality_term,
)
from dsub.step import step_subtype, step_type, weight
from dsub.trace import Derived, Failed, derivation_to_json
from dsub.syntax import (
    All,
    App,
    Bot,
    Decl,
    Lam,
    Let,
    Path,
    Tag,
    Top,
    Var,
    alpha_eq,
    fresh_name,
    fv,
    parse_term,
    print_type,
    subst_var,
)


def _env(*pairs):
    return env_from_bindings(pairs)


# ---------------------------------------------------------------------------
# Weight


def test_weight_constants():
    assert weight(TypeEnv.empty(), Top()) == 1
    assert weight(TypeEnv.empty(), Bot()) == 1


def test_weight_decl():
    assert weight(TypeEnv.empty(), Decl("A", Top(), Top())) == 2


def test_weight_path_uses_prefix():
    assert weight(_env(("x", Top())), Path("x", "A")) == 2


def test_weight_function_extends_env():
    assert weight(TypeEnv.empty(), All("x", Top(), Path("x", "A"))) == 3


def test_weight_unbound_path():
    with pytest.raises(UnboundVariable):
        weight(TypeEnv.empty(), Path("x", "A"))


def test_weight_positive_on_enumerated():
    enum = Enumerator()
    g = _env(("x", Decl("A", Bot(), Top())), ("y", Decl("B", Path("x", "A"), Top())))
    for t in enum.types(5, ("x", "y")):
        assert weight(g, t) >= 1


def _reference_weight(bindings: tuple, t) -> int:
    """The weight measure as defined, with no memo: a path is measured in
    the bindings before its head's, and a function type's result under the
    bindings extended by its (renamed if bound) parameter."""
    match t:
        case Top() | Bot():
            return 1
        case Decl(lower=lo, upper=hi):
            return 1 + max(_reference_weight(bindings, lo), _reference_weight(bindings, hi))
        case Path(var=x):
            i = [y for y, _ in bindings].index(x)
            return 1 + _reference_weight(bindings[:i], bindings[i][1])
        case All(param=x, param_type=s, result=u):
            names = {y for y, _ in bindings}
            if x in names:
                x2 = fresh_name(x, names | fv(u))
                u, x = subst_var(u, x, x2), x2
            return 1 + _reference_weight(bindings + ((x, s),), u)


_labels = st.sampled_from(("A", "B"))


def _types_in(scope: tuple, depth: int = 3):
    """Types whose free variables lie in ``scope``; binders may shadow."""
    leaves = [st.just(Top()), st.just(Bot())]
    if scope:
        leaves.append(st.builds(Path, st.sampled_from(scope), _labels))
    if depth == 0:
        return st.one_of(leaves)
    inner = _types_in(scope, depth - 1)
    functions = st.sampled_from(("a", "b", "z")).flatmap(
        lambda x: st.builds(All, st.just(x), inner, _types_in(scope + (x,), depth - 1))
    )
    return st.one_of(*leaves, st.builds(Decl, _labels, inner, inner), functions)


@st.composite
def _env_and_type(draw):
    g = TypeEnv.empty()
    for x in draw(st.lists(st.sampled_from(("a", "b", "c", "d")), unique=True, max_size=4)):
        g = g.extend(x, draw(_types_in(tuple(g.dom()), 2)))
    return g, draw(_types_in(tuple(sorted(g.dom()))))


@settings(max_examples=300)
@given(_env_and_type())
def test_memoised_weight_is_the_measure(env_and_type):
    g, t = env_and_type
    expected = _reference_weight(g.bindings, t)
    memo = {}  # one query's
    assert weight(g, t, memo) == expected
    assert weight(g, t, memo) == expected  # from the memo
    for x, stored in g:  # paths share their prefix's entries
        assert weight(g, Path(x, "A"), memo) == _reference_weight(g.bindings, Path(x, "A"))
    assert weight(g, t) == expected  # a fresh memo


# ---------------------------------------------------------------------------
# Work grows linearly: counted evaluations of the weight body, canonical
# keys and substitutions, each function wrapped where its callers (and its
# own recursion) look it up


def _count_calls(monkeypatch, run) -> int:
    calls = [0]

    def counting(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)

        return wrapper

    with monkeypatch.context() as m:
        for module, name in (
            (dsub.step, "weight"),
            (dsub.syntax, "_canon"),
            (dsub.syntax, "subst_var"),
        ):
            m.setattr(module, name, counting(getattr(module, name)))
        run()
    gc.collect()  # nodes of this run, and what is cached on them, go
    return calls[0]


def _chain_query(n: int):
    """``x0: {A: Bot..Top}``, ``xi: {A: x(i-1).A .. x(i-1).A}``, and
    ``x(n-1).A <: x0.A``."""
    pairs = [("x0", Decl("A", Bot(), Top()))]
    for i in range(1, n):
        sel = Path(f"x{i - 1}", "A")
        pairs.append((f"x{i}", Decl("A", sel, sel)))
    return _env(*pairs), Path(f"x{n - 1}", "A"), Path("x0", "A")


def _nest(depth: int, t=Top()):
    for _ in range(depth):
        t = Decl("A", Bot(), t)
    return t


def _checked_subtype(g, s, t) -> None:
    result = step_subtype(g, s, t)
    assert result.holds and decl_verify(elaborate_step(result.trace)).ok


def _typed_let_chain(n: int):
    text = "".join(f"let v{i} = {{A = {f'v{i - 1}.A' if i else 'Top'}}} in " for i in range(n))
    return step_type(TypeEnv.empty(), parse_term(text + f"v{n - 1}"))


def _checked_let_chain(n: int) -> None:
    assert decl_verify(elaborate_step(_typed_let_chain(n).trace)).ok


def test_chain_subtyping_work_is_linear(monkeypatch):
    small = _count_calls(monkeypatch, lambda: step_subtype(*_chain_query(50)))
    large = _count_calls(monkeypatch, lambda: step_subtype(*_chain_query(100)))
    assert 0 < large <= 2.5 * small


def test_let_chain_verification_work_is_linear(monkeypatch):
    small = _count_calls(monkeypatch, lambda: _checked_let_chain(100))
    large = _count_calls(monkeypatch, lambda: _checked_let_chain(300))
    assert 0 < large <= 3.75 * small


def test_nest_subtyping_and_verification_work_is_linear(monkeypatch):
    small = _count_calls(monkeypatch, lambda: _checked_subtype(TypeEnv.empty(), _nest(100), _nest(100)))
    large = _count_calls(monkeypatch, lambda: _checked_subtype(TypeEnv.empty(), _nest(200), _nest(200)))
    assert 0 < large <= 2.5 * small


def _environment_lines(run) -> int:
    """The lines of ``dsub.environment`` that ``run`` executes."""
    lines = [0]

    def local(frame, event, arg):
        lines[0] += event == "line"
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename == dsub.environment.__file__ else None

    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
    return lines[0]


def _far_paths(n: int):
    """``x0: {A: Bot..Top}`` and ``xi: {A: x0.A .. x0.A}``: each ``xi.A``
    is weighed through ``x0``'s binding, seen from ``xi``'s prefix."""
    far = Path("x0", "A")
    g = _env(("x0", Decl("A", Bot(), Top())), *((f"x{i}", Decl("A", far, far)) for i in range(1, n)))
    memo = {}
    return lambda: [weight(g, Path(f"x{i}", "A"), memo) for i in range(n)]


def test_weighing_far_paths_is_linear():
    # a binding far below the environment asking for it is found without
    # walking the bindings in between
    small = _environment_lines(_far_paths(200))
    large = _environment_lines(_far_paths(400))
    assert 0 < large <= 2.5 * small


def _tree_nodes(tree, seen: set) -> set:
    if id(tree) not in seen:
        seen.add(id(tree))
        for premise in tree.premises:
            _tree_nodes(premise, seen)
    return seen


def _counting(monkeypatch, owner, name: str) -> list:
    """Count the calls of ``owner.name`` until the test ends."""
    calls = [0]
    fn = getattr(owner, name)

    def wrapper(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_a_repeated_premise_is_one_shared_node(monkeypatch):
    # nest-150 against itself: 150 S-Typ-<:-Typ nodes share one Bot <: Bot
    # premise, and one Top <: Top ends the chain; every call is still measured
    measured = _counting(monkeypatch, dsub.step, "_measure_entry")
    t = _nest(150)
    result = step_subtype(TypeEnv.empty(), t, t)
    assert measured[0] == 301
    assert len(_tree_nodes(result.trace, set())) == 152
    tree = elaborate_step(result.trace)
    assert len(_tree_nodes(tree, set())) == 152
    assert decl_verify(tree).ok


def test_a_failing_query_builds_no_premise_twice(monkeypatch):
    # the innermost labels differ, so every level fails after proving its
    # lower bounds Bot <: Bot: the one tree built
    built = _counting(monkeypatch, dsub.trace.DerivationTree, "__init__")
    t = _nest(149, Decl("A", Bot(), Top()))
    result = step_subtype(TypeEnv.empty(), t, _nest(149, Decl("B", Bot(), Top())))
    assert not result.holds
    assert built[0] <= 1


def test_elaboration_builds_only_the_nodes_of_its_result(monkeypatch):
    # each trace node elaborates once, a variable's Var typing is shared, and
    # an exposure head is elaborated only when the typing uses it
    typed = _typed_let_chain(100)
    built = _counting(monkeypatch, dsub.trace.DerivationTree, "__init__")
    tree = elaborate_step(typed.trace)
    assert built[0] == len(_tree_nodes(tree, set())) == 696
    assert decl_verify(tree).ok


CORPUS = FsPath(__file__).resolve().parent.parent / "corpus"


@pytest.mark.parametrize("case", sorted(p.name for p in CORPUS.iterdir() if p.suffix in (".dsub", ".sub")))
def test_elaboration_of_a_corpus_case_builds_only_the_nodes_of_its_result(monkeypatch, case):
    (outcome, _, _), _ = _decide_case(CORPUS / case)
    if outcome:  # a negative answer has no trace
        built = _counting(monkeypatch, dsub.trace.DerivationTree, "__init__")
        tree = elaborate_step(outcome.trace)
        assert built[0] == len(_tree_nodes(tree, set()))
        assert decl_verify(tree).ok


# ---------------------------------------------------------------------------
# Step subtyping


def test_bot_below_everything_and_top_above():
    g = TypeEnv.empty()
    assert step_subtype(g, Bot(), Top()).holds
    assert step_subtype(g, Bot(), Bot()).holds
    assert step_subtype(g, Top(), Top()).holds
    assert not step_subtype(g, Top(), Bot()).holds


def test_path_reflexivity_rule():
    g = _env(("x", Top()))
    # reflexivity applies even when the head is not exposable
    assert step_subtype(g, Path("x", "A"), Path("x", "A")).holds
    assert not step_subtype(g, Path("x", "A"), Path("x", "B")).holds


def test_declaration_bounds_variance():
    g = TypeEnv.empty()
    narrow = Decl("A", Top(), Top())
    wide = Decl("A", Bot(), Top())
    assert step_subtype(g, narrow, wide).holds
    assert not step_subtype(g, wide, narrow).holds
    assert not step_subtype(g, narrow, Decl("B", Top(), Top())).holds


def test_kernel_restriction_requires_equal_parameters():
    g = TypeEnv.empty()
    assert not step_subtype(g, All("x", Top(), Top()), All("x", Bot(), Top())).holds
    assert step_subtype(g, All("x", Top(), Bot()), All("y", Top(), Top())).holds


def test_function_below_member_selection():
    g = bad_bounds_env()
    result = step_subtype(g, FUN_VV, Path("e", "E"))
    assert result.holds
    assert result.trace.rule == "S-Sel-<:"


def test_selection_below_function():
    g = bad_bounds_env()
    assert step_subtype(g, Path("e", "E"), FUN_VZ).holds


def test_no_transitivity_through_member():
    g = bad_bounds_env()
    assert not step_subtype(g, DECL_V, DECL_Z).holds
    assert not step_subtype(g, FUN_VV, FUN_VZ).holds


def test_incompleteness_witness():
    # the step relation rejects a judgment the declarative checker accepts
    g = bad_bounds_env()
    assert not step_subtype(g, FUN_VV, FUN_VZ).holds
    assert decl_verify(fun_bounds_bridge()).ok


def test_bot_headed_paths_relate_both_ways():
    g = _env(("x", Bot()), ("y", Top()))
    assert step_subtype(g, Path("x", "A"), Path("x", "B")).holds
    assert step_subtype(g, Top(), Path("x", "A")).holds
    assert step_subtype(g, Path("x", "A"), Bot()).holds


def test_unbound_variable_raises_rather_than_answering():
    # an ill-scoped query has no answer, not a negative one
    with pytest.raises(UnboundVariable):
        step_subtype(TypeEnv.empty(), Path("x", "A"), Bot())
    g = _env(("x", Decl("A", Bot(), Top())))
    types = list(Enumerator().types(3, ("x", "q")))
    for s, t in itertools.product(types, types):
        ill_scoped = "q" in fv(s) | fv(t)
        try:
            step_subtype(g, s, t)
        except UnboundVariable:
            assert ill_scoped, (print_type(s), print_type(t))
        else:
            assert not ill_scoped, (print_type(s), print_type(t))


def test_reflexivity_on_enumerated_sample():
    enum = Enumerator()
    g = _env(("x", Decl("A", Bot(), Top())), ("y", Decl("B", Path("x", "A"), Top())))
    count = 0
    for t in enum.types(5, ("x", "y")):
        assert step_subtype(g, t, t).holds, print_type(t)
        count += 1
    assert count > 10000


def test_depth_valve_is_distinct(monkeypatch):
    monkeypatch.setattr(dsub.step, "DEPTH_LIMIT", 1)
    g = bad_bounds_env()
    with pytest.raises(InternalLimit):
        step_subtype(g, FUN_VV, Path("e", "E"))


# ---------------------------------------------------------------------------
# Step typing


def test_type_lambda_identity():
    out = step_type(TypeEnv.empty(), parse_term("lam(x: Top) x"))
    assert isinstance(out, Derived)
    assert alpha_eq(out.ty, All("x", Top(), Top()))


def test_type_tag():
    out = step_type(TypeEnv.empty(), parse_term("{A = Top}"))
    assert isinstance(out, Derived)
    assert out.ty == Decl("A", Top(), Top())


def test_type_let_promotes_bound_variable_away():
    out = step_type(TypeEnv.empty(), parse_term("let x = {A = Top} in lam(y: x.A) y"))
    assert isinstance(out, Derived)
    assert alpha_eq(out.ty, All("y", Top(), Top()))


def test_type_minimality_body():
    out = step_type(bad_bounds_env(), minimality_body())
    assert isinstance(out, Derived)
    assert alpha_eq(out.ty, DECL_V)


def test_type_minimality_term_closed():
    out = step_type(TypeEnv.empty(), minimality_term())
    assert isinstance(out, Derived)
    assert alpha_eq(out.ty, All("e", Decl("E", FUN_VV, FUN_VZ), DECL_V))


def test_type_application_of_bot():
    out = step_type(TypeEnv.empty(), parse_term("lam(x: Bot) lam(y: Top) x y"))
    assert isinstance(out, Derived)
    assert alpha_eq(out.ty, All("x", Bot(), All("y", Top(), Bot())))


def test_type_application_result_substitutes_argument():
    term = parse_term("lam(f: all(z: Top) z.A) lam(y: Top) f y")
    out = step_type(TypeEnv.empty(), term)
    assert isinstance(out, Derived)
    assert alpha_eq(
        out.ty, All("f", All("z", Top(), Path("z", "A")), All("y", Top(), Path("y", "A")))
    )


def test_untypable_application_of_top():
    out = step_type(TypeEnv.empty(), parse_term("lam(f: Top) f f"))
    assert isinstance(out, Failed)
    assert "function position" in out.reason
    assert out.location == "body"


def test_a_location_is_formatted_only_on_failure(monkeypatch):
    # typing a 399-let chain formats no location; a failure at its innermost
    # variable is located there, one field per level on the way out
    located = _counting(monkeypatch, dsub.step, "_at")
    assert _typed_let_chain(399)
    assert located[0] == 0
    text = "".join(f"let v{i} = {{A = {f'v{i - 1}.A' if i else 'Top'}}} in " for i in range(399))
    out = step_type(TypeEnv.empty(), parse_term(text + "w"))
    assert isinstance(out, Failed) and out.reason == "unbound variable 'w'"
    assert out.location == ".".join(["body"] * 399)
    assert located[0] == 399


def test_untypable_argument_mismatch():
    term = parse_term("lam(f: all(z: {A: Top .. Top}) Top) lam(y: Top) f y")
    out = step_type(TypeEnv.empty(), term)
    assert isinstance(out, Failed)
    assert "not a step subtype" in out.reason


def test_untypable_unbound_variable():
    out = step_type(TypeEnv.empty(), parse_term("x"))
    assert isinstance(out, Failed)


def test_shadowing_binders_are_renamed():
    g = _env(("x", Decl("A", Bot(), Top())))
    out = step_type(g, parse_term("lam(x: x.A) x"))
    assert isinstance(out, Derived)
    # the parameter annotation refers to the outer x; the binder is freshened
    assert isinstance(out.ty, All)
    assert out.ty.param_type == Path("x", "A")
    assert out.ty.param != "x"


# names a renamed binder may take (x1 for x) are also free and bound names
_NAMES = ("x", "x1", "y", "y1")
_X_TOP = _env(("x", Top()))


def _terms_over(depth: int = 3):
    """Terms over :data:`_NAMES`, free or bound; binders may shadow."""
    names = st.sampled_from(_NAMES)
    types = _types_in(_NAMES, 1)
    leaves = [st.builds(Var, names), st.builds(App, names, names), st.builds(Tag, _labels, types)]
    if depth == 0:
        return st.one_of(leaves)
    inner = _terms_over(depth - 1)
    return st.one_of(*leaves, st.builds(Lam, names, types, inner), st.builds(Let, names, inner, inner))


@st.composite
def _env_and_term(draw):
    g = TypeEnv.empty()
    for x in draw(st.lists(st.sampled_from(_NAMES), unique=True, max_size=3)):
        g = g.extend(x, draw(_types_in(tuple(g.dom()), 2)))
    return g, draw(_terms_over())


@settings(max_examples=300)
@example((_X_TOP, parse_term("lam(x: Top) x1")))
@example((_X_TOP, parse_term("let x = {A = Top} in x1")))
@given(_env_and_term())
def test_step_typing_decides_and_every_typing_verifies(env_and_term):
    g, term = env_and_term
    outcome = step_type(g, term)
    assert isinstance(outcome, (Derived, Failed))
    if isinstance(outcome, Derived):
        tree = elaborate_step(outcome.trace)
        assert tree.conclusion.term is term and tree.conclusion.ty is outcome.ty
        verdict = decl_verify(tree)
        assert verdict.ok, f"{verdict.path}: {verdict.message}"


def _typing_bytes(g, term):
    outcome = step_type(g, term)
    return derivation_to_json(outcome.trace) if outcome else outcome.describe()


@settings(max_examples=300)
@example((_X_TOP, parse_term("lam(x: Top) x1")))
@given(_env_and_term())
def test_step_typing_does_not_depend_on_the_memo(env_and_term):
    g, term = env_and_term
    cold = _typing_bytes(g, term)
    assert _typing_bytes(env_from_bindings(g.bindings), term) == cold
    for x, stored in g:
        expose(g, stored)
        for label in ("A", "B"):
            expose(g, Path(x, label))
    assert _typing_bytes(g, term) == cold


def test_step_typing_deterministic():
    g = bad_bounds_env()
    first = step_type(g, minimality_body())
    second = step_type(g, minimality_body())
    assert isinstance(first, Derived) and isinstance(second, Derived)
    assert alpha_eq(first.ty, second.ty)
    assert print_type(first.ty) == print_type(second.ty)


def test_trace_rule_names_are_canonical():
    from dsub.trace import TRACE_RULES

    out = step_type(bad_bounds_env(), minimality_body())

    def walk(node):
        assert node.rule in TRACE_RULES
        for child in node.premises:
            walk(child)

    walk(out.trace)
