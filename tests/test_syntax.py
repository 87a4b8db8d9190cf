import copy
import gc
import hashlib
import os
import pickle
import subprocess
import sys
import threading
import uuid
import weakref
from pathlib import Path as FsPath

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsub import syntax
from dsub.environment import parse_env
from dsub.lab import Enumerator
from dsub.syntax import (
    MAX_NESTING,
    All,
    App,
    Bot,
    Decl,
    Lam,
    Let,
    ParseError,
    Path,
    Tag,
    Top,
    Var,
    alpha_eq,
    canon,
    fresh_name,
    fv,
    parse_term,
    parse_type,
    print_term,
    print_type,
    size,
    subst_var,
)

# ---------------------------------------------------------------------------
# Free variables


def test_fv_type_no_variables():
    assert fv(Top()) == frozenset()
    assert fv(Bot()) == frozenset()


def test_fv_type_path():
    assert fv(Path("x", "A")) == {"x"}


def test_fv_type_binder_scopes_result_not_param():
    # the param position is outside the binder's scope, the result inside
    assert fv(All("x", Path("x", "A"), Path("x", "B"))) == {"x"}
    assert fv(All("x", Top(), Path("x", "B"))) == frozenset()


def test_fv_term():
    assert fv(Var("x")) == {"x"}
    assert fv(Lam("x", Top(), Var("x"))) == frozenset()
    assert fv(Let("x", Var("y"), App("x", "z"))) == {"y", "z"}


def test_fv_shares_a_childs_set_that_is_already_the_union():
    # every node among the last RETAIN built keeps its set
    p = Path("x", "A")
    assert fv(Decl("A", p, Top())) is fv(Decl("B", Bot(), p)) is fv(p)
    assert fv(All("y", p, Path("y", "B"))) is fv(p)
    assert fv(Top()) is fv(Bot()) is fv(Lam("y", Top(), Var("y")))
    assert fv(Decl("A", p, Path("z", "A"))) == {"x", "z"}


# ---------------------------------------------------------------------------
# Substitution


def test_subst_path_head():
    assert subst_var(Path("z", "A"), "z", "y") == Path("y", "A")


def test_subst_identity_on_closed():
    assert subst_var(Top(), "z", "y") == Top()


def test_subst_avoids_capture():
    before = All("y", Top(), Path("z", "A"))
    after = subst_var(before, "z", "y")
    # the binder must be renamed before the substitution lands
    assert isinstance(after, All) and after.param != "y"
    assert alpha_eq(after, All("w", Top(), Path("y", "A")))


def test_subst_term_renames_shadowing_binder():
    before = Lam("y", Top(), App("z", "y"))
    after = subst_var(before, "z", "y")
    assert alpha_eq(after, Lam("w", Top(), App("y", "w")))


def test_fresh_name_least_counter():
    assert fresh_name("y", set()) == "y"
    assert fresh_name("y", {"y"}) == "y1"
    assert fresh_name("y", {"y", "y1", "y2"}) == "y3"


# ---------------------------------------------------------------------------
# Alpha equivalence


def test_alpha_eq_renamed_binder():
    assert alpha_eq(All("x", Top(), Path("x", "A")), All("y", Top(), Path("y", "A")))


def test_alpha_eq_distinguishes_constructors():
    assert not alpha_eq(Top(), Bot())


def test_alpha_eq_free_variable_fixed():
    assert alpha_eq(All("x", Top(), Path("z", "A")), All("y", Top(), Path("z", "A")))
    assert not alpha_eq(All("x", Top(), Path("x", "A")), All("y", Top(), Path("z", "A")))


def test_alpha_eq_shadowing():
    a = All("x", Top(), All("x", Top(), Path("x", "A")))
    b = All("y", Top(), All("z", Top(), Path("z", "A")))
    c = All("y", Top(), All("z", Top(), Path("y", "A")))
    assert alpha_eq(a, b)
    assert not alpha_eq(a, c)


# ---------------------------------------------------------------------------
# Pinned keys, free variables and substitutions
#
# Candidate order in the declarative search sorts by (size, key), so a
# changed key changes which derivation is found first.


@pytest.mark.parametrize(
    "parse, text, key, free",
    [
        (parse_type, "Top", "T", ""),
        (parse_type, "Bot", "B", ""),
        (parse_type, "x.A", "x.A", "x"),
        (parse_type, "{A: Bot .. Top}", "{A:B..T}", ""),
        (parse_type, "all(x: {A: Bot .. Top}) x.A", "A({A:B..T})@0.A", ""),
        (parse_type, "all(x: Top) all(y: x.A) {B: x.A .. y.B}", "A(T)A(@0.A){B:@1.A..@0.B}", ""),
        (parse_type, "all(x: Top) all(x: x.A) x.B", "A(T)A(@0.A)@0.B", ""),
        (parse_type, "all(x: x.A) x.A", "A(x.A)@0.A", "x"),
        (parse_term, "x", "x", "x"),
        (parse_term, "{A = Top}", "{A=T}", ""),
        (parse_term, "x y", "(x y)", "x,y"),
        (parse_term, "lam(x: Top) x", "L(T)@0", ""),
        (parse_term, "let x = {A = Top} in lam(y: x.A) x", "let({A=T})L(@0.A)@1", ""),
        (parse_term, "lam(x: Top) lam(y: x.A) x y", "L(T)L(@0.A)(@1 @0)", ""),
        (parse_term, "let x = x in let x = x in x", "let(x)let(@0)@0", "x"),
        (parse_term, "lam(x: x.A) x", "L(x.A)@0", "x"),
        (parse_term, "let y = y in lam(x: y.A) y x", "let(y)L(@0.A)(@1 @0)", "y"),
    ],
)
def test_canonical_keys_are_pinned(parse, text, key, free):
    t = parse(text)
    assert canon(t) == key
    assert ",".join(sorted(fv(t))) == free


def test_enumerated_keys_free_variables_and_substitutions_are_pinned():
    # every type of size <= 5 and term of size <= 4 over x, y and A, B; the
    # enumerated binders are named z, so x -> z renames one in 1,356 nodes
    enum = Enumerator(("x", "y"), ("A", "B"))
    types = list(enum.types(5, ("x", "y")))
    terms = list(enum.terms(4, ("x", "y")))
    assert (len(types), len(terms)) == (5214, 738)
    digest, renamed = hashlib.sha256(), 0
    for nodes, show in ((types, print_type), (terms, print_term)):
        for t in nodes:
            to_y, to_z = show(subst_var(t, "x", "y")), show(subst_var(t, "x", "z"))
            renamed += "z1" in to_z
            digest.update(f"{canon(t)}|{','.join(sorted(fv(t)))}|{to_y}|{to_z}\n".encode())
    assert renamed == 1356
    assert digest.hexdigest() == "702c680f32b231c884baea99fb0d6167bea5e8425637190dea765abed643933e"


@pytest.mark.parametrize(
    "op", [fv, size, canon, lambda t: subst_var(t, "x", "y"), lambda t: alpha_eq(t, Top())]
)
def test_operations_take_either_sort_and_refuse_what_is_not_a_node(op):
    op(Top())
    op(Var("x"))
    with pytest.raises(TypeError) as exc:
        op("x")
    assert str(exc.value) == "not a node: 'x'"


# ---------------------------------------------------------------------------
# Parse and print


def test_parse_type_atoms():
    assert parse_type("Top") == Top()
    assert parse_type("Bot") == Bot()
    assert parse_type("x.A") == Path("x", "A")


def test_parse_type_decl():
    assert parse_type("{A: Bot .. Top}") == Decl("A", Bot(), Top())


def test_parse_all_extends_right():
    assert parse_type("all(x: Top) all(y: Top) x.A") == All(
        "x", Top(), All("y", Top(), Path("x", "A"))
    )


def test_print_type_all():
    assert print_type(All("x", Top(), Path("x", "A"))) == "all(x: Top) x.A"


def test_parse_term_forms():
    assert parse_term("x") == Var("x")
    assert parse_term("x y") == App("x", "y")
    assert parse_term("{A = Top}") == Tag("A", Top())
    assert parse_term("lam(x: Top) x y") == Lam("x", Top(), App("x", "y"))
    assert parse_term("let x = lam(y: Top) y in x x") == Let(
        "x", Lam("y", Top(), Var("y")), App("x", "x")
    )


def test_parse_comments_and_whitespace():
    text = """
    // leading comment
    {A:   Bot   ..Top}   // trailing
    """
    assert parse_type(text) == Decl("A", Bot(), Top())


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_type("{A: Bot ,, Top}")
    assert exc.value.line == 1
    assert exc.value.col > 1


def test_parse_error_on_trailing_input():
    with pytest.raises(ParseError):
        parse_type("Top Top")


def test_sizes():
    assert size(Path("x", "A")) == 1
    assert size(Decl("A", Bot(), Top())) == 3
    assert size(parse_term("let x = {A = Top} in x")) == 4


# ---------------------------------------------------------------------------
# Property tests

_vars = st.sampled_from(("x", "y", "z", "w"))
_labels = st.sampled_from(("A", "B", "C"))

_types = st.recursive(
    st.one_of(st.builds(Top), st.builds(Bot), st.builds(Path, _vars, _labels)),
    lambda inner: st.one_of(
        st.builds(Decl, _labels, inner, inner),
        st.builds(All, _vars, inner, inner),
    ),
    max_leaves=12,
)

_terms = st.recursive(
    st.one_of(st.builds(Var, _vars), st.builds(App, _vars, _vars), st.builds(Tag, _labels, _types)),
    lambda inner: st.one_of(
        st.builds(Lam, _vars, _types, inner),
        st.builds(Let, _vars, inner, inner),
    ),
    max_leaves=10,
)


def _rename_binders(t, suffix):
    """An alpha-variant with every binder renamed."""
    match t:
        case All(param=x, param_type=s, result=u):
            x2 = x + suffix
            u2 = subst_var(u, x, x2)
            return All(x2, _rename_binders(s, suffix), _rename_binders(u2, suffix))
        case Decl(label=a, lower=lo, upper=hi):
            return Decl(a, _rename_binders(lo, suffix), _rename_binders(hi, suffix))
        case _:
            return t


@given(_types)
def test_roundtrip_type(t):
    assert alpha_eq(parse_type(print_type(t)), t)


@given(_terms)
def test_roundtrip_term(t):
    assert alpha_eq(parse_term(print_term(t)), t)


@given(_types)
def test_subst_fv_bound(t):
    result = subst_var(t, "z", "y")
    assert fv(result) <= (fv(t) - {"z"}) | {"y"}


@given(_types)
def test_subst_self_is_identity(t):
    assert alpha_eq(subst_var(t, "z", "z"), t)


@given(_types)
def test_alpha_eq_reflexive(t):
    assert alpha_eq(t, t)


@given(_types, _types)
def test_alpha_eq_symmetric(a, b):
    assert alpha_eq(a, b) == alpha_eq(b, a)


@given(_types)
def test_alpha_eq_transitive_through_variants(t):
    b = _rename_binders(t, "0")
    c = _rename_binders(t, "1")
    assert alpha_eq(t, b)
    assert alpha_eq(b, c)
    assert alpha_eq(t, c)


def _nameless_type(t, depth=0):
    """Independent normal form: the binder ``depth`` binders deep is named
    ``v<depth>``, so alpha-variants and only they become equal."""
    match t:
        case All(param=x, param_type=s, result=u):
            v = f"v{depth}"
            return All(v, _nameless_type(s, depth), _nameless_type(subst_var(u, x, v), depth + 1))
        case Decl(label=a, lower=lo, upper=hi):
            return Decl(a, _nameless_type(lo, depth), _nameless_type(hi, depth))
        case _:
            return t


def _nameless_term(t, depth=0):
    match t:
        case Tag(label=a, alias=ty):
            return Tag(a, _nameless_type(ty, depth))
        case Lam(param=x, param_type=ty, body=b):
            v = f"v{depth}"
            return Lam(v, _nameless_type(ty, depth), _nameless_term(subst_var(b, x, v), depth + 1))
        case Let(bound=x, rhs=r, body=b):
            v = f"v{depth}"
            return Let(v, _nameless_term(r, depth), _nameless_term(subst_var(b, x, v), depth + 1))
        case _:
            return t


_few_vars = st.sampled_from(("x", "y"))
_few_labels = st.sampled_from(("A", "B"))


def _reshaped_type(t):
    """Types of ``t``'s shape with every name and label redrawn from two:
    pairs of them are often alpha-equivalent and otherwise differ in one
    label or in what one variable refers to."""
    match t:
        case Path():
            return st.builds(Path, _few_vars, _few_labels)
        case Decl(lower=lo, upper=hi):
            return st.builds(Decl, _few_labels, _reshaped_type(lo), _reshaped_type(hi))
        case All(param_type=s, result=u):
            return st.builds(All, _few_vars, _reshaped_type(s), _reshaped_type(u))
    return st.just(t)


def _reshaped_term(t):
    match t:
        case Var():
            return st.builds(Var, _few_vars)
        case App():
            return st.builds(App, _few_vars, _few_vars)
        case Tag(alias=ty):
            return st.builds(Tag, _few_labels, _reshaped_type(ty))
        case Lam(param_type=ty, body=b):
            return st.builds(Lam, _few_vars, _reshaped_type(ty), _reshaped_term(b))
        case Let(rhs=r, body=b):
            return st.builds(Let, _few_vars, _reshaped_term(r), _reshaped_term(b))
    return st.just(t)


# Random shapes seldom nest binders, so binder telescopes are added.
_type_shapes = st.one_of(_types, st.integers(1, 3).map(lambda n: parse_type("all(x: Top) " * n + "x.A")))
_term_shapes = st.one_of(_terms, st.integers(1, 3).map(lambda n: parse_term("lam(x: Top) " * n + "x x")))
_type_pairs = st.one_of(
    st.tuples(_types, _types),
    _types.map(lambda t: (t, _rename_binders(t, "0"))),
    _type_shapes.flatmap(lambda t: st.tuples(_reshaped_type(t), _reshaped_type(t))),
)
_term_pairs = st.one_of(
    st.tuples(_terms, _terms),
    _terms.map(lambda t: (t, _nameless_term(t))),
    _term_shapes.flatmap(lambda t: st.tuples(_reshaped_term(t), _reshaped_term(t))),
)


@settings(max_examples=300)
@given(_type_pairs)
def test_canon_separates_exactly_alpha_classes_of_types(pair):
    a, b = pair
    same = _nameless_type(a) == _nameless_type(b)
    assert alpha_eq(a, b) == same
    assert (canon(a) == canon(b)) == same


@settings(max_examples=300)
@given(_term_pairs)
def test_canon_separates_exactly_alpha_classes_of_terms(pair):
    a, b = pair
    same = _nameless_term(a) == _nameless_term(b)
    assert alpha_eq(a, b) == same
    assert (canon(a) == canon(b)) == same


@settings(max_examples=50)
@given(_types)
def test_print_is_deterministic(t):
    assert print_type(t) == print_type(t)


# ---------------------------------------------------------------------------
# Nesting bound


def _nest(depth: int) -> str:
    return "{A: Bot .. " * depth + "Top" + "}" * depth


def test_parse_accepts_nesting_up_to_the_bound():
    assert size(parse_type(_nest(MAX_NESTING))) == 2 * MAX_NESTING + 1
    lams = parse_term("lam(x: Top) " * MAX_NESTING + "x")
    assert size(lams) == 2 * MAX_NESTING + 1


@pytest.mark.parametrize(
    "parse, text",
    (
        (parse_type, _nest(MAX_NESTING + 1)),
        (parse_type, "all(x: Top) " * (MAX_NESTING + 1) + "Top"),
        (parse_term, "lam(x: Top) " * (MAX_NESTING + 1) + "x"),
        (parse_term, "let x = y in " * (MAX_NESTING + 1) + "x"),
        (parse_term, "{B = " + _nest(MAX_NESTING) + "}"),
        (parse_env, f"x : {_nest(MAX_NESTING + 1)} ;"),
    ),
)
def test_parse_refuses_nesting_past_the_bound(parse, text):
    with pytest.raises(ParseError, match=f"nested more than {MAX_NESTING} levels deep"):
        parse(text)


# ---------------------------------------------------------------------------
# Hash-consing


def _rebuild(t):
    """A structure built again, node by node, from its fields."""
    fields = [f if isinstance(f, str) else _rebuild(f) for f in (getattr(t, a) for a in t.__match_args__)]
    return type(t)(*fields)


@given(_types)
def test_types_are_built_once(t):
    assert _rebuild(t) is t
    assert parse_type(print_type(t)) is t
    assert subst_var(t, "z", "y") is subst_var(_rebuild(t), "z", "y")


@given(_terms)
def test_terms_are_built_once(t):
    assert _rebuild(t) is t
    assert parse_term(print_term(t)) is t
    assert subst_var(t, "z", "y") is subst_var(_rebuild(t), "z", "y")


@given(_types)
def test_copies_and_pickles_are_the_node(t):
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    assert pickle.loads(pickle.dumps(t)) is t


def test_nodes_are_immutable():
    t = Decl("A", Top(), Bot())
    with pytest.raises(AttributeError):
        t.label = "B"
    assert t.label == "A"


@pytest.mark.parametrize(
    "build",
    (
        lambda: Decl("a", Top(), Top()),
        lambda: Path("X", "A"),
        lambda: Path("x", "a"),
        lambda: All("1", Top(), Top()),
        lambda: Var(""),
        lambda: App("f", "X"),
        lambda: Let("x y", Var("z"), Var("z")),
        lambda: Var("in"),
        lambda: Decl("Top", Bot(), Top()),
    ),
)
def test_invalid_name_raises_and_interns_nothing(build):
    top, z = Top(), Var("z")  # noqa: F841 - keep the valid parts interned
    before = len(syntax._TABLE)
    with pytest.raises(ValueError):
        build()
    assert len(syntax._TABLE) == before


_HASHES = """
import sys
sys.path.insert(0, sys.argv[1])
junk = [object() for _ in range(int(sys.argv[2]))]
from dsub.syntax import parse_type
types = [parse_type(t) for t in ("Top", "x.A", "{A: Bot .. x.B}", "all(y: x.A) {C: y.C .. Top}")]
print([hash(t) for t in types], [types.index(t) for t in set(types)])
"""


def test_node_hashes_depend_on_structure_only():
    # with a fixed string hash seed, different allocation histories (so
    # different addresses) give the same hashes and the same set order
    src = str(FsPath(syntax.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED="0")
    outputs = {
        subprocess.run(
            [sys.executable, "-c", _HASHES, src, str(junk)], env=env, capture_output=True, text=True, check=True
        ).stdout
        for junk in (0, 1000, 33333)
    }
    assert len(outputs) == 1


@given(st.lists(st.integers(0, 10**9), min_size=1, max_size=20))
def test_dropped_nodes_leave_the_table(ns):
    # a dropped node stays, with its entry, until RETAIN newer nodes are
    # built; then it is freed and its entry leaves the table
    gc.collect()
    before = set(syntax._TABLE)
    built = [Decl("A", Path(f"v{n}", "A"), All(f"w{n}", Top(), Path(f"w{n}", "B"))) for n in ns]
    keys = set(syntax._TABLE) - before
    refs = [weakref.ref(syntax._TABLE[key]()) for key in keys]
    assert keys
    del built
    gc.collect()
    assert all(ref() is not None for ref in refs)
    prefix = f"f{uuid.uuid4().hex}_"
    for i in range(syntax.RETAIN):
        Var(f"{prefix}{i}")  # fresh, and dropped at once
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert keys.isdisjoint(syntax._TABLE)


def test_the_table_grows_by_at_most_the_retained_nodes():
    gc.collect()
    before = peak = len(syntax._TABLE)
    prefix = f"L{uuid.uuid4().hex}_"
    for i in range(3 * syntax.RETAIN):
        Decl(f"{prefix}{i}", Bot(), Top())  # closed, distinct and dropped
        peak = max(peak, len(syntax._TABLE))
    assert peak - before <= syntax.RETAIN


def test_concurrent_construction_yields_one_node_per_structure():
    # fresh labels, so every thread races to build the same new nodes
    labels = [f"L{uuid.uuid4().hex}" for _ in range(200)]
    texts = [f"all(x: {{{a}: Bot .. Top}}) {{{a}: x.{a} .. x.{a}}}" for a in labels]
    barrier = threading.Barrier(8, timeout=60)
    results = []

    def work():
        barrier.wait()
        built = []
        for a, text in zip(labels, texts):
            built.append(parse_type(text))
            built.append(Let("y", Tag(a, Decl(a, Bot(), Top())), Var("y")))
        results.append(built)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    for column in zip(*results):
        assert all(node is column[0] for node in column)


def _reads_as(text: str, kind: str) -> bool:
    """Whether the parser reads ``text``, all of it, as one variable name
    (``kind`` "ident") or one type label ("label")."""
    try:
        if kind == "ident":
            node = parse_term(text)
            return isinstance(node, Var) and node.name == text
        node = parse_type(f"x.{text}")
        return node.label == text
    except ParseError:
        return False


@given(st.text(max_size=6))
def test_is_ident_agrees_with_the_tokenizer(text):
    assert syntax.is_ident(text) == _reads_as(text, "ident")


@given(st.text(max_size=6))
def test_is_label_agrees_with_the_parser(text):
    assert syntax.is_label(text) == _reads_as(text, "label")


def test_checked_names_are_kept_boundedly():
    # each distinct name is checked once while remembered; the memo of
    # checked names never holds more than _NAMES_KEPT of them
    names = [f"n{uuid.uuid4().hex}" for _ in range(2 * syntax._NAMES_KEPT + 1)]
    assert all(syntax.is_ident(name) for name in names)
    assert all(Path(name, "L_" + name).var == name for name in names)
    assert not any(syntax.is_ident(name.upper()) for name in names)
    assert len(syntax._VARS) <= syntax._NAMES_KEPT and len(syntax._LABELS) <= syntax._NAMES_KEPT


def _builds(build) -> bool:
    try:
        build()
    except ValueError:
        return False
    return True


@example("_y", "A")
@example("_", "B_")
@example("in", "A")
@example("x", "Top")
@example("x", "Bot")
@given(*[st.text(alphabet="xyAB_1 .;éΣ", max_size=4) | st.sampled_from(("Top", "Bot", "all", "lam", "let", "in"))] * 2)
def test_names_build_exactly_when_the_parser_reads_them(word, label):
    var_ok, label_ok = _reads_as(word, "ident"), _reads_as(label, "label")
    assert _builds(lambda: Var(word)) == var_ok
    assert _builds(lambda: Path(word, label)) == (var_ok and label_ok)
    assert _builds(lambda: Decl(label, Bot(), Top())) == label_ok
    if var_ok and label_ok:
        assert parse_type(f"all({word}: Top) {word}.{label}") is All(word, Top(), Path(word, label))


def test_every_enumerated_node_prints_as_text_that_parses_back_to_it():
    enum = Enumerator(labels=("A", "B_"))
    scope = ("_v", "w1")
    types = list(enum.types(5, scope))
    terms = list(enum.terms(4, scope))
    assert len(types) > 5000 and len(terms) > 700
    for t in types:
        assert parse_type(print_type(t)) is t
    for t in terms:
        assert parse_term(print_term(t)) is t
