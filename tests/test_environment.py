import pytest
from hypothesis import given
from hypothesis import strategies as st

from dsub.environment import (
    DuplicateBinding,
    SelfReference,
    TypeEnv,
    UnboundVariable,
    env_from_bindings,
    parse_env,
    print_env,
)
from dsub.errors import DsubError
from dsub.syntax import Bot, Decl, Path, Top


def test_empty():
    g = TypeEnv.empty()
    assert len(g) == 0
    assert g.dom() == frozenset()
    assert g.lookup("x") is None


def test_extend_and_lookup():
    g = TypeEnv.empty().extend("x", Top())
    assert g.lookup("x") == Top()
    assert g.lookup("y") is None
    g2 = g.extend("y", Path("x", "A"))
    assert g2.lookup("y") == Path("x", "A")
    # extension does not mutate the original
    assert g.lookup("y") is None


def test_extend_rejects_duplicates():
    g = TypeEnv.empty().extend("x", Top())
    with pytest.raises(DuplicateBinding):
        g.extend("x", Bot())


def test_extend_rejects_self_reference():
    with pytest.raises(SelfReference):
        TypeEnv.empty().extend("x", Path("x", "A"))


def test_extend_rejects_forward_references():
    # closed scoping: a stored type may only mention earlier bindings
    with pytest.raises(UnboundVariable):
        TypeEnv.empty().extend("x", Path("y", "A"))


@pytest.mark.parametrize("name", ("b:{A:T..B};c", "x;y", "x:T", "", "A", "all", "1x", "x y", " x", "x.A"))
def test_extend_rejects_what_is_not_a_variable_name(name):
    # a name holding ':' or ';' could render the same environment key as
    # other bindings, so extension admits only names the parser reads
    with pytest.raises(DsubError, match="not a variable name"):
        TypeEnv.empty().extend(name, Top())


@given(st.text(alphabet="xyAB1_ :;.{}/", max_size=6))
def test_extend_admits_exactly_the_names_the_parser_reads(name):
    try:
        parsed = parse_env(f"{name} : Top ;")
        reads_as_one_name = [x for x, _ in parsed] == [name]
    except DsubError:
        reads_as_one_name = False
    try:
        TypeEnv.empty().extend(name, Top())
        admitted = True
    except DsubError:
        admitted = False
    assert admitted == reads_as_one_name


def test_split_at():
    g = TypeEnv.empty().extend("x", Top()).extend("y", Bot())
    prefix, ty, suffix = g.split_at("y")
    assert prefix.bindings == (("x", Top()),)
    assert ty == Bot()
    assert suffix.bindings == ()
    prefix, ty, suffix = g.split_at("x")
    assert prefix.bindings == ()
    assert ty == Top()
    assert suffix.bindings == (("y", Bot()),)
    assert TypeEnv.empty().split_at("x") is None


def test_split_of_extension():
    g = TypeEnv.empty().extend("x", Top())
    extended = g.extend("y", Bot())
    assert extended.split_at("y") == (g, Bot(), TypeEnv.empty())


def test_bindings_satisfy_wellformedness():
    g = env_from_bindings(
        [("x", Decl("A", Bot(), Top())), ("y", Path("x", "A")), ("z", Top())]
    )
    for i, (x, ty) in enumerate(g.bindings):
        prefix = TypeEnv(g.bindings[:i])
        assert x not in prefix.dom()
        from dsub.syntax import fv_type

        assert fv_type(ty) <= prefix.dom()


def test_env_file_roundtrip():
    g = env_from_bindings([("x", Decl("A", Bot(), Top())), ("y", Path("x", "A"))])
    text = print_env(g)
    assert parse_env(text) == g
    assert "x : {A: Bot .. Top} ;" in text


def test_env_file_comments():
    g = parse_env("// a comment\nx : Top ;\n")
    assert g.lookup("x") == Top()
