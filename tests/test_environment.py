import sys
import threading
import tracemalloc

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
)
from dsub.errors import DsubError
from dsub.syntax import Bot, Decl, Path, Top, print_type


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


def test_fresh_renames_only_a_binder_that_would_clash():
    g = env_from_bindings((("x", Top()), ("x1", Top()), ("y", Top())))
    assert g.fresh("z") == "z"
    assert g.fresh("z", {"x", "w"}) == "z"
    assert g.fresh("w", {"w"}) == "w1"  # among the scope's other free variables
    assert g.fresh("x") == "x2"  # the least x<n> the environment does not bind
    assert g.fresh("x", {"x2", "x4"}) == "x3"
    assert g.fresh("y", {"y1"}) == "y2"


def test_binding_gives_prefix_and_type():
    g = TypeEnv.empty().extend("x", Top()).extend("y", Bot())
    prefix, ty = g.binding("y")
    assert prefix.bindings == (("x", Top()),)
    assert ty == Bot()
    prefix, ty = g.binding("x")
    assert prefix.bindings == ()
    assert ty == Top()
    assert TypeEnv.empty().binding("x") is None
    # an environment rebuilt from the same bindings shares no prefixes
    prefix, ty = env_from_bindings(g.bindings).binding("y")
    assert (prefix.bindings, ty) == ((("x", Top()),), Bot())


def test_binding_of_extension_shares_the_prefix():
    g = TypeEnv.empty().extend("x", Top())
    extended = g.extend("y", Bot())
    prefix, ty = extended.binding("y")
    assert prefix is g and ty == Bot()
    assert extended.parent is g
    assert env_from_bindings(extended.bindings).parent.bindings == g.bindings
    assert TypeEnv.empty().parent is None


def test_bindings_satisfy_wellformedness():
    g = env_from_bindings(
        [("x", Decl("A", Bot(), Top())), ("y", Path("x", "A")), ("z", Top())]
    )
    for i, (x, ty) in enumerate(g.bindings):
        prefix = env_from_bindings(g.bindings[:i])
        assert x not in prefix.dom()
        from dsub.syntax import fv

        assert fv(ty) <= prefix.dom()


def print_env(g: TypeEnv) -> str:
    """Render in the environment file format: one ``x : T ;`` line per binding."""
    return "".join(f"{x} : {print_type(t)} ;\n" for x, t in g.bindings)


def test_env_file_roundtrip():
    g = env_from_bindings([("x", Decl("A", Bot(), Top())), ("y", Path("x", "A"))])
    text = print_env(g)
    assert parse_env(text).bindings == g.bindings
    assert "x : {A: Bot .. Top} ;" in text


def test_env_file_comments():
    g = parse_env("// a comment\nx : Top ;\n")
    assert g.lookup("x") == Top()


def test_extensions_of_one_environment_stay_apart():
    # extensions share their prefix's index; each sees only its own names
    g = TypeEnv.empty().extend("x", Top())
    a = g.extend("y", Bot())
    b = g.extend("z", Top())
    assert "y" in a and "z" not in a
    assert "z" in b and "y" not in b
    assert "y" not in g and "z" not in g and g.dom() == {"x"}
    c = a.extend("z", Bot())  # z at the position b binds it at
    assert (b.lookup("z"), c.lookup("z")) == (Top(), Bot())
    assert b.unbound({"x", "y", "z"}) == {"y"}
    assert c.binding("z") == (a, Bot())
    for env, free, loose in ((g, {"x", "y"}, "y"), (a, {"z"}, "z"), (b, {"y", "w"}, "w, y")):
        env.check_scope("type", frozenset(free - set(loose.split(", "))))
        with pytest.raises(UnboundVariable, match=f"^type mentions unbound variable\\(s\\): {loose}$"):
            env.check_scope("type", frozenset(free))


def test_concurrent_extensions_keep_each_scope():
    # threads extend one environment while checking scopes in it and in
    # their extensions: a name bound only by an extension is never in scope
    # of the environment it extends
    base = env_from_bindings([("x", Top())])
    barrier = threading.Barrier(8, timeout=60)
    leaks, done = [], []

    def work(k):
        barrier.wait()
        for i in range(200):
            name = f"v{k}_{i}"
            base.extend(name, Top()).check_scope("type", frozenset((name, "x")))
            try:
                base.check_scope("type", frozenset((name,)))
                leaks.append(name)
            except UnboundVariable:
                pass
        done.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == list(range(8)) and leaks == []


def test_long_environments_take_linear_time_and_memory():
    def peak_bytes(n: int) -> int:
        pairs = [(f"x{i}", Top()) for i in range(n)]
        tracemalloc.start()
        g = env_from_bindings(pairs)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        prefix, _ = g.binding(f"x{n // 2}")
        assert len(prefix) == n // 2 and f"x{n // 2}" not in prefix and g.lookup("x0") == Top()
        return peak

    assert peak_bytes(4000) <= 2.5 * peak_bytes(2000)
