"""What ``dsub`` is done with is freed by reference counting: each kind of
query leaves nothing for the cyclic collector, and importing the package
again frees the earlier import.  The last ``RETAIN`` syntax nodes built are
kept, so a query asked again builds none."""

import contextlib
import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import dsub
from dsub import syntax
from dsub.cli import main
from dsub.declarative import decl_verify, elaborate_step
from dsub.dotty import make_pn, scala_sub
from dsub.environment import parse_env
from dsub.step import step_subtype, step_type
from dsub.syntax import parse_term, parse_type

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _verified(trace) -> None:
    assert decl_verify(elaborate_step(trace)).ok


def _chain(n: int = 6) -> None:
    # x0: {A: Bot..Top}, xi: {A: x(i-1).A .. x(i-1).A}; x(n-1).A <: x0.A holds, Top <: x(n-1).A not
    text = "x0 : {A: Bot .. Top} ;\n" + "".join(
        f"x{i} : {{A: x{i - 1}.A .. x{i - 1}.A}} ;\n" for i in range(1, n)
    )
    result = step_subtype(parse_env(text), parse_type(f"x{n - 1}.A"), parse_type("x0.A"))
    assert result.holds
    _verified(result.trace)
    assert not step_subtype(parse_env(text), parse_type("Top"), parse_type(f"x{n - 1}.A")).holds


def _nest(depth: int = 20) -> None:
    t = "Top"
    for _ in range(depth):
        t = f"{{A: Bot .. {t}}}"
    assert step_subtype(parse_env(""), parse_type(t), parse_type(t)).holds
    assert not step_subtype(parse_env(""), parse_type(t), parse_type(t.replace("{A: Bot .. Top}", "{B: Bot .. Top}"))).holds


def _let(n: int = 10) -> None:
    text = "".join(f"let v{i} = {{A = {f'v{i - 1}.A' if i else 'Top'}}} in " for i in range(n))
    typed = step_type(parse_env(""), parse_term(text + f"v{n - 1}"))
    assert typed
    _verified(typed.trace)


def _corpus() -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["corpus", "run", "--dir", str(CORPUS)]) == 0


def _model(n: int = 3) -> None:
    assert scala_sub(*make_pn(n)).result is False


def test_every_query_kind_leaves_nothing_for_the_cyclic_collector():
    # one query of each kind the benchmark's query mix runs, with the
    # collector off: whatever a query leaves in reference cycles, collect finds
    left = {}
    for query in (_chain, _nest, _let, _corpus, _model):
        query()  # what a process builds once (the CLI's parser) is not the query's
        gc.collect()
        gc.disable()
        try:
            query()
            left[query.__name__] = gc.collect()
        finally:
            gc.enable()
    assert left == dict.fromkeys(left, 0)


def test_a_query_asked_again_builds_no_node(monkeypatch):
    # its nodes are among the last RETAIN built, with their cached facts
    built = [0]
    build = syntax._build

    def counting(*args, **kwargs):
        built[0] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(syntax, "_build", counting)
    for query, n in ((_chain, 8), (_let, 10)):
        query(n)
        built[0] = 0
        query(n)
        assert built[0] == 0, query.__name__


_RELOAD = """
import contextlib, gc, io, sys, weakref
import dsub.cli, dsub.lab
with contextlib.redirect_stdout(io.StringIO()):
    assert dsub.cli.main(["corpus", "run", "--dir", sys.argv[1]]) == 0
syntax = sys.modules["dsub.syntax"]
first = weakref.ref(syntax.Top)
syntax.Decl("Only_in_the_first_import", syntax.Bot(), syntax.Top())
recent = weakref.ref(syntax._RECENT[-1])  # the first import's queue alone holds it
for name in [m for m in sys.modules if m == "dsub" or m.startswith("dsub.")]:
    del sys.modules[name]
del syntax
import dsub.cli, dsub.lab
gc.collect()
sys.exit(0 if first() is None and recent() is None else 1)
"""


def test_a_second_import_frees_the_first():
    src = str(Path(dsub.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", _RELOAD, str(CORPUS)], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr or "the first import's Top class or a node it built is still alive"
