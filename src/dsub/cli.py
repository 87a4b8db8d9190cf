"""Command-line entry point.

Exit codes: 0 for a positive result (typed, subtype holds, exposed,
derivation valid/found, harness clean), 1 for a negative result (untypable,
not a subtype, stuck, invalid derivation, search unknown, violations found,
corpus mismatch), 2 for usage, parse, or I/O errors, a type argument of
``sub``, ``expose``, ``promote``, ``demote`` or ``decl search`` that
mentions a variable the environment does not bind, a ``--var`` that is not
a variable name, malformed derivation JSON and input nested too deeply to
check, 3 for an internal error (a violated invariant such as a
termination measure that failed to decrease, or a recursion-depth valve
that fired, i.e. a bug).  Machine output (types, JSON, CSV) goes to stdout;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path as FsPath

from . import __version__
from .bounds_shift import demote, promote
from .declarative import (
    MAX_FUEL,
    SubJ,
    TypJ,
    decl_search,
    decl_verify,
    derivation_from_json,
    derivation_to_json,
)
from .dotty import MAX_N, bench_pn
from .environment import TypeEnv, check_var_name, parse_env
from .errors import DsubError
from .exposure import expose
from .lab import MAX_SIZE, check_no_tag_switch, check_wellbehaved, run_minimality_counterexample
from .step import step_subtype, step_type
from .syntax import Term, Type, alpha_eq, fv, parse_term, parse_type, print_type


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as
    it was, so every call of :func:`main` can share it."""
    parser = argparse.ArgumentParser(prog="dsub", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dsub {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--version", action="version", version=f"dsub {__version__}")
        return p

    p = verb("check", help="step-type a term file")
    p.add_argument("file")
    p.add_argument("--env", help="environment file")
    p.add_argument("--emit-trace", metavar="OUT.json", help="write the typing trace as JSON")

    p = verb("sub", help="decide step subtyping between two types")
    p.add_argument("--env", help="environment file")
    p.add_argument("lhs")
    p.add_argument("rhs")

    p = verb("expose", help="expose a type to a non-path supertype")
    p.add_argument("--env", help="environment file")
    p.add_argument("type")

    for name in ("promote", "demote"):
        p = verb(name, help=f"{name} a type away from a variable")
        p.add_argument("--env", help="environment file")
        p.add_argument("--var", required=True, help="variable to erase")
        p.add_argument("type")

    p = verb("decl", help="declarative derivation checker and search")
    decl_sub = p.add_subparsers(dest="decl_verb", required=True)
    pv = decl_sub.add_parser("verify", help="check a derivation JSON file")
    pv.add_argument("file")
    ps = decl_sub.add_parser("search", help="fuel-bounded derivation search")
    ps.add_argument("--env", help="environment file")
    ps.add_argument("--fuel", type=_up_to(MAX_FUEL, "fuel"), required=True, help=f"search depth, 1 to {MAX_FUEL}")
    group = ps.add_mutually_exclusive_group(required=True)
    group.add_argument("--sub", nargs=2, metavar=("S", "T"), help="subtyping goal")
    group.add_argument("--typ", nargs=2, metavar=("FILE", "T"), help="typing goal: term file and type")

    p = verb("lab", help="metatheory harnesses")
    lab_sub = p.add_subparsers(dest="lab_verb", required=True)
    pc = lab_sub.add_parser("colours", help="well-behavedness falsification suite")
    pt = lab_sub.add_parser("tags", help="no-tag-switch falsification suite")
    for p in (pc, pt):
        p.add_argument(
            "--max-size", type=_up_to(MAX_SIZE, "size"), default=4, help=f"largest type in the universe, 1 to {MAX_SIZE}"
        )
        p.add_argument("--fuel", type=_up_to(MAX_FUEL, "fuel"), default=6, help=f"search depth, 1 to {MAX_FUEL}")
    lab_sub.add_parser("minimality", help="minimal-typing counterexample report")

    p = verb("bench", help="worst-case benchmarks")
    bench_sub = p.add_subparsers(dest="bench_verb", required=True)
    pb = bench_sub.add_parser("pn", help="two-chain exponential family")
    pb.add_argument("--min", type=_up_to(MAX_N, "N"), default=1)
    pb.add_argument("--max", type=_up_to(MAX_N, "N"), default=16)
    pb.add_argument(
        "--metric", choices=("calls", "nanos"), default="calls",
        help="calls the plain recursion makes, or nanos the memoised model counting them takes "
        "(column model_nanos)",
    )
    pb.add_argument("--out", help="write CSV here instead of stdout")

    p = verb("corpus", help="golden corpus")
    corpus_sub = p.add_subparsers(dest="corpus_verb", required=True)
    pr = corpus_sub.add_parser("run", help="run every corpus case")
    pr.add_argument("--dir", default="corpus", help="corpus directory (default: ./corpus)")

    return parser


def _up_to(maximum: int, what: str):
    """An argparse type: a whole number from 1 to ``maximum``, the
    ``what`` (fuel, N, size) an error names."""

    def whole(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < 1:
            raise argparse.ArgumentTypeError(f"{n} is less than 1")
        if n > maximum:
            raise argparse.ArgumentTypeError(f"{what} {n} is more than the maximum, {maximum}")
        return n

    return whole


def _load_env(path) -> TypeEnv:
    if path is None:
        return TypeEnv.empty()
    return parse_env(FsPath(path).read_text())


def _load_types(env: TypeEnv, *texts: str) -> tuple:
    """The type arguments of a query, parsed and refused, as
    :meth:`TypeEnv.extend` refuses them, when they mention a variable
    ``env`` does not bind: such a query has no answer to give."""
    types = tuple(map(parse_type, texts))
    env.check_scope("type", frozenset().union(*map(fv, types)))
    return types


_TOO_DEEP = "input is nested too deeply"


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 for --help/--version, 2 on usage
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except (DsubError, OSError, ValueError, json.JSONDecodeError) as exc:
        _diag(f"dsub: error: {exc}")
        return 2
    except RecursionError:  # a backstop: the parser bounds nesting first
        _diag(f"dsub: error: {_TOO_DEEP}")
        return 2
    except Exception as exc:  # a bug, never an answer: no traceback, no exit 1
        _diag(f"dsub: internal error: {type(exc).__name__}: {exc}")
        return 3


def _dispatch(args) -> int:
    handler = {
        "check": _cmd_check,
        "sub": _cmd_sub,
        "expose": _cmd_expose,
        "promote": _cmd_shift,
        "demote": _cmd_shift,
        "decl": _cmd_decl,
        "lab": _cmd_lab,
        "bench": _cmd_bench,
        "corpus": _cmd_corpus,
    }[args.verb]
    return handler(args)


# ---------------------------------------------------------------------------
# Decisions of check, sub and decl verify, which the verb and the corpus
# runner both call.  Each takes parsed input to the relation's outcome
# (truthy when it holds), the answer as a corpus case states it, and why a
# negative answer is negative ("" for a positive one).


def _typing(env: TypeEnv, term: Term) -> tuple:
    outcome = step_type(env, term)
    if outcome:
        return outcome, f"typed {print_type(outcome.ty)}", ""
    return outcome, "untypable", outcome.describe()


def _subtyping(env: TypeEnv, lhs: Type, rhs: Type) -> tuple:
    result = step_subtype(env, lhs, rhs)
    if result:
        return result, "subtype", ""
    return result, "not-subtype", f"{print_type(lhs)} <: {print_type(rhs)} does not hold"


def _verifying(tree) -> tuple:
    result = decl_verify(tree)
    if result:
        return result, "valid", ""
    return result, "invalid", f"{result.path}: {result.message}"


def _reply(outcome, answer: str, why: str) -> int:
    """Print a decision's answer, and why to stderr when it is negative."""
    print(answer)
    if why:
        _diag(why)
    return 0 if outcome else 1


def _cmd_check(args) -> int:
    outcome, answer, why = _typing(_load_env(args.env), parse_term(FsPath(args.file).read_text()))
    if not outcome:
        _diag(f"{answer}: {why}")
        return 1
    if args.emit_trace:
        FsPath(args.emit_trace).write_text(json.dumps(derivation_to_json(outcome.trace), indent=2) + "\n")
    print(print_type(outcome.ty))
    return 0


def _cmd_sub(args) -> int:
    env = _load_env(args.env)
    return _reply(*_subtyping(env, *_load_types(env, args.lhs, args.rhs)))


def _cmd_expose(args) -> int:
    env = _load_env(args.env)
    (t,) = _load_types(env, args.type)
    result = expose(env, t)
    if not result:
        print(f"stuck: {print_type(result.blocker)}")
        return 1
    print(print_type(result.ty))
    return 0


def _cmd_shift(args) -> int:
    env = _load_env(args.env)
    (t,) = _load_types(env, args.type)
    check_var_name(args.var)
    op = promote if args.verb == "promote" else demote
    result = op(env, t, args.var)
    if not result:
        _diag(result.reason)
        return 1
    print(print_type(result.ty))
    return 0


def _cmd_decl(args) -> int:
    if args.decl_verb == "verify":
        return _reply(*_verifying(derivation_from_json(json.loads(FsPath(args.file).read_text()))))

    env = _load_env(args.env)
    if args.sub is not None:
        goal = SubJ(env, *_load_types(env, *args.sub))
    else:
        term = parse_term(FsPath(args.typ[0]).read_text())
        goal = TypJ(env, term, *_load_types(env, args.typ[1]))
    tree = decl_search(goal, args.fuel)
    if tree is None:
        _diag(f"no derivation found within fuel {args.fuel} (not a refutation)")
        print("unknown")
        return 1
    print(json.dumps(derivation_to_json(tree), indent=2))
    return 0


def _cmd_lab(args) -> int:
    if args.lab_verb == "minimality":
        report = run_minimality_counterexample()
        print(report.render())
        return 0 if report.ok else 1
    harness = check_wellbehaved if args.lab_verb == "colours" else check_no_tag_switch
    report = harness(max_size=args.max_size, fuel=args.fuel)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    lines = ["n,model_nanos" if args.metric == "nanos" else "n,calls"]
    lines += [f"{n},{value}" for n, value in bench_pn(args.min, args.max, args.metric)]
    text = "\n".join(lines) + "\n"
    if args.out:
        FsPath(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# Corpus runner


def _corpus_headers(text: str) -> dict:
    headers = {}
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped.startswith("//!"):
            break
        key, _, value = stripped[3:].partition(":")
        headers[key.strip()] = value.strip()
    return headers


def _decide_case(path: FsPath) -> tuple:
    """A corpus case's decision by its verb, and the answer the case expects."""
    text = path.read_text()
    if path.suffix == ".json":
        data = json.loads(text)
        decision, expect = _verifying(derivation_from_json(data)), data.get("expect")
        if expect is not None and not isinstance(expect, str):
            raise DsubError(f'"expect" must be a string, found {json.dumps(expect)}')
        return decision, expect
    headers = _corpus_headers(text)
    env = _load_env(path.parent / headers["env"] if "env" in headers else None)
    if path.suffix == ".dsub":
        return _typing(env, parse_term(text)), headers.get("expect")
    types = [line for line in (raw.split("//")[0].strip() for raw in text.splitlines()) if line]
    if len(types) != 2:
        raise DsubError(f"expected exactly two type lines, found {len(types)}")
    return _subtyping(env, *_load_types(env, *types)), headers.get("expect")


def _mismatch(decision: tuple, expect) -> str:
    """Why a decision is not the answer a case expects ("" if it is); an
    expected type agrees with any alpha-equivalent one."""
    outcome, answer, why = decision
    if not expect:
        raise DsubError("case states no expectation")
    if expect.startswith("typed ") and answer.startswith("typed "):
        agrees = alpha_eq(parse_type(expect[len("typed ") :]), outcome.ty)
    else:
        agrees = expect == answer
    return "" if agrees else f"expected {expect}, got {answer}" + (f": {why}" if why else "")


def corpus_run(directory) -> int:
    root = FsPath(directory)
    if not root.is_dir():
        if root.exists():
            raise DsubError(f"corpus path {root} is not a directory")
        raise DsubError(f"corpus directory {root} does not exist")
    cases = sorted(p for p in root.iterdir() if p.suffix in (".dsub", ".sub", ".json"))
    if not cases:
        raise DsubError(f"corpus directory {root} contains no cases")
    failures = 0
    for path in cases:
        try:
            detail = _mismatch(*_decide_case(path))
        except (DsubError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            detail = f"error: {exc}"
        except RecursionError:
            detail = f"error: {_TOO_DEEP}"
        if detail:
            failures += 1
            print(f"FAIL  {path.name}: {detail}")
        else:
            print(f"ok    {path.name}")
    print(f"{len(cases) - failures}/{len(cases)} corpus cases passed")
    return 1 if failures else 0


def _cmd_corpus(args) -> int:
    return corpus_run(args.dir)


if __name__ == "__main__":
    sys.exit(main())
