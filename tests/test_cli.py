import argparse
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import dsub
import dsub.bounds_shift
import dsub.cli
import dsub.step
from dsub.cli import main
from dsub.declarative import _ELABORATORS, MAX_FUEL, elaborate_step
from dsub.dotty import MAX_N
from dsub.environment import parse_env
from dsub.lab import MAX_SIZE, Enumerator
from dsub.step import step_type
from dsub.syntax import MAX_NESTING, parse_term, print_term, print_type
from dsub.trace import derivation_to_json

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"
ENV = str(CORPUS / "bad_bounds.env")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check


def test_check_typed(capsys):
    code, out, err = run(capsys, "check", str(CORPUS / "minimality_body.dsub"), "--env", ENV)
    assert code == 0
    assert out == "{V: Top .. Top}\n"


def test_check_untypable(capsys):
    code, out, err = run(capsys, "check", str(CORPUS / "app_of_top.dsub"))
    assert code == 1
    assert out == ""
    assert "untypable" in err


def test_check_missing_file(capsys):
    code, out, err = run(capsys, "check", "no-such-file.dsub")
    assert code == 2
    assert "error" in err


def test_check_emit_trace(tmp_path, capsys):
    trace_file = tmp_path / "trace.json"
    code, out, _ = run(
        capsys,
        "check",
        str(CORPUS / "minimality_body.dsub"),
        "--env",
        ENV,
        "--emit-trace",
        str(trace_file),
    )
    assert code == 0
    data = json.loads(trace_file.read_text())

    def walk(node):
        assert node["rule"] in _ELABORATORS
        assert node["judgment"]["kind"] in ("sub", "typ", "expose", "promote", "demote")
        for child in node["premises"]:
            walk(child)

    walk(data)
    assert data["rule"] == "T-Let"


def test_check_output_byte_stable(capsys):
    first = run(capsys, "check", str(CORPUS / "minimality_term.dsub"))
    second = run(capsys, "check", str(CORPUS / "minimality_term.dsub"))
    assert first == second


@pytest.mark.parametrize("term", ("lam(x: Top) x1", "let x = {A = Top} in x1", "lam(y: Top) x1"))
def test_check_opens_binders_fresh_for_the_body(tmp_path, capsys, term):
    # x is bound, so the binder is renamed; the new name must not capture
    # the body's free x1, which stays unbound: a negative answer, exit 1
    (tmp_path / "x.env").write_text("x : Top ;\n")
    (tmp_path / "t.dsub").write_text(term + "\n")
    code, out, err = run(capsys, "check", str(tmp_path / "t.dsub"), "--env", str(tmp_path / "x.env"))
    assert (code, out, err) == (1, "", "untypable: body: unbound variable 'x1'\n")


def test_check_reads_every_name_the_parser_reads(tmp_path, capsys):
    (tmp_path / "t.dsub").write_text("lam(_y: Top) _y\n")
    assert run(capsys, "check", str(tmp_path / "t.dsub")) == (0, "all(_y: Top) Top\n", "")


@pytest.mark.parametrize(
    "case, env",
    [("minimality_body", ENV), ("app_of_bot", None), ("minimality_term", None)],
)
def test_emit_trace_matches_golden(tmp_path, capsys, case, env):
    trace_file = tmp_path / "trace.json"
    argv = ["check", str(CORPUS / f"{case}.dsub"), "--emit-trace", str(trace_file)]
    if env is not None:
        argv += ["--env", env]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert trace_file.read_bytes() == (GOLDEN / f"{case}.trace.json").read_bytes()


# ---------------------------------------------------------------------------
# sub / expose / promote / demote


def test_sub_positive(capsys):
    code, out, _ = run(capsys, "sub", "Bot", "Top")
    assert code == 0 and out == "subtype\n"


def test_sub_negative(capsys):
    code, out, _ = run(
        capsys, "sub", "--env", ENV, "{V: Top .. Top}", "{Z: Top .. Top}"
    )
    assert code == 1 and out == "not-subtype\n"


def test_sub_parse_error(capsys):
    code, _, err = run(capsys, "sub", "Bot", "{A: ..}")
    assert code == 2 and "error" in err


def _nested_decl(depth: int, innermost: str = "Top") -> str:
    return "{A: Bot .. " * depth + innermost + "}" * depth


def test_sub_deep_input_is_an_error_not_a_negative_answer(capsys):
    code, out, err = run(capsys, "sub", _nested_decl(300), _nested_decl(300))
    assert (code, out, err) == (0, "subtype\n", "")
    code, out, err = run(capsys, "sub", _nested_decl(600), _nested_decl(600))
    assert (code, out) == (2, "")
    assert err.startswith("dsub: error: ") and "Traceback" not in err


_DEEP_VERBS = (
    "check-lets",
    "check-env",
    "check-trace",
    "sub",
    "sub-env",
    "expose",
    "promote",
    "demote",
    "decl-verify",
    "decl-search-sub",
    "decl-search-typ",
)


def _deep_argv(tmp_path, depth: int) -> dict:
    """For every verb that reads syntax, an invocation whose input is nested
    ``depth`` levels deep, and its (exit status, stdout) when decided."""
    nest = _nested_decl(depth)
    inner = _nested_decl(depth - 1)
    env = tmp_path / "deep.env"
    env.write_text(f"y : {nest} ;\n")
    var_env = tmp_path / "var.env"
    var_env.write_text("x : {A: Bot .. Top} ;\n")
    lets = tmp_path / "lets.dsub"  # depth - 1 lets; the last tag's alias is deepest
    lets.write_text(
        "".join(f"let v{i} = {{A = {f'v{i - 1}.A' if i else 'Top'}}} in " for i in range(depth - 1))
        + f"v{depth - 2}"
    )
    tag = tmp_path / "tag.dsub"
    tag.write_text(f"{{B = {inner}}}")
    refl = tmp_path / "refl.json"
    judgment = {"kind": "sub", "env": [], "lhs": nest, "rhs": nest}
    refl.write_text(json.dumps({"rule": "Refl", "judgment": judgment, "premises": []}))
    on_x = "{A: Bot .. " * depth + "x.A" + "}" * depth
    tag_type = f"{{B: {inner} .. {inner}}}"
    return {
        "check-lets": (["check", str(lets)], (0, "{A: Top .. Top}\n")),
        "check-env": (["check", str(tag), "--env", str(env)], (0, tag_type + "\n")),
        "check-trace": (["check", str(tag), "--emit-trace", str(tmp_path / "t.json")], (0, tag_type + "\n")),
        "sub": (["sub", nest, nest], (0, "subtype\n")),
        "sub-env": (["sub", "--env", str(env), "y.A", "y.A"], (0, "subtype\n")),
        "expose": (["expose", nest], (0, nest + "\n")),
        "promote": (["promote", "--env", str(var_env), "--var", "x", on_x], (0, nest + "\n")),
        "demote": (["demote", "--env", str(var_env), "--var", "x", on_x], (0, _nested_decl(depth, "Bot") + "\n")),
        "decl-verify": (["decl", "verify", str(refl)], (0, "valid\n")),
        "decl-search-sub": (["decl", "search", "--fuel", "1", "--sub", nest, nest], (0, None)),
        "decl-search-typ": (["decl", "search", "--fuel", "1", "--typ", str(tag), tag_type], (0, None)),
    }


@pytest.mark.parametrize("verb", _DEEP_VERBS)
def test_every_verb_decides_at_the_nesting_bound(capsys, tmp_path, verb):
    argv, (want_code, want_out) = _deep_argv(tmp_path, MAX_NESTING)[verb]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (want_code, "")
    if want_out is not None:
        assert out == want_out


@pytest.mark.parametrize("verb", _DEEP_VERBS)
def test_every_verb_refuses_input_past_the_nesting_bound(capsys, tmp_path, verb):
    argv, _ = _deep_argv(tmp_path, MAX_NESTING + 1)[verb]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("dsub: error: ") and err.endswith(f"input is nested more than {MAX_NESTING} levels deep\n")
    assert "Traceback" not in err


def test_a_long_flat_chain_is_decided_or_refused_with_exit_2(capsys, tmp_path):
    # x0 : {A: Top .. Top}, xi : {A: x(i-1).A .. x(i-1).A}: no line nests
    # past two levels, but sub and expose walk the chain on the Python stack,
    # and refuse it as too deep where the recursion limit falls, naming that
    # limit rather than a nesting the input does not reach
    env = tmp_path / "chain.env"
    links = "".join(f"x{i} : {{A: x{i - 1}.A .. x{i - 1}.A}} ;\n" for i in range(1, 2000))
    env.write_text("x0 : {A: Top .. Top} ;\n" + links)
    for argv in (["sub", "--env", str(env), "x1999.A", "x0.A"], ["expose", "--env", str(env), "x1999.A"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == "dsub: error: input is too deep for Python's recursion limit\n", argv
        assert "nested" not in err
    assert run(capsys, "promote", "--env", str(env), "--var", "x1999", "x1999.A") == (0, "x1998.A\n", "")
    term = tmp_path / "x.dsub"
    term.write_text("x1999\n")
    assert run(capsys, "check", str(term), "--env", str(env)) == (0, "{A: x1998.A .. x1998.A}\n", "")


def test_expose_positive(capsys):
    code, out, _ = run(capsys, "expose", "--env", ENV, "e.E")
    assert code == 0
    assert out == "all(b: {V: Top .. Top}) {Z: Top .. Top}\n"


def test_expose_stuck(capsys, tmp_path):
    env = tmp_path / "env"
    env.write_text("x : Top ;\n")
    code, out, _ = run(capsys, "expose", "--env", str(env), "x.A")
    assert code == 1
    assert out == "stuck: Top\n"


def test_promote_and_demote(capsys):
    code, out, _ = run(capsys, "promote", "--env", ENV, "--var", "e", "e.E")
    assert code == 0 and out == "all(b: {V: Top .. Top}) {Z: Top .. Top}\n"
    code, out, _ = run(capsys, "demote", "--env", ENV, "--var", "e", "e.E")
    assert code == 0 and out == "all(b: {V: Top .. Top}) {V: Top .. Top}\n"


def test_promote_stuck(capsys, tmp_path):
    env = tmp_path / "env"
    env.write_text("x : Top ;\n")
    code, out, err = run(capsys, "promote", "--env", str(env), "--var", "x", "x.A")
    assert code == 1 and out == ""


# the two forms of a stuck selection: its head is stuck itself (s.A, on
# w.B), or its head exposes to a type that is not a declaration (v.A)
_STUCK_ENV = "w : {A: Top .. Top} ;\ns : w.B ;\nv : all(q: Top) Top ;\n"


@pytest.mark.parametrize(
    "argv, want",
    (
        (("promote", "--var", "s", "s.A"), (1, "", "cannot promote s.A: w.B blocked on {A: Top .. Top}\n")),
        (("promote", "--var", "v", "{A: v.A .. Top}"), (1, "", "cannot demote v.A: head exposes to all(q: Top) Top\n")),
        (("expose", "s.A"), (1, "stuck: {A: Top .. Top}\n", "")),
        (("sub", "w.A", "s.A"), (1, "not-subtype\n", "w.A <: s.A does not hold\n")),
        (("sub", "v.A", "Bot"), (1, "not-subtype\n", "v.A <: Bot does not hold\n")),
    ),
)
def test_stuck_selection_diagnostics(capsys, tmp_path, argv, want):
    env = tmp_path / "stuck.env"
    env.write_text(_STUCK_ENV)
    verb, *rest = argv
    assert run(capsys, verb, "--env", str(env), *rest) == want


# a type that mentions an unbound variable, or a --var that is no variable
# name, is a usage error (exit 2), never a negative answer (exit 1) nor an
# answer echoed back (exit 0); ENV stands for the environment file
_ILL_SCOPED = "all(w: q.A) {C: y.C .. Top}"
_UNBOUND_Q = "type mentions unbound variable(s): q"


@pytest.mark.parametrize(
    "argv, message",
    (
        pytest.param(("sub", "--env", "ENV", _ILL_SCOPED, "{C: y.B .. y.A}"), _UNBOUND_Q, id="sub"),
        pytest.param(("expose", "--env", "ENV", _ILL_SCOPED), _UNBOUND_Q, id="expose"),
        pytest.param(("promote", "--env", "ENV", "--var", "y", _ILL_SCOPED), _UNBOUND_Q, id="promote"),
        pytest.param(("demote", "--env", "ENV", "--var", "y", _ILL_SCOPED), _UNBOUND_Q, id="demote"),
        pytest.param(
            ("decl", "search", "--env", "ENV", "--fuel", "3", "--sub", _ILL_SCOPED, "y.A"),
            _UNBOUND_Q,
            id="decl-search-sub",
        ),
        pytest.param(
            ("decl", "search", "--env", "ENV", "--fuel", "3", "--sub", "r.B", "{C: y.B .. p.A}"),
            "type mentions unbound variable(s): p, r",
            id="decl-search-sub-both",
        ),
        pytest.param(
            ("decl", "search", "--env", "ENV", "--fuel", "3", "--typ", "TERM", _ILL_SCOPED),
            _UNBOUND_Q,
            id="decl-search-typ",
        ),
        pytest.param(("promote", "--env", "ENV", "--var", "a b", "y.A"), "'a b' is not a variable name", id="promote-var"),
        pytest.param(("demote", "--env", "ENV", "--var", "Y", "y.A"), "'Y' is not a variable name", id="demote-var"),
        pytest.param(("promote", "--env", "ENV", "--var", "in", "y.A"), "'in' is not a variable name", id="promote-kw"),
        pytest.param(("demote", "--env", "ENV", "--var", "", "y.A"), "'' is not a variable name", id="demote-empty"),
    ),
)
def test_ill_scoped_type_is_a_usage_error(capsys, tmp_path, argv, message):
    env = tmp_path / "g.env"
    env.write_text("y : {A: Bot .. Top} ;\n")
    term = tmp_path / "t.dsub"
    term.write_text("y\n")
    argv = [{"ENV": str(env), "TERM": str(term)}.get(a, a) for a in argv]
    assert run(capsys, *argv) == (2, "", f"dsub: error: {message}\n")


# ---------------------------------------------------------------------------
# decl


def test_decl_verify_valid(capsys):
    code, out, _ = run(capsys, "decl", "verify", str(CORPUS / "fun_bounds_bridge.json"))
    assert code == 0 and out == "valid\n"


def test_decl_verify_invalid(capsys):
    code, out, err = run(
        capsys, "decl", "verify", str(CORPUS / "top_concluding_backwards.json")
    )
    assert code == 1 and out == "invalid\n"
    assert "Top" in err


@pytest.mark.parametrize(
    "text",
    (
        pytest.param("{not json", id="not-json"),
        pytest.param('{"judgment": {}}', id="no-rule"),
        pytest.param("[1, 2]", id="not-an-object"),
        pytest.param(
            '{"rule": "Bot", "judgment": {"kind": "sub", "env": [], "lhs": "Bot"}}', id="sub-without-rhs"
        ),
        pytest.param(
            '{"rule": "Top", "judgment": {"kind": "sub", "env": [["x;y", "Top"]], "lhs": "Top", "rhs": "Top"}}',
            id="binding-name-not-a-variable",
        ),
    ),
)
def test_decl_verify_malformed_json(capsys, tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run(capsys, "decl", "verify", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("dsub: error: ") and "Traceback" not in err


def test_decl_search_found(capsys):
    # the README example; the output bytes are pinned in tests/golden
    code, out, err = run(
        capsys,
        "decl",
        "search",
        "--env",
        ENV,
        "--fuel",
        "6",
        "--sub",
        "all(b: {V: Top .. Top}) {V: Top .. Top}",
        "all(b: {V: Top .. Top}) {Z: Top .. Top}",
    )
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["rule"] == "Trans"
    assert out == (GOLDEN / "decl_search_readme.json").read_text()


def test_decl_search_unknown(capsys):
    code, out, err = run(capsys, "decl", "search", "--fuel", "8", "--sub", "Top", "Bot")
    assert code == 1 and out == "unknown\n"
    assert "not a refutation" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["decl", "search", "--fuel", "0", "--sub", "Bot", "Top"],
        ["decl", "search", "--fuel", "-1", "--sub", "Bot", "Top"],
        ["lab", "tags", "--fuel", "0"],
        ["lab", "tags", "--max-size", "0"],
        ["lab", "colours", "--fuel", "0"],
        ["lab", "colours", "--max-size", "-2"],
        ["lab", "tags", "--fuel", str(MAX_FUEL + 1)],
        ["lab", "tags", "--max-size", str(MAX_SIZE + 1)],
        ["lab", "colours", "--max-size", str(MAX_SIZE + 1)],
    ],
)
def test_search_limits_below_one_or_above_the_maximum_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "error: argument --" in err and "Traceback" not in err


def test_decl_search_decides_at_max_fuel_and_refuses_more(capsys, tmp_path):
    # a one-node goal that no rule derives: the search goes MAX_FUEL deep
    # without running out of stack, and one more unit is refused up front
    env = tmp_path / "x.env"
    env.write_text("x : {A: Bot .. Top} ;\n")
    query = ["decl", "search", "--env", str(env), "--sub", "Top", "x.A"]
    code, out, err = run(capsys, *query, "--fuel", str(MAX_FUEL))
    assert (code, out) == (1, "unknown\n")
    assert f"within fuel {MAX_FUEL}" in err
    code, out, err = run(capsys, *query, "--fuel", str(MAX_FUEL + 1))
    assert (code, out) == (2, "")
    assert f"fuel {MAX_FUEL + 1} is more than the maximum, {MAX_FUEL}" in err


def test_lab_max_size_is_bounded_up_front(capsys, monkeypatch):
    # size 7 alone is 400,305 types: one past the bound is refused before any
    # enumeration, and the bound itself parses (the harness is not run)
    code, out, err = run(capsys, "lab", "tags", "--max-size", str(MAX_SIZE + 1))
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument --max-size: size {MAX_SIZE + 1} is more than the maximum, {MAX_SIZE}\n")
    asked = []

    def harness(max_size, fuel):
        asked.append(max_size)
        return SimpleNamespace(ok=True, render=lambda: "stand-in")

    monkeypatch.setattr(dsub.cli, "check_no_tag_switch", harness)
    assert run(capsys, "lab", "tags", "--max-size", str(MAX_SIZE)) == (0, "stand-in\n", "")
    assert asked == [MAX_SIZE] == [5]


def test_decl_search_typing_goal(capsys, tmp_path):
    term_file = tmp_path / "e.dsub"
    term_file.write_text("e\n")
    code, out, _ = run(
        capsys,
        "decl",
        "search",
        "--env",
        ENV,
        "--fuel",
        "3",
        "--typ",
        str(term_file),
        "{E: all(b: {V: Top .. Top}) {V: Top .. Top} .. all(b: {V: Top .. Top}) {Z: Top .. Top}}",
    )
    assert code == 0
    assert json.loads(out)["rule"] == "Var"


# ---------------------------------------------------------------------------
# lab


def test_lab_minimality(capsys):
    code, out, _ = run(capsys, "lab", "minimality")
    assert code == 0
    assert "FAIL" not in out


def test_lab_tags_clean(capsys):
    code, out, _ = run(capsys, "lab", "tags", "--max-size", "3", "--fuel", "2")
    assert code == 0
    assert "violations: 0" in out


def test_lab_colours_reports_genuine_findings(capsys):
    # the downward-red implication has real counterexamples: nonzero exit
    code, out, _ = run(capsys, "lab", "colours", "--max-size", "3", "--fuel", "2")
    assert code == 1
    assert "3-below-red" in out


@pytest.mark.parametrize("verb, code", [("colours", 1), ("tags", 0)])
def test_lab_report_matches_golden(capsys, verb, code):
    # the whole report at (3, 5), so that a faster search must find the same
    # judgments, violations and order of listing
    got = run(capsys, "lab", verb, "--max-size", "3", "--fuel", "5")
    assert got == (code, (GOLDEN / f"lab_{verb}_3_5.txt").read_text(), "")


# ---------------------------------------------------------------------------
# bench


def test_bench_pn_stdout(capsys):
    code, out, _ = run(capsys, "bench", "pn", "--min", "1", "--max", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,calls"
    assert lines[1] == "1,1"
    assert len(lines) == 7


def test_bench_pn_nanos_is_labelled_as_model_cost(capsys):
    code, out, _ = run(capsys, "bench", "pn", "--min", "1", "--max", "2", "--metric", "nanos")
    assert code == 0
    assert out.splitlines()[0] == "n,model_nanos"


def test_bench_pn_out_file(capsys, tmp_path):
    out_file = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys, "bench", "pn", "--min", "2", "--max", "4", "--out", str(out_file)
    )
    assert code == 0 and out == ""
    assert out_file.read_text().splitlines()[1] == "2,5"


def test_bench_pn_decides_at_max_n_and_refuses_more(capsys):
    code, out, err = run(capsys, "bench", "pn", "--min", str(MAX_N), "--max", str(MAX_N))
    assert code == 0 and err == ""
    assert out == f"n,calls\n{MAX_N},{math.comb(2 * MAX_N, MAX_N) - 1}\n"
    for flag in ("--min", "--max"):
        code, out, err = run(capsys, "bench", "pn", flag, str(MAX_N + 1))
        assert code == 2 and out == ""
        assert f"argument {flag}: N {MAX_N + 1} is more than the maximum, {MAX_N}" in err


# ---------------------------------------------------------------------------
# corpus


def test_corpus_run_passes_on_checkout(capsys):
    code, out, err = run(capsys, "corpus", "run", "--dir", str(CORPUS))
    cases = (
        "app_of_bot.dsub",
        "app_of_top.dsub",
        "fun_bounds_bridge.json",
        "fun_to_member.sub",
        "kernel_param_mismatch.sub",
        "label_mismatch.sub",
        "member_bridge_not_step.sub",
        "minimality_body.dsub",
        "minimality_body_narrow.json",
        "minimality_body_wide.json",
        "minimality_term.dsub",
        "top_concluding_backwards.json",
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"ok    {name}" for name in cases] + ["12/12 corpus cases passed"]


def test_corpus_run_detects_tampering(capsys, tmp_path):
    copy = tmp_path / "corpus"
    shutil.copytree(CORPUS, copy)
    case = copy / "label_mismatch.sub"
    case.write_text(case.read_text().replace("//! expect: not-subtype", "//! expect: subtype"))
    code, out, _ = run(capsys, "corpus", "run", "--dir", str(copy))
    assert code == 1
    assert "FAIL  label_mismatch.sub" in out


def test_corpus_run_reports_a_too_deep_case_and_runs_the_rest(capsys, tmp_path):
    (tmp_path / "deep.sub").write_text(
        f"//! expect: subtype\n{_nested_decl(700)}\n{_nested_decl(700)}\n"
    )
    (tmp_path / "trivial.sub").write_text("//! expect: subtype\nBot\nTop\n")
    code, out, err = run(capsys, "corpus", "run", "--dir", str(tmp_path))
    lines = out.splitlines()
    assert (code, err, len(lines)) == (1, "", 3)
    assert lines[0].startswith("FAIL  deep.sub: error: ")
    assert lines[0].endswith(f"input is nested more than {MAX_NESTING} levels deep")
    assert lines[1:] == ["ok    trivial.sub", "1/2 corpus cases passed"]


def test_corpus_run_survives_a_recursion_error(capsys, tmp_path):
    # derivation JSON nests premises without bound, past what json can read
    node = '{"rule": "Top", "judgment": {"kind": "sub", "env": [], "lhs": "Top", "rhs": "Top"}, "premises": ['
    (tmp_path / "deep.json").write_text(node * 5000 + "]}" * 5000)
    (tmp_path / "trivial.sub").write_text("//! expect: subtype\nBot\nTop\n")
    code, out, err = run(capsys, "corpus", "run", "--dir", str(tmp_path))
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "FAIL  deep.json: error: input is too deep for Python's recursion limit",
        "ok    trivial.sub",
        "1/2 corpus cases passed",
    ]


def test_corpus_run_reports_a_missing_env_file_and_runs_the_rest(capsys, tmp_path):
    (tmp_path / "a.sub").write_text("//! env: missing.env\n//! expect: subtype\nBot\nTop\n")
    (tmp_path / "b.sub").write_text("//! expect: subtype\nBot\nTop\n")
    code, out, err = run(capsys, "corpus", "run", "--dir", str(tmp_path))
    lines = out.splitlines()
    assert (code, err, len(lines)) == (1, "", 3)
    assert lines[0].startswith("FAIL  a.sub: error: ") and "missing.env" in lines[0]
    assert lines[1:] == ["ok    b.sub", "1/2 corpus cases passed"]


def test_corpus_run_fails_an_ill_scoped_case_with_the_verbs_error(capsys, tmp_path):
    (tmp_path / "ill.sub").write_text("//! expect: not-subtype\nq.A\nTop\n")
    # the next case runs, and its expected type agrees up to bound names
    (tmp_path / "next.dsub").write_text("//! expect: typed all(z: Top) Top\nlam(x: Top) x\n")
    code, out, err = run(capsys, "corpus", "run", "--dir", str(tmp_path))
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "FAIL  ill.sub: error: type mentions unbound variable(s): q",
        "ok    next.dsub",
        "1/2 corpus cases passed",
    ]


@pytest.mark.parametrize(
    "name, text, want",
    (
        pytest.param(
            "a.sub", "//! expect: subtype\nTop\nBot\n",
            "expected subtype, got not-subtype: Top <: Bot does not hold", id="got-not-subtype",
        ),
        pytest.param(
            "a.dsub", "//! expect: untypable\nlam(x: Top) x\n",
            "expected untypable, got typed all(x: Top) Top", id="got-typed",
        ),
        pytest.param(
            "a.dsub", "//! expect: typed Top\nlam(f: Top) f f\n",
            "expected typed Top, got untypable: body: function position has non-function type Top", id="got-untypable",
        ),
        pytest.param(
            "a.json",
            '{"expect": "valid", "rule": "Top", "judgment": {"kind": "sub", "env": [], "lhs": "Top", "rhs": "Bot"}, '
            '"premises": []}',
            "expected valid, got invalid: root: Top: right-hand side must be Top", id="got-invalid",
        ),
        pytest.param("a.sub", "Bot\nTop\n", "error: case states no expectation", id="no-expectation"),
        pytest.param(
            "a.json",
            '{"expect": 5, "rule": "Top", "judgment": {"kind": "sub", "env": [], "lhs": "Bot", "rhs": "Top"}}',
            'error: "expect" must be a string, found 5', id="number-expectation",
        ),
        pytest.param(
            "a.json",
            '{"expect": ["valid"], "rule": "Top", "judgment": {"kind": "sub", "env": [], "lhs": "Bot", "rhs": "Top"}}',
            'error: "expect" must be a string, found ["valid"]', id="list-expectation",
        ),
    ),
)
def test_corpus_run_names_the_expected_and_the_given_answer(capsys, tmp_path, name, text, want):
    (tmp_path / name).write_text(text)
    code, out, err = run(capsys, "corpus", "run", "--dir", str(tmp_path))
    assert (code, err) == (1, "")
    assert out.splitlines() == [f"FAIL  {name}: {want}", "0/1 corpus cases passed"]


def _corpus_refusal(capsys, path) -> str:
    code, out, err = run(capsys, "corpus", "run", "--dir", str(path))
    assert (code, out) == (2, "")
    return err


def test_corpus_run_empty_dir(capsys, tmp_path):
    assert _corpus_refusal(capsys, tmp_path) == f"dsub: error: corpus directory {tmp_path} contains no cases\n"


def test_corpus_run_missing_dir(capsys, tmp_path):
    path = tmp_path / "nope"
    assert _corpus_refusal(capsys, path) == f"dsub: error: corpus directory {path} does not exist\n"


def test_corpus_run_refuses_a_file(capsys, tmp_path):
    path = tmp_path / "case.sub"
    path.write_text("Top <: Top\n")
    assert _corpus_refusal(capsys, path) == f"dsub: error: corpus path {path} is not a directory\n"


# ---------------------------------------------------------------------------
# usage discipline


def test_unknown_verb(capsys):
    assert run(capsys, "nonsense")[0] == 2


def test_unknown_flag_is_an_error(capsys):
    assert run(capsys, "sub", "--wat", "Top", "Top")[0] == 2


def test_missing_required_argument(capsys):
    assert run(capsys, "promote", "Top")[0] == 2


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0 and out.startswith("dsub ")
    code, out, _ = run(capsys, "check", "--version")
    assert code == 0 and out.startswith("dsub ")


# ---------------------------------------------------------------------------
# internal errors


_DECL = "{A: Bot .. Top}"


@pytest.mark.parametrize(
    "module, name, stub, argv, error",
    [
        (dsub.step, "weight", lambda g, t, memo: 1, ["sub", "--env", "ENV", _DECL, _DECL], "StepInvariantError"),
        (dsub.bounds_shift, "size", lambda t: 1, ["promote", "--env", "ENV", "--var", "x", _DECL], "ShiftInvariantError"),
        (dsub.step, "DEPTH_LIMIT", 0, ["sub", "--env", "ENV", _DECL, _DECL], "InternalLimit"),
    ],
)
def test_internal_error_exits_3_without_a_traceback(monkeypatch, tmp_path, capsys, module, name, stub, argv, error):
    # criterion 3's stubs: a measure that never decreases trips its check,
    # and a depth valve that fires at once
    env = tmp_path / "x.env"
    env.write_text("x : Top ;\n")
    monkeypatch.setattr(module, name, stub)
    code, out, err = run(capsys, *[str(env) if a == "ENV" else a for a in argv])
    assert code == 3
    assert out == ""
    assert err.startswith(f"dsub: internal error: {error}: ")
    assert "Traceback" not in err and err.count("\n") == 1


# ---------------------------------------------------------------------------
# the installed entry point, run as a subprocess


_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\.\.|\S")


def _broken(text: str, rng: random.Random, unbound: str, deep: str) -> list:
    """Broken copies of well-formed ``text``: truncated, one token dropped,
    a stray character, then ``unbound`` (``text`` with an unbound variable)
    and ``deep`` (one level past the nesting bound)."""
    words = _WORD.findall(text)
    drop = rng.randrange(len(words))
    at = rng.randrange(len(text) + 1)
    return [
        text[: len(text) // 2],
        " ".join(words[:drop] + words[drop + 1 :]),
        text[:at] + rng.choice("#@$%~!?") + text[at:],
        unbound,
        deep,
    ]


def _grammar_invocations(tmp_path) -> list:
    """About forty argument lists: every verb that reads syntax, on types and
    terms drawn from the enumerator and on broken copies of them."""
    rng = random.Random(8)
    enum = Enumerator()
    scope = ("x", "y")
    env = tmp_path / "g.env"
    env.write_text("x : {A: Bot .. Top} ;\ny : {B: x.A .. x.A} ;\n")
    g = parse_env(env.read_text())
    closed = list(enum.types(3))
    scoped = list(enum.types(3, scope))
    terms = list(enum.terms(3, scope))
    s, t, u = (print_type(rng.choice(scoped)) for _ in range(3))
    closed_term = print_term(rng.choice(list(enum.terms(3))))
    term, other = (print_term(rng.choice(terms)) for _ in range(2))
    files = {}
    for name, text in (("closed", closed_term), ("term", term), ("other", other)):
        files[name] = tmp_path / f"{name}.dsub"
        files[name].write_text(text)
    rng.shuffle(terms)
    trace = next(typed.trace for typed in (step_type(g, m) for m in terms) if typed and typed.trace.premises)
    valid = json.dumps(derivation_to_json(elaborate_step(trace)))
    e = ["--env", str(env)]
    calls = [
        ["check", str(files["closed"])],
        ["check", str(files["term"]), *e],
        ["check", str(files["other"]), *e, "--emit-trace", str(tmp_path / "t.json")],
        ["sub", print_type(rng.choice(closed)), print_type(rng.choice(closed))],
        ["sub", *e, s, t],
        ["expose", *e, "y.B"],
        ["expose", *e, "x.B"],
        ["promote", *e, "--var", "y", u],
        ["demote", *e, "--var", "x", s],
        ["decl", "search", *e, "--fuel", "2", "--sub", t, u],
        ["decl", "search", *e, "--fuel", "2", "--typ", str(files["term"]), s],
    ]
    bad_terms = _broken(term, rng, f"let w = q in {term}", "{B = " + _nested_decl(MAX_NESTING) + "}")
    for i, bad in enumerate(bad_terms):
        path = tmp_path / f"bad{i}.dsub"
        path.write_text(bad)
        calls.append(["check", str(path), *e] if i % 2 else ["check", str(path)])
    verbs = (
        lambda bad: ["sub", *e, bad, t],
        lambda bad: ["expose", *e, bad],
        lambda bad: ["promote" if rng.random() < 0.5 else "demote", *e, "--var", "x", bad],
        lambda bad: ["decl", "search", *e, "--fuel", "2", "--sub", s, bad],
    )
    for make in verbs:
        calls += map(make, _broken(u, rng, f"all(w: q.A) {u}", _nested_decl(MAX_NESTING + 1)))
    for i, data in enumerate(
        (
            valid,
            valid[: len(valid) // 2],
            valid.replace('"premises": [{', '"premises": ["x", {', 1),
            valid.replace('"kind": "', '"kind": "x', 1),
            valid.replace('"env": [', '"env": [["x", "x.A"], ', 1),
            json.dumps([valid]),
        )
    ):
        path = tmp_path / f"d{i}.json"
        path.write_text(data)
        calls.append(["decl", "verify", str(path)])
    return calls


def test_cli_subprocess_never_prints_a_traceback(tmp_path):
    src = str(Path(dsub.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    seen = set()
    for argv in _grammar_invocations(tmp_path):
        done = subprocess.run(
            [sys.executable, "-m", "dsub.cli", *argv], capture_output=True, text=True, env=env, timeout=120
        )
        where = f"dsub {' '.join(argv)}\n{done.stderr}"
        assert "Traceback" not in done.stderr, where
        assert done.returncode in (0, 1, 2), where
        if done.returncode == 2:
            assert any(line.startswith(("dsub: error:", "usage:")) for line in done.stderr.splitlines()), where
        seen.add(done.returncode)
    assert seen == {0, 1, 2}


def test_the_cli_starts_without_dataclasses_or_inspect():
    # records are built on dsub's own base, so starting the CLI imports
    # neither module
    src = str(Path(dsub.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = "import sys, dsub.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_main_answers_several_verbs_in_one_process(capsys, monkeypatch):
    # the parser is built once per process; each call answers as a fresh
    # process would, whatever was parsed before, a usage error included
    src = str(Path(dsub.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    calls = [
        ["check", str(CORPUS / "minimality_body.dsub"), "--env", ENV],
        ["sub", "--env", ENV, "{V: Top .. Top}", "{Z: Top .. Top}"],
        ["bench", "pn", "--min", "1", "--max", "5"],
        ["decl", "search", "--fuel", "0", "--sub", "Top", "Top"],
        ["corpus", "run", "--dir", str(CORPUS)],
        ["expose", "--env", ENV, "e.E"],
        ["--version"],
    ]
    fresh = []
    for argv in calls:
        done = subprocess.run(
            [sys.executable, "-m", "dsub.cli", *argv], capture_output=True, text=True, env=env, timeout=120
        )
        fresh.append((done.returncode, done.stdout, done.stderr))
    assert [run(capsys, *argv) for argv in calls] == fresh
    built = [0]
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert [run(capsys, *argv) for argv in calls] == fresh
    assert built[0] == 0
