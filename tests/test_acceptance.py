"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced (without ``-s`` they appear in pytest's captured output).

Two criteria assert findings about what step typing cannot do, and print
them:

- criterion 7: the no-tag-switch suite is clean, and six of the seven
  well-behavedness implications hold on the explored universe.  The
  downward-red implication (3) does not: it has genuine counterexamples,
  such as ``{E: Top .. Top} <: {E: Bot .. Top}`` (the declaration rule with
  premises ``Bot <: Top`` and ``Top <: Top``; the right side is red, the
  left is neither Bot nor red).  The test asserts that every violation the
  harness reports is tagged ``3-below-red``, that this witness is among
  them, and that each reported pair is genuine: a fresh search re-derives
  it, ``decl_verify`` accepts the tree, and the colours are as claimed.
- criterion 9: in the two-chain worst-case family, ``calls(N)`` equals the
  recurrence ``g(N-1, N-1)`` with ``g(a, b) = 1 + g(a-1, b) + g(a, b-1)``
  and ``g = 0`` below zero, whose closed form is ``C(2N, N) - 1`` (Pascal's
  rule).  The test asserts that exact count for every N from 1 to 16 and
  the ``2^N`` floor from N = 2, where both chains have a bounded member; at
  N = 1 both members are unbounded and the check decides in one call.
"""

import itertools
import math

import pytest

import dsub.bounds_shift
import dsub.step
from dsub.bounds_shift import ShiftInvariantError, demote, promote
from dsub.cli import main
from dsub.declarative import (
    ElaborationGap,
    decl_verify,
    elaborate_step,
)
from dsub.dotty import INT, STRING, Fun, Member, make_pn, scala_sub
from dsub.environment import TypeEnv, env_from_bindings
from dsub.errors import InternalLimit
from dsub.exposure import expose
from dsub.lab import (
    Enumerator,
    bad_bounds_env,
    check_no_tag_switch,
    check_wellbehaved,
    run_minimality_counterexample,
)
from dsub.step import (
    StepInvariantError,
    step_subtype,
    step_type,
    weight,
)
from dsub.syntax import (
    Bot,
    Decl,
    Path,
    Top,
    alpha_eq,
    fv,
    parse_term,
    parse_type,
    print_term,
    print_type,
)
from dsub.trace import Derived
from test_cli import CORPUS
from test_dotty import bad_bounds_universe
from test_lab import below_red_flaw


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} -- {detail}")


def _env(*pairs):
    return env_from_bindings(pairs)


def _scoped_envs():
    return [
        TypeEnv.empty(),
        _env(("x", Decl("A", Bot(), Top()))),
        _env(("x", Bot())),
        _env(("x", Decl("A", Bot(), Top())), ("y", Decl("B", Path("x", "A"), Top()))),
        bad_bounds_env(),
    ]


def _scope(g):
    return tuple(x for x, _ in g.bindings)


def test_criterion_1_soundness_elaboration():
    enum = Enumerator()  # two variables, three labels
    typed_checked = subtype_checked = instances = 0
    failures = []
    gaps = 0

    for g in _scoped_envs():
        scope = _scope(g)
        for term in enum.terms(4, scope):
            instances += 1
            outcome = step_type(g, term)
            if not isinstance(outcome, Derived):
                continue
            try:
                tree = elaborate_step(outcome.trace)
            except ElaborationGap:
                gaps += 1
                continue
            verdict = decl_verify(tree)
            if not verdict.ok or not alpha_eq(tree.conclusion.ty, outcome.ty):
                failures.append(print_term(term))
            typed_checked += 1

        types = list(enum.types(3, scope))
        for s, t in itertools.product(types, types):
            result = step_subtype(g, s, t)
            if not result.holds:
                continue
            try:
                tree = elaborate_step(result.trace)
            except ElaborationGap:
                gaps += 1
                continue
            verdict = decl_verify(tree)
            if not verdict.ok:
                failures.append(f"{print_type(s)} <: {print_type(t)}")
            subtype_checked += 1

    ok = instances >= 500 and not failures and gaps == 0
    _report(
        1,
        ok,
        f"{instances} term instances, {typed_checked} typings and "
        f"{subtype_checked} subtypings elaborated and verified, {gaps} gaps, "
        f"{len(failures)} failures",
    )
    assert ok, failures[:5]


def test_criterion_2_reflexivity():
    enum = Enumerator()
    envs = [
        TypeEnv.empty(),
        _env(("x", Decl("A", Bot(), Top()))),
        _env(("x", Top()), ("y", Decl("B", Path("x", "A"), Top()))),
    ]
    pairs = 0
    failures = []
    for g in envs:
        for t in enum.types(6, _scope(g)):
            pairs += 1
            if not step_subtype(g, t, t).holds:
                failures.append(print_type(t))
    ok = pairs >= 10_000 and not failures
    _report(2, ok, f"{pairs} (env, type) pairs, {len(failures)} reflexivity failures")
    assert ok, failures[:5]


def test_criterion_3_termination_instrumentation(monkeypatch):
    # the measure checks are live: a measure that never decreases trips them
    decl = Decl("A", Bot(), Top())
    with monkeypatch.context() as m:
        m.setattr(dsub.step, "weight", lambda g, t, memo: 1)
        with pytest.raises(StepInvariantError):
            step_subtype(TypeEnv.empty(), decl, decl)
    with monkeypatch.context() as m:
        m.setattr(dsub.bounds_shift, "size", lambda t: 1)
        with pytest.raises(ShiftInvariantError):
            promote(_env(("x", Top())), decl, "x")

    enum = Enumerator()
    limit_errors = weight_violations = size_violations = 0
    queries = 0

    g = _env(("x", Decl("A", Bot(), Top())), ("y", Decl("B", Path("x", "A"), Top())))
    types = list(enum.types(3, _scope(g)))
    for s, t in itertools.product(types, types):
        queries += 1
        try:
            step_subtype(g, s, t)
        except InternalLimit:
            limit_errors += 1
        except StepInvariantError:
            weight_violations += 1

    for env in _scoped_envs():
        for t in enum.types(4, _scope(env)):
            for x in _scope(env):
                for op in (promote, demote):
                    queries += 1
                    try:
                        op(env, t, x)
                    except AssertionError:
                        size_violations += 1

    ok = limit_errors == 0 and weight_violations == 0 and size_violations == 0
    _report(
        3,
        ok,
        f"{queries} instrumented calls: {limit_errors} depth-limit errors, "
        f"{weight_violations} weight violations, {size_violations} size violations",
    )
    assert ok


def test_criterion_4_exposure_monotonicity():
    enum = Enumerator()
    checked = 0
    failures = []
    for g in _scoped_envs():
        scope = _scope(g)
        labels = ("A", "B", "E", "V") if "e" in scope else ("A", "B", "C")
        for t in Enumerator(labels=labels).types(4, scope):
            result = expose(g, t)
            if not isinstance(result, Derived):
                continue
            checked += 1
            if isinstance(result.ty, Path):
                failures.append(f"exposed to a path: {print_type(t)}")
            elif weight(g, result.ty) > weight(g, t):
                failures.append(f"weight grew: {print_type(t)} -> {print_type(result.ty)}")
    ok = checked > 500 and not failures
    _report(4, ok, f"{checked} exposures checked, {len(failures)} failures")
    assert ok, failures[:5]


def test_criterion_5_shift_erasure_and_direction():
    checked = 0
    failures = []
    for g in _scoped_envs():
        scope = _scope(g)
        if not scope:
            continue
        labels = ("A", "B", "E", "V") if "e" in scope else ("A", "B", "C")
        for t in Enumerator(labels=labels).types(3, scope):
            for x in scope:
                for op, direction in ((promote, "promote"), (demote, "demote")):
                    result = op(g, t, x)
                    if not isinstance(result, Derived):
                        continue
                    checked += 1
                    if x in fv(result.ty):
                        failures.append(f"{direction} kept {x} in {print_type(result.ty)}")
                        continue
                    tree = elaborate_step(result.trace)
                    lhs, rhs = (t, result.ty) if direction == "promote" else (result.ty, t)
                    c = tree.conclusion
                    if not (alpha_eq(c.lhs, lhs) and alpha_eq(c.rhs, rhs)):
                        failures.append(f"{direction} derivation concludes the wrong judgment")
                    elif not decl_verify(tree).ok:
                        failures.append(f"{direction} derivation rejected for {print_type(t)}")
    ok = checked > 500 and not failures
    _report(5, ok, f"{checked} shifts erased and elaborated, {len(failures)} failures")
    assert ok, failures[:5]


def test_criterion_6_minimality_counterexample():
    report = run_minimality_counterexample()
    detail = (
        f"step type {report.step_result}; trees narrow={report.narrow_tree_ok} "
        f"wide={report.wide_tree_ok} bridge={report.bridge_ok}; "
        f"unrelated-by-step={report.not_subtype_ok}"
    )
    _report(6, report.ok, detail)
    assert report.ok


README_WITNESS = "{E: Top .. Top} <: {E: Bot .. Top}"


def test_criterion_7_falsification_suites():
    fuel = 6
    tags = check_no_tag_switch(max_size=4, fuel=fuel)
    colours = check_wellbehaved(max_size=4, fuel=fuel)
    checks = sorted({v.check for v in colours.violations})
    witness_found = any(v.detail == README_WITNESS for v in colours.violations)
    flaws = [
        (v.detail, flaw)
        for v in colours.violations
        if (flaw := below_red_flaw(v.detail, fuel)) is not None
    ]
    ok = (
        tags.ok
        and tags.derivable_count >= 100
        and colours.derivable_count >= 100
        and checks == ["3-below-red"]
        and witness_found
        and not flaws
    )
    _report(
        7,
        ok,
        f"tag-switch: {len(tags.violations)} violations over {tags.derivable_count} "
        f"derivable; well-behavedness: {colours.derivable_count} derivable, "
        f"{len(colours.violations)} violations tagged {checks or 'none'}, "
        f"witness {README_WITNESS} {'reported' if witness_found else 'MISSING'}, "
        f"{len(colours.violations) - len(flaws)}/{len(colours.violations)} "
        f"re-derived and verified as genuine downward-red counterexamples",
    )
    assert ok, (tags.violations[:3], checks, witness_found, flaws[:3])


def test_criterion_8_model_fidelity():
    u = bad_bounds_universe()
    direct = scala_sub(u, Fun(INT, INT), Fun(INT, STRING)).result
    through_lower = scala_sub(u, Fun(INT, INT), Member("E")).result
    through_upper = scala_sub(u, Member("E"), Fun(INT, STRING)).result
    application = scala_sub(u, INT, STRING).result
    ok = direct is False and through_lower is True and through_upper is True and application is False
    _report(
        8,
        ok,
        f"direct assignment {direct}, via member {through_lower}/{through_upper}, "
        f"application result {application}",
    )
    assert ok


def test_criterion_9_exponential_worst_case():
    calls = {}
    wrong_results = []
    for n in range(1, 17):
        stats = scala_sub(*make_pn(n))
        if stats.result is not False:
            wrong_results.append(n)
        calls[n] = stats.calls
    model_failures = [n for n in range(1, 17) if calls[n] != math.comb(2 * n, n) - 1]
    floor_failures = [n for n in range(2, 17) if calls[n] < 2**n]
    ratio_failures = [
        n for n in range(4, 16) if calls[n + 1] / calls[n] < 1.9
    ]
    ok = not wrong_results and not model_failures and not floor_failures and not ratio_failures
    _report(
        9,
        ok,
        f"calls(N) = C(2N, N) - 1 for N in 1..16 except N={model_failures or 'none'}; "
        f"2^N floor (N >= 2) failures at N={floor_failures or 'none'}; "
        f"ratio failures at N={ratio_failures or 'none'}; "
        f"wrong verdicts at N={wrong_results or 'none'}; "
        f"calls(1)={calls[1]}, calls(16)={calls[16]}",
    )
    assert ok, {n: (calls[n], math.comb(2 * n, n) - 1) for n in calls}


def test_criterion_10_roundtrip_and_cli_discipline(capsys):
    enum = Enumerator()
    roundtripped = 0
    failures = []
    for t in enum.types(6, ("x", "y")):
        roundtripped += 1
        if not alpha_eq(parse_type(print_type(t)), t):
            failures.append(print_type(t))
    for t in enum.terms(4, ("x",)):
        roundtripped += 1
        if not alpha_eq(parse_term(print_term(t)), t):
            failures.append(print_term(t))

    env = str(CORPUS / "bad_bounds.env")
    body = str(CORPUS / "minimality_body.dsub")
    expectations = [
        (["check", body, "--env", env], 0),
        (["check", str(CORPUS / "app_of_top.dsub")], 1),
        (["check", "missing.dsub"], 2),
        (["sub", "Bot", "Top"], 0),
        (["sub", "--env", env, "{V: Top .. Top}", "{Z: Top .. Top}"], 1),
        (["sub", "Bot", "{A:"], 2),
        (["expose", "--env", env, "e.E"], 0),
        (["expose", "Top"], 0),
        (["promote", "--env", env, "--var", "e", "e.E"], 0),
        (["demote", "--env", env, "--var", "e", "e.E"], 0),
        (["promote", "--var", "x", "x.A"], 2),
        (["decl", "verify", str(CORPUS / "fun_bounds_bridge.json")], 0),
        (["decl", "verify", str(CORPUS / "top_concluding_backwards.json")], 1),
        (["decl", "search", "--fuel", "2", "--sub", "Bot", "Top"], 0),
        (["decl", "search", "--fuel", "2", "--sub", "Top", "Bot"], 1),
        (["lab", "minimality"], 0),
        (["bench", "pn", "--min", "1", "--max", "4"], 0),
        (["bench", "pn", "--min", "4", "--max", "1"], 2),
        (["corpus", "run", "--dir", str(CORPUS)], 0),
        (["corpus", "run", "--dir", "no-such-corpus"], 2),
        (["nonsense"], 2),
    ]
    exit_failures = []
    for argv, wanted in expectations:
        got = main(argv)
        if got != wanted:
            exit_failures.append(f"{' '.join(argv)} -> {got}, wanted {wanted}")
    capsys.readouterr()  # drop CLI output; only codes matter here

    corpus_ok = main(["corpus", "run", "--dir", str(CORPUS)]) == 0
    capsys.readouterr()

    ok = roundtripped >= 10_000 and not failures and not exit_failures and corpus_ok
    _report(
        10,
        ok,
        f"{roundtripped} round-trips, {len(failures)} mismatches; "
        f"{len(expectations)} exit-code checks, {len(exit_failures)} wrong; "
        f"corpus run {'clean' if corpus_ok else 'failing'}",
    )
    assert ok, (failures[:3], exit_failures[:5])
