from functools import lru_cache

import pytest

from dsub.declarative import SubJ, decl_search, decl_verify, derivation_to_json
from dsub.lab import (
    BAD_BOUNDS_DECL,
    DECL_V,
    DECL_Z,
    FUN_VV,
    FUN_VZ,
    Enumerator,
    bad_bounds_env,
    body_typing_narrow,
    body_typing_wide,
    check_no_tag_switch,
    check_wellbehaved,
    fun_bounds_bridge,
    is_blue,
    is_red,
    minimality_body,
    run_minimality_counterexample,
)
from dsub.syntax import (
    All,
    Bot,
    Decl,
    Path,
    Top,
    alpha_eq,
    canon,
    fv,
    parse_type,
    print_term,
)

# ---------------------------------------------------------------------------
# Corpus constants


def test_corpus_shapes():
    assert DECL_V == parse_type("{V: Top .. Top}")
    assert DECL_Z == parse_type("{Z: Top .. Top}")
    assert BAD_BOUNDS_DECL.lower == FUN_VV and BAD_BOUNDS_DECL.upper == FUN_VZ
    g = bad_bounds_env()
    assert g.lookup("e") == BAD_BOUNDS_DECL
    assert fv(minimality_body()) == frozenset()


def corpus_derivations() -> dict:
    """The shipped derivation corpus, as JSON-ready dicts keyed by name."""
    return {
        "minimality_body_narrow": derivation_to_json(body_typing_narrow()),
        "minimality_body_wide": derivation_to_json(body_typing_wide()),
        "fun_bounds_bridge": derivation_to_json(fun_bounds_bridge()),
    }


def test_corpus_derivations_exported():
    data = corpus_derivations()
    assert set(data) == {"minimality_body_narrow", "minimality_body_wide", "fun_bounds_bridge"}
    for entry in data.values():
        assert set(entry) == {"rule", "judgment", "premises"}


def test_shipped_corpus_files_match_builders():
    import json
    from pathlib import Path

    corpus_dir = Path(__file__).resolve().parent.parent / "corpus"
    for name, built in corpus_derivations().items():
        shipped = json.loads((corpus_dir / f"{name}.json").read_text())
        assert shipped.pop("expect") == "valid"
        assert shipped == built, f"{name}.json has drifted from its builder"


# ---------------------------------------------------------------------------
# Colour predicates


def test_blue_on_pivot_selection():
    assert is_blue(Path("e", "E"))
    assert not is_blue(Path("e", "V"))
    assert not is_blue(Path("x", "E"))


def test_blue_on_function_types():
    assert is_blue(All("x", Top(), Top()))
    assert is_blue(FUN_VV)


def test_red_requires_bot_or_blue_lower_and_top_or_blue_upper():
    assert is_red(Decl("E", Bot(), Top()))
    assert not is_red(Decl("E", Top(), Top()))
    assert is_red(Decl("E", Path("e", "E"), FUN_VZ))
    assert not is_red(Top()) and not is_red(Path("e", "E"))


def test_red_label_is_unconstrained():
    # redness propagates across declarations of any label, so the predicate
    # does not fix one
    assert is_red(Decl("V", Bot(), Top()))


def test_colours_reparameterizable():
    assert is_blue(Path("a", "B"), var="a", label="B")
    assert not is_blue(Path("e", "E"), var="a", label="B")
    assert is_red(Decl("Q", Path("a", "B"), Top()), var="a", label="B")


def test_colours_structurally_disjoint():
    enum = Enumerator(labels=("E", "V", "Z"))
    for t in enum.types(4, ("e",)):
        assert not (is_red(t) and is_blue(t))


# ---------------------------------------------------------------------------
# Enumerator


@lru_cache(maxsize=None)
def _count_types(size, scope_size, n_labels):
    # independent recount of the type stream
    if size == 1:
        return 2 + scope_size * n_labels
    if size < 3:
        return 0
    total = 0
    for i in range(1, size - 1):
        j = size - 1 - i
        total += n_labels * _count_types(i, scope_size, n_labels) * _count_types(j, scope_size, n_labels)
        total += _count_types(i, scope_size, n_labels) * _count_types(j, scope_size + 1, n_labels)
    return total


@lru_cache(maxsize=None)
def _count_terms(size, scope_size, n_labels):
    if size == 1:
        return scope_size + scope_size * scope_size
    total = 0
    if size >= 2:
        total += n_labels * _count_types(size - 1, scope_size, n_labels)
    for i in range(1, size - 1):
        j = size - 1 - i
        total += _count_types(i, scope_size, n_labels) * _count_terms(j, scope_size + 1, n_labels)
        total += _count_terms(i, scope_size, n_labels) * _count_terms(j, scope_size + 1, n_labels)
    return total


def test_type_counts_match_independent_recount():
    enum = Enumerator()
    for scope in ((), ("x",), ("x", "y")):
        for size in (1, 2, 3, 4, 5):
            produced = len(enum.types_of_size(size, scope))
            assert produced == _count_types(size, len(scope), 3), (size, scope)


def test_term_counts_match_independent_recount():
    enum = Enumerator()
    for scope in ((), ("x",), ("x", "y")):
        for size in (1, 2, 3, 4):
            produced = len(enum.terms_of_size(size, scope))
            assert produced == _count_terms(size, len(scope), 3), (size, scope)


def test_types_alpha_distinct():
    enum = Enumerator()
    seen = set()
    for t in enum.types(5, ("x",)):
        key = canon(t)
        assert key not in seen
        seen.add(key)


def test_terms_alpha_distinct_and_scoped():
    enum = Enumerator()
    seen = set()
    for t in enum.terms(4, ("x",)):
        key = canon(t)
        assert key not in seen, print_term(t)
        seen.add(key)
        assert fv(t) <= {"x"}


def test_enumeration_is_deterministic():
    a = list(Enumerator().types(4, ("x",)))
    b = list(Enumerator().types(4, ("x",)))
    assert a == b


# ---------------------------------------------------------------------------
# Harnesses (small bounds here; full bounds run in the acceptance suite)


@pytest.fixture(scope="module")
def wellbehaved_report():
    return check_wellbehaved(max_size=3, fuel=4)


def test_tag_switch_harness_clean():
    report = check_no_tag_switch(max_size=3, fuel=4)
    assert report.ok
    assert report.derivable_count >= 100
    assert "falsification" in report.render()


def test_wellbehaved_harness_finds_genuine_downward_red_witnesses(wellbehaved_report):
    # implications 1, 2, 4, 5, 6, 7 hold on the explored universe; the
    # downward-red implication (3) has real counterexamples, which the
    # harness must report rather than suppress
    report = wellbehaved_report
    assert report.derivable_count >= 100
    checks = {v.check for v in report.violations}
    assert checks == {"3-below-red"}

    env = bad_bounds_env()
    witness_lhs = parse_type("{E: Top .. Top}")
    witness_rhs = parse_type("{E: Bot .. Top}")
    assert decl_search(SubJ(env, witness_lhs, witness_rhs), 4) is not None
    assert is_red(witness_rhs)
    assert not is_red(witness_lhs) and not isinstance(witness_lhs, Bot)
    rendered = " ".join(v.detail for v in report.violations)
    assert "{E: Top .. Top} <: {E: Bot .. Top}" in rendered


def below_red_flaw(detail: str, fuel: int):
    """Why a reported ``3-below-red`` pair is not a genuine counterexample,
    or None if it is one.

    Genuine means: a fresh search (sharing nothing with the harness) finds a
    derivation of the pair in the bad-bounds environment, ``decl_verify``
    accepts it, its conclusion is the pair up to alpha-equivalence, the right
    side is red, and the left side is neither red nor Bot.
    """
    lhs_text, sep, rhs_text = detail.partition(" <: ")
    if not sep:
        return "not a subtyping pair"
    lhs, rhs = parse_type(lhs_text), parse_type(rhs_text)
    tree = decl_search(SubJ(bad_bounds_env(), lhs, rhs), fuel)
    if tree is None:
        return f"not re-derivable at fuel {fuel}"
    if not decl_verify(tree).ok:
        return "re-derived tree rejected by decl_verify"
    concl = tree.conclusion
    if not (
        isinstance(concl, SubJ)
        and alpha_eq(concl.lhs, lhs)
        and alpha_eq(concl.rhs, rhs)
    ):
        return "re-derived tree concludes another judgment"
    if not is_red(rhs):
        return "right side is not red"
    if isinstance(lhs, Bot) or is_red(lhs):
        return "left side is Bot or red"
    return None


def test_wellbehaved_witnesses_are_each_genuine(wellbehaved_report):
    violations = wellbehaved_report.violations
    assert violations
    flaws = [
        (v.detail, flaw) for v in violations if (flaw := below_red_flaw(v.detail, 4)) is not None
    ]
    assert not flaws


# ---------------------------------------------------------------------------
# Minimality counterexample


def test_minimality_counterexample_report():
    report = run_minimality_counterexample()
    assert report.step_result_ok
    assert report.narrow_tree_ok
    assert report.wide_tree_ok
    assert report.bridge_ok
    assert report.not_subtype_ok
    assert report.ok
    text = report.render()
    assert "{V: Top .. Top}" in text and "FAIL" not in text
