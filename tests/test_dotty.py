from dataclasses import astuple
from functools import lru_cache

import pytest

from dsub.dotty import (
    INT,
    STRING,
    Base,
    Bounds,
    BoundsUniverse,
    Fun,
    Member,
    UnknownMember,
    bench_pn,
    make_pn,
    scala_sub,
)
from dsub.errors import InternalLimit

F_II = Fun(INT, INT)
F_IS = Fun(INT, STRING)


def bad_bounds_universe() -> BoundsUniverse:
    """One member ``E`` bounded below by ``Int -> Int`` and above by
    ``Int -> String``."""
    return BoundsUniverse.of({"E": Bounds(lower=Fun(INT, INT), upper=Fun(INT, STRING))})


# ---------------------------------------------------------------------------
# The three listing outcomes


def test_direct_assignment_rejected():
    # val f2: Int => String = f  -- fails: no transitivity through the member
    stats = scala_sub(bad_bounds_universe(), F_II, F_IS)
    assert stats.result is False
    assert stats.calls >= 1


def test_patched_version_accepted():
    # val e: E = f and val f2: Int => String = e both typecheck: the member
    # is one of the compared types, so its bounds are consulted
    u = bad_bounds_universe()
    assert scala_sub(u, F_II, Member("E")).result is True
    assert scala_sub(u, Member("E"), F_IS).result is True


def test_application_result_rejected():
    # val res: String = f(42) -- the call gives Int, and Int is not String
    assert scala_sub(bad_bounds_universe(), INT, STRING).result is False


def test_non_transitivity_witness():
    u = bad_bounds_universe()
    a, b, c = F_II, Member("E"), F_IS
    assert scala_sub(u, a, b).result
    assert scala_sub(u, b, c).result
    assert not scala_sub(u, a, c).result


# ---------------------------------------------------------------------------
# Structural rules


def test_base_types_relate_by_name_only():
    u = BoundsUniverse.of({})
    assert scala_sub(u, INT, INT).result
    assert not scala_sub(u, INT, STRING).result


def test_member_names_relate_reflexively():
    u = BoundsUniverse.of({"M": Bounds()})
    assert scala_sub(u, Member("M"), Member("M")).result


def test_function_variance():
    u = BoundsUniverse.of({})
    wide_param = Fun(Base("Any"), INT)
    # parameter side is contravariant, result side covariant
    assert scala_sub(u, Fun(INT, INT), Fun(INT, INT)).result
    assert not scala_sub(u, wide_param, Fun(STRING, INT)).result
    assert not scala_sub(u, Fun(INT, INT), Fun(INT, STRING)).result


def test_unknown_member_is_an_error():
    with pytest.raises(UnknownMember):
        scala_sub(BoundsUniverse.of({}), Member("M"), INT)


def test_calls_at_least_one():
    assert scala_sub(BoundsUniverse.of({}), INT, INT).calls == 1


# ---------------------------------------------------------------------------
# The two-chain family


@lru_cache(maxsize=None)
def _expected_calls(ups, downs):
    # independent recount: one entry plus the lower-bound attempt plus the
    # upper-bound attempt, both of which fail all the way down
    total = 1
    if downs > 0:
        total += _expected_calls(ups, downs - 1)
    if ups > 0:
        total += _expected_calls(ups - 1, downs)
    return total


def test_make_pn_shape():
    universe, t1, t2 = make_pn(3)
    assert t1 == Member("T1") and t2 == Member("T6")
    assert universe.bounds("T1") == Bounds(upper=Member("T2"))
    assert universe.bounds("T3") == Bounds()
    assert universe.bounds("T4") == Bounds()
    assert universe.bounds("T6") == Bounds(lower=Member("T5"))


def test_make_pn_rejects_nonpositive():
    with pytest.raises(ValueError):
        make_pn(0)


@pytest.mark.parametrize("n", range(1, 17))
def test_pn_query_fails_with_recurrence_call_count(n):
    universe, t1, t2 = make_pn(n)
    stats = scala_sub(universe, t1, t2)
    assert stats.result is False
    assert stats.calls == _expected_calls(n - 1, n - 1)


def test_pn_depth_grows_linearly():
    for n in (1, 2, 5, 10):
        stats = scala_sub(*make_pn(n))
        assert stats.max_depth <= 2 * n + 1


def _plain_sub(u, t1, t2) -> tuple:
    """The recursion the model counts, run literally with no cache: its
    (result, calls, max_depth)."""
    calls, below = 1, 0

    def enter(a, b) -> bool:
        nonlocal calls, below
        result, c, d = _plain_sub(u, a, b)
        calls += c
        below = max(below, d)
        return result

    result = False
    if isinstance(t2, Member) and u.bounds(t2.name).lower is not None:
        result = enter(t1, u.bounds(t2.name).lower)
    if not result and isinstance(t1, Member) and u.bounds(t1.name).upper is not None:
        result = enter(u.bounds(t1.name).upper, t2)
    if not result:
        match t1, t2:
            case (Base(name=a), Base(name=b)) | (Member(name=a), Member(name=b)):
                result = a == b
            case Fun(param=p1, result=r1), Fun(param=p2, result=r2):
                result = enter(p2, p1) and enter(r1, r2)
    return result, calls, 1 + below


@pytest.mark.parametrize("n", range(1, 11))
def test_cached_counts_match_the_plain_recursion_on_the_two_chains(n):
    universe, t1, t2 = make_pn(n)
    queries = [(t1, t2)]
    if n <= 4:  # every pair of members, where sub-queries repeat most
        members = [Member(name) for name, _ in universe.members]
        queries = [(a, b) for a in members for b in members]
    for a, b in queries:
        assert astuple(scala_sub(universe, a, b)) == _plain_sub(universe, a, b), (a, b)


def test_cached_counts_match_the_plain_recursion_on_bad_bounds():
    universe = bad_bounds_universe()
    e = Member("E")
    types = (INT, STRING, e, F_II, F_IS, Fun(e, INT), Fun(F_IS, e), Fun(e, e))
    for a in types:
        for b in types:
            assert astuple(scala_sub(universe, a, b)) == _plain_sub(universe, a, b), (a, b)


def test_cyclic_universe_hits_depth_guard():
    cyclic = BoundsUniverse.of(
        {"A": Bounds(lower=Member("B")), "B": Bounds(lower=Member("A"))}
    )
    with pytest.raises(InternalLimit):
        scala_sub(cyclic, Member("A"), Member("B"))


def test_self_cycle_hits_depth_guard():
    cyclic = BoundsUniverse.of({"A": Bounds(upper=Member("A"))})
    with pytest.raises(InternalLimit):
        scala_sub(cyclic, Member("A"), INT)


# ---------------------------------------------------------------------------
# Benchmark


def test_bench_rows_strictly_increasing():
    rows = list(bench_pn(1, 8, "calls"))
    assert [n for n, _ in rows] == list(range(1, 9))
    values = [v for _, v in rows]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_bench_deterministic_for_calls():
    assert list(bench_pn(1, 10, "calls")) == list(bench_pn(1, 10, "calls"))


def test_bench_nanos_metric_runs():
    rows = list(bench_pn(1, 3, "nanos"))
    assert all(v >= 0 for _, v in rows)


def test_bench_rejects_bad_ranges():
    with pytest.raises(ValueError):
        list(bench_pn(3, 2))
    with pytest.raises(ValueError):
        list(bench_pn(1, 2, metric="seconds"))

