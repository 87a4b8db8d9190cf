"""Model of a bounds-aware, non-transitive subtype check and its worst case.

The checker consults a member's bounds only when the member itself is one of
the two types being compared: if the right side is a member with a lower
bound, recurse into that bound; failing that, if the left side is a member
with an upper bound, recurse into that one; otherwise fall back to the
structural rules (equal base names, equal member names, and
contravariant/covariant function comparison).  There is no transitivity
rule, so chains of one-sided bounds force the checker to explore an
exponential number of paths before giving up.

``scala_sub`` reports the exact number of recursive entries and the maximum
recursion depth the plain recursion would perform.  Identical queries have
identical subtrees, so internally the computation caches per type pair while
summing counts as if uncached; this keeps deep chains cheap without changing
any reported number.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import DsubError, InternalLimit

DEPTH_LIMIT = 10_000

#: The largest N of :func:`make_pn` that ``dsub bench pn`` takes.  The model
#: recurses one Python frame per member along the two chains, 2N deep, and
#: decides N = 494 within the default recursion limit of 1000; 400 leaves
#: room for its callers' frames.
MAX_N = 400


class UnknownMember(DsubError):
    pass


@dataclass(frozen=True)
class Base:
    """A named base type; base types relate only to themselves."""

    name: str


@dataclass(frozen=True)
class Fun:
    """Function type, contravariant in ``param`` and covariant in ``result``."""

    param: "SType"
    result: "SType"


@dataclass(frozen=True)
class Member:
    """Reference to an abstract type member declared in a universe."""

    name: str


SType = Base | Fun | Member

INT = Base("Int")
STRING = Base("String")


@dataclass(frozen=True)
class Bounds:
    lower: Optional[SType] = None
    upper: Optional[SType] = None


@dataclass(frozen=True)
class BoundsUniverse:
    """Finite map from member names to their (optional) bounds."""

    members: tuple = field(default=())  # of (name, Bounds)
    # name -> Bounds, the first entry of each name; built once
    index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index: dict = {}
        for name, b in self.members:
            index.setdefault(name, b)
        object.__setattr__(self, "index", index)

    def bounds(self, name: str) -> Bounds:
        try:
            return self.index[name]
        except KeyError:
            raise UnknownMember(f"unknown type member {name!r}") from None

    @staticmethod
    def of(entries: dict) -> "BoundsUniverse":
        return BoundsUniverse(tuple(entries.items()))


@dataclass(frozen=True)
class SubStats:
    result: bool
    calls: int
    max_depth: int


def scala_sub(u: BoundsUniverse, t1: SType, t2: SType) -> SubStats:
    """Run the bounds-aware check and count every recursive entry.

    Raises :class:`InternalLimit` if the uncached recursion would nest beyond
    :data:`DEPTH_LIMIT` (a cyclic bound chain).
    """
    bounds = u.bounds
    numbers: dict = {}  # id of a type met -> its number, from 1
    shapes: dict = {}  # (class name, name or component numbers) -> number
    met: list = []  # the types numbered, so that no id is reused
    cache: dict = {}
    in_progress: set = set()

    def number(t: SType) -> int:
        """``t``'s number, the same for equal types; found by identity, so
        a query's key is hashed in C rather than by the dataclasses."""
        n = numbers.get(id(t))
        if n is None:
            match t:
                case Fun(param=p, result=r):
                    shape = ("Fun", number(p), number(r))
                case Base(name=a) | Member(name=a):
                    shape = (type(t).__name__, a)
                case _:
                    raise TypeError(f"not a type: {t!r}")
            n = numbers[id(t)] = shapes.setdefault(shape, len(shapes) + 1)
            met.append(t)
        return n

    def go(t1: SType, t2: SType) -> tuple:
        key = (numbers.get(id(t1)) or number(t1), numbers.get(id(t2)) or number(t2))
        outcome = cache.get(key)
        if outcome is not None:
            return outcome
        if key in in_progress:
            # the plain recursion would re-enter the same query forever
            raise InternalLimit(f"subtype recursion exceeded depth {DEPTH_LIMIT}")
        in_progress.add(key)
        try:
            calls = 1
            depth = 1
            result = None

            if isinstance(t2, Member):
                lower = bounds(t2.name).lower
                if lower is not None:
                    sub_result, sub_calls, sub_depth = go(t1, lower)
                    calls += sub_calls
                    depth = max(depth, 1 + sub_depth)
                    if sub_result:
                        result = True
            if result is None and isinstance(t1, Member):
                upper = bounds(t1.name).upper
                if upper is not None:
                    sub_result, sub_calls, sub_depth = go(upper, t2)
                    calls += sub_calls
                    depth = max(depth, 1 + sub_depth)
                    if sub_result:
                        result = True
            if result is None:
                structural, s_calls, s_depth = _structural(t1, t2)
                calls += s_calls
                depth = max(depth, 1 + s_depth) if s_calls else depth
                result = structural

            if depth > DEPTH_LIMIT:
                raise InternalLimit(f"subtype recursion exceeded depth {DEPTH_LIMIT}")
            outcome = cache[key] = (result, calls, depth)
            return outcome
        finally:
            in_progress.discard(key)

    def _structural(t1: SType, t2: SType) -> tuple:
        match t1, t2:
            case Base(name=a), Base(name=b):
                return a == b, 0, 0
            case Member(name=a), Member(name=b):
                return a == b, 0, 0
            case Fun(param=p1, result=r1), Fun(param=p2, result=r2):
                param_ok, p_calls, p_depth = go(p2, p1)
                calls, depth = p_calls, p_depth
                if not param_ok:
                    return False, calls, depth
                result_ok, r_calls, r_depth = go(r1, r2)
                calls += r_calls
                depth = max(depth, r_depth)
                return result_ok, calls, depth
            case _:
                return False, 0, 0

    try:
        result, calls, depth = go(t1, t2)
    finally:
        number = go = _structural = None  # each refers to itself through its closure
    return SubStats(result, calls, depth)


# ---------------------------------------------------------------------------
# Example universes


def make_pn(n: int):
    """The two-chain worst-case universe.

    Members ``T1 .. Tn`` climb by upper bounds (``Ti`` upper = ``Ti+1``,
    ``Tn`` unbounded); members ``Tn+1 .. T2n`` climb by lower bounds
    (``Tj+1`` lower = ``Tj``, ``Tn+1`` unbounded).  Returns the universe and
    the query pair encoding the failing assignment check ``T1 <: T2n``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    entries: dict = {}
    for i in range(1, n + 1):
        upper = Member(f"T{i + 1}") if i < n else None
        entries[f"T{i}"] = Bounds(upper=upper)
    for j in range(n + 1, 2 * n + 1):
        lower = Member(f"T{j - 1}") if j > n + 1 else None
        entries[f"T{j}"] = Bounds(lower=lower)
    return BoundsUniverse.of(entries), Member("T1"), Member(f"T{2 * n}")


def bench_pn(min_n: int, max_n: int, metric: str = "calls") -> Iterator[tuple]:
    """Yield (N, value) rows for the worst-case family; ``metric`` is
    ``calls`` (deterministic) or ``nanos`` (wall time of this memoised
    model, not of the recursion it counts)."""
    if not 1 <= min_n <= max_n:
        raise ValueError("need 1 <= min_n <= max_n")
    if metric not in ("calls", "nanos"):
        raise ValueError(f"unknown metric {metric!r}")
    for n in range(min_n, max_n + 1):
        universe, t1, t2 = make_pn(n)
        start = time.perf_counter_ns()
        stats = scala_sub(universe, t1, t2)
        elapsed = time.perf_counter_ns() - start
        yield n, stats.calls if metric == "calls" else elapsed
