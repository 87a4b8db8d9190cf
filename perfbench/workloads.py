"""The three workloads: seeded inputs, the op each one times, and the
reference each answer is checked against.

Each workload is a closed loop with one client: the next op starts when the
previous one has been checked.  Inputs are generated from the seed in
cycles; a cycle holds every size class of the workload once, in an order
(and, for ranges, at exact sizes) the seed picks, so two seeds load the
program alike while feeding it different inputs.  Ops reach ``dsub`` only
through module attributes (``d.step.step_subtype``), so a tracer that
replaces those attributes sees them.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
import traceback
from pathlib import Path
from time import perf_counter_ns

from reference import (
    BOT,
    TOP,
    alpha_key,
    concludes,
    from_dsub,
    pn_calls,
    print_env,
    print_node,
)

CYCLES = 40  # cycles generated; a run that uses them all starts over
_MAX_REPORTS = 5  # failure reports printed per run


class Workload:
    """An op stream plus how to run and check one op."""

    name = ""

    def __init__(self, d, seed: int, root: Path) -> None:
        self.d = d
        self.rng = random.Random(f"{self.name}:{seed}")
        self.reports = 0

    def cycle(self) -> list:
        """One cycle of ops, drawn with the workload's seeded generator."""
        raise NotImplementedError

    def cycles(self) -> list:
        """The op stream, as ``CYCLES`` cycles."""
        return [self.cycle() for _ in range(CYCLES)]

    def warm_up(self) -> None:
        """Ops run once during set-up, on inputs outside the stream."""

    def run(self, op, record) -> None:
        """Run one op, calling ``record(kind, latency_ns, ok)`` once per op
        the program decided."""
        start = perf_counter_ns()
        try:
            ok = self.check(op)
        except Exception:  # noqa: BLE001 - any exception is a failed op
            ok = False
            self.report(f"{op[0]} op raised:\n{traceback.format_exc()}")
        record(op[0], perf_counter_ns() - start, ok)

    def check(self, op) -> bool:
        raise NotImplementedError

    def report(self, message: str) -> None:
        if self.reports < _MAX_REPORTS:
            print(f"[{self.name}] {message}", file=sys.stderr)
        self.reports += 1

    # shared checks

    def sub_query(self, bindings, lhs, rhs, expected: bool, texts) -> bool:
        """Parse, step-subtype, and on a positive answer elaborate and verify."""
        d = self.d
        env_text, lhs_text, rhs_text = texts
        g = d.environment.parse_env(env_text)
        result = d.step.step_subtype(g, d.syntax.parse_type(lhs_text), d.syntax.parse_type(rhs_text))
        if result.holds != expected:
            self.report(f"{lhs_text} <: {rhs_text}: got {result.holds}, expected {expected}")
            return False
        return not result.holds or self.verified(
            d.declarative.elaborate_step(result.trace), bindings, lhs, rhs
        )

    def verified(self, tree, bindings, *parts) -> bool:
        verdict = self.d.declarative.decl_verify(tree)
        if not verdict.ok:
            self.report(f"derivation rejected at {verdict.path}: {verdict.message}")
            return False
        if not concludes(tree, bindings, *parts):
            self.report(f"derivation concludes another judgment than {[print_node(p) for p in parts]}")
            return False
        return True


# ---------------------------------------------------------------------------
# query_mix


def chain_env(n: int) -> list:
    """``x0: {A: Bot..Top}``, ``xi: {A: x(i-1).A .. x(i-1).A}``."""
    out = [("x0", ("decl", "A", BOT, TOP))]
    for i in range(1, n):
        sel = ("path", f"x{i - 1}", "A")
        out.append((f"x{i}", ("decl", "A", sel, sel)))
    return out


def nest_type(depth: int, innermost: str = "A") -> tuple:
    """``{A: Bot .. {A: Bot .. ... {innermost: Bot .. Top}}}``, ``depth`` levels."""
    t = ("decl", innermost, BOT, TOP)
    for _ in range(depth - 1):
        t = ("decl", "A", BOT, t)
    return t


def let_chain(n: int) -> tuple:
    """``let v0 = {A = Top} in let vi = {A = v(i-1).A} in ... v(n-1)``."""
    t = ("var", f"v{n - 1}")
    for i in reversed(range(n)):
        alias = TOP if i == 0 else ("path", f"v{i - 1}", "A")
        t = ("let", f"v{i}", ("tag", "A", alias), t)
    return t


LET_TYPE = ("decl", "A", TOP, TOP)
CHAIN_SIZES = range(2, 15)
NEST_RANGE = (10, 150)
LET_RANGE = (10, 100)
MODEL_SIZES = range(2, 17)
STRATA = 10  # strata per cycle for the nest and let size ranges
CORPUS_PER_CYCLE = 2
CORPUS_SUFFIXES = (".dsub", ".sub", ".json")


def stratified(rng: random.Random, lo: int, hi: int, k: int) -> list:
    """One size drawn uniformly from each of ``k`` equal slices of [lo, hi]."""
    width = (hi - lo + 1) / k
    return [rng.randint(lo + int(i * width), lo + int((i + 1) * width) - 1) for i in range(k)]


class QueryMix(Workload):
    """Independent checker queries given as text: parse, environment, step,
    then ``elaborate_step`` and ``decl_verify`` on every positive answer."""

    name = "query_mix"

    def __init__(self, d, seed: int, root: Path) -> None:
        super().__init__(d, seed, root)
        self.corpus_dir = root / "corpus"
        self.corpus_cases = corpus_cases(self.corpus_dir)

    def cycle(self) -> list:
        rng = self.rng
        ops = []
        for n in CHAIN_SIZES:
            ops.extend(chain_ops(n))
        for depth in stratified(rng, *NEST_RANGE, STRATA):
            ops.extend(nest_ops(depth, rng.choice("BC")))
        ops.extend(let_op(n) for n in stratified(rng, *LET_RANGE, STRATA))
        ops.extend(("corpus",) for _ in range(CORPUS_PER_CYCLE))
        ops.extend(("model", n) for n in MODEL_SIZES)
        rng.shuffle(ops)
        return ops

    def warm_up(self) -> None:
        for op in chain_ops(3) + nest_ops(4, "B") + [let_op(3), ("corpus",), ("model", 3)]:
            self.run(op, lambda *_: None)

    def check(self, op) -> bool:
        kind = op[0]
        if kind in ("chain", "nest"):
            return self.sub_query(*op[1:])
        if kind == "let":
            return self.let_query(*op[1:])
        if kind == "corpus":
            return self.corpus_query()
        return self.model_query(op[1])

    def let_query(self, term: tuple, text: str) -> bool:
        d = self.d
        g = d.environment.parse_env("")
        outcome = d.step.step_type(g, d.syntax.parse_term(text))
        if not outcome:
            self.report(f"let chain untypable: {outcome.describe()}")
            return False
        if alpha_key(from_dsub(outcome.ty)) != alpha_key(LET_TYPE):
            self.report(f"let chain typed {from_dsub(outcome.ty)}, expected {LET_TYPE}")
            return False
        return self.verified(d.declarative.elaborate_step(outcome.trace), [], term, LET_TYPE)

    def corpus_query(self) -> bool:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = self.d.cli.main(["corpus", "run", "--dir", str(self.corpus_dir)])
        n = len(self.corpus_cases)
        wanted = [f"ok    {name}" for name in self.corpus_cases] + [f"{n}/{n} corpus cases passed"]
        if status != 0 or out.getvalue().splitlines() != wanted:
            self.report(f"corpus run exited {status}:\n{out.getvalue()}")
            return False
        return True

    def model_query(self, n: int) -> bool:
        stats = self.d.dotty.scala_sub(*self.d.dotty.make_pn(n))
        if stats.result is not False or stats.calls != pn_calls(n - 1, n - 1):
            self.report(f"model N={n}: {stats}, expected False with {pn_calls(n - 1, n - 1)} calls")
            return False
        return True


def sub_op(kind: str, bindings, lhs, rhs, expected: bool) -> tuple:
    texts = (print_env(bindings), print_node(lhs), print_node(rhs))
    return (kind, bindings, lhs, rhs, expected, texts)


def chain_ops(n: int) -> list:
    """The chain query ``x(n-1).A <: x0.A`` (holds) and two negatives known
    by construction: every ``xi.A`` lies between ``x0``'s bounds Bot and Top,
    so ``Top <: x(n-1).A`` and ``x(n-1).A <: Bot`` would need ``Top <: Bot``."""
    env = chain_env(n)
    last = ("path", f"x{n - 1}", "A")
    return [
        sub_op("chain", env, last, ("path", "x0", "A"), True),
        sub_op("chain", env, TOP, last, False),
        sub_op("chain", env, last, BOT, False),
    ]


def nest_ops(depth: int, other_label: str) -> list:
    """A nested declaration against itself (holds) and against a copy whose
    innermost label differs (does not: labels are never related)."""
    t = nest_type(depth)
    return [
        sub_op("nest", [], t, t, True),
        sub_op("nest", [], t, nest_type(depth, other_label), False),
    ]


def let_op(n: int) -> tuple:
    term = let_chain(n)
    return ("let", term, print_node(term))


def corpus_cases(directory: Path) -> list:
    """Names of the corpus cases, each checked to carry an expectation the
    corpus runner knows; their ``//! expect`` headers are the reference."""
    names = []
    for path in sorted(directory.iterdir()):
        if path.suffix not in CORPUS_SUFFIXES:
            continue
        text = path.read_text()
        if path.suffix == ".json":
            known = '"expect"' in text
        else:
            known = any(
                line.startswith("//! expect:") for line in text.splitlines() if line.startswith("//!")
            )
        if not known:
            raise ValueError(f"corpus case {path.name} has no expectation")
        names.append(path.name)
    if not names:
        raise ValueError(f"no corpus cases in {directory}")
    return names


# ---------------------------------------------------------------------------
# search_cold

GOAL_FUELS = (4, 5, 6)
GOAL_SIZE = 3
GOALS_PER_STRATUM = 4  # per (environment, goal kind, fuel) in each cycle


class SearchCold(Workload):
    """One ``decl_search`` per op with a fresh ``DeclSearcher``, as
    ``dsub decl search`` does; a found derivation must verify and conclude
    the goal, and "not found" is a valid answer."""

    name = "search_cold"

    def __init__(self, d, seed: int, root: Path) -> None:
        super().__init__(d, seed, root)
        good = [
            ("x", ("decl", "A", BOT, TOP)),
            ("y", ("decl", "B", ("path", "x", "A"), ("path", "x", "A"))),
        ]
        bad = [(x, from_dsub(t)) for x, t in d.lab.bad_bounds_env()]
        self.envs = [
            self._pool([], ("A", "B")),
            self._pool(good, ("A", "B")),
            self._pool(bad, ("E", "V", "Z")),
        ]

    def _pool(self, bindings, labels) -> tuple:
        scope = tuple(x for x, _ in bindings)
        enum = self.d.lab.Enumerator(variables=scope, labels=labels)
        types = [from_dsub(t) for t in enum.types(GOAL_SIZE, scope)]
        terms = [from_dsub(t) for t in enum.terms(GOAL_SIZE, scope)]
        return bindings, print_env(bindings), types, terms

    def cycle(self) -> list:
        rng = self.rng
        ops = []
        for bindings, env_text, types, terms in self.envs:
            for fuel in GOAL_FUELS:
                for _ in range(GOALS_PER_STRATUM):
                    lhs, rhs = rng.choice(types), rng.choice(types)
                    ops.append(goal_op("sub", bindings, env_text, lhs, rhs, fuel))
                    if terms:
                        term, ty = rng.choice(terms), rng.choice(types)
                        ops.append(goal_op("typ", bindings, env_text, term, ty, fuel))
        rng.shuffle(ops)
        return ops

    def warm_up(self) -> None:
        for bindings, env_text, types, terms in self.envs:
            self.run(goal_op("sub", bindings, env_text, types[0], types[-1], 2), lambda *_: None)

    def check(self, op) -> bool:
        d = self.d
        kind, bindings, env_text, left, right, fuel, texts = op
        g = d.environment.parse_env(env_text)
        if kind == "sub":
            goal = d.declarative.SubJ(g, d.syntax.parse_type(texts[0]), d.syntax.parse_type(texts[1]))
        else:
            goal = d.declarative.TypJ(g, d.syntax.parse_term(texts[0]), d.syntax.parse_type(texts[1]))
        tree = d.declarative.decl_search(goal, fuel)
        return tree is None or self.verified(tree, bindings, left, right)


def goal_op(kind: str, bindings, env_text: str, left, right, fuel: int) -> tuple:
    return (kind, bindings, env_text, left, right, fuel, (print_node(left), print_node(right)))


# ---------------------------------------------------------------------------
# lab_sweep

LAB_MAX_SIZE = 4
LAB_FUEL = 6
LAB_UNIVERSE = 120  # types of size <= 4 over variable e and labels E, V, Z
LAB_DERIVABLE = 507
LAB_VIOLATIONS = 0


class LabSweep(Workload):
    """``check_no_tag_switch(max_size=4, fuel=6)``, what ``dsub lab tags``
    runs; an op is one judgment the harness decides.  The harness fixes its
    own inputs, so the seed changes nothing here."""

    name = "lab_sweep"

    def __init__(self, d, seed: int, root: Path) -> None:
        super().__init__(d, seed, root)
        enum = d.lab.Enumerator(variables=("e",), labels=("E", "V", "Z"))
        universe = list(enum.types(LAB_MAX_SIZE, ("e",)))
        self.universe_size = len(universe)
        self.pairs = len(universe) * sum(type(t).__name__ == "Decl" for t in universe)

    def cycles(self) -> list:
        return [[("sweep",)]]

    def run(self, op, record) -> None:
        """Run one sweep.  A judgment's latency is the time from the harness
        building its ``SubJ`` to it building the next one (or returning):
        the search plus the harness's own check of the answer."""
        lab = self.d.lab
        stamps = []
        subj = lab.SubJ

        def stamped(*args):
            stamps.append(perf_counter_ns())
            return subj(*args)

        lab.SubJ = stamped
        start = perf_counter_ns()
        try:
            report = lab.check_no_tag_switch(max_size=LAB_MAX_SIZE, fuel=LAB_FUEL)
        except Exception:  # noqa: BLE001 - a raising sweep fails every judgment
            self.report(f"sweep raised:\n{traceback.format_exc()}")
            report = None
        finally:
            lab.SubJ = subj
        end = perf_counter_ns()
        ok = report is not None and self.check_report(report, len(stamps))
        if ok:
            latencies = [b - a for a, b in zip(stamps, stamps[1:] + [end])]
        else:
            latencies = [(end - start) // self.pairs] * self.pairs
        for latency in latencies:
            record("judgment", latency, ok)

    def check_report(self, report, judgments: int) -> bool:
        got = (self.universe_size, judgments, report.derivable_count, len(report.violations))
        wanted = (LAB_UNIVERSE, self.pairs, LAB_DERIVABLE, LAB_VIOLATIONS)
        if got != wanted:
            self.report(f"(universe, judgments, derivable, violations) = {got}, expected {wanted}")
            return False
        return True


WORKLOADS = {w.name: w for w in (QueryMix, LabSweep, SearchCold)}
