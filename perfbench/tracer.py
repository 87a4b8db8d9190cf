"""Span tracer that wraps ``dsub``'s public functions from outside.

A span has a name, a start, an end and a parent.  Spans are kept in memory
(four int64 slots each) and written out when the run ends.  Every wrapped
call is counted; a call that recurses directly into the function whose span
is innermost is folded into that span, so a span marks a layer boundary and
not each step of a recursion.  Self time is a span's duration minus the time
its child spans cover.

Work the tracer itself does inside a span (computing memo keys, counting
parsed nodes) is booked as covered time of the innermost span, so it shows
in tracing overhead but not in any layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import weakref
from array import array
from time import perf_counter_ns

from reference import from_dsub, node_count

# (module, attribute, span name) for each public function that gets a span.
# Every module-level reference to the same function object is replaced, so
# calls between dsub modules are caught as well as the benchmark's own.
WRAPPED = (
    ("syntax", "parse_type", "syntax.parse_type"),
    ("syntax", "parse_term", "syntax.parse_term"),
    ("environment", "parse_env", "environment.parse_env"),
    ("exposure", "expose", "exposure.expose"),
    ("bounds_shift", "promote", "bounds_shift.promote"),
    ("step", "weight", "step.weight"),
    ("step", "step_subtype", "step.step_subtype"),
    ("step", "step_type", "step.step_type"),
    ("declarative", "elaborate_step", "declarative.elaborate_step"),
    ("declarative", "decl_verify", "declarative.decl_verify"),
    ("lab", "check_no_tag_switch", "lab.check_no_tag_switch"),
    ("dotty", "scala_sub", "dotty.scala_sub"),
    ("cli", "corpus_run", "cli.corpus_run"),
)
SEARCH_SPAN = "declarative.search"
SYNTAX_CACHES = ("fv_type", "fv_term", "canon_type", "canon_term")


class Tracer:
    def __init__(self) -> None:
        self.names: list = []
        self._ids: dict = {}
        self.spans = array("q")  # name id, start ns, end ns, parent index
        self.calls: list = []
        self.total_ns: list = []
        self.self_ns: list = []
        self.counts = {
            "parse_nodes": 0,
            "memo_lookups": 0,
            "memo_hits": 0,
            "search_found": 0,
            "model_calls": 0,
            "derivable": 0,
            "violations": 0,
        }
        self._memo_keys = weakref.WeakKeyDictionary()
        self._stack: list = []  # [name id, span index, start ns, covered ns]
        self._patches: list = []

    # -- spans

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    def open(self, nid: int) -> None:
        parent = self._stack[-1][1] if self._stack else -1
        index = len(self.spans) // 4
        start = perf_counter_ns()
        self.spans.extend((nid, start, 0, parent))
        self._stack.append([nid, index, start, 0])

    def close(self) -> None:
        end = perf_counter_ns()
        nid, index, start, covered = self._stack.pop()
        self.spans[4 * index + 2] = end
        duration = end - start
        self.total_ns[nid] += duration
        self.self_ns[nid] += duration - covered
        if self._stack:
            self._stack[-1][3] += duration

    def call(self, nid: int, fn, args, kwargs):
        self.calls[nid] += 1
        if self._stack and self._stack[-1][0] == nid:
            return fn(*args, **kwargs)
        self.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    def _book_overhead(self, start: int) -> None:
        if self._stack:
            self._stack[-1][3] += perf_counter_ns() - start

    # -- installing wrappers

    def install(self, d) -> None:
        """Wrap the public functions of the loaded ``dsub`` modules ``d``."""
        modules = [m for name, m in sys.modules.items() if name == "dsub" or name.startswith("dsub.")]
        for mod_name, attr, span in WRAPPED:
            fn = getattr(getattr(d, mod_name), attr)
            self._replace(modules, fn, self._wrapper(fn, span))
        searcher = d.declarative.DeclSearcher
        self._patches.append((searcher, "search", searcher.search))
        searcher.search = self._search_wrapper(searcher.search)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _replace(self, modules, fn, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def _wrapper(self, fn, span: str):
        nid = self.name_id(span)
        after = {
            "syntax.parse_type": self._count_nodes,
            "syntax.parse_term": self._count_nodes,
            "dotty.scala_sub": self._count_model_calls,
            "lab.check_no_tag_switch": self._count_report,
        }.get(span)
        call = self.call

        if after is None:

            def wrapper(*args, **kwargs):
                return call(nid, fn, args, kwargs)

        else:

            def wrapper(*args, **kwargs):
                result = call(nid, fn, args, kwargs)
                start = perf_counter_ns()
                after(result)
                self._book_overhead(start)
                return result

        return functools.wraps(fn)(wrapper)

    def _search_wrapper(self, search):
        nid = self.name_id(SEARCH_SPAN)
        counts = self.counts

        def wrapper(searcher, goal, fuel):
            if fuel > 0:
                start = perf_counter_ns()
                seen = self._memo_keys.setdefault(searcher, set())
                key = (goal.key(), fuel)
                counts["memo_lookups"] += 1
                if key in seen:
                    counts["memo_hits"] += 1
                else:
                    seen.add(key)
                self._book_overhead(start)
            outermost = not (self._stack and self._stack[-1][0] == nid)
            found = self.call(nid, search, (searcher, goal, fuel), {})
            if outermost and found is not None:
                counts["search_found"] += 1
            return found

        return functools.wraps(search)(wrapper)

    def _count_nodes(self, node) -> None:
        self.counts["parse_nodes"] += node_count(from_dsub(node))

    def _count_model_calls(self, stats) -> None:
        self.counts["model_calls"] += stats.calls

    def _count_report(self, report) -> None:
        self.counts["derivable"] += report.derivable_count
        self.counts["violations"] += len(report.violations)

    # -- results

    @contextlib.contextmanager
    def op_span(self, kind: str):
        """One op's root span, named ``op.<kind>``."""
        self.open(self.name_id(f"op.{kind}"))
        try:
            yield
        finally:
            self.close()

    def totals(self, name: str) -> tuple:
        """(calls, total ns, self ns) of the spans named ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0, 0
        return self.calls[nid], self.total_ns[nid], self.self_ns[nid]

    @property
    def span_count(self) -> int:
        return len(self.spans) // 4

    def write(self, path) -> None:
        """Write every span as a tab-separated line: index, name, start ns,
        end ns, parent index (-1 for a root)."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\n")
            s = self.spans
            for i in range(self.span_count):
                nid, start, end, parent = s[4 * i : 4 * i + 4]
                out.write(f"{i}\t{self.names[nid]}\t{start}\t{end}\t{parent}\n")


def syntax_cache_entries(syntax) -> int:
    """Entries held by ``syntax``'s memo caches (0 for any that is gone)."""
    total = 0
    for name in SYNTAX_CACHES:
        info = getattr(getattr(syntax, name, None), "cache_info", None)
        if info is not None:
            total += info().currsize
    return total
