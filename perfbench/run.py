"""Benchmark for the ``dsub`` pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 40 --trace 0

``--trace 0`` runs the workload as a closed loop with one client for
``--seconds`` seconds and prints the end-to-end metrics.  ``--trace 1``
repeats one fixed pass of the workload's ops (the first cycle of its stream)
untraced and then traced, until ``--seconds`` have passed, and prints the
per-layer metrics, including the tracing overhead.  Every answer is checked
against a reference that does not come from ``dsub``.  The last line of
standard output is a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

from tracer import Tracer, syntax_cache_entries
from workloads import WORKLOADS, chain_ops, let_op, nest_ops

MODULES = (
    "syntax",
    "environment",
    "exposure",
    "bounds_shift",
    "step",
    "trace",
    "declarative",
    "lab",
    "dotty",
    "cli",
)
SETUPS = 9  # set-ups per run; setup_s is their median
MIN_OPS = 100  # the timed loop runs on past --seconds until this many ops
BASELINE_REPEATS = 3
KINDS = ("chain", "nest", "let", "corpus", "model")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "dsub" / "__init__.py").is_file():
        print(f"no dsub sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    setups = []
    workload = cycles = None
    for _ in range(SETUPS):
        workload = cycles = None  # free the last set-up's inputs before timing the next
        start = perf_counter_ns()
        d = load_dsub(src)
        workload = WORKLOADS[args.workload](d, args.seed, root)
        cycles = workload.cycles()
        workload.warm_up()
        setups.append((perf_counter_ns() - start) / 1e9)

    if args.trace:
        result = traced_run(workload, d, cycles, args, root)
    else:
        result = timed_run(workload, cycles, args.seconds)
        result["metrics"].update(as_json({"setup_s": (statistics.median(setups), "s")}))
    result["correct"] = result["correct"] and result["failed"] == 0
    print(
        f"{args.workload}: {result['attempted']} ops, {result['failed']} failed, "
        f"failed_ratio {result['failed'] / result['attempted']}"
    )
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def load_dsub(src: Path) -> SimpleNamespace:
    """Import every ``dsub`` module afresh from ``src``."""
    for name in [m for m in sys.modules if m == "dsub" or m.startswith("dsub.")]:
        del sys.modules[name]
    d = SimpleNamespace(**{m: importlib.import_module(f"dsub.{m}") for m in MODULES})
    if Path(d.syntax.__file__).resolve().parent != (src / "dsub").resolve():
        raise ImportError(f"dsub was imported from {d.syntax.__file__}, not from {src}")
    return d


class Recorder:
    """Collects ``(kind, latency ns, ok)`` for each op."""

    def __init__(self) -> None:
        self.kinds: list = []
        self.latencies: list = []
        self.failed = 0

    def __call__(self, kind: str, latency_ns: int, ok: bool) -> None:
        self.kinds.append(kind)
        self.latencies.append(latency_ns)
        self.failed += not ok


def ms(ns: float) -> float:
    return ns / 1e6


def as_json(metrics: dict) -> dict:
    """``{name: (value, unit)}`` in the result line's form."""
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def timed_run(workload, cycles, seconds: float) -> dict:
    ops = [op for cycle in cycles for op in cycle]
    rec = Recorder()
    start = perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    i = 0
    now = start
    while True:
        op_start = now
        workload.run(ops[i % len(ops)], rec)
        i += 1
        now = perf_counter_ns()
        # stop before an op that, as long as the last one, would end past the deadline
        if len(rec.latencies) >= MIN_OPS and 2 * now - op_start > deadline:
            break
    lat = rec.latencies
    metrics = {
        "latency_p50_ms": (ms(statistics.median(lat)), "ms"),
        "latency_p90_ms": (ms(statistics.quantiles(lat, n=10)[8]), "ms"),
        "ops_per_s": (len(lat) / ((now - start) / 1e9), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {
        "correct": True,
        "attempted": len(lat),
        "failed": rec.failed,
        "metrics": as_json(metrics),
    }


def run_pass(workload, ops, tracer=None) -> tuple:
    """Run ``ops`` once; return the recorder and the pass's wall time."""
    rec = Recorder()
    start = perf_counter_ns()
    for op in ops:
        if tracer is None:
            workload.run(op, rec)
        else:
            with tracer.op_span(op[0]):
                workload.run(op, rec)
    return rec, perf_counter_ns() - start


def traced_run(workload, d, cycles, args, root: Path) -> dict:
    ops = cycles[0]
    untraced, traced, tracers = [], [], []
    start = perf_counter_ns()
    while not tracers or perf_counter_ns() - start < args.seconds * 1e9:
        untraced.append(run_pass(workload, ops))
        tracer = Tracer()
        tracer.install(d)
        try:
            traced.append(run_pass(workload, ops, tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)

    counts = [layer_counts(t) for t in tracers]
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        print(f"per-layer counts differ between passes: {counts}", file=sys.stderr)

    metrics = layer_metrics(tracers, workload, d)
    metrics.update(kind_metrics(untraced))
    untraced_rate = rate(untraced)
    traced_rate = rate(traced)
    metrics.update(
        {
            "trace.pass_ops": (len(traced[0][0].latencies), "count"),
            "trace.passes": (len(tracers), "count"),
            "trace.spans": (tracers[0].span_count, "count"),
            "trace.untraced_ops_per_s": (untraced_rate, "1/s"),
            "trace.traced_ops_per_s": (traced_rate, "1/s"),
            "trace.overhead_ops_per_s": (untraced_rate - traced_rate, "1/s"),
        }
    )
    ok = True
    if workload.name == "query_mix":
        baseline, ok = baselines(d)
        metrics.update(baseline)
    else:
        metrics.update({name: (0, unit) for name, unit in BASELINE_METRICS})

    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    for i, tracer in enumerate(tracers):
        tracer.write(out_dir / f"{workload.name}-seed{args.seed}-pass{i}.tsv")

    recs = [r for r, _ in untraced + traced]
    return {
        "correct": repeat and ok,
        "attempted": sum(len(r.latencies) for r in recs),
        "failed": sum(r.failed for r in recs),
        "metrics": as_json(metrics),
    }


def rate(passes) -> float:
    return sum(len(r.latencies) for r, _ in passes) / (sum(ns for _, ns in passes) / 1e9)


COUNTED = (
    "exposure.expose",
    "bounds_shift.promote",
    "step.weight",
    "declarative.search",
)


def layer_counts(tracer: Tracer) -> dict:
    """The counts that must repeat exactly from pass to pass and run to run."""
    out = {name: tracer.totals(name)[0] for name in COUNTED}
    out.update(tracer.counts)
    return out


def layer_metrics(tracers, workload, d) -> dict:
    first = tracers[0]
    n = len(tracers)

    def total_ms(*names) -> float:
        return ms(sum(t.totals(name)[1] for t in tracers for name in names)) / n

    def self_ms(name) -> float:
        return ms(sum(t.totals(name)[2] for t in tracers)) / n

    def calls(name) -> int:
        return first.totals(name)[0]

    c = first.counts
    lookups = c["memo_lookups"]
    return {
        "syntax.parse_ms": (total_ms("syntax.parse_type", "syntax.parse_term"), "ms"),
        "syntax.parse_nodes": (c["parse_nodes"], "count"),
        "syntax.cache_entries": (syntax_cache_entries(d.syntax), "count"),
        "environment.parse_env_ms": (total_ms("environment.parse_env"), "ms"),
        "exposure.expose_calls": (calls("exposure.expose"), "count"),
        "exposure.expose_self_ms": (self_ms("exposure.expose"), "ms"),
        "bounds_shift.promote_calls": (calls("bounds_shift.promote"), "count"),
        "bounds_shift.promote_self_ms": (self_ms("bounds_shift.promote"), "ms"),
        "step.subtype_ms": (total_ms("step.step_subtype"), "ms"),
        "step.type_ms": (total_ms("step.step_type"), "ms"),
        "step.weight_calls": (calls("step.weight"), "count"),
        "step.weight_self_ms": (self_ms("step.weight"), "ms"),
        "declarative.elaborate_ms": (total_ms("declarative.elaborate_step"), "ms"),
        "declarative.verify_ms": (total_ms("declarative.decl_verify"), "ms"),
        "declarative.search_calls": (calls("declarative.search"), "count"),
        "declarative.search_self_ms": (self_ms("declarative.search"), "ms"),
        "declarative.memo_lookups": (lookups, "count"),
        "declarative.memo_distinct": (lookups - c["memo_hits"], "count"),
        "declarative.memo_hit_ratio": (c["memo_hits"] / lookups if lookups else 0, "ratio"),
        "declarative.search_found": (c["search_found"], "count"),
        "lab.harness_s": (total_ms("lab.check_no_tag_switch") / 1e3, "s"),
        "lab.universe_size": (getattr(workload, "universe_size", 0), "count"),
        "lab.derivable": (c["derivable"], "count"),
        "lab.violations": (c["violations"], "count"),
        "dotty.scala_sub_ms": (total_ms("dotty.scala_sub"), "ms"),
        "dotty.model_calls": (c["model_calls"], "count"),
        "cli.corpus_run_ms": (total_ms("cli.corpus_run"), "ms"),
    }


def kind_metrics(untraced) -> dict:
    """Per-kind median latency and share of busy time, from untraced passes."""
    by_kind = {k: [] for k in KINDS}
    busy = 0
    for rec, _ in untraced:
        busy += sum(rec.latencies)
        for kind, ns in zip(rec.kinds, rec.latencies):
            if kind in by_kind:
                by_kind[kind].append(ns)
    out = {}
    for kind, lat in by_kind.items():
        out[f"kind.{kind}.p50_ms"] = (ms(statistics.median(lat)) if lat else 0, "ms")
        out[f"kind.{kind}.busy_share"] = (sum(lat) / busy, "ratio")
    return out


BASELINE_METRICS = (
    ("baseline.chain12_subtype_ms", "ms"),
    ("baseline.chain14_subtype_ms", "ms"),
    ("baseline.chain14_weight_calls", "count"),
    ("baseline.nest150_subtype_ms", "ms"),
    ("baseline.let100_type_ms", "ms"),
    ("baseline.let100_verify_ms", "ms"),
    ("baseline.repeats", "count"),
)


def baselines(d) -> tuple:
    """The ROADMAP baseline points inside query_mix, each the median of
    ``BASELINE_REPEATS`` untraced runs of one layer call on parsed input."""

    def parsed_sub(op):
        _, _, _, _, expected, (env_text, lhs, rhs) = op
        parsed = (d.environment.parse_env(env_text), d.syntax.parse_type(lhs), d.syntax.parse_type(rhs))
        return parsed, expected

    def timed(fn, *args):
        times, results = [], []
        for _ in range(BASELINE_REPEATS):
            start = perf_counter_ns()
            results.append(fn(*args))
            times.append(perf_counter_ns() - start)
        return ms(statistics.median(times)), results[0]

    ok = True
    out = {}
    for name, op in (
        ("chain12", chain_ops(12)[0]),
        ("chain14", chain_ops(14)[0]),
        ("nest150", nest_ops(150, "B")[0]),
    ):
        sub_args, expected = parsed_sub(op)
        out[f"baseline.{name}_subtype_ms"], result = timed(d.step.step_subtype, *sub_args)
        ok = ok and result.holds == expected
    tracer = Tracer()
    tracer.install(d)
    try:
        d.step.step_subtype(*parsed_sub(chain_ops(14)[0])[0])
    finally:
        tracer.uninstall()
    out["baseline.chain14_weight_calls"] = tracer.totals("step.weight")[0]

    _, _, text = let_op(100)
    term = d.syntax.parse_term(text)
    out["baseline.let100_type_ms"], typed = timed(d.step.step_type, d.environment.TypeEnv.empty(), term)
    out["baseline.let100_verify_ms"], verdict = timed(
        d.declarative.decl_verify, d.declarative.elaborate_step(typed.trace)
    )
    ok = ok and bool(typed) and verdict.ok
    out["baseline.repeats"] = BASELINE_REPEATS
    print(
        f"baselines on {platform.machine()} with {os.cpu_count()} CPUs, Python "
        f"{platform.python_version()}, median of {BASELINE_REPEATS} repeats: "
        + ", ".join(f"{k} = {v}" for k, v in out.items())
    )
    if not ok:
        print("a baseline query gave a wrong answer", file=sys.stderr)
    return {name: (out[name], unit) for name, unit in BASELINE_METRICS}, ok


if __name__ == "__main__":
    sys.exit(main())
