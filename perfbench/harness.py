"""Measurement loop, metric computation and the result line.

Set-up is repeated and its median reported, so that work moved into set-up
shows.  Only sqluq's own calls are timed as set-up; the inputs the
benchmark generates itself are made once, before.  The timed part runs
whole passes over the workload's fixed input set until its operations have
taken the requested seconds, one operation at a time (a closed loop with
one client).  Every record, query or pair is one attempt;
an exception from sqluq becomes a failure counted by its class, never an
aborted run.  A failed output check ends the run with correct = false.
"""

from __future__ import annotations

import contextlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import spans
from workloads import WORKLOADS, CheckFailed


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    op_s: float = 0.0  # sum of latencies
    rows: int = 0
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    passes: list[tuple[int, int, float]] = field(default_factory=list)  # (ops, rows, seconds)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_item(wl, fx, item, tally: Tally, tracer=None) -> float:
    """Run one operation, check its output, and return its wall time.  With
    a tracer (installed by the caller) the operation is one root span."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            output = wl.run(fx, item)
        else:
            with tracer.span(f"bench.{wl.op}", wl.item_id(item)):
                output = wl.run(fx, item)
    except Exception as exc:  # any failure of one operation is counted, not fatal
        elapsed = time.perf_counter() - t0
        n = wl.attempts(fx, item)
        tally.attempted += n
        tally.failures[type(exc).__name__] += n
    else:
        elapsed = time.perf_counter() - t0
        rows, failures = wl.accept(fx, item, output)
        tally.attempted += wl.attempts(fx, item)
        tally.failures.update(failures)
        tally.rows += rows
    tally.latencies.append(elapsed)
    tally.op_s += elapsed
    return elapsed


def run_pass(wl, fx, tally: Tally, tracer=None, after_item=None) -> float:
    """One pass over the items; returns the summed wall time of its
    operations.  after_item() runs between operations, outside their time."""
    items = wl.items(fx)
    rows = tally.rows
    elapsed = 0.0
    with tracer.installed() if tracer else contextlib.nullcontext():
        for item in items:
            elapsed += run_item(wl, fx, item, tally, tracer)
            if after_item is not None:
                after_item()
    tally.passes.append((len(items), tally.rows - rows, elapsed))
    return elapsed


def measure(wl, fx, seconds: float, tally: Tally, set_up, reps: int):
    """Whole untraced passes until the operations have taken `seconds` (at
    least one pass), with `reps` calls of set_up() spread evenly over that
    time between operations, so that the set-up median and the operation
    times sample the same stretch of a machine whose speed drifts."""
    done = 0

    def due():
        nonlocal done
        while done < reps and (done + 1) * seconds <= reps * tally.op_s:
            set_up()
            done += 1

    while True:
        run_pass(wl, fx, tally, after_item=due)
        if tally.op_s >= seconds:
            break
    while done < reps:
        set_up()
        done += 1


def measure_traced(wl, fx, seconds: float, tally: Tally, tracer: spans.Tracer):
    """Each pass runs untraced and traced, alternating which goes first, so
    the overhead ratio compares the same operations."""
    plain: list[float] = []
    traced: list[float] = []
    tracer.phase = "pass"
    start = time.perf_counter()
    while True:
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for with_trace in order:
            if with_trace:
                traced.append(run_pass(wl, fx, tally, tracer))
            else:
                plain.append(run_pass(wl, fx, tally))
        if time.perf_counter() - start >= seconds:
            return plain, traced


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

LAYERS = ("ast_core", "labeler", "featurizer", "gbdt", "pipeline", "schema", "synth", "bench")


def layer_metrics(tracer: spans.Tracer, setup_wall: float, plain: list[float],
                  traced: list[float]) -> dict:
    """Per-layer metrics for one traced set-up plus one average traced pass.

    setup_wall and the traced pass times are measured by the harness around
    the spans, so trace.wall_s checks that the spans miss no time."""
    t = spans.totals(tracer.spans)
    n_pass = len(traced)
    scale = {"setup": 1.0, "pass": 1.0 / n_pass}

    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, float] = defaultdict(float)
    counts: dict[tuple[str, str], float] = defaultdict(float)
    for (phase, name), v in t.self_s.items():
        self_s[name] += v * scale[phase]
    for (phase, name), v in t.calls.items():
        calls[name] += v * scale[phase]
    for (phase, name, key), v in t.counts.items():
        counts[name, key] += v * scale[phase]

    layer_self = defaultdict(float)
    for name, v in self_s.items():
        layer = name.split(".")[0]
        if layer not in LAYERS:
            raise ValueError(f"span {name!r} belongs to no known layer")
        layer_self[layer] += v
    total = sum(t.root_s[phase] * scale[phase] for phase in t.root_s)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    hits = counts["labeler.label", "memo_hits"]
    checks = hits + counts["labeler.label", "memo_misses"]
    trees = counts["gbdt.train", "trees"]
    untraced_pass = sum(plain) / len(plain)
    return {
        "ast_core.parse_s": (self_s["ast_core.parse"], "s"),
        "ast_core.parse_calls": (calls["ast_core.parse"], "count"),
        "ast_core.nodes": (counts["ast_core.parse", "nodes"], "count"),
        "ast_core.self_s": (layer_self["ast_core"], "s"),
        "labeler.label_s": (self_s["labeler.label"], "s"),
        "labeler.label_calls": (calls["labeler.label"], "count"),
        "labeler.equiv_checks": (checks, "count"),
        "labeler.memo_hit_ratio": (ratio(hits, checks), "ratio"),
        "labeler.rescued": (counts["labeler.label", "rescued"], "count"),
        "featurizer.featurize_s": (self_s["featurizer.featurize"], "s"),
        "featurizer.rows": (counts["featurizer.featurize", "rows"], "count"),
        "featurizer.rows_per_s": (
            ratio(counts["featurizer.featurize", "rows"], self_s["featurizer.featurize"]), "rows/s"),
        "gbdt.train_s": (self_s["gbdt.train"], "s"),
        "gbdt.trees": (trees, "count"),
        "gbdt.train_rows": (counts["gbdt.train", "rows"], "count"),
        "gbdt.s_per_tree": (ratio(self_s["gbdt.train"], trees), "s"),
        "gbdt.predict_s": (self_s["gbdt.predict"], "s"),
        "gbdt.predict_calls": (calls["gbdt.predict"], "count"),
        "gbdt.predict_rows": (counts["gbdt.predict", "rows"], "count"),
        "gbdt.eval_s": (self_s["gbdt.eval"], "s"),
        "gbdt.load_s": (self_s["gbdt.load"], "s"),
        "gbdt.self_s": (layer_self["gbdt"], "s"),
        "pipeline.load_dataset_s": (self_s["pipeline.load_dataset"], "s"),
        "pipeline.run_self_s": (self_s["pipeline.run_experiment"], "s"),
        "pipeline.skipped": (counts["pipeline.run_experiment", "skipped"], "count"),
        "pipeline.self_s": (layer_self["pipeline"], "s"),
        "schema.load_s": (layer_self["schema"], "s"),
        "synth.build_s": (layer_self["synth"], "s"),
        "bench.self_s": (layer_self["bench"], "s"),
        "trace.setup_s": (t.root_s["setup"], "s"),
        "trace.pass_s": (t.root_s["pass"] / n_pass, "s"),
        "trace.total_s": (total, "s"),
        "trace.layer_sum_s": (sum(layer_self.values()), "s"),
        "trace.wall_s": (setup_wall + sum(traced) / n_pass, "s"),
        "trace.untraced_pass_s": (untraced_pass, "s"),
        "trace.overhead_ratio": (ratio(sum(traced) / n_pass, untraced_pass), "ratio"),
        "trace.passes": (float(n_pass), "count"),
        "trace.spans": (sum(n * scale[phase] for (phase, _), n in t.calls.items()), "count"),
    }


def dominance(wl, m: dict, ops_per_pass: int) -> tuple[str, bool]:
    """The layer each workload is expected to spend its operations in."""
    op = m["trace.pass_s"][0] / ops_per_pass
    if wl.name == "planted-train":
        share = m["gbdt.train_s"][0] / m["trace.pass_s"][0]
        return f"gbdt.train_s is {share:.1%} of a traced eval run (expected >= 80%)", share >= 0.8
    if wl.name == "serve":
        share = m["gbdt.predict_s"][0] / m["trace.pass_s"][0]
        return (f"gbdt.predict_s is {share:.1%} of traced query time, "
                f"{op * 1e3:.3f} ms per query (expected >= 70%)"), share >= 0.7
    f, lab = m["featurizer.featurize_s"][0], m["labeler.label_s"][0]
    return f"featurizer.featurize_s {f:.4f} s vs labeler.label_s {lab:.4f} s per pass", f > lab


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def prepare(wl, run_dir: Path, seed: int, workdirs: list):
    """The inputs the benchmark makes itself, once per run and untimed."""
    directory = Path(tempfile.mkdtemp(prefix=f"{wl.name}-inputs-", dir=run_dir))
    workdirs.append(directory)
    return wl.prepare(directory, seed)


def setup_once(wl, run_dir: Path, prep, workdirs: list, tracer=None):
    """One timed set-up; with a tracer (installed by the caller) it is one
    root span.  Returns the fixture and the set-up's wall time."""
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=run_dir))
    workdirs.append(workdir)
    t0 = time.perf_counter()
    if tracer is None:
        fx = wl.setup(workdir, prep)
    else:
        with tracer.span("bench.setup", "setup"):
            fx = wl.setup(workdir, prep)
    return fx, time.perf_counter() - t0


def say(name: str, value, unit: str = ""):
    print(f"{name} = {value} {unit}".rstrip())


def run_untraced(wl, seed: int, seconds: float, run_dir: Path, workdirs: list, tally: Tally):
    """End-to-end metrics: timed passes with repeated set-ups among them.

    The passes use the first set-up; the others are spread over the passes.
    """
    prep = prepare(wl, run_dir, seed, workdirs)
    setups = []

    def set_up():
        fx, dt = setup_once(wl, run_dir, prep, workdirs)
        setups.append(dt)
        return fx

    fx = set_up()
    measure(wl, fx, seconds, tally, set_up, wl.setup_reps - 1)
    info = wl.finish(fx)
    lat = tally.latencies
    say("operations", f"{len(lat)} (one {wl.op} each) in {len(tally.passes)} passes, "
        f"{sum(lat):.3f} s")
    say("pass_s", " ".join(f"{t:.4f}" for _, _, t in tally.passes))
    say("setups_s", " ".join(f"{t:.5f}" for t in setups))
    for name, value, unit in wl.report(tally):
        say(name, value, unit)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_ms": (statistics.median(t / n for n, _, t in tally.passes) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, info


# The harness times each traced set-up and operation around its root span.
# The clock reads and span bookkeeping at the span's edges take about 30 us
# (2 vCPUs, Python 3.11); a larger gap per root span is time no span covers.
# The allowance is per span, not a share of the time, so that it holds when
# sqluq's operations get faster.
EDGE_ALLOWANCE_S = 100e-6


def run_traced(wl, seed: int, seconds: float, run_dir: Path, workdirs: list, tally: Tally):
    """Per-layer metrics: one traced set-up, then untraced and traced passes."""
    tracer = spans.Tracer()
    prep = prepare(wl, run_dir, seed, workdirs)
    with tracer.installed():
        fx, setup_wall = setup_once(wl, run_dir, prep, workdirs, tracer)
    plain, traced = measure_traced(wl, fx, seconds, tally, tracer)
    info = wl.finish(fx)
    metrics = layer_metrics(tracer, setup_wall, plain, traced)
    tracer.dump(run_dir / f"trace-{wl.name}-seed{seed}.jsonl")
    summary, ok = dominance(wl, metrics, len(wl.items(fx)))
    print(f"dominant layer: {summary}: {'as expected' if ok else 'NOT as expected'}")
    total, layer_sum = metrics["trace.total_s"][0], metrics["trace.layer_sum_s"][0]
    if abs(total - layer_sum) > 1e-9 * max(1.0, total):
        raise CheckFailed(f"layer self times sum to {layer_sum}, traced total is {total}")
    gaps = (
        ("set-up", setup_wall - metrics["trace.setup_s"][0], 1),
        ("average pass", sum(traced) / len(traced) - metrics["trace.pass_s"][0],
         len(wl.items(fx))),
    )
    for what, gap, roots in gaps:
        if abs(gap) > EDGE_ALLOWANCE_S * roots:
            raise CheckFailed(f"{what}: {gap * 1e3:.3f} ms measured around its "
                              f"{roots} root spans is in no span")
    return metrics, info


def run(workload: str, seed: int, seconds: float, traced: bool, run_dir: Path) -> int:
    wl = WORKLOADS[workload]
    run_dir.mkdir(exist_ok=True)
    workdirs: list[Path] = []
    metrics: dict[str, tuple[float, str]] = {}
    tally = Tally()
    correct = True
    try:
        metrics, info = (run_traced if traced else run_untraced)(
            wl, seed, seconds, run_dir, workdirs, tally)
        for name, value in info.items():
            say(name, value)
    except CheckFailed as exc:
        correct = False
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        for d in workdirs:
            shutil.rmtree(d, ignore_errors=True)

    failed_frac = tally.failed / tally.attempted if tally.attempted else 0.0
    classes = ", ".join(f"{k}: {v}" for k, v in sorted(tally.failures.items())) or "none"
    say("failed_frac", f"{failed_frac:.6g}", f"({tally.failed} of {tally.attempted}; {classes})")
    for name, (value, unit) in metrics.items():
        say(name, f"{value:.6g}", unit)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1
