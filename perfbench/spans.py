"""In-memory span tracer that wraps sqluq's public entry points.

Only the traced benchmark run installs it.  It replaces module attributes
(for example ``sqluq.pipeline.train``, the name ``run_experiment`` calls)
with wrappers that record a span around each call and restores the
originals afterwards, so sqluq itself carries no tracing code.

A span is (name, item, phase, parent, start, end, counts).  A layer's self
time is the time its spans cover minus the part of it their child spans
cover; summed over every span this equals the time the root spans cover,
which is the traced end-to-end time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from sqluq import ast_core, featurizer, gbdt, labeler, pipeline, schema, synth
from sqluq.labeler import Provenance


@dataclass
class Span:
    name: str
    item: str
    phase: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


def count_nodes(tree) -> int:
    """Node count of a parsed tree, without recursion (trees can be deep)."""
    n = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.children)
    return n


def _parse_counts(args, kwargs, result):
    return {"nodes": count_nodes(result)}


def _featurize_counts(args, kwargs, result):
    return {"rows": len(result[0])}


def _label_counts(args, kwargs, result):
    label_map, ctx = result
    rescued = sum(1 for p in label_map.provenance.values() if p is Provenance.RESCUED)
    return {"memo_hits": ctx.hits, "memo_misses": ctx.misses, "rescued": rescued}


def _train_counts(args, kwargs, result):
    return {"trees": len(result.trees), "rows": len(args[0])}


def _predict_counts(args, kwargs, result):
    features = args[1] if len(args) > 1 else kwargs["features"]
    return {"rows": 1 if getattr(features, "ndim", 2) == 1 else len(features)}


def _experiment_counts(args, kwargs, result):
    return {"skipped": result.records_skipped}


def _record_id(args, kwargs):
    return args[0].query_id


# (owner, attribute, span name, counter, item id of the call or None).
# The pipeline and labeler entries are the names those modules call at run
# time; the other entries are the names the benchmark itself calls through.
TARGETS = (
    (pipeline, "run_experiment", "pipeline.run_experiment", _experiment_counts, None),
    (pipeline, "load_dataset", "pipeline.load_dataset", None, None),
    (pipeline, "label_and_featurize", "pipeline.label_and_featurize", None, _record_id),
    (pipeline, "load_schema", "schema.load", None, None),
    (pipeline, "parse_sql", "ast_core.parse", _parse_counts, None),
    (pipeline, "build_alias_map", "ast_core.alias_map", None, None),
    (pipeline, "featurize_tree", "featurizer.featurize", _featurize_counts, None),
    (pipeline, "train", "gbdt.train", _train_counts, None),
    (pipeline, "eval_by_kind", "gbdt.eval", None, None),
    (pipeline, "predict_proba", "gbdt.predict", _predict_counts, None),
    (labeler, "label_with_context", "labeler.label", _label_counts, None),
    (labeler, "build_alias_map", "ast_core.alias_map", None, None),
    (ast_core, "parse_sql", "ast_core.parse", _parse_counts, None),
    (ast_core, "build_alias_map", "ast_core.alias_map", None, None),
    (featurizer, "featurize_tree", "featurizer.featurize", _featurize_counts, None),
    (gbdt, "train", "gbdt.train", _train_counts, None),
    (gbdt, "predict_proba", "gbdt.predict", _predict_counts, None),
    (schema, "load_schema", "schema.load", None, None),
    (synth, "build_planted_corpus", "synth.build", None, None),
)


class Tracer:
    """Records spans in memory; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.phase = "setup"

    @contextmanager
    def span(self, name: str, item: str | None = None):
        """Record a span around a block."""
        idx = self._begin(name, item)
        try:
            yield
        finally:
            self._finish(idx)

    def _begin(self, name: str, item: str | None) -> int:
        """Open a span; without an item id it inherits its parent's."""
        parent = self._open[-1] if self._open else None
        if item is None:
            item = self.spans[parent].item if parent is not None else ""
        self.spans.append(Span(name, item, self.phase, parent, self.clock()))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _finish(self, idx: int):
        self.spans[idx].end = self.clock()
        self._open.pop()

    def wrap(self, fn, name: str, counter=None, item_of=None):
        def traced(*args, **kwargs):
            idx = self._begin(name, item_of(args, kwargs) if item_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(idx)
            if counter is not None:
                self.spans[idx].counts = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, counter, item_of in TARGETS:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self.wrap(getattr(owner, attr), name, counter, item_of))
            load = gbdt.GbdtModel.__dict__["load"]
            saved.append((gbdt.GbdtModel, "load", load))
            traced_load = self.wrap(load.__func__, "gbdt.load")
            gbdt.GbdtModel.load = classmethod(traced_load)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "item": s.item, "phase": s.phase,
                    "parent": s.parent, "start": s.start, "end": s.end,
                    "counts": s.counts,
                }) + "\n")


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


@dataclass
class Totals:
    """Per (phase, span name): self seconds, calls and summed counts."""

    self_s: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    counts: dict = field(default_factory=lambda: defaultdict(int))
    root_s: dict = field(default_factory=lambda: defaultdict(float))


def totals(spans: list[Span]) -> Totals:
    out = Totals()
    for s, self_s in zip(spans, self_times(spans)):
        out.self_s[s.phase, s.name] += self_s
        out.calls[s.phase, s.name] += 1
        for key, value in s.counts.items():
            out.counts[s.phase, s.name, key] += value
        if s.parent is None:
            out.root_s[s.phase] += s.end - s.start
    return out
