"""Self-tests of the benchmark harness.

Run from the repository root: python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from collections import Counter  # noqa: E402

import pytest  # noqa: E402

import harness  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
from sqluq import ast_core, gbdt, pipeline  # noqa: E402


def span(name, start, end, parent=None, phase="pass"):
    return spans.Span(name, "", phase, parent, start, end)


def test_self_time_subtracts_children():
    s = [
        span("bench.op", 0.0, 10.0),
        span("gbdt.train", 1.0, 4.0, parent=0),
        span("featurizer.featurize", 5.0, 6.5, parent=0),
        span("ast_core.parse", 5.5, 6.0, parent=2),
    ]
    assert spans.self_times(s) == pytest.approx([5.5, 3.0, 1.0, 0.5])


def test_self_time_counts_overlapping_children_once():
    assert spans.covered([(1.0, 4.0), (3.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert spans.covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert spans.covered([], 0.0, 10.0) == 0.0


def test_self_times_sum_to_root_time():
    s = [
        span("bench.setup", 0.0, 2.0, phase="setup"),
        span("synth.build", 0.5, 1.5, parent=0, phase="setup"),
        span("bench.op", 3.0, 9.0),
        span("pipeline.run_experiment", 3.5, 8.5, parent=2),
        span("gbdt.train", 4.0, 8.0, parent=3),
    ]
    t = spans.totals(s)
    assert sum(t.self_s.values()) == pytest.approx(sum(t.root_s.values()))
    assert t.root_s == {"setup": 2.0, "pass": 6.0}
    assert t.self_s["pass", "pipeline.run_experiment"] == pytest.approx(1.0)


def test_tracer_records_nesting_and_restores_entry_points():
    ticks = iter(range(1000))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    original = pipeline.parse_sql
    with tracer.installed():
        assert pipeline.parse_sql is not original
        with tracer.span("bench.query", "q1"):
            tree = pipeline.parse_sql("SELECT a FROM t WHERE b = 1")
            ast_core.build_alias_map(tree)
    assert pipeline.parse_sql is original
    assert isinstance(gbdt.GbdtModel.__dict__["load"], classmethod)
    names = [(s.name, s.parent, s.item) for s in tracer.spans]
    assert names == [
        ("bench.query", None, "q1"),
        ("ast_core.parse", 0, "q1"),
        ("ast_core.alias_map", 0, "q1"),
    ]
    assert tracer.spans[1].counts == {"nodes": spans.count_nodes(tree)}


def test_count_nodes_handles_deep_trees():
    depth = 5000
    node = ast_core.SqlNode(0, ast_core.NodeKind.LITERAL, "1", [], (0, 1), 0)
    for _ in range(depth):
        node = ast_core.SqlNode(0, ast_core.NodeKind.ADD, None, [node], (0, 1), 0)
    assert spans.count_nodes(node) == depth + 1


@pytest.mark.parametrize(
    "n, expected_q",
    [(1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0), (99, None), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected_q):
    samples = [float(i) for i in range(n)]
    result = stats.tail(samples)
    if expected_q is None:
        assert result is None
        return
    q, value, n_beyond = result
    assert q == expected_q
    assert n_beyond >= stats.MIN_BEYOND
    assert sum(1 for x in samples if x > value) == n_beyond


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(samples, 50) == 3.0
    assert stats.percentile(samples, 100) == 5.0
    assert stats.percentile(samples, 1) == 1.0


class OneSecondOps:
    """A workload whose operations each take one second of a fake clock."""

    op = "op"

    def __init__(self):
        self.now = 0.0

    def clock(self):
        return self.now

    def items(self, fx):
        return [1, 2, 3, 4]

    def run(self, fx, item):
        self.now += 1.0

    def attempts(self, fx, item):
        return 1

    def accept(self, fx, item, output):
        return 0, Counter()


def test_setups_spread_evenly_over_the_passes(monkeypatch):
    wl = OneSecondOps()
    monkeypatch.setattr(harness.time, "perf_counter", wl.clock)
    tally = harness.Tally()
    at = []
    harness.measure(wl, None, 6.0, tally, lambda: at.append(tally.op_s), reps=3)
    # Whole passes of four operations until six seconds of operations.
    assert [n for n, _, _ in tally.passes] == [4, 4]
    assert tally.op_s == 8.0
    assert at == [2.0, 4.0, 6.0]
