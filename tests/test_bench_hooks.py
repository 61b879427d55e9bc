"""The benchmark's traced run wraps sqluq names; these must stay in place.

perfbench/spans.py replaces module attributes such as
``pipeline.parse_sql`` and ``labeler.label_with_context`` with timing
wrappers.  A refactor that renames one of them, or that calls it through
a from-import the wrapper cannot reach, fails here instead of in the
traced benchmark.  So does a change to the calls the workloads make, such
as serve's ``featurize_tree(tree, ast_core.build_alias_map(tree), schema)``:
every workload runs here on its first two items.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from sqluq import gbdt, pipeline
from sqluq.synth import SYNTH_SCHEMA, build_planted_corpus

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def spans():
    yield from _load("perfbench_spans", PERFBENCH / "spans.py")


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling modules by their bare names
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield from _load("perfbench_workloads", PERFBENCH / "workloads.py")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_target_is_a_module_attribute(spans):
    for owner, attr, *_ in spans.TARGETS:
        assert callable(owner.__dict__.get(attr)), f"{owner.__name__}.{attr} is not bound"


def test_tracer_installs_and_restores(spans):
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in spans.TARGETS]
    load = gbdt.GbdtModel.__dict__["load"]
    with spans.Tracer().installed():
        for owner, attr, original in originals:
            assert owner.__dict__[attr].__wrapped__ is original, f"{owner.__name__}.{attr}"
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"
    assert gbdt.GbdtModel.__dict__["load"] is load


def test_traced_labeling_reaches_every_layer(spans):
    record = build_planted_corpus(1, seed=0)[0].record
    with spans.Tracer().installed() as tracer:
        pipeline.label_and_featurize(record, SYNTH_SCHEMA)
    names = [s.name for s in tracer.spans]
    assert names[0] == "pipeline.label_and_featurize"
    assert names.count("ast_core.parse") == 2
    assert names.count("labeler.label") == 1
    assert "ast_core.alias_map" in names
    assert "featurizer.featurize" in names


def test_traced_training_counts_trees_and_rows(spans):
    # perfbench reads a trained model's tree count as len(model.trees)
    rows = [r for pair in build_planted_corpus(6, seed=0)
            for r in pipeline.label_and_featurize(pair.record, SYNTH_SCHEMA).node_records]
    with spans.Tracer().installed() as tracer:
        gbdt.train(rows, gbdt.GbdtConfig(n_trees=3))
    trains = [s for s in tracer.spans if s.name == "gbdt.train"]
    assert [s.counts for s in trains] == [{"trees": 3, "rows": len(rows)}]


def test_traced_experiment_records_train_eval_and_predict_once(spans, tmp_path):
    dataset = tmp_path / "d.jsonl"
    pipeline.write_dataset(dataset, [p.record for p in build_planted_corpus(12, seed=0)])
    schemas = tmp_path / "schemas"
    schemas.mkdir()
    tables = [
        {"name": t.name, "columns": [{"name": c.name, "type": c.data_type.value}
                                     for c in t.columns]}
        for t in SYNTH_SCHEMA.tables
    ]
    (schemas / f"{SYNTH_SCHEMA.db_id}.json").write_text(
        json.dumps({"db_id": SYNTH_SCHEMA.db_id, "tables": tables}), encoding="utf-8"
    )
    with spans.Tracer().installed() as tracer:
        pipeline.run_experiment(dataset, schemas, pipeline.WithinDatabase(0.5, seed=0),
                                config=gbdt.GbdtConfig(n_trees=3))
    names = [s.name for s in tracer.spans]
    for name in ("gbdt.train", "gbdt.eval", "gbdt.predict"):
        assert names.count(name) == 1, name
    runs = [s.counts for s in tracer.spans if s.name == "pipeline.run_experiment"]
    assert runs == [{"skipped": 0}]
    labels = [s.counts for s in tracer.spans if s.name == "labeler.label"]
    assert len(labels) == 12
    assert all(counts.keys() == {"memo_hits", "memo_misses", "rescued"} for counts in labels)


@pytest.mark.parametrize("name", ["planted-train", "serve", "wide-deep"])
def test_every_workload_runs_and_passes_its_checks(workloads, tmp_path, name):
    wl = workloads.WORKLOADS[name]
    (tmp_path / "prep").mkdir()
    (tmp_path / "work").mkdir()
    fx = wl.setup(tmp_path / "work", wl.prepare(tmp_path / "prep", 0))
    items = wl.items(fx)[:2]
    assert items
    for item in items:
        _, failures = wl.accept(fx, item, wl.run(fx, item))
        assert not failures, (wl.item_id(item), failures)
    wl.finish(fx)
