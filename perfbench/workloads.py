"""The three workloads: set-up, one operation, and output checks.

Each workload calls sqluq through module attributes (``ast_core.parse_sql``
rather than an imported name) so that the traced run can wrap them.

* planted-train: one operation is a whole ``run_experiment`` (the ``eval``
  command) on a planted corpus; each record is one attempt.
* serve: one operation is one query scored by a trained model, as
  ``sqluq predict`` does it minus process start and model load.
* wide-deep: one operation is ``label_and_featurize`` on one wide, long or
  deeply nested pair.
"""

from __future__ import annotations

import json
import shutil
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import stats
from sqluq import ast_core, featurizer, gbdt, pipeline, schema, synth


class CheckFailed(Exception):
    """An output of sqluq disagrees with what the benchmark expects."""


def check(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Prepared:
    """Inputs the benchmark makes itself, once per run and outside the timed
    set-up: the seed, a schema file and, for wide-deep, the generated pairs."""

    seed: int
    schema_file: Path
    pairs: list = field(default_factory=list)


def write_dataset(workdir: Path, records: list) -> Path:
    dataset = workdir / "dataset.jsonl"
    pipeline.write_dataset(dataset, records)
    return dataset


# ---------------------------------------------------------------------------
# planted-train
# ---------------------------------------------------------------------------

PLANTED_PAIRS = 150
# Criterion 6 checks agreement on 2,000 pairs; at 150 pairs the sampling
# spread of agreement (sd about 0.0025) straddles its 0.98 bound.  Set-up
# synthesises the 2,000 pairs; the eval corpus is their first 150, which is
# what build_planted_corpus(150) gives for the same seed.
AGREEMENT_PAIRS = 2000
MIN_AGREEMENT = 0.98
MIN_HELDOUT_AUC = 0.85
SPLIT = pipeline.WithinDatabase(train_fraction=0.8, seed=0)


@dataclass
class PlantedFixture:
    workdir: Path
    seed: int
    corpus: list
    pairs: list
    dataset: Path
    schemas: Path
    model_json: str | None = None
    aucs: list[float] = field(default_factory=list)


class PlantedTrain:
    name = "planted-train"
    op = "eval"
    setup_reps = 13

    def prepare(self, directory: Path, seed: int) -> Prepared:
        return Prepared(seed, inputs.write_schema(directory, inputs.planted_schema_doc()))

    def setup(self, workdir: Path, prep: Prepared) -> PlantedFixture:
        corpus = synth.build_planted_corpus(AGREEMENT_PAIRS, seed=prep.seed)
        pairs = corpus[:PLANTED_PAIRS]
        dataset = write_dataset(workdir, [p.record for p in pairs])
        return PlantedFixture(workdir, prep.seed, corpus, pairs, dataset, prep.schema_file.parent)

    def items(self, fx):
        return [f"eval-{fx.seed}"]

    def item_id(self, item):
        return item

    def attempts(self, fx, item) -> int:
        return len(fx.pairs)

    def run(self, fx, item):
        return pipeline.run_experiment(
            fx.dataset, fx.schemas, SPLIT, gbdt.GbdtConfig(), out_dir=fx.workdir / "out"
        )

    def accept(self, fx, item, result) -> tuple[int, Counter]:
        out = result.out_dir
        check(result.records_in == len(fx.pairs), "records_in differs from the dataset")
        check(
            result.records_labeled + result.records_skipped == result.records_in,
            "labeled + skipped records differ from records_in",
        )
        for name in ("model.json", "predictions.jsonl", "report.json", "report.txt",
                     "skipped.jsonl", "feature_manifest.json"):
            check((out / name).is_file(), f"artifact {name} missing")
        all_row = result.eval_rows[0]
        check(all_row.auc_model is not None and all_row.auc_model >= MIN_HELDOUT_AUC,
              f"held-out AUC {all_row.auc_model} below {MIN_HELDOUT_AUC}")
        fx.aucs.append(all_row.auc_model)
        with open(out / "predictions.jsonl", encoding="utf-8") as fh:
            preds = [json.loads(line) for line in fh][1:]
        check(len(preds) == all_row.n, "predictions.jsonl rows differ from the held-out rows")
        check(all(0.0 <= r["p_error"] <= 1.0 for r in preds), "p_error outside [0, 1]")
        model_json = (out / "model.json").read_text(encoding="utf-8")
        if fx.model_json is None:
            fx.model_json = model_json
        check(model_json == fx.model_json, "retraining on the same data changed the model")
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        check(report["records_labeled"] == result.records_labeled, "report.json disagrees")
        shutil.rmtree(out)
        skipped = result.records_skipped
        return 0, Counter({"skipped": skipped} if skipped else {})

    def report(self, tally) -> list[tuple[str, str, str]]:
        eval_s = statistics.median(t for _, _, t in tally.passes)
        return [("eval_s", f"{eval_s:.6g}", "s (median over passes)")]

    def finish(self, fx) -> dict:
        check(bool(fx.aucs), "no eval run completed")
        check(len(set(fx.aucs)) == 1, "held-out AUC differs between identical runs")
        agreement = synth.planted_agreement(fx.corpus)
        check(agreement >= MIN_AGREEMENT, f"label agreement {agreement:.4f} below {MIN_AGREEMENT}")
        return {"heldout_auc": fx.aucs[0], "label_agreement": agreement}


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

SERVE_TRAIN_PAIRS = 40
SERVE_QUERIES = 200
# A deployment serves one model while its traffic varies: the model's corpus
# has a fixed even seed and the queries come from the odd seed 2s + 1, so
# they never overlap it.
SERVE_MODEL_SEED = 0


@dataclass
class ServeFixture:
    model: gbdt.GbdtModel
    schema: schema.Schema
    queries: list[tuple[str, str]]
    first: dict[str, bytes] = field(default_factory=dict)
    repeats: Counter = field(default_factory=Counter)


class Serve:
    name = "serve"
    op = "query"
    setup_reps = 4

    def prepare(self, directory: Path, seed: int) -> Prepared:
        return Prepared(seed, inputs.write_schema(directory, inputs.planted_schema_doc()))

    def setup(self, workdir: Path, prep: Prepared) -> ServeFixture:
        pairs = synth.build_planted_corpus(SERVE_TRAIN_PAIRS, seed=SERVE_MODEL_SEED)
        loaded = pipeline.load_dataset(write_dataset(workdir, [p.record for p in pairs]))
        sch = schema.load_schema(prep.schema_file)
        rows = [
            nr
            for rec in loaded.records
            for nr in pipeline.label_and_featurize(rec, sch).node_records
        ]
        gbdt.train(rows, gbdt.GbdtConfig()).save(workdir / "model.json")
        model = gbdt.GbdtModel.load(workdir / "model.json")
        queries = synth.build_planted_corpus(SERVE_QUERIES, seed=2 * prep.seed + 1)
        return ServeFixture(
            model, sch, [(q.record.query_id, q.record.generated_sql) for q in queries]
        )

    def items(self, fx):
        return fx.queries

    def item_id(self, item):
        return item[0]

    def attempts(self, fx, item) -> int:
        return 1

    def run(self, fx, item):
        tree = ast_core.parse_sql(item[1])
        aliases = ast_core.build_alias_map(tree)
        nodes, matrix = featurizer.featurize_tree(tree, aliases, fx.schema)
        return nodes, gbdt.predict_proba(fx.model, matrix)

    def accept(self, fx, item, output) -> tuple[int, Counter]:
        nodes, proba = output
        qid = item[0]
        check(proba.shape == (len(nodes),), f"{qid}: not one p_error per node")
        check(bool(np.all(np.isfinite(proba))), f"{qid}: non-finite p_error")
        check(bool(np.all((proba >= 0.0) & (proba <= 1.0))), f"{qid}: p_error outside [0, 1]")
        raw = proba.tobytes()
        if qid in fx.first:
            check(raw == fx.first[qid], f"{qid}: scoring twice gave different output")
            fx.repeats[qid] += 1
        else:
            fx.first[qid] = raw
        return 0, Counter()

    def report(self, tally) -> list[tuple[str, str, str]]:
        lat = tally.latencies
        out = [
            ("queries_per_s", f"{len(lat) / sum(lat):.6g}", "1/s"),
            ("latency_p50_ms", f"{statistics.median(lat) * 1e3:.6g}", f"ms ({len(lat)} samples)"),
        ]
        t = stats.tail(lat)
        if t is None:
            out.append(("latency_tail", "none", f"({len(lat)} samples leave fewer than "
                        f"{stats.MIN_BEYOND} beyond p{stats.TAIL_PERCENTILES[-1]:g})"))
        else:
            q, value, n_beyond = t
            out.append((f"latency_p{q:g}_ms", f"{value * 1e3:.6g}",
                        f"ms ({len(lat)} samples, {n_beyond} beyond)"))
        return out

    def finish(self, fx) -> dict:
        for item in fx.queries:
            if item[0] in fx.first and not fx.repeats[item[0]]:
                self.accept(fx, item, self.run(fx, item))
        return {}


# ---------------------------------------------------------------------------
# wide-deep
# ---------------------------------------------------------------------------


@dataclass
class WideDeepFixture:
    schema: schema.Schema
    pairs: list


class WideDeep:
    name = "wide-deep"
    op = "pair"
    setup_reps = 41

    def prepare(self, directory: Path, seed: int) -> Prepared:
        return Prepared(seed, inputs.write_schema(directory, inputs.wide_schema_doc()),
                        inputs.wide_deep_pairs(seed))

    def setup(self, workdir: Path, prep: Prepared) -> WideDeepFixture:
        loaded = pipeline.load_dataset(write_dataset(workdir, [r for r, _ in prep.pairs]))
        check(not loaded.skipped and len(loaded.records) == len(prep.pairs),
              "dataset round trip lost records")
        sch = schema.load_schema(prep.schema_file)
        return WideDeepFixture(
            sch, [(rec, planted) for rec, (_, planted) in zip(loaded.records, prep.pairs)]
        )

    def items(self, fx):
        return fx.pairs

    def item_id(self, item):
        return item[0].query_id

    def attempts(self, fx, item) -> int:
        return 1

    def run(self, fx, item):
        return pipeline.label_and_featurize(item[0], fx.schema)

    def accept(self, fx, item, labeled) -> tuple[int, Counter]:
        record, planted = item
        blamed = [nr.label for nr, node in zip(labeled.node_records, labeled.nodes)
                  if node.content == planted]
        check(bool(blamed) and all(blamed), f"{record.query_id}: planted column {planted} not blamed")
        return len(labeled.node_records), Counter()

    def report(self, tally) -> list[tuple[str, str, str]]:
        rate = statistics.median(r / t for _, r, t in tally.passes)
        return [("rows_per_s", f"{rate:.6g}", "rows/s (median over passes)")]

    def finish(self, fx) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (PlantedTrain(), Serve(), WideDeep())}
