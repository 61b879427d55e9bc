import json

import pytest

from sqluq.ast_core import parse_sql
from sqluq.featurizer import MANIFEST
from sqluq.gbdt import DegenerateLabels, GbdtConfig, GbdtModel
from sqluq.pipeline import (
    CrossDatabase,
    DatasetRecord,
    MissingSchema,
    UnknownDbId,
    WithinDatabase,
    label_and_featurize,
    load_dataset,
    make_split,
    parse_split_spec,
    predict_sql,
    run_experiment,
    write_dataset,
)
from sqluq.synth import SYNTH_SCHEMA


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def record_line(qid, db="db1", gen="SELECT a FROM t", gold="SELECT a FROM t", **extra):
    doc = {"query_id": qid, "db_id": db, "generated_sql": gen, "gold_sql": gold}
    doc.update(extra)
    return json.dumps(doc)


def schema_doc():
    return {
        "db_id": "db1",
        "tables": [
            {"name": "t", "columns": [{"name": "a", "type": "NUMERIC"},
                                      {"name": "b", "type": "TEXT"}]}
        ],
    }


@pytest.fixture
def schemas_dir(tmp_path):
    d = tmp_path / "schemas"
    d.mkdir()
    (d / "db1.json").write_text(json.dumps(schema_doc()), encoding="utf-8")
    return d


class TestLoadDataset:
    def test_three_valid_lines(self, tmp_path):
        path = write_lines(
            tmp_path / "d.jsonl",
            [record_line("q1"), record_line("q2"), record_line("q3")],
        )
        result = load_dataset(path)
        assert len(result.records) == 3
        assert not result.skipped

    def test_missing_gold_sql_skipped_with_line_number(self, tmp_path):
        path = write_lines(
            tmp_path / "d.jsonl",
            [
                record_line("q1"),
                json.dumps({"query_id": "q2", "db_id": "db1", "generated_sql": "SELECT 1"}),
            ],
        )
        result = load_dataset(path)
        assert len(result.records) == 1
        assert result.skipped == [(2, "missing fields: gold_sql")]

    def test_header_line_ignored(self, tmp_path):
        path = write_lines(
            tmp_path / "d.jsonl",
            [json.dumps({"format": "sqluq-dataset", "version": 1}), record_line("q1")],
        )
        assert len(load_dataset(path).records) == 1

    def test_token_logprob_spans_validated(self, tmp_path):
        gen = "SELECT a FROM t"
        good = record_line("q1", gen=gen, token_logprobs=[[0, 6, -0.5], [7, 8, -0.1]])
        bad = record_line("q2", gen=gen, token_logprobs=[[0, 99, -0.5]])
        path = write_lines(tmp_path / "d.jsonl", [good, bad])
        result = load_dataset(path)
        assert [r.query_id for r in result.records] == ["q1"]
        assert result.records[0].token_logprobs == [(0, 6, -0.5), (7, 8, -0.1)]
        assert result.skipped[0][0] == 2

    def test_invalid_json_reported(self, tmp_path):
        path = write_lines(tmp_path / "d.jsonl", [record_line("q1"), "{oops"])
        result = load_dataset(path)
        assert len(result.records) == 1
        assert result.skipped[0][0] == 2

    def test_positive_logprob_rejected(self, tmp_path):
        line = record_line("q1", token_logprobs=[[0, 6, 0.5]])
        result = load_dataset(write_lines(tmp_path / "d.jsonl", [line]))
        assert not result.records
        assert "positive token logprob" in result.skipped[0][1]

    def test_write_then_load_round_trip(self, tmp_path):
        records = [
            DatasetRecord("q1", "db1", "SELECT a FROM t", "SELECT b FROM t",
                          question="which a?", token_logprobs=[(0, 6, -0.25)]),
        ]
        path = tmp_path / "out.jsonl"
        write_dataset(path, records)
        loaded = load_dataset(path)
        assert loaded.records[0] == records[0]


class TestMakeSplit:
    def test_within_database_80_20(self):
        records = [DatasetRecord(f"q{i}", "db1", "g", "g") for i in range(10)]
        train, test = make_split(records, WithinDatabase(train_fraction=0.8, seed=0))
        assert len(train) == 8 and len(test) == 2
        assert set(train) | set(test) == {f"q{i}" for i in range(10)}
        assert not set(train) & set(test)

    def test_cross_database_membership(self):
        records = [DatasetRecord(f"q{i}", f"db{i % 3}", "g", "g") for i in range(9)]
        train, test = make_split(records, CrossDatabase(test_db_ids=("db2",)))
        assert all(qid in {"q2", "q5", "q8"} for qid in test)
        assert len(train) == 6

    def test_cross_database_unknown_id(self):
        records = [DatasetRecord("q1", "db1", "g", "g"), DatasetRecord("q2", "db1", "g", "g")]
        with pytest.raises(UnknownDbId):
            make_split(records, CrossDatabase(test_db_ids=("nope",)))

    def test_deterministic_across_runs_and_orderings(self):
        records = [DatasetRecord(f"q{i}", f"db{i % 2}", "g", "g") for i in range(20)]
        spec = WithinDatabase(train_fraction=0.5, seed=123)
        first = make_split(records, spec)
        second = make_split(list(reversed(records)), spec)
        assert sorted(first[0]) == sorted(second[0])
        assert sorted(first[1]) == sorted(second[1])

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            WithinDatabase(train_fraction=1.0)

    def test_too_few_records_per_db(self):
        with pytest.raises(ValueError):
            make_split([DatasetRecord("q", "db1", "g", "g")], WithinDatabase())


class TestParseSplitSpec:
    def test_within(self):
        spec = parse_split_spec("within:0.8:7")
        assert spec == WithinDatabase(train_fraction=0.8, seed=7)

    def test_cross(self):
        spec = parse_split_spec("cross:a,b")
        assert spec == CrossDatabase(test_db_ids=("a", "b"))

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_split_spec("random:0.5")


class TestRunExperiment:
    def _dataset(self, tmp_path, lines, name="d.jsonl"):
        return write_lines(tmp_path / name, lines)

    def test_identical_pairs_exercise_degenerate_path(self, tmp_path, schemas_dir):
        lines = [record_line(f"q{i}") for i in range(10)]
        path = self._dataset(tmp_path, lines)
        with pytest.warns(DegenerateLabels):
            result = run_experiment(
                path, schemas_dir, WithinDatabase(0.8, seed=0),
                config=GbdtConfig(n_trees=3, min_samples_leaf=1),
            )
        assert result.records_labeled == 10
        all_row = result.eval_rows[0]
        assert all_row.proportion_error == 0.0
        assert all_row.auc_model is None

    def test_unparseable_generation_skipped_not_fatal(self, tmp_path, schemas_dir):
        lines = [record_line(f"q{i}") for i in range(6)]
        lines.append(record_line("qbad", gen="SELECT a FROM t WHERE x BETWEEN 1 AND 2"))
        lines.append(record_line("qworse", gen="SELECT FROM"))
        # an error pair so training labels are not degenerate
        lines.append(record_line("qerr", gen="SELECT b FROM t", gold="SELECT a FROM t"))
        lines.append(record_line("qerr2", gen="SELECT zz FROM t", gold="SELECT a FROM t"))
        path = self._dataset(tmp_path, lines)
        result = run_experiment(
            path, schemas_dir, WithinDatabase(0.5, seed=1),
            config=GbdtConfig(n_trees=3, min_samples_leaf=1),
        )
        assert result.records_labeled == 8
        assert result.records_skipped == 2
        assert result.records_in == result.records_labeled + result.records_skipped

    def test_any_record_failure_is_a_typed_skip(self, tmp_path, schemas_dir):
        # labeling recurses once per tree level, so a 1,000-term chain
        # exceeds the interpreter's recursion limit
        chain = "SELECT " + " + ".join(["a"] * 1000) + " FROM t"
        lines = [record_line(f"q{i}") for i in range(6)]
        lines.append(record_line("qdeep", gen=chain, gold=chain))
        lines.append(record_line("qbad", gen="SELECT FROM"))
        lines.append(record_line("qerr", gen="SELECT b FROM t", gold="SELECT a FROM t"))
        lines.append(record_line("qerr2", gen="SELECT zz FROM t", gold="SELECT a FROM t"))
        path = self._dataset(tmp_path, lines)
        result = run_experiment(
            path, schemas_dir, WithinDatabase(0.5, seed=1),
            config=GbdtConfig(n_trees=3, min_samples_leaf=1), out_dir=tmp_path / "out",
        )
        assert result.records_labeled == 8
        rows = (tmp_path / "out" / "skipped.jsonl").read_text().splitlines()[1:]
        reasons = {row["query_id"]: row["reason"] for row in map(json.loads, rows)}
        assert reasons["qdeep"].startswith("RecursionError: ")
        assert reasons["qbad"].startswith("ParseError: ")

    def test_missing_schema_file_raises(self, tmp_path, schemas_dir):
        lines = [record_line("q1", db="other"), record_line("q2", db="other")]
        path = self._dataset(tmp_path, lines)
        with pytest.raises(MissingSchema):
            run_experiment(path, schemas_dir, WithinDatabase(0.5, seed=0))

    def test_artifacts_written_and_reproducible(self, tmp_path, schemas_dir):
        lines = []
        for i in range(8):
            gold = "SELECT a FROM t WHERE a > 5" if i % 2 else "SELECT b FROM t"
            gen = gold if i % 3 else gold.replace("a >", "b >").replace("SELECT b FROM t", "SELECT zz FROM t")
            lines.append(record_line(f"q{i}", gen=gen, gold=gold))
        path = self._dataset(tmp_path, lines)
        config = GbdtConfig(n_trees=4, min_samples_leaf=1)
        out1 = tmp_path / "out1"
        out2 = tmp_path / "out2"
        run_experiment(path, schemas_dir, WithinDatabase(0.5, seed=2), config, out1)
        run_experiment(path, schemas_dir, WithinDatabase(0.5, seed=2), config, out2)
        for name in ("model.json", "predictions.jsonl", "report.json", "report.txt"):
            assert (out1 / name).read_text() == (out2 / name).read_text()
        header = json.loads((out1 / "predictions.jsonl").read_text().splitlines()[0])
        assert header["format"] == "sqluq-predictions"

    def test_cross_database_experiment(self, tmp_path, schemas_dir):
        (schemas_dir / "db2.json").write_text(
            json.dumps(
                {"db_id": "db2", "tables": [{"name": "t", "columns": [{"name": "a"}]}]}
            ),
            encoding="utf-8",
        )
        lines = []
        for i in range(6):
            gen = "SELECT a FROM t" if i % 2 else "SELECT q FROM t"
            lines.append(record_line(f"a{i}", db="db1", gen=gen))
            lines.append(record_line(f"b{i}", db="db2", gen=gen))
        path = self._dataset(tmp_path, lines)
        result = run_experiment(
            path, schemas_dir, CrossDatabase(test_db_ids=("db2",)),
            config=GbdtConfig(n_trees=3, min_samples_leaf=1),
        )
        assert all(q.startswith("b") for q in result.test_query_ids)
        assert all(q.startswith("a") for q in result.train_query_ids)
        assert result.eval_rows[0].n > 0

    def test_report_shape_with_logprob_column(self, tmp_path, schemas_dir):
        lines = []
        for i in range(8):
            gen = "SELECT a FROM t" if i % 2 else "SELECT zz FROM t"
            spans = [[0, 6, -0.1], [7, 8 if i % 2 else 9, -2.5 if not i % 2 else -0.2]]
            lines.append(
                record_line(f"q{i}", gen=gen, gold="SELECT a FROM t", token_logprobs=spans)
            )
        path = self._dataset(tmp_path, lines)
        result = run_experiment(
            path, schemas_dir, WithinDatabase(0.5, seed=0),
            config=GbdtConfig(n_trees=3, min_samples_leaf=1),
        )
        all_row = result.eval_rows[0]
        assert all_row.auc_logprob is not None
        assert {r.node_kind for r in result.eval_rows} >= {"All", "Column", "Identifier"}


def test_predict_sql_on_a_3000_term_chain():
    # the chain is a left-deep tree about 3,000 nodes deep
    model = GbdtModel(config=GbdtConfig(), base_score=0.0, trees=[],
                      manifest_hash=MANIFEST.version_hash, feature_count=MANIFEST.length)
    sql = "SELECT " + " + ".join(["amount"] * 3000) + " FROM sale"
    nodes, proba = predict_sql(model, sql, SYNTH_SCHEMA)
    assert [n.id for n in nodes] == list(range(len(nodes)))
    assert proba.shape == (len(nodes),)
    assert max(n.depth for n in nodes) >= 3000


def test_10000_nested_parentheses_parse_label_and_predict():
    # parentheses push parser stack entries; the tree itself stays shallow
    sql = "SELECT a FROM t WHERE " + "(" * 10000 + "a = 1" + ")" * 10000
    tree = parse_sql(sql)
    assert [n.kind.value for n in tree.walk()][-4:] == ["Eq", "Column", "Identifier", "Literal"]
    labeled = label_and_featurize(DatasetRecord("q", "synth", sql, sql), SYNTH_SCHEMA)
    assert not any(nr.label for nr in labeled.node_records)
    model = GbdtModel(config=GbdtConfig(), base_score=0.0, trees=[],
                      manifest_hash=MANIFEST.version_hash, feature_count=MANIFEST.length)
    nodes, proba = predict_sql(model, sql, SYNTH_SCHEMA)
    assert proba.shape == (len(nodes),) == (len(list(tree.walk())),)
