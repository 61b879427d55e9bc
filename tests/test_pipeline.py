import importlib.util
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from sqluq.ast_core import parse_sql, preorder
from sqluq.featurizer import MANIFEST
from sqluq.gbdt import DegenerateLabels, GbdtConfig, GbdtModel, predict_proba
from sqluq.pipeline import (
    CrossDatabase,
    DatasetRecord,
    MissingSchema,
    UnknownDbId,
    WithinDatabase,
    label_and_featurize,
    label_dataset,
    load_dataset,
    make_split,
    parse_split_spec,
    predict_sql,
    run_experiment,
    write_dataset,
)
from sqluq.synth import SYNTH_SCHEMA, build_planted_corpus
from tokens import tokenize


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

    def test_falsy_values_are_not_missing_fields(self, tmp_path):
        lines = [
            json.dumps({"query_id": 0, "db_id": "db1", "generated_sql": "SELECT a FROM t",
                        "gold_sql": "SELECT a FROM t"}),
            json.dumps({"query_id": "q1", "db_id": None, "generated_sql": "",
                        "gold_sql": "SELECT a FROM t"}),
        ]
        result = load_dataset(write_lines(tmp_path / "d.jsonl", lines))
        assert [r.query_id for r in result.records] == ["0"]
        assert result.skipped == [(2, "missing fields: db_id, generated_sql")]

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

    def test_unreadable_span_bounds_are_malformed_entries(self, tmp_path):
        entries = [
            [0, float("inf"), -0.5],
            {"start": 0},
            [0.9, 6.7, -0.5],  # fractional bounds
            [True, "6", "-0.5"],  # a boolean and strings
            [0, 6, -0.5, "extra"],  # four items
            [0, 6, -10**400],  # an integer too large to be a float
        ]
        lines = [record_line(f"q{i}", token_logprobs=[e]) for i, e in enumerate(entries)]
        result = load_dataset(write_lines(tmp_path / "d.jsonl", lines))
        assert not result.records
        assert result.skipped == [(i, "malformed token_logprobs entry")
                                  for i in range(1, len(entries) + 1)]

    def test_lines_that_cannot_be_decoded_are_skips_in_place(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(b"\n".join([
            record_line("q1").encode(),
            record_line("q2").encode().replace(b"SELECT a", b"SELECT \xff"),
            b"[" * 100_000,
            b"",
            b"[1, 2]",
            record_line("q3", gen="SELECT \ud800", token_logprobs=[[0, 6, -0.5]]).encode(),
            record_line("q4").encode(),
        ]) + b"\n")
        result = load_dataset(path)
        assert [r.query_id for r in result.records] == ["q1", "q4"]
        assert result.skipped == [
            (2, "invalid UTF-8"),
            (3, "invalid JSON: nested too deep"),
            (5, "record is not an object"),
            (6, "generated_sql is not valid Unicode"),
        ]

    def test_ids_that_are_neither_strings_nor_integers_are_skips(self, tmp_path):
        lines = [
            record_line("q1"),
            record_line([[[1]]]),
            record_line("q2", db={"a": 1}),
            record_line(True),
            record_line(1.5),
            record_line("q3", db=False),
            record_line(0, db=7),  # integers are ids, 0 among them
            record_line("q4"),
        ]
        result = load_dataset(write_lines(tmp_path / "d.jsonl", lines))
        assert [(r.query_id, r.db_id) for r in result.records] == [
            ("q1", "db1"), ("0", "7"), ("q4", "db1")]
        assert result.skipped == [
            (2, "query_id is not a string or an integer"),
            (3, "db_id is not a string or an integer"),
            (4, "query_id is not a string or an integer"),
            (5, "query_id is not a string or an integer"),
            (6, "db_id is not a string or an integer"),
        ]

    def test_questions_that_are_neither_null_nor_strings_are_skips(self, tmp_path):
        lines = [
            record_line("q1", question="How many?"),
            record_line("q2", question={"x": [1, 2]}),
            record_line("q3", question=None),
            record_line("q4", question=7),
            record_line("q5"),
            record_line("q6", question=["a"]),
            record_line("q7", question=""),
            record_line("q8", question=False),
        ]
        result = load_dataset(write_lines(tmp_path / "d.jsonl", lines))
        assert [(r.query_id, r.question) for r in result.records] == [
            ("q1", "How many?"), ("q3", None), ("q5", None), ("q7", "")]
        assert result.skipped == [
            (2, "question is not a string"),
            (4, "question is not a string"),
            (6, "question is not a string"),
            (8, "question is not a string"),
        ]

    def test_an_integer_past_the_digit_limit_is_invalid_json(self, tmp_path):
        lines = [record_line("q1"), record_line("q2").replace('"q2"', "9" * 5000), record_line("q3")]
        result = load_dataset(write_lines(tmp_path / "d.jsonl", lines))
        assert [r.query_id for r in result.records] == ["q1", "q3"]
        [(lineno, reason)] = result.skipped
        assert lineno == 2 and reason.startswith("invalid JSON: Exceeds the limit (4300 digits)")

    def test_duplicate_query_id_skipped_naming_the_first_line(self, tmp_path):
        lines = [record_line("q1"), record_line("q2", gen="SELECT b FROM t"), record_line("q1")]
        result = load_dataset(write_lines(tmp_path / "d.jsonl", lines))
        assert [r.query_id for r in result.records] == ["q1", "q2"]
        assert result.records[1].generated_sql == "SELECT b FROM t"
        assert result.skipped == [(3, "duplicate query_id 'q1' (first on line 1)")]

    def test_every_skip_reason_is_pinned(self, tmp_path):
        try:
            int("9" * 5000)
        except ValueError as exc:
            too_many_digits = f"invalid JSON: {exc}"
        no_gold = {"query_id": "q4", "db_id": "db1", "generated_sql": "SELECT a FROM t"}
        cases = [  # (line, its skip reason or None)
            (json.dumps({"format": "sqluq-dataset", "version": 1}), None),
            (record_line("q1"), None),
            ("", None),
            (record_line("q2").encode().replace(b"SELECT a", b"SELECT \xff"), "invalid UTF-8"),
            ("{oops", "invalid JSON: Expecting property name enclosed in double quotes"),
            (record_line("q3").replace('"q3"', "9" * 5000), too_many_digits),
            ("[" * 100_000, "invalid JSON: nested too deep"),
            ("[1, 2]", "record is not an object"),
            (json.dumps(no_gold), "missing fields: gold_sql"),
            (record_line("q5", gold=7), "not a string: gold_sql"),
            (record_line(1.5), "query_id is not a string or an integer"),
            (record_line("q6", question=7), "question is not a string"),
            (record_line("q7", token_logprobs={"0": -0.5}), "token_logprobs is not a list"),
            (record_line("q8", gen="SELECT \ud800", token_logprobs=[[0, 6, -0.5]]),
             "generated_sql is not valid Unicode"),
            (record_line("q9", token_logprobs=[[0, 6, -0.5], [True, 6, -0.5]]),
             "malformed token_logprobs entry"),
            (record_line("q10", token_logprobs=[[0, 99, -0.5]]),
             "token span (0, 99) outside generated_sql"),
            (record_line("q11", token_logprobs=[[0, 6, float("-inf")]]),
             "non-finite token logprob -inf"),
            (record_line("q12", token_logprobs=[[0, 6, 0.5]]), "positive token logprob 0.5"),
            (record_line("q1"), "duplicate query_id 'q1' (first on line 2)"),
            # missing fields come before a bad entry, and a bad entry before a duplicate id
            (json.dumps({**no_gold, "token_logprobs": [[0, 99, -0.5]]}), "missing fields: gold_sql"),
            (record_line("q1", token_logprobs=[[0, 6, 0.5]]), "positive token logprob 0.5"),
            (record_line("q13", token_logprobs=[[0, 6, -0.5]]), None),
        ]
        path = tmp_path / "d.jsonl"
        path.write_bytes(b"\n".join(
            line if isinstance(line, bytes) else line.encode() for line, _ in cases) + b"\n")
        result = load_dataset(path)
        assert [r.query_id for r in result.records] == ["q1", "q13"]
        assert result.skipped == [
            (lineno, reason) for lineno, (_, reason) in enumerate(cases, start=1) if reason]

    def test_split_of_a_dataset_with_repeated_ids_is_disjoint(self, tmp_path):
        lines = [record_line(f"q{i % 5}") for i in range(10)]
        result = load_dataset(write_lines(tmp_path / "d.jsonl", lines))
        assert len(result.records) == 5 and len(result.skipped) == 5
        train, test = make_split(result.records, WithinDatabase(0.5, 0))
        assert not set(train) & set(test)
        assert sorted(train + test) == [f"q{i}" for i in range(5)]

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

    def test_cross_without_db_ids(self):
        for text in ("cross:", "cross:,"):
            with pytest.raises(ValueError, match="at least one db_id"):
                parse_split_spec(text)


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
        # labeling recurses once per tree level of a chain of qualified
        # columns, so a 1,000-term one exceeds the interpreter's recursion limit
        chain = "SELECT " + " + ".join(["s.a"] * 1000) + " FROM t AS s"
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

    def test_missing_schema_file_is_a_skip(self, tmp_path, schemas_dir):
        lines = [record_line("q1"), record_line("q2", db="nope")]
        path = self._dataset(tmp_path, lines)
        labeled, skipped, n_in = label_dataset(path, schemas_dir)
        assert [lq.record.query_id for lq in labeled] == ["q1"]
        assert n_in == 2
        [(qid, reason)] = skipped
        assert qid == "q2"
        prefix = f"{MissingSchema.__name__}: no schema file for db 'nope' at "
        assert reason == prefix + str(schemas_dir / "nope.json")

    def test_malformed_schema_file_is_a_skip(self, tmp_path, schemas_dir):
        (schemas_dir / "bad.json").write_text("{not json", encoding="utf-8")
        lines = [record_line("q1"), record_line("q2", db="bad"), record_line("q3", db="nope")]
        path = self._dataset(tmp_path, lines)
        labeled, skipped, n_in = label_dataset(path, schemas_dir)
        assert [lq.record.query_id for lq in labeled] == ["q1"]
        assert n_in == 3
        [(q2, bad), (q3, missing)] = skipped
        assert (q2, q3) == ("q2", "q3")
        assert bad.startswith(f"SchemaFormatError: {schemas_dir / 'bad.json'}: invalid JSON (")
        assert missing.startswith("MissingSchema: no schema file for db 'nope'")

    def test_unreadable_schema_path_is_a_skip(self, tmp_path, schemas_dir):
        (schemas_dir / "bad.json").mkdir()
        path = self._dataset(tmp_path, [record_line("q1"), record_line("q2", db="bad")])
        labeled, skipped, n_in = label_dataset(path, schemas_dir)
        assert [lq.record.query_id for lq in labeled] == ["q1"]
        assert n_in == 2
        [(qid, reason)] = skipped
        assert qid == "q2"
        assert reason.startswith("IsADirectoryError: ")

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

    def test_predictions_match_each_query_scored_alone(self, tmp_path):
        # run_experiment scores the held-out rows in one pass; every p_error
        # must equal predict_proba of its query's rows alone, rounded
        pairs = build_planted_corpus(40, seed=1)
        dataset = tmp_path / "d.jsonl"
        write_dataset(dataset, [p.record for p in pairs])
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
        out = tmp_path / "out"
        result = run_experiment(
            dataset, schemas, WithinDatabase(0.5, seed=0),
            config=GbdtConfig(n_trees=10, min_samples_leaf=2), out_dir=out,
        )
        test_ids = set(result.test_query_ids)
        alone = {}
        for lq in label_dataset(dataset, schemas)[0]:
            if lq.record.query_id in test_ids:
                proba = predict_proba(result.model, np.stack([nr.features for nr in lq.node_records]))
                for nr, p in zip(lq.node_records, proba):
                    alone[nr.query_id, nr.node_id] = round(float(p), 6)
        rows = [json.loads(line) for line in (out / "predictions.jsonl").read_text().splitlines()[1:]]
        assert len(rows) == len(alone) == result.eval_rows[0].n
        assert {(r["query_id"], r["node_id"]): r["p_error"] for r in rows} == alone
        assert len(set(alone.values())) > 1


def test_predict_sql_on_a_3000_term_chain():
    # the chain is a left-deep tree about 3,000 nodes deep
    model = GbdtModel(config=GbdtConfig(), base_score=0.0, trees=[],
                      manifest_hash=MANIFEST.version_hash, feature_count=MANIFEST.length)
    sql = "SELECT " + " + ".join(["amount"] * 3000) + " FROM sale"
    nodes, proba = predict_sql(model, sql, SYNTH_SCHEMA)
    assert [n.id for n in nodes] == list(range(len(nodes)))
    assert proba.shape == (len(nodes),)
    assert max(n.depth for n in nodes) >= 3000


def test_unqualified_10000_term_chain_labels_and_featurizes():
    # no And, Or or qualified column: exact keys settle every pair without recursion
    sql = "SELECT " + " + ".join(["amount"] * 10000) + " FROM sale"
    labeled = label_and_featurize(DatasetRecord("q", "synth", sql, sql), SYNTH_SCHEMA)
    assert len(labeled.node_records) == len(labeled.nodes) > 3 * 10000
    assert not any(nr.label for nr in labeled.node_records)
    changed = DatasetRecord("q", "synth", sql, sql.replace("amount FROM", "price FROM"))
    labeled = label_and_featurize(changed, SYNTH_SCHEMA)
    # the outermost Add; its last column is rescued by any gold `amount`
    blamed = [node for nr, node in zip(labeled.node_records, labeled.nodes) if nr.label]
    assert [(node.id, node.kind.value) for node in blamed] == [(1, "Add")]


def test_logprob_scores_of_a_4000_term_chain_take_linear_time():
    # every node overlaps some token, and the AND node overlaps them all
    sql = "SELECT c1 FROM t1 WHERE " + " AND ".join(f"c1 = {i}" for i in range(4000))
    spans = [(t.start, t.end, -0.01 * (i % 7 + 1)) for i, t in enumerate(tokenize(sql)[:-1])]
    records = [DatasetRecord("q", "synth", sql, sql, token_logprobs=lp) for lp in (None, spans)]
    seconds = [math.inf, math.inf]  # without logprobs, with them
    for _ in range(4):  # alternate the two, so a slow spell of the machine hits both
        for i, record in enumerate(records):
            start = time.perf_counter()
            labeled = label_and_featurize(record, SYNTH_SCHEMA)
            seconds[i] = min(seconds[i], time.perf_counter() - start)
    assert all(nr.logprob_score is not None for nr in labeled.node_records)
    # a scan of every token per node made this 17 times as slow
    assert seconds[1] < 2 * seconds[0], seconds


def test_10000_nested_parentheses_parse_label_and_predict():
    # parentheses push parser stack entries; the tree itself stays shallow
    sql = "SELECT a FROM t WHERE " + "(" * 10000 + "a = 1" + ")" * 10000
    tree = parse_sql(sql)
    assert [n.kind.value for n in preorder(tree)][-4:] == ["Eq", "Column", "Identifier", "Literal"]
    labeled = label_and_featurize(DatasetRecord("q", "synth", sql, sql), SYNTH_SCHEMA)
    assert not any(nr.label for nr in labeled.node_records)
    model = GbdtModel(config=GbdtConfig(), base_score=0.0, trees=[],
                      manifest_hash=MANIFEST.version_hash, feature_count=MANIFEST.length)
    nodes, proba = predict_sql(model, sql, SYNTH_SCHEMA)
    assert proba.shape == (len(nodes),) == (len(preorder(tree)),)


DEEP = 10000


@pytest.mark.parametrize("sql", [
    "SELECT " + "f(" * DEEP + "amount" + ")" * DEEP + " FROM sale",
    "SELECT amount FROM sale WHERE " + "amount IN (" * DEEP + "1" + ")" * DEEP,
    "SELECT amount FROM sale WHERE amount IN "
    + "(SELECT amount FROM sale WHERE amount IN " * DEEP + "(1)" + ")" * DEEP,
    "SELECT amount FROM " + "(SELECT amount FROM " * DEEP + "sale" + ")" * DEEP,
], ids=["calls", "in_lists", "in_subqueries", "from_subqueries"])
def test_10000_nested_levels_parse_and_predict(sql):
    # calls, IN lists and subqueries push parser frames and SELECT levels,
    # not interpreter frames
    tree = parse_sql(sql)
    assert max(n.depth for n in preorder(tree)) >= DEEP
    model = GbdtModel(config=GbdtConfig(), base_score=0.0, trees=[],
                      manifest_hash=MANIFEST.version_hash, feature_count=MANIFEST.length)
    nodes, proba = predict_sql(model, sql, SYNTH_SCHEMA)
    assert [n.id for n in nodes] == list(range(len(nodes))) == [n.id for n in preorder(tree)]
    assert proba.shape == (len(nodes),)


def test_planted_experiment_script_writes_every_artifact(tmp_path, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_planted_experiment.py"
    spec = importlib.util.spec_from_file_location("run_planted_experiment", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "out"
    assert script.main(["--pairs", "60", "--n-trees", "5", "--out", str(out)]) == 0
    assert (out / "dataset.jsonl").is_file()
    for name in ("model.json", "report.json", "report.txt", "predictions.jsonl",
                 "skipped.jsonl", "feature_manifest.json"):
        assert (out / "run" / name).is_file(), name
    GbdtModel.load(out / "run" / "model.json")
    assert "held-out AUC=" in capsys.readouterr().out
