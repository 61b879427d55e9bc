import json

import pytest
from click.testing import CliRunner

from sqluq.cli import EXIT_VALIDATION, main
from sqluq.featurizer import MANIFEST
from sqluq.pipeline import load_dataset


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workspace(tmp_path):
    schemas = tmp_path / "schemas"
    schemas.mkdir()
    (schemas / "db1.json").write_text(
        json.dumps(
            {
                "db_id": "db1",
                "tables": [
                    {
                        "name": "t",
                        "columns": [
                            {"name": "a", "type": "NUMERIC"},
                            {"name": "b", "type": "TEXT"},
                        ],
                    }
                ],
            }
        ),
        encoding="utf-8",
    )
    lines = []
    for i in range(8):
        gen = "SELECT a FROM t" if i % 2 else "SELECT zz FROM t"
        lines.append(
            json.dumps(
                {
                    "query_id": f"q{i}",
                    "db_id": "db1",
                    "generated_sql": gen,
                    "gold_sql": "SELECT a FROM t",
                }
            )
        )
    dataset = tmp_path / "data.jsonl"
    dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return tmp_path, dataset, schemas


def test_label_outputs_one_line_per_node(runner):
    result = runner.invoke(
        main,
        ["label", "--generated", "SELECT name FROM artists", "--gold", "SELECT name FROM artist"],
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    header = json.loads(lines[0])
    assert header["format"] == "sqluq-labeled-nodes"
    rows = [json.loads(line) for line in lines[1:]]
    assert {r["kind"] for r in rows if r["label"] == 1} == {"Table", "Identifier"}
    assert all(
        set(r) == {"node_id", "kind", "content", "span", "label", "provenance"}
        for r in rows
    )


def test_label_invalid_sql_exit_code_1(runner):
    result = runner.invoke(main, ["label", "--generated", "SELECT FROM", "--gold", "SELECT 1"])
    assert result.exit_code == 1


def test_label_too_deep_to_compare_is_a_validation_error(runner):
    # a qualified column is compared through the alias maps, so the
    # equivalence check recurses once per level of the chain
    chain = "SELECT " + " + ".join(["s.amount"] * 1000) + " FROM sale AS s"
    result = runner.invoke(main, ["label", "--generated", chain, "--gold", chain])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: RecursionError: ")
    assert "Traceback" not in result.output


def test_label_of_an_unqualified_1000_term_chain_exits_0(runner):
    # the chain holds no And, Or or qualified column, so equal keys settle it
    chain = "SELECT " + " + ".join(["amount"] * 1000) + " FROM sale"
    result = runner.invoke(main, ["label", "--generated", chain, "--gold", chain])
    assert result.exit_code == 0, result.output
    assert "Traceback" not in result.output


def test_corpus_test_passes(runner):
    result = runner.invoke(main, ["corpus-test"])
    assert result.exit_code == 0
    assert "13/13 cases passed" in result.output


def test_corpus_test_ablation_mode(runner):
    result = runner.invoke(main, ["corpus-test", "--no-rescue"])
    assert result.exit_code == 0
    assert "8/13 cases passed" in result.output


def test_featurize_writes_features_and_manifest(runner, workspace):
    tmp_path, dataset, schemas = workspace
    out = tmp_path / "feat"
    result = runner.invoke(
        main,
        ["featurize", "--dataset", str(dataset), "--schemas", str(schemas), "--out", str(out)],
    )
    assert result.exit_code == 0
    manifest = json.loads((out / "feature_manifest.json").read_text())
    assert manifest["format"] == "sqluq-feature-manifest"
    lines = (out / "features.jsonl").read_text().strip().splitlines()
    assert json.loads(lines[0])["format"] == "sqluq-features"
    first = json.loads(lines[1])
    assert len(first["features"]) == manifest["length"]


def test_featurize_skips_malformed_values(runner, workspace):
    tmp_path, _, schemas = workspace
    good = {"query_id": "q1", "db_id": "db1", "generated_sql": "SELECT a FROM t",
            "gold_sql": "SELECT a FROM t", "token_logprobs": [[0, 6, -0.5]]}
    docs = [
        good,
        {**good, "query_id": "q2", "token_logprobs": 5},
        {**good, "query_id": "q3", "generated_sql": 7},
        {**good, "query_id": "q4", "token_logprobs": [[0, 1, float("nan")]]},
    ]
    dataset = tmp_path / "malformed.jsonl"
    dataset.write_text("\n".join(json.dumps(doc) for doc in docs) + "\n", encoding="utf-8")
    loaded = load_dataset(dataset)
    assert [r.query_id for r in loaded.records] == ["q1"]
    assert loaded.skipped == [
        (2, "token_logprobs is not a list"),
        (3, "not a string: generated_sql"),
        (4, "non-finite token logprob nan"),
    ]
    out = tmp_path / "feat"
    result = runner.invoke(
        main,
        ["featurize", "--dataset", str(dataset), "--schemas", str(schemas), "--out", str(out)],
    )
    assert result.exit_code == 0
    assert "skipped 3 records" in result.output

    def no_constants(name):
        raise AssertionError(f"{name} is not JSON")

    for line in (out / "features.jsonl").read_text().splitlines():
        json.loads(line, parse_constant=no_constants)


def test_featurize_skips_lines_and_schemas_that_cannot_be_decoded(runner, workspace):
    tmp_path, dataset, schemas = workspace
    (schemas / "latin1.json").write_bytes(b'{"db_id": "latin1", "tables": [{"name": "caf\xe9"}]}')
    (schemas / "deep.json").write_bytes(b"[" * 100_000)
    lines = dataset.read_bytes().splitlines()
    lines[1] = lines[1].replace(b"SELECT a", b"SELECT \xff")
    lines[2] = b"[" * 100_000
    lines[3] = lines[3].replace(b'"db1"', b'"latin1"')
    lines[4] = lines[4].replace(b'"db1"', b'"deep"')
    dataset.write_bytes(b"\n".join(lines) + b"\n")
    out = tmp_path / "feat"
    result = runner.invoke(
        main,
        ["featurize", "--dataset", str(dataset), "--schemas", str(schemas), "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert "skipped 4 records" in result.output
    assert "skipped line 2: invalid UTF-8" in result.output
    assert "skipped line 3: invalid JSON: nested too deep" in result.output
    assert "skipped q3: SchemaFormatError: " in result.output
    assert "skipped q4: SchemaFormatError: " in result.output
    rows = (out / "features.jsonl").read_text().splitlines()[1:]
    assert {json.loads(row)["query_id"] for row in rows} == {"q0", "q5", "q6", "q7"}


def test_featurize_out_at_an_existing_file_exit_code_2(runner, workspace):
    tmp_path, dataset, schemas = workspace
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")
    result = runner.invoke(
        main,
        ["featurize", "--dataset", str(dataset), "--schemas", str(schemas), "--out", str(out)],
    )
    assert result.exit_code == 2


def test_featurize_skips_a_record_without_a_schema_file(runner, workspace):
    tmp_path, _, schemas = workspace
    good = {"query_id": "q1", "db_id": "db1", "generated_sql": "SELECT a FROM t",
            "gold_sql": "SELECT a FROM t"}
    dataset = tmp_path / "no_schema.jsonl"
    dataset.write_text(
        "\n".join(json.dumps(doc) for doc in (good, {**good, "query_id": "q2", "db_id": "nope"}))
        + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "feat"
    result = runner.invoke(
        main,
        ["featurize", "--dataset", str(dataset), "--schemas", str(schemas), "--out", str(out)],
    )
    assert result.exit_code == 0
    assert "skipped 1 records" in result.output
    assert "skipped q2: MissingSchema: no schema file for db 'nope'" in result.output
    rows = (out / "features.jsonl").read_text().splitlines()[1:]
    assert {json.loads(row)["query_id"] for row in rows} == {"q1"}


def test_eval_then_predict_round_trip(runner, workspace):
    tmp_path, dataset, schemas = workspace
    out = tmp_path / "run"
    result = runner.invoke(
        main,
        [
            "eval", "--dataset", str(dataset), "--schemas", str(schemas),
            "--split", "within:0.5:3", "--out", str(out),
            "--n-trees", "5", "--min-samples-leaf", "1",
        ],
    )
    assert result.exit_code == 0, result.output
    assert "Node Kind" in result.output
    predict = runner.invoke(
        main,
        [
            "predict", "--model", str(out / "model.json"),
            "--schema", str(schemas / "db1.json"),
            "--sql", "SELECT zz FROM t",
        ],
    )
    assert predict.exit_code == 0, predict.output
    rows = [json.loads(line) for line in predict.output.strip().splitlines()[1:]]
    assert all(0.0 < r["p_error"] < 1.0 for r in rows)
    by_kind = {r["kind"]: r for r in rows if r["kind"] in ("Column", "From")}
    assert by_kind["Column"]["p_error"] > by_kind["From"]["p_error"]


def test_eval_unknown_split_exit_code_1(runner, workspace):
    tmp_path, dataset, schemas = workspace
    result = runner.invoke(
        main,
        ["eval", "--dataset", str(dataset), "--schemas", str(schemas),
         "--split", "bogus:1", "--out", str(tmp_path / "x")],
    )
    assert result.exit_code == 1


def test_eval_cross_split_of_an_unknown_db_exit_code_1(runner, workspace):
    tmp_path, dataset, schemas = workspace
    result = runner.invoke(
        main,
        ["eval", "--dataset", str(dataset), "--schemas", str(schemas),
         "--split", "cross:nope", "--out", str(tmp_path / "x")],
    )
    assert result.exit_code == 1
    assert "unknown db_ids: ['nope']" in result.stderr


def test_eval_missing_dataset_exit_code_2(runner, workspace):
    tmp_path, _, schemas = workspace
    result = runner.invoke(
        main,
        ["eval", "--dataset", str(tmp_path / "missing.jsonl"), "--schemas", str(schemas),
         "--out", str(tmp_path / "x")],
    )
    assert result.exit_code == 2


def test_train_writes_model(runner, workspace):
    tmp_path, dataset, schemas = workspace
    out = tmp_path / "trained"
    result = runner.invoke(
        main,
        ["train", "--dataset", str(dataset), "--schemas", str(schemas),
         "--split", "within:0.5:3", "--out", str(out),
         "--n-trees", "4", "--min-samples-leaf", "1"],
    )
    assert result.exit_code == 0, result.output
    model_doc = json.loads((out / "model.json").read_text())
    assert model_doc["format"] == "sqluq-gbdt-model"
    assert model_doc["config"]["n_trees"] == 4


@pytest.mark.parametrize("option", [["--max-leaves", "1"], ["--min-samples-leaf", "-1"]])
def test_train_rejects_an_invalid_config(runner, workspace, option):
    tmp_path, dataset, schemas = workspace
    out = tmp_path / "trained"
    result = runner.invoke(
        main,
        ["train", "--dataset", str(dataset), "--schemas", str(schemas), "--out", str(out),
         *option],
    )
    assert result.exit_code == EXIT_VALIDATION, result.output
    assert "error:" in result.output and not out.exists()


def _write_model(path, manifest_hash, feature_count, trees=(), **config_extra):
    config = {"n_trees": 1, "learning_rate": 0.05, "max_leaves": 31,
              "min_samples_leaf": 20, **config_extra}
    path.write_text(json.dumps({
        "format": "sqluq-gbdt-model", "version": 1, "config": config,
        "base_score": 0.0, "manifest_hash": manifest_hash,
        "feature_count": feature_count, "trees": list(trees),
    }), encoding="utf-8")
    return path


def _predict(runner, workspace, model_path):
    _, _, schemas = workspace
    return runner.invoke(
        main,
        ["predict", "--model", str(model_path), "--schema", str(schemas / "db1.json"),
         "--sql", "SELECT a FROM t"],
    )


def test_predict_missing_model_exit_code_2(runner, workspace):
    result = _predict(runner, workspace, workspace[0] / "missing.json")
    assert result.exit_code == 2


def test_predict_model_nested_too_deep_exit_code_1(runner, workspace):
    model = workspace[0] / "model.json"
    model.write_text("[" * 100_000, encoding="utf-8")
    result = _predict(runner, workspace, model)
    assert result.exit_code == 1
    assert result.stderr == "error: malformed model file: nested too deep\n"


def test_predict_model_from_another_manifest_exit_code_1(runner, workspace):
    tmp_path = workspace[0]
    model = _write_model(tmp_path / "model.json", "0" * 16, MANIFEST.length)
    result = _predict(runner, workspace, model)
    assert result.exit_code == 1
    assert result.stderr.startswith("error: model built under manifest")


def test_predict_model_without_config_exit_code_1(runner, workspace):
    tmp_path = workspace[0]
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"format": "sqluq-gbdt-model"}), encoding="utf-8")
    result = _predict(runner, workspace, model)
    assert result.exit_code == 1
    assert result.stderr.startswith("error: malformed model file")


def test_predict_model_with_training_seed_exit_code_1(runner, workspace):
    # an older model file: its config has a training seed, its manifest 91 columns
    tmp_path = workspace[0]
    model = _write_model(tmp_path / "model.json", "32b5c080441d07a3", 91, seed=0)
    result = _predict(runner, workspace, model)
    assert result.exit_code == 1
    assert result.stderr.startswith("error: malformed model file")


def test_predict_model_with_feature_out_of_range_exit_code_1(runner, workspace):
    tmp_path = workspace[0]
    stump = {"feature": [999, -1, -1], "threshold": [0.5, 0.0, 0.0],
             "left": [1, -1, -1], "right": [2, -1, -1], "value": [0.0, -1.0, 1.0]}
    model = _write_model(tmp_path / "model.json", MANIFEST.version_hash, MANIFEST.length,
                         trees=[stump])
    result = _predict(runner, workspace, model)
    assert result.exit_code == 1
    assert result.stderr.startswith("error: malformed model file")


def test_predict_with_a_wrong_shape_schema_exit_code_1(runner, workspace):
    tmp_path, _, schemas = workspace
    stump = {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0],
             "left": [1, -1, -1], "right": [2, -1, -1], "value": [0.0, -1.0, 1.0]}
    model = _write_model(tmp_path / "model.json", MANIFEST.version_hash, MANIFEST.length,
                         trees=[stump])
    (schemas / "db1.json").write_text(json.dumps({"tables": 5}), encoding="utf-8")
    result = _predict(runner, workspace, model)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"error: {schemas / 'db1.json'}: tables is not a list\n"
