import json

from sqluq.ast_core import parse_sql, preorder
from sqluq.gbdt import GbdtConfig
from sqluq.labeler import label_with_context
from sqluq.pipeline import WithinDatabase, run_experiment, write_dataset
from sqluq.synth import SYNTH_SCHEMA, build_planted_corpus, planted_agreement


def test_corpus_is_deterministic():
    a = build_planted_corpus(50, seed=11)
    b = build_planted_corpus(50, seed=11)
    assert [(p.record.generated_sql, p.record.gold_sql) for p in a] == [
        (p.record.generated_sql, p.record.gold_sql) for p in b
    ]
    assert [p.expected_error_ids for p in a] == [p.expected_error_ids for p in b]


def test_planted_sites_exist_and_gold_parses():
    for pair in build_planted_corpus(120, seed=3):
        gen = parse_sql(pair.record.generated_sql)
        parse_sql(pair.record.gold_sql)
        ids = {n.id for n in preorder(gen)}
        assert pair.expected_error_ids <= ids
        if pair.mutation == "none":
            assert not pair.expected_error_ids
        else:
            assert pair.expected_error_ids


def test_unmutated_pairs_label_clean():
    for pair in build_planted_corpus(80, seed=5):
        if pair.mutation != "none":
            continue
        gen = parse_sql(pair.record.generated_sql)
        lm = label_with_context(gen, parse_sql(pair.record.gold_sql))[0]
        assert set(lm.labels.values()) == {0}


def test_agreement_exceeds_threshold_small_corpus():
    pairs = build_planted_corpus(400, seed=1)
    assert planted_agreement(pairs) >= 0.98


def test_table_typo_rate_matches_reported_prop_false(tmp_path):
    # corpus with only table-name typos at a known rate: the labeler's
    # reported error proportion must track the planted node rate within 1%
    weights = {"none": 0.5, "table_typo": 0.5}
    pairs = build_planted_corpus(600, seed=2, weights=weights)
    write_dataset(tmp_path / "d.jsonl", [p.record for p in pairs])
    schemas = tmp_path / "schemas"
    schemas.mkdir()
    (schemas / f"{SYNTH_SCHEMA.db_id}.json").write_text(
        json.dumps(
            {
                "db_id": SYNTH_SCHEMA.db_id,
                "tables": [
                    {
                        "name": t.name,
                        "columns": [
                            {"name": c.name, "type": c.data_type.value} for c in t.columns
                        ],
                    }
                    for t in SYNTH_SCHEMA.tables
                ],
            }
        ),
        encoding="utf-8",
    )
    result = run_experiment(
        tmp_path / "d.jsonl",
        schemas,
        WithinDatabase(train_fraction=0.8, seed=2),
        config=GbdtConfig(n_trees=5, min_samples_leaf=5),
    )
    test_ids = set(result.test_query_ids)
    planted_nodes = 0
    total_nodes = 0
    for pair in pairs:
        if pair.record.query_id not in test_ids:
            continue
        planted_nodes += len(pair.expected_error_ids)
        total_nodes += len(preorder(parse_sql(pair.record.generated_sql)))
    planted_rate = planted_nodes / total_nodes
    reported = result.eval_rows[0].proportion_error
    assert abs(reported - planted_rate) <= 0.01
