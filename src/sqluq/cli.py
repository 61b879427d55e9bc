"""Command-line interface.

Subcommands: label, featurize, train, predict, eval, corpus-test.
Exit codes: 0 success, 1 validation failure, 2 IO failure.
"""

from __future__ import annotations

import json
import sys

import click

from sqluq import labeler
from sqluq.ast_core import ParseError, UnsupportedConstruct, parse_sql, preorder
from sqluq.corpus import CASES, run_corpus
from sqluq.gbdt import GbdtConfig, GbdtModel, ManifestMismatch, render_eval_table
from sqluq.pipeline import (
    UnknownDbId,
    label_dataset,
    node_row,
    parse_split_spec,
    predict_sql,
    run_experiment,
    write_features,
)
from sqluq.schema import SchemaFormatError, load_schema

EXIT_VALIDATION = 1
EXIT_IO = 2


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@click.group()
def main():
    """Label, featurize, and score nodes of generated SQL queries."""


@main.command("label")
@click.option("--generated", required=True, help="Generated SQL text.")
@click.option("--gold", required=True, help="Gold SQL text.")
@click.option("--no-rescue", is_flag=True, help="Disable the global rescue pass.")
def label_cmd(generated: str, gold: str, no_rescue: bool):
    """Label every node of GENERATED against GOLD; one JSON line per node."""
    try:
        gen_tree = parse_sql(generated)
        gold_tree = parse_sql(gold)
        label_map, _ = labeler.label_with_context(gen_tree, gold_tree, enable_rescue=not no_rescue)
    except (ParseError, UnsupportedConstruct) as exc:
        _fail(EXIT_VALIDATION, str(exc))
    except RecursionError as exc:  # the equivalence check recurses once per tree level
        _fail(EXIT_VALIDATION, f"RecursionError: {exc}")
    click.echo(json.dumps({"format": "sqluq-labeled-nodes", "version": 1}))
    for node in preorder(gen_tree):
        row = node_row(
            node,
            label=label_map.labels[node.id],
            provenance=label_map.provenance[node.id].value,
        )
        click.echo(json.dumps(row))


@main.command("featurize")
@click.option("--dataset", "dataset_path", required=True, type=click.Path())
@click.option("--schemas", "schemas_dir", required=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
def featurize_cmd(dataset_path: str, schemas_dir: str, out_dir: str):
    """Write per-node feature rows and the feature manifest."""
    try:
        labeled, skipped, _ = label_dataset(dataset_path, schemas_dir)
        n_rows = write_features(out_dir, labeled)
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
    click.echo(f"wrote {n_rows} node rows; skipped {len(skipped)} records")
    for qid, reason in skipped:
        click.echo(f"  skipped {qid}: {reason}", err=True)


@main.command("train")
@click.option("--dataset", "dataset_path", required=True, type=click.Path())
@click.option("--schemas", "schemas_dir", required=True, type=click.Path())
@click.option("--split", "split_text", default="within:0.8", show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--n-trees", default=GbdtConfig.n_trees, show_default=True)
@click.option("--learning-rate", default=GbdtConfig.learning_rate, show_default=True)
@click.option("--max-leaves", default=GbdtConfig.max_leaves, show_default=True)
@click.option("--min-samples-leaf", default=GbdtConfig.min_samples_leaf, show_default=True)
def train_cmd(dataset_path, schemas_dir, split_text, out_dir, n_trees,
              learning_rate, max_leaves, min_samples_leaf):
    """Train on the split, print the per-kind evaluation table, save artifacts."""
    try:
        config = GbdtConfig(n_trees=n_trees, learning_rate=learning_rate,
                            max_leaves=max_leaves, min_samples_leaf=min_samples_leaf)
        split = parse_split_spec(split_text)
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    try:
        result = run_experiment(
            dataset_path, schemas_dir, split, config=config, out_dir=out_dir
        )
    except (UnknownDbId, ValueError) as exc:
        _fail(EXIT_VALIDATION, str(exc))
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
    click.echo(render_eval_table(result.eval_rows))
    click.echo(
        f"trained and evaluated: {result.records_labeled} records "
        f"({result.records_skipped} skipped) -> {result.out_dir}"
    )


# `eval` is the same command as `train`: both train, evaluate and save.
main.add_command(train_cmd, "eval")


@main.command("predict")
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--schema", "schema_path", required=True, type=click.Path())
@click.option("--sql", required=True, help="Generated SQL to annotate.")
def predict_cmd(model_path: str, schema_path: str, sql: str):
    """Annotate each node of SQL with its predicted error probability."""
    try:
        model = GbdtModel.load(model_path)
        schema = load_schema(schema_path)
    except (SchemaFormatError, ValueError) as exc:
        _fail(EXIT_VALIDATION, str(exc))
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
    try:
        nodes, proba = predict_sql(model, sql, schema)
    except (ParseError, UnsupportedConstruct, ManifestMismatch) as exc:
        _fail(EXIT_VALIDATION, str(exc))
    click.echo(json.dumps({"format": "sqluq-predictions", "version": 1}))
    for node, p in zip(nodes, proba):
        click.echo(json.dumps(node_row(node, p_error=round(float(p), 6))))


@main.command("corpus-test")
@click.option("--no-rescue", is_flag=True, help="Disable the global rescue pass.")
def corpus_test_cmd(no_rescue: bool):
    """Run the built-in labeled comparison cases and report pass/fail."""
    results = run_corpus(enable_rescue=not no_rescue)
    failures = 0
    for res in results:
        status = "pass" if res.passed else "FAIL"
        if not res.passed:
            failures += 1
        click.echo(
            f"case {res.case.num:>2} {res.case.name:<36} {status}  "
            f"blamed={[f'{k}({c})' if c else k for k, c in res.blamed]}"
        )
    mode = "rescue disabled" if no_rescue else "rescue enabled"
    click.echo(f"{len(results) - failures}/{len(results)} cases passed ({mode})")
    if no_rescue:
        expected_failures = {c.num for c in CASES if c.needs_rescue}
        actual_failures = {r.case.num for r in results if not r.passed}
        if actual_failures != expected_failures:
            _fail(
                EXIT_VALIDATION,
                f"rescue-disabled failures {sorted(actual_failures)} != "
                f"expected {sorted(expected_failures)}",
            )
    elif failures:
        sys.exit(EXIT_VALIDATION)


if __name__ == "__main__":
    main()
