"""Dataset ingestion, experiment splits, and end-to-end orchestration.

Datasets are line-delimited JSON, one record per line, optionally led by
a header line ({"format": "sqluq-dataset", ...}).  Record fields:
query_id, db_id, generated_sql, gold_sql, optional question, optional
token_logprobs as [start, end, logprob] byte spans over generated_sql.
One function reads each line; a line that holds no record raises
DatasetLineError, whose message is the reason the line is skipped.
Schemas live one JSON file per db_id inside a schemas directory.

run_experiment parses, labels, and featurizes every record (skipping and
reporting, by exception class, any record that fails), trains on the
train split, and emits the per-kind evaluation table plus serialized
artifacts.  Identical inputs, split and config reproduce identical outputs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from sqluq import labeler
from sqluq.ast_core import SqlNode, build_alias_map, parse_sql
from sqluq.featurizer import MANIFEST, NodeRecord, featurize_tree, node_logprob_scores
from sqluq.gbdt import (
    EvalRow,
    GbdtConfig,
    GbdtModel,
    eval_by_kind,
    predict_proba,
    render_eval_table,
    train,
)
from sqluq.schema import Schema, SchemaFormatError, load_schema

DATASET_FORMAT = "sqluq-dataset"


class UnknownDbId(Exception):
    """Split spec names a db_id that the dataset does not contain."""


class DatasetLineError(ValueError):
    """A dataset line holds no record; the message says why."""


class MissingSchema(Exception):
    """A record's db_id has no schema file in the schemas directory; the
    record is skipped."""


@dataclass
class DatasetRecord:
    query_id: str
    db_id: str
    generated_sql: str
    gold_sql: str
    question: str | None = None
    token_logprobs: list[tuple[int, int, float]] | None = None


@dataclass
class LoadResult:
    records: list[DatasetRecord]
    skipped: list[tuple[int, str]]  # (line number, reason)


def _read_record(line: str) -> DatasetRecord | None:
    """The record on one stripped, non-empty dataset line, or None for the
    header line; any other line raises DatasetLineError, whose message
    names the first of the checks below that the line fails."""
    try:
        line.encode("utf-8")
        doc = json.loads(line)
    except UnicodeEncodeError:
        raise DatasetLineError("invalid UTF-8") from None
    except json.JSONDecodeError as exc:
        raise DatasetLineError(f"invalid JSON: {exc.msg}") from None
    except ValueError as exc:  # an integer past int's digit limit
        raise DatasetLineError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise DatasetLineError("invalid JSON: nested too deep") from None
    if not isinstance(doc, dict):
        raise DatasetLineError("record is not an object")
    if doc.get("format") == DATASET_FORMAT:
        return None
    # only an absent field, null or "" is missing: a query_id of 0 is an id
    missing = [
        k for k in ("query_id", "db_id", "generated_sql", "gold_sql")
        if doc.get(k) is None or doc[k] == ""
    ]
    if missing:
        raise DatasetLineError(f"missing fields: {', '.join(missing)}")
    not_strings = [k for k in ("generated_sql", "gold_sql") if not isinstance(doc[k], str)]
    if not_strings:
        raise DatasetLineError(f"not a string: {', '.join(not_strings)}")
    # a boolean is not an integer
    bad_id = next((k for k in ("query_id", "db_id") if type(doc[k]) not in (str, int)), "")
    if bad_id:
        raise DatasetLineError(f"{bad_id} is not a string or an integer")
    if not isinstance(doc.get("question"), (str, type(None))):
        raise DatasetLineError("question is not a string")
    token_logprobs = None
    if doc.get("token_logprobs") is not None:
        if not isinstance(doc["token_logprobs"], list):
            raise DatasetLineError("token_logprobs is not a list")
        try:
            gen_len = len(doc["generated_sql"].encode("utf-8"))
        except UnicodeEncodeError:  # a lone surrogate, from an escape such as \ud800
            raise DatasetLineError("generated_sql is not valid Unicode") from None
        token_logprobs = []
        for item in doc["token_logprobs"]:
            # two JSON integers and a JSON number; a boolean is neither
            if not (isinstance(item, list) and len(item) == 3 and type(item[0]) is int
                    and type(item[1]) is int and type(item[2]) in (int, float)):
                raise DatasetLineError("malformed token_logprobs entry")
            start, end, lp = item
            try:
                lp = float(lp)
            except OverflowError:  # an integer past the float range is no logprob
                raise DatasetLineError("malformed token_logprobs entry") from None
            if not (0 <= start < end <= gen_len):
                raise DatasetLineError(f"token span ({start}, {end}) outside generated_sql")
            if not math.isfinite(lp):
                raise DatasetLineError(f"non-finite token logprob {lp}")
            if lp > 0.0:
                raise DatasetLineError(f"positive token logprob {lp}")
            token_logprobs.append((start, end, lp))
    return DatasetRecord(
        query_id=str(doc["query_id"]),
        db_id=str(doc["db_id"]),
        generated_sql=doc["generated_sql"],
        gold_sql=doc["gold_sql"],
        question=doc.get("question"),
        token_logprobs=token_logprobs,
    )


def load_dataset(path: str | Path) -> LoadResult:
    """Read a JSONL dataset, skipping and reporting, with the reason
    `_read_record` raises, each line that holds no record.  A line whose
    query_id an earlier record already has is skipped too, so no id can
    land on both sides of a split."""
    records: list[DatasetRecord] = []
    skipped: list[tuple[int, str]] = []
    first_line: dict[str, int] = {}  # query_id -> line of its record
    # undecodable bytes become lone surrogates, which no UTF-8 line decodes to
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = _read_record(line)
                if record is None:
                    continue
                first = first_line.setdefault(record.query_id, lineno)
                if first != lineno:
                    raise DatasetLineError(
                        f"duplicate query_id {record.query_id!r} (first on line {first})")
                records.append(record)
            except DatasetLineError as exc:
                skipped.append((lineno, str(exc)))
    return LoadResult(records=records, skipped=skipped)


def write_dataset(path: str | Path, records: list[DatasetRecord]):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": DATASET_FORMAT, "version": 1}) + "\n")
        for rec in records:
            doc = {
                "query_id": rec.query_id,
                "db_id": rec.db_id,
                "question": rec.question,
                "generated_sql": rec.generated_sql,
                "gold_sql": rec.gold_sql,
            }
            if rec.token_logprobs is not None:
                doc["token_logprobs"] = [list(t) for t in rec.token_logprobs]
            fh.write(json.dumps(doc) + "\n")


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WithinDatabase:
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise ValueError("train_fraction must be in (0, 1)")


@dataclass(frozen=True)
class CrossDatabase:
    test_db_ids: tuple[str, ...]


SplitSpec = WithinDatabase | CrossDatabase


def make_split(
    records: list[DatasetRecord], spec: SplitSpec
) -> tuple[list[str], list[str]]:
    """Partition query_ids into (train, test), deterministically."""
    by_db: dict[str, list[DatasetRecord]] = {}
    for rec in records:
        by_db.setdefault(rec.db_id, []).append(rec)
    if isinstance(spec, CrossDatabase):
        unknown = set(spec.test_db_ids) - set(by_db)
        if unknown:
            raise UnknownDbId(f"unknown db_ids: {sorted(unknown)}")
        test_set = set(spec.test_db_ids)
        train = [r.query_id for r in records if r.db_id not in test_set]
        test = [r.query_id for r in records if r.db_id in test_set]
        return train, test
    train: list[str] = []
    test: list[str] = []
    for db_id in sorted(by_db):
        group = sorted(by_db[db_id], key=lambda r: r.query_id)
        if len(group) < 2:
            raise ValueError(f"db {db_id!r} has fewer than 2 records")
        rng = random.Random(f"{spec.seed}:{db_id}")
        rng.shuffle(group)
        n_train = math.ceil(spec.train_fraction * len(group))
        train.extend(r.query_id for r in group[:n_train])
        test.extend(r.query_id for r in group[n_train:])
    return train, test


def parse_split_spec(text: str) -> SplitSpec:
    """CLI split syntax: 'within:<fraction>[:seed]' or 'cross:db1,db2'."""
    head, _, rest = text.partition(":")
    if head == "within":
        frac_text, _, seed_text = rest.partition(":")
        return WithinDatabase(
            train_fraction=float(frac_text or 0.8),
            seed=int(seed_text or 0),
        )
    if head == "cross":
        ids = tuple(x for x in rest.split(",") if x)
        if not ids:
            raise ValueError("cross split needs at least one db_id")
        return CrossDatabase(test_db_ids=ids)
    raise ValueError(f"unknown split spec {text!r}")


# ---------------------------------------------------------------------------
# End-to-end experiment
# ---------------------------------------------------------------------------


@dataclass
class LabeledQuery:
    record: DatasetRecord
    node_records: list[NodeRecord]
    nodes: list  # SqlNode preorder, aligned with node_records
    label_provenance: list[str]


@dataclass
class ExperimentResult:
    eval_rows: list[EvalRow]
    model: GbdtModel
    records_in: int
    records_labeled: int
    records_skipped: int
    skipped: list[tuple[str, str]]  # (query_id, reason)
    train_query_ids: list[str]
    test_query_ids: list[str]
    out_dir: Path | None = None


def load_schemas(schemas_dir: str | Path, db_ids: set[str]) -> dict[str, Schema | Exception]:
    """The schema of every db in db_ids, each file read once; a db whose
    file is missing, unreadable or malformed maps to its MissingSchema,
    OSError or SchemaFormatError instead."""
    schemas: dict[str, Schema | Exception] = {}
    for db_id in sorted(db_ids):
        path = Path(schemas_dir) / f"{db_id}.json"
        try:
            if not path.exists():
                raise MissingSchema(f"no schema file for db {db_id!r} at {path}")
            schemas[db_id] = load_schema(path)
        except (MissingSchema, OSError, SchemaFormatError) as exc:
            schemas[db_id] = exc
    return schemas


def label_and_featurize(record: DatasetRecord, schema: Schema) -> LabeledQuery:
    """Label one generated/gold pair and featurize every generated node."""
    gen = parse_sql(record.generated_sql)
    gold = parse_sql(record.gold_sql)
    label_map, ctx = labeler.label_with_context(gen, gold)
    nodes, matrix = featurize_tree(gen, ctx.gen_aliases, schema)
    scores = (node_logprob_scores(nodes, record.token_logprobs) if record.token_logprobs
              else [None] * len(nodes))
    query_id, db_id, labels = record.query_id, record.db_id, label_map.labels
    node_records = [  # NodeRecord's fields in order, each row a view of the matrix
        NodeRecord(query_id, db_id, node.id, node.kind.value, row, labels[node.id], score)
        for node, row, score in zip(nodes, list(matrix), scores)
    ]
    provenance = [label_map.provenance[node.id].value for node in nodes]
    return LabeledQuery(
        record=record, node_records=node_records, nodes=nodes, label_provenance=provenance
    )


def label_dataset(
    dataset_path: str | Path, schemas_dir: str | Path
) -> tuple[list[LabeledQuery], list[tuple[str, str]], int]:
    """Load a dataset and its schemas, then label and featurize every record.

    Returns the labeled queries sorted by query_id, the skipped lines and
    records as (query_id or "line N", reason), and the input record count.
    """
    loaded = load_dataset(dataset_path)
    schemas = load_schemas(schemas_dir, {r.db_id for r in loaded.records})
    labeled: list[LabeledQuery] = []
    skipped = [(f"line {ln}", reason) for ln, reason in loaded.skipped]
    for record in loaded.records:
        schema = schemas[record.db_id]
        try:
            if isinstance(schema, Exception):
                raise schema.with_traceback(None)
            labeled.append(label_and_featurize(record, schema))
        except Exception as exc:  # one bad record is a skip, never the end of a run
            skipped.append((record.query_id, f"{type(exc).__name__}: {exc}"))
    labeled.sort(key=lambda lq: lq.record.query_id)
    return labeled, skipped, len(loaded.records) + len(loaded.skipped)


def predict_sql(model: GbdtModel, sql: str, schema: Schema) -> tuple[list[SqlNode], np.ndarray]:
    """Every node of one generated query with its predicted error probability."""
    tree = parse_sql(sql)
    nodes, matrix = featurize_tree(tree, build_alias_map(tree), schema)
    return nodes, predict_proba(model, matrix)


def node_row(node: SqlNode, **fields) -> dict:
    """Serialized output row of one node: id, kind, content, span, then fields."""
    return {
        "node_id": node.id,
        "kind": node.kind.value,
        "content": node.content,
        "span": list(node.span),
        **fields,
    }


def _write_jsonl(path: Path, fmt: str, rows: list[dict]):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": fmt, "version": 1}) + "\n")
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _write_manifest(out: Path):
    (out / "feature_manifest.json").write_text(
        json.dumps(MANIFEST.to_dict(), indent=2) + "\n", encoding="utf-8"
    )


def write_features(out_dir: str | Path, labeled: list[LabeledQuery]) -> int:
    """Write features.jsonl and the feature manifest; returns the row count."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [
        {
            "query_id": nr.query_id,
            "db_id": nr.db_id,
            "node_id": nr.node_id,
            "kind": nr.node_kind,
            "label": nr.label,
            "logprob_score": nr.logprob_score,
            "features": [float(x) for x in nr.features],
        }
        for lq in labeled
        for nr in lq.node_records
    ]
    rows.sort(key=lambda r: (r["query_id"], r["node_id"]))
    _write_jsonl(out / "features.jsonl", "sqluq-features", rows)
    _write_manifest(out)
    return len(rows)


def run_experiment(
    dataset_path: str | Path,
    schemas_dir: str | Path,
    split: SplitSpec,
    config: GbdtConfig | None = None,
    out_dir: str | Path | None = None,
) -> ExperimentResult:
    """Parse, label, featurize, split, train, and evaluate one dataset."""
    config = config or GbdtConfig()
    labeled, skipped, records_in = label_dataset(dataset_path, schemas_dir)

    usable = [lq.record for lq in labeled]
    train_ids, test_ids = make_split(usable, split)
    train_set, test_set = set(train_ids), set(test_ids)
    train_rows = [nr for lq in labeled if lq.record.query_id in train_set for nr in lq.node_records]
    test_queries = [lq for lq in labeled if lq.record.query_id in test_set]
    test_rows = [nr for lq in test_queries for nr in lq.node_records]

    model = train(train_rows, config=config)
    # the held-out rows are scored once, for the table and predictions.jsonl
    X_test = np.empty((0, model.feature_count))
    if test_rows:
        X_test = np.stack([nr.features for nr in test_rows])
    p_error = predict_proba(model, X_test)
    eval_rows = eval_by_kind(test_rows, p_error)

    result = ExperimentResult(
        eval_rows=eval_rows,
        model=model,
        records_in=records_in,
        records_labeled=len(labeled),
        records_skipped=len(skipped),
        skipped=skipped,
        train_query_ids=sorted(train_ids),
        test_query_ids=sorted(test_ids),
    )

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        model.save(out / "model.json")
        _write_manifest(out)
        nodes = [pair for lq in test_queries for pair in zip(lq.nodes, lq.label_provenance)]
        pred_rows = [
            {
                "query_id": nr.query_id,
                "db_id": nr.db_id,
                **node_row(
                    node,
                    label=nr.label,
                    provenance=prov,
                    p_error=round(p, 6),
                    logprob_score=nr.logprob_score,
                ),
            }
            for nr, (node, prov), p in zip(test_rows, nodes, p_error.tolist())
        ]
        pred_rows.sort(key=lambda r: (r["query_id"], r["node_id"]))
        _write_jsonl(out / "predictions.jsonl", "sqluq-predictions", pred_rows)
        _write_jsonl(
            out / "skipped.jsonl",
            "sqluq-skipped",
            [{"query_id": q, "reason": r} for q, r in skipped],
        )
        report = {
            "format": "sqluq-report",
            "version": 1,
            "records_in": result.records_in,
            "records_labeled": result.records_labeled,
            "records_skipped": result.records_skipped,
            "train_queries": len(train_ids),
            "test_queries": len(test_ids),
            "rows": [asdict(r) for r in eval_rows],
        }
        (out / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        (out / "report.txt").write_text(render_eval_table(eval_rows) + "\n", encoding="utf-8")
        result.out_dir = out
    return result
