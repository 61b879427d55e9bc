"""Seeded inputs for the workloads, and the schema files they are read with.

The seed picks content only (columns, literals, operand order and the
planted site); the sizes are fixed, so runs with different seeds do the
same amount of work and their timings are comparable.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from sqluq import pipeline
from sqluq.synth import SYNTH_SCHEMA

WIDE_DB_ID = "wide_synth"
WIDE_TABLE = "metrics"
WIDE_COLUMNS = tuple(f"m{i:03d}" for i in range(160))

# Shapes on which label and featurize cost more than linearly in width or
# depth, twelve sizes each so that adjacent sizes differ little in cost and
# the median operation does not jump between runs.  Nesting deeper than
# about 110 levels exceeds the interpreter's recursion limit, a known defect
# that the six deepest pairs keep visible.
WIDE_K = (25, 36, 48, 59, 70, 82, 93, 104, 116, 127, 138, 150)
CHAIN_TERMS = (20, 32, 44, 56, 67, 79, 91, 103, 115, 126, 138, 150)
PAREN_DEPTHS = (20, 36, 52, 68, 84, 100, 120, 136, 152, 168, 184, 200)


def schema_doc(db_id: str, tables: list[tuple[str, list[tuple[str, str]]]]) -> dict:
    return {
        "db_id": db_id,
        "tables": [
            {"name": name, "columns": [{"name": c, "type": t} for c, t in cols]}
            for name, cols in tables
        ],
    }


def planted_schema_doc() -> dict:
    return schema_doc(
        SYNTH_SCHEMA.db_id,
        [(t.name, [(c.name, c.data_type.value) for c in t.columns]) for t in SYNTH_SCHEMA.tables],
    )


def wide_schema_doc() -> dict:
    cols = [(c, "numeric" if i % 2 == 0 else "text") for i, c in enumerate(WIDE_COLUMNS)]
    return schema_doc(WIDE_DB_ID, [(WIDE_TABLE, cols)])


def write_schema(directory: Path, schema: dict) -> Path:
    """Write one schema file into a schemas directory and return the file."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{schema['db_id']}.json"
    path.write_text(json.dumps(schema), encoding="utf-8")
    return path


def _typo(column: str) -> str:
    return column + "x"


def _wide_pair(rng: random.Random, k: int, in_where: bool) -> tuple[str, str, str]:
    """K projections and K AND-ed predicates; gold has its AND operands
    shuffled, and the generated side misspells one column of the WHERE
    clause or of the projection list.  Which of the two is fixed by the
    caller, because it decides how much of the tree the labeler compares."""
    proj = rng.sample(WIDE_COLUMNS, k)
    pred_cols = rng.sample(WIDE_COLUMNS, k)
    literals = [rng.randint(1, 999) for _ in pred_cols]
    site = k + rng.randrange(k) if in_where else rng.randrange(k)
    planted = _typo(proj[site] if site < k else pred_cols[site - k])
    gen_proj = [planted if i == site else c for i, c in enumerate(proj)]
    gen_preds = [
        f"{planted if i + k == site else c} = {v}"
        for i, (c, v) in enumerate(zip(pred_cols, literals))
    ]
    gold_preds = [f"{c} = {v}" for c, v in zip(pred_cols, literals)]
    rng.shuffle(gold_preds)

    def render(cols, preds):
        return f"SELECT {', '.join(cols)} FROM {WIDE_TABLE} WHERE {' AND '.join(preds)}"

    return render(gen_proj, gen_preds), render(proj, gold_preds), planted


def _chain_pair(rng: random.Random, terms: int) -> tuple[str, str, str]:
    """`a + ... + a` with its middle term misspelled on the generated side."""
    column = rng.choice(WIDE_COLUMNS)
    planted = _typo(column)
    site = terms // 2
    gen = [planted if i == site else column for i in range(terms)]
    gold = [column] * terms
    return (
        f"SELECT {' + '.join(gen)} FROM {WIDE_TABLE}",
        f"SELECT {' + '.join(gold)} FROM {WIDE_TABLE}",
        planted,
    )


def _paren_pair(rng: random.Random, depth: int) -> tuple[str, str, str]:
    """A predicate nested in `depth` parentheses, its column misspelled."""
    shown, column = rng.sample(WIDE_COLUMNS, 2)
    literal = rng.randint(1, 999)
    planted = _typo(column)

    def render(col):
        return f"SELECT {shown} FROM {WIDE_TABLE} WHERE {'(' * depth}{col} = {literal}{')' * depth}"

    return render(planted), render(column), planted


def wide_deep_pairs(seed: int) -> list[tuple[pipeline.DatasetRecord, str]]:
    """(record, planted column name) for every shape and size."""
    rng = random.Random(seed)
    made = (
        [_wide_pair(rng, k, in_where=i % 2 == 1) for i, k in enumerate(WIDE_K)]
        + [_chain_pair(rng, t) for t in CHAIN_TERMS]
        + [_paren_pair(rng, d) for d in PAREN_DEPTHS]
    )
    return [
        (pipeline.DatasetRecord(f"w{i:03d}", WIDE_DB_ID, gen, gold), planted)
        for i, (gen, gold, planted) in enumerate(made)
    ]
