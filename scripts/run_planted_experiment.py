#!/usr/bin/env python3
"""Desk-scale end-to-end experiment on a planted-error corpus.

Generates query pairs over the built-in synthetic retail schema by
mutating gold queries at known node sites, labels them, trains the
classifier on an 80/20 within-database split, and reports node-level
labeling agreement with the planted truth plus held-out ranking quality.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sqluq.gbdt import GbdtConfig, render_eval_table
from sqluq.pipeline import WithinDatabase, run_experiment, write_dataset
from sqluq.synth import SYNTH_SCHEMA, build_planted_corpus, planted_agreement


def write_schema_file(path: Path):
    doc = {
        "db_id": SYNTH_SCHEMA.db_id,
        "tables": [
            {
                "name": t.name,
                "columns": [{"name": c.name, "type": c.data_type.value} for c in t.columns],
            }
            for t in SYNTH_SCHEMA.tables
        ],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0, help="corpus and split seed")
    ap.add_argument("--n-trees", type=int, default=60)
    ap.add_argument("--learning-rate", type=float, default=0.1)
    ap.add_argument("--out", type=Path, default=None, help="artifact directory")
    args = ap.parse_args(argv)

    out = args.out or Path(tempfile.mkdtemp(prefix="sqluq-planted-"))
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()

    pairs = build_planted_corpus(args.pairs, seed=args.seed)
    agreement = planted_agreement(pairs)
    print(f"labeler vs planted truth agreement: {agreement:.4f} over {args.pairs} pairs")

    write_dataset(out / "dataset.jsonl", [p.record for p in pairs])
    schemas = out / "schemas"
    schemas.mkdir(exist_ok=True)
    write_schema_file(schemas / f"{SYNTH_SCHEMA.db_id}.json")

    config = GbdtConfig(n_trees=args.n_trees, learning_rate=args.learning_rate)
    result = run_experiment(
        out / "dataset.jsonl",
        schemas,
        WithinDatabase(train_fraction=0.8, seed=args.seed),
        config=config,
        out_dir=out / "run",
    )
    print(render_eval_table(result.eval_rows))
    all_row = result.eval_rows[0]
    print(
        f"held-out AUC={all_row.auc_model:.4f} "
        f"({result.records_labeled} labeled, {result.records_skipped} skipped) "
        f"in {time.time() - t0:.1f}s -> {out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
