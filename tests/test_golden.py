"""Golden hashes of labels, provenance and feature matrices.

A change that keeps behaviour keeps these hashes.  A deliberate change to
labels or to the feature manifest changes them, and the new values go in
with the change that explains them.

Each hash is a SHA-256 over a fixed serialization: one text line per
node for labels and provenance, and the little-endian float64 bytes of
each query's feature matrix for features.
"""

import hashlib

import numpy as np
import pytest

from test_featurizer import ORACLE_QUERIES

from sqluq.ast_core import build_alias_map, parse_sql
from sqluq.corpus import run_corpus
from sqluq.featurizer import MANIFEST, featurize_tree
from sqluq.labeler import label_with_context
from sqluq.pipeline import label_and_featurize
from sqluq.schema import ColumnDef, DataType, Schema, TableDef
from sqluq.synth import SYNTH_SCHEMA, build_planted_corpus

CORPUS_LABELS_SHA256 = "545b9f819d418699e96631990fd8bfef8255025fa716e9b60406dc497939e15c"
PLANTED_LABELS_SHA256 = "86461670083729b35dfba24d1b3af71ca695e747a7a4d05f22951928000d1235"
PLANTED_FEATURES_SHA256 = "dff240cc1466549ae580df778317fd050d3967d1b8f4409e35fad1c7e23a5ce5"
SCOPED_SHAPES_SHA256 = "a1231139fa40ecdb3025b107ffb801a645f4d492f6a843186cd464e9ee7a45b0"

# (generated, gold) pairs with aliases, joins, IN subqueries and correlated
# references: shapes the planted corpus never produces.
SCOPED_PAIRS = (
    ("SELECT a.name FROM artist AS a", "SELECT name FROM artist"),
    ("SELECT x.name FROM artist AS x WHERE x.age > 3",
     "SELECT a.name FROM artist AS a WHERE a.age > 3"),
    ("SELECT b.name FROM artist AS a", "SELECT a.name FROM artist AS a"),
    ("SELECT a.x FROM t1 AS a, t2 AS a", "SELECT a.x FROM t2 AS a"),
    ("SELECT e.name, d.name FROM employee AS e JOIN department AS d ON e.dept = d.id",
     "SELECT d.name, e.name FROM department AS d JOIN employee AS e ON d.id = e.dept"),
    ("SELECT name FROM employee JOIN department ON employee.dept = department.id "
     "WHERE salary > 5",
     "SELECT employee.name FROM employee JOIN department ON department.id = employee.dept "
     "WHERE employee.salary > 5"),
    ("SELECT t1.name FROM t1 JOIN t2 ON t1.id = t2.id WHERE name = 1 AND t1.name = 1",
     "SELECT t1.name FROM t1 JOIN t2 ON t1.id = t2.id WHERE t1.name = 1 AND t2.name = 1"),
    ("SELECT name FROM department WHERE id IN (SELECT dept FROM employee WHERE salary > 5)",
     "SELECT name FROM department WHERE id IN (SELECT dept FROM employee WHERE salary >= 5)"),
    ("SELECT d.name FROM department AS d WHERE d.id IN "
     "(SELECT e.dept FROM employee AS e WHERE e.dept = d.id)",
     "SELECT x.name FROM department AS x WHERE x.id IN "
     "(SELECT y.dept FROM employee AS y WHERE x.id = y.dept)"),
    # an inner alias shadowing an outer one; per-level alias scopes change this
    ("SELECT x.a FROM t1 AS x WHERE x.a IN (SELECT x.b FROM t2 AS x)",
     "SELECT y.a FROM t1 AS y WHERE y.a IN (SELECT z.b FROM t2 AS z)"),
    ("SELECT s.v FROM (SELECT x AS v FROM t1 AS i) AS s JOIN t2 AS o ON s.v = o.w",
     "SELECT q.v FROM (SELECT x AS v FROM t1) AS q JOIN t2 AS p ON p.w = q.v"),
    ("SELECT city, (SELECT max(amount) FROM sale) FROM store",
     "SELECT city, (SELECT min(amount) FROM sale) FROM store"),
)

ORG_SCHEMA = Schema(
    db_id="org",
    tables=(
        TableDef("employee", (
            ColumnDef("salary", DataType.NUMERIC),
            ColumnDef("name", DataType.TEXT),
            ColumnDef("hired", DataType.DATE),
        )),
        TableDef("department", (ColumnDef("name", DataType.TEXT),)),
    ),
)


@pytest.fixture(scope="module")
def planted():
    return [
        label_and_featurize(pair.record, SYNTH_SCHEMA)
        for pair in build_planted_corpus(300, seed=0)
    ]


def test_manifest_has_the_papers_89_columns():
    assert MANIFEST.length == 89


def test_corpus_labels_and_provenance():
    digest = hashlib.sha256()
    for res in run_corpus():
        labels, provenance = res.label_map.labels, res.label_map.provenance
        for nid in sorted(labels):
            line = f"{res.case.num} {nid} {labels[nid]} {provenance[nid].value}\n"
            digest.update(line.encode())
    assert digest.hexdigest() == CORPUS_LABELS_SHA256


def test_planted_labels_and_provenance(planted):
    digest = hashlib.sha256()
    for lq in planted:
        for nr, prov in zip(lq.node_records, lq.label_provenance):
            digest.update(f"{nr.query_id} {nr.node_id} {nr.label} {prov}\n".encode())
    assert digest.hexdigest() == PLANTED_LABELS_SHA256


def test_planted_feature_matrices(planted):
    digest = hashlib.sha256()
    for lq in planted:
        matrix = np.stack([nr.features for nr in lq.node_records])
        digest.update(np.ascontiguousarray(matrix, dtype="<f8").tobytes())
    assert digest.hexdigest() == PLANTED_FEATURES_SHA256


def test_scoped_shapes_labels_and_features():
    digest = hashlib.sha256()
    for num, (gen_sql, gold_sql) in enumerate(SCOPED_PAIRS):
        label_map, _ = label_with_context(parse_sql(gen_sql), parse_sql(gold_sql))
        for nid in sorted(label_map.labels):
            line = f"{num} {nid} {label_map.labels[nid]} {label_map.provenance[nid].value}\n"
            digest.update(line.encode())
    for sql in ORACLE_QUERIES:
        tree = parse_sql(sql)
        _, matrix = featurize_tree(tree, build_alias_map(tree), ORG_SCHEMA)
        digest.update(np.ascontiguousarray(matrix, dtype="<f8").tobytes())
    assert digest.hexdigest() == SCOPED_SHAPES_SHA256
