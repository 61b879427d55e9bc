"""Golden hashes of labels, provenance and feature matrices.

A change that keeps behaviour keeps these hashes.  A deliberate change to
labels or to the feature manifest changes them, and the new values go in
with the change that explains them.

Each hash is a SHA-256 over a fixed serialization: one text line per
node for labels and provenance, one text line per input for parse trees,
and the little-endian float64 bytes of each query's feature matrix for
features.
"""

import hashlib

import numpy as np
import pytest

from test_featurizer import ORACLE_QUERIES

from sqluq.ast_core import ParseError, UnsupportedConstruct, build_alias_map, parse_sql
from sqluq.corpus import CASES, run_corpus
from sqluq.featurizer import MANIFEST, featurize_tree
from sqluq.labeler import label_with_context
from sqluq.pipeline import label_and_featurize
from sqluq.schema import ColumnDef, DataType, Schema, TableDef
from sqluq.synth import SYNTH_SCHEMA, build_planted_corpus

CORPUS_LABELS_SHA256 = "545b9f819d418699e96631990fd8bfef8255025fa716e9b60406dc497939e15c"
PLANTED_LABELS_SHA256 = "86461670083729b35dfba24d1b3af71ca695e747a7a4d05f22951928000d1235"
PLANTED_FEATURES_SHA256 = "dff240cc1466549ae580df778317fd050d3967d1b8f4409e35fad1c7e23a5ce5"
SCOPED_SHAPES_SHA256 = "a1231139fa40ecdb3025b107ffb801a645f4d492f6a843186cd464e9ee7a45b0"
PARSE_SHA256 = "000a3286e5ba019c2fed660d237643b51d42a395b05c11e3ec24f2bddadac982"

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


# Expression shapes that pin down precedence, associativity, NOT placement,
# non-associative comparisons, grouping, spans and the errors of malformed
# input.  Each is parsed in the three contexts of EDGE_CONTEXTS.
EDGE_EXPRESSIONS = (
    "a - b - c", "a / b * c", "a - b + c * d / e - f", "a * (b - c)", "(a - b) - (c - d)",
    "NOT NOT a = 1 AND b = 2", "NOT a = 1 AND b = 2", "NOT (a = 1) OR NOT b",
    "a OR b AND c OR d", "(a OR b) AND (c OR d)", "a AND (b AND c) AND ((d AND e))",
    "(a AND b) OR (c AND d) OR e", "a = 1 AND b = 2 OR c = 3 AND NOT d = 4",
    "a NOT LIKE 'x%'", "a NOT IN (1, 2)", "NOT a NOT IN (1)", "NOT a LIKE b",
    "a LIKE 'x' + 1", "a IN (SELECT b FROM u)", "a NOT IN (SELECT b FROM u WHERE c = 1)",
    "a IN ((1), -2, b + 1)", "a + b IN (1) AND c", "(a IN (1)) - 2", "NOT a IN (1) OR b",
    "a = b = c", "a LIKE b = c", "a = b LIKE c", "a LIKE b LIKE c", "a IN (1) IN (2)",
    "a IN (1) = 2", "a = b NOT LIKE c", "a IN (1) NOT IN (2)", "a = b + c = d",
    "y IN (1) - 2", "y IN (1) * 2", "a = NOT b", "a + NOT b", "NOT", "NOT NOT", "a NOT b",
    "a NOT BETWEEN 1 AND 2", "a NOT 1", "- (1)", "-1", "- 1 - -2", "a * -1.5", "-a", "- 'x'",
    "(a = 1 BETWEEN 1 AND 2)", "(a IS NULL)", "a IS NULL", "a = 1 IS NULL", "(a = 1) IS NULL",
    "a IN (1) IS NULL", "(a IN (1) IS NULL)", "a LIKE b IS NULL", "(a) IS NULL",
    "a BETWEEN 1 AND 2", "EXISTS (SELECT 1 FROM u)", "CASE WHEN a THEN b END", "a = CASE",
    "(a = 1) = (b = 2)", "(NOT a) = 1", "((a))", "((a = 1))", "(((a + 1)) * 2)",
    "((SELECT b FROM u))", "(SELECT b FROM u) + 1", "(a", "a)", "()", "(a,", "a (b)",
    "a IN ()", "a IN 1", "a IN (1, 2", "a LIKE", "a =", "a +", "a AND", "NOT (a",
    "f()", "f(a, b + 1)", "count(*)", "count(DISTINCT a)", "count(DISTINCT)", "f(a,)",
    "f(NOT a)", "f((a), (b = 1))", "t.a = u.b", "t.*", "a.", "null", "NULL = a",
    "'s' LIKE 'x_%'", "1.5 + .5 * 2.", "a == b", "a != b", "a <> b",
    "a >= b AND a <= c", "a > b OR a < c", '"or" = "and"', "'and' OR 'or'",
    "(" * 40 + "a = 1" + ")" * 40, "(" * 40 + "a" + ")" * 39, "(" * 30 + "a" + ")" * 31,
)
EDGE_CONTEXTS = (
    "SELECT {} FROM t",
    "SELECT a FROM t WHERE {}",
    "SELECT a FROM t WHERE x IN (({}), 2) GROUP BY {} ORDER BY {} DESC",
)
EDGE_QUERIES = (
    "", "   ", "SELECT", "SELECT FROM", "SELECT a FROM", "SELECT a, FROM t",
    "SELECT a FROM t;", "SELECT a FROM t;;", "SELECT a FROM t; x",
    "WITH x AS (SELECT 1) SELECT a FROM x", "UPDATE t SET a = 1",
    "SELECT * FROM t UNION SELECT * FROM u", "SELECT a AS FROM t",
    "SELECT a b FROM t AS c JOIN u d ON c.x = d.y",
    "SELECT a FROM t LEFT OUTER JOIN u ON (t.a = u.a) CROSS JOIN v",
    "SELECT a FROM t RIGHT JOIN u", "SELECT a FROM t NATURAL JOIN u",
    "SELECT a FROM t GROUP BY a, b HAVING count(*) > 1 ORDER BY a, b DESC, c ASC LIMIT 5 OFFSET 2",
    "SELECT a FROM t LIMIT 1, 2", "SELECT a FROM t LIMIT a",
    "SELECT a FROM (SELECT b FROM u) AS s, (SELECT c FROM v) w",
    "SELECT a FROM t WHERE a = 'unterminated", 'SELECT "a FROM t', "SELECT a FROM t /* x",
    "SELECT a /* c */ FROM t -- tail", "SELECT DISTINCT a, t.* FROM t",
    "SELECT * FROM t WHERE a = 1 GROUP BY", "SELECT \u00ff FROM t WHERE b = '\u00fc' AND c = 1",
    "SELECT a FROM t WHERE a = $1", "SELECT a FROM t ORDER BY",
    "SELECT a FROM t WHERE a IN (SELECT b FROM u) AND NOT EXISTS (SELECT 1 FROM v)",
    "SELECT cast(a AS int) FROM t", "SELECT f(a) OVER () FROM t", "SELECT [a], `b` FROM t",
    "SELECT a FROM t WHERE a = 1 AND b = 2 BETWEEN",
)


def parse_line(sql: str) -> str:
    """The preorder (id, kind, content, span, depth, flags, child count) of
    a parse tree, or the error class and byte position."""
    try:
        tree = parse_sql(sql)
    except (ParseError, UnsupportedConstruct) as exc:
        return f"{type(exc).__name__} {exc.position}\n"
    return " ".join(
        repr((n.id, n.kind.value, n.content, n.span, n.depth, n.flags, len(n.children)))
        for n in tree.walk()
    ) + "\n"


def parse_inputs() -> list[str]:
    inputs = [sql for case in CASES for sql in (case.generated, case.gold)]
    inputs += [sql for pair in SCOPED_PAIRS for sql in pair]
    inputs += ORACLE_QUERIES
    for pair in build_planted_corpus(300, seed=0):
        inputs += [pair.record.generated_sql, pair.record.gold_sql]
    for context in EDGE_CONTEXTS:
        inputs += [context.format(*[expr] * context.count("{}")) for expr in EDGE_EXPRESSIONS]
    return inputs + list(EDGE_QUERIES)


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


def test_parse_trees_and_errors():
    digest = hashlib.sha256()
    for sql in parse_inputs():
        digest.update(parse_line(sql).encode())
    assert digest.hexdigest() == PARSE_SHA256
