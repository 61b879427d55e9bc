import hashlib
import os
import random
import subprocess
import sys
from itertools import chain, product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sqluq.ast_core import (
    BINARY_OP_KINDS,
    FLAG_ALL_CAPS,
    FLAG_MIXED_CASE,
    FLAG_QUALIFIER,
    FLAG_STRING,
    FLAG_TABLE_NAME,
    NodeKind,
    build_alias_map,
    parse_sql,
    preorder,
)
from sqluq.featurizer import (
    _IDX,
    Compat,
    LEVENSHTEIN_SENTINEL,
    MANIFEST,
    _char_masks,
    _edit_distance,
    _name_facts,
    featurize_tree,
    node_logprob_scores,
    operand_type_compat,
)
from sqluq.schema import (
    ColumnDef,
    DataType,
    Schema,
    SchemaFormatError,
    ScopeFrame,
    TableDef,
    _query_level_tables,
)
from sqluq.synth import SYNTH_SCHEMA, build_planted_corpus

from querygen import random_draft


@pytest.fixture
def org_schema():
    return Schema(
        db_id="org",
        tables=(
            TableDef(
                "employee",
                (
                    ColumnDef("salary", DataType.NUMERIC),
                    ColumnDef("name", DataType.TEXT),
                    ColumnDef("hired", DataType.DATE),
                ),
            ),
            TableDef("department", (ColumnDef("name", DataType.TEXT),)),
        ),
    )


def feat(sql, node_pick, schema):
    tree = parse_sql(sql)
    aliases = build_alias_map(tree)
    node = node_pick(tree)
    return featurize_tree(tree, aliases, schema)[1][node.id], tree, node


def by_kind(kind, content=None):
    def pick(tree):
        for n in preorder(tree):
            if n.kind is kind and (content is None or n.content == content):
                return n
        raise AssertionError(f"no {kind}")

    return pick


def idx(name):
    return MANIFEST.names.index(name)


def dp_oracle(a, b):
    """Edit distance from the full DP table."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i, j in product(range(1, len(a) + 1), range(1, len(b) + 1)):
        table[i][j] = min(
            table[i - 1][j] + 1,
            table[i][j - 1] + 1,
            table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
        )
    return table[-1][-1]


def edit_distance(a, b):
    """Edit distance from a to b, as the nearest-identifier search computes it."""
    return _edit_distance(_char_masks(a), len(a), b)


class TestLevenshtein:
    def test_single_deletion(self):
        assert edit_distance("artists", "artist") == 1

    def test_identity(self):
        assert edit_distance("same", "same") == 0

    def test_known_distance(self):
        # w->s, g->l, e->a, then insert r and y
        assert edit_distance("wage", "salary") == 5

    def test_against_dp_oracle(self):
        import random

        rng = random.Random(3)
        alphabet = "abc"
        for _ in range(200):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
            assert edit_distance(a, b) == dp_oracle(a, b)

    def test_against_dp_oracle_past_one_word_and_beyond_ascii(self):
        import random

        rng = random.Random(5)
        alphabets = ("ab", "abé", "a\u0663\u00a0_", "abcdefghijklmnopqrstuvwxyzé٣\u00a0")
        pairs = []
        for _ in range(150):
            alphabet = rng.choice(alphabets)
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
            pairs.append((a, b))
        long_name = "".join(rng.choice("abé٣_") for _ in range(2000))
        pairs += [(long_name, b) for b in ("", "a", "abé٣_", long_name[:70], long_name[-75:])]
        pairs += [(b, a) for a, b in pairs[-5:]]
        assert sum(len(a) > 64 for a, _ in pairs) >= 20  # masks wider than a word
        for a, b in pairs:
            assert edit_distance(a, b) == dp_oracle(a, b), (a, b)


class TestNearestIdentifier:
    def test_typo_one_away(self, org_schema):
        name, dist = _name_facts("employes", org_schema)[4]
        assert (name, dist) == ("employee", 1)

    def test_exact_match(self, org_schema):
        assert _name_facts("salary", org_schema)[4] == ("salary", 0)

    def test_brute_force_scan(self, org_schema):
        candidates = org_schema.identifier_names
        target = "hada"
        expected = min(candidates, key=lambda c: (edit_distance(target, c), c))
        name, dist = _name_facts(target, org_schema)[4]
        assert name == expected
        assert dist == edit_distance(target, expected)

    def test_tie_breaks_lexicographically(self):
        schema = Schema(
            db_id="x",
            tables=(TableDef("ab", ()), TableDef("ad", ()), TableDef("ac", ())),
        )
        name, dist = _name_facts("aa", schema)[4]
        assert (name, dist) == ("ab", 1)

    def test_empty_schema_has_no_nearest(self):
        assert _name_facts("x", Schema(db_id="e", tables=()))[4] is None

    def test_answers_are_remembered_per_schema(self, org_schema):
        first = _name_facts("Employes", org_schema)[4]
        # not a column, not a table, no digit, no underscore, nearest answer
        assert org_schema.name_memo == {"employes": (False, False, False, False, first)}
        assert _name_facts("EMPLOYES", org_schema)[4] == first
        other = Schema(db_id="o", tables=(TableDef("employed", ()),))
        assert _name_facts("employes", other)[4] == ("employed", 1)
        assert len(org_schema.name_memo) == 1

    def test_pruned_search_matches_full_scan_with_ties(self):
        import random

        rng = random.Random(4)
        alphabet = "abc_"

        def word(lo, hi):
            return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))

        ties = 0
        for _ in range(300):
            tables = tuple(
                TableDef(word(1, 6), tuple(ColumnDef(word(1, 8), DataType.TEXT)
                                           for _ in range(rng.randint(0, 4))))
                for _ in range(rng.randint(1, 4))
            )
            try:
                schema = Schema(db_id="r", tables=tables)
            except SchemaFormatError:
                continue  # a duplicate name
            name = word(0, 9)
            full = sorted((edit_distance(name, c), c) for c in schema.identifier_names)
            ties += len(full) > 1 and full[0][0] == full[1][0]
            assert _name_facts(name, schema)[4] == (full[0][1], full[0][0])
        assert ties >= 30


def _fresh(schema):
    return Schema(db_id=schema.db_id, tables=schema.tables)


def _matrices(queries, schema):
    out = []
    for sql in queries:
        tree = parse_sql(sql)
        out.append(featurize_tree(tree, build_alias_map(tree), schema)[1].tobytes())
    return out


def _memo_queries():
    return (
        *ORACLE_QUERIES,
        "SELECT Sal_ary2, NAME, e.Hired FROM employee AS e, department WHERE x1 = 'a'",
        "SELECT a.salary FROM employees AS a WHERE department.name IN (1, 2)",
    )


class TestNameMemo:
    def test_stops_growing_at_its_bound(self, org_schema, monkeypatch):
        monkeypatch.setattr("sqluq.featurizer._NEAREST_MEMO_SIZE", 3)
        cold = [_matrices([sql], _fresh(org_schema))[0] for sql in _memo_queries()]
        assert _matrices(_memo_queries(), org_schema) == cold
        assert len(org_schema.name_memo) == 3
        first = dict(org_schema.name_memo)
        assert _matrices(_memo_queries(), org_schema) == cold
        assert org_schema.name_memo == first

    def test_schemas_never_share_answers(self, org_schema):
        wide = Schema(db_id="w", tables=(TableDef("employees", (
            ColumnDef("sal_ary2", DataType.TEXT), ColumnDef("x1", DataType.NUMERIC))),))
        warm_org = _matrices(_memo_queries(), org_schema)
        warm_wide = _matrices(_memo_queries(), wide)
        assert warm_org == _matrices(_memo_queries(), _fresh(org_schema))
        assert warm_wide == _matrices(_memo_queries(), _fresh(wide))
        assert warm_org != warm_wide
        assert org_schema.name_memo["employees"][:2] == (False, False)
        assert wide.name_memo["employees"][:2] == (False, True)
        assert org_schema.name_memo["sal_ary2"][:4] == (False, False, True, True)
        assert wide.name_memo["sal_ary2"][:2] == (True, False)
        assert org_schema.name_memo["x1"][4][1] > 0
        assert wide.name_memo["x1"][4] == ("x1", 0)

    def test_cold_warm_and_full_memos_give_the_same_bytes(self, monkeypatch):
        queries = [*_memo_queries(),
                   *(pair.record.generated_sql for pair in build_planted_corpus(60, seed=3))]
        cold = [_matrices([sql], _fresh(SYNTH_SCHEMA))[0] for sql in queries]
        schema = _fresh(SYNTH_SCHEMA)
        assert _matrices(queries, schema) == cold
        assert schema.name_memo
        assert _matrices(queries, schema) == cold  # warm
        full = _fresh(SYNTH_SCHEMA)
        monkeypatch.setattr("sqluq.featurizer._NEAREST_MEMO_SIZE", 4)
        _matrices(["SELECT q1, q2, q3, q4 FROM z"], full)
        assert sorted(full.name_memo) == ["q1", "q2", "q3", "q4"]
        assert _matrices(queries, full) == cold
        assert sorted(full.name_memo) == ["q1", "q2", "q3", "q4"]


class TestShape:
    def test_constant_length_across_all_nodes(self, org_schema):
        for sql in (
            "SELECT name FROM employee",
            "SELECT e.name, sum(salary) FROM employee AS e GROUP BY e.name",
            "SELECT * FROM department WHERE name LIKE '%a%' OR name IN ('x', 'y')",
        ):
            tree = parse_sql(sql)
            nodes, matrix = featurize_tree(tree, build_alias_map(tree), org_schema)
            assert matrix.shape == (len(nodes), MANIFEST.length)

    def test_deterministic_bit_for_bit(self, org_schema):
        sql = "SELECT name, salary FROM employee WHERE salary > 100"
        tree = parse_sql(sql)
        _, m1 = featurize_tree(tree, build_alias_map(tree), org_schema)
        _, m2 = featurize_tree(parse_sql(sql), build_alias_map(tree), org_schema)
        assert np.array_equal(m1, m2)

    def test_manifest_hash_stable(self):
        # the digest is pinned, and checked against OpenSSL's SHA-256 of the
        # same name=default lines, whichever module computes it in the package
        lines = "\n".join(f"{n}={d}" for n, d in zip(MANIFEST.names, MANIFEST.defaults))
        assert MANIFEST.version_hash == "c9003fa7cf9f49ec"
        assert MANIFEST.version_hash == hashlib.sha256(lines.encode("utf-8")).hexdigest()[:16]
        assert len(MANIFEST.names) == len(set(MANIFEST.names))

    def test_manifest_hash_falls_back_to_hashlib(self):
        # an interpreter without the builtin SHA-256 modules hashes with hashlib, alike
        code = ("import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
                "from sqluq.featurizer import MANIFEST\n"
                "print(MANIFEST.version_hash, 'hashlib' in sys.modules)")
        src = str(Path(__file__).resolve().parents[1] / "src")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert run.stdout.split() == ["c9003fa7cf9f49ec", "True"]


class TestStructuralFeatures:
    def test_kind_onehot_and_depth(self, org_schema):
        vec, tree, node = feat(
            "SELECT name FROM employee", by_kind(NodeKind.TABLE), org_schema
        )
        assert vec[idx("kind=Table")] == 1.0
        assert vec[idx("depth")] == node.depth
        assert vec[idx("parent_kind=From")] == 1.0

    def test_root_has_no_parent(self, org_schema):
        vec, _, _ = feat("SELECT name FROM employee", lambda t: t, org_schema)
        assert vec[idx("parent_kind=none")] == 1.0


class TestSchemaFeatures:
    def test_validity_bit_and_zero_distance(self, org_schema):
        vec, _, _ = feat(
            "SELECT name FROM employee", by_kind(NodeKind.TABLE), org_schema
        )
        assert vec[idx("schema_valid")] == 1.0
        assert vec[idx("levenshtein_nearest")] == 0.0

    def test_invalid_identifier_gets_positive_distance(self, org_schema):
        vec, _, _ = feat(
            "SELECT name FROM employes", by_kind(NodeKind.TABLE), org_schema
        )
        assert vec[idx("schema_valid")] == 0.0
        assert vec[idx("levenshtein_nearest")] == 1.0

    def test_structural_node_keeps_sentinel(self, org_schema):
        vec, _, _ = feat("SELECT name FROM employee", lambda t: t, org_schema)
        assert vec[idx("levenshtein_nearest")] == LEVENSHTEIN_SENTINEL

    def test_qualifier_scope_validity(self, org_schema):
        good, _, _ = feat(
            "SELECT e.name FROM employee AS e",
            by_kind(NodeKind.COLUMN, "name"),
            org_schema,
        )
        assert good[idx("qualifier_scope_valid")] == 1.0
        bad, _, _ = feat(
            "SELECT z.name FROM employee AS e",
            by_kind(NodeKind.COLUMN, "name"),
            org_schema,
        )
        assert bad[idx("qualifier_scope_valid")] == 0.0

    def test_column_ambiguity_bit(self, org_schema):
        vec, _, _ = feat(
            "SELECT name FROM employee JOIN department ON employee.name = department.name",
            by_kind(NodeKind.COLUMN, "name"),
            org_schema,
        )
        assert vec[idx("column_ambiguous")] == 1.0

    def test_column_in_scope_bit(self, org_schema):
        in_scope, _, _ = feat(
            "SELECT salary FROM employee", by_kind(NodeKind.COLUMN, "salary"), org_schema
        )
        assert in_scope[idx("column_in_scope")] == 1.0
        out_of_scope, _, _ = feat(
            "SELECT salary FROM department", by_kind(NodeKind.COLUMN, "salary"), org_schema
        )
        assert out_of_scope[idx("column_in_scope")] == 0.0
        assert out_of_scope[idx("schema_valid")] == 1.0


class TestValidityCoupling:
    def test_valid_implies_zero_distance_invalid_identifier_positive(self, org_schema):
        for sql in (
            "SELECT name, salry FROM employee",
            "SELECT * FROM employe WHERE nam > 3",
        ):
            tree = parse_sql(sql)
            nodes, matrix = featurize_tree(tree, build_alias_map(tree), org_schema)
            for node, row in zip(nodes, matrix):
                if row[idx("schema_valid")] == 1.0:
                    assert row[idx("levenshtein_nearest")] == 0.0
                elif node.kind is NodeKind.IDENTIFIER:
                    assert row[idx("levenshtein_nearest")] >= 1.0


class TestContextualFeatures:
    def test_aggregate_context_bit_set(self, org_schema):
        vec, _, _ = feat(
            "SELECT name, sum(salary) FROM employee",
            by_kind(NodeKind.COLUMN, "name"),
            org_schema,
        )
        assert vec[idx("aggregate_context")] == 1.0

    def test_aggregate_context_cleared_by_group_by(self, org_schema):
        vec, _, _ = feat(
            "SELECT name, sum(salary) FROM employee GROUP BY name",
            by_kind(NodeKind.COLUMN, "name"),
            org_schema,
        )
        assert vec[idx("aggregate_context")] == 0.0

    def test_aggregate_context_not_set_inside_aggregate(self, org_schema):
        vec, _, _ = feat(
            "SELECT name, sum(salary) FROM employee",
            by_kind(NodeKind.COLUMN, "salary"),
            org_schema,
        )
        assert vec[idx("aggregate_context")] == 0.0

    def test_aggregate_in_nested_subquery_is_not_this_levels(self, org_schema):
        sql = "SELECT name, (SELECT max(salary) FROM employee) FROM department"
        vec, _, _ = feat(sql, by_kind(NodeKind.COLUMN, "name"), org_schema)
        assert vec[idx("aggregate_context")] == 0.0
        vec, _, _ = feat(sql.replace("name,", "name, count(*),"), by_kind(NodeKind.COLUMN, "name"),
                         org_schema)
        assert vec[idx("aggregate_context")] == 1.0

    def test_in_list_size(self, org_schema):
        vec, _, _ = feat(
            "SELECT * FROM employee WHERE salary IN (1, 2, 3)",
            by_kind(NodeKind.IN),
            org_schema,
        )
        assert vec[idx("in_list_size")] == 3.0

    def test_like_pattern_features(self, org_schema):
        vec, _, _ = feat(
            "SELECT * FROM employee WHERE name LIKE '%ab_'",
            by_kind(NodeKind.LIKE),
            org_schema,
        )
        assert vec[idx("like_has_wildcard")] == 1.0
        assert vec[idx("like_pattern_length")] == 4.0


class TestTypeCompat:
    def pick_op(self, sql, kind, org_schema):
        tree = parse_sql(sql)
        aliases = build_alias_map(tree)
        node = by_kind(kind)(tree)
        frame = ScopeFrame(tables=(), aliases=aliases).enter(tree)
        return node, frame

    def test_numeric_column_vs_number(self, org_schema):
        node, frame = self.pick_op(
            "SELECT * FROM employee WHERE salary = 5", NodeKind.EQ, org_schema
        )
        assert operand_type_compat(node, frame, org_schema) is Compat.COMPATIBLE

    def test_numeric_column_vs_string(self, org_schema):
        node, frame = self.pick_op(
            "SELECT * FROM employee WHERE salary = 'abc'", NodeKind.EQ, org_schema
        )
        assert operand_type_compat(node, frame, org_schema) is Compat.INCOMPATIBLE

    def test_unknown_operand(self, org_schema):
        node, frame = self.pick_op(
            "SELECT * FROM employee WHERE upper(name) = 3", NodeKind.EQ, org_schema
        )
        assert operand_type_compat(node, frame, org_schema) is Compat.UNKNOWN

    def test_date_column_vs_string_compatible(self, org_schema):
        node, frame = self.pick_op(
            "SELECT * FROM employee WHERE hired > '2020-01-01'", NodeKind.GT, org_schema
        )
        assert operand_type_compat(node, frame, org_schema) is Compat.COMPATIBLE

    @pytest.mark.parametrize("sql", [
        "SELECT * FROM employee WHERE salary = NULL",
        "SELECT * FROM doc WHERE body = 'x'",  # a blob column is OTHER
        "SELECT * FROM doc AS d WHERE d.body = 1",
        # a DATE carrier beside a TEXT one gives no single type, though
        # both types fall in the text class
        "SELECT * FROM employee, doc WHERE hired = 'x'",
    ])
    def test_operand_without_a_class_is_unknown(self, sql, org_schema):
        schema = Schema("org", org_schema.tables + (
            TableDef("doc", (ColumnDef("body", DataType.OTHER), ColumnDef("hired", DataType.TEXT))),
        ))
        node, frame = self.pick_op(sql, NodeKind.EQ, schema)
        assert operand_type_compat(node, frame, schema) is Compat.UNKNOWN


class TestLogprobScore:
    def test_mean_over_exact_tokens(self):
        tree = parse_sql("SELECT name FROM people")
        col = by_kind(NodeKind.COLUMN, "name")(tree)
        spans = [(0, 6, -0.1), (7, 11, -0.2), (12, 16, -0.9), (17, 23, -0.4)]
        assert node_logprob_scores([col], spans) == [pytest.approx(-0.2)]

    def test_no_overlap_is_none(self):
        tree = parse_sql("SELECT name FROM people")
        col = by_kind(NodeKind.COLUMN, "name")(tree)
        assert node_logprob_scores([col], [(0, 6, -0.5)]) == [None]

    def test_partial_overlap_included(self):
        tree = parse_sql("SELECT name FROM people")
        col = by_kind(NodeKind.COLUMN, "name")(tree)  # span (7, 11)
        spans = [(5, 8, -0.2), (8, 10, -0.4), (10, 14, -0.6), (14, 20, -5.0)]
        expected = (-0.2 + -0.4 + -0.6) / 3
        assert node_logprob_scores([col], spans) == [pytest.approx(expected)]

    def test_matches_the_mean_over_overlapping_tokens(self):
        rng = random.Random(8)
        for _ in range(200):
            spans = []
            for _ in range(rng.randint(0, 30)):  # unsorted, overlapping, repeated
                start = rng.randint(0, 40)
                spans.append((start, start + rng.randint(1, 8), -rng.random() * 5))
            spans += rng.sample(spans, min(3, len(spans)))
            nodes = []
            for _ in range(20):
                start = rng.randint(0, 45)
                nodes.append(SimpleNamespace(span=(start, start + rng.randint(0, 10))))
            for node, score in zip(nodes, node_logprob_scores(nodes, spans)):
                start, end = node.span
                over = [lp for ts, te, lp in spans if ts < end and te > start]
                if over:
                    assert score == pytest.approx(sum(over) / len(over), abs=1e-9), (spans, node)
                else:
                    assert score is None, (spans, node)

    def test_sums_are_exact(self):
        # a float running sum would lose the -0.5 to the -1e20 before it, and
        # overflow on two logprobs of -1e308
        spans = [(0, 1, -1e20), (2, 3, -0.5), (4, 5, -1e308), (4, 5, -1e308)]
        nodes = [SimpleNamespace(span=s) for s in ((2, 3), (4, 5), (0, 3))]
        assert node_logprob_scores(nodes, spans) == [-0.5, -1e308, (-1e20 - 0.5) / 2]


# Reference: the per-node featurizer that featurize_tree replaced.  Every
# node climbs its ancestors to rebuild its query level's scope frame and
# aggregate context; featurize_tree must match it bit for bit.

_CLAUSES = frozenset(
    {
        NodeKind.FROM, NodeKind.WHERE, NodeKind.GROUP_BY, NodeKind.HAVING,
        NodeKind.ORDER_BY, NodeKind.LIMIT,
    }
)


def ref_parents(tree):
    parent, sibling = {tree.id: None}, {tree.id: 0}
    for node in preorder(tree):
        for i, child in enumerate(node.children):
            parent[child.id], sibling[child.id] = node, i
    return parent, sibling


def ref_ancestors(node, parent):
    cur = parent[node.id]
    while cur is not None:
        yield cur
        cur = parent[cur.id]


def ref_resolve_scope(tree, node, aliases, schema, parent):
    levels = [a for a in chain((node,), ref_ancestors(node, parent)) if a.kind is NodeKind.SELECT]
    if not levels and tree.kind is NodeKind.SELECT:
        levels.append(tree)
    seen, frame = set(), []
    for level in levels:  # innermost first
        for name in _query_level_tables(level):
            if name not in seen:
                seen.add(name)
                frame.append(name)
    return ScopeFrame(tables=tuple(frame), aliases=aliases)


def ref_aggregate_context(node, parent):
    if node.kind is not NodeKind.COLUMN:
        return 0
    select = next((a for a in ref_ancestors(node, parent) if a.kind is NodeKind.SELECT), None)
    if select is None or any(c.kind is NodeKind.GROUP_BY for c in select.children):
        return 0
    items = [c for c in select.children if c.kind not in _CLAUSES]
    in_projection = under_aggregate = False
    for cur in chain((node,), ref_ancestors(node, parent)):
        if cur is select:
            break
        if cur.kind is NodeKind.AGG:
            under_aggregate = True
        if any(cur is item for item in items):
            in_projection = True
            break
    if not in_projection or under_aggregate:
        return 0
    return int(any(ref_level_aggregate(item) for item in items))


def ref_level_aggregate(node):
    """An aggregate call in `node`'s subtree, outside nested subqueries."""
    return node.kind is NodeKind.AGG or (
        node.kind is not NodeKind.SUBQUERY and any(ref_level_aggregate(c) for c in node.children)
    )


def ref_known_tables(frame, schema):
    return [name for name in frame.tables if schema.has_table(name)]


def ref_column_ambiguous(name, frame, schema):
    return sum(schema.has_column(name, t) for t in ref_known_tables(frame, schema)) >= 2


def ref_schema_validity(node, frame, schema):
    """(validity bit, name used for edit distance) for identifier-ish nodes."""
    if node.kind is NodeKind.TABLE:
        return int(schema.has_table(node.content)), node.content
    if node.kind is NodeKind.COLUMN:
        return int(schema.has_column(node.content)), node.content
    if node.kind is NodeKind.IDENTIFIER:
        if FLAG_TABLE_NAME in node.flags:
            return int(schema.has_table(node.content)), node.content
        if FLAG_QUALIFIER in node.flags:
            ok = node.content in frame.aliases or schema.has_table(node.content)
            return int(ok), node.content
        return int(schema.has_column(node.content) or schema.has_table(node.content)), node.content
    return 0, None


def ref_name_pattern_bits(node, name):
    # case patterns come from parse-time flags: content is case-folded
    has_digit = int(any(map(str.isdigit, name)))
    has_underscore = int("_" in name)
    all_caps = int(FLAG_ALL_CAPS in node.flags)
    mixed = int(FLAG_MIXED_CASE in node.flags)
    return has_digit, has_underscore, all_caps, mixed


def ref_featurize_node(node, tree, aliases, schema, parent, sibling):
    vec = np.array(MANIFEST.defaults, dtype=np.float64)
    vec[_IDX[f"kind={node.kind.value}"]] = 1.0
    vec[_IDX["depth"]] = float(node.depth)
    up = parent[node.id]
    vec[_IDX["parent_kind=none" if up is None else f"parent_kind={up.kind.value}"]] = 1.0
    vec[_IDX["child_count"]] = float(len(node.children))
    vec[_IDX["sibling_index"]] = float(sibling[node.id])
    frame = ref_resolve_scope(tree, node, aliases, schema, parent)
    valid, lexical_name = ref_schema_validity(node, frame, schema)
    vec[_IDX["schema_valid"]] = float(valid)
    if node.kind is NodeKind.COLUMN:
        vec[_IDX["column_in_scope"]] = float(
            any(schema.has_column(node.content, t) for t in ref_known_tables(frame, schema))
        )
        # from the tree, not from the parser's recorded field
        qualifier = next((c.content for c in node.children if FLAG_QUALIFIER in c.flags), None)
        if qualifier is not None:
            vec[_IDX["qualifier_scope_valid"]] = float(
                qualifier in frame.aliases
                or qualifier in frame.tables
            )
        else:
            vec[_IDX["column_ambiguous"]] = float(ref_column_ambiguous(node.content, frame, schema))
    if lexical_name is not None:
        if valid:
            vec[_IDX["levenshtein_nearest"]] = 0.0
        else:
            nearest = _name_facts(lexical_name, schema)[4]
            if nearest is not None:  # None in a schema without identifiers
                vec[_IDX["levenshtein_nearest"]] = float(min(nearest[1], LEVENSHTEIN_SENTINEL))
        for name, bit in zip(
            ("name_has_digit", "name_has_underscore", "name_all_caps", "name_mixed_case"),
            ref_name_pattern_bits(node, lexical_name),
        ):
            vec[_IDX[name]] = float(bit)
    vec[_IDX["aggregate_context"]] = float(ref_aggregate_context(node, parent))
    if node.kind in BINARY_OP_KINDS:
        vec[_IDX["operand_type_compat"]] = float(operand_type_compat(node, frame, schema))
    if up is not None and up.kind in BINARY_OP_KINDS:
        up_frame = ref_resolve_scope(tree, up, aliases, schema, parent)
        vec[_IDX["parent_type_compat"]] = float(operand_type_compat(up, up_frame, schema))
    if node.kind is NodeKind.LIKE and len(node.children) >= 2:
        pattern = node.children[1]
        if pattern.kind is NodeKind.LITERAL and FLAG_STRING in pattern.flags:
            vec[_IDX["like_has_wildcard"]] = float("%" in pattern.content or "_" in pattern.content)
            vec[_IDX["like_pattern_length"]] = float(len(pattern.content))
    if node.kind is NodeKind.IN:
        items = node.children[1:]
        if not (len(items) == 1 and items[0].kind is NodeKind.SUBQUERY):
            vec[_IDX["in_list_size"]] = float(len(items))
    return vec


ORACLE_QUERIES = (
    "SELECT e.name, d.name FROM employee AS e JOIN department AS d ON e.name = d.name "
    "WHERE e.salary > 10",
    "SELECT name FROM employee JOIN department ON employee.name = department.name",
    "SELECT z.name, e.salary FROM employee AS e WHERE e.hired > '2020-01-01'",
    "SELECT name FROM (SELECT name, salary FROM employee WHERE salary > 3) AS s "
    "WHERE s.salary < 9",
    "SELECT name FROM department WHERE name IN (SELECT name FROM employee WHERE salary = 5)",
    "SELECT d.name FROM department AS d WHERE d.name IN "
    "(SELECT e.name FROM employee AS e WHERE e.name = d.name AND salary = 'x')",
    "SELECT name, (SELECT max(salary) FROM employee WHERE salary > 0) FROM department",
    "SELECT (SELECT max(salary) FROM employee WHERE salary > 0) FROM department",
    "SELECT name, sum(salary) FROM employee",
    "SELECT name, count(*) FROM employee GROUP BY name HAVING count(*) > 1",
    "SELECT name, salary + max(salary) FROM employee",
    "SELECT DISTINCT name FROM employee WHERE name NOT LIKE '%x_' AND salary NOT IN (1, 2, 3)",
    "SELECT salary * 2 - hired / 3 FROM employee WHERE salary + 1 > 'a' OR name = 4",
    "SELECT s.city, sum(x.amount) FROM store AS s JOIN sale AS x ON s.store_id = x.sale_id "
    "WHERE x.channel IN ('web', 'shop') GROUP BY s.city ORDER BY s.city LIMIT 3",
    "SELECT title, price FROM product WHERE price IN (SELECT max(amount) FROM sale "
    "WHERE quantity > price) AND category LIKE 'a%'",
    "SELECT " + ", ".join(["name", "salary"] * 75) + " FROM employee WHERE "
    + " AND ".join(f"salary > {i}" for i in range(150)),
)


def test_featurize_tree_matches_per_node_reference(org_schema):
    seen = {name: set() for name in (
        "aggregate_context", "column_ambiguous", "qualifier_scope_valid",
        "parent_type_compat", "in_list_size",
    )}
    rng = random.Random(0)
    queries = (
        *ORACLE_QUERIES,
        "SELECT name FROM employee WHERE salary IN (5)",
        *(pair.record.generated_sql for pair in build_planted_corpus(200, seed=0)),
        *(random_draft(rng).render() for _ in range(200)),
    )
    for schema in (SYNTH_SCHEMA, org_schema):
        for sql in queries:
            tree = parse_sql(sql)
            aliases = build_alias_map(tree)
            parent, sibling = ref_parents(tree)
            nodes, matrix = featurize_tree(tree, aliases, schema)
            assert [n.id for n in nodes] == list(range(len(nodes)))
            expected = np.array(
                [ref_featurize_node(n, tree, aliases, schema, parent, sibling) for n in nodes]
            )
            assert matrix.tobytes() == expected.tobytes(), sql
            for name, values in seen.items():
                values.update(matrix[:, _IDX[name]].tolist())
    assert 1.0 in seen["aggregate_context"]
    assert 1.0 in seen["column_ambiguous"]
    assert 1.0 in seen["qualifier_scope_valid"]
    assert float(Compat.INCOMPATIBLE) in seen["parent_type_compat"]
    assert seen["in_list_size"] - {0.0}


def test_operand_type_compat_computed_once_per_operator(monkeypatch):
    calls = []

    def counted(op_node, frame, schema):
        calls.append(op_node)
        return operand_type_compat(op_node, frame, schema)

    monkeypatch.setattr("sqluq.featurizer.operand_type_compat", counted)
    operators = []
    for pair in build_planted_corpus(300, seed=0):
        tree = parse_sql(pair.record.generated_sql)
        featurize_tree(tree, build_alias_map(tree), SYNTH_SCHEMA)
        operators += [n for n in preorder(tree) if n.kind in BINARY_OP_KINDS]
    assert len(operators) == 277
    assert calls == operators
