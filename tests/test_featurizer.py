from itertools import chain

import numpy as np
import pytest

from sqluq.ast_core import (
    BINARY_OP_KINDS,
    FLAG_STRING,
    NodeKind,
    build_alias_map,
    parse_sql,
    preorder,
)
from sqluq.featurizer import (
    _IDX,
    Compat,
    EmptySchema,
    LEVENSHTEIN_SENTINEL,
    MANIFEST,
    _name_pattern_bits,
    _schema_validity,
    featurize_tree,
    levenshtein,
    nearest_schema_identifier,
    node_logprob_score,
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


class TestLevenshtein:
    def test_single_deletion(self):
        assert levenshtein("artists", "artist") == 1

    def test_identity(self):
        assert levenshtein("same", "same") == 0

    def test_known_distance(self):
        # w->s, g->l, e->a, then insert r and y
        assert levenshtein("wage", "salary") == 5

    def test_against_dp_oracle(self):
        import itertools
        import random

        rng = random.Random(3)
        alphabet = "abc"

        def oracle(a, b):
            # full DP table, independent of the two-row implementation
            table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
            for i in range(len(a) + 1):
                table[i][0] = i
            for j in range(len(b) + 1):
                table[0][j] = j
            for i, j in itertools.product(range(1, len(a) + 1), range(1, len(b) + 1)):
                table[i][j] = min(
                    table[i - 1][j] + 1,
                    table[i][j - 1] + 1,
                    table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
                )
            return table[-1][-1]

        for _ in range(200):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
            assert levenshtein(a, b) == oracle(a, b)

    def test_cutoff_is_exact_below_and_a_lower_bound_at_or_above(self):
        import random

        rng = random.Random(5)
        for _ in range(500):
            a = "".join(rng.choice("abc") for _ in range(rng.randint(0, 9)))
            b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 9)))
            cutoff = rng.randint(0, 8)
            exact = levenshtein(a, b)
            cut = levenshtein(a, b, cutoff=cutoff)
            assert cut == exact if exact < cutoff else cutoff <= cut <= exact


class TestNearestIdentifier:
    def test_typo_one_away(self, org_schema):
        name, dist = nearest_schema_identifier("employes", org_schema)
        assert (name, dist) == ("employee", 1)

    def test_exact_match(self, org_schema):
        assert nearest_schema_identifier("salary", org_schema) == ("salary", 0)

    def test_brute_force_scan(self, org_schema):
        candidates = org_schema.identifier_names()
        target = "hada"
        expected = min(candidates, key=lambda c: (levenshtein(target, c), c))
        name, dist = nearest_schema_identifier(target, org_schema)
        assert name == expected
        assert dist == levenshtein(target, expected)

    def test_tie_breaks_lexicographically(self):
        schema = Schema(
            db_id="x",
            tables=(TableDef("ab", ()), TableDef("ad", ()), TableDef("ac", ())),
        )
        name, dist = nearest_schema_identifier("aa", schema)
        assert (name, dist) == ("ab", 1)

    def test_empty_schema_raises(self):
        with pytest.raises(EmptySchema):
            nearest_schema_identifier("x", Schema(db_id="e", tables=()))

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
            full = sorted((levenshtein(name, c), c) for c in schema.identifier_names())
            ties += len(full) > 1 and full[0][0] == full[1][0]
            assert nearest_schema_identifier(name, schema) == (full[0][1], full[0][0])
        assert ties >= 30


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
        assert MANIFEST.version_hash == MANIFEST.version_hash
        assert len(MANIFEST.names) == len(set(MANIFEST.names))


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
        frame = ScopeFrame(tables=(), aliases=aliases).enter(tree, org_schema)
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


class TestLogprobScore:
    def test_mean_over_exact_tokens(self):
        tree = parse_sql("SELECT name FROM people")
        col = by_kind(NodeKind.COLUMN, "name")(tree)
        spans = [(0, 6, -0.1), (7, 11, -0.2), (12, 16, -0.9), (17, 23, -0.4)]
        assert node_logprob_score(col, spans) == pytest.approx(-0.2)

    def test_no_overlap_is_none(self):
        tree = parse_sql("SELECT name FROM people")
        col = by_kind(NodeKind.COLUMN, "name")(tree)
        assert node_logprob_score(col, [(0, 6, -0.5)]) is None

    def test_partial_overlap_included(self):
        tree = parse_sql("SELECT name FROM people")
        col = by_kind(NodeKind.COLUMN, "name")(tree)  # span (7, 11)
        spans = [(5, 8, -0.2), (8, 10, -0.4), (10, 14, -0.6), (14, 20, -5.0)]
        expected = (-0.2 + -0.4 + -0.6) / 3
        assert node_logprob_score(col, spans) == pytest.approx(expected)


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
                frame.append((name, schema.has_table(name)))
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


def ref_known_tables(frame):
    return [name for name, known in frame.tables if known]


def ref_column_ambiguous(name, frame, schema):
    return sum(schema.has_column(name, t) for t in ref_known_tables(frame)) >= 2


def ref_featurize_node(node, tree, aliases, schema, parent, sibling):
    vec = np.array(MANIFEST.defaults, dtype=np.float64)
    vec[_IDX[f"kind={node.kind.value}"]] = 1.0
    vec[_IDX["depth"]] = float(node.depth)
    up = parent[node.id]
    vec[_IDX["parent_kind=none" if up is None else f"parent_kind={up.kind.value}"]] = 1.0
    vec[_IDX["child_count"]] = float(len(node.children))
    vec[_IDX["sibling_index"]] = float(sibling[node.id])
    frame = ref_resolve_scope(tree, node, aliases, schema, parent)
    valid, lexical_name = _schema_validity(node, frame, schema)
    vec[_IDX["schema_valid"]] = float(valid)
    if node.kind is NodeKind.COLUMN:
        vec[_IDX["column_in_scope"]] = float(
            any(schema.has_column(node.content, t) for t in ref_known_tables(frame))
        )
        qualifier = node.qualifier()
        if qualifier is not None:
            vec[_IDX["qualifier_scope_valid"]] = float(
                qualifier in frame.aliases.entries
                or qualifier in frame.table_names()
            )
        else:
            vec[_IDX["column_ambiguous"]] = float(ref_column_ambiguous(node.content, frame, schema))
    if lexical_name is not None:
        if valid:
            vec[_IDX["levenshtein_nearest"]] = 0.0
        else:
            try:
                _, dist = nearest_schema_identifier(lexical_name, schema)
                vec[_IDX["levenshtein_nearest"]] = float(min(dist, LEVENSHTEIN_SENTINEL))
            except EmptySchema:
                pass
        for name, bit in zip(
            ("name_has_digit", "name_has_underscore", "name_all_caps", "name_mixed_case"),
            _name_pattern_bits(node, lexical_name),
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
    for schema in (SYNTH_SCHEMA, org_schema):
        for sql in ORACLE_QUERIES:
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
        operators += [n for n in tree.walk() if n.kind in BINARY_OP_KINDS]
    assert len(operators) == 277
    assert calls == operators
