import copy
import pickle
import sys

import pytest

from sqluq.ast_core import (
    NodeKind,
    ParseError,
    UnsupportedConstruct,
    build_alias_map,
    parse_sql,
    preorder,
)


def kinds_of(tree):
    return [n.kind for n in preorder(tree)]


def test_simple_select_shape():
    tree = parse_sql("SELECT name FROM people")
    assert tree.kind is NodeKind.SELECT
    col, frm = tree.children
    assert col.kind is NodeKind.COLUMN and col.content == "name"
    assert frm.kind is NodeKind.FROM
    table = frm.children[0]
    assert table.kind is NodeKind.TABLE and table.content == "people"
    assert table.children[0].kind is NodeKind.IDENTIFIER


def test_empty_input_is_parse_error():
    with pytest.raises(ParseError):
        parse_sql("")
    with pytest.raises(ParseError):
        parse_sql("   ")


def test_table_alias_and_qualified_column():
    tree = parse_sql("SELECT x.name FROM artist AS x")
    col = tree.children[0]
    assert col.kind is NodeKind.COLUMN and col.content == "name"
    qual = col.children[0]
    assert qual.kind is NodeKind.IDENTIFIER and qual.content == "x"
    assert "qualifier" in qual.flags
    assert col.qualifier == "x"
    table = tree.children[1].children[0]
    assert table.kind is NodeKind.TABLE and table.content == "artist"
    alias = [c for c in table.children if c.kind is NodeKind.TABLE_ALIAS]
    assert len(alias) == 1 and alias[0].content == "x"


def test_preorder_ids_contiguous_and_depths():
    tree = parse_sql(
        "SELECT a, count(*) FROM t1 JOIN t2 ON t1.x = t2.x "
        "WHERE a > 3 AND b LIKE '%q%' GROUP BY a HAVING count(*) > 2 "
        "ORDER BY a DESC LIMIT 5"
    )
    nodes = preorder(tree)
    assert [n.id for n in nodes] == list(range(len(nodes)))
    for node in nodes:
        for child in node.children:
            assert child.depth == node.depth + 1
            assert node.span[0] <= child.span[0] <= child.span[1] <= node.span[1]


def test_span_soundness_identifiers_and_literals():
    sql = "SELECT Name, 'Ab''c', 12.5 FROM Artists WHERE x = `Quoted`"
    tree = parse_sql(sql)
    raw = sql.encode("utf-8")
    for node in preorder(tree):
        if node.kind is NodeKind.IDENTIFIER:
            lexeme = raw[node.span[0] : node.span[1]].decode("utf-8")
            if "quoted" in node.flags:
                lexeme = lexeme[1:-1]
            assert lexeme.casefold() == node.content
        if node.kind is NodeKind.LITERAL and "string" not in node.flags:
            lexeme = raw[node.span[0] : node.span[1]].decode("utf-8")
            assert lexeme == node.content


def test_byte_spans_with_multibyte_text():
    sql = "SELECT name FROM t WHERE city = 'Zürich'"
    tree = parse_sql(sql)
    raw = sql.encode("utf-8")
    lit = [n for n in preorder(tree) if n.kind is NodeKind.LITERAL][0]
    assert raw[lit.span[0] : lit.span[1]].decode("utf-8") == "'Zürich'"
    assert lit.content == "Zürich"


def test_byte_spans_after_non_ascii_digits():
    # both are digits to str.isdigit but, as in SQLite, name a column; each
    # takes two bytes in UTF-8
    for digit in ("\u0663", "\u00b2"):
        sql = f"SELECT {digit} FROM t WHERE a = 1"
        raw = sql.encode("utf-8")
        spans = [(n.kind, raw[n.span[0] : n.span[1]].decode("utf-8")) for n in preorder(parse_sql(sql))]
        assert spans == [
            (NodeKind.SELECT, sql), (NodeKind.COLUMN, digit), (NodeKind.IDENTIFIER, digit),
            (NodeKind.FROM, "FROM t"),
            (NodeKind.TABLE, "t"), (NodeKind.IDENTIFIER, "t"), (NodeKind.WHERE, "WHERE a = 1"),
            (NodeKind.EQ, "a = 1"), (NodeKind.COLUMN, "a"), (NodeKind.IDENTIFIER, "a"),
            (NodeKind.LITERAL, "1"),
        ]


def test_round_trip_stability():
    sql = "SELECT a.x, sum(b) FROM t AS a WHERE a.x IN (1, 2, 3) ORDER BY a.x"
    first = parse_sql(sql)
    second = parse_sql(sql)

    def structure(tree):
        return [(n.kind, n.content, n.flags, len(n.children)) for n in preorder(tree)]

    assert structure(first) == structure(second)


def test_and_or_flattened_nary():
    tree = parse_sql("SELECT * FROM t WHERE a = 1 AND b = 2 AND c = 3 OR d = 4")
    where = [n for n in preorder(tree) if n.kind is NodeKind.WHERE][0]
    or_node = where.children[0]
    assert or_node.kind is NodeKind.OR
    and_node = or_node.children[0]
    assert and_node.kind is NodeKind.AND
    assert len(and_node.children) == 3


def test_arithmetic_is_left_associative_and_not_binds_below_comparison():
    def shape(node):
        if not node.children or node.kind is NodeKind.COLUMN:
            return node.content
        return (node.kind.value, *[shape(c) for c in node.children])

    def where(cond):
        return shape(parse_sql(f"SELECT * FROM t WHERE {cond}").children[-1].children[0])

    assert where("a - b - c") == ("Sub", ("Sub", "a", "b"), "c")
    assert where("a / b * c") == ("Mul", ("Div", "a", "b"), "c")
    assert where("a - b * c + d") == ("Add", ("Sub", "a", ("Mul", "b", "c")), "d")
    assert where("NOT a = 1 AND b = 2") == ("And", ("Not", ("Eq", "a", "1")), ("Eq", "b", "2"))
    assert where("a = 1 OR b = 2 AND c = 3") == (
        "Or", ("Eq", "a", "1"), ("And", ("Eq", "b", "2"), ("Eq", "c", "3"))
    )


def test_parenthesized_and_flattens_too():
    plain = parse_sql("SELECT * FROM t WHERE a = 1 AND b = 2 AND c = 3")
    grouped = parse_sql("SELECT * FROM t WHERE (a = 1 AND b = 2) AND c = 3")

    def shape(tree):
        return [(n.kind, n.content) for n in preorder(tree)]

    assert shape(plain) == shape(grouped)


def test_case_folding_of_identifiers_keeps_literal_case():
    tree = parse_sql("SELECT NAME FROM People WHERE x = 'MiXeD'")
    col = tree.children[0]
    assert col.content == "name"
    lit = [n for n in preorder(tree) if n.kind is NodeKind.LITERAL][0]
    assert lit.content == "MiXeD"


def test_aggregate_vs_function_kinds():
    tree = parse_sql("SELECT count(*), sum(x), upper(y) FROM t")
    kinds = {(n.kind, n.content) for n in preorder(tree) if n.kind in (NodeKind.AGG, NodeKind.FUNC)}
    assert (NodeKind.AGG, "count") in kinds
    assert (NodeKind.AGG, "sum") in kinds
    assert (NodeKind.FUNC, "upper") in kinds


def test_subquery_in_from_and_in_expression():
    tree = parse_sql(
        "SELECT v FROM (SELECT x AS v FROM t1) AS s WHERE v IN (SELECT y FROM t2)"
    )
    subqueries = [n for n in preorder(tree) if n.kind is NodeKind.SUBQUERY]
    assert len(subqueries) == 2


def test_unsupported_constructs_are_flagged_not_mislabeled():
    for sql in (
        "SELECT * FROM t WHERE a BETWEEN 1 AND 2",
        "SELECT rank() OVER (ORDER BY x) FROM t",
        "SELECT * FROM t UNION SELECT * FROM s",
        "WITH q AS (SELECT 1) SELECT * FROM q",
        "SELECT * FROM t WHERE a IS NULL",
        "SELECT CASE WHEN a THEN 1 END FROM t",
    ):
        with pytest.raises(UnsupportedConstruct):
            parse_sql(sql)


def test_parse_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_sql("SELECT FROM t")
    assert err.value.position == 7


@pytest.mark.parametrize("sql, message, position", [
    ("SELECT a FROM (x)", "expected SELECT", 15),
    ("SELECT a FROM t LEFT OUTER u", "expected JOIN", 27),
    ("SELECT a FROM t GROUP a", "expected BY", 22),
    ("SELECT count(* 1) FROM t", "expected ')'", 15),
])
def test_parse_error_names_the_missing_token(sql, message, position):
    with pytest.raises(ParseError) as err:
        parse_sql(sql)
    assert str(err.value) == f"{message} (at byte {position})"
    assert err.value.position == position


def test_limit_and_offset():
    tree = parse_sql("SELECT * FROM t LIMIT 10 OFFSET 5")
    limit = [n for n in preorder(tree) if n.kind is NodeKind.LIMIT][0]
    assert [c.content for c in limit.children] == ["10", "5"]


def test_order_by_direction_in_content():
    tree = parse_sql("SELECT * FROM t ORDER BY a DESC, b, c ASC")
    ordered = [n for n in preorder(tree) if n.kind is NodeKind.ORDERED]
    assert [n.content for n in ordered] == ["desc", None, None]


def test_alias_map_simple_and_join():
    tree = parse_sql("SELECT a.x, b.y FROM t1 AS a JOIN t2 AS b ON a.x = b.y")
    amap = build_alias_map(tree)
    assert amap == {"a": "t1", "b": "t2"}


def test_alias_map_no_aliases():
    assert build_alias_map(parse_sql("SELECT x FROM artist")) == {}


def test_alias_map_duplicate_alias_diagnostic():
    tree = parse_sql("SELECT x FROM t1 AS a, t2 AS a")
    amap = build_alias_map(tree)
    assert amap == {"a": "t2"}


def test_alias_map_soundness():
    sql = "SELECT s.v FROM (SELECT x AS v FROM t1 AS inner1) AS s JOIN t2 AS o ON s.v = o.w"
    tree = parse_sql(sql)
    amap = build_alias_map(tree)
    tables = {n.content for n in preorder(tree) if n.kind is NodeKind.TABLE}
    for alias, table in amap.items():
        assert table in tables
        owners = [
            n
            for n in preorder(tree)
            if n.kind is NodeKind.TABLE
            and any(
                c.kind is NodeKind.TABLE_ALIAS and c.content == alias for c in n.children
            )
        ]
        assert owners and any(o.content == table for o in owners)


def test_negative_number_literal():
    tree = parse_sql("SELECT * FROM t WHERE a = -5")
    lit = [n for n in preorder(tree) if n.kind is NodeKind.LITERAL][0]
    assert lit.content == "-5"


def test_strict_numeric_lexemes_preserved():
    tree = parse_sql("SELECT * FROM t WHERE a = 1.0 OR b = 01")
    lits = sorted(n.content for n in preorder(tree) if n.kind is NodeKind.LITERAL)
    assert lits == ["01", "1.0"]


@pytest.mark.parametrize("sql, position", [
    ("SELECT 1a FROM t", 7),
    ("SELECT 1\u0663 FROM t", 7),
    ("SELECT .5x FROM t", 7),
    ("SELECT 1e5 FROM t", 7),
    ("SELECT 2_ FROM t", 7),
    ("SELECT a FROM t WHERE b = 1.5from", 26),
    ("SELECT é, 12x FROM t", 11),
])
def test_number_glued_to_a_word_is_a_parse_error(sql, position):
    # SQLite answers `SELECT 1a` with `unrecognized token: "1a"`; reading
    # it as the literal 1 aliased `a` would label a query the database refuses
    with pytest.raises(ParseError, match="word character after number") as err:
        parse_sql(sql)
    assert err.value.position == position


def test_number_apart_from_a_word_still_parses():
    tree = parse_sql("SELECT 1 a, 3.5 AS b FROM t")
    assert [(n.kind, n.content, n.children[0].content) for n in tree.children[:2]] == [
        (NodeKind.ALIAS, "a", "1"), (NodeKind.ALIAS, "b", "3.5")]


def test_kinds_are_singletons_through_copies_and_pickles():
    tree = parse_sql("SELECT a FROM t WHERE a = 1")
    for twin in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert [n.kind for n in preorder(twin)] == [n.kind for n in preorder(tree)]
        assert all(a.kind is b.kind for a, b in zip(preorder(twin), preorder(tree)))
    assert copy.copy(NodeKind.AND) is NodeKind.AND
    assert [k.name for k in NodeKind][:3] == ["SELECT", "FROM", "WHERE"]
    assert NodeKind.GROUP_BY.value == "GroupBy" and repr(NodeKind.AND) == "NodeKind.AND"


# Kinds whose content field must be non-empty.
CONTENT_KINDS = frozenset({NodeKind.IDENTIFIER, NodeKind.LITERAL, NodeKind.TABLE,
                           NodeKind.COLUMN, NodeKind.FUNC, NodeKind.AGG})


def test_content_populated_exactly_for_content_kinds():
    structural_with_content = {NodeKind.TABLE_ALIAS, NodeKind.ALIAS, NodeKind.JOIN,
                               NodeKind.ORDERED, NodeKind.OTHER}
    tree = parse_sql(
        "SELECT DISTINCT a.c1 AS v, count(*), upper(c2) FROM t1 AS a "
        "LEFT JOIN t2 ON a.c1 = t2.c4 WHERE c2 LIKE '%x%' "
        "GROUP BY c2 ORDER BY c2 DESC LIMIT 2"
    )
    for node in preorder(tree):
        if node.kind in CONTENT_KINDS:
            assert node.content, f"{node.kind} missing content"
        elif node.kind not in structural_with_content:
            assert node.content is None, f"{node.kind} unexpectedly carries content"


def test_qualifier_is_recorded_exactly_on_qualified_columns_and_stars():
    tree = parse_sql(
        'SELECT x.a, b, X.*, * , count(*), "Q".c FROM t1 AS x JOIN q ON q.b = x.a '
        "WHERE x.a IN (SELECT y.c FROM t2 AS y WHERE c > 1)"
    )
    qualified = []
    for node in preorder(tree):
        # the qualifier Identifier child is the source of truth
        names = [c.content for c in node.children
                 if c.kind is NodeKind.IDENTIFIER and "qualifier" in c.flags]
        assert node.qualifier == (names[0] if names else None), node
        if node.qualifier is not None:
            qualified.append((node.kind, node.qualifier))
    assert qualified == [
        (NodeKind.COLUMN, "x"), (NodeKind.STAR, "x"), (NodeKind.COLUMN, "q"),
        (NodeKind.COLUMN, "q"), (NodeKind.COLUMN, "x"), (NodeKind.COLUMN, "x"),
        (NodeKind.COLUMN, "y"),
    ]


def test_count_distinct_star_is_a_parse_error():
    # SQLite answers `near "*": syntax error`
    with pytest.raises(ParseError) as err:
        parse_sql("SELECT count(DISTINCT *) FROM t")
    assert err.value.position == 22
    with pytest.raises(ParseError) as err:
        parse_sql("SELECT count(DISTINCT) FROM t")
    assert err.value.position == 13
    star, distinct = parse_sql("SELECT count(*), count(DISTINCT a) FROM t").children[:2]
    assert [n.kind for n in preorder(star)] == [NodeKind.AGG, NodeKind.STAR]
    assert [(n.kind, n.content) for n in preorder(distinct)][:2] == [
        (NodeKind.AGG, "count"), (NodeKind.OTHER, "distinct")]


def test_parsing_does_not_recurse():
    n = 200
    sql = (
        "SELECT " + "f(" * n + "a" + ")" * n
        + ", " + "(SELECT " * n + "a" + " FROM t)" * n
        + " FROM " + "(SELECT a FROM " * n + "t" + ")" * n
        + " WHERE " + "a IN (" * n + "1" + ")" * n
        + " AND a IN " + "(SELECT a FROM t WHERE a IN " * n + "(1)" + ")" * n
        + " AND " + "(" * n + "a = 1" + ")" * n
    )
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)  # far fewer frames than 200 levels of any construct
    try:
        tree = parse_sql(sql)
    finally:
        sys.setrecursionlimit(limit)
    kinds = [n.kind for n in preorder(tree)]
    assert kinds.count(NodeKind.FUNC) == n
    assert kinds.count(NodeKind.SUBQUERY) == 3 * n
    assert kinds.count(NodeKind.IN) == 2 * n + 1


@pytest.mark.parametrize("sql, position", [
    ("SELECT a FROM t WHERE a IN (SELECT b FROM u b = 1)", 46),
    ("SELECT (SELECT b FROM u) + 1, (SELECT b FROM u c d) FROM t", 49),
    ("SELECT a FROM (SELECT b FROM u LIMIT 1 OFFSET 2, 3)", 47),
])
def test_a_subquery_closes_its_bracket(sql, position):
    with pytest.raises(ParseError, match="expected '\\)'") as err:
        parse_sql(sql)
    assert err.value.position == position
