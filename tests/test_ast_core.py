import pytest

from sqluq.ast_core import (
    CONTENT_KINDS,
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
    assert amap.entries == {"a": "t1", "b": "t2"}


def test_alias_map_no_aliases():
    assert build_alias_map(parse_sql("SELECT x FROM artist")).entries == {}


def test_alias_map_duplicate_alias_diagnostic():
    tree = parse_sql("SELECT x FROM t1 AS a, t2 AS a")
    amap = build_alias_map(tree)
    assert amap.entries == {"a": "t2"}


def test_alias_map_soundness():
    sql = "SELECT s.v FROM (SELECT x AS v FROM t1 AS inner1) AS s JOIN t2 AS o ON s.v = o.w"
    tree = parse_sql(sql)
    amap = build_alias_map(tree)
    tables = {n.content for n in preorder(tree) if n.kind is NodeKind.TABLE}
    for alias, table in amap.entries.items():
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
