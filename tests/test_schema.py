import json

import pytest

from sqluq.ast_core import NodeKind, build_alias_map, parse_sql, preorder
from sqluq.schema import (
    ColumnDef,
    DataType,
    Schema,
    SchemaFormatError,
    ScopeFrame,
    TableDef,
    coarsen_type,
    load_schema,
)


@pytest.fixture
def org_schema():
    return Schema(
        db_id="org",
        tables=(
            TableDef(
                "department",
                (ColumnDef("id", DataType.NUMERIC), ColumnDef("name", DataType.TEXT)),
            ),
            TableDef(
                "employee",
                (
                    ColumnDef("id", DataType.NUMERIC),
                    ColumnDef("department_id", DataType.NUMERIC),
                    ColumnDef("salary", DataType.NUMERIC),
                ),
            ),
        ),
    )


def level_frame(levels, aliases):
    """Scope frame of the last SELECT in `levels`, entered outermost first."""
    frame = ScopeFrame(tables=(), aliases=aliases)
    for select in levels:
        frame = frame.enter(select)
    return frame


def selects(tree):
    return [n for n in preorder(tree) if n.kind is NodeKind.SELECT]


def write_schema(tmp_path, doc, name="db.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_load_schema_single_table(tmp_path):
    path = write_schema(
        tmp_path,
        {"db_id": "hr", "tables": [{"name": "employee", "columns": [{"name": "salary", "type": "NUMERIC"}]}]},
    )
    schema = load_schema(path)
    assert schema.db_id == "hr"
    assert len(schema.tables) == 1
    assert schema.tables[0].columns[0].data_type is DataType.NUMERIC


def test_load_schema_duplicate_table_rejected(tmp_path):
    path = write_schema(
        tmp_path,
        {"tables": [{"name": "t", "columns": []}, {"name": "T", "columns": []}]},
    )
    with pytest.raises(SchemaFormatError):
        load_schema(path)


def test_load_schema_duplicate_column_rejected(tmp_path):
    path = write_schema(
        tmp_path,
        {"tables": [{"name": "t", "columns": [{"name": "a"}, {"name": "A"}]}]},
    )
    with pytest.raises(SchemaFormatError):
        load_schema(path)


def test_load_schema_two_table_lookups(tmp_path):
    path = write_schema(
        tmp_path,
        {
            "db_id": "org",
            "tables": [
                {"name": "department", "columns": [{"name": "id", "type": "INTEGER"}, {"name": "name", "type": "VARCHAR(50)"}]},
                {"name": "employee", "columns": [{"name": "id", "type": "INTEGER"}, {"name": "department_id", "type": "INTEGER"}]},
            ],
        },
    )
    schema = load_schema(path)
    assert schema.has_column("name", "department")
    assert not schema.has_column("name", "employee")
    assert schema.column_type("department", "name") is DataType.TEXT


def test_load_schema_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaFormatError):
        load_schema(path)


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"tables": 5}, "tables is not a list"),
        ({"tables": [{"name": 5, "columns": []}]}, "tables[0] needs a string 'name'"),
        ({"tables": [{"name": "t", "columns": [{"name": None}]}]},
         "tables[0].columns[0] needs a string 'name'"),
        ({"tables": [{"name": "t", "columns": 7}]}, "tables[0].columns is not a list"),
    ],
)
def test_load_schema_wrong_shape_names_the_field(tmp_path, doc, field):
    path = write_schema(tmp_path, doc)
    with pytest.raises(SchemaFormatError) as info:
        load_schema(path)
    assert str(info.value) == f"{path}: {field}"


def test_coarsen_type_buckets():
    assert coarsen_type("INTEGER") is DataType.NUMERIC
    assert coarsen_type("varchar(100)") is DataType.TEXT
    assert coarsen_type("DATETIME") is DataType.DATE
    assert coarsen_type("boolean") is DataType.BOOL
    assert coarsen_type("blob") is DataType.OTHER


@pytest.mark.parametrize(
    "raw, bucket",
    [
        ("NUMERIC", DataType.NUMERIC),
        ("Text", DataType.TEXT),
        ("date", DataType.DATE),
        ("BOOL", DataType.BOOL),
        ("other", DataType.OTHER),
        ("varchar(40)", DataType.TEXT),
        # a dotless i upper-cases to I, but no type name is spelled with it
        ("numer\u0131c", DataType.OTHER),
        ("\u0131nteger", DataType.OTHER),
        # names not in the table take their SQLite affinity, the first rule
        # matched winning
        ("double precision", DataType.NUMERIC),
        ("UNSIGNED BIG INT", DataType.NUMERIC),
        ("int8", DataType.NUMERIC),
        ("float8", DataType.NUMERIC),
        ("character varying(20)", DataType.TEXT),
        ("nchar(10)", DataType.TEXT),
        ("Native Character(70)", DataType.TEXT),
        ("longtext", DataType.TEXT),
        ("floating point", DataType.NUMERIC),
        ("charint", DataType.NUMERIC),
        ("blob", DataType.OTHER),
        ("binary blob", DataType.OTHER),
        ("geometry", DataType.OTHER),
    ],
)
def test_coarsen_type_looks_the_name_up_once(raw, bucket):
    assert coarsen_type(raw) is bucket


def test_lookup_case_insensitive(org_schema):
    assert org_schema.has_table("Department")
    assert org_schema.has_column("SALARY", "EMPLOYEE")


def test_column_lookups_ignore_case_and_miss_unknown_names(org_schema):
    assert org_schema.column_type("EMPLOYEE", "Salary") is DataType.NUMERIC
    assert org_schema.column_type("Department", "NAME") is DataType.TEXT
    assert org_schema.has_column("Department_ID")
    for table, column in (("employee", "name"), ("office", "id"), ("office", "floor")):
        assert org_schema.column_type(table, column) is None
        assert not org_schema.has_column(column, table)
    assert not org_schema.has_column("floor")


def test_resolve_scope_single_table(org_schema):
    tree = parse_sql("SELECT name FROM department AS d")
    aliases = build_alias_map(tree)
    frame = level_frame([tree], aliases)
    assert frame.tables == ("department",)


def test_resolve_scope_subquery_inner_level(org_schema):
    tree = parse_sql("SELECT v FROM (SELECT id AS v FROM employee) AS s")
    aliases = build_alias_map(tree)
    frame = level_frame(selects(tree), aliases)
    assert frame.tables == ("employee",)


def test_resolve_scope_correlated_includes_outer(org_schema):
    tree = parse_sql(
        "SELECT name FROM department WHERE id IN (SELECT department_id FROM employee)"
    )
    aliases = build_alias_map(tree)
    frame = level_frame(selects(tree), aliases)
    assert frame.tables == ("employee", "department")


def test_resolve_scope_unknown_table_flagged(org_schema):
    tree = parse_sql("SELECT x FROM mystery")
    aliases = build_alias_map(tree)
    frame = level_frame([tree], aliases)
    assert frame.tables == ("mystery",)
    assert frame.carriers("x", org_schema) == []


def test_column_ambiguous_two_carriers(org_schema):
    tree = parse_sql("SELECT id FROM department JOIN employee ON department.id = employee.department_id")
    aliases = build_alias_map(tree)
    frame = level_frame([tree], aliases)
    assert len(frame.carriers("id", org_schema)) >= 2
    assert not len(frame.carriers("salary", org_schema)) >= 2


def test_column_ambiguous_single_table_scope(org_schema):
    tree = parse_sql("SELECT id FROM employee")
    aliases = build_alias_map(tree)
    frame = level_frame([tree], aliases)
    assert not len(frame.carriers("id", org_schema)) >= 2


def test_ambiguity_monotone_under_scope_growth(org_schema):
    narrow = parse_sql("SELECT id FROM employee")
    wide = parse_sql("SELECT id FROM employee JOIN department ON employee.department_id = department.id")
    for name in ("id", "salary", "name"):
        frame_narrow = level_frame([narrow], build_alias_map(narrow))
        frame_wide = level_frame([wide], build_alias_map(wide))
        assert (len(frame_narrow.carriers(name, org_schema)) >= 2) <= (
            len(frame_wide.carriers(name, org_schema)) >= 2
        )
