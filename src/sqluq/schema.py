"""Database schema loading, indexing, and per-query-level scope frames.

Schemas ground the consistency features: does an identifier exist, is a
qualifier visible in scope, could an unqualified column be ambiguous,
and what coarse data type does a column carry.  A ScopeFrame lists the
tables one query level sees; `ScopeFrame.enter` builds a nested level's
frame from its SELECT and the enclosing level's frame, and
`ScopeFrame.carriers` answers which of those tables have a given column.
A frame also carries the query's alias map, the plain dict from
case-folded alias to base table that build_alias_map gives.
A table missing from the schema stays in its frame and carries no column.
Unknown tables and columns never raise during featurization; they surface
as zeroed validity features, which is exactly the signal the classifier
needs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from sqluq.ast_core import NodeKind, SqlNode


class DataType(Enum):
    NUMERIC = "NUMERIC"
    TEXT = "TEXT"
    DATE = "DATE"
    BOOL = "BOOL"
    OTHER = "OTHER"
    __hash__ = object.__hash__  # hashed in C, by identity, not by Enum's Python-level hook


# Raw SQL type names coarsened into the five buckets.
_TYPE_SYNONYMS = {
    "int": DataType.NUMERIC, "integer": DataType.NUMERIC, "bigint": DataType.NUMERIC,
    "smallint": DataType.NUMERIC, "tinyint": DataType.NUMERIC, "real": DataType.NUMERIC,
    "float": DataType.NUMERIC, "double": DataType.NUMERIC, "decimal": DataType.NUMERIC,
    "numeric": DataType.NUMERIC, "number": DataType.NUMERIC,
    "text": DataType.TEXT, "varchar": DataType.TEXT, "char": DataType.TEXT,
    "string": DataType.TEXT, "clob": DataType.TEXT, "nvarchar": DataType.TEXT,
    "date": DataType.DATE, "datetime": DataType.DATE, "timestamp": DataType.DATE,
    "time": DataType.DATE,
    "bool": DataType.BOOL, "boolean": DataType.BOOL, "bit": DataType.BOOL,
}
# A name not in the table gets the bucket of its SQLite column affinity
# (sqlite.org/datatype3.html, 3.1), the first rule it matches winning: a
# name containing "int" is an integer, "char", "clob" or "text" a string,
# and "real", "floa" or "doub" a float.  So "unsigned big int" and "double
# precision" are numeric and "character varying" is text.  After SQLite's
# three rules, a name containing "date", "time" or "year" is a date, so
# "datetime2" and "timestamp with time zone" are dates and "interval" stays
# numeric, as SQLite has it.
_AFFINITY_RULES = (
    (("int",), DataType.NUMERIC),
    (("char", "clob", "text"), DataType.TEXT),
    (("real", "floa", "doub"), DataType.NUMERIC),
    (("date", "time", "year"), DataType.DATE),
)


def coarsen_type(raw: str) -> DataType:
    """Map a raw SQL type name onto the coarse bucket used by features."""
    name = raw.strip().casefold()
    if "(" in name:
        name = name[: name.index("(")].strip()
    if name in _TYPE_SYNONYMS:
        return _TYPE_SYNONYMS[name]
    for parts, bucket in _AFFINITY_RULES:
        if any(part in name for part in parts):
            return bucket
    return DataType.OTHER


class SchemaFormatError(Exception):
    """Schema file violates the documented format; carries field context."""


@dataclass(frozen=True)
class ColumnDef:
    name: str
    data_type: DataType


@dataclass(frozen=True)
class TableDef:
    name: str
    columns: tuple[ColumnDef, ...]


@dataclass
class Schema:
    """Immutable schema with case-folded lookup indexes."""

    db_id: str
    tables: tuple[TableDef, ...]
    _table_index: dict[str, TableDef] = field(init=False, repr=False)
    # case-folded column name -> {case-folded table name -> its type}
    _columns: dict[str, dict[str, DataType]] = field(init=False, repr=False)
    # every table and column name, case-folded, sorted, deduplicated
    identifier_names: tuple[str, ...] = field(init=False, repr=False)
    # featurizer._name_facts' answers by case-folded name
    name_memo: dict[str, tuple] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        self._table_index = {}
        self._columns = {}
        for table in self.tables:
            key = table.name.casefold()
            if key in self._table_index:
                raise SchemaFormatError(f"duplicate table name {table.name!r}")
            self._table_index[key] = table
            for col in table.columns:
                types = self._columns.setdefault(col.name.casefold(), {})
                if key in types:
                    raise SchemaFormatError(
                        f"duplicate column {col.name!r} in table {table.name!r}"
                    )
                types[key] = col.data_type
        self.identifier_names = tuple(
            sorted(self._table_index.keys() | self._columns.keys())
        )

    def has_table(self, name: str) -> bool:
        return name.casefold() in self._table_index

    def table(self, name: str) -> TableDef | None:
        return self._table_index.get(name.casefold())

    def has_column(self, name: str, table: str | None = None) -> bool:
        if table is None:
            return name.casefold() in self._columns
        return table.casefold() in self._columns.get(name.casefold(), ())

    def column_type(self, table: str, column: str) -> DataType | None:
        return self._columns.get(column.casefold(), {}).get(table.casefold())


def load_schema(path: str | Path) -> Schema:
    """Read a schema file: {"db_id": ..., "tables": [{"name", "columns"}]}."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # undecodable, not JSON, an over-long int
        raise SchemaFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict) or "tables" not in raw:
        raise SchemaFormatError(f"{path}: expected an object with a 'tables' field")
    db_id = raw.get("db_id", path.stem)
    tables = []
    for ti, tdoc in enumerate(_as_list(raw["tables"], path, "tables")):
        where = f"tables[{ti}]"
        name = _name(tdoc, path, where)
        columns = tuple(
            ColumnDef(_name(cdoc, path, f"{where}.columns[{ci}]"),
                      coarsen_type(str(cdoc.get("type", "other"))))
            for ci, cdoc in enumerate(_as_list(tdoc.get("columns", []), path, f"{where}.columns"))
        )
        tables.append(TableDef(name=name, columns=columns))
    return Schema(db_id=db_id, tables=tuple(tables))


def _as_list(value, path: Path, where: str) -> list:
    if not isinstance(value, list):
        raise SchemaFormatError(f"{path}: {where} is not a list")
    return value


def _name(doc, path: Path, where: str) -> str:
    if not isinstance(doc, dict) or not isinstance(doc.get("name"), str):
        raise SchemaFormatError(f"{path}: {where} needs a string 'name'")
    return doc["name"]


@dataclass
class ScopeFrame:
    """Base tables visible at one query level, innermost level first.

    A table missing from the schema stays in the frame and carries no
    column.
    """

    tables: tuple[str, ...]
    aliases: dict[str, str]  # case-folded alias -> base table
    # carriers' answers by column, each with the schema it answers for
    carried: dict[str, tuple[Schema, list[str]]] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    def carriers(self, column: str, schema: Schema) -> list[str]:
        """The in-scope tables that have a column named `column`, found once
        per column while the frame is asked about one schema."""
        found = self.carried.get(column)
        if found is None or found[0] is not schema:
            found = self.carried[column] = (
                schema, [name for name in self.tables if schema.has_column(column, name)])
        return found[1]

    def enter(self, select: SqlNode) -> ScopeFrame:
        """The frame of `select`, a query level nested in this one: its own
        FROM/JOIN tables, then this frame's tables it does not list (outer
        levels cover correlated references)."""
        own = dict.fromkeys(_query_level_tables(select))
        return ScopeFrame(
            tables=tuple(own) + tuple(t for t in self.tables if t not in own),
            aliases=self.aliases,
        )


def _query_level_tables(select_node: SqlNode) -> list[str]:
    """Base table names in this SELECT's FROM list and JOINs, in source
    order.  Derived tables (subqueries in FROM) are nested levels, not
    tables of this one."""
    names: list[str] = []
    for clause in select_node.children:
        if clause.kind is NodeKind.FROM:
            for item in clause.children:
                if item.kind is NodeKind.JOIN:
                    item = item.children[0]
                if item.kind is NodeKind.TABLE:
                    names.append(item.content)
    return names
