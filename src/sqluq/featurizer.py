"""Fixed-length per-node feature vectors.

Every node, regardless of kind, maps to the same ordered feature list:

* structural: node-kind one-hot, depth, parent-kind one-hot, child count,
  sibling index;
* schema consistency: identifier validity, in-scope column visibility,
  qualifier scope validity, column ambiguity;
* lexical: edit distance to the nearest schema identifier plus
  name-pattern bits (digits, underscores, ALL_CAPS, mixedCase);
* contextual: aggregate-context bit, operand type compatibility for
  binary operators (own and parent's), LIKE pattern shape, IN list size.

Features that do not apply to a node hold documented defaults (booleans
0, sizes 0, edit distance the sentinel 64, compatibility the neutral
class) so the classifier always receives an identically shaped input.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import IntEnum
from itertools import chain

import numpy as np

from sqluq.ast_core import (
    AliasMap,
    BINARY_OP_KINDS,
    FLAG_ALL_CAPS,
    FLAG_MIXED_CASE,
    FLAG_NULL,
    FLAG_QUALIFIER,
    FLAG_STRING,
    FLAG_TABLE_NAME,
    NodeIndex,
    NodeKind,
    SqlNode,
    build_index,
    preorder,
)
from sqluq.schema import DataType, Schema, ScopeFrame, column_ambiguous, resolve_scope

LEVENSHTEIN_SENTINEL = 64

KIND_ORDER: tuple[NodeKind, ...] = tuple(NodeKind)


class Compat(IntEnum):
    UNKNOWN = 0  # neutral default
    COMPATIBLE = 1
    INCOMPATIBLE = 2


class EmptySchema(Exception):
    """Nearest-identifier lookup needs at least one schema identifier."""


@dataclass(frozen=True)
class FeatureManifest:
    """Frozen feature order; any matrix is only meaningful with its manifest."""

    names: tuple[str, ...]
    defaults: tuple[float, ...]
    version_hash: str

    @property
    def length(self) -> int:
        return len(self.names)

    def to_dict(self) -> dict:
        return {
            "format": "sqluq-feature-manifest",
            "version": 1,
            "length": self.length,
            "hash": self.version_hash,
            "features": [
                {"index": i, "name": n, "default": d}
                for i, (n, d) in enumerate(zip(self.names, self.defaults))
            ],
        }


def _build_manifest() -> FeatureManifest:
    names: list[str] = []
    defaults: list[float] = []

    def add(name: str, default: float = 0.0):
        names.append(name)
        defaults.append(default)

    for kind in KIND_ORDER:
        add(f"kind={kind.value}")
    add("depth")
    add("parent_kind=none")
    for kind in KIND_ORDER:
        add(f"parent_kind={kind.value}")
    add("child_count")
    add("sibling_index")
    add("schema_valid")
    add("column_in_scope")
    add("qualifier_scope_valid")
    add("column_ambiguous")
    add("levenshtein_nearest", float(LEVENSHTEIN_SENTINEL))
    add("name_has_digit")
    add("name_has_underscore")
    add("name_all_caps")
    add("name_mixed_case")
    add("aggregate_context")
    add("operand_type_compat")
    add("parent_type_compat")
    add("like_has_wildcard")
    add("like_pattern_length")
    add("in_list_size")
    digest = hashlib.sha256(
        "\n".join(f"{n}={d}" for n, d in zip(names, defaults)).encode("utf-8")
    ).hexdigest()[:16]
    return FeatureManifest(names=tuple(names), defaults=tuple(defaults), version_hash=digest)


MANIFEST = _build_manifest()

_IDX = {name: i for i, name in enumerate(MANIFEST.names)}


@dataclass
class NodeRecord:
    """One training/evaluation row for a single generated node."""

    query_id: str
    db_id: str
    node_id: int
    node_kind: str
    features: np.ndarray
    label: int
    logprob_score: float | None = None


def levenshtein(a: str, b: str, cutoff: int | None = None) -> int:
    """Unit-cost edit distance (insert, delete, substitute).

    With a cutoff, a distance below it is exact; otherwise the result is
    some value at or above the cutoff.  A DP row's minimum never falls in
    later rows, so the scan stops once that minimum reaches the cutoff."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        if cutoff is not None and min(cur) >= cutoff:
            return min(cur)
        prev = cur
    return prev[-1]


def nearest_schema_identifier(name: str, schema: Schema) -> tuple[str, int]:
    """Closest table or column name in the whole schema; ties break
    lexicographically on the identifier."""
    candidates = schema.identifier_names()
    if not candidates:
        raise EmptySchema("schema has no tables or columns")
    folded = name.casefold()
    best_name, best_dist = None, None
    for cand in candidates:  # sorted, so first minimum wins ties
        if best_dist is not None and abs(len(cand) - len(folded)) >= best_dist:
            continue  # the length gap alone is as far as the best
        d = levenshtein(folded, cand, cutoff=best_dist)
        if best_dist is None or d < best_dist:
            best_name, best_dist = cand, d
            if d == 0:
                break
    return best_name, best_dist


def _operand_type(node: SqlNode, frame: ScopeFrame, schema: Schema) -> DataType | None:
    """Coarse type of one operand: column via schema, literal via lexeme class."""
    if node.kind is NodeKind.LITERAL:
        if FLAG_NULL in node.flags:
            return None
        return DataType.TEXT if FLAG_STRING in node.flags else DataType.NUMERIC
    if node.kind is NodeKind.COLUMN:
        qualifier = node.qualifier()
        if qualifier is not None:
            table = frame.aliases.resolve(qualifier) or qualifier
            return schema.column_type(table, node.content)
        types = {
            schema.column_type(t, node.content)
            for t in frame.known_tables()
            if schema.has_column(node.content, t)
        }
        types.discard(None)
        if len(types) == 1:
            return types.pop()
        return None
    return None


_COMPAT_CLASSES = {
    DataType.NUMERIC: "num",
    DataType.BOOL: "num",  # SQLite stores booleans numerically
    DataType.TEXT: "text",
    DataType.DATE: "text",  # SQLite date literals are strings
}


def operand_type_compat(op_node: SqlNode, frame: ScopeFrame, schema: Schema) -> Compat:
    """Type agreement of a binary operator's operands."""
    if op_node.kind not in BINARY_OP_KINDS or len(op_node.children) < 2:
        return Compat.UNKNOWN
    left = _operand_type(op_node.children[0], frame, schema)
    right = _operand_type(op_node.children[1], frame, schema)
    if left is None or right is None:
        return Compat.UNKNOWN
    cl = _COMPAT_CLASSES.get(left)
    cr = _COMPAT_CLASSES.get(right)
    if cl is None or cr is None:
        return Compat.UNKNOWN
    return Compat.COMPATIBLE if cl == cr else Compat.INCOMPATIBLE


def node_logprob_score(
    node: SqlNode, token_logprobs: list[tuple[int, int, float]]
) -> float | None:
    """Mean log-probability over tokens whose spans overlap the node's span."""
    start, end = node.span
    overlapping = [lp for (ts, te, lp) in token_logprobs if ts < end and te > start]
    if not overlapping:
        return None
    return sum(overlapping) / len(overlapping)


def _name_pattern_bits(node: SqlNode, name: str) -> tuple[int, int, int, int]:
    # case patterns come from parse-time flags: content is case-folded
    has_digit = int(any(c.isdigit() for c in name))
    has_underscore = int("_" in name)
    all_caps = int(FLAG_ALL_CAPS in node.flags)
    mixed = int(FLAG_MIXED_CASE in node.flags)
    return has_digit, has_underscore, all_caps, mixed


def _enclosing_select(node: SqlNode, index: NodeIndex) -> SqlNode | None:
    return next((a for a in index.ancestors(node) if a.kind is NodeKind.SELECT), None)


_CLAUSE_KINDS = frozenset(
    {
        NodeKind.FROM, NodeKind.WHERE, NodeKind.GROUP_BY, NodeKind.HAVING,
        NodeKind.ORDER_BY, NodeKind.LIMIT,
    }
)


def _projection_items(select: SqlNode) -> list[SqlNode]:
    return [c for c in select.children if c.kind not in _CLAUSE_KINDS]


def _aggregate_context(node: SqlNode, index: NodeIndex) -> int:
    """1 when a bare column sits in a SELECT list that mixes in an
    aggregate call but the query level has no GROUP BY."""
    if node.kind is not NodeKind.COLUMN:
        return 0
    select = _enclosing_select(node, index)
    if select is None:
        return 0
    if any(c.kind is NodeKind.GROUP_BY for c in select.children):
        return 0
    items = _projection_items(select)
    in_projection = False
    under_aggregate = False
    for cur in chain((node,), index.ancestors(node)):
        if cur is select:
            break
        if cur.kind is NodeKind.AGG:
            under_aggregate = True
        if any(cur is item for item in items):
            in_projection = True
            break
    if not in_projection or under_aggregate:
        return 0
    has_aggregate = any(
        d.kind is NodeKind.AGG for item in items for d in item.walk()
    )
    return int(has_aggregate)


def _schema_validity(node: SqlNode, frame: ScopeFrame, schema: Schema) -> tuple[int, str | None]:
    """(validity bit, name used for edit distance) for identifier-ish nodes."""
    if node.kind is NodeKind.TABLE:
        return int(schema.has_table(node.content)), node.content
    if node.kind is NodeKind.COLUMN:
        return int(schema.has_column(node.content)), node.content
    if node.kind is NodeKind.IDENTIFIER:
        if FLAG_TABLE_NAME in node.flags:
            return int(schema.has_table(node.content)), node.content
        if FLAG_QUALIFIER in node.flags:
            resolved = frame.aliases.resolve(node.content)
            ok = resolved is not None or schema.has_table(node.content)
            return int(ok), node.content
        return int(schema.has_column(node.content) or schema.has_table(node.content)), node.content
    return 0, None


def featurize_node(
    node: SqlNode,
    tree: SqlNode,
    aliases: AliasMap,
    schema: Schema,
    index: NodeIndex | None = None,
) -> np.ndarray:
    """Feature vector for one node; identical layout for every node."""
    if index is None:
        index = build_index(tree)
    vec = np.array(MANIFEST.defaults, dtype=np.float64)

    vec[_IDX[f"kind={node.kind.value}"]] = 1.0
    vec[_IDX["depth"]] = float(node.depth)
    parent = index.parent_of(node)
    if parent is None:
        vec[_IDX["parent_kind=none"]] = 1.0
    else:
        vec[_IDX[f"parent_kind={parent.kind.value}"]] = 1.0
    vec[_IDX["child_count"]] = float(len(node.children))
    vec[_IDX["sibling_index"]] = float(index.sibling_index[node.id])

    frame = resolve_scope(tree, node, aliases, schema, index=index)

    valid, lexical_name = _schema_validity(node, frame, schema)
    vec[_IDX["schema_valid"]] = float(valid)

    if node.kind is NodeKind.COLUMN:
        in_scope = any(
            schema.has_column(node.content, t) for t in frame.known_tables()
        )
        vec[_IDX["column_in_scope"]] = float(in_scope)
        qualifier = node.qualifier()
        if qualifier is not None:
            known = (
                frame.aliases.resolve(qualifier) is not None
                or qualifier in frame.table_names()
            )
            vec[_IDX["qualifier_scope_valid"]] = float(known)
        else:
            vec[_IDX["column_ambiguous"]] = float(
                column_ambiguous(node.content, frame, schema)
            )

    if lexical_name is not None:
        if valid:
            vec[_IDX["levenshtein_nearest"]] = 0.0
        else:
            try:
                _, dist = nearest_schema_identifier(lexical_name, schema)
                vec[_IDX["levenshtein_nearest"]] = float(min(dist, LEVENSHTEIN_SENTINEL))
            except EmptySchema:
                pass  # keep the sentinel
        bits = _name_pattern_bits(node, lexical_name)
        vec[_IDX["name_has_digit"]] = float(bits[0])
        vec[_IDX["name_has_underscore"]] = float(bits[1])
        vec[_IDX["name_all_caps"]] = float(bits[2])
        vec[_IDX["name_mixed_case"]] = float(bits[3])

    vec[_IDX["aggregate_context"]] = float(_aggregate_context(node, index))

    if node.kind in BINARY_OP_KINDS:
        vec[_IDX["operand_type_compat"]] = float(operand_type_compat(node, frame, schema))
    if parent is not None and parent.kind in BINARY_OP_KINDS:
        parent_frame = resolve_scope(tree, parent, aliases, schema, index=index)
        vec[_IDX["parent_type_compat"]] = float(
            operand_type_compat(parent, parent_frame, schema)
        )

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


def featurize_tree(
    tree: SqlNode, aliases: AliasMap, schema: Schema
) -> tuple[list[SqlNode], np.ndarray]:
    """All nodes of one tree, featurized against a shared index."""
    index = build_index(tree)
    nodes = preorder(tree)
    matrix = np.empty((len(nodes), MANIFEST.length), dtype=np.float64)
    for i, node in enumerate(nodes):
        matrix[i] = featurize_node(node, tree, aliases, schema, index=index)
    return nodes, matrix
