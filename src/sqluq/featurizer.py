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

featurize_tree makes one preorder walk per tree.  The level-dependent
features read facts built once per query level, when the walk enters its
SELECT: the level's scope frame and whether its SELECT list holds an
aggregate while it has no GROUP BY.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import IntEnum

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
    NodeKind,
    SqlNode,
)
from sqluq.schema import DataType, Schema, ScopeFrame

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
            return schema.column_type(frame.aliases.resolve(qualifier), node.content)
        types = {schema.column_type(t, node.content) for t in frame.carriers(node.content, schema)}
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


_CLAUSE_KINDS = frozenset(
    {
        NodeKind.FROM, NodeKind.WHERE, NodeKind.GROUP_BY, NodeKind.HAVING,
        NodeKind.ORDER_BY, NodeKind.LIMIT,
    }
)

def _bare_aggregate(select: SqlNode) -> bool:
    """True when the SELECT list holds an aggregate call of this query level
    (one inside a nested subquery belongs to that level) and the level has
    no GROUP BY."""
    if any(c.kind is NodeKind.GROUP_BY for c in select.children):
        return False
    stack = [c for c in select.children if c.kind not in _CLAUSE_KINDS]
    while stack:
        node = stack.pop()
        if node.kind is NodeKind.AGG:
            return True
        if node.kind is not NodeKind.SUBQUERY:
            stack.extend(node.children)
    return False


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
            ok = node.content in frame.aliases.entries or schema.has_table(node.content)
            return int(ok), node.content
        return int(schema.has_column(node.content) or schema.has_table(node.content)), node.content
    return 0, None


def _node_row(
    node: SqlNode,
    parent: SqlNode | None,
    sibling: int,
    frame: ScopeFrame,
    aggregate_context: bool,
    compat: Compat | None,
    parent_compat: Compat | None,
    schema: Schema,
) -> list[float]:
    """One node's feature row; identical layout for every node.  compat and
    parent_compat are the operand_type_compat of the node and of its
    parent, None where that is not a binary operator."""
    row = list(MANIFEST.defaults)
    row[_IDX[f"kind={node.kind.value}"]] = 1.0
    row[_IDX["depth"]] = float(node.depth)
    if parent is None:
        row[_IDX["parent_kind=none"]] = 1.0
    else:
        row[_IDX[f"parent_kind={parent.kind.value}"]] = 1.0
    row[_IDX["child_count"]] = float(len(node.children))
    row[_IDX["sibling_index"]] = float(sibling)

    valid, lexical_name = _schema_validity(node, frame, schema)
    row[_IDX["schema_valid"]] = float(valid)

    if node.kind is NodeKind.COLUMN:
        carriers = frame.carriers(node.content, schema)
        row[_IDX["column_in_scope"]] = float(bool(carriers))
        qualifier = node.qualifier()
        if qualifier is not None:
            known = qualifier in frame.aliases.entries or qualifier in frame.table_names()
            row[_IDX["qualifier_scope_valid"]] = float(known)
        else:
            row[_IDX["column_ambiguous"]] = float(len(carriers) >= 2)

    if lexical_name is not None:
        if valid:
            row[_IDX["levenshtein_nearest"]] = 0.0
        else:
            try:
                _, dist = nearest_schema_identifier(lexical_name, schema)
                row[_IDX["levenshtein_nearest"]] = float(min(dist, LEVENSHTEIN_SENTINEL))
            except EmptySchema:
                pass  # keep the sentinel
        bits = _name_pattern_bits(node, lexical_name)
        row[_IDX["name_has_digit"]] = float(bits[0])
        row[_IDX["name_has_underscore"]] = float(bits[1])
        row[_IDX["name_all_caps"]] = float(bits[2])
        row[_IDX["name_mixed_case"]] = float(bits[3])

    row[_IDX["aggregate_context"]] = float(aggregate_context)

    if compat is not None:
        row[_IDX["operand_type_compat"]] = float(compat)
    if parent_compat is not None:
        row[_IDX["parent_type_compat"]] = float(parent_compat)

    if node.kind is NodeKind.LIKE and len(node.children) >= 2:
        pattern = node.children[1]
        if pattern.kind is NodeKind.LITERAL and FLAG_STRING in pattern.flags:
            row[_IDX["like_has_wildcard"]] = float("%" in pattern.content or "_" in pattern.content)
            row[_IDX["like_pattern_length"]] = float(len(pattern.content))
    if node.kind is NodeKind.IN:
        items = node.children[1:]
        if not (len(items) == 1 and items[0].kind is NodeKind.SUBQUERY):
            row[_IDX["in_list_size"]] = float(len(items))
    return row


def featurize_tree(
    tree: SqlNode, aliases: AliasMap, schema: Schema
) -> tuple[list[SqlNode], np.ndarray]:
    """Every node of one tree in preorder, and one feature row per node in
    the same order."""
    nodes: list[SqlNode] = []
    rows: list[list[float]] = []
    # (node, parent, sibling index, scope frame, level's bare-aggregate bit,
    #  projected: inside its level's SELECT list and outside any aggregate call,
    #  the parent's operand_type_compat)
    stack = [(tree, None, 0, ScopeFrame(tables=(), aliases=aliases), False, False, None)]
    while stack:
        node, parent, sibling, frame, bare_agg, projected, parent_compat = stack.pop()
        is_select = node.kind is NodeKind.SELECT
        if is_select:
            frame = frame.enter(node, schema)
            bare_agg = _bare_aggregate(node)
        aggregate_context = node.kind is NodeKind.COLUMN and bare_agg and projected
        # computed once per operator; an operand is never a SELECT, so it
        # shares its operator's frame
        compat = operand_type_compat(node, frame, schema) if node.kind in BINARY_OP_KINDS else None
        nodes.append(node)
        rows.append(_node_row(node, parent, sibling, frame, aggregate_context, compat,
                              parent_compat, schema))
        for i in range(len(node.children) - 1, -1, -1):
            child = node.children[i]
            in_list = child.kind not in _CLAUSE_KINDS if is_select else projected
            stack.append((child, node, i, frame, bare_agg,
                          in_list and child.kind is not NodeKind.AGG, compat))
    return nodes, np.array(rows, dtype=np.float64)
