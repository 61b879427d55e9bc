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
aggregate while it has no GROUP BY.  The name-dependent features read facts
built once per name and schema (see _name_facts): each schema remembers,
by case-folded name, whether the name is a column, a table, has a digit or
an underscore, and its nearest schema identifier (the one nearest-name
lookup; None in a schema without identifiers).  The matrix is built flat,
in one array of floats: each node appends a row of defaults and writes
only the cells it changes, at flat position row * 89 + column, and the
array becomes the matrix without a copy.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

try:  # CPython's builtin SHA-256 (3.12+, then 3.10-3.11): hashlib would map OpenSSL's libcrypto
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from sqluq.ast_core import (
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
# names a schema remembers the facts of, so that a stream of new names cannot grow it
_NEAREST_MEMO_SIZE = 4096

KIND_ORDER: tuple[NodeKind, ...] = tuple(NodeKind)


class Compat:  # a binary operator's operand type agreement, as its feature cell holds it
    UNKNOWN = 0  # neutral default
    COMPATIBLE = 1
    INCOMPATIBLE = 2


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
    digest = sha256(
        "\n".join(f"{n}={d}" for n, d in zip(names, defaults)).encode("utf-8")
    ).hexdigest()[:16]
    return FeatureManifest(names=tuple(names), defaults=tuple(defaults), version_hash=digest)


MANIFEST = _build_manifest()

_IDX = {name: i for i, name in enumerate(MANIFEST.names)}
# the one-hot column of each node kind, and of each parent kind (None: no parent)
_KIND_COLUMN = {kind: _IDX[f"kind={kind.value}"] for kind in KIND_ORDER}
_PARENT_KIND_COLUMN = {None: _IDX["parent_kind=none"]} | {
    kind: _IDX[f"parent_kind={kind.value}"] for kind in KIND_ORDER
}
# the other columns that featurize_tree writes
_DEPTH, _CHILD_COUNT, _SIBLING_INDEX, _SCHEMA_VALID, _COLUMN_IN_SCOPE = (
    _IDX[n] for n in ("depth", "child_count", "sibling_index", "schema_valid", "column_in_scope"))
_QUALIFIER_SCOPE_VALID, _COLUMN_AMBIGUOUS, _AGGREGATE_CONTEXT, _LEVENSHTEIN_NEAREST = (
    _IDX[n] for n in ("qualifier_scope_valid", "column_ambiguous", "aggregate_context",
                      "levenshtein_nearest"))
_HAS_DIGIT, _HAS_UNDERSCORE, _ALL_CAPS, _MIXED_CASE = (
    _IDX[n] for n in ("name_has_digit", "name_has_underscore", "name_all_caps", "name_mixed_case"))
_OPERAND_TYPE_COMPAT, _PARENT_TYPE_COMPAT, _LIKE_HAS_WILDCARD, _LIKE_PATTERN_LENGTH = (
    _IDX[n] for n in ("operand_type_compat", "parent_type_compat", "like_has_wildcard",
                      "like_pattern_length"))
_IN_LIST_SIZE = _IDX["in_list_size"]
_DEFAULT_ROW = array("d", MANIFEST.defaults)
_WIDTH = MANIFEST.length
# the kinds whose content is a name, with validity and lexical features
_NAME_KINDS = frozenset({NodeKind.TABLE, NodeKind.COLUMN, NodeKind.IDENTIFIER})


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


def _char_masks(a: str) -> dict[str, int]:
    """Bit i of ``masks[c]`` is set where ``a[i] == c``."""
    masks: dict[str, int] = {}
    for i, c in enumerate(a):
        masks[c] = masks.get(c, 0) | 1 << i
    return masks


def _edit_distance(masks: dict[str, int], m: int, b: str) -> int:
    """Edit distance from the m-character string behind ``masks`` to b, one
    column of the DP table per character of b, by Myers' bit-vector
    algorithm (JACM 1999) in Hyyrö's form.  Bit i of pv and mv is set where
    the column's cell i + 1 is one more and one less than cell i."""
    if not m:
        return len(b)
    full, top = (1 << m) - 1, 1 << (m - 1)
    pv, mv, dist = full, 0, m
    for c in b:
        eq = masks.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & top:
            dist += 1
        elif mh & top:
            dist -= 1
        ph = ph << 1 | 1  # row 0 grows by one per column
        pv = (mh << 1 | ~(xv | ph)) & full
        mv = ph & xv
    return dist


def _name_facts(name: str, schema: Schema) -> tuple:
    """(a column?, a table?, has a digit?, has an underscore?, nearest schema
    identifier and its distance) of one name.  The nearest is the name
    itself for a table or column name, None in a schema without
    identifiers, and searched for once otherwise.  Each schema remembers the
    facts of its first _NEAREST_MEMO_SIZE names, by case-folded name."""
    folded = name.casefold()
    facts = schema.name_memo.get(folded)
    if facts is None:
        column, table = schema.has_column(folded), schema.has_table(folded)
        nearest = (folded, 0) if column or table else _nearest(folded, schema.identifier_names)
        facts = column, table, any(map(str.isdigit, folded)), "_" in folded, nearest
        if len(schema.name_memo) < _NEAREST_MEMO_SIZE:
            schema.name_memo[folded] = facts
    return facts


def _nearest(folded: str, candidates: tuple[str, ...]) -> tuple[str, int] | None:
    if not candidates:
        return None
    masks, m = _char_masks(folded), len(folded)
    best_name, best_dist = None, None
    for cand in candidates:  # sorted, so first minimum wins ties
        if best_dist is not None and abs(len(cand) - m) >= best_dist:
            continue  # the length gap alone is as far as the best
        d = _edit_distance(masks, m, cand)
        if best_dist is None or d < best_dist:
            best_name, best_dist = cand, d
    return best_name, best_dist


_COMPAT_CLASSES = {
    DataType.NUMERIC: "num",
    DataType.BOOL: "num",  # SQLite stores booleans numerically
    DataType.TEXT: "text",
    DataType.DATE: "text",  # SQLite date literals are strings
}


def _operand_class(node: SqlNode, frame: ScopeFrame, schema: Schema) -> str | None:
    """Compat class of one operand, "num" or "text": a literal's by its
    lexeme class, a column's by its schema type; None when unknown."""
    if node.kind is NodeKind.LITERAL:
        if FLAG_NULL in node.flags:
            return None
        return "text" if FLAG_STRING in node.flags else "num"
    if node.kind is not NodeKind.COLUMN:
        return None
    if node.qualifier is not None:
        table = frame.aliases.get(node.qualifier, node.qualifier)
        return _COMPAT_CLASSES.get(schema.column_type(table, node.content))
    # one type among the carriers first: a DATE carrier beside a TEXT one is unknown
    types = {schema.column_type(t, node.content) for t in frame.carriers(node.content, schema)}
    return _COMPAT_CLASSES.get(types.pop()) if len(types) == 1 else None


def operand_type_compat(op_node: SqlNode, frame: ScopeFrame, schema: Schema) -> int:
    """Type agreement of a binary operator's two operands."""
    left = _operand_class(op_node.children[0], frame, schema)
    right = _operand_class(op_node.children[1], frame, schema)
    if left is None or right is None:
        return Compat.UNKNOWN
    return Compat.COMPATIBLE if left == right else Compat.INCOMPATIBLE


def node_logprob_scores(
    nodes: list[SqlNode], token_logprobs: list[tuple[int, int, float]]
) -> list[float | None]:
    """Each node's mean log-probability over the tokens whose spans overlap
    its span, or None where no token does.

    Token [ts, te) overlaps [start, end) when ts < end and te > start.  As
    ts < te, the tokens with te <= start are among those with ts < end, and
    the overlapping ones are the rest: two binary searches over prefix sums.
    Each logprob is summed as the integer lp * 2**1074, so sums are exact."""
    def prefix_sums(tokens):
        sums = [0]
        for _, _, lp in tokens:
            num, den = lp.as_integer_ratio()
            sums.append(sums[-1] + num * ((1 << 1074) // den))
        return sums

    by_start, by_end = sorted(token_logprobs), sorted(token_logprobs, key=itemgetter(1))
    starts, start_sums = [t[0] for t in by_start], prefix_sums(by_start)
    ends, end_sums = [t[1] for t in by_end], prefix_sums(by_end)
    scores = []
    for node in nodes:
        start, end = node.span
        i, j = bisect_left(starts, end), bisect_right(ends, start)
        scores.append((start_sums[i] - end_sums[j]) / ((i - j) << 1074) if i > j else None)
    return scores


_CLAUSE_KINDS = frozenset({NodeKind.FROM, NodeKind.WHERE, NodeKind.GROUP_BY, NodeKind.HAVING,
                           NodeKind.ORDER_BY, NodeKind.LIMIT})

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


def featurize_tree(
    tree: SqlNode, aliases: dict[str, str], schema: Schema
) -> tuple[list[SqlNode], np.ndarray]:
    """Every node of one tree in preorder, and one feature row per node in
    the same order."""
    nodes: list[SqlNode] = []
    # the rows, flat: each node appends a default row, then writes the cells
    # it changes at flat position row + column
    cells = array("d")
    name_memo = schema.name_memo
    # (node, parent's kind, sibling index, scope frame, level's bare-aggregate
    #  bit, projected: inside its level's SELECT list and outside any aggregate
    #  call, the parent's operand_type_compat)
    stack = [(tree, None, 0, ScopeFrame(tables=(), aliases=aliases), False, False, None)]
    while stack:
        node, parent_kind, sibling, frame, bare_agg, projected, parent_compat = stack.pop()
        kind, children = node.kind, node.children
        is_select = kind is NodeKind.SELECT
        if is_select:
            frame = frame.enter(node)
            bare_agg = _bare_aggregate(node)
        # computed once per operator; an operand is never a SELECT, so it
        # shares its operator's frame
        compat = operand_type_compat(node, frame, schema) if kind in BINARY_OP_KINDS else None
        nodes.append(node)
        row = len(cells)
        cells += _DEFAULT_ROW
        cells[row + _KIND_COLUMN[kind]] = 1.0
        cells[row + _DEPTH] = node.depth
        cells[row + _PARENT_KIND_COLUMN[parent_kind]] = 1.0
        cells[row + _CHILD_COUNT] = len(children)
        cells[row + _SIBLING_INDEX] = sibling
        if kind in _NAME_KINDS:
            name, flags = node.content, node.flags  # content is case-folded
            column, table, digit, underscore, nearest = (
                name_memo.get(name) or _name_facts(name, schema))
            if kind is NodeKind.COLUMN:
                valid = column
            elif kind is NodeKind.TABLE or FLAG_TABLE_NAME in flags:
                valid = table
            elif FLAG_QUALIFIER in flags:
                valid = name in frame.aliases or table
            else:
                valid = column or table
            if valid:
                cells[row + _SCHEMA_VALID] = 1.0
                cells[row + _LEVENSHTEIN_NEAREST] = 0.0
            elif nearest:  # None in a schema without identifiers: the sentinel stays
                cells[row + _LEVENSHTEIN_NEAREST] = min(nearest[1], LEVENSHTEIN_SENTINEL)
            cells[row + _HAS_DIGIT] = digit
            cells[row + _HAS_UNDERSCORE] = underscore
            # case patterns come from parse-time flags
            cells[row + _ALL_CAPS] = FLAG_ALL_CAPS in flags
            cells[row + _MIXED_CASE] = FLAG_MIXED_CASE in flags
            if kind is NodeKind.COLUMN:
                carriers = frame.carriers(name, schema)
                cells[row + _COLUMN_IN_SCOPE] = bool(carriers)
                cells[row + _AGGREGATE_CONTEXT] = bare_agg and projected
                if node.qualifier is not None:
                    cells[row + _QUALIFIER_SCOPE_VALID] = (
                        node.qualifier in frame.aliases or node.qualifier in frame.tables)
                else:
                    cells[row + _COLUMN_AMBIGUOUS] = len(carriers) >= 2
        if compat:  # None and Compat.UNKNOWN keep the default, 0
            cells[row + _OPERAND_TYPE_COMPAT] = compat
        if parent_compat:
            cells[row + _PARENT_TYPE_COMPAT] = parent_compat
        if kind is NodeKind.LIKE and len(children) >= 2:
            pattern = children[1]
            if pattern.kind is NodeKind.LITERAL and FLAG_STRING in pattern.flags:
                cells[row + _LIKE_HAS_WILDCARD] = "%" in pattern.content or "_" in pattern.content
                cells[row + _LIKE_PATTERN_LENGTH] = len(pattern.content)
        elif kind is NodeKind.IN:
            items = children[1:]
            if not (len(items) == 1 and items[0].kind is NodeKind.SUBQUERY):
                cells[row + _IN_LIST_SIZE] = len(items)
        for i in range(len(children) - 1, -1, -1) if children else ():
            child = children[i]
            in_list = child.kind not in _CLAUSE_KINDS if is_select else projected
            stack.append((child, kind, i, frame, bare_agg,
                          in_list and child.kind is not NodeKind.AGG, compat))
    return nodes, np.frombuffer(cells).reshape(len(nodes), _WIDTH)
