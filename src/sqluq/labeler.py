"""Per-node correctness labeling of a generated SQL tree against a gold tree.

Labeling runs in three passes over the generated tree:

1. a contextual top-down alignment that pairs generated and gold subtrees
   and stops recursing wherever a pair is recursively equivalent,
2. a suppression pass that clears blame from structural containers whose
   kind also occurs in the gold tree, and
3. a global rescue pass that clears any remaining error node that is
   recursively equivalent to some gold node anywhere in the gold tree.

Equivalence is semantic rather than structural: symmetric operators may
match with swapped operands, anti-symmetric comparison pairs may match
with the operator flipped, and column qualifiers are normalized through
per-query alias-to-table maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from sqluq.ast_core import (
    AliasMap,
    BINARY_OP_KINDS,
    FLAG_QUALIFIER,
    FLAG_TABLE_NAME,
    NodeKind,
    SqlNode,
    build_alias_map,
    preorder,
)

# Container kinds whose blame is suppressed when the gold tree contains a
# node of the same kind ("only their children differ").
SUPPRESSIBLE_KINDS = frozenset(
    {
        NodeKind.SELECT,
        NodeKind.FROM,
        NodeKind.WHERE,
        NodeKind.GROUP_BY,
        NodeKind.HAVING,
        NodeKind.EQ,
        NodeKind.NEQ,
    }
)

# Operators whose operands may match in reverse order.
SYMMETRIC_KINDS = frozenset(
    {NodeKind.EQ, NodeKind.NEQ, NodeKind.ADD, NodeKind.MUL, NodeKind.AND, NodeKind.OR}
)

# Comparison pairs equivalent under operand swapping.
ANTI_SYMMETRIC_PAIRS = frozenset(
    {
        (NodeKind.GT, NodeKind.LT),
        (NodeKind.LT, NodeKind.GT),
        (NodeKind.GTE, NodeKind.LTE),
        (NodeKind.LTE, NodeKind.GTE),
    }
)

# Kinds whose identifier children restate information already captured by
# the node-level content/qualifier rules, so child matching skips them.
_LEAF_LIKE_KINDS = frozenset(
    {NodeKind.COLUMN, NodeKind.TABLE, NodeKind.STAR, NodeKind.TABLE_ALIAS}
)

CORRECT = 0
ERROR = 1


class Provenance(Enum):
    INITIAL = "Initial"
    FIRST_PASS = "FirstPass"
    SUPPRESSED = "Suppressed"
    RESCUED = "Rescued"


@dataclass
class LabelMap:
    """Binary labels (0 correct / 1 error) for every generated node."""

    labels: dict[int, int]
    provenance: dict[int, Provenance]

    def error_ids(self) -> set[int]:
        return {nid for nid, lab in self.labels.items() if lab == ERROR}


@dataclass
class EquivalenceContext:
    """Alias maps plus a memo cache for one (generated, gold) pair."""

    gen_aliases: AliasMap
    gold_aliases: AliasMap
    memo: dict[tuple[int, int], bool] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0


def _unwrap(node: SqlNode) -> SqlNode:
    """Alias wrappers are transparent for equivalence and pairing."""
    while node.kind is NodeKind.ALIAS:
        node = node.children[0]
    return node


def _match_children(node: SqlNode) -> list[SqlNode]:
    """Children participating in the one-to-one equivalence correspondence."""
    if node.kind in _LEAF_LIKE_KINDS:
        return []
    if node.kind is NodeKind.SUBQUERY:
        return [c for c in node.children if c.kind is not NodeKind.TABLE_ALIAS]
    return [_unwrap(c) for c in node.children]


def _pair_children(node: SqlNode) -> list[SqlNode]:
    """Children visited by the blame recursion (alias wrappers unwrapped).

    Identifier leaves under Column/Table/Star nodes restate the content
    the node-level rules already compare, so the recursion skips them;
    their labels come from subtree marking and the rescue pass.  This
    keeps final labels independent of gold child order.
    """
    if node.kind in _LEAF_LIKE_KINDS:
        return [c for c in node.children if c.kind is NodeKind.TABLE_ALIAS]
    return [_unwrap(c) for c in node.children]


def shallow_equivalent(a: SqlNode, b: SqlNode, ctx: EquivalenceContext) -> bool:
    """Node-level equivalence test, ignoring children: equal kinds or an
    anti-symmetric pair, equal contents, alias-resolved qualifiers."""
    a = _unwrap(a)
    b = _unwrap(b)
    if (a.kind, b.kind) in ANTI_SYMMETRIC_PAIRS:
        return True
    if a.kind is not b.kind:
        return False
    kind = a.kind

    if kind is NodeKind.COLUMN:
        if a.content != b.content:
            return False
        qa, qb = a.qualifier(), b.qualifier()
        if qa is None or qb is None or qa == qb:
            return True
        return ctx.gen_aliases.resolve(qa) == ctx.gold_aliases.resolve(qb)
    if kind is NodeKind.IDENTIFIER:
        # Qualifier and table-name identifiers compare alias-normalized so
        # consistent alias renames never create content errors.
        a_ref = FLAG_QUALIFIER in a.flags or FLAG_TABLE_NAME in a.flags
        b_ref = FLAG_QUALIFIER in b.flags or FLAG_TABLE_NAME in b.flags
        if a_ref and b_ref:
            return ctx.gen_aliases.resolve(a.content) == ctx.gold_aliases.resolve(b.content)
        return a.content == b.content
    if kind is NodeKind.LITERAL:
        return a.content == b.content and a.flags == b.flags
    if kind in (
        NodeKind.TABLE, NodeKind.FUNC, NodeKind.AGG, NodeKind.OTHER, NodeKind.ORDERED,
        NodeKind.JOIN,
    ):
        return a.content == b.content
    # other kinds, alias names included, never trigger content errors
    return True


def recursively_equivalent(a: SqlNode, b: SqlNode, ctx: EquivalenceContext) -> bool:
    """True when the two subtrees are semantically interchangeable."""
    a = _unwrap(a)
    b = _unwrap(b)
    key = (a.id, b.id)
    cached = ctx.memo.get(key)
    if cached is not None:
        ctx.hits += 1
        return cached
    ctx.misses += 1
    result = False
    if shallow_equivalent(a, b, ctx):
        ca = _match_children(a)
        cb = _match_children(b)
        if a.kind in (NodeKind.AND, NodeKind.OR):
            # every generated operand needs a distinct gold partner; extra
            # gold operands are omissions and omissions are not penalized
            result = len(ca) <= len(cb) and _greedy_bipartite_match(ca, cb, ctx)
        elif len(ca) != len(cb):
            result = False
        elif not ca:
            result = True
        elif a.kind in BINARY_OP_KINDS and len(ca) == 2:
            # operands correspond in order when the kinds are equal, and
            # crosswise when the kind is symmetric or the pair anti-symmetric
            result = False
            if a.kind is b.kind:
                result = recursively_equivalent(ca[0], cb[0], ctx) and recursively_equivalent(
                    ca[1], cb[1], ctx
                )
            if not result and (
                a.kind in SYMMETRIC_KINDS or (a.kind, b.kind) in ANTI_SYMMETRIC_PAIRS
            ):
                result = recursively_equivalent(ca[0], cb[1], ctx) and recursively_equivalent(
                    ca[1], cb[0], ctx
                )
        else:
            # clause lists, projection lists, argument lists: order-sensitive
            result = all(recursively_equivalent(x, y, ctx) for x, y in zip(ca, cb))
    ctx.memo[key] = result
    return result


def _greedy_bipartite_match(
    ca: list[SqlNode], cb: list[SqlNode], ctx: EquivalenceContext
) -> bool:
    """Order-free injective correspondence for n-ary symmetric connectives."""
    remaining = list(cb)
    for x in ca:
        for j, y in enumerate(remaining):
            if recursively_equivalent(x, y, ctx):
                del remaining[j]
                break
        else:
            return False
    return True


def label_with_context(
    gen: SqlNode, gold: SqlNode, enable_rescue: bool = True
) -> tuple[LabelMap, EquivalenceContext]:
    """Label every generated node against the gold tree.

    enable_rescue=False skips the global rescue pass (the ablation).  The
    equivalence context comes back too, for its alias maps and its memo
    hit/miss counts.
    """
    ctx = EquivalenceContext(build_alias_map(gen), build_alias_map(gold))
    gen_nodes = preorder(gen)
    labels = {n.id: ERROR for n in gen_nodes}
    prov = {n.id: Provenance.INITIAL for n in gen_nodes}

    def mark_subtree_correct(node: SqlNode):
        for d in node.walk():
            labels[d.id] = CORRECT
            prov[d.id] = Provenance.FIRST_PASS

    def align(ngen: SqlNode, ngold: SqlNode):
        if recursively_equivalent(ngen, ngold, ctx):
            mark_subtree_correct(ngen)
            return
        labels[ngen.id] = ERROR
        prov[ngen.id] = Provenance.FIRST_PASS
        for cgen in _pair_children(ngen):
            for cgold in _pair_children(ngold):
                align(cgen, cgold)

    align(gen, gold)

    gold_nodes = preorder(gold)
    gold_kinds = {n.kind for n in gold_nodes}
    for node in gen_nodes:
        if (
            labels[node.id] == ERROR
            and node.kind in SUPPRESSIBLE_KINDS
            and node.kind in gold_kinds
        ):
            labels[node.id] = CORRECT
            prov[node.id] = Provenance.SUPPRESSED

    if enable_rescue:
        for node in gen_nodes:
            if labels[node.id] != ERROR:
                continue
            for gnode in gold_nodes:
                if recursively_equivalent(node, gnode, ctx):
                    labels[node.id] = CORRECT
                    prov[node.id] = Provenance.RESCUED
                    break

    # alias wrappers mirror the expression they name
    for node in gen_nodes:
        if node.kind is NodeKind.ALIAS:
            inner = _unwrap(node)
            labels[node.id] = labels[inner.id]
            prov[node.id] = prov[inner.id]

    return LabelMap(labels=labels, provenance=prov), ctx


def error_descriptors(tree: SqlNode, label_map: LabelMap) -> list[tuple[str, str | None]]:
    """(kind, content) descriptors of the blamed nodes, in preorder."""
    return [n.descriptor() for n in preorder(tree) if label_map.labels[n.id] == ERROR]
