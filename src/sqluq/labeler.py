"""Per-node correctness labeling of a generated SQL tree against a gold tree.

Labeling runs in three passes over the generated tree:

1. a contextual top-down alignment that pairs generated and gold subtrees
   and stops recursing wherever a pair is recursively equivalent,
2. a suppression pass that clears blame from structural containers whose
   kind also occurs in the gold tree, and
3. a global rescue pass that clears any remaining error node that is
   recursively equivalent to some gold node anywhere in the gold tree.

After the alignment, one children-first sweep makes passes 2 and 3 and
has each alias wrapper take the label of the node it wraps.

Equivalence is semantic rather than structural: symmetric operators may
match with swapped operands, anti-symmetric comparison pairs may match
with the operator flipped, and column qualifiers are normalized through
per-query alias maps: plain dicts from case-folded alias to base table,
through which a name resolves as `aliases.get(name, name)`.

The alignment is defined by a forward visit order: a visit to a pair marks
the whole generated subtree correct if the pair is equivalent, and else
blames the generated node and visits every generated x gold pair of their
children, generated child outermost, in order.  The last visit to write a
node decides it.  Along one generated path the visits run in gold preorder,
so the last write has a closed form, computed in one top-down pass.  Pair
children are `_pair_children` (alias wrappers unwrapped), and depth counts
pair-child steps:

- L(x), the gold nodes x is visited with, is the gold root for the root;
  for each child of x it is the pair children of the members of L(x) that
  x is not equivalent to.
- latest(x) is the member of L(x) last in gold preorder, and seen(x) the
  latest gold node that a proper ancestor a is equivalent to among L(a).
- If latest(x) comes after seen(x), x and its subtree are correct when x
  is equivalent to latest(x), and x is blamed otherwise.  Else, if seen(x)
  exists, x and its subtree are correct.  Else x is never written.  The
  Identifier children of Column, Table and Star are never visited: they
  are correct when seen exists for them.

L is never built.  Q(x) lists, latest first, the members of L(x) that x is
not equivalent to and that have pair children; the last pair child of its
first member is latest for every child of x.  Q is found lazily, extending
the parent's Q only when its members run out.  The gold node that sets
seen is searched among the gold nodes with x's key and depth.

Every node has a subtree key, an integer built bottom-up that any two
recursively equivalent nodes share: an Alias takes the key of the node it
wraps; Lt and Lte are keyed as Gt and Gte with their operands swapped;
content counts only for Column, Table, Func, Agg, Other, Ordered and Join,
and for Literal together with its flags; an Identifier is keyed by kind
alone, because alias-resolved qualifiers are equal across contents; the
child keys of a symmetric binary kind are sorted; And and Or keep no child
keys, because a gold And may have more operands.  Unequal keys reject a
pair at once.  The keys also bucket the gold nodes the rescue pass tries
and the operands an And or Or match may pair; both trees are keyed first.

Keys are hash-consed (Filliâtre & Conchon, 2006): a key numbers its key
tuple in one table per pair, shared by both trees, so equal keys mean equal
key tuples.  A node is exact when neither it nor any node compared below it
is an And, Or, Identifier or qualified Column, the only nodes compared by
something their key leaves out (a gold And's extra operands, alias-resolved
names); a Column's, Table's or Star's children are never compared.  Two
exact nodes are recursively equivalent exactly when their keys are equal,
so such a pair is settled by its keys, before the memo and without recursion.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter

from sqluq.ast_core import (
    FLAG_QUALIFIER,
    FLAG_TABLE_NAME,
    Constants,
    NodeKind,
    SqlNode,
    build_alias_map,
    preorder,
)

# Container kinds whose blame is suppressed when the gold tree contains a
# node of the same kind ("only their children differ").
SUPPRESSIBLE_KINDS = frozenset({NodeKind.SELECT, NodeKind.FROM, NodeKind.WHERE, NodeKind.GROUP_BY,
                                NodeKind.HAVING, NodeKind.EQ, NodeKind.NEQ})

# Operators whose operands may match in reverse order.
SYMMETRIC_KINDS = frozenset(
    {NodeKind.EQ, NodeKind.NEQ, NodeKind.ADD, NodeKind.MUL, NodeKind.AND, NodeKind.OR})

# Anti-symmetric kinds keyed as their partner, with the operands swapped.
_FOLDED_KINDS = {NodeKind.LT: NodeKind.GT, NodeKind.LTE: NodeKind.GTE}

# Comparison pairs equivalent under operand swapping.
ANTI_SYMMETRIC_PAIRS = frozenset(p for a, b in _FOLDED_KINDS.items() for p in ((a, b), (b, a)))

# Kinds whose identifier children restate information already captured by
# the node-level content/qualifier rules, so child matching skips them.
_LEAF_LIKE_KINDS = frozenset(
    {NodeKind.COLUMN, NodeKind.TABLE, NodeKind.STAR, NodeKind.TABLE_ALIAS})

# Kinds whose content takes part in equivalence (Literal adds its flags).
_CONTENT_KINDS = frozenset({NodeKind.COLUMN, NodeKind.TABLE, NodeKind.FUNC, NodeKind.AGG,
                            NodeKind.OTHER, NodeKind.ORDERED, NodeKind.JOIN})

_ID = attrgetter("id")  # a node's id, read in C

CORRECT = 0
ERROR = 1


class Provenance(Constants):
    INITIAL = "Initial"
    FIRST_PASS = "FirstPass"
    SUPPRESSED = "Suppressed"
    RESCUED = "Rescued"


@dataclass
class LabelMap:
    """Binary labels (0 correct / 1 error) for every generated node."""

    labels: dict[int, int]
    provenance: dict[int, Provenance]


@dataclass
class EquivalenceContext:
    """Alias maps, subtree keys, exact node ids (empty: recursion decides) and
    a memo cache for one (generated, gold) pair; ids restart at 0 in each tree.
    The checks take only nodes that label_with_context has keyed, and never
    an Alias wrapper: callers pass the node it wraps."""

    gen_aliases: dict[str, str]
    gold_aliases: dict[str, str]
    gen_keys: dict[int, int] = field(default_factory=dict)
    gold_keys: dict[int, int] = field(default_factory=dict)
    gen_exact: set[int] = field(default_factory=set)
    gold_exact: set[int] = field(default_factory=set)
    memo: dict[tuple[int, int], bool] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0


def _match_children(node: SqlNode) -> list[SqlNode]:
    """Children participating in the one-to-one equivalence correspondence
    (alias wrappers unwrapped)."""
    if node.kind in _LEAF_LIKE_KINDS:
        return []
    if node.kind is NodeKind.SUBQUERY:
        return [c for c in node.children if c.kind is not NodeKind.TABLE_ALIAS]
    return [c.children[0] if c.kind is NodeKind.ALIAS else c for c in node.children]


def _pair_children(node: SqlNode) -> list[SqlNode]:
    """Children visited by the blame recursion (alias wrappers unwrapped).

    Identifier leaves under Column/Table/Star nodes restate the content
    the node-level rules already compare, so the recursion skips them;
    their labels come from subtree marking and the rescue pass.  This
    keeps final labels independent of gold child order.
    """
    if node.kind in _LEAF_LIKE_KINDS:
        return [c for c in node.children if c.kind is NodeKind.TABLE_ALIAS]
    return [c.children[0] if c.kind is NodeKind.ALIAS else c for c in node.children]


def _fill_keys(nodes: list[SqlNode], keys: dict[int, int], exact: set[int], table: dict):
    """Key every node of a preorder list, children before parents, by the key
    rule in the module docstring, numbering key tuples in the pair's `table`,
    and add the exact nodes' ids to `exact`.  An Alias's key is its wrapped
    node's, so a child's key in `keys` is already the unwrapped child's."""
    for node in reversed(nodes):
        kind = node.kind
        if kind in _LEAF_LIKE_KINDS:  # its children are never compared
            key = (kind, node.content if kind in _CONTENT_KINDS else None)
            if kind is not NodeKind.COLUMN or node.qualifier is None:
                exact.add(node.id)
        elif kind is NodeKind.IDENTIFIER or kind is NodeKind.AND or kind is NodeKind.OR:
            key = (kind,)
        elif kind is NodeKind.LITERAL:
            key = (kind, node.content, node.flags)
            exact.add(node.id)
        elif kind is NodeKind.ALIAS:
            inner = node.children[0].id
            keys[node.id] = keys[inner]
            if inner in exact:
                exact.add(node.id)
            continue
        else:  # a Subquery's TableAlias is never compared
            children = node.children
            child_keys = [keys[c.id] for c in children if c.kind is not NodeKind.TABLE_ALIAS]
            if exact.issuperset(map(_ID, children)):
                exact.add(node.id)
            if kind in SYMMETRIC_KINDS:
                child_keys.sort()
            elif kind in _FOLDED_KINDS:
                kind = _FOLDED_KINDS[kind]
                child_keys.reverse()
            key = (kind, node.content if kind in _CONTENT_KINDS else None, *child_keys)
        keys[node.id] = table.setdefault(key, len(table))


def shallow_equivalent(a: SqlNode, b: SqlNode, ctx: EquivalenceContext) -> bool:
    """Node-level equivalence test, ignoring children: equal kinds or an
    anti-symmetric pair, equal contents, alias-resolved qualifiers.  Takes
    keyed nodes, neither an Alias wrapper (see EquivalenceContext)."""
    kind = a.kind
    if kind is not b.kind:
        return (kind, b.kind) in ANTI_SYMMETRIC_PAIRS

    if kind is NodeKind.COLUMN:
        if a.content != b.content:
            return False
        qa, qb = a.qualifier, b.qualifier
        if qa is None or qb is None or qa == qb:
            return True
        return ctx.gen_aliases.get(qa, qa) == ctx.gold_aliases.get(qb, qb)
    if kind is NodeKind.IDENTIFIER:
        # Qualifier and table-name identifiers compare alias-normalized so
        # consistent alias renames never create content errors.
        a_ref = FLAG_QUALIFIER in a.flags or FLAG_TABLE_NAME in a.flags
        b_ref = FLAG_QUALIFIER in b.flags or FLAG_TABLE_NAME in b.flags
        if a_ref and b_ref:
            return (ctx.gen_aliases.get(a.content, a.content)
                    == ctx.gold_aliases.get(b.content, b.content))
        return a.content == b.content
    if kind is NodeKind.LITERAL:
        return a.content == b.content and a.flags == b.flags
    if kind in _CONTENT_KINDS:
        return a.content == b.content
    # other kinds, alias names included, never trigger content errors
    return True


def recursively_equivalent(a: SqlNode, b: SqlNode, ctx: EquivalenceContext) -> bool:
    """True when the two subtrees are semantically interchangeable.  Takes
    keyed nodes, neither an Alias wrapper (see EquivalenceContext)."""
    if ctx.gen_keys[a.id] != ctx.gold_keys[b.id]:
        return False
    if a.id in ctx.gen_exact and b.id in ctx.gold_exact:
        return True  # equal exact keys: equivalent by the key rule alone
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
        kind = a.kind
        if kind is NodeKind.AND or kind is NodeKind.OR:
            # every generated operand needs a distinct gold partner; extra
            # gold operands are omissions and omissions are not penalized
            result = len(ca) <= len(cb) and _greedy_bipartite_match(ca, cb, ctx)
        elif len(ca) == len(cb):
            # children correspond in order when the kinds are equal; the two
            # operands of a symmetric kind may also match crosswise, and those
            # of an anti-symmetric pair (the only unequal kinds that pass
            # shallow_equivalent) must
            result = kind is b.kind
            if result:
                for x, y in zip(ca, cb):
                    if not recursively_equivalent(x, y, ctx):
                        result = False
                        break
            if not result and (kind in SYMMETRIC_KINDS or kind is not b.kind):
                result = recursively_equivalent(ca[0], cb[1], ctx) and recursively_equivalent(
                    ca[1], cb[0], ctx)
    ctx.memo[key] = result
    return result


def _greedy_bipartite_match(
    ca: list[SqlNode], cb: list[SqlNode], ctx: EquivalenceContext
) -> bool:
    """Order-free injective correspondence for n-ary symmetric connectives.

    Each generated operand takes the first unused gold operand, in gold
    order, that is equivalent to it; only gold operands with its key can be.
    """
    by_key: dict[int, list[SqlNode]] = {}
    for y in cb:
        by_key.setdefault(ctx.gold_keys[y.id], []).append(y)
    for x in ca:
        candidates = by_key.get(ctx.gen_keys[x.id], [])
        for j, y in enumerate(candidates):
            if recursively_equivalent(x, y, ctx):
                del candidates[j]
                break
        else:
            return False
    return True


def _first_pass(gen: SqlNode, gold_nodes: list[SqlNode], ctx: EquivalenceContext,
                size: int) -> list[int | None]:
    """The alignment's label of each of the `size` generated nodes, by id, by
    the closed form in the module docstring; None where it writes none.  A
    gold id indexes `gold_nodes`, the gold tree in preorder."""
    gold = gold_nodes[0]
    gold_kids: dict[int, list[SqlNode]] = {}
    buckets: dict[tuple[int, int], list[int]] = {}  # (key, depth) -> gold ids in preorder
    gold_keys, stack, depths = ctx.gold_keys, [gold], [0]
    while stack:
        g, depth = stack.pop(), depths.pop()
        buckets.setdefault((gold_keys[g.id], depth), []).append(g.id)
        gold_kids[g.id] = kids = _pair_children(g) if g.children else []
        stack.extend(reversed(kids))
        depths.extend(repeat(depth + 1, len(kids)))

    decided: list[int | None] = [None] * size
    up: dict[int, SqlNode] = {}  # a blamed node's pair children -> it
    # Q(x) as far as it is found, and where its search of L(x) stopped: an
    # index into Q(parent) and one into that member's pair children
    queue = {gen.id: [gold] if gold_kids[gold.id] else []}
    at: dict[int, list[int]] = {}
    complete = {gen.id}  # nodes whose Q is found in full

    def grow(x: SqlNode) -> bool:
        """Find the next member of Q(x); False when there is none."""
        pending = [x]
        while pending:
            y = pending[-1]
            p = up[y.id]
            above, pos = queue[p.id], at[y.id]
            while pos[1] < 0 and pos[0] + 1 < len(above):
                pos[0] += 1
                pos[1] = len(gold_kids[above[pos[0]].id]) - 1
            if pos[1] < 0:  # Q(parent) so far is used up
                if p.id in complete:
                    complete.add(y.id)
                    pending.pop()
                else:
                    pending.append(p)
                continue
            h = gold_kids[above[pos[0]].id][pos[1]]
            pos[1] -= 1
            if gold_kids[h.id] and not recursively_equivalent(y, h, ctx):
                queue[y.id].append(h)
                pending.pop()
        return x.id not in complete

    def partner(x: SqlNode, depth: int, latest: SqlNode, seen: SqlNode | None):
        """The latest gold node of x's bucket between `seen` and `latest`
        that x is equivalent to.  One outside L(x) lies under an ancestor's
        equivalent pair, after `seen`, so in the subtree of the latest such
        gold node; no member of L below x lies there, so each compares with
        it as with `seen`."""
        bucket = buckets.get((ctx.gen_keys[x.id], depth), [])
        floor = -1 if seen is None else seen.id
        i = bisect_left(bucket, latest.id)
        while i and bucket[i - 1] > floor:
            i -= 1
            if recursively_equivalent(x, gold_nodes[bucket[i]], ctx):
                return gold_nodes[bucket[i]]
        return None

    def mark(node: SqlNode):  # node's subtree is ids node.id to its last node's, in preorder
        last = node
        while last.children:
            last = last.children[-1]
        decided[node.id:last.id + 1] = [CORRECT] * (last.id + 1 - node.id)

    todo: list[tuple[SqlNode, int, SqlNode | None, SqlNode | None]] = [(gen, 0, gold, None)]
    while todo:
        x, depth, latest, seen = todo.pop()
        if latest is None or (seen is not None and seen.id > latest.id):
            if seen is not None:
                mark(x)
            continue
        if recursively_equivalent(x, latest, ctx):
            mark(x)
            continue
        decided[x.id] = ERROR
        if x.children:
            seen = partner(x, depth, latest, seen) or seen
        kids = _pair_children(x)
        if kids:
            if x is not gen:
                queue[x.id], at[x.id] = [], [-1, -1]
            below = gold_kids[queue[x.id][0].id][-1] if queue[x.id] or grow(x) else None
            for c in kids:
                up[c.id] = x
                todo.append((c, depth + 1, below, seen))
        if seen is not None and x.kind in _LEAF_LIKE_KINDS:  # children no pair visit reaches
            for c in x.children:
                if c.kind is not NodeKind.TABLE_ALIAS:
                    mark(c)
    return decided


def label_with_context(
    gen: SqlNode, gold: SqlNode, enable_rescue: bool = True
) -> tuple[LabelMap, EquivalenceContext]:
    """Label every generated node against the gold tree.

    enable_rescue=False skips the global rescue pass (the ablation).  The
    equivalence context comes back too, for its alias maps and its memo
    hit/miss counts.
    """
    ctx = EquivalenceContext(build_alias_map(gen), build_alias_map(gold))
    table: dict[tuple, int] = {}  # key tuple -> key, shared by both trees
    gold_nodes, gen_nodes = preorder(gold), preorder(gen)
    _fill_keys(gold_nodes, ctx.gold_keys, ctx.gold_exact, table)
    _fill_keys(gen_nodes, ctx.gen_keys, ctx.gen_exact, table)
    first = _first_pass(gen, gold_nodes, ctx, len(gen_nodes))

    gold_kinds = {n.kind for n in gold_nodes}
    # gold nodes by key, for rescue; alias wrappers sit out: a generated one
    # mirrors the node it wraps, and a gold one is equivalent to exactly what
    # its node is
    rescuers: dict[int, list[SqlNode]] = {}
    for gnode in gold_nodes if enable_rescue else ():
        if gnode.kind is not NodeKind.ALIAS:
            rescuers.setdefault(ctx.gold_keys[gnode.id], []).append(gnode)

    labels, prov = {}, {}
    for node in reversed(gen_nodes):  # children first, so an alias finds its node decided
        if node.kind is NodeKind.ALIAS:
            inner = node.children[0]
            labels[node.id], prov[node.id] = labels[inner.id], prov[inner.id]
            continue
        label, why = first[node.id], Provenance.FIRST_PASS
        if label is None:
            label, why = ERROR, Provenance.INITIAL
        if label == ERROR and node.kind in SUPPRESSIBLE_KINDS and node.kind in gold_kinds:
            label, why = CORRECT, Provenance.SUPPRESSED
        elif label == ERROR:
            for gnode in rescuers.get(ctx.gen_keys[node.id], ()):
                if recursively_equivalent(node, gnode, ctx):
                    label, why = CORRECT, Provenance.RESCUED
                    break
        labels[node.id], prov[node.id] = label, why

    return LabelMap(labels=labels, provenance=prov), ctx


def error_descriptors(tree: SqlNode, label_map: LabelMap) -> list[tuple[str, str | None]]:
    """(kind, content) descriptors of the blamed nodes, in preorder."""
    return [(n.kind.value, n.content) for n in preorder(tree) if label_map.labels[n.id] == ERROR]
