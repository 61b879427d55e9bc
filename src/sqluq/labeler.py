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

The alignment is defined by a forward visit order: a visit to a pair marks
the whole generated subtree correct if the pair is equivalent, and else
blames the generated node and visits every generated x gold pair of their
children, generated child outermost, in order.  The last visit to write a
node decides it.  It is computed by replaying those visits in reverse, on
an explicit stack, where the first write to a node wins and later writes
are dropped:

- each generated node keeps a count of the undecided nodes in its subtree,
  recomputed from its children's counts when a visit to it ends, and a
  visit to a subtree with none left is skipped;
- a node is frozen when it is decided and its pair children have no
  undecided node left: a visit to it writes only if the pair is
  equivalent;
- a node is settled when it is decided and each of its pair children that
  has undecided nodes is frozen: a visit to it writes only if the pair, or
  a pair of such a child and a gold child, is equivalent.  So a run of
  visits to a settled node tries only the gold nodes that share its key or
  have a child sharing the key of one of its frozen children.

Every node has a subtree key, an integer built bottom-up that any two
recursively equivalent nodes share: an Alias takes the key of the node it
wraps; Lt and Lte are keyed as Gt and Gte with their operands swapped;
content counts only for Column, Table, Func, Agg, Other, Ordered and Join,
and for Literal together with its flags; an Identifier is keyed by kind
alone, because alias-resolved qualifiers are equal across contents; the
child keys of a symmetric binary kind are sorted; And and Or keep no child
keys, because a gold And may have more operands.  Unequal keys reject a
pair at once.  The keys also bucket the gold nodes the rescue pass tries
and the operands an And or Or match may pair.
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

# Kinds whose content takes part in equivalence (Literal adds its flags).
_CONTENT_KINDS = frozenset(
    {
        NodeKind.COLUMN, NodeKind.TABLE, NodeKind.FUNC, NodeKind.AGG, NodeKind.OTHER,
        NodeKind.ORDERED, NodeKind.JOIN,
    }
)

# Anti-symmetric kinds keyed as their partner, with the operands swapped.
_FOLDED_KINDS = {NodeKind.LT: NodeKind.GT, NodeKind.LTE: NodeKind.GTE}

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
    """Alias maps, subtree keys and a memo cache for one (generated, gold)
    pair.  Node ids restart at 0 in each tree, so each tree has its own key
    map; a subtree's keys are filled the first time it is compared."""

    gen_aliases: AliasMap
    gold_aliases: AliasMap
    gen_keys: dict[int, int] = field(default_factory=dict)
    gold_keys: dict[int, int] = field(default_factory=dict)
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


def _node_key(node: SqlNode, keys: dict[int, int]) -> int:
    """The subtree key of `node`, given its children's keys in `keys`."""
    kind = node.kind
    if kind is NodeKind.ALIAS:
        return keys[node.children[0].id]
    if kind is NodeKind.AND or kind is NodeKind.OR or kind is NodeKind.IDENTIFIER:
        return hash(kind)
    if kind is NodeKind.LITERAL:
        return hash((kind, node.content, node.flags))
    child_keys = [keys[c.id] for c in _match_children(node)]
    if kind in SYMMETRIC_KINDS:
        child_keys.sort()
    elif kind in _FOLDED_KINDS:
        kind = _FOLDED_KINDS[kind]
        child_keys.reverse()
    return hash((kind, node.content if kind in _CONTENT_KINDS else None, *child_keys))


def _fill_keys(nodes: list[SqlNode], keys: dict[int, int]):
    """Key every node of a preorder list, children before parents."""
    for node in reversed(nodes):
        keys[node.id] = _node_key(node, keys)


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
    if kind in _CONTENT_KINDS:
        return a.content == b.content
    # other kinds, alias names included, never trigger content errors
    return True


def recursively_equivalent(a: SqlNode, b: SqlNode, ctx: EquivalenceContext) -> bool:
    """True when the two subtrees are semantically interchangeable."""
    a = _unwrap(a)
    b = _unwrap(b)
    try:
        same_key = ctx.gen_keys[a.id] == ctx.gold_keys[b.id]
    except KeyError:  # the first comparison of a subtree outside label_with_context
        _fill_keys(preorder(a), ctx.gen_keys)
        _fill_keys(preorder(b), ctx.gold_keys)
        same_key = ctx.gen_keys[a.id] == ctx.gold_keys[b.id]
    if not same_key:
        return False
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


def _first_pass(
    gen_nodes: list[SqlNode], gold: SqlNode, ctx: EquivalenceContext
) -> dict[int, int]:
    """The alignment's label of every node it decides, by reverse replay;
    `gen_nodes` is the generated tree in preorder.

    `undecided[n]` counts the undecided nodes of n's subtree, alias
    wrappers left out: their labels mirror the node they wrap.
    """
    gen = gen_nodes[0]
    gen_keys = ctx.gen_keys
    kids: dict[int, list[SqlNode]] = {}  # children, alias wrappers unwrapped
    undecided: dict[int, int] = {}
    for node in reversed(gen_nodes):
        gen_keys[node.id] = _node_key(node, gen_keys)
        if node.kind is not NodeKind.ALIAS:
            below = kids[node.id] = [_unwrap(c) for c in node.children]
            undecided[node.id] = 1 + sum(undecided[c.id] for c in below)

    decided: dict[int, int] = {}
    frozen: set[int] = set()
    settled: set[int] = set()  # frozen nodes included
    gen_pairs: dict[int, list[SqlNode]] = {}
    gold_pairs: dict[int, list[SqlNode]] = {}
    gold_buckets: dict[int, dict[int, list[int]]] = {}  # gold id -> child key -> child indices
    gold_grand: dict[int, dict[int, set[int]]] = {}  # gold id -> grandchild key -> child indices

    def pairs_of(node: SqlNode, cache: dict[int, list[SqlNode]]) -> list[SqlNode]:
        found = cache.get(node.id)
        if found is None:
            found = cache[node.id] = _pair_children(node)
        return found

    def mark(node: SqlNode):
        stack = [node]
        while stack:
            n = stack.pop()
            if undecided[n.id]:
                undecided[n.id] = 0
                decided.setdefault(n.id, CORRECT)
                stack += kids[n.id]

    def finish(node: SqlNode):
        decided.setdefault(node.id, ERROR)
        undecided[node.id] = sum(undecided[c.id] for c in kids[node.id])
        live = False
        for c in pairs_of(node, gen_pairs):
            if undecided[c.id]:
                if c.id not in frozen:
                    return
                live = True
        settled.add(node.id)
        if not live:
            frozen.add(node.id)

    def bucket_of(node: SqlNode, children: list[SqlNode]) -> dict[int, list[int]]:
        found = gold_buckets.get(node.id)
        if found is None:
            found = gold_buckets[node.id] = {}
            for j, c in enumerate(children):
                found.setdefault(ctx.gold_keys[c.id], []).append(j)
        return found

    def grand_of(node: SqlNode, children: list[SqlNode]) -> dict[int, set[int]]:
        found = gold_grand.get(node.id)
        if found is None:
            found = gold_grand[node.id] = {}
            for j, c in enumerate(children):
                for d in pairs_of(c, gold_pairs):
                    found.setdefault(ctx.gold_keys[d.id], set()).add(j)
        return found

    def settled_visit(c: SqlNode, h: SqlNode):
        if recursively_equivalent(c, h, ctx):
            mark(c)
            return
        if c.id in frozen:
            return
        hs = pairs_of(h, gold_pairs)
        wrote = False
        for d in reversed(pairs_of(c, gen_pairs)):
            if undecided[d.id]:  # then d is frozen
                for k in reversed(bucket_of(h, hs).get(gen_keys[d.id], ())):
                    if recursively_equivalent(d, hs[k], ctx):
                        mark(d)
                        wrote = True
                        break
        if wrote:
            finish(c)

    if recursively_equivalent(gen, gold, ctx):
        mark(gen)
        return decided
    xs, gs = pairs_of(gen, gen_pairs), pairs_of(gold, gold_pairs)
    # a frame is one visit whose pair was not equivalent: its child pairs
    # (xs[i], gs[j]) run from the last to the first
    frames = [[gen, gold, xs, gs, len(xs) - 1, len(gs) - 1]]
    while frames:
        frame = frames[-1]
        x, g, xs, gs, i, j = frame
        while i >= 0:
            c = xs[i]
            if j < 0 or not undecided[c.id]:
                i, j = i - 1, len(gs) - 1
                continue
            if c.id in settled:
                # the rest of c's run: only gold children that share c's key,
                # or whose children share a frozen child's, can take a write
                found = bucket_of(g, gs).get(gen_keys[c.id], [])
                if c.id not in frozen:
                    grand = grand_of(g, gs)
                    found = set(found)
                    for d in pairs_of(c, gen_pairs):
                        if undecided[d.id]:
                            found.update(grand.get(gen_keys[d.id], ()))
                    found = sorted(found)
                for jj in reversed(found):
                    if not undecided[c.id]:
                        break
                    if jj <= j:
                        settled_visit(c, gs[jj])
                i, j = i - 1, len(gs) - 1
                continue
            h = gs[j]
            j -= 1
            if recursively_equivalent(c, h, ctx):
                mark(c)
                continue
            cs, hs = pairs_of(c, gen_pairs), pairs_of(h, gold_pairs)
            if cs and hs:
                frame[4], frame[5] = i, j
                frames.append([c, h, cs, hs, len(cs) - 1, len(hs) - 1])
                break
            finish(c)
        else:
            frames.pop()
            finish(x)
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
    gold_nodes = preorder(gold)
    _fill_keys(gold_nodes, ctx.gold_keys)
    gen_nodes = preorder(gen)
    first = _first_pass(gen_nodes, gold, ctx)

    labels = {}
    prov = {}
    for node in gen_nodes:
        label = first.get(node.id)
        if label is None:
            labels[node.id] = ERROR
            prov[node.id] = Provenance.INITIAL
        else:
            labels[node.id] = label
            prov[node.id] = Provenance.FIRST_PASS

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
        # alias wrappers sit out: a generated one mirrors the node it wraps,
        # and a gold one is equivalent to exactly what its node is
        by_key: dict[int, list[SqlNode]] = {}
        for gnode in gold_nodes:
            if gnode.kind is not NodeKind.ALIAS:
                by_key.setdefault(ctx.gold_keys[gnode.id], []).append(gnode)
        for node in gen_nodes:
            if labels[node.id] != ERROR or node.kind is NodeKind.ALIAS:
                continue
            for gnode in by_key.get(ctx.gen_keys[node.id], ()):
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
