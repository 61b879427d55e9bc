"""Gradient-boosted regression trees with a logistic link, from scratch.

The ensemble is fit by logistic loss: the score starts at the log-odds
of the training prevalence, and each round fits a regression tree to the
negative gradients using second-order (gradient/hessian) leaf values,
stepping by the learning rate.  A row's score depends only on its
features, so the copies of a row share their gradient and hessian in
every round: training runs on the distinct feature rows, each weighted by
its count, with its gradient and hessian summed over its copies.  Trees
grow best-first up to a leaf budget, and ``min_samples_leaf`` counts
training rows, copies included.  Split search is still exact greedy, over
cut histograms: a cut is the gap between two adjacent unique values of a
column, and one ``bincount`` gives the gradient, hessian and row count
right of every cut.  Each column's cuts form a Fenwick tree, so a row adds
to at most log2(cuts) + 1 cells of the column, and a cut's sums add up as
many.  One pass over the flat cuts scores every split of the leaf, and the
threshold is the midpoint of the values present in the leaf on either
side of the winning cut, as in a scan over the sorted rows.  The winning
cut's sums are the right child's, and the leaf's less them the left's.
The highest gain wins; only bit-identical gains tie, and a tie goes to the
lowest feature index, then the lowest threshold.  Columns that split a
leaf alike sum their gradients in different orders, so their gains can
differ in the last bits, and then the larger one wins.  A leaf splits only on a
gain above a fixed share of its own G^2/H, which rounding noise stays far
below.  Training uses no randomness: identical records and config
reproduce the model bit for bit.

A model validates its trees and packs them QuickScorer-style when it is
built.  It scores rows in blocks: each distinct (feature, threshold)
condition of the model once, then every node of every tree at once, and
then each tree's exit leaf by bit mask.  A right turn at a node rules out
the leaves of its left subtree; ORing those leaves over the nodes a row
goes right at leaves the exit leaf as the lowest clear bit.  So the
number of array operations does not grow with depth.  A row's score
depends only on its pattern of condition outcomes, and node rows repeat
few patterns (the 3,009 rows of a ``serve`` benchmark pass hold 88 patterns
of its model's 35 conditions).  So a model remembers the score of each
pattern it has scored, keyed by the outcomes packed one bit a condition,
up to _SCORE_MEMO_SIZE patterns, and the QuickScorer runs once per
distinct pattern not yet remembered.
"""

from __future__ import annotations

import heapq
import itertools
import json
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from sqluq.featurizer import MANIFEST, NodeRecord

_EPS_HESSIAN = 1e-16
# A leaf splits only on a gain above this share of its own G**2 / H.  When a
# split gains nothing, its children's terms G**2 / H add up to the leaf's,
# so rounding leaves the computed gain within a few ulps of G**2 / H.
_MIN_RELATIVE_GAIN = 1e-12
_MAX_LEAF_VALUE = 10.0
_PREVALENCE_CLIP = 1e-4


class SingleClass(Exception):
    """ROC AUC needs at least one positive and one negative."""


class ManifestMismatch(Exception):
    """Features were produced under a different feature manifest."""


class DegenerateLabels(Warning):
    """All training labels identical; the model degenerates to a constant."""


@dataclass(frozen=True)
class GbdtConfig:
    n_trees: int = 100
    learning_rate: float = 0.05
    max_leaves: int = 31
    min_samples_leaf: int = 20

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ValueError("learning_rate must be in (0, 1]")
        if self.max_leaves < 2:
            raise ValueError("max_leaves must be >= 2")
        if self.min_samples_leaf < 0:
            raise ValueError("min_samples_leaf must be >= 0")


# A tree is held as the model file holds it: an object of these five
# lists, indexed by node id (see README, "Model file").
_TREE_KEYS = ("feature", "left", "right", "threshold", "value")

# Cells of the (rows, nodes, words) bit array scored in one block, and of
# the (rows, conditions) comparison.
_SCORE_BLOCK_CELLS = 1 << 16
# patterns of condition outcomes a model remembers the score of, so that a
# stream of new patterns cannot grow it
_SCORE_MEMO_SIZE = 4096
_WORD_BITS = 64
# _LOW_BITS[k] has the low k bits of a word set
_LOW_BITS = np.array([(1 << k) - 1 for k in range(_WORD_BITS + 1)], dtype=np.uint64)


@dataclass(frozen=True)
class _Ensemble:
    """Every tree of a model as QuickScorer arrays (Lucchese et al., SIGIR
    2015).  Each tree's leaves are numbered left to right; bit ``b`` of
    word ``w`` stands for leaf ``64 * w + b``.  An internal node's clear
    bits are the leaves of its left subtree; ORing the clear bits of the
    nodes a row goes right at leaves its exit leaf as the lowest bit still
    clear.  The nodes of all trees index one table of their distinct
    (feature, threshold) conditions, so a row is compared once per
    condition, not once per node.  A tree's nodes on one condition go right
    together, so they are held as one node.  A tree that is a lone leaf
    gets a pad node that clears nothing, so no run of nodes is empty.

    A row's exit leaf in every tree, and so its score, depends only on its
    pattern of condition outcomes, and rows repeat patterns: the ``serve``
    benchmark's model has 1,788 split nodes over 35 conditions (1,651
    nodes once merged), and the 3,009 rows of its 200 queries hold 88
    patterns, 93 over ten query seeds.  So ``memo`` maps each pattern,
    packed one bit a condition, to its score, and the QuickScorer runs once
    per distinct pattern not yet in it.  The memo stops taking patterns at
    _SCORE_MEMO_SIZE."""

    cond_feature: np.ndarray  # split column of each distinct condition
    cond_threshold: np.ndarray
    cond: np.ndarray  # each node's condition; a pad's is condition 0, or none
    clear: np.ndarray  # (nodes, words) uint64: the leaves a right turn at the node rules out
    starts: np.ndarray  # first node of each tree
    # (trees, words): a word's lowest clear bit, read as frexp's exponent e
    # (1 to 64), is leaf e + leaf_base of ``value``
    leaf_base: np.ndarray
    value: np.ndarray  # leaf value times the learning rate, left to right
    base_score: float
    block_rows: int  # rows per block, within _SCORE_BLOCK_CELLS
    memo: dict[bytes, float] = field(default_factory=dict, repr=False, compare=False)

    def score(self, X: np.ndarray) -> np.ndarray:
        """base_score plus every tree's scaled leaf value, added tree by
        tree in model order, for the rows of X."""
        n, conds = X.shape[0], self.cond_feature.size
        if conds == 0:  # all lone leaves, maybe over no columns
            return np.full(n, self._add_leaves(self.leaf_base[None, :, 0] + 1)[0])
        keys: list[bytes] = []  # each row's pattern, one bit a condition
        step = max(1, _SCORE_BLOCK_CELLS // conds)
        for lo in range(0, n, step):
            right = ~(X[lo : lo + step].take(self.cond_feature, axis=1) <= self.cond_threshold)
            packed = np.packbits(right, axis=1)  # NaN goes right
            keys += packed.view(f"V{packed.shape[1]}").ravel().tolist()
        found = list(map(self.memo.get, keys))
        if None in found:
            # each pattern missed, in order of first appearance, scored once
            missed = dict.fromkeys([k for k, s in zip(keys, found) if s is None])
            patterns = np.frombuffer(b"".join(missed), dtype=np.uint8).reshape(len(missed), -1)
            fresh = np.empty(len(missed), dtype=np.float64)
            for lo in range(0, len(missed), self.block_rows):
                right = np.unpackbits(patterns[lo : lo + self.block_rows], axis=1, count=conds)
                fresh[lo : lo + self.block_rows] = self._exit_scores(right.view(bool))
            scored = dict(zip(missed, fresh.tolist()))
            room = max(0, _SCORE_MEMO_SIZE - len(self.memo))
            self.memo.update(itertools.islice(scored.items(), room))
            found = [scored[k] if s is None else s for k, s in zip(keys, found)]
        return np.array(found, dtype=np.float64)

    def _exit_scores(self, right: np.ndarray) -> np.ndarray:
        """The score of each row of condition outcomes ``right`` (True where
        the row goes right), by QuickScorer."""
        # the nodes' outcomes, taken as whole rows of the transpose: taking
        # one column per node is several times slower
        nodes = np.ascontiguousarray(right.T).take(self.cond, axis=0).T
        cleared = np.bitwise_or.reduceat(nodes[:, :, None] * self.clear, self.starts, axis=1)
        # each word's lowest clear bit, or 0 where every bit is set; a power
        # of two converts to float exactly, frexp reads its exponent as 1 to
        # 64, and 0 becomes a bit past every leaf of the tree
        exponent = np.frexp((~cleared & (cleared + np.uint64(1))).astype(np.float64))[1]
        exponent[exponent == 0] = _WORD_BITS * self.clear.shape[1] + 1
        return self._add_leaves((exponent + self.leaf_base).min(axis=2))

    def _add_leaves(self, leaf: np.ndarray) -> np.ndarray:
        """base_score plus the value of each (row, tree) exit leaf, added
        tree by tree in model order."""
        acc = np.empty((leaf.shape[0], leaf.shape[1] + 1), dtype=np.float64)
        acc[:, 0] = self.base_score
        acc[:, 1:] = self.value[leaf]
        return np.cumsum(acc, axis=1, out=acc)[:, -1]


def _node_array(values, kinds: str, n: int, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.shape != (n,) or arr.dtype.kind not in kinds:
        raise ValueError(f"{name} must be a list of {n} numbers")
    return arr


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _pack(trees: list[dict], feature_count: int, learning_rate: float,
          base_score: float) -> _Ensemble:
    """Lay the trees out for scoring.  Raises ValueError for a tree that is
    not a well-formed binary tree over ``feature_count`` features."""
    if type(feature_count) is not int or feature_count < 0:
        raise ValueError(f"feature_count must be a non-negative integer, got {feature_count!r}")
    if not isinstance(trees, list):
        raise ValueError("trees must be a list")
    # per tree: its internal nodes, or a pad node if it is a lone leaf; a
    # node's left subtree holds its leaves [lo, hi), none for the pad, so
    # the pad's condition does not matter.  0.0 and -0.0 compare alike, so
    # they share a condition.
    conds: dict[tuple[int, float], int] = {}
    cond, lo, hi = [], [], []
    starts, leaf_start, values = [], [], [np.zeros(0)]
    n_nodes = n_leaves = 0
    for k, tree in enumerate(trees):
        if not isinstance(tree, dict) or tree.keys() != set(_TREE_KEYS):
            raise ValueError(f"tree {k} must be an object of the lists {', '.join(_TREE_KEYS)}")
        n = len(tree["feature"])
        if n == 0:
            raise ValueError(f"tree {k} has no nodes")
        feature = _node_array(tree["feature"], "i", n, f"tree {k} feature")
        threshold = _node_array(tree["threshold"], "if", n, f"tree {k} threshold")
        left = _node_array(tree["left"], "i", n, f"tree {k} left")
        right = _node_array(tree["right"], "i", n, f"tree {k} right")
        value = _node_array(tree["value"], "if", n, f"tree {k} value")
        ids = np.arange(n)
        leaf = (left == -1) & (right == -1)
        if not np.all(leaf | (ids < left) & (left < n) & (ids < right) & (right < n)):
            raise ValueError(f"tree {k}: the children of node i must lie in (i, {n})")
        if not np.all(leaf | (feature >= 0) & (feature < feature_count)):
            raise ValueError(f"tree {k}: a feature index is outside [0, {feature_count})")
        if not (np.isfinite(threshold).all() and np.isfinite(value).all()):
            raise ValueError(f"tree {k}: a threshold or value is not finite")
        if np.bincount(np.concatenate([left[~leaf], right[~leaf]]), minlength=n).max() > 1:
            raise ValueError(f"tree {k}: a node has two parents")
        # preorder, left first, numbers the leaves left to right; a node's
        # subtree leaves start at first[node]
        left_of, right_of = left.tolist(), right.tolist()
        first = [0] * n
        inner, leaves = [], []
        stack = [0]
        while stack:
            i = stack.pop()
            first[i] = len(leaves)
            if left_of[i] == -1:
                leaves.append(i)
            else:
                inner.append(i)
                stack += (right_of[i], left_of[i])
        if len(inner) + len(leaves) < n:
            raise ValueError(f"tree {k}: a node is not reachable from the root")
        first = np.array(first)
        starts.append(n_nodes)
        splits = zip(feature[inner].tolist(), threshold[inner].tolist())
        cond += [conds.setdefault(key, len(conds)) for key in splits] or [0]
        lo += first[left[inner]].tolist() or [0]
        hi += first[right[inner]].tolist() or [0]
        leaf_start.append(n_leaves)
        values.append((learning_rate * value)[leaves])
        n_nodes += max(1, len(inner))
        n_leaves += len(leaves)
    words = -(-max(1, *map(len, values)) // _WORD_BITS)
    # clip each [lo, hi) to every word; a word's clear bits are the bits inside
    edges = _WORD_BITS * np.arange(words)
    lo = np.clip(np.array(lo, dtype=np.intp)[:, None] - edges, 0, _WORD_BITS)
    hi = np.clip(np.array(hi, dtype=np.intp)[:, None] - edges, 0, _WORD_BITS)
    clear = _LOW_BITS[hi] & ~_LOW_BITS[lo]
    # A tree's nodes on one condition go right together, so they merge into
    # one node whose clear bits are the OR of theirs, ordered by condition.
    tree_of = np.repeat(np.arange(len(starts)), np.diff([*starts, n_nodes]))
    order = np.lexsort((cond, tree_of))
    tree_of, cond = tree_of[order], np.array(cond, dtype=np.intp)[order]
    merged = np.flatnonzero((np.diff(tree_of, prepend=-1) != 0) | (np.diff(cond, prepend=-1) != 0))
    return _Ensemble(
        cond_feature=np.array([f for f, _ in conds], dtype=np.intp),
        cond_threshold=np.array([t for _, t in conds], dtype=np.float64),
        cond=cond[merged],
        clear=np.bitwise_or.reduceat(clear[order], merged, axis=0),
        starts=np.searchsorted(tree_of[merged], np.arange(len(starts))),
        leaf_base=np.array(leaf_start, dtype=np.intp)[:, None] + edges - 1,
        value=np.concatenate(values, dtype=np.float64),
        base_score=base_score,
        block_rows=max(1, _SCORE_BLOCK_CELLS // (merged.size * words or 1)),
    )


@dataclass
class GbdtModel:
    config: GbdtConfig
    base_score: float
    trees: list[dict]  # as the model file holds them
    manifest_hash: str
    feature_count: int
    train_loss_curve: list[float] = field(default_factory=list)
    # built once from the fields above; models are never changed after
    _ensemble: _Ensemble = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (_is_number(self.base_score) and np.isfinite(self.base_score)):
            raise ValueError(f"base_score must be a finite number, got {self.base_score!r}")
        if not (isinstance(self.train_loss_curve, list)
                and all(map(_is_number, self.train_loss_curve))):
            raise ValueError("train_loss_curve must be a list of numbers")
        self._ensemble = _pack(self.trees, self.feature_count, self.config.learning_rate,
                               self.base_score)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw score of each row of the 2-D X: base_score plus the scaled
        leaf value of every tree."""
        return self._ensemble.score(X)

    def to_json(self) -> str:
        doc = {
            "format": "sqluq-gbdt-model",
            "version": 1,
            "config": asdict(self.config),
            "base_score": self.base_score,
            "manifest_hash": self.manifest_hash,
            "feature_count": self.feature_count,
            "train_loss_curve": self.train_loss_curve,
            "trees": self.trees,
        }
        return json.dumps(doc, sort_keys=True)

    def save(self, path: str | Path):
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def from_json(cls, text: str) -> "GbdtModel":
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError("malformed model file: nested too deep") from None
        except ValueError as exc:  # not JSON, or an integer past int's digit limit
            raise ValueError(f"malformed model file: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("format") != "sqluq-gbdt-model":
            raise ValueError("not a model file")
        version = doc.get("version")
        if type(version) is not int or version != 1:
            raise ValueError(f"malformed model file: version must be 1, got {version!r}")
        try:
            return cls(
                config=GbdtConfig(**doc["config"]),
                base_score=doc["base_score"],
                trees=doc["trees"],
                manifest_hash=doc["manifest_hash"],
                feature_count=doc["feature_count"],
                train_loss_curve=doc.get("train_loss_curve", []),
            )
        except (KeyError, TypeError) as exc:
            # a missing field, a config key this version lacks, or a wrong type
            raise ValueError(f"malformed model file: {exc!r}") from exc
        except ValueError as exc:
            # an invalid config value, or a tree's keys or structure
            raise ValueError(f"malformed model file: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "GbdtModel":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # e^-|z| never overflows: 1 / (1 + e^-z) for z >= 0, e^z / (1 + e^z)
    # below; minimum, unlike -abs, keeps a NaN's sign bit
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _log_loss(y: np.ndarray, score: np.ndarray) -> float:
    # numerically stable mean logistic loss: log(1 + e^s) - y*s
    return float(np.mean(np.logaddexp(0.0, score) - y * score))


@dataclass
class _Leaf:
    rows: np.ndarray  # sorted indices of the leaf's distinct training rows
    grad_sum: float
    hess_sum: float
    count: float  # training rows: the weights of its distinct rows summed
    # populated by _best_split
    gain: float = -1.0
    feature: int = -1
    threshold: float = 0.0
    right_sums: list[float] | None = None  # the split's right side: gradient, hessian, weight
    # (3, cells) cut histogram, kept while the leaf may still be split
    hist: np.ndarray | None = None


def _leaf_value(g: float, h: float) -> float:
    return min(max(-g / (h + _EPS_HESSIAN), -_MAX_LEAF_VALUE), _MAX_LEAF_VALUE)


@dataclass(frozen=True)
class _Bins:
    """Cut bins.  A cut is the gap between two adjacent unique values of a
    non-constant column, and its right side holds the rows above it.  Cuts
    are numbered flat, column after column, each column's from its lowest
    value up.  A column's K cuts are the positions of a Fenwick tree
    (Fenwick 1994) counted from its top cut down, so a row adds to the node
    cells on the update path of its value's position (none for the lowest
    value), at most ``K.bit_length()`` of them, and the right-side sums of
    a cut add up the node cells on its position's prefix path."""

    columns: np.ndarray  # original index of each binned column
    values: list[np.ndarray]  # each binned column's sorted unique values
    starts: np.ndarray  # each binned column's first cut, then the cut count
    cut_column: list[int]  # each cut's binned column
    # (rows, 3 * width): each row's node cells, then the sink, three times,
    # the k-th copy offset by k * size, for the gradient, hessian and weight
    codes: np.ndarray
    index: np.ndarray  # (L, cuts): each cut's node cells by level, then the zero cell
    size: int  # node cells, the sink and the zero cell


def _fenwick_path(pos: np.ndarray, levels: int, step: int) -> np.ndarray:
    """(positions, levels): each position, then the next ones on its
    Fenwick path, each the last plus step times its lowest set bit; +1
    walks the update path up, -1 the prefix path down to 0."""
    path = np.empty((pos.size, levels), dtype=np.intp)
    for level in range(levels):
        path[:, level] = pos
        pos = pos + step * (pos & -pos)
    return path


def _bin_columns(X: np.ndarray) -> _Bins:
    # a constant column never splits, so it gets no cuts
    columns = np.flatnonzero(X.min(axis=0) != X.max(axis=0))
    # Asked for the inverse too, np.unique sorts; without it, numpy 2 keeps
    # a hash table of about 1 MB alive after the first call.  Ranks are found
    # again column by column below, so that only one column's are held.
    values = [np.unique(X[:, j], return_inverse=True)[0] for j in columns]
    levels = [(uniq.size - 1).bit_length() for uniq in values]
    starts = np.cumsum([0, *(uniq.size - 1 for uniq in values)])
    sink, zero = int(starts[-1]), int(starts[-1]) + 1
    # int32 while every column's cells sit side by side; a row holds only a
    # few of them, so after sorting the sink to the end the codes are cut
    # down to the widest row's count
    codes = np.empty((X.shape[0], sum(levels)), dtype=np.int32)
    index = np.full((max(levels, default=0), sink), zero)
    left = 0
    for j, uniq, level, lo in zip(columns, values, levels, starts):
        cuts = uniq.size - 1
        # position cuts - c is cut c; a row's value of rank r sits at
        # cuts + 1 - r, above every cut below it and past the top for r = 0
        path = _fenwick_path(cuts + 1 - np.searchsorted(uniq, X[:, j]), level, 1)
        codes[:, left : left + level] = np.where(path <= cuts, lo + path - 1, sink)
        read = _fenwick_path(np.arange(cuts, 0, -1), level, -1)
        index[:level, lo : lo + cuts] = np.where(read > 0, lo + read - 1, zero).T
        left += level
    codes.sort(axis=1)
    width = int((codes < sink).sum(axis=1).max(initial=0))
    cut_column = np.repeat(np.arange(columns.size), np.diff(starts)).tolist()
    size = sink + 2
    # intp, not int32: bincount would convert int32 codes on every call
    codes = codes[:, :width].astype(np.intp)
    return _Bins(columns=columns, values=values, starts=starts, cut_column=cut_column,
                 codes=np.concatenate([codes, codes + size, codes + 2 * size], axis=1),
                 index=index, size=size)


def _histogram(bins: _Bins, rows: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """(3, cells) sums of gradient, hessian and weight (row count) of the
    given rows in each node cell, from ``sums``, one (gradient, hessian,
    weight) row per training row, in one ``bincount``; the sink takes the
    padding, the zero cell nothing."""
    cells = bins.codes.take(rows, axis=0).ravel()
    per_cell = sums.take(rows, axis=0).repeat(bins.codes.shape[1] // 3, axis=1).ravel()
    return np.bincount(cells, weights=per_cell, minlength=3 * bins.size).reshape(3, bins.size)


def _best_split(leaf: _Leaf, hist: np.ndarray, bins: _Bins, min_samples_leaf: int):
    """Exact greedy split search over the leaf's cut histogram: every cut
    that leaves rows of the leaf on both sides is a candidate, with the
    midpoint of the values present in the leaf on either side of it as its
    threshold.  The highest gain wins; of cuts with bit-identical gains, the
    lowest feature index, then the lowest threshold.  Columns that split
    the leaf alike sum their gradients in different orders, so their gains
    can differ in the last bits, and then the larger one wins."""
    n_rows = leaf.count
    leaf.gain = -1.0
    # one distinct row has no cut with rows on both sides
    if n_rows < 2 * min_samples_leaf or leaf.rows.size < 2 or bins.index.size == 0:
        return
    right_sums = hist.take(bins.index, axis=1).sum(axis=1)
    gr, hr, cr = right_sums[0], right_sums[1], right_sums[2]
    # gl**2 / (hl + eps) + gr**2 / (hr + eps) - G**2 / (H + eps), with
    # gl = G - gr and hl = H - hr, evaluated in that order in place
    gains = leaf.grad_sum - gr
    gains *= gains
    gains /= (leaf.hess_sum - hr) + _EPS_HESSIAN
    right = gr * gr
    right /= hr + _EPS_HESSIAN
    gains += right
    gains -= leaf.grad_sum**2 / (leaf.hess_sum + _EPS_HESSIAN)
    side = max(min_samples_leaf, 1)  # rows each side needs
    illegal = cr < side
    illegal |= cr > n_rows - side
    np.putmask(gains, illegal, -np.inf)
    cut = int(gains.argmax())
    if illegal[cut]:
        return
    # The column's cuts between the same two values present in the leaf
    # split it alike, so they share one exact count: they run from the lower
    # value's cut to the cut below the upper value.
    k = bins.cut_column[cut]
    counts = -cr[bins.starts[k] : bins.starts[k + 1]]  # ascending
    below = int(counts.searchsorted(-cr[cut], side="left"))
    above = int(counts.searchsorted(-cr[cut], side="right"))
    vals = bins.values[k]
    leaf.gain = float(gains[cut])
    leaf.feature = int(bins.columns[k])
    leaf.threshold = float((vals[below] + vals[above]) / 2.0)
    leaf.right_sums = right_sums[:, cut].tolist()


def _grow_tree(
    X: np.ndarray,
    bins: _Bins,
    grad: np.ndarray,
    hess: np.ndarray,
    weight: np.ndarray,
    config: GbdtConfig,
) -> tuple[dict, np.ndarray]:
    """Grow one tree best-first on the distinct rows X, each standing for
    ``weight`` training rows; also return each distinct row's leaf value."""
    min_leaf = config.min_samples_leaf
    sums = np.stack((grad, hess, weight), axis=1)

    def search(leaf: _Leaf, hist: np.ndarray):
        _best_split(leaf, hist, bins, min_leaf)
        floor = _MIN_RELATIVE_GAIN * leaf.grad_sum**2 / (leaf.hess_sum + _EPS_HESSIAN)
        if leaf.gain > floor:
            leaf.hist = hist

    root_rows = np.arange(X.shape[0])
    root = _Leaf(rows=root_rows, grad_sum=float(grad.sum()), hess_sum=float(hess.sum()),
                 count=float(weight.sum()))
    search(root, _histogram(bins, root_rows, sums))
    nodes = [root]  # by node id; a split node keeps its rows and sums
    left_child = [-1]  # by node id; the right child is the next node
    # deterministic best-first: highest gain, node id breaks ties
    open_splits = [(-root.gain, 0)] if root.hist is not None else []
    n_leaves = 1
    while open_splits and n_leaves < config.max_leaves:
        node_id = heapq.heappop(open_splits)[1]
        leaf = nodes[node_id]
        go_left = X[:, leaf.feature].take(leaf.rows) <= leaf.threshold
        left_rows = leaf.rows.compress(go_left)
        right_rows = leaf.rows.compress(~go_left)
        gr, hr, cr = leaf.right_sums
        left_leaf = _Leaf(rows=left_rows, grad_sum=leaf.grad_sum - gr,
                          hess_sum=leaf.hess_sum - hr, count=leaf.count - cr)
        right_leaf = _Leaf(rows=right_rows, grad_sum=gr, hess_sum=hr, count=cr)
        # the child of fewer distinct rows gets its own histogram
        small, large = left_leaf, right_leaf
        if right_rows.size < left_rows.size:
            small, large = right_leaf, left_leaf
        # else neither child can split, or the tree is full once they exist
        if max(left_leaf.count, cr) >= 2 * min_leaf and n_leaves + 1 < config.max_leaves:
            small_hist = _histogram(bins, small.rows, sums)
            search(small, small_hist)
            search(large, leaf.hist - small_hist)
        leaf.hist = None
        left_child[node_id] = len(nodes)
        for child in (left_leaf, right_leaf):
            if child.hist is not None:
                heapq.heappush(open_splits, (-child.gain, len(nodes)))
            nodes.append(child)
            left_child.append(-1)
        n_leaves += 1
    tree = dict(feature=[], left=left_child, right=[], threshold=[], value=[])
    row_value = np.empty(X.shape[0], dtype=np.float64)
    for node, left in zip(nodes, left_child):
        if left < 0:
            tree["feature"].append(-1)
            tree["threshold"].append(0.0)
            tree["right"].append(-1)
            tree["value"].append(_leaf_value(node.grad_sum, node.hess_sum))
            row_value[node.rows] = tree["value"][-1]
        else:
            tree["feature"].append(node.feature)
            tree["threshold"].append(node.threshold)
            tree["right"].append(left + 1)
            tree["value"].append(0.0)
    return tree, row_value


def train_matrix(X: np.ndarray, y: np.ndarray, config: GbdtConfig | None = None) -> GbdtModel:
    """Fit the boosted ensemble on a dense feature matrix."""
    config = config or GbdtConfig()
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be 2-D with one row per label")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 training rows")
    prevalence = float(y.mean())
    clipped = min(max(prevalence, _PREVALENCE_CLIP), 1.0 - _PREVALENCE_CLIP)
    base = float(np.log(clipped / (1.0 - clipped)))
    # Each row's index among the distinct rows, numbered in order of first
    # appearance; the dict's keys, in that order, are the distinct rows.
    ids: dict[bytes, int] = {}
    inverse = np.fromiter((ids.setdefault(row.tobytes(), len(ids)) for row in X),
                          dtype=np.intp, count=X.shape[0])
    distinct = np.frombuffer(b"".join(ids), dtype=np.float64).reshape(len(ids), X.shape[1])
    weight = np.bincount(inverse, minlength=len(ids)).astype(np.float64)
    positives = np.bincount(inverse, weights=y, minlength=len(ids))
    score = np.full(len(ids), base, dtype=np.float64)
    trees: list[dict] = []
    # the loss over every training row, not over the distinct ones
    loss_curve = [_log_loss(y, score[inverse])]
    if prevalence in (0.0, 1.0):
        warnings.warn(
            "all training labels identical; returning a constant model",
            DegenerateLabels,
        )
    else:
        bins = _bin_columns(distinct)
        for _ in range(config.n_trees):
            p = _sigmoid(score)
            grad = weight * p - positives
            hess = weight * np.maximum(p * (1.0 - p), _EPS_HESSIAN)
            tree, row_value = _grow_tree(distinct, bins, grad, hess, weight, config)
            score += config.learning_rate * row_value
            trees.append(tree)
            loss_curve.append(_log_loss(y, score[inverse]))
    return GbdtModel(
        config=config,
        base_score=base,
        trees=trees,
        manifest_hash=MANIFEST.version_hash,
        feature_count=X.shape[1],
        train_loss_curve=loss_curve,
    )


def train(records: list[NodeRecord], config: GbdtConfig | None = None) -> GbdtModel:
    """Fit on NodeRecords; all feature vectors must share the manifest."""
    if len(records) < 2:
        raise ValueError("need at least 2 records")
    X = np.stack([r.features for r in records])
    y = np.array([r.label for r in records], dtype=np.float64)
    if X.shape[1] != MANIFEST.length:
        raise ManifestMismatch(
            f"records carry {X.shape[1]} features, manifest defines {MANIFEST.length}"
        )
    return train_matrix(X, y, config=config)


def predict_proba(model: GbdtModel, features: np.ndarray) -> np.ndarray:
    """Per-row probability of error of a 2-D matrix of rows: sigmoid(base +
    sum of scaled leaves)."""
    if model.manifest_hash != MANIFEST.version_hash:
        raise ManifestMismatch(
            f"model built under manifest {model.manifest_hash}, got {MANIFEST.version_hash}"
        )
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"features must be a 2-D matrix of rows, got {arr.ndim}-D")
    if arr.shape[1] != model.feature_count:
        raise ManifestMismatch(
            f"expected {model.feature_count} features, got {arr.shape[1]}"
        )
    return _sigmoid(model.decision_function(arr))


def roc_auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative,
    counting ties as one half (normalized Mann-Whitney U)."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be 1-D and aligned")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("both classes must be present")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    # the average 1-based rank of each score among its ties
    sorted_scores = np.sort(s)
    ranks = (np.searchsorted(sorted_scores, s, "left")
             + np.searchsorted(sorted_scores, s, "right") + 1) / 2.0
    rank_sum_pos = float(ranks[y == 1].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


@dataclass
class EvalRow:  # report.json writes a row's fields in this order
    node_kind: str
    n: int
    proportion: float
    proportion_error: float
    auc_model: float | None
    auc_logprob: float | None


def eval_by_kind(records: list[NodeRecord], scores: np.ndarray) -> list[EvalRow]:
    """Per-kind evaluation table with an 'All' row first.

    scores are the model's predict_proba of the records' rows.  The
    log-probability baseline scores error as the negated mean token
    log-probability and is computed only over records that carry one; kinds
    with a single label class report their AUC as undefined.
    """
    if not records:
        return []
    labels = np.array([r.label for r in records])
    kinds = [r.node_kind for r in records]
    logprobs = np.array(
        [r.logprob_score if r.logprob_score is not None else np.nan for r in records]
    )

    def auc_or_none(s, y):
        try:
            return roc_auc(s, y)
        except SingleClass:
            return None

    def row_for(kind: str, mask: np.ndarray) -> EvalRow:
        sub_labels = labels[mask]
        sub_scores = scores[mask]
        lp_mask = mask & ~np.isnan(logprobs)
        auc_lp = None
        if lp_mask.any():
            auc_lp = auc_or_none(-logprobs[lp_mask], labels[lp_mask])
        return EvalRow(
            node_kind=kind,
            n=int(mask.sum()),
            proportion=float(mask.sum()) / len(records),
            proportion_error=float(sub_labels.mean()),
            auc_model=auc_or_none(sub_scores, sub_labels),
            auc_logprob=auc_lp,
        )

    rows = [row_for("All", np.ones(len(records), dtype=bool))]
    kind_arr = np.array(kinds)
    by_count = sorted(set(kinds), key=lambda k: (-int((kind_arr == k).sum()), k))
    for kind in by_count:
        rows.append(row_for(kind, kind_arr == kind))
    return rows


def render_eval_table(rows: list[EvalRow]) -> str:
    """Fixed-width text rendering of the evaluation table."""
    def pct(x: float | None) -> str:
        return "   n/a" if x is None else f"{100.0 * x:6.2f}"

    lines = [
        f"{'Node Kind':<14}{'N':>8}{'Prop.%':>8}{'False%':>8}{'AUC':>8}{'AUC(lp)':>9}",
    ]
    for r in rows:
        lines.append(
            f"{r.node_kind:<14}{r.n:>8}{100 * r.proportion:>8.2f}"
            f"{100 * r.proportion_error:>8.2f}{pct(r.auc_model):>8}{pct(r.auc_logprob):>9}"
        )
    return "\n".join(lines)
