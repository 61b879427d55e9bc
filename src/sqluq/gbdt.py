"""Gradient-boosted regression trees with a logistic link, from scratch.

The ensemble is fit by logistic loss: the score starts at the log-odds
of the training prevalence, and each round fits a regression tree to the
negative gradients using second-order (gradient/hessian) leaf values,
stepping by the learning rate.  Trees grow best-first up to a leaf
budget, with exact greedy split search over sorted unique feature
values.  Training uses no randomness: identical records and config
reproduce the model bit for bit.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sqluq.featurizer import MANIFEST, NodeRecord

_EPS_HESSIAN = 1e-16
_MIN_GAIN = 1e-12
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


@dataclass
class Tree:
    """Flat arrays: internal nodes carry (feature, threshold, children),
    leaves carry values. left/right of -1 marks a leaf."""

    feature: list[int]
    threshold: list[float]
    left: list[int]
    right: list[int]
    value: list[float]

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0], dtype=np.float64)
        node = np.zeros(X.shape[0], dtype=np.int64)
        feature = np.asarray(self.feature)
        threshold = np.asarray(self.threshold)
        left = np.asarray(self.left)
        right = np.asarray(self.right)
        value = np.asarray(self.value)
        active = np.arange(X.shape[0])
        while active.size:
            cur = node[active]
            is_leaf = left[cur] < 0
            if is_leaf.any():
                done = active[is_leaf]
                out[done] = value[node[done]]
                active = active[~is_leaf]
                cur = node[active]
            if not active.size:
                break
            go_left = X[active, feature[cur]] <= threshold[cur]
            node[active] = np.where(go_left, left[cur], right[cur])
        return out


@dataclass
class GbdtModel:
    config: GbdtConfig
    base_score: float
    trees: list[Tree]
    manifest_hash: str
    feature_count: int
    train_loss_curve: list[float] = field(default_factory=list)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        score = np.full(X.shape[0], self.base_score, dtype=np.float64)
        for tree in self.trees:
            score += self.config.learning_rate * tree.predict(X)
        return score

    def to_json(self) -> str:
        doc = {
            "format": "sqluq-gbdt-model",
            "version": 1,
            "config": {
                "n_trees": self.config.n_trees,
                "learning_rate": self.config.learning_rate,
                "max_leaves": self.config.max_leaves,
                "min_samples_leaf": self.config.min_samples_leaf,
            },
            "base_score": self.base_score,
            "manifest_hash": self.manifest_hash,
            "feature_count": self.feature_count,
            "train_loss_curve": self.train_loss_curve,
            "trees": [
                {
                    "feature": t.feature,
                    "threshold": t.threshold,
                    "left": t.left,
                    "right": t.right,
                    "value": t.value,
                }
                for t in self.trees
            ],
        }
        return json.dumps(doc, sort_keys=True)

    def save(self, path: str | Path):
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def from_json(cls, text: str) -> "GbdtModel":
        doc = json.loads(text)
        if not isinstance(doc, dict) or doc.get("format") != "sqluq-gbdt-model":
            raise ValueError("not a model file")
        try:
            return cls(
                config=GbdtConfig(**doc["config"]),
                base_score=doc["base_score"],
                trees=[Tree(**t) for t in doc["trees"]],
                manifest_hash=doc["manifest_hash"],
                feature_count=doc["feature_count"],
                train_loss_curve=doc.get("train_loss_curve", []),
            )
        except (KeyError, TypeError) as exc:
            # a missing field, or a config/tree key this version lacks
            raise ValueError(f"malformed model file: {exc!r}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "GbdtModel":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _log_loss(y: np.ndarray, score: np.ndarray) -> float:
    # numerically stable mean logistic loss: log(1 + e^s) - y*s
    return float(np.mean(np.logaddexp(0.0, score) - y * score))


@dataclass
class _Leaf:
    rows: np.ndarray  # bool mask over all training rows
    grad_sum: float
    hess_sum: float
    # populated by _best_split
    gain: float = -1.0
    feature: int = -1
    threshold: float = 0.0


def _leaf_value(g: float, h: float) -> float:
    v = -g / (h + _EPS_HESSIAN)
    return float(np.clip(v, -_MAX_LEAF_VALUE, _MAX_LEAF_VALUE))


def _best_split(
    leaf: _Leaf,
    X: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    sorted_idx: np.ndarray,
    min_samples_leaf: int,
):
    """Exact greedy search over sorted unique values of every feature."""
    n_rows = int(leaf.rows.sum())
    leaf.gain = -1.0
    if n_rows < 2 * min_samples_leaf:
        return
    parent_obj = leaf.grad_sum**2 / (leaf.hess_sum + _EPS_HESSIAN)
    for j in range(X.shape[1]):
        order = sorted_idx[:, j]
        sel = order[leaf.rows[order]]  # leaf's rows in feature-sorted order
        vals = X[sel, j]
        if vals[0] == vals[-1]:
            continue
        g_cum = np.cumsum(grad[sel])
        h_cum = np.cumsum(hess[sel])
        g_tot = g_cum[-1]
        h_tot = h_cum[-1]
        # split after position i: left = sel[:i+1]; only at value boundaries
        boundary = np.nonzero(vals[:-1] != vals[1:])[0]
        if boundary.size == 0:
            continue
        counts = boundary + 1
        legal = (counts >= min_samples_leaf) & (n_rows - counts >= min_samples_leaf)
        boundary = boundary[legal]
        if boundary.size == 0:
            continue
        gl = g_cum[boundary]
        hl = h_cum[boundary]
        gr = g_tot - gl
        hr = h_tot - hl
        gains = gl**2 / (hl + _EPS_HESSIAN) + gr**2 / (hr + _EPS_HESSIAN) - parent_obj
        k = int(np.argmax(gains))
        if gains[k] > leaf.gain:
            leaf.gain = float(gains[k])
            leaf.feature = j
            b = boundary[k]
            leaf.threshold = float((vals[b] + vals[b + 1]) / 2.0)


def _grow_tree(
    X: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    sorted_idx: np.ndarray,
    config: GbdtConfig,
) -> Tree:
    tree = Tree(feature=[], threshold=[], left=[], right=[], value=[])

    def new_node() -> int:
        tree.feature.append(-1)
        tree.threshold.append(0.0)
        tree.left.append(-1)
        tree.right.append(-1)
        tree.value.append(0.0)
        return len(tree.feature) - 1

    root_rows = np.ones(X.shape[0], dtype=bool)
    root = _Leaf(rows=root_rows, grad_sum=float(grad.sum()), hess_sum=float(hess.sum()))
    _best_split(root, X, grad, hess, sorted_idx, config.min_samples_leaf)
    root_id = new_node()
    open_leaves: list[tuple[_Leaf, int]] = [(root, root_id)]
    n_leaves = 1
    while n_leaves < config.max_leaves:
        # deterministic best-first: highest gain, node id breaks ties
        best = -1
        for i, (leaf, _) in enumerate(open_leaves):
            if leaf.gain > _MIN_GAIN and (best < 0 or leaf.gain > open_leaves[best][0].gain):
                best = i
        if best < 0:
            break
        leaf, node_id = open_leaves.pop(best)
        go_left = X[:, leaf.feature] <= leaf.threshold
        left_rows = leaf.rows & go_left
        right_rows = leaf.rows & ~go_left
        gl = float(grad[left_rows].sum())
        hl = float(hess[left_rows].sum())
        left_leaf = _Leaf(rows=left_rows, grad_sum=gl, hess_sum=hl)
        right_leaf = _Leaf(rows=right_rows, grad_sum=leaf.grad_sum - gl, hess_sum=leaf.hess_sum - hl)
        _best_split(left_leaf, X, grad, hess, sorted_idx, config.min_samples_leaf)
        _best_split(right_leaf, X, grad, hess, sorted_idx, config.min_samples_leaf)
        left_id = new_node()
        right_id = new_node()
        tree.feature[node_id] = leaf.feature
        tree.threshold[node_id] = leaf.threshold
        tree.left[node_id] = left_id
        tree.right[node_id] = right_id
        open_leaves.append((left_leaf, left_id))
        open_leaves.append((right_leaf, right_id))
        n_leaves += 1
    for leaf, node_id in open_leaves:
        tree.value[node_id] = _leaf_value(leaf.grad_sum, leaf.hess_sum)
    return tree


def train_matrix(X: np.ndarray, y: np.ndarray, config: GbdtConfig | None = None,
                 manifest_hash: str = MANIFEST.version_hash) -> GbdtModel:
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
    model = GbdtModel(
        config=config,
        base_score=base,
        trees=[],
        manifest_hash=manifest_hash,
        feature_count=X.shape[1],
    )
    if prevalence in (0.0, 1.0):
        warnings.warn(
            "all training labels identical; returning a constant model",
            DegenerateLabels,
        )
        model.train_loss_curve = [_log_loss(y, np.full(y.shape, base))]
        return model
    sorted_idx = np.argsort(X, axis=0, kind="stable")
    score = np.full(y.shape, base, dtype=np.float64)
    model.train_loss_curve.append(_log_loss(y, score))
    for _ in range(config.n_trees):
        p = _sigmoid(score)
        grad = p - y
        hess = np.maximum(p * (1.0 - p), _EPS_HESSIAN)
        tree = _grow_tree(X, grad, hess, sorted_idx, config)
        score += config.learning_rate * tree.predict(X)
        model.trees.append(tree)
        model.train_loss_curve.append(_log_loss(y, score))
    return model


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
    return train_matrix(X, y, config=config, manifest_hash=MANIFEST.version_hash)


def predict_proba(model: GbdtModel, features: np.ndarray,
                  manifest_hash: str = MANIFEST.version_hash) -> np.ndarray | float:
    """Per-row probability of error: sigmoid(base + sum of scaled leaves)."""
    if model.manifest_hash != manifest_hash:
        raise ManifestMismatch(
            f"model built under manifest {model.manifest_hash}, got {manifest_hash}"
        )
    arr = np.asarray(features, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.shape[1] != model.feature_count:
        raise ManifestMismatch(
            f"expected {model.feature_count} features, got {arr.shape[1]}"
        )
    proba = _sigmoid(model.decision_function(arr))
    return float(proba[0]) if single else proba


def roc_auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative,
    counting ties as one half (normalized Mann-Whitney U)."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be 1-D and aligned")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("both classes must be present")
    order = np.argsort(s, kind="stable")
    ranks = np.empty(s.shape[0], dtype=np.float64)
    sorted_scores = s[order]
    i = 0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0  # average rank, 1-based
        i = j + 1
    rank_sum_pos = float(ranks[y == 1].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


@dataclass
class EvalRow:
    node_kind: str
    n: int
    proportion: float
    proportion_error: float
    auc_model: float | None
    auc_logprob: float | None


def eval_by_kind(model: GbdtModel, records: list[NodeRecord]) -> list[EvalRow]:
    """Per-kind evaluation table with an 'All' row first.

    The log-probability baseline scores error as the negated mean token
    log-probability and is computed only over records that carry one;
    kinds with a single label class report their AUC as undefined.
    """
    if not records:
        return []
    X = np.stack([r.features for r in records])
    scores = np.asarray(predict_proba(model, X), dtype=np.float64)
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
