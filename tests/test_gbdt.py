import dataclasses
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from sqluq import gbdt
from sqluq.ast_core import build_alias_map, parse_sql
from sqluq.featurizer import MANIFEST, NodeRecord, featurize_tree
from sqluq.gbdt import (
    DegenerateLabels,
    GbdtConfig,
    GbdtModel,
    ManifestMismatch,
    SingleClass,
    _SCORE_BLOCK_CELLS,
    _best_split,
    _bin_columns,
    _histogram,
    _Leaf,
    _log_loss,
    _sigmoid,
    eval_by_kind,
    predict_proba,
    render_eval_table,
    roc_auc,
    train,
    train_matrix,
)
from sqluq.pipeline import label_and_featurize, predict_sql
from sqluq.synth import SYNTH_SCHEMA, build_planted_corpus


def brute_force_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


class TestConfig:
    def test_defaults(self):
        config = GbdtConfig()
        assert config.n_trees == 100
        assert config.learning_rate == 0.05
        assert config.max_leaves == 31
        assert config.min_samples_leaf == 20

    @pytest.mark.parametrize(
        "kwargs",
        [{"n_trees": 0}, {"learning_rate": 0.0}, {"learning_rate": 1.5}, {"max_leaves": 1},
         {"min_samples_leaf": -1}],
    )
    def test_invariants_enforced(self, kwargs):
        with pytest.raises(ValueError):
            GbdtConfig(**kwargs)


@pytest.mark.parametrize(
    "X, y, match",
    [
        (np.zeros(4), np.zeros(4), "2-D"),
        (np.zeros((3, 2)), np.zeros(4), "one row per label"),
        (np.zeros((1, 2)), np.zeros(1), "at least 2 training rows"),
    ],
    ids=["1-d", "misaligned", "one-row"],
)
def test_train_matrix_rejects_a_bad_shape(X, y, match):
    with pytest.raises(ValueError, match=match):
        train_matrix(X, y)


def test_train_rejects_one_record_and_rows_of_another_width():
    with pytest.raises(ValueError, match="at least 2 records"):
        train(make_records(["Column"], [1], [0.0]))
    records = make_records(["Column"] * 2, [0, 1], [0.0, 1.0])
    for r in records:
        r.features = r.features[:-1]
    with pytest.raises(ManifestMismatch, match=f"manifest defines {MANIFEST.length}"):
        train(records)


class TestTraining:
    def test_separable_data_perfect_training_auc(self):
        rng = np.random.RandomState(0)
        X = rng.randn(300, 4)
        y = (X[:, 2] > 0.1).astype(float)
        model = train_matrix(X, y, GbdtConfig(n_trees=30, learning_rate=0.2, min_samples_leaf=5))
        assert roc_auc(predict_proba(model, X), y) == 1.0

    def test_all_labels_zero_constant_model(self):
        with pytest.warns(DegenerateLabels):
            model = train_matrix(np.ones((20, 3)), np.zeros(20))
        assert not model.trees
        assert predict_proba(model, np.ones((1, 3)))[0] < 0.01

    def test_all_labels_one_constant_model(self):
        with pytest.warns(DegenerateLabels):
            model = train_matrix(np.ones((20, 3)), np.ones(20))
        assert predict_proba(model, np.ones((1, 3)))[0] > 0.99

    def test_xor_layout(self):
        rng = np.random.RandomState(1)
        X = rng.rand(400, 2)
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(float)
        model = train_matrix(
            X, y, GbdtConfig(n_trees=80, learning_rate=0.2, max_leaves=8, min_samples_leaf=5)
        )
        accuracy = float(np.mean((predict_proba(model, X) > 0.5) == y))
        assert accuracy > 0.9

    def test_loss_non_increasing_each_round(self):
        rng = np.random.RandomState(2)
        X = rng.randn(500, 6)
        y = (X[:, 0] + 0.5 * rng.randn(500) > 0).astype(float)
        model = train_matrix(X, y, GbdtConfig(n_trees=50, learning_rate=0.1))
        losses = np.array(model.train_loss_curve)
        assert np.all(np.diff(losses) <= 1e-9)

    def test_bit_identical_retrain(self):
        rng = np.random.RandomState(3)
        X = rng.randn(200, 5)
        y = (X[:, 1] > 0).astype(float)
        config = GbdtConfig(n_trees=15, learning_rate=0.1)
        first = train_matrix(X, y, config)
        second = train_matrix(X.copy(), y.copy(), config)
        assert first.to_json() == second.to_json()

    def test_predictions_strictly_inside_unit_interval(self):
        rng = np.random.RandomState(4)
        X = rng.randn(300, 4)
        y = (X[:, 0] > 0).astype(float)
        model = train_matrix(X, y, GbdtConfig(n_trees=40, learning_rate=0.3, min_samples_leaf=5))
        p = predict_proba(model, X)
        assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_monotone_invariance_of_auc_wrt_scores(self):
        rng = np.random.RandomState(5)
        scores = rng.randn(100)
        labels = rng.randint(0, 2, 100)
        base = roc_auc(scores, labels)
        assert roc_auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-15)
        assert roc_auc(np.tanh(scores), labels) == pytest.approx(base, abs=1e-15)


class TestDistinctRows:
    """Training runs on the distinct feature rows, weighted by their counts."""

    def _data(self):
        rng = np.random.RandomState(17)
        X = rng.randint(0, 6, size=(400, 4)).astype(float)
        y = (X[:, 0] + X[:, 2] + 2.0 * rng.rand(400) > 5.5).astype(float)
        return X, y

    def test_repeated_rows_train_the_same_model(self):
        X, y = self._data()
        order = np.random.RandomState(18).permutation(3 * X.shape[0])
        X3, y3 = np.tile(X, (3, 1))[order], np.tile(y, 3)[order]
        for trees, leaves, min_leaf in ((30, 31, 5), (20, 8, 1)):
            model = train_matrix(X, y, GbdtConfig(n_trees=trees, learning_rate=0.2,
                                                  max_leaves=leaves, min_samples_leaf=min_leaf))
            tripled = train_matrix(X3, y3, GbdtConfig(n_trees=trees, learning_rate=0.2,
                                                      max_leaves=leaves,
                                                      min_samples_leaf=3 * min_leaf))
            assert len(model.trees[0]["feature"]) > 1
            np.testing.assert_allclose(tripled.decision_function(X), model.decision_function(X),
                                       rtol=0, atol=1e-9)

    def test_loss_curve_covers_every_training_row(self):
        X, y = self._data()
        model = train_matrix(X, y, GbdtConfig(n_trees=15, learning_rate=0.2, min_samples_leaf=5))
        assert model.train_loss_curve[-1] == _log_loss(y, model.decision_function(X))

    @pytest.mark.parametrize("copies, splits_off", [(20, True), (9, False)])
    def test_min_samples_leaf_counts_rows_not_distinct_rows(self, copies, splits_off):
        # x0 = 0 is one distinct row, all positive; x0 in 1-4 are many
        # distinct rows, all negative; x1 does not tell them apart
        rng = np.random.RandomState(19)
        lone = np.tile([0.0, 0.5], (copies, 1))
        rest = np.stack([rng.randint(1, 5, 200), rng.rand(200)], axis=1)
        X = np.concatenate([rest[:100], lone, rest[100:]])
        y = (X[:, 0] == 0).astype(float)
        tree = train_matrix(X, y, GbdtConfig(n_trees=1, min_samples_leaf=10)).trees[0]
        split_off = (tree["feature"][0], tree["threshold"][0]) == (0, 0.5)
        assert split_off == splits_off
        if splits_off:  # and the lone row's copies are a leaf of their own
            assert tree["left"][tree["left"][0]] == -1


class TestPredict:
    def test_hand_computed_tiny_model(self):
        tree = dict(feature=[0, -1, -1], threshold=[0.5, 0.0, 0.0],
                    left=[1, -1, -1], right=[2, -1, -1], value=[0.0, -1.0, 2.0])
        config = GbdtConfig(n_trees=1, learning_rate=0.1)
        model = GbdtModel(config=config, base_score=0.3, trees=[tree],
                          manifest_hash=MANIFEST.version_hash, feature_count=1)
        # x=0.2 goes left: sigmoid(0.3 + 0.1 * -1.0)
        expected = 1.0 / (1.0 + np.exp(-(0.3 - 0.1)))
        assert predict_proba(model, np.array([[0.2]]))[0] == pytest.approx(expected)
        expected_right = 1.0 / (1.0 + np.exp(-(0.3 + 0.2)))
        assert predict_proba(model, np.array([[0.9]]))[0] == pytest.approx(expected_right)

    def test_manifest_mismatch_rejected(self):
        model = GbdtModel(config=GbdtConfig(), base_score=0.0, trees=[],
                          manifest_hash="other", feature_count=3)
        with pytest.raises(ManifestMismatch):
            predict_proba(model, np.zeros(3))

    def test_rows_of_another_width_rejected(self):
        model = GbdtModel(config=GbdtConfig(), base_score=0.0, trees=[],
                          manifest_hash=MANIFEST.version_hash, feature_count=3)
        with pytest.raises(ManifestMismatch, match="expected 3 features, got 4"):
            predict_proba(model, np.zeros((2, 4)))

    def test_serialization_round_trip(self):
        rng = np.random.RandomState(6)
        X = rng.randn(100, 3)
        y = (X[:, 0] > 0).astype(float)
        model = train_matrix(X, y, GbdtConfig(n_trees=5, min_samples_leaf=5))
        restored = GbdtModel.from_json(model.to_json())
        assert np.array_equal(predict_proba(model, X), predict_proba(restored, X))
        assert restored.to_json() == model.to_json()


def two_branch_sigmoid(z):
    """The logistic function as two masked branches, e^z overflowing nowhere."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_two_branch_formula_bit_for_bit():
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001],
                    dtype=np.uint64).view(np.float64)
    z = np.concatenate([
        np.linspace(-800.0, 800.0, 200_001),
        [0.0, -0.0, 745.2, -745.2, 709.8, -709.8, 1e-300, -1e-300, 5e-324, -5e-324],
        [np.inf, -np.inf], nans,
    ])
    assert _sigmoid(z).tobytes() == two_branch_sigmoid(z).tobytes()
    assert _sigmoid(np.array([np.inf, -np.inf, 0.0])).tolist() == [1.0, 0.0, 0.5]
    empty = _sigmoid(np.array([], dtype=np.float64))
    assert empty.shape == (0,) and empty.dtype == np.float64


class TestRocAuc:
    def test_scores_equal_labels(self):
        assert roc_auc([0, 1, 0, 1], [0, 1, 0, 1]) == 1.0

    def test_constant_scores_half(self):
        assert roc_auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_single_class_raises(self):
        with pytest.raises(SingleClass):
            roc_auc([0.1, 0.2], [1, 1])

    def test_labels_outside_0_and_1_raise(self):
        for labels in ([0, 1, 2, 1], [0, 1, -1, 1], [0.0, 1.0, 0.5, 1.0], [0, 1, float("nan"), 1]):
            with pytest.raises(ValueError, match="labels must be 0 or 1"):
                roc_auc([0.1, 0.2, 0.3, 0.4], labels)
        assert roc_auc([0.1, 0.2, 0.3, 0.4], [False, True, False, True]) == 0.75
        assert roc_auc([0.1, 0.2, 0.3, 0.4], [0.0, 1.0, 0.0, 1.0]) == 0.75

    def test_nan_score_raises(self):
        with pytest.raises(ValueError, match="finite"):
            roc_auc([0.1, float("nan"), 0.3], [0, 1, 1])

    def test_misaligned_inputs_raise(self):
        for scores, labels in (([0.1, 0.2, 0.3], [0, 1]), ([[0.1, 0.2]], [[0, 1]])):
            with pytest.raises(ValueError, match="1-D and aligned"):
                roc_auc(scores, labels)

    def test_six_point_mixed_set_matches_oracle(self):
        scores = [0.9, 0.1, 0.5, 0.5, 0.3, 0.8]
        labels = [1, 0, 1, 0, 0, 1]
        assert roc_auc(scores, labels) == pytest.approx(
            brute_force_auc(scores, labels), abs=1e-15
        )

    def test_random_instances_match_oracle(self):
        rng = np.random.RandomState(7)
        for _ in range(50):
            n = rng.randint(2, 50)
            labels = rng.randint(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.randn(n), 1)  # coarse grid forces ties
            assert roc_auc(scores, labels) == pytest.approx(
                brute_force_auc(scores, labels), abs=1e-12
            )


def make_records(kinds, labels, scores_feature, logprobs=None):
    records = []
    for i, (kind, label, feat) in enumerate(zip(kinds, labels, scores_feature)):
        features = np.array(MANIFEST.defaults)
        features[0] = feat
        records.append(
            NodeRecord(
                query_id=f"q{i}",
                db_id="db",
                node_id=0,
                node_kind=kind,
                features=features,
                label=label,
                logprob_score=None if logprobs is None else logprobs[i],
            )
        )
    return records


class TestEvalByKind:
    def _scores(self, records):
        model = train(records, GbdtConfig(n_trees=5, min_samples_leaf=1))
        return predict_proba(model, np.stack([r.features for r in records]))

    def test_no_records_give_no_rows(self):
        assert eval_by_kind([], np.zeros(0)) == []

    def test_single_kind_matches_all_row(self):
        records = make_records(
            ["Identifier"] * 8, [0, 1, 0, 1, 0, 1, 0, 1], [0.0, 1.0] * 4
        )
        rows = eval_by_kind(records, self._scores(records))
        assert [r.node_kind for r in rows] == ["All", "Identifier"]
        assert rows[0].proportion == 1.0
        assert rows[0].auc_model == rows[1].auc_model

    def test_per_kind_auc_matches_oracle(self):
        rng = np.random.RandomState(8)
        kinds = [rng.choice(["Column", "Table"]) for _ in range(60)]
        labels = [int(rng.rand() < 0.5) for _ in range(60)]
        feats = [rng.rand() + 0.6 * lab for lab in labels]
        records = make_records(kinds, labels, feats)
        scores = self._scores(records)
        rows = {r.node_kind: r for r in eval_by_kind(records, scores)}
        for kind in ("Column", "Table"):
            mask = [k == kind for k in kinds]
            expected = brute_force_auc(
                [s for s, m in zip(scores, mask) if m],
                [y for y, m in zip(labels, mask) if m],
            )
            assert rows[kind].auc_model == pytest.approx(expected, abs=1e-12)

    def test_missing_logprobs_leave_baseline_empty(self):
        records = make_records(["Column"] * 6, [0, 1] * 3, [0.0, 1.0] * 3)
        rows = eval_by_kind(records, self._scores(records))
        assert all(r.auc_logprob is None for r in rows)

    def test_logprob_baseline_direction(self):
        # erroneous nodes get lower (more negative) logprobs -> AUC near 1
        labels = [0, 1] * 10
        logprobs = [-0.1 if y == 0 else -3.0 for y in labels]
        records = make_records(["Column"] * 20, labels, [0.0, 1.0] * 10, logprobs)
        rows = eval_by_kind(records, self._scores(records))
        assert rows[0].auc_logprob == 1.0

    def test_single_class_kind_renders_na(self):
        records = make_records(
            ["Column"] * 4 + ["Star"] * 3,
            [0, 1, 0, 1, 0, 0, 0],
            [0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        )
        rows = {r.node_kind: r for r in eval_by_kind(records, self._scores(records))}
        assert rows["Star"].auc_model is None
        assert "n/a" in render_eval_table(list(rows.values()))


def exact_greedy_candidates(X, grad, hess, weight, rows, min_samples_leaf):
    """Every legal split of the leaf ``rows`` (a bool mask) with its gain,
    by the exact greedy scan over rows in feature-sorted order that the
    histogram search replaced, each row counting as ``weight`` rows:
    {(feature, threshold): gain}."""
    eps = 1e-16
    sorted_idx = np.argsort(X, axis=0, kind="stable")
    n_rows = float(weight[rows].sum())
    if n_rows < 2 * min_samples_leaf:
        return {}
    grad_sum = float(grad[rows].sum())
    hess_sum = float(hess[rows].sum())
    parent_obj = grad_sum**2 / (hess_sum + eps)
    found = {}
    for j in range(X.shape[1]):
        order = sorted_idx[:, j]
        sel = order[rows[order]]
        vals = X[sel, j]
        g_cum = np.cumsum(grad[sel])
        h_cum = np.cumsum(hess[sel])
        c_cum = np.cumsum(weight[sel])
        for b in np.nonzero(vals[:-1] != vals[1:])[0]:
            count = c_cum[b]
            if count < min_samples_leaf or n_rows - count < min_samples_leaf:
                continue
            gl, hl = g_cum[b], h_cum[b]
            gr, hr = g_cum[-1] - gl, h_cum[-1] - hl
            gain = gl**2 / (hl + eps) + gr**2 / (hr + eps) - parent_obj
            found[(j, float((vals[b] + vals[b + 1]) / 2.0))] = float(gain)
    return found


def histogram_split(X, grad, hess, weight, idx, min_samples_leaf, subtract=False, rng=None):
    """(gain, feature, threshold) of the histogram search on leaf rows idx.
    With subtract, the leaf's histogram comes down a chain of nested row
    sets from all rows, each one's the previous one's minus the rest's, as
    a leaf's larger child gets it in training."""
    bins = _bin_columns(X)
    sums = np.stack((grad, hess, weight), axis=1)
    if subtract:
        rows = np.arange(X.shape[0])
        hist = _histogram(bins, rows, sums)
        while rows.size > idx.size:
            keep = np.union1d(idx, rows[rng.rand(rows.size) < 0.7])
            hist = hist - _histogram(bins, np.setdiff1d(rows, keep), sums)
            rows = keep
    else:
        hist = _histogram(bins, idx, sums)
    leaf = _Leaf(rows=idx, grad_sum=float(grad[idx].sum()), hess_sum=float(hess[idx].sum()),
                 count=float(weight[idx].sum()))
    _best_split(leaf, hist, bins, min_samples_leaf)
    return leaf.gain, leaf.feature, leaf.threshold


class TestSplitSearch:
    def test_matches_exact_greedy_oracle(self):
        rng = np.random.RandomState(11)
        unique_best = 0
        for case in range(300):
            n = rng.randint(2, 60)
            X = rng.randint(0, rng.randint(1, 6), size=(n, rng.randint(1, 6))).astype(float)
            # each row stands for weight training rows, as a distinct row does
            weight = rng.randint(1, 5, n).astype(float)
            grad = weight * rng.randn(n)
            hess = weight * rng.uniform(0.05, 0.25, n)
            mask = rng.rand(n) < rng.uniform(0.3, 1.0)
            mask[rng.randint(n)] = True
            idx = np.flatnonzero(mask)
            min_samples_leaf = rng.randint(0, 12)
            found = exact_greedy_candidates(X, grad, hess, weight, mask, min_samples_leaf)
            for subtract in (False, True):
                gain, feature, threshold = histogram_split(
                    X, grad, hess, weight, idx, min_samples_leaf, subtract, rng
                )
                if not found:
                    assert gain == -1.0, case
                    continue
                ranked = sorted(found.values(), reverse=True)
                assert (feature, threshold) in found, case
                assert gain == pytest.approx(found[feature, threshold], rel=1e-9)
                assert gain == pytest.approx(ranked[0], rel=1e-9)
                if len(ranked) == 1 or ranked[1] < ranked[0] * (1 - 1e-9):
                    # a clear winner: the very same split
                    best = max(found, key=found.get)
                    assert (feature, threshold) == best, case
                    unique_best += not subtract
        assert unique_best >= 150

    def test_wide_columns_match_oracle_within_the_cell_bound(self):
        # up to 300 distinct values, skewed low like depth and sibling_index
        rng = np.random.RandomState(16)
        for case in range(30):
            n = rng.randint(40, 1200)
            X = np.stack([
                np.minimum(rng.geometric(rng.uniform(0.005, 0.3), n), 300),
                rng.randint(0, rng.randint(2, 301), n),
                rng.randint(0, 2, n),
            ], axis=1).astype(float)
            bins = _bin_columns(X)
            for k, j in enumerate(bins.columns):
                cuts = np.unique(X[:, j]).size - 1
                lo, hi = bins.starts[k], bins.starts[k + 1]
                assert hi - lo == cuts
                own = ((bins.codes >= lo) & (bins.codes < hi)).sum(axis=1)
                assert own.max() <= int(np.log2(cuts)) + 1, case
            grad = rng.randn(n)
            hess = rng.uniform(0.05, 0.25, n)
            mask = rng.rand(n) < rng.uniform(0.3, 1.0)
            idx = np.flatnonzero(mask)
            min_samples_leaf = rng.randint(1, 10)
            weight = np.ones(n)
            found = exact_greedy_candidates(X, grad, hess, weight, mask, min_samples_leaf)
            best = max(found, key=found.get)
            for subtract in (False, True):
                gain, feature, threshold = histogram_split(
                    X, grad, hess, weight, idx, min_samples_leaf, subtract, rng
                )
                assert (feature, threshold) == best, case
                assert gain == pytest.approx(found[best], rel=1e-9)

    def test_threshold_is_midpoint_of_values_present_in_leaf(self):
        # the column holds 0, 1 and 2; the leaf holds only the 0s and 2s
        rng = np.random.RandomState(15)
        X = np.array([[0.0], [1.0], [2.0]] * 40)
        idx = np.flatnonzero(X[:, 0] != 1.0)
        for _ in range(40):
            grad = np.where(X[:, 0] == 0.0, -1.0, 1.0) * rng.uniform(0.1, 0.9, 120)
            hess = rng.uniform(0.05, 0.25, 120)
            for subtract in (False, True):
                gain, feature, threshold = histogram_split(
                    X, grad, hess, np.ones(120), idx, 1, subtract, rng
                )
                assert (feature, threshold) == (0, 1.0)
                assert gain > 0

    def test_identical_columns_split_on_lower_index(self):
        rng = np.random.RandomState(12)
        col = rng.randint(0, 4, 80).astype(float)
        X = np.stack([rng.randint(0, 2, 80), col, col], axis=1).astype(float)
        y = (col + rng.rand(80) > 2.0).astype(float)
        model = train_matrix(X, y, GbdtConfig(n_trees=10, min_samples_leaf=3))
        used = {f for t in model.trees for f, l in zip(t["feature"], t["left"]) if l != -1}
        assert 1 in used and 2 not in used


def test_check_splits_script_finds_no_mismatch(capsys):
    # the exact row-scan check of every leaf search, on a small planted corpus
    path = Path(__file__).resolve().parents[1] / "scripts" / "check_splits.py"
    spec = importlib.util.spec_from_file_location("check_splits", path)
    check_splits = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_splits)
    assert check_splits.main(["--pairs", "40", "--seeds", "0"]) == 0
    out = capsys.readouterr().out
    searches = re.search(r"(\d+) leaf searches", out)
    assert searches and int(searches.group(1)) > 0, out
    assert gbdt._best_split is _best_split  # the script put the trainer back


def traverse_oracle(model, X):
    """Per-tree, per-row traversal, adding trees in model order."""
    score = np.full(X.shape[0], model.base_score, dtype=np.float64)
    for tree in model.trees:
        out = np.empty(X.shape[0], dtype=np.float64)
        for r in range(X.shape[0]):
            i = 0
            while tree["left"][i] != -1:
                go_left = X[r, tree["feature"][i]] <= tree["threshold"][i]
                i = tree["left"][i] if go_left else tree["right"][i]
            out[r] = tree["value"][i]
        score += model.config.learning_rate * out
    return score


class TestPackedEnsemble:
    def _data(self, n=600, f=5):
        rng = np.random.RandomState(13)
        X = rng.randint(0, 6, size=(n, f)).astype(float)
        y = ((X[:, 0] + X[:, 3] + rng.rand(n) * 3) > 6).astype(float)
        X_new = rng.randint(-1, 8, size=(n, f)).astype(float)
        X_new[0, :] = np.nan  # NaN never goes left
        return X, y, X_new

    @pytest.mark.parametrize(
        "config",
        [
            GbdtConfig(n_trees=3, max_leaves=2, min_samples_leaf=1),
            GbdtConfig(n_trees=25, learning_rate=0.3, min_samples_leaf=1),
            GbdtConfig(n_trees=40, max_leaves=8, min_samples_leaf=30),
        ],
    )
    def test_trained_models_match_oracle(self, config):
        X, y, X_new = self._data()
        model = train_matrix(X, y, config)
        for data in (X, X_new):
            assert np.array_equal(model.decision_function(data), traverse_oracle(model, data))
        restored = GbdtModel.from_json(model.to_json())
        assert np.array_equal(restored.decision_function(X_new), traverse_oracle(model, X_new))

    def test_root_leaf_tree_and_zero_trees(self):
        _, _, X_new = self._data(n=40)
        leaf = dict(feature=[-1], threshold=[0.0], left=[-1], right=[-1], value=[0.7])
        for trees in ([leaf, leaf], []):
            model = GbdtModel(config=GbdtConfig(), base_score=-0.3, trees=trees,
                              manifest_hash="h", feature_count=5)
            assert np.array_equal(model.decision_function(X_new), traverse_oracle(model, X_new))

    def test_single_row_input(self):
        X, y, X_new = self._data()
        model = train_matrix(X, y, GbdtConfig(n_trees=20, min_samples_leaf=2))
        # rows come as a 2-D matrix only: one row is a matrix of one row
        for features in (X_new[0], X_new[0, 0], X_new[None, :2]):
            with pytest.raises(ValueError, match="features must be a 2-D matrix of rows"):
                predict_proba(model, features)

    @pytest.mark.parametrize("max_leaves, words", [(2, 1), (64, 1), (65, 2), (130, 3), (255, 4)])
    def test_mask_widths_match_oracle(self, max_leaves, words):
        # continuous features, so every tree can reach its leaf budget
        rng = np.random.RandomState(max_leaves)
        X = rng.randn(1500, 6)
        y = (X[:, 0] * X[:, 1] + rng.randn(1500) > 0).astype(float)
        model = train_matrix(X, y, GbdtConfig(n_trees=3, max_leaves=max_leaves,
                                              min_samples_leaf=1))
        packed = model._ensemble
        assert max(len(t["feature"]) for t in model.trees) == 2 * max_leaves - 1
        assert packed.clear.shape[1] == words
        assert 1 <= packed.block_rows and packed.block_rows * packed.clear.size <= _SCORE_BLOCK_CELLS
        X_new = rng.randn(300, 6) * 2
        X_new[::7, rng.randint(0, 6)] = np.nan
        for data in (X, X_new, X_new[:1]):
            assert np.array_equal(model.decision_function(data), traverse_oracle(model, data))

    def test_root_leaves_between_deep_trees(self):
        X, y, X_new = self._data()
        deep = train_matrix(X, y, GbdtConfig(n_trees=3, max_leaves=80, min_samples_leaf=1)).trees
        leaf = dict(feature=[-1], threshold=[0.0], left=[-1], right=[-1], value=[-0.4])
        model = GbdtModel(config=GbdtConfig(), base_score=0.2,
                          trees=[leaf, deep[0], leaf, leaf, deep[1], deep[2], leaf],
                          manifest_hash="h", feature_count=5)
        for data in (X_new, X_new[:1], X_new[1:2]):
            assert np.array_equal(model.decision_function(data), traverse_oracle(model, data))

    def test_lone_leaves_over_no_features(self):
        model = train_matrix(np.zeros((10, 0)), np.array([0.0, 1.0] * 5),
                             GbdtConfig(n_trees=3, min_samples_leaf=1))
        X = np.zeros((4, 0))
        assert np.array_equal(model.decision_function(X), traverse_oracle(model, X))

    def test_nan_rows_go_right_at_every_node(self):
        X, y, _ = self._data()
        model = train_matrix(X, y, GbdtConfig(n_trees=10, max_leaves=16, min_samples_leaf=2))
        rows = np.tile(X[:40], (2, 1))
        rows[:40] = np.nan
        rows[40:, ::2] = np.nan
        assert np.array_equal(model.decision_function(rows), traverse_oracle(model, rows))
        for row in rows[::9]:
            expected = float(_sigmoid(traverse_oracle(model, row[None, :]))[0])
            assert predict_proba(model, row[None, :])[0] == expected


def random_tree(rng, leaves, n_features, threshold):
    """A random tree in preorder with ``leaves`` leaves; ``threshold(rng)``
    draws each split's threshold."""
    feature, thresholds, left, right, value = [], [], [], [], []

    def grow(n):
        i = len(feature)
        feature.append(-1), thresholds.append(0.0), left.append(-1), right.append(-1)
        value.append(float(rng.randn()))
        if n > 1:
            k = rng.randint(1, n)
            feature[i], thresholds[i] = int(rng.randint(n_features)), float(threshold(rng))
            left[i] = grow(k)
            right[i] = grow(n - k)
        return i

    grow(leaves)
    return dict(feature=feature, threshold=thresholds, left=left, right=right, value=value)


def hand_tree(spec):
    """A tree from nested ``(feature, threshold, left, right)`` tuples with
    leaf values at the bottom, numbered in preorder."""
    tree = dict(feature=[], threshold=[], left=[], right=[], value=[])
    stack = [(spec, None, None)]
    while stack:
        node, parent, side = stack.pop()
        i = len(tree["feature"])
        if parent is not None:
            tree[side][parent] = i
        leaf = not isinstance(node, tuple)
        tree["feature"].append(-1 if leaf else node[0])
        tree["threshold"].append(0.0 if leaf else node[1])
        tree["left"].append(-1), tree["right"].append(-1)
        tree["value"].append(float(node) if leaf else 0.0)
        if not leaf:
            stack += [(node[3], i, "right"), (node[2], i, "left")]
    return tree


def scoring_rows(rng, n, n_features, pool):
    """Rows whose cells come from ``pool`` (split thresholds among them),
    NaN, +-inf and +-0.0; in the first half of the rows, about half the
    cells are random normals instead."""
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
    cells = np.concatenate([np.asarray(pool, dtype=np.float64), special])
    X = cells[rng.randint(cells.size, size=(n, n_features))]
    X[: n // 2] = np.where(rng.rand(n // 2, n_features) < 0.5, X[: n // 2],
                           rng.randn(n // 2, n_features) * 3)
    return X


def assert_scores_match_oracle(model, X, monkeypatch):
    """Bit for bit with a cold memo, then a warm one (the rows again,
    shuffled), then one bounded at 3 patterns; scoring changes neither the
    model file, nor equality, nor repr."""
    doc, twin = model.to_json(), dataclasses.replace(model)
    packed = model._ensemble
    patterns = len(np.unique(~(X[:, packed.cond_feature] <= packed.cond_threshold), axis=0))
    rng = np.random.RandomState(0)

    def check(scored, rows):
        expected = traverse_oracle(model, rows)
        for order in (np.arange(len(rows)), rng.permutation(len(rows))):
            got = scored.decision_function(rows[order])
            assert got.view(np.uint64).tolist() == expected[order].view(np.uint64).tolist()

    for rows in (X, X[:1], X[1:2], X[:0]):
        check(dataclasses.replace(model), rows)
    # each pattern goes through the QuickScorer once, on the cold pass
    scored = []
    exit_scores = gbdt._Ensemble._exit_scores
    monkeypatch.setattr(gbdt._Ensemble, "_exit_scores",
                        lambda self, right: scored.append(len(right)) or exit_scores(self, right))
    check(model, X)
    assert len(packed.memo) == sum(scored) == patterns
    monkeypatch.setattr(gbdt, "_SCORE_MEMO_SIZE", 3)
    bounded = dataclasses.replace(model)
    check(bounded, X)
    assert len(bounded._ensemble.memo) == min(3, patterns)
    assert model.to_json() == doc and model == twin and repr(model) == repr(twin)


class TestScoringDifferential:
    """decision_function against per-row traversal, bit for bit, on models
    whose nodes share few or many (feature, threshold) conditions."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_models_over_integer_features(self, seed, monkeypatch):
        rng = np.random.RandomState(seed)
        trees = [random_tree(rng, rng.randint(1, 40), 4, lambda r: r.randint(-2, 4) + 0.5)
                 for _ in range(12)]
        model = GbdtModel(config=GbdtConfig(learning_rate=0.3), base_score=0.1, trees=trees,
                          manifest_hash="h", feature_count=4)
        assert model._ensemble.cond_feature.size <= 4 * 6  # 6 thresholds a column
        X = scoring_rows(rng, 200, 4, np.arange(-3.0, 6.0, 0.5))
        assert_scores_match_oracle(model, X, monkeypatch)

    @pytest.mark.parametrize("budget, words", [(60, 1), (100, 2), (150, 3), (250, 4)])
    def test_random_models_over_continuous_features(self, budget, words, monkeypatch):
        rng = np.random.RandomState(budget)
        grid = np.round(rng.randn(40), 2)
        leaves = [budget, 1, *rng.randint(1, budget + 1, size=4)]
        trees = [random_tree(rng, n, 5, lambda r: r.choice(grid)) for n in leaves]
        model = GbdtModel(config=GbdtConfig(learning_rate=0.2), base_score=-0.4, trees=trees,
                          manifest_hash="h", feature_count=5)
        assert model._ensemble.clear.shape[1] == words
        assert_scores_match_oracle(model, scoring_rows(rng, 300, 5, grid), monkeypatch)

    def test_one_condition_repeated_within_and_across_trees(self, monkeypatch):
        trees = [
            hand_tree((0, 0.0, (0, 0.0, 1.0, 2.0), (1, -0.0, (0, 0.0, 3.0, 4.0), 5.0))),
            hand_tree((0, -0.0, (1, 0.0, 6.0, (0, -0.0, 7.0, 8.0)), (0, 0.0, 9.0, 10.0))),
            hand_tree(11.0),
            hand_tree((1, -0.0, (1, -0.0, (1, 0.0, 12.0, 13.0), 14.0), (2, 2.5, 15.0, 16.0))),
        ]
        model = GbdtModel(config=GbdtConfig(learning_rate=0.5), base_score=0.25, trees=trees,
                          manifest_hash="h", feature_count=3)
        # 0.0 and -0.0 compare alike, so each column holds one condition at 0
        packed = model._ensemble
        conds = zip(packed.cond_feature.tolist(), packed.cond_threshold.tolist())
        assert sorted(conds) == [(0, 0.0), (1, 0.0), (2, 2.5)]
        # a tree's nodes on one condition are one node; the lone leaf's pad
        # takes condition 0
        assert packed.cond.tolist() == [0, 1, 0, 1, 0, 1, 2]
        assert packed.starts.tolist() == [0, 2, 4, 5]
        values = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, -1e-300, 2.5, 3.0]
        X = np.array([[a, b, c] for a in values for b in values for c in (2.5, np.nan, 9.0)])
        assert_scores_match_oracle(model, X, monkeypatch)


def test_served_queries_repeat_few_condition_patterns():
    # the serve benchmark's model (40 planted pairs of seed 0, the default
    # config) on the 200 planted queries of seed 1, which it never saw:
    # 3,009 rows hold 88 patterns
    rows = [nr for pair in build_planted_corpus(40, seed=0)
            for nr in label_and_featurize(pair.record, SYNTH_SCHEMA).node_records]
    model = GbdtModel.from_json(train(rows, GbdtConfig()).to_json())
    matrices, p_error = [], []
    for pair in build_planted_corpus(200, seed=1):
        sql = pair.record.generated_sql
        p_error.append(predict_sql(model, sql, SYNTH_SCHEMA)[1])
        tree = parse_sql(sql)
        matrices.append(featurize_tree(tree, build_alias_map(tree), SYNTH_SCHEMA)[1])
    assert len(model._ensemble.memo) <= 150
    # the oracle scores each distinct row once
    distinct, inverse = np.unique(np.concatenate(matrices), axis=0, return_inverse=True)
    expected = _sigmoid(traverse_oracle(model, distinct))[inverse.ravel()]
    assert np.concatenate(p_error).tolist() == expected.tolist()


@pytest.mark.parametrize(
    "tree, match",
    [
        # children lie after their parent, yet node 3 is reachable twice
        (dict(feature=[0, 1, 1, -1, -1], threshold=[0.0] * 5, left=[1, 3, 3, -1, -1],
              right=[2, 4, 4, -1, -1], value=[0.0] * 5), "two parents"),
        # the root is a leaf, so nodes 1-3 hang from nothing
        (dict(feature=[-1, 0, -1, -1], threshold=[0.0] * 4, left=[-1, 2, -1, -1],
              right=[-1, 3, -1, -1], value=[0.0] * 4), "not reachable from the root"),
    ],
    ids=["two-parents", "orphans"],
)
def test_a_node_with_two_parents_is_rejected(tree, match):
    with pytest.raises(ValueError, match=match):
        GbdtModel(config=GbdtConfig(), base_score=0.0, trees=[tree],
                  manifest_hash="h", feature_count=2)


def _model_doc():
    rng = np.random.RandomState(14)
    X = rng.randn(120, 3)
    y = (X[:, 0] > 0).astype(float)
    return json.loads(train_matrix(X, y, GbdtConfig(n_trees=2, min_samples_leaf=5)).to_json())


@pytest.mark.parametrize(
    "field, index, value",
    [
        ("feature", 0, 999),  # past feature_count
        ("feature", 0, -1),  # a leaf's marker on an internal node
        ("left", 0, 0),  # a child loop: the walk would never end
        ("right", 0, 10_000),  # past the last node
        ("threshold", 0, float("inf")),
        ("value", -1, float("nan")),
        ("value", None, None),  # one entry short
    ],
)
def test_from_json_rejects_malformed_tree(field, index, value):
    doc = _model_doc()
    tree = doc["trees"][1]
    if index is None:
        tree[field].pop()
    else:
        tree[field][index] = value
    with pytest.raises(ValueError, match="malformed model file"):
        GbdtModel.from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "reshape",
    [
        lambda tree: {key: tree[key] for key in tree if key != "value"},
        lambda tree: {**tree, "gain": [0.0] * len(tree["value"])},
        lambda tree: list(tree.values()),
        lambda tree: {key: [] for key in tree},
    ],
    ids=["missing-value", "extra-gain", "a-list", "empty-lists"],
)
def test_from_json_rejects_a_tree_of_other_keys(reshape):
    doc = _model_doc()
    doc["trees"][1] = reshape(doc["trees"][1])
    with pytest.raises(ValueError, match="malformed model file"):
        GbdtModel.from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "text, message",
    [
        (json.dumps({"format": "sqluq-features", "version": 1}), "not a model file"),
        (json.dumps([1, 2]), "not a model file"),
        ("[" * 100_000, "malformed model file: nested too deep"),
    ],
    ids=["other-format", "a-list", "nested-too-deep"],
)
def test_from_json_rejects_a_document_that_is_no_model(text, message):
    with pytest.raises(ValueError) as info:
        GbdtModel.from_json(text)
    assert str(info.value) == message


def test_from_json_rejects_an_integer_past_the_digit_limit():
    text = '{"format": "sqluq-gbdt-model", "version": ' + "1" * 5000 + "}"
    with pytest.raises(ValueError, match=r"^malformed model file: Exceeds the limit \(4300 digits\)"):
        GbdtModel.from_json(text)


def test_from_json_rejects_trees_that_are_not_a_list():
    doc = _model_doc()
    doc["trees"] = {}
    with pytest.raises(ValueError, match="malformed model file"):
        GbdtModel.from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.update(version=99),
        lambda doc: doc.pop("version"),
        lambda doc: doc.update(train_loss_curve="abc"),
        lambda doc: doc.update(base_score=True),
        lambda doc: doc.update(feature_count=True),
    ],
    ids=["version-99", "no-version", "loss-curve-a-string", "base-score-true",
         "feature-count-true"],
)
def test_from_json_rejects_a_malformed_header_field(edit):
    doc = _model_doc()
    edit(doc)
    with pytest.raises(ValueError, match="malformed model file"):
        GbdtModel.from_json(json.dumps(doc))
