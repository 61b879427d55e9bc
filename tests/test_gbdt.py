import numpy as np
import pytest

from sqluq.featurizer import MANIFEST, NodeRecord
from sqluq.gbdt import (
    DegenerateLabels,
    GbdtConfig,
    GbdtModel,
    ManifestMismatch,
    SingleClass,
    eval_by_kind,
    predict_proba,
    render_eval_table,
    roc_auc,
    train,
    train_matrix,
)


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
        [{"n_trees": 0}, {"learning_rate": 0.0}, {"learning_rate": 1.5}, {"max_leaves": 1}],
    )
    def test_invariants_enforced(self, kwargs):
        with pytest.raises(ValueError):
            GbdtConfig(**kwargs)


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
        assert predict_proba(model, np.ones(3)) < 0.01

    def test_all_labels_one_constant_model(self):
        with pytest.warns(DegenerateLabels):
            model = train_matrix(np.ones((20, 3)), np.ones(20))
        assert predict_proba(model, np.ones(3)) > 0.99

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


class TestPredict:
    def test_hand_computed_tiny_model(self):
        from sqluq.gbdt import Tree

        tree = Tree(feature=[0, -1, -1], threshold=[0.5, 0.0, 0.0],
                    left=[1, -1, -1], right=[2, -1, -1], value=[0.0, -1.0, 2.0])
        config = GbdtConfig(n_trees=1, learning_rate=0.1)
        model = GbdtModel(config=config, base_score=0.3, trees=[tree],
                          manifest_hash="h", feature_count=1)
        # x=0.2 goes left: sigmoid(0.3 + 0.1 * -1.0)
        expected = 1.0 / (1.0 + np.exp(-(0.3 - 0.1)))
        assert predict_proba(model, np.array([0.2]), manifest_hash="h") == pytest.approx(expected)
        expected_right = 1.0 / (1.0 + np.exp(-(0.3 + 0.2)))
        assert predict_proba(model, np.array([0.9]), manifest_hash="h") == pytest.approx(expected_right)

    def test_manifest_mismatch_rejected(self):
        model = GbdtModel(config=GbdtConfig(), base_score=0.0, trees=[],
                          manifest_hash="other", feature_count=3)
        with pytest.raises(ManifestMismatch):
            predict_proba(model, np.zeros(3))

    def test_serialization_round_trip(self):
        rng = np.random.RandomState(6)
        X = rng.randn(100, 3)
        y = (X[:, 0] > 0).astype(float)
        model = train_matrix(X, y, GbdtConfig(n_trees=5, min_samples_leaf=5))
        restored = GbdtModel.from_json(model.to_json())
        assert np.array_equal(predict_proba(model, X), predict_proba(restored, X))
        assert restored.to_json() == model.to_json()


class TestRocAuc:
    def test_scores_equal_labels(self):
        assert roc_auc([0, 1, 0, 1], [0, 1, 0, 1]) == 1.0

    def test_constant_scores_half(self):
        assert roc_auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_single_class_raises(self):
        with pytest.raises(SingleClass):
            roc_auc([0.1, 0.2], [1, 1])

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
    def _model(self, records):
        return train(records, GbdtConfig(n_trees=5, min_samples_leaf=1))

    def test_single_kind_matches_all_row(self):
        records = make_records(
            ["Identifier"] * 8, [0, 1, 0, 1, 0, 1, 0, 1], [0.0, 1.0] * 4
        )
        rows = eval_by_kind(self._model(records), records)
        assert [r.node_kind for r in rows] == ["All", "Identifier"]
        assert rows[0].proportion == 1.0
        assert rows[0].auc_model == rows[1].auc_model

    def test_per_kind_auc_matches_oracle(self):
        rng = np.random.RandomState(8)
        kinds = [rng.choice(["Column", "Table"]) for _ in range(60)]
        labels = [int(rng.rand() < 0.5) for _ in range(60)]
        feats = [rng.rand() + 0.6 * lab for lab in labels]
        records = make_records(kinds, labels, feats)
        model = self._model(records)
        rows = {r.node_kind: r for r in eval_by_kind(model, records)}
        X = np.stack([r.features for r in records])
        scores = predict_proba(model, X)
        for kind in ("Column", "Table"):
            mask = [k == kind for k in kinds]
            expected = brute_force_auc(
                [s for s, m in zip(scores, mask) if m],
                [y for y, m in zip(labels, mask) if m],
            )
            assert rows[kind].auc_model == pytest.approx(expected, abs=1e-12)

    def test_missing_logprobs_leave_baseline_empty(self):
        records = make_records(["Column"] * 6, [0, 1] * 3, [0.0, 1.0] * 3)
        rows = eval_by_kind(self._model(records), records)
        assert all(r.auc_logprob is None for r in rows)

    def test_logprob_baseline_direction(self):
        # erroneous nodes get lower (more negative) logprobs -> AUC near 1
        labels = [0, 1] * 10
        logprobs = [-0.1 if y == 0 else -3.0 for y in labels]
        records = make_records(["Column"] * 20, labels, [0.0, 1.0] * 10, logprobs)
        rows = eval_by_kind(self._model(records), records)
        assert rows[0].auc_logprob == 1.0

    def test_single_class_kind_renders_na(self):
        records = make_records(
            ["Column"] * 4 + ["Star"] * 3,
            [0, 1, 0, 1, 0, 0, 0],
            [0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        )
        rows = {r.node_kind: r for r in eval_by_kind(self._model(records), records)}
        assert rows["Star"].auc_model is None
        assert "n/a" in render_eval_table(list(rows.values()))
