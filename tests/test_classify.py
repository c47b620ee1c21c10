import itertools

import numpy as np
import pytest

from misens.classify import (
    KmeansResult,
    SvmConfig,
    kmeans,
    train_binary_svm,
    train_multiclass_svm,
)
from misens.core import LabelingMatrix, assign_regions


class TestKmeans:
    def test_single_cluster_is_mean(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(15, 2))
        res = kmeans(x, 1, seed=0)
        assert np.allclose(res.centroids[0], x.mean(axis=0))
        assert list(res.labels.assignments()) == [1] * 15

    def test_one_cluster_per_point(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 2))
        res = kmeans(x, 6, seed=3)
        assert res.sse == pytest.approx(0.0, abs=1e-18)

    def test_two_point_pairs_grouped(self):
        x = np.array([[0.0, 0.0], [0.01, 0.0], [1.0, 1.0], [0.99, 1.0]])
        # oracle: brute force over all 2-partitions picks the pairing
        best = None
        for mask in itertools.product([0, 1], repeat=4):
            if len(set(mask)) < 2:
                continue
            sse = 0.0
            for g in (0, 1):
                pts = x[[i for i in range(4) if mask[i] == g]]
                sse += ((pts - pts.mean(axis=0)) ** 2).sum()
            if best is None or sse < best[0]:
                best = (sse, mask)
        assert best[1] in ((0, 0, 1, 1), (1, 1, 0, 0))
        res = kmeans(x, 2, seed=0)
        a = res.labels.assignments()
        assert a[0] == a[1] and a[2] == a[3] and a[0] != a[2]
        assert res.sse == pytest.approx(best[0], abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="clusters"):
            kmeans(np.zeros((2, 1)), 3)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 2))
        a = kmeans(x, 3, seed=11)
        b = kmeans(x, 3, seed=11)
        assert np.array_equal(a.labels.entries, b.labels.entries)
        assert a.sse == b.sse

    def test_sse_definition_holds(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 3))
        res = kmeans(x, 4, seed=2)
        assign = res.labels.assignments() - 1
        sse = ((x - res.centroids[assign]) ** 2).sum()
        assert res.sse == pytest.approx(sse, rel=1e-12)
        assert all(res.labels.class_sizes() > 0)


class TestBinarySvm:
    def test_two_point_hand_kkt(self):
        # class 1 at x=2, class 2 at x=0: active margins give w=1, b=-1;
        # stationarity: w = 2*l1, l1 = l2 = 0.5 <= gamma, slacks zero
        x = np.array([[2.0], [0.0]])
        labels = LabelingMatrix.from_assignments([1, 2], 2)
        hp, slacks = train_binary_svm(x, labels, SvmConfig(gamma=10.0))
        assert hp.w[0] == pytest.approx(1.0, abs=1e-7)
        assert hp.b_w == pytest.approx(-1.0, abs=1e-7)
        assert np.max(slacks) <= 1e-7

    def test_separable_data_zero_slack_full_accuracy(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(20, 2)) * 0.3 + [2.0, 2.0]
        b = rng.normal(size=(20, 2)) * 0.3 + [-2.0, -2.0]
        x = np.vstack([a, b])
        labels = LabelingMatrix.from_assignments([1] * 20 + [2] * 20, 2)
        hp, slacks = train_binary_svm(x, labels, SvmConfig(gamma=100.0))
        assert np.max(slacks) <= 1e-6
        side = x @ hp.w + hp.b_w
        assert np.all(side[:20] >= 1.0 - 1e-6)
        assert np.all(side[20:] <= -1.0 + 1e-6)

    def test_overlap_objective_monotone_in_gamma(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(15, 2)) + [0.5, 0.0]
        b = rng.normal(size=(15, 2)) - [0.5, 0.0]
        x = np.vstack([a, b])
        labels = LabelingMatrix.from_assignments([1] * 15 + [2] * 15, 2)
        prev = None
        for gamma in [10.0, 1.0, 0.1, 0.01]:
            hp, slacks = train_binary_svm(x, labels, SvmConfig(gamma=gamma))
            obj = 0.5 * float(hp.w @ hp.w) + gamma * slacks.sum()
            if prev is not None:
                assert obj <= prev + 1e-8  # smaller gamma can only lower the optimum
            prev = obj
        assert slacks.max() > 0  # overlapping classes need slack

    def test_input_scaling_rescales_w(self):
        # for separable zero-slack data the margin constraints are active in
        # pairs; scaling x by t>0 scales the optimal w by 1/t
        x = np.array([[1.0, 0.0], [3.0, 0.5], [-1.0, 0.2], [-3.0, -0.5]])
        labels = LabelingMatrix.from_assignments([1, 1, 2, 2], 2)
        hp1, s1 = train_binary_svm(x, labels, SvmConfig(gamma=50.0))
        hp2, s2 = train_binary_svm(4.0 * x, labels, SvmConfig(gamma=50.0))
        assert np.max(s1) <= 1e-6 and np.max(s2) <= 1e-6
        assert np.allclose(hp2.w, hp1.w / 4.0, atol=1e-6)

    def test_single_point_classes_allowed(self):
        x = np.array([[1.0], [0.0]])
        labels = LabelingMatrix.from_assignments([1, 2], 2)
        hp, slacks = train_binary_svm(x, labels)
        assert hp.w[0] > 0


class TestMulticlassSvm:
    def _three_blobs(self, rng, spread=0.15):
        centers = np.array([[0.0, 0.0], [2.0, 0.2], [1.0, 2.0]])
        pts = []
        labels = []
        for j, c in enumerate(centers, start=1):
            pts.append(rng.normal(size=(12, 2)) * spread + c)
            labels += [j] * 12
        return np.vstack(pts), LabelingMatrix.from_assignments(labels, 3)

    def test_two_class_reduces_to_binary(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(10, 2)) * 0.2 + [1.0, 1.0]
        b = rng.normal(size=(10, 2)) * 0.2 - [1.0, 1.0]
        x = np.vstack([a, b])
        labels = LabelingMatrix.from_assignments([1] * 10 + [2] * 10, 2)
        logic = train_multiclass_svm(x, labels)
        hp, _ = train_binary_svm(x, labels)
        assert logic.n_sp == 1
        assert np.allclose(logic.hyperplanes[0].w, hp.w, atol=1e-9)

    def test_three_class_pairs(self):
        rng = np.random.default_rng(5)
        x, labels = self._three_blobs(rng)
        logic = train_multiclass_svm(x, labels)
        assert logic.pairs == ((1, 2), (1, 3), (2, 3))
        assert logic.n_sp == 3

    def test_separable_blobs_recovered_exactly(self):
        rng = np.random.default_rng(6)
        x, labels = self._three_blobs(rng)
        logic = train_multiclass_svm(x, labels)
        assert np.array_equal(assign_regions(x, logic), labels.assignments())

    def test_empty_class_named(self):
        x = np.array([[0.0], [1.0]])
        z = np.array([[1, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError, match="class 3"):
            train_multiclass_svm(x, LabelingMatrix(z))

    def test_label_permutation_induces_same_partition(self):
        rng = np.random.default_rng(7)
        x, labels = self._three_blobs(rng)
        perm = {1: 2, 2: 3, 3: 1}
        permuted = LabelingMatrix.from_assignments(
            [perm[a] for a in labels.assignments()], 3)
        logic1 = train_multiclass_svm(x, labels)
        logic2 = train_multiclass_svm(x, permuted)
        r1 = assign_regions(x, logic1)
        r2 = assign_regions(x, logic2)
        assert np.array_equal(np.array([perm[int(a)] for a in r1]), r2)
