import itertools

import numpy as np
import pytest

from misens import classify
from misens.classify import (
    KmeansResult,
    kmeans,
    train_binary_svm,
    train_multiclass_svm,
)
from misens import lp
from misens.core import LabelingMatrix, assign_regions
from misens.study import ScenarioConfig, generate_scenario


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
        hp, slacks, _ = train_binary_svm(x, labels, 10.0)
        assert hp.w[0] == pytest.approx(1.0, abs=1e-7)
        assert hp.b_w == pytest.approx(-1.0, abs=1e-7)
        assert np.max(slacks) <= 1e-7

    def test_separable_data_zero_slack_full_accuracy(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(20, 2)) * 0.3 + [2.0, 2.0]
        b = rng.normal(size=(20, 2)) * 0.3 + [-2.0, -2.0]
        x = np.vstack([a, b])
        labels = LabelingMatrix.from_assignments([1] * 20 + [2] * 20, 2)
        hp, slacks, _ = train_binary_svm(x, labels, 100.0)
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
            hp, slacks, _ = train_binary_svm(x, labels, gamma)
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
        hp1, s1, _ = train_binary_svm(x, labels, 50.0)
        hp2, s2, _ = train_binary_svm(4.0 * x, labels, 50.0)
        assert np.max(s1) <= 1e-6 and np.max(s2) <= 1e-6
        assert np.allclose(hp2.w, hp1.w / 4.0, atol=1e-6)

    def test_single_point_classes_allowed(self):
        x = np.array([[1.0], [0.0]])
        labels = LabelingMatrix.from_assignments([1, 2], 2)
        hp, slacks, _ = train_binary_svm(x, labels)
        assert hp.w[0] > 0

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, value):
        x = np.array([[1.0, value], [0.0, 0.0]])
        labels = LabelingMatrix.from_assignments([1, 2], 2)
        with pytest.raises(ValueError, match="non-finite"):
            train_binary_svm(x, labels)

    def test_row_order_does_not_move_the_hyperplane(self):
        # without curvature in b_w and the slacks the optimal face is flat and
        # the solve returned whichever of its points its path reached: this
        # pair's (w, b_w) spread by 5e-2 over the 8 row orders
        train = generate_scenario(ScenarioConfig(kind="clustered", n_total=90, seed=1))[0]
        assign = kmeans(train.inputs, 3, seed=1).labels.assignments()
        rows = np.flatnonzero((assign == 1) | (assign == 3))
        x, labels = train.inputs[rows], np.where(assign[rows] == 1, 1, 2)
        planes = []
        for seed in range(8):
            perm = np.random.default_rng(seed).permutation(rows.shape[0])
            hp, _, _ = train_binary_svm(x[perm], LabelingMatrix.from_assignments(labels[perm], 2))
            planes.append(np.append(hp.w, hp.b_w))
        assert np.ptp(np.array(planes), axis=0).max() <= 1e-6


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
        logic, _ = train_multiclass_svm(x, labels)
        hp, _, _ = train_binary_svm(x, labels)
        assert logic.n_sp == 1
        assert np.allclose(logic.hyperplanes[0].w, hp.w, atol=1e-9)

    def test_three_class_pairs(self):
        rng = np.random.default_rng(5)
        x, labels = self._three_blobs(rng)
        logic, _ = train_multiclass_svm(x, labels)
        assert logic.pairs == ((1, 2), (1, 3), (2, 3))
        assert logic.n_sp == 3

    def test_separable_blobs_recovered_exactly(self):
        rng = np.random.default_rng(6)
        x, labels = self._three_blobs(rng)
        logic, _ = train_multiclass_svm(x, labels)
        assert np.array_equal(assign_regions(x, logic), labels.assignments())

    def test_empty_class_named(self):
        x = np.array([[0.0], [1.0]])
        z = np.array([[1, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError, match="class 3"):
            train_multiclass_svm(x, LabelingMatrix(z))

    def test_no_lp_solve(self, monkeypatch):
        # the dual QP starts dual feasible from its slack bounds: no phase-1 LP
        def refuse(*args, **kwargs):
            raise AssertionError("LP solve during SVM training")

        monkeypatch.setattr(lp, "solve_lp", refuse)
        monkeypatch.setattr(lp, "solve_compiled", refuse)
        x, labels = self._three_blobs(np.random.default_rng(5))
        assert train_multiclass_svm(x, labels)[0].n_sp == 3

    def test_label_permutation_induces_same_partition(self):
        rng = np.random.default_rng(7)
        x, labels = self._three_blobs(rng)
        perm = {1: 2, 2: 3, 3: 1}
        permuted = LabelingMatrix.from_assignments(
            [perm[a] for a in labels.assignments()], 3)
        logic1, _ = train_multiclass_svm(x, labels)
        logic2, _ = train_multiclass_svm(x, permuted)
        r1 = assign_regions(x, logic1)
        r2 = assign_regions(x, logic2)
        assert np.array_equal(np.array([perm[int(a)] for a in r1]), r2)


def test_svm_qps_start_from_their_slack_bounds(monkeypatch):
    # the MIS-std SVMs of the three benchmark scenarios (k-means labels,
    # n_cl = 3, seed 1): 9 pair QPs.  Started at the unconstrained minimum
    # (e = -1e7) they took 242 steps with KKT residuals up to 2.95e-9
    solutions = []
    classify_solve_qp = classify.solve_qp

    def recording_solve_qp(*args, **kwargs):
        solutions.append(classify_solve_qp(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(classify, "solve_qp", recording_solve_qp)
    for kind, n_total in [("clustered", 90), ("uniform", 60), ("uniform", 30)]:
        train = generate_scenario(ScenarioConfig(kind=kind, n_total=n_total, seed=1))[0]
        labels = kmeans(train.inputs, 3, seed=1).labels
        _, kkt = train_multiclass_svm(train.inputs, labels)
        assert kkt == max(s.kkt_residual for s in solutions[-3:])
    assert len(solutions) == 9
    assert sum(s.iterations for s in solutions) <= 120
    assert max(s.kkt_residual for s in solutions) <= 1e-10
