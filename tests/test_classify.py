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


# The per-restart k-means that the batched one in `classify` replaced, kept
# verbatim as its reference: the restarts one after another, each a Python
# loop over its clusters, and its own `Generator.choice` draw.

def _kmeans_pp_seed(x: np.ndarray, n_cl: int, rng) -> np.ndarray:
    n = x.shape[0]
    centroids = np.empty((n_cl, x.shape[1]))
    centroids[0] = x[int(rng.integers(n))]
    for j in range(1, n_cl):
        d2 = np.min(((x[:, None, :] - centroids[None, :j, :]) ** 2).sum(axis=2), axis=1)
        total = d2.sum()
        if total <= 0.0:
            centroids[j] = x[int(rng.integers(n))]
        else:
            centroids[j] = x[int(rng.choice(n, p=d2 / total))]
    return centroids


def _assign(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def _sse(x: np.ndarray, centroids: np.ndarray, assign: np.ndarray) -> float:
    return float(((x - centroids[assign]) ** 2).sum())


def _lloyd(x: np.ndarray, n_cl: int, rng) -> tuple[np.ndarray, np.ndarray, float, int]:
    centroids = _kmeans_pp_seed(x, n_cl, rng)
    assign = _assign(x, centroids)
    prev_sse = np.inf
    iterations = 0
    for _ in range(classify.KMEANS_MAX_ITER):
        iterations += 1
        reseeded = False
        for j in range(n_cl):
            members = assign == j
            if members.any():
                centroids[j] = x[members].mean(axis=0)
            else:
                # reseed an empty cluster at the point farthest from its centroid
                dist = ((x - centroids[assign]) ** 2).sum(axis=1)
                centroids[j] = x[int(dist.argmax())]
                reseeded = True
        new_assign = _assign(x, centroids)
        sse = _sse(x, centroids, new_assign)
        if not reseeded:
            assert sse <= prev_sse + 1e-9, "k-means SSE increased within a Lloyd iteration"
        prev_sse = sse
        if np.array_equal(new_assign, assign) and not reseeded:
            assign = new_assign
            break
        assign = new_assign
    return centroids, assign, _sse(x, centroids, assign), iterations


def reference_kmeans(inputs, n_cl: int, seed: int = 0) -> KmeansResult:
    """Best-of-restarts Lloyd's algorithm on the input rows only."""
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    n = x.shape[0]
    if n_cl < 1:
        raise ValueError("n_cl must be at least 1")
    if n < n_cl:
        raise ValueError(f"cannot form {n_cl} clusters from {n} points")
    best = None
    for restart in range(classify.KMEANS_RESTARTS):
        rng = np.random.default_rng([seed, restart])
        centroids, assign, sse, iterations = _lloyd(x, n_cl, rng)
        if best is None or sse < best[2] - 1e-15:
            best = (centroids, assign, sse, iterations)
    centroids, assign, sse, iterations = best
    labels = LabelingMatrix.from_assignments(assign + 1, n_cl)
    return KmeansResult(centroids, labels, sse, iterations)


# the batched restarts agree with the reference to the last bit on every draw
# tried, but they sum a point's squared distance over its coordinates in order,
# where numpy's reduction over a row of 8 or more does not: float64 roundoff is
# the bound allowed
KMEANS_RTOL = 1e-14


def assert_matches_reference(x, n_cl, seed):
    got, want = kmeans(x, n_cl, seed), reference_kmeans(x, n_cl, seed)
    assert np.array_equal(got.labels.entries, want.labels.entries)
    assert got.iterations == want.iterations
    np.testing.assert_allclose(got.centroids, want.centroids, rtol=KMEANS_RTOL, atol=0.0)
    assert got.sse == pytest.approx(want.sse, rel=KMEANS_RTOL, abs=0.0)
    return got


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


class TestBatchedRestarts:
    """`kmeans` runs its restarts side by side; the loop above is the oracle."""

    def test_matches_the_loop_on_pct_scenarios(self):
        # seeds 1-24, cycling through the benchmark's three scenario shapes
        shapes = [("clustered", 90), ("uniform", 60), ("uniform", 30)]
        draws = 0
        for seed in range(1, 25):
            kind, n_total = shapes[seed % 3]
            train = generate_scenario(ScenarioConfig(kind=kind, n_total=n_total, seed=seed))[0]
            for n_cl in range(1, 6):
                for km_seed in (0, 1, 2):
                    assert_matches_reference(train.inputs, n_cl, km_seed)
                    draws += 1
        assert draws == 360

    def test_matches_the_loop_on_random_inputs(self):
        meta = np.random.default_rng(31)
        draws = 0
        for t in range(12):
            n, n_p = int(meta.integers(8, 61)), int(meta.integers(1, 4))
            # half continuous, half on a coarse grid with repeated points
            x = meta.normal(size=(n, n_p)) if t % 2 else meta.integers(0, 4, (n, n_p)) / 4.0
            for n_cl in range(1, 6):
                for seed in (0, 1, 2):
                    assert_matches_reference(x, n_cl, seed)
                    draws += 1
        assert draws == 180

    def test_duplicate_points_redraw_and_reseed(self):
        # three distinct points for four clusters: the fourth centre's D^2
        # sums to zero, so it is a uniform redraw, it duplicates a centre,
        # and Lloyd reseeds the empty cluster on every pass
        x = np.array([[0.0, 0.0]] * 3 + [[1.0, 0.0]] * 2 + [[0.0, 2.0]])
        # the reseed hides which point the redraw chose, so compare the seeds
        for n_cl in (4, 5):
            seeds = classify._kmeans_pp_seed(x, n_cl, [np.random.default_rng([0, r])
                                                       for r in range(10)])
            for r in range(10):
                assert np.array_equal(seeds[r], _kmeans_pp_seed(x, n_cl,
                                                                np.random.default_rng([0, r])))
        res = assert_matches_reference(x, 4, 0)
        assert res.iterations == classify.KMEANS_MAX_ITER
        res = assert_matches_reference(np.ones((5, 2)), 2, 3)
        assert res.sse == 0.0

    def test_empty_cluster_reseeds_in_cluster_order(self):
        # the loop's reseed of cluster j measures distances to the centres
        # as they stand: the means of clusters before j, the old centres after
        rng = np.random.default_rng(37)
        seen = 0
        for _ in range(200):
            n, n_cl, n_p = int(rng.integers(4, 12)), int(rng.integers(2, 5)), 2
            x = rng.normal(size=(n, n_p))
            old = rng.normal(size=(3, n_cl, n_p))
            assign = rng.integers(0, n_cl, size=(3, n))
            assign[1] %= n_cl - 1 if n_cl > 2 else 1  # restart 1 leaves its last cluster empty
            assign[2][assign[2] == 0] = 1             # restart 2 its first
            new, reseeded = classify._centroid_step(x, old, assign)
            for r in range(3):
                want = old[r].copy()
                was_reseeded = False
                for j in range(n_cl):  # the reference's inner loop
                    members = assign[r] == j
                    if members.any():
                        want[j] = x[members].mean(axis=0)
                    else:
                        dist = ((x - want[assign[r]]) ** 2).sum(axis=1)
                        want[j] = x[int(dist.argmax())]
                        was_reseeded = True
                np.testing.assert_allclose(new[r], want, rtol=KMEANS_RTOL, atol=0.0)
                assert reseeded[r] == was_reseeded
                seen += was_reseeded
        assert seen >= 300

    def test_one_cluster_per_point_and_one_cluster(self):
        x = np.random.default_rng(41).normal(size=(7, 3))
        for seed in (0, 1, 2):
            assert assert_matches_reference(x, 7, seed).sse == 0.0
            assert_matches_reference(x, 1, seed)

    def test_inverse_cdf_draw_is_generator_choice(self):
        # 1-D points sqrt(w_i) and a first centre forced onto the point 0:
        # the second centre's D^2 is w, and every restart's draw must pick
        # the point that Generator.choice(n, p=w/sum(w)) picks from its stream
        class FirstPointZero:
            def __init__(self, seed):
                self.gen = np.random.default_rng(seed)

            def integers(self, n):
                return 0

            def random(self):
                return self.gen.random()

        meta = np.random.default_rng(43)
        for t in range(300):
            n = int(meta.integers(2, 50))
            w = meta.random(n) ** 3 * (meta.random(n) < 0.7)
            w[0], w[-1] = 0.0, w[-1] + 1e-3
            x = np.sqrt(w)[:, None]
            d2 = x[:, 0] ** 2
            seeds = [[t, r] for r in range(4)]
            centres = classify._kmeans_pp_seed(x, 2, [FirstPointZero(s) for s in seeds])
            for s, got in zip(seeds, centres[:, 1, 0]):
                assert got == x[np.random.default_rng(s).choice(n, p=d2 / d2.sum()), 0]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, value):
        x = np.array([[0.0, 0.0], [1.0, value], [2.0, 2.0]])
        with pytest.raises(ValueError, match="non-finite"):
            kmeans(x, 2)


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
    assert [s.iterations for s in solutions] == [10, 7, 6, 18, 12, 26, 5, 11, 5]
    assert max(s.kkt_residual for s in solutions) <= 1e-10
