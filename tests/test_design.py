import itertools

import numpy as np
import pytest

from misens import design, linalg
from misens.classify import kmeans
from misens.core import Dataset, LabelingMatrix, assign_regions, predict, predict_batch, rmse
from misens.design import (
    DesignConfig,
    VariableLayout,
    _class_models,
    _lad_fit,
    _split_merge_starts,
    build_mis_con_lab_milp,
    design_mis_con,
    design_mis_con_lab,
    design_mis_std,
    design_sis,
    improve_labeling,
    labeling_l1_objective,
    required_big_m,
)
from misens.lp import OPT_TOL, LinearProgram, Status, solve_lp
from misens.milp import MilpLimits, MipStatus, solve_milp
from misens.study import ScenarioConfig, generate_scenario


def dataset(inputs, outputs):
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    return Dataset(inputs, np.asarray(outputs, dtype=float))


def two_piece_truth():
    """Continuous two-piece ground truth built with p1 - p2 = w, b_p1 - b_p2 = b_w.

    The fold 0.8 x1 + 0.4 x2 = 0.6 crosses the unit box roughly through the
    middle, so uniform samples land on both sides.
    """
    p1 = np.array([1.0, -0.5])
    b1 = 0.3
    w = np.array([0.8, 0.4])
    b_w = -0.6
    p2 = p1 - w
    b2 = b1 - b_w
    return (p1, b1), (p2, b2), (w, b_w)


def sample_two_piece(rng, n):
    (p1, b1), (p2, b2), (w, b_w) = two_piece_truth()
    x = rng.uniform(size=(n, 2))
    side = x @ w + b_w >= 0
    y = np.where(side, x @ p1 + b1, x @ p2 + b2)
    labels = LabelingMatrix.from_assignments(np.where(side, 1, 2), 2)
    return dataset(x, y), labels


def assert_planes_are_model_differences(sensor):
    """Each plane is its pair's model difference; where the slopes coincide
    (difference norm <= 1e-12) the normal is the placeholder 1e-9 e_1, since
    a Hyperplane cannot have a zero normal."""
    for hp, (r, s) in zip(sensor.switching.hyperplanes, sensor.switching.pairs):
        mr, ms = sensor.models[r - 1], sensor.models[s - 1]
        w = mr.p - ms.p
        if np.sqrt(w @ w) <= 1e-12:
            w = np.zeros(w.shape[0])
            w[0] = 1e-9
        assert np.array_equal(hp.w, w)
        assert hp.b_w == mr.b_p - ms.b_p


def l1_oracle_over_labelings(train, cfg):
    """Brute force over all valid labelings, each scored by a reduced LP.

    The reduced LP keeps what actually constrains the optimum: epigraph rows
    for the assigned class and the parameter boxes.  Symmetry rows are
    omitted because the enumeration covers all permutations anyway.  Each
    t_i is boxed one unit above the largest residual the parameter boxes
    allow at point i, and stays below that box at the optimum.
    """
    n, n_p, n_cl = train.n, train.n_p, cfg.n_cl
    pb = cfg.param_bound
    best = None
    min_size = n_p + 1
    for assign in itertools.product(range(1, n_cl + 1), repeat=n):
        sizes = [assign.count(j) for j in range(1, n_cl + 1)]
        if min(sizes) < min_size:
            continue
        # vars: p (n_cl*n_p), b_p (n_cl), t (n)
        def p(j, d):
            return (j - 1) * n_p + d

        def b_p(j):
            return n_cl * n_p + (j - 1)

        def t(i):
            return n_cl * (n_p + 1) + i

        nv = n_cl * (n_p + 1) + n
        # for each point the rows t_i +- (x_i p_j + b_p,j) >= +-y_i
        a = np.zeros((n, 2, nv))
        for i in range(n):
            j = assign[i]
            model = [p(j, d) for d in range(n_p)] + [b_p(j)]
            a[i, :, t(i)] = 1.0
            a[i, 0, model] += np.append(train.inputs[i], 1.0)
            a[i, 1, model] -= np.append(train.inputs[i], 1.0)
        row_lo = np.column_stack([train.outputs, -train.outputs]).ravel()
        c = np.zeros(nv)
        lo = np.full(nv, -pb)
        hi = np.full(nv, pb)
        for i in range(n):
            c[t(i)] = 1.0
            reach = abs(train.outputs[i]) + pb * (np.abs(train.inputs[i]).sum() + 1.0)
            lo[t(i)], hi[t(i)] = 0.0, reach + 1.0
        sol = solve_lp(LinearProgram(c, a.reshape(2 * n, nv), row_lo, np.full(2 * n, np.inf),
                                     lo, hi))
        if sol.status == Status.OPTIMAL:
            ts = [t(i) for i in range(n)]
            assert np.all(sol.values[ts] < hi[ts])
            if best is None or sol.objective_value < best:
                best = sol.objective_value
    return best


class TestDesignConfig:
    @pytest.mark.parametrize("field", ["gamma", "param_bound"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, 0.0])
    def test_out_of_range_design_numbers_are_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            DesignConfig(**{field: value})


class TestSis:
    def test_exact_recovery(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(25, 3))
        p = np.array([0.5, -1.0, 2.0])
        y = x @ p + 0.7
        report = design_sis(dataset(x, y))
        m = report.sensor.models[0]
        assert np.max(np.abs(m.p - p)) <= 1e-8
        assert m.b_p == pytest.approx(0.7, abs=1e-8)
        assert report.train_rmse <= 1e-8

    def test_constant_outputs(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(10, 2))
        report = design_sis(dataset(x, np.full(10, 0.25)))
        m = report.sensor.models[0]
        assert np.max(np.abs(m.p)) <= 1e-9
        assert m.b_p == pytest.approx(0.25, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least"):
            design_sis(dataset([[1.0, 2.0]], [1.0]))


class TestMisStd:
    def test_two_separable_pieces_recovered(self):
        rng = np.random.default_rng(2)
        xa = rng.uniform(size=(15, 2)) * 0.3           # cluster at the origin
        xb = rng.uniform(size=(15, 2)) * 0.3 + 0.7     # far cluster
        pa, ba = np.array([1.5, -0.4]), 0.2
        pb_, bb = np.array([-0.3, 0.8]), 0.5
        x = np.vstack([xa, xb])
        y = np.concatenate([xa @ pa + ba, xb @ pb_ + bb])
        report = design_mis_std(dataset(x, y), DesignConfig(n_cl=2, seed=0))
        assert report.train_rmse <= 1e-6
        recovered = {tuple(np.round(m.p, 6)) for m in report.sensor.models}
        assert tuple(np.round(pa, 6)) in recovered
        assert tuple(np.round(pb_, 6)) in recovered

    def test_n_cl_one_equals_sis(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(12, 2))
        y = rng.uniform(size=12)
        ds = dataset(x, y)
        a = design_sis(ds)
        b = design_mis_std(ds, DesignConfig(n_cl=1))
        assert np.array_equal(a.sensor.models[0].p, b.sensor.models[0].p)
        assert a.sensor.models[0].b_p == b.sensor.models[0].b_p

    def test_region_fallback_counts(self):
        # three tight clusters but n_cl=2: fine; force tiny region via n_cl=3
        rng = np.random.default_rng(4)
        x = np.vstack([rng.uniform(size=(4, 2)) * 0.1,
                       rng.uniform(size=(8, 2)) * 0.1 + 0.9])
        y = rng.uniform(size=12)
        report = design_mis_std(dataset(x, y), DesignConfig(n_cl=3, seed=1))
        assert report.solver_stats["region_fallbacks"] >= 0  # smoke: no crash


class TestMisCon:
    def test_exact_recovery_of_continuous_truth(self):
        rng = np.random.default_rng(5)
        train, labels = sample_two_piece(rng, 40)
        (p1, b1), (p2, b2), (w, b_w) = two_piece_truth()
        report = design_mis_con(train, labels)
        m1, m2 = report.sensor.models
        assert np.max(np.abs(m1.p - p1)) <= 1e-6
        assert np.max(np.abs(m2.p - p2)) <= 1e-6
        assert m1.b_p == pytest.approx(b1, abs=1e-6)
        assert m2.b_p == pytest.approx(b2, abs=1e-6)
        hp = report.sensor.switching.hyperplanes[0]
        assert np.max(np.abs(hp.w - w)) <= 1e-6
        assert hp.b_w == pytest.approx(b_w, abs=1e-6)
        assert report.train_rmse <= 1e-6

    def test_boundary_continuity_sampled(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(size=(30, 2))
        y = rng.uniform(size=30)  # noisy labels: continuity must still hold
        labels = LabelingMatrix.from_assignments(rng.integers(1, 3, size=30), 2)
        report = design_mis_con(dataset(x, y), labels)
        assert_planes_are_model_differences(report.sensor)
        # evaluate at an explicit boundary point as well
        hp = report.sensor.switching.hyperplanes[0]
        x_star = -hp.b_w * hp.w / (hp.w @ hp.w)
        m1, m2 = report.sensor.models
        assert abs((m1.p @ x_star + m1.b_p) - (m2.p @ x_star + m2.b_p)) <= 1e-6

    def test_single_plane_data_models_agree(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(size=(24, 2))
        p = np.array([0.6, -0.2])
        y = x @ p + 0.4
        labels = LabelingMatrix.from_assignments(rng.integers(1, 3, size=24), 2)
        report = design_mis_con(dataset(x, y), labels)
        preds = [predict_batch(x, report.sensor), ]
        m1, m2 = report.sensor.models
        diff = np.abs(x @ (m1.p - m2.p) + (m1.b_p - m2.b_p))
        assert diff.max() <= 1e-6

    def test_three_class_continuity_and_dependency_note(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(size=(36, 2))
        y = rng.uniform(size=36)
        labels = LabelingMatrix.from_assignments(rng.integers(1, 4, size=36), 3)
        report = design_mis_con(dataset(x, y), labels)
        assert_planes_are_model_differences(report.sensor)

    def test_parallel_models_route_to_the_larger(self):
        # both classes share one slope, so the models differ only by their
        # offsets and the plane gets the placeholder normal; every point of
        # [0, 1]^2 must route to class 2, the larger model (the max-affine rule)
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(20, 2))
        assign = np.where(x[:, 0] < 0.5, 1, 2)
        y = 0.3 * x[:, 0] - 0.2 * x[:, 1] + np.where(assign == 1, 0.1, 0.6)
        labels = LabelingMatrix.from_assignments(assign, 2)
        sensor = design_mis_con(dataset(x, y), labels).sensor
        m1, m2 = sensor.models
        assert np.max(np.abs(m1.p - m2.p)) <= 1e-12
        assert m2.b_p - m1.b_p == pytest.approx(0.5, abs=1e-12)
        assert_planes_are_model_differences(sensor)
        assert np.all(assign_regions(x, sensor.switching) == 2)

    def test_stats_are_the_class_fits_optimality(self):
        rng = np.random.default_rng(5)
        train, labels = sample_two_piece(rng, 40)
        report = design_mis_con(train, labels)
        stats = report.solver_stats
        assert stats["kkt_residual"] <= 1e-9
        sse = 0.0
        for j, model in enumerate(report.sensor.models, start=1):
            rows = labels.members(j)
            resid = train.inputs[rows] @ model.p + model.b_p - train.outputs[rows]
            sse += float(resid @ resid)
        assert stats["objective_value"] == pytest.approx(sse, abs=1e-12)
        assert not [key for key in stats if key.startswith("qp_")]

    @pytest.mark.parametrize("n_p", [2, 3])
    def test_collinear_class_raises(self, n_p):
        # class 1 holds n_p + 2 points on one line: no affine model of them
        # is identified, so the fit must refuse rather than pick one
        rng = np.random.default_rng(n_p)
        n = 24
        x = rng.uniform(size=(n, n_p))
        t = rng.uniform(size=(n_p + 2, 1))
        x[:n_p + 2] = 0.2 + t * rng.uniform(size=n_p)
        assign = np.concatenate([np.ones(n_p + 2, dtype=int), np.full(n - n_p - 2, 2)])
        labels = LabelingMatrix.from_assignments(assign, 2)
        with pytest.raises(linalg.LinAlgError, match="class 1"):
            design_mis_con(dataset(x, rng.uniform(size=n)), labels)

    @pytest.mark.parametrize("n_p,small", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_underdetermined_class_gets_the_minimum_norm_model(self, n_p, small):
        # class 1 has fewer than n_p + 1 points: a face of least-squares
        # optima, of which the model must be the one nearest the origin
        rng = np.random.default_rng(10 * n_p + small)
        n = 24
        x = rng.uniform(size=(n, n_p))
        y = rng.uniform(size=n)
        assign = np.concatenate([np.ones(small, dtype=int), np.arange(n - small) % 2 + 2])
        labels = LabelingMatrix.from_assignments(assign, 3)
        sensor = design_mis_con(dataset(x, y), labels).sensor
        for j, model in enumerate(sensor.models, start=1):
            rows = assign == j
            a = np.hstack([x[rows], np.ones((rows.sum(), 1))])
            coef = np.linalg.lstsq(a, y[rows], rcond=None)[0]
            assert np.max(np.abs(model.p - coef[:-1])) <= 1e-6
            assert abs(model.b_p - coef[-1]) <= 1e-6

    @pytest.mark.parametrize("n_cl,seed", [(2, 0), (2, 1), (3, 2), (3, 3)])
    def test_models_are_class_lstsq_and_planes_their_differences(self, n_cl, seed):
        rng = np.random.default_rng(seed)
        n, n_p = 36, 2
        x = rng.uniform(size=(n, n_p))
        y = rng.uniform(size=n)
        # every class keeps at least n_p + 1 points
        assign = rng.permutation(np.concatenate(
            [np.repeat(np.arange(1, n_cl + 1), n_p + 1),
             rng.integers(1, n_cl + 1, size=n - n_cl * (n_p + 1))]))
        labels = LabelingMatrix.from_assignments(assign, n_cl)
        sensor = design_mis_con(dataset(x, y), labels).sensor
        for j, model in enumerate(sensor.models, start=1):
            rows = assign == j
            a = np.hstack([x[rows], np.ones((rows.sum(), 1))])
            coef = np.linalg.lstsq(a, y[rows], rcond=None)[0]
            assert np.max(np.abs(model.p - coef[:-1])) <= 1e-9
            assert abs(model.b_p - coef[-1]) <= 1e-9
        for hp, (r, s) in zip(sensor.switching.hyperplanes, sensor.switching.pairs):
            mr, ms = sensor.models[r - 1], sensor.models[s - 1]
            assert np.max(np.abs(hp.w - (mr.p - ms.p))) <= 1e-9
            assert abs(hp.b_w - (mr.b_p - ms.b_p)) <= 1e-9

    @pytest.mark.parametrize("n_cl,seed", [(2, 4), (3, 5), (4, 6)])
    def test_planes_are_exact_model_differences(self, n_cl, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(40, 2))
        labels = LabelingMatrix.from_assignments(np.arange(40) % n_cl + 1, n_cl)
        report = design_mis_con(dataset(x, rng.uniform(size=40)), labels)
        assert_planes_are_model_differences(report.sensor)


class TestGivenLabels:
    """MIS-std and MIS-con-lab take the k-means labeling of `train` under
    `cfg`; a labeling of other rows or with another class count is refused
    (tests/test_study.py passes them the shared k-means labeling)."""

    @pytest.mark.parametrize("design_fn", [design_mis_std, design_mis_con_lab],
                             ids=["mis-std", "mis-con-lab"])
    @pytest.mark.parametrize("rows,n_cl", [(14, 3), (16, 3), (15, 2), (15, 4)])
    def test_labels_that_do_not_fit_are_refused(self, design_fn, rows, n_cl):
        train = generate_scenario(ScenarioConfig(kind="uniform", n_total=30, seed=1))[0]
        assert train.n == 15
        cfg = DesignConfig(n_cl=3, seed=1, milp_limits=MilpLimits(node_cap=1))
        labels = LabelingMatrix.from_assignments(np.arange(rows) % n_cl + 1, n_cl)
        with pytest.raises(ValueError, match=f"labels have {rows} rows and {n_cl} classes, "
                                             "but train has 15 rows and cfg.n_cl is 3"):
            design_fn(train, cfg, labels=labels)


class TestMilpBuild:
    def test_variable_counts_for_example_instance(self):
        lay = VariableLayout(8, 2, 2)
        assert lay.n_continuous == 14   # 6 (p,b_p) + 8 (t)
        assert len(lay.binaries) == 16

    def test_constraint_count(self):
        rng = np.random.default_rng(9)
        train = dataset(rng.uniform(size=(8, 2)), rng.uniform(size=8))
        prog = build_mis_con_lab_milp(train, DesignConfig(n_cl=2))
        # 8 row sums + 32 epigraph + 2 size
        assert prog.base.n_rows == prog.base.a.shape[0] == 42
        # the z box breaks the symmetry: point i may only join classes 1..i+1
        lay = VariableLayout(8, 2, 2)
        assert [prog.base.upper[lay.z(i, j)] for i in range(8) for j in (1, 2)] == [
            0.0 if j > i + 1 else 1.0 for i in range(8) for j in (1, 2)]

    @pytest.mark.parametrize("seed,n_cl", [(1, 3), (2, 2)])
    def test_rows_follow_their_formulas_in_order(self, seed, n_cl):
        # the documented rows, one at a time and in this order: (a) sum_j
        # z_ij = 1 for each point; (b) for each (i, j) the plus row, then the
        # minus row, t_i - M z_ij +- (x_i p_j + b_p,j) >= +-y_i - M; (c) sum_i
        # z_ij >= n_p + 1 for each class.  The order decides the pivots
        train = generate_scenario(ScenarioConfig(kind="uniform", n_total=30, seed=seed))[0]
        cfg = DesignConfig(n_cl=n_cl)
        base = build_mis_con_lab_milp(train, cfg).base
        n, n_p = train.n, train.n_p
        lay = VariableLayout(n, n_p, n_cl)
        big_m = required_big_m(cfg.param_bound, n_p)
        classes = range(1, n_cl + 1)
        rows, row_lo, row_hi = [], [], []

        def row(entries, lo, hi):
            r = np.zeros(lay.n_vars)
            for k, v in entries:
                r[k] += v
            rows.append(r)
            row_lo.append(lo)
            row_hi.append(hi)

        for i in range(n):
            row([(lay.z(i, j), 1.0) for j in classes], 1.0, 1.0)
        for i in range(n):
            for j in classes:
                for sign in (1.0, -1.0):
                    model = [(lay.p(j, d), sign * train.inputs[i, d]) for d in range(n_p)]
                    row([(lay.t(i), 1.0), (lay.z(i, j), -big_m), (lay.b_p(j), sign)] + model,
                        sign * train.outputs[i] - big_m, np.inf)
        for j in classes:
            row([(lay.z(i, j), 1.0) for i in range(n)], n_p + 1.0, np.inf)
        np.testing.assert_array_equal(base.a, np.array(rows))
        np.testing.assert_array_equal(base.row_lo, row_lo)
        np.testing.assert_array_equal(base.row_hi, row_hi)

    def test_big_m_invariant_enforced(self):
        assert required_big_m(10.0, 2) == pytest.approx(62.0)

    def test_raw_unit_data_rejected(self):
        # x in the thousands: a big-M row with z_ij = 0 could cut a feasible
        # labeling, so the build refuses and names the worst point
        rng = np.random.default_rng(10)
        x = rng.uniform(1000.0, 5000.0, size=(8, 2))
        y = x @ np.array([0.01, -0.02]) + 3.0
        cfg = DesignConfig(n_cl=2)
        need = np.abs(y) + cfg.param_bound * (np.abs(x).sum(axis=1) + 1.0)
        worst = int(np.argmax(need))
        with pytest.raises(ValueError, match=rf"point {worst} needs M >= {need[worst]:.6g}"):
            build_mis_con_lab_milp(dataset(x, y), cfg)

    def test_fixed_z_matches_l1_regression(self):
        rng = np.random.default_rng(5)  # both classes above the minimum size
        train, labels = sample_two_piece(rng, 8)
        assert min(labels.class_sizes()) >= 3
        cfg = DesignConfig(n_cl=2, param_bound=4.0)
        prog = build_mis_con_lab_milp(train, cfg)
        lay = VariableLayout(train.n, train.n_p, cfg.n_cl)
        obj, values = labeling_l1_objective(prog, lay, labels)
        assert obj is not None
        # the truth is continuous and exactly representable: L1 error 0
        assert obj == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("n_cl", [2, 3])
    def test_milp_matches_brute_force_labelings(self, n_cl):
        # with n_cl = 2 a box |p_1 - p_2| <= B on the model differences
        # would bind here: the optimum would read 0.338226, not 0.317020
        rng = np.random.default_rng(12)
        x = rng.uniform(size=(6, 1))
        y = rng.uniform(size=6)
        train = dataset(x, y)
        cfg = DesignConfig(n_cl=n_cl, param_bound=2.0)
        oracle = l1_oracle_over_labelings(train, cfg)
        res = solve_milp(build_mis_con_lab_milp(train, cfg))
        assert res.status == MipStatus.OPTIMAL
        assert res.objective_value == pytest.approx(oracle, abs=1e-6)
        # t_i <= big-M binds nothing
        ts = [VariableLayout(train.n, train.n_p, n_cl).t(i) for i in range(train.n)]
        assert np.all(res.values[ts] < required_big_m(cfg.param_bound, train.n_p))

    @pytest.mark.parametrize("seed, n, n_cl", [
        (1, 6, 2), (2, 7, 2), (3, 8, 2), (4, 8, 2), (5, 7, 2),
        (6, 6, 3), (7, 7, 3), (8, 6, 3), (9, 7, 3), (10, 8, 3)])
    def test_milp_matches_brute_force_on_random_draws(self, seed, n, n_cl):
        rng = np.random.default_rng(seed)
        train = dataset(rng.uniform(size=(n, 1)), rng.uniform(size=n))
        cfg = DesignConfig(n_cl=n_cl, param_bound=2.0)
        res = solve_milp(build_mis_con_lab_milp(train, cfg))
        assert res.status == MipStatus.OPTIMAL
        assert res.objective_value == pytest.approx(l1_oracle_over_labelings(train, cfg),
                                                    abs=1e-6)

    def test_bounds_are_finite_and_the_hint_stays_inside(self, monkeypatch):
        # the capped benchmark's draw: uniform-30, seed 1, n_cl = 3.  Every
        # t_i is boxed by big-M, which the hint's t_i stay below
        train = generate_scenario(ScenarioConfig(kind="uniform", n_total=30, seed=1))[0]
        cfg = DesignConfig(n_cl=3, seed=1, milp_limits=MilpLimits(node_cap=1))
        program = build_mis_con_lab_milp(train, cfg)
        assert np.all(np.isfinite(program.base.lower)) and np.all(np.isfinite(program.base.upper))
        big_m = required_big_m(cfg.param_bound, train.n_p)
        ts = [VariableLayout(train.n, train.n_p, cfg.n_cl).t(i) for i in range(train.n)]
        assert np.all(program.base.upper[ts] == big_m)
        hints = []
        solve = design.solve_milp

        def recording(prob, limits=None, incumbent_hint=None):
            hints.append(incumbent_hint)
            return solve(prob, limits, incumbent_hint)

        monkeypatch.setattr(design, "solve_milp", recording)
        design_mis_con_lab(train, cfg)
        assert len(hints) == 1 and hints[0] is not None
        assert np.all(hints[0][ts] >= 0.0) and np.all(hints[0][ts] < big_m)
        # within the 1e-9 that solve_milp's hint check allows
        assert np.all(hints[0] >= program.base.lower - 1e-9)
        assert np.all(hints[0] <= program.base.upper + 1e-9)


class TestOrderLabels:
    @pytest.mark.parametrize("kind, seed, n_cl", [("uniform", 3, 2), ("clustered", 1, 3),
                                                  ("uniform", 1, 3)])
    def test_kmeans_hint_scores_its_best_class_order(self, kind, seed, n_cl):
        # the program's z box admits every partition numbered by first
        # occurrence but not every other numbering, so the score renumbers
        # first: any numbering of the k-means labeling, the hint's own among
        # them, gives the same (so the best) objective and a point inside the
        # program's bounds, to the 1e-9 that solve_milp's hint check allows
        # (a basic t_i can read -5e-16)
        train = generate_scenario(ScenarioConfig(kind=kind, n_total=30, seed=seed))[0]
        prog = build_mis_con_lab_milp(train, DesignConfig(n_cl=n_cl))
        lay = VariableLayout(train.n, train.n_p, n_cl)
        labels = kmeans(train.inputs, n_cl, seed=1).labels
        objectives = []
        for perm in itertools.permutations(range(1, n_cl + 1)):
            obj, values = labeling_l1_objective(prog, lay, LabelingMatrix.from_assignments(
                np.array(perm)[labels.assignments() - 1], n_cl))
            assert np.all(values >= prog.base.lower - 1e-9)
            assert np.all(values <= prog.base.upper + 1e-9)
            objectives.append(obj)
        assert all(obj == objectives[0] for obj in objectives)


class TestMisConLab:
    def test_recovers_piecewise_truth_and_beats_kmeans_labeling(self):
        rng = np.random.default_rng(13)
        train, _ = sample_two_piece(rng, 14)
        cfg = DesignConfig(n_cl=2, param_bound=4.0,
                           milp_limits=MilpLimits(node_cap=20000))
        report = design_mis_con_lab(train, cfg)
        assert report.train_rmse <= 1e-6
        stats = report.solver_stats
        assert stats["milp"]["status"] == "optimal"
        if stats["kmeans_labeling_l1_objective"] is not None:
            assert stats["l1_objective"] <= stats["kmeans_labeling_l1_objective"] + 1e-9
        assert_planes_are_model_differences(report.sensor)

    def test_adversarial_kmeans_straddling_fold(self):
        # the true fold (x1 = 0.25) cuts straight through the first blob, so
        # k-means labels cannot separate the pieces but the MILP labels can;
        # four or more points per piece make the zero-error labeling unique
        # (any three points are coplanar, so smaller pieces can be overfit)
        rng = np.random.default_rng(14)
        xa = np.column_stack([
            np.concatenate([rng.uniform(0.05, 0.22, size=4),
                            rng.uniform(0.28, 0.48, size=4)]),
            rng.uniform(size=8),
        ])
        xb = np.column_stack([rng.uniform(0.8, 1.0, size=4), rng.uniform(size=4)])
        x = np.vstack([xa, xb])
        y = np.where(x[:, 0] >= 0.25, 2.0 * x[:, 0], x[:, 0] + 0.25)
        train = dataset(x, y)
        cfg = DesignConfig(n_cl=2, param_bound=4.0, seed=3,
                           milp_limits=MilpLimits(node_cap=50000))
        lab = design_mis_con_lab(train, cfg)
        std = design_mis_std(train, cfg)
        assert lab.train_rmse < std.train_rmse
        # the optimal labeling reproduces the continuous truth exactly
        assert lab.train_rmse <= 1e-6
        assert lab.solver_stats["milp"]["status"] == "optimal"

    @pytest.mark.parametrize("n_cl", [2, 3])
    def test_planes_are_exact_model_differences(self, n_cl):
        rng = np.random.default_rng(18)
        train = dataset(rng.uniform(size=(12, 2)), rng.uniform(size=12))
        cfg = DesignConfig(n_cl=n_cl, param_bound=4.0, milp_limits=MilpLimits(node_cap=50))
        assert_planes_are_model_differences(design_mis_con_lab(train, cfg).sensor)

    def test_determinism_of_reports(self):
        rng = np.random.default_rng(15)
        train, _ = sample_two_piece(rng, 12)
        cfg = DesignConfig(n_cl=2, param_bound=4.0, seed=7)
        a = design_mis_con_lab(train, cfg)
        b = design_mis_con_lab(train, cfg)
        assert a.to_dict(timing="fixed") == b.to_dict(timing="fixed")

    def test_node_cap_is_not_a_time_out(self):
        rng = np.random.default_rng(17)
        train = dataset(rng.uniform(size=(12, 2)), rng.uniform(size=12))
        cfg = DesignConfig(n_cl=2, param_bound=4.0,
                           milp_limits=MilpLimits(node_cap=1))
        stats = design_mis_con_lab(train, cfg).solver_stats
        assert stats["milp"]["status"] == "feasible"
        assert "milp_timed_out" not in stats  # the status alone says it

    @pytest.mark.parametrize("outside", [False, True])
    def test_a_refused_hint_is_not_reported(self, monkeypatch, outside):
        # a scored labeling moved outside the z box (point 0 in class 2, which
        # the first-occurrence box forbids) is refused by solve_milp, and the
        # report then claims no hint; a taken hint is reported and bounds the
        # incumbent
        rng = np.random.default_rng(17)
        train = dataset(rng.uniform(size=(12, 2)), rng.uniform(size=12))
        cfg = DesignConfig(n_cl=2, param_bound=4.0, milp_limits=MilpLimits(node_cap=200))
        lay = VariableLayout(train.n, train.n_p, cfg.n_cl)
        score = design.labeling_l1_objective

        def outside_the_z_box(program, layout, labels):
            objective, values = score(program, layout, labels)
            if values is not None:
                values = values.copy()
                values[[lay.z(0, 1), lay.z(0, 2)]] = 0.0, 1.0
            return objective, values

        if outside:
            monkeypatch.setattr(design, "labeling_l1_objective", outside_the_z_box)
        stats = design_mis_con_lab(train, cfg).solver_stats
        assert stats["kmeans_labeling_l1_objective"] is not None
        if outside:
            assert stats["hint_l1_objective"] is None
        else:
            assert stats["l1_objective"] <= stats["hint_l1_objective"] + 1e-9

    def test_no_incumbent_raises(self):
        rng = np.random.default_rng(16)
        train, _ = sample_two_piece(rng, 12)
        cfg = DesignConfig(n_cl=2, param_bound=4.0,
                           milp_limits=MilpLimits(time_limit_s=0.0))
        # a zero time limit still admits the k-means hint, so drop it by
        # making the hint infeasible: n just at the class-size edge with a
        # degenerate k-means split is hard to force, so call solve_milp
        # directly instead
        prog = build_mis_con_lab_milp(train, cfg)
        res = solve_milp(prog, cfg.milp_limits)
        assert res.values is None


class TestSplitMergeStarts:
    def test_proposals_for_four_classes(self):
        # four classes of four points on a line, centroids 0.15, 2.15, 2.65
        # and 9.15; points are interleaved so the proposals follow the labels
        x = np.array([0.0, 2.0, 2.5, 9.0, 0.1, 2.1, 2.6, 9.1,
                      0.2, 2.2, 2.7, 9.2, 0.3, 2.3, 2.8, 9.3])
        assign = np.tile([1, 2, 3, 4], 4)
        train = dataset(x[:, None], x)
        starts = _split_merge_starts(train, LabelingMatrix.from_assignments(assign, 4))
        # split class j at its median (halves 1 and 2), merge the closest two
        # of the others into 3, and number the remaining class 4
        expected = [
            [1, 3, 3, 4, 1, 3, 3, 4, 2, 3, 3, 4, 2, 3, 3, 4],  # split 1, merge 2+3
            [3, 1, 3, 4, 3, 1, 3, 4, 3, 2, 3, 4, 3, 2, 3, 4],  # split 2, merge 1+3
            [3, 3, 1, 4, 3, 3, 1, 4, 3, 3, 2, 4, 3, 3, 2, 4],  # split 3, merge 1+2
            [4, 3, 3, 1, 4, 3, 3, 1, 4, 3, 3, 2, 4, 3, 3, 2],  # split 4, merge 2+3
        ]
        assert [list(p) for p in starts] == expected


def lad_l1(model, inputs, outputs):
    return float(np.abs(inputs @ model.p + model.b_p - outputs).sum())


def epigraph_lad_optimum(inputs, outputs):
    """The LAD optimum from the primal epigraph LP over (p, b, t):
    min sum t subject to t_i >= +-(y_i - x_i p - b).  p and b are boxed by
    1e4, and t_i by the largest residual that box allows; the box binds
    nothing at the optimum: each t_i stays below its box, and a p or b on
    its box has a reduced cost within OPT_TOL."""
    n, d = inputs.shape
    bound = 1e4
    # for each point the rows t_i +- (x_i p + b) >= +-y_i
    xb = np.column_stack([inputs, np.ones(n)])
    a = np.hstack([np.stack([xb, -xb], axis=1).reshape(2 * n, d + 1),
                   np.repeat(np.eye(n), 2, axis=0)])
    row_lo = np.column_stack([outputs, -outputs]).ravel()
    c = np.concatenate([np.zeros(d + 1), np.ones(n)])
    reach = np.abs(outputs) + bound * (np.abs(inputs).sum(axis=1) + 1.0)
    lo = np.concatenate([np.full(d + 1, -bound), np.zeros(n)])
    hi = np.concatenate([np.full(d + 1, bound), reach])
    sol = solve_lp(LinearProgram(c, a, row_lo, np.full(2 * n, np.inf), lo, hi))
    assert sol.status == Status.OPTIMAL
    v, head = sol.values, slice(0, d + 1)
    assert np.all(v[d + 1:] < reach)
    on_box = np.abs(v[head]) >= bound - 1e-9
    assert np.all(np.abs(sol.reduced_costs[head][on_box]) <= OPT_TOL)
    return sol.objective_value


class TestLadFit:
    def test_matches_the_best_interpolant(self):
        # some LAD optimum interpolates n_p + 1 points, so the best of those
        # interpolants is the optimum
        rng = np.random.default_rng(3)
        for n_p in (1, 2):
            for n in range(3, 13):
                for _ in range(4):
                    x = rng.uniform(size=(n, n_p))
                    y = rng.normal(size=n)
                    xt = np.column_stack([x, np.ones(n)])
                    best = np.inf
                    for rows in itertools.combinations(range(n), n_p + 1):
                        sub = xt[list(rows)]
                        if abs(np.linalg.det(sub)) > 1e-9:
                            coef = np.linalg.solve(sub, y[list(rows)])
                            best = min(best, float(np.abs(xt @ coef - y).sum()))
                    assert lad_l1(_lad_fit(x, y), x, y) == pytest.approx(best, abs=1e-10)

    @pytest.mark.parametrize("n", [8, 25, 40, 60])
    def test_agrees_with_the_epigraph_lp(self, n):
        rng = np.random.default_rng(n)
        for n_p in (1, 2, 3):
            x = rng.uniform(size=(n, n_p))
            y = x @ rng.normal(size=n_p) + 0.1 * rng.standard_t(2, size=n)
            assert lad_l1(_lad_fit(x, y), x, y) == pytest.approx(
                epigraph_lad_optimum(x, y), rel=1e-9, abs=1e-10)

    @pytest.mark.parametrize("case", ["identical", "duplicated", "collinear", "zero column"])
    def test_rank_deficient_class(self, case):
        rng = np.random.default_rng(5)
        if case == "identical":      # every input the same point
            x = np.tile(rng.uniform(size=(1, 2)), (8, 1))
        elif case == "duplicated":   # n_p + 1 points, two of them equal
            x = rng.uniform(size=(3, 2))
            x[2] = x[0]
        elif case == "collinear":    # second input an affine image of the first
            t = rng.uniform(size=8)
            x = np.column_stack([t, 2.0 * t + 0.5])
        else:
            x = np.column_stack([rng.uniform(size=8), np.zeros(8)])
        y = rng.normal(size=x.shape[0])
        try:
            model = _lad_fit(x, y)
        except RuntimeError:
            pass  # _class_models falls back to the class mean
        else:
            assert lad_l1(model, x, y) == pytest.approx(epigraph_lad_optimum(x, y), abs=1e-9)
        models = _class_models(dataset(x, y), np.ones(x.shape[0], dtype=int), 1, {})
        assert len(models) == 1 and np.all(np.isfinite(models[0].p))


class TestImproveLabelingMemo:
    def test_each_row_set_is_fit_once(self, monkeypatch):
        # the capped benchmark's hint: uniform-30, seed 1, n_cl = 3
        train = generate_scenario(ScenarioConfig(kind="uniform", n_total=30, seed=1))[0]
        labels = kmeans(train.inputs, 3, seed=1).labels
        fits = []
        lad_fit = design._lad_fit

        def counting(inputs, outputs):
            fits.append((inputs.tobytes(), outputs.tobytes()))
            return lad_fit(inputs, outputs)

        monkeypatch.setattr(design, "_lad_fit", counting)
        memoized = improve_labeling(train, labels, seed=1)
        distinct = len(set(fits))
        assert memoized is not None and len(fits) == distinct

        class_models = design._class_models
        monkeypatch.setattr(design, "_class_models",
                            lambda train, assign, n_cl, memo: class_models(train, assign, n_cl, {}))
        fits.clear()
        unmemoized = improve_labeling(train, labels, seed=1)
        assert len(fits) > distinct and len(set(fits)) == distinct
        np.testing.assert_array_equal(memoized.assignments(), unmemoized.assignments())

    def test_one_design_fits_each_row_set_once(self, monkeypatch):
        # the hint scores the k-means and the improved labeling without a
        # fit, so every fit of a design is the descent's
        train = generate_scenario(ScenarioConfig(kind="uniform", n_total=30, seed=1))[0]
        fits = []
        lad_fit = design._lad_fit

        def counting(inputs, outputs):
            fits.append((inputs.tobytes(), outputs.tobytes()))
            return lad_fit(inputs, outputs)

        monkeypatch.setattr(design, "_lad_fit", counting)
        design_mis_con_lab(train, DesignConfig(n_cl=3, seed=1,
                                               milp_limits=MilpLimits(node_cap=5)))
        assert fits and len(fits) == len(set(fits))
