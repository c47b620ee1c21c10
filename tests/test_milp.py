import dataclasses
import itertools
import logging

import numpy as np
import pytest

from misens import lp, milp
from misens.core import Dataset, LabelingMatrix
from misens.design import (DesignConfig, VariableLayout, build_mis_con_lab_milp,
                           labeling_l1_objective)
from misens.lp import LinearProgram, solve_lp, Status
from misens.milp import MilpLimits, MipStatus, MixedIntegerProgram, solve_milp
from misens.study import ScenarioConfig, generate_scenario

INF = np.inf


def make_mip(c, a, row_lo, row_hi, lo, hi, binaries):
    return MixedIntegerProgram(LinearProgram(c, a, row_lo, row_hi, lo, hi), tuple(binaries))


def brute_force_binary(prob: MixedIntegerProgram):
    """Enumerate every binary assignment, solving the continuous rest by LP."""
    best = None
    bins = list(prob.binary_vars)
    for bits in itertools.product((0.0, 1.0), repeat=len(bins)):
        lo = prob.base.lower.copy()
        hi = prob.base.upper.copy()
        for j, b in zip(bins, bits):
            lo[j] = hi[j] = b
        sol = solve_lp(dataclasses.replace(prob.base, lower=lo, upper=hi))
        if sol.status == Status.OPTIMAL:
            if best is None or sol.objective_value < best:
                best = sol.objective_value
    return best


class TestSmall:
    def test_forced_binaries_equal_plain_lp(self):
        a = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [2.0, 1.0, 1.0]]
        mip = make_mip([-3.0, -4.0, -1.0], a, [1.0, 1.0, -INF], [1.0, 1.0, 4.0],
                       [0.0, 0.0, 0.0], [1.0, 1.0, 5.0], [0, 1])
        res = solve_milp(mip)
        lp_fixed = solve_lp(dataclasses.replace(mip.base, lower=np.array([1.0, 1.0, 0.0])))
        assert res.status == MipStatus.OPTIMAL
        assert res.objective_value == pytest.approx(lp_fixed.objective_value, abs=1e-9)

    def test_knapsack_against_enumeration(self):
        # max 3a+4b+2c s.t. 2a+3b+c <= 4  ->  minimize the negative
        mip = make_mip([-3.0, -4.0, -2.0], [[2.0, 3.0, 1.0]], [-INF], [4.0],
                       [0.0] * 3, [1.0] * 3, [0, 1, 2])
        oracle = brute_force_binary(mip)
        res = solve_milp(mip)
        assert res.status == MipStatus.OPTIMAL
        assert res.objective_value == pytest.approx(oracle, abs=1e-9)
        assert res.objective_value == pytest.approx(-6.0, abs=1e-9)  # b=1,c=1: weight 4, value 6

    def test_infeasible_root(self):
        mip = make_mip([1.0], [[1.0]], [2.0], [INF], [0.0], [1.0], [0])
        assert solve_milp(mip).status == MipStatus.INFEASIBLE

    def test_unbounded_relaxation_raises(self):
        # every LP is boxed: a variable that could make the relaxation
        # unbounded is refused before the root is solved
        mip = make_mip([-1.0, 0.0], [[0.0, 1.0]], [-INF], [1.0],
                       [0.0, 0.0], [np.inf, 1.0], [1])
        with pytest.raises(ValueError, match="variable 0 has a non-finite bound"):
            solve_milp(mip)

    def test_integral_binaries_in_result(self):
        mip = make_mip([-1.0, -1.0, 0.5], [[1.0, 2.0, 1.0]], [-INF], [2.0],
                       [0.0] * 3, [1.0] * 3, [0, 1, 2])
        res = solve_milp(mip)
        bins = res.values[[0, 1, 2]]
        assert np.max(np.abs(bins - np.round(bins))) <= 1e-6

    def test_caller_bounds_are_left_as_they_are(self):
        # binaries boxed wider than [0, 1] are solved over [0, 1], on copies;
        # the hint (c = 4) is integral and inside the caller's box but not [0, 1]
        knapsack = ([[2.0, 3.0, 1.0]], [-INF], [4.0])
        wide = make_mip([-3.0, -4.0, -2.0], *knapsack, [-5.0] * 3, [5.0] * 3, [0, 1, 2])
        boxed = make_mip([-3.0, -4.0, -2.0], *knapsack, [0.0] * 3, [1.0] * 3, [0, 1, 2])
        res = solve_milp(wide, incumbent_hint=np.array([0.0, 0.0, 4.0]))
        np.testing.assert_array_equal(wide.base.lower, [-5.0] * 3)
        np.testing.assert_array_equal(wide.base.upper, [5.0] * 3)
        ref = solve_milp(boxed)
        assert res.status == ref.status == MipStatus.OPTIMAL
        assert res.objective_value == ref.objective_value == pytest.approx(-6.0, abs=1e-9)
        np.testing.assert_array_equal(res.values, ref.values)


class TestRandomizedOracle:
    def _random_mip(self, rng, n_bin, n_cont):
        n = n_bin + n_cont
        c = rng.integers(-4, 5, size=n).astype(float)
        rows, row_lo, row_hi = [], [], []
        for _ in range(int(rng.integers(1, 5))):
            a = rng.integers(-3, 4, size=n).astype(float)
            if not a.any():
                a[0] = 1.0
            below = rng.choice(2) == 0  # a <= row, else a >= row
            rhs = float(rng.integers(-3, 6))
            rows.append(a)
            row_lo.append(-INF if below else rhs)
            row_hi.append(rhs if below else INF)
        lo = np.zeros(n)
        hi = np.concatenate([np.ones(n_bin), rng.uniform(0.5, 2.0, size=n_cont)])
        return make_mip(c, rows, row_lo, row_hi, lo, hi, range(n_bin))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        solved = 0
        for _ in range(40):
            mip = self._random_mip(rng, int(rng.integers(2, 7)), int(rng.integers(0, 3)))
            oracle = brute_force_binary(mip)
            res = solve_milp(mip)
            if oracle is None:
                assert res.status == MipStatus.INFEASIBLE
                continue
            solved += 1
            assert res.status == MipStatus.OPTIMAL
            assert res.objective_value == pytest.approx(oracle, abs=1e-6)
            # reported bound is a true lower bound
            assert res.objective_value >= res.best_bound - 1e-9
            # solution is feasible in the original MILP
            self._assert_feasible(mip, res.values)
        assert solved >= 15

    def _assert_feasible(self, mip, values):
        assert np.all(values >= mip.base.lower - 1e-6)
        assert np.all(values <= mip.base.upper + 1e-6)
        act = mip.base.a @ values
        assert np.all(act >= mip.base.row_lo - 1e-6) and np.all(act <= mip.base.row_hi + 1e-6)
        bins = values[list(mip.binary_vars)]
        assert np.max(np.abs(bins - np.round(bins))) <= 1e-6

    def test_permuted_variable_order_same_objective(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            mip = self._random_mip(rng, 4, 2)
            res = solve_milp(mip)
            n = mip.base.n_vars
            perm = rng.permutation(n)
            inv = np.empty(n, dtype=int)
            inv[perm] = np.arange(n)
            # variable k of the permuted program is variable perm[k]
            base2 = dataclasses.replace(mip.base, objective=mip.base.objective[perm],
                                        a=mip.base.a[:, perm], lower=mip.base.lower[perm],
                                        upper=mip.base.upper[perm])
            mip2 = MixedIntegerProgram(base2, tuple(int(inv[j]) for j in mip.binary_vars))
            res2 = solve_milp(mip2)
            assert res.status == res2.status
            if res.status == MipStatus.OPTIMAL:
                assert res.objective_value == pytest.approx(res2.objective_value, abs=1e-6)


class TestLimitsAndHints:
    def _bigger_mip(self):
        rng = np.random.default_rng(3)
        n = 14
        c = -rng.uniform(1, 3, size=n)
        weights = rng.uniform(0.5, 2.0, size=n)
        return make_mip(c, [weights], [-INF], [weights.sum() / 3], np.zeros(n), np.ones(n),
                        range(n))

    def test_node_cap_returns_feasible_with_gap(self):
        mip = self._bigger_mip()
        res = solve_milp(mip, MilpLimits(node_cap=5))
        assert res.status in (MipStatus.FEASIBLE, MipStatus.TIMED_OUT, MipStatus.OPTIMAL)
        if res.values is not None and res.status != MipStatus.OPTIMAL:
            assert res.gap >= 0.0
            assert res.objective_value >= res.best_bound - 1e-9

    def test_gap_is_relative_to_the_incumbent(self):
        # min t with t >= |0.6 x - 0.3|: the relaxation reaches 0 at x = 0.5,
        # every integer point costs 0.3, so one node leaves a 100% gap
        mip = make_mip([0.0, 1.0], [[0.6, 1.0], [-0.6, 1.0]], [0.3, -0.3], [INF, INF],
                       [0.0, 0.0], [1.0, 10.0], [0])
        res = solve_milp(mip, MilpLimits(node_cap=1), incumbent_hint=np.array([1.0, 0.3]))
        assert res.status == MipStatus.FEASIBLE
        assert res.values[1] < mip.base.upper[1]  # the rows bind t, not its box
        assert res.best_bound == pytest.approx(0.0, abs=1e-12)
        assert res.gap == pytest.approx(1.0)
        assert res.summary()["abs_gap"] == pytest.approx(0.3)

    @pytest.mark.parametrize("field,value", [
        ("node_cap", 0), ("node_cap", -3), ("gap_target", -1.0), ("gap_target", np.inf),
        ("gap_target", np.nan), ("time_limit_s", -1.0), ("time_limit_s", np.inf),
        ("time_limit_s", np.nan)])
    def test_out_of_range_limits_are_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            MilpLimits(**{field: value})

    def test_time_limit_zero_stops_immediately(self):
        mip = self._bigger_mip()
        res = solve_milp(mip, MilpLimits(time_limit_s=0.0))
        assert res.status == MipStatus.TIMED_OUT

    def test_incumbent_hint_is_used(self):
        mip = make_mip([-1.0, -1.0], [[1.0, 1.0]], [-INF], [1.0], [0.0, 0.0], [1.0, 1.0],
                       [0, 1])
        hint = np.array([1.0, 0.0])
        res = solve_milp(mip, MilpLimits(node_cap=1), incumbent_hint=hint)
        assert res.values is not None
        assert res.objective_value <= -1.0 + 1e-9

    def test_bad_hint_ignored(self):
        mip = make_mip([-1.0, -1.0], [[1.0, 1.0]], [-INF], [1.0], [0.0, 0.0], [1.0, 1.0],
                       [0, 1])
        res = solve_milp(mip, incumbent_hint=np.array([1.0, 1.0]))  # violates the row
        assert res.status == MipStatus.OPTIMAL
        assert res.objective_value == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize("which", ["all-nan", "one-nan"])
    def test_non_finite_hint_is_refused(self, which):
        # every comparison with NaN is false, so a NaN entry passes the box,
        # integrality and row checks; the hint must be refused before them.
        # The one-NaN hint is a feasible labeling's point with t_0 made NaN
        train = generate_scenario(ScenarioConfig(kind="uniform", n_total=30, seed=1))[0]
        cfg = DesignConfig(n_cl=2, seed=1)
        mip = build_mis_con_lab_milp(train, cfg)
        lay = VariableLayout(train.n, train.n_p, cfg.n_cl)
        if which == "all-nan":
            hint = np.full(mip.base.n_vars, np.nan)
        else:
            labels = LabelingMatrix.from_assignments(np.arange(train.n) % 2 + 1, 2)
            _, hint = labeling_l1_objective(mip, lay, labels)
            assert milp._check_hint(mip, lp.compile_lp(mip.base), hint, *mip.bounds()) is not None
            hint[lay.t(0)] = np.nan
        res = solve_milp(mip, incumbent_hint=hint)
        plain = solve_milp(mip)
        assert not res.hint_used
        assert res.status == plain.status == MipStatus.OPTIMAL
        assert res.summary() == plain.summary()
        np.testing.assert_array_equal(res.values, plain.values)

    def test_hint_rows_match_the_per_row_rule(self):
        rng = np.random.default_rng(4)
        n, m = 4, 6
        outcomes = set()
        for _ in range(300):
            a = rng.integers(-2, 3, size=(m, n)).astype(float)
            hint = rng.integers(0, 2, size=n).astype(float)
            # right-hand sides within a few 1e-6 of the hint's activity
            rhs = a @ hint + rng.choice([-2e-6, -5e-7, 0.0, 5e-7, 2e-6, 1.0], size=m)
            side = rng.choice(3, size=m)  # 0: a <= row, 1: a = row, 2: a >= row
            mip = make_mip(np.ones(n), a, np.where(side == 0, -INF, rhs),
                           np.where(side == 2, INF, rhs), np.zeros(n), np.ones(n), range(n))
            mip.validate()
            comp = lp.compile_lp(mip.base)
            act = comp.a[:, :n] @ hint
            rows_ok = all(comp.slack_lo[k] - 1e-6 <= comp.rhs[k] - act[k]
                          <= comp.slack_hi[k] + 1e-6 for k in range(m))
            got = milp._check_hint(mip, comp, hint, mip.base.lower, mip.base.upper)
            assert (got is not None) == rows_ok
            outcomes.add(rows_ok)
        assert outcomes == {True, False}

    def test_progress_logging(self, caplog, monkeypatch):
        mip = self._bigger_mip()
        monkeypatch.setattr(milp, "PROGRESS_EVERY", 10)
        with caplog.at_level(logging.DEBUG, logger="misens.milp"):
            res = solve_milp(mip, MilpLimits(node_cap=50))
        progress = [r for r in caplog.records
                    if "nodes=" in r.getMessage() and "cut_off=" in r.getMessage()]
        assert progress and all(r.levelno == logging.DEBUG for r in progress)
        assert res.summary()["schema"] == 1
        assert res.summary()["node_lps_cut_off"] == res.node_lps_cut_off

    def test_determinism(self):
        mip = self._bigger_mip()
        r1 = solve_milp(mip, MilpLimits(node_cap=200))
        r2 = solve_milp(mip, MilpLimits(node_cap=200))
        assert r1.status == r2.status
        assert r1.nodes_explored == r2.nodes_explored
        if r1.values is not None:
            assert np.array_equal(r1.values, r2.values)


class TestInverseStore:
    def _labeling_mip(self, seed=12):
        rng = np.random.default_rng(seed)
        n = 8
        train = Dataset(rng.uniform(size=(n, 1)), rng.uniform(size=n), np.arange(n))
        return build_mis_con_lab_milp(train, DesignConfig(n_cl=2, param_bound=2.0))

    @pytest.mark.parametrize("which", ["knapsack", "labeling"])
    def test_capped_store_gives_the_same_optimum(self, monkeypatch, which):
        mip = (TestLimitsAndHints()._bigger_mip() if which == "knapsack"
               else self._labeling_mip())
        inverted = []
        invert = lp.linalg.invert

        def counting(a):
            inverted.append(a.shape)
            return invert(a)

        monkeypatch.setattr(lp.linalg, "invert", counting)
        full = solve_milp(mip)
        full_inverts = len(inverted)
        # a zero budget keeps inverses on at most 8 open nodes
        monkeypatch.setattr(milp, "BINV_STORE_BYTES", 0)
        inverted.clear()
        capped = solve_milp(mip)
        # the node counts need not agree: an inverse carried from the parent
        # and one refactorized differ in roundoff, which can break degenerate
        # pricing ties the other way (drawn with rng seeds 10-29 instead of
        # 12, about half of these labeling instances give different counts)
        assert full.status == capped.status == MipStatus.OPTIMAL
        assert capped.objective_value == pytest.approx(full.objective_value, rel=0, abs=1e-9)
        # the root starts from the all-slack basis and every child reuses its
        # parent's inverse, so nothing is factorized, while the capped store
        # makes the nodes past the budget refactorize
        assert full_inverts == 0
        assert len(inverted) > 1


class TestCutoffSearch:
    """The node LPs' objective cutoff prunes exactly the nodes that the
    dominated test would prune after solving them: the search is the same."""

    @staticmethod
    def _without_cutoff(monkeypatch, mip):
        solve = milp.solve_compiled

        def uncut(comp, lower, upper, warm=None, cutoff=np.inf):
            return solve(comp, lower, upper, warm)

        with monkeypatch.context() as m:
            m.setattr(milp, "solve_compiled", uncut)
            return solve_milp(mip)

    def _assert_same_search(self, monkeypatch, mip) -> int:
        cut = solve_milp(mip)
        uncut = self._without_cutoff(monkeypatch, mip)
        assert uncut.node_lps_cut_off == 0
        assert (cut.status, cut.nodes_explored, cut.objective_value, cut.best_bound) == (
            uncut.status, uncut.nodes_explored, uncut.objective_value, uncut.best_bound)
        if uncut.values is None:
            assert cut.values is None
        else:
            np.testing.assert_array_equal(cut.values, uncut.values)
        return cut.node_lps_cut_off

    def test_brute_force_instances(self, monkeypatch):
        rng = np.random.default_rng(42)
        oracle = TestRandomizedOracle()
        cut = [self._assert_same_search(monkeypatch, oracle._random_mip(
            rng, int(rng.integers(2, 7)), int(rng.integers(0, 3)))) for _ in range(40)]
        assert max(cut) > 0

    def test_knapsack(self, monkeypatch):
        assert self._assert_same_search(monkeypatch, TestLimitsAndHints()._bigger_mip()) > 0

    def test_labeling_milp(self, monkeypatch):
        # seed 14: node bounds come within 1e-3 of the incumbent, so a cutoff
        # that slack would prune nodes this search explores
        mip = TestInverseStore()._labeling_mip(seed=14)
        assert self._assert_same_search(monkeypatch, mip) > 0


class TestBranching:
    """Which binary the first branching fixes, read from the first node LP
    after the root: its bounds differ from the root's at that binary."""

    @staticmethod
    def _first_branch(monkeypatch, mip):
        calls = []
        solve = milp.solve_compiled

        def recording(comp, lower, upper, warm=None, cutoff=np.inf):
            sol = solve(comp, lower, upper, warm, cutoff=cutoff)
            calls.append((np.array(lower), np.array(upper), sol))
            return sol

        monkeypatch.setattr(milp, "solve_compiled", recording)
        solve_milp(mip, MilpLimits(node_cap=2))
        (root_lo, root_hi, root), (lo, hi, _) = calls[:2]
        changed = np.flatnonzero((lo != root_lo) | (hi != root_hi))
        assert changed.size == 1
        return int(changed[0]), root.values

    @staticmethod
    def _closest_to_half(mip, values):
        bins = np.array(mip.binary_vars)
        v = values[bins]
        cand = np.flatnonzero(np.abs(v - np.round(v)) > milp.INT_TOL)
        return int(bins[cand[np.argmin(np.abs(v[cand] - 0.5))]])

    def test_labeling_branches_on_the_point_the_relaxation_underestimates_most(
            self, monkeypatch):
        # seed 18: the root LP's z value closest to 0.5 is point 1's, but the
        # relaxation underestimates point 4's error most
        n, n_cl = 8, 2
        mip = TestInverseStore()._labeling_mip(seed=18)
        lay = VariableLayout(n, 1, n_cl)
        rng = np.random.default_rng(18)
        x, y = rng.uniform(size=(n, 1))[:, 0], rng.uniform(size=n)
        j, v = self._first_branch(monkeypatch, mip)
        z = v[list(lay.binaries)].reshape(n, n_cl)
        fractional = (np.abs(z - np.round(z)) > milp.INT_TOL).any(axis=1)
        # each point's cheapest completion: max(0, min_j |y_i - f_j(x_i)| - t_i)
        fits = np.array([[v[lay.p(c, 0)] * x[i] + v[lay.b_p(c)] for c in (1, 2)]
                         for i in range(n)])
        t = v[[lay.t(i) for i in range(n)]]
        score = np.maximum(np.abs(y[:, None] - fits).min(axis=1) - t, 0.0)
        worst = int(np.argmax(np.where(fractional, score, -1.0)))
        assert worst == 4
        assert np.sort(score[fractional])[-2] < score[worst] - 0.1
        assert (self._closest_to_half(mip, v) - lay.z(0, 1)) // n_cl == 1
        # the lowest-index fractional z of that point (z_11 + z_12 = 1)
        assert j == lay.z(worst, 1)

    def test_without_groups_the_binary_closest_to_half(self, monkeypatch):
        mip = TestLimitsAndHints()._bigger_mip()
        assert milp._Groups(lp.compile_lp(mip.base), np.array(mip.binary_vars)).n_groups == 0
        j, v = self._first_branch(monkeypatch, mip)
        assert j == self._closest_to_half(mip, v)
