import numpy as np
import pytest

from misens import linalg, qp
from misens.qp import QpStatus, solve_qp


def make_qp(q, c, cons=(), lo=None, hi=None):
    """(q, c, g, h) for min 0.5 v'Qv + c'v s.t. cons and lo <= v <= hi.

    Each of cons is (row, sense, rhs) with sense ">=" or "<=".  G holds them
    in order, a "<=" row negated, and then per variable its finite lower and
    upper bound rows, +e_j >= lo_j and -e_j >= -hi_j.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    rows, rhs = [], []
    for row, sense, b in cons:
        sign = 1.0 if sense == ">=" else -1.0
        rows.append(sign * np.asarray(row, dtype=float))
        rhs.append(sign * b)
    for j in range(n):
        if lo is not None and np.isfinite(lo[j]):
            rows.append(np.eye(n)[j])
            rhs.append(lo[j])
        if hi is not None and np.isfinite(hi[j]):
            rows.append(-np.eye(n)[j])
            rhs.append(-hi[j])
    return (np.asarray(q, dtype=float), c, np.reshape(rows, (len(rows), n)),
            np.asarray(rhs, dtype=float))


class TestBasics:
    def test_unconstrained_norm_square(self):
        prob = make_qp(2.0 * np.eye(3), np.zeros(3))  # 0.5 v'(2I)v = ||v||^2
        sol = solve_qp(*prob)
        assert sol.status == QpStatus.OPTIMAL
        assert np.max(np.abs(sol.values)) <= 1e-9
        assert sol.objective_value == pytest.approx(0.0, abs=1e-12)

    def test_active_bound(self):
        # min (v-1)^2 - 1 = 0.5 v'(2)v - 2v subject to v >= 2
        prob = make_qp([[2.0]], [-2.0], lo=[2.0])
        sol = solve_qp(*prob)
        assert sol.values[0] == pytest.approx(2.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(0.0, abs=1e-9)

    def test_unconstrained_matches_cholesky(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            m = rng.normal(size=(5, 5))
            q = m @ m.T + 5 * np.eye(5)
            c = rng.normal(size=5)
            sol = solve_qp(*make_qp(q, c))
            oracle = -linalg.cholesky_solve(q, c)
            assert np.max(np.abs(sol.values - oracle)) <= 1e-8

    def test_infeasible(self):
        prob = make_qp(np.eye(1), [0.0],
                       cons=[([1.0], ">=", 2.0), ([1.0], "<=", 1.0)])
        assert solve_qp(*prob).status == QpStatus.INFEASIBLE

    def test_asymmetric_rejected(self):
        q = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="^q is not symmetric"):
            solve_qp(*make_qp(q, np.zeros(2)))

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            solve_qp(*make_qp(-np.eye(2), np.zeros(2)))

    def test_singular_rejected(self):
        # Cholesky of a singular Gram 2A'A often ends on a tiny positive
        # roundoff pivot instead of a zero one; PD_TOL refuses it all the same
        with pytest.raises(ValueError, match="positive definite"):
            solve_qp(*make_qp(np.diag([2.0, 0.0]), np.zeros(2)))
        rng = np.random.default_rng(0)
        factored = 0
        for _ in range(2000):
            # fewer than n_p + 1 points cannot identify an affine model
            n_p = int(rng.integers(1, 5))
            m = int(rng.integers(1, n_p + 1))
            a = np.hstack([rng.uniform(size=(m, n_p)), np.ones((m, 1))])
            gram = 2.0 * a.T @ a
            try:
                linalg.cholesky_factor(gram)
                factored += 1
            except linalg.LinAlgError:
                pass
            with pytest.raises(ValueError, match="positive definite"):
                solve_qp(*make_qp(gram, np.zeros(n_p + 1)))
        assert factored > 0


class TestInputChecks:
    """Every invalid argument raises ValueError naming it."""

    @staticmethod
    def valid():
        return {"q": np.eye(2), "c": np.zeros(2), "g": np.array([[1.0, 0.0]]),
                "h": np.array([1.0])}

    @pytest.mark.parametrize("name, bad", [
        ("q", np.ones((2, 3))), ("q", np.ones(2)), ("q", np.ones((2, 2, 2))),
        ("c", np.zeros(3)), ("c", np.zeros((2, 1))),
        ("g", np.ones((1, 3))), ("g", np.ones(2)),
        ("h", np.ones(2)), ("h", np.ones((1, 1)))])
    def test_wrong_shape(self, name, bad):
        args = self.valid()
        args[name] = bad
        with pytest.raises(ValueError, match=f"^{name} must"):
            solve_qp(**args)

    @pytest.mark.parametrize("name", ["q", "c", "g", "h"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, name, value):
        args = self.valid()
        args[name] = args[name].copy()
        args[name].flat[0] = value
        with pytest.raises(ValueError, match=f"^{name} has non-finite entries"):
            solve_qp(**args)


class TestInequalities:
    def test_projection_onto_halfspace(self):
        # min ||v - [2,0]||^2 s.t. v1 + v2 >= 3 -> projection (2.5, 0.5)
        prob = make_qp(2.0 * np.eye(2), [-4.0, 0.0],
                       cons=[([1.0, 1.0], ">=", 3.0)])
        sol = solve_qp(*prob)
        assert np.allclose(sol.values, [2.5, 0.5], atol=1e-8)

    def test_random_qps_kkt_residual(self):
        rng = np.random.default_rng(11)
        solved = 0
        for _ in range(30):
            n = int(rng.integers(2, 6))
            m_rows = int(rng.integers(1, 5))
            mat = rng.normal(size=(n, n))
            q = mat @ mat.T + 0.5 * np.eye(n)
            c = rng.normal(size=n)
            cons = []
            for _ in range(m_rows):
                a = rng.normal(size=n)
                sense = str(rng.choice([">=", "<="]))
                cons.append((a, sense, float(rng.normal())))
            prob = make_qp(q, c, cons, lo=np.full(n, -5.0), hi=np.full(n, 5.0))
            sol = solve_qp(*prob)
            if sol.status != QpStatus.OPTIMAL:
                continue  # random rows over the box can be jointly infeasible
            solved += 1
            assert sol.kkt_residual <= 1e-6
        assert solved >= 20

    def test_adding_constraint_never_improves(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            n = 4
            mat = rng.normal(size=(n, n))
            q = mat @ mat.T + np.eye(n)
            c = rng.normal(size=n)
            cons = []
            prev = solve_qp(*make_qp(q, c)).objective_value
            for _ in range(3):
                a = rng.normal(size=n)
                cons.append((a, ">=", float(rng.normal())))
                sol = solve_qp(*make_qp(q, c, cons))
                if sol.status != QpStatus.OPTIMAL:
                    break
                assert sol.objective_value >= prev - 1e-8
                prev = sol.objective_value

    def test_bound_only_box_projection(self):
        prob = make_qp(2.0 * np.eye(2), [-8.0, 2.0], lo=[0.0, 0.0], hi=[1.0, 1.0])
        sol = solve_qp(*prob)  # min ||v - (4, -1)||^2 on the unit box
        assert np.allclose(sol.values, [1.0, 0.0], atol=1e-8)


def record_factored_rows(monkeypatch):
    """The active sets, as lists of rows of G, that solve_qp factors, in order."""
    factored = []
    factor = qp._factor

    def recording_factor(gj, rows):
        factored.append(list(rows))
        return factor(gj, rows)

    monkeypatch.setattr(qp, "_factor", recording_factor)
    return factored


class TestCounters:
    def test_box_projection_counts(self, monkeypatch):
        # min ||v - (4, -1)||^2 on the unit box.  The unconstrained minimum
        # (4, -1) violates v0 <= 1 by 3 and v1 >= 0 by 1; the most violated
        # row goes first.  Each full step moves along the null space of the
        # rows already active, so two steps end at the vertex (1, 0).  Each
        # active set a step starts from is factored afresh, the start's too;
        # the final [1, 2] is not, since no step follows it.
        factored = record_factored_rows(monkeypatch)
        prob = make_qp(2.0 * np.eye(2), [-8.0, 2.0], lo=[0.0, 0.0], hi=[1.0, 1.0])
        sol = solve_qp(*prob)
        assert np.allclose(sol.values, [1.0, 0.0], atol=1e-12)
        assert sol.iterations == 2
        assert prob[2][[1, 2]].tolist() == [[-1.0, 0.0], [0.0, 1.0]]
        assert factored == [[], [1]]  # v0 <= 1, then v1 >= 0


def planted_qp(seed, n, n_singular=0, duplicate=False):
    """A QP on the box [-1/2, 1/2]^n with n general rows and a known optimum.

    Pick x*, make a quarter of the bounds and about 30% of the general rows
    active at x* with multipliers in [0.5, 2], and set c = -Q x* + A'lambda,
    so x* satisfies the KKT conditions.  Q is positive definite except on
    its last n_singular coordinates, which no general row touches and which
    sit at their upper bound with a positive multiplier: that pins x*, but
    Q is singular, so the dual method cannot start.  `duplicate` repeats
    the first active general row, which holds once its twin is active.
    """
    rng = np.random.default_rng(seed)
    half = 0.5
    m = rng.normal(size=(n, n))
    q = m @ m.T / n + 0.1 * np.eye(n)
    q[n - n_singular:, :] = 0.0
    q[:, n - n_singular:] = 0.0
    x_star = rng.uniform(-0.4, 0.4, size=n)
    a_lam = np.zeros(n)
    at_bound = set(rng.choice(n - n_singular, size=n // 4, replace=False).tolist())
    for j in sorted(at_bound | set(range(n - n_singular, n))):
        side = 1.0 if j >= n - n_singular else float(rng.choice([-1.0, 1.0]))
        x_star[j] = side * half
        a_lam[j] -= side * rng.uniform(0.5, 2.0)  # v >= -1/2 is +e_j, v <= 1/2 is -e_j
    g = rng.normal(size=(n, n))
    g[:, n - n_singular:] = 0.0
    slack = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.1, 1.0, size=n))
    lam = np.where(slack == 0.0, rng.uniform(0.5, 2.0, size=n), 0.0)
    a_lam += g.T @ lam
    rows = list(zip(g, g @ x_star - slack))
    if duplicate:
        rows.append(rows[int(np.flatnonzero(slack == 0.0)[0])])
    cons = [(a, ">=", float(b)) for a, b in rows]
    prob = make_qp(q, a_lam - q @ x_star, cons, lo=np.full(n, -half), hi=np.full(n, half))
    return prob, x_star


class TestPlantedOptimum:
    @pytest.mark.parametrize("seed, n, n_singular, duplicate", [
        (1, 40, 0, False), (1, 50, 0, True)])
    def test_recovers_the_planted_optimum(self, seed, n, n_singular, duplicate):
        prob, x_star = planted_qp(seed, n, n_singular, duplicate)
        sol = solve_qp(*prob)
        assert sol.status == QpStatus.OPTIMAL
        assert np.max(np.abs(sol.values - x_star)) <= 1e-7
        assert sol.kkt_residual <= 1e-9

    @pytest.mark.parametrize("seed, n, n_singular", [(3, 60, 5), (2, 50, 4)])
    def test_refuses_a_planted_singular_q(self, seed, n, n_singular):
        prob, _ = planted_qp(seed, n, n_singular)
        with pytest.raises(ValueError, match="positive definite"):
            solve_qp(*prob)


class TestWarmActiveSet:
    """`active` offers rows to start from; the answer never depends on it."""

    @staticmethod
    def violated_box_rows(prob, n):
        # box rows (make_qp's last 2n) violated at the unconstrained minimum
        q, c, g, h = prob
        x_free = -linalg.cholesky_solve(q, c)
        rows = np.arange(g.shape[0] - 2 * n, g.shape[0])
        return rows[g[rows] @ x_free - h[rows] < 0.0]

    def assert_same_answer(self, prob, offered):
        cold = solve_qp(*prob)
        warm = solve_qp(*prob, active=offered)
        assert warm.status == cold.status
        if cold.status == QpStatus.OPTIMAL:
            assert np.max(np.abs(warm.values - cold.values)) <= 1e-9
            assert warm.kkt_residual <= 1e-9
        return cold, warm

    @pytest.mark.parametrize("seed, n, duplicate", [(1, 40, False), (1, 50, True),
                                                    (4, 30, False)])
    def test_planted_qps_offered_their_violated_bounds(self, seed, n, duplicate):
        prob, x_star = planted_qp(seed, n, duplicate=duplicate)
        offered = self.violated_box_rows(prob, n)
        assert offered.size
        _, warm = self.assert_same_answer(prob, offered)
        assert np.max(np.abs(warm.values - x_star)) <= 1e-7

    def test_random_box_qps_offered_their_violated_bounds(self):
        rng = np.random.default_rng(19)
        solved = 0
        for _ in range(40):
            n = int(rng.integers(2, 8))
            mat = rng.normal(size=(n, n))
            q = mat @ mat.T + 0.5 * np.eye(n)
            c = 4.0 * rng.normal(size=n)
            cons = [(rng.normal(size=n), ">=", float(rng.normal()))
                    for _ in range(int(rng.integers(0, 4)))]
            prob = make_qp(q, c, cons, lo=np.full(n, -1.0), hi=np.full(n, 1.0))
            cold, _ = self.assert_same_answer(prob, self.violated_box_rows(prob, n))
            solved += cold.status == QpStatus.OPTIMAL
        assert solved >= 30

    def test_the_optimal_active_set_takes_no_step(self):
        # the planted active rows are independent with multipliers >= 0.5: as
        # a start they are already the optimum
        prob, x_star = planted_qp(1, 40)
        g, h = prob[2], prob[3]
        offered = np.flatnonzero(np.abs(g @ x_star - h) <= 1e-9)
        _, warm = self.assert_same_answer(prob, offered)
        assert warm.iterations == 0
        # with the duplicated row both twins are offered: dependent rows are
        # no start, and the solve takes the cold path
        prob, x_star = planted_qp(1, 50, duplicate=True)
        g, h = prob[2], prob[3]
        offered = np.flatnonzero(np.abs(g @ x_star - h) <= 1e-9)
        cold, warm = self.assert_same_answer(prob, offered)
        assert warm.iterations == cold.iterations > 0

    @pytest.mark.parametrize("offered", [[], [0], [0, 1, 2, 3]])
    def test_no_start_falls_back_to_the_cold_path(self, monkeypatch, offered):
        # the box projection of TestCounters.  Held at v0 = 0 the minimum is
        # (0, -1), where the gradient (-8, 0) gives the row v0 >= 0 the
        # multiplier -8: no dual feasible start.  Four rows in two variables
        # are dependent and not even factored.  Each offer solves as the cold
        # start does: two steps, v0 <= 1 (row 1) and then v1 >= 0 (row 2),
        # and the final [1, 2] is not factored
        factored = record_factored_rows(monkeypatch)
        prob = make_qp(2.0 * np.eye(2), [-8.0, 2.0], lo=[0.0, 0.0], hi=[1.0, 1.0])
        sol = solve_qp(*prob, active=offered)
        assert np.allclose(sol.values, [1.0, 0.0], atol=1e-12)
        assert sol.iterations == 2
        assert factored == ([[0]] if offered == [0] else []) + [[], [1]]

    @pytest.mark.parametrize("offered, message", [
        ([4], "outside"), ([-1], "outside"), ([1, 1], "repeats"),
        ([[0, 1]], "1-D"), ([0.5], "1-D")])
    def test_invalid_rows_rejected(self, offered, message):
        prob = make_qp(2.0 * np.eye(2), [-8.0, 2.0], lo=[0.0, 0.0], hi=[1.0, 1.0])
        with pytest.raises(ValueError, match=f"^active .*{message}"):
            solve_qp(*prob, active=offered)


@pytest.mark.parametrize("m", [1, 2, 5, 12])
def test_no_active_rows_factor_to_the_identity(m):
    # LAPACK's complete QR of an m x 0 block is H = I to the bit, so the
    # unconstrained start -J0 J0' c is the warm start with no rows
    rng = np.random.default_rng(m)
    h_mat, r_mat = qp._factor(rng.normal(size=(3, m)), [])
    assert np.array_equal(h_mat, np.eye(m)) and r_mat.shape == (0, 0)
