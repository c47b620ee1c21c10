import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from misens import lp, milp
from misens.design import (DesignConfig, VariableLayout, build_mis_con_lab_milp,
                           design_mis_con_lab)
from misens.milp import MilpLimits
from misens.lp import LinearProgram, Status, solve_lp
from misens.study import ScenarioConfig, generate_scenario

INF = np.inf


def make_lp(c, a, row_lo, row_hi, lo, hi):
    """LinearProgram with `a` read as len(row_lo) x len(c), so that [] is no rows."""
    return LinearProgram(c, np.reshape(np.asarray(a, dtype=float), (len(row_lo), len(c))),
                         row_lo, row_hi, lo, hi)


def row_bounds(side, rhs):
    """(row_lo, row_hi) of a random row by the side drawn for it: 0 or 2 is
    <= rhs, 1 or 3 is >= rhs and 4 is = rhs."""
    return [(-INF, rhs), (rhs, INF), (-INF, rhs), (rhs, INF), (rhs, rhs)][side]


def enumerate_vertices(prob):
    """Brute-force oracle: intersect every n-subset of the rows' and the
    bounds' finite sides.

    Valid for problems whose bounds make the feasible region bounded.
    Returns (status, objective) with status "optimal" or "infeasible".
    """
    n = prob.n_vars
    eye = np.eye(n)
    # one (a, value) per finite side, the equality rows first
    equal = prob.row_lo == prob.row_hi
    sides = [(prob.a[k], prob.row_lo[k]) for k in np.flatnonzero(equal)]
    for a, lo, hi in zip(prob.a[~equal], prob.row_lo[~equal], prob.row_hi[~equal]):
        sides += [(a, v) for v in (lo, hi) if np.isfinite(v)]
    sides += [(eye[j], v) for j in range(n) for v in (prob.lower[j], prob.upper[j])]
    n_eq = int(equal.sum())

    def feasible(x):
        act = prob.a @ x
        return bool(np.all(act >= prob.row_lo - 1e-9) and np.all(act <= prob.row_hi + 1e-9)
                    and np.all(x >= prob.lower - 1e-9) and np.all(x <= prob.upper + 1e-9))

    best = None
    if n_eq > n:
        picks = []
    else:
        picks = itertools.combinations(range(n_eq, len(sides)), n - n_eq)
    for pick in picks:
        active = list(range(n_eq)) + list(pick)
        a_mat = np.array([sides[k][0] for k in active])
        b_vec = np.array([sides[k][1] for k in active])
        try:
            x = np.linalg.solve(a_mat, b_vec)
        except np.linalg.LinAlgError:
            continue
        if feasible(x):
            obj = float(prob.objective @ x)
            if best is None or obj < best:
                best = obj
    if best is None:
        return "infeasible", None
    return "optimal", best


def random_lp(rng):
    n = int(rng.integers(1, 7))
    m = int(rng.integers(1, 7))
    c = rng.integers(-3, 4, size=n).astype(float)
    lo = np.zeros(n)
    hi = rng.uniform(0.5, 2.0, size=n)
    a = np.zeros((m, n))
    row_lo, row_hi = np.empty(m), np.empty(m)
    for k in range(m):
        nz = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        for j in nz:
            a[k, j] = rng.integers(-3, 4)
        if not a[k].any():
            a[k, nz[0]] = 1.0
        side = int(rng.choice(5))
        row_lo[k], row_hi[k] = row_bounds(side, float(np.round(rng.uniform(-2, 3), 3)))
    return LinearProgram(c, a, row_lo, row_hi, lo, hi)


def branch_families(seed, tries=150):
    """Random LPs solved to optimality, each with a child that fixes one
    variable at one of its ends, as a branch-and-bound branch does: the
    parent LP, its compilation, its solution and the child LP."""
    rng = np.random.default_rng(seed)
    for _ in range(tries):
        prob = random_lp(rng)
        comp = lp.compile_lp(prob)
        sol = lp.solve_compiled(comp, prob.lower, prob.upper)
        if sol.status != Status.OPTIMAL:
            continue
        j = int(rng.integers(prob.n_vars))
        fix = float(rng.choice([prob.lower[j], prob.upper[j]]))
        child = dataclasses.replace(prob, lower=prob.lower.copy(), upper=prob.upper.copy())
        child.lower[j] = fix
        child.upper[j] = fix
        yield prob, comp, sol, child


def branch_children(seed, tries=150):
    """The parent compilations, parent solutions and child LPs of
    branch_families."""
    for _, comp, sol, child in branch_families(seed, tries):
        yield comp, sol, child


def solve_child(comp, child, warm=None, **kwargs):
    """The child LP solved over its parent's compilation, as a node LP is."""
    return lp.solve_compiled(comp, child.lower, child.upper, warm, **kwargs)


def exported(comp, basic, status):
    """The Basis that a solve over comp exports when it ends on these basic
    columns and statuses, with their inverse."""
    simplex = lp._Simplex(comp, comp.lower, comp.upper, 0)
    simplex.basic, simplex.vstat = np.array(basic), np.array(status)
    simplex.binv = np.linalg.inv(comp.a[:, simplex.basic])
    return simplex.export_basis()


# the box of random_free_lp's free variables, wider than the rows keep them in
WIDE = 10.0


def random_free_lp(rng, degenerate=False):
    """random_lp with about half its variables free: boxed in [-WIDE, WIDE]
    but each kept in [-2, 2] by two rows, and half of those at zero cost.
    `degenerate` sets the rhs of random_lp's rows to 0, so that many of them
    meet at the origin."""
    prob = random_lp(rng)
    row_lo, row_hi = prob.row_lo, prob.row_hi
    if degenerate:
        row_lo, row_hi = (np.where(np.isfinite(r), 0.0, r) for r in (row_lo, row_hi))
    n = prob.n_vars
    free = rng.random(n) < 0.5
    c = prob.objective.copy()
    c[free & (rng.random(n) < 0.5)] = 0.0
    lo, hi = prob.lower.copy(), prob.upper.copy()
    lo[free], hi[free] = -WIDE, WIDE
    # for each free variable the rows v_j <= 2, then v_j >= -2
    rows = np.eye(n)[np.repeat(np.flatnonzero(free), 2)]
    pairs = np.count_nonzero(free)
    return LinearProgram(c, np.vstack([prob.a, rows]),
                         np.concatenate([row_lo, np.tile([-INF, -2.0], pairs)]),
                         np.concatenate([row_hi, np.tile([2.0, INF], pairs)]), lo, hi)


def free_children(seed, tries=300):
    """branch_children for random_free_lp: a free variable gets a bound half
    a unit past its parent value, a bounded one is fixed at one of its ends;
    the rows keep every free variable off its wide box."""
    rng = np.random.default_rng(seed)
    for _ in range(tries):
        prob = random_free_lp(rng)
        comp = lp.compile_lp(prob)
        sol = lp.solve_compiled(comp, prob.lower, prob.upper)
        if sol.status != Status.OPTIMAL:
            continue
        j = int(rng.integers(prob.n_vars))
        child = dataclasses.replace(prob, lower=prob.lower.copy(), upper=prob.upper.copy())
        if prob.lower[j] == -WIDE:
            if rng.random() < 0.5:
                child.lower[j] = sol.values[j] + 0.5
            else:
                child.upper[j] = sol.values[j] - 0.5
        else:
            child.lower[j] = child.upper[j] = float(rng.choice([prob.lower[j], prob.upper[j]]))
        yield comp, sol, child


@pytest.fixture
def inverted(monkeypatch):
    """Every matrix the simplex refactorizes, in call order."""
    seen = []
    invert = lp.linalg.invert

    def counting(a):
        seen.append(np.array(a))
        return invert(a)

    monkeypatch.setattr(lp.linalg, "invert", counting)
    return seen


def assert_same_solve(sol, plain):
    """Two solves that took the same path: equal status, counters, values
    and basis."""
    assert sol.status == plain.status
    assert sol.objective_value == plain.objective_value
    assert (sol.iterations, sol.refactorizations) == (plain.iterations, plain.refactorizations)
    if plain.values is not None:
        np.testing.assert_array_equal(sol.values, plain.values)
        np.testing.assert_array_equal(sol.basis.basic, plain.basis.basic)
        np.testing.assert_array_equal(sol.basis.status, plain.basis.status)


def slack_sides(comp, table):
    """The (lower, upper) sides of the slack columns of comp.box or comp.rest."""
    return table[lp.AT_LO, comp.n_struct:], table[lp.AT_UP, comp.n_struct:]


def real_boxes(comp, lower, upper):
    slack_lo, slack_hi = slack_sides(comp, comp.box)
    return np.concatenate([lower, slack_lo]), np.concatenate([upper, slack_hi])


def assert_farkas(comp, lower, upper, basic):
    """Some row r of B^-1 [A I], for the final basic columns B and an
    inverse formed here, cannot meet its right-hand side r'rhs over the
    real boxes: the range of r'x falls short of it by more than FEAS_TOL.
    Entries |r_j| <= PIVOT_TOL count as 0, as in the solver."""
    binv = np.linalg.inv(comp.a[:, basic])
    rows, target = binv @ comp.a, binv @ comp.rhs
    rows[np.abs(rows) <= lp.PIVOT_TOL] = 0.0
    lo, hi = real_boxes(comp, lower, upper)
    with np.errstate(invalid="ignore"):  # 0 * inf, on the branch not taken
        low = np.where(rows > 0, rows * lo, np.where(rows < 0, rows * hi, 0.0)).sum(axis=1)
        high = np.where(rows > 0, rows * hi, np.where(rows < 0, rows * lo, 0.0)).sum(axis=1)
    assert np.maximum(low - target, target - high).max() > lp.FEAS_TOL


def assert_infeasible(prob, comp=None, warm=None):
    """The solve over comp (by default prob compiled afresh) from `warm`
    reports INFEASIBLE, and the basis it ends on holds a Farkas row
    (assert_farkas)."""
    comp = comp or lp.compile_lp(prob)
    assert lp.solve_compiled(comp, prob.lower, prob.upper, warm).status == Status.INFEASIBLE
    simplex = lp._Simplex(comp, prob.lower, prob.upper, 50 * (comp.n_struct + comp.m))
    assert simplex.solve(warm) == Status.INFEASIBLE
    assert_farkas(comp, prob.lower, prob.upper, simplex.basic)


def duality_gap(prob, sol):
    """|primal - dual| for bounded-variable duality: the row duals times the
    rhs, plus each column's reduced cost times the bound it is at, a slack's
    implied bound included (its reduced cost is minus its row's dual)."""
    assert sol.status == Status.OPTIMAL
    comp = lp.compile_lp(prob)
    y, n = sol.dual_values, comp.n_struct
    d = np.concatenate([sol.reduced_costs, -y])
    v = np.concatenate([sol.values, comp.rhs - comp.a[:, :n] @ sol.values])
    rest_lo, rest_hi = slack_sides(comp, comp.rest)
    lo, hi = np.concatenate([prob.lower, rest_lo]), np.concatenate([prob.upper, rest_hi])
    at_lo = (d > 0) & (v <= lo + 1e-6)
    at_hi = (d < 0) & (v >= hi - 1e-6)
    dual_obj = float(y @ comp.rhs) + float(d[at_lo] @ lo[at_lo] + d[at_hi] @ hi[at_hi])
    return abs(sol.objective_value - dual_obj)


def assert_certified_optimum(comp, lower, upper, sol, prob):
    """An OPTIMAL solve closes its duality gap to 1e-9, is primal feasible
    within FEAS_TOL, and has the optimum of the slack-basis solve to 1e-9."""
    assert duality_gap(prob, sol) <= 1e-9
    x = sol.values
    assert np.all(x >= lower - lp.FEAS_TOL) and np.all(x <= upper + lp.FEAS_TOL)
    slack = comp.rhs - comp.a[:, :comp.n_struct] @ x
    slack_lo, slack_hi = slack_sides(comp, comp.box)
    assert np.all(slack >= slack_lo - lp.FEAS_TOL)
    assert np.all(slack <= slack_hi + lp.FEAS_TOL)
    cold = lp.solve_compiled(comp, lower, upper)
    assert cold.status == Status.OPTIMAL
    assert sol.objective_value == pytest.approx(cold.objective_value, abs=1e-9)


class TestBasics:
    def test_min_x_above_three(self):
        prob = make_lp([1.0], [[1.0]], [3.0], [INF], [0.0], [10.0])
        sol = solve_lp(prob)
        assert sol.status == Status.OPTIMAL
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)
        assert sol.values[0] == pytest.approx(3.0, abs=1e-9)

    def test_segment_optimum(self):
        prob = make_lp([-1.0, -1.0], [[1.0, 1.0]], [-INF], [1.0], [0.0, 0.0], [10.0, 10.0])
        sol = solve_lp(prob)
        assert sol.status == Status.OPTIMAL
        assert sol.objective_value == pytest.approx(-1.0, abs=1e-9)
        assert np.all(sol.values < prob.upper)  # the row binds, not the box

    def test_infeasible_witness(self):
        prob = make_lp([1.0], [[1.0], [1.0]], [5.0, -INF], [INF, 1.0], [0.0], [10.0])
        assert_infeasible(prob)

    def test_infeasible_via_bounds(self):
        prob = make_lp([0.0, 0.0], [[1.0, 1.0]], [10.0], [10.0], [0.0, 0.0], [1.0, 1.0])
        assert_infeasible(prob)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_validate_refuses_non_finite_bounds(self, side, value):
        # an LP is boxed: one that could be unbounded, or has a free column,
        # is refused before any solve, naming the first such variable
        prob = make_lp([-1.0, 1.0, 0.0], [[0.0, 1.0, 0.0]], [0.0], [INF],
                       [0.0, -1.0, 0.0], [1.0, 1.0, 1.0])
        getattr(prob, side)[1:] = value
        with pytest.raises(ValueError, match="variable 1 has a non-finite bound"):
            solve_lp(prob)
        with pytest.raises(ValueError, match="variable 1 has a non-finite bound"):
            lp.compile_lp(prob)

    def test_bounds_outside_the_compiled_box_are_refused(self):
        # the slacks' implied bounds hold over the compiled box only
        prob = make_lp([1.0, 1.0], [[1.0, 1.0]], [1.0], [INF], [0.0, 0.0], [2.0, 2.0])
        comp = lp.compile_lp(prob)
        inside = lp.solve_compiled(comp, [0.0, 1.0], [1.0, 1.0])
        assert inside.status == Status.OPTIMAL
        for lower, upper in (([-1.0, 0.0], [2.0, 2.0]), ([0.0, 0.0], [2.0, 3.0]),
                             ([0.0, np.nan], [2.0, 2.0]), ([0.0, 0.0], [np.inf, 2.0])):
            with pytest.raises(ValueError, match="compiled with"):
                lp.solve_compiled(comp, lower, upper)

    def test_slack_on_its_implied_bound_closes_the_duality_gap(self):
        # max x + y over the unit box with x + y >= 0: the optimum (1, 1)
        # puts the row at its range's top, so the slack s = -(x + y) sits on
        # its implied bound -2.  From a basis with x basic and s nonbasic
        # there, the row dual is -1 and s's reduced cost 1; the dual
        # objective needs the term 1 * (-2) of that bound
        prob = make_lp([-1.0, -1.0], [[1.0, 1.0]], [0.0], [INF], [0.0, 0.0], [1.0, 1.0])
        comp = lp.compile_lp(prob)
        assert comp.rest[lp.AT_LO, 2] == -2.0 and comp.rest[lp.AT_UP, 2] == 0.0
        sol = lp.solve_compiled(comp, prob.lower, prob.upper,
                                exported(comp, [0], [lp.BASIC, lp.AT_UP, lp.AT_LO]))
        assert sol.status == Status.OPTIMAL
        assert sol.objective_value == pytest.approx(-2.0, abs=1e-12)
        assert sol.basis.status[2] == lp.AT_LO and sol.dual_values[0] < -lp.OPT_TOL
        assert duality_gap(prob, sol) <= 1e-9
        assert solve_lp(prob).objective_value == pytest.approx(-2.0, abs=1e-12)

    def test_rest_takes_each_open_slack_side_from_the_row_range(self):
        # slack s = rhs - a'v: an open top (a row a'v <= rhs) rests at
        # rhs - min a'v, an open bottom (a'v >= rhs) at rhs - max a'v, both
        # over the box and clamped at 0; every finite side is the real box's
        rng = np.random.default_rng(7)
        lower, upper = np.array([-1.0, 0.0, 0.5]), np.array([2.0, 1.0, 3.0])
        corners = np.array(list(itertools.product(*zip(lower, upper))))
        for _ in range(50):
            a = rng.integers(-3, 4, size=(6, 3)).astype(float)
            rhs = rng.uniform(-4.0, 4.0, size=6)
            row_lo, row_hi = map(np.array, zip(*(row_bounds(side, r) for side, r in
                                                  zip(rng.choice(5, size=6), rhs))))
            comp = lp.compile_lp(make_lp(np.zeros(3), a, row_lo, row_hi, lower, upper))
            box_lo, box_hi = slack_sides(comp, comp.box)
            rest_lo, rest_hi = slack_sides(comp, comp.rest)
            np.testing.assert_array_equal(box_lo, comp.rhs - row_hi)
            np.testing.assert_array_equal(box_hi, comp.rhs - row_lo)
            act = corners @ a.T
            open_lo, open_hi = np.isinf(box_lo), np.isinf(box_hi)
            np.testing.assert_allclose(rest_lo[open_lo], np.minimum(
                comp.rhs - act.max(axis=0), 0.0)[open_lo], rtol=0, atol=1e-12)
            np.testing.assert_allclose(rest_hi[open_hi], np.maximum(
                comp.rhs - act.min(axis=0), 0.0)[open_hi], rtol=0, atol=1e-12)
            np.testing.assert_array_equal(rest_lo[~open_lo], box_lo[~open_lo])
            np.testing.assert_array_equal(rest_hi[~open_hi], box_hi[~open_hi])
            assert np.isfinite(comp.rest).all()
            np.testing.assert_array_equal(comp.rest[:, :3], 0.0)

    def test_equality_row(self):
        prob = make_lp([1.0, 2.0], [[1.0, 1.0]], [1.0], [1.0], [0.0, 0.0], [1.0, 1.0])
        sol = solve_lp(prob)
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_iteration_cap_raises_stalled(self):
        prob = make_lp([-1.0, -1.0], [[1.0, 2.0], [2.0, 1.0]], [-INF, -INF], [4.0, 4.0],
                       [0.0, 0.0], [10.0, 10.0])
        assert np.all(solve_lp(prob).values < prob.upper)  # the rows bind, not the box
        # solve_lp's cap is 50 (n + m); set a cap of 1 on the simplex itself
        with pytest.raises(lp.SimplexStalledError, match="stalled"):
            lp._Simplex(lp.compile_lp(prob), prob.lower, prob.upper, 1).solve(None)

    def test_validate_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="lower bound above upper"):
            solve_lp(make_lp([1.0], [], [], [], [2.0], [1.0]))

    @pytest.mark.parametrize("a,row_lo,row_hi", [
        ([[1.0, 0.0]], [0.0], [1.0]),        # a row wider than the variables
        ([[1.0], [1.0]], [0.0], [1.0]),      # more rows than row bounds
        ([[1.0]], [0.0], [1.0, 2.0]),        # row_hi longer than row_lo
        ([1.0], [0.0], [1.0]),               # a not 2-d
    ], ids=["wide-row", "rows-past-bounds", "row_hi-longer", "a-flat"])
    def test_validate_rejects_bad_shapes(self, a, row_lo, row_hi):
        prob = LinearProgram([1.0], a, row_lo, row_hi, [0.0], [1.0])
        with pytest.raises(ValueError, match="rows x variables"):
            solve_lp(prob)

    @pytest.mark.parametrize("row_lo,row_hi,what", [
        ([0.0, np.nan], [1.0, 1.0], "a NaN bound"),
        ([0.0, 0.0], [1.0, np.nan], "a NaN bound"),
        ([0.0, 2.0], [1.0, 1.0], "lower bound above upper bound"),
        ([0.0, INF], [1.0, INF], "no finite bound"),
        ([0.0, -INF], [1.0, -INF], "no finite bound"),
        ([0.0, -INF], [1.0, INF], "no finite bound"),
        ([0.0, INF], [1.0, -INF], "lower bound above upper bound"),
        ([0.0, INF], [1.0, 5.0], "lower bound above upper bound"),
        ([0.0, 5.0], [1.0, -INF], "lower bound above upper bound"),
    ], ids=["lo-nan", "hi-nan", "lo-above-hi", "lo-plus-inf", "hi-minus-inf",
            "both-infinite", "inf-over-minus-inf", "lo-plus-inf-hi-finite",
            "hi-minus-inf-lo-finite"])
    def test_validate_names_the_row_of_a_bad_row_bound(self, row_lo, row_hi, what):
        prob = make_lp([1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], row_lo, row_hi,
                       [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match=f"row 1 has {what}"):
            solve_lp(prob)
        with pytest.raises(ValueError, match=f"row 1 has {what}"):
            lp.compile_lp(prob)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_validate_names_the_row_of_a_non_finite_coefficient(self, value):
        a = np.ones((3, 2))
        a[2, 1] = value
        prob = make_lp([1.0, 1.0], a, [0.0] * 3, [INF] * 3, [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="row 2 has a non-finite coefficient"):
            solve_lp(prob)

    def test_ranged_row_solves_as_its_two_sides(self):
        # 1 <= x + 2y <= 3 against the rows x + 2y >= 1 and x + 2y <= 3; each
        # objective puts the optimum on a side of the range or inside it
        for c in ([1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 0.5]):
            ranged = make_lp(c, [[1.0, 2.0]], [1.0], [3.0], [0.0, 0.0], [2.0, 2.0])
            sides = make_lp(c, [[1.0, 2.0], [1.0, 2.0]], [1.0, -INF], [INF, 3.0],
                            [0.0, 0.0], [2.0, 2.0])
            comp = lp.compile_lp(ranged)
            assert (comp.rhs[0], comp.box[lp.AT_LO, 2], comp.box[lp.AT_UP, 2]) == (3.0, 0.0, 2.0)
            got, want = solve_lp(ranged), solve_lp(sides)
            assert got.status == want.status == Status.OPTIMAL
            assert got.objective_value == pytest.approx(want.objective_value, abs=1e-12)
            np.testing.assert_allclose(got.values, want.values, atol=1e-12)
            assert duality_gap(ranged, got) <= 1e-9

    def test_row_records_have_one_sense(self):
        # the read-only (coeffs, sense, rhs) view of the rows has no ranged form
        prob = make_lp([1.0, 1.0], [[1.0, 0.0], [0.0, 2.0], [3.0, 4.0], [1.0, 2.0]],
                       [-INF, 1.0, 5.0, 1.0], [2.0, INF, 5.0, 3.0], [0.0, 0.0], [2.0, 2.0])
        rows = prob.constraints
        assert [(r.coeffs, r.sense, r.rhs) for r in itertools.islice(rows, 3)] == [
            (((0, 1.0),), "<=", 2.0), (((1, 2.0),), ">=", 1.0),
            (((0, 3.0), (1, 4.0)), "=", 5.0)]
        with pytest.raises(ValueError, match="row 3 is ranged"):
            next(rows)


class TestRandomizedAgainstOracle:
    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(2024)
        n_optimal = 0
        for _ in range(200):
            prob = random_lp(rng)
            status, best = enumerate_vertices(prob)
            sol = solve_lp(prob)
            if status == "infeasible":
                assert_infeasible(prob)
                continue
            assert sol.status == Status.OPTIMAL
            n_optimal += 1
            assert sol.objective_value == pytest.approx(best, abs=1e-6)
            self._check_kkt(prob, sol)
        assert n_optimal >= 50  # the generator must exercise the optimal path

    def _check_kkt(self, prob, sol):
        x = sol.values
        # primal feasibility
        assert np.all(x >= prob.lower - 1e-7)
        assert np.all(x <= prob.upper + 1e-7)
        act, y = prob.a @ x, sol.dual_values
        assert np.all(act >= prob.row_lo - 1e-7) and np.all(act <= prob.row_hi + 1e-7)
        # the dual of a row held from above is <= 0, from below >= 0
        assert np.all(y[prob.row_lo == -INF] <= 1e-7)
        assert np.all(y[prob.row_hi == INF] >= -1e-7)
        # complementary slackness at the row's finite side
        rhs = np.where(np.isfinite(prob.row_hi), prob.row_hi, prob.row_lo)
        assert np.all(np.abs(y * (act - rhs)) <= 1e-6 * np.maximum(1.0, np.abs(y)))
        # strong duality with bound terms
        assert duality_gap(prob, sol) <= 1e-6


class TestWarmStart:
    def test_warm_start_matches_cold_after_bound_tightening(self):
        checked = 0
        for comp, sol, tight in branch_children(99):
            warm_sol = solve_child(comp, tight, sol.basis)
            cold_sol = solve_lp(tight)
            assert warm_sol.status == cold_sol.status
            if cold_sol.status == Status.OPTIMAL:
                checked += 1
                assert warm_sol.objective_value == pytest.approx(
                    cold_sol.objective_value, abs=1e-8)
        assert checked >= 20

    def test_child_reuses_the_parent_inverse(self, inverted):
        checked = 0
        for comp, parent, child in branch_children(99):
            assert parent.basis.binv is not None
            inverted.clear()
            warm_sol = solve_child(comp, child, parent.basis)
            refactorized = len(inverted)
            cold_sol = solve_lp(child)
            assert warm_sol.status == cold_sol.status
            if cold_sol.status == Status.OPTIMAL:
                checked += 1
                assert refactorized == 0
                assert warm_sol.objective_value == pytest.approx(
                    cold_sol.objective_value, abs=1e-8)
        assert checked >= 20

    def test_wrong_inverse_is_caught(self):
        # a copy of the parent's Basis with the identity for its inverse is
        # not the solver's export: the child starts from the slack basis
        checked = 0
        for comp, parent, child in branch_children(99):
            wrong = dataclasses.replace(parent.basis, binv=np.eye(child.n_rows))
            warm_sol = solve_child(comp, child, wrong)
            assert_same_solve(warm_sol, solve_child(comp, child))
            checked += warm_sol.status == Status.OPTIMAL
        assert checked >= 20

    def test_inverse_of_another_lp_is_not_trusted(self):
        # zero right-hand sides make the beta residual 0 for any inverse; a
        # Basis exported over another LP is not started from at all
        rng = np.random.default_rng(1)

        def homogeneous_lp(c, hi, m):
            a, row_lo, row_hi = np.zeros((m, c.size)), np.empty(m), np.empty(m)
            for k in range(m):
                a[k] = rng.integers(-3, 4, size=c.size)
                if not a[k].any():
                    a[k, 0] = 1.0
                row_lo[k], row_hi[k] = row_bounds(int(rng.choice(2)), 0.0)
            return make_lp(c, a, row_lo, row_hi, np.zeros(c.size), hi)

        checked = 0
        for _ in range(300):
            n, m = int(rng.integers(2, 7)), int(rng.integers(1, 6))
            c = rng.integers(-3, 4, size=n).astype(float)
            hi = rng.uniform(0.5, 2.0, size=n)
            first, second = homogeneous_lp(c, hi, m), homogeneous_lp(c, hi, m)
            sol = solve_lp(first)
            if sol.status != Status.OPTIMAL:
                continue
            comp = lp.compile_lp(second)
            warm_sol = lp.solve_compiled(comp, second.lower, second.upper, sol.basis)
            assert_same_solve(warm_sol, lp.solve_compiled(comp, second.lower, second.upper))
            checked += 1
        assert checked >= 200

    def test_children_leave_the_shared_parent_basis_as_it_was(self):
        # both children of a branch warm-start from one exported Basis; the
        # first pivot of each works on its own copy of the parent's inverse
        rng = np.random.default_rng(99)
        pivoted = 0
        for _ in range(300):
            prob = random_lp(rng)
            comp = lp.compile_lp(prob)
            parent = lp.solve_compiled(comp, prob.lower, prob.upper)
            if parent.status != Status.OPTIMAL:
                continue
            basis = parent.basis
            assert not any(arr.flags.writeable for arr in (basis.basic, basis.status, basis.binv))
            before = [arr.copy() for arr in (basis.basic, basis.status, basis.binv)]
            j = int(rng.integers(prob.n_vars))
            for fix in (prob.lower[j], prob.upper[j]):
                child = dataclasses.replace(prob, lower=prob.lower.copy(),
                                            upper=prob.upper.copy())
                child.lower[j] = child.upper[j] = fix
                sol = solve_child(comp, child, basis)
                pivoted += sol.iterations > 1 and not sol.refactorizations
            for arr, old in zip((basis.basic, basis.status, basis.binv), before):
                np.testing.assert_array_equal(arr, old)
        assert pivoted >= 20

    def test_warm_start_without_rows(self):
        prob = make_lp([1.0, -1.0], [], [], [], [0.0, 0.0], [1.0, 2.0])
        comp = lp.compile_lp(prob)
        sol = solve_child(comp, prob, solve_child(comp, prob).basis)
        assert sol.status == Status.OPTIMAL
        assert sol.objective_value == pytest.approx(-2.0, abs=1e-12)

    def test_infeasible_child_is_decided_by_a_farkas_row(self, inverted):
        # the parent rests at x = 1, y = 0.5; capping x at 0.2 leaves the row
        # x + y >= 1.5 out of reach and no column can enter the dual simplex:
        # the row is formed again from a refactorized inverse, and its reach
        # over the boxes proves the child infeasible
        prob = make_lp([1.0, 1.0], [[1.0, 1.0]], [1.5], [INF], [0.0, 0.0], [1.0, 1.0])
        comp = lp.compile_lp(prob)
        parent = solve_child(comp, prob)
        child = dataclasses.replace(prob, upper=np.array([0.2, 1.0]))
        inverted.clear()
        sol = solve_child(comp, child, parent.basis)
        assert sol.status == Status.INFEASIBLE
        assert sol.iterations == 2 and sol.refactorizations == 1
        np.testing.assert_array_equal(inverted[0], comp.a[:, parent.basis.basic])
        assert_infeasible(child, comp, parent.basis)

    def test_warm_start_with_garbage_basis_falls_back(self):
        prob = make_lp([1.0], [[1.0]], [3.0], [INF], [0.0], [10.0])
        comp = lp.compile_lp(prob)
        sol = solve_child(comp, prob, lp.Basis((0, 0), (0, 0, 0)))
        assert sol.status == Status.OPTIMAL
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)
        assert_same_solve(sol, solve_child(comp, prob))  # the slack basis replaced it

    @pytest.mark.parametrize("basic,status", [
        ((0,), (0, 4)),
        ((0,), (0, -1)),
        ((2,), (1, 0)),
        ((-1,), (1, 0)),
    ], ids=["status-4", "status-negative", "column-past-end", "column-negative"])
    def test_warm_start_with_an_index_out_of_range_falls_back(self, basic, status):
        prob = make_lp([1.0], [[1.0]], [3.0], [INF], [0.0], [10.0])
        comp = lp.compile_lp(prob)
        sol = solve_child(comp, prob, lp.Basis(np.array(basic), np.array(status)))
        assert sol.status == Status.OPTIMAL
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)
        assert_same_solve(sol, solve_child(comp, prob))  # the slack basis replaced it

    def test_warm_start_with_a_repeated_basic_column_falls_back(self):
        prob = make_lp([1.0, 1.0], np.eye(2), [1.0, 1.0], [INF, INF],
                       [0.0, 0.0], [2.0, 2.0])
        comp = lp.compile_lp(prob)
        sol = solve_child(comp, prob, lp.Basis(np.array([0, 0]), np.array([0, 1, 1, 1])))
        assert sol.status == Status.OPTIMAL
        assert sol.objective_value == pytest.approx(2.0, abs=1e-9)
        assert_same_solve(sol, solve_child(comp, prob))  # the slack basis replaced it


class TestVanishingPivot:
    """w = B^-1 a_q and the pivot row alpha form the pivot element two ways;
    off a carried inverse that lets them part, the solve refactorizes and
    forms the row again instead of dividing by w[slot]."""

    def test_a_pivot_element_that_vanishes_once_is_formed_again(self, inverted):
        checked = 0
        for comp, parent, child in branch_children(7, tries=600):
            # the child's first B^-1 a_q off the shared parent inverse comes out 0
            class VanishOnce(np.ndarray):
                fired = 0

                def __matmul__(self, other):
                    out = np.asarray(super().__matmul__(other))
                    if not VanishOnce.fired and other.ndim == 1 and other.base is comp.a:
                        VanishOnce.fired += 1
                        return np.zeros_like(out)
                    return out

            warm = dataclasses.replace(parent.basis, binv=parent.basis.binv.view(VanishOnce))
            object.__setattr__(warm, "_solved_over", comp)  # still this LP's export
            inverted.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a division by 0 warns
                sol = solve_child(comp, child, warm)
            cold = solve_child(comp, child)
            assert sol.status == cold.status
            if VanishOnce.fired:
                assert len(inverted) >= 1  # the shared inverse was refactorized
            if VanishOnce.fired and cold.status == Status.OPTIMAL:
                checked += 1
                assert sol.objective_value == pytest.approx(cold.objective_value, abs=1e-8)
        assert checked >= 20


class TestTrustedBasis:
    """A solve starts from a Basis exported by a solve over the same
    CompiledLp, and from no other: the rest solve as the cold solve does."""

    def test_the_mark_is_not_carried_over(self):
        prob = make_lp([1.0, 1.0], [[1.0, 2.0]], [1.0], [INF], [0.0, 0.0], [1.0, 1.0])
        comp = lp.compile_lp(prob)
        b = lp.solve_compiled(comp, prob.lower, prob.upper).basis
        assert b._solved_over is comp
        assert lp.Basis(b.basic, b.status, b.binv)._solved_over is None
        assert dataclasses.replace(b)._solved_over is None
        assert dataclasses.replace(b, binv=None)._solved_over is None
        with pytest.raises(TypeError):
            lp.Basis(b.basic, b.status, b.binv, comp)
        with pytest.raises(TypeError):
            lp.Basis(b.basic, b.status, b.binv, _solved_over=comp)
        with pytest.raises(ValueError):
            dataclasses.replace(b, _solved_over=comp)
        # without_inverse keeps the mark and the arrays, and drops only binv
        dropped = b.without_inverse()
        assert dropped._solved_over is comp and dropped.binv is None
        assert dropped.basic is b.basic and dropped.status is b.status
        assert b.binv is not None
        assert b != lp.Basis(b.basic, b.status) and "_solved_over" not in repr(b)

    @pytest.mark.parametrize("foreign", [
        "another-compilation", "hand-built", "replaced",
        "replaced-inf", "replaced-nan", "replaced-1e+308"])
    def test_foreign_basis_solves_as_cold(self, foreign):
        # the parent's Basis over the same program compiled again, a copy of
        # it built by hand or made by dataclasses.replace (with its own
        # inverse, or one with non-finite or overflowing entries, which the
        # suite would report if any arithmetic touched it): each child solve
        # is the cold one, counters included
        checked = 0
        for seed in (99, 8):
            for prob, comp, parent, child in branch_families(seed, tries=300):
                b = parent.basis
                if foreign == "another-compilation":
                    comp, warm = lp.compile_lp(prob), b
                elif foreign == "hand-built":
                    warm = lp.Basis(b.basic, b.status, b.binv)
                elif foreign == "replaced":
                    warm = dataclasses.replace(b)
                else:
                    entry = float(foreign.split("-", 1)[1])
                    warm = dataclasses.replace(b, binv=np.full(b.binv.shape, entry))
                sol = solve_child(comp, child, warm)
                plain = solve_child(comp, child)
                assert_same_solve(sol, plain)
                if plain.status == Status.OPTIMAL:
                    assert np.array_equal(sol.dual_values, plain.dual_values)
                    assert np.array_equal(sol.reduced_costs, plain.reduced_costs)
                checked += 1
        assert checked >= 100

    def test_basis_of_another_compiled_lp_is_refactorized(self, inverted):
        # same shapes, other rows: the inverse of the first LP's basic
        # columns does not invert the second's. Such a Basis is no longer
        # refactorized but ignored: the solve inverts what the cold solve
        # inverts, and is the cold one, counters included
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(300):
            first = random_lp(rng)
            # each nonzero coefficient one greater
            second = dataclasses.replace(first, a=np.where(first.a != 0.0, first.a + 1.0, 0.0))
            comp = lp.compile_lp(second)
            parent = lp.solve_compiled(lp.compile_lp(first), first.lower, first.upper)
            if parent.status != Status.OPTIMAL:
                continue
            basic = list(parent.basis.basic)
            if np.array_equal(comp.a[:, basic], lp.compile_lp(first).a[:, basic]):
                continue  # the same basic columns: the inverse would fit
            inverted.clear()
            sol = lp.solve_compiled(comp, second.lower, second.upper, parent.basis)
            warm_inverted = list(inverted)
            inverted.clear()
            cold = lp.solve_compiled(comp, second.lower, second.upper)
            assert len(warm_inverted) == len(inverted)
            for a, b in zip(warm_inverted, inverted):
                np.testing.assert_array_equal(a, b)
            assert_same_solve(sol, cold)
            if cold.status == Status.OPTIMAL:
                checked += 1
        assert checked >= 50

    def test_without_inverse_refactorizes_once(self, inverted):
        # a Basis whose inverse was dropped still starts its child: one
        # refactorization of the parent's basic columns, then the same
        # optimum as the cold solve, in fewer iterations over all children
        # (not on each: a child whose slack basis is optimal at once takes 1)
        checked = warm_iterations = cold_iterations = 0
        for seed in (99, 8):
            for comp, parent, child in branch_children(seed, tries=300):
                inverted.clear()
                sol = solve_child(comp, child, parent.basis.without_inverse())
                cold = solve_child(comp, child)
                assert sol.status == cold.status
                np.testing.assert_array_equal(inverted[0], comp.a[:, parent.basis.basic])
                if cold.status == Status.OPTIMAL:
                    assert sol.refactorizations == len(inverted) == 1
                    assert sol.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
                    warm_iterations += sol.iterations
                    cold_iterations += cold.iterations
                    checked += 1
        assert checked >= 100 and warm_iterations < cold_iterations


class TestPhaseOne:
    """Cold solves: the all-slack basis, made dual feasible by the statuses
    its reduced costs pick, and rows judged one by one."""

    def test_row_short_by_a_millionth_is_infeasible(self):
        # x + y reaches at most 63 - 1e-6: a per-row violation of 10 FEAS_TOL,
        # below the tolerance once it is scaled by the right-hand side
        prob = make_lp([0.0, 0.0], [[1.0, 1.0]], [63.0], [63.0],
                       [0.0, 0.0], [1.0, 62.0 - 1e-6])
        assert_infeasible(prob)

    @pytest.mark.parametrize("c", [1.0, -1.0])
    def test_bound_past_a_row_is_infeasible(self, c):
        prob = make_lp([c], [[1.0]], [-INF], [1000.0], [1000.00001], [2000.0])
        assert_infeasible(prob)

    def test_redundant_equalities_keep_the_inverse(self, inverted):
        prob = make_lp([1.0, 2.0], [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0], [1.0, 2.0],
                       [0.0, 0.0], [1.0, 1.0])
        comp = lp.compile_lp(prob)
        parent = solve_child(comp, prob)
        assert parent.status == Status.OPTIMAL
        assert parent.objective_value == pytest.approx(1.0, abs=1e-12)
        assert parent.basis.binv is not None
        child = dataclasses.replace(prob, upper=np.array([0.5, 1.0]))
        inverted.clear()
        warm_sol = solve_child(comp, child, parent.basis)
        assert not inverted
        assert warm_sol.status == Status.OPTIMAL
        assert warm_sol.objective_value == pytest.approx(1.5, abs=1e-12)

    def test_cold_solve_does_not_factorize(self, inverted):
        # the identity is the slack basis's inverse; an infeasible LP
        # refactorizes once, to form its Farkas row from a fresh inverse,
        # unless the identity still is that
        rng = np.random.default_rng(8)
        statuses = set()
        for _ in range(100):
            prob = random_lp(rng)
            inverted.clear()
            sol = solve_lp(prob)
            statuses.add(sol.status)
            assert sol.refactorizations == len(inverted)
            if sol.status == Status.OPTIMAL:
                assert not inverted
            else:
                assert len(inverted) <= 1
                assert_infeasible(prob)
        assert statuses == {Status.OPTIMAL, Status.INFEASIBLE}


class TestRoutedLabelingLp:
    """Node LPs of the labeling MILP with pairwise routing rows.  With the
    listed z fixed, the dual ends on a row that no column can enter; formed
    again from a refactorized inverse, the row's reach over the boxes
    proves the LP infeasible.  HiGHS also reports both LPs infeasible."""

    FIXED = {
        1e-7: [(2, 2, 1), (4, 1, 0), (4, 3, 1), (5, 2, 0), (5, 3, 0), (6, 1, 0),
               (6, 2, 1), (7, 1, 0), (10, 1, 0), (11, 1, 1), (12, 3, 0), (14, 1, 0)],
        1e-6: [(0, 2, 0), (0, 3, 0), (3, 2, 0), (3, 3, 0), (4, 1, 0), (6, 1, 0), (6, 2, 0),
               (9, 2, 0), (11, 1, 0), (11, 2, 1), (13, 2, 0), (13, 3, 0), (14, 2, 1)],
    }

    @staticmethod
    def routed_lp(eps, fixed):
        """The capped labeling MILP (uniform-30, seed 1, n_cl 3) plus the rows
        f_j(x_i) - f_k(x_i) >= eps - M_i (1 - z_ij) for k != j, with
        M_i = eps + B (||x_i||_1 + 1): one LP per prefix of `fixed`, with
        those z_ij fixed, the empty prefix first."""
        train = generate_scenario(ScenarioConfig(kind="uniform", n_total=30, seed=1))[0]
        cfg = DesignConfig(n_cl=3)
        program = build_mis_con_lab_milp(train, cfg)
        lay = VariableLayout(train.n, train.n_p, cfg.n_cl)
        dims = np.arange(train.n_p)
        rows, row_lo = [], []
        for i, x in enumerate(train.inputs):
            big_m = eps + cfg.param_bound * (np.abs(x).sum() + 1.0)
            for j, k in itertools.permutations(range(1, cfg.n_cl + 1), 2):
                row = np.zeros(lay.n_vars)
                row[lay.p(j, dims)] += x
                row[lay.p(k, dims)] -= x
                row[lay.b_p(j)], row[lay.b_p(k)], row[lay.z(i, j)] = 1.0, -1.0, -big_m
                rows.append(row)
                row_lo.append(eps - big_m)
        base = program.base
        prob = LinearProgram(base.objective, np.vstack([base.a, rows]),
                             np.concatenate([base.row_lo, row_lo]),
                             np.concatenate([base.row_hi, np.full(len(rows), INF)]),
                             base.lower, base.upper)
        return [TestRoutedLabelingLp._fix(prob, lay, fixed[:k]) for k in range(len(fixed) + 1)]

    @staticmethod
    def _fix(prob, lay, fixed):
        lower, upper = prob.lower.copy(), prob.upper.copy()
        for i, j, value in fixed:
            lower[lay.z(i, j)] = upper[lay.z(i, j)] = value
        return dataclasses.replace(prob, lower=lower, upper=upper)

    @pytest.mark.parametrize("eps", sorted(FIXED))
    def test_cold_solve_decides_infeasible(self, eps):
        prob = self.routed_lp(eps, self.FIXED[eps])[-1]
        sol = lp.solve_compiled(lp.compile_lp(prob), prob.lower, prob.upper)
        assert sol.status == Status.INFEASIBLE
        assert sol.refactorizations >= 1
        assert_infeasible(prob)

    @pytest.mark.parametrize("eps", sorted(FIXED))
    def test_warm_children_are_certified(self, eps):
        # a dive: the listed z are fixed one at a time, each child warm from
        # the one before, until a fixing makes the LP infeasible
        dive = self.routed_lp(eps, self.FIXED[eps])
        comp = lp.compile_lp(dive[0])
        sol = lp.solve_compiled(comp, dive[0].lower, dive[0].upper)
        optimal = 0
        for child in dive[1:]:
            parent, sol = sol, lp.solve_compiled(comp, child.lower, child.upper, sol.basis)
            if sol.status != Status.OPTIMAL:
                break
            assert_certified_optimum(comp, child.lower, child.upper, sol, child)
            optimal += 1
        assert sol.status == Status.INFEASIBLE
        assert_infeasible(child, comp, parent.basis)
        assert optimal >= 5


def record_node_lps(monkeypatch, train, cfg):
    """Run the labeling design with the node LPs of its search recorded as
    it solves them: its report, each node LP's (CompiledLp, lower, upper,
    warm Basis, cutoff, solution) in order, and the positions of the node
    LPs whose dual stalled and perturbed its costs."""
    recorded, perturbed, solving = [], set(), []
    solve, perturb = milp.solve_compiled, lp._Simplex._perturb

    def recording(comp, lower, upper, warm=None, cutoff=np.inf):
        solving.append(True)
        try:
            sol = solve(comp, lower, upper, warm, cutoff=cutoff)
        finally:
            solving.pop()
        recorded.append((comp, lower.copy(), upper.copy(), warm, cutoff, sol))
        return sol

    def counted(self):
        if solving:  # a node LP, not an LP of the hint or the refit
            perturbed.add(len(recorded))
        return perturb(self)

    monkeypatch.setattr(milp, "solve_compiled", recording)
    monkeypatch.setattr(lp._Simplex, "_perturb", counted)
    return design_mis_con_lab(train, cfg), recorded, perturbed


CAPPED = DesignConfig(n_cl=3, seed=1, milp_limits=MilpLimits(node_cap=300))


def uniform_30(seed):
    return generate_scenario(ScenarioConfig(kind="uniform", n_total=30, seed=seed))[0]


class TestCappedSearchReplay:
    """The node LPs of the capped labeling search (uniform-30, scenario seed
    1, n_cl 3, design seed 1, 300 nodes), recorded as the search solves
    them and checked one by one: the warm ones and the root."""

    def test_optimal_node_lps_are_certified(self, monkeypatch):
        train = uniform_30(1)
        report, recorded, perturbed = record_node_lps(monkeypatch, train, CAPPED)
        assert report.solver_stats["milp"]["nodes_explored"] == len(recorded) == 300
        base = build_mis_con_lab_milp(train, CAPPED).base
        certified = set()
        for k, (comp, lower, upper, _, _, sol) in enumerate(recorded):
            if sol.status == Status.OPTIMAL:
                prob = dataclasses.replace(base, lower=lower, upper=upper)
                assert_certified_optimum(comp, lower, upper, sol, prob)
                certified.add(k)
        assert recorded[0][3] is None and 0 in certified  # the root, a cold solve
        # the two-pass ratio test leaves few duals stalled long enough to
        # perturb (TestFreeColumnsAndStalls covers perturbed solves)
        assert len(certified) >= 250 and len(perturbed) <= 5


class TestCutoffSoundness:
    """A node LP stops at its cutoff only when its optimum reaches it.  The
    solve confirms a cutoff by the Lagrangian bound of its basis
    (`_Simplex._lower_bound`), which holds at any basis; the cost of the
    basic solution holds only at a basis dual feasible for the true costs,
    and the two-pass ratio test and the cost perturbation leave bases that
    are not."""

    # the capped search, and the six draws the certify benchmark solves to
    # optimality (uniform-30, n_cl 2, design seed 1)
    SEARCHES = {"capped": (1, CAPPED)} | {
        f"certify-{s}": (s, DesignConfig(n_cl=2, seed=1, milp_limits=MilpLimits(node_cap=20_000)))
        for s in range(1, 7)}

    @pytest.mark.parametrize("search", sorted(SEARCHES))
    def test_node_lps_cut_off_only_at_their_cutoff(self, monkeypatch, search):
        seed, cfg = self.SEARCHES[search]
        _, recorded, _ = record_node_lps(monkeypatch, uniform_30(seed), cfg)
        cut = 0
        for comp, lower, upper, _, cutoff, sol in recorded:
            if sol.status == Status.CUTOFF:
                cold = lp.solve_compiled(comp, lower, upper)
                optimum = cold.objective_value if cold.status == Status.OPTIMAL else np.inf
                assert optimum >= cutoff - 1e-9 * max(1.0, abs(cutoff))
                cut += 1
        assert cut >= 5
        # each optimal node LP solved again from its warm Basis with a cutoff
        # just above its optimum, every stall perturbing the costs: it is not
        # cut off, and it reaches the same optimum
        monkeypatch.setattr(lp, "STALL_PIVOTS", 0)
        again = 0
        for comp, lower, upper, warm, _, sol in recorded:
            if sol.status == Status.OPTIMAL:
                scale = max(1.0, abs(sol.objective_value))
                got = lp.solve_compiled(comp, lower, upper, warm,
                                        cutoff=sol.objective_value + 2e-9 * scale)
                assert got.status == Status.OPTIMAL
                assert got.objective_value == pytest.approx(sol.objective_value, abs=1e-9 * scale)
                again += 1
        assert again >= 50

    @staticmethod
    def _states(prob, entering=None, max_iter=1000):
        """A cold solve of prob, with `entering(simplex, alpha, below)` as its
        ratio test when given: after each pivot, the Lagrangian bound, the
        true cost of the basic values, and whether the basis is dual
        feasible for the true costs (each movable nonbasic column's reduced
        cost, formed afresh, has the sign its bound asks)."""
        comp = lp.compile_lp(prob)
        simplex = lp._Simplex(comp, prob.lower, prob.upper, max_iter)
        states, pivot = [], simplex._pivot

        def recorded(*args):
            pivot(*args)
            basis = comp.a[:, simplex.basic]
            y = np.linalg.solve(basis.T, comp.cost[simplex.basic])
            d = comp.cost - comp.a.T @ y
            x = simplex._nonbasic_values()
            x[simplex.basic] = simplex.beta
            states.append((simplex._lower_bound(), float(comp.cost @ x),
                           bool((d * simplex.dirn >= 0.0).all())))

        simplex._pivot = recorded
        if entering is not None:
            simplex._entering = lambda alpha, below: entering(simplex, alpha, below)
        try:
            simplex.solve(None)
        except (lp.SimplexStalledError, lp.linalg.LinAlgError):
            pass
        return states

    def test_lower_bound_is_the_cost_at_dual_feasible_bases(self):
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(300):
            for bound, cost, dual_feasible in self._states(random_lp(rng)):
                if dual_feasible:
                    assert bound == pytest.approx(cost, rel=0, abs=1e-12 * max(1.0, abs(cost)))
                    checked += 1
        assert checked >= 300

    def test_lower_bound_stays_below_the_optimum(self):
        # the ratio test replaced by a random pick among the columns that can
        # enter: many bases the dual visits are dual infeasible, and the cost
        # of their basic values overshoots the optimum, but the bound does not
        rng = np.random.default_rng(42)

        def anywhere(simplex, alpha, below):
            g = alpha * simplex.dirn * (-1.0 if below else 1.0)
            idx = np.flatnonzero(g > lp.ENTER_TOL)
            return int(rng.choice(idx)) if idx.size else None

        infeasible = overshoots = 0
        for _ in range(300):
            prob = random_lp(rng)
            sol = solve_lp(prob)
            if sol.status != Status.OPTIMAL:
                continue
            tol = 1e-9 * max(1.0, abs(sol.objective_value))
            for bound, cost, dual_feasible in self._states(prob, anywhere, max_iter=30):
                assert bound <= sol.objective_value + tol
                infeasible += not dual_feasible
                overshoots += cost > sol.objective_value + tol
        assert infeasible >= 100 and overshoots >= 20


class TestPhaseTwo:
    def test_refactorization_is_priced_again(self):
        # a wrong inverse, as drift would leave it after some pivots, makes
        # the dual pivot on wrong prices; once the basic values show the
        # drift, the basis is refactorized and priced afresh, and only the
        # dual that follows finds the child's optimum
        checked, refactorized = 0, 0
        for seed in (8, 9, 10):
            for comp, parent, child in branch_children(seed, tries=300):
                simplex = lp._Simplex(comp, child.lower, child.upper, 1000)
                start = simplex._start

                def wrong_inverse(warm, simplex=simplex, start=start, m=child.n_rows):
                    start(warm)
                    assert np.array_equal(simplex.basic, warm.basic)  # the warm start
                    simplex.binv, simplex.binv_shared = np.eye(m), False
                    simplex.pivots_since_refactor = 1

                simplex._start = wrong_inverse
                try:
                    status = simplex.solve(parent.basis)
                except lp.linalg.LinAlgError:
                    continue  # the wrong pivots made the basis singular
                cold_sol = solve_lp(child)
                assert status == cold_sol.status
                checked += 1
                refactorized += simplex.refactorizations > 0
                if status == Status.OPTIMAL:
                    value = child.objective @ simplex.x[:child.n_vars]
                    assert value == pytest.approx(cold_sol.objective_value, abs=1e-8)
        assert checked >= 150 and refactorized >= 100

    def test_optimum_checks_the_carried_inverse(self, monkeypatch):
        # at the dual's optimum the carried inverse is off by E = eps B^-1
        # e_i e_0', with i the row of the largest dual: B E = eps e_i e_0'
        # fails Freivalds' check (u_0 = 1), while the basic values are
        # carried apart from the inverse and the basic prices miss 0 by
        # eps |y_i| |B' e_0| < OPT_TOL.  The duals, y_0 off by eps y_i, must
        # come from a refactorized inverse instead.
        prob = make_lp([1.0, 2.0], [[1.0, 1.0], [1.0, -1.0]], [1.0, -INF], [INF, 0.5],
                       [0, 0], [10, 10])
        plain = solve_lp(prob)
        assert plain.iterations > 1 and plain.refactorizations == 0
        dual = lp._Simplex._dual
        drifted = []

        def drifting(simplex):
            status = dual(simplex)
            if status == Status.OPTIMAL and simplex.pivots_since_refactor and not drifted:
                b = simplex.a[:, simplex.basic]
                cost_b = simplex.cost[simplex.basic]
                y = np.linalg.solve(b.T, cost_b)
                e = np.eye(simplex.m)
                simplex.binv = simplex.binv + 5e-8 * np.outer(
                    np.linalg.solve(b, e[int(np.abs(y).argmax())]), e[0])
                assert simplex._reproduces(simplex._set_values(fresh=False))
                assert np.abs(cost_b - b.T @ (simplex.binv.T @ cost_b)).max() <= lp.OPT_TOL
                assert not simplex._inverse_ok()
                drifted.append(np.abs(simplex.binv.T @ cost_b - y).max())
            return status

        monkeypatch.setattr(lp._Simplex, "_dual", drifting)
        sol = solve_lp(prob)
        assert drifted and drifted[0] > 1e-8
        assert sol.status == Status.OPTIMAL
        np.testing.assert_allclose(sol.dual_values, plain.dual_values, rtol=0, atol=1e-10)
        np.testing.assert_allclose(sol.values, plain.values, rtol=0, atol=1e-10)
        assert sol.refactorizations == 1


class TestCarriedReducedCosts:
    """After every pivot, the reduced costs the simplex carries equal fresh
    ones, c - A'(B^-T c_B), for the costs it works with (perturbed while
    the dual stalls), and its directions equal ones built afresh from the
    statuses and boxes."""

    @staticmethod
    def _solve_checking_pivots(comp, prob, warm, counts):
        simplex = lp._Simplex(comp, prob.lower, prob.upper, 1000)
        pivot = simplex._pivot

        def fresh_reduced_costs(cost):
            basis = comp.a[:, simplex.basic]
            return cost - comp.a.T @ np.linalg.solve(basis.T, cost[simplex.basic])

        def checked_pivot(*args):
            pivot(*args)
            tol = 1e-9 * max(1.0, float(np.abs(simplex.cost).max()))
            np.testing.assert_allclose(simplex.d, fresh_reduced_costs(simplex.cost),
                                       rtol=0, atol=tol)
            np.testing.assert_array_equal(simplex.dirn,
                                          lp._DIRECTION[simplex.vstat] * simplex.movable)
            kind = "cold" if warm is None else "warm"
            counts[kind] = counts.get(kind, 0) + 1

        simplex._pivot = checked_pivot
        status = simplex.solve(warm)
        if status == Status.OPTIMAL:
            tol = 1e-9 * max(1.0, float(np.abs(simplex.cost).max()))
            np.testing.assert_allclose(simplex.d, fresh_reduced_costs(simplex.cost),
                                       rtol=0, atol=tol)
        return status

    def test_random_lps_cold(self):
        rng = np.random.default_rng(31)
        counts = {}
        for _ in range(300):
            prob = random_lp(rng)
            status = self._solve_checking_pivots(lp.compile_lp(prob), prob, None, counts)
            assert status == solve_lp(prob).status
        assert counts["cold"] >= 300

    def test_branch_children_warm_and_cold(self):
        counts = {}
        for seed in (99, 8, 9, 10):
            for comp, parent, child in branch_children(seed, tries=300):
                warm = self._solve_checking_pivots(comp, child, parent.basis, counts)
                cold = self._solve_checking_pivots(comp, child, None, counts)
                assert warm == cold
        assert counts["warm"] >= 50 and counts["cold"] >= 300

    def test_counters_match_the_solve(self, inverted):
        # a child still warm-starts from its parent's inverse: no refactorization
        warm = 0
        for comp, parent, child in branch_children(99):
            inverted.clear()
            sol = solve_child(comp, child, parent.basis)
            assert sol.refactorizations == len(inverted)
            assert sol.iterations >= 1
            if sol.status == Status.OPTIMAL:
                warm += 1
                assert not inverted
        assert warm >= 20

    def test_counters_report_the_cold_fallback(self):
        # a basis the solver did not export is replaced by the slack basis:
        # the counters are those of the cold solve
        prob = make_lp([1.0], [[1.0]], [3.0], [INF], [0.0], [10.0])
        fallback = solve_child(lp.compile_lp(prob), prob, lp.Basis((0, 0), (0, 0, 0)))
        cold = solve_lp(prob)
        assert (fallback.iterations, fallback.refactorizations) == (cold.iterations, 0)
        assert cold.iterations == 2  # one pivot, then the optimality test


class TestCutoff:
    """A solve stops at the cutoff only when the optimum is at or above it;
    otherwise the solve is the one without a cutoff."""

    @staticmethod
    def _solve(comp, child, warm, cutoff=None):
        if cutoff is None:
            return solve_child(comp, child, warm)
        return solve_child(comp, child, warm, cutoff=cutoff)

    def test_warm_children(self):
        cut = optimal = saved = 0
        for seed in (99, 8, 9, 10):
            for comp, parent, child in branch_children(seed, tries=300):
                plain = self._solve(comp, child, parent.basis)
                assert_same_solve(self._solve(comp, child, parent.basis, np.inf), plain)
                optimum = plain.objective_value if plain.status == Status.OPTIMAL else np.inf
                base = optimum if np.isfinite(optimum) else parent.objective_value
                for cutoff in (base - 1.0, base - 1e-6, base, base + 1e-6, base + 1.0):
                    sol = self._solve(comp, child, parent.basis, cutoff)
                    if sol.status == Status.CUTOFF:
                        assert optimum >= cutoff - 1e-9 * max(1.0, abs(cutoff))
                        assert sol.values is None and sol.basis is None
                        assert sol.iterations <= plain.iterations
                        saved += plain.iterations - sol.iterations
                        cut += 1
                    else:
                        assert_same_solve(sol, plain)
                        optimal += sol.status == Status.OPTIMAL
        assert cut >= 100 and optimal >= 500 and saved >= 100

    def test_cold_solves_honour_the_cutoff(self):
        # a cold solve is the same dual from the slack basis; a warm basis
        # the child already meets is optimal at once, whatever the cutoff
        cut = optimal = feasible_start = 0
        for comp, parent, child in branch_children(99):
            plain = self._solve(comp, child, None)
            optimum = plain.objective_value if plain.status == Status.OPTIMAL else np.inf
            base = optimum if np.isfinite(optimum) else parent.objective_value
            for cutoff in (-np.inf, base - 1.0, base - 1e-6, base, base + 1e-6, base + 1.0):
                sol = self._solve(comp, child, None, cutoff)
                if sol.status == Status.CUTOFF:
                    assert optimum >= cutoff - 1e-9 * max(1.0, abs(cutoff))
                    assert sol.values is None and sol.basis is None
                    assert sol.iterations <= plain.iterations
                    cut += 1
                else:
                    assert_same_solve(sol, plain)
                    optimal += sol.status == Status.OPTIMAL
            warm = self._solve(comp, child, parent.basis)
            if warm.status == Status.OPTIMAL and warm.iterations == 1:
                assert_same_solve(self._solve(comp, child, parent.basis, -np.inf), warm)
                feasible_start += 1
        assert cut >= 100 and optimal >= 100 and feasible_start >= 10


class TestFreeColumnsAndStalls:
    """Free columns, boxed wide of the rows that hold them, and stalls: a
    free column rests on its wide box until it enters.  A stalled dual
    perturbs the costs."""

    def test_warm_children_match_the_cold_solve(self, monkeypatch):
        # a free column enters the cold solves off its wide box; in the warm
        # ones it is basic already, and leaves at the bound its child gives it
        moved = {"warm": 0, "cold": 0}
        kind = ["cold"]
        pivot = lp._Simplex._pivot

        def counting_pivot(self, e, slot, *args):
            leaving = self.basic[slot]
            if kind[0] == "cold":
                counted = self.lo[e] == -WIDE and self.hi[e] == WIDE
            else:
                counted = leaving < self.n_struct and (
                    self.lo[leaving] == -WIDE or self.hi[leaving] == WIDE)
            moved[kind[0]] += bool(counted)
            return pivot(self, e, slot, *args)

        monkeypatch.setattr(lp._Simplex, "_pivot", counting_pivot)
        checked = 0
        for seed in (3, 4):
            for comp, parent, child in free_children(seed):
                kind[0] = "warm"
                warm = solve_child(comp, child, parent.basis)
                kind[0] = "cold"
                cold = solve_lp(child)
                assert warm.status == cold.status
                if cold.status == Status.OPTIMAL:
                    assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-8)
                    assert np.all(np.abs(cold.values) < WIDE)  # the box binds nothing
                    checked += 1
        assert checked >= 150 and moved["warm"] >= 10 and moved["cold"] >= 100

    def test_forced_stall_reaches_the_same_optimum(self, monkeypatch):
        # with no pivots allowed without progress, the first degenerate
        # pivot perturbs the costs; the solve still ends at the optimum
        rng = np.random.default_rng(6)
        probs = [random_free_lp(rng, degenerate=bool(k % 2)) for k in range(300)]
        expected = [solve_lp(prob) for prob in probs]
        perturbed = []
        perturb = lp._Simplex._perturb

        def recording(self):
            perturbed.append(True)
            return perturb(self)

        monkeypatch.setattr(lp._Simplex, "_perturb", recording)
        monkeypatch.setattr(lp, "STALL_PIVOTS", 0)
        stalled = 0
        for prob, want in zip(probs, expected):
            perturbed.clear()
            got = solve_lp(prob)
            stalled += bool(perturbed)
            assert got.status == want.status
            if want.status == Status.OPTIMAL:
                assert got.objective_value == pytest.approx(want.objective_value, abs=1e-8)
                assert duality_gap(prob, got) <= 1e-6
                assert np.all(np.abs(want.values) < WIDE)  # the box binds nothing
        assert stalled >= 50


class TestStatusMasks:
    """The simplex's vectorized dual feasible statuses and entering-column
    choice against the per-column rules they implement."""

    @staticmethod
    def _simplex(rng, n):
        """A simplex over n columns and one row, with random boxes, statuses
        (column n basic) and directions."""
        prob = make_lp(np.zeros(n), np.eye(1, n), [-INF], [1.0], np.zeros(n), np.ones(n))
        simplex = lp._Simplex(lp.compile_lp(prob), prob.lower, prob.upper, 100)
        lo = rng.choice([-np.inf, 0.0, 0.5], size=n + 1)
        simplex.box[lp.AT_LO] = lo
        simplex.box[lp.AT_UP] = np.maximum(lo, rng.choice([np.inf, 0.5, 1.0], size=n + 1))
        simplex.movable = simplex.hi - simplex.lo > 1e-12
        simplex.basic = np.array([n])
        simplex.vstat = rng.integers(lp.AT_LO, lp.AT_UP + 1, size=n + 1)
        simplex.vstat[n] = lp.BASIC
        simplex.dirn = lp._DIRECTION[simplex.vstat] * simplex.movable
        return simplex

    @staticmethod
    def _side(basic, st, lo, hi, d):
        if basic:
            return lp.BASIC
        if not hi - lo > 1e-12:
            return st
        if d > lp.OPT_TOL:
            return lp.AT_LO
        if d < -lp.OPT_TOL:
            return lp.AT_UP
        return st

    def test_match_the_per_column_rules(self):
        rng = np.random.default_rng(21)
        n = 6
        outcomes = set()
        for _ in range(400):
            simplex = self._simplex(rng, n)
            d = rng.choice([0.0, 1e-8, -1e-8, 1.0, -1.0], p=[0.6, 0.1, 0.1, 0.1, 0.1],
                           size=n + 1)
            side = simplex._statuses(d)
            expected = [self._side(j == n, st, simplex.lo[j], simplex.hi[j], d[j])
                        for j, st in enumerate(simplex.vstat)]
            np.testing.assert_array_equal(side, expected)
            # the statuses make the basis dual feasible
            assert np.all(d * lp._DIRECTION[side] * simplex.movable >= -lp.OPT_TOL)
            outcomes.add(bool((side != simplex.vstat).any()))
        assert outcomes == {True, False}

    @staticmethod
    def _entering(vstat, movable, alpha, d, below):
        """Harris's two-pass rule, column by column: the candidates' |d_j|
        and |alpha_j|; the step bound, the least (|d_j| + OPT_TOL) /
        |alpha_j|; among the candidates whose ratio is within it, the
        largest |alpha_j|, the lowest index on ties."""
        cands = {}
        for j, st in enumerate(vstat):
            if st == lp.BASIC or not movable[j]:
                continue
            g = alpha[j] * (1.0 if st == lp.AT_LO else -1.0) * (-1.0 if below else 1.0)
            if g > lp.ENTER_TOL:
                cands[j] = (abs(d[j]), abs(alpha[j]))
        if not cands:
            return None
        bound = min((dj + lp.OPT_TOL) / aj for dj, aj in cands.values())
        within = [j for j, (dj, aj) in cands.items() if dj / aj <= bound]
        largest = max(cands[j][1] for j in within)
        return min(j for j in within if cands[j][1] == largest)

    def test_entering_column_matches_the_per_column_rule(self):
        rng = np.random.default_rng(22)
        n = 6
        outcomes = set()
        for _ in range(400):
            simplex = self._simplex(rng, n)
            simplex.d = rng.choice([0.0, 1e-8, 1.0, 2.0], size=n + 1) * simplex.dirn
            alpha = rng.choice([0.0, 1e-8, 1.0, -1.0, 2.0, -2.0], size=n + 1)
            for below in (False, True):
                expected = self._entering(simplex.vstat, simplex.movable, alpha, simplex.d, below)
                assert simplex._entering(alpha, below) == expected
                if expected is None:
                    outcomes.add("none")
                else:
                    # the least ratio among the candidates, as a one-pass test takes it
                    c = alpha * simplex.dirn * (-1.0 if below else 1.0) > lp.ENTER_TOL
                    least = np.abs(simplex.d[c] / alpha[c]).min()
                    ratio = abs(simplex.d[expected] / alpha[expected])
                    outcomes.add("least" if ratio == least else "past the least")
        # the two-pass rule steps past the least ratio to a larger |alpha|
        assert outcomes == {"none", "least", "past the least"}


class TestDegenerateAndScale:
    def test_highly_degenerate_lp(self):
        # many redundant rows through the same vertex
        k = np.arange(1.0, 8.0)  # k x + k y <= k for k = 1, ..., 7
        prob = make_lp([-1.0, -2.0], np.column_stack([k, k]), np.full(7, -INF), k,
                       [0.0, 0.0], [10.0, 10.0])
        sol = solve_lp(prob)
        assert sol.status == Status.OPTIMAL
        assert sol.objective_value == pytest.approx(-2.0, abs=1e-8)
        assert np.all(sol.values < prob.upper)  # the rows bind, not the box

    def test_medium_random_lp_feasibility(self):
        rng = np.random.default_rng(5)
        n, m = 40, 30
        c = rng.normal(size=n)
        a, row_hi = np.empty((m, n)), np.empty(m)
        x_feas = rng.uniform(0.2, 0.8, size=n)
        for k in range(m):
            a[k] = rng.normal(size=n)
            row_hi[k] = a[k] @ x_feas + rng.uniform(0.1, 1.0)
        prob = make_lp(c, a, np.full(m, -INF), row_hi, np.zeros(n), np.ones(n))
        sol = solve_lp(prob)
        assert sol.status == Status.OPTIMAL
        assert np.all(sol.values >= -1e-7) and np.all(sol.values <= 1 + 1e-7)
        assert np.all(a @ sol.values <= row_hi + 1e-6)
        assert duality_gap(prob, sol) <= 1e-6
