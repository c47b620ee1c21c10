"""Convex quadratic programming with linear constraints by a primal active-set
method.

Objective convention: minimize 0.5 * v @ Q @ v + c @ v + constant.  The
feasible start comes from a zero-objective LP solve.  One QR factorization
of the working rows' transpose, A_w' = Q [R; 0], lives for the whole solve:
each row added to or dropped from the working set updates it in O(n^2)
(`linalg.qr_append`, `linalg.qr_delete`), and the append's new diagonal is
the rank test that keeps the working rows independent.  Equality-constrained
subproblems are solved in the null-space basis Z, the trailing columns of
Q, with the reduced Hessian Z'QZ factored by Cholesky.  When Q is singular
the solver lifts it to Q + 1e-9 I, which keeps the reduced Hessian positive
definite while perturbing the reported KKT residual only at the 1e-9 level.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import linalg
from .lp import Constraint, LinearProgram, Status, solve_lp

LIFT = 1e-9
MULT_TOL = 1e-8
ACTIVE_TOL = 1e-9


class ActiveSetCycleError(RuntimeError):
    """The same working set was revisited without objective progress."""


class QpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


@dataclass
class QuadraticProgram:
    """min 0.5 v'Qv + c'v + constant s.t. constraints and bounds."""

    q: np.ndarray
    c: np.ndarray
    constraints: list[Constraint]
    lower: np.ndarray
    upper: np.ndarray
    constant: float = 0.0

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    def validate(self) -> None:
        n = self.n_vars
        if self.q.shape != (n, n):
            raise ValueError(f"Q must be {n}x{n}, got {self.q.shape}")
        scale = max(1.0, np.abs(self.q).max())
        if np.abs(self.q - self.q.T).max() > 1e-10 * scale:
            raise ValueError("Q is not symmetric within 1e-10")
        # PSD up to tolerance: Q + 2e-8*scale*I must admit a Cholesky factor
        try:
            linalg.cholesky_factor(self.q + 2e-8 * scale * np.eye(n))
        except linalg.LinAlgError:
            raise ValueError("Q is not positive semidefinite (within 1e-8)") from None
        LinearProgram(self.c, self.constraints, self.lower, self.upper).validate()

    def objective(self, v: np.ndarray) -> float:
        return float(0.5 * v @ self.q @ v + self.c @ v + self.constant)


@dataclass
class QpSolution:
    status: QpStatus
    values: np.ndarray | None
    objective_value: float | None
    kkt_residual: float = np.nan
    iterations: int = 0
    adds: int = 0           # inequality rows taken into the working set
    drops: int = 0          # rows dropped for a negative multiplier
    lifted: bool = False    # Q was singular and solved as Q + LIFT * I


def _gather_rows(prob: QuadraticProgram):
    """Normalize to G v >= g rows; equalities first.  Bounds become rows."""
    n = prob.n_vars
    rows = []
    rhs = []
    n_eq = 0
    for con in prob.constraints:
        a = np.zeros(n)
        for i, v in con.coeffs:
            a[i] += v
        if con.sense == "=":
            rows.insert(n_eq, a)
            rhs.insert(n_eq, con.rhs)
            n_eq += 1
        elif con.sense == ">=":
            rows.append(a)
            rhs.append(con.rhs)
        else:
            rows.append(-a)
            rhs.append(-con.rhs)
    for j in range(n):
        ej = np.zeros(n)
        ej[j] = 1.0
        if np.isfinite(prob.lower[j]):
            rows.append(ej.copy())
            rhs.append(prob.lower[j])
        if np.isfinite(prob.upper[j]):
            rows.append(-ej)
            rhs.append(-prob.upper[j])
    g_mat = np.array(rows) if rows else np.zeros((0, n))
    return g_mat, np.array(rhs), n_eq


def _feasible_start(prob: QuadraticProgram) -> np.ndarray | None:
    feas = LinearProgram(np.zeros(prob.n_vars), prob.constraints, prob.lower, prob.upper)
    sol = solve_lp(feas)
    if sol.status != Status.OPTIMAL:
        return None
    return sol.values.copy()


class _WorkingSet:
    """Rows of G v >= g held at equality, with the QR factors of their
    transpose: G[rows]' = Y R, where Y = q[:, :w] spans the rows and
    Z = q[:, w:] their null space.
    """

    def __init__(self, g_mat: np.ndarray, g_rhs: np.ndarray):
        self.g_mat, self.g_rhs = g_mat, g_rhs
        self.rows: list[int] = []
        self.q = np.eye(g_mat.shape[1])
        self.r = np.zeros((0, 0))

    @property
    def b(self) -> np.ndarray:
        return self.g_rhs[self.rows]

    @property
    def y(self) -> np.ndarray:
        return self.q[:, :len(self.rows)]

    @property
    def z(self) -> np.ndarray:
        return self.q[:, len(self.rows):]

    def add(self, i: int, check: bool = True) -> bool:
        """Take row i in; with `check`, only if the rows stay independent:
        min |diag R| > RANK_TOL * max(1, max |diag R|)."""
        if check and len(self.rows) >= self.q.shape[0]:
            return False
        q, r = linalg.qr_append(self.q, self.r, self.g_mat[i])
        diag = np.abs(np.diag(r))
        if check and not diag.min() > linalg.RANK_TOL * max(1.0, diag.max()):
            return False
        self.q, self.r = q, r
        self.rows.append(i)
        return True

    def drop(self, i: int) -> None:
        k = self.rows.index(i)
        self.q, self.r = linalg.qr_delete(self.q, self.r, k)
        del self.rows[k]


def _null_space_solve(q_mat, c_vec, work: _WorkingSet):
    """Exact minimizer of 0.5 v'Qv + c'v on the affine set A_w v = b_w of
    the working rows.

    Returns (x, lam) where lam solves the stationarity system on the working
    rows.  One iterative-refinement pass keeps residuals near machine
    precision even when the reduced Hessian is badly scaled.  The result
    depends on the working set alone, not on the current point, so a
    repeated solve reproduces it exactly even when the reduced Hessian is
    singular to working precision.
    """
    r1, y_basis, z_basis = work.r, work.y, work.z
    # particular solution: A_w = R1' Y', so solve R1' t = b_w and take x = Y t
    t = linalg.solve_lower(r1.T, work.b)
    x = y_basis @ t
    if z_basis.shape[1]:
        # one factor of Z'QZ serves the step and one refinement pass
        l = linalg.cholesky_factor(z_basis.T @ q_mat @ z_basis)
        for _ in range(2):
            rhs = -z_basis.T @ (q_mat @ x + c_vec)
            x = x + z_basis @ linalg.solve_upper(l.T, linalg.solve_lower(l, rhs))
    grad = q_mat @ x + c_vec
    lam = linalg.solve_upper(r1, y_basis.T @ grad)
    return x, lam


def solve_qp(prob: QuadraticProgram) -> QpSolution:
    """Primal active-set method; see the module docstring for conventions."""
    prob.validate()
    n = prob.n_vars
    g_mat, g_rhs, n_eq = _gather_rows(prob)
    n_rows = g_mat.shape[0]
    max_iter = 100 * (n + n_rows) + 100
    x = _feasible_start(prob)
    if x is None:
        return QpSolution(QpStatus.INFEASIBLE, None, None)

    q_work = prob.q
    lifted = False
    adds = drops = 0

    def ensure_lifted():
        nonlocal q_work, lifted
        if not lifted:
            q_work = prob.q + LIFT * np.eye(n)
            lifted = True

    # initial working set: equalities plus independent active inequalities
    work = _WorkingSet(g_mat, g_rhs)
    for i in range(n_eq):
        work.add(i, check=False)
    resid = g_mat @ x - g_rhs if n_rows else np.zeros(0)
    for i in range(n_eq, n_rows):
        if resid[i] <= ACTIVE_TOL and work.add(i):
            adds += 1
    # rows a step may block on: inequalities outside the working set
    free = np.arange(n_rows) >= n_eq
    free[work.rows] = False

    seen_since_progress: set[frozenset] = set()
    last_obj = prob.objective(x)
    iterations = 0
    while True:
        if iterations >= max_iter:
            raise ActiveSetCycleError("active-set iteration cap exceeded")
        iterations += 1
        try:
            x_star, lam = _null_space_solve(q_work, prob.c, work)
        except linalg.LinAlgError:
            ensure_lifted()
            x_star, lam = _null_space_solve(q_work, prob.c, work)
        p = x_star - x
        if np.max(np.abs(p)) <= 1e-11 * max(1.0, np.max(np.abs(x))):
            # subspace minimizer: check multipliers of active inequalities
            # (the equalities are the first n_eq working rows, never dropped);
            # ties go to the lowest row index
            worst_lam, worst = min(zip(lam[n_eq:].tolist(), work.rows[n_eq:]),
                                   default=(0.0, -1))
            if worst_lam >= -MULT_TOL:
                sol = _finish(prob, q_work, n_eq, work, iterations)
                sol.adds, sol.drops, sol.lifted = adds, drops, lifted
                return sol
            key = frozenset(work.rows)
            obj = prob.objective(x)
            if obj < last_obj - 1e-12 * max(1.0, abs(last_obj)):
                seen_since_progress.clear()
                last_obj = obj
            if key in seen_since_progress:
                raise ActiveSetCycleError("active-set cycle detected")
            seen_since_progress.add(key)
            work.drop(worst)
            free[worst] = True
            drops += 1
            continue
        # step toward the subspace minimizer, stopping at the first row (in
        # ascending order) whose ratio undercuts the step so far by 1e-14;
        # only rows with a ratio below 1 - 1e-14 can do so
        s = g_mat @ p
        rows = np.flatnonzero(free & (s < -1e-12))
        ratios = (g_rhs - g_mat @ x)[rows] / s[rows]
        alpha = 1.0
        blocking = -1
        keep = ratios < 1.0 - 1e-14
        for i, ai in zip(rows[keep].tolist(), ratios[keep].tolist()):
            if ai < alpha - 1e-14:
                alpha = max(ai, 0.0)
                blocking = i
        x = x + alpha * p
        # a dependent blocking row is ignored; the next subspace solve
        # re-evaluates the geometry from the updated point
        if blocking >= 0 and work.add(blocking):
            free[blocking] = False
            adds += 1


def _finish(prob, q_work, n_eq, work: _WorkingSet, iterations) -> QpSolution:
    """Final subspace solve and its KKT residual against the original Q:
    stationarity, primal feasibility, and the sign of the working
    inequalities' multipliers."""
    g_mat, g_rhs = work.g_mat, work.g_rhs
    x_fin, lam = _null_space_solve(q_work, prob.c, work)
    stat = prob.q @ x_fin + prob.c
    if work.rows:
        stat = stat - g_mat[work.rows].T @ lam
    feas = 0.0
    if g_mat.shape[0]:
        resid = g_mat @ x_fin - g_rhs
        feas = max(0.0, float(-resid[n_eq:].min())) if resid.shape[0] > n_eq else 0.0
        if n_eq:
            feas = max(feas, float(np.max(np.abs(resid[:n_eq]))))
    dual = max(0.0, float(-lam[n_eq:].min())) if lam.shape[0] > n_eq else 0.0
    kkt = max(float(np.max(np.abs(stat))) if stat.size else 0.0, feas, dual)
    return QpSolution(QpStatus.OPTIMAL, x_fin, prob.objective(x_fin), kkt, iterations)
