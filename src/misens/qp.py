"""Strictly convex quadratic programming with linear constraints by the dual
active-set method of Goldfarb & Idnani, Math. Prog. 27 (1983).

Objective convention: minimize 0.5 * v @ Q @ v + c @ v + constant, with Q
positive definite.  The solve factors Q = L L' once and starts at the
unconstrained minimum -Q^{-1} c, which is dual feasible with no row active,
so no feasible start is needed.  It then takes the equalities in turn and
after them the most violated inequality, until no row is violated: each
step moves the point along z = J2 J2' n, which keeps the active rows at
equality, and the multipliers along -R^{-1} J1' n.  A partial step drops the
active inequality whose multiplier reaches zero first; a full step makes
the new row active.  J = [J1 J2] and R satisfy J' N = [R; 0] for the active
normals N, starting from J = L^{-T}; J is not orthogonal, but
`linalg.qr_append` and `linalg.qr_delete` update it and R in O(n^2) all the
same.  A row that depends on the active rows (J2' n = 0) gets no primal
step: a violated one is made room for by partial steps or proves the QP
infeasible, and an equality that already holds is skipped.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .lp import Constraint, LinearProgram

# smallest Cholesky pivot accepted, relative to Q's largest diagonal entry;
# singular Grams leave roundoff pivots far below it
PD_TOL = 1e-8


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
        LinearProgram(self.c, self.constraints, self.lower, self.upper).validate()

    def objective(self, v: np.ndarray) -> float:
        return float(0.5 * v @ self.q @ v + self.c @ v + self.constant)


@dataclass
class QpSolution:
    status: QpStatus
    values: np.ndarray | None
    objective_value: float | None
    kkt_residual: float = np.nan
    iterations: int = 0     # full and partial steps


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


def solve_qp(prob: QuadraticProgram) -> QpSolution:
    """Goldfarb–Idnani dual active-set method; see the module docstring."""
    prob.validate()
    # J = L^{-T} for Q = L L', so that J'QJ = I
    try:
        l_mat = linalg.cholesky_factor(prob.q)
    except linalg.LinAlgError:
        l_mat = None
    if l_mat is None or np.diag(l_mat).min() ** 2 <= PD_TOL * np.diag(prob.q).max():
        raise ValueError(f"Q is not positive definite (Cholesky pivot at most "
                         f"{PD_TOL:g} of its largest diagonal entry)")
    j_mat = linalg.solve_upper(l_mat.T, np.eye(prob.n_vars))
    g_mat, g_rhs, n_eq = _gather_rows(prob)
    abs_g, abs_rhs = np.abs(g_mat), np.abs(g_rhs) + 1.0
    x = -j_mat @ (j_mat.T @ prob.c)
    r_mat = np.zeros((0, 0))
    active: list[int] = []       # the added equalities first; they are never dropped
    u = np.zeros(0)              # multipliers of the active rows
    is_active = np.zeros(g_mat.shape[0], dtype=bool)
    n_fixed = iterations = 0     # active equalities; steps taken
    for k in itertools.count():
        # a residual within 1e-10 of its roundoff scale counts as 0: at a
        # degenerate vertex a tighter test can read roundoff as a violated
        # dependent row, and so as infeasibility
        s = g_mat @ x - g_rhs
        s[np.abs(s) <= 1e-10 * (abs_g @ np.abs(x) + abs_rhs)] = 0.0
        if k < n_eq:
            p = k
        else:
            s[:n_eq] = 0.0
            s[is_active] = 0.0
            if not s.size or s.min() >= 0.0:
                break
            p = int(np.argmin(s))
        n_p, s_p, u_p = g_mat[p], s[p], 0.0
        while True:
            w = len(active)
            d = j_mat.T @ n_p
            dependent = np.linalg.norm(d[w:]) <= linalg.RANK_TOL * np.linalg.norm(d)
            if dependent and p < n_eq and s_p == 0.0:
                break            # implied by the equalities before it
            r = linalg.solve_upper(r_mat, d[:w])
            # partial step: the first active inequality whose multiplier hits 0
            blocking = n_fixed + np.flatnonzero(r[n_fixed:] > 0.0)
            t1, drop = np.inf, -1
            if blocking.size:
                drop = int(blocking[np.argmin(u[blocking] / r[blocking])])
                t1 = u[drop] / r[drop]
            # full step: row p becomes active
            t2 = np.inf if dependent else -s_p / float(d[w:] @ d[w:])
            t = min(t1, t2)
            if t == np.inf:
                return QpSolution(QpStatus.INFEASIBLE, None, None, iterations=iterations)
            iterations += 1
            u, u_p = u - t * r, u_p + t
            if not dependent:
                x = x + t * (j_mat[:, w:] @ d[w:])
            if t == t2:
                j_mat, r_mat = linalg.qr_append(j_mat, r_mat, n_p)
                active.append(p)
                is_active[p] = True
                u = np.append(u, u_p)
                n_fixed += p < n_eq
                break
            j_mat, r_mat = linalg.qr_delete(j_mat, r_mat, drop)
            is_active[active.pop(drop)] = False
            u = np.delete(u, drop)
            s_p = float(n_p @ x - g_rhs[p])
    # KKT residual: stationarity, primal feasibility, and the sign of the
    # active inequalities' multipliers
    stat = prob.q @ x + prob.c - g_mat[active].T @ u
    resid = g_mat @ x - g_rhs
    kkt = max(np.max(np.abs(stat), initial=0.0),
              np.max(np.abs(resid[:n_eq]), initial=0.0),
              np.max(-resid[n_eq:], initial=0.0),
              np.max(-u[n_fixed:], initial=0.0))
    return QpSolution(QpStatus.OPTIMAL, x, prob.objective(x), float(kkt), iterations)
