"""Strictly convex quadratic programming with linear inequality rows by the
dual active-set method of Goldfarb & Idnani, Math. Prog. 27 (1983).

`solve_qp(q, c, g, h)` minimizes 0.5 * v @ Q @ v + c @ v subject to
G v >= h, with Q positive definite.  There are no equality rows, and a bound
on a variable is a row of G like any other.  The solve factors Q = L L'
once, forms J0 = L^{-T} (so J0' Q J0 = I) and G J0, and starts at the
unconstrained minimum -J0 J0' c, which is dual feasible with no row active,
so no feasible start is needed.  It then adds the most violated row n until
no row is violated.  The start and every change of the active set A factor
its rows afresh by one complete QR, (G J0)_A' = H [R; 0]; no factor is
updated, and the active set a full step ends at is factored only when
another step follows.  A step splits d = H' J0' n into d1 (its first |A|
entries) and d2, moves the point along J0 H2 d2, which keeps the active
rows at equality, and the multipliers along -R^{-1} d1.  A partial step
drops the active row whose multiplier reaches zero first; a full step makes
the new row active.  A violated row that depends on the active rows
(||d2|| <= RANK_TOL ||d||) gets no primal step: partial steps make room for
it, or it proves the QP infeasible.

A caller that knows a better start offers rows of G in `active` (a warm
active set).  Factored as above, they give x0 = J0 (H1 z - H2 H2' J0' c)
with R'z = h_A, the minimum with those rows held at equality, and the
multipliers u0 = R^{-1}(z + H1' J0' c).  The solve keeps that start only
when the rows are independent and u0 >= 0, which makes it dual feasible;
otherwise it starts at the unconstrained minimum, the same start with no
rows (the complete QR of an n x 0 block is H = I), so the answer never
depends on the offer.  `iterations` counts full and partial steps only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import linalg

# smallest Cholesky pivot accepted, relative to Q's largest diagonal entry;
# singular Grams leave roundoff pivots far below it
PD_TOL = 1e-8


class QpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


@dataclass
class QpSolution:
    status: QpStatus
    values: np.ndarray | None
    objective_value: float | None
    kkt_residual: float = np.nan
    iterations: int = 0     # full and partial steps


def _validate(q: np.ndarray, c: np.ndarray, g: np.ndarray, h: np.ndarray) -> None:
    """Raise ValueError naming the first argument of the wrong shape, with a
    non-finite entry, or (q) not symmetric within 1e-10."""
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"q must be square, got shape {q.shape}")
    n = q.shape[0]
    if c.shape != (n,):
        raise ValueError(f"c must have shape ({n},) to match q, got {c.shape}")
    if g.ndim != 2 or g.shape[1] != n:
        raise ValueError(f"g must have {n} columns to match q, got shape {g.shape}")
    if h.shape != (g.shape[0],):
        raise ValueError(f"h must have one entry per row of g ({g.shape[0]}), "
                         f"got shape {h.shape}")
    for name, arr in (("q", q), ("c", c), ("g", g), ("h", h)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} has non-finite entries")
    scale = max(1.0, np.abs(q).max(initial=0.0))
    if np.abs(q - q.T).max(initial=0.0) > 1e-10 * scale:
        raise ValueError("q is not symmetric within 1e-10")


def _active_rows(active, m: int) -> np.ndarray:
    """The row indices in `active` as an int array; ValueError naming
    `active` unless they are distinct rows of G."""
    rows = np.asarray(active)
    if rows.ndim != 1 or (rows.size and not np.issubdtype(rows.dtype, np.integer)):
        raise ValueError(f"active must be a 1-D sequence of row indices of g, "
                         f"got {rows!r}")
    if rows.size and (rows.min() < 0 or rows.max() >= m):
        raise ValueError(f"active holds a row index outside 0..{m - 1}")
    if np.unique(rows).size != rows.size:
        raise ValueError("active repeats a row index")
    return rows.astype(int)


def _factor(gj: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    """H and the triangle R of (G J0)_A' = H [R; 0] for the rows A."""
    h_mat, r_mat = np.linalg.qr(gj[rows].T, mode="complete")
    return h_mat, r_mat[:len(rows)]


def _warm_start(gj, j0, cj, h, rows):
    """H, R, x and u with `rows` of G active, or None when they are no
    dual-feasible start: dependent rows, or a negative multiplier.

    With (G J0)_A' = H [R; 0] and R'z = h_A, the point
    x = J0 (H1 z - H2 H2' cj), cj = J0' c, holds the rows at equality and
    minimizes the objective on them, and u = R^{-1}(z + H1' cj), which
    equals R^{-1} H1' J0'(Q x + c), are their multipliers.
    """
    k = rows.size
    if k > cj.shape[0]:
        return None
    h_mat, r_mat = _factor(gj, rows)
    # |R_ii| is the part of row i outside the rows before it, and the norm
    # of R's column i that of the whole row: the step loop's dependence test
    if np.any(np.abs(np.diag(r_mat)) <= linalg.RANK_TOL * np.linalg.norm(r_mat, axis=0)):
        return None
    z = linalg.solve_lower(r_mat.T, h[rows])
    h1, h2 = h_mat[:, :k], h_mat[:, k:]
    x = j0 @ (h1 @ z - h2 @ (h2.T @ cj))
    u = linalg.solve_upper(r_mat, z + h1.T @ cj)
    if u.min(initial=0.0) < 0.0:
        return None
    return h_mat, r_mat, x, u


def solve_qp(q, c, g, h, active=None) -> QpSolution:
    """min 0.5 v'Qv + c'v s.t. G v >= h by the Goldfarb–Idnani dual
    active-set method; see the module docstring.  `active` lists rows of G
    to start active; the solve starts from them when they give a dual
    feasible start, and from the unconstrained minimum otherwise.  Raises
    ValueError on an invalid argument or a Q that is not positive definite."""
    q, c, g, h = (np.asarray(a, dtype=float) for a in (q, c, g, h))
    _validate(q, c, g, h)
    rows = _active_rows([] if active is None else active, g.shape[0])
    n = c.shape[0]
    try:
        l_mat = linalg.cholesky_factor(q)
    except linalg.LinAlgError:
        l_mat = None
    if l_mat is None or np.diag(l_mat).min() ** 2 <= PD_TOL * np.diag(q).max():
        raise ValueError(f"q is not positive definite (Cholesky pivot at most "
                         f"{PD_TOL:g} of its largest diagonal entry)")
    j0 = linalg.solve_upper(l_mat.T, np.eye(n))   # J0 = L^{-T}
    gj, cj = g @ j0, j0.T @ c
    abs_g, abs_h = np.abs(g), np.abs(h) + 1.0
    # with no rows, the start is the unconstrained minimum -J0 J0' c
    start = _warm_start(gj, j0, cj, h, rows)
    if start is None:
        rows = rows[:0]
        start = _warm_start(gj, j0, cj, h, rows)
    h_mat, r_mat, x, u = start   # u: the multipliers of the active rows
    active = rows.tolist()
    iterations = 0               # steps taken
    while True:
        # a residual within 1e-10 of its roundoff scale counts as 0: at a
        # degenerate vertex a tighter test can read roundoff as a violated
        # dependent row, and so as infeasibility
        s = g @ x - h
        s[np.abs(s) <= 1e-10 * (abs_g @ np.abs(x) + abs_h)] = 0.0
        s[active] = 0.0
        if not s.size or s.min() >= 0.0:
            break
        p = int(np.argmin(s))
        if h_mat is None:  # the last full step's active set, not yet factored
            h_mat, r_mat = _factor(gj, active)
        n_p, s_p, u_p = g[p], s[p], 0.0
        while True:
            w = len(active)
            d = h_mat.T @ gj[p]
            dependent = np.linalg.norm(d[w:]) <= linalg.RANK_TOL * np.linalg.norm(d)
            r = linalg.solve_upper(r_mat, d[:w])
            # partial step: the first active row whose multiplier hits 0
            blocking = np.flatnonzero(r > 0.0)
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
                x = x + t * (j0 @ (h_mat[:, w:] @ d[w:]))
            if t == t2:
                active.append(p)
                u = np.append(u, u_p)
                h_mat = None  # factored only if another step follows
                break
            active.pop(drop)
            u = np.delete(u, drop)
            h_mat, r_mat = _factor(gj, active)
            s_p = float(n_p @ x - h[p])
    # KKT residual: stationarity, primal feasibility, and the sign of the
    # active rows' multipliers
    stat = q @ x + c - g[active].T @ u
    kkt = max(np.max(np.abs(stat), initial=0.0),
              np.max(h - g @ x, initial=0.0),
              np.max(-u, initial=0.0))
    return QpSolution(QpStatus.OPTIMAL, x, float(0.5 * x @ q @ x + c @ x), float(kkt),
                      iterations)
