"""Data labeling by k-means and switching-logic identification by linear SVM.

k-means runs Lloyd's algorithm with k-means++ seeding, several restarts and
a seeded, portable RNG (`numpy.random.default_rng([seed, restart])`), so
results are reproducible across platforms.  The SVM uses the standard
soft-margin quadratic program min 0.5||w||^2 + gamma * sum(e); one-vs-one
multi-class training decouples into one binary problem per class pair,
since each pair's constraints involve only the two classes concerned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Hyperplane, LabelingMatrix, SwitchingLogic, expected_pairs
from .lp import Constraint
from .qp import QpStatus, QuadraticProgram, solve_qp


@dataclass(frozen=True)
class SvmConfig:
    gamma: float = 10.0       # slack weight on normalized data
    tolerance: float = 1e-6

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma <= 0:
            raise ValueError("gamma must be finite and positive")


@dataclass
class KmeansResult:
    centroids: np.ndarray
    labels: LabelingMatrix
    sse: float
    iterations: int


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


def _lloyd(x: np.ndarray, n_cl: int, rng, max_iter: int) -> tuple[np.ndarray, np.ndarray, float, int]:
    centroids = _kmeans_pp_seed(x, n_cl, rng)
    assign = _assign(x, centroids)
    prev_sse = np.inf
    iterations = 0
    for _ in range(max_iter):
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


def kmeans(inputs, n_cl: int, seed: int = 0, restarts: int = 10,
           max_iter: int = 300) -> KmeansResult:
    """Best-of-restarts Lloyd's algorithm on the input rows only."""
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    n = x.shape[0]
    if n_cl < 1:
        raise ValueError("n_cl must be at least 1")
    if n < n_cl:
        raise ValueError(f"cannot form {n_cl} clusters from {n} points")
    best = None
    for restart in range(max(1, restarts)):
        rng = np.random.default_rng([seed, restart])
        centroids, assign, sse, iterations = _lloyd(x, n_cl, rng, max_iter)
        if best is None or sse < best[2] - 1e-15:
            best = (centroids, assign, sse, iterations)
    centroids, assign, sse, iterations = best
    labels = LabelingMatrix.from_assignments(assign + 1, n_cl)
    return KmeansResult(centroids, labels, sse, iterations)


def train_binary_svm(inputs, labels: LabelingMatrix,
                     cfg: SvmConfig | None = None) -> tuple[Hyperplane, np.ndarray]:
    """Soft-margin linear SVM between two classes.

    Class 1 ends on the w'x + b_w >= 0 side (margin target +1), class 2 on
    the negative side.  Returns the hyperplane and the slack vector.
    """
    cfg = cfg or SvmConfig()
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    if labels.n_cl != 2:
        raise ValueError("binary SVM needs a two-class labeling")
    if labels.n != x.shape[0]:
        raise ValueError("labeling and inputs disagree on the number of rows")
    sizes = labels.class_sizes()
    if sizes[0] == 0 or sizes[1] == 0:
        raise ValueError("both classes must be nonempty")
    n, n_p = x.shape
    # variables: [w (n_p), b_w, e (n)]
    nv = n_p + 1 + n
    q = np.zeros((nv, nv))
    q[:n_p, :n_p] = np.eye(n_p)          # 0.5||w||^2
    c = np.zeros(nv)
    c[n_p + 1:] = cfg.gamma
    sign = np.where(labels.entries[:, 0] == 1, 1.0, -1.0)
    cons = []
    for i in range(n):
        coeffs = {j: float(sign[i] * x[i, j]) for j in range(n_p)}
        coeffs[n_p] = float(sign[i])
        coeffs[n_p + 1 + i] = 1.0
        cons.append(Constraint.of(coeffs, ">=", 1.0))
    lo = np.concatenate([np.full(n_p + 1, -np.inf), np.zeros(n)])
    hi = np.full(nv, np.inf)
    sol = solve_qp(QuadraticProgram(q, c, cons, lo, hi))
    if sol.status != QpStatus.OPTIMAL:
        raise RuntimeError("SVM training QP reported infeasible; slacks should make it elastic")
    if sol.kkt_residual > cfg.tolerance:
        raise RuntimeError(f"SVM KKT residual {sol.kkt_residual:.2e} above tolerance")
    w = sol.values[:n_p]
    b_w = float(sol.values[n_p])
    slacks = np.maximum(sol.values[n_p + 1:], 0.0)
    return Hyperplane(w, b_w), slacks


def train_multiclass_svm(inputs, labels: LabelingMatrix,
                         cfg: SvmConfig | None = None) -> SwitchingLogic:
    """One-vs-one switching logic: one binary SVM per lexicographic class pair."""
    cfg = cfg or SvmConfig()
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    n_cl = labels.n_cl
    sizes = labels.class_sizes()
    for j in range(n_cl):
        if sizes[j] == 0:
            raise ValueError(f"class {j + 1} is empty")
    hyperplanes = []
    for r, s in expected_pairs(n_cl):
        rows_r = labels.members(r)
        rows_s = labels.members(s)
        subset = np.concatenate([rows_r, rows_s])
        subset.sort()
        sub_labels = LabelingMatrix.from_assignments(
            np.where(np.isin(subset, rows_r), 1, 2), 2)
        hp, _ = train_binary_svm(x[subset], sub_labels, cfg)
        hyperplanes.append(hp)
    return SwitchingLogic(tuple(hyperplanes), expected_pairs(n_cl), n_cl)
