"""Data labeling by k-means and switching-logic identification by linear SVM.

k-means runs Lloyd's algorithm with k-means++ seeding, several restarts and
a seeded, portable RNG (`numpy.random.default_rng([seed, restart])`), so
results are reproducible across platforms.  The SVM uses the standard
soft-margin quadratic program min 0.5||w||^2 + gamma * sum(e) plus a
proximal term (SVM_PROX/2)(b_w^2 + ||e||^2).  Without that term the Hessian
is singular in b_w and the slacks: the dual QP solver needs it positive
definite, and the optimal face can be flat, so that b_w would depend on the
row order through roundoff.  The term picks one point of that face and moves
the hyperplane by about 1e-6 on the paper's scenarios.  The QP goes to
`qp.solve_qp` as dense rows G v >= h: the n margin rows, then the n rows
e >= 0.  It starts with those n slack bounds active: at w = b_w = e = 0 the
objective's gradient is gamma on each slack, so each bound's multiplier is
gamma >= 0 and the start is dual feasible.  The dual method then adds the
margin rows that start violates and drops the bounds of the slacks that
must open.  The unconstrained minimum, e = -gamma/SVM_PROX = -1e7, would
start with every row violated and take steps of that size.  One-vs-one
multi-class training decouples into one binary problem per class pair,
since each pair's constraints involve only the two classes concerned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Hyperplane, LabelingMatrix, SwitchingLogic, expected_pairs
from .qp import QpStatus, solve_qp


KKT_TOL = 1e-6           # largest KKT residual accepted from an SVM QP
SVM_PROX = 1e-6          # delta of the SVM's proximal term; see the module docstring
KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300


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


def _lloyd(x: np.ndarray, n_cl: int, rng) -> tuple[np.ndarray, np.ndarray, float, int]:
    centroids = _kmeans_pp_seed(x, n_cl, rng)
    assign = _assign(x, centroids)
    prev_sse = np.inf
    iterations = 0
    for _ in range(KMEANS_MAX_ITER):
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


def kmeans(inputs, n_cl: int, seed: int = 0) -> KmeansResult:
    """Best-of-restarts Lloyd's algorithm on the input rows only."""
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    n = x.shape[0]
    if n_cl < 1:
        raise ValueError("n_cl must be at least 1")
    if n < n_cl:
        raise ValueError(f"cannot form {n_cl} clusters from {n} points")
    best = None
    for restart in range(KMEANS_RESTARTS):
        rng = np.random.default_rng([seed, restart])
        centroids, assign, sse, iterations = _lloyd(x, n_cl, rng)
        if best is None or sse < best[2] - 1e-15:
            best = (centroids, assign, sse, iterations)
    centroids, assign, sse, iterations = best
    labels = LabelingMatrix.from_assignments(assign + 1, n_cl)
    return KmeansResult(centroids, labels, sse, iterations)


def train_binary_svm(inputs, labels: LabelingMatrix,
                     gamma: float = 10.0) -> tuple[Hyperplane, np.ndarray, float]:
    """Soft-margin linear SVM between two classes, gamma the slack weight.

    Class 1 ends on the w'x + b_w >= 0 side (margin target +1), class 2 on
    the negative side.  Returns the hyperplane, the slack vector and the
    QP's KKT residual.
    """
    if not np.isfinite(gamma) or gamma <= 0:
        raise ValueError("gamma must be finite and positive")
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
    q[n_p:, n_p:] = SVM_PROX * np.eye(n + 1)  # (delta/2)(b_w^2 + ||e||^2)
    c = np.zeros(nv)
    c[n_p + 1:] = gamma
    sign = np.where(labels.entries[:, 0] == 1, 1.0, -1.0)
    # rows G v >= h: the margins sign_i (w'x_i + b_w) + e_i >= 1, then e_i >= 0
    g = np.zeros((2 * n, nv))
    g[:n, :n_p] = sign[:, None] * x
    g[:n, n_p] = sign
    g[:n, n_p + 1:] = np.eye(n)
    g[n:, n_p + 1:] = np.eye(n)
    h = np.concatenate([np.ones(n), np.zeros(n)])
    # the slack bounds start active: w = b_w = e = 0 with multipliers gamma
    # is dual feasible; see the module docstring
    sol = solve_qp(q, c, g, h, active=np.arange(n, 2 * n))
    if sol.status != QpStatus.OPTIMAL:
        raise RuntimeError("SVM training QP reported infeasible; slacks should make it elastic")
    if sol.kkt_residual > KKT_TOL:
        raise RuntimeError(f"SVM KKT residual {sol.kkt_residual:.2e} above tolerance")
    w = sol.values[:n_p]
    b_w = float(sol.values[n_p])
    slacks = np.maximum(sol.values[n_p + 1:], 0.0)
    return Hyperplane(w, b_w), slacks, sol.kkt_residual


def train_multiclass_svm(inputs, labels: LabelingMatrix,
                         gamma: float = 10.0) -> tuple[SwitchingLogic, float]:
    """One-vs-one switching logic: one binary SVM per lexicographic class
    pair.  Returns the logic and the largest KKT residual of the pairs' QPs."""
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    n_cl = labels.n_cl
    sizes = labels.class_sizes()
    for j in range(n_cl):
        if sizes[j] == 0:
            raise ValueError(f"class {j + 1} is empty")
    hyperplanes = []
    kkt = 0.0
    for r, s in expected_pairs(n_cl):
        rows_r = labels.members(r)
        rows_s = labels.members(s)
        subset = np.concatenate([rows_r, rows_s])
        subset.sort()
        sub_labels = LabelingMatrix.from_assignments(
            np.where(np.isin(subset, rows_r), 1, 2), 2)
        hp, _, pair_kkt = train_binary_svm(x[subset], sub_labels, gamma)
        hyperplanes.append(hp)
        kkt = max(kkt, pair_kkt)
    return SwitchingLogic(tuple(hyperplanes), n_cl), kkt
