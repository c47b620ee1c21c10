"""Data labeling by k-means and switching-logic identification by linear SVM.

k-means runs Lloyd's algorithm with k-means++ seeding and KMEANS_RESTARTS
restarts, each on a seeded, portable RNG (`default_rng([seed, restart])`), so
results are reproducible across platforms.  The restarts run side by side as
arrays over (restart, cluster, point); none's arithmetic depends on another's.
A k-means++ draw is that of `Generator.choice(n, p=d2/total)`: one `random()`
u, and the count of entries <= u (searchsorted, side "right") in the CDF
cumsum(p) / cumsum(p)[-1].  The SVM uses the standard soft-margin quadratic
program min 0.5||w||^2 + gamma * sum(e) plus a proximal term
(SVM_PROX/2)(b_w^2 + ||e||^2).  Without that term the Hessian is singular in
b_w and the slacks: the dual QP solver needs it positive definite, and the
optimal face can be flat, so that b_w would depend on the row order through
roundoff.  The term picks one point of that face and moves the hyperplane by
about 1e-6 on the paper's scenarios.  The QP goes to `qp.solve_qp` as dense
rows G v >= h: the n margin rows, then the n rows e >= 0.  It starts with
those n slack bounds active: at w = b_w = e = 0 the objective's gradient is
gamma on each slack, so each bound's multiplier is gamma >= 0 and the start is
dual feasible.  The dual method then adds the margin rows that start violates
and drops the bounds of the slacks that must open.  The unconstrained minimum,
e = -gamma/SVM_PROX = -1e7, would start with every row violated and take steps
of that size.  One-vs-one multi-class training decouples into one binary
problem per class pair, since each pair's constraints involve only the two
classes concerned.
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


def _kmeans_pp_seed(x: np.ndarray, n_cl: int, rngs: list) -> np.ndarray:
    """k-means++ centres of every restart, (restarts, n_cl, n_p), restart r on rngs[r]."""
    centroids = np.empty((len(rngs), n_cl, x.shape[1]))
    centroids[:, 0] = x[[rng.integers(len(x)) for rng in rngs]]
    d2, xt = np.full((len(rngs), len(x)), np.inf), np.ascontiguousarray(x.T)
    for j in range(1, n_cl):
        d2 = np.minimum(d2, ((xt - centroids[:, j - 1, :, None]) ** 2).sum(axis=1))
        total = d2.sum(axis=1)
        live = total > 0.0  # else every point sits on a centre: a uniform redraw
        cdf = (d2 / np.where(live, total, 1.0)[:, None]).cumsum(axis=1)
        cdf /= np.where(live, cdf[:, -1], 1.0)[:, None]
        u = np.array([rng.random() if ok else rng.integers(len(x)) for rng, ok in zip(rngs, live)])
        centroids[:, j] = x[np.where(live, (cdf <= u[:, None]).sum(axis=1), u).astype(int)]
    return centroids


def _assign(x: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each restart's nearest centre per point (first on ties), and its SSE."""
    assign = ((np.ascontiguousarray(x.T) - centroids[..., None]) ** 2).sum(axis=2).argmin(axis=1)
    res = x - centroids[np.arange(len(centroids))[:, None], assign]
    return assign, (res ** 2).reshape(len(res), -1).sum(axis=1)


def _centroid_step(x: np.ndarray, centroids: np.ndarray,
                   assign: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's update of every restart's centres: each cluster's mean, an empty one
    reseeded at the point farthest from its centroid; also which restarts reseeded."""
    n_r, n_cl, n_p = centroids.shape
    bins = np.arange(n_r)[:, None] * n_cl + assign
    counts = np.bincount(bins.ravel(), minlength=n_r * n_cl).reshape(n_r, n_cl)
    # one bin per restart, cluster and coordinate, summed in point order
    sums = np.bincount((bins[..., None] * n_p + np.arange(n_p)).ravel(),
                       np.broadcast_to(x, (n_r,) + x.shape).ravel(), centroids.size)
    means = sums.reshape(centroids.shape) / np.maximum(counts, 1)[..., None]
    full = counts > 0
    new, reseeded = np.where(full[..., None], means, centroids), ~full.all(axis=1)
    for r in np.flatnonzero(reseeded):  # rare; clusters in order, from the centres as they stand
        c = centroids[r].copy()
        for j in range(n_cl):
            c[j] = means[r, j] if full[r, j] else x[((x - c[assign[r]]) ** 2).sum(axis=1).argmax()]
        new[r] = c
    return new, reseeded


def kmeans(inputs, n_cl: int, seed: int = 0) -> KmeansResult:
    """Best-of-restarts Lloyd's algorithm on the input rows only."""
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    if n_cl < 1:
        raise ValueError("n_cl must be at least 1")
    if x.shape[0] < n_cl:
        raise ValueError(f"cannot form {n_cl} clusters from {x.shape[0]} points")
    if not np.isfinite(x).all():
        raise ValueError("k-means inputs contain non-finite entries")
    rngs = [np.random.default_rng([seed, r]) for r in range(KMEANS_RESTARTS)]
    centroids = _kmeans_pp_seed(x, n_cl, rngs)
    assign, sse = _assign(x, centroids)[0], np.full(KMEANS_RESTARTS, np.inf)
    iterations, active = np.zeros(KMEANS_RESTARTS, dtype=int), np.ones(KMEANS_RESTARTS, bool)
    while active.any() and iterations.max() < KMEANS_MAX_ITER:
        iterations += active  # a converged restart is a fixed point of the pass
        centroids, reseeded = _centroid_step(x, centroids, assign)
        new_assign, new_sse = _assign(x, centroids)
        assert (reseeded | (new_sse <= sse + 1e-9)).all(), "k-means SSE rose in a Lloyd pass"
        active &= reseeded | (new_assign != assign).any(axis=1)
        assign, sse = new_assign, new_sse
    best = 0  # the first restart of least SSE, up to 1e-15
    for r in range(1, KMEANS_RESTARTS):
        best = r if sse[r] < sse[best] - 1e-15 else best
    labels = LabelingMatrix.from_assignments(assign[best] + 1, n_cl)
    return KmeansResult(centroids[best], labels, float(sse[best]), int(iterations[best]))


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
        subset = np.sort(np.concatenate([labels.members(r), labels.members(s)]))
        sub_labels = LabelingMatrix.from_assignments(2 - labels.entries[subset, r - 1], 2)
        hp, _, pair_kkt = train_binary_svm(x[subset], sub_labels, gamma)
        hyperplanes.append(hp)
        kkt = max(kkt, pair_kkt)
    return SwitchingLogic(tuple(hyperplanes), n_cl), kkt
