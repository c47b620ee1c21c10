"""Dense linear-algebra kernels: QR, least squares (minimum-norm when
underdetermined), Cholesky, triangular solves, inverse.

Every factorization is one LAPACK call through `numpy.linalg`: `np.linalg.qr`
for `householder_qr` and `least_squares`; `np.linalg.cholesky` for
`cholesky_factor`; `np.linalg.inv` for `invert`; `np.linalg.solve` for the
triangular solves (whose factors of a triangle are the triangle itself; see
`solve_upper`).  What misens adds around each call:
- a matrix passed in to be factored is checked for shape and finiteness,
  and S for symmetry within 1e-10;
- `least_squares` applies its own rank test, |R_jj| below RANK_TOL times
  the largest, and names the first deficient column (or row, for wide A);
- `cholesky_factor` names the first non-positive pivot;
- every failure is a `LinAlgError`.
All instances in this project are tiny (a few hundred rows at most), so
dense storage and O(n^3) factorizations are fine; the dual QP (`qp`)
factors Q once by Cholesky and its active rows afresh by `np.linalg.qr`
at every change of its active set.
"""

from __future__ import annotations

import functools

import numpy as np

RANK_TOL = 1e-10


class LinAlgError(ValueError):
    """Rank deficiency, asymmetry, or a non-positive-definite pivot."""


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise LinAlgError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise LinAlgError(f"{name} contains non-finite entries")
    return m


def _as_vector(b, name: str = "vector") -> np.ndarray:
    v = np.asarray(b, dtype=float)
    if v.ndim != 1:
        raise LinAlgError(f"{name} must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise LinAlgError(f"{name} contains non-finite entries")
    return v


def householder_qr(a) -> tuple[np.ndarray, np.ndarray]:
    """Full QR of an m x n matrix: A = Q @ R, Q m x m orthogonal and R
    m x n upper triangular, with exact zeros below its diagonal.

    No solver uses it: the benchmark's tracer wraps it by name, and its own
    test checks it.
    """
    return np.linalg.qr(_as_matrix(a), mode="complete")


@functools.lru_cache(maxsize=64)
def _upper_mask(shape: tuple[int, ...]) -> np.ndarray:
    """True on and above the diagonal of a matrix of this shape; read-only."""
    mask = np.triu(np.ones(shape, dtype=bool))
    mask.flags.writeable = False
    return mask


def solve_upper(r, y) -> np.ndarray:
    """Back substitution for upper-triangular R x = y (y may be 2-D).

    Reads only the upper triangle of R, as substitution does: a QR factor
    can hold roundoff below its diagonal.  `np.linalg.solve` does the
    substitution: with zeros below the diagonal, GETRF's partial pivoting
    swaps no rows and its elimination multipliers are all zero, so U = R
    exactly and GETRS reduces to one triangular solve.  A zero on the
    diagonal raises LinAlgError.  y is left unmodified.
    """
    r = np.asarray(r, dtype=float)
    r = np.where(_upper_mask(r.shape), r, 0.0)
    y = np.asarray(y, dtype=float)
    if r.shape[0] == 0:
        return y.copy()
    try:
        return np.linalg.solve(r, y)
    except np.linalg.LinAlgError:
        raise LinAlgError("singular triangle in solve_upper") from None


def solve_lower(l, y) -> np.ndarray:
    """Forward substitution for lower-triangular L x = y (y may be 2-D).

    Reads only the lower triangle of L.  Reversing the order of the rows
    and of the columns turns it into an upper triangle for `solve_upper`.
    """
    l = np.asarray(l, dtype=float)
    y = np.asarray(y, dtype=float)
    return solve_upper(l[::-1, ::-1], y[::-1])[::-1]


def least_squares(a, b) -> np.ndarray:
    """argmin ||A x - b||_2 by QR; the minimum-norm one when A is wide.

    A must have full rank min(m, k).  Tall A (m >= k) is factored directly,
    A = Q R.  Wide A (m < k) is factored through A' = Q R, so that x = Q z
    with R' z = b, the solution in the row space of A.  A diagonal entry of
    R below RANK_TOL times the largest one is reported as deficient.
    """
    a = _as_matrix(a, "A")
    rhs = _as_vector(b, "b")
    m, k = a.shape
    if rhs.shape[0] != m:
        raise LinAlgError(f"shape mismatch: A is {m}x{k}, b has length {rhs.shape[0]}")
    wide = m < k
    q, r = np.linalg.qr(a.T if wide else a)
    diag = np.abs(np.diag(r))
    scale = diag.max() if diag.size else 0.0
    if scale <= 0.0:
        raise LinAlgError("rank-deficient system: zero matrix")
    bad = np.nonzero(diag < RANK_TOL * scale)[0]
    if bad.size:
        raise LinAlgError(f"rank-deficient system: {'row' if wide else 'column'} {int(bad[0])}")
    if wide:
        return q @ solve_lower(r.T, rhs)
    return solve_upper(r, q.T @ rhs)


def invert(a) -> np.ndarray:
    """Dense inverse for the simplex basis refactorizations.

    Delegates to LAPACK: refactorization dominates branch-and-bound node
    cost and needs a real GETRF, not a textbook elimination.  Callers treat
    a singular basis as a recoverable condition, hence the error mapping.
    """
    a = _as_matrix(a, "A")
    n = a.shape[0]
    if a.shape[1] != n:
        raise LinAlgError(f"matrix is not square: {a.shape}")
    if n == 0:
        return np.zeros((0, 0))
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise LinAlgError("singular matrix in invert") from None


def cholesky_factor(s) -> np.ndarray:
    """Lower-triangular L with L @ L.T = S for symmetric positive definite S.

    A non-positive pivot raises LinAlgError with its index.
    """
    s = _as_matrix(s, "S")
    n = s.shape[0]
    if s.shape[1] != n:
        raise LinAlgError(f"matrix is not square: {s.shape}")
    scale = max(1.0, np.abs(s).max())
    if np.abs(s - s.T).max() > 1e-10 * scale:
        raise LinAlgError("matrix is not symmetric within 1e-10")
    try:
        return np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        pass
    # LAPACK refused S: the first leading block it refuses ends in the pivot
    # that is not positive, and S itself is the last of them
    j = n - 1
    for i in range(n - 1):
        try:
            np.linalg.cholesky(s[:i + 1, :i + 1])
        except np.linalg.LinAlgError:
            j = i
            break
    raise LinAlgError(f"non-positive pivot at index {j}")


def cholesky_solve(s, r) -> np.ndarray:
    """Solve S x = r for symmetric positive definite S."""
    l = cholesky_factor(s)
    rhs = np.asarray(r, dtype=float)
    if rhs.shape[0] != l.shape[0]:
        raise LinAlgError("right-hand side length mismatch")
    return solve_upper(l.T, solve_lower(l, rhs))
