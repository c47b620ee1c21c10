import numpy as np
import pytest

from misens import linalg


def test_least_squares_identity():
    x = linalg.least_squares(np.eye(3), [1.0, 2.0, 3.0])
    assert np.allclose(x, [1.0, 2.0, 3.0], atol=1e-12)


def test_least_squares_mean():
    x = linalg.least_squares(np.array([[1.0], [1.0], [1.0]]), [1.0, 2.0, 3.0])
    assert np.allclose(x, [2.0], atol=1e-12)


def test_least_squares_matches_normal_equations():
    # oracle: solve the normal equations A^T A x = A^T b with numpy
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=(20, 4))
        b = rng.normal(size=20)
        oracle = np.linalg.solve(a.T @ a, a.T @ b)
        x = linalg.least_squares(a, b)
        assert np.max(np.abs(x - oracle)) <= 1e-8


def test_least_squares_residual_orthogonality():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(40, 6))
    b = rng.normal(size=40)
    x = linalg.least_squares(a, b)
    resid = a @ x - b
    scale = max(1.0, np.abs(a).max() * np.abs(resid).max())
    assert np.max(np.abs(a.T @ resid)) <= 1e-8 * scale


def test_least_squares_rank_deficient_names_column():
    a = np.array([[1.0, 2.0, 2.0], [2.0, 4.0, 4.0], [3.0, 6.0, 6.0], [1.0, 2.0, 2.0]])
    with pytest.raises(linalg.LinAlgError, match="rank-deficient system: column 1$"):
        linalg.least_squares(a, np.ones(4))


def test_least_squares_wide_gives_the_minimum_norm_solution():
    rng = np.random.default_rng(12)
    for m, k in [(1, 2), (1, 3), (2, 3), (3, 7), (5, 6)]:
        a = rng.normal(size=(m, k))
        b = rng.normal(size=m)
        x = linalg.least_squares(a, b)
        assert np.max(np.abs(x - np.linalg.lstsq(a, b, rcond=None)[0])) <= 1e-10
    # rank 1 with two rows: a rank-deficient wide A still raises, naming row 1
    with pytest.raises(linalg.LinAlgError, match="rank-deficient system: row 1$"):
        linalg.least_squares(np.ones((2, 3)), np.ones(2))


def test_qr_orthonormal_on_random_sizes():
    rng = np.random.default_rng(11)
    for m, n in [(5, 3), (20, 7), (100, 20), (15, 15), (4, 9)]:
        a = rng.normal(size=(m, n))
        q, r = linalg.householder_qr(a)
        assert np.max(np.abs(q.T @ q - np.eye(m))) <= 1e-10
        assert np.max(np.abs(q @ r - a)) <= 1e-10 * max(1.0, np.abs(a).max())
        assert np.max(np.abs(np.tril(r, -1))) == 0.0


def test_cholesky_solve_scaled_identity():
    x = linalg.cholesky_solve(2.0 * np.eye(2), [2.0, 4.0])
    assert np.allclose(x, [1.0, 2.0], atol=1e-12)


def test_cholesky_solve_hand_elimination():
    # oracle: by-hand Gaussian elimination of [[4,2],[2,3]] x = [8,7]
    # row2 - 0.5*row1: 2 x2 = 3 -> x2 = 1.5; 4 x1 = 8 - 2*1.5 -> x1 = 1.25
    x = linalg.cholesky_solve(np.array([[4.0, 2.0], [2.0, 3.0]]), [8.0, 7.0])
    assert np.allclose(x, [1.25, 1.5], atol=1e-12)


def test_cholesky_zero_pivot_errors_with_index():
    # the first leading block that is singular names the pivot: the last
    # block (the matrix itself) or an earlier one
    for s, j in (([[1.0, 1.0], [1.0, 1.0]], 1),
                 ([[4.0, 2.0, 2.0], [2.0, 2.0, 1.0], [2.0, 1.0, 1.0]], 2),
                 ([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], 1)):
        with pytest.raises(linalg.LinAlgError, match=f"pivot at index {j}$"):
            linalg.cholesky_factor(np.array(s))


def test_cholesky_rejects_asymmetric():
    with pytest.raises(linalg.LinAlgError, match="symmetric"):
        linalg.cholesky_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_cholesky_solve_residual_tolerance():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = rng.normal(size=(8, 8))
        s = m @ m.T + 8 * np.eye(8)
        r = rng.normal(size=8)
        x = linalg.cholesky_solve(s, r)
        scale = max(1.0, np.abs(s).max() * np.abs(x).max())
        assert np.max(np.abs(s @ x - r)) <= 1e-9 * scale


def well_conditioned_triangles(rng, n):
    """An upper and a lower triangle with diagonals of size about n."""
    upper = np.triu(rng.normal(size=(n, n))) + n * np.eye(n)
    return upper, upper.T.copy()


@pytest.mark.parametrize("shape", [(), (3,)])
def test_triangular_solves_match_numpy(shape):
    rng = np.random.default_rng(21)
    for n in (1, 2, 5, 17, 40):
        upper, lower = well_conditioned_triangles(rng, n)
        y = rng.normal(size=(n,) + shape)
        for solve, tri in ((linalg.solve_upper, upper), (linalg.solve_lower, lower)):
            y_before = y.copy()
            x = solve(tri, y)
            assert x.shape == y.shape
            assert np.max(np.abs(x - np.linalg.solve(tri, y))) <= 1e-12
            assert np.array_equal(y, y_before)


def test_triangular_solves_of_sizes_zero_and_one():
    for solve in (linalg.solve_upper, linalg.solve_lower):
        assert solve(np.zeros((0, 0)), np.zeros(0)).shape == (0,)
        assert solve(np.zeros((0, 0)), np.zeros((0, 2))).shape == (0, 2)
        assert solve([[4.0]], [2.0]).tolist() == [0.5]
        assert solve([[-2.0]], [[1.0, 4.0]]).tolist() == [[-0.5, -2.0]]


def test_triangular_solves_read_only_their_triangle():
    # a QR factor can hold roundoff across its diagonal; substitution never
    # reads it, and neither may the solves
    rng = np.random.default_rng(23)
    upper, lower = well_conditioned_triangles(rng, 6)
    noise = 1e3 * rng.normal(size=(6, 6))
    y = rng.normal(size=6)
    assert np.array_equal(linalg.solve_upper(upper + np.tril(noise, -1), y),
                          linalg.solve_upper(upper, y))
    assert np.array_equal(linalg.solve_lower(lower + np.triu(noise, 1), y),
                          linalg.solve_lower(lower, y))


def test_triangular_solves_ignore_nan_across_the_diagonal():
    rng = np.random.default_rng(24)
    upper, lower = well_conditioned_triangles(rng, 5)
    below = np.tri(5, k=-1, dtype=bool)
    y = rng.normal(size=(5, 2))
    assert np.array_equal(linalg.solve_upper(np.where(below, np.nan, upper), y),
                          linalg.solve_upper(upper, y))
    assert np.array_equal(linalg.solve_lower(np.where(below.T, np.nan, lower), y),
                          linalg.solve_lower(lower, y))


def test_triangular_solves_reject_a_zero_pivot():
    for solve, tri in ((linalg.solve_upper, [[1.0, 2.0], [0.0, 0.0]]),
                       (linalg.solve_lower, [[0.0, 0.0], [2.0, 1.0]])):
        with pytest.raises(linalg.LinAlgError, match="singular"):
            solve(tri, [1.0, 1.0])
