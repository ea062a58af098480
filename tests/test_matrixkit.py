import numpy as np
import pytest

from robustroa import matrixkit as mk


def random_spd(rng, n, scale=1.0):
    m = rng.standard_normal((n, n))
    return scale * (m @ m.T + n * np.eye(n))


# -- cholesky ------------------------------------------------------------------

def test_cholesky_identity():
    lo = mk.cholesky(np.eye(3))
    assert np.allclose(lo, np.eye(3))


def test_cholesky_diagonal():
    lo = mk.cholesky(np.diag([4.0, 9.0]))
    assert np.allclose(lo, np.diag([2.0, 3.0]))


def test_cholesky_rejects_indefinite():
    with pytest.raises(mk.NotPositiveDefinite):
        mk.cholesky(np.array([[0.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(mk.NotPositiveDefinite):
        mk.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite, pivots expose it


def test_cholesky_rejects_singular_psd():
    # positive semidefinite with a zero pivot: no factorization either
    with pytest.raises(mk.NotPositiveDefinite):
        mk.cholesky(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_cholesky_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        m = random_spd(rng, n, scale=float(rng.uniform(1e-3, 1e3)))
        lo = mk.cholesky(m)
        assert np.allclose(np.triu(lo, 1), 0.0)
        assert mk.inf_norm(lo @ lo.T - m) < 1e-10 * mk.inf_norm(m)


def test_cholesky_requires_symmetry():
    with pytest.raises(ValueError):
        mk.cholesky(np.array([[1.0, 2.0], [0.0, 1.0]]))


# -- linear solve --------------------------------------------------------------

def test_solve_identity_and_diag():
    assert np.allclose(mk.solve(np.eye(3), np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])
    assert np.allclose(mk.solve(np.diag([2.0, 4.0]), np.array([2.0, 8.0])), [1.0, 2.0])


def test_solve_random_residual():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        x = mk.solve(a, b)
        assert np.max(np.abs(a @ x - b)) < 1e-10 * (mk.inf_norm(a) * np.max(np.abs(x)) + 1.0)


def test_solve_matrix_rhs():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    b = rng.standard_normal((4, 3))
    x = mk.solve(a, b)
    assert np.allclose(a @ x, b, atol=1e-10)


def test_solve_singular_raises():
    with pytest.raises(mk.Singular):
        mk.solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))


def test_solve_rejects_rank_deficient_at_working_precision():
    # LAPACK factors this without complaint (its last pivot is ~1e-14 and
    # the answer ~1e14); the rank test calls it singular
    with pytest.raises(mk.Singular):
        mk.solve(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]), np.array([1.0, 2.0]))
    # the test is scale free: the same matrix in other units is singular too,
    # and a well-conditioned tiny matrix is not
    with pytest.raises(mk.Singular):
        mk.solve(1e6 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]), np.array([1.0, 2.0]))
    assert np.allclose(mk.solve(1e-6 * np.eye(2), np.array([1e-6, 2e-6])), [1.0, 2.0])


def test_solve_shape_errors():
    with pytest.raises(ValueError):
        mk.solve(np.ones((2, 3)), np.ones(2))  # not square
    with pytest.raises(ValueError):
        mk.solve(np.eye(3), np.ones(2))  # right-hand side too short
    with pytest.raises(ValueError):
        mk.solve(np.ones(3), np.ones(3))  # not 2-D


# -- solve with a Cholesky factor ---------------------------------------------

def test_cho_solve_matches_lu():
    rng = np.random.default_rng(31)
    m = random_spd(rng, 6)
    lo = mk.cholesky(m)
    b = rng.standard_normal(6)
    assert np.allclose(mk.cho_solve(lo, b), mk.solve(m, b), atol=1e-9)
    # one factor serves a matrix of right-hand sides too
    rhs = rng.standard_normal((6, 3))
    assert np.allclose(mk.cho_solve(lo, rhs), mk.solve(m, rhs), atol=1e-9)


def test_cho_solve_factor_rejects_indefinite():
    # an indefinite matrix has no factor to solve with
    with pytest.raises(mk.NotPositiveDefinite):
        mk.cho_solve(mk.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]])), np.array([1.0, 1.0]))


# -- input checks --------------------------------------------------------------

def test_as_matrix_rejects_bad_input():
    assert mk.as_matrix([[1, 2], [3, 4]]).dtype == np.float64
    with pytest.raises(ValueError) as err:
        mk.as_matrix(np.ones(3))
    assert not isinstance(err.value, mk.NonFinite)
    # a non-finite entry is the one NonFinite refusal, still a ValueError
    with pytest.raises(mk.NonFinite, match="m contains non-finite entries"):
        mk.as_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]), "m")
    with pytest.raises(mk.NonFinite):
        mk.as_matrix(np.array([[np.inf]]))
    assert issubclass(mk.NonFinite, ValueError) and issubclass(mk.NonFinite, mk.MatrixKitError)


def test_require_symmetric_tolerance_is_relative():
    a = np.array([[1.0, 2.0], [2.0, 5.0]])
    skew = np.array([[0.0, 1e-5], [0.0, 0.0]])
    # the same absolute gap is roundoff on a large matrix, an error on a small one
    assert mk.require_symmetric(1e6 * a + skew).shape == (2, 2)
    with pytest.raises(ValueError):
        mk.require_symmetric(a + skew)
    with pytest.raises(ValueError):
        mk.require_symmetric(np.ones((2, 3)))


def test_symmetrize_is_exact():
    rng = np.random.default_rng(41)
    m = rng.standard_normal((5, 5))
    s = mk.symmetrize(m)
    assert np.array_equal(s, s.T)
    assert np.allclose(s, 0.5 * (m + m.T), rtol=0.0, atol=0.0)
    assert mk.inf_norm(np.zeros((0, 0))) == 0.0
