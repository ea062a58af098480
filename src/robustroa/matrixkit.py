"""Strict wrappers around numpy.linalg for small dense problems.

Everything in this package works on plain numpy float64 arrays (row-major,
2-D for matrices, 1-D for vectors).  LAPACK does the factorizations; the
wrappers add the failure modes the package relies on, and let one factor
serve many solves:

* `cholesky`  -- raises NotPositiveDefinite on any non-positive pivot; it
                 is the definiteness test of the Lyapunov matrix recovery,
* `cho_solve` -- solves with a factor from `cholesky`, so one factor
                 serves every right-hand side,
* `solve`     -- raises Singular when the matrix is rank deficient at
                 working precision, which LAPACK's LU reports only for an
                 exactly zero pivot,
* `as_matrix` -- raises NonFinite on a NaN or inf entry: the package's one
                 refusal of a non-finite array, which the SDP and HJ
                 solvers raise too.

Tolerances are relative to the largest absolute entry of the input with an
absolute floor of 1e-14, so the kernels behave the same for certificates
scaled in grams or tonnes.
"""

from __future__ import annotations

import numpy as np

ABS_FLOOR = 1e-14


class MatrixKitError(Exception):
    """Base class for numerical failures raised by this module."""


class NotPositiveDefinite(MatrixKitError):
    """Cholesky hit a pivot <= 0: the matrix has no SPD factorization."""


class Singular(MatrixKitError):
    """The matrix is rank deficient at working precision."""


class NonFinite(MatrixKitError, ValueError):
    """An array holds NaN or inf: its scales overflow float64."""


def as_matrix(a, name="matrix"):
    """Coerce to a finite float64 2-D array (copies only when needed)."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFinite(f"{name} contains non-finite entries")
    return m


def inf_norm(a):
    """Largest absolute entry (0.0 for an empty array)."""
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


def require_symmetric(a, name="matrix"):
    a = as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    gap = inf_norm(a - a.T)
    if gap > 1e-10 * inf_norm(a) + ABS_FLOOR:
        raise ValueError(f"{name} is not symmetric (gap {gap:.3e})")
    return a


def symmetrize(a):
    """(a + a') / 2, shedding roundoff asymmetry."""
    a = as_matrix(a)
    return 0.5 * (a + a.T)


def cholesky(m):
    """Lower-triangular L with L L' = m for symmetric positive definite m.

    Raises NotPositiveDefinite on the first pivot <= 0; that is the
    definiteness test of the Lyapunov matrix recovery.
    """
    try:
        return np.linalg.cholesky(require_symmetric(m))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{exc} (no Cholesky factorization)") from None


def cho_solve(lo, b):
    """Solve (lo lo') x = b for a lower-triangular factor lo from cholesky;
    b may be a vector or a matrix of right-hand sides."""
    return np.linalg.solve(lo.T, np.linalg.solve(lo, b))


def solve(a, b):
    """Solve a x = b; b may be a vector or a matrix of right-hand sides.

    Raises Singular when the smallest singular value of a is below
    1e-12 * max|a| (plus the absolute floor).
    """
    a = as_matrix(a, "a")
    if a.shape[1] != a.shape[0]:
        raise ValueError(f"a must be square, got {a.shape}")
    sv = np.linalg.svd(a, compute_uv=False)
    if sv.size and sv[-1] < 1e-12 * inf_norm(a) + ABS_FLOOR:
        raise Singular(f"smallest singular value {sv[-1]:.3e} below tolerance")
    b = np.asarray(b, dtype=float)
    if b.shape[:1] != a.shape[:1]:
        raise ValueError("right-hand side has wrong length")
    return np.linalg.solve(a, b)
