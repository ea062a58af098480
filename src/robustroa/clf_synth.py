"""Control-Lyapunov-function synthesis for tracking-error dynamics.

For error dynamics  e' = A e + B u + B_w w  we look for a quadratic
storage function E(e) = e' P e and linear feedback u = K e such that

    E' <= -lambda * E - e'Qe - u'Ru + mu * w'w                     (*)

along closed-loop trajectories.  (*) implies two things used downstream:
E decays at rate lambda whenever mu*w'w <= lambda*E, and the sublevel set
{E < mu*w_max^2 / lambda} is invariant for every disturbance with
||w||_2 <= w_max.

Substituting Y = P^-1, L = K Y and taking Schur complements turns (*)
into one affine LMI in (Y, L):

    [ (AY+BL)' + (AY+BL) + lambda Y    Y       L'      B_w  ]
    [              Y                 -Q^-1     0        0   ]
    [              L                    0    -R^-1      0   ]   < 0
    [             B_w'                  0       0    -mu*I  ]

A second diagonal block, -Y < 0, makes every strictly feasible point
have Y > eps*I (eps: the solver's strictness margin), so it recovers a
storage function.  The first block alone does not: at a large lambda it
is feasible with a negative definite Y, since lambda*Y then makes the
top-left block negative by itself.  Maximizing
tr(Y) = tr(P^-1) favours a large invariant ellipsoid.

Q and R must be diagonal: their inverses appear verbatim in the block,
and keeping them diagonal makes that inversion exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrixkit as mk
from .lmi_solver import AffineSdp, maximize


class DimensionMismatch(ValueError):
    """Model and parameter shapes do not line up."""


def _diag_entries(w, size, name):
    """Accept a 1-D diagonal or an exactly diagonal 2-D matrix."""
    w = np.asarray(w, dtype=float)
    if w.ndim == 2:
        if mk.inf_norm(w - np.diag(np.diag(w))) > 0.0:
            raise DimensionMismatch(f"{name} must be diagonal")
        w = np.diag(w).copy()
    if w.shape != (size,):
        raise DimensionMismatch(f"{name} diagonal must have {size} entries, got shape {w.shape}")
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise DimensionMismatch(f"{name} diagonal entries must be positive and finite")
    return w


@dataclass
class LinearModel:
    """Error dynamics e' = A e + B u + B_w w, the linear model the gain is
    synthesized on (a plant's Jacobians at its operating point)."""

    a: np.ndarray
    b: np.ndarray
    b_w: np.ndarray

    def __post_init__(self):
        self.a = mk.as_matrix(self.a, "a")
        self.b = mk.as_matrix(self.b, "b")
        self.b_w = mk.as_matrix(self.b_w, "b_w")
        n = self.a.shape[0]
        if self.a.shape != (n, n):
            raise DimensionMismatch(f"a must be square, got {self.a.shape}")
        if self.b.shape[0] != n or self.b_w.shape[0] != n:
            raise DimensionMismatch("b and b_w must have as many rows as a")

    @property
    def n_states(self):
        return self.a.shape[0]

    @property
    def n_inputs(self):
        return self.b.shape[1]

    @property
    def n_dist(self):
        return self.b_w.shape[1]


@dataclass
class ClfParams:
    """Weights of the supply-rate inequality (*) in the module docstring.

    q, r        : diagonal state / input weights (1-D entries or diagonal 2-D)
    decay_rate  : exponential decay lambda > 0
    dist_weight : disturbance gain mu > 0
    """

    q: np.ndarray
    r: np.ndarray
    decay_rate: float
    dist_weight: float

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.r = np.asarray(self.r, dtype=float)
        if self.decay_rate <= 0.0 or not np.isfinite(self.decay_rate):
            raise DimensionMismatch("decay_rate must be positive")
        if self.dist_weight <= 0.0 or not np.isfinite(self.dist_weight):
            raise DimensionMismatch("dist_weight must be positive")

    def q_diag(self, n):
        return _diag_entries(self.q, n, "q")

    def r_diag(self, m):
        return _diag_entries(self.r, m, "r")


@dataclass
class ClfCertificate:
    """Synthesized feedback K, Lyapunov matrix P, and (optionally) the
    disturbance bound w_max with its invariant level c = mu*w_max^2/lambda."""

    k: np.ndarray
    p: np.ndarray
    params: ClfParams
    w_max: float | None = None
    level: float | None = None

    def set_disturbance_bound(self, w_max):
        """Fix w_max and the invariant sublevel {E < level}."""
        self.w_max = float(w_max)
        self.level = roa_level(self.params, w_max)
        return self


def unpack_sym(vals, n):
    """Symmetric n x n matrix from its upper-triangle entries, row-major."""
    vals = np.asarray(vals, dtype=float).ravel()
    if len(vals) != n * (n + 1) // 2:
        raise DimensionMismatch(f"expected {n * (n + 1) // 2} entries for n={n}, got {len(vals)}")
    y = np.zeros((n, n))
    it = iter(vals)
    for i in range(n):
        for j in range(i, n):
            y[i, j] = y[j, i] = next(it)
    return y


def split_solution(x, n, m):
    """Split a solver vector into (Y, L): Y upper triangle first, then L row-major."""
    x = np.asarray(x, dtype=float).ravel()
    n_y = n * (n + 1) // 2
    if len(x) != n_y + m * n:
        raise DimensionMismatch(f"expected {n_y + m * n} variables, got {len(x)}")
    return unpack_sym(x[:n_y], n), x[n_y:].reshape(m, n)


def build_synthesis_lmi(model: LinearModel, params: ClfParams):
    """Assemble the synthesis block LMI as an AffineSdp.

    Variables are the upper triangle of Y (n(n+1)/2, row-major) followed by
    the entries of L (m x n, row-major); the objective is tr(Y).  Block
    dimension is 3n + m + p: the (2n + m + p) Schur block, then -Y.
    """
    n, m, p = model.n_states, model.n_inputs, model.n_dist
    q = params.q_diag(n)
    r = params.r_diag(m)
    lam = params.decay_rate
    d = 3 * n + m + p
    ry = slice(0, n)          # R11 rows
    yy = slice(n, 2 * n)      # Y block rows
    ll = slice(2 * n, 2 * n + m)
    ww = slice(2 * n + m, 2 * n + m + p)
    pd = slice(2 * n + m + p, d)  # -Y < 0

    f0 = np.zeros((d, d))
    f0[yy, yy] = -np.diag(1.0 / q)
    f0[ll, ll] = -np.diag(1.0 / r)
    f0[ww, ww] = -params.dist_weight * np.eye(p)
    f0[ry, ww] = model.b_w
    f0[ww, ry] = model.b_w.T

    c = []
    fi = []
    # Y variables, upper triangle row-major
    for i in range(n):
        for j in range(i, n):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            if i != j:
                e[j, i] = 1.0
            blk = np.zeros((d, d))
            ae = model.a @ e
            blk[ry, ry] = ae + ae.T + lam * e
            blk[yy, ry] = e
            blk[ry, yy] = e  # e is symmetric
            blk[pd, pd] = -e
            fi.append(blk)
            c.append(1.0 if i == j else 0.0)
    # L variables, row-major
    for a in range(m):
        for bcol in range(n):
            e = np.zeros((m, n))
            e[a, bcol] = 1.0
            blk = np.zeros((d, d))
            be = model.b @ e
            blk[ry, ry] = be + be.T
            blk[ll, ry] = e
            blk[ry, ll] = e.T
            fi.append(blk)
            c.append(0.0)
    return AffineSdp(c=np.array(c), f0=f0, fi=fi)


def recover_gains(y, l):
    """K = L Y^-1 and P = Y^-1 (symmetrized) from the LMI variables.

    Y must be symmetric positive definite; its one Cholesky factor serves
    both solves and raises NotPositiveDefinite otherwise.
    """
    y = mk.require_symmetric(y, "y")
    l = mk.as_matrix(l, "l")
    if l.shape[1] != y.shape[0]:
        raise DimensionMismatch(f"l has {l.shape[1]} columns, y is {y.shape[0]} x {y.shape[0]}")
    lo = mk.cholesky(y)
    p = mk.symmetrize(mk.cho_solve(lo, np.eye(y.shape[0])))
    k = mk.cho_solve(lo, l.T).T
    return k, p


def verify_closed_loop(model: LinearModel, cert: ClfCertificate):
    """Top eigenvalue of the closed-loop certificate block; < 0 certifies (*).

    The block is the Schur-complement form of (*) in the original
    variables:

        (A+BK)'P + P(A+BK) + lambda*P + Q + K'RK + P B_w B_w' P / mu
    """
    n, m = model.n_states, model.n_inputs
    q = np.diag(cert.params.q_diag(n))
    r = np.diag(cert.params.r_diag(m))
    acl = model.a + model.b @ cert.k
    mcert = (
        acl.T @ cert.p + cert.p @ acl
        + cert.params.decay_rate * cert.p
        + q + cert.k.T @ r @ cert.k
        + cert.p @ model.b_w @ model.b_w.T @ cert.p / cert.params.dist_weight
    )
    return float(np.linalg.eigvalsh(mk.symmetrize(mcert))[-1])


def roa_level(params: ClfParams, w_max):
    """Invariant level c = mu * w_max^2 / lambda (for ||w||_2 <= w_max)."""
    w_max = float(w_max)
    if w_max < 0.0:
        raise ValueError("w_max must be nonnegative")
    return params.dist_weight * w_max**2 / params.decay_rate


def synthesize(model: LinearModel, params: ClfParams):
    """Full pipeline: build the LMI, solve, recover (K, P), sanity-check.

    Returns (certificate, solution).  Raises lmi_solver.Infeasible when no
    strictly feasible point exists, which includes the case of no positive
    definite Y: the -Y block keeps every point it returns at Y > eps*I.
    """
    prob = build_synthesis_lmi(model, params)
    sol = maximize(prob)
    y, l = split_solution(sol.x, model.n_states, model.n_inputs)
    k, p = recover_gains(y, l)
    cert = ClfCertificate(k=k, p=p, params=params)
    return cert, sol
