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

Q and R are given by their 1-D diagonals: their inverses appear verbatim in
the block, and keeping them diagonal makes that inversion exact.  The
variables are Y's upper triangle, row-major, then L row-major; `_layout`
states that once, for the stacked (k, d, d) blocks and for split_solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrixkit as mk
from .lmi_solver import AffineSdp, maximize


class DimensionMismatch(ValueError):
    """Model and parameter shapes do not line up."""


def _diag_entries(w, size, name):
    """The 1-D diagonal `w` of a weight, checked."""
    w = np.asarray(w, dtype=float)
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

    q, r        : 1-D diagonals of the state / input weights
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


def _layout(n, m):
    """(iu, e_y, e_l) of the variable layout: the indices of Y's upper
    triangle, row-major, and the unit bases of the Y variables
    (n(n+1)/2, n, n) and of the L variables (mn, m, n), in that order."""
    iu = np.triu_indices(n)
    e_y = np.zeros((len(iu[0]), n, n))
    k = np.arange(len(e_y))
    e_y[k, iu[0], iu[1]] = e_y[k, iu[1], iu[0]] = 1.0
    return iu, e_y, np.eye(m * n).reshape(m * n, m, n)


def split_solution(x, n, m):
    """Split a solver vector into (Y, L) by the variable layout."""
    x = np.asarray(x, dtype=float).ravel()
    iu = _layout(n, m)[0]
    n_y = len(iu[0])
    if len(x) != n_y + m * n:
        raise DimensionMismatch(f"expected {n_y + m * n} variables, got {len(x)}")
    y = np.zeros((n, n))
    y[iu] = y.T[iu] = x[:n_y]
    return y, x[n_y:].reshape(m, n)


@np.errstate(over="ignore", invalid="ignore")  # AffineSdp refuses a non-finite block
def build_synthesis_lmi(model: LinearModel, params: ClfParams):
    """Assemble the synthesis block LMI as an AffineSdp.

    Variables follow `_layout`; the objective is tr(Y).  Block dimension is
    3n + m + p: the (2n + m + p) Schur block, then -Y.
    """
    n, m, p = model.n_states, model.n_inputs, model.n_dist
    d = 3 * n + m + p
    ry = slice(0, n)          # R11 rows
    yy = slice(n, 2 * n)      # Y block rows
    ll = slice(2 * n, 2 * n + m)
    ww = slice(2 * n + m, 2 * n + m + p)
    pd = slice(2 * n + m + p, d)  # -Y < 0

    f0 = np.zeros((d, d))
    f0[yy, yy] = -np.diag(1.0 / params.q_diag(n))
    f0[ll, ll] = -np.diag(1.0 / params.r_diag(m))
    f0[ww, ww] = -params.dist_weight * np.eye(p)
    f0[ry, ww] = model.b_w
    f0[ww, ry] = model.b_w.T

    iu, e_y, e_l = _layout(n, m)
    fi = np.zeros((len(e_y) + len(e_l), d, d))
    fy, fl = fi[:len(e_y)], fi[len(e_y):]
    ae = model.a @ e_y
    fy[:, ry, ry] = ae + ae.transpose(0, 2, 1) + params.decay_rate * e_y
    fy[:, yy, ry] = fy[:, ry, yy] = e_y  # each e_y is symmetric
    fy[:, pd, pd] = -e_y
    be = model.b @ e_l
    fl[:, ry, ry] = be + be.transpose(0, 2, 1)
    fl[:, ll, ry] = e_l
    fl[:, ry, ll] = e_l.transpose(0, 2, 1)
    c = np.concatenate([iu[0] == iu[1], np.zeros(len(e_l))])  # tr(Y)
    return AffineSdp(c=c, f0=f0, fi=fi)


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
