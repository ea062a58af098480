"""Strict-feasibility SDP: maximize c'x subject to F(x) < 0.

F(x) = F0 + sum_i x_i F_i is a single symmetric block and "< 0" means
negative definite with margin eps, i.e. F(x) + eps*I <= 0.  The solver is
a textbook log-det barrier path follower:

    maximize   c'x + (1/t) * log det(-F(x) - eps*I)

for a geometrically increasing t, each stage solved by damped Newton with
an Armijo backtracking line search that also rejects steps leaving the
cone.  The self-concordance of -log det gives the usual duality-gap bound
d/t (d = block dimension), which is the stopping rule.

Each iterate carries one Cholesky factor of its slack S(x) = -F(x) - eps*I,
computed once when the line search tries that point.  It serves the
gradient and Hessian (triangular solves against the stacked F_i), the
barrier value (log det S = 2 sum log diag) and the cone test.

Phase 1 minimizes a slack s with F(x) - s*I < 0 starting from x = 0 and
s above the top eigenvalue of F(0); the problem is declared infeasible
when the slack cannot be pushed below -eps.

One block is all the synthesis work in this package needs; callers that
want several simultaneous constraints stack them block-diagonally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import matrixkit as mk


class Infeasible(Exception):
    """Phase 1 certified that no x achieves F(x) <= -eps*I."""

    # args is (slack,), so the exception pickles back as it was raised
    def __init__(self, slack):
        super().__init__(slack)
        self.slack = slack

    def __str__(self):
        return f"no strictly feasible point (best slack {self.slack:.3e})"


class SdpStatus(Enum):
    OPTIMAL = "optimal"
    ITERATION_LIMIT = "iteration_limit"


@dataclass
class AffineSdp:
    """max c'x  s.t.  F0 + sum_i x_i F_i + eps*I <= 0 (single block).

    c    : (k,) objective
    f0   : (d, d) symmetric constant block
    fi   : list of k symmetric (d, d) coefficient blocks
    eps  : strictness margin; default 1e-7 * (1 + max|F0|)
    """

    c: np.ndarray
    f0: np.ndarray
    fi: list
    eps: float | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        self.f0 = mk.require_symmetric(self.f0, "f0")
        self.fi = [mk.require_symmetric(f, f"fi[{i}]") for i, f in enumerate(self.fi)]
        if len(self.fi) != len(self.c):
            raise ValueError(f"{len(self.c)} objective entries but {len(self.fi)} coefficient blocks")
        d = self.f0.shape[0]
        for i, f in enumerate(self.fi):
            if f.shape != (d, d):
                raise ValueError(f"fi[{i}] has shape {f.shape}, expected {(d, d)}")
        if self.eps is None:
            self.eps = 1e-7 * (1.0 + mk.inf_norm(self.f0))
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")

    @property
    def num_vars(self):
        return len(self.c)

    @property
    def dim(self):
        return self.f0.shape[0]


@dataclass
class SdpSolution:
    x: np.ndarray
    objective_value: float
    iterations: int
    status: SdpStatus
    outer_objectives: list = field(default_factory=list)


# -- barrier internals -------------------------------------------------------

_T0 = 1.0
_T_GROWTH = 10.0
_GAP_TOL = 1e-6
_ARMIJO_RATIO = 0.5
_ARMIJO_SLOPE = 0.01
_MAX_NEWTON_PER_T = 80
_MAX_NEWTON_TOTAL = 4000
_DECREMENT_TOL = 1e-5


def _slack_factor(f0, fi, x):
    """Lower Cholesky factor of S(x) = -(f0 + sum x_i fi_i), or None outside
    the barrier cone (S not positive definite).  S is symmetrized, and a
    non-finite S raises ValueError."""
    s = -f0.copy()
    for xi, fmat in zip(x, fi):
        s -= xi * fmat
    try:
        return np.linalg.cholesky(mk.symmetrize(s))
    except np.linalg.LinAlgError:
        return None


def _barrier_value(tc, x, lo):
    """phi = -t*c'x - log det S, with log det S read off the factor lo of S."""
    return -float(tc @ x) - 2.0 * float(np.sum(np.log(np.diag(lo))))


def _newton_step_dir(hess, grad, k):
    """Newton direction, with a scaled ridge then steepest descent as
    fallbacks when the Hessian is numerically rank deficient (happens far
    out on unbounded slack directions where S is huge and S^-1 underflows)."""
    try:
        return mk.solve(hess, -grad)
    except mk.Singular:
        pass
    ridge = 1e-10 * max(mk.inf_norm(hess), 1.0)
    for _ in range(3):
        try:
            return mk.solve(hess + ridge * np.eye(k), -grad)
        except mk.Singular:
            ridge *= 1e4
    return -grad


def _newton_stage(f0, fi, fstack, x, lo, tc, stop_fn=None):
    """Damped Newton on the barrier at fixed t from x, whose slack factor is lo.

    Returns (x, lo, steps, stopped): the last accepted iterate with the
    factor its line search computed, and whether stop_fn accepted it.
    """
    k, d = len(x), len(lo)
    steps = 0
    while steps < _MAX_NEWTON_PER_T:
        minv = mk.cho_solve(lo, fstack)
        m = np.stack([minv[:, i * d:(i + 1) * d] for i in range(k)]) if k else np.zeros((0, d, d))
        grad = -tc + np.trace(m, axis1=1, axis2=2)
        hess = np.einsum("aij,bji->ab", m, m)
        step = _newton_step_dir(hess, grad, k)
        slope = float(grad @ step)
        # a positive slope is a numerical loss of descent: bail out
        if slope > 0.0 or 0.5 * (-slope) < _DECREMENT_TOL**2:
            return x, lo, steps, False
        phi0 = _barrier_value(tc, x, lo)
        alpha = 1.0
        while True:
            trial = x + alpha * step
            lo_trial = _slack_factor(f0, fi, trial)
            armijo = phi0 + _ARMIJO_SLOPE * alpha * slope
            if lo_trial is not None and _barrier_value(tc, trial, lo_trial) <= armijo:
                break
            alpha *= _ARMIJO_RATIO
            if alpha < 1e-14:
                return x, lo, steps, False
        x, lo = trial, lo_trial
        steps += 1
        if stop_fn is not None and stop_fn(x):
            return x, lo, steps, True
    return x, lo, steps, False


def _path_follow(f0, fi, c, gap_tol, x0, stop_early=None):
    """Run the outer t-loop from the interior point x0.  Returns (x,
    iterations, outer_objectives, clean).  A stage boundary changes only t,
    so the iterate's slack factor carries over to the next stage."""
    x = np.asarray(x0, dtype=float).copy()
    lo = _slack_factor(f0, fi, x)
    if lo is None:
        raise mk.NotPositiveDefinite("the starting point is outside the barrier cone")
    d = len(f0)
    fstack = np.hstack(fi) if len(fi) else np.zeros((d, 0))
    t = _T0
    iterations = 0
    outer_objectives = []
    clean = True
    while True:
        x, lo, steps, stopped = _newton_stage(f0, fi, fstack, x, lo, t * c, stop_early)
        iterations += steps
        outer_objectives.append(float(c @ x))
        if stopped:
            break
        if steps >= _MAX_NEWTON_PER_T:
            clean = False
        if d / t < gap_tol:
            break
        if iterations >= _MAX_NEWTON_TOTAL:
            clean = False
            break
        t *= _T_GROWTH
    return x, iterations, outer_objectives, clean


def find_strictly_feasible(prob: AffineSdp):
    """Phase 1: return x0 with F(x0) + eps*I < 0, or raise Infeasible.

    Solves min s subject to F(x) - s*I < 0 from the always-interior start
    (x, s) = (0, max_eig(F(0)) + 1 + eps); stops early once s is safely
    below -eps.
    """
    k = prob.num_vars
    d = prob.dim
    eye = np.eye(d)
    fi_aug = list(prob.fi) + [-eye]
    c_aug = np.zeros(k + 1)
    c_aug[-1] = -1.0  # maximize -s
    s0 = float(np.linalg.eigvalsh(prob.f0)[-1]) + 1.0 + prob.eps
    x0 = np.zeros(k + 1)
    x0[-1] = s0
    target = -1.05 * prob.eps

    xs, _, _, _ = _path_follow(
        prob.f0, fi_aug, c_aug,
        gap_tol=min(_GAP_TOL, 0.05 * prob.eps),
        x0=x0,
        stop_early=lambda z: z[-1] <= target,
    )
    slack = float(xs[-1])
    if slack > -prob.eps:
        raise Infeasible(slack)
    return xs[:-1]


def maximize(prob: AffineSdp):
    """Solve the SDP.  Raises Infeasible when phase 1 fails.

    Status is OPTIMAL when the path follower reached the d/t < 1e-6 gap,
    ITERATION_LIMIT when Newton budgets ran out first (the best iterate is
    still returned and is strictly inside the cone).
    """
    x0 = find_strictly_feasible(prob)
    f0s = prob.f0 + prob.eps * np.eye(prob.dim)
    x, iterations, outer, clean = _path_follow(f0s, prob.fi, prob.c, _GAP_TOL, x0)
    status = SdpStatus.OPTIMAL if clean else SdpStatus.ITERATION_LIMIT
    return SdpSolution(
        x=x,
        objective_value=float(prob.c @ x),
        iterations=iterations,
        status=status,
        outer_objectives=outer,
    )
