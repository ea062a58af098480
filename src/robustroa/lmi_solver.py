"""Strict-feasibility SDP: maximize c'x subject to F(x) < 0.

F(x) = F0 + sum_i x_i F_i is a single symmetric block and "< 0" means
negative definite with margin eps, i.e. F(x) + eps*I <= 0.  The solver is
a textbook log-det barrier path follower:

    maximize   c'x + (1/t) * log det(-F(x) - eps*I)

for a geometrically increasing t, each stage solved by damped Newton with
an Armijo backtracking line search that also rejects steps leaving the
cone.  The self-concordance of -log det gives the usual duality-gap bound
d/t (d = block dimension), which is the stopping rule.

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

    def __init__(self, slack, message=None):
        self.slack = slack
        super().__init__(message or f"no strictly feasible point (best slack {slack:.3e})")


class SdpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
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

    def evaluate(self, x):
        """F(x) without the eps shift."""
        x = np.asarray(x, dtype=float).ravel()
        if len(x) != self.num_vars:
            raise ValueError(f"x has {len(x)} entries, expected {self.num_vars}")
        f = self.f0.copy()
        for xi, fmat in zip(x, self.fi):
            f += xi * fmat
        return f


@dataclass
class SdpSolution:
    x: np.ndarray
    objective_value: float
    max_block_eig: float
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


def _slack_matrix(f0, fi, x):
    """S(x) = -(f0 + sum x_i fi_i); barrier domain is S > 0."""
    s = -f0.copy()
    for xi, fmat in zip(x, fi):
        s -= xi * fmat
    return mk.symmetrize(s)


def _barrier_value(f0, fi, x, tc):
    """phi = -t*c'x - log det S(x), or None outside the cone."""
    s = _slack_matrix(f0, fi, x)
    try:
        logdet = mk.logdet_posdef(s)
    except mk.NotPositiveDefinite:
        return None
    return -float(tc @ x) - logdet


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


def _newton_stage(f0, fi, x, tc, budget, stop_fn=None):
    """Damped Newton on the barrier at fixed t.  Returns (x, steps, stalled)."""
    k = len(x)
    fstack = np.hstack([f for f in fi]) if k else np.zeros((f0.shape[0], 0))
    steps = 0
    while steps < budget:
        s = _slack_matrix(f0, fi, x)
        minv = mk.solve_posdef(s, fstack)  # we only ever call this from inside the cone
        d = f0.shape[0]
        m = np.stack([minv[:, i * d:(i + 1) * d] for i in range(k)]) if k else np.zeros((0, d, d))
        grad = -tc + np.trace(m, axis1=1, axis2=2)
        hess = np.einsum("aij,bji->ab", m, m)
        step = _newton_step_dir(hess, grad, k)
        slope = float(grad @ step)
        if slope > 0.0:  # numerical loss of descent, bail out
            return x, steps, True
        if 0.5 * (-slope) < _DECREMENT_TOL**2:
            return x, steps, False
        phi0 = -float(tc @ x) - mk.logdet_posdef(s)
        alpha = 1.0
        while True:
            trial = x + alpha * step
            phi1 = _barrier_value(f0, fi, trial, tc)
            if phi1 is not None and phi1 <= phi0 + _ARMIJO_SLOPE * alpha * slope:
                break
            alpha *= _ARMIJO_RATIO
            if alpha < 1e-14:
                return x, steps, True
        x = trial
        steps += 1
        if stop_fn is not None and stop_fn(x):
            return x, steps, False
    return x, steps, True


def _path_follow(f0, fi, c, dim, gap_tol, x0, stop_early=None):
    """Run the outer t-loop.  Returns (x, iterations, outer_objectives, clean)."""
    x = np.asarray(x0, dtype=float).copy()
    t = _T0
    iterations = 0
    outer_objectives = []
    clean = True
    while True:
        x, steps, stalled = _newton_stage(f0, fi, x, t * c, _MAX_NEWTON_PER_T, stop_fn=stop_early)
        iterations += steps
        outer_objectives.append(float(c @ x))
        if stalled and steps >= _MAX_NEWTON_PER_T:
            clean = False
        if stop_early is not None and stop_early(x):
            break
        if dim / t < gap_tol:
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
        prob.f0, fi_aug, c_aug, d,
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
    x, iterations, outer, clean = _path_follow(f0s, prob.fi, prob.c, prob.dim, _GAP_TOL, x0)
    fx = prob.evaluate(x)
    status = SdpStatus.OPTIMAL if clean else SdpStatus.ITERATION_LIMIT
    return SdpSolution(
        x=x,
        objective_value=float(prob.c @ x),
        max_block_eig=float(np.linalg.eigvalsh(fx)[-1]),
        iterations=iterations,
        status=status,
        outer_objectives=outer,
    )
