"""Strict-feasibility SDP: maximize c'x subject to F(x) < 0.

F(x) = F0 + sum_i x_i F_i is a single symmetric block and "< 0" means
negative definite with margin eps, i.e. F(x) + eps*I <= 0.  Written in the
dual standard form of semidefinite programming,

    maximize b'y  subject to  Z = C - sum_i y_i A_i >= 0
    (primal:  minimize <C, X>  subject to  <A_i, X> = b_i,  X >= 0)

with y = x, b = c, A_i = F_i and C = -(F0 + eps*I), it is solved by a
primal-dual interior-point method: the HKM search direction with
Mehrotra predictor-corrector steps (Helmberg, Rendl, Vanderbei &
Wolkowicz 1996; Todd, Toh & Tutuncu 1998, the method of SDPT3).

The dual start is strictly feasible and Z is recomputed from y after each
step, so every dual iterate -- the x returned -- lies strictly inside the
cone; its Cholesky factor is the membership test.  The primal start
X0 = xi*I need not satisfy <A_i, X> = b_i; the residual shrinks by
(1 - primal step) each iteration.  An iteration factors X, Z and the
Schur matrix M_ij = tr(A_i X A_j Z^-1) once each: with X = Lx Lx' and
Z = Lz Lz', M is the Gram matrix of the blocks Lz^-1 A_i Lx, one matmul
over the stacked (k, d, d) blocks, and its one factor serves both the
predictor and the corrector.  Step lengths come from the eigenvalues of
L^-1 dX L^-T (and the same for Z).  The run stops once the duality gap
<X, Z> is below 1e-6, the d/t gap of a log-det barrier (phase 1: also
below 0.05*eps), and the primal residual is below 1e-8 relative.

Phase 1 runs the same method on min s subject to F(x) - s*I < 0 from an
always-interior start; the problem is declared infeasible when the
converged slack is not below -eps.

One block is all the synthesis work in this package needs; callers that
want several simultaneous constraints stack them block-diagonally.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class NumericalBreakdown(Exception):
    """An iterate went non-finite: the problem's scales overflow float64."""


class SdpStatus(Enum):
    OPTIMAL = "optimal"
    ITERATION_LIMIT = "iteration_limit"


@dataclass
class AffineSdp:
    """max c'x  s.t.  F0 + sum_i x_i F_i + eps*I <= 0 (single block).

    c    : (k,) objective
    f0   : (d, d) symmetric constant block
    fi   : (k, d, d) symmetric coefficient blocks, one array (a sequence is stacked)
    eps  : strictness margin; default 1e-7 * (1 + max|F0|)
    """

    c: np.ndarray
    f0: np.ndarray
    fi: np.ndarray
    eps: float | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        self.f0 = mk.require_symmetric(self.f0, "f0")
        self.fi = np.asarray(self.fi, dtype=float)
        d = self.f0.shape[0]
        if self.fi.shape != (len(self.c), d, d):
            raise ValueError(f"fi has shape {self.fi.shape}, expected {(len(self.c), d, d)}")
        for i, f in enumerate(self.fi):
            mk.require_symmetric(f, f"fi[{i}]")
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


# -- primal-dual internals -----------------------------------------------------

_GAP_TOL = 1e-6
_RESIDUAL_TOL = 1e-8
_MAX_ITERATIONS = 100


def _factor(m):
    """Lower Cholesky factor of the symmetrized m, or None when m is not
    positive definite.  A non-finite m raises NumericalBreakdown, so a
    breakdown stops the solve instead of passing NaN on."""
    if not np.isfinite(m).all():
        raise NumericalBreakdown(f"a {len(m)} x {len(m)} iterate has non-finite entries")
    try:
        return np.linalg.cholesky(0.5 * (m + m.T))
    except np.linalg.LinAlgError:
        return None


def _schur_factor(m):
    """Cholesky factor of the Schur matrix, with a growing ridge when it is
    numerically singular (linearly dependent A_i, e.g. an F_i equal to the
    identity that phase 1 adds)."""
    lm = _factor(m)
    ridge = 1e-12 * max(float(np.max(np.diag(m), initial=0.0)), mk.ABS_FLOOR)
    while lm is None:
        lm = _factor(m + ridge * np.eye(len(m)))
        ridge *= 1e4
    return lm


def _max_step(linv, delta):
    """Largest alpha with L L' + alpha*delta still positive semidefinite,
    given linv = L^-1 (inf when delta keeps it so for every alpha)."""
    lam = float(np.linalg.eigvalsh(linv @ delta @ linv.T)[0])
    return -1.0 / lam if lam < 0.0 else np.inf


@np.errstate(over="ignore", invalid="ignore")  # _factor refuses a non-finite iterate
def _primal_dual(cmat, a, b, y, gap_tol, stop_early=None):
    """Maximize b'y subject to cmat - sum_i y_i a[i] > 0 from the interior
    point y.  Returns (y, iterations, converged); converged is True when
    stop_early(y) held, and False when the iteration budget ran out or a
    step lost definiteness to roundoff (y is then the last interior point)."""
    k, d = len(a), len(cmat)
    af = a.reshape(k, d * d)

    def dual_slack(v):
        return cmat - (v @ af).reshape(d, d)

    y = np.asarray(y, dtype=float).copy()
    z = dual_slack(y)
    lz = _factor(z)
    if lz is None:
        raise mk.NotPositiveDefinite("the starting point is outside the cone")
    # SDPT3's primal start: a multiple of I sized by the data
    xi = max(10.0, np.sqrt(d),
             d * float(np.max((1.0 + np.abs(b)) / (1.0 + np.linalg.norm(af, axis=1)))))
    x, lx = xi * np.eye(d), np.sqrt(xi) * np.eye(d)
    residual_tol = _RESIDUAL_TOL * (1.0 + float(np.linalg.norm(b)))
    fraction = 0.9
    for iteration in range(_MAX_ITERATIONS + 1):
        if stop_early is not None and stop_early(y):
            return y, iteration, True
        rp = b - af @ x.ravel()
        gap = float(np.vdot(x, z))
        if gap < gap_tol and float(np.linalg.norm(rp)) <= residual_tol:
            return y, iteration, True
        if iteration == _MAX_ITERATIONS:
            break
        mu = gap / d
        lxi = np.linalg.inv(lx)
        lzi = np.linalg.inv(lz)
        zinv = lzi.T @ lzi
        blocks = (lzi @ a @ lx).reshape(k, d * d)
        lm = _schur_factor(blocks @ blocks.T)

        # predictor: the affine-scaling direction (sigma = 0)
        dya = mk.cho_solve(lm, b)
        dza = -(dya @ af).reshape(d, d)
        xdz = x @ dza @ zinv
        dxa = -x - 0.5 * (xdz + xdz.T)
        ap = min(1.0, _max_step(lxi, dxa))
        ad = min(1.0, _max_step(lzi, dza))
        sigma = min(1.0, (float(np.vdot(x + ap * dxa, z + ad * dza)) / d / mu) ** 3)

        # corrector: centre on sigma*mu and cancel the predictor's second-order term
        corr = dxa @ dza @ zinv
        dy = mk.cho_solve(lm, b - sigma * mu * (af @ zinv.ravel()) + af @ corr.ravel())
        dz = -(dy @ af).reshape(d, d)
        dx = sigma * mu * zinv - corr - x @ dz @ zinv
        dx = 0.5 * (dx + dx.T) - x
        ap = min(1.0, fraction * _max_step(lxi, dx))
        ad = min(1.0, fraction * _max_step(lzi, dz))
        x_next, y_next = x + ap * dx, y + ad * dy
        z_next = dual_slack(y_next)
        lx, lz = _factor(x_next), _factor(z_next)
        if lx is None or lz is None:
            break  # roundoff put a step on the cone's boundary: keep the last y
        x, y, z = x_next, y_next, z_next
        fraction = 0.9 + 0.09 * min(ap, ad)
    return y, iteration, False


def find_strictly_feasible(prob: AffineSdp):
    """Phase 1: return x0 with F(x0) + eps*I < 0, or raise Infeasible.

    Solves min s subject to F(x) - s*I < 0 from the always-interior start
    (x, s) = (0, max_eig(F(0)) + 1 + eps); stops early once s is safely
    below -eps, and otherwise raises Infeasible with the converged s.
    """
    k = prob.num_vars
    d = prob.dim
    a = np.concatenate([prob.fi, -np.eye(d)[None]])
    b = np.zeros(k + 1)
    b[-1] = -1.0  # maximize -s
    y0 = np.zeros(k + 1)
    y0[-1] = float(np.linalg.eigvalsh(prob.f0)[-1]) + 1.0 + prob.eps
    target = -1.05 * prob.eps

    ys, _, _ = _primal_dual(-prob.f0, a, b, y0,
                            gap_tol=min(_GAP_TOL, 0.05 * prob.eps),
                            stop_early=lambda v: v[-1] <= target)
    slack = float(ys[-1])
    if slack > -prob.eps:
        raise Infeasible(slack)
    return ys[:-1]


def maximize(prob: AffineSdp):
    """Solve the SDP.  Raises Infeasible when phase 1 fails, NumericalBreakdown on overflow.

    Status is OPTIMAL when the gap and residual tolerances were met,
    ITERATION_LIMIT when the iteration budget ran out first or roundoff
    ended the run (the last dual iterate is still returned and is strictly
    inside the cone).
    `iterations` counts the interior-point iterations after phase 1.
    """
    x0 = find_strictly_feasible(prob)
    d = prob.dim
    x, iterations, converged = _primal_dual(-prob.f0 - prob.eps * np.eye(d), prob.fi, prob.c,
                                            x0, _GAP_TOL)
    return SdpSolution(
        x=x,
        objective_value=float(prob.c @ x),
        iterations=iterations,
        status=SdpStatus.OPTIMAL if converged else SdpStatus.ITERATION_LIMIT,
    )
