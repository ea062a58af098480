"""Short-horizon tracking MPC via successive linearization.

One solver call does:

1. linearize the continuous dynamics f(x, u) about the reference state at
   each horizon stage (central finite differences),
2. discretize each stage with explicit Euler at the controller period,
3. minimize  sum_{i=0}^{k-1}  |x(i+1) - x_ref(i+1)|_Q^2 + |u(i)|_R^2
   over the stacked controls by solving the condensed normal equations in
   closed form (horizons here are 2-4 stages, so the QP is tiny),
4. clamp the planned controls to the input box.

Q is applied to the successor state of each stage: penalizing the current
state would leave the last control priced only by R, and with k = 1 the
problem would not depend on u at all.  A singular R (the quadruped runs
R = 0) is handled by a small scale-relative ridge on the Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matrixkit as mk


class SingularHessian(Exception):
    """Condensed normal equations are rank deficient even after the ridge."""


@dataclass
class MpcConfig:
    """Weights, period, horizon, and (optional) input box.

    q, r   : diagonal stage weights (entries, length n and m)
    dt     : controller period used for the Euler prediction
    horizon: number of stages k >= 1
    u_lo, u_hi: input box, clamped after the unconstrained solve
    """

    q: np.ndarray
    r: np.ndarray
    dt: float
    horizon: int = 2
    u_lo: np.ndarray | None = None
    u_hi: np.ndarray | None = None
    # per-solve constants, built from q, r and horizon once
    qbar: np.ndarray = field(init=False, repr=False, compare=False)
    rbar: np.ndarray = field(init=False, repr=False, compare=False)
    eye_n: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float).ravel()
        self.r = np.asarray(self.r, dtype=float).ravel()
        if np.any(self.q < 0.0) or np.any(self.r < 0.0):
            raise ValueError("q and r entries must be nonnegative")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        self.horizon = int(self.horizon)
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        for name in ("u_lo", "u_hi"):
            val = getattr(self, name)
            if val is not None:
                setattr(self, name, np.asarray(val, dtype=float).ravel())
        self.qbar = np.tile(self.q, self.horizon)
        self.rbar = np.tile(self.r, self.horizon)
        self.eye_n = np.eye(len(self.q))


def linearize_fd(f, x0, u0, step=1e-6):
    """Central-difference Jacobians of f(x, u) and the affine remainder.

    Returns (a, b, g0) with f(x, u) ~= a x + b u + g0 near (x0, u0).
    The step is scaled per coordinate by (1 + |coordinate|).  f receives x
    and u as lists of Python floats; each Jacobian column is differenced
    on floats, and only g0 = f(x0, u0) - a x0 - b u0 is formed in numpy.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    u0 = np.asarray(u0, dtype=float).ravel()
    x_f, u_f = x0.tolist(), u0.tolist()
    f00 = np.asarray(f(x_f, u_f), dtype=float).ravel()

    def column(v, j, at):
        # (f at v + h e_j - f at v - h e_j) / 2h; `at` evaluates f at a
        # perturbed copy of v
        h = step * (1.0 + abs(v[j]))
        vp, vm = v.copy(), v.copy()
        vp[j] += h
        vm[j] -= h
        return [(p - m) / (2 * h) for p, m in zip(at(vp), at(vm))]

    n, m = len(x_f), len(u_f)
    a = np.array([column(x_f, j, lambda x: f(x, u_f)) for j in range(n)]).reshape(n, n)
    b = np.array([column(u_f, j, lambda u: f(x_f, u)) for j in range(m)]).reshape(m, n)
    # transposed into C order, the layout every product downstream expects
    a, b = a.T.copy(), b.T.copy()
    return a, b, f00 - a @ x0 - b @ u0


def mpc_step(f, x_now, x_ref, cfg: MpcConfig, u_lin):
    """One receding-horizon solve; returns the clamped plan u_seq (k, m).
    The caller applies row 0 and discards the rest.

    f      : continuous dynamics f(x, u) -> xdot (nonlinear is fine)
    x_now  : current state (n,)
    x_ref  : reference states along the horizon, shape (k+1, n); row i is
             the reference at t + i*dt.  Row 0 is the linearization point
             for stage 0, rows 1..k are the tracked successor states.
    u_lin  : linearization input (m,), used at every stage.
    """
    x_now = np.asarray(x_now, dtype=float).ravel()
    x_ref = np.atleast_2d(np.asarray(x_ref, dtype=float))
    k = cfg.horizon
    n = len(x_now)
    if x_ref.shape != (k + 1, n):
        raise ValueError(f"x_ref must be ({k + 1}, {n}), got {x_ref.shape}")
    if len(cfg.q) != n:
        raise ValueError(f"q has {len(cfg.q)} entries for {n} states")
    m = len(cfg.r)

    # Stage-wise Euler models x_{i+1} = ad_i x_i + bd_i u_i + gd_i.
    ad, bd, gd = [], [], []
    for i in range(k):
        a_i, b_i, g_i = linearize_fd(f, x_ref[i], u_lin)
        ad.append(cfg.eye_n + cfg.dt * a_i)
        bd.append(cfg.dt * b_i)
        gd.append(cfg.dt * g_i)

    # Condense: stacked successors X = m_mat U + v_free.
    m_mat = np.zeros((k * n, k * m))
    v_free = np.zeros(k * n)
    x_free = x_now.copy()
    for i in range(k):
        rows = slice(i * n, (i + 1) * n)
        if i > 0:
            m_mat[rows] = ad[i] @ m_mat[slice((i - 1) * n, i * n)]
        m_mat[rows, i * m:(i + 1) * m] = bd[i]
        x_free = ad[i] @ x_free + gd[i]
        v_free[rows] = x_free

    qbar, rbar = cfg.qbar, cfg.rbar
    resid = v_free - x_ref[1:].ravel()
    hess = m_mat.T @ (qbar[:, None] * m_mat) + np.diag(rbar)
    rhs = -m_mat.T @ (qbar * resid)
    if np.min(rbar) <= 0.0:
        # keep the ridge above the solver's rank test (1e-12 * max|H|) so a
        # zero input weight stays solvable at any problem scale
        reg = max(1e-9, 1e-10 * float(np.max(np.abs(hess))))
        hess = hess + reg * np.eye(k * m)
    try:
        u_stack = mk.solve(hess, rhs)
    except mk.Singular as exc:
        raise SingularHessian(str(exc)) from None

    u_seq = u_stack.reshape(k, m)
    if cfg.u_lo is not None:
        u_seq = np.maximum(u_seq, cfg.u_lo)
    if cfg.u_hi is not None:
        u_seq = np.minimum(u_seq, cfg.u_hi)
    return u_seq
