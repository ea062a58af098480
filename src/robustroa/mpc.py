"""Short-horizon tracking MPC via successive linearization.

One solver call does:

1. linearize the continuous dynamics f(x, u) about the reference state at
   each horizon stage with the model's analytic Jacobians; f itself is
   evaluated once per stage, for the affine remainder only,
2. discretize each stage with explicit Euler at the controller period,
3. minimize  sum_{i=0}^{k-1}  |x(i+1) - x_ref(i+1)|_Q^2 + |u(i)|_R^2
   over the stacked controls by the condensed normal equations in closed
   form (horizons here are 2-4 stages, so the QP is tiny),
4. clamp the planned controls to the input box.

Q is applied to the successor state of each stage: penalizing the current
state would leave the last control priced only by R, and with k = 1 the
problem would not depend on u at all.  Any input weight below a small
scale-relative ridge (the quadruped runs R = 0) is topped up by that ridge
on the Hessian, so the Hessian is positive definite by construction and
the solve needs no rank test.

Of step 3, only the free response and the final solve depend on the
state and the reference.  The rest depends on the stage Jacobians alone:
the Euler matrices, the condensed input map and the Hessian.  The config
holds that condensation for the last Jacobians it saw and rebuilds it
only when one of them changes.  Along the figure-8
(phi_ref = 0, hover input) that is once per run; on the quadruped it is
every solve, since the torque row of B moves with the reference's
position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import matrixkit as mk

# Largest [mpc] horizon: the condensed matrices grow with its square, and
# 200 stages of the quadruped already hold a 1200 x 800 input map.
MAX_HORIZON = 200


class Model(NamedTuple):
    """A controller model: f(x, u) -> xdot and jac(x, u) -> (df/dx, df/du).

    Both take x and u as lists of Python floats.  jac may hand back the
    arrays of an earlier call while the point it depends on has not moved,
    so callers must not write into them.
    """

    f: Callable
    jac: Callable


@dataclass
class MpcConfig:
    """Weights, period, horizon, and (optional) input box.

    q, r   : diagonal stage weights (entries, length n and m)
    dt     : controller period used for the Euler prediction
    horizon: number of stages, 1 <= k <= MAX_HORIZON
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
    # (stage Jacobian bytes, _condense of them) of the last solve
    condensed: tuple = field(init=False, repr=False, compare=False, default=(None, None))

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float).ravel()
        self.r = np.asarray(self.r, dtype=float).ravel()
        if np.any(self.q < 0.0) or np.any(self.r < 0.0):
            raise ValueError("q and r entries must be nonnegative")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        self.horizon = int(self.horizon)
        if not 1 <= self.horizon <= MAX_HORIZON:
            raise ValueError(f"horizon must be between 1 and {MAX_HORIZON}, "
                             f"got {self.horizon}")
        for name in ("u_lo", "u_hi"):
            val = getattr(self, name)
            if val is not None:
                setattr(self, name, np.asarray(val, dtype=float).ravel())
        self.qbar = np.tile(self.q, self.horizon)
        self.rbar = np.tile(self.r, self.horizon)
        self.eye_n = np.eye(len(self.q))


def linearize(model: Model, x0, u0):
    """(a, b, g0) with f(x, u) ~= a x + b u + g0 near (x0, u0): the model's
    Jacobians there, and g0 = f(x0, u0) - a x0 - b u0 from one evaluation
    of f."""
    x0 = np.asarray(x0, dtype=float).ravel()
    u0 = np.asarray(u0, dtype=float).ravel()
    x_f, u_f = x0.tolist(), u0.tolist()
    a, b = model.jac(x_f, u_f)
    return a, b, np.asarray(model.f(x_f, u_f), dtype=float).ravel() - a @ x0 - b @ u0


def _condense(cfg: MpcConfig, stages):
    """(ad, m_mat, hess) for the stage models [(a_i, b_i, _)]: the Euler
    state matrices ad_i = I + dt a_i, the input map of the stacked
    successors X = m_mat U + free response, and the Hessian
    m_mat' Q m_mat + R of the condensed problem.  m_mat' Q m_mat is positive
    semidefinite, so adding the ridge reg I whenever some input weight lies
    below reg keeps every eigenvalue of the Hessian at or above reg."""
    k, n, m = cfg.horizon, len(cfg.q), len(cfg.r)
    ad = [cfg.eye_n + cfg.dt * a for a, _, _ in stages]
    m_mat = np.zeros((k * n, k * m))
    for i, (_, b, _) in enumerate(stages):
        rows = slice(i * n, (i + 1) * n)
        if i > 0:
            m_mat[rows] = ad[i] @ m_mat[slice((i - 1) * n, i * n)]
        m_mat[rows, i * m:(i + 1) * m] = cfg.dt * b

    qbar, rbar = cfg.qbar, cfg.rbar
    hess = m_mat.T @ (qbar[:, None] * m_mat) + np.diag(rbar)
    reg = max(1e-9, 1e-10 * float(np.max(np.abs(hess))))
    if np.min(rbar) < reg:
        hess = hess + reg * np.eye(k * m)
    return ad, m_mat, mk.as_matrix(hess, "hess")


def mpc_step(model: Model, x_now, x_ref, cfg: MpcConfig, u_lin):
    """One receding-horizon solve; returns the clamped plan u_seq (k, m).
    The caller applies row 0 and discards the rest.

    model  : the controller's Model (nonlinear f is fine)
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

    stages = [linearize(model, x_i, u_lin) for x_i in x_ref[:k]]
    key = [(a.tobytes(), b.tobytes()) for a, b, _ in stages]
    if key != cfg.condensed[0]:
        cfg.condensed = (key, _condense(cfg, stages))
    ad, m_mat, hess = cfg.condensed[1]

    # free response of the stage models x_{i+1} = ad_i x_i + dt g_i under u = 0
    x_free, v_free = x_now, []
    for ad_i, (_, _, g_i) in zip(ad, stages):
        x_free = ad_i @ x_free + cfg.dt * g_i
        v_free.append(x_free)
    resid = np.concatenate(v_free) - x_ref[1:].ravel()
    u_stack = np.linalg.solve(hess, -m_mat.T @ (cfg.qbar * resid))
    u_seq = u_stack.reshape(k, len(cfg.r))
    if cfg.u_lo is not None:
        u_seq = np.maximum(u_seq, cfg.u_lo)
    if cfg.u_hi is not None:
        u_seq = np.minimum(u_seq, cfg.u_hi)
    return u_seq
