"""Closed-form and geometric oracles shared by the test modules.

Everything here is derived independently of the library code so the tests
compare two implementations that cannot share a bug: the double-integrator
minimum-time formula comes from the bang-bang two-arc solution, and its
exact time to a box from the few edge points where that formula's branches
change; the set-distance helpers are plain numpy, and the SDP objective
oracle is a log-det barrier path follower, a different method from the
package's primal-dual solver.
"""

import math
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from robustroa import matrixkit as mk
from robustroa import harness, plants
from robustroa.harness.fileio import FileFormatError
from robustroa.hj_reach import MAX_CONVERGE_TIME, Grid2, ValueGrid
from robustroa.mpc import Model, mpc_step

# The closed-form viability kernel of the quadruped error axes lives with the
# benchmark, which checks every certified bound against it; the tests use
# that one implementation, not a copy.
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import kernel  # noqa: E402,F401

# the bundled scenario configs, which the tests load by path
CONFIGS = Path(harness.__file__).resolve().parent / "configs"


# -- SDP blocks and packed symmetric matrices ----------------------------------

def sdp_evaluate(prob, x):
    """F(x) = F0 + sum_i x_i F_i of an AffineSdp, without the eps shift."""
    x = np.asarray(x, dtype=float).ravel()
    if len(x) != prob.num_vars:
        raise ValueError(f"x has {len(x)} entries, expected {prob.num_vars}")
    f = prob.f0.copy()
    for xi, fmat in zip(x, prob.fi):
        f += xi * fmat
    return f


def pack_sym(y):
    """Upper-triangle entries of a symmetric matrix, row-major: the Y part
    of the synthesis LMI's variables, which clf_synth.split_solution reads."""
    n = y.shape[0]
    return np.array([y[i, j] for i in range(n) for j in range(i, n)])


def synthesis_lmi_loops(model, params):
    """(c, f0, fi) of clf_synth's synthesis LMI, each coefficient block
    filled on its own by per-variable loops over the layout (Y's upper
    triangle row-major, then L row-major); fi is stacked (k, d, d)."""
    n, m, p = model.n_states, model.n_inputs, model.n_dist
    q = params.q_diag(n)
    r = params.r_diag(m)
    lam = params.decay_rate
    d = 3 * n + m + p
    ry, yy = slice(0, n), slice(n, 2 * n)
    ll, ww = slice(2 * n, 2 * n + m), slice(2 * n + m, 2 * n + m + p)
    pd = slice(2 * n + m + p, d)
    f0 = np.zeros((d, d))
    f0[yy, yy] = -np.diag(1.0 / q)
    f0[ll, ll] = -np.diag(1.0 / r)
    f0[ww, ww] = -params.dist_weight * np.eye(p)
    f0[ry, ww] = model.b_w
    f0[ww, ry] = model.b_w.T
    c, fi = [], []
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
            blk[ry, yy] = e
            blk[pd, pd] = -e
            fi.append(blk)
            c.append(1.0 if i == j else 0.0)
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
    return np.array(c), f0, np.array(fi)


def record_choleskys(monkeypatch):
    """Route np.linalg.cholesky through a recorder; returns the list that
    collects (shape, bytes) of every matrix it factors."""
    factored = []
    cholesky = np.linalg.cholesky

    def recording(a):
        a = np.asarray(a)
        factored.append((a.shape, a.tobytes()))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    return factored


# -- log-det barrier SDP solver (objective oracle) -----------------------------
#
# The path follower lmi_solver used before its primal-dual method: maximize
# c'x + (1/t) log det(-F(x) - eps*I) by damped Newton with Armijo
# backtracking, t growing tenfold until the duality-gap bound d/t < 1e-6.
# Phase 1 minimizes s subject to F(x) - s*I < 0 the same way.

_BARRIER_MAX_NEWTON_PER_T = 80
_BARRIER_MAX_NEWTON_TOTAL = 4000


def slack_factor(f0, fi, x):
    """Lower Cholesky factor of S(x) = -(f0 + sum x_i fi_i), or None outside
    the barrier cone.  S is symmetrized; a non-finite S raises ValueError."""
    s = -f0.copy()
    for xi, fmat in zip(x, fi):
        s -= xi * fmat
    try:
        return np.linalg.cholesky(mk.symmetrize(s))
    except np.linalg.LinAlgError:
        return None


def barrier_value(tc, x, lo):
    """phi = -t*c'x - log det S, with log det S read off the factor lo of S."""
    return -float(tc @ x) - 2.0 * float(np.sum(np.log(np.diag(lo))))


def _newton_dir(hess, grad):
    """Newton direction, with a growing ridge then steepest descent when the
    Hessian is numerically rank deficient."""
    ridge = 0.0
    for _ in range(4):
        try:
            return mk.solve(hess + ridge * np.eye(len(grad)), -grad)
        except mk.Singular:
            ridge = 1e-10 * max(mk.inf_norm(hess), 1.0) if ridge == 0.0 else ridge * 1e4
    return -grad


def _barrier_stage(f0, fi, fstack, x, lo, tc, stop_fn):
    """Damped Newton at fixed t; returns (x, lo, steps, stopped)."""
    k, d = len(x), len(lo)
    for steps in range(_BARRIER_MAX_NEWTON_PER_T):
        minv = mk.cho_solve(lo, fstack)
        m = np.stack([minv[:, i * d:(i + 1) * d] for i in range(k)])
        grad = -tc + np.trace(m, axis1=1, axis2=2)
        step = _newton_dir(np.einsum("aij,bji->ab", m, m), grad)
        slope = float(grad @ step)
        if slope > 0.0 or -0.5 * slope < 1e-10:
            return x, lo, steps, False
        phi0 = barrier_value(tc, x, lo)
        alpha = 1.0
        while True:
            trial = x + alpha * step
            lo_trial = slack_factor(f0, fi, trial)
            if (lo_trial is not None
                    and barrier_value(tc, trial, lo_trial) <= phi0 + 0.01 * alpha * slope):
                break
            alpha *= 0.5
            if alpha < 1e-14:
                return x, lo, steps, False
        x, lo = trial, lo_trial
        if stop_fn is not None and stop_fn(x):
            return x, lo, steps + 1, True
    return x, lo, _BARRIER_MAX_NEWTON_PER_T, False


def _barrier_path(f0, fi, c, gap_tol, x, stop_fn=None):
    """The outer t-loop from the interior point x; returns (x, clean)."""
    lo = slack_factor(f0, fi, x)
    fstack = np.hstack(fi)
    t, total, clean = 1.0, 0, True
    while True:
        x, lo, steps, stopped = _barrier_stage(f0, fi, fstack, x, lo, t * c, stop_fn)
        total += steps
        if stopped:
            return x, clean
        clean = clean and steps < _BARRIER_MAX_NEWTON_PER_T
        if len(f0) / t < gap_tol:
            return x, clean
        if total >= _BARRIER_MAX_NEWTON_TOTAL:
            return x, False
        t *= 10.0


def barrier_phase1(prob):
    """(x, s) of the barrier's phase 1 on an AffineSdp: min s subject to
    F(x) - s*I < 0, stopped early once s <= -1.05*eps."""
    c_aug = np.zeros(prob.num_vars + 1)
    c_aug[-1] = -1.0  # maximize -s
    x0 = np.zeros(prob.num_vars + 1)
    x0[-1] = float(np.linalg.eigvalsh(prob.f0)[-1]) + 1.0 + prob.eps
    target = -1.05 * prob.eps
    xs, _ = _barrier_path(prob.f0, list(prob.fi) + [-np.eye(prob.dim)], c_aug,
                          min(1e-6, 0.05 * prob.eps), x0, lambda z: z[-1] <= target)
    return xs[:-1], float(xs[-1])


def barrier_maximize(prob):
    """(x, clean) of the barrier solve of an AffineSdp; raises ValueError
    when its phase 1 finds no strictly feasible point."""
    x0, slack = barrier_phase1(prob)
    if slack > -prob.eps:
        raise ValueError(f"barrier phase 1 found no strictly feasible point (slack {slack:.3e})")
    return _barrier_path(prob.f0 + prob.eps * np.eye(prob.dim), prob.fi, prob.c, 1e-6, x0)


# -- double integrator minimum time -------------------------------------------
#
# x1' = x2, x2' = u, |u| <= u_max.  The time-optimal transfer between two
# states uses at most one switch.  Accelerating first through switch
# velocity vs:
#   vs^2 = u_max*(z1 - x1) + (x2^2 + z2^2)/2,   T = (2 vs - x2 - z2)/u_max
# where vs is the smallest root (either sign) with vs >= max(x2, z2);
# decelerating first is the mirror image: vs the largest root with
# vs <= min(x2, z2) and T = (x2 + z2 - 2 vs)/u_max.  The negative-root
# branch covers single-arc approaches (both velocities on the same side).

def di_min_time(x1, x2, z1, z2, u_max=1.0):
    """Minimum transfer time from (x1, x2) to (z1, z2); broadcasts."""
    x1, x2, z1, z2 = np.broadcast_arrays(
        np.asarray(x1, dtype=float), np.asarray(x2, dtype=float),
        np.asarray(z1, dtype=float), np.asarray(z2, dtype=float))
    half = 0.5 * (x2 * x2 + z2 * z2)
    delta = z1 - x1
    ra = u_max * delta + half
    rb = -u_max * delta + half
    top = np.maximum(x2, z2)
    bot = np.minimum(x2, z2)
    tol = 1e-9
    va = np.sqrt(np.maximum(ra, 0.0))
    vs_a = np.where(-va >= top - tol, -va, va)
    ta = np.where((ra >= -1e-12) & (vs_a >= top - tol),
                  (2.0 * vs_a - x2 - z2) / u_max, np.inf)
    vb = np.sqrt(np.maximum(rb, 0.0))
    vs_b = np.where(vb <= bot + tol, vb, -vb)
    tb = np.where((rb >= -1e-12) & (vs_b <= bot + tol),
                  (x2 + z2 - 2.0 * vs_b) / u_max, np.inf)
    return np.maximum(np.minimum(ta, tb), 0.0)


def di_min_time_to_box(grid_axes, center, half_widths):
    """Exact minimum time from every grid node to an axis-aligned box.

    A node outside the box first meets the box on its edge, so the time is
    the least di_min_time(x, z) over z on the four edges.  Along one edge
    each branch of di_min_time is monotone between the points where the
    branch changes, so the least time lies at one of a few closed-form
    candidates, each clipped onto its edge:
      * the two ends of the edge;
      * on an edge z2 = const, with c = (x2^2 + z2^2)/2: the switch points
        z1 = x1 - c + max(x2, z2)^2 and z1 = x1 + c - min(x2, z2)^2;
      * on an edge z1 = const: z2 = x2, and the single-arc points
        z2 = +-sqrt(x2^2 +- 2 (z1 - x1)), where the switch velocity meets
        x2 or z2.
    Nodes inside the box get time 0.  Returns an array shaped like the grid
    (len(x1_axis), len(x2_axis)); u_max = 1.
    """
    x1, x2 = np.meshgrid(np.asarray(grid_axes[0], dtype=float) - center[0],
                         np.asarray(grid_axes[1], dtype=float) - center[1], indexing="ij")
    hx, hy = float(half_widths[0]), float(half_widths[1])
    best = np.full(x1.shape, np.inf)
    for z2 in (-hy, hy):
        c = 0.5 * (x2 * x2 + z2 * z2)
        for z1 in (-hx, hx, x1 - c + np.maximum(x2, z2) ** 2, x1 + c - np.minimum(x2, z2) ** 2):
            best = np.minimum(best, di_min_time(x1, x2, np.clip(z1, -hx, hx), z2))
    for z1 in (-hx, hx):
        arcs = [np.sqrt(np.maximum(x2 * x2 + s * (z1 - x1), 0.0)) for s in (2.0, -2.0)]
        for z2 in (-hy, hy, x2, *arcs, *(-a for a in arcs)):
            best = np.minimum(best, di_min_time(x1, x2, z1, np.clip(z2, -hy, hy)))
    inside = (np.abs(x1) <= hx) & (np.abs(x2) <= hy)
    return np.where(inside, 0.0, best)


@lru_cache(maxsize=4)
def di_box_brs_reference(horizon_time):
    """Analytic BRS boundary of the double integrator and the target box
    |x1|, |x2| <= 0.5: the {min-time == horizon_time} contour on a
    401 x 401 grid over [-2, 2]^2, cached per session."""
    axes = (np.linspace(-2.0, 2.0, 401),) * 2
    mt = di_min_time_to_box(axes, (0.0, 0.0), (0.5, 0.5))
    return contour_points(axes, mt, level=horizon_time)


# -- boolean-mask geometry -----------------------------------------------------

def flip_band(mask):
    """Nodes adjacent (4-neighborhood) to a node with the opposite value."""
    band = np.zeros(mask.shape, dtype=bool)
    d0 = mask[1:, :] != mask[:-1, :]
    band[1:, :] |= d0
    band[:-1, :] |= d0
    d1 = mask[:, 1:] != mask[:, :-1]
    band[:, 1:] |= d1
    band[:, :-1] |= d1
    return band


def dilate(mask, iterations=1):
    """Grow a boolean mask by one node in all 8 directions, `iterations` times."""
    m = mask.copy()
    for _ in range(iterations):
        grown = m.copy()
        grown[1:, :] |= m[:-1, :]
        grown[:-1, :] |= m[1:, :]
        grown[:, 1:] |= m[:, :-1]
        grown[:, :-1] |= m[:, 1:]
        grown[1:, 1:] |= m[:-1, :-1]
        grown[1:, :-1] |= m[:-1, 1:]
        grown[:-1, 1:] |= m[1:, :-1]
        grown[:-1, :-1] |= m[1:, 1:]
        m = grown
    return m


def contour_points(grid_axes, values, level=0.0):
    """Zero-crossing points of `values - level` along grid edges, (k, 2).

    Linear interpolation along each axis-aligned edge whose endpoints
    straddle the level; sub-cell accurate for smooth fields.
    """
    x1, x2 = np.asarray(grid_axes[0], dtype=float), np.asarray(grid_axes[1], dtype=float)
    v = np.asarray(values, dtype=float) - level
    pieces = []
    cross = v[:-1, :] * v[1:, :] < 0.0
    i, j = np.nonzero(cross)
    if i.size:
        frac = v[i, j] / (v[i, j] - v[i + 1, j])
        pieces.append(np.column_stack([x1[i] + frac * (x1[i + 1] - x1[i]), x2[j]]))
    cross = v[:, :-1] * v[:, 1:] < 0.0
    i, j = np.nonzero(cross)
    if i.size:
        frac = v[i, j] / (v[i, j] - v[i, j + 1])
        pieces.append(np.column_stack([x1[i], x2[j] + frac * (x2[j + 1] - x2[j])]))
    i, j = np.nonzero(v == 0.0)
    if i.size:
        pieces.append(np.column_stack([x1[i], x2[j]]))
    if not pieces:
        return np.empty((0, 2))
    return np.vstack(pieces)


def hausdorff(a, b, chunk=1024):
    """Symmetric Hausdorff distance between two (k, 2) point sets."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("hausdorff needs nonempty point sets")

    def directed(p, q):
        worst = 0.0
        for lo in range(0, len(p), chunk):
            d = np.hypot(p[lo:lo + chunk, None, 0] - q[None, :, 0],
                         p[lo:lo + chunk, None, 1] - q[None, :, 1])
            worst = max(worst, float(d.min(axis=1).max()))
        return worst

    return max(directed(a, b), directed(b, a))


# -- grids and the pointwise Hamiltonian --------------------------------------

def grid_around(box, factor=4.0, n=101):
    """n x n grid over a box `factor` times the half widths of a box target."""
    hw = box.half_widths * float(factor)
    c = box.center
    return Grid2(mins=(c[0] - hw[0], c[1] - hw[1]),
                 maxs=(c[0] + hw[0], c[1] + hw[1]),
                 shape=(int(n), int(n)))


def hamiltonian(v_grad, x, dyn):
    """H = grad V . f at one state, minimized over the control and maximized
    over the disturbance (bang-bang) and over the uncertain parameters, in
    Python floats."""
    p1, p2 = float(v_grad[0]), float(v_grad[1])
    x1, x2 = float(x[0]), float(x[1])
    branches = []
    for par in dyn.uncertain_params:
        f1, f2 = dyn.drift(x1, x2, par)
        h = p1 * float(f1) + p2 * float(f2)
        for fn, (lo, hi) in dyn.control_terms:
            g1, g2 = fn(x1, x2, par)
            c = p1 * float(g1) + p2 * float(g2)
            h += lo * c if c >= 0.0 else hi * c
        for fn, (lo, hi) in dyn.disturbance_terms:
            g1, g2 = fn(x1, x2, par)
            c = p1 * float(g1) + p2 * float(g2)
            h += hi * c if c >= 0.0 else lo * c
        branches.append(h)
    return max(branches)


# -- upwind step and reachability solve, one fresh array per operation ---------
#
# The step and solve loop of hj_reach in their allocating form: the slopes
# of each H_i come from the pointwise Hamiltonian at every node, the value
# grid is padded with a ring that repeats its edge, and every difference,
# flux, clip, sign mask and change rate makes new arrays, the change rate on
# every step.  The library's in-place solve must reproduce V and its info
# bit for bit.

def upwind_slopes(grid, dyn):
    """Per axis, (A+, A-, B+, B-) / dx_i at every node, with A = H(e_i) and
    B = -H(-e_i), and the largest max(|A|, |B|) over the grid."""
    x1g, x2g = grid.mesh()

    def h_at(p):
        return np.array([hamiltonian(p, (x1g[k], x2g[k]), dyn)
                         for k in np.ndindex(grid.shape)]).reshape(grid.shape)

    slopes, speeds = [], []
    for plus, minus, dx in (((1.0, 0.0), (-1.0, 0.0), grid.dx[0]),
                            ((0.0, 1.0), (0.0, -1.0), grid.dx[1])):
        a, b = h_at(plus), -h_at(minus)
        speeds.append(float(np.max(np.maximum(np.abs(a), np.abs(b)))))
        slopes.append((np.maximum(a, 0.0) / dx, np.minimum(a, 0.0) / dx,
                       np.maximum(b, 0.0) / dx, np.minimum(b, 0.0) / dx))
    return slopes, speeds


def upwind_update(v, slopes, h):
    """V + h * (F_1 + F_2) for a backward step of size h (no CFL check)."""
    p = np.pad(v, 1, mode="edge")
    d1 = np.diff(p[:, 1:-1], axis=0)
    d2 = np.diff(p[1:-1, :], axis=1)
    flux = []
    for (dminus, dplus), (a_pos, a_neg, b_pos, b_neg) in zip(
            ((d1[:-1], d1[1:]), (d2[:, :-1], d2[:, 1:])), slopes):
        flux.append(np.maximum(a_pos * np.maximum(dplus, 0.0), b_neg * np.minimum(dminus, 0.0))
                    + np.minimum(a_neg * np.maximum(dminus, 0.0), b_pos * np.minimum(dplus, 0.0)))
    return v + h * (flux[0] + flux[1])


def solve_brs(grid, target, dyn, horizon, freeze="reach"):
    """(V, info) of a backward solve; arguments as hj_reach.solve_brs.  No
    argument checks, and the dynamics must not be static."""
    converge = horizon == "converge"
    t_stop = -MAX_CONVERGE_TIME if converge else float(horizon)
    x1g, x2g = grid.mesh()
    l = np.asarray(target.l(x1g, x2g), dtype=float)
    slopes, (s1, s2) = upwind_slopes(grid, dyn)
    dx1, dx2 = grid.dx
    h_nom = 0.9 / (s1 / dx1 + s2 / dx2)
    widths = (grid.maxs[0] - grid.mins[0], grid.maxs[1] - grid.mins[1])
    tau = min(w / s for w, s in zip(widths, (s1, s2)) if s > 0.0)

    def clip(vnew):
        return np.minimum(vnew, l) if freeze == "reach" else np.maximum(vnew, l)

    v = l.copy()
    t = 0.0
    t_final = 0.0
    steps = 0
    rate = np.inf
    converged = True
    while t > t_stop + 1e-12:
        h = min(h_nom, t - t_stop)
        vnew = clip(upwind_update(v, slopes, h))
        rate = float(np.max(np.abs(vnew - v))) / h
        if np.any((vnew <= 0.0) != (v <= 0.0)):
            t_final = t - h
        v = vnew
        t -= h
        steps += 1
        if converge and t_final - t >= max(-t_final, tau):
            break
    else:
        converged = not converge
    return v, {"steps": steps, "dt": h_nom, "converged": converged,
               "change_rate": rate if steps else 0.0, "set_final_time": t_final,
               "freeze": freeze, "time": t}


# -- exact viability kernel of a quadruped error axis ---------------------------

def kernel_mask(axis, hj_block, quadruped, grid):
    """Grid nodes inside the closed-form viability kernel of kernel.py: the
    target box cut by the two braking parabolas."""
    b_dn, b_up = kernel.braking(axis, hj_block, quadruped)
    h1, h2 = hj_block.target_half_widths
    e1, e2 = grid.mesh()
    return ((np.abs(e1) <= h1) & (np.abs(e2) <= h2)
            & (e1 + np.maximum(e2, 0.0) ** 2 / (2.0 * b_dn) <= h1)
            & (-e1 + np.maximum(-e2, 0.0) ** 2 / (2.0 * b_up) <= h1))


# -- least e'Pe over the unsafe part of a grid, by dense sampling -----------------

def sampled_unsafe_level(p, center, grid, w, envelope, per_side=21):
    """Least (e - center)' p (e - center) over per_side x per_side points of
    every cell with a corner w > 0, at the points where the cell's
    interpolant of w is > 0, and over the grid border, sampled densely with
    no edge or clipping logic.  The interpolant is the bilinear one, or with
    envelope=True its concave envelope: the lower of the planes through
    corners (00, 10, 11) and (00, 01, 11) when w00 + w11 >= w10 + w01, else
    through (00, 10, 01) and (10, 11, 01).  A cell with a non-finite corner
    is unsafe throughout."""
    p = np.asarray(p, dtype=float)
    ax1, ax2 = grid.axes()
    t = np.linspace(0.0, 1.0, per_side)
    u, v = np.meshgrid(t, t, indexing="ij")

    def quad(e1, e2):
        return p[0, 0] * e1 * e1 + (p[0, 1] + p[1, 0]) * e1 * e2 + p[1, 1] * e2 * e2

    best = np.inf
    for i in range(len(ax1) - 1):
        for j in range(len(ax2) - 1):
            w00, w10, w01, w11 = w[i, j], w[i + 1, j], w[i, j + 1], w[i + 1, j + 1]
            if max(w00, w10, w01, w11) <= 0.0:
                continue
            if not np.all(np.isfinite([w00, w10, w01, w11])):
                unsafe = np.ones(u.shape, dtype=bool)
            elif not envelope:
                unsafe = (w00 * (1 - u) * (1 - v) + w10 * u * (1 - v)
                          + w01 * (1 - u) * v + w11 * u * v) > 0.0
            elif w00 + w11 >= w10 + w01:
                unsafe = np.minimum(w00 + (w10 - w00) * u + (w11 - w10) * v,
                                    w00 + (w11 - w01) * u + (w01 - w00) * v) > 0.0
            else:
                unsafe = np.minimum(w00 + (w10 - w00) * u + (w01 - w00) * v,
                                    w11 + (w11 - w01) * (u - 1) + (w11 - w10) * (v - 1)) > 0.0
            if unsafe.any():
                e1 = ax1[i] + u * (ax1[i + 1] - ax1[i]) - center[0]
                e2 = ax2[j] + v * (ax2[j + 1] - ax2[j]) - center[1]
                best = min(best, float(quad(e1, e2)[unsafe].min()))
    fine1 = np.linspace(ax1[0], ax1[-1], 50 * len(ax1)) - center[0]
    fine2 = np.linspace(ax2[0], ax2[-1], 50 * len(ax2)) - center[1]
    for e1, e2 in ((fine1, np.full_like(fine1, ax2[0] - center[1])),
                   (fine1, np.full_like(fine1, ax2[-1] - center[1])),
                   (np.full_like(fine2, ax1[0] - center[0]), fine2),
                   (np.full_like(fine2, ax1[-1] - center[0]), fine2)):
        best = min(best, float(quad(e1, e2).min()))
    return best


# -- value-grid CSV, node by node, and its reader -------------------------------

def value_grid_csv(vg, path):
    """ValueGrid.to_csv as it formatted each node's three values on its own;
    the library's writer must give the same bytes."""
    x1g, x2g = vg.grid.mesh()
    with open(path, "w") as fh:
        fh.write("x1,x2,v\n")
        for a, b, c in zip(x1g.ravel(), x2g.ravel(), vg.v.ravel()):
            fh.write(f"{float(a)!r},{float(b)!r},{float(c)!r}\n")


def read_value_grid(path):
    """Rebuild a ValueGrid from the `x1,x2,v` CSV of ValueGrid.to_csv.
    Every node of a uniform grid must be listed exactly once, in any row
    order; anything else raises fileio.FileFormatError."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    if data.ndim != 2 or data.shape[1] != 3:
        raise FileFormatError(f"{path}: expected three columns x1,x2,v")
    order = np.lexsort((data[:, 1], data[:, 0]))  # row-major: x1 outer, x2 inner
    x1, x2, v = data[order].T
    ax1 = np.unique(x1)
    ax2 = np.unique(x2)
    n1, n2 = len(ax1), len(ax2)
    if not (np.array_equal(x1, np.repeat(ax1, n2)) and np.array_equal(x2, np.tile(ax2, n1))):
        raise FileFormatError(f"{path}: rows do not list each node of a rectangular grid once")
    try:
        grid = Grid2(mins=(ax1[0], ax2[0]), maxs=(ax1[-1], ax2[-1]), shape=(n1, n2))
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    # a hand-written decimal axis may sit a few ulps off the uniform one
    for name, ax, uniform, dx in zip(("x1", "x2"), (ax1, ax2), grid.axes(), grid.dx):
        if not np.all(np.abs(ax - uniform) <= 1e-9 * dx):
            raise FileFormatError(f"{path}: {name} coordinates are not evenly spaced")
    return ValueGrid(grid=grid, v=v.reshape(n1, n2))


# -- trajectory CSV rows, value by value ---------------------------------------

def trajectory_csv_rows(traj, k):
    """Data rows of Trajectory.to_csv at stride k, the last sample always
    among them, each value formatted on its own."""
    lines = []
    for i in sorted(set(range(0, len(traj.t), k)) | {len(traj.t) - 1}):
        row = [traj.t[i], *traj.x[i], *traj.x_ref[i], *traj.u[i], *traj.w[i]]
        for j, lev in enumerate(traj.levels):
            row += [traj.e_lyap[i, j], lev]
        lines.append(",".join(repr(float(v)) for v in row) + "\n")
    return "".join(lines)


# -- SVG polyline points, one point at a time -----------------------------------

def svg_polyline_points(xs, ys, xlim, ylim, width=640, height=420):
    """The points attribute of a svgplot.line_plot series on fixed axes,
    mapping and formatting each point on its own as line_plot once did."""
    ml, mr, mt, mb = 62, 16, 34, 46
    pw, ph = width - ml - mr, height - mt - mb
    x0, x1 = float(xlim[0]), float(xlim[1])
    y0, y1 = float(ylim[0]), float(ylim[1])

    def sx(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def sy(y):
        return mt + (y1 - y) / (y1 - y0) * ph

    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ok = np.isfinite(xs) & np.isfinite(ys)
    return " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(xs[ok], ys[ok]))


def m4_points(xs, ys, xlim, width=640):
    """The finite points (xs, ys) of a series that svgplot.line_plot draws
    on x axis `xlim`, by brute force: when the finite x never decreases,
    the first, the last, and the first lowest and first highest point of
    each pixel column (the floor of the pixel x, mapped one point at a time
    as svg_polyline_points does); otherwise every finite point."""
    ml, mr = 62, 16
    pw = width - ml - mr
    x0, x1 = float(xlim[0]), float(xlim[1])
    pts = [(float(a), float(b)) for a, b in zip(xs, ys) if math.isfinite(a) and math.isfinite(b)]
    if any(b[0] < a[0] for a, b in zip(pts, pts[1:])):
        return np.array([p[0] for p in pts]), np.array([p[1] for p in pts])
    columns = {}
    for i, (a, _) in enumerate(pts):
        columns.setdefault(math.floor(ml + (a - x0) / (x1 - x0) * pw), []).append(i)
    keep = set()
    for members in columns.values():
        heights = [pts[i][1] for i in members]
        keep.update((members[0], members[-1],
                     members[heights.index(min(heights))], members[heights.index(max(heights))]))
    kept = [pts[i] for i in sorted(keep)]
    return np.array([p[0] for p in kept]), np.array([p[1] for p in kept])


# -- closed loop with per-sample lists and array-valued dynamics ---------------
#
# The simulation layer of plants as it appended every sample to Python lists,
# evaluated the dynamics on small arrays and the energy row by row inside
# the loop.  The bodies are kept as they were, except that calls into the
# library's dynamics, integrator and controller go to the copies here.  The
# library's loop must reproduce every Trajectory field and the CSV bytes,
# except the energy, which it evaluates after the loop: E must agree within
# 1e-14 relative, with the same invariant-exit counts.  The controller
# plans with the library's mpc_step through the plant model's Jacobians;
# only the dynamics it evaluates are the array copies here.  linearize_fd
# is the finite-difference linearization the analytic Jacobians are
# checked against.

def quadcopter_f(x, u, w, p):
    x = np.asarray(x, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    w = np.zeros(2) if w is None else np.asarray(w, dtype=float).ravel()
    return np.array([
        x[3],
        x[4],
        x[5],
        -u[0] * math.sin(x[2]) / p.mass + w[0],
        u[0] * math.cos(x[2]) / p.mass - p.gravity + w[1],
        0.5 * p.arm_length * u[1] / p.inertia_xx,
    ])


def _cross2(r, f):
    return r[0] * f[1] - r[1] * f[0]


def quadruped_f(x, u, stance, p, delta_m=0.0, drag_force=0.0):
    x = np.asarray(x, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    m_true = p.mass + delta_m
    f_front = np.array([u[0], u[2]])
    f_rear = np.array([u[1], u[3]])
    com = np.array([x[0], x[1]])
    r_front = com - stance.foot_front
    r_rear = com - stance.foot_rear
    return np.array([
        x[3],
        x[4],
        x[5],
        (u[0] + u[1] - drag_force) / m_true,
        (u[2] + u[3]) / m_true - p.gravity,
        (_cross2(r_front, f_front) + _cross2(r_rear, f_rear)) / p.inertia_xx,
    ])


def plant_f(plant, x, u, w):
    """plant.f(x, u, w) through the dynamics above."""
    if isinstance(plant, plants.QuadcopterPlant):
        return quadcopter_f(x, u, w, plant.params)
    return quadruped_f(x, u, plant.stance, plant.params,
                       delta_m=plant.delta_m, drag_force=plant.drag_force)


def nominal_f(plant):
    """plant.nominal_f() through the dynamics above, planning with the
    plant model's Jacobians."""
    jac = plant.nominal_f().jac
    if isinstance(plant, plants.QuadcopterPlant):
        return Model(lambda x, u: quadcopter_f(x, u, None, plant.params), jac)
    stance = plant.stance
    return Model(lambda x, u: quadruped_f(x, u, stance, plant.params), jac)


def rk4_step(f, x, u, w, dt):
    x = np.asarray(x, dtype=float).ravel()
    k1 = np.asarray(f(x, u, w), dtype=float)
    k2 = np.asarray(f(x + 0.5 * dt * k1, u, w), dtype=float)
    k3 = np.asarray(f(x + 0.5 * dt * k2, u, w), dtype=float)
    k4 = np.asarray(f(x + dt * k3, u, w), dtype=float)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def control(ctrl, t, x):
    """TrackingController.control of `ctrl`, which updates its state."""
    if t >= ctrl._next_tick - 1e-12:
        refs = np.stack([ctrl.reference.state(t + i * ctrl.cfg.dt)
                         for i in range(ctrl.cfg.horizon + 1)])
        ctrl._u_bar = mpc_step(nominal_f(ctrl.plant), x, refs, ctrl.cfg, ctrl.u_lin)[0]
        ctrl._next_tick = t + ctrl.cfg.dt
    u = ctrl._u_bar.copy()
    if ctrl.feedback is not None:
        e = np.asarray(x, dtype=float) - ctrl.reference.state(t)
        u = u + np.asarray(ctrl.feedback(x, e), dtype=float)
    if ctrl.cfg.u_lo is not None:
        u = np.maximum(u, ctrl.cfg.u_lo)
    if ctrl.cfg.u_hi is not None:
        u = np.minimum(u, ctrl.cfg.u_hi)
    return u


def linearize_fd(f, x0, u0, step=1e-6):
    """Central-difference Jacobians of f(x, u) and the affine remainder:
    (a, b, g0) with f(x, u) ~= a x + b u + g0 near (x0, u0).  The step is
    scaled per coordinate by (1 + |coordinate|).  The reference the
    models' analytic Jacobians are held to."""
    x0 = np.asarray(x0, dtype=float).ravel()
    u0 = np.asarray(u0, dtype=float).ravel()
    f00 = np.asarray(f(x0, u0), dtype=float).ravel()
    n, m = len(x0), len(u0)
    a = np.zeros((n, n))
    for j in range(n):
        h = step * (1.0 + abs(x0[j]))
        xp, xm = x0.copy(), x0.copy()
        xp[j] += h
        xm[j] -= h
        a[:, j] = (np.asarray(f(xp, u0), dtype=float) - np.asarray(f(xm, u0), dtype=float)) / (2 * h)
    b = np.zeros((n, m))
    for j in range(m):
        h = step * (1.0 + abs(u0[j]))
        up, um = u0.copy(), u0.copy()
        up[j] += h
        um[j] -= h
        b[:, j] = (np.asarray(f(x0, up), dtype=float) - np.asarray(f(x0, um), dtype=float)) / (2 * h)
    return a, b, f00 - a @ x0 - b @ u0


def energy(mon, e):
    """E = e[state_idx]' P e[state_idx] of one sample, as the loop once
    evaluated it on every step."""
    sub = np.asarray(e, dtype=float)[mon.state_idx]
    return float(sub @ mon.p @ sub)


def simulate_closed_loop(plant, controller, reference, disturbance, duration, dt,
                         monitors=(), x0=None, blowup=1e4):
    """plants.simulate_closed_loop with one list append per sample, and
    divergence tested as a non-finite state or one past blowup."""
    monitors = list(monitors)
    n_steps = int(round(duration / dt))
    x = (reference.state(0.0) if x0 is None else np.asarray(x0, dtype=float)).copy()
    nw = max(plant.n_dist, 1)
    ts, xs, xrefs, us, ws, energies = [], [], [], [], [], []
    clamp_events = 0
    diverged = False
    for i in range(n_steps + 1):
        t = i * dt
        plant.advance(t, x)
        x_ref = reference.state(t)
        u_cmd = control(controller, t, x)
        u, clamps = plant.sanitize(u_cmd)
        clamp_events += clamps
        w = np.zeros(nw) if disturbance is None else np.asarray(disturbance(t), dtype=float)
        e = x - x_ref
        ts.append(t)
        xs.append(x.copy())
        xrefs.append(x_ref)
        us.append(np.asarray(u, dtype=float).copy())
        ws.append(w.copy())
        energies.append([energy(mon, e) for mon in monitors])
        if i == n_steps:
            break
        x = rk4_step(lambda xx, uu, ww: plant_f(plant, xx, uu, ww), x, u, w, dt)
        if not np.all(np.isfinite(x)) or float(np.max(np.abs(x))) > blowup:
            diverged = True
            break
    e_lyap = np.array(energies) if monitors else np.zeros((len(ts), 0))
    levels = tuple(mon.level for mon in monitors)
    exits = tuple(
        int(np.sum(e_lyap[:, j] > lev * (1.0 + 1e-6)))
        for j, lev in enumerate(levels)
    )
    return plants.Trajectory(
        t=np.array(ts),
        x=np.array(xs),
        x_ref=np.array(xrefs),
        u=np.array(us),
        w=np.array(ws),
        e_lyap=e_lyap,
        monitor_names=tuple(mon.name for mon in monitors),
        levels=levels,
        diverged=diverged,
        invariant_exits=exits,
        clamp_events=clamp_events,
    )
