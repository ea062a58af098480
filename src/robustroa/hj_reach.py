"""Hamilton-Jacobi reachability on 2-D grids.

Sets are carried implicitly: a target T = {x : l(x) <= 0} with l a signed
distance (box) or quadratic gap (ellipse), and a value function V whose
zero sublevel set is the computed set.  Starting from V(x, 0) = l(x) the
solver integrates

    dV/dt + H*(x, grad V) = 0,
    H* = min-player over u, max-player over w of  grad V . f(x, u, w)

backward from t = 0 with a local Lax-Friedrichs scheme (central gradients
plus dissipation alpha_i(x) * (D+_i - D-_i) / 2 per axis, one-sided linear
extrapolation at the grid edge) and forward-Euler steps in time.
alpha_i(x) is the largest |f_i + sum_j g_ij u_j| over the box of every
control and disturbance channel u_j, maximized over the uncertain
parameters.  dH/dp_i is one such velocity component, so alpha_i(x) bounds
|dH/dp_i| at each node (Osher & Shu 1991), and a node is smeared only as
much as its own dynamics require.  With these bounds an Euler step is
monotone (away from the extrapolated edge ring) whenever
|dt| * sum_i(max alpha_i / dx_i) <= 1, and a monotone scheme converges to
the viscosity solution (Crandall & Lions 1984); the solver steps at 0.9 of
that bound.  The scheme is first order in space, so a higher-order time
integrator would buy no accuracy.  The control shrinks V (reaching /
staying) and the disturbance opposes it.

Only the set {V <= 0} is used downstream, so a solve can stop once that set
is final.  Under horizon "converge" it stops at the first step where the
set has not changed for max(t_last, tau) of PDE time: t_last is how long
the set kept changing, and tau = min_i(grid width_i / max alpha_i) is the
time the fastest characteristic takes to cross the grid.

Two set-propagation flavours, selected by `freeze`:

* "reach": after every step V <- min(V_new, l).  {V <= 0} at time t0
  is the backward reach set: states that can hit T at some time in
  [t0, 0] despite the disturbance.
* "stay": after every step V <- max(V_new, l).  As the horizon grows
  {V <= 0} shrinks to the largest subset of T the control can render
  invariant despite the disturbance - the safe set used to size
  certified regions of attraction.

Dynamics must be affine in each control / disturbance channel, with box
bounds per channel, so every pointwise extremum is bang-bang.  An
additional scalar uncertainty that enters non-affinely (such as an
unknown added mass) is handled by evaluating the Hamiltonian at the
interval endpoints and giving the extremum to the disturbance player;
this is exact when the dependence is monotone, which holds for a
1/(m + dm) factor.

A solve allocates its grid-sized work arrays once and runs every step in
place in them; no step allocates an array of grid size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class CflViolation(Exception):
    """Requested time step exceeds the Lax-Friedrichs stability bound."""


class TargetOutsideGrid(Exception):
    """No interior grid node lies inside the target set."""


class GridMismatch(Exception):
    """Two gridded quantities live on different grids."""


@dataclass(frozen=True)
class Grid2:
    """Uniform rectangular grid, axis 0 = first state, axis 1 = second."""

    mins: tuple
    maxs: tuple
    shape: tuple

    def __post_init__(self):
        object.__setattr__(self, "mins", tuple(float(v) for v in self.mins))
        object.__setattr__(self, "maxs", tuple(float(v) for v in self.maxs))
        object.__setattr__(self, "shape", tuple(int(v) for v in self.shape))
        if len(self.mins) != 2 or len(self.maxs) != 2 or len(self.shape) != 2:
            raise ValueError("Grid2 is strictly two dimensional")
        if any(n < 3 for n in self.shape):
            raise ValueError("need at least 3 nodes per axis")
        if any(hi <= lo for lo, hi in zip(self.mins, self.maxs)):
            raise ValueError("maxs must exceed mins")

    @property
    def dx(self):
        return tuple((hi - lo) / (n - 1) for lo, hi, n in zip(self.mins, self.maxs, self.shape))

    def axes(self):
        return tuple(np.linspace(lo, hi, n) for lo, hi, n in zip(self.mins, self.maxs, self.shape))

    def mesh(self):
        ax1, ax2 = self.axes()
        return np.meshgrid(ax1, ax2, indexing="ij")

    @property
    def cell_diagonal(self):
        dx1, dx2 = self.dx
        return float(np.hypot(dx1, dx2))


@dataclass
class TargetSet:
    """Implicit target {x : l(x) <= 0}.

    kind "box":     l = exact signed distance to an axis-aligned box,
    kind "ellipse": l = (x-c)' shape (x-c) - level.
    """

    kind: str
    center: np.ndarray
    half_widths: np.ndarray | None = None
    shape_matrix: np.ndarray | None = None
    level: float | None = None

    @staticmethod
    def box(center, half_widths):
        hw = np.asarray(half_widths, dtype=float).ravel()
        if hw.shape != (2,) or np.any(hw <= 0.0):
            raise ValueError("box needs two positive half widths")
        return TargetSet(kind="box", center=np.asarray(center, dtype=float).ravel(), half_widths=hw)

    @staticmethod
    def ellipse(center, shape_matrix, level):
        sm = np.asarray(shape_matrix, dtype=float)
        if sm.shape != (2, 2):
            raise ValueError("shape_matrix must be 2 x 2")
        if level <= 0.0:
            raise ValueError("level must be positive")
        return TargetSet(kind="ellipse", center=np.asarray(center, dtype=float).ravel(),
                         shape_matrix=0.5 * (sm + sm.T), level=float(level))

    def l(self, x1, x2):
        """Evaluate the implicit function on arrays (broadcasting)."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        d1 = x1 - self.center[0]
        d2 = x2 - self.center[1]
        if self.kind == "box":
            q1 = np.abs(d1) - self.half_widths[0]
            q2 = np.abs(d2) - self.half_widths[1]
            outside = np.hypot(np.maximum(q1, 0.0), np.maximum(q2, 0.0))
            inside = np.minimum(np.maximum(q1, q2), 0.0)
            return outside + inside
        if self.kind == "ellipse":
            s = self.shape_matrix
            return s[0, 0] * d1 * d1 + 2.0 * s[0, 1] * d1 * d2 + s[1, 1] * d2 * d2 - self.level
        raise ValueError(f"unknown target kind {self.kind!r}")


@dataclass
class ValueGrid:
    """A value function sampled on a Grid2, tagged with its time."""

    grid: Grid2
    v: np.ndarray
    time: float = 0.0
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        if self.v.shape != self.grid.shape:
            raise GridMismatch(f"values shaped {self.v.shape} on grid {self.grid.shape}")

    def to_csv(self, path):
        """Write `x1,x2,v` rows, one per node, row-major.  Each axis
        coordinate is formatted once and each grid row written at once."""
        ax1, ax2 = (list(map(repr, ax.tolist())) for ax in self.grid.axes())
        with open(path, "w") as fh:
            fh.write("x1,x2,v\n")
            for a, row in zip(ax1, self.v):
                fh.write("".join([f"{a},{b},{c!r}\n" for b, c in zip(ax2, row.tolist())]))


@dataclass
class AffineDynamics2:
    """Planar dynamics affine in each control / disturbance channel.

    drift:              (x1, x2, param) -> (f1, f2)
    control_terms:      sequence of ((x1, x2, param) -> (g1, g2), (lo, hi))
    disturbance_terms:  same shape, for the adversarial channels
    uncertain_params:   scalar values the Hamiltonian is evaluated at
                        (endpoints of a monotone uncertainty interval);
                        (None,) when there is none.

    All callables must broadcast over numpy arrays.
    """

    drift: object
    control_terms: tuple = ()
    disturbance_terms: tuple = ()
    uncertain_params: tuple = (None,)


# -- gridded machinery --------------------------------------------------------

def _grid_field(values, ones):
    """A dynamics term sampled on the grid.  A spatially constant one (every
    entry the same bits, sign of zero included) is kept as a scalar: the
    products it enters are the same, with less memory traffic."""
    a = np.asarray(values, dtype=float) * ones
    c = a.flat[0]
    if np.all(a == c) and np.all(np.signbit(a) == np.signbit(c)):
        return float(c)
    return a


class _GridTerms:
    """Dynamics terms evaluated once per solve on the whole grid, and the
    work arrays every step runs in.

    Each distinct value of `uncertain_params` is one branch; a repeated
    value (a degenerate interval such as [0, 0]) would only repeat a branch,
    and the max or min of a branch with itself changes nothing.

    The grid-sized work arrays are allocated here, once, so a step allocates
    nothing of grid size: freeing and reallocating a dozen of them per step
    made the allocator hand the heap top back to the kernel and fault it in
    again, which took about 40% of a solve's wall time.
    """

    def __init__(self, grid: Grid2, dyn: AffineDynamics2):
        x1g, x2g = grid.mesh()
        ones = np.ones(grid.shape)
        self.branches = []
        for par in dict.fromkeys(dyn.uncertain_params):
            f1, f2 = dyn.drift(x1g, x2g, par)
            drift = (_grid_field(f1, ones), _grid_field(f2, ones))
            ctrl = []
            for fn, (lo, hi) in dyn.control_terms:
                g1, g2 = fn(x1g, x2g, par)
                ctrl.append((_grid_field(g1, ones), _grid_field(g2, ones), float(lo), float(hi)))
            dist = []
            for fn, (lo, hi) in dyn.disturbance_terms:
                g1, g2 = fn(x1g, x2g, par)
                dist.append((_grid_field(g1, ones), _grid_field(g2, ones), float(lo), float(hi)))
            self.branches.append((drift, ctrl, dist))
        # Per-axis wave speed bounds at each node: the largest |f_i + sum_j
        # g_ij u_j| over the channel box, maximized over branches.  dH/dp_i
        # is such a velocity component, so it never exceeds the bound.  Each
        # node is dissipated by its own bound (local Lax-Friedrichs); the
        # time step uses the largest.
        a1 = np.zeros(grid.shape)
        a2 = np.zeros(grid.shape)
        for (f1, f2), ctrl, dist in self.branches:
            top1, top2, bot1, bot2 = f1, f2, f1, f2
            for g1, g2, lo, hi in ctrl + dist:
                top1 = top1 + np.maximum(g1 * lo, g1 * hi)
                top2 = top2 + np.maximum(g2 * lo, g2 * hi)
                bot1 = bot1 + np.minimum(g1 * lo, g1 * hi)
                bot2 = bot2 + np.minimum(g2 * lo, g2 * hi)
            a1 = np.maximum(a1, np.maximum(top1, np.negative(bot1)))
            a2 = np.maximum(a2, np.maximum(top2, np.negative(bot2)))
        self.alpha = (float(a1.max()), float(a2.max()))
        self.half_alpha = (_grid_field(0.5 * a1, ones), _grid_field(0.5 * a2, ones))
        n1, n2 = grid.shape
        self.d1 = np.empty((n1 + 1, n2))
        self.d2 = np.empty((n1, n2 + 1))
        self.p1 = np.empty(grid.shape)
        self.p2 = np.empty(grid.shape)
        self.branch = np.empty(grid.shape)
        self.coef = np.empty(grid.shape)
        self.prod_a = np.empty(grid.shape)
        self.prod_b = np.empty(grid.shape)
        self.mask = np.empty(grid.shape, dtype=bool)

    def hamiltonian(self, p1, p2, out):
        """H(p1, p2) on the grid, written into `out` (which must not alias
        p1, p2 or the work arrays).

        The same operations in the same order as p1*f1 + p2*f2 + the channel
        extremes, maximized over branches.  A channel extreme is
        where(coef >= 0, lo*coef, hi*coef) for the minimizing control, with
        lo and hi swapped for the maximizing disturbance.
        """
        coef, a, b, mask = self.coef, self.prod_a, self.prod_b, self.mask
        for k, ((f1, f2), ctrl, dist) in enumerate(self.branches):
            h = out if k == 0 else self.branch
            np.multiply(p1, f1, out=h)
            np.multiply(p2, f2, out=a)
            h += a
            for channels, minimize in ((ctrl, True), (dist, False)):
                for g1, g2, lo, hi in channels:
                    np.multiply(p1, g1, out=coef)
                    np.multiply(p2, g2, out=a)
                    coef += a
                    if not minimize:
                        lo, hi = hi, lo
                    np.greater_equal(coef, 0.0, out=mask)
                    np.multiply(coef, lo, out=a)
                    np.multiply(coef, hi, out=b)
                    np.copyto(b, a, where=mask)
                    h += b
            if h is not out:
                np.maximum(out, h, out=out)
        return out


def _lf_update(v, grid, terms, dt, out):
    """One forward-time Euler step of V_t + H = 0 (dt may be negative to
    integrate backward), written into `out` (which must not alias v);
    dissipation always acts forward in its own time.

    Computes v - dt * H(p1, p2) + |dt| * (0.5 a1 (D+1 - D-1) + 0.5 a2 (D+2 - D-2))
    with p_i = 0.5 (D+i + D-i) and a_i the per-node wave speed bound,
    operation for operation, in the work arrays of `terms`.
    """
    dx1, dx2 = grid.dx
    a1, a2 = terms.alpha
    if abs(dt) * (a1 / dx1 + a2 / dx2) > 0.9 + 1e-12:
        raise CflViolation(
            f"|dt| = {abs(dt):.3e} exceeds CFL bound {0.9 / (a1 / dx1 + a2 / dx2 + 1e-300):.3e}")
    # Forward differences per axis, one entry longer than the grid: entry i
    # is (V[i] - V[i-1]) / dx, so D- and D+ at node i are entries i and i+1.
    # The two edge entries difference against a linearly extrapolated ghost
    # node (2 V[0] - V[1], 2 V[-1] - V[-2]), written exactly as below so
    # every bit matches the padded-ring form of the scheme.
    d1 = terms.d1
    d1[0] = v[0] - (2.0 * v[0] - v[1])
    np.subtract(v[1:], v[:-1], out=d1[1:-1])
    d1[-1] = (2.0 * v[-1] - v[-2]) - v[-1]
    d1 /= dx1
    d2 = terms.d2
    d2[:, 0] = v[:, 0] - (2.0 * v[:, 0] - v[:, 1])
    np.subtract(v[:, 1:], v[:, :-1], out=d2[:, 1:-1])
    d2[:, -1] = (2.0 * v[:, -1] - v[:, -2]) - v[:, -1]
    d2 /= dx2
    dplus1, dminus1 = d1[1:], d1[:-1]
    dplus2, dminus2 = d2[:, 1:], d2[:, :-1]

    p1 = np.add(dplus1, dminus1, out=terms.p1)
    p1 *= 0.5
    p2 = np.add(dplus2, dminus2, out=terms.p2)
    p2 *= 0.5
    terms.hamiltonian(p1, p2, out)
    out *= dt
    np.subtract(v, out, out=out)
    half1, half2 = terms.half_alpha
    diss = np.subtract(dplus1, dminus1, out=p1)
    diss *= half1
    diss2 = np.subtract(dplus2, dminus2, out=p2)
    diss2 *= half2
    diss += diss2
    diss *= abs(dt)
    out += diss
    return out


def signed_target(grid: Grid2, target: TargetSet):
    """Sample l on the grid; V(x, 0) = l(x).  Raises TargetOutsideGrid when
    no interior node is inside the target."""
    x1g, x2g = grid.mesh()
    l = np.asarray(target.l(x1g, x2g), dtype=float)
    if np.min(l[1:-1, 1:-1]) > 0.0:
        raise TargetOutsideGrid("target has no interior grid node")
    return ValueGrid(grid=grid, v=l, time=0.0)


def solve_brs(grid: Grid2, target: TargetSet, dyn: AffineDynamics2, horizon,
              freeze="reach", max_converge_time=10.0):
    """Integrate the HJ PDE backward from 0 and return the final ValueGrid.

    horizon: a negative time t0, or the string "converge" to run until
    {V <= 0} is final (the stop rule in the module docstring), capped at
    max_converge_time; `info["converged"]` records whether the rule fired
    before the cap.  `info["set_final_time"]` is the (negative) time of the
    last change of {V <= 0}, 0 when it never changed.  freeze selects the
    set flavour ("reach" or "stay", see module docstring).  Each step is one
    forward-Euler Lax-Friedrichs update of size 0.9 / (a1/dx1 + a2/dx2), with
    a_i the largest wave speed bound per axis: 0.9 of the bound below which
    the step is monotone.
    """
    if freeze not in ("reach", "stay"):
        raise ValueError(f"freeze must be 'reach' or 'stay', got {freeze!r}")
    converge = isinstance(horizon, str)
    if converge:
        if horizon != "converge":
            raise ValueError(f"horizon must be a negative time or 'converge', got {horizon!r}")
        t_stop = -float(max_converge_time)
    else:
        t_stop = float(horizon)
        if t_stop >= 0.0:
            raise ValueError("horizon must be negative (backward in time)")
    vg0 = signed_target(grid, target)
    l = vg0.v
    terms = _GridTerms(grid, dyn)
    a1, a2 = terms.alpha
    dx1, dx2 = grid.dx
    wavesum = a1 / dx1 + a2 / dx2

    clip = np.minimum if freeze == "reach" else np.maximum

    v = l.copy()
    t = 0.0
    t_final = 0.0
    steps = 0
    rate = np.inf
    converged = True
    if wavesum <= 0.0:
        # Static dynamics: H vanishes identically, nothing evolves.
        clip(v, l, out=v)
        t = t_stop
        h_nom = abs(t_stop)
    else:
        h_nom = 0.9 / wavesum
        widths = np.subtract(grid.maxs, grid.mins)
        tau = min(w / a for w, a in zip(widths, (a1, a2)) if a > 0.0)
        # two grid buffers in rotation: v and the step's result
        c = np.empty(grid.shape)
        # {V <= 0} before and after a step; the old one is overwritten by
        # the nodes that flipped, then the two trade places
        mask = np.less_equal(v, 0.0)
        fresh = np.empty(grid.shape, dtype=bool)
        while t > t_stop + 1e-12:
            h = min(h_nom, t - t_stop)
            clip(_lf_update(v, grid, terms, -h, c), l, out=c)
            t_next = t - h
            np.less_equal(c, 0.0, out=fresh)
            np.not_equal(fresh, mask, out=mask)
            if mask.any():
                t_final = t_next
            mask, fresh = fresh, mask
            settled = converge and t_final - t_next >= max(-t_final, tau)
            # only the last step's rate is reported; v is overwritten next
            if settled or not t_next > t_stop + 1e-12:
                np.subtract(c, v, out=v)
                rate = float(np.max(np.abs(v, out=v))) / h
            v, c = c, v
            t = t_next
            steps += 1
            if settled:
                break
        else:
            converged = not converge  # fixed-horizon runs always "converge"
    info = {"steps": steps, "dt": h_nom, "converged": converged,
            "change_rate": rate if steps else 0.0, "set_final_time": t_final,
            "freeze": freeze}
    return ValueGrid(grid=grid, v=v, time=t, info=info)
