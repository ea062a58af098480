"""Hamilton-Jacobi reachability on 2-D grids.

Sets are carried implicitly: a target T = {x : l(x) <= 0} with l the
signed distance to a box, and a value function V whose zero sublevel set
is the computed set.  Starting from V(x, 0) = l(x) the solver integrates

    dV/dt + H*(x, grad V) = 0,
    H* = min-player over u, max-player over w of  grad V . f(x, u, w)

backward from t = 0 with forward-Euler steps of an upwind (Godunov)
scheme.  The control shrinks V (reaching / staying) and the disturbance
opposes it: the disturbance takes a channel's upper bound where a control
would take its lower one, so it is a control channel with swapped bounds.

Dynamics must be affine in each control / disturbance channel, with finite
box bounds per channel, so every pointwise extremum is bang-bang, and each
channel must move one axis at each node (a ValueError otherwise: per-axis
control minima would be optimistic for a channel that moves both).  Then
H(x, p) = H_1(x, p_1) + H_2(x, p_2), and each H_i is linear on either side
of p_i = 0: H_i = A_i p_i for p_i >= 0 and B_i p_i for p_i <= 0, with the
slopes A_i = H(e_i) and B_i = -H(-e_i).  Those four Hamiltonian
evaluations per node are made once per solve.  An additional scalar
uncertainty that enters non-affinely (such as an unknown added mass) is
handled by evaluating the Hamiltonian at the interval endpoints and giving
the extremum to the disturbance player; this is exact when the dependence
is monotone, which holds for a 1/(m + dm) factor.  A parameter that enters
both axes gets its branch maximum on each axis separately, which is
conservative, and exact when at most one axis depends on it.

With one-sided differences D-_i and D+_i, a backward step of size h is

    V <- V + h * sum_i F_i,
    F_i = max(A_i+ D+_i+, B_i- D-_i-) + min(A_i- D-_i+, B_i+ D+_i-),

where x+ = max(x, 0) and x- = min(x, 0): the maximum of H_i over
[D-_i, D+_i] when D-_i <= D+_i, else its minimum over [D+_i, D-_i]
(Osher & Shu 1991).  At the grid edge the outer difference is 0, as if
the value beyond the edge equalled the edge node.  F_i never decreases in
D+_i, never increases in D-_i, and moves by at most max(|A_i|, |B_i|) /
dx_i per unit of V at the node itself, so the step is monotone, edge
included, whenever h * sum_i max(|A_i|, |B_i|) / dx_i <= 1, and a monotone
scheme converges to the viscosity solution (Crandall & Lions 1984).  The
solver steps at 0.9 of that bound and shortens only the last step, to end
at the horizon, so no step exceeds the bound and none needs checking.  A
wave sum sum_i max(|A_i|, |B_i|) / dx_i that is not finite (a huge drift,
a subnormal cell) leaves no step length: it raises matrixkit.NonFinite.
The scheme is first order in space, so a higher-order time integrator
would buy no accuracy.

A step runs on flat x2-major arrays (node (i, j) is entry i + n1 j), so
each axis's differences are one contiguous pass, at stride 1 or n1.  The
axis-0 differences at the start of each block of n1 cross the block
boundary; each step sets them back to 0, the edge rule.

A step evaluates only the products of F_i that can be nonzero, chosen once
per solve.  On an axis no channel moves, whose drift does not depend on the
uncertain parameter, A_i = B_i at every node, H_i is linear and F_i =
A_i+ D+_i + A_i- D-_i on the raw differences; where A_i+ and A_i- are
each nonzero on one run of entries (x2 > 0 and x2 < 0 for x1' = x2), each
product is taken on its run alone and F_i is 0 elsewhere.  On any other
axis a product whose slope is 0 at every node is left out (on the bundled
quadruped rate axes A_i+ and B_i- are, so the max pair goes), a max / min
pair with one product left becomes that product, and D is split into its
positive and negative parts only when a kept product reads them.  V keeps
the bits of the full formula: a left-out product, or a linear product
outside its run, is a signed zero that only ever met max(P, +-0) with
P >= 0, min(P, +-0) with P <= 0, or P + (+-0), so F_i can change only in
the sign of a zero.  That sign reaches V only through V + h * (+-0) at a
node where V is -0, and V never is: l is not, a sum is -0 only when both
terms are, and the clip returns one of its arguments.

Only the set {V <= 0} is used downstream, so a solve can stop once that set
is final.  Under horizon "converge" it stops at the first step where the
set has not changed for max(t_last, tau) of PDE time: t_last is how long
the set kept changing, and tau = min_i(grid width_i / max(|A_i|, |B_i|))
is the time the fastest characteristic takes to cross the grid.  It runs
for at most MAX_CONVERGE_TIME of PDE time.

Two set-propagation flavours, selected by `freeze`:

* "reach": after every step V <- min(V_new, l).  {V <= 0} at time t0
  is the backward reach set: states that can hit T at some time in
  [t0, 0] despite the disturbance.
* "stay": after every step V <- max(V_new, l).  As the horizon grows
  {V <= 0} shrinks to the largest subset of T the control can render
  invariant despite the disturbance - the safe set used to size
  certified regions of attraction.

A solve allocates its grid-sized work arrays once and runs every step in
place in them; no step allocates an array of grid size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrixkit import NonFinite

# Longest PDE time a "converge" solve runs before it gives up on the stop rule.
MAX_CONVERGE_TIME = 10.0


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
    """Implicit target {x : l(x) <= 0}, l the exact signed distance to an
    axis-aligned box; build it with TargetSet.box."""

    center: np.ndarray
    half_widths: np.ndarray

    @staticmethod
    def box(center, half_widths):
        hw = np.asarray(half_widths, dtype=float).ravel()
        if hw.shape != (2,) or np.any(hw <= 0.0):
            raise ValueError("box needs two positive half widths")
        return TargetSet(center=np.asarray(center, dtype=float).ravel(), half_widths=hw)

    def l(self, x1, x2):
        """Evaluate the implicit function on arrays (broadcasting)."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        q1 = np.abs(x1 - self.center[0]) - self.half_widths[0]
        q2 = np.abs(x2 - self.center[1]) - self.half_widths[1]
        outside = np.hypot(np.maximum(q1, 0.0), np.maximum(q2, 0.0))
        inside = np.minimum(np.maximum(q1, q2), 0.0)
        return outside + inside


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

    def to_csv(self, out):
        """Write `x1,x2,v` rows, one per node, row-major, to the text stream
        `out` (anything with a `write(str)`).  Each axis coordinate and
        each distinct value (by bits, so -0.0 and 0.0 stay apart) is
        formatted once, and each grid row written at once."""
        ax1, ax2 = (list(map(repr, ax.tolist())) for ax in self.grid.axes())
        bits, cell = np.unique(self.v.ravel().view(np.int64), return_inverse=True)
        text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
        out.write("x1,x2,v\n")
        for a, row in zip(ax1, text[cell].reshape(self.v.shape).tolist()):
            out.write("".join([f"{a},{b},{c}\n" for b, c in zip(ax2, row)]))


@dataclass
class AffineDynamics2:
    """Planar dynamics affine in each control / disturbance channel.

    drift:              (x1, x2, param) -> (f1, f2)
    control_terms:      sequence of ((x1, x2, param) -> (g1, g2), (lo, hi))
    disturbance_terms:  same shape, for the adversarial channels
    uncertain_params:   scalar values the Hamiltonian is evaluated at
                        (endpoints of a monotone uncertainty interval);
                        (None,) when there is none.

    All callables must broadcast over numpy arrays; a field that is
    constant may be returned as a scalar.
    """

    drift: object
    control_terms: tuple = ()
    disturbance_terms: tuple = ()
    uncertain_params: tuple = (None,)


# -- gridded machinery --------------------------------------------------------

def _grid_field(a):
    """`a`, or its one value as a scalar when every entry has the same bits
    (sign of zero included): the products it enters are the same, with less
    memory traffic."""
    c = a.flat[0]
    if np.all(a == c) and np.all(np.signbit(a) == np.signbit(c)):
        return float(c)
    return a


class _GridTerms:
    """Per-axis slopes of the Hamiltonian, evaluated once per solve, the
    flux program built from them, and the work arrays every step runs in.

    Each distinct value of `uncertain_params` is one branch; a repeated
    value (a degenerate interval such as [0, 0]) would only repeat a branch,
    and the max or min of a branch with itself changes nothing.

    The grid-sized work arrays are allocated here, once, so a step allocates
    nothing of grid size: freeing and reallocating a dozen of them per step
    made the allocator hand the heap top back to the kernel and fault it in
    again, which took about 40% of a solve's wall time.
    """

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite wave sum is refused
    def __init__(self, grid: Grid2, dyn: AffineDynamics2):
        x1g, x2g = grid.mesh()
        ones = np.ones(grid.shape)

        def field(values):
            return _grid_field(np.asarray(values, dtype=float) * ones)

        self.branches = []
        for par in dict.fromkeys(dyn.uncertain_params):
            f1, f2 = dyn.drift(x1g, x2g, par)
            channels = []
            for fn, (lo, hi) in [*dyn.control_terms,
                                 *((fn, (hi, lo)) for fn, (lo, hi) in dyn.disturbance_terms)]:
                if not np.all(np.isfinite((lo, hi))):
                    raise ValueError(f"channel bounds ({lo!r}, {hi!r}) must be finite")
                g1, g2 = (field(g) for g in fn(x1g, x2g, par))
                if np.any((g1 != 0.0) & (g2 != 0.0)):
                    raise ValueError("each control and disturbance channel must move "
                                     "one axis at each node")
                channels.append((g1, g2, float(lo), float(hi)))
            self.branches.append(((field(f1), field(f2)), channels))
        # Per axis, the slopes A = H(e_i) and B = -H(-e_i), from which the
        # axis's flux program is built, all flat in the layout of _flat.  A
        # difference array is one stride longer than the grid; its entries
        # beyond the edge, and on axis 0 those across a block boundary
        # (`wrap`), are 0: the edge ghost node repeats the edge node.
        n1 = grid.shape[0]
        size = n1 * grid.shape[1]
        units = (((1.0, 0.0), (-1.0, 0.0)), ((0.0, 1.0), (0.0, -1.0)))
        self.strides = (1, n1)
        self.flux = (np.zeros(size), np.zeros(size))
        t1, t2 = np.empty(size), np.empty(size)
        self.diffs = tuple(np.zeros(size + s) for s in self.strides)
        self.wrap = self.diffs[0][::n1]
        self.speeds = []
        self.program = []
        for (plus, minus), dx, s, d, f in zip(units, grid.dx, self.strides, self.diffs,
                                              self.flux):
            a = _flat(self.hamiltonian(*plus) * ones)
            b = _flat(-self.hamiltonian(*minus) * ones)
            self.speeds.append(float(np.max(np.maximum(np.abs(a), np.abs(b)))))
            self.program += _flux_program(a, b, dx, d, s, f, t1, t2)
        self.wavesum = sum(s / dx for s, dx in zip(self.speeds, grid.dx))
        if not np.isfinite(self.wavesum):
            raise NonFinite(f"the wave sum s1/dx1 + s2/dx2 is {self.wavesum!r}, so no step "
                            f"length is positive and finite")

    def hamiltonian(self, p1, p2):
        """H(p1, p2) on the grid: p1*f1 + p2*f2 plus each channel's
        extreme, where(coef >= 0, lo*coef, hi*coef) (a disturbance channel's
        bounds are stored swapped), maximized over branches."""
        out = None
        for (f1, f2), channels in self.branches:
            h = p1 * f1 + p2 * f2
            for g1, g2, lo, hi in channels:
                coef = p1 * g1 + p2 * g2
                h = h + np.where(coef >= 0.0, lo * coef, hi * coef)
            out = h if out is None else np.maximum(out, h)
        return out


def _flat(a):
    """A grid-shaped array as a fresh flat array in the x2-major layout a
    solve steps in: node (i, j) is entry i + n1 * j."""
    return a.T.ravel()


def _run(s, size):
    """(lo, hi) when the nonzero entries of the slope s (a scalar, or a flat
    array of `size` entries) are exactly lo:hi, else None."""
    nz = np.flatnonzero(np.broadcast_to(s, size))
    lo, hi = (int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 0)
    return (lo, hi) if hi - lo == nz.size else None


def _flux_program(a, b, dx, d, stride, f, t1, t2):
    """The ufunc calls (ufunc, x, y, out) that write one axis's flux F_i
    into f once a step has written the raw differences of V into d (D- is
    entry k and D+ entry k + stride of node k).  a and b hold the slopes
    A_i and B_i at every node; t1 and t2 are scratch arrays shaped like f,
    and f starts out 0.

    When A_i = B_i at every node, H_i is linear and F_i = A+ D+ + A- D-,
    each product on its run when A+ and A- have one each.  Otherwise F_i
    is the max/min form of the module docstring less each product whose
    slope is the scalar 0, and D is split into its positive part and, in
    place, its negative part only when a kept product reads it."""
    def pos(s):
        return _grid_field(np.maximum(s, 0.0) / dx)

    def neg(s):
        return _grid_field(np.minimum(s, 0.0) / dx)

    n = f.size
    # F_i is a sum of terms, each one product or the max / min of two, and
    # a product is (slope, the part of D it reads, the offset of its entry)
    if np.array_equal(a, b):
        products = [(pos(a), stride), (neg(a), 0)]
        runs = [_run(s, n) for s, _ in products]
        if None not in runs:
            return [(np.multiply, s if isinstance(s, float) else s[lo:hi],
                     d[k + lo:k + hi], f[lo:hi])
                    for (s, k), (lo, hi) in zip(products, runs) if lo < hi]
        terms = [(None, [(s, d, k)]) for s, k in products]
        program = []
    else:
        dpos = np.empty_like(d)
        terms = [(ufunc, [(s, part, k) for s, part, k in products
                          if not (isinstance(s, float) and s == 0.0)])
                 for ufunc, products in ((np.maximum, ((pos(a), dpos, stride), (neg(b), d, 0))),
                                         (np.minimum, ((neg(a), dpos, 0), (pos(b), d, stride))))]
        parts = [part for _, products in terms for _, part, _ in products]
        program = [(ufunc, d, 0.0, out) for ufunc, out in ((np.maximum, dpos), (np.minimum, d))
                   if any(part is out for part in parts)]
    terms = [term for term in terms if term[1]]
    for (ufunc, products), out in zip(terms, (f, t1)):
        (s, part, k), *other = products
        program.append((np.multiply, s, part[k:k + n], out))
        for s, part, k in other:
            program += [(np.multiply, s, part[k:k + n], t2), (ufunc, out, t2, out)]
    if len(terms) == 2:
        program.append((np.add, f, t1, f))
    return program


def _upwind_update(v, terms, h, out):
    """One backward Euler step V + h * (F_1 + F_2), 0 < h <= 1 / wavesum,
    into `out` (flat like v, and not aliasing it): the differences of V,
    then the flux program of `terms`, all in its work arrays."""
    for d, s in zip(terms.diffs, terms.strides):
        np.subtract(v[s:], v[:-s], out=d[s:-s])
    terms.wrap.fill(0.0)
    for ufunc, x, y, z in terms.program:
        ufunc(x, y, out=z)
    np.add(*terms.flux, out=out)
    out *= h
    out += v
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
              freeze="reach"):
    """Integrate the HJ PDE backward from 0 and return the final ValueGrid.

    horizon: a negative time t0, or the string "converge" to run until
    {V <= 0} is final (the stop rule in the module docstring), capped at
    MAX_CONVERGE_TIME; `info["converged"]` records whether the rule fired
    before the cap.  `info["set_final_time"]` is the (negative) time of the
    last change of {V <= 0}, 0 when it never changed.  freeze selects the
    set flavour ("reach" or "stay", see module docstring).  Each step is one
    upwind Euler update of size 0.9 / (s1/dx1 + s2/dx2), with s_i the
    largest |slope| of H_i: 0.9 of the bound below which the step is
    monotone.
    """
    if freeze not in ("reach", "stay"):
        raise ValueError(f"freeze must be 'reach' or 'stay', got {freeze!r}")
    converge = isinstance(horizon, str)
    if converge:
        if horizon != "converge":
            raise ValueError(f"horizon must be a negative time or 'converge', got {horizon!r}")
        t_stop = -MAX_CONVERGE_TIME
    else:
        t_stop = float(horizon)
        if t_stop >= 0.0:
            raise ValueError("horizon must be negative (backward in time)")
    # the two grid buffers in rotation, one of which is returned: allocated
    # before the solve's work arrays, so those free back to the system
    l = _flat(signed_target(grid, target).v)
    v, c = l.copy(), np.empty(l.size)
    terms = _GridTerms(grid, dyn)

    clip = np.minimum if freeze == "reach" else np.maximum

    t = 0.0
    t_final = 0.0
    steps = 0
    rate = np.inf
    converged = True
    if terms.wavesum <= 0.0:
        # Static dynamics: H vanishes identically, nothing evolves.
        clip(v, l, out=v)
        t = t_stop
        h_nom = abs(t_stop)
    else:
        h_nom = 0.9 / terms.wavesum
        widths = np.subtract(grid.maxs, grid.mins)
        tau = min(w / s for w, s in zip(widths, terms.speeds) if s > 0.0)
        # {V <= 0} before and after a step; the old one is overwritten by
        # the nodes that flipped, then the two trade places
        mask = np.less_equal(v, 0.0)
        fresh = np.empty(l.size, dtype=bool)
        while t > t_stop + 1e-12:
            h = min(h_nom, t - t_stop)
            clip(_upwind_update(v, terms, h, c), l, out=c)
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
            "change_rate": rate if steps else 0.0, "set_final_time": t_final}
    # the last step left c free: it takes V back in grid order
    out = c.reshape(grid.shape)
    out[...] = v.reshape(grid.shape[::-1]).T
    return ValueGrid(grid=grid, v=out, time=t, info=info)
