"""Size a certified invariant ellipsoid inside a Hamilton-Jacobi safe set.

A synthesized certificate gives, for each disturbance bound w, the
invariant ellipsoid {e : e' P e <= c(w)} with c(w) = mu w^2 / lambda.
The safe set comes from reachability as {V <= 0} & {l <= 0} on a grid.
This module answers: what is the largest w whose ellipsoid still fits
inside the safe set?  Since c(w) is strictly increasing, the ellipsoids
are nested and the answer is a bisection on w.

Containment is checked by sampling the ellipsoid boundary (plus the
center) and requiring the bilinearly interpolated V and l to clear a
guard margin delta = half a grid-cell diagonal times a max-slope
estimate, which absorbs interpolation error; the test is conservative,
never optimistic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrixkit as mk
from .clf_synth import ClfCertificate, roa_level
from .hj_reach import Grid2, GridMismatch, TargetSet, ValueGrid, interp2


class NoSafeRoa(Exception):
    """Even a vanishingly small disturbance bound has no contained ellipsoid."""


class OutOfGrid(Exception):
    """An ellipsoid sample point left the value grid."""


@dataclass
class Ellipsoid2:
    """{x : (x - center)' p (x - center) <= level} in the plane."""

    p: np.ndarray
    center: np.ndarray
    level: float

    def __post_init__(self):
        self.p = mk.require_symmetric(self.p, "p")
        if self.p.shape != (2, 2):
            raise ValueError("p must be 2 x 2")
        self.center = np.asarray(self.center, dtype=float).ravel()
        if self.center.shape != (2,):
            raise ValueError("center must have two entries")
        self.level = float(self.level)
        if self.level <= 0.0:
            raise ValueError("level must be positive")
        mk.cholesky(self.p)  # fail fast when p is not positive definite

    def boundary_points(self, n=720):
        """n points on the boundary: center + sqrt(level) * p^(-1/2) [cos, sin]."""
        vals, vecs = np.linalg.eigh(self.p)
        half_inv = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
        th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        circ = np.stack([np.cos(th), np.sin(th)], axis=1)
        return self.center + np.sqrt(self.level) * circ @ half_inv.T


@dataclass
class WmaxResult:
    w_max: float
    level: float
    iterations: int
    bracket_too_small: bool


def containment_guard(vg: ValueGrid):
    """delta = 0.5 * cell diagonal * max |grad V| (finite-difference estimate)."""
    dx1, dx2 = vg.grid.dx
    g1, g2 = np.gradient(vg.v, dx1, dx2)
    slope = float(np.max(np.hypot(g1, g2)))
    return 0.5 * vg.grid.cell_diagonal * slope


def ellipsoid_contained(ell: Ellipsoid2, vg: ValueGrid, target,
                        n_boundary=720, guard=None):
    """True when the ellipsoid lies in the safe set with margin.

    Checks V and l at n_boundary boundary samples plus the center, each
    against -delta.  target is a TargetSet, sampled on the value grid here,
    or a ValueGrid of l already sampled on that same grid.  guard overrides
    the automatic delta (mostly for tests).  Raises OutOfGrid when a sample
    point leaves the grid, GridMismatch when the two grids differ.
    """
    delta = containment_guard(vg) if guard is None else float(guard)
    pts = np.vstack([ell.boundary_points(n_boundary), ell.center])
    try:
        v_vals = interp2(vg.grid, vg.v, pts)
    except ValueError as exc:
        raise OutOfGrid(str(exc)) from None
    if np.any(v_vals > -delta):
        return False
    if isinstance(target, ValueGrid):
        if target.grid != vg.grid:
            raise GridMismatch("target and value function live on different grids")
        l_grid = target.v
    else:
        l_grid = _sampled_l(vg.grid, target)
    l_vals = interp2(vg.grid, l_grid, pts)
    return bool(np.all(l_vals <= -delta))


def _sampled_l(grid: Grid2, target: TargetSet):
    x1g, x2g = grid.mesh()
    return np.asarray(target.l(x1g, x2g), dtype=float)


def find_wmax(cert: ClfCertificate, vg: ValueGrid, target: TargetSet,
              w_hi=20.0, tol=1e-3, n_boundary=720, center=(0.0, 0.0)):
    """Largest disturbance bound whose invariant ellipsoid fits the safe set.

    Bisects w over [0, w_hi] with exactly ceil(log2(w_hi / tol))
    iterations (c(w) is monotone, so containment flips once).  An ellipsoid
    that pokes out of the grid counts as not contained (the safe set only
    lives on the grid), so a generous w_hi is harmless.  Raises NoSafeRoa
    when containment already fails as w -> 0; when containment still holds
    at w_hi the result carries bracket_too_small=True and w_max is the top
    of the bracket up to tol.

    On success the certificate's w_max / level fields are set.
    """
    if w_hi <= 0.0 or tol <= 0.0 or tol >= w_hi:
        raise ValueError("need 0 < tol < w_hi")
    center = np.asarray(center, dtype=float)
    guard = containment_guard(vg)
    # every check reads the same l, so sample it once
    l_vg = ValueGrid(grid=vg.grid, v=_sampled_l(vg.grid, target))

    def contained(w):
        ell = Ellipsoid2(p=cert.p, center=center, level=roa_level(cert.params, w))
        try:
            return ellipsoid_contained(ell, vg, l_vg, n_boundary=n_boundary, guard=guard)
        except OutOfGrid:
            return False

    if not contained(1e-9 * w_hi):
        raise NoSafeRoa("containment fails for arbitrarily small disturbance bounds")
    bracket_too_small = contained(w_hi)
    iterations = int(np.ceil(np.log2(w_hi / tol)))
    lo, hi = 0.0, float(w_hi)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if contained(mid):
            lo = mid
        else:
            hi = mid
    cert.set_disturbance_bound(lo)
    return WmaxResult(w_max=lo, level=cert.level, iterations=iterations,
                      bracket_too_small=bracket_too_small)
