"""Size a certified invariant ellipsoid inside a Hamilton-Jacobi safe set.

A synthesized certificate gives, for each disturbance bound w, the
invariant ellipsoid {e : e' P e <= c(w)} with c(w) = mu w^2 / lambda.
The safe set comes from reachability as {V <= 0} & {l <= 0} on a grid.
A stay solve clips every step with max(., l), so V >= l at every node and
{V <= 0} is that set by itself: this module reads V alone, and V >= l is
its callers' precondition.  It answers: what is the largest w whose
ellipsoid still fits inside the safe set?  The answer is in closed form.

Containment requires V to clear a guard margin delta, which absorbs the
error of reading V between nodes: at each node, half a grid cell diagonal
times the steepest slope of V on the cells around it, a local bound on
how far V can stray from its bilinear interpolant.  Between nodes,
w = V + delta is read through the concave envelope of its bilinear
interpolant on each cell: the piecewise-linear interpolant on whichever
diagonal makes it concave, which lies on or above the bilinear one.  A
point is unsafe where that envelope is positive, and everything beyond
the grid border is unsafe.  The ellipsoid fits exactly when its level
stays below

    c* = least e' P e over the unsafe part of the grid,

with e measured from the ellipsoid's center.  On a cell whose corners are
all unsafe that part is the whole cell; on a split cell it is, in each
envelope triangle, a convex polygon bounded by the unsafe pieces of the
triangle's edges and by the segment where the envelope crosses zero.
e' P e is convex, so its least value over a region that does not hold the
center lies on the region's boundary: the polygons' sides, and the cell
edges between a whole cell and any other.  On each such segment it is a
1-D quadratic clipped to the segment.  A center in the unsafe part means
no ellipsoid fits.  Since c(w) is increasing, w_max = sqrt(lambda c* / mu),
rounded down (see find_wmax).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clf_synth import ClfCertificate
from .hj_reach import Grid2, ValueGrid


class NoSafeRoa(Exception):
    """Even a vanishingly small disturbance bound has no contained ellipsoid."""


@dataclass
class WmaxResult:
    w_max: float
    level: float
    c_star: float


def containment_guard(vg: ValueGrid):
    """delta at every node: 0.5 * cell diagonal * the steepest slope of V on
    the cells that touch it.  A cell's slope is the norm of its largest
    difference quotients along each axis; a NaN node is unsafe by itself
    and sets no slope."""
    dx1, dx2 = vg.grid.dx
    n1, n2 = vg.grid.shape
    s1 = np.abs(np.diff(vg.v, axis=0))
    s1 /= dx1
    s2 = np.abs(np.diff(vg.v, axis=1))
    s2 /= dx2
    # cell slopes inside a ring of zeros, so every node has four cells
    ring = np.zeros((n1 + 1, n2 + 1))
    cell = np.fmax(s1[:, :-1], s1[:, 1:], out=ring[1:-1, 1:-1])
    np.hypot(cell, np.fmax(s2[:-1], s2[1:], out=s2[1:]), out=cell)
    slope = np.fmax(ring[:-1, :-1], ring[1:, :-1])
    np.fmax(slope, ring[:-1, 1:], out=slope)
    np.fmax(slope, ring[1:, 1:], out=slope)
    slope *= 0.5 * vg.grid.cell_diagonal
    return slope


def _node_gap(vg: ValueGrid, delta):
    """w = V + delta at every node (delta per node or one value for all),
    +inf where V or delta is NaN: a node is unsafe where w > 0."""
    w = vg.v + delta
    w[np.isnan(w)] = np.inf
    return w


def _segment_min(p11, p12, p22, ax, ay, bx, by):
    """Least e'Pe on each segment from (ax, ay) to (bx, by)."""
    dx = bx - ax
    dy = by - ay
    a = p11 * dx * dx + 2.0 * p12 * dx * dy + p22 * dy * dy
    b = p11 * ax * dx + p12 * (ax * dy + ay * dx) + p22 * ay * dy
    t = np.clip(-b / np.where(a > 0.0, a, 1.0), 0.0, 1.0)
    ex = ax + t * dx
    ey = ay + t * dy
    return p11 * ex * ex + 2.0 * p12 * ex * ey + p22 * ey * ey


def _unsafe_level(p, center, grid: Grid2, w):
    """c*: the least (e - center)' p (e - center) over the unsafe part of
    the grid (module docstring) for node values w, unsafe where positive;
    0 when the center lies in that part or off the grid."""
    ax1, ax2 = grid.axes()
    c1, c2 = float(center[0]), float(center[1])
    if not (ax1[0] <= c1 <= ax1[-1] and ax2[0] <= c2 <= ax2[-1]):
        return 0.0
    corners = (w[:-1, :-1], w[1:, :-1], w[:-1, 1:], w[1:, 1:])  # 00, 10, 01, 11
    n_unsafe = sum((c > 0.0).astype(np.int8) for c in corners)
    finite = np.isfinite(w)
    finite = finite[:-1, :-1] & finite[1:, :-1] & finite[:-1, 1:] & finite[1:, 1:]
    # whole cells: every corner unsafe or one of them not finite, and the
    # ring of padding cells beyond the border; cell (i, j) spans nodes
    # i..i+1, j..j+1
    whole = np.ones((n_unsafe.shape[0] + 2, n_unsafe.shape[1] + 2), dtype=bool)
    np.logical_or(n_unsafe == 4, ~finite, out=whole[1:-1, 1:-1])
    split = (n_unsafe > 0) & ~whole[1:-1, 1:-1]
    i = min(int(np.searchsorted(ax1, c1, side="right")) - 1, len(ax1) - 2)
    j = min(int(np.searchsorted(ax2, c2, side="right")) - 1, len(ax2) - 2)
    if whole[i + 1, j + 1]:
        return 0.0
    if split[i, j]:
        # the envelope is the least of the planes of its two triangles
        w00, w10, w01, w11 = (float(c[i, j]) for c in corners)
        u = (c1 - ax1[i]) / (ax1[i + 1] - ax1[i])
        v = (c2 - ax2[j]) / (ax2[j + 1] - ax2[j])
        if w00 - w10 - w01 + w11 >= 0.0:
            env = min(w00 + (w10 - w00) * u + (w11 - w10) * v,
                      w00 + (w11 - w01) * u + (w01 - w00) * v)
        else:
            env = min(w00 + (w10 - w00) * u + (w01 - w00) * v,
                      w11 + (w11 - w01) * (u - 1.0) + (w11 - w10) * (v - 1.0))
        if env > 0.0:
            return 0.0
    d1 = ax1 - c1
    d2 = ax2 - c2
    # the whole cells and the ring form one region without the center, so
    # e'Pe is least on its boundary: the cell edges with a whole cell on one
    # side only, along axis 2 on grid line i and along axis 1 on grid line j
    i, j = np.nonzero(whole[:-1, 1:-1] != whole[1:, 1:-1])
    segments = [(d1[i], d2[j], d1[i], d2[j + 1])]
    i, j = np.nonzero(whole[1:-1, :-1] != whole[1:-1, 1:])
    segments.append((d1[i], d2[j], d1[i + 1], d2[j]))
    # split cells: the unsafe polygon of each envelope triangle is bounded
    # by the unsafe parts of the triangle's edges and by its zero segment
    si, sj = np.nonzero(split)
    if si.size:
        x = (d1[si], d1[si + 1], d1[si], d1[si + 1])
        y = (d2[sj], d2[sj], d2[sj + 1], d2[sj + 1])
        wv = tuple(c[si, sj] for c in corners)
        # corners 0..3 = 00, 10, 01, 11; the envelope's triangles are
        # (00, 10, 11) and (00, 11, 01) on the diagonal 00-11, else
        # (00, 10, 01) and (10, 11, 01), picked as rows 0-2 and 3-5
        main = wv[0] - wv[1] - wv[2] + wv[3] >= 0.0
        pick = np.stack([np.zeros_like(si), np.ones_like(si), np.where(main, 3, 2),
                         np.where(main, 0, 1), np.full_like(si, 3), np.full_like(si, 2)])
        xs, ys, ws = (np.choose(pick, np.stack(a)) for a in (x, y, wv))
        for tri in ((0, 1, 2), (3, 4, 5)):
            cross = []
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                wa, wb = ws[a], ws[b]
                ua, ub = wa > 0.0, wb > 0.0
                mixed = ua != ub
                t = np.divide(wa, wa - wb, out=np.zeros_like(wa), where=mixed)
                cx = xs[a] + t * (xs[b] - xs[a])
                cy = ys[a] + t * (ys[b] - ys[a])
                # from the unsafe end (or the crossing) to the other
                keep = ua | ub
                segments.append((np.where(ua, xs[a], cx)[keep], np.where(ua, ys[a], cy)[keep],
                                 np.where(ub, xs[b], cx)[keep], np.where(ub, ys[b], cy)[keep]))
                cross.append((mixed, cx, cy))
            (m0, x0, y0), (m1, x1, y1), (m2, x2, y2) = cross
            # a mixed triangle has exactly two edges that change sign
            keep = m0 | m1 | m2
            segments.append((np.where(m0, x0, x1)[keep], np.where(m0, y0, y1)[keep],
                             np.where(m0 & m1, x1, x2)[keep], np.where(m0 & m1, y1, y2)[keep]))
    ax, ay, bx, by = (np.concatenate(c) for c in zip(*segments))
    p11, p22 = float(p[0, 0]), float(p[1, 1])
    p12 = 0.5 * (float(p[0, 1]) + float(p[1, 0]))
    return max(float(_segment_min(p11, p12, p22, ax, ay, bx, by).min()), 0.0)


def ellipsoid_contained(p, center, level, vg: ValueGrid, guard=None):
    """True when the ellipsoid {x : (x - center)' p (x - center) <= level}
    (p a 2 x 2 positive definite matrix) meets no unsafe part of the grid
    and stays inside it: its level lies below c*.  guard overrides the
    automatic delta, with one value for every node or one per node."""
    delta = containment_guard(vg) if guard is None else guard
    w = _node_gap(vg, delta)
    return level < _unsafe_level(p, center, vg.grid, w)


def _round_down(w):
    """w less 2^-30 of itself, truncated to a 20-bit significand."""
    m, e = math.frexp(w * (1.0 - 2.0 ** -30))
    return math.ldexp(math.floor(m * 2.0 ** 20), e - 20)


def find_wmax(cert: ClfCertificate, vg: ValueGrid):
    """Largest disturbance bound whose origin-centered ellipsoid fits {V <= 0}.

    w_max is sqrt(lambda c* / mu) rounded down: shaved by 2^-30 of itself,
    which covers the roundoff of c* (a few ulps), then truncated to a 20-bit
    significand, a step of at most 2e-6 of w_max.  c* reads the values of
    V, whose last bits differ between solves with the same safe set (the
    time integrator; the horizon once the set is final); differences far
    below the step move w_max only where they straddle one.  The level it
    certifies is then confirmed to lie below c*.  Raises NoSafeRoa
    when the origin lies in the unsafe part or off the grid.

    On success the certificate's w_max / level fields are set.
    """
    c_star = _unsafe_level(cert.p, (0.0, 0.0), vg.grid,
                           _node_gap(vg, containment_guard(vg)))
    if not c_star > 0.0:
        raise NoSafeRoa("the origin lies in the unsafe part: no ellipsoid fits the safe set")
    params = cert.params
    w = _round_down(math.sqrt(params.decay_rate * c_star / params.dist_weight))
    cert.set_disturbance_bound(w)
    if not cert.level < c_star:
        raise ArithmeticError(f"certified level {cert.level!r} does not clear c* = {c_star!r}")
    return WmaxResult(w_max=w, level=cert.level, c_star=c_star)
