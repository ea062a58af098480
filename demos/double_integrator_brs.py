"""Backward reachable set of the double integrator, checked two ways.

x1' = x2, x2' = u with |u| <= 1, target box |x1| <= 0.5, |x2| <= 0.5.
The solver integrates the HJ PDE backward for half a second; states with
V <= 0 can reach the box within that window.  The time-optimal policy for
this plant is bang-bang with one switch, so the minimum transfer time
between two states has a closed form, and the minimum time to the box is
the least of it over a few closed-form points on each edge.  The script
compares the PDE's inside/outside call against that exact time on every
node and draws both boundaries.
"""

from pathlib import Path

import numpy as np

from robustroa.harness import svgplot
from robustroa.hj_reach import AffineDynamics2, Grid2, TargetSet, solve_brs

OUT = Path(__file__).resolve().parent / "out"
HORIZON = -0.5
HALF = 0.5


def min_time_to_states(x1, x2, z1, z2):
    """Bang-bang minimum time from (x1, x2) to each (z1, z2); broadcasts.

    One switch through speed vs: accelerating first needs vs >= max of the
    two speeds with vs^2 = (z1 - x1) + (x2^2 + z2^2)/2; decelerating first
    is the mirror image.  Either root sign of vs can win.
    """
    half = 0.5 * (x2 * x2 + z2 * z2)
    top = np.maximum(x2, z2)
    bot = np.minimum(x2, z2)
    ra = (z1 - x1) + half
    va = np.sqrt(np.maximum(ra, 0.0))
    vs_a = np.where(-va >= top - 1e-9, -va, va)
    ta = np.where((ra >= -1e-12) & (vs_a >= top - 1e-9),
                  2.0 * vs_a - x2 - z2, np.inf)
    rb = -(z1 - x1) + half
    vb = np.sqrt(np.maximum(rb, 0.0))
    vs_b = np.where(vb <= bot + 1e-9, vb, -vb)
    tb = np.where((rb >= -1e-12) & (vs_b <= bot + 1e-9),
                  x2 + z2 - 2.0 * vs_b, np.inf)
    return np.maximum(np.minimum(ta, tb), 0.0)


def min_time_to_box(x1g, x2g):
    """Minimum time from each node to the target box, 0 inside it.

    From outside, a path meets the box first on an edge.  Along an edge each
    branch of the formula is monotone between the points where it changes,
    so the least time over the edge lies at an end of the edge or at one of
    those points, clipped onto the edge: on z2 = const, where the switch
    speed meets max(x2, z2) or min(x2, z2); on z1 = const, at z2 = x2 and at
    the single-arc speeds z2 = +-sqrt(x2^2 +- 2 (z1 - x1)).
    """
    best = np.full(x1g.shape, np.inf)
    for z2 in (-HALF, HALF):
        c = 0.5 * (x2g * x2g + z2 * z2)
        for z1 in (-HALF, HALF, x1g - c + np.maximum(x2g, z2) ** 2,
                   x1g + c - np.minimum(x2g, z2) ** 2):
            best = np.minimum(best, min_time_to_states(x1g, x2g, np.clip(z1, -HALF, HALF), z2))
    for z1 in (-HALF, HALF):
        arcs = [np.sqrt(np.maximum(x2g * x2g + s * (z1 - x1g), 0.0)) for s in (2.0, -2.0)]
        for z2 in (-HALF, HALF, x2g, *arcs, *(-a for a in arcs)):
            best = np.minimum(best, min_time_to_states(x1g, x2g, z1, np.clip(z2, -HALF, HALF)))
    inside = (np.abs(x1g) <= HALF) & (np.abs(x2g) <= HALF)
    return np.where(inside, 0.0, best)


def band_around(mask, cells):
    """Nodes within `cells` of a True/False flip (8-neighborhood growth)."""
    band = np.zeros(mask.shape, dtype=bool)
    band[1:, :] |= mask[1:, :] != mask[:-1, :]
    band[:-1, :] |= mask[1:, :] != mask[:-1, :]
    band[:, 1:] |= mask[:, 1:] != mask[:, :-1]
    band[:, :-1] |= mask[:, 1:] != mask[:, :-1]
    for _ in range(cells):
        grown = band.copy()
        grown[1:, :] |= band[:-1, :]
        grown[:-1, :] |= band[1:, :]
        grown[:, 1:] |= band[:, :-1]
        grown[:, :-1] |= band[:, 1:]
        grown[1:, 1:] |= band[:-1, :-1]
        grown[1:, :-1] |= band[:-1, 1:]
        grown[:-1, 1:] |= band[1:, :-1]
        grown[:-1, :-1] |= band[1:, 1:]
        band = grown
    return band


def boundary_loop(grid, v):
    """Zero crossings of v along grid edges, sorted by angle for plotting."""
    x1, x2 = grid.axes()
    pts = []
    for j in range(v.shape[1]):
        col = v[:, j]
        idx = np.nonzero(col[:-1] * col[1:] < 0.0)[0]
        for i in idx:
            frac = col[i] / (col[i] - col[i + 1])
            pts.append((x1[i] + frac * (x1[i + 1] - x1[i]), x2[j]))
    for i in range(v.shape[0]):
        row = v[i, :]
        idx = np.nonzero(row[:-1] * row[1:] < 0.0)[0]
        for j in idx:
            frac = row[j] / (row[j] - row[j + 1])
            pts.append((x1[i], x2[j] + frac * (x2[j + 1] - x2[j])))
    pts = np.array(pts)
    ang = np.arctan2(pts[:, 1], pts[:, 0])
    order = np.argsort(ang)
    loop = pts[order]
    return np.vstack([loop, loop[:1]])  # close the curve


def main():
    OUT.mkdir(exist_ok=True)
    grid = Grid2(mins=(-2.0, -2.0), maxs=(2.0, 2.0), shape=(101, 101))
    target = TargetSet.box(center=(0.0, 0.0), half_widths=(HALF, HALF))
    dyn = AffineDynamics2(
        drift=lambda x1, x2, p: (x2, 0.0 * x1),
        control_terms=[(lambda x1, x2, p: (0.0 * x1, 1.0 + 0.0 * x1), (-1.0, 1.0))],
        disturbance_terms=[],
        uncertain_params=(None,),
    )
    vg = solve_brs(grid, target, dyn, HORIZON, freeze="reach")
    info = vg.info
    print(f"PDE steps = {info['steps']}, dt = {info['dt']:.5f}")

    x1g, x2g = grid.mesh()
    solved_inside = vg.v <= 0.0
    analytic_time = min_time_to_box(x1g, x2g)
    analytic_inside = analytic_time <= -HORIZON
    mismatch = solved_inside != analytic_inside
    near = band_around(analytic_inside, cells=2)
    counts = {"solved": np.count_nonzero(solved_inside),
              "analytic": np.count_nonzero(analytic_inside),
              "mismatch": np.count_nonzero(mismatch),
              "within_two_cells": not np.any(mismatch & ~near)}
    print(f"solved set: {counts['solved']} of {vg.v.size} nodes, "
          f"analytic set: {counts['analytic']}")
    print(f"nodes disagreeing with the bang-bang formula: {counts['mismatch']} "
          f"(all within 2 cells of the true boundary: "
          f"{str(counts['within_two_cells']).lower()})")

    solved = boundary_loop(grid, vg.v)
    exact = boundary_loop(grid, analytic_time + HORIZON)
    box = np.array([[HALF, HALF], [HALF, -HALF], [-HALF, -HALF],
                    [-HALF, HALF], [HALF, HALF]])
    path = OUT / "double_integrator_brs.svg"
    svgplot.line_plot(path, [
        svgplot.Series("target box", box[:, 0], box[:, 1], color="#888888", dash="3,3"),
        svgplot.Series("minimum-time contour", exact[:, 0], exact[:, 1],
                       color="#2ca02c", dash="6,3"),
        svgplot.Series("HJ zero level", solved[:, 0], solved[:, 1]),
    ], title="double integrator: reach the box within 0.5 s",
        xlabel="position", ylabel="velocity")
    print(f"wrote {path}")
    return counts


if __name__ == "__main__":
    main()
