"""Backward reachable set of the double integrator, checked two ways.

x1' = x2, x2' = u with |u| <= 1, target box |x1| <= 0.5, |x2| <= 0.5.
The solver integrates the HJ PDE backward for half a second; states with
V <= 0 can reach the box within that window.  The time-optimal policy for
this plant is bang-bang with one switch, so the minimum transfer time
between two states has a closed form, and the minimum time to the box is
the least of it over a few closed-form points on each edge.  That exact
time is the test suite's oracle (tests/_oracles.py, held to dense scans of
the edges by test_hj_reach).  The script compares the PDE's
inside/outside call against it on every node and draws both boundaries.
"""

import sys
from pathlib import Path

import numpy as np

from robustroa.harness import svgplot
from robustroa.hj_reach import solve_brs

# the double integrator, its exact minimum time and the contour tracing
sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
import _oracles as orc  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"
HORIZON = -0.5


def main():
    OUT.mkdir(exist_ok=True)
    target = orc.DI_TARGET
    grid = orc.grid_around(target, factor=4.0, n=101)
    vg = solve_brs(grid, target, orc.di_dynamics(), HORIZON, freeze="reach")
    info = vg.info
    print(f"PDE steps = {info['steps']}, dt = {info['dt']:.5f}")

    analytic_time = orc.di_min_time_to_box(grid.axes(), target.center, target.half_widths)
    solved_inside = vg.v <= 0.0
    analytic_inside = analytic_time <= -HORIZON
    mismatch = solved_inside != analytic_inside
    near = orc.dilate(orc.flip_band(analytic_inside), iterations=2)
    counts = {"solved": np.count_nonzero(solved_inside),
              "analytic": np.count_nonzero(analytic_inside),
              "mismatch": np.count_nonzero(mismatch),
              "within_two_cells": not np.any(mismatch & ~near)}
    print(f"solved set: {counts['solved']} of {vg.v.size} nodes, "
          f"analytic set: {counts['analytic']}")
    print(f"nodes disagreeing with the bang-bang formula: {counts['mismatch']} "
          f"(all within 2 cells of the true boundary: "
          f"{str(counts['within_two_cells']).lower()})")

    solved = orc.contour_loop(grid.axes(), vg.v)
    exact = orc.contour_loop(grid.axes(), analytic_time, level=-HORIZON)
    hx, hy = target.half_widths
    box = np.array([[hx, hy], [hx, -hy], [-hx, -hy], [-hx, hy], [hx, hy]])
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
