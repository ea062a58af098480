"""Certify a disturbance bound for the quadruped height subsystem.

Chain demonstrated here, for the vertical error axis of the trotting
quadruped: synthesize the ancillary gain, solve the robust stay-inside PDE
over the payload uncertainty until its safe set is final, then take, in
closed form, the largest disturbance bound whose invariant ellipse still
fits inside the safe set.  Weights, grid, target, force box and payload
interval are those of the bundled quadruped_height.cfg.  A second pass
shrinks the force ceiling so that a 5 kg payload leaves little lift
margin.  The certified w_max stays put: the ellipse still meets the
e1 = h1 edge of the safe set before the lift parabola, as it does in the
exact viability kernel.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from robustroa import harness, plants
from robustroa.clf_synth import synthesize
from robustroa.harness import svgplot
from robustroa.harness.scenarios import load_scenario
from robustroa.hj_reach import solve_brs
from robustroa.roa_bridge import find_wmax

OUT = Path(__file__).resolve().parent / "out"
CONFIG = Path(harness.__file__).resolve().parent / "configs" / "quadruped_height.cfg"


def certify(cert, block, plant_params):
    vg = solve_brs(*block.problem(plant_params), "converge", freeze="stay")
    return find_wmax(cert, vg), vg


def ellipse_points(p, level, n=360):
    theta = np.linspace(0.0, 2.0 * np.pi, n)
    circ = np.sqrt(level) * np.vstack([np.cos(theta), np.sin(theta)])
    chol = np.linalg.cholesky(p)
    return np.linalg.solve(chol.T, circ).T


def safe_boundary(vg):
    x1, x2 = vg.grid.axes()
    pts = []
    for j in range(vg.v.shape[1]):
        col = vg.v[:, j]
        for i in np.nonzero(col[:-1] * col[1:] < 0.0)[0]:
            frac = col[i] / (col[i] - col[i + 1])
            pts.append((x1[i] + frac * (x1[i + 1] - x1[i]), x2[j]))
    for i in range(vg.v.shape[0]):
        row = vg.v[i, :]
        for j in np.nonzero(row[:-1] * row[1:] < 0.0)[0]:
            frac = row[j] / (row[j] - row[j + 1])
            pts.append((x1[i], x2[j] + frac * (x2[j + 1] - x2[j])))
    pts = np.array(pts)
    order = np.argsort(np.arctan2(pts[:, 1], pts[:, 0]))
    loop = pts[order]
    return np.vstack([loop, loop[:1]])


def main():
    OUT.mkdir(exist_ok=True)
    scn = load_scenario(CONFIG)
    params, block = scn.quadruped, scn.hj_blocks["z"]
    cert, sol = synthesize(plants.quadruped_axis_linear(params), scn.clf_blocks["z"].params)
    print(f"synthesis: {sol.status.value}, objective {sol.objective_value:.6f}")
    print(f"K = {np.array_str(cert.k, precision=3)}")

    ample, vg = certify(cert, block, params)
    print(f"ample force (u <= {block.u_hi:.0f} N): w_max = {ample.w_max:.6f} m/s^2, "
          f"level = {ample.level:.6f}, c* = {ample.c_star:.6f}")

    ell = ellipse_points(cert.p, ample.level)
    hw = block.target_half_widths
    box = np.array([[hw[0], hw[1]], [hw[0], -hw[1]], [-hw[0], -hw[1]],
                    [-hw[0], hw[1]], [hw[0], hw[1]]])
    safe = safe_boundary(vg)
    path = OUT / "certified_bound_z.svg"
    svgplot.line_plot(path, [
        svgplot.Series("stay band", box[:, 0], box[:, 1],
                       color="#888888", dash="3,3"),
        svgplot.Series("robust safe set", safe[:, 0], safe[:, 1],
                       color="#2ca02c"),
        svgplot.Series("invariant ellipse", ell[:, 0], ell[:, 1],
                       color="#d62728"),
    ], title="height error: invariant ellipse inside the safe set",
        xlabel="height error [m]", ylabel="vertical rate error [m/s]")
    print(f"wrote {path}")

    # scarce lift: the stand force is ~171 N at 5 kg payload, so a 240 N
    # ceiling leaves little up-authority, yet the height band still binds
    print("force ceiling 240 N:")
    for dm in (0.0, 5.0):
        res, _ = certify(cert, replace(block, u_hi=240.0, delta_m=(dm, dm)), params)
        print(f"  payload {dm:.0f} kg: w_max = {res.w_max:.6f} m/s^2, "
              f"level = {res.level:.6f}")
    return ample


if __name__ == "__main__":
    main()
