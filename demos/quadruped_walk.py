"""Trotting quadruped carrying an unmodeled 5 kg payload.

Full pipeline for the walking plant: per-axis gain synthesis, robust
stay-inside reachability over the payload range, the certified
disturbance bound in closed form, then closed-loop runs with and without the
ancillary action.  The per-axis force corrections are spread over the
stance pair through a torque-neutral allocation so the pitch loop never
sees them.  The MPC plans with the nominal mass in both modes; only the
robust mode gets the certified per-axis feedback, and only it keeps the
error energy inside the invariant set.
"""

from pathlib import Path

import numpy as np

from robustroa import plants
from robustroa.clf_synth import ClfParams, synthesize
from robustroa.harness import svgplot
from robustroa.hj_reach import Grid2, TargetSet, solve_brs
from robustroa.mpc import MpcConfig
from robustroa.roa_bridge import find_wmax

OUT = Path(__file__).resolve().parent / "out"
DELTA_M = 5.0
SUB_IDX = {"y": np.array([0, 3]), "z": np.array([1, 4])}

AXES = {
    "y": dict(weights=ClfParams(q=np.array([500.0, 10.0]), r=np.array([1.0]),
                                decay_rate=0.3, dist_weight=200.0),
              grid_hw=(0.5, 2.0), target_hw=(0.25, 1.0), u_lo=-70.0, u_hi=70.0),
    "z": dict(weights=ClfParams(q=np.array([1000.0, 1.0]), r=np.array([0.01]),
                                decay_rate=0.8, dist_weight=90.0),
              grid_hw=(0.2, 1.6), target_hw=(0.076, 0.8), u_lo=0.0, u_hi=300.0),
}


def certify_axis(axis, spec, params):
    model = plants.quadruped_axis_linear(params)
    cert, sol = synthesize(model, spec["weights"])
    grid = Grid2(mins=(-spec["grid_hw"][0], -spec["grid_hw"][1]),
                 maxs=spec["grid_hw"], shape=(101, 101))
    target = TargetSet.box(center=(0.0, 0.0), half_widths=spec["target_hw"])
    dyn = plants.subsystem_error_dynamics(axis, params, u_lo=spec["u_lo"],
                                          u_hi=spec["u_hi"],
                                          delta_m_interval=(0.0, DELTA_M))
    vg = solve_brs(grid, target, dyn, "converge", freeze="stay")
    res = find_wmax(cert, vg, target)
    print(f"axis {axis}: objective {sol.objective_value:.6f}, "
          f"w_max {res.w_max:.6f}, level {res.level:.6f}")
    return cert, res.level


def run(mode, certs, levels, params, mpc_cfg, duration):
    plant = plants.QuadrupedPlant(params, delta_m=DELTA_M)
    ref = plants.TrotRef(y0=0.0, z_ref=params.z_ref, v_ref=params.v_ref)
    ancillary = None
    if mode == "robust":
        k_rows = {axis: np.asarray(certs[axis].k)[0] for axis in AXES}

        def ancillary(x, e):
            wrench = (float(k_rows["y"] @ e[SUB_IDX["y"]]),
                      float(k_rows["z"] @ e[SUB_IDX["z"]]), 0.0)
            return plants.stance_allocation(x, plant.stance, wrench)

    ctrl = plants.TrackingController(plant, ref, mpc_cfg,
                                     u_lin=plant.static_input(), feedback=ancillary)
    monitors = [plants.LyapunovMonitor(name=a, p=certs[a].p, level=levels[a],
                                       state_idx=SUB_IDX[a]) for a in AXES]
    traj = plants.simulate_closed_loop(plant, ctrl, ref, None,
                                       duration=duration, dt=0.001,
                                       monitors=monitors)
    for j, axis in enumerate(AXES):
        print(f"{mode:8s} axis {axis}: max|e| = "
              f"{np.max(np.abs(traj.x[:, SUB_IDX[axis][0]] - traj.x_ref[:, SUB_IDX[axis][0]])):.4f}, "
              f"peak E/c = {np.max(traj.e_lyap[:, j]) / levels[axis]:.3f}, "
              f"invariant exits = {traj.invariant_exits[j]}")
    return traj


def main(duration=4.0):
    """Certify both axes, run both modes for `duration` seconds, plot the
    height-axis energy; returns the trajectories by mode."""
    OUT.mkdir(exist_ok=True)
    params = plants.QuadrupedParams()
    certs, levels = {}, {}
    for axis, spec in AXES.items():
        certs[axis], levels[axis] = certify_axis(axis, spec, params)

    mpc_cfg = MpcConfig(q=np.array([1e5, 1e3, 1e7, 1e2, 1e1, 1e2]),
                        r=np.zeros(4), dt=0.05, horizon=2,
                        u_lo=np.array([-35.0, -35.0, 0.0, 0.0]),
                        u_hi=np.array([35.0, 35.0, 150.0, 150.0]))
    trajs = {mode: run(mode, certs, levels, params, mpc_cfg, duration=duration)
             for mode in ("nominal", "robust")}

    path = OUT / "quadruped_height_energy.svg"
    z = list(AXES).index("z")
    svgplot.line_plot(path, [
        svgplot.Series("nominal E_z/c", trajs["nominal"].t,
                       trajs["nominal"].e_lyap[:, z] / levels["z"],
                       color="#ff7f0e"),
        svgplot.Series("robust E_z/c", trajs["robust"].t,
                       trajs["robust"].e_lyap[:, z] / levels["z"]),
    ], title="height-axis energy while carrying 5 kg",
        xlabel="time [s]", ylabel="E / invariant level", ylim=(0.0, 3.0),
        hlines=[(1.0, "invariant level", "#d62728")])
    print(f"wrote {path}")
    return trajs


if __name__ == "__main__":
    main()
