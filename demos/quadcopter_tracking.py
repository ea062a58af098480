"""Quadcopter figure-eight under a worst-case constant disturbance.

The MPC feedforward replans every 50 ms with deliberately soft position
weights; on its own it cannot reject a steady 3.5 m/s^2 push and the
certificate energy climbs out of the invariant set.  Adding the
synthesized ancillary gain on top of the same feedforward keeps the
energy below the certified level for the whole run.  Both modes face the
identical disturbance vector, aimed using the certificate itself.
"""

from pathlib import Path

import numpy as np

from robustroa import plants
from robustroa.clf_synth import ClfParams, roa_level, synthesize
from robustroa.harness import svgplot
from robustroa.mpc import MpcConfig

OUT = Path(__file__).resolve().parent / "out"
W_MAX = 3.5


def main(duration=5.0):
    """Run both modes for `duration` seconds and plot them; returns the
    trajectories by mode."""
    OUT.mkdir(exist_ok=True)
    params = plants.QuadcopterParams()
    model = plants.quadcopter_linearize(params)
    weights = ClfParams(q=np.array([1e-1, 1, 1, 1, 1, 1e-2]),
                        r=np.array([1e-2, 1e-4]),
                        decay_rate=0.5, dist_weight=0.1)
    cert, _ = synthesize(model, weights)
    level = roa_level(weights, W_MAX)
    print(f"invariant level for |w| <= {W_MAX}: {level:.4f}")

    mpc_cfg = MpcConfig(q=np.array([100, 10, 1e9, 1e5, 1e14, 1e4]),
                        r=np.array([1e6, 1e6]), dt=0.05, horizon=2)
    ref = plants.Figure8Ref(t_end=5.0, amp_y=0.5, amp_z=0.5)
    w_vec = plants.worst_constant_disturbance(cert, model, W_MAX)
    print(f"worst constant disturbance: {np.array_str(w_vec, precision=3)}")

    runs = {}
    for mode, feedback in (("nominal", None), ("robust", lambda x, e: cert.k @ e)):
        plant = plants.QuadcopterPlant(params)
        ctrl = plants.TrackingController(plant, ref, mpc_cfg,
                                         u_lin=plant.hover_input(), feedback=feedback)
        mon = plants.LyapunovMonitor(name="E", p=cert.p, level=level)
        traj = plants.simulate_closed_loop(
            plant, ctrl, ref, plants.ConstantDisturbance(w_vec),
            duration=duration, dt=0.001, monitors=[mon])
        err = traj.x[:, :2] - traj.x_ref[:, :2]
        rms = float(np.sqrt(np.mean(np.sum(err ** 2, axis=1))))
        print(f"{mode:8s}: rms position error = {rms:.4f} m, "
              f"peak E/c = {np.max(traj.e_lyap) / level:.3f}, "
              f"invariant exits = {traj.invariant_exits[0]}, "
              f"diverged = {str(traj.diverged).lower()}")
        runs[mode] = traj

    path = OUT / "quadcopter_energy.svg"
    svgplot.line_plot(path, [
        svgplot.Series("nominal E/c", runs["nominal"].t,
                       runs["nominal"].e_lyap[:, 0] / level, color="#ff7f0e"),
        svgplot.Series("robust E/c", runs["robust"].t,
                       runs["robust"].e_lyap[:, 0] / level),
    ], title="certificate energy, figure-eight under steady push",
        xlabel="time [s]", ylabel="E / invariant level", ylim=(0.0, 3.0),
        hlines=[(1.0, "invariant level", "#d62728")])
    print(f"wrote {path}")

    path = OUT / "quadcopter_paths.svg"
    svgplot.line_plot(path, [
        svgplot.Series("reference", runs["robust"].x_ref[:, 0],
                       runs["robust"].x_ref[:, 1], color="#888888", dash="5,4"),
        svgplot.Series("nominal", runs["nominal"].x[:, 0],
                       runs["nominal"].x[:, 1], color="#ff7f0e"),
        svgplot.Series("robust", runs["robust"].x[:, 0], runs["robust"].x[:, 1]),
    ], title="tracked figure eight", xlabel="lateral position [m]",
        ylabel="height [m]")
    print(f"wrote {path}")
    return runs


if __name__ == "__main__":
    main()
