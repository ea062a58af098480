"""Command-line front end: synth | hj-brs | wmax | simulate | reproduce.

Each subcommand takes --config <path> (reproduce instead takes either that
or the name of a bundled figure: fig3, fig4a, fig4c), with optional --seed
and --out.  Exit codes:
0 success, 2 synthesis infeasible, 3 no safe region of attraction,
4 config or usage error.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .. import plants
from ..clf_synth import DimensionMismatch, roa_level, synthesize, verify_closed_loop
from ..hj_reach import TargetOutsideGrid, solve_brs
from ..lmi_solver import Infeasible
from ..roa_bridge import NoSafeRoa, find_wmax
from . import fileio, svgplot
from .scenarios import ConfigError, load_scenario

FIGURE_CONFIGS = {
    "fig3": "quadcopter_fig8.cfg",
    "fig4a": "quadruped_height.cfg",
    "fig4c": "quadruped_push.cfg",
}

AXIS_LABELS = ("y", "z", "phi", "ydot", "zdot", "phidot")
# error-subsystem coordinates inside the 6-state layout
SUB_IDX = {"y": np.array([0, 3]), "z": np.array([1, 4])}


class _Parser(argparse.ArgumentParser):
    # bad usage is a config error in this tool's exit-code scheme
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(4)


def _build_parser():
    parser = _Parser(prog="robustroa",
                     description="Robust tracking pipeline: gain synthesis, "
                                 "reachable safe sets, certified disturbance "
                                 "bounds, closed-loop simulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, brief in (
        ("synth", "synthesize ancillary gains and write certificate files"),
        ("hj-brs", "solve the reachability PDE and write value grids"),
        ("wmax", "certify the largest disturbance bound per subsystem"),
        ("simulate", "run the closed loop and write CSV/SVG artifacts"),
        ("reproduce", "full pipeline, both controller modes, comparison plots"),
    ):
        p = sub.add_parser(name, help=brief)
        if name == "reproduce":
            p.add_argument("figure", nargs="?", choices=sorted(FIGURE_CONFIGS),
                           help="bundled scenario to run (or pass --config)")
        p.add_argument("--config", help="scenario config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario random seed")
        p.add_argument("--out", default=None, help="output directory")
    return parser


def _load(args, config=None):
    """The scenario at `config` (default: --config), with --seed applied."""
    config = config or args.config
    if config is None:
        raise ConfigError("--config is required")
    scn = load_scenario(config)
    if args.seed is not None:
        scn.seed = int(args.seed)
    return scn


def _out_dir(scn, args):
    out = Path(args.out or scn.out_dir or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _matrix_lines(label, m):
    m = np.atleast_2d(np.asarray(m, dtype=float))
    pad = " " * (len(label) + 3)
    rows = ["  ".join(f"{v: .6e}" for v in row) for row in m]
    return [f"{label} = [{rows[0]}]"] + [f"{pad}[{r}]" for r in rows[1:]]


def _synthesize_all(scn, verbose=True):
    """Run every synthesis block on the plant's one linear model; returns
    (model, {axis: (cert, cert_eig_max)})."""
    if scn.plant_kind == "quadcopter":
        model = plants.quadcopter_linearize(scn.quadcopter)
    else:
        model = plants.quadruped_axis_linear(scn.quadruped)
    results = {}
    for axis, block in scn.clf_blocks.items():
        cert, sol = synthesize(model, block.params)
        eig = verify_closed_loop(model, cert)
        if block.w_max is not None:
            cert.set_disturbance_bound(block.w_max)
        results[axis] = (cert, eig)
        if verbose:
            print(f"[synth:{axis}] status = {sol.status.value}, "
                  f"objective = {sol.objective_value:.6f}, cert_eig_max = {eig:.3e}")
            for line in _matrix_lines("K", cert.k):
                print("  " + line)
            for line in _matrix_lines("P", cert.p):
                print("  " + line)
            if cert.w_max is not None:
                print(f"  w_max = {cert.w_max}, level = {cert.level}")
    return model, results


def _hj_solve(scn, axis):
    """The robust stay set of one error subsystem, solved until {V <= 0}
    is final: the grid form of its viability kernel."""
    grid, target, dyn = scn.hj_blocks[axis].problem(scn.quadruped)
    vg = solve_brs(grid, target, dyn, "converge", freeze="stay")
    return vg, target


def _require_hj(scn):
    if not scn.hj_blocks:
        raise ConfigError("scenario has no reachability sections "
                          "([hj_y]/[hj_z]); nothing to solve")


def cmd_synth(args):
    scn = _load(args)
    out = _out_dir(scn, args)
    _, certs = _synthesize_all(scn)
    for axis, (cert, eig) in certs.items():
        path = out / f"{scn.name}_certificate_{axis}.txt"
        fileio.write_certificate(path, scn.name, axis, cert, eig)
        print(f"[synth:{axis}] wrote {path}")
    return 0


def cmd_hj_brs(args):
    scn = _load(args)
    _require_hj(scn)
    out = _out_dir(scn, args)
    for axis in scn.hj_blocks:
        vg, _ = _hj_solve(scn, axis)
        path = out / f"{scn.name}_valuegrid_{axis}.csv"
        vg.to_csv(path)
        info = vg.info
        print(f"[hj-brs:{axis}] steps = {info['steps']}, dt = {info['dt']:.5f}, "
              f"converged = {info['converged']}, "
              f"change_rate = {info['change_rate']:.3e}, "
              f"set_final_time = {info['set_final_time']:.5f}")
        print(f"[hj-brs:{axis}] wrote {path}")
    return 0


def _wmax_pipeline(scn, out, verbose=True):
    """synthesis -> PDE -> closed-form w_max for every subsystem with an hj
    block; returns (model, certs, entries).  Every axis is certified before
    any file is written, so a run that fails on one axis leaves none."""
    _require_hj(scn)
    model, certs = _synthesize_all(scn, verbose=verbose)
    solved = []
    for axis in scn.hj_blocks:
        if axis not in certs:
            raise ConfigError(f"[hj_{axis}] present but [clf_{axis}] missing")
        cert, eig = certs[axis]
        vg, target = _hj_solve(scn, axis)
        if not vg.info["converged"]:
            raise NoSafeRoa(f"[hj_{axis}] the safe set was still changing at the solve's "
                            f"time cap (set_final_time = {vg.info['set_final_time']:.5f}); "
                            f"no bound is certified on a set that is not final")
        res = find_wmax(cert, vg, target)
        solved.append((axis, vg, res))
        if verbose:
            print(f"[wmax:{axis}] w_max = {res.w_max:.6f}, "
                  f"level = {res.level:.6f}, c* = {res.c_star:.6f}")
    entries = []
    for axis, vg, res in solved:
        grid_file = f"{scn.name}_valuegrid_{axis}.csv"
        vg.to_csv(out / grid_file)
        cert, eig = certs[axis]
        fileio.write_certificate(out / f"{scn.name}_certificate_{axis}.txt",
                                 scn.name, axis, cert, eig)
        entries.append({"axis": axis, "w_max": res.w_max, "level": res.level,
                        "grid_file": grid_file})
    fileio.write_wmax_report(out / f"{scn.name}_wmax.txt", scn.name, entries)
    return model, certs, entries


def cmd_wmax(args):
    scn = _load(args)
    out = _out_dir(scn, args)
    _wmax_pipeline(scn, out)
    print(f"[wmax] wrote {out / (scn.name + '_wmax.txt')}")
    return 0


# -- simulation assembly --------------------------------------------------------


def _certify(scn, out):
    """Certification shared by every simulation of `scn`, as (model, certs,
    entries).  It does not depend on the controller mode, so one run
    computes it once.
    Quadruped: the w_max pipeline, which also writes its certificates, value
    grids and report into `out`.  Quadcopter: the synthesis alone, with no
    bound entries."""
    if scn.plant_kind == "quadcopter":
        return (*_synthesize_all(scn, verbose=False), [])
    return _wmax_pipeline(scn, out, verbose=False)


def _build_quadcopter_sim(scn, model, certs):
    plant = plants.QuadcopterPlant(scn.quadcopter)
    cert, _ = certs["main"]
    block = scn.clf_blocks["main"]
    if block.w_max is None:
        raise ConfigError("[clf] needs w_max for the quadcopter pipeline")
    level = roa_level(block.params, block.w_max)
    feedback = (lambda x, e: cert.k @ e) if scn.mode == "robust" else None
    controller = plants.TrackingController(plant, scn.reference(), scn.mpc,
                                           u_lin=plant.hover_input(), feedback=feedback)
    monitors = [plants.LyapunovMonitor(name="E", p=cert.p, level=level)]
    dist = _disturbance_fn(scn, cert, model)
    return plant, controller, monitors, dist


def _build_quadruped_sim(scn, certs, entries):
    plant = plants.QuadrupedPlant(scn.quadruped, delta_m=scn.delta_m,
                                  drag_force=scn.drag_force)
    levels = {e["axis"]: e["level"] for e in entries}
    monitors = []
    for axis in scn.hj_blocks:
        cert, _ = certs[axis]
        monitors.append(plants.LyapunovMonitor(name=axis, p=cert.p,
                                               level=levels[axis],
                                               state_idx=SUB_IDX[axis]))
    ancillary = None
    if scn.mode == "robust":
        # per-axis force corrections distributed torque-neutrally over the
        # current stance so the pitch loop never sees the ancillary action;
        # each entry is (wrench row, gain row, error coordinates)
        wrench_row = {"y": 0, "z": 1}
        terms = [(wrench_row[axis], np.asarray(certs[axis][0].k)[0], SUB_IDX[axis])
                 for axis in scn.hj_blocks]

        def ancillary(x, e):
            wrench = [0.0, 0.0, 0.0]
            for row, k, idx in terms:
                wrench[row] = float(k @ e[idx])
            return plants.stance_allocation(x, plant.stance, wrench)

    controller = plants.TrackingController(plant, scn.reference(), scn.mpc,
                                           u_lin=plant.static_input(), feedback=ancillary)
    # the loader admits no disturbance policy for the quadruped
    return plant, controller, monitors, None


def _disturbance_fn(scn, cert, model):
    pol = scn.disturbance
    if pol.kind == "none":
        return None
    if pol.kind == "constant":
        return plants.ConstantDisturbance(pol.w)
    if pol.kind == "sinusoidal":
        return plants.SinusoidalDisturbance(pol.w_max, freq=pol.freq)
    if pol.kind == "random":
        return plants.RandomDisturbance(pol.w_max, seed=scn.seed,
                                        hold_time=pol.hold_time)
    # worst_constant: aimed with the synthesized certificate
    w = plants.worst_constant_disturbance(cert, model, pol.w_max)
    return plants.ConstantDisturbance(w)


def _metrics(traj):
    err = traj.x - traj.x_ref
    out = {}
    out["rms_error"] = float(np.sqrt(np.mean(np.sum(err[:, :2] ** 2, axis=1))))
    for i, label in enumerate(AXIS_LABELS[: err.shape[1]]):
        out[f"max_abs_e_{label}"] = float(np.max(np.abs(err[:, i])))
    for name, exits in zip(traj.monitor_names, traj.invariant_exits):
        out[f"invariant_exits_{name}"] = int(exits)
    out["invariant_exits"] = int(sum(traj.invariant_exits))
    out["diverged"] = bool(traj.diverged)
    out["clamp_events"] = int(traj.clamp_events)
    return out


def _plot_trajectory(path, scn, traj):
    if scn.plant_kind == "quadcopter":
        series = [
            svgplot.Series("reference", traj.x_ref[:, 0], traj.x_ref[:, 1],
                           color="#888888", dash="5,4"),
            svgplot.Series(scn.mode, traj.x[:, 0], traj.x[:, 1]),
        ]
        svgplot.line_plot(path, series, title=f"{scn.name}: tracked path",
                          xlabel="lateral position [m]", ylabel="height [m]")
    else:
        series = [
            svgplot.Series("height ref", traj.t, traj.x_ref[:, 1],
                           color="#888888", dash="5,4"),
            svgplot.Series("height", traj.t, traj.x[:, 1]),
            svgplot.Series("speed ref", traj.t, traj.x_ref[:, 3],
                           color="#bbbbbb", dash="5,4"),
            svgplot.Series("forward speed", traj.t, traj.x[:, 3]),
        ]
        svgplot.line_plot(path, series, title=f"{scn.name}: tracked signals",
                          xlabel="time [s]", ylabel="height [m] / speed [m/s]")


def _band_series(mode, traj):
    """Energy of each monitor of one run, normalized by its invariant level."""
    series = []
    for j, name in enumerate(traj.monitor_names):
        lev = traj.levels[j]
        label = f"{mode} E_{name}/c" if len(traj.monitor_names) > 1 else f"{mode} E/c"
        series.append(svgplot.Series(label, traj.t, traj.e_lyap[:, j] / lev))
    return series


def _plot_band(path, scn, series):
    """The _band_series of one or more runs against the invariant level."""
    svgplot.line_plot(path, series, title=f"{scn.name}: certificate energy",
                      xlabel="time [s]", ylabel="E / invariant level",
                      ylim=(0.0, 3.0),
                      hlines=[(1.0, "invariant level", "#d62728")])


def _simulate_one(scn, model, certs, entries):
    """Simulate `scn` in its own mode under a certification from _certify."""
    if scn.plant_kind == "quadcopter":
        plant, controller, monitors, dist = _build_quadcopter_sim(scn, model, certs)
    else:
        plant, controller, monitors, dist = _build_quadruped_sim(scn, certs, entries)
    return plants.simulate_closed_loop(plant, controller, scn.reference(), dist,
                                       duration=scn.duration, dt=scn.sim_dt,
                                       monitors=monitors)


def cmd_simulate(args):
    scn = _load(args)
    out = _out_dir(scn, args)
    traj = _simulate_one(scn, *_certify(scn, out))
    csv_path = out / f"{scn.name}_{scn.mode}.csv"
    traj.to_csv(csv_path)
    _plot_trajectory(out / f"{scn.name}_{scn.mode}_traj.svg", scn, traj)
    _plot_band(out / f"{scn.name}_{scn.mode}_band.svg", scn, _band_series(scn.mode, traj))
    print(f"[simulate] mode = {scn.mode}, wrote {csv_path}")
    print(fileio.metrics_block(_metrics(traj)))
    return 0


def cmd_reproduce(args):
    if args.figure is None:
        scn = _load(args)
    else:
        ref = resources.files("robustroa.harness").joinpath(
            "configs", FIGURE_CONFIGS[args.figure])
        with resources.as_file(ref) as path:
            scn = _load(args, path)
    out = _out_dir(scn, args)

    certification = _certify(scn, out)
    bands = []
    for mode in ("nominal", "robust"):
        sub = scn.with_mode(mode)
        traj = _simulate_one(sub, *certification)
        traj.to_csv(out / f"{scn.name}_{mode}.csv")
        _plot_trajectory(out / f"{scn.name}_{mode}_traj.svg", sub, traj)
        print(f"[reproduce:{mode}]")
        print(fileio.metrics_block(_metrics(traj)))
        bands += _band_series(mode, traj)
        # only the band series outlive a mode's run, not its whole trajectory
        del traj
    _plot_band(out / f"{scn.name}_compare_band.svg", scn, bands)
    print(f"[reproduce] artifacts in {out}")
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "hj-brs": cmd_hj_brs,
    "wmax": cmd_wmax,
    "simulate": cmd_simulate,
    "reproduce": cmd_reproduce,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "reproduce" and (args.figure is None) == (args.config is None):
            parser.error("reproduce takes exactly one of a figure id (fig3, fig4a, fig4c) "
                         "and --config")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except (ConfigError, fileio.FileFormatError, DimensionMismatch) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    except Infeasible as exc:
        print(f"synthesis infeasible: {exc}", file=sys.stderr)
        return 2
    except (NoSafeRoa, TargetOutsideGrid) as exc:
        print(f"no safe region of attraction: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
