"""Command-line front end: synth | hj-brs | wmax | simulate | reproduce.

Each subcommand takes --config <path> (reproduce instead takes either that
or the name of a bundled figure: fig3, fig4a, fig4c), with optional --seed
and --out.  Exit codes:
0 success, 2 synthesis infeasible, 3 no safe region of attraction,
4 config or usage error (a synthesis that breaks down numerically too).

Every command runs the stages it needs in the fixed order
synthesize -> solve -> bound -> simulate (_run_stages):

    synth                synthesize
    hj-brs               solve
    wmax                 synthesize, solve, bound
    simulate, reproduce  synthesize, solve, bound, simulate

A quadcopter simulation is certified by its configured [clf] w_max, so it
solves no safe set.  The simulate stage runs only the first sample of a
run in robust mode, whose MPC solve or stance allocation can still fail.
Then one write pass creates the output directory, simulates, writes the
files and prints the report.  Every refusal (exit 2, 3 or 4) comes from a
stage before it, so a refused run leaves no directory and no file.

The decoupled axes and the controller modes share nothing but the
certificates, so _fan_out runs them side by side, one job per axis chain
and one per reproduce mode.  An axis's job runs its whole share of the
stages (synthesize, solve, bound) and formats its value grid's CSV text,
so the write pass only writes it; a reproduce mode's job simulates and
writes that mode's record, CSV and trajectory SVG.  The first job runs in
the CLI process and each other one in a forked child (here too when a
fork fails).  Results come back in axis and mode order, and of the
refusals the one raised is the first in (stage, axis) order, so the
bytes, the report and the exit codes are those of running the stages one
after the other.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import os
import pickle
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .. import plants
from ..clf_synth import DimensionMismatch, synthesize, verify_closed_loop
from ..hj_reach import TargetOutsideGrid, solve_brs
from ..lmi_solver import Infeasible
from ..matrixkit import NonFinite
from ..roa_bridge import NoSafeRoa, find_wmax
from . import fileio, svgplot
from .scenarios import ConfigError, load_scenario

FIGURE_CONFIGS = {
    "fig3": "quadcopter_fig8.cfg",
    "fig4a": "quadruped_height.cfg",
    "fig4c": "quadruped_push.cfg",
}

REPRODUCE_MODES = ("nominal", "robust")
AXIS_LABELS = ("y", "z", "phi", "ydot", "zdot", "phidot")


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
        ("simulate", "run the closed loop and write its record, CSV and SVGs"),
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


def _load(args):
    """The scenario of --config or of reproduce's figure, with --seed applied."""
    if getattr(args, "figure", None) is not None:
        ref = resources.files("robustroa.harness").joinpath(
            "configs", FIGURE_CONFIGS[args.figure])
        with resources.as_file(ref) as path:
            scn = load_scenario(path)
    elif args.config is None:
        raise ConfigError("--config is required")
    else:
        scn = load_scenario(args.config)
    if args.seed is not None:
        scn.seed = int(args.seed)
    return scn


# -- stages ---------------------------------------------------------------------


def _fan_out(fn, items):
    """[fn(item) for item in items], in item order.  The first item runs in
    this process and each later one in a child made by os.fork, which
    pickles back (ok, result or exception) through a pipe.  If a fork fails
    (no process to spare), that item and every later one run in this
    process instead.  Every child is reaped, even when an item run here
    raised, before the first exception in item order is re-raised."""
    items = list(items)
    if len(items) < 2 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    children, local = [], []
    try:
        for i in range(1, len(items)):
            try:
                children.append(_fork(fn, items[i]))
            except OSError:
                local = items[i:]
                break
        first = _outcome(fn, items[0])
        rest = [_outcome(fn, item) for item in local]
    finally:
        forked = [_reap(pid, fd) for pid, fd in children]
    outcomes = [first, *forked, *rest]
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


def _outcome(fn, item):
    try:
        return True, fn(item)
    except Exception as exc:
        return False, exc


def _fork(fn, item):
    """(pid, read end of its pipe) of a child that runs fn(item)."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid:
        os.close(wfd)
        return pid, rfd
    try:
        os.close(rfd)
        # the parent prints every report; a child's stdout goes nowhere
        sys.stdout = io.StringIO()
        outcome = _outcome(fn, item)
        try:
            data = pickle.dumps(outcome)
        except Exception as exc:
            data = pickle.dumps((False, ChildProcessError(
                f"forked job's outcome cannot be pickled: {exc!r}")))
        with os.fdopen(wfd, "wb") as pipe:
            pipe.write(data)
    finally:
        # never unwind into the caller's stack: that is the parent's
        os._exit(0)


def _reap(pid, fd):
    """The (ok, value) the child sent, or (False, error) if it sent none.
    The outcome is unpickled as it is read, so its bytes are never held
    whole; closing the pipe before the wait stops a child still writing."""
    outcome = None
    try:
        with os.fdopen(fd, "rb") as pipe:
            outcome = pickle.load(pipe)
    except EOFError:
        pass
    except Exception as exc:  # e.g. an exception whose __init__ does not take its args
        outcome = False, ChildProcessError(f"forked job's outcome cannot be unpickled: "
                                           f"{exc!r}")
    finally:
        _, status = os.waitpid(pid, 0)
    if outcome is None:
        return False, ChildProcessError(f"forked job exited without a result "
                                        f"(wait status {status})")
    return outcome


# a chain's steps in the order the stages run them; formatting an axis's
# value grid is the write pass's share, after every refusal
CHAIN_STEPS = ("synthesize", "solve", "bound", "format")


def _run_stages(scn, stages):
    """Run `stages` on `scn`; every refusal is raised here, before anything
    is written.  Each axis runs its own chain of them (synthesize -> solve
    -> bound, then its value grid formatted as CSV text), the axes side by
    side through _fan_out.  A chain stops at its first refusal, and the one
    raised is the first in (stage, axis) order: the one running the stages
    one after the other, axis by axis, would raise.  Returns what they
    computed: the plant's linear `model` and `certs` {axis: (cert,
    cert_eig_max, solution)} from synthesize, `grids` {axis: value grid}
    and `grid_csv` {axis: its CSV text, as the list of chunks to_csv
    wrote} from solve, and `bounds` {axis: WmaxResult} from bound."""
    if scn.plant_kind == "quadcopter" and "simulate" in stages:
        # certified by its configured [clf] w_max: there is no safe set
        stages = [s for s in stages if s != "solve"]
    if "solve" in stages and not scn.hj_blocks:
        raise ConfigError("scenario has no reachability sections "
                          "([hj_y]/[hj_z]); nothing to solve")
    run = SimpleNamespace(model=None, certs={}, grids={}, grid_csv={}, bounds={})
    clf_blocks = scn.clf_blocks if "synthesize" in stages else {}
    hj_blocks = scn.hj_blocks if "solve" in stages else {}
    if clf_blocks:
        # every synthesis block runs on the plant's one linear model
        try:
            if scn.plant_kind == "quadcopter":
                run.model = plants.quadcopter_linearize(scn.quadcopter)
            else:
                run.model = plants.quadruped_axis_linear(scn.quadruped)
        except NonFinite as exc:
            raise ConfigError(f"the linear model broke down ({exc}): the config's scales are "
                              f"outside the solver's range") from None

    def chain(axis):
        """(None, {run field: this axis's entry}), or (the step that
        refused, its exception)."""
        done, step = {}, "synthesize"
        try:
            if axis in clf_blocks:
                cert, sol = synthesize(run.model, clf_blocks[axis])
                eig = verify_closed_loop(run.model, cert)
                if scn.w_max is not None:  # [clf]'s, the quadcopter's one axis
                    cert.set_disturbance_bound(scn.w_max)
                done["certs"] = cert, eig, sol
            if axis in hj_blocks:
                # the robust stay set of the error subsystem, solved until
                # {V <= 0} is final: the grid form of its viability kernel
                step = "solve"
                vg = solve_brs(*hj_blocks[axis].problem(scn.quadruped), "converge",
                               freeze="stay")
                done["grids"] = vg
                if "bound" in stages:
                    step = "bound"
                    if not vg.info["converged"]:
                        raise NoSafeRoa(f"[hj_{axis}] the safe set was still changing at "
                                        f"the solve's time cap (set_final_time = "
                                        f"{vg.info['set_final_time']:.5f}); no bound is "
                                        f"certified on a set that is not final")
                    done["bounds"] = find_wmax(done["certs"][0], vg)
                step = "format"
                # kept as the chunks written, so the text is held once
                chunks = []
                vg.to_csv(SimpleNamespace(write=chunks.append))
                done["grid_csv"] = chunks
        except NonFinite as exc:
            # no infeasibility or empty set was certified: it is a config error
            where = (f"synthesis of axis {axis!r}" if step == "synthesize"
                     else f"[hj_{axis}] the {step}")
            return step, ConfigError(f"{where} broke down ({exc}): the config's scales are "
                                     f"outside the solver's range")
        except Exception as exc:
            return step, exc
        return None, done

    axes = list(dict.fromkeys([*clf_blocks, *hj_blocks]))
    outcomes = _fan_out(chain, axes)
    refused = [(CHAIN_STEPS.index(step), i) for i, (step, _) in enumerate(outcomes) if step]
    if refused:
        raise outcomes[min(refused)[1]][1]
    for axis, (_, done) in zip(axes, outcomes):
        for field, entry in done.items():
            getattr(run, field)[axis] = entry
    if "bound" in stages and scn.plant_kind == "quadcopter" and scn.w_max is None:
        raise ConfigError("[clf] needs w_max for the quadcopter pipeline")
    if "simulate" in stages:
        # a run's first sample in robust mode, which makes every call nominal makes: its MPC
        # solve and its stance allocation can still break on scales the loader admits
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                _simulate(dataclasses.replace(scn, duration=0.0), run, "robust")
            except NonFinite as exc:  # mpc: "hess contains non-finite entries"
                raise ConfigError(f"the first MPC solve broke down ({exc}): the config's "
                                  f"[mpc] or [{scn.plant_kind}] scales are outside the "
                                  f"solver's range") from None
            except ZeroDivisionError:  # plants.stance_allocation: the feet coincide
                walker = plants.QuadrupedPlant(scn.quadruped)
                walker.advance(0.0, scn.reference.state(0.0))
                raise ConfigError(f"[quadruped] step_offset = {scn.quadruped.step_offset!r} puts "
                                  f"the stance feet at {walker.stance.foot_front} and "
                                  f"{walker.stance.foot_rear}, too close to split forces") from None
    return run


# -- simulation assembly --------------------------------------------------------


def _build_quadcopter_sim(scn, run, mode):
    plant = plants.QuadcopterPlant(scn.quadcopter)
    cert = run.certs["main"][0]
    feedback = (lambda x, e: (cert.k @ e).tolist()) if mode == "robust" else None
    controller = plants.TrackingController(plant, scn.reference, scn.mpc, feedback=feedback)
    monitors = [plants.LyapunovMonitor(name="E", p=cert.p, level=cert.level)]
    dist = _disturbance_fn(scn, cert, run.model)
    return plant, controller, monitors, dist


def _build_quadruped_sim(scn, run, mode):
    plant = plants.QuadrupedPlant(scn.quadruped, delta_m=scn.delta_m,
                                  drag_force=scn.drag_force)
    certs = {axis: run.certs[axis][0] for axis in scn.hj_blocks}
    monitors = [plants.LyapunovMonitor(name=axis, p=cert.p, level=cert.level,
                                       state_idx=plant.axes[axis].states)
                for axis, cert in certs.items()]
    ancillary = None
    if mode == "robust":
        # per-axis force corrections distributed torque-neutrally over the
        # current stance so the pitch loop never sees the ancillary action;
        # each entry is (wrench row, gain row, error coordinates as an array)
        terms = [(plant.axes[axis].wrench_row, np.asarray(cert.k)[0],
                  np.array(plant.axes[axis].states)) for axis, cert in certs.items()]

        def ancillary(x, e):
            wrench = [0.0, 0.0, 0.0]
            for row, k, idx in terms:
                # numpy's 2-term dot, not k0*e0 + k1*e1: the trajectories keep its rounding
                wrench[row] = float(k.dot(e.take(idx)))
            return plants.stance_allocation(x, plant.stance, wrench)

    controller = plants.TrackingController(plant, scn.reference, scn.mpc, feedback=ancillary)
    # the loader admits no disturbance policy for the quadruped
    return plant, controller, monitors, None


def _disturbance_fn(scn, cert, model):
    pol = scn.disturbance
    if pol.kind == "none":
        return None
    if pol.kind == "constant":
        return plants.ConstantDisturbance(pol.w)
    if pol.kind == "sinusoidal":
        return plants.SinusoidalDisturbance(pol.w_max, pol.freq)
    if pol.kind == "random":
        return plants.RandomDisturbance(pol.w_max, scn.seed, pol.hold_time)
    # worst_constant: the certificate's bound, aimed with its gain and shape
    return plants.ConstantDisturbance(plants.worst_constant_disturbance(cert, model))


def _simulate(scn, run, mode):
    """Trajectory of one run of `scn` in `mode`, monitored at the levels
    its certificates carry."""
    build = _build_quadcopter_sim if scn.plant_kind == "quadcopter" else _build_quadruped_sim
    plant, controller, monitors, dist = build(scn, run, mode)
    return plants.simulate_closed_loop(plant, controller, scn.reference, dist,
                                       duration=scn.duration, dt=scn.sim_dt,
                                       monitors=monitors)


# -- write passes ---------------------------------------------------------------


def _matrix_lines(label, m):
    pad = " " * (len(label) + 3)
    rows = ["  ".join(f"{v: .6e}" for v in row) for row in m]
    return [f"{label} = [{rows[0]}]"] + [f"{pad}[{r}]" for r in rows[1:]]


def _print_synthesis(scn, run):
    for axis, (cert, eig, sol) in run.certs.items():
        print(f"[synth:{axis}] status = {sol.status.value}, "
              f"objective = {sol.objective_value:.6f}, cert_eig_max = {eig:.3e}")
        for line in _matrix_lines("K", cert.k) + _matrix_lines("P", cert.p):
            print("  " + line)
        if scn.w_max is not None:  # [clf]'s; a quadruped axis's is certified by wmax
            print(f"  w_max = {cert.w_max}, level = {cert.level}")


def _write_grid_csv(path, run, axis):
    # dropped once written, so a simulation that follows does not hold it
    with open(path, "w") as fh:
        fh.writelines(run.grid_csv.pop(axis))


def _write_bounds(scn, run, out):
    """The value grid, certificate and report entry of every bounded axis."""
    if not run.bounds:
        return
    entries = []
    for axis, res in run.bounds.items():
        grid_file = f"{scn.name}_valuegrid_{axis}.csv"
        _write_grid_csv(out / grid_file, run, axis)
        cert, eig, _ = run.certs[axis]
        fileio.write_certificate(out / f"{scn.name}_certificate_{axis}.txt",
                                 scn.name, axis, cert, eig)
        entries.append({"axis": axis, "w_max": res.w_max, "level": res.level,
                        "grid_file": grid_file})
    fileio.write_wmax_report(out / f"{scn.name}_wmax.txt", scn.name, entries)


def _write_synth(scn, run, out):
    _print_synthesis(scn, run)
    for axis, (cert, eig, _) in run.certs.items():
        path = out / f"{scn.name}_certificate_{axis}.txt"
        fileio.write_certificate(path, scn.name, axis, cert, eig)
        print(f"[synth:{axis}] wrote {path}")


def _write_hj_brs(scn, run, out):
    for axis, vg in run.grids.items():
        path = out / f"{scn.name}_valuegrid_{axis}.csv"
        _write_grid_csv(path, run, axis)
        info = vg.info
        print(f"[hj-brs:{axis}] steps = {info['steps']}, dt = {info['dt']:.5f}, "
              f"converged = {info['converged']}, "
              f"change_rate = {info['change_rate']:.3e}, "
              f"set_final_time = {info['set_final_time']:.5f}")
        print(f"[hj-brs:{axis}] wrote {path}")


def _write_wmax(scn, run, out):
    _print_synthesis(scn, run)
    for axis, res in run.bounds.items():
        print(f"[wmax:{axis}] w_max = {res.w_max:.6f}, "
              f"level = {res.level:.6f}, c* = {res.c_star:.6f}")
    _write_bounds(scn, run, out)
    print(f"[wmax] wrote {out / (scn.name + '_wmax.txt')}")


def _metrics(traj):
    err = traj.x - traj.x_ref
    out = {}
    with np.errstate(over="ignore"):  # a diverged run's huge states give inf
        out["rms_error"] = float(np.sqrt(np.mean(np.sum(err[:, :2] ** 2, axis=1))))
    for i, label in enumerate(AXIS_LABELS[: err.shape[1]]):
        out[f"max_abs_e_{label}"] = float(np.max(np.abs(err[:, i])))
    for name, exits in zip(traj.monitor_names, traj.invariant_exits):
        out[f"invariant_exits_{name}"] = int(exits)
    out["invariant_exits"] = int(sum(traj.invariant_exits))
    out["diverged"] = bool(traj.diverged)
    out["clamp_events"] = int(traj.clamp_events)
    return out


def _plot_trajectory(path, scn, mode, traj):
    if scn.plant_kind == "quadcopter":
        series = [
            svgplot.Series("reference", traj.x_ref[:, 0], traj.x_ref[:, 1],
                           color="#888888", dash="5,4"),
            svgplot.Series(mode, traj.x[:, 0], traj.x[:, 1]),
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


def _write_mode(scn, run, out, mode):
    """Simulate `scn` in `mode` and write its exact record (.npz), its CSV
    at the plot's resolution and its trajectory SVG; only the metrics
    block and the band series come back, so a trajectory is written where
    it was simulated."""
    traj = _simulate(scn, run, mode)
    traj.save(out / f"{scn.name}_{mode}.npz")
    traj.to_csv(out / f"{scn.name}_{mode}.csv")
    _plot_trajectory(out / f"{scn.name}_{mode}_traj.svg", scn, mode, traj)
    return fileio.metrics_block(_metrics(traj)), _band_series(mode, traj)


def _write_simulate(scn, run, out):
    _write_bounds(scn, run, out)
    block, series = _write_mode(scn, run, out, scn.mode)
    _plot_band(out / f"{scn.name}_{scn.mode}_band.svg", scn, series)
    print(f"[simulate] mode = {scn.mode}, wrote {out / f'{scn.name}_{scn.mode}.npz'}")
    print(block)


def _write_reproduce(scn, run, out):
    _write_bounds(scn, run, out)
    bands = []
    modes = _fan_out(lambda mode: _write_mode(scn, run, out, mode), REPRODUCE_MODES)
    for mode, (block, series) in zip(REPRODUCE_MODES, modes):
        print(f"[reproduce:{mode}]")
        print(block)
        bands += series
    _plot_band(out / f"{scn.name}_compare_band.svg", scn, bands)
    print(f"[reproduce] artifacts in {out}")


# each command's stages, in the fixed order, and its write pass
COMMANDS = {
    "synth": (("synthesize",), _write_synth),
    "hj-brs": (("solve",), _write_hj_brs),
    "wmax": (("synthesize", "solve", "bound"), _write_wmax),
    "simulate": (("synthesize", "solve", "bound", "simulate"), _write_simulate),
    "reproduce": (("synthesize", "solve", "bound", "simulate"), _write_reproduce),
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "reproduce" and (args.figure is None) == (args.config is None):
            parser.error("reproduce takes exactly one of a figure id (fig3, fig4a, fig4c) "
                         "and --config")
        if args.seed is not None and args.seed < 0:
            parser.error(f"argument --seed: must not be negative, got {args.seed}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        scn = _load(args)
        out = Path(args.out or scn.out_dir or "out")
        for path in (out, *out.parents):
            if (path.exists() or path.is_symlink()) and not path.is_dir():
                raise ConfigError(f"output directory {out}: {path} is not a directory")
        stages, write = COMMANDS[args.command]
        run = _run_stages(scn, stages)
    except (ConfigError, DimensionMismatch) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    except Infeasible as exc:
        print(f"synthesis infeasible: {exc}", file=sys.stderr)
        return 2
    except (NoSafeRoa, TargetOutsideGrid) as exc:
        print(f"no safe region of attraction: {exc}", file=sys.stderr)
        return 3
    out.mkdir(parents=True, exist_ok=True)
    write(scn, run, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
