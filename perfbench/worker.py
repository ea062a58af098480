"""One workload invocation in a fresh interpreter: time, trace, check.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--trace]

Runs `robustroa.harness.cli.main` on the workload's argv with the CLI's
stdout captured, times it, then (outside the timed region) checks every
artifact the CLI wrote and prints one JSON record as its last stdout line.
The caller sets PYTHONPATH to the source tree and pins BLAS to one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import sys
import time
from pathlib import Path

import kernel
from speed import SpeedSampler
from tracer import MissingTarget, Tracer

CONFIG_DIR = Path("src", "robustroa", "harness", "configs")

# name -> (CLI argv, bundled config it runs)
WORKLOADS = {
    "fig3_quadcopter": (["reproduce", "fig3"], "quadcopter_fig8.cfg"),
    "wmax_height": (["wmax", "--config", str(CONFIG_DIR / "quadruped_height.cfg")],
                    "quadruped_height.cfg"),
    "fig4c_push": (["reproduce", "fig4c"], "quadruped_push.cfg"),
}

# spans whose arguments and results feed the per-layer counts
OBSERVED = ("hj_reach.solve_brs", "lmi_solver.maximize", "clf_synth.verify_closed_loop",
            "plants.simulate_closed_loop")


def cli_argv(workload, seed, out):
    argv, _ = WORKLOADS[workload]
    return [*argv, "--seed", str(seed), "--out", str(out)]


def metrics_blocks(stdout):
    """{mode: {key: value}} from the `[reproduce:<mode>]` metrics blocks."""
    blocks, mode = {}, None
    for line in stdout.splitlines():
        head = re.fullmatch(r"\[reproduce:(\w+)\]", line.strip())
        if head:
            mode = head.group(1)
            blocks[mode] = {}
        elif mode is not None and " = " in line:
            key, val = line.split(" = ", 1)
            blocks[mode][key.strip()] = val.strip()
    return blocks


def digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def check_outputs(workload, code, stdout, out, scratch):
    """Returns (failures, values): the checks every run must pass and the
    end-to-end quality numbers read from the artifacts."""
    from robustroa.harness import fileio
    from robustroa.harness.scenarios import load_scenario

    failures, values = [], {}
    if code != 0:
        return [f"cli exit code {code}"], values

    certs = {}
    for path in sorted(out.glob("*_certificate_*.txt")):
        name, axis, cert, eig = fileio.read_certificate(path)
        copy = scratch / path.name
        fileio.write_certificate(copy, name, axis, cert, eig)
        if copy.read_bytes() != path.read_bytes():
            failures.append(f"{path.name} does not round-trip through read_certificate")
        if not eig < 0.0:
            failures.append(f"{path.name}: cert_eig_max = {eig!r} is not negative")
        certs[axis] = cert

    scn = load_scenario(CONFIG_DIR / WORKLOADS[workload][1])
    if scn.hj_blocks:
        reports = sorted(out.glob("*_wmax.txt"))
        if len(reports) != 1:
            return failures + [f"expected one wmax report, found {len(reports)}"], values
        _, entries = fileio.read_wmax_report(reports[0])
        if sorted(e["axis"] for e in entries) != sorted(scn.hj_blocks):
            failures.append(f"wmax report axes {[e['axis'] for e in entries]} "
                            f"do not match the config's {sorted(scn.hj_blocks)}")
        for e in entries:
            axis, w = e["axis"], e["w_max"]
            if not w > 0.0:
                failures.append(f"w_max_{axis} = {w!r} is not positive")
            if e.get("bracket_too_small", False):
                failures.append(f"bracket_too_small_{axis} is set")
            cert = certs.get(axis)
            if cert is None:
                failures.append(f"no certificate file for axis {axis}")
                continue
            if cert.w_max != w:
                failures.append(f"certificate w_max {cert.w_max!r} != report {w!r} on {axis}")
            exact = kernel.exact_wmax(axis, cert, scn.hj_blocks[axis], scn.quadruped)
            if w > exact:
                failures.append(f"unsound: certified w_max_{axis} = {w!r} exceeds "
                                f"the exact kernel's {exact!r}")
            values[f"wmax_exact_{axis}"] = exact
            values[f"wmax_{axis}"] = w
            values[f"wmax_gap_{axis}"] = 1.0 - w / exact

    if WORKLOADS[workload][0][0] == "reproduce":
        robust = metrics_blocks(stdout).get("robust")
        if robust is None:
            return failures + ["no [reproduce:robust] metrics block on stdout"], values
        if robust.get("diverged") != "false":
            failures.append(f"robust mode diverged = {robust.get('diverged')}")
        exits = int(robust.get("invariant_exits", "-1"))
        if exits != 0:
            failures.append(f"robust mode invariant_exits = {exits}")
        values["invariant_exits_robust"] = exits
        values["rms_error_robust"] = float(robust["rms_error"])
    return failures, values


def layer_metrics(tracer, wall_s, bytes_written, values):
    """Per-layer metrics of one traced invocation."""
    st, obs = tracer.stats, tracer.observed

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    solves = obs["hj_reach.solve_brs"]
    steps = sum(vg.info["steps"] for _, vg in solves)
    node_updates = sum(2 * vg.info["steps"] * vg.v.size for _, vg in solves)
    sdps = [sol for _, sol in obs["lmi_solver.maximize"]]
    trajs = [traj for _, traj in obs["plants.simulate_closed_loop"]]
    rk4_steps = sum(len(traj.t) - 1 for traj in trajs)
    eigs = [eig for _, eig in obs["clf_synth.verify_closed_loop"]]
    mk = [s for label, s in st.items() if label.startswith("matrixkit.")]
    layers = tracer.layer_self()
    plants_self = layers.get("plants", 0.0)
    return {
        "hj_reach.solve_brs.calls": st["hj_reach.solve_brs"].calls,
        "hj_reach.solve_brs.busy_s": st["hj_reach.solve_brs"].busy_s,
        "hj_reach.steps": steps,
        "hj_reach.node_updates": node_updates,
        "hj_reach.ns_per_node_update": ratio(st["hj_reach.solve_brs"].busy_s, node_updates, 1e9),
        "hj_reach.converged_ratio": ratio(sum(bool(vg.info["converged"]) for _, vg in solves),
                                          len(solves)),
        "hj_reach.branches": ratio(sum(len(a["dyn"].uncertain_params) for a, _ in solves),
                                   len(solves)),
        "roa_bridge.find_wmax.busy_s": st["roa_bridge.find_wmax"].busy_s,
        "roa_bridge.containment_checks": st["roa_bridge.ellipsoid_contained"].calls,
        "roa_bridge.wmax_y": values.get("wmax_y", 0.0),
        "roa_bridge.wmax_z": values.get("wmax_z", 0.0),
        "clf_synth.synthesize.calls": st["clf_synth.synthesize"].calls,
        "clf_synth.synthesize.busy_s": st["clf_synth.synthesize"].busy_s,
        "clf_synth.cert_eig_max": max(eigs) if eigs else 0.0,
        "lmi_solver.maximize.busy_s": st["lmi_solver.maximize"].busy_s,
        "lmi_solver.find_strictly_feasible.busy_s":
            st["lmi_solver.find_strictly_feasible"].busy_s,
        "lmi_solver.newton_steps": sum(sol.iterations for sol in sdps),
        "lmi_solver.optimal_ratio": ratio(sum(sol.status.value == "optimal" for sol in sdps),
                                          len(sdps)),
        "matrixkit.calls": sum(s.calls for s in mk),
        "matrixkit.self_s": sum(s.self_s for s in mk),
        "mpc.mpc_step.calls": st["mpc.mpc_step"].calls,
        "mpc.mpc_step.busy_s": st["mpc.mpc_step"].busy_s,
        "mpc.us_per_solve": ratio(st["mpc.mpc_step"].busy_s, st["mpc.mpc_step"].calls, 1e6),
        "plants.simulate_closed_loop.self_s": st["plants.simulate_closed_loop"].self_s,
        "plants.rk4_steps": rk4_steps,
        "plants.us_per_step": ratio(plants_self, rk4_steps, 1e6),
        "plants.stance_allocation.calls": st["plants.stance_allocation"].calls,
        "plants.clamp_events": sum(traj.clamp_events for traj in trajs),
        "harness.load_scenario.busy_s": st["harness.load_scenario"].busy_s,
        "harness.traj_csv.busy_s": st["harness.traj_csv"].busy_s,
        "harness.grid_csv.busy_s": st["harness.grid_csv"].busy_s,
        "harness.svg.busy_s": st["harness.svg"].busy_s,
        "harness.bytes_written": bytes_written,
        "harness.unattributed_s": wall_s - sum(layers.values()),
    }, layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from robustroa.harness import cli

    tracer = None
    if args.trace:
        tracer = Tracer()
        try:
            tracer.install(observe=OBSERVED)
        except MissingTarget as exc:
            print(f"trace target missing: {exc}", file=sys.stderr)
            return 3

    args.out.mkdir(parents=True)
    argv = cli_argv(args.workload, args.seed, args.out)
    buf = io.StringIO()
    # traced invocations report raw per-layer times, so they take no samples
    sampler = None if tracer else SpeedSampler()
    with sampler or contextlib.nullcontext(), contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall_s = time.perf_counter() - t0
    if sampler is not None:
        wall_s -= sampler.spent_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    scratch = args.out.with_name(args.out.name + "_check")
    scratch.mkdir()
    failures, values = check_outputs(args.workload, code, buf.getvalue(), args.out, scratch)
    files = digests(args.out)
    record = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
        "values": values,
        "digests": files,
    }
    if sampler is not None:
        record["scaled_wall_s"] = wall_s * sampler.scale()
        record["samples"] = len(sampler.samples)
    else:
        bytes_written = sum((args.out / name).stat().st_size for name in files)
        record["layers"], record["layer_self_s"] = layer_metrics(
            tracer, wall_s, bytes_written, values)
    print(json.dumps(record, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
