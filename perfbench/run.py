"""Pipeline benchmark: time to a certified bound, its quality, per-layer cost.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  Each workload invocation is a fresh
interpreter (`perfbench/worker.py`) that calls `robustroa.harness.cli.main`
once, single-threaded, with BLAS pinned to one thread and `--seed N`
passed through.  Invocations follow each other in a closed loop until the
next one would overrun S seconds (at least one always runs).

Workloads (see BENCHMARK.json for why each was chosen):

* fig3_quadcopter  `reproduce fig3`: synthesis, RK4+MPC simulation, writers.
* wmax_height      `wmax --config quadruped_height.cfg`: the HJ solve.
* fig4c_push       `reproduce fig4c`: the whole pipeline in both modes.

The bundled configs draw no random numbers, so the seed changes none of
their inputs and every run of one source tree writes the same bytes.

--trace 0 prints the end-to-end metrics of BENCHMARK.json:
  wall_s            median in-process time of cli.main
  setup_s           median time of a fresh interpreter that imports the CLI
                    and loads the workload's config
  peak_rss_mb       median peak resident set of an invocation
  wmax_gap_y/_z     1 - certified w_max / exact-kernel w_max
  rms_error_robust  robust-mode rms tracking error from the CLI's metrics
The two times are rescaled to a reference host speed with calibration
samples taken while they run (speed.py says why); the raw times are printed
beside them.  A workload that does not produce a quality metric (no
certified bound on fig3_quadcopter, no trajectory on wmax_height) reports
it as the fixed value 1.0 and says so.  invariant_exits_robust and
failed_frac are printed too; they are 0 whenever the checks pass, so they
are checked rather than gated.

--trace 1 alternates untraced and traced invocations and prints the
per-layer metrics (tracer.py wraps the functions at the names the CLI
calls), the tracing overhead, and each layer's self time so that the
layers visibly add up to the traced wall time.

Every invocation is checked: exit code 0, certificates round-trip through
harness.fileio with cert_eig_max < 0, the wmax report parses with
w_max > 0 and no bracket_too_small, the certified w_max does not exceed the
exact kernel's (kernel.py), and the robust mode neither diverges nor leaves
its invariant set.  Artifact SHA-256 digests must agree across the
invocations of a run and across runs of the same source tree (kept in
perfbench/out/digests.json); a difference from reference_digests.json,
recorded when the benchmark was defined, is reported but not gated.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics.  The exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import CAL_REF_S, calibration_sample
from worker import CONFIG_DIR, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORK = HERE / "out"
RUN_LIMIT_S = 170.0  # a run must end well inside the 180 s the caller allows
SETUP_REPS = 11
SETUP_CAL_SAMPLES = 5
NOT_PRODUCED = 1.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def time_setup(workload, env):
    """Seconds taken by fresh interpreters importing the CLI and loading the
    workload's config (one untimed run first fills the bytecode cache), and
    the calibration samples taken between them."""
    cfg = CONFIG_DIR / WORKLOADS[workload][1]
    code = ("import robustroa.harness.cli\n"
            "from robustroa.harness.scenarios import load_scenario\n"
            f"load_scenario({str(cfg)!r})\n")
    cmd = [sys.executable, "-c", code]
    times, cal = [], []
    for rep in range(SETUP_REPS + 1):
        cal += [calibration_sample() for _ in range(SETUP_CAL_SAMPLES)]
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        if rep:
            times.append(time.perf_counter() - t0)
    cal += [calibration_sample() for _ in range(SETUP_CAL_SAMPLES)]
    return times, cal


def invoke(workload, seed, trace, env, deadline):
    """One worker process; returns its record (failures listed inside)."""
    out = WORK / "run"
    for stale in (out, WORK / "run_check"):
        shutil.rmtree(stale, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"failures": ["invocation timed out"], "traced": trace}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return {"failures": [f"worker exit code {proc.returncode}: {tail}"], "traced": trace}
    record = json.loads(lines[-1])
    record["traced"] = trace
    return record


def source_hash():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def changed_files(a, b):
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def check_digests(workload, records):
    """Gate: every invocation and every earlier run of this source tree wrote
    the same bytes.  Returns info lines about the recorded reference."""
    done = [r for r in records if "digests" in r]
    if not done:
        return []
    first = done[0]["digests"]
    for rec in done[1:]:
        if rec["digests"] != first:
            rec["failures"].append("artifacts differ between invocations: "
                                   f"{changed_files(first, rec['digests'])}")
    store_path = WORK / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    key = source_hash()
    earlier = store.setdefault(key, {}).get(workload)
    if earlier is not None and earlier != first:
        done[0]["failures"].append("artifacts differ from an earlier run of the same "
                                   f"source: {changed_files(earlier, first)}")
    else:
        store[key][workload] = first
        store_path.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")

    reference = json.loads((HERE / "reference_digests.json").read_text()).get(workload, {})
    changed = changed_files(reference, first)
    if not changed:
        return [f"artifacts: {len(first)} files, byte-identical to the reference digests"]
    return [f"artifacts: {len(first)} files, {len(changed)} differ from the reference "
            f"digests (information only): {', '.join(changed)}"]


def spread(values):
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def end_to_end(workload, records, setup, spec):
    """{name: value} of the end-to-end metrics, plus report lines."""
    ok = [r for r in records if "wall_s" in r]
    setup_times, setup_cal = setup
    # a setup child is too short to sample inside, so the setup phase shares
    # one factor from the samples taken between its children
    setup_scale = CAL_REF_S / statistics.fmean(setup_cal)
    samples = {
        "wall_s": [r["scaled_wall_s"] for r in ok],
        "setup_s": [t * setup_scale for t in setup_times],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
    }
    raw = {"wall_s": [r["wall_s"] for r in ok], "setup_s": setup_times}
    cal_note = {
        "wall_s": f"{sum(r['samples'] for r in ok)} calibration samples inside the invocations",
        "setup_s": f"{len(setup_cal)} calibration samples, mean "
                   f"{statistics.fmean(setup_cal):.6g} s",
    }
    for name in ("wmax_gap_y", "wmax_gap_z", "rms_error_robust"):
        samples[name] = [r["values"][name] for r in ok if name in r["values"]]
    metrics, lines = {}, []
    for m in spec:
        name, vals = m["name"], samples.get(m["name"])
        if vals is None:
            raise SystemExit(f"BENCHMARK.json names an end-to-end metric {name!r} "
                             "that run.py does not measure")
        if vals:
            metrics[name] = statistics.median(vals)
            lines.append(f"{name} = {metrics[name]:.6g} {m['unit']} (median, {spread(vals)})")
            if name in raw:
                lines.append(f"  as measured: median {statistics.median(raw[name]):.6g} s, "
                             f"{spread(raw[name])}; {cal_note[name]}")
        elif ok:
            metrics[name] = NOT_PRODUCED
            lines.append(f"{name} = {NOT_PRODUCED} {m['unit']} "
                         f"(not produced by {workload}; fixed value)")
    exits = [r["values"]["invariant_exits_robust"] for r in ok
             if "invariant_exits_robust" in r["values"]]
    if exits:
        lines.append(f"invariant_exits_robust = {max(exits)} count (checked, must be 0)")
    elif ok:
        lines.append(f"invariant_exits_robust: not produced by {workload}")
    gaps = [r["values"] for r in ok if "wmax_exact_y" in r["values"]]
    if gaps:
        v = gaps[0]
        lines.append(f"certified w_max y/z = {v['wmax_y']:.6g} / {v['wmax_z']:.6g} m/s2, "
                     f"exact kernel {v['wmax_exact_y']:.6g} / {v['wmax_exact_z']:.6g} m/s2")
    return metrics, lines


def per_layer(records, spec):
    """{name: value} of the per-layer metrics (medians over traced
    invocations), plus the self-time table of the median traced invocation."""
    traced = [r for r in records if r["traced"] and "layers" in r]
    plain = [r["wall_s"] for r in records if not r["traced"] and "wall_s" in r]
    if not traced or not plain:
        return {}, []
    samples = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
    walls = [r["wall_s"] for r in traced]
    samples["trace.wall_s"] = walls
    samples["trace.overhead_s"] = [statistics.median(walls) - statistics.median(plain)]
    metrics, lines = {}, []
    for m in spec:
        if m["name"] not in samples:
            raise SystemExit(f"BENCHMARK.json names a per-layer metric {m['name']!r} "
                             "that the traced run does not produce")
        metrics[m["name"]] = statistics.median(samples[m["name"]])
        lines.append(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    mid = sorted(traced, key=lambda r: r["wall_s"])[len(traced) // 2]
    lines.append(f"self time per layer, traced invocation of {mid['wall_s']:.4f} s:")
    rows = sorted(mid["layer_self_s"].items(), key=lambda kv: -kv[1])
    rows.append(("outside spans", mid["layers"]["harness.unattributed_s"]))
    for layer, self_s in rows:
        lines.append(f"  {layer:<14} {self_s:10.4f} s  {100 * self_s / mid['wall_s']:5.1f}%")
    lines.append(f"untraced wall_s median {statistics.median(plain):.4f} s over {len(plain)}, "
                 f"traced {statistics.median(walls):.4f} s over {len(walls)}")
    return metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description="robustroa pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    if not (ROOT / "src" / "robustroa" / "harness" / "cli.py").is_file():
        print(f"no robustroa source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env()
    WORK.mkdir(exist_ok=True)

    setup = None if args.trace else time_setup(args.workload, env)
    records, rounds = [], []
    loop_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        records.append(invoke(args.workload, args.seed, False, env, deadline))
        if args.trace:
            records.append(invoke(args.workload, args.seed, True, env, deadline))
        rounds.append(time.monotonic() - t0)
        step = statistics.median(rounds)
        now = time.monotonic()
        if now - loop_start + step > args.seconds or now + step > deadline:
            break
    for stale in (WORK / "run", WORK / "run_check"):
        shutil.rmtree(stale, ignore_errors=True)

    info = check_digests(args.workload, records)
    if args.trace:
        metrics, lines = per_layer(records, spec["per_layer"])
    else:
        metrics, lines = end_to_end(args.workload, records, setup, spec["end_to_end"])
    failed = sum(bool(r["failures"]) for r in records)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(records)} invocations in {time.monotonic() - loop_start:.1f} s")
    for line in lines + info:
        print(line)
    print(f"failed_frac = {failed / len(records):.6g} ratio ({failed} of {len(records)})")
    for rec in records:
        for failure in rec["failures"]:
            print(f"FAILED: {failure}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(spec, name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def unit_of(spec, name):
    return next(m["unit"] for group in ("end_to_end", "per_layer") for m in spec[group]
                if m["name"] == name)


if __name__ == "__main__":
    sys.exit(main())
