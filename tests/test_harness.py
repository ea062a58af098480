"""Harness tests: scenario parsing, artifact files, CLI exit codes.

The slower tests run the real pipeline on a shrunken quadruped scenario
(coarse reachability grid, short run) so the full synth -> PDE -> w_max
-> simulation chain is exercised end to end without the production grids.
"""

import configparser
import contextlib
import copy
import dataclasses
import errno
import io
import itertools
import math
import os
import re
import shutil
import signal
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path
from xml.dom import minidom
from xml.sax import saxutils

import numpy as np
import pytest

import _oracles as orc
from robustroa import plants
from robustroa.clf_synth import ClfCertificate, ClfParams
from robustroa.harness import cli, fileio, svgplot
from robustroa.harness.scenarios import ConfigError, load_scenario
from robustroa.hj_reach import Grid2, ValueGrid
from robustroa.plants import Figure8Ref, TrotRef


# shrunken quadruped pipeline: coarse grids, short horizon, short run
MINI = {
    "scenario": {"name": "mini", "plant": "quadruped", "mode": "robust", "seed": 3},
    "quadruped": {
        "mass": 12.454, "inertia_xx": 0.0565, "gravity": 9.81,
        "friction_coeff": 0.6, "z_ref": 0.32, "v_ref": 0.45,
        "step_time": 0.25, "step_offset": 0.15, "delta_m_lo": 0.0, "delta_m_hi": 5.0,
    },
    "clf_y": {"q": "500, 10", "r": "1", "decay_rate": 0.3, "dist_weight": 200},
    "clf_z": {"q": "1000, 1", "r": "0.01", "decay_rate": 0.8, "dist_weight": 90},
    "mpc": {
        "q": "1e5, 1e3, 1e7, 1e2, 1e1, 1e2", "r": "0, 0, 0, 0",
        "dt": 0.05, "horizon": 2,
        "u_lo": "-35, -35, 0, 0", "u_hi": "35, 35, 150, 150",
    },
    "reference": {"kind": "trot"},
    "disturbance": {"kind": "none"},
    "hj_y": {"target_half_widths": "0.25, 1.0", "grid_half_widths": "0.5, 2.0", "n": 41},
    "hj_z": {"target_half_widths": "0.12, 0.8", "grid_half_widths": "0.2, 1.6", "n": 41},
    "simulate": {"duration": 0.3, "dt": 0.001},
}


# shrunken quadcopter pipeline: short run
MINI_QUADCOPTER = {
    "scenario": {"name": "miniqc", "plant": "quadcopter", "mode": "robust", "seed": 0},
    "quadcopter": {"mass": 1.0, "arm_length": 0.2, "inertia_xx": 0.1, "gravity": 9.81},
    "clf": {"q": "1e-1, 1, 1, 1, 1, 1e-2", "r": "1e-2, 1e-4", "decay_rate": 0.5,
            "dist_weight": 0.1, "w_max": 3.5},
    "mpc": {"q": "100, 10, 1e9, 1e5, 1e14, 1e4", "r": "1e6, 1e6", "dt": 0.05, "horizon": 2},
    "reference": {"kind": "figure8", "t_end": 5.0, "amp_y": 0.5, "amp_z": 0.5},
    "disturbance": {"kind": "worst_constant", "w_max": 3.5},
    "simulate": {"duration": 0.1, "dt": 0.001},
}


def write_cfg(dirpath, sections, fname="scn.cfg"):
    lines = []
    for sec, kv in sections.items():
        lines.append(f"[{sec}]")
        lines.extend(f"{key} = {val}" for key, val in kv.items())
        lines.append("")
    path = dirpath / fname
    path.write_text("\n".join(lines))
    return path


def mini_cfg(dirpath, fname="scn.cfg", drop=(), base=MINI, **edits):
    sections = copy.deepcopy(base)
    for sec in drop:
        del sections[sec]
    for sec, kv in edits.items():
        if "kind" in kv:  # each kind reads its own keys: the section starts over
            sections[sec] = {}
        sections.setdefault(sec, {}).update(kv)
    return write_cfg(dirpath, sections, fname)


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# -- scenario parsing ------------------------------------------------------------

def test_bundled_quadcopter_scenario_parses():
    scn = load_scenario(orc.CONFIGS / "quadcopter_fig8.cfg")
    assert scn.name == "quadcopter_fig8"
    assert scn.plant_kind == "quadcopter"
    assert scn.mode == "robust"
    assert scn.seed == 0
    assert scn.quadcopter.mass == 1.0
    assert scn.quadruped is None
    blk = scn.clf_blocks["main"]
    assert blk.params.decay_rate == 0.5
    assert blk.params.dist_weight == 0.1
    assert blk.w_max == 3.5
    assert len(blk.params.q) == 6
    assert scn.mpc.dt == 0.05
    assert scn.mpc.horizon == 2
    assert scn.disturbance.kind == "worst_constant"
    assert scn.disturbance.w_max == 3.5
    assert scn.hj_blocks == {}
    assert scn.duration == 5.0
    assert scn.sim_dt == 0.001
    assert isinstance(scn.reference, Figure8Ref)


def test_bundled_quadruped_scenario_parses():
    scn = load_scenario(orc.CONFIGS / "quadruped_height.cfg")
    assert scn.plant_kind == "quadruped"
    assert scn.delta_m == 5.0
    assert set(scn.clf_blocks) == {"y", "z"}
    assert set(scn.hj_blocks) == {"y", "z"}
    hz = scn.hj_blocks["z"]
    assert hz.target_half_widths == (0.076, 0.8)
    assert hz.grid_half_widths == (0.2, 1.6)
    assert hz.n == 101
    # the solve mode is no config setting: every block is solved as a
    # converged stay set
    assert [f.name for f in dataclasses.fields(hz)] == [
        "axis", "target_half_widths", "grid_half_widths", "n", "u_lo", "u_hi", "delta_m",
        "drag_force"]
    assert hz.u_lo == 0.0 and hz.u_hi == 300.0
    assert hz.delta_m == (0.0, 5.0)
    assert np.allclose(scn.clf_blocks["y"].params.q, [500.0, 10.0])
    assert np.allclose(scn.mpc.r, 0.0)
    assert isinstance(scn.reference, TrotRef)


@pytest.mark.parametrize("name, y, z", [
    ("quadruped_height.cfg", (-70.0, 70.0, (0.0, 5.0), 0.0), (0.0, 300.0, (0.0, 5.0), 0.0)),
    ("quadruped_push.cfg", (-70.0, 70.0, (0.0, 0.0), 25.0), (0.0, 300.0, (0.0, 0.0), 0.0)),
])
def test_bundled_hj_blocks_derive_from_the_scenario(name, y, z):
    # (u_lo, u_hi, delta_m, drag_force) of each axis: the sums of its [mpc]
    # per-foot boxes, the [quadruped] payload interval, and the [quadruped]
    # drag on the lateral axis only, with the bits of the values the
    # [hj_*] sections used to repeat
    scn = load_scenario(orc.CONFIGS / name)
    for axis, want in (("y", y), ("z", z)):
        block = scn.hj_blocks[axis]
        got = (block.u_lo, block.u_hi, block.delta_m, block.drag_force)
        assert got == want
        assert [np.signbit(v) for v in got[:2]] == [np.signbit(v) for v in want[:2]]


def test_removed_hj_keys_raise(tmp_path):
    # each fact the [hj_*] sections used to repeat now has one home, and
    # the solve has one mode, so every old key is an unknown key
    removed = {"horizon": "converge", "freeze": "stay", "u_lo": -70.0, "u_hi": 70.0,
               "delta_m_lo": 0.0, "delta_m_hi": 5.0, "drag_force": 0.0}
    for key, value in removed.items():
        path = mini_cfg(tmp_path, fname=f"{key}.cfg", hj_y={key: value})
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in \\[hj_y\\]"):
            load_scenario(path)


def test_missing_file_raises(tmp_path):
    with pytest.raises(ConfigError):
        load_scenario(tmp_path / "nope.cfg")


@pytest.mark.parametrize("sec", ["scenario", "quadruped", "clf_y", "clf_z",
                                 "mpc", "reference", "disturbance", "simulate"])
def test_missing_section_raises(tmp_path, sec):
    path = mini_cfg(tmp_path, drop=(sec,))
    with pytest.raises(ConfigError):
        load_scenario(path)


def test_bad_values_raise(tmp_path):
    cases = [
        {"scenario": {"plant": "boat"}},
        {"scenario": {"mode": "chaotic"}},
        {"disturbance": {"kind": "gusts"}},
        {"reference": {"kind": "spiral"}},
        {"mpc": {"q": "1, banana, 3"}},
        {"clf_y": {"decay_rate": -0.5}},
        {"hj_y": {"target_half_widths": "0.25"}},
        {"simulate": {"duration": "long"}},
    ]
    for i, edits in enumerate(cases):
        path = mini_cfg(tmp_path, fname=f"bad{i}.cfg", **edits)
        with pytest.raises(ConfigError):
            load_scenario(path)


def test_missing_key_raises(tmp_path):
    sections = copy.deepcopy(MINI)
    del sections["quadruped"]["mass"]
    path = write_cfg(tmp_path, sections)
    with pytest.raises(ConfigError):
        load_scenario(path)


def test_trot_reference_needs_quadruped(tmp_path):
    sections = {
        "scenario": {"name": "t", "plant": "quadcopter"},
        "quadcopter": {"mass": 1.0, "arm_length": 0.2,
                       "inertia_xx": 0.1, "gravity": 9.81},
        "clf": {"q": "1, 1, 1, 1, 1, 1", "r": "1, 1",
                "decay_rate": 0.5, "dist_weight": 0.1},
        "mpc": {"q": "1, 1, 1, 1, 1, 1", "r": "1, 1", "dt": 0.05, "horizon": 2},
        "reference": {"kind": "trot"},
        "disturbance": {"kind": "none"},
        "simulate": {"duration": 1.0, "dt": 0.001},
    }
    path = write_cfg(tmp_path, sections)
    with pytest.raises(ConfigError):
        load_scenario(path)


# -- artifact files --------------------------------------------------------------

def example_cert(with_bound=True):
    rng = np.random.default_rng(11)
    k = rng.standard_normal((1, 2))
    a = rng.standard_normal((2, 2))
    p = a @ a.T + 2.0 * np.eye(2)
    params = ClfParams(q=np.array([500.0, 10.0]), r=np.array([1.0]),
                       decay_rate=0.3, dist_weight=200.0)
    cert = ClfCertificate(k=k, p=p, params=params)
    if with_bound:
        cert.set_disturbance_bound(0.19775390625)
    return cert


def test_certificate_roundtrip(tmp_path):
    cert = example_cert()
    path = tmp_path / "cert.txt"
    fileio.write_certificate(path, "mini", "y", cert, -4.685e-05)
    name, axis, back, eig = fileio.read_certificate(path)
    assert (name, axis) == ("mini", "y")
    assert eig == -4.685e-05
    assert np.array_equal(back.k, cert.k)
    assert np.array_equal(back.p, cert.p)
    assert np.array_equal(back.params.q, cert.params.q)
    assert np.array_equal(back.params.r, cert.params.r)
    assert back.params.decay_rate == 0.3
    assert back.params.dist_weight == 200.0
    assert back.w_max == cert.w_max
    assert back.level == cert.level


def test_certificate_without_bound(tmp_path):
    cert = example_cert(with_bound=False)
    path = tmp_path / "cert.txt"
    fileio.write_certificate(path, "mini", "y", cert, -1e-6)
    text = path.read_text()
    assert "w_max" not in text and "level" not in text
    _, _, back, _ = fileio.read_certificate(path)
    assert back.w_max is None and back.level is None


def test_certificate_rejects_bad_files(tmp_path):
    wrong = tmp_path / "wrong.txt"
    wrong.write_text("format = wmax-v2\nname = x\n")
    with pytest.raises(fileio.FileFormatError):
        fileio.read_certificate(wrong)
    garbled = tmp_path / "garbled.txt"
    garbled.write_text("format = certificate-v1\nthis line has no equals sign\n")
    with pytest.raises(fileio.FileFormatError):
        fileio.read_certificate(garbled)
    path = tmp_path / "cert.txt"
    fileio.write_certificate(path, "mini", "y", example_cert(), -1e-6)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("k_row_0")]
    truncated = tmp_path / "missing_row.txt"
    truncated.write_text("\n".join(lines) + "\n")
    with pytest.raises(fileio.FileFormatError):
        fileio.read_certificate(truncated)
    # non-numeric entries, and weight, gain and Lyapunov rows one entry
    # short or long, name the field they sit in
    text = path.read_text()
    for key, bad in (("q", "1, x"), ("decay_rate", "fast"), ("n_states", "two"),
                     ("r", "1.0, 2.0"), ("k_row_0", "1.0"), ("p_row_1", "1.0, 2.0, 3.0")):
        broken = tmp_path / f"bad_{key}.txt"
        broken.write_text("\n".join(f"{key} = {bad}" if l.startswith(f"{key} =") else l
                                    for l in text.splitlines()) + "\n")
        with pytest.raises(fileio.FileFormatError, match=key):
            fileio.read_certificate(broken)


def test_wmax_report_roundtrip(tmp_path):
    entries = [
        {"axis": "y", "w_max": 0.21711077223725347, "level": 26.071072,
         "grid_file": "g_y.csv"},
        {"axis": "z", "w_max": 0.08649164480202348, "level": 0.573699,
         "grid_file": "g_z.csv"},
    ]
    path = tmp_path / "report.txt"
    fileio.write_wmax_report(path, "mini", entries)
    assert path.read_text() == (
        "format = wmax-v2\nname = mini\n"
        "w_max_y = 0.21711077223725347\nlevel_y = 26.071072\nvalue_grid_y = g_y.csv\n"
        "w_max_z = 0.08649164480202348\nlevel_z = 0.573699\nvalue_grid_z = g_z.csv\n")
    name, back = fileio.read_wmax_report(path)
    assert name == "mini"
    assert back == entries
    for text in ("format = certificate-v1\n",
                 # a wmax-v1 report, with its iteration count
                 "format = wmax-v1\nname = mini\nw_max_y = 0.2\nlevel_y = 2.0\n"
                 "iterations_y = 15\nbracket_too_small_y = false\n",
                 "format = wmax-v2\nname = mini\nw_max_y = 0.2\n"):
        wrong = tmp_path / "wrong.txt"
        wrong.write_text(text)
        with pytest.raises(fileio.FileFormatError):
            fileio.read_wmax_report(wrong)


def test_value_grid_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    grid = Grid2(mins=(-1.0, -2.0), maxs=(1.0, 2.0), shape=(5, 7))
    vg = ValueGrid(grid=grid, v=rng.standard_normal((5, 7)))
    path = tmp_path / "grid.csv"
    with open(path, "w") as fh:
        vg.to_csv(fh)
    back = orc.read_value_grid(path)
    assert back.grid.shape == (5, 7)
    assert np.array_equal(back.v, vg.v)

    # row order must not matter: the reader sorts on the coordinates
    lines = path.read_text().splitlines()
    shuffled = [lines[0]] + list(rng.permutation(lines[1:]))
    spath = tmp_path / "shuffled.csv"
    spath.write_text("\n".join(shuffled) + "\n")
    back2 = orc.read_value_grid(spath)
    assert np.array_equal(back2.v, vg.v)

    tpath = tmp_path / "ragged.csv"
    tpath.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(fileio.FileFormatError):
        orc.read_value_grid(tpath)


def test_value_grid_rejects_broken_grids(tmp_path):
    def write(name, coords, values=None):
        path = tmp_path / f"{name}.csv"
        values = range(len(coords)) if values is None else values
        path.write_text("x1,x2,v\n" + "".join(f"{a},{b},{c}\n"
                                              for (a, b), c in zip(coords, values)))
        return path

    nodes = [(a, b) for a in (0.0, 1.0, 2.0) for b in (0.0, 1.0, 2.0)]
    for path in (
            # nine rows, as a 3 x 3 grid has, with (0, 0) twice and (0, 1)
            # missing
            write("duplicate", [(0.0, 0.0), (0.0, 0.0)] + nodes[2:]),
            # x2 in {0, 1, 3} would be read as {0, 1.5, 3}
            write("uneven", [(a, {2.0: 3.0}.get(b, b)) for a, b in nodes]),
            write("text", nodes, [0, 1, 2, 3, "x", 5, 6, 7, 8]),
            # a 4 x 2 grid is too narrow to step on
            write("narrow", [(a, b) for a in (0.0, 1.0, 2.0, 3.0) for b in (0.0, 1.0)])):
        with pytest.raises(fileio.FileFormatError):
            orc.read_value_grid(path)
    back = orc.read_value_grid(write("good", nodes))
    assert np.array_equal(back.v, np.arange(9.0).reshape(3, 3))


def test_metrics_block_formatting():
    block = fileio.metrics_block(
        {"rms_error": 0.25, "invariant_exits": 3, "diverged": False, "note": "ok"})
    assert block.splitlines() == [
        "[metrics]",
        "rms_error = 0.25",
        "invariant_exits = 3",
        "diverged = false",
        "note = ok",
    ]


# -- SVG plots ---------------------------------------------------------------------

def x_axis(*xs):
    """line_plot's x axis for series whose x values are `xs`: the range of
    the finite ones, padded by 4% of it on each side."""
    allx = np.concatenate([np.asarray(x, dtype=float) for x in xs])
    allx = allx[np.isfinite(allx)]
    lo, hi = float(np.min(allx)), float(np.max(allx))
    pad = 0.04 * (hi - lo)
    return lo - pad, hi + pad


def test_svg_polylines_match_per_point_formatting(tmp_path):
    # the x data spans [0.1, 0.7] (the "clipped" case reaches both ends)
    (x0, x1), (y0, y1) = xlim, ylim = x_axis([0.1, 0.7]), (-0.3, 0.9)
    # pixel offsets k/8 for odd k sit on the 2-decimal rounding ties, where
    # one ulp of difference in the pixel mapping changes the printed digits;
    # x stays inside the data span, 20.8 pixels from each end of the axis
    ties = np.arange(1, 4000, 2) / 8.0
    # lands at pixel -0.001, which prints as -0.00
    edge = y1 + 34.001 / 340.0 * (y1 - y0)
    cases = {
        "ties": (x0 + (21.0 + ties % 520.0) / 562.0 * (x1 - x0),
                 y1 - ties % 340.0 / 340.0 * (y1 - y0)),
        "nonfinite": ([0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [0.1, np.nan, np.inf, -np.inf, 0.2, 0.3]),
        "nonfinite-x": ([np.nan, np.inf, 0.25, -np.inf, 0.65], [0.0, 0.1, 0.2, 0.3, 0.4]),
        "signed-zero": ([0.2, 0.3, 0.4, 0.7], [-0.0, 0.0, edge, -0.3]),
        "clipped": ([0.1, 0.2, 0.4, 0.6, 0.7], [-3.0, 0.899999, 2.5, -0.300001, 1e6]),
        "single": ([0.3], [0.1]),
        "empty": ([], []),
    }
    assert x_axis(*(xs for xs, _ in cases.values())) == xlim
    series = [svgplot.Series(name, np.array(xs), np.array(ys))
              for name, (xs, ys) in cases.items()]
    path = tmp_path / "plot.svg"
    svgplot.line_plot(path, series, ylim=ylim)
    got = re.findall(r'<polyline points="([^"]*)"', path.read_text())
    # x never decreases in any case, so each is drawn from the points M4 keeps
    want = [orc.svg_polyline_points(*orc.m4_points(xs, ys, xlim), xlim, ylim)
            for xs, ys in cases.values()]
    assert got == want
    assert ",-0.00 " in got[3]


def pixel_columns(xs, xlim):
    """Pixel column of each x on line_plot's x axis `xlim`."""
    (x0, x1), pw = xlim, 640 - 62 - 16
    return [math.floor(62 + (float(x) - x0) / (x1 - x0) * pw) for x in xs]


def m4_cases():
    # the x data spans [lo, hi] ("walk" reaches both ends), inside the axis
    lo, hi = 0.1, 0.7
    (x0, x1) = xlim = x_axis([lo, hi])
    rng = np.random.default_rng(7)
    t = np.linspace(lo, hi, 10001)
    dense = x0 + (21.0 + np.arange(1, 4000, 2) / 8.0 % 520.0) / 562.0 * (x1 - x0)
    holey_y = np.sin(40.0 * t[:3000])
    holey_y[::97] = np.nan
    holey_y[5::131] = np.inf
    holey_x = t[:3000].copy()
    holey_x[3::113] = np.nan
    holey_x[0] = -np.inf  # the first finite point is the second sample
    cases = {
        # a 10,001-sample run: about 18 samples per pixel column
        "walk": (t, np.cumsum(rng.normal(size=t.size)) * 0.01),
        # pixel x on the 2-decimal rounding ties
        "ties": (dense, np.cos(dense * 50.0)),
        # constant runs, so a column's extremes are held by several points
        "plateaus": (t[:3000], np.repeat([0.2, 0.5, 0.2, 0.8, 0.5], 600)),
        # repeated x: vertical runs inside one column
        "repeated-x": (np.repeat(np.linspace(lo, hi, 150), 40), rng.uniform(-0.3, 0.9, 6000)),
        "nonfinite": (holey_x, holey_y),
        # y off the axes on both sides
        "outside": (np.linspace(lo, hi, 4001), np.linspace(-1.5, 1.5, 4001) ** 3),
        "single": (np.array([0.3]), np.array([0.1])),
        "empty": (np.array([]), np.array([])),
        # a path in the plane: x turns back
        "path": (0.4 + 0.25 * np.sin(np.linspace(0.0, 2.0 * np.pi, 5001)),
                 0.3 + 0.5 * np.sin(np.linspace(0.0, 4.0 * np.pi, 5001))),
    }
    return xlim, (-0.3, 0.9), cases


def test_m4_keeps_each_pixel_columns_first_last_min_and_max(tmp_path):
    xlim, ylim, cases = m4_cases()
    assert x_axis(*(xs for xs, _ in cases.values())) == xlim
    path = tmp_path / "plot.svg"
    svgplot.line_plot(path, [svgplot.Series(name, xs, ys) for name, (xs, ys) in cases.items()],
                      ylim=ylim)
    got = re.findall(r'<polyline points="([^"]*)"', path.read_text())
    assert len(got) == len(cases)
    for (name, (xs, ys)), points in zip(cases.items(), got):
        ok = np.isfinite(xs) & np.isfinite(ys)
        full_x, full_y = xs[ok], ys[ok]
        kept_x, kept_y = orc.m4_points(xs, ys, xlim)
        assert points == orc.svg_polyline_points(kept_x, kept_y, xlim, ylim), name
        if name == "path":
            # not monotone: drawn whole
            assert points == orc.svg_polyline_points(xs, ys, xlim, ylim)
            assert len(points.split()) == 5001
            continue
        if full_x.size:
            # both endpoints are kept
            assert (kept_x[0], kept_y[0]) == (full_x[0], full_y[0]), name
            assert (kept_x[-1], kept_y[-1]) == (full_x[-1], full_y[-1]), name
        full_cols, kept_cols = pixel_columns(full_x, xlim), pixel_columns(kept_x, xlim)
        assert set(kept_cols) == set(full_cols)
        for col in set(full_cols):
            full = [(a, b) for a, b, c in zip(full_x, full_y, full_cols) if c == col]
            kept = [(a, b) for a, b, c in zip(kept_x, kept_y, kept_cols) if c == col]
            assert len(kept) <= 4, (name, col)
            assert kept[0] == full[0] and kept[-1] == full[-1], (name, col)
            assert min(b for _, b in kept) == min(b for _, b in full), (name, col)
            assert max(b for _, b in kept) == max(b for _, b in full), (name, col)
    # the dense series are thinned
    assert len(got[0].split()) < 4 * 563 < 10001
    assert len(got[2].split()) < 3000


def test_svg_text_is_escaped(tmp_path):
    svgplot.line_plot(tmp_path / "t.svg",
                      [svgplot.Series("a<b", [0.0, 1.0], [0.0, 1.0])],
                      title="x<y&z", xlabel="t & s", ylabel="<E>",
                      hlines=[(0.5, "c > 0 & d", "#d62728")])
    texts = [node.firstChild.data for node in
             minidom.parse(str(tmp_path / "t.svg")).getElementsByTagName("text")]
    for label in ("a<b", "x<y&z", "t & s", "<E>", "c > 0 & d"):
        assert label in texts
        assert svgplot._escape(label) == saxutils.escape(label)


def test_every_written_svg_is_xml(tmp_path):
    rc, _ = run_cli(["reproduce", "fig3", "--out", str(tmp_path / "fig3")])
    assert rc == 0
    # a name with XML markup characters is a legal file name
    cfg = mini_cfg(tmp_path, base=MINI_QUADCOPTER, scenario={"name": "x<y&z"})
    rc, _ = run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "odd")])
    assert rc == 0
    svgs = sorted(tmp_path.rglob("*.svg"))
    assert [p.name for p in svgs] == [
        "quadcopter_fig8_compare_band.svg", "quadcopter_fig8_nominal_traj.svg",
        "quadcopter_fig8_robust_traj.svg", "x<y&z_robust_band.svg", "x<y&z_robust_traj.svg"]
    for svg in svgs:
        minidom.parse(str(svg))  # raises ExpatError when not well-formed
    titles = [node.firstChild.data for node in
              minidom.parse(str(svgs[-1])).getElementsByTagName("text")]
    assert "x<y&z: tracked path" in titles


def test_reproduce_fig4c_plots_are_pixel_sized(tmp_path):
    rc, _ = run_cli(["reproduce", "fig4c", "--out", str(tmp_path)])
    assert rc == 0
    svgs = sorted(tmp_path.glob("*.svg"))
    assert len(svgs) == 3
    for svg in svgs:
        assert svg.stat().st_size < 100_000, svg.name
        minidom.parse(str(svg))
        # each time series of 10,001 samples: at most 4 points in each of
        # the 563 pixel columns its padded range spans
        for points in re.findall(r'<polyline points="([^"]*)"', svg.read_text()):
            assert len(points.split()) <= 4 * 563


# -- CLI exit codes --------------------------------------------------------------

@pytest.mark.parametrize("name", ["a/b<c", "", ".hidden", "..", "a\\b"],
                         ids=["separator", "empty", "hidden", "parent", "backslash"])
def test_cli_unsafe_scenario_name_exit_4(tmp_path, capsys, name):
    # every artifact is named <name>_*, so the name must stay one file name
    path = mini_cfg(tmp_path, scenario={"name": name})
    with pytest.raises(ConfigError, match="'name'"):
        load_scenario(path)
    assert cli.main(["wmax", "--config", str(path), "--out", str(tmp_path / "o")]) == 4
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_usage_errors_exit_4(tmp_path, capsys):
    assert cli.main([]) == 4
    assert cli.main(["frobnicate"]) == 4
    assert cli.main(["reproduce", "fig99"]) == 4
    assert cli.main(["reproduce"]) == 4
    capsys.readouterr()
    # a figure id and --config together name two scenarios: neither runs
    out = tmp_path / "o"
    argv = ["reproduce", "fig3", "--config", str(mini_cfg(tmp_path)), "--out", str(out)]
    assert cli.main(argv) == 4
    assert "exactly one of a figure id" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_errors_exit_4(tmp_path, capsys):
    assert cli.main(["synth"]) == 4  # --config missing
    assert cli.main(["synth", "--config", str(tmp_path / "nope.cfg")]) == 4
    path = mini_cfg(tmp_path, drop=("mpc",))
    assert cli.main(["synth", "--config", str(path)]) == 4
    capsys.readouterr()


def malformed_ini(text):
    """The four ways a file can fail to parse as INI at all, each applied
    to a config's text, as bytes."""
    return {
        "no-section-header": ("n = 41\n" + text).encode(),
        "duplicate-section": (text + "\n[hj_y]\nn = 41\n").encode(),
        "duplicate-key": text.replace("[hj_y]\n", "[hj_y]\nn = 41\n").encode(),
        "utf16-bom": b"\xff\xfe" + text.encode(),
    }


@pytest.mark.parametrize("kind", ["no-section-header", "duplicate-section", "duplicate-key",
                                  "utf16-bom"])
def test_cli_malformed_ini_exit_4(tmp_path, capsys, kind):
    path = mini_cfg(tmp_path)
    path.write_bytes(malformed_ini(path.read_text())[kind])
    with pytest.raises(ConfigError, match="malformed config file"):
        load_scenario(path)
    assert cli.main(["wmax", "--config", str(path), "--out", str(tmp_path / "o")]) == 4
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_negative_seed_exit_4(tmp_path, capsys):
    # a random push draws from the seed, and numpy refuses a negative one:
    # the key and the flag are refused before anything runs or is written
    noisy = {**MINI_QUADCOPTER, "disturbance": {"kind": "random", "w_max": 3.5}}
    out = tmp_path / "o"
    keyed = mini_cfg(tmp_path, fname="keyed.cfg", base=noisy, scenario={"seed": -3})
    assert cli.main(["simulate", "--config", str(keyed), "--out", str(out)]) == 4
    assert "'seed'" in capsys.readouterr().err
    flagged = mini_cfg(tmp_path, fname="flagged.cfg", base=noisy)
    assert cli.main(["simulate", "--config", str(flagged), "--seed", "-1",
                     "--out", str(out)]) == 4
    assert "--seed: must not be negative" in capsys.readouterr().err
    assert not out.exists()


def test_cli_out_naming_a_file_exit_4(tmp_path, capsys, monkeypatch):
    # an output path that is a file, lies under one or is a dangling
    # symlink is refused before any stage runs, whether --out or
    # [scenario] out_dir names it
    synthesized = []
    monkeypatch.setattr(cli, "synthesize", lambda *a: synthesized.append(a))
    taken = tmp_path / "taken"
    taken.write_text("keep")
    dangling = tmp_path / "dangling"
    dangling.symlink_to(tmp_path / "nowhere")
    cfg = mini_cfg(tmp_path, base=MINI_QUADCOPTER)
    for out in (taken, taken / "sub", dangling):
        assert cli.main(["synth", "--config", str(cfg), "--out", str(out)]) == 4
        assert "is not a directory" in capsys.readouterr().err
    for out_dir in (taken, taken / "sub"):
        keyed = mini_cfg(tmp_path, base=MINI_QUADCOPTER, scenario={"out_dir": out_dir})
        assert cli.main(["synth", "--config", str(keyed)]) == 4
    assert synthesized == []
    assert taken.read_text() == "keep"


@pytest.mark.parametrize("command, edits", [
    ("simulate", {"simulate": {"duration": -1.0}}),
    ("simulate", {"simulate": {"dt": 0.0}}),
    ("simulate", {"simulate": {"duration": 0.0004}}),
    ("hj-brs", {"hj_z": {"horizon": 2.0}}),
    ("hj-brs", {"hj_z": {"horizon": "soon"}}),
    ("hj-brs", {"hj_z": {"n": 2}}),
    ("hj-brs", {"hj_y": {"target_half_widths": "0.25, -1.0"}}),
    ("hj-brs", {"hj_y": {"grid_half_widths": "0.0, 2.0"}}),
    ("hj-brs", {"hj_y": {"freeze": "melt"}}),
    ("simulate", {"disturbance": {"kind": "random", "w_max": 3.5, "hold_time": "brief"}}),
    ("simulate", {"disturbance": {"kind": "constant", "w": "1.0, 2.0, 3.0"}}),
    ("simulate", {"mpc": {"q": "1e5, 1e3, 1e7, 1e2, 1e1"}}),
    ("simulate", {"mpc": {"r": "0, 0, 0"}}),
    ("simulate", {"mpc": {"u_lo": "-35, -35, 0"}}),
    ("simulate", {"mpc": {"u_hi": "35, 35, 150, 150, 150"}}),
    ("wmax", {"mpc": {"u_lo": "-35, -35, 150, 150", "u_hi": "35, 35, 0, 0"}}),
    ("wmax", {"quadruped": {"delta_m_lo": 5.0, "delta_m_hi": 0.0}}),
    ("simulate", {"quadruped": {"step_offset": 0.0}}),
    ("simulate", {"quadruped": {"step_time": 0.0}}),
    ("simulate", {"quadruped": {"step_time": -0.25}}),
    ("simulate", {"quadruped": {"friction_coeff": -0.6}}),
    ("wmax", {"quadruped": {"mass": -12.454}}),
    ("simulate", {"quadruped": {"inertia_xx": 0.0}}),
    ("wmax", {"quadruped": {"gravity": -9.81}}),
    ("simulate", {"quadcopter": {"mass": 0.0}}),
    ("simulate", {"quadcopter": {"arm_length": -0.2}}),
    ("simulate", {"quadcopter": {"inertia_xx": 0.0}}),
    ("simulate", {"quadcopter": {"gravity": 0.0}}),
    ("simulate", {"reference": {"t_end": 0.0}}),
    ("simulate", {"reference": {"amp_y": "nan"}}),
    ("simulate", {"reference": {"amp_z": "inf"}}),
    ("simulate", {"mpc": {"q": "1e5, nan, 1e7, 1e2, 1e1, 1e2"}}),
    ("wmax", {"mpc": {"u_hi": "35, 35, 150, inf"}}),
    ("simulate", {"clf": {"w_max": -3.5}}),
    ("simulate", {"disturbance": {"kind": "worst_constant", "w_max": -3.5}}),
    ("simulate", {"mpc": {"u_lo": "-35, -35, 0, 200"}}),
    ("simulate", {"quadruped": {"drag_forc": 25.0}}),
    ("simulate", {"clf_y": {"decay": 0.3}}),
    ("wmax", {"hj_x": {"n": 41}}),
    ("simulate", {"quadcopter": {"mass": 1.0}, "clf_y": {"q": "500, 10"}}),
    ("hj-brs", {"hj_y": {"freeze": "reach"}}),
    ("hj-brs", {"hj_y": {"horizon": "converge"}}),
    ("wmax", {"hj_y": {"u_hi": 70.0}}),
    ("wmax", {"hj_y": {"drag_force": 0.0}}),
    ("reproduce", {"quadruped": {"delta_m": -12.454}}),
    ("wmax", {"quadruped": {"delta_m_lo": -12.454}}),
    ("wmax", {"quadruped": {"delta_m_lo": -13.0}}),
    ("simulate", {"quadcopter": {"mass": 1.0}, "hj_y": MINI["hj_y"]}),
    ("simulate", {"reference": {"kind": "trot", "t_end": 5.0}}),
    ("simulate", {"reference": {"kind": "trot", "amp_y": 0.5}}),
    ("simulate", {"reference": {"kind": "trot", "amp_z": 0.5}}),
    ("simulate", {"reference": {"y0": 1.0}}),
    ("simulate", {"disturbance": {"kind": "none", "w_max": 3.0, "freq": 7.0}}),
    # far past MAX_HORIZON: refused before its 1.75 TiB input map is allocated
    ("simulate", {"mpc": {"horizon": 100000}}),
    # far past MAX_SIM_SAMPLES and MAX_GRID_NODES: refused before the
    # certification runs, and before a TiB-sized allocation
    ("simulate", {"simulate": {"duration": 1e9}}),
    ("wmax", {"hj_y": {"n": 1000000}}),
    # duration / dt overflows to inf
    ("simulate", {"simulate": {"duration": 1e300, "dt": 1e-300}}),
    # the invariant level dist_weight * w_max^2 / decay_rate overflows
    ("simulate", {"clf": {"w_max": 1e200}}),
    # z's force box, summed from the per-foot boxes, overflows to inf
    ("wmax", {"mpc": {"u_hi": "35, 35, 1e308, 1e308"}}),
    # the condensed MPC Hessian of the first solve overflows: refused by the
    # simulate stage, before the write pass writes the certificates
    ("simulate", {"mpc": {"dt": 1e300}}),
    ("reproduce", {"mpc": {"dt": 1e300}}),
    ("simulate", {"quadruped": {"v_ref": 1e300}}),
    ("simulate", {"quadruped": {"inertia_xx": 1e-300}}),
    ("reproduce", {"quadruped": {"z_ref": 1e300}}),
    ("simulate", {"quadcopter": {"mass": 1.0}, "mpc": {"dt": 1e300}}),
    # the two stance feet round to one point: refused by the simulate
    # stage's robust first sample, whose ancillary allocates the forces
    ("simulate", {"quadruped": {"step_offset": 1e-300}}),
    ("simulate", {"quadruped": {"v_ref": 1e150}}),
    ("reproduce", {"reference": {"kind": "trot", "y0": 1e300}}),
], ids=["duration", "dt", "duration-below-dt", "horizon-positive", "horizon-word", "n",
        "target-half-width", "grid-half-width", "freeze", "hold-time",
        "quadcopter-disturbance-length", "mpc-q-length",
        "mpc-r-length", "mpc-u-lo-length", "mpc-u-hi-length", "hj-control-box",
        "hj-payload-interval", "step-offset", "step-time-zero", "step-time-negative",
        "friction", "mass-negative", "inertia", "gravity", "quadcopter-mass",
        "quadcopter-arm", "quadcopter-inertia", "quadcopter-gravity", "t-end-zero",
        "amp-y-nan", "amp-z-inf", "mpc-q-nan", "hj-u-hi-inf", "clf-w-max-negative",
        "disturbance-w-max-negative", "mpc-input-box", "misspelt-key", "misspelt-clf-key",
        "unknown-section", "other-plant-section", "freeze-reach", "horizon",
        "hj-u-hi", "hj-drag-force", "payload-zero-mass", "payload-interval-zero-mass",
        "payload-interval-negative-mass", "quadcopter-hj-section", "trot-t-end",
        "trot-amp-y", "trot-amp-z", "figure8-y0", "none-w-max-freq", "mpc-horizon-oversized",
        "simulate-samples-oversized", "hj-n-oversized", "simulate-samples-overflow",
        "clf-level-overflow", "hj-force-box-overflow", "mpc-hessian-dt",
        "mpc-hessian-dt-reproduce", "mpc-hessian-v-ref", "mpc-hessian-inertia",
        "mpc-hessian-z-ref-reproduce", "mpc-hessian-quadcopter-dt", "stance-step-offset",
        "stance-v-ref", "stance-y0-reproduce"])
def test_cli_bad_config_values_exit_4(tmp_path, capsys, request, command, edits):
    # rejected by the loader, before any synthesis, PDE solve or simulation
    # (an overflowing MPC Hessian or coinciding stance feet by the simulate
    # stage, before anything is written), with one line on stderr; only the
    # quadcopter takes a disturbance policy and a figure-8 reference
    quadcopter_only = {"quadcopter", "clf", "reference", "disturbance"}
    trot = edits.get("reference", {}).get("kind") == "trot"
    base = MINI_QUADCOPTER if quadcopter_only & set(edits) and not trot else MINI
    path = mini_cfg(tmp_path, base=base, **edits)
    rc, out = run_cli([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1 and out == ""
    if request.node.callspec.id.startswith("mpc-hessian"):
        assert "the first MPC solve broke down" in err
    if request.node.callspec.id.startswith("stance"):
        assert err.startswith("config error: [quadruped] step_offset = ")
    assert not (tmp_path / "o").exists()


SYNTH_Z = "synthesis of axis 'z' broke down"
SYNTH_MAIN = "synthesis of axis 'main' broke down"
MODEL = "the linear model broke down"
TINY = "1e-310"


@pytest.mark.parametrize("config, command, section, key, value, refusal", [
    ("quadruped_height.cfg", "wmax", "quadruped", "mass", "1e-300",
     "synthesis of axis 'y' broke down"),
    ("quadruped_height.cfg", "wmax", "clf_y", "decay_rate", "1e308",
     "synthesis of axis 'y' broke down"),
    ("quadcopter_fig8.cfg", "simulate", "quadcopter", "mass", "1e-300", SYNTH_MAIN),
    # a non-finite step direction, whose eigenvalues LAPACK cannot find
    ("quadruped_height.cfg", "synth", "clf_z", "dist_weight", "1e308", SYNTH_Z),
    # a reciprocal weight overflows, so the LMI's constant block is not finite
    ("quadruped_height.cfg", "wmax", "clf_z", "q", f"{TINY}, {TINY}", SYNTH_Z),
    ("quadruped_height.cfg", "simulate", "clf_z", "r", TINY, SYNTH_Z),
    ("quadcopter_fig8.cfg", "synth", "clf", "q", ", ".join([TINY] * 6), SYNTH_MAIN),
    ("quadcopter_fig8.cfg", "simulate", "clf", "r", f"{TINY}, {TINY}", SYNTH_MAIN),
    # an overflowing coefficient block
    ("quadcopter_fig8.cfg", "simulate", "quadcopter", "gravity", "1e308", SYNTH_MAIN),
    # the linear model, built before any synthesis, is not finite
    ("quadruped_height.cfg", "synth", "quadruped", "mass", TINY, MODEL),
    ("quadcopter_fig8.cfg", "simulate", "quadcopter", "mass", TINY, MODEL),
    ("quadcopter_fig8.cfg", "synth", "quadcopter", "mass", "1e308", MODEL),
    ("quadcopter_fig8.cfg", "simulate", "quadcopter", "arm_length", "1e308", MODEL),
    ("quadcopter_fig8.cfg", "synth", "quadcopter", "inertia_xx", TINY, MODEL),
], ids=["height-mass", "height-decay-rate", "fig8-mass", "height-dist-weight", "height-q",
        "height-r", "fig8-q", "fig8-r", "fig8-gravity", "height-model-mass", "fig8-model-mass",
        "fig8-model-mass-huge", "fig8-model-arm", "fig8-model-inertia"])
def test_cli_synthesis_breakdown_exit_4(tmp_path, capsys, config, command, section, key, value,
                                        refusal):
    # the synthesis or its linear model overflows float64: no infeasibility
    # is certified (exit 2), the config's scales are outside the solver's range
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read_string((orc.CONFIGS / config).read_text())
    cp[section][key] = value
    path = tmp_path / config
    with open(path, "w") as fh:
        cp.write(fh)
    rc, out = run_cli([command, "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith(f"config error: {refusal}")
    assert err.count("\n") == 1 and out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, section, key, value, axis", [
    ("wmax", "hj_z", "grid_half_widths", "1e-310, 1.6", "z"),
    ("simulate", "quadruped", "gravity", "1e308", "z"),
    ("reproduce", "quadruped", "drag_force", "1e308", "y"),
], ids=["subnormal-cell", "gravity", "drag"])
def test_cli_non_finite_wave_sum_exit_4(tmp_path, command, section, key, value, axis):
    # the HJ wave sum overflows, so a step would be 0 and the solve would
    # never end: run in a child with a timeout, so that a regression fails
    # instead of stalling the suite
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read_string((orc.CONFIGS / "quadruped_height.cfg").read_text())
    cp[section][key] = value
    path = tmp_path / "case.cfg"
    with open(path, "w") as fh:
        cp.write(fh)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "robustroa.harness.cli", command,
                             "--config", str(path), "--out", str(tmp_path / "o")],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
                            cwd=tmp_path, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        # the CLI's forked axis jobs would outlive it: end its whole session
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    assert proc.returncode == 4, err
    assert err.startswith(f"config error: [hj_{axis}] the solve broke down (the wave sum")
    assert err.count("\n") == 1 and out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("disturbance", [
    {"kind": "constant", "w": "50, 0"},
    {"kind": "random", "w_max": 50.0},
    {"kind": "sinusoidal", "w_max": 50.0},
    {"kind": "worst_constant", "w_max": 50.0},
], ids=["constant", "random", "sinusoidal", "worst-constant"])
def test_cli_quadruped_disturbance_exit_4(tmp_path, capsys, disturbance):
    # the quadruped has no additive disturbance channel: a policy would be
    # recorded in the w columns without ever acting on the plant
    path = mini_cfg(tmp_path, disturbance=disturbance)
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 4
    assert "no disturbance channel" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_hj_sections_required(tmp_path, capsys):
    path = mini_cfg(tmp_path, drop=("hj_y", "hj_z"))
    assert cli.main(["hj-brs", "--config", str(path)]) == 4
    assert cli.main(["wmax", "--config", str(path)]) == 4
    capsys.readouterr()


def test_cli_hj_needs_mpc_force_box(tmp_path, capsys):
    # the safe sets take their force boxes from the [mpc] per-foot boxes
    for key in ("u_lo", "u_hi"):
        sections = copy.deepcopy(MINI)
        del sections["mpc"][key]
        path = write_cfg(tmp_path, sections, fname=f"no-{key}.cfg")
        assert cli.main(["wmax", "--config", str(path), "--out", str(tmp_path / "o")]) == 4
        assert "[mpc] force boxes" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["wmax", "reproduce"])
def test_cli_unsettled_safe_set_exit_3(tmp_path, capsys, command):
    # 85.75 N per foot gives z a 171.5 N lift box: against the 12.454 kg
    # body (122.2 N) and up to 5 kg of payload (171.3 N) its safe set is
    # still changing when the converge rule's 10 s cap stops the solve, so
    # no bound is certified on it
    ref = resources.files("robustroa.harness").joinpath("configs", "quadruped_height.cfg")
    text = ref.read_text()
    assert text.count("u_hi = 35, 35, 150, 150") == 1
    path = tmp_path / "weak_lift.cfg"
    path.write_text(text.replace("u_hi = 35, 35, 150, 150", "u_hi = 35, 35, 85.75, 85.75"))
    rc, _ = run_cli([command, "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "[hj_z]" in err and "set_final_time = " in err
    # y's safe set is final, but nothing is written before z is certified
    assert not (tmp_path / "o").exists()


def test_cli_hj_brs_refused_on_z_writes_nothing(tmp_path, capsys):
    # even n leaves no node at the origin, so z's tiny target misses the
    # grid after y's safe set is already solved
    ref = resources.files("robustroa.harness").joinpath("configs", "quadruped_height.cfg")
    head, hj_z = ref.read_text().split("[hj_z]")
    edits = {"target_half_widths = 0.076, 0.8": "target_half_widths = 1e-6, 1e-6",
             "n = 101": "n = 40"}
    for old, new in edits.items():
        assert hj_z.count(old) == 1
        hj_z = hj_z.replace(old, new)
    path = tmp_path / "tiny_z.cfg"
    path.write_text(head + "[hj_z]" + hj_z)
    rc, text = run_cli(["hj-brs", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "no safe region of attraction" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert text == ""


@pytest.mark.parametrize("edits, code, message", [
    ({"clf_z": {"decay_rate": 1e6}}, 2, "synthesis infeasible: no strictly feasible point"),
    ({"hj_z": {"n": 40, "target_half_widths": "1e-6, 1e-6"}}, 3,
     "no safe region of attraction"),
], ids=["infeasible-z", "target-off-grid-z"])
def test_cli_refusal_on_forked_axis_matches_sequential(tmp_path, capsys, monkeypatch,
                                                       edits, code, message):
    # z is the axis that runs in a forked child; its refusal reaches the
    # parent with the exit code and text of solving the axes in turn
    path = mini_cfg(tmp_path, **edits)
    seen = []
    for name in ("forked", "sequential"):
        if name == "sequential":
            monkeypatch.delattr(os, "fork")
        out = tmp_path / name
        rc, text = run_cli(["wmax", "--config", str(path), "--out", str(out)])
        seen.append((rc, text, capsys.readouterr().err))
        assert not out.exists()
        assert_no_children()
    assert seen[0] == seen[1]
    rc, text, err = seen[0]
    assert rc == code and text == "" and message in err


OFF_GRID = {"n": 40, "target_half_widths": "1e-6, 1e-6"}  # no node in the target
INFEASIBLE = {"decay_rate": 1e6}


@pytest.mark.parametrize("edits, axis", [
    ({"hj_y": OFF_GRID, "clf_z": INFEASIBLE}, "z"),
    ({"clf_y": INFEASIBLE, "hj_z": OFF_GRID}, "y"),
], ids=["off-grid-y-infeasible-z", "infeasible-y-off-grid-z"])
def test_cli_refusal_precedence_across_stages_and_axes(tmp_path, capsys, monkeypatch,
                                                       edits, axis):
    # each axis's chain stops at its own refusal, and the one raised is
    # the first in (stage, axis) order: synthesis (exit 2) before the safe
    # set (exit 3), whichever axis refused it, as running the stages one
    # after the other does
    both = mini_cfg(tmp_path, fname="both.cfg", **edits)
    alone = mini_cfg(tmp_path, fname="alone.cfg", **{f"clf_{axis}": INFEASIBLE})
    seen = []
    for name, path in (("forked", both), ("sequential", both), ("alone", alone)):
        if name == "sequential":
            monkeypatch.delattr(os, "fork")
        out = tmp_path / name
        rc, text = run_cli(["wmax", "--config", str(path), "--out", str(out)])
        seen.append((rc, text, capsys.readouterr().err))
        assert not out.exists()
        assert_no_children()
    # the message is that of the axis whose synthesis was refused
    assert seen[0] == seen[1] == seen[2]
    rc, text, err = seen[0]
    assert rc == 2 and text == "" and err.startswith("synthesis infeasible: ")


def test_cli_quadruped_without_clf_z_exit_4(tmp_path, capsys):
    # the loader requires both synthesis sections, so every [hj_*] axis has
    # a certificate to bound
    path = mini_cfg(tmp_path, drop=("clf_z",))
    for command in ("wmax", "reproduce"):
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 4
        assert "missing [clf_z] section" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_quadcopter_simulation_needs_w_max(tmp_path, capsys):
    # the quadcopter is certified by its configured bound: without one it
    # can be synthesized, but not simulated, and the refusal writes nothing
    clf = {key: val for key, val in MINI_QUADCOPTER["clf"].items() if key != "w_max"}
    path = write_cfg(tmp_path, {**MINI_QUADCOPTER, "clf": clf})
    for command in ("simulate", "reproduce"):
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 4
        assert "[clf] needs w_max" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    rc, text = run_cli(["synth", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 0 and "w_max" not in text


def test_cli_simulate_takes_zero_mpc_weights(tmp_path):
    # with q = 0 the condensed MPC Hessian is R = 1e-20 I alone, far below
    # the ridge, which tops it up: the plan is finite and the run completes
    path = mini_cfg(tmp_path, base=MINI_QUADCOPTER,
                    mpc={"q": "0, 0, 0, 0, 0, 0", "r": "1e-20, 1e-20"})
    rc, text = run_cli(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 0
    errors = {key: float(val) for key, val in printed_values(text).items()
              if key.startswith(("rms_error", "max_abs_e"))}
    assert "rms_error" in errors and len(errors) == 7
    assert all(np.isfinite(val) for val in errors.values())


def test_cli_simulate_reports_a_diverged_run_without_warnings(tmp_path, capsys):
    # a figure-8 of amplitude 1e300 leaves the vehicle behind at once: the
    # run diverges, its squared errors overflow to rms_error = inf, and
    # nothing reaches stderr
    path = mini_cfg(tmp_path, base=MINI_QUADCOPTER, reference={"amp_y": 1e300})
    rc, text = run_cli(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 0 and capsys.readouterr().err == ""
    values = printed_values(text)
    assert values["diverged"] == "true" and values["rms_error"] == "inf"


def test_cli_wmax_reports_the_configured_bound_at_synthesis(tmp_path):
    # the synthesis report shows the [clf_y] bound, the w_max lines the
    # certified ones that replace it
    path = mini_cfg(tmp_path, clf_y={"w_max": 0.01})
    rc, text = run_cli(["wmax", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 0
    level = MINI["clf_y"]["dist_weight"] * 0.01 ** 2 / MINI["clf_y"]["decay_rate"]
    assert f"  w_max = 0.01, level = {level!r}" in text.splitlines()
    assert len([line for line in text.splitlines() if line.startswith("  w_max")]) == 1
    _, entries = fileio.read_wmax_report(tmp_path / "o" / "mini_wmax.txt")
    _, _, cert, _ = fileio.read_certificate(tmp_path / "o" / "mini_certificate_y.txt")
    assert cert.w_max == entries[0]["w_max"] != 0.01


def test_cli_hj_brs_reports_set_final_time(tmp_path):
    path = mini_cfg(tmp_path)
    rc, text = run_cli(["hj-brs", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 0
    lines = [line for line in text.splitlines() if "set_final_time = " in line]
    assert [line.split("]")[0] for line in lines] == ["[hj-brs:y", "[hj-brs:z"]
    assert "converged = True" in lines[0]
    assert (tmp_path / "o" / "mini_valuegrid_y.csv").exists()


def test_cli_infeasible_synthesis_exit_2(tmp_path, capsys):
    path = mini_cfg(tmp_path, clf_y={"decay_rate": 1e6})
    rc, _ = run_cli(["synth", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    capsys.readouterr()


def test_cli_unreachable_target_exit_3(tmp_path, capsys):
    # even n leaves no node at the origin, so a tiny target misses the grid
    path = mini_cfg(tmp_path, hj_y={"n": 40, "target_half_widths": "1e-6, 1e-6"})
    rc, _ = run_cli(["wmax", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 3
    capsys.readouterr()


# -- pipeline runs on the shrunken scenario ---------------------------------------

@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("mini_run")
    cfg = mini_cfg(root)
    out = root / "run"
    rc, text = run_cli(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    return cfg, out, text


def test_simulate_writes_artifacts(mini_run):
    _, out, text = mini_run
    for fname in ("mini_robust.csv", "mini_robust_traj.svg", "mini_robust_band.svg",
                  "mini_wmax.txt", "mini_certificate_y.txt", "mini_certificate_z.txt",
                  "mini_valuegrid_y.csv", "mini_valuegrid_z.csv"):
        assert (out / fname).exists(), fname
    assert "[metrics]" in text
    assert "mode = robust" in text

    name, entries = fileio.read_wmax_report(out / "mini_wmax.txt")
    assert name == "mini"
    assert sorted(e["axis"] for e in entries) == ["y", "z"]
    for e in entries:
        assert e["w_max"] > 0.0 and e["level"] > 0.0

    # the written certificate carries the bound find_wmax just certified
    _, axis, cert, eig = fileio.read_certificate(out / "mini_certificate_z.txt")
    assert axis == "z"
    assert eig < 0.0
    z_entry = next(e for e in entries if e["axis"] == "z")
    assert cert.w_max == z_entry["w_max"]
    assert cert.level == z_entry["level"]

    vg = orc.read_value_grid(out / "mini_valuegrid_y.csv")
    assert vg.grid.shape == (41, 41)


def printed_values(text):
    """The `key = value` lines of a CLI run's output, as strings."""
    metrics = {}
    for line in text.splitlines():
        if " = " in line:
            key, val = line.split(" = ", 1)
            metrics[key.strip()] = val.strip()
    return metrics


def test_simulate_metrics_match_csv(mini_run):
    _, out, text = mini_run
    metrics = printed_values(text)
    data = np.genfromtxt(out / "mini_robust.csv", delimiter=",", names=True)
    for axis in ("y", "z"):
        energy = data[f"E_{axis}"]
        level = data[f"roa_level_{axis}"]
        recount = int(np.sum(energy > level * (1.0 + 1e-6)))
        assert recount == int(metrics[f"invariant_exits_{axis}"])
    total = int(metrics["invariant_exits_y"]) + int(metrics["invariant_exits_z"])
    assert total == int(metrics["invariant_exits"])
    assert metrics["diverged"] == "false"
    # 0.3 s at 1 kHz: header plus 301 samples
    assert len(data) == 301


def test_simulate_trot_start_places_first_stance_under_the_body(mini_run, tmp_path):
    # the feet go down around the start, wherever the trot reference begins:
    # a run from y0 = 1 tracks as the run from y0 = 0 does
    cfg = mini_cfg(tmp_path, reference={"y0": 1.0})
    rc, text = run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    moved, at_zero = printed_values(text), printed_values(mini_run[2])
    assert int(moved["invariant_exits"]) == 0
    assert abs(float(moved["max_abs_e_phi"]) - float(at_zero["max_abs_e_phi"])) <= 1e-6


def test_simulate_seed_determinism(mini_run, tmp_path):
    cfg, out, _ = mini_run
    rc, _ = run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b")])
    assert rc == 0
    first = (out / "mini_robust.csv").read_bytes()
    again = (tmp_path / "b" / "mini_robust.csv").read_bytes()
    assert first == again

    # a random push on the quadcopter draws from the seed and moves the state
    noisy = write_cfg(tmp_path, {**MINI_QUADCOPTER,
                                 "disturbance": {"kind": "random", "w_max": 3.5}})
    states = []
    for seed in ("0", "0", "99"):
        out_dir = tmp_path / f"seed{seed}_{len(states)}"
        rc, _ = run_cli(["simulate", "--config", str(noisy), "--seed", seed,
                         "--out", str(out_dir)])
        assert rc == 0
        data = np.genfromtxt(out_dir / "miniqc_robust.csv", delimiter=",", names=True)
        states.append(np.column_stack([data[f"x{i}"] for i in range(1, 7)]))
    assert np.array_equal(states[0], states[1])
    assert not np.array_equal(states[0], states[2])


def count_calls(monkeypatch, tmp_path, *names, tag=lambda name, args: "-"):
    """Wrap the named harness.cli globals with call loggers that log in
    forked children too: each call appends `name pid tag(name, args)` to a
    file.  Returns a function that reads the log as [(name, pid, tag)]."""
    log = tmp_path / "calls.log"
    log.touch()
    for name in names:
        fn = getattr(cli, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            with open(log, "a") as f:
                f.write(f"{_name} {os.getpid()} {tag(_name, args)}\n")
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)

    def calls():
        return [(name, int(pid), word) for name, pid, word in
                (line.split() for line in log.read_text().splitlines())]

    return calls


def test_reproduce_runs_both_modes(tmp_path, monkeypatch):
    cfg = mini_cfg(tmp_path)
    out = tmp_path / "out"
    calls = count_calls(monkeypatch, tmp_path, "synthesize", "solve_brs")
    rc, text = run_cli(["reproduce", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert "[reproduce:nominal]" in text
    assert "[reproduce:robust]" in text
    for fname in ("mini_nominal.csv", "mini_robust.csv", "mini_nominal_traj.svg",
                  "mini_robust_traj.svg", "mini_compare_band.svg"):
        assert (out / fname).exists(), fname
    # certified once for both modes: one synthesis and one PDE solve per axis
    assert Counter(name for name, *_ in calls()) == {"synthesize": 2, "solve_brs": 2}

    # and the certification artifacts are the ones `wmax` writes
    rc, _ = run_cli(["wmax", "--config", str(cfg), "--out", str(tmp_path / "wmax")])
    assert rc == 0
    for fname in ("mini_wmax.txt", "mini_certificate_y.txt", "mini_certificate_z.txt",
                  "mini_valuegrid_y.csv", "mini_valuegrid_z.csv"):
        assert (out / fname).read_bytes() == (tmp_path / "wmax" / fname).read_bytes(), fname


def test_reproduce_quadcopter_synthesizes_once(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, MINI_QUADCOPTER)
    calls = count_calls(monkeypatch, tmp_path, "synthesize")
    rc, text = run_cli(["reproduce", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "[reproduce:nominal]" in text and "[reproduce:robust]" in text
    assert [name for name, *_ in calls()] == ["synthesize"]


def mini_axis(name, args):
    """The axis of a synthesize or solve_brs call on the MINI scenario."""
    if name == "synthesize":
        rates = {MINI[f"clf_{axis}"]["decay_rate"]: axis for axis in ("y", "z")}
        return rates[args[1].decay_rate]
    widths = {float(MINI[f"hj_{axis}"]["grid_half_widths"].split(",")[0]): axis
              for axis in ("y", "z")}
    return widths[args[0].maxs[0]]


def test_wmax_runs_each_axis_chain_in_one_process(tmp_path, monkeypatch):
    # y's whole chain runs in the CLI's process, z's in one forked child
    cfg = mini_cfg(tmp_path)
    calls = count_calls(monkeypatch, tmp_path, "synthesize", "solve_brs", tag=mini_axis)
    rc, _ = run_cli(["wmax", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert_no_children()
    pids = {}
    for name, pid, axis in calls():
        pids.setdefault(axis, []).append((name, pid))
    assert sorted(pids) == ["y", "z"]
    assert pids["y"] == [("synthesize", os.getpid()), ("solve_brs", os.getpid())]
    (z_pid,) = {pid for _, pid in pids["z"]}
    assert z_pid != os.getpid()
    assert sorted(name for name, _ in pids["z"]) == ["solve_brs", "synthesize"]


def failing_fork(monkeypatch, *fails):
    """os.fork raising OSError(EAGAIN) on the calls numbered in `fails`
    (0 is the first) and forking on the others."""
    fork, count = os.fork, itertools.count()

    def flaky():
        if next(count) in fails:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", flaky)


@pytest.mark.parametrize("command", ["wmax", "hj-brs", "reproduce"])
def test_cli_forked_run_matches_unforked(tmp_path, monkeypatch, command):
    # the same files, byte for byte, and the same report, whether the axes
    # and modes run in forked children, here after a failed fork (reproduce
    # forks twice: for its axes, then for its modes), or all here
    cfg = mini_cfg(tmp_path)
    runs = {}
    for name, fails in (("forked", ()), ("fork-1-fails", (0,)), ("fork-2-fails", (1,)),
                        ("forks-1-and-2-fail", (0, 1)), ("unforked", None)):
        if fails is None:
            monkeypatch.delattr(os, "fork")
        else:
            failing_fork(monkeypatch, *fails)
        out = tmp_path / name
        rc, text = run_cli([command, "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert_no_children()
        runs[name] = (text.replace(str(out), "<out>"),
                      {path.name: path.read_bytes() for path in sorted(out.iterdir())})
    want = runs.pop("unforked")
    assert want[1]
    for name, got in runs.items():
        assert got == want, name


def test_benchmark_tracer_finds_every_target(monkeypatch):
    # the benchmark's trace mode wraps package names from outside; a rename
    # or deletion of any of them must fail here, not only in the benchmark
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer

    mpc_step = plants.mpc_step
    spans = tracer.Tracer()
    try:
        spans.install()
        assert plants.mpc_step is not mpc_step
    finally:
        spans.uninstall()
    assert {label for _, label, *_ in tracer.TARGETS} <= set(spans.stats)
    assert plants.mpc_step is mpc_step


# -- forked jobs ----------------------------------------------------------------

def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fan_out_returns_results_in_item_order():
    got = cli._fan_out(lambda i: (i * i, os.getpid()), range(4))
    assert [sq for sq, _ in got] == [0, 1, 4, 9]
    pids = [pid for _, pid in got]
    # the first item runs here, each later one in a child of its own
    assert pids[0] == os.getpid()
    assert len(set(pids)) == 4
    assert_no_children()


def test_fan_out_raises_the_first_exception_in_item_order():
    def job(i):
        if i == 1:
            raise LookupError("item 1")
        if i >= 2:
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(LookupError, match=r"^item 1$"):
        cli._fan_out(job, range(4))
    assert_no_children()
    # this process's own item comes first, and its children are still reaped
    with pytest.raises(ValueError, match=r"^item 2$"):
        cli._fan_out(job, [2, 3, 0])
    assert_no_children()


def test_fan_out_child_without_result_raises():
    def job(i):
        if i == 1:
            os._exit(7)
        return i

    with pytest.raises(ChildProcessError, match="without a result"):
        cli._fan_out(job, range(3))
    assert_no_children()


def test_fan_out_child_print_stays_in_the_child(capfd):
    def job(i):
        print(f"job {i}")
        return i

    assert cli._fan_out(job, range(3)) == [0, 1, 2]
    assert capfd.readouterr().out == "job 0\n"
    assert_no_children()


@pytest.mark.parametrize("fails", [(0,), (1,)], ids=["first", "second"])
def test_fan_out_runs_here_from_a_failed_fork_on(monkeypatch, fails):
    # of the three forks four items need, the failed one and every later
    # item run in this process; a child already started is still reaped
    failing_fork(monkeypatch, *fails)
    got = cli._fan_out(lambda i: (i * i, os.getpid()), range(4))
    assert [sq for sq, _ in got] == [0, 1, 4, 9]
    pids = [pid for _, pid in got]
    forked = fails[0] + 1
    assert pids[0] == os.getpid() and len(set(pids[:forked])) == forked
    assert pids[forked:] == [os.getpid()] * (4 - forked)
    assert_no_children()


def test_fan_out_without_fork_runs_in_process(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert cli._fan_out(lambda i: os.getpid(), range(3)) == [os.getpid()] * 3


def test_module_entry_point_passes_exit_codes(tmp_path):
    # `python -m robustroa.harness.cli` runs sys.exit(main()): the codes
    # main returns reach the shell
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    cfg = mini_cfg(tmp_path)
    out = tmp_path / "o"
    proc = subprocess.run([sys.executable, "-m", "robustroa.harness.cli", "synth",
                           "--config", str(cfg), "--out", str(out)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (out / "mini_certificate_y.txt").exists()
    assert (out / "mini_certificate_z.txt").exists()
    bad = mini_cfg(tmp_path, fname="bad.cfg")
    bad.write_bytes(malformed_ini(bad.read_text())["no-section-header"])
    proc = subprocess.run([sys.executable, "-m", "robustroa.harness.cli", "synth",
                           "--config", str(bad), "--out", str(tmp_path / "bad")],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 4, proc.stderr
    assert "config error" in proc.stderr
    assert not (tmp_path / "bad").exists()


def test_console_script_synth(tmp_path):
    exe = shutil.which("robustroa")
    assert exe is not None
    cfg = mini_cfg(tmp_path)
    out = tmp_path / "o"
    proc = subprocess.run([exe, "synth", "--config", str(cfg), "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "[synth:y]" in proc.stdout and "[synth:z]" in proc.stdout
    assert (out / "mini_certificate_y.txt").exists()
    assert (out / "mini_certificate_z.txt").exists()
