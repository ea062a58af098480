import contextlib
import dataclasses
import io
import math
from importlib import resources

import numpy as np
import pytest

import _oracles as orc
from robustroa import plants
from robustroa import roa_bridge as rb
from robustroa.clf_synth import ClfCertificate, ClfParams, synthesize
from robustroa.harness import cli, fileio
from robustroa.harness.scenarios import load_scenario
from robustroa.hj_reach import Grid2, TargetSet, ValueGrid, signed_target, solve_brs


def circle_value_grid(radius, extent=2.0, n=101):
    """Signed-distance value function of a disc safe set.  For a radius
    below 1.9 it lies above the l of the box |x1|, |x2| <= 1.9, as a stay
    solve's V lies above its target's l."""
    grid = Grid2((-extent, -extent), (extent, extent), (n, n))
    x1g, x2g = grid.mesh()
    return ValueGrid(grid, np.hypot(x1g, x2g) - radius)


def random_pd(rng):
    a = rng.standard_normal((2, 2))
    return a @ a.T + 0.3 * np.eye(2)


def unit_certificate(dist_weight=1.0, decay_rate=1.0):
    params = ClfParams(q=[1.0, 1.0], r=[1.0], decay_rate=decay_rate,
                       dist_weight=dist_weight)
    return ClfCertificate(k=np.zeros((1, 2)), p=np.eye(2), params=params)


# -- containment ---------------------------------------------------------------

def test_containment_guard_linear_field():
    grid = Grid2((-1.0, -1.0), (1.0, 1.0), (21, 21))
    x1g, x2g = grid.mesh()
    vg = ValueGrid(grid, 3.0 * x1g + 4.0 * x2g)
    delta = rb.containment_guard(vg)
    assert delta.shape == grid.shape
    assert np.max(np.abs(delta - 0.5 * grid.cell_diagonal * 5.0)) < 1e-12


def test_containment_guard_is_local():
    # a steep ramp on one side of the grid widens the guard only on the
    # cells it touches: V = x1 for x1 <= 0 and 10 x1 beyond
    grid = Grid2((-1.0, -1.0), (1.0, 1.0), (21, 21))
    x1g, _ = grid.mesh()
    delta = rb.containment_guard(ValueGrid(grid, np.where(x1g <= 0.0, x1g, 10.0 * x1g)))
    half_diag = 0.5 * grid.cell_diagonal
    assert np.max(np.abs(delta[:10] - half_diag)) < 1e-12  # x1 <= -0.1
    assert np.max(np.abs(delta[11:] - 10.0 * half_diag)) < 1e-12  # x1 >= 0.1
    assert abs(delta[10, 5] - 10.0 * half_diag) < 1e-12  # its cells reach x1 = 0.1


def test_tiny_ellipsoid_deep_inside_is_contained():
    vg = circle_value_grid(1.5)
    assert rb.ellipsoid_contained(np.eye(2), (0.0, 0.0), 1e-6, vg)


def test_ellipsoid_outside_target_is_rejected():
    # a flat V = -1 clipped at the target, as a stay solve clips it: the
    # center sits outside the target box
    grid = Grid2((-2.0, -2.0), (2.0, 2.0), (41, 41))
    target = TargetSet.box((0.0, 0.0), (1.0, 1.0))
    vg = ValueGrid(grid, np.maximum(-1.0, target.l(*grid.mesh())))
    assert not rb.ellipsoid_contained(np.eye(2), (1.5, 0.0), 1e-4, vg)


def test_ellipsoid_leaving_grid_is_rejected():
    # beyond the border counts as unsafe, even where V clears
    grid = Grid2((-2.0, -2.0), (2.0, 2.0), (41, 41))
    vg = ValueGrid(grid, np.full(grid.shape, -1.0))
    p = np.diag([1.0, 4.0])  # x1 reaches the border at level 4, x2 at 16
    for level, inside in ((3.9, True), (4.0, False), (25.0, False)):
        assert rb.ellipsoid_contained(p, (0.0, 0.0), level, vg, guard=0.0) is inside
    assert not rb.ellipsoid_contained(p, (2.5, 0.0), 1e-6, vg, guard=0.0)


def test_tangency_level_matches_analytic_value():
    # ellipse {2 x1^2 + x2^2 <= c} first touches the box {|x1| <= 0.8,
    # |x2| <= 1.2} when sqrt(c/2) = 0.8, i.e. c = 1.28 (the x2 extent
    # sqrt(c) reaches 1.2 only at c = 1.44)
    grid = Grid2((-2.0, -2.0), (2.0, 2.0), (201, 201))
    x1g, x2g = grid.mesh()
    box = TargetSet.box((0.0, 0.0), (0.8, 1.2))
    vg = ValueGrid(grid, np.asarray(box.l(x1g, x2g), dtype=float))
    p = np.diag([2.0, 1.0])

    def contained(level):
        return rb.ellipsoid_contained(p, (0.0, 0.0), level, vg, guard=0.0)

    lo, hi = 0.1, 3.0
    assert contained(lo) and not contained(hi)
    for _ in range(18):
        mid = 0.5 * (lo + hi)
        if contained(mid):
            lo = mid
        else:
            hi = mid
    assert hi - lo < 2e-5
    assert abs(0.5 * (lo + hi) - 1.28) < 5e-3


# -- the closed form -------------------------------------------------------------

def test_circle_in_circle_recovers_radius():
    # P = I, mu = lambda = 1: level c = w^2, so the invariant set is the
    # disc of radius w; the largest certified w equals the safe radius up
    # to the guard (about half a cell) and the rounding
    radius = 1.3
    vg = circle_value_grid(radius)
    cert = unit_certificate()
    res = rb.find_wmax(cert, vg)
    cell = max(vg.grid.dx)
    assert abs(res.w_max - radius) <= 1e-3 + cell
    assert res.w_max < radius  # conservative by construction
    # the guard, half a cell diagonal at the disc's edge where |grad V| is 1,
    # moves the edge in: c* = (radius - delta)^2
    delta = 0.5 * vg.grid.cell_diagonal
    assert abs(math.sqrt(res.c_star) - (radius - delta)) < 1e-3
    assert res.w_max <= math.sqrt(res.c_star) < res.w_max * (1.0 + 2.0 ** -19)
    assert cert.w_max == res.w_max
    assert abs(cert.level - res.w_max ** 2) < 1e-12
    assert abs(res.level - cert.level) < 1e-12


def test_find_wmax_scales_with_parameters():
    # c = mu w^2 / lambda: quadrupling mu/lambda halves the certified w
    radius = 1.2
    vg = circle_value_grid(radius)
    base = rb.find_wmax(unit_certificate(), vg)
    scaled = rb.find_wmax(unit_certificate(dist_weight=4.0), vg)
    assert abs(scaled.w_max - 0.5 * base.w_max) < 5e-4


def test_containment_monotone_in_w_on_random_safe_sets():
    # containment(w) must be a step function: once it fails it stays failed
    rng = np.random.default_rng(42)
    target = TargetSet.box((0.0, 0.0), (3.5, 3.5))
    grid = Grid2((-4.0, -4.0), (4.0, 4.0), (81, 81))
    x1g, x2g = grid.mesh()
    for _ in range(20):
        a = rng.standard_normal((2, 2))
        q = a @ a.T + 0.3 * np.eye(2)
        quad = np.einsum("ij,i...,j...->...", q, (x1g, x2g), (x1g, x2g))
        vg = ValueGrid(grid, np.maximum(quad - 1.0, target.l(x1g, x2g)))
        p_raw = rng.standard_normal((2, 2))
        cert = ClfCertificate(
            k=np.zeros((1, 2)),
            p=p_raw @ p_raw.T + 0.5 * np.eye(2),
            params=ClfParams(q=[1.0, 1.0], r=[1.0],
                             decay_rate=rng.uniform(0.2, 2.0),
                             dist_weight=rng.uniform(0.2, 2.0)))
        guard = rb.containment_guard(vg)
        flags = []
        for w in np.linspace(0.01, 6.0, 25):
            from robustroa.clf_synth import roa_level
            flags.append(rb.ellipsoid_contained(cert.p, (0.0, 0.0), roa_level(cert.params, w),
                                                vg, guard=guard))
        flips = [a and not b for a, b in zip(flags[1:], flags[:-1])]
        assert not any(flips)


def test_grid_border_bounds_a_safe_set_covering_the_grid():
    # V clears on the whole grid (V is flat, so the guard is 0): the ellipse
    # is bounded by the border alone, here the x2 = +-100 lines of a
    # 200 x 400 grid, and the bound is rounded down
    grid = Grid2((-100.0, -200.0), (100.0, 200.0), (51, 51))
    vg = ValueGrid(grid, np.full(grid.shape, -10.0))
    cert = unit_certificate()
    cert.p = np.diag([1.0, 4.0])
    res = rb.find_wmax(cert, vg)
    assert res.c_star == 100.0 ** 2
    assert 100.0 * (1.0 - 2.0 ** -19) <= res.w_max < 100.0


@pytest.mark.parametrize("seed", range(6))
def test_unsafe_level_matches_dense_sampling(seed):
    # c* of w = max(V, l) against the least e'Pe over densely sampled points
    # of the unsafe part of the grid and of its border.  It is the exact
    # minimum over the concave-envelope polygons, so it lies within the
    # sampling's resolution below the sampled envelope minimum, and never
    # above the sampled minimum over the bilinear interpolant's unsafe
    # points.  The safe set is a random ellipse with random unsafe pockets
    # and a NaN pair, the center off the grid's nodes.
    rng = np.random.default_rng(seed)
    grid = Grid2((-2.0, -1.5), (2.5, 1.5), (37, 29))
    x1g, x2g = grid.mesh()
    q = random_pd(rng)
    v = q[0, 0] * x1g ** 2 + 2 * q[0, 1] * x1g * x2g + q[1, 1] * x2g ** 2 - 1.5
    v[rng.random(grid.shape) < 0.004] = rng.uniform(0.0, 3.0)
    v[25, 14:16] = np.nan
    target = TargetSet.box((0.2, 0.0), (2.0, 1.4))
    center = (0.03, -0.02)
    p = random_pd(rng)
    w = np.maximum(v, target.l(x1g, x2g))
    w[np.isnan(w)] = np.inf
    c_star = rb._unsafe_level(p, center, grid, w)
    assert c_star > 0.0
    on_envelope = orc.sampled_unsafe_level(p, center, grid, w, envelope=True)
    on_bilinear = orc.sampled_unsafe_level(p, center, grid, w, envelope=False)
    assert c_star <= on_envelope <= on_bilinear
    # the minimizer lies within half a sample spacing diagonal d of a sample,
    # where e'Pe exceeds c* by at most 2 sqrt(c* lmax) d + lmax d^2
    d = 0.5 * math.hypot(*grid.dx) / 20
    lmax = np.linalg.eigvalsh(p)[-1]
    assert on_envelope - c_star <= 2.0 * math.sqrt(c_star * lmax) * d + lmax * d * d


def test_unsafe_pocket_inside_the_ellipse_binds():
    # one NaN node deep inside an otherwise safe disc makes every cell that
    # touches it unsafe, so c* is the squared distance to the nearest of
    # those cells, whatever the guard
    vg = circle_value_grid(1.8, n=41)  # nodes every 0.1
    clean = rb.find_wmax(unit_certificate(), vg)
    vg.v[26, 20] = np.nan  # the node at (0.6, 0.0)
    pocket = rb.find_wmax(unit_certificate(), vg)
    assert abs(pocket.c_star - 0.5 ** 2) < 1e-15
    assert pocket.w_max < clean.w_max


def test_center_cell_is_unsafe_where_its_envelope_is_positive():
    # a center inside a split cell, off both its diagonals; with the guard
    # off, one corner at 10 against three at -1.43 lifts the envelope above
    # 0 there, one at 0.5 leaves it below
    vg = circle_value_grid(1.5, n=40)  # nodes at +-0.0513 around the origin
    tiny = np.eye(2), (0.02, 0.01), 1e-12
    vg.v[20, 20] = 0.5
    assert rb.ellipsoid_contained(*tiny, vg, guard=0.0)
    vg.v[20, 20] = 10.0
    assert not rb.ellipsoid_contained(*tiny, vg, guard=0.0)


def test_no_safe_roa_raises():
    grid = Grid2((-2.0, -2.0), (2.0, 2.0), (31, 31))
    vg = ValueGrid(grid, np.ones(grid.shape))
    with pytest.raises(rb.NoSafeRoa):
        rb.find_wmax(unit_certificate(), vg)


# -- bundled quadruped configs against the exact kernel --------------------------

@pytest.fixture(scope="module", params=["quadruped_height.cfg", "quadruped_push.cfg"])
def bundled_run(request, tmp_path_factory):
    """(scenario, out dir): `wmax` on a bundled config, which solves each
    axis to convergence, into out/converge, and each axis's value grid at
    the fixed horizon -2 s, solved on the same grid, into out/fixed."""
    out = tmp_path_factory.mktemp("bundled")
    ref = resources.files("robustroa.harness").joinpath("configs", request.param)
    with resources.as_file(ref) as path, contextlib.redirect_stdout(io.StringIO()):
        scn = load_scenario(path)
        assert cli.main(["wmax", "--config", str(path), "--out", str(out / "converge")]) == 0
    (out / "fixed").mkdir()
    for axis, block in scn.hj_blocks.items():
        vg = solve_brs(*block.problem(scn.quadruped), -2.0, freeze="stay")
        with open(out / "fixed" / f"{scn.name}_valuegrid_{axis}.csv", "w") as fh:
            vg.to_csv(fh)
    return scn, out


@pytest.mark.parametrize("axis", ["y", "z"])
def test_bundled_wmax_within_exact_kernel(bundled_run, axis):
    scn, out = bundled_run
    _, entries = fileio.read_wmax_report(out / "converge" / f"{scn.name}_wmax.txt")
    w_max = next(e["w_max"] for e in entries if e["axis"] == axis)
    _, _, cert, _ = fileio.read_certificate(
        out / "converge" / f"{scn.name}_certificate_{axis}.txt")
    exact = orc.kernel.exact_wmax(axis, cert, scn.hj_blocks[axis], scn.quadruped)
    assert 0.0 < w_max <= exact


@pytest.mark.parametrize("axis", ["y", "z"])
def test_bundled_converge_set_matches_fixed_horizon(bundled_run, axis):
    scn, out = bundled_run
    name = f"{scn.name}_valuegrid_{axis}.csv"
    converged = orc.read_value_grid(out / "converge" / name)
    fixed = orc.read_value_grid(out / "fixed" / name)
    assert np.array_equal(converged.v <= 0.0, fixed.v <= 0.0)


# -- safe sets against the exact viability kernel -----------------------------------

def bundled_dynamics(scn, axis, n, block=None):
    """(grid, target, dynamics) of one bundled axis at n x n, under its own
    [hj_*] block or the one given."""
    block = scn.hj_blocks[axis] if block is None else block
    return dataclasses.replace(block, n=n).problem(scn.quadruped)


def bundled_axis(scn, axis, n, block=None):
    """bundled_dynamics plus the axis's synthesized certificate."""
    cert, _ = synthesize(plants.quadruped_axis_linear(scn.quadruped),
                         scn.clf_blocks[axis])
    return (*bundled_dynamics(scn, axis, n, block), cert)


# (scenario, axis) -> least safe-node count at n = 51, 101, 201.  The exact
# kernel holds 573/2,357/9,297 (height y), 436/1,742/6,970 (height z),
# 374/1,494/5,879 (push y) and 447/1,787/7,147 (push z) nodes.
SAFE_FLOOR = {
    ("quadruped_height", "y"): (569, 2339, 9263),
    ("quadruped_height", "z"): (433, 1732, 6949),
    ("quadruped_push", "y"): (369, 1484, 5852),
    ("quadruped_push", "z"): (444, 1781, 7135),
}


@pytest.mark.parametrize("n", [51, 101, 201])
@pytest.mark.parametrize("axis", ["y", "z"])
def test_safe_set_within_exact_kernel(bundled_run, axis, n):
    # The converged safe set holds no node outside the exact viability
    # kernel and keeps at least the nodes the upwind scheme keeps.  The
    # certified w_max is positive and no larger than the kernel's, as a
    # strict float comparison.
    scn, _ = bundled_run
    grid, target, dyn, cert = bundled_axis(scn, axis, n)
    vg = solve_brs(grid, target, dyn, "converge", freeze="stay")
    assert vg.info["converged"]
    kernel = orc.kernel_mask(axis, scn.hj_blocks[axis], scn.quadruped, grid)
    safe = vg.v <= 0.0
    assert not np.any(safe & ~kernel)
    assert safe.sum() >= SAFE_FLOOR[(scn.name, axis)][(51, 101, 201).index(n)]
    # the stay clip holds V >= l exactly, so V alone is the safe set the
    # bound reads
    assert np.all(vg.v >= signed_target(grid, target).v)
    exact = orc.kernel.exact_wmax(axis, cert, scn.hj_blocks[axis], scn.quadruped)
    assert 0.0 < rb.find_wmax(cert, vg).w_max <= exact


def test_height_z_coarse_grid_keeps_its_safe_set():
    # quadruped_height z at n = 51, a grid coarse enough that a dissipative
    # scheme empties the safe set.  The upwind step keeps 433 of the
    # kernel's 436 nodes in 142 steps and certifies a positive bound below
    # the exact one.
    scn = load_scenario(orc.CONFIGS / "quadruped_height.cfg")
    grid, target, dyn, cert = bundled_axis(scn, "z", 51)
    vg = solve_brs(grid, target, dyn, "converge", freeze="stay")
    assert vg.info["converged"] and vg.info["steps"] == 142
    assert np.count_nonzero(vg.v <= 0.0) == 433
    exact = orc.kernel.exact_wmax("z", cert, scn.hj_blocks["z"], scn.quadruped)
    assert 0.0 < rb.find_wmax(cert, vg).w_max <= exact


def test_scarce_lift_keeps_its_safe_set():
    # quadruped_height z with a 200 N force ceiling and a payload of up to
    # 5 kg brakes upward at only 1.65 m/s^2, a margin that dissipation
    # scaled by the 9.81 m/s^2 downward speed erodes.  The upwind step
    # converges, keeps at least 1,407 of the kernel's 1,430 nodes, none
    # outside it, and certifies a positive bound below the exact one.
    scn = load_scenario(orc.CONFIGS / "quadruped_height.cfg")
    block = dataclasses.replace(scn.hj_blocks["z"], u_hi=200.0, delta_m=(0.0, 5.0))
    grid, target, dyn, cert = bundled_axis(scn, "z", block.n, block)
    vg = solve_brs(grid, target, dyn, "converge", freeze="stay")
    assert vg.info["converged"]
    kernel = orc.kernel_mask("z", block, scn.quadruped, grid)
    safe = vg.v <= 0.0
    assert not np.any(safe & ~kernel)
    assert safe.sum() >= 1407
    exact = orc.kernel.exact_wmax("z", cert, block, scn.quadruped)
    assert 0.0 < rb.find_wmax(cert, vg).w_max <= exact


@pytest.mark.parametrize("axis", ["y", "z"])
def test_wmax_does_not_depend_on_the_horizon(bundled_run, axis):
    # the bound binds where the clip holds V at l, so the horizon changes V
    # there only in bits far below the rounding step: the converged solve
    # and fixed horizons from -0.1 s to -4 s certify the same bound
    scn, out = bundled_run
    name = f"{scn.name}_valuegrid_{axis}.csv"
    grid, target, dyn, cert = bundled_axis(scn, axis, scn.hj_blocks[axis].n)
    converged = orc.read_value_grid(out / "converge" / name)
    fixed = orc.read_value_grid(out / "fixed" / name)  # -2 s
    assert not np.array_equal(converged.v, fixed.v)
    bounds = {rb.find_wmax(cert, vg).w_max
              for vg in [converged, fixed] + [solve_brs(grid, target, dyn, h, freeze="stay")
                                             for h in (-0.1, -0.3, -4.0)]}
    _, _, written, _ = fileio.read_certificate(
        out / "converge" / f"{scn.name}_certificate_{axis}.txt")
    assert bounds == {written.w_max}
