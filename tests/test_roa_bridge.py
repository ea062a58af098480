import contextlib
import io
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import _oracles as orc
from robustroa import matrixkit as mk
from robustroa import plants
from robustroa import roa_bridge as rb
from robustroa.clf_synth import ClfCertificate, ClfParams, synthesize
from robustroa.harness import cli, fileio
from robustroa.harness.scenarios import load_scenario
from robustroa.hj_reach import Grid2, GridMismatch, TargetSet, ValueGrid, solve_brs


def circle_value_grid(radius, extent=2.0, n=101):
    """Signed-distance value function of a disc safe set."""
    grid = Grid2((-extent, -extent), (extent, extent), (n, n))
    x1g, x2g = grid.mesh()
    return ValueGrid(grid, np.hypot(x1g, x2g) - radius)


def unit_certificate(dist_weight=1.0, decay_rate=1.0):
    params = ClfParams(q=[1.0, 1.0], r=[1.0], decay_rate=decay_rate,
                       dist_weight=dist_weight)
    return ClfCertificate(k=np.zeros((1, 2)), p=np.eye(2), params=params)


# -- Ellipsoid2 ----------------------------------------------------------------

def test_ellipsoid_validation():
    with pytest.raises(mk.NotPositiveDefinite):
        rb.Ellipsoid2(p=np.diag([1.0, -1.0]), center=(0, 0), level=1.0)
    with pytest.raises(ValueError):
        rb.Ellipsoid2(p=np.eye(2), center=(0, 0), level=0.0)
    with pytest.raises(ValueError):
        rb.Ellipsoid2(p=np.eye(2), center=(0, 0, 0), level=1.0)


def test_boundary_points_lie_on_level_set():
    ell = rb.Ellipsoid2(p=np.array([[4.0, 1.0], [1.0, 2.0]]),
                        center=(0.3, -0.7), level=2.5)
    pts = ell.boundary_points(360)
    assert pts.shape == (360, 2)
    d = pts - ell.center
    quad = np.einsum("ki,ij,kj->k", d, ell.p, d)
    assert np.max(np.abs(quad - 2.5)) < 1e-12


# -- containment ---------------------------------------------------------------

def test_containment_guard_linear_field():
    grid = Grid2((-1.0, -1.0), (1.0, 1.0), (21, 21))
    x1g, x2g = grid.mesh()
    vg = ValueGrid(grid, 3.0 * x1g + 4.0 * x2g)
    assert abs(rb.containment_guard(vg) - 0.5 * grid.cell_diagonal * 5.0) < 1e-12


def test_tiny_ellipsoid_deep_inside_is_contained():
    vg = circle_value_grid(1.5)
    target = TargetSet.box((0.0, 0.0), (1.8, 1.8))
    ell = rb.Ellipsoid2(p=np.eye(2), center=(0.0, 0.0), level=1e-6)
    assert rb.ellipsoid_contained(ell, vg, target)


def test_ellipsoid_outside_target_is_rejected():
    # V clears everywhere but l does not: center sits outside the target box
    grid = Grid2((-2.0, -2.0), (2.0, 2.0), (41, 41))
    vg = ValueGrid(grid, np.full(grid.shape, -1.0))
    target = TargetSet.box((0.0, 0.0), (1.0, 1.0))
    ell = rb.Ellipsoid2(p=np.eye(2), center=(1.5, 0.0), level=1e-4)
    assert not rb.ellipsoid_contained(ell, vg, target)


def test_ellipsoid_leaving_grid_raises():
    vg = circle_value_grid(1.5)
    target = TargetSet.box((0.0, 0.0), (1.8, 1.8))
    ell = rb.Ellipsoid2(p=np.eye(2), center=(0.0, 0.0), level=25.0)
    with pytest.raises(rb.OutOfGrid):
        rb.ellipsoid_contained(ell, vg, target)


def test_presampled_target_gives_the_same_answers():
    # l sampled once on the value grid answers exactly as the TargetSet
    vg = circle_value_grid(1.5)
    target = TargetSet.box((0.2, -0.1), (1.1, 1.6))
    x1g, x2g = vg.grid.mesh()
    l_vg = ValueGrid(vg.grid, target.l(x1g, x2g))
    for level in (0.01, 0.5, 1.0, 1.3, 2.0):
        ell = rb.Ellipsoid2(p=np.array([[2.0, 0.3], [0.3, 1.0]]), center=(0.1, 0.0),
                            level=level)
        assert (rb.ellipsoid_contained(ell, vg, l_vg)
                == rb.ellipsoid_contained(ell, vg, target))
    other = ValueGrid(Grid2((-2.0, -2.0), (2.0, 2.0), (51, 51)), np.zeros((51, 51)))
    ell = rb.Ellipsoid2(p=np.eye(2), center=(0.0, 0.0), level=1e-4)
    with pytest.raises(GridMismatch):
        rb.ellipsoid_contained(ell, vg, other)


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
        ell = rb.Ellipsoid2(p=p, center=(0.0, 0.0), level=level)
        return rb.ellipsoid_contained(ell, vg, box, guard=0.0)

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


# -- w_max line search -----------------------------------------------------------

def test_circle_in_circle_recovers_radius():
    # P = I, mu = lambda = 1: level c = w^2, so the invariant set is the
    # disc of radius w; the largest certified w equals the safe radius up
    # to the guard (about half a cell) plus the bisection tolerance
    radius = 1.3
    vg = circle_value_grid(radius)
    target = TargetSet.box((0.0, 0.0), (1.9, 1.9))
    cert = unit_certificate()
    res = rb.find_wmax(cert, vg, target, w_hi=20.0, tol=1e-3)
    cell = max(vg.grid.dx)
    assert abs(res.w_max - radius) <= 1e-3 + cell
    assert res.w_max < radius  # conservative by construction
    assert not res.bracket_too_small
    assert res.iterations == int(np.ceil(np.log2(20.0 / 1e-3)))
    assert cert.w_max == res.w_max
    assert abs(cert.level - res.w_max ** 2) < 1e-12
    assert abs(res.level - cert.level) < 1e-12


def test_find_wmax_samples_target_once():
    # every containment check reads the same l grid: sample it once per call
    calls = []

    class CountingBox(TargetSet):
        def l(self, x1, x2):
            calls.append(np.shape(x1))
            return super().l(x1, x2)

    box = TargetSet.box((0.0, 0.0), (1.9, 1.9))
    target = CountingBox(kind=box.kind, center=box.center, half_widths=box.half_widths)
    vg = circle_value_grid(1.3)
    res = rb.find_wmax(unit_certificate(), vg, target, w_hi=20.0, tol=1e-3)
    assert calls == [vg.grid.shape]
    assert res.w_max == rb.find_wmax(unit_certificate(), vg, box, w_hi=20.0, tol=1e-3).w_max


def test_find_wmax_scales_with_parameters():
    # c = mu w^2 / lambda: quadrupling mu/lambda halves the certified w
    radius = 1.2
    vg = circle_value_grid(radius)
    target = TargetSet.box((0.0, 0.0), (1.9, 1.9))
    base = rb.find_wmax(unit_certificate(), vg, target, tol=1e-4)
    scaled = rb.find_wmax(unit_certificate(dist_weight=4.0), vg, target, tol=1e-4)
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
        vg = ValueGrid(grid, np.einsum("ij,i...,j...->...", q, (x1g, x2g), (x1g, x2g)) - 1.0)
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
            ell = rb.Ellipsoid2(p=cert.p, center=(0.0, 0.0),
                                level=roa_level(cert.params, w))
            try:
                flags.append(rb.ellipsoid_contained(ell, vg, target, guard=guard))
            except rb.OutOfGrid:
                flags.append(False)
        flips = [a and not b for a, b in zip(flags[1:], flags[:-1])]
        assert not any(flips)


def test_bracket_too_small_flag():
    grid = Grid2((-100.0, -100.0), (100.0, 100.0), (51, 51))
    vg = ValueGrid(grid, np.full(grid.shape, -10.0))
    target = TargetSet.box((0.0, 0.0), (90.0, 90.0))
    res = rb.find_wmax(unit_certificate(), vg, target, w_hi=20.0, tol=1e-3)
    assert res.bracket_too_small
    assert res.w_max > 20.0 - 1e-3


def test_no_safe_roa_raises():
    grid = Grid2((-2.0, -2.0), (2.0, 2.0), (31, 31))
    vg = ValueGrid(grid, np.ones(grid.shape))
    target = TargetSet.box((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(rb.NoSafeRoa):
        rb.find_wmax(unit_certificate(), vg, target)


def test_find_wmax_validation():
    vg = circle_value_grid(1.0)
    target = TargetSet.box((0.0, 0.0), (1.5, 1.5))
    with pytest.raises(ValueError):
        rb.find_wmax(unit_certificate(), vg, target, w_hi=0.0)
    with pytest.raises(ValueError):
        rb.find_wmax(unit_certificate(), vg, target, w_hi=1.0, tol=2.0)


# -- bundled quadruped configs against the exact kernel --------------------------

@pytest.fixture(scope="module", params=["quadruped_height.cfg", "quadruped_push.cfg"])
def bundled_run(request, tmp_path_factory):
    """(scenario, out dir): `wmax` on a bundled config, which solves under
    horizon = converge, into out/converge, and `hj-brs` on a copy with
    horizon = -2.0 into out/fixed."""
    out = tmp_path_factory.mktemp("bundled")
    ref = resources.files("robustroa.harness").joinpath("configs", request.param)
    with resources.as_file(ref) as path, contextlib.redirect_stdout(io.StringIO()):
        scn = load_scenario(path)
        text = Path(path).read_text()
        assert text.count("horizon = converge") == 2
        assert cli.main(["wmax", "--config", str(path), "--out", str(out / "converge")]) == 0
        fixed = out / "fixed.cfg"
        fixed.write_text(text.replace("horizon = converge", "horizon = -2.0"))
        assert cli.main(["hj-brs", "--config", str(fixed), "--out", str(out / "fixed")]) == 0
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
    converged = fileio.read_value_grid(out / "converge" / name)
    fixed = fileio.read_value_grid(out / "fixed" / name)
    assert np.array_equal(converged.v <= 0.0, fixed.v <= 0.0)


# -- forward-Euler safe sets against the two-stage scheme -------------------------

@pytest.mark.parametrize("n", [51, 101])
@pytest.mark.parametrize("axis", ["y", "z"])
def test_euler_safe_set_matches_rk2_reference(bundled_run, axis, n):
    # The solver's one Euler step at CFL 0.9 must leave the same {V <= 0},
    # node for node, as two-stage TVD Runge-Kutta at CFL 0.5, and certify
    # the same w_max bits.  On quadruped_height z at n = 51 both schemes
    # erode the safe set to nothing, so both certifications raise NoSafeRoa.
    scn, _ = bundled_run
    block = scn.hj_blocks[axis]
    hw1, hw2 = block.grid_half_widths
    grid = Grid2((-hw1, -hw2), (hw1, hw2), (n, n))
    target = TargetSet.box((0.0, 0.0), block.target_half_widths)
    dyn = plants.subsystem_error_dynamics(axis, scn.quadruped, u_lo=block.u_lo,
                                          u_hi=block.u_hi, delta_m_interval=block.delta_m,
                                          drag_force=block.drag_force)
    got = solve_brs(grid, target, dyn, "converge", freeze="stay")
    want, info = orc.solve_brs(grid, target, dyn, "converge", freeze="stay")
    assert got.info["converged"] and info["converged"]
    assert np.array_equal(got.v <= 0.0, want <= 0.0)

    cert, _ = synthesize(plants.quadruped_axis_linear(scn.quadruped),
                         scn.clf_blocks[axis].params)

    def certified(v):
        try:
            return rb.find_wmax(cert, ValueGrid(grid, v), target).w_max.hex()
        except rb.NoSafeRoa:
            return "NoSafeRoa"

    assert certified(got.v) == certified(want)
