import io
import sys

import numpy as np
import pytest

import _oracles as orc
from robustroa import hj_reach as hj
from robustroa import plants


def di_dynamics(u_max=1.0, w_max=None):
    """Double integrator x1' = x2, x2' = u (+ w), |u| <= u_max."""
    ctrl = (((lambda x1, x2, p: (np.zeros_like(x1), np.ones_like(np.asarray(x1, dtype=float)))),
             (-u_max, u_max)),)
    dist = ()
    if w_max is not None:
        dist = (((lambda x1, x2, p: (np.zeros_like(x1), np.ones_like(np.asarray(x1, dtype=float)))),
                 (-w_max, w_max)),)
    return hj.AffineDynamics2(
        drift=lambda x1, x2, p: (x2, np.zeros_like(np.asarray(x2, dtype=float))),
        control_terms=ctrl, disturbance_terms=dist)


DI_TARGET = hj.TargetSet.box((0.0, 0.0), (0.5, 0.5))


def min_time_101():
    """The default 101 grid and the exact min-time field on it."""
    grid = orc.grid_around(DI_TARGET, factor=4.0, n=101)
    return grid, orc.di_min_time_to_box(grid.axes(), (0.0, 0.0), (0.5, 0.5))


# -- oracle self-checks --------------------------------------------------------
#
# The closed form is derived in _oracles; these checks falsify it against
# properties any minimum-time field must satisfy, independent of the solver.

def test_min_time_oracle_known_points():
    assert abs(orc.di_min_time(0, 0, 1, 0) - 2.0) < 1e-12
    assert abs(orc.di_min_time(0, 0, -1, 0) - 2.0) < 1e-12
    assert abs(orc.di_min_time(0, 1, 0, 0) - (1.0 + np.sqrt(2.0))) < 1e-12
    # single-arc brake into the point: u = +1 for 1.5 s
    assert abs(orc.di_min_time(2, -2, 0.125, -0.5) - 1.5) < 1e-12
    assert orc.di_min_time(0.3, -0.7, 0.3, -0.7) == 0.0


def test_min_time_oracle_consistency_along_optimal_path():
    # T(x(t)) = T(x(0)) - t along the oracle's own optimal profile.  For a
    # two-arc profile u = s then -s of total length t_tot, velocity matching
    # fixes the switch time exactly: t1 = (t_tot + (z2 - x2)/s) / 2; the
    # profile realizes the optimum iff it also lands on z1.
    rng = np.random.default_rng(5)
    for _ in range(40):
        x = rng.uniform(-2, 2, 2)
        z = rng.uniform(-1, 1, 2)
        t_tot = float(orc.di_min_time(x[0], x[1], z[0], z[1]))
        assert np.isfinite(t_tot)
        found = False
        for s in (1.0, -1.0):
            t1 = 0.5 * (t_tot + (z[1] - x[1]) / s)
            if not -1e-9 <= t1 <= t_tot + 1e-9:
                continue
            t1 = min(max(t1, 0.0), t_tot)
            v_s = x[1] + s * t1
            x_s = x[0] + x[1] * t1 + 0.5 * s * t1 * t1
            t2 = t_tot - t1
            z1_hat = x_s + v_s * t2 - 0.5 * s * t2 * t2
            if abs(z1_hat - z[0]) > 1e-7:
                continue
            found = True
            # mid-path states must have remaining time t_tot - t
            for t in (0.25 * t_tot, 0.6 * t_tot):
                if t <= t1:
                    xm = (x[0] + x[1] * t + 0.5 * s * t * t, x[1] + s * t)
                else:
                    dt2 = t - t1
                    xm = (x_s + v_s * dt2 - 0.5 * s * dt2 * dt2, v_s - s * dt2)
                rem = float(orc.di_min_time(xm[0], xm[1], z[0], z[1]))
                assert abs(rem - (t_tot - t)) < 1e-7
        assert found


def test_min_time_oracle_triangle_inequality():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-2, 2, size=(120, 2))
    for a, b, c in pts.reshape(40, 3, 2):
        tab = float(orc.di_min_time(a[0], a[1], b[0], b[1]))
        tbc = float(orc.di_min_time(b[0], b[1], c[0], c[1]))
        tac = float(orc.di_min_time(a[0], a[1], c[0], c[1]))
        assert tac <= tab + tbc + 1e-9


def test_min_time_oracle_vs_coarse_brute_force():
    # two-arc scan with landing slack: can undercut the formula only by the
    # slack allowance, and must never beat it by more
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.uniform(-1.5, 1.5, 2)
        z = rng.uniform(-1, 1, 2)
        t_formula = float(orc.di_min_time(x[0], x[1], z[0], z[1]))
        best = np.inf
        for s in (1.0, -1.0):
            t1 = np.linspace(0, 8, 8001)
            v_s = x[1] + s * t1
            t2 = s * (v_s - z[1])
            x_s = x[0] + x[1] * t1 + 0.5 * s * t1 ** 2
            x_f = x_s + v_s * t2 - 0.5 * s * t2 ** 2
            ok = (t2 >= 0) & (np.abs(x_f - z[0]) < 1e-3)
            if ok.any():
                best = min(best, float((t1 + t2)[ok].min()))
        if np.isfinite(best):
            assert best >= t_formula - 0.05
            assert best <= t_formula + 0.05


def test_min_time_to_box_matches_dense_edge_scan():
    # the candidate points must hold the minimum over the whole edge: scan
    # every edge at spacing 1e-4 (10,001 points, ends included).  The nodes
    # are multiples of 0.4, so the edge ends, z2 = x2 and the switch points
    # on the edges z2 = +-0.5 (multiples of 0.005) lie on the scan's
    # lattice: where the minimum sits at one of them, the scan meets it
    axis = np.linspace(-2.0, 2.0, 11)
    exact = orc.di_min_time_to_box((axis, axis), (0.0, 0.0), (0.5, 0.5))
    t = np.linspace(-0.5, 0.5, 10001)
    side = np.full_like(t, 0.5)
    edges = np.hstack([np.stack([t, side]), np.stack([t, -side]),
                       np.stack([side, t]), np.stack([-side, t])])
    for i, a in enumerate(axis):
        for j, b in enumerate(axis):
            if abs(a) <= 0.5 and abs(b) <= 0.5:
                assert exact[i, j] == 0.0
                continue
            scanned = float(orc.di_min_time(a, b, edges[0], edges[1]).min())
            assert exact[i, j] <= scanned + 1e-12
            assert abs(exact[i, j] - scanned) <= 1e-6


# -- grids and targets ---------------------------------------------------------

def test_grid2_geometry():
    g = hj.Grid2((-2.0, -1.0), (2.0, 1.0), (101, 51))
    assert g.dx == (0.04, 0.04)
    ax1, ax2 = g.axes()
    assert ax1[0] == -2.0 and ax1[-1] == 2.0 and len(ax2) == 51
    x1g, x2g = g.mesh()
    assert x1g.shape == (101, 51)
    assert x1g[3, 7] == ax1[3] and x2g[3, 7] == ax2[7]
    assert abs(g.cell_diagonal - np.hypot(0.04, 0.04)) < 1e-15


def test_grid2_validation():
    with pytest.raises(ValueError):
        hj.Grid2((-1.0, -1.0), (1.0, 1.0), (2, 10))
    with pytest.raises(ValueError):
        hj.Grid2((1.0, -1.0), (-1.0, 1.0), (11, 11))


def test_value_grid_shape_must_be_its_grids():
    grid = hj.Grid2((-1.0, -1.0), (1.0, 1.0), (5, 7))
    assert hj.ValueGrid(grid, np.zeros((5, 7))).v.shape == (5, 7)
    for shape in ((7, 5), (5, 6), (35,)):
        with pytest.raises(hj.GridMismatch, match=r"on grid \(5, 7\)"):
            hj.ValueGrid(grid, np.zeros(shape))


def test_box_target_signed_distance():
    t = hj.TargetSet.box((0.0, 0.0), (1.0, 1.0))
    assert t.l(0.0, 0.0) == -1.0
    assert t.l(2.0, 0.0) == 1.0
    assert abs(t.l(1.5, 2.0) - np.hypot(0.5, 1.0)) < 1e-15
    assert t.l(0.25, 0.5) == -0.5


def test_target_validation():
    with pytest.raises(ValueError):
        hj.TargetSet.box((0, 0), (1.0, -1.0))
    with pytest.raises(ValueError):
        hj.TargetSet.box((0, 0), (1.0,))


def test_signed_target_sampling():
    grid = hj.Grid2((-2.0, -2.0), (2.0, 2.0), (41, 41))
    vg = hj.signed_target(grid, DI_TARGET)
    x1g, x2g = grid.mesh()
    assert np.array_equal(vg.v, DI_TARGET.l(x1g, x2g))
    assert vg.time == 0.0
    far = hj.TargetSet.box((50.0, 50.0), (0.5, 0.5))
    with pytest.raises(hj.TargetOutsideGrid):
        hj.signed_target(grid, far)


# -- Hamiltonian ---------------------------------------------------------------

def mixed_dynamics(params):
    """Spatially varying and constant fields, two control channels, one
    disturbance channel and an added mass entering both axes through
    1/(2 + p).  Each channel moves one axis."""

    def inv_mass(p):
        return 1.0 / (2.0 + (0.0 if p is None else p))

    return hj.AffineDynamics2(
        drift=lambda x1, x2, p: (x2, (-9.81 + 0.3 * x1) * np.ones_like(x1)),
        control_terms=(
            ((lambda x1, x2, p: (0.0 * x1, inv_mass(p) * np.ones_like(x1))), (0.0, 30.0)),
            ((lambda x1, x2, p: ((0.2 + 0.1 * x2) * inv_mass(p), 0.0 * x1)), (-1.5, 0.7)),),
        disturbance_terms=(
            ((lambda x1, x2, p: (np.zeros_like(x1), 0.5 + 0.0 * x1)), (-0.4, 0.4)),),
        uncertain_params=params)


def grid_hamiltonian(dyn, grid, p1, p2):
    """_GridTerms.hamiltonian at gradients p1, p2 (scalars or grid arrays)."""
    terms = hj._GridTerms(grid, dyn)
    p1 = np.broadcast_to(np.asarray(p1, dtype=float), grid.shape)
    p2 = np.broadcast_to(np.asarray(p2, dtype=float), grid.shape)
    return terms.hamiltonian(p1, p2)


SMALL_GRID = hj.Grid2((-2.0, -2.0), (2.0, 2.0), (9, 7))


def test_hamiltonian_orthogonal_channel_contributes_nothing():
    dyn = hj.AffineDynamics2(
        drift=lambda x1, x2, p: (0.0, 0.0),
        control_terms=(((lambda x1, x2, p: (0.0, 1.0)), (-7.0, 3.0)),))
    assert np.all(grid_hamiltonian(dyn, SMALL_GRID, 1.0, 0.0) == 0.0)
    assert orc.hamiltonian((1.0, 0.0), (0.3, -0.2), dyn) == 0.0


def test_hamiltonian_bang_bang_extremes():
    dyn = hj.AffineDynamics2(
        drift=lambda x1, x2, p: (0.0, 0.0),
        control_terms=(((lambda x1, x2, p: (0.0, 1.0)), (-2.0, 2.0)),),
        disturbance_terms=(((lambda x1, x2, p: (0.0, 1.0)), (-0.5, 0.25)),))
    # the control takes -2 * |p2|, the disturbance 0.25 * p2 or -0.5 * p2
    assert np.all(grid_hamiltonian(dyn, SMALL_GRID, 0.0, 1.0) == -1.75)
    assert np.all(grid_hamiltonian(dyn, SMALL_GRID, 0.0, -1.0) == -1.5)
    assert orc.hamiltonian((0.0, 1.0), (0.0, 0.0), dyn) == -1.75


def test_hamiltonian_vs_brute_force_grid():
    dyn = di_dynamics(u_max=1.0, w_max=0.5)
    u_grid = np.linspace(-1.0, 1.0, 2001)
    w_grid = np.linspace(-0.5, 0.5, 1001)
    grid = hj.Grid2((-2.0, -2.0), (2.0, 2.0), (4, 3))
    rng = np.random.default_rng(7)
    p1 = rng.uniform(-2, 2, grid.shape)
    p2 = rng.uniform(-2, 2, grid.shape)
    h = grid_hamiltonian(dyn, grid, p1, p2)
    x1g, x2g = grid.mesh()
    for idx in np.ndindex(grid.shape):
        table = p1[idx] * x2g[idx] + p2[idx] * (u_grid[:, None] + w_grid[None, :])
        assert abs(h[idx] - table.min(axis=0).max()) < 1e-3


def test_hamiltonian_uncertain_param_branches():
    # drift scaled by 1/(1+p) at p in {0, 4}: the disturbance picks the
    # worse (larger) branch
    dyn = hj.AffineDynamics2(
        drift=lambda x1, x2, p: (0.0, 1.0 / (1.0 + p)),
        uncertain_params=(0.0, 4.0))
    assert np.all(grid_hamiltonian(dyn, SMALL_GRID, 0.0, 1.0) == 1.0)
    assert np.all(grid_hamiltonian(dyn, SMALL_GRID, 0.0, -1.0) == -0.2)


@pytest.mark.parametrize("params", [(None,), (0.0, 0.0), (0.0, 5.0)])
def test_grid_hamiltonian_matches_pointwise_oracle(params):
    # the vectorized Hamiltonian against the same formula in Python floats
    # at every node, bit for bit; the oracle takes the disturbance channel
    # as the maximizer it is, the grid form as a control with swapped bounds
    dyn = mixed_dynamics(params)
    grid = hj.Grid2((-1.0, -2.0), (0.5, 1.5), (23, 17))
    rng = np.random.default_rng(11)
    p1 = rng.standard_normal(grid.shape)
    p2 = rng.standard_normal(grid.shape)
    p1[0] = p2[0] = 0.0  # a zero gradient: every channel coefficient is a signed zero
    # the unit gradients +-e_i, at which the solver takes its slopes A_i and -B_i
    for row, unit in enumerate(((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)), start=1):
        p1[row], p2[row] = unit
    got = grid_hamiltonian(dyn, grid, p1, p2)
    x1g, x2g = grid.mesh()
    want = np.array([orc.hamiltonian((p1[i], p2[i]), (x1g[i], x2g[i]), dyn)
                     for i in np.ndindex(grid.shape)]).reshape(grid.shape)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("where", ["control", "disturbance"])
def test_channel_moving_both_axes_is_rejected(where):
    # per-axis slopes cannot represent a channel that moves both axes at one
    # node: the per-axis control minima would be optimistic
    coupled = (((lambda x1, x2, p: (0.0 * x1, 1.0 + 0.0 * x1)), (-1.0, 1.0)),
               ((lambda x1, x2, p: (0.1 + 0.0 * x1, 1.0 + 0.0 * x1)), (-1.0, 1.0)))
    dyn = hj.AffineDynamics2(drift=lambda x1, x2, p: (x2, 0.0 * x1),
                             **{f"{where}_terms": coupled})
    with pytest.raises(ValueError, match="one axis"):
        hj.solve_brs(SMALL_GRID, DI_TARGET, dyn, -0.1)


def test_hamiltonian_runs_only_at_setup(monkeypatch):
    # the four slopes per node are the only Hamiltonian evaluations of a
    # solve, however many steps it takes
    calls = []
    hamiltonian = hj._GridTerms.hamiltonian

    def counted(self, p1, p2):
        calls.append((p1, p2))
        return hamiltonian(self, p1, p2)

    monkeypatch.setattr(hj._GridTerms, "hamiltonian", counted)
    out = hj.solve_brs(orc.grid_around(DI_TARGET, n=31), DI_TARGET, di_dynamics(), -0.5)
    assert out.info["steps"] > 10
    assert calls == [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]


# -- upwind stepping -------------------------------------------------------------

def upwind_step(v, grid, dyn, h):
    """One backward upwind Euler step of size h, into a fresh array."""
    return hj._upwind_update(v, hj._GridTerms(grid, dyn), h, np.empty(grid.shape))


def test_upwind_update_zero_dynamics_is_identity():
    grid = hj.Grid2((-1.0, -1.0), (1.0, 1.0), (9, 9))
    rng = np.random.default_rng(0)
    v = rng.standard_normal(grid.shape)
    dyn = hj.AffineDynamics2(drift=lambda x1, x2, p: (np.zeros_like(x1), np.zeros_like(x2)))
    out = upwind_step(v, grid, dyn, 0.05)
    assert np.max(np.abs(out - v)) < 1e-12


def test_upwind_update_advects_linear_profile_exactly():
    # V = x1 under drift (s, 0): a backward step of h gives V + s h at every
    # node whose characteristic comes from inside the grid.  The edge row it
    # would come from beyond sees V flat there and keeps its value.
    grid = hj.Grid2((-1.0, -1.0), (1.0, 1.0), (11, 11))
    x1g, _ = grid.mesh()
    h = 0.02
    for s, inside, edge in ((1.0, slice(0, -1), -1), (-1.0, slice(1, None), 0)):
        dyn = hj.AffineDynamics2(drift=lambda x1, x2, p, s=s: (s * np.ones_like(x1),
                                                               np.zeros_like(x2)))
        out = upwind_step(x1g, grid, dyn, h)
        assert np.max(np.abs(out[inside] - (x1g[inside] + s * h))) < 1e-12
        assert np.array_equal(out[edge], x1g[edge])


def scalar_reference_step(v, h, grid, dyn):
    """Independent nested-loop rewrite of the step: per axis, the largest
    value of the pointwise Hamiltonian along that axis over {D-, D+, and 0
    when it lies between} if D- <= D+, else the smallest, with a zero
    difference beyond the grid edge."""
    x1a, x2a = grid.axes()
    out = np.empty_like(v)
    for i, j in np.ndindex(v.shape):
        total = 0.0
        for axis, (di, dj) in enumerate(((1, 0), (0, 1))):
            k, dx = (i, j)[axis], grid.dx[axis]
            back = (v[i, j] - v[i - di, j - dj]) / dx if k > 0 else 0.0
            fwd = (v[i + di, j + dj] - v[i, j]) / dx if k < v.shape[axis] - 1 else 0.0
            cands = [back, fwd] + ([0.0] if min(back, fwd) < 0.0 < max(back, fwd) else [])
            hs = [orc.hamiltonian((c, 0.0) if axis == 0 else (0.0, c), (x1a[i], x2a[j]), dyn)
                  for c in cands]
            total += max(hs) if back <= fwd else min(hs)
        out[i, j] = v[i, j] + h * total
    return out


def test_upwind_update_matches_scalar_reimplementation():
    # the nested-loop step on a 5x5 grid.  The uncertain parameter enters
    # both axes, so each axis takes its own branch maximum.
    grid = hj.Grid2((-1.0, 0.5), (1.0, 1.5), (5, 5))
    rng = np.random.default_rng(13)
    v = rng.standard_normal(grid.shape)
    dyn = hj.AffineDynamics2(
        drift=lambda x1, x2, p: (x2 + 0.1 * p, -0.5 + 0.2 * x1 - 0.3 * p),
        control_terms=(
            ((lambda x1, x2, p: (0.0 * x1, 1.0 + 0.1 * x2)), (-1.5, 0.7)),
            ((lambda x1, x2, p: (0.3 + 0.0 * x1, 0.0 * x1)), (-0.2, 0.6)),),
        disturbance_terms=(
            ((lambda x1, x2, p: (np.zeros_like(x1), 0.5 + 0.0 * x1)), (-0.4, 0.4)),),
        uncertain_params=(0.0, 2.0))
    for h in (1e-3, 0.9 / hj._GridTerms(grid, dyn).wavesum):
        got = upwind_step(v, grid, dyn, h)
        assert np.max(np.abs(got - scalar_reference_step(v, h, grid, dyn))) < 1e-12


@pytest.mark.parametrize("kind", ["full", "free_x1", "free_x2"])
def test_step_matches_scalar_reimplementation_per_flux_form(kind):
    # the nested-loop step on each form an axis's flux can take.  "full":
    # mixed_dynamics, whose first axis needs all four products and whose
    # second axis has two negative slopes, so each max / min pair keeps one
    # product.  "free_x1": no channel on axis 0, where H_1 is linear with
    # slope x2, changing sign on the grid; constant A_2 = -0.4 and
    # B_2 = -0.8 on axis 1, one product per pair.  "free_x2": no channel on
    # axis 1; constant A_1 = -1.2 < 0 < B_1 = 0.3 on axis 0, where only the
    # min pair is left.
    grid = hj.Grid2((-1.0, -1.5), (1.0, 1.5), (5, 5))
    rng = np.random.default_rng(13)
    v = rng.standard_normal(grid.shape)
    if kind == "full":
        dyn = mixed_dynamics((0.0, 5.0))
    elif kind == "free_x1":
        dyn = hj.AffineDynamics2(
            drift=lambda x1, x2, p: (x2, -0.5 - 0.3 * p + 0.0 * x1),
            control_terms=(((lambda x1, x2, p: (0.0 * x1, 1.0 + 0.0 * x1)), (0.1, 0.3)),),
            uncertain_params=(0.0, 2.0))
    else:
        dyn = hj.AffineDynamics2(
            drift=lambda x1, x2, p: (-0.2 + 0.0 * x1, x1),
            control_terms=(((lambda x1, x2, p: (1.0 + 0.0 * x1, 0.0 * x1)), (-1.0, 0.5)),))
    for h in (1e-3, 0.9 / hj._GridTerms(grid, dyn).wavesum):
        got = upwind_step(v, grid, dyn, h)
        assert np.max(np.abs(got - scalar_reference_step(v, h, grid, dyn))) < 1e-12


def flux_case(case):
    """(grid, target, dynamics) of a quadruped error axis at n = 31, or of
    the double integrator.  The first axis has no channel on any of them.
    On the second, A_2 = -9.81 m/s^2 for every vertical case, and the force
    ceiling sets B_2: 7.4 m/s^2 at 300 N, 24.6 at 600 N, 1.6 at 200 N and
    -1.2 at 150 N, too little to hold a 5 kg payload.  Laterally the 25 N
    drag sits inside the +-70 N force range."""
    quadruped = plants.QuadrupedParams()
    if case == "double_integrator":
        return orc.grid_around(DI_TARGET, n=31), DI_TARGET, di_dynamics()
    if case == "quadruped_y_drag":
        return (hj.Grid2((-0.5, -2.0), (0.5, 2.0), (31, 31)),
                hj.TargetSet.box((0.0, 0.0), (0.25, 1.0)),
                plants.subsystem_error_dynamics("y", quadruped, u_lo=-70.0, u_hi=70.0,
                                                delta_m_interval=(0.0, 5.0), drag_force=25.0))
    u_hi = {"quadruped_z": 300.0, "quadruped_z_strong_lift": 600.0,
            "quadruped_z_weak_lift": 200.0, "quadruped_z_overloaded": 150.0}[case]
    return (hj.Grid2((-0.2, -1.6), (0.2, 1.6), (31, 31)),
            hj.TargetSet.box((0.0, 0.0), (0.076, 0.8)),
            plants.subsystem_error_dynamics("z", quadruped, u_lo=0.0, u_hi=u_hi,
                                            delta_m_interval=(0.0, 5.0)))


FLUX_CASES = ["quadruped_z", "quadruped_z_strong_lift", "quadruped_z_weak_lift",
              "quadruped_z_overloaded", "quadruped_y_drag", "double_integrator"]


@pytest.mark.parametrize("case", FLUX_CASES)
def test_step_evaluates_only_products_that_can_be_nonzero(case):
    # 13 grid passes per step: the two differences, 3 calls on the
    # channel-free axis (A+ D+, A- D-, their sum), 5 on the other (split D,
    # two products, and their min, or their sum when both slopes are
    # negative) and 3 to combine into V
    grid, _, dyn = flux_case(case)
    assert len(hj._GridTerms(grid, dyn).program) == 8


@pytest.mark.parametrize("case", FLUX_CASES)
def test_solver_step_is_monotone(case):
    # At the step solve_brs takes, raising any one node of V, edge ring
    # included, lowers no node of the update: F_i never decreases in D+_i
    # and never increases in D-_i, and each node's weight on itself is at
    # least 1 - h sum(max(|A_i|, |B_i|) / dx_i) >= 0.1.  The slack is
    # rounding, a few ulps, against a drop of 0.1 * bump from a step 10%
    # past the bound.
    grid, target, dyn = flux_case(case)
    h = hj.solve_brs(grid, target, dyn, -1e-3).info["dt"]
    terms = hj._GridTerms(grid, dyn)
    assert len(terms.branches) == (1 if case == "double_integrator" else 2)
    rng = np.random.default_rng(17)
    for v in (hj.signed_target(grid, target).v, rng.standard_normal(grid.shape)):
        base = hj._upwind_update(v, terms, h, np.empty(grid.shape))
        raised = v.copy()
        out = np.empty(grid.shape)
        for i, j in np.ndindex(grid.shape):
            for bump in (1e-2, 1.0):
                raised[i, j] = v[i, j] + bump
                hj._upwind_update(raised, terms, h, out)
                assert np.min(out - base) >= -1e-12, (i, j, bump)
            raised[i, j] = v[i, j]


# -- backward reachability ------------------------------------------------------

def test_solve_brs_static_dynamics_returns_target():
    grid = hj.Grid2((-2.0, -2.0), (2.0, 2.0), (41, 41))
    dyn = hj.AffineDynamics2(drift=lambda x1, x2, p: (np.zeros_like(x1), np.zeros_like(x2)))
    want = hj.signed_target(grid, DI_TARGET).v
    out = hj.solve_brs(grid, DI_TARGET, dyn, -2.0)
    assert np.max(np.abs(out.v - want)) < 1e-12
    out2 = hj.solve_brs(grid, DI_TARGET, dyn, "converge")
    assert np.max(np.abs(out2.v - want)) < 1e-12
    assert out2.info["converged"]


def test_solve_brs_single_integrator_band():
    # x1' = u embedded in 2-D; target |x1| <= 0.1 grows to |x1| <= 1.1 after
    # one second
    grid = hj.Grid2((-2.0, -1.0), (2.0, 1.0), (201, 5))
    target = hj.TargetSet.box((0.0, 0.0), (0.1, 50.0))
    dyn = hj.AffineDynamics2(
        drift=lambda x1, x2, p: (np.zeros_like(x1), np.zeros_like(x2)),
        control_terms=(((lambda x1, x2, p: (np.ones_like(x1), np.zeros_like(x1))), (-1.0, 1.0)),))
    out = hj.solve_brs(grid, target, dyn, -1.0)
    row = out.v[:, 2]
    ax = grid.axes()[0]
    crossings = []
    for i in range(len(ax) - 1):
        if row[i] * row[i + 1] < 0:
            frac = row[i] / (row[i] - row[i + 1])
            crossings.append(ax[i] + frac * (ax[i + 1] - ax[i]))
    assert len(crossings) == 2
    assert abs(min(crossings) + 1.1) < 2 * grid.dx[0]
    assert abs(max(crossings) - 1.1) < 2 * grid.dx[0]


def test_solve_brs_di_matches_min_time_oracle_within_two_cells():
    # square-target double integrator: every node where the computed set and
    # the bang-bang oracle disagree lies within two cells of the oracle
    # boundary
    grid, mt = min_time_101()
    brs = hj.solve_brs(grid, DI_TARGET, di_dynamics(), -0.5)
    oracle_in = mt <= 0.5
    computed_in = brs.v <= 0.0
    mismatch = oracle_in ^ computed_in
    band = orc.dilate(orc.flip_band(oracle_in), 2)
    assert not np.any(mismatch & ~band)


def test_solve_brs_di_never_claims_unreachable_nodes():
    # a first-order scheme erodes thin features but must not push the
    # computed set beyond the true one: computed subset of 2-cell-dilated
    # oracle even at a longer horizon
    grid, mt = min_time_101()
    brs = hj.solve_brs(grid, DI_TARGET, di_dynamics(), -1.0)
    computed_in = brs.v <= 0.0
    oracle_dilated = orc.dilate(mt <= 1.0, 2)
    assert not np.any(computed_in & ~oracle_dilated)


def test_solve_brs_value_monotone_in_horizon():
    grid = orc.grid_around(DI_TARGET, n=51)
    dyn = di_dynamics()
    v_short = hj.solve_brs(grid, DI_TARGET, dyn, -0.25).v
    v_mid = hj.solve_brs(grid, DI_TARGET, dyn, -0.5).v
    v_long = hj.solve_brs(grid, DI_TARGET, dyn, -1.0).v
    assert np.all(v_mid <= v_short + 1e-12)
    assert np.all(v_long <= v_mid + 1e-12)
    l = hj.signed_target(grid, DI_TARGET).v
    assert np.all(v_short <= l + 1e-12)


def test_grid_convergence_hausdorff_strictly_decreases():
    ref = orc.di_box_brs_reference(0.5)
    dists = []
    for n in (51, 101, 201):
        grid = orc.grid_around(DI_TARGET, factor=4.0, n=n)
        brs = hj.solve_brs(grid, DI_TARGET, di_dynamics(), -0.5)
        pts = orc.contour_points(grid.axes(), brs.v)
        dists.append(orc.hausdorff(pts, ref))
    assert dists[0] > dists[1] > dists[2]


def test_stay_freeze_yields_viability_kernel():
    # control keeps the state inside the unit box; the kernel excludes
    # states whose stopping distance overshoots the far wall:
    # x1 + x2|x2|/2 in [-1, 1]
    target = hj.TargetSet.box((0.0, 0.0), (1.0, 1.0))
    grid = hj.Grid2((-2.0, -2.0), (2.0, 2.0), (101, 101))
    vk = hj.solve_brs(grid, target, di_dynamics(), -6.0, freeze="stay")
    x1g, x2g = grid.mesh()
    stop = x1g + 0.5 * np.sign(x2g) * x2g ** 2
    kernel = ((np.abs(x1g) <= 1.0) & (np.abs(x2g) <= 1.0)
              & (stop <= 1.0) & (stop >= -1.0))
    computed_in = vk.v <= 0.0
    mismatch = kernel ^ computed_in
    band = orc.dilate(orc.flip_band(kernel), 2)
    assert not np.any(mismatch & ~band)
    # stay sets never leave the target: the clip holds V >= l exactly
    l = hj.signed_target(grid, target).v
    assert np.all(vk.v >= l)


def test_converge_mode_contracting_drift():
    # x' = -3x drives every state into the target within ln(1 / 0.3) / 3 =
    # 0.40 s, so the reach set is the whole grid once it is final
    target = hj.TargetSet.box((0.0, 0.0), (0.3, 0.3))
    dyn = hj.AffineDynamics2(drift=lambda x1, x2, p: (-3.0 * x1, -3.0 * x2))
    grid = hj.Grid2((-1.0, -1.0), (1.0, 1.0), (51, 51))
    out = hj.solve_brs(grid, target, dyn, "converge")
    assert out.info["converged"]
    assert np.all(out.v <= 0.0)
    assert -0.5 < out.info["set_final_time"] < -0.3


def test_converge_stops_once_the_safe_set_is_final():
    # the stay kernel of test_stay_freeze_yields_viability_kernel: converge
    # stops max(t_last, tau) after the last change of {V <= 0}, and a run
    # three times as long leaves that set as it is
    target = hj.TargetSet.box((0.0, 0.0), (1.0, 1.0))
    grid = hj.Grid2((-2.0, -2.0), (2.0, 2.0), (51, 51))
    dyn = di_dynamics()
    out = hj.solve_brs(grid, target, dyn, "converge", freeze="stay")
    info = out.info
    assert info["converged"]
    t_last = -info["set_final_time"]
    tau = min(4.0 / 2.0, 4.0 / 1.0)  # grid width over max |x2|, and over |u|
    assert 0.0 < t_last
    wait = -out.time - t_last
    assert max(t_last, tau) <= wait < max(t_last, tau) + info["dt"]
    longer = hj.solve_brs(grid, target, dyn, 3.0 * out.time, freeze="stay")
    assert np.array_equal(out.v <= 0.0, longer.v <= 0.0)
    assert longer.info["set_final_time"] == info["set_final_time"]


def test_converge_flag_false_while_set_still_grows(monkeypatch):
    monkeypatch.setattr(hj, "MAX_CONVERGE_TIME", 0.5)
    grid = orc.grid_around(DI_TARGET, n=101)
    out = hj.solve_brs(grid, DI_TARGET, di_dynamics(), "converge")
    assert not out.info["converged"]
    assert abs(out.time + 0.5) < 1e-9


@pytest.mark.parametrize("params", [(None,), (0.0, 0.0), (0.0, 5.0)])
@pytest.mark.parametrize("freeze", ["stay", "reach"])
def test_solve_brs_bitwise_matches_allocating_reference(freeze, params):
    # the in-place solve must give the allocating Euler loop's V and info
    # bit for bit; the horizon is no multiple of dt, so the last step is
    # partial
    grid = hj.Grid2((-1.0, -2.0), (0.5, 1.5), (23, 17))
    target = hj.TargetSet.box((-0.3, -0.2), (0.45, 1.1))
    dyn = mixed_dynamics(params)
    got = hj.solve_brs(grid, target, dyn, -0.08, freeze=freeze)
    want, info = orc.solve_brs(grid, target, dyn, -0.08, freeze=freeze)
    assert got.info["steps"] > 5
    assert 0.08 / got.info["dt"] % 1.0 > 0.01
    assert np.array_equal(got.v, want)
    assert np.array_equal(np.signbit(got.v), np.signbit(want))
    assert got.info == {k: info[k] for k in got.info}
    assert got.time == info["time"]


@pytest.mark.parametrize("case", FLUX_CASES)
def test_solve_brs_bitwise_matches_allocating_reference_per_flux_form(case):
    # each form the step takes for an axis (linear, one product per pair,
    # one pair, full) against the oracle's full max / min formula, over a
    # whole stay solve
    grid, target, dyn = flux_case(case)
    got = hj.solve_brs(grid, target, dyn, "converge", freeze="stay")
    want, info = orc.solve_brs(grid, target, dyn, "converge", freeze="stay")
    assert got.info["converged"] and got.info["steps"] > 20
    assert np.array_equal(got.v, want)
    assert np.array_equal(np.signbit(got.v), np.signbit(want))
    assert got.info == {k: info[k] for k in got.info}
    assert got.time == info["time"]


def test_solve_brs_bitwise_matches_allocating_reference_converge():
    # a converge run that stops early, on the sign mask of every step
    target = hj.TargetSet.box((0.0, 0.0), (0.3, 0.3))
    dyn = hj.AffineDynamics2(drift=lambda x1, x2, p: (-3.0 * x1, -3.0 * x2))
    grid = hj.Grid2((-1.0, -1.0), (1.0, 1.0), (31, 31))
    got = hj.solve_brs(grid, target, dyn, "converge")
    want, info = orc.solve_brs(grid, target, dyn, "converge")
    assert got.info["converged"] and got.time > -9.0
    assert np.array_equal(got.v, want)
    assert got.info == {k: info[k] for k in got.info}
    assert got.time == info["time"]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_minflt counts minor page faults on Linux only")
def test_solve_brs_steps_without_page_faults():
    # A solve steps in work arrays allocated once.  Allocating a dozen
    # grid-sized temporaries per update made the allocator return the heap
    # top to the kernel and fault it in again: about 150 minor faults per
    # update on this quadruped z-axis solve, against a few hundred for the
    # whole solve in place.
    import resource

    grid = hj.Grid2((-0.2, -1.6), (0.2, 1.6), (101, 101))
    target = hj.TargetSet.box((0.0, 0.0), (0.076, 0.8))
    dyn = plants.subsystem_error_dynamics("z", plants.QuadrupedParams(), u_lo=0.0,
                                          u_hi=300.0, delta_m_interval=(0.0, 5.0))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    out = hj.solve_brs(grid, target, dyn, -0.3, freeze="stay")
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert out.info["steps"] == 236
    assert faults < 5000


def test_solve_brs_argument_validation():
    grid = orc.grid_around(DI_TARGET, n=51)
    dyn = di_dynamics()
    with pytest.raises(ValueError):
        hj.solve_brs(grid, DI_TARGET, dyn, 1.0)
    with pytest.raises(ValueError):
        hj.solve_brs(grid, DI_TARGET, dyn, -1.0, freeze="melt")
    with pytest.raises(ValueError):
        hj.solve_brs(grid, DI_TARGET, dyn, "later")


@pytest.mark.parametrize("horizon", [-0.5, "converge"])
def test_solve_brs_rejects_non_finite_bounds(horizon):
    # an infinite bound has no finite step: the solve raises at once
    # instead of never advancing t (a fixed horizon) or dividing by a zero
    # step (converge)
    grid = hj.Grid2((-0.5, -2.0), (0.5, 2.0), (21, 21))
    target = hj.TargetSet.box((0.0, 0.0), (0.25, 1.0))
    cases = [plants.subsystem_error_dynamics("y", plants.QuadrupedParams(), u_lo=-70.0,
                                             u_hi=np.inf, delta_m_interval=(0.0, 5.0)),
             di_dynamics(u_max=np.nan), di_dynamics(w_max=np.inf)]
    for dyn in cases:
        with pytest.raises(ValueError, match="must be finite"):
            hj.solve_brs(grid, target, dyn, horizon, freeze="stay")


# -- export ---------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(4, 3), (101, 101), (7, 23)])
def test_value_grid_csv_bytes_match_per_node_writer(tmp_path, shape):
    # the writer formats each axis coordinate once per grid, the reference
    # each of a node's three values on its own; the bytes must agree,
    # including signed zeros, non-finite values and tiny magnitudes
    grid = hj.Grid2((-0.2, -1.6), (0.35, 1.7), shape)
    rng = np.random.default_rng(shape[0])
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    v.flat[:4] = [-0.0, 0.0, np.inf, np.nan]
    vg = hj.ValueGrid(grid, v)
    with open(tmp_path / "got.csv", "w") as fh:
        vg.to_csv(fh)
    orc.value_grid_csv(vg, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_value_grid_csv_formats_repeated_values_by_bits(tmp_path):
    # each distinct value is formatted once, by its bits: 0.0 and -0.0
    # compare equal but keep their own text wherever they repeat
    grid = hj.Grid2((-1.0, -2.0), (1.0, 2.0), (31, 17))
    rng = np.random.default_rng(4)
    values = np.array([0.0, -0.0, 1.5, -1.5, 1e-300, np.inf, -np.inf, np.nan, 0.1 + 0.2])
    vg = hj.ValueGrid(grid, np.asfortranarray(rng.choice(values, size=grid.shape)))
    got = io.StringIO()
    vg.to_csv(got)
    orc.value_grid_csv(vg, tmp_path / "want.csv")
    want = (tmp_path / "want.csv").read_text()
    assert got.getvalue() == want
    assert want.count(",0.0\n") > 1 and want.count(",-0.0\n") > 1


def test_value_grid_csv_roundtrip(tmp_path):
    grid = hj.Grid2((0.0, 0.0), (1.0, 1.0), (4, 3))
    rng = np.random.default_rng(9)
    vg = hj.ValueGrid(grid, rng.standard_normal(grid.shape))
    path = tmp_path / "values.csv"
    with open(path, "w") as fh:
        vg.to_csv(fh)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x1,x2,v"
    assert len(lines) == 1 + 4 * 3
    x1g, x2g = grid.mesh()
    for line, a, b, c in zip(lines[1:], x1g.ravel(), x2g.ravel(), vg.v.ravel()):
        c1, c2, c3 = (float(tok) for tok in line.split(","))
        assert c1 == a and c2 == b and c3 == c
