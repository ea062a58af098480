"""Acceptance suite: one test per published criterion, at stated tolerance.

Each test prints a single summary line with the measured quantities, so a
verbose run gives one pass/fail verdict per criterion.  Slower criteria
reuse the bundled scenario configs through the CLI so what is being
accepted is the shipped pipeline, not a test-only rebuild.
"""

import contextlib
import dataclasses
import io
import time

import numpy as np
import pytest

import _oracles as orc
from robustroa import plants
from robustroa.clf_synth import (ClfCertificate, ClfParams, build_synthesis_lmi,
                                 roa_level, synthesize)
from robustroa.harness import cli
from robustroa.harness.scenarios import load_scenario
from robustroa.hj_reach import (AffineDynamics2, Grid2, TargetSet, ValueGrid,
                                signed_target, solve_brs)
from robustroa.mpc import Model, MpcConfig, mpc_step
from robustroa.roa_bridge import containment_guard, ellipsoid_contained, find_wmax

QC_WEIGHTS = ClfParams(q=np.array([1e-1, 1, 1, 1, 1, 1e-2]),
                       r=np.array([1e-2, 1e-4]),
                       decay_rate=0.5, dist_weight=0.1)
W_MAX = 3.5
LEVEL = 2.45  # dist_weight * W_MAX^2 / decay_rate
DI_TARGET = TargetSet.box((0.0, 0.0), (0.5, 0.5))


def di_dynamics():
    """Double integrator x1' = x2, x2' = u, |u| <= 1."""
    return AffineDynamics2(
        drift=lambda x1, x2, p: (x2, np.zeros_like(np.asarray(x2, dtype=float))),
        control_terms=(((lambda x1, x2, p: (np.zeros_like(x1),
                                            np.ones_like(np.asarray(x1, dtype=float)))),
                        (-1.0, 1.0)),),
    )


@pytest.fixture(scope="module")
def quadcopter_synthesis():
    model = plants.quadcopter_linearize(plants.QuadcopterParams())
    t0 = time.perf_counter()
    cert, sol = synthesize(model, QC_WEIGHTS)
    elapsed = time.perf_counter() - t0
    return model, cert, sol, elapsed


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def read_run(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def test_criterion_1_clf_synthesis(quadcopter_synthesis):
    model, cert, sol, elapsed = quadcopter_synthesis
    assert sol.status.value == "optimal"
    assert elapsed < 30.0

    # block LMI evaluated at the returned point, eigenvalues via numpy
    prob = build_synthesis_lmi(model, QC_WEIGHTS)
    block = prob.f0 + sum(x * f for x, f in zip(sol.x, prob.fi))
    block_eig = float(np.max(np.linalg.eigvalsh(0.5 * (block + block.T))))
    assert block_eig < -1e-8

    # certificate matrix assembled from scratch in the original variables
    q = np.diag(QC_WEIGHTS.q)
    r = np.diag(QC_WEIGHTS.r)
    acl = model.a + model.b @ cert.k
    mcert = (acl.T @ cert.p + cert.p @ acl + QC_WEIGHTS.decay_rate * cert.p
             + q + cert.k.T @ r @ cert.k
             + cert.p @ model.b_w @ model.b_w.T @ cert.p / QC_WEIGHTS.dist_weight)
    cert_eig = float(np.max(np.linalg.eigvalsh(0.5 * (mcert + mcert.T))))
    assert cert_eig < 0.0
    print(f"criterion 1 (synthesis): PASS  status=optimal, "
          f"block_eig={block_eig:.3e}, cert_eig={cert_eig:.3e}, "
          f"runtime={elapsed:.2f}s")


def test_criterion_2_supply_rate_and_invariance(quadcopter_synthesis):
    model, cert, _, _ = quadcopter_synthesis
    acl = model.a + model.b @ cert.k
    p = cert.p
    rng = np.random.default_rng(7)

    # sampled decay inequality, 100 random (e, w) with |w|_inf <= 3.5
    holds = 0
    for _ in range(100):
        e = rng.standard_normal(6)
        w = rng.uniform(-W_MAX, W_MAX, size=model.b_w.shape[1])
        edot = 2.0 * e @ p @ (acl @ e + model.b_w @ w)
        if edot + QC_WEIGHTS.decay_rate * (e @ p @ e) - QC_WEIGHTS.dist_weight * (w @ w) < 0.0:
            holds += 1
    assert holds == 100

    # 50 closed-loop trajectories started inside the invariant set, driven
    # by held random disturbances with |w|_2 <= 3.5, never leave it
    dt, steps, hold = 1e-3, 2000, 50
    peak = 0.0
    for k in range(50):
        d = rng.standard_normal(6)
        scale = 1.0 if k < 5 else rng.uniform(0.0, 1.0)  # few starts on the boundary
        e = d * np.sqrt(scale * LEVEL / (d @ p @ d))
        w = np.zeros(model.b_w.shape[1])
        for i in range(steps):
            if i % hold == 0:
                direction = rng.standard_normal(len(w))
                w = direction * (rng.uniform(0.0, W_MAX) / np.linalg.norm(direction))
            f = lambda x: acl @ x + model.b_w @ w
            k1 = f(e)
            k2 = f(e + 0.5 * dt * k1)
            k3 = f(e + 0.5 * dt * k2)
            k4 = f(e + dt * k3)
            e = e + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            peak = max(peak, float(e @ p @ e))
    assert peak <= LEVEL * (1.0 + 1e-6)
    print(f"criterion 2 (invariance): PASS  decay holds 100/100, "
          f"peak E={peak:.6f} <= {LEVEL}*(1+1e-6)")


def test_criterion_3_hj_oracle_equivalence():
    t0 = time.perf_counter()
    grid = orc.grid_around(DI_TARGET, factor=4.0, n=101)
    brs = solve_brs(grid, DI_TARGET, di_dynamics(), -0.5)
    mt = orc.di_min_time_to_box(grid.axes(), (0.0, 0.0), (0.5, 0.5))
    oracle_in = mt <= 0.5
    mismatch = (brs.v <= 0.0) ^ oracle_in
    band = orc.dilate(orc.flip_band(oracle_in), 2)
    outside = int(np.count_nonzero(mismatch & ~band))
    elapsed = time.perf_counter() - t0
    assert outside == 0
    assert elapsed < 60.0

    # zero dynamics: the PDE must return l(x) untouched
    static = AffineDynamics2(
        drift=lambda x1, x2, p: (np.zeros_like(x1), np.zeros_like(x2)))
    vg = solve_brs(grid, DI_TARGET, static, -1.0)
    drift_err = float(np.max(np.abs(vg.v - signed_target(grid, DI_TARGET).v)))
    assert drift_err < 1e-12
    print(f"criterion 3 (HJ oracle): PASS  mismatches outside band-2: 0, "
          f"zero-dynamics error={drift_err:.1e}, runtime={elapsed:.2f}s")


def test_criterion_4_grid_convergence():
    ref = orc.di_box_brs_reference(0.5)
    dists = []
    for n in (51, 101, 201):
        grid = orc.grid_around(DI_TARGET, factor=4.0, n=n)
        brs = solve_brs(grid, DI_TARGET, di_dynamics(), -0.5)
        pts = orc.contour_points(grid.axes(), brs.v)
        dists.append(orc.hausdorff(pts, ref))
    assert dists[0] > dists[1] > dists[2]
    print(f"criterion 4 (convergence): PASS  Hausdorff "
          f"{dists[0]:.4f} > {dists[1]:.4f} > {dists[2]:.4f}")


def test_criterion_5_wmax_bisection():
    # analytic circle-in-circle: P = I, mu = lambda = 1 makes the invariant
    # set the disc of radius w, so w_max must recover the safe radius
    radius = 1.3
    grid = Grid2((-2.0, -2.0), (2.0, 2.0), (81, 81))
    x1g, x2g = grid.mesh()
    vg = ValueGrid(grid, np.hypot(x1g, x2g) - radius)
    target = TargetSet.box((0.0, 0.0), (1.9, 1.9))
    cert = ClfCertificate(k=np.zeros((1, 2)), p=np.eye(2),
                          params=ClfParams(q=[1.0, 1.0], r=[1.0],
                                           decay_rate=1.0, dist_weight=1.0))
    res = find_wmax(cert, vg)
    cell = max(grid.dx)
    assert abs(res.w_max - radius) <= 1e-3 + cell

    # containment must flip exactly once in w on randomized safe sets
    rng = np.random.default_rng(42)
    flips_ok = 0
    for _ in range(20):
        a = rng.standard_normal((2, 2))
        qmat = a @ a.T + 0.3 * np.eye(2)
        quad = (qmat[0, 0] * x1g ** 2 + (qmat[0, 1] + qmat[1, 0]) * x1g * x2g
                + qmat[1, 1] * x2g ** 2)
        rand_vg = ValueGrid(grid, np.maximum(quad - 1.0, target.l(x1g, x2g)))
        p_raw = rng.standard_normal((2, 2))
        rand_cert = ClfCertificate(
            k=np.zeros((1, 2)), p=p_raw @ p_raw.T + 0.5 * np.eye(2),
            params=ClfParams(q=[1.0, 1.0], r=[1.0],
                             decay_rate=rng.uniform(0.2, 2.0),
                             dist_weight=rng.uniform(0.2, 2.0)))
        guard = containment_guard(rand_vg)
        flags = []
        for w in np.linspace(0.01, 6.0, 25):
            level = roa_level(rand_cert.params, w)
            try:
                flags.append(ellipsoid_contained(rand_cert.p, (0.0, 0.0), level, rand_vg,
                                                 guard=guard))
            except Exception:
                flags.append(False)
        if not any(b and not a_ for a_, b in zip(flags[:-1], flags[1:])):
            flips_ok += 1
    assert flips_ok == 20

    # trotting quadruped, height axis of quadruped_height.cfg under a
    # scarce-lift force ceiling: a 5 kg payload must not certify more than
    # no payload, and neither may certify more than the exact viability
    # kernel admits.  With this certificate the e1 = h1 edge of the kernel
    # binds for both masses, not the lift parabola, so the exact bounds tie
    # and the computed ones may too.
    scn = load_scenario(orc.CONFIGS / "quadruped_height.cfg")
    params = scn.quadruped
    z_cert, _ = synthesize(plants.quadruped_axis_linear(params), scn.clf_blocks["z"].params)
    bounds = {}
    exact = {}
    for dm in (0.0, 5.0):
        block = dataclasses.replace(scn.hj_blocks["z"], u_hi=240.0, delta_m=(dm, dm))
        z_grid, z_target, dyn = block.problem(params)
        z_vg = solve_brs(z_grid, z_target, dyn, -2.0, freeze="stay")
        bounds[dm] = find_wmax(z_cert, z_vg).w_max
        exact[dm] = orc.kernel.exact_wmax("z", z_cert, block, params)
        assert bounds[dm] <= exact[dm]
    assert bounds[0.0] >= bounds[5.0]
    print(f"criterion 5 (w_max): PASS  circle w_max={res.w_max:.4f} "
          f"(radius {radius}), monotone 20/20, quadruped w_max "
          f"{bounds[0.0]:.6f} (no payload) >= {bounds[5.0]:.6f} (5 kg), "
          f"exact {exact[0.0]:.6f} / {exact[5.0]:.6f}")


def test_criterion_6_quadcopter_figure(quadcopter_synthesis, tmp_path):
    _, cert, _, _ = quadcopter_synthesis
    t0 = time.perf_counter()
    rc, _ = run_cli(["reproduce", "fig3", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert elapsed < 120.0

    nominal = read_run(tmp_path / "quadcopter_fig8_nominal.csv")
    robust = read_run(tmp_path / "quadcopter_fig8_robust.csv")
    tol = LEVEL * (1.0 + 1e-6)
    nominal_exits = int(np.count_nonzero(nominal["E"] > tol))
    nominal_diverged = len(nominal) < 5001
    assert nominal_exits > 0 or nominal_diverged
    assert np.all(robust["E"] <= tol)
    assert len(robust) == 5001  # finished the 5 s run

    # robust y/z errors stay within the axis extents of {E <= c}
    extents = np.sqrt(LEVEL * np.diag(np.linalg.inv(cert.p)))
    ey = robust["x1"] - robust["xref1"]
    ez = robust["x2"] - robust["xref2"]
    assert np.max(np.abs(ey)) <= extents[0] * (1.0 + 1e-6)
    assert np.max(np.abs(ez)) <= extents[1] * (1.0 + 1e-6)
    print(f"criterion 6 (fig 3): PASS  nominal exits={nominal_exits} "
          f"diverged={nominal_diverged}, robust peak E="
          f"{float(np.max(robust['E'])):.4f} <= {LEVEL}, "
          f"runtime={elapsed:.1f}s")


def test_criterion_7_quadruped_figures(tmp_path):
    rc, _ = run_cli(["reproduce", "fig4a", "--out", str(tmp_path / "height")])
    assert rc == 0
    nominal = read_run(tmp_path / "height" / "quadruped_height_nominal.csv")
    robust = read_run(tmp_path / "height" / "quadruped_height_robust.csv")
    height_tol = robust["roa_level_z"] * (1.0 + 1e-6)
    height_nominal_exits = int(np.count_nonzero(
        nominal["E_z"] > nominal["roa_level_z"] * (1.0 + 1e-6)))
    assert height_nominal_exits > 0
    assert np.all(robust["E_z"] <= height_tol)  # inside for the full 10 s
    assert np.all(robust["E_y"] <= robust["roa_level_y"] * (1.0 + 1e-6))
    assert len(robust) == 10001  # finished the run, no divergence

    rc, _ = run_cli(["reproduce", "fig4c", "--out", str(tmp_path / "push")])
    assert rc == 0
    nominal_p = read_run(tmp_path / "push" / "quadruped_push_nominal.csv")
    robust_p = read_run(tmp_path / "push" / "quadruped_push_robust.csv")
    push_nominal_exits = int(np.count_nonzero(
        nominal_p["E_y"] > nominal_p["roa_level_y"] * (1.0 + 1e-6)))
    push_robust_exits = int(np.count_nonzero(
        robust_p["E_y"] > robust_p["roa_level_y"] * (1.0 + 1e-6)))
    assert push_nominal_exits > 0
    assert push_robust_exits == 0
    print(f"criterion 7 (fig 4): PASS  height nominal exits="
          f"{height_nominal_exits}, robust exits=0 over 10 s; "
          f"push nominal exits={push_nominal_exits}, robust exits=0")


def test_criterion_8_numerical_hygiene():
    # linearization vs central finite differences at hover
    params = plants.QuadcopterParams()
    model = plants.quadcopter_linearize(params)

    def qf(x, u, w, p):
        return np.asarray(plants.quadcopter_f(x, u, w, p))

    x0 = np.zeros(6)
    u0 = np.array([params.mass * params.gravity, 0.0])
    w0 = np.zeros(2)
    step = 1e-6
    a_fd = np.zeros((6, 6))
    for j in range(6):
        dx = np.zeros(6)
        dx[j] = step
        a_fd[:, j] = (qf(x0 + dx, u0, w0, params)
                      - qf(x0 - dx, u0, w0, params)) / (2 * step)
    b_fd = np.zeros((6, 2))
    for j in range(2):
        du = np.zeros(2)
        du[j] = step
        b_fd[:, j] = (qf(x0, u0 + du, w0, params)
                      - qf(x0, u0 - du, w0, params)) / (2 * step)
    jac_err = max(float(np.max(np.abs(a_fd - model.a))),
                  float(np.max(np.abs(b_fd - model.b))))
    assert jac_err < 1e-6

    # RK4 local error on x' = -x, six states, drops 2^5 when the step halves
    errs = []
    x0 = [1.0, -2.0, 0.5, 3.0, -0.25, 1.5]
    for dt in (0.1, 0.05):
        x = plants.rk4_step(lambda x, u, w: [-xi for xi in x], list(x0), None, None, dt)
        errs.append(max(abs(a - b * np.exp(-dt)) for a, b in zip(x, x0)))
    ratio = errs[0] / errs[1]
    assert 24.0 < ratio < 40.0

    # two-step scalar MPC against a brute-force grid search
    q, r, dt = 1.0, 0.3, 0.2
    scalar = Model(lambda x, u: np.array([-0.5 * x[0] + 0.8 * u[0] + 0.3]),
                   lambda x, u: (np.array([[-0.5]]), np.array([[0.8]])))
    x0s = 1.2
    refs = np.array([[1.2], [0.3], [-0.1]])
    u_seq = mpc_step(scalar, [x0s], refs, MpcConfig(q=[q], r=[r], dt=dt, horizon=2), [0.0])

    def grid_search(lo0, hi0, lo1, hi1, npts):
        u0 = np.linspace(lo0, hi0, npts)[:, None]
        u1 = np.linspace(lo1, hi1, npts)[None, :]
        x1 = x0s + dt * (-0.5 * x0s + 0.8 * u0 + 0.3)
        x2 = x1 + dt * (-0.5 * x1 + 0.8 * u1 + 0.3)
        cost = (q * (x1 - refs[1, 0]) ** 2 + q * (x2 - refs[2, 0]) ** 2
                + r * u0 ** 2 + r * u1 ** 2)
        i, j = np.unravel_index(np.argmin(cost), cost.shape)
        return float(u0[i, 0]), float(u1[0, j])

    c0, c1 = grid_search(-4.0, 4.0, -4.0, 4.0, 2001)
    b0, b1 = grid_search(c0 - 6e-3, c0 + 6e-3, c1 - 6e-3, c1 + 6e-3, 121)
    mpc_err = max(abs(float(u_seq[0, 0]) - b0), abs(float(u_seq[1, 0]) - b1))
    assert mpc_err < 1e-3
    print(f"criterion 8 (hygiene): PASS  jacobian err={jac_err:.1e}, "
          f"RK4 ratio={ratio:.1f}, MPC vs grid={mpc_err:.1e}")
