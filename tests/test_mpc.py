import numpy as np
import pytest

import _oracles as orc
from robustroa import mpc, plants


def affine_scalar(x, u):
    # xdot = -0.5 x + 0.8 u + 0.3
    return np.array([-0.5 * x[0] + 0.8 * u[0] + 0.3])


def rollout(f, x0, u_seq, dt):
    """States x(1..k) of the explicit-Euler prediction x+ = x + dt f(x, u)
    under the plan; exact for the affine dynamics these tests use."""
    x = np.asarray(x0, dtype=float)
    xs = []
    for u in u_seq:
        x = x + dt * np.asarray(f(x, u), dtype=float)
        xs.append(x)
    return np.array(xs)


def euler_cost(f_params, x0, u_seq, refs, q, r, dt):
    """Roll out x+ = x + dt*(a x + b u + g) and tally the tracking cost."""
    a, b, g = f_params
    x = float(x0)
    cost = 0.0
    for i, u in enumerate(u_seq):
        x = x + dt * (a * x + b * u + g)
        cost += q * (x - refs[i + 1]) ** 2 + r * u ** 2
    return cost


# -- linearization --------------------------------------------------------------

def test_linearize_fd_analytic_jacobians():
    def f(x, u):
        return np.array([x[1] ** 2 + u[0], np.sin(x[0]) + x[1] * u[0]])

    x0 = np.array([0.3, -1.2])
    u0 = np.array([0.7])
    a, b, g0 = mpc.linearize_fd(f, x0, u0)
    a_true = np.array([[0.0, -2.4], [np.cos(0.3), 0.7]])
    b_true = np.array([[1.0], [-1.2]])
    assert np.max(np.abs(a - a_true)) < 1e-7
    assert np.max(np.abs(b - b_true)) < 1e-7
    assert np.max(np.abs((a @ x0 + b @ u0 + g0) - f(x0, u0))) < 1e-12


def test_linearize_fd_bitwise_matches_array_reference():
    # float perturbation and column lists must give the array version's bytes
    p = plants.QuadrupedParams()
    walker = plants.QuadrupedPlant(p)
    walker.advance(0.0, [-0.37, 0.3, 0.0, 0.0, 0.0, 0.0])
    stances = [walker.stance]
    walker.advance(p.step_time, [-0.2, 0.3, 0.0, 0.0, 0.0, 0.0])
    stances.append(walker.stance)
    assert [s.pair for s in stances] == ["A", "B"]
    x_neg = np.array([-0.41, 0.29, -0.03, -0.12, -0.02, -0.4])
    x_pos = np.array([0.39, 0.29, 0.02, 0.48, -0.02, -0.4])
    u_stance = np.array([-3.5, 2.0, 70.0, 52.0])
    cases = []
    for s in stances:
        cases += [
            (f"quadruped-{s.pair}", plants.quadruped_dynamics(s, p), x_neg, u_stance),
            (f"quadruped-{s.pair}-payload-drag",
             plants.quadruped_dynamics(s, p, delta_m=5.0, drag_force=30.0), x_pos, u_stance),
        ]
    qp = plants.QuadcopterParams()
    cases.append(("quadcopter-off-hover", lambda x, u: plants.quadcopter_f(x, u, None, qp),
                  np.array([0.3, -0.45, 0.2, -0.6, 0.35, -1.1]), np.array([11.3, -0.7])))
    for name, f, x0, u0 in cases:
        got = mpc.linearize_fd(f, x0, u0)
        want = orc.linearize_fd(f, x0, u0)
        for g, w in zip(got, want):
            assert (g.dtype, g.shape, g.strides, g.tobytes()) == \
                (w.dtype, w.shape, w.strides, w.tobytes()), name


def test_linearize_fd_exact_on_affine():
    a, b, g0 = mpc.linearize_fd(affine_scalar, [2.0], [0.5])
    assert abs(a[0, 0] + 0.5) < 1e-9
    assert abs(b[0, 0] - 0.8) < 1e-9
    assert abs(g0[0] - 0.3) < 1e-9


# -- configuration ---------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        mpc.MpcConfig(q=[-1.0], r=[1.0], dt=0.1)
    with pytest.raises(ValueError):
        mpc.MpcConfig(q=[1.0], r=[1.0], dt=0.0)
    with pytest.raises(ValueError):
        mpc.MpcConfig(q=[1.0], r=[1.0], dt=0.1, horizon=0)


def test_reference_shape_validation():
    cfg = mpc.MpcConfig(q=[1.0, 1.0], r=[1.0], dt=0.1, horizon=2)
    f = lambda x, u: np.array([x[1], u[0]])
    with pytest.raises(ValueError):
        mpc.mpc_step(f, [0.0, 0.0], np.zeros((2, 2)), cfg, [0.0])
    bad_q = mpc.MpcConfig(q=[1.0], r=[1.0], dt=0.1, horizon=2)
    with pytest.raises(ValueError):
        mpc.mpc_step(f, [0.0, 0.0], np.zeros((3, 2)), bad_q, [0.0])


# -- optimality ------------------------------------------------------------------

def test_on_reference_control_is_zero():
    # double integrator resting on a constant reference: any nonzero u only
    # adds cost
    f = lambda x, u: np.array([x[1], u[0]])
    cfg = mpc.MpcConfig(q=[1.0, 1.0], r=[0.1], dt=0.1, horizon=2)
    ref = np.tile([0.7, 0.0], (3, 1))
    u_seq = mpc.mpc_step(f, [0.7, 0.0], ref, cfg, [0.0])
    assert u_seq.shape == (2, 1)
    assert np.max(np.abs(u_seq)) < 1e-10
    assert np.max(np.abs(rollout(f, [0.7, 0.0], u_seq, cfg.dt) - ref[0])) < 1e-10


def test_one_step_deadbeat():
    # k=1, x+ = x + u dt, q=1, r=0: drive straight to the reference
    f = lambda x, u: np.array([u[0]])
    cfg = mpc.MpcConfig(q=[1.0], r=[0.0], dt=0.05, horizon=1)
    u_seq = mpc.mpc_step(f, [0.8], [[0.8], [0.0]], cfg, [0.0])
    assert abs(u_seq[0, 0] + 0.8 / 0.05) < 1e-4 * (0.8 / 0.05)
    assert abs(rollout(f, [0.8], u_seq, cfg.dt)[0, 0]) < 1e-6
    # the 1e-9 ridge floor: u = -dt x / (dt^2 + 1e-9), 4e-7 relative off
    # the unridged -x / dt
    ridged = -0.05 * 0.8 / (0.05 ** 2 + 1e-9)
    assert abs(u_seq[0, 0] - ridged) < 1e-9 * abs(ridged)


def test_k2_matches_brute_force_grid():
    q, r, dt = 1.0, 0.3, 0.2
    cfg = mpc.MpcConfig(q=[q], r=[r], dt=dt, horizon=2)
    x0 = 1.2
    refs = np.array([[1.2], [0.3], [-0.1]])
    u_seq = mpc.mpc_step(affine_scalar, [x0], refs, cfg, [0.0])

    def grid_search(lo0, hi0, lo1, hi1, npts):
        u0 = np.linspace(lo0, hi0, npts)[:, None]
        u1 = np.linspace(lo1, hi1, npts)[None, :]
        x1 = x0 + dt * (-0.5 * x0 + 0.8 * u0 + 0.3)
        x2 = x1 + dt * (-0.5 * x1 + 0.8 * u1 + 0.3)
        cost = (q * (x1 - refs[1, 0]) ** 2 + q * (x2 - refs[2, 0]) ** 2
                + r * u0 ** 2 + r * u1 ** 2)
        i, j = np.unravel_index(np.argmin(cost), cost.shape)
        return float(u0[i, 0]), float(u1[0, j])

    # coarse scan, then refine to 1e-4 resolution around the coarse minimum
    c0, c1 = grid_search(-4.0, 4.0, -4.0, 4.0, 2001)
    b0, b1 = grid_search(c0 - 6e-3, c0 + 6e-3, c1 - 6e-3, c1 + 6e-3, 121)
    assert abs(u_seq[0, 0] - b0) < 1e-3
    assert abs(u_seq[1, 0] - b1) < 1e-3


def test_joint_plan_beats_receding_greedy():
    # planning both moves at once can never cost more than two one-step
    # solves over the same window
    q, r, dt = 1.0, 0.5, 0.2
    x0 = -0.9
    refs = np.array([[-0.9], [0.4], [0.5]])
    cfg2 = mpc.MpcConfig(q=[q], r=[r], dt=dt, horizon=2)
    plan = mpc.mpc_step(affine_scalar, [x0], refs, cfg2, [0.0])
    f_params = (-0.5, 0.8, 0.3)
    j_joint = euler_cost(f_params, x0, plan[:, 0], refs[:, 0], q, r, dt)

    cfg1 = mpc.MpcConfig(q=[q], r=[r], dt=dt, horizon=1)
    u0 = mpc.mpc_step(affine_scalar, [x0], refs[:2], cfg1, [0.0])[0, 0]
    x1 = x0 + dt * (-0.5 * x0 + 0.8 * u0 + 0.3)
    u1 = mpc.mpc_step(affine_scalar, [x1], refs[1:], cfg1, [0.0])[0, 0]
    j_greedy = euler_cost(f_params, x0, [u0, u1], refs[:, 0], q, r, dt)
    assert j_joint <= j_greedy + 1e-12


def test_solution_is_stationary_and_locally_optimal():
    rng = np.random.default_rng(6)
    f = lambda x, u: np.array([x[1], -0.3 * x[0] + u[0]])
    cfg = mpc.MpcConfig(q=[2.0, 0.5], r=[0.2], dt=0.15, horizon=3)
    refs = rng.standard_normal((4, 2))
    x0 = rng.standard_normal(2)
    u_star = mpc.mpc_step(f, x0, refs, cfg, [0.0])[:, 0]

    # independent stationarity and local-optimality probes of the
    # rolled-out quadratic
    a, b, g = mpc.linearize_fd(f, refs[0], [0.0])

    def rollout_cost(u_seq):
        x = x0.copy()
        cost = 0.0
        for i, u in enumerate(u_seq):
            x = x + cfg.dt * (a @ x + b @ [u] + g)
            d = x - refs[i + 1]
            cost += d @ (cfg.q * d) + cfg.r[0] * u ** 2
        return cost

    j_star = rollout_cost(u_star)
    # central differences are exact on a quadratic up to rounding
    h = 1e-3
    grad = [(rollout_cost(u_star + h * d) - rollout_cost(u_star - h * d)) / (2 * h)
            for d in np.eye(3)]
    assert np.max(np.abs(grad)) < 1e-8 * (1.0 + np.max(np.abs(u_star)))
    for _ in range(20):
        assert j_star <= rollout_cost(u_star + 1e-4 * rng.standard_normal(3)) + 1e-15


# -- constraints and degeneracy ---------------------------------------------------

def test_input_clamping():
    f = lambda x, u: np.array([u[0]])
    cfg = mpc.MpcConfig(q=[1.0], r=[0.0], dt=0.05, horizon=1,
                        u_lo=[-2.0], u_hi=[2.0])
    u_seq = mpc.mpc_step(f, [0.8], [[0.8], [0.0]], cfg, [0.0])
    assert u_seq[0, 0] == -2.0  # unconstrained answer is -16
    assert abs(rollout(f, [0.8], u_seq, cfg.dt)[0, 0] - (0.8 - 0.1)) < 1e-12


def test_zero_r_gets_ridge_and_solves():
    f = lambda x, u: np.array([x[1], u[0]])
    cfg = mpc.MpcConfig(q=[1.0, 1.0], r=[0.0], dt=0.1, horizon=2)
    u_seq = mpc.mpc_step(f, [0.5, 0.0], np.zeros((3, 2)), cfg, [0.0])
    assert np.all(np.isfinite(u_seq))


def test_zero_r_ridge_tracks_problem_scale():
    # two redundant inputs give exactly collinear Hessian columns; large q
    # pushes the pivot tolerance above the 1e-9 floor, so the ridge must grow
    # (at scale 1e3 a fixed 1e-9 ridge fails the rank test)
    f = lambda x, u: np.array([x[1], u[0] + u[1]])
    for scale in (1.0, 1e3):
        cfg = mpc.MpcConfig(q=[1e7 * scale, 1e5 * scale], r=[0.0, 0.0], dt=0.05, horizon=2)
        u_seq = mpc.mpc_step(f, [0.5, 0.0], np.zeros((3, 2)), cfg, [0.0, 0.0])
        assert np.all(np.isfinite(u_seq))
        # min-norm tie break splits the redundant pair evenly
        assert np.allclose(u_seq[:, 0], u_seq[:, 1], rtol=1e-4)


def test_degenerate_weights_raise():
    # r > 0 dodges the ridge but is far below the pivot floor
    f = lambda x, u: np.array([u[0] * 0.0])
    cfg = mpc.MpcConfig(q=[0.0], r=[1e-20], dt=0.1, horizon=1)
    with pytest.raises(mpc.SingularHessian):
        mpc.mpc_step(f, [1.0], [[1.0], [0.0]], cfg, [0.0])


def test_u_lin_linearizes_every_stage():
    # xdot = u^2 about u_lin = 1 is x+ = x + dt (2u - 1) at each stage, so
    # the deadbeat plan up the ramp is u = 1 twice; about u = 0 the input
    # would have no effect at all
    f = lambda x, u: np.array([u[0] ** 2])
    cfg = mpc.MpcConfig(q=[1.0], r=[0.0], dt=0.1, horizon=2)
    u_seq = mpc.mpc_step(f, [0.0], [[0.0], [0.1], [0.2]], cfg, np.array([1.0]))
    assert np.max(np.abs(u_seq - 1.0)) < 1e-6
