import numpy as np
import pytest

import _oracles as orc
from robustroa import mpc, plants


def affine_scalar(x, u):
    # xdot = -0.5 x + 0.8 u + 0.3
    return np.array([-0.5 * x[0] + 0.8 * u[0] + 0.3])


def model(f, a, b):
    """Model of f whose Jacobians are the constants a and b."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    return mpc.Model(f, lambda x, u: (a, b))


AFFINE = model(affine_scalar, [[-0.5]], [[0.8]])
# xdot = (x2, u): the double integrator
DOUBLE = model(lambda x, u: np.array([x[1], u[0]]), [[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]])
# xdot = u
SINGLE = model(lambda x, u: np.array([u[0]]), [[0.0]], [[1.0]])


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

def test_linearize_is_exact_on_affine():
    a, b, g0 = mpc.linearize(AFFINE, [2.0], [0.5])
    assert (a[0, 0], b[0, 0]) == (-0.5, 0.8)
    assert abs(g0[0] - 0.3) < 1e-15


def test_condensation_rebuilt_only_when_a_jacobian_moves(monkeypatch):
    # xdot = u^2 about u_lin: the input column 2 u_lin moves with u_lin only
    built = []
    condense = mpc._condense
    monkeypatch.setattr(mpc, "_condense", lambda *args: built.append(1) or condense(*args))
    quad = mpc.Model(lambda x, u: np.array([u[0] ** 2]),
                     lambda x, u: (np.zeros((1, 1)), np.array([[2.0 * u[0]]])))
    cfg = mpc.MpcConfig(q=[1.0], r=[0.1], dt=0.1, horizon=2)
    for x0, u_lin in ((0.0, 1.0), (0.3, 1.0), (0.3, 2.0), (-0.2, 2.0)):
        fresh = mpc.MpcConfig(q=[1.0], r=[0.1], dt=0.1, horizon=2)
        refs = [[x0], [0.1], [0.2]]
        held = mpc.mpc_step(quad, [x0], refs, cfg, [u_lin])
        built_before = len(built)
        # the held condensation gives the bits of a fresh one
        assert held.tobytes() == mpc.mpc_step(quad, [x0], refs, fresh, [u_lin]).tobytes()
        assert len(built) == built_before + 1
    assert len(built) == 2 + 4


# -- configuration ---------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        mpc.MpcConfig(q=[-1.0], r=[1.0], dt=0.1, horizon=2)
    with pytest.raises(ValueError):
        mpc.MpcConfig(q=[1.0], r=[1.0], dt=0.0, horizon=2)
    with pytest.raises(ValueError):
        mpc.MpcConfig(q=[1.0], r=[1.0], dt=0.1, horizon=0)
    with pytest.raises(ValueError, match="horizon"):
        mpc.MpcConfig(q=[1.0], r=[1.0], dt=0.1, horizon=mpc.MAX_HORIZON + 1)
    assert mpc.MpcConfig(q=[1.0], r=[1.0], dt=0.1, horizon=mpc.MAX_HORIZON).horizon == 200


def test_reference_shape_validation():
    cfg = mpc.MpcConfig(q=[1.0, 1.0], r=[1.0], dt=0.1, horizon=2)
    with pytest.raises(ValueError):
        mpc.mpc_step(DOUBLE, [0.0, 0.0], np.zeros((2, 2)), cfg, [0.0])
    bad_q = mpc.MpcConfig(q=[1.0], r=[1.0], dt=0.1, horizon=2)
    with pytest.raises(ValueError):
        mpc.mpc_step(DOUBLE, [0.0, 0.0], np.zeros((3, 2)), bad_q, [0.0])


# -- optimality ------------------------------------------------------------------

def test_on_reference_control_is_zero():
    # double integrator resting on a constant reference: any nonzero u only
    # adds cost
    cfg = mpc.MpcConfig(q=[1.0, 1.0], r=[0.1], dt=0.1, horizon=2)
    ref = np.tile([0.7, 0.0], (3, 1))
    u_seq = mpc.mpc_step(DOUBLE, [0.7, 0.0], ref, cfg, [0.0])
    assert u_seq.shape == (2, 1)
    assert np.max(np.abs(u_seq)) < 1e-10
    assert np.max(np.abs(rollout(DOUBLE.f, [0.7, 0.0], u_seq, cfg.dt) - ref[0])) < 1e-10


def test_one_step_deadbeat():
    # k=1, x+ = x + u dt, q=1, r=0: drive straight to the reference
    cfg = mpc.MpcConfig(q=[1.0], r=[0.0], dt=0.05, horizon=1)
    u_seq = mpc.mpc_step(SINGLE, [0.8], [[0.8], [0.0]], cfg, [0.0])
    assert abs(u_seq[0, 0] + 0.8 / 0.05) < 1e-4 * (0.8 / 0.05)
    assert abs(rollout(SINGLE.f, [0.8], u_seq, cfg.dt)[0, 0]) < 1e-6
    # the 1e-9 ridge floor: u = -dt x / (dt^2 + 1e-9), 4e-7 relative off
    # the unridged -x / dt
    ridged = -0.05 * 0.8 / (0.05 ** 2 + 1e-9)
    assert abs(u_seq[0, 0] - ridged) < 1e-9 * abs(ridged)


def test_k2_matches_brute_force_grid():
    q, r, dt = 1.0, 0.3, 0.2
    cfg = mpc.MpcConfig(q=[q], r=[r], dt=dt, horizon=2)
    x0 = 1.2
    refs = np.array([[1.2], [0.3], [-0.1]])
    u_seq = mpc.mpc_step(AFFINE, [x0], refs, cfg, [0.0])

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
    plan = mpc.mpc_step(AFFINE, [x0], refs, cfg2, [0.0])
    f_params = (-0.5, 0.8, 0.3)
    j_joint = euler_cost(f_params, x0, plan[:, 0], refs[:, 0], q, r, dt)

    cfg1 = mpc.MpcConfig(q=[q], r=[r], dt=dt, horizon=1)
    u0 = mpc.mpc_step(AFFINE, [x0], refs[:2], cfg1, [0.0])[0, 0]
    x1 = x0 + dt * (-0.5 * x0 + 0.8 * u0 + 0.3)
    u1 = mpc.mpc_step(AFFINE, [x1], refs[1:], cfg1, [0.0])[0, 0]
    j_greedy = euler_cost(f_params, x0, [u0, u1], refs[:, 0], q, r, dt)
    assert j_joint <= j_greedy + 1e-12


def test_solution_is_stationary_and_locally_optimal():
    rng = np.random.default_rng(6)
    oscillator = model(lambda x, u: np.array([x[1], -0.3 * x[0] + u[0]]),
                       [[0.0, 1.0], [-0.3, 0.0]], [[0.0], [1.0]])
    cfg = mpc.MpcConfig(q=[2.0, 0.5], r=[0.2], dt=0.15, horizon=3)
    refs = rng.standard_normal((4, 2))
    x0 = rng.standard_normal(2)
    u_star = mpc.mpc_step(oscillator, x0, refs, cfg, [0.0])[:, 0]

    # independent stationarity and local-optimality probes of the
    # rolled-out quadratic
    a, b = oscillator.jac(refs[0], [0.0])

    def rollout_cost(u_seq):
        x = x0.copy()
        cost = 0.0
        for i, u in enumerate(u_seq):
            x = x + cfg.dt * (a @ x + b @ [u])
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
    cfg = mpc.MpcConfig(q=[1.0], r=[0.0], dt=0.05, horizon=1,
                        u_lo=[-2.0], u_hi=[2.0])
    u_seq = mpc.mpc_step(SINGLE, [0.8], [[0.8], [0.0]], cfg, [0.0])
    assert u_seq[0, 0] == -2.0  # unconstrained answer is -16
    assert abs(rollout(SINGLE.f, [0.8], u_seq, cfg.dt)[0, 0] - (0.8 - 0.1)) < 1e-12


def test_zero_r_gets_ridge_and_solves():
    cfg = mpc.MpcConfig(q=[1.0, 1.0], r=[0.0], dt=0.1, horizon=2)
    u_seq = mpc.mpc_step(DOUBLE, [0.5, 0.0], np.zeros((3, 2)), cfg, [0.0])
    assert np.all(np.isfinite(u_seq))


def test_zero_r_ridge_tracks_problem_scale():
    # two redundant inputs give exactly collinear Hessian columns; large q
    # makes a fixed 1e-9 ridge vanish against the Hessian's scale, so the
    # ridge must grow with it
    pair = model(lambda x, u: np.array([x[1], u[0] + u[1]]),
                 [[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]])
    for scale in (1.0, 1e3):
        cfg = mpc.MpcConfig(q=[1e7 * scale, 1e5 * scale], r=[0.0, 0.0], dt=0.05, horizon=2)
        u_seq = mpc.mpc_step(pair, [0.5, 0.0], np.zeros((3, 2)), cfg, [0.0, 0.0])
        assert np.all(np.isfinite(u_seq))
        # min-norm tie break splits the redundant pair evenly
        assert np.allclose(u_seq[:, 0], u_seq[:, 1], rtol=1e-4)


def test_hessian_is_positive_definite_by_construction():
    # for any q >= 0, zeros included, and any r >= 0 the held Hessian is
    # M'QM + R, topped up by the ridge whenever r lies below it: its least
    # eigenvalue is at least the ridge, and every plan is finite
    rng = np.random.default_rng(28)
    for mdl, n in ((AFFINE, 1), (DOUBLE, 2), (SINGLE, 1)):
        for r in (0.0, 1e-20, 1e-3, 1e6):
            for horizon in range(1, 5):
                q = 10.0 ** rng.uniform(-3.0, 8.0, n) * (rng.random(n) < 0.5)
                cfg = mpc.MpcConfig(q=q, r=[r], dt=0.1, horizon=horizon)
                x_ref = rng.standard_normal((horizon + 1, n))
                u_seq = mpc.mpc_step(mdl, rng.standard_normal(n), x_ref, cfg, [0.0])
                assert np.all(np.isfinite(u_seq))
                _, m_mat, hess = cfg.condensed[1]
                bare = m_mat.T @ (cfg.qbar[:, None] * m_mat) + np.diag(cfg.rbar)
                ridge = max(1e-9, 1e-10 * np.max(np.abs(bare)))
                assert np.array_equal(hess, bare + ridge * np.eye(horizon) if r < ridge else bare)
                # eigvalsh's roundoff, ~1e-16 max|H|, is ~1e-6 of the ridge
                assert np.linalg.eigvalsh(hess)[0] >= ridge * (1.0 - 1e-3)


def test_u_lin_linearizes_every_stage():
    # xdot = u^2 about u_lin = 1 is x+ = x + dt (2u - 1) at each stage, so
    # the deadbeat plan up the ramp is u = 1 twice; about u = 0 the input
    # would have no effect at all
    quad = mpc.Model(lambda x, u: np.array([u[0] ** 2]),
                     lambda x, u: (np.zeros((1, 1)), np.array([[2.0 * u[0]]])))
    cfg = mpc.MpcConfig(q=[1.0], r=[0.0], dt=0.1, horizon=2)
    u_seq = mpc.mpc_step(quad, [0.0], [[0.0], [0.1], [0.2]], cfg, np.array([1.0]))
    assert np.max(np.abs(u_seq - 1.0)) < 1e-6
