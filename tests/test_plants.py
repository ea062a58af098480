import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import _oracles as orc
from robustroa import mpc, plants
from robustroa.clf_synth import ClfCertificate, ClfParams
from robustroa.harness import cli
from robustroa.harness.scenarios import DisturbancePolicy, load_scenario
from robustroa.mpc import MpcConfig


QP = plants.QuadcopterParams()


def hover_state():
    return np.zeros(6)


def hover_command():
    return np.array([QP.mass * QP.gravity, 0.0])


# -- quadcopter ----------------------------------------------------------------

def test_hover_is_equilibrium():
    xdot = plants.quadcopter_f(hover_state(), hover_command(), None, QP)
    assert np.max(np.abs(xdot)) < 1e-12


def test_quadcopter_linearization_matches_fd():
    model = plants.quadcopter_linearize(QP)

    def qf(x, u, w, p):
        return np.asarray(plants.quadcopter_f(x, u, w, p))

    x0, u0, w0 = hover_state(), hover_command(), np.zeros(2)
    step = 1e-6
    a_fd = np.zeros((6, 6))
    for j in range(6):
        dx = np.zeros(6)
        dx[j] = step
        a_fd[:, j] = (qf(x0 + dx, u0, w0, QP)
                      - qf(x0 - dx, u0, w0, QP)) / (2 * step)
    b_fd = np.zeros((6, 2))
    for j in range(2):
        du = np.zeros(2)
        du[j] = step
        b_fd[:, j] = (qf(x0, u0 + du, w0, QP)
                      - qf(x0, u0 - du, w0, QP)) / (2 * step)
    bw_fd = np.zeros((6, 2))
    for j in range(2):
        dw = np.zeros(2)
        dw[j] = step
        bw_fd[:, j] = (qf(x0, u0, w0 + dw, QP)
                       - qf(x0, u0, w0 - dw, QP)) / (2 * step)
    assert np.max(np.abs(model.a - a_fd)) < 1e-6
    assert np.max(np.abs(model.b - b_fd)) < 1e-6
    assert np.max(np.abs(model.b_w - bw_fd)) < 1e-6


def test_figure8_rest_to_rest():
    ref = plants.Figure8Ref()
    start, end = ref.state(0.0), ref.state(5.0)
    assert start.tolist() == [0.0, 0.5, 0.0, 0.0, 0.0, 0.0]
    assert abs(end[0] - 0.5 * math.sin(10.0)) < 1e-12
    assert abs(end[1] - 0.5 * math.cos(5.0)) < 1e-12
    assert max(abs(end[3]), abs(end[4])) < 1e-12
    # the acceleration at each end, by central differences of the velocities
    # (the clamp holds the state outside [0, t_end], so those are one-sided)
    h = 1e-6
    for t in (0.0, 5.0):
        acc = (ref.state(t + h)[3:5] - ref.state(t - h)[3:5]) / (2 * h)
        assert np.max(np.abs(acc)) < 1e-5
    # at rest outside [0, t_end]
    assert np.array_equal(ref.state(-0.2), start)
    assert np.array_equal(ref.state(7.0), end)


def test_figure8_derivative_consistency():
    # the velocities are the central differences of the positions
    ref = plants.Figure8Ref()
    h = 1e-5
    for t in np.linspace(0.2, 4.8, 17):
        diff = (ref.state(t + h)[:2] - ref.state(t - h)[:2]) / (2 * h)
        assert np.max(np.abs(diff - ref.state(t)[3:5])) < 1e-6


# -- quadruped -----------------------------------------------------------------

def test_quadruped_static_stand():
    p = plants.QuadrupedParams()
    plant = plants.QuadrupedPlant(p)
    # standing centered between the feet with the static split is an equilibrium
    mid = 0.5 * (plant.stance.foot_front[0] + plant.stance.foot_rear[0])
    x = np.array([mid, p.z_ref, 0.0, 0.0, 0.0, 0.0])
    xdot = plant.f(x, plant.trim_input(), None)
    assert np.max(np.abs(xdot)) < 1e-12


def test_added_mass_makes_stand_sag():
    p = plants.QuadrupedParams()
    plant = plants.QuadrupedPlant(p, delta_m=5.0)
    mid = 0.5 * (plant.stance.foot_front[0] + plant.stance.foot_rear[0])
    x = np.array([mid, p.z_ref, 0.0, 0.0, 0.0, 0.0])
    xdot = plant.f(x, plant.trim_input(), None)
    zdd_expect = p.mass * p.gravity / (p.mass + 5.0) - p.gravity
    assert xdot[4] < 0.0
    assert abs(xdot[4] - zdd_expect) < 1e-12


def test_quadruped_torque_cross_check():
    p = plants.QuadrupedParams()
    rng = np.random.default_rng(3)
    stance = plants.StanceState(foot_front=np.array([0.4, 0.0]),
                                foot_rear=np.array([0.1, 0.0]))
    for _ in range(10):
        x = rng.standard_normal(6) * 0.3 + np.array([0.25, 0.32, 0, 0, 0, 0])
        u = np.array([*rng.standard_normal(2), *rng.uniform(1.0, 40.0, 2)])
        xdot = plants.quadruped_dynamics(stance, p)(x, u)
        torque = 0.0
        for foot, fx, fz in ((stance.foot_front, u[0], u[2]),
                             (stance.foot_rear, u[1], u[3])):
            rx, rz = x[0] - foot[0], x[1] - foot[1]
            torque += rx * fz - rz * fx
        assert abs(xdot[5] - torque / p.inertia_xx) < 1e-10
        assert abs(xdot[3] - (u[0] + u[1]) / p.mass) < 1e-12
        assert abs(xdot[4] - ((u[2] + u[3]) / p.mass - p.gravity)) < 1e-12


def test_model_jacobians_match_central_differences():
    # the controller models' analytic Jacobians against orc.linearize_fd,
    # over two stances and off-hover quadcopter states; one quadcopter
    # model serves every case
    p = plants.QuadrupedParams()
    walker = plants.QuadrupedPlant(p)
    walker.advance(0.0, [-0.37, 0.3, 0.0, 0.0, 0.0, 0.0])
    stances = [walker.stance]
    walker.advance(p.step_time, [-0.2, 0.3, 0.0, 0.0, 0.0, 0.0])
    stances.append(walker.stance)
    x_neg = [-0.41, 0.29, -0.03, -0.12, -0.02, -0.4]
    x_pos = [0.39, 0.29, 0.02, 0.48, -0.02, -0.4]
    u_stance = [-3.5, 2.0, 70.0, 52.0]
    cases = [("quadruped-1-nominal", walker.nominal_f(), x_pos, walker.trim_input())]
    for i, s in enumerate(stances):
        cases += [(f"quadruped-{i}-{side}", plants.quadruped_model(s, p), x0, u_stance)
                  for side, x0 in (("behind", x_neg), ("ahead", x_pos))]
    copter = plants.QuadcopterPlant(QP).nominal_f()
    for x0, u0 in (([0.3, -0.45, 0.2, -0.6, 0.35, -1.1], [11.3, -0.7]),
                   ([0.0, 0.0, -1.1, 0.0, 0.0, 0.0], [11.3, -0.7]),
                   ([0.0, 0.0, 2.5, 0.2, 0.0, 0.0], [4.0, 0.3]),
                   (hover_state(), hover_command())):
        cases.append((f"quadcopter-phi-{x0[2]}", copter, x0, u0))
    for name, model, x0, u0 in cases:
        x0, u0 = np.asarray(x0, dtype=float), np.asarray(u0, dtype=float)
        a, b, g0 = mpc.linearize(model, x0, u0)
        a_fd, b_fd, _ = orc.linearize_fd(model.f, x0, u0)
        for got, want in ((a, a_fd), (b, b_fd)):
            assert got.shape == want.shape, name
            assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want)), name
        f0 = np.asarray(model.f(x0.tolist(), u0.tolist()))
        assert np.max(np.abs(a @ x0 + b @ u0 + g0 - f0)) <= 1e-14 * np.max(np.abs(f0) + 1.0), name


def test_sanitize_projects_into_friction_cone():
    plant = plants.QuadrupedPlant(plants.QuadrupedParams(friction_coeff=0.6))
    u, clamps = plant.sanitize([10.0, -10.0, 5.0, -3.0])
    assert clamps == 3
    assert u[2] == 5.0 and u[3] == 0.0
    assert u[0] == 0.6 * 5.0 and u[1] == 0.0
    u2, c2 = plant.sanitize([1.0, -1.0, 30.0, 30.0])
    assert c2 == 0 and np.allclose(u2, [1.0, -1.0, 30.0, 30.0])


def test_stance_replaced_around_the_body_every_step_time():
    # the first advance places the stance around the body, wherever it is,
    # and each step_time places a new one around x[0] then; the feet
    # straddle the predicted mid-step body position, not the current one
    p = plants.QuadrupedParams()
    plant = plants.QuadrupedPlant(p)
    lead = 0.5 * p.v_ref * p.step_time

    def feet(y):
        return (y + lead + p.step_offset, 0.0), (y + lead - p.step_offset, 0.0)

    x = [0.0, p.z_ref, 0.0, 0.0, 0.0, 0.0]
    u = [1.0, -2.0, 60.0, 70.0]
    placed = []
    for t, y in ((0.0, -0.7), (0.1, 0.2), (p.step_time, 0.3), (0.4, 0.5),
                 (2 * p.step_time, 0.6), (3 * p.step_time - 1e-13, 0.8)):
        x[0] = y
        plant.advance(t, x)
        placed.append((plant.stance.foot_front, plant.stance.foot_rear))
        # the true dynamics and the controller's model act on that stance
        want = plants.quadruped_dynamics(plant.stance, p)(x, u)
        assert plant.f(x, u) == plant.nominal_f().f(x, u) == want
    assert placed == [feet(-0.7), feet(-0.7), feet(0.3), feet(0.3), feet(0.6), feet(0.8)]


def test_axis_linear_model():
    p = plants.QuadrupedParams()
    m = plants.quadruped_axis_linear(p)
    assert np.allclose(m.a, [[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(m.b, [[0.0], [1.0 / p.mass]])
    assert np.allclose(m.b_w, [[0.0], [1.0]])


def test_stance_allocation_torque_free():
    p = plants.QuadrupedParams()
    plant = plants.QuadrupedPlant(p)
    x = np.zeros(6)
    x[0] = 0.04
    x[1] = p.z_ref
    rng = np.random.default_rng(11)
    for _ in range(20):
        wrench = rng.normal(size=3)
        wrench[2] = 0.0
        du = plants.stance_allocation(x, plant.stance, wrench)
        assert len(du) == 4
        rf = plant.stance.foot_front - x[:2]
        rr = plant.stance.foot_rear - x[:2]
        # recomposed net force and moment match the request exactly
        assert abs(du[0] + du[1] - wrench[0]) < 1e-9
        assert abs(du[2] + du[3] - wrench[1]) < 1e-9
        tau = -rf[1] * du[0] - rr[1] * du[1] + rf[0] * du[2] + rr[0] * du[3]
        assert abs(tau) < 1e-9


def test_stance_allocation_matches_pinv():
    # the closed form against the SVD pseudo-inverse of the wrench map
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(2000):
        x = np.zeros(6)
        x[:2] = rng.uniform(-1.0, 1.0, 2)
        mid = rng.uniform(-1.0, 1.0, 2)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        gap = rng.uniform(0.01, 0.5) * np.array([math.cos(ang), math.sin(ang)])
        front, rear = mid + 0.5 * gap, mid - 0.5 * gap
        stance = plants.StanceState(foot_front=front, foot_rear=rear)
        wrench = rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 3.0, 3)
        rf, rr = x[:2] - front, x[:2] - rear
        a = np.array([[1.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 1.0],
                      [-rf[1], -rr[1], rf[0], rr[0]]])
        want = np.linalg.pinv(a) @ wrench
        got = plants.stance_allocation(x, stance, wrench)
        worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    assert worst < 1e-12


class _Origin6Ref:
    def state(self, t):
        return np.zeros(6)


def test_tracking_controller_callable_gain():
    p = plants.QuadcopterParams()
    plant = plants.QuadcopterPlant(p)
    ref = _Origin6Ref()
    cfg = MpcConfig(dt=0.05, horizon=2,
                    q=np.full(6, 1.0), r=np.full(2, 1e-3),
                    u_lo=np.array([-200.0, -200.0]),
                    u_hi=np.array([200.0, 200.0]))
    seen = []

    def extra(x, e):
        seen.append((list(x), e.tolist()))
        return np.array([0.25, 0.0])

    ctl = plants.TrackingController(plant, ref, cfg, feedback=extra)
    x = np.zeros(6)
    base = plants.TrackingController(plant, ref, cfg)
    u_plain = base.control(0.0, x.copy(), ref.state(0.0))
    u_aug = ctl.control(0.0, x.copy(), ref.state(0.0))
    assert seen == [([0.0] * 6, [0.0] * 6)]
    assert np.allclose(np.subtract(u_aug, u_plain), [0.25, 0.0])


def test_subsystem_error_dynamics_endpoints():
    p = plants.QuadrupedParams()
    dyn = plants.subsystem_error_dynamics("z", p, u_lo=0.0, u_hi=400.0,
                                          delta_m_interval=(0.0, 5.0))
    assert dyn.uncertain_params == (0.0, 5.0)
    x1 = np.array([0.1, -0.2])
    x2 = np.array([0.0, 0.3])
    d1, d2 = dyn.drift(x1, x2, 0.0)
    assert np.allclose(d1, x2) and np.allclose(d2, -p.gravity)
    (gain, (lo, hi)), = dyn.control_terms
    g1, g2 = gain(x1, x2, 5.0)
    assert np.allclose(g1, 0.0) and np.allclose(g2, 1.0 / (p.mass + 5.0))
    assert (lo, hi) == (0.0, 400.0)

    dyn_y = plants.subsystem_error_dynamics("y", p, -150.0, 150.0, (0.0, 5.0), drag_force=30.0)
    _, dy2 = dyn_y.drift(x1, x2, 5.0)
    assert np.allclose(dy2, -30.0 / (p.mass + 5.0))
    with pytest.raises(ValueError):
        plants.subsystem_error_dynamics("q", p, 0.0, 1.0, (0.0, 5.0))


def test_trot_reference():
    ref = plants.TrotRef(y0=0.2, z_ref=0.32, v_ref=0.45)
    assert np.allclose(ref.state(2.0), [0.2 + 0.9, 0.32, 0.0, 0.45, 0.0, 0.0])
    assert np.array_equal(ref.state(-1.0), ref.state(0.0))


# -- integrator and helpers ----------------------------------------------------

def test_rk4_is_fourth_order():
    # three oscillators, position i driven by rate i + 3: p'' = -omega^2 p
    omega = (1.0, 2.0, 0.5)
    f = lambda x, u, w: [x[3], x[4], x[5], -x[0], -4.0 * x[1], -0.25 * x[2]]
    x0 = [1.0, -0.5, 2.0, 0.3, 1.5, -0.8]

    def exact(t):
        pos = [p * math.cos(om * t) + v / om * math.sin(om * t)
               for p, v, om in zip(x0[:3], x0[3:], omega)]
        vel = [-p * om * math.sin(om * t) + v * math.cos(om * t)
               for p, v, om in zip(x0[:3], x0[3:], omega)]
        return pos + vel

    err = []
    for dt in (0.1, 0.05):
        x = plants.rk4_step(f, list(x0), None, None, dt)
        err.append(max(abs(a - b) for a, b in zip(x, exact(dt))))
    ratio = err[0] / err[1]
    assert 24.0 < ratio < 40.0  # local error scales as dt^5: ratio ~ 32


@pytest.mark.parametrize("rate, coord", [(math.nan, 3), (-math.inf, 4), (1e6, 0)],
                         ids=["nan", "inf", "past-blowup"])
def test_loop_stops_at_the_first_state_it_cannot_keep(rate, coord):
    # still until the kick at t = 0.3, whose step drives one coordinate NaN,
    # to -inf or to 1e5 > blowup: the run is diverged and its stored arrays
    # end at the kick's sample, the last state that passed the test
    kick = _KickPlant(0.3, rate, coord)
    x0 = [0.5, -0.25, 0.0, 1.0, 0.0, 2.0]
    traj = plants.simulate_closed_loop(kick, _ZeroCtrl(), _OriginRef(), None, duration=1.0,
                                       dt=0.1, x0=x0)
    assert traj.diverged
    assert len(traj.t) == len(traj.x) == len(traj.u) == len(traj.w) == 4
    assert traj.t[-1] == 3 * 0.1
    assert traj.x.tolist() == [x0] * 4
    # the same plant without the kick runs to the end
    traj = plants.simulate_closed_loop(_KickPlant(2.0, rate, coord), _ZeroCtrl(), _OriginRef(),
                                       None, duration=1.0, dt=0.1, x0=x0)
    assert not traj.diverged and len(traj.t) == 11


def test_worst_constant_disturbance_maximizes_energy():
    from robustroa.clf_synth import LinearModel

    model = LinearModel(a=np.array([[0.0, 1.0], [0.0, 0.0]]),
                        b=np.array([[0.0], [1.0]]),
                        b_w=np.array([[1.0, 0.3], [0.0, 1.0]]))
    params = ClfParams(q=[1.0, 1.0], r=[0.1], decay_rate=0.5, dist_weight=0.1)
    k = np.array([[-2.0, -3.0]])
    acl = model.a + model.b @ k
    assert np.max(np.linalg.eigvals(acl).real) < 0.0
    p_lyap = np.array([[2.0, 0.5], [0.5, 1.0]])
    cert = ClfCertificate(k=k, p=p_lyap, params=params)
    w_star = plants.worst_constant_disturbance(cert, model, 3.5)
    assert abs(np.linalg.norm(w_star) - 3.5) < 1e-9

    def steady_energy(w):
        e_ss = np.linalg.solve(acl, -model.b_w @ w)
        return e_ss @ p_lyap @ e_ss

    best = steady_energy(w_star)
    rng = np.random.default_rng(11)
    for _ in range(100):
        v = rng.standard_normal(2)
        assert steady_energy(3.5 * v / np.linalg.norm(v)) <= best * (1 + 1e-9)


def float_list(w):
    return type(w) is list and all(type(v) is float for v in w)


def test_disturbance_policies():
    # each policy hands back a list of Python floats, which the loop stores as is
    sin = plants.SinusoidalDisturbance(3.5, freq=0.5)
    for t in np.linspace(0.0, 4.0, 23):
        assert float_list(sin(t))
        assert abs(np.linalg.norm(sin(t)) - 3.5) < 1e-12
    ra = plants.RandomDisturbance(2.0, seed=7, hold_time=0.05)
    rb = plants.RandomDisturbance(2.0, seed=7, hold_time=0.05)
    ts = np.arange(0.0, 0.5, 0.01)
    draws = [ra(t) for t in ts]
    assert all(map(float_list, draws))
    wa, wb = np.array(draws), np.array([rb(t) for t in ts])
    assert np.array_equal(wa, wb)
    assert np.all(np.linalg.norm(wa, axis=1) <= 2.0 + 1e-12)
    # constant within each hold window, and not one constant overall
    assert np.array_equal(wa[0], wa[4])
    assert not np.array_equal(wa[0], wa[5])
    const = plants.ConstantDisturbance(np.array([0.3, -0.1]))  # as the worst-case w comes
    assert float_list(const(0.0)) and const(0.0) == const(9.9) == [0.3, -0.1]


# -- closed loop ---------------------------------------------------------------

@pytest.fixture
def mpc_solves(monkeypatch):
    """A list that gains one entry per plants.mpc_step call: the MPC solves
    the controllers make, counted where the benchmark tracer counts them."""
    solves = []
    solve = plants.mpc_step

    def counting(*args):
        solves.append(None)
        return solve(*args)

    monkeypatch.setattr(plants, "mpc_step", counting)
    return solves


class _HoverRef:
    def state(self, t):
        return np.zeros(6)


def test_simulated_hover_stays_put(mpc_solves):
    plant = plants.QuadcopterPlant(QP)
    cfg = MpcConfig(q=[100.0, 100.0, 10.0, 10.0, 10.0, 1.0], r=[1e-4, 1e-4],
                    dt=0.05, horizon=2)
    ref = _HoverRef()
    ctrl = plants.TrackingController(plant, ref, cfg)
    mon = plants.LyapunovMonitor(name="E", p=np.eye(6), level=10.0)
    traj = plants.simulate_closed_loop(plant, ctrl, ref, None, duration=0.5,
                                       dt=0.001, monitors=[mon])
    assert not traj.diverged
    assert traj.t.shape == (501,)
    assert traj.x.shape == (501, 6)
    # the r-weight trades a ~1e-5 sag for cheaper thrust; no drift beyond that
    assert np.max(np.abs(traj.x)) < 1e-4
    assert traj.invariant_exits == (0,)
    assert len(mpc_solves) == 11  # ticks at 0.00, 0.05, ..., 0.50


def test_controller_tick_and_ancillary_gain(mpc_solves):
    plant = plants.QuadcopterPlant(QP)
    cfg = MpcConfig(q=np.full(6, 1.0), r=[1e-4, 1e-4], dt=0.05, horizon=2)
    k_gain = np.array([[0.0, -2.0, 0.0], [0.0, 0.0, 0.0]])
    ctrl = plants.TrackingController(
        plant, _HoverRef(), cfg,
        feedback=lambda x, e: k_gain @ e[[1, 4, 2]])
    x = np.zeros(6)
    x[4] = 0.1  # vertical-rate error feeds thrust through the gain
    x_ref = np.zeros(6)
    u0 = ctrl.control(0.0, x, x_ref)
    assert len(mpc_solves) == 1
    u1 = ctrl.control(0.01, x, x_ref)
    assert len(mpc_solves) == 1  # inside the tick: feedforward reused
    assert np.allclose(u0, u1)
    assert abs((u0[0] - ctrl._u_bar[0]) + 2.0 * 0.1) < 1e-12
    ctrl.control(0.05, x, x_ref)
    assert len(mpc_solves) == 2


class _DriftPlant:
    n_states = 6
    n_controls = 1
    n_dist = 0

    def f(self, x, u, w):
        return np.asarray(x, dtype=float)

    def advance(self, t, x):
        pass

    def sanitize(self, u):
        return u, 0


class _ZeroCtrl:
    def control(self, t, x, x_ref):
        return np.zeros(1)


class _OriginRef:
    def state(self, t):
        return np.zeros(6)


class _StillPlant(_DriftPlant):
    def f(self, x, u, w):
        return [0.0] * len(x)


class _KickPlant(_StillPlant):
    """Still until kick_time; from the step that starts there on, x[coord]
    moves at `rate`."""

    def __init__(self, kick_time, rate, coord):
        self.kick_time, self.rate, self.coord = kick_time, rate, coord
        self.xdot = [0.0] * 6

    def advance(self, t, x):
        self.xdot[self.coord] = self.rate if t >= self.kick_time else 0.0

    def f(self, x, u, w):
        return self.xdot


class _FixedRef:
    def __init__(self, x):
        self.x = x

    def state(self, t):
        return self.x


def test_lyapunov_monitor_subindexing():
    # the loop holds x still, so every sample has the same error e
    z = plants.LyapunovMonitor(name="z", p=np.array([[2.0, 0.5], [0.5, 1.0]]),
                               level=1.0, state_idx=np.array([1, 4]))
    y = plants.LyapunovMonitor(name="y", p=np.eye(1), level=100.0,
                               state_idx=np.array([0]))
    x_ref = np.array([1.0, 0.0, -2.0, 5.0, 0.0, 3.0])
    e = np.array([9.0, 0.3, 9.0, 9.0, -0.2, 9.0])
    traj = plants.simulate_closed_loop(_StillPlant(), _ZeroCtrl(), _FixedRef(x_ref),
                                       None, duration=0.3, dt=0.1, x0=x_ref + e,
                                       monitors=[z, y])
    expect = 2.0 * 0.3**2 + 2 * 0.5 * 0.3 * -0.2 + 1.0 * 0.2**2
    assert traj.e_lyap.shape == (4, 2)
    assert np.all(np.abs(traj.e_lyap[:, 0] - expect) < 1e-14)
    assert np.array_equal(traj.e_lyap[:, 1], np.full(4, 81.0))
    # both energies sit below their levels, until z's level drops below 0.16
    assert traj.invariant_exits == (0, 0)
    z.level = 0.1
    traj = plants.simulate_closed_loop(_StillPlant(), _ZeroCtrl(), _FixedRef(x_ref),
                                       None, duration=0.3, dt=0.1, x0=x_ref + e,
                                       monitors=[z, y])
    assert traj.invariant_exits == (4, 0)


def test_blowup_stops_early():
    traj = plants.simulate_closed_loop(_DriftPlant(), _ZeroCtrl(), _OriginRef(),
                                       None, duration=20.0, dt=0.1,
                                       x0=[1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert traj.diverged
    assert len(traj.t) < 201
    assert np.max(np.abs(traj.x)) < 1e4 * math.e


def test_negative_duration_raises():
    with pytest.raises(ValueError, match="no samples"):
        plants.simulate_closed_loop(_DriftPlant(), _ZeroCtrl(), _OriginRef(), None,
                                    duration=-1.0, dt=0.1, x0=[1.0])


def test_trajectory_csv_roundtrip(tmp_path):
    mon = plants.LyapunovMonitor(name="E", p=np.eye(1), level=4.0,
                                 state_idx=np.array([0]))
    traj = plants.simulate_closed_loop(_DriftPlant(), _ZeroCtrl(), _OriginRef(),
                                       None, duration=1.0, dt=0.25,
                                       x0=[0.5, 0.0, 0.0, 0.0, 0.0, 0.0], monitors=[mon])
    path = tmp_path / "run.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ("t,x1,x2,x3,x4,x5,x6,xref1,xref2,xref3,xref4,xref5,xref6,"
                        "u1,w1,E,roa_level")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert data.shape == (5, 17)
    assert np.array_equal(data[:, 0], traj.t)
    assert np.array_equal(data[:, 1], traj.x[:, 0])
    assert np.array_equal(data[:, 15], traj.e_lyap[:, 0])
    assert np.all(data[:, 16] == 4.0)


def random_trajectory(n, monitor_names=("y", "z")):
    """A Trajectory of n samples whose values span float64's exponents,
    with -0.0, NaN and inf among them."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
    x[0, 0], x[1, 1], x[2, 2], x[6, 0] = -0.0, np.nan, np.inf, -np.nan
    m = len(monitor_names)
    return plants.Trajectory(
        t=np.arange(n) * 1e-3, x=x, x_ref=rng.standard_normal((n, 3)),
        u=rng.standard_normal((n, 2)), w=np.full((n, 1), -0.0),
        e_lyap=rng.standard_normal((n, m)) ** 2, monitor_names=monitor_names,
        levels=(0.1, 4)[:m], diverged=False, invariant_exits=(0,) * m, clamp_events=0)


@pytest.mark.parametrize("n, k", [(40, 1), (640, 1), (642, 2), (1281, 3), (5001, 8),
                                  (10001, 16)])
def test_trajectory_csv_is_the_record_at_stride(tmp_path, n, k):
    # every k-th sample, k = ceil(n / CSV_ROWS), from the first, and the
    # last one, each value formatted with repr on its own, under the
    # header of the whole run
    assert -(-n // plants.CSV_ROWS) == k
    traj = random_trajectory(n)
    path = tmp_path / "run.csv"
    traj.to_csv(path)
    header, rows = path.read_text().split("\n", 1)
    assert header == "t,x1,x2,x3,xref1,xref2,xref3,u1,u2,w1,E_y,roa_level_y,E_z,roa_level_z"
    assert rows == orc.trajectory_csv_rows(traj, k)
    last = np.r_[traj.t[-1], traj.x[-1], traj.x_ref[-1], traj.u[-1], traj.w[-1],
                 traj.e_lyap[-1, 0], 0.1, traj.e_lyap[-1, 1], 4.0]
    assert rows.splitlines()[-1] == ",".join(map(repr, last.tolist()))
    assert rows.count("\n") == len(set(range(0, n, k)) | {n - 1}) <= plants.CSV_ROWS + 1


RECORD = ("t", "x", "x_ref", "u", "w", "e_lyap", "levels", "monitor_names")


@pytest.mark.parametrize("monitor_names", [("y", "z"), ("E",), ()])
def test_trajectory_record_roundtrips_bit_for_bit(tmp_path, monitor_names):
    # every sample's bits, -0.0 and NaN payloads included, read back
    # without pickle
    traj = random_trajectory(300, monitor_names)
    traj.x[5, 1] = np.array([0x7FF8000000000001]).view(float)[0]
    traj.save(tmp_path / "run.npz")
    with np.load(tmp_path / "run.npz", allow_pickle=False) as rec:
        assert sorted(rec.files) == sorted(RECORD)
        for name in RECORD[:6]:
            a, b = rec[name], getattr(traj, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert rec["levels"].dtype == float
        assert tuple(rec["levels"].tolist()) == traj.levels
        assert rec["monitor_names"].dtype.kind == "U"
        assert tuple(rec["monitor_names"].tolist()) == monitor_names


# -- bundled scenarios against the per-sample reference loop --------------------

@pytest.fixture(scope="module")
def certified():
    """Scenario and stage results of each bundled plant: certificates at
    the quadcopter's configured bound and at the quadruped's certified
    ones; the quadruped carries a payload and pushes against drag."""
    copter = load_scenario(orc.CONFIGS / "quadcopter_fig8.cfg")
    walker = load_scenario(orc.CONFIGS / "quadruped_push.cfg")
    walker.delta_m = 5.0
    return {"quadcopter": (copter, cli._run_stages(copter, ("synthesize", "bound"))),
            "quadruped": (walker, cli._run_stages(walker, ("synthesize", "solve", "bound")))}


def closed_loop(certified, plant, mode, duration=2.0, **edits):
    """Fresh (args, kwargs) of simulate_closed_loop for a bundled scenario,
    its fields replaced by `edits`."""
    scn, run = certified[plant]
    scn = dataclasses.replace(scn, **edits)
    if plant == "quadcopter":
        sim, controller, monitors, dist = cli._build_quadcopter_sim(scn, run, mode)
    else:
        sim, controller, monitors, dist = cli._build_quadruped_sim(scn, run, mode)
    return ((sim, controller, scn.reference, dist),
            {"duration": duration, "dt": scn.sim_dt, "monitors": monitors})


CLOSED_LOOPS = {
    "quadcopter-worst-nominal": ("quadcopter", "nominal", {}),
    "quadcopter-worst-robust": ("quadcopter", "robust", {}),
    "quadcopter-random": ("quadcopter", "robust",
                          {"seed": 5, "disturbance": DisturbancePolicy(kind="random", w_max=3.5)}),
    "quadruped-robust": ("quadruped", "robust", {}),
    "quadruped-nominal": ("quadruped", "nominal", {}),
    # a push of 1e6 m/s^2 drives the lateral rate past plants.BLOWUP within 0.011 s
    "quadcopter-blowup": ("quadcopter", "nominal",
                          {"disturbance": DisturbancePolicy(kind="constant", w=(1e6, 0.0))}),
    # the first stage sum overflows: non-finite on the first step
    "quadcopter-nonfinite": ("quadcopter", "robust",
                             {"disturbance": DisturbancePolicy(kind="constant", w=(1e308, 0.0))}),
}


def assert_energy_close(got, want):
    """Entry by entry within 1e-14 of want, relative; equal values pass,
    infinities included."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    with np.errstate(invalid="ignore"):
        close = np.abs(got - want) <= 1e-14 * np.abs(want)
    assert np.all((got == want) | close)


@pytest.mark.parametrize("case", sorted(CLOSED_LOOPS))
def test_closed_loop_bitwise_matches_per_sample_reference(certified, case, tmp_path,
                                                          mpc_solves):
    # every field keeps its bits except the energy, which is evaluated after
    # the loop in one vectorized expression instead of one row at a time
    plant, mode, edits = CLOSED_LOOPS[case]
    with np.errstate(over="ignore"):
        args, kwargs = closed_loop(certified, plant, mode, **edits)
        want = orc.simulate_closed_loop(*args, **kwargs)
        args, kwargs = closed_loop(certified, plant, mode, **edits)
        got = plants.simulate_closed_loop(*args, **kwargs)
    assert mpc_solves  # the oracle solves through mpc.mpc_step, uncounted
    if case.endswith(("blowup", "nonfinite")):
        assert want.diverged and len(want.t) < 250
    else:
        assert not want.diverged and len(want.t) == 2001
    for name in ("t", "x", "x_ref", "u", "w"):
        a, b = getattr(got, name), getattr(want, name)
        # bytes, so a zero of the other sign fails too
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert got.e_lyap.dtype == want.e_lyap.dtype
    assert_energy_close(got.e_lyap, want.e_lyap)
    for name in ("monitor_names", "levels", "diverged", "invariant_exits", "clamp_events"):
        assert getattr(got, name) == getattr(want, name), name
    # and the exact record the CLI writes holds those arrays
    got.save(tmp_path / "got.npz")
    with np.load(tmp_path / "got.npz", allow_pickle=False) as rec:
        for name in ("t", "x", "x_ref", "u", "w"):
            assert np.array_equal(rec[name], getattr(want, name)), name
        assert_energy_close(rec["e_lyap"], want.e_lyap)
        assert np.array_equal(rec["levels"], want.levels)
        assert tuple(rec["monitor_names"].tolist()) == want.monitor_names


def test_quadruped_ancillary_bitwise_matches_matmul_allocation(certified):
    # the CLI's robust feedback against k @ e[idx] per axis and the stance
    # allocation, over many stances; the closed-loop oracle calls the
    # controller's own feedback, so it cannot see a change in this rounding
    scn, run = certified["quadruped"]
    (plant, controller, _, _), _ = closed_loop(certified, "quadruped", "robust")
    gains = {axis: np.asarray(run.certs[axis][0].k)[0] for axis in ("y", "z")}
    rng = np.random.default_rng(17)
    for i in range(2000):
        if i % 50 == 0:
            plant.advance(plant._next_switch, [rng.uniform(-2.0, 2.0), 0.3, 0, 0, 0, 0])
        x = (np.array([0.0, 0.32, 0.0, 0.45, 0.0, 0.0])
             + rng.normal(size=6) * 10.0 ** rng.uniform(-4.0, 0.0, 6)).tolist()
        e = rng.normal(size=6) * 10.0 ** rng.uniform(-6.0, 1.0, 6)
        wrench = [0.0, 0.0, 0.0]
        for axis, layout in plants.QuadrupedPlant.axes.items():
            wrench[layout.wrench_row] = float(gains[axis] @ e[list(layout.states)])
        want = np.array(plants.stance_allocation(x, plant.stance, wrench), dtype=float)
        got = controller.feedback(x, e)
        assert type(got) is list and all(type(v) is float for v in got)
        assert np.array(got).tobytes() == want.tobytes()


def test_fig3_robust_run_condenses_once(certified, monkeypatch):
    # counts, not times: along the figure-8 the stage Jacobians never move,
    # so the condensed Hessian is built once per run, and each solve
    # evaluates f once per stage, for the affine remainder only
    counts = {"condense": 0, "nominal_f": 0}
    condense = mpc._condense

    def counting_condense(*args):
        counts["condense"] += 1
        return condense(*args)

    dynamics = plants.quadcopter_f

    def quadcopter_f(x, u, w, p):
        counts["nominal_f"] += w is None
        return dynamics(x, u, w, p)

    monkeypatch.setattr(mpc, "_condense", counting_condense)
    monkeypatch.setattr(plants, "quadcopter_f", quadcopter_f)
    solve = plants.mpc_step
    per_solve = []

    def mpc_step(*args):
        before = counts["nominal_f"]
        plan = solve(*args)
        per_solve.append(counts["nominal_f"] - before)
        return plan

    monkeypatch.setattr(plants, "mpc_step", mpc_step)
    scn = certified["quadcopter"][0]
    # a config of its own, so no condensation is held from another test
    args, kwargs = closed_loop(certified, "quadcopter", "robust", duration=scn.duration,
                               mpc=dataclasses.replace(scn.mpc))
    traj = plants.simulate_closed_loop(*args, **kwargs)
    assert len(traj.t) == 5001 and len(per_solve) == 101
    assert per_solve == [scn.mpc.horizon] * 101
    assert counts == {"condense": 1, "nominal_f": 101 * scn.mpc.horizon}


@pytest.mark.parametrize("plant", ["quadcopter", "quadruped"])
@pytest.mark.parametrize("mode", ["nominal", "robust"])
def test_simulation_reads_the_scenarios_one_reference(certified, monkeypatch, plant, mode):
    # the loader builds the reference once: the controller and the loop of
    # every run get that object, and the controller linearizes about the
    # plant's trim input
    scn, run = certified[plant]
    seen = []
    simulate = plants.simulate_closed_loop

    def spy(sim, controller, reference, *args, **kwargs):
        seen.append((controller.reference, reference))
        assert controller.u_lin.tobytes() == sim.trim_input().tobytes()
        return simulate(sim, controller, reference, *args, **kwargs)

    monkeypatch.setattr(plants, "simulate_closed_loop", spy)
    cli._simulate(dataclasses.replace(scn, duration=0.01), run, mode)
    assert len(seen) == 1 and all(ref is scn.reference for ref in seen[0])


def test_reference_evaluated_once_per_sample(certified, mpc_solves):
    # the loop hands its x_ref to the controller; only a tick asks for more
    (plant, controller, reference, dist), kwargs = closed_loop(certified, "quadruped", "robust")
    times = []

    class Counting:
        def state(self, t):
            times.append(t)
            return reference.state(t)

    controller.reference = Counting()
    traj = plants.simulate_closed_loop(plant, controller, controller.reference, dist, **kwargs)
    assert len(mpc_solves) == 41
    assert len(times) == len(traj.t) + len(mpc_solves) * controller.cfg.horizon


def test_nan_command_diverges_as_under_array_clip(certified):
    # a NaN correction must survive the u_lo / u_hi clip, as it does under
    # np.maximum / np.minimum, and stop the run as non-finite
    def nan_from_sample(first):
        # the loop asks for one command per sample, so the count is the time
        calls = []

        def feedback(x, e):
            calls.append(None)
            return [math.nan if len(calls) > first else 0.0, 0.0, 0.0, 0.0]

        return feedback

    runs = []
    for simulate in (orc.simulate_closed_loop, plants.simulate_closed_loop):
        args, kwargs = closed_loop(certified, "quadruped", "nominal")
        assert args[1].cfg.u_lo is not None and args[1].cfg.u_hi is not None
        assert args[1].feedback is None
        args[1].feedback = nan_from_sample(100)  # t >= 0.1 at dt = 1 ms
        runs.append(simulate(*args, **kwargs))
    want, got = runs
    assert want.diverged and got.diverged
    assert len(got.t) == 101 and math.isnan(got.u[-1, 0])
    for name in ("t", "x", "x_ref", "u", "w"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def test_closed_loop_memory_is_its_output(certified, tmp_path):
    # peak Python/numpy allocation of the whole 10 s robust run, then of
    # its record and of its CSV
    args, kwargs = closed_loop(certified, "quadruped", "robust", duration=10.0)

    def peak(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traj, sim_peak = peak(plants.simulate_closed_loop, *args, **kwargs)
    _, record_peak = peak(traj.save, tmp_path / "run.npz")
    _, csv_peak = peak(traj.to_csv, tmp_path / "run.csv")
    assert len(traj.t) == 10001
    arrays = (traj.t, traj.x, traj.x_ref, traj.u, traj.w, traj.e_lyap)
    returned = sum(a.nbytes for a in arrays)
    # a loop keeping each sample as small arrays in lists peaks near 6x this
    assert sim_peak < 1.5 * returned
    # each array is written as it is held, never the whole table stacked
    assert record_peak < max(a.nbytes for a in arrays) + 100_000 < returned
    assert csv_peak < 1_000_000
