"""Vehicle models, references, disturbance policies, closed-loop simulation.

Two plants share the state layout x = [y, z, phi, ydot, zdot, phidot]
(lateral position, height, pitch, and their rates):

* planar quadcopter: controls are total thrust u_s and thrust difference
  u_d; bounded accelerations (w1, w2) push the lateral / vertical axes,
* planar quadruped stand-in: a trotting point mass with rotational
  inertia, controls are the ground-reaction forces of the front and rear
  stance feet (fx_f, fx_r, fz_f, fz_r); the "disturbances" are an unknown
  added mass and an optional horizontal drag force (pushing a box), which
  act through the plant parameters rather than an additive channel.

A plant provides f(x, u, w), the true dynamics that rk4_step integrates
directly; nominal_f(), the disturbance-free mpc.Model (dynamics and their
analytic Jacobians) the MPC plans with; trim_input(), the input every MPC
stage linearizes about; sanitize(u) -> (u, clamps); and advance(t, x),
which every step_time re-places the quadruped's stance around the body and
binds its feet and constants into its f and its model, so an evaluation
only unpacks x and u.

The simulator runs classical RK4 at a fixed dt with a zero-order-hold
tracking controller: the nominal MPC plan, recomputed on its own slower
period, plus one ancillary feedback(x, e) every step.  Each sample does
only causal work, on Python floats: the reference's state(t), clamped to
its time domain, is evaluated once and handed to the controller, the
command is clipped and sanitized as a float list, so are the disturbance
policies' w, and rk4_step takes and returns float lists, written out over
the six coordinates (no zip or comprehension; the same sums in the same
order as the vector form).  One test per step ends a diverged run: |x_i| <=
BLOWUP (1e4), which NaN and inf fail.  Numpy enters a step only for the
feedback's gain products, kept as numpy dots for their rounding (the
feedback hands back a float list), and for the MPC solve on its tick.
The loop packs each sample into output arrays allocated once, sized from
the first sample.  The certificate energy E = e' P e of each monitor, and
its invariant exits, are computed after the loop from the stored
x - x_ref, one vectorized expression per monitor.
"""

from __future__ import annotations

import math
import struct
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import matrixkit as mk
from .clf_synth import ClfCertificate, LinearModel
from .hj_reach import AffineDynamics2
from .mpc import Model, MpcConfig, mpc_step


# -- quadcopter ---------------------------------------------------------------

@dataclass
class QuadcopterParams:
    mass: float = 1.0
    arm_length: float = 0.2
    inertia_xx: float = 0.1
    gravity: float = 9.81


def quadcopter_f(x, u, w, p: QuadcopterParams):
    """Planar quadcopter dynamics.

    ydot'   = -u_s sin(phi) / m + w1
    zdot'   =  u_s cos(phi) / m - g + w2
    phidot' =  (l / 2) u_d / I_xx
    """
    _, _, phi, ydot, zdot, phidot = x
    u_s, u_d = u
    w1, w2 = (0.0, 0.0) if w is None else w
    return (
        ydot,
        zdot,
        phidot,
        -u_s * math.sin(phi) / p.mass + w1,
        u_s * math.cos(phi) / p.mass - p.gravity + w2,
        0.5 * p.arm_length * u_d / p.inertia_xx,
    )


def quadcopter_jacobians(phi, u_s, p: QuadcopterParams):
    """(df/dx, df/du) of quadcopter_f at pitch phi and total thrust u_s, the
    only coordinates that enter them."""
    s, c = math.sin(phi), math.cos(phi)
    a, b = np.eye(6, k=3), np.zeros((6, 2))
    a[3:5, 2] = -u_s * c / p.mass, -u_s * s / p.mass
    b[3:5, 0] = -s / p.mass, c / p.mass
    b[5, 1] = 0.5 * p.arm_length / p.inertia_xx
    return a, b


def quadcopter_model(p: QuadcopterParams):
    """The disturbance-free quadcopter_f as a Model."""
    return Model(lambda x, u: quadcopter_f(x, u, None, p),
                 lambda x, u: quadcopter_jacobians(x[2], u[0], p))


def quadcopter_linearize(p: QuadcopterParams):
    """LinearModel about hover (phi = 0, u_s = m g); the disturbance enters
    the two translational accelerations."""
    return LinearModel(*quadcopter_jacobians(0.0, p.mass * p.gravity, p), b_w=np.eye(6, 2, k=-3))


@dataclass
class Figure8Ref:
    """Figure-eight with a quintic time warp: rest-to-rest in [0, t_end].

    tau(t) = t_end * (10 s^3 - 15 s^4 + 6 s^5), s = t / t_end, so velocity
    and acceleration vanish at both ends; the path is
    y = amp_y sin(2 tau), z = amp_z cos(tau).
    """

    t_end: float = 5.0
    amp_y: float = 0.5
    amp_z: float = 0.5

    def state(self, t):
        """Six-state reference [y, z, 0, ydot, zdot, 0] at t clamped to
        [0, t_end]: at rest before the start and after the end."""
        s = min(max(t, 0.0), self.t_end) / self.t_end
        tau = self.t_end * (10 * s**3 - 15 * s**4 + 6 * s**5)
        taudot = 30 * s**2 - 60 * s**3 + 30 * s**4
        return np.array([self.amp_y * math.sin(2 * tau), self.amp_z * math.cos(tau), 0.0,
                         2 * self.amp_y * math.cos(2 * tau) * taudot,
                         -self.amp_z * math.sin(tau) * taudot, 0.0])


# -- quadruped stand-in -------------------------------------------------------

@dataclass
class QuadrupedParams:
    mass: float = 12.454
    inertia_xx: float = 0.0565
    gravity: float = 9.81
    friction_coeff: float = 0.6
    z_ref: float = 0.32
    v_ref: float = 0.45
    step_time: float = 0.25
    step_offset: float = 0.15


@dataclass
class StanceState:
    """Where the stance feet are: (y, z) pairs of floats in the world
    frame, unpacked once per stance by quadruped_dynamics."""

    foot_front: tuple
    foot_rear: tuple


# One quadruped error subsystem: its (position, velocity) coordinates in x,
# the entries of u summing to its total force, its stance_allocation wrench row
ErrorAxis = namedtuple("ErrorAxis", "states forces wrench_row")


def quadruped_dynamics(stance: StanceState, p: QuadrupedParams, delta_m=0.0, drag_force=0.0):
    """Trotting point-mass dynamics f(x, u, w=None) under ground-reaction
    forces, with the stance feet and the parameters bound once.

    u = [fx_front, fx_rear, fz_front, fz_rear]; w is ignored (the plant
    has no disturbance channel).  The true mass is p.mass + delta_m (the
    controller plans with p.mass); drag_force is a constant resistive
    force on the COM along -y (pushing a load).  The plant's sanitize keeps
    the normal forces nonnegative before they reach f.
    """
    m_true = p.mass + delta_m
    grav, inertia = p.gravity, p.inertia_xx
    front_y, front_z = stance.foot_front
    rear_y, rear_z = stance.foot_rear

    def f(x, u, w=None):
        y, z, _, ydot, zdot, phidot = x
        fx_f, fx_r, fz_f, fz_r = u
        # moment arm r = com - foot, torque r x f = r_y f_z - r_z f_y per foot
        r_front_y, r_front_z = y - front_y, z - front_z
        r_rear_y, r_rear_z = y - rear_y, z - rear_z
        return (
            ydot,
            zdot,
            phidot,
            (fx_f + fx_r - drag_force) / m_true,
            (fz_f + fz_r) / m_true - grav,
            ((r_front_y * fz_f - r_front_z * fx_f) + (r_rear_y * fz_r - r_rear_z * fx_r))
            / inertia,
        )

    return f


def quadruped_model(stance: StanceState, p: QuadrupedParams):
    """The nominal quadruped_dynamics of the stance (mass p.mass, no drag)
    with its Jacobians, as a Model.

    The force rows are 1/m on their two feet.  With the arms r = com -
    foot, the torque row is (fz_f + fz_r, -(fx_f + fx_r)) / I in (y, z)
    and [-(z - z_f), -(z - z_r), y - y_f, y - y_r] / I in u, so it moves
    with the state and the forces.
    """
    inertia = p.inertia_xx
    front_y, front_z = stance.foot_front
    rear_y, rear_z = stance.foot_rear
    a0, b0 = np.eye(6, k=3), np.zeros((6, 4))
    b0[3, :2] = b0[4, 2:] = 1.0 / p.mass

    def jac(x, u):
        y, z = x[0], x[1]
        a, b = a0.copy(), b0.copy()
        a[5, :2] = (u[2] + u[3]) / inertia, -(u[0] + u[1]) / inertia
        b[5] = (-(z - front_z) / inertia, -(z - rear_z) / inertia,
                (y - front_y) / inertia, (y - rear_y) / inertia)
        return a, b

    return Model(quadruped_dynamics(stance, p), jac)


def quadruped_axis_linear(p: QuadrupedParams):
    """Single-input double integrator for one axis.

    The control is the total stance force along the axis (front + rear
    combined), matching the reachability channel; one disturbance enters
    on the velocity row.  Both axes share this model (mass is all that
    enters), so callers reuse one instance for y and z.
    """
    return LinearModel(a=np.array([[0.0, 1.0], [0.0, 0.0]]),
                       b=np.array([[0.0], [1.0 / p.mass]]),
                       b_w=np.array([[0.0], [1.0]]))


def subsystem_error_dynamics(axis, p: QuadrupedParams, u_lo, u_hi, delta_m_interval,
                             drag_force=0.0):
    """Error-coordinate dynamics of one axis for reachability.

    e = (tracking error, its rate); the control is the total axis force
    (both stance feet combined) in [u_lo, u_hi]; the added mass spans
    delta_m_interval and enters every force term through 1/(m + dm), so
    endpoint evaluation of the Hamiltonian is exact.

    axis "z": e2' = u/(m+dm) - g     (u is total normal force)
    axis "y": e2' = (u - drag)/(m+dm)
    """
    if axis not in ("y", "z"):
        raise ValueError("axis must be 'y' or 'z'")
    m0 = p.mass
    grav = p.gravity

    if axis == "z":
        def drift(x1, x2, dm):
            return x2, -grav
    else:
        def drift(x1, x2, dm):
            return x2, -drag_force / (m0 + dm)

    def gain(x1, x2, dm):
        return 0.0, 1.0 / (m0 + dm)

    return AffineDynamics2(
        drift=drift,
        control_terms=((gain, (float(u_lo), float(u_hi))),),
        disturbance_terms=(),
        uncertain_params=tuple(float(d) for d in delta_m_interval),
    )


# -- feedback helpers ---------------------------------------------------------

def stance_allocation(x, stance: StanceState, wrench):
    """Min-norm stance forces [fx_front, fx_rear, fz_front, fz_rear], as a
    list, that produce `wrench` = (lateral force, lift force, pitch torque
    about the COM).

    The wrench map A has rows [1, 1, 0, 0], [0, 0, 1, 1] and the torque row
    [a, b, c, d] = [-(z - z_f), -(z - z_r), y - y_f, y - y_r].  The
    min-norm solution A' (A A')^-1 wrench is solved in closed form; its
    denominator is the squared distance between the feet, so the feet must
    be distinct.  A pure-lift request gets a torque-free force split even
    with unequal moment arms.
    """
    y, z = x[0], x[1]
    front_y, front_z = stance.foot_front
    rear_y, rear_z = stance.foot_rear
    a, b = front_z - z, rear_z - z
    c, d = y - front_y, y - rear_y
    f_y, f_z, tau = wrench
    gap_z, gap_y = a - b, c - d
    lam = (2.0 * tau - (a + b) * f_y - (c + d) * f_z) / (gap_z * gap_z + gap_y * gap_y)
    half_y, half_z = 0.5 * f_y, 0.5 * f_z
    shift_y, shift_z = 0.5 * gap_z * lam, 0.5 * gap_y * lam
    return [half_y + shift_y, half_y - shift_y, half_z + shift_z, half_z - shift_z]


def worst_constant_disturbance(cert: ClfCertificate, model: LinearModel, w_max):
    """Constant w with ||w||_2 = w_max maximizing the steady-state energy.

    For e' = (A + BK) e + B_w w the steady state is -(A+BK)^-1 B_w w, so
    the worst direction is the top eigenvector of X' P X with
    X = (A+BK)^-1 B_w.
    """
    acl = model.a + model.b @ cert.k
    x_map = mk.solve(acl, model.b_w)
    quad = mk.symmetrize(x_map.T @ cert.p @ x_map)
    direction = np.linalg.eigh(quad)[1][:, -1]
    return float(w_max) * direction / np.linalg.norm(direction)


def rk4_step(f, x, u, w, dt):
    """Classical fourth-order Runge-Kutta step of x' = f(x, u, w) on the
    six-state layout.

    x is a list of six Python floats; u and w are passed to f as given.  f
    returns a sequence of six floats, and the step returns the new state
    as a list of Python floats.  Each stage and the update are written out
    per coordinate: the stage states are x_i + (dt / 2) k_i (x_i + dt k_i
    for the last), and x_i + (dt / 6) (k1_i + 2 k2_i + 2 k3_i + k4_i) sums
    left to right.
    """
    half = 0.5 * dt
    x0, x1, x2, x3, x4, x5 = x
    a0, a1, a2, a3, a4, a5 = f(x, u, w)
    b0, b1, b2, b3, b4, b5 = f([x0 + half * a0, x1 + half * a1, x2 + half * a2,
                               x3 + half * a3, x4 + half * a4, x5 + half * a5], u, w)
    c0, c1, c2, c3, c4, c5 = f([x0 + half * b0, x1 + half * b1, x2 + half * b2,
                               x3 + half * b3, x4 + half * b4, x5 + half * b5], u, w)
    d0, d1, d2, d3, d4, d5 = f([x0 + dt * c0, x1 + dt * c1, x2 + dt * c2,
                               x3 + dt * c3, x4 + dt * c4, x5 + dt * c5], u, w)
    sixth = dt / 6.0
    return [x0 + sixth * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
            x1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
            x2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
            x3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
            x4 + sixth * (a4 + 2.0 * b4 + 2.0 * c4 + d4),
            x5 + sixth * (a5 + 2.0 * b5 + 2.0 * c5 + d5)]


# -- plants as simulation objects ---------------------------------------------

class QuadcopterPlant:
    """Quadcopter with additive acceleration disturbances."""

    n_states = 6
    n_controls = 2
    n_dist = 2

    def __init__(self, params: QuadcopterParams):
        self.params = params
        self._nominal = quadcopter_model(self.params)

    def f(self, x, u, w):
        return quadcopter_f(x, u, w, self.params)

    def nominal_f(self):
        """The controller's Model: the dynamics without disturbance."""
        return self._nominal

    def sanitize(self, u):
        return u, 0

    def advance(self, t, x):
        pass

    def trim_input(self):
        """Hover thrust, no thrust difference."""
        return np.array([self.params.mass * self.params.gravity, 0.0])


class QuadrupedPlant:
    """Trotting quadruped stand-in with optional added mass and drag.

    The stance feet sit at +/- step_offset around the predicted mid-step
    COM (current position plus half a step of travel at the commanded
    speed, so the arms stay balanced while the body moves).  The first
    advance places the stance around the body, and each step_time re-places
    it there (at once, double support throughout).  sanitize() projects
    commanded forces into the cone fz >= 0, |fx| <= friction_coeff * fz,
    counting clamps.
    """

    n_states = 6
    n_controls = 4
    n_dist = 0
    axes = {"y": ErrorAxis(states=(0, 3), forces=(0, 1), wrench_row=0),
            "z": ErrorAxis(states=(1, 4), forces=(2, 3), wrench_row=1)}

    def __init__(self, params: QuadrupedParams, delta_m=0.0, drag_force=0.0):
        self.params = params
        self.delta_m = float(delta_m)
        self.drag_force = float(drag_force)
        self._place(0.0)
        self._next_switch = 0.0

    def _place(self, y):
        """Put the stance down around y and bind the true dynamics
        f(x, u, w) and the controller's model of that stance."""
        off = self.params.step_offset
        mid = y + 0.5 * self.params.v_ref * self.params.step_time
        self.stance = StanceState(foot_front=(mid + off, 0.0), foot_rear=(mid - off, 0.0))
        self.f = quadruped_dynamics(self.stance, self.params,
                                    delta_m=self.delta_m, drag_force=self.drag_force)
        self._nominal = quadruped_model(self.stance, self.params)

    def advance(self, t, x):
        if t >= self._next_switch - 1e-12:
            self._place(float(x[0]))
            self._next_switch += self.params.step_time

    def nominal_f(self):
        """The controller's Model: nominal mass, no drag, current stance."""
        return self._nominal

    def sanitize(self, u):
        """(u projected into the friction cone as a new float list, clamps);
        a NaN force passes through unclamped."""
        mu = self.params.friction_coeff
        out = []
        clamps = 0
        for fx, fz in ((u[0], u[2]), (u[1], u[3])):
            if fz < 0.0:
                fz = 0.0
                clamps += 1
            lim = mu * fz
            if abs(fx) > lim:
                fx = math.copysign(lim, fx)
                clamps += 1
            out.append((fx, fz))
        (fx_f, fz_f), (fx_r, fz_r) = out
        return [fx_f, fx_r, fz_f, fz_r], clamps

    def trim_input(self):
        """Even weight split of the nominal mass, no shear."""
        half = 0.5 * self.params.mass * self.params.gravity
        return np.array([0.0, 0.0, half, half])


@dataclass
class TrotRef:
    """Constant height and forward speed: [y0 + v t, z_ref, 0, v, 0, 0],
    with t clamped at 0."""

    y0: float = 0.0
    z_ref: float = 0.32
    v_ref: float = 0.45

    def state(self, t):
        return np.array([self.y0 + self.v_ref * max(t, 0.0), self.z_ref, 0.0, self.v_ref,
                         0.0, 0.0])


# -- disturbance policies -----------------------------------------------------

class ConstantDisturbance:
    def __init__(self, w):
        self.w = np.asarray(w, dtype=float).ravel().tolist()

    def __call__(self, t):
        return self.w


class SinusoidalDisturbance:
    """w(t) = w_max * (sin, cos)(2 pi freq t): full amplitude at all times."""

    def __init__(self, w_max, freq=0.5):
        self.w_max = float(w_max)
        self.freq = float(freq)

    def __call__(self, t):
        ang = 2.0 * math.pi * self.freq * t
        return [self.w_max * math.sin(ang), self.w_max * math.cos(ang)]


class RandomDisturbance:
    """Piecewise-constant w, redrawn every hold_time uniformly from the
    Euclidean ball of radius w_max (seeded, reproducible)."""

    def __init__(self, w_max, seed=0, hold_time=0.05):
        self.w_max = float(w_max)
        self.hold_time = float(hold_time)
        self.rng = np.random.default_rng(seed)
        self._next_draw = 0.0
        self._w = [0.0, 0.0]

    def __call__(self, t):
        if t >= self._next_draw - 1e-12:
            ang = self.rng.uniform(0.0, 2.0 * math.pi)
            rad = self.w_max * math.sqrt(self.rng.uniform())
            self._w = [rad * math.cos(ang), rad * math.sin(ang)]
            self._next_draw = t + self.hold_time
        return self._w


# -- tracking controller ------------------------------------------------------

class TrackingController:
    """MPC feedforward on a slow tick + ancillary feedback every call.

    plant      : provides nominal_f() for the controller's model and
                 trim_input(), kept as u_lin: the input every MPC stage
                 linearizes about, and the plan before the first tick
    reference  : object with state(t), clamped, queried for the MPC horizon
    cfg        : MpcConfig (its dt is the MPC period)
    feedback   : ancillary term feedback(x, e) -> full-length control
                 correction, a sequence of floats (a list is cheapest),
                 with e = x - x_ref; None = nominal (MPC-only) controller.

    control(t, x, x_ref) takes the state as a sequence of floats and the
    reference at t as an array, the caller's one evaluation of
    reference.state(t); a tick asks the reference only for the
    horizon rows after it and applies row 0 of the plan.  The tracking
    error e handed to feedback is an array.  The command comes back as a
    list of Python floats clipped to cfg.u_lo / cfg.u_hi (read at
    construction), a NaN entry staying NaN as under np.maximum /
    np.minimum.  It may be the held feedforward list itself; callers must
    not write into it.
    """

    def __init__(self, plant, reference, cfg: MpcConfig, feedback=None):
        self.plant = plant
        self.reference = reference
        self.cfg = cfg
        self.u_lin = plant.trim_input()
        self.feedback = feedback
        # the input box as float lists, an absent side unbounded
        self._box = None
        if cfg.u_lo is not None or cfg.u_hi is not None:
            self._box = tuple(
                np.broadcast_to(math.inf * sign if bound is None else bound,
                                self.u_lin.shape).tolist()
                for sign, bound in ((-1.0, cfg.u_lo), (1.0, cfg.u_hi)))
        self._next_tick = -math.inf
        self._u_bar = self.u_lin.tolist()

    def control(self, t, x, x_ref):
        if t >= self._next_tick - 1e-12:
            refs = np.stack([x_ref] + [self.reference.state(t + i * self.cfg.dt)
                                       for i in range(1, self.cfg.horizon + 1)])
            plan = mpc_step(self.plant.nominal_f(), x, refs, self.cfg, self.u_lin)
            self._u_bar = plan[0].tolist()
            self._next_tick = t + self.cfg.dt
        u = self._u_bar
        if self.feedback is not None:
            du = self.feedback(x, np.subtract(x, x_ref))
            u = [a + b for a, b in zip(u, du)]
        if self._box is not None:
            # max(u, lo) then min(u, hi) with the command first, so a NaN
            # entry survives as it does in np.maximum / np.minimum
            lo, hi = self._box
            u = [b if b > a else a for a, b in zip(u, lo)]
            u = [b if b < a else a for a, b in zip(u, hi)]
        return u


@dataclass
class LyapunovMonitor:
    """Certificate energy E = e[idx]' P e[idx] against the invariant level;
    simulate_closed_loop evaluates it on the stored tracking error."""

    name: str
    p: np.ndarray
    level: float
    state_idx: np.ndarray = field(default_factory=lambda: np.arange(6))

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.state_idx = np.asarray(self.state_idx, dtype=int)


# -- closed-loop simulation ---------------------------------------------------

_CSV_BLOCK_ROWS = 512  # rows converted and written per block by Trajectory.to_csv
# a closed-loop state coordinate past this magnitude ends the run as diverged
BLOWUP = 1e4


def _repr_cells(table):
    """repr of every entry of a 2-D float table, as rows of strings.  Each
    run of equal bits down a column is formatted once; bits, not values, so
    -0.0 and 0.0 stay apart."""
    flat = table.ravel(order="F")  # column after column
    bits = flat.view(np.int64)
    starts = np.empty(flat.size, dtype=bool)
    starts[0] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    text = np.array(list(map(repr, flat[starts].tolist())), dtype=object)
    return text[np.cumsum(starts) - 1].reshape(table.shape[::-1]).T.tolist()


@dataclass
class Trajectory:
    """Uniformly sampled closed-loop run plus certificate bookkeeping."""

    t: np.ndarray
    x: np.ndarray
    x_ref: np.ndarray
    u: np.ndarray
    w: np.ndarray
    e_lyap: np.ndarray
    monitor_names: tuple
    levels: tuple
    diverged: bool
    invariant_exits: tuple
    clamp_events: int

    def to_csv(self, path):
        """One row per sample; header `t,x...,xref...,u...,w...,E,roa_level`
        (E / roa_level columns suffixed by monitor name when several)."""
        nx = self.x.shape[1]
        nu = self.u.shape[1]
        nw = self.w.shape[1]
        cols = (["t"]
                + [f"x{i + 1}" for i in range(nx)]
                + [f"xref{i + 1}" for i in range(nx)]
                + [f"u{i + 1}" for i in range(nu)]
                + [f"w{i + 1}" for i in range(nw)])
        if len(self.monitor_names) == 1:
            cols += ["E", "roa_level"]
        else:
            for name in self.monitor_names:
                cols += [f"E_{name}", f"roa_level_{name}"]
        n = len(self.t)
        t = np.reshape(self.t, (n, 1))
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            # converted one row block at a time, so the Python floats and
            # the stacked table never hold more than a block
            for lo in range(0, n, _CSV_BLOCK_ROWS):
                rows = slice(lo, lo + _CSV_BLOCK_ROWS)
                blocks = [t[rows], self.x[rows], self.x_ref[rows], self.u[rows], self.w[rows]]
                m = len(blocks[0])
                for j, lev in enumerate(self.levels):
                    blocks += [self.e_lyap[rows, j:j + 1], np.full((m, 1), float(lev))]
                fh.writelines(",".join(row) + "\n" for row in _repr_cells(np.hstack(blocks)))


def simulate_closed_loop(plant, controller, reference, disturbance, duration, dt,
                         monitors=(), x0=None):
    """Fixed-step RK4 closed loop; returns a Trajectory.

    Each sample evaluates reference.state(t) once and passes it to
    controller.control(t, x, x_ref); the state between steps is a list of
    Python floats.  disturbance: callable t -> w, a list of floats stored
    as given, or None.  Integration stops early (diverged=True), storing
    nothing more, at a state that fails |x_i| <= BLOWUP, as NaN and inf
    do.  After the loop, each LyapunovMonitor's energy is evaluated on the
    stored e = x - x_ref; a sample counts as an invariant exit when
    E > level * (1 + 1e-6).
    """
    monitors = list(monitors)
    n_steps = int(round(duration / dt))
    if n_steps < 0:
        raise ValueError(f"duration {duration} and dt {dt} give no samples")
    x = None if x0 is None else np.asarray(x0, dtype=float).ravel().tolist()
    w_f = [0.0] * max(plant.n_dist, 1)
    clamp_events = 0
    diverged = False
    for i in range(n_steps + 1):
        t = i * dt
        x_ref = reference.state(t)
        if x is None:
            x = x_ref.tolist()
        plant.advance(t, x)
        u, clamps = plant.sanitize(controller.control(t, x, x_ref))
        clamp_events += clamps
        if disturbance is not None:
            w_f = disturbance(t)
        x_ref_f = x_ref.tolist()
        if i == 0:
            # one array per quantity, shaped by the first sample; each row is
            # packed straight into its bytes, skipping numpy's conversion of
            # a sequence into a row
            (xs, pack_x), (xrefs, pack_x_ref), (us, pack_u), (ws, pack_w) = [
                (np.empty((n_steps + 1, len(v))), struct.Struct(f"{len(v)}d").pack_into)
                for v in (x, x_ref_f, u, w_f)]
            row_x, row_x_ref, row_u, row_w = (col.strides[0] for col in (xs, xrefs, us, ws))
        pack_x(xs, row_x * i, *x)
        pack_x_ref(xrefs, row_x_ref * i, *x_ref_f)
        pack_u(us, row_u * i, *u)
        pack_w(ws, row_w * i, *w_f)
        if i == n_steps:
            break
        x = rk4_step(plant.f, x, u, w_f, dt)
        v0, v1, v2, v3, v4, v5 = x  # NaN fails each test, as inf does
        if not (abs(v0) <= BLOWUP and abs(v1) <= BLOWUP and abs(v2) <= BLOWUP
                and abs(v3) <= BLOWUP and abs(v4) <= BLOWUP and abs(v5) <= BLOWUP):
            diverged = True
            break
    n = i + 1
    if n < n_steps + 1:
        xs, xrefs, us, ws = (col[:n].copy() for col in (xs, xrefs, us, ws))
    e_lyap = np.empty((n, len(monitors)))
    for j, mon in enumerate(monitors):
        sub = xs[:, mon.state_idx] - xrefs[:, mon.state_idx]
        e_lyap[:, j] = np.einsum("ij,jk,ik->i", sub, mon.p, sub)
    levels = tuple(mon.level for mon in monitors)
    exits = tuple(
        int(np.sum(e_lyap[:, j] > lev * (1.0 + 1e-6)))
        for j, lev in enumerate(levels)
    )
    return Trajectory(
        t=np.arange(n, dtype=float) * dt,
        x=xs,
        x_ref=xrefs,
        u=us,
        w=ws,
        e_lyap=e_lyap,
        monitor_names=tuple(mon.name for mon in monitors),
        levels=levels,
        diverged=diverged,
        invariant_exits=exits,
        clamp_events=clamp_events,
    )
