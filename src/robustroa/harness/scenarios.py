"""Scenario configs: flat key = value sections, one file per experiment.

A scenario bundles everything one pipeline run needs: the plant and its
physical constants, supply-rate weights for the ancillary-gain synthesis
(one block for the quadcopter, one per axis for the quadruped), the MPC
weights, the reference, the disturbance policy, reachability settings per
subsystem, and the simulation clock.  Parsing is strict: unknown plants,
missing sections, malformed numbers and out-of-range values (a
non-positive duration, step or half width, a run shorter than one step, a
non-negative horizon, fewer than 3 grid nodes, an empty control box or
payload interval, MPC vectors or a constant disturbance whose length does
not match the plant, a disturbance on a plant with no disturbance
channel) all raise ConfigError, which the CLI maps to exit code 4.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from ..clf_synth import ClfParams
from ..mpc import MpcConfig
from ..plants import (Figure8Ref, QuadcopterParams, QuadcopterPlant, QuadrupedParams,
                      QuadrupedPlant, TrotRef)


class ConfigError(Exception):
    """The scenario file is missing, incomplete, or malformed."""


def _floats(text):
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"expected numbers, got {text!r}") from exc


@dataclass
class ClfBlock:
    """One synthesis problem: weights plus (optionally) a fixed w_max."""

    axis: str  # "main" for the quadcopter, "y"/"z" for the quadruped
    params: ClfParams
    w_max: float | None = None


@dataclass
class HjBlock:
    """Reachability settings for one error subsystem."""

    axis: str
    target_half_widths: tuple
    grid_half_widths: tuple
    n: int
    horizon: object  # negative float or "converge"
    freeze: str
    u_lo: float
    u_hi: float
    delta_m: tuple
    drag_force: float = 0.0


@dataclass
class DisturbancePolicy:
    kind: str  # none | constant | sinusoidal | random | worst_constant
    w: tuple = ()
    w_max: float = 0.0
    freq: float = 0.5
    hold_time: float = 0.05


@dataclass
class Scenario:
    name: str
    plant_kind: str  # quadcopter | quadruped
    mode: str  # nominal | robust
    seed: int
    quadcopter: QuadcopterParams | None
    quadruped: QuadrupedParams | None
    delta_m: float
    drag_force: float
    clf_blocks: dict
    mpc: MpcConfig
    reference_kind: str
    reference_args: dict
    disturbance: DisturbancePolicy
    hj_blocks: dict = field(default_factory=dict)
    duration: float = 5.0
    sim_dt: float = 0.001
    out_dir: str | None = None

    def reference(self):
        if self.reference_kind == "figure8":
            return Figure8Ref(**self.reference_args)
        return TrotRef(**self.reference_args)

    def with_mode(self, mode):
        import copy

        scn = copy.copy(self)
        scn.mode = mode
        return scn


def _section(cp, name):
    if not cp.has_section(name):
        raise ConfigError(f"missing [{name}] section")
    return cp[name]


_REQUIRED = object()


def _get(sec, key, cast=str, default=_REQUIRED):
    """sec[key] converted by cast; default when the key is absent, which
    without a default is an error."""
    if key not in sec:
        if default is _REQUIRED:
            raise ConfigError(f"missing key {key!r} in [{sec.name}]")
        return default
    raw = sec[key]
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r} in [{sec.name}]: {raw!r}") from exc


def _positive(sec, key):
    """A required number that must be positive."""
    value = _get(sec, key, float)
    if not value > 0:
        raise ConfigError(f"{key!r} in [{sec.name}] must be positive, got {value!r}")
    return value


def _half_widths(sec, key):
    """Two positive half widths."""
    hw = _floats(_get(sec, key))
    if len(hw) != 2:
        raise ConfigError(f"[{sec.name}] {key} needs two entries")
    if not all(h > 0.0 for h in hw):
        raise ConfigError(f"[{sec.name}] {key} must be positive, got {hw}")
    return tuple(hw)


def _clf_block(sec, axis):
    try:
        params = ClfParams(
            q=np.array(_floats(_get(sec, "q"))),
            r=np.array(_floats(_get(sec, "r"))),
            decay_rate=_get(sec, "decay_rate", float),
            dist_weight=_get(sec, "dist_weight", float),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    w_max = _get(sec, "w_max", float, None)
    return ClfBlock(axis=axis, params=params, w_max=w_max)


def _hj_block(sec, axis):
    horizon = _get(sec, "horizon")
    if horizon != "converge":
        horizon = _get(sec, "horizon", float)
        if not horizon < 0.0:
            raise ConfigError(f"[{sec.name}] horizon must be a negative time or "
                              f"'converge', got {horizon!r}")
    n = _get(sec, "n", int)
    if n < 3:
        raise ConfigError(f"[{sec.name}] n must be at least 3, got {n}")
    freeze = _get(sec, "freeze", default="stay")
    if freeze not in ("stay", "reach"):
        raise ConfigError(f"[{sec.name}] freeze must be 'stay' or 'reach', got {freeze!r}")
    u_lo, u_hi = _get(sec, "u_lo", float), _get(sec, "u_hi", float)
    if u_lo > u_hi:
        raise ConfigError(f"[{sec.name}] u_lo {u_lo!r} exceeds u_hi {u_hi!r}")
    delta_m = (_get(sec, "delta_m_lo", float, 0.0), _get(sec, "delta_m_hi", float, 0.0))
    if delta_m[0] > delta_m[1]:
        raise ConfigError(f"[{sec.name}] delta_m_lo {delta_m[0]!r} exceeds "
                          f"delta_m_hi {delta_m[1]!r}")
    return HjBlock(
        axis=axis,
        target_half_widths=_half_widths(sec, "target_half_widths"),
        grid_half_widths=_half_widths(sec, "grid_half_widths"),
        n=n,
        horizon=horizon,
        freeze=freeze,
        u_lo=u_lo,
        u_hi=u_hi,
        delta_m=delta_m,
        drag_force=_get(sec, "drag_force", float, 0.0),
    )


def _disturbance(sec):
    kind = _get(sec, "kind")
    if kind not in ("none", "constant", "sinusoidal", "random", "worst_constant"):
        raise ConfigError(f"unknown disturbance kind {kind!r}")
    pol = DisturbancePolicy(kind=kind)
    if kind == "constant":
        pol.w = tuple(_floats(_get(sec, "w")))
    elif kind in ("sinusoidal", "random", "worst_constant"):
        pol.w_max = _get(sec, "w_max", float)
        pol.freq = _get(sec, "freq", float, 0.5)
        pol.hold_time = _get(sec, "hold_time", float, 0.05)
    return pol


def load_scenario(path):
    """Parse a scenario config file into a Scenario."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = cp.read(str(path))
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    top = _section(cp, "scenario")
    plant_kind = _get(top, "plant")
    mode = top.get("mode", "robust")
    if plant_kind not in ("quadcopter", "quadruped"):
        raise ConfigError(f"unknown plant {plant_kind!r}")
    if mode not in ("nominal", "robust"):
        raise ConfigError(f"unknown mode {mode!r}")

    quadcopter = quadruped = None
    delta_m = drag = 0.0
    if plant_kind == "quadcopter":
        ps = _section(cp, "quadcopter")
        quadcopter = QuadcopterParams(
            mass=_positive(ps, "mass"),
            arm_length=_positive(ps, "arm_length"),
            inertia_xx=_positive(ps, "inertia_xx"),
            gravity=_positive(ps, "gravity"),
        )
        clf_blocks = {"main": _clf_block(_section(cp, "clf"), "main")}
    else:
        ps = _section(cp, "quadruped")
        friction = _get(ps, "friction_coeff", float)
        if not friction >= 0.0:
            raise ConfigError(f"'friction_coeff' in [{ps.name}] must not be negative, "
                              f"got {friction!r}")
        quadruped = QuadrupedParams(
            mass=_positive(ps, "mass"),
            inertia_xx=_positive(ps, "inertia_xx"),
            gravity=_positive(ps, "gravity"),
            friction_coeff=friction,
            z_ref=_get(ps, "z_ref", float),
            v_ref=_get(ps, "v_ref", float),
            step_time=_positive(ps, "step_time"),
            # the two stance feet sit 2 * step_offset apart and must not coincide
            step_offset=_positive(ps, "step_offset"),
        )
        delta_m = _get(ps, "delta_m", float, 0.0)
        drag = _get(ps, "drag_force", float, 0.0)
        clf_blocks = {
            "y": _clf_block(_section(cp, "clf_y"), "y"),
            "z": _clf_block(_section(cp, "clf_z"), "z"),
        }

    ms = _section(cp, "mpc")
    try:
        mpc_cfg = MpcConfig(
            q=np.array(_floats(_get(ms, "q"))),
            r=np.array(_floats(_get(ms, "r"))),
            dt=_get(ms, "dt", float),
            horizon=_get(ms, "horizon", int),
            u_lo=np.array(_floats(ms["u_lo"])) if "u_lo" in ms else None,
            u_hi=np.array(_floats(ms["u_hi"])) if "u_hi" in ms else None,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    plant_cls = QuadcopterPlant if plant_kind == "quadcopter" else QuadrupedPlant
    for key, size in (("q", plant_cls.n_states), ("r", plant_cls.n_controls),
                      ("u_lo", plant_cls.n_controls), ("u_hi", plant_cls.n_controls)):
        vec = getattr(mpc_cfg, key)
        if vec is not None and len(vec) != size:
            raise ConfigError(f"[mpc] {key} has {len(vec)} entries, the {plant_kind} "
                              f"needs {size}")

    rs = _section(cp, "reference")
    ref_kind = _get(rs, "kind")
    if ref_kind == "figure8":
        ref_args = {
            "t_end": _get(rs, "t_end", float, 5.0),
            "amp_y": _get(rs, "amp_y", float, 0.5),
            "amp_z": _get(rs, "amp_z", float, 0.5),
        }
    elif ref_kind == "trot":
        if quadruped is None:
            raise ConfigError("trot reference needs the quadruped plant")
        ref_args = {
            "y0": _get(rs, "y0", float, 0.0),
            "z_ref": quadruped.z_ref,
            "v_ref": quadruped.v_ref,
        }
    else:
        raise ConfigError(f"unknown reference kind {ref_kind!r}")

    disturbance = _disturbance(_section(cp, "disturbance"))
    # the quadruped feels its payload and drag through its parameters, not
    # through an additive channel, so it takes no disturbance policy
    if disturbance.kind != "none" and plant_cls.n_dist == 0:
        raise ConfigError(f"[disturbance] kind {disturbance.kind!r}: the {plant_kind} "
                          f"has no disturbance channel, use 'none'")
    if disturbance.kind == "constant" and len(disturbance.w) != plant_cls.n_dist:
        raise ConfigError(f"[disturbance] w has {len(disturbance.w)} entries, the "
                          f"{plant_kind} needs {plant_cls.n_dist}")

    hj_blocks = {}
    for axis in ("y", "z"):
        sec_name = f"hj_{axis}"
        if cp.has_section(sec_name):
            hj_blocks[axis] = _hj_block(cp[sec_name], axis)

    sim = _section(cp, "simulate")
    duration, sim_dt = _positive(sim, "duration"), _positive(sim, "dt")
    if int(round(duration / sim_dt)) < 1:
        raise ConfigError(f"[simulate] duration {duration!r} gives no step of "
                          f"dt = {sim_dt!r}")
    return Scenario(
        name=_get(top, "name"),
        plant_kind=plant_kind,
        mode=mode,
        seed=_get(top, "seed", int, 0),
        quadcopter=quadcopter,
        quadruped=quadruped,
        delta_m=delta_m,
        drag_force=drag,
        clf_blocks=clf_blocks,
        mpc=mpc_cfg,
        reference_kind=ref_kind,
        reference_args=ref_args,
        disturbance=disturbance,
        hj_blocks=hj_blocks,
        duration=duration,
        sim_dt=sim_dt,
        out_dir=top.get("out_dir", None),
    )
