"""Scenario configs: flat key = value sections, one file per experiment.

A scenario bundles everything one pipeline run needs: the plant and its
physical constants, supply-rate weights for the ancillary-gain synthesis
(one block for the quadcopter, one per axis for the quadruped), the MPC
weights, the reference, the disturbance policy, reachability settings per
subsystem, and the simulation clock.  Parsing is strict: a missing
section or one the plant does not read, a key outside its section's entry
in `_KEYS`, a malformed or non-finite number and an out-of-range value all
raise ConfigError, which the CLI maps to exit code 4.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from ..clf_synth import ClfParams, roa_level
from ..hj_reach import Grid2, TargetSet
from ..mpc import MpcConfig
from ..plants import (Figure8Ref, QuadcopterParams, QuadcopterPlant, QuadrupedParams,
                      QuadrupedPlant, TrotRef, subsystem_error_dynamics)


class ConfigError(Exception):
    """The scenario file is missing, incomplete, or malformed."""


# Largest [hj_*] n: a solve holds about a dozen n x n work arrays, and
# 1001 leaves room above the 201 nodes of the grid-convergence checks.
MAX_GRID_NODES = 1001
# Most samples (duration / dt + 1) a [simulate] run may record, like
# mpc.MAX_HORIZON a bound on what one run allocates: each sample holds a
# row of every trajectory array, and the bundled configs take 10,001.
MAX_SIM_SAMPLES = 1_000_000


# -- value casts: each raises ValueError, with a reason, on a value it rejects --

def _number(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _seed(text):
    value = int(text)
    if value < 0:
        raise ValueError("must not be negative")
    return value


def _positive(text):
    value = _number(text)
    if not value > 0.0:
        raise ValueError("must be positive")
    return value


def _nonnegative(text):
    value = _number(text)
    if value < 0.0:
        raise ValueError("must not be negative")
    return value


def _floats(text):
    """Finite numbers separated by commas or blanks, as a tuple."""
    return tuple(_number(tok) for tok in text.replace(",", " ").split())


def _vector(text):
    return np.array(_floats(text))


def _half_widths(text):
    hw = _floats(text)
    if len(hw) != 2 or not min(hw) > 0.0:
        raise ValueError("needs two positive entries")
    return hw


def _grid_nodes(text):
    n = int(text)
    if not 3 <= n <= MAX_GRID_NODES:
        raise ValueError(f"must be between 3 and {MAX_GRID_NODES}")
    return n


def _file_stem(text):
    """A name every artifact file starts with: it must stay one file name
    inside the output directory."""
    if not text:
        raise ValueError("must not be empty")
    if text.startswith("."):
        raise ValueError("must not start with '.'")
    if "/" in text or "\\" in text or "\0" in text:
        raise ValueError("must not hold a path separator or a NUL character")
    return text


def _choice(*options):
    def cast(text):
        if text not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return text
    return cast


@dataclass
class ClfBlock:
    """One synthesis problem: weights plus (optionally) a fixed w_max."""

    params: ClfParams
    w_max: float | None = None


@dataclass
class HjBlock:
    """Reachability settings for one error subsystem: the grid of its
    [hj_*] section, and the total force box, payload interval and drag the
    loader derives from [mpc] and [quadruped]."""

    axis: str
    target_half_widths: tuple
    grid_half_widths: tuple
    n: int
    u_lo: float
    u_hi: float
    delta_m: tuple
    drag_force: float = 0.0

    def problem(self, quadruped):
        """(grid, target, dynamics) of this axis's reachability problem
        for the quadruped with parameters `quadruped`."""
        hw1, hw2 = self.grid_half_widths
        grid = Grid2(mins=(-hw1, -hw2), maxs=(hw1, hw2), shape=(self.n, self.n))
        target = TargetSet.box(center=(0.0, 0.0), half_widths=self.target_half_widths)
        dyn = subsystem_error_dynamics(self.axis, quadruped, u_lo=self.u_lo, u_hi=self.u_hi,
                                       delta_m_interval=self.delta_m,
                                       drag_force=self.drag_force)
        return grid, target, dyn


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
    reference: Figure8Ref | TrotRef
    disturbance: DisturbancePolicy
    hj_blocks: dict = field(default_factory=dict)
    duration: float = 5.0
    sim_dt: float = 0.001
    out_dir: str | None = None


_REQ = object()  # the default of a key that must be given
_CLF_KEYS = dict(q=(_vector, _REQ), r=(_vector, _REQ), decay_rate=(_number, _REQ),
                 dist_weight=(_number, _REQ), w_max=(_nonnegative, None))
_HJ_KEYS = dict(target_half_widths=(_half_widths, _REQ), grid_half_widths=(_half_widths, _REQ),
                n=(_grid_nodes, _REQ))

# Every key each section may hold, as (cast, default).  _read parses a
# section through its entry and rejects any key the entry does not list;
# a `kind` entry maps each kind to the table of the other keys it reads.
_KEYS = {
    "scenario": dict(name=(_file_stem, _REQ), plant=(_choice("quadcopter", "quadruped"), _REQ),
                     mode=(_choice("nominal", "robust"), "robust"), seed=(_seed, 0),
                     out_dir=(str, None)),
    "quadcopter": dict.fromkeys(("mass", "arm_length", "inertia_xx", "gravity"),
                                (_positive, _REQ)),
    "quadruped": dict(mass=(_positive, _REQ), inertia_xx=(_positive, _REQ),
                      gravity=(_positive, _REQ), friction_coeff=(_nonnegative, _REQ),
                      z_ref=(_number, _REQ), v_ref=(_number, _REQ),
                      step_time=(_positive, _REQ),
                      # the two stance feet sit 2 * step_offset apart and must not coincide
                      step_offset=(_positive, _REQ),
                      # the simulated payload, and the interval the HJ solve covers
                      delta_m=(_number, 0.0), delta_m_lo=(_number, 0.0),
                      delta_m_hi=(_number, 0.0), drag_force=(_number, 0.0)),
    "clf": _CLF_KEYS, "clf_y": _CLF_KEYS, "clf_z": _CLF_KEYS,
    "mpc": dict(q=(_vector, _REQ), r=(_vector, _REQ), dt=(_number, _REQ), horizon=(int, _REQ),
                u_lo=(_vector, None), u_hi=(_vector, None)),
    "reference": dict(kind=dict(figure8=dict(t_end=(_positive, 5.0), amp_y=(_number, 0.5),
                                             amp_z=(_number, 0.5)), trot=dict(y0=(_number, 0.0)))),
    "disturbance": dict(kind=dict(
        none={}, constant=dict(w=(_floats, _REQ)),
        sinusoidal=dict(w_max=(_nonnegative, _REQ), freq=(_number, 0.5)),
        random=dict(w_max=(_nonnegative, _REQ), hold_time=(_number, 0.05)),
        worst_constant=dict(w_max=(_nonnegative, _REQ)))),
    "hj_y": _HJ_KEYS, "hj_z": _HJ_KEYS,
    "simulate": dict(duration=(_positive, _REQ), dt=(_positive, _REQ)),
}


def _read(cp, name, opened):
    """Every key of [name], cast by its _KEYS entry or set to its default;
    the name is added to `opened`."""
    if not cp.has_section(name):
        raise ConfigError(f"missing [{name}] section")
    sec, spec = cp[name], _KEYS[name]
    if "kind" in spec:
        kinds = spec["kind"]
        spec = dict(kind=(_choice(*kinds), _REQ), **kinds.get(sec.get("kind"), {}))
    opened.add(name)
    vals = {}
    for key, (cast, default) in spec.items():
        if key not in sec:
            if default is _REQ:
                raise ConfigError(f"missing key {key!r} in [{name}]")
            vals[key] = default
            continue
        try:
            vals[key] = cast(sec[key])
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r} in [{name}]: {sec[key]!r} "
                              f"({exc})") from exc
    for key in sec:
        if key not in spec:
            raise ConfigError(f"unknown key {key!r} in [{name}], which takes "
                              f"{', '.join(spec)}")
    return vals


def _clf_block(vals, axis):
    w_max = vals.pop("w_max")
    try:
        params = ClfParams(**vals)
        # the invariant level w_max sets must be finite too (w_max**2 may raise)
        if w_max is not None and not math.isfinite(roa_level(params, w_max)):
            raise OverflowError
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except OverflowError:
        raise ConfigError(f"[clf{'' if axis == 'main' else '_' + axis}] w_max {w_max!r}: "
                          f"its invariant level overflows") from None
    return ClfBlock(params=params, w_max=w_max)


def _payload(ps):
    """(simulated payload, HJ payload interval, drag) popped from the
    [quadruped] values; every total mass they give must be positive."""
    delta_m, lo, hi = ps.pop("delta_m"), ps.pop("delta_m_lo"), ps.pop("delta_m_hi")
    if lo > hi:
        raise ConfigError(f"[quadruped] delta_m_lo {lo!r} exceeds delta_m_hi {hi!r}")
    if not ps["mass"] + min(delta_m, lo) > 0.0:
        raise ConfigError(f"[quadruped] mass + delta_m and mass + delta_m_lo must be positive, "
                          f"got {ps['mass']!r} + {delta_m!r} and {ps['mass']!r} + {lo!r}")
    return delta_m, (lo, hi), ps.pop("drag_force")


def _hj_block(vals, axis, mpc_cfg, delta_m, drag):
    """[hj_<axis>] plus the facts stated elsewhere: the axis's total force
    box sums its entries of the [mpc] per-foot boxes, and the drag resists
    the lateral axis only."""
    if mpc_cfg.u_lo is None or mpc_cfg.u_hi is None:
        raise ConfigError(f"[hj_{axis}] needs the [mpc] force boxes u_lo and u_hi")
    idx = list(QuadrupedPlant.axes[axis].forces)
    with np.errstate(over="ignore"):  # an overflowing sum is refused below
        lo, hi = float(mpc_cfg.u_lo[idx].sum()), float(mpc_cfg.u_hi[idx].sum())
    if not np.isfinite([lo, hi]).all():
        raise ConfigError(f"[hj_{axis}] its [mpc] force box sums to [{lo!r}, {hi!r}]")
    return HjBlock(axis=axis, u_lo=lo, u_hi=hi, delta_m=delta_m,
                   drag_force=drag if axis == "y" else 0.0, **vals)


def load_scenario(path):
    """Parse a scenario config file into a Scenario."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        found = cp.read(str(path))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not found:
        raise ConfigError(f"cannot read config file {path}")
    opened = set()

    top = _read(cp, "scenario", opened)
    plant_kind = top["plant"]
    quadcopter = quadruped = None
    delta_m, interval, drag = 0.0, None, 0.0
    if plant_kind == "quadcopter":
        quadcopter = QuadcopterParams(**_read(cp, "quadcopter", opened))
        clf_blocks = {"main": _clf_block(_read(cp, "clf", opened), "main")}
    else:
        ps = _read(cp, "quadruped", opened)
        delta_m, interval, drag = _payload(ps)
        quadruped = QuadrupedParams(**ps)
        clf_blocks = {axis: _clf_block(_read(cp, f"clf_{axis}", opened), axis)
                      for axis in ("y", "z")}

    try:
        mpc_cfg = MpcConfig(**_read(cp, "mpc", opened))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    plant_cls = QuadcopterPlant if plant_kind == "quadcopter" else QuadrupedPlant
    for key, size in (("q", plant_cls.n_states), ("r", plant_cls.n_controls),
                      ("u_lo", plant_cls.n_controls), ("u_hi", plant_cls.n_controls)):
        vec = getattr(mpc_cfg, key)
        if vec is not None and len(vec) != size:
            raise ConfigError(f"[mpc] {key} has {len(vec)} entries, the {plant_kind} "
                              f"needs {size}")
    if (mpc_cfg.u_lo is not None and mpc_cfg.u_hi is not None
            and np.any(mpc_cfg.u_lo > mpc_cfg.u_hi)):
        raise ConfigError(f"[mpc] u_lo {mpc_cfg.u_lo.tolist()} exceeds "
                          f"u_hi {mpc_cfg.u_hi.tolist()} in some entry")

    ref_args = _read(cp, "reference", opened)
    if ref_args.pop("kind") == "figure8":
        reference = Figure8Ref(**ref_args)
    elif quadruped is None:
        raise ConfigError("trot reference needs the quadruped plant")
    else:
        reference = TrotRef(z_ref=quadruped.z_ref, v_ref=quadruped.v_ref, **ref_args)

    disturbance = DisturbancePolicy(**_read(cp, "disturbance", opened))
    # the quadruped feels its payload and drag through its parameters, not
    # through an additive channel, so it takes no disturbance policy
    if disturbance.kind != "none" and plant_cls.n_dist == 0:
        raise ConfigError(f"[disturbance] kind {disturbance.kind!r}: the {plant_kind} "
                          f"has no disturbance channel, use 'none'")
    if disturbance.kind == "constant" and len(disturbance.w) != plant_cls.n_dist:
        raise ConfigError(f"[disturbance] w has {len(disturbance.w)} entries, the "
                          f"{plant_kind} needs {plant_cls.n_dist}")

    # a quadcopter's [hj_*] section is an unknown section
    hj_blocks = {axis: _hj_block(_read(cp, f"hj_{axis}", opened), axis, mpc_cfg, interval, drag)
                 for axis in ("y", "z") if quadruped is not None and cp.has_section(f"hj_{axis}")}

    sim = _read(cp, "simulate", opened)
    # min() first: the ratio may overflow to inf, which round() refuses
    if not 1 <= round(min(sim["duration"] / sim["dt"], MAX_SIM_SAMPLES)) < MAX_SIM_SAMPLES:
        raise ConfigError(f"[simulate] duration {sim['duration']!r} and dt {sim['dt']!r} "
                          f"must give 2 to {MAX_SIM_SAMPLES} samples (duration / dt + 1)")
    for name in cp.sections():
        if name not in opened:
            raise ConfigError(f"unknown section [{name}]: the {plant_kind} scenario "
                              f"does not read it")
    return Scenario(
        name=top["name"],
        plant_kind=plant_kind,
        mode=top["mode"],
        seed=top["seed"],
        quadcopter=quadcopter,
        quadruped=quadruped,
        delta_m=delta_m,
        drag_force=drag,
        clf_blocks=clf_blocks,
        mpc=mpc_cfg,
        reference=reference,
        disturbance=disturbance,
        hj_blocks=hj_blocks,
        duration=sim["duration"],
        sim_dt=sim["dt"],
        out_dir=top["out_dir"],
    )
