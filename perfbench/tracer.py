"""Spans around the calls the CLI makes into each layer of robustroa.

Each target is a function wrapped at the name its caller looks it up by
(`harness.cli.solve_brs`, not `hj_reach.solve_brs`), so the span covers
exactly the calls the pipeline makes.  A span records its duration and the
time its child spans cover; self time is the difference, so the self times
of all spans plus the time outside every span add up to the traced wall
time.  Spans live in memory; nothing is written until the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict


class MissingTarget(Exception):
    """A wrap target no longer exists under the name the tracer expects."""


# (layer, label, module, class or None, attribute)
TARGETS = (
    ("hj_reach", "hj_reach.solve_brs", "robustroa.harness.cli", None, "solve_brs"),
    ("roa_bridge", "roa_bridge.find_wmax", "robustroa.harness.cli", None, "find_wmax"),
    ("roa_bridge", "roa_bridge.ellipsoid_contained", "robustroa.roa_bridge", None,
     "ellipsoid_contained"),
    ("clf_synth", "clf_synth.synthesize", "robustroa.harness.cli", None, "synthesize"),
    ("clf_synth", "clf_synth.verify_closed_loop", "robustroa.harness.cli", None,
     "verify_closed_loop"),
    ("lmi_solver", "lmi_solver.maximize", "robustroa.clf_synth", None, "maximize"),
    ("lmi_solver", "lmi_solver.find_strictly_feasible", "robustroa.lmi_solver", None,
     "find_strictly_feasible"),
    ("mpc", "mpc.mpc_step", "robustroa.plants", None, "mpc_step"),
    ("plants", "plants.simulate_closed_loop", "robustroa.plants", None, "simulate_closed_loop"),
    ("plants", "plants.stance_allocation", "robustroa.plants", None, "stance_allocation"),
    ("harness", "harness.load_scenario", "robustroa.harness.cli", None, "load_scenario"),
    ("harness", "harness.traj_csv", "robustroa.plants", "Trajectory", "to_csv"),
    ("harness", "harness.grid_csv", "robustroa.hj_reach", "ValueGrid", "to_csv"),
    ("harness", "harness.svg", "robustroa.harness.svgplot", None, "line_plot"),
    ("harness", "harness.certificate_file", "robustroa.harness.fileio", None,
     "write_certificate"),
    ("harness", "harness.wmax_report", "robustroa.harness.fileio", None, "write_wmax_report"),
)

# every public function of this module is a matrixkit span
MATRIXKIT = "robustroa.matrixkit"


class _Stat:
    __slots__ = ("layer", "calls", "busy_s", "self_s", "depth")

    def __init__(self, layer):
        self.layer = layer
        self.calls = 0
        self.busy_s = 0.0  # outermost calls only, so recursion is not counted twice
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Wraps the targets on install() and restores them on uninstall()."""

    def __init__(self):
        self.stats = {}
        self.observed = defaultdict(list)  # label -> (bound arguments, result)
        self._open = []  # child time covered inside each open span
        self._undo = []

    def install(self, observe=()):
        """Wrap every target; `observe` names the labels whose arguments and
        results are kept.  Raises MissingTarget naming the first target that
        cannot be found."""
        for layer, label, module, cls, attr in TARGETS:
            self._wrap(layer, label, _owner(module, cls), attr, label in observe)
        mk = importlib.import_module(MATRIXKIT)
        names = [name for name, fn in vars(mk).items()
                 if inspect.isfunction(fn) and fn.__module__ == MATRIXKIT
                 and not name.startswith("_")]
        if not names:
            raise MissingTarget(f"{MATRIXKIT} has no public functions")
        for name in names:
            self._wrap("matrixkit", f"matrixkit.{name}", mk, name, False)

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _wrap(self, layer, label, owner, attr, keep):
        fn = vars(owner).get(attr)
        if not callable(fn):
            raise MissingTarget(f"{owner.__name__}.{attr} ({label})")
        stat = self.stats[label] = _Stat(layer)
        sig = inspect.signature(fn) if keep else None
        open_spans = self._open
        clock = time.perf_counter

        def span(*args, **kwargs):
            open_spans.append(0.0)
            stat.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.depth -= 1
                children = open_spans.pop()
                stat.calls += 1
                stat.self_s += dt - children
                if stat.depth == 0:
                    stat.busy_s += dt
                if open_spans:
                    open_spans[-1] += dt
            if keep:
                bound = sig.bind(*args, **kwargs)
                self.observed[label].append((bound.arguments, result))
            return result

        setattr(owner, attr, span)
        self._undo.append((owner, attr, fn))

    def layer_self(self):
        """Self time summed per layer."""
        out = defaultdict(float)
        for stat in self.stats.values():
            out[stat.layer] += stat.self_s
        return dict(out)


def _owner(module, cls):
    try:
        mod = importlib.import_module(module)
    except ImportError:
        raise MissingTarget(module) from None
    if cls is None:
        return mod
    owner = getattr(mod, cls, None)
    if owner is None:
        raise MissingTarget(f"{module}.{cls}")
    return owner
