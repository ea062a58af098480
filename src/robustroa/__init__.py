"""robustroa: robust tracking control with certified regions of attraction.

The package combines three ingredients:

* an LMI-synthesized control Lyapunov function for the tracking-error
  dynamics (`clf_synth`, solved by the primal-dual interior-point method
  in `lmi_solver`),
* Hamilton-Jacobi reachability on 2-D subsystems to compute safe sets
  under bounded disturbances (`hj_reach`),
* a bridge that sizes the largest certified disturbance bound whose
  invariant ellipsoid fits inside the safe set (`roa_bridge`).

`mpc` supplies the reference-tracking feedforward controller, `plants`
the quadcopter / planar-quadruped models and the closed-loop simulator,
and `harness` the scenario configs, CLI, and file formats.
"""

from . import clf_synth, hj_reach, lmi_solver, matrixkit, mpc, plants, roa_bridge

__version__ = "0.1.0"

__all__ = [
    "matrixkit",
    "lmi_solver",
    "clf_synth",
    "hj_reach",
    "roa_bridge",
    "mpc",
    "plants",
    "__version__",
]
