"""Synthesize the quadcopter ancillary gain and check its certificate.

The LMI stage returns a feedback K and a Lyapunov matrix P such that the
error energy E = e' P e satisfies

    Edot <= -decay_rate * E + dist_weight * |w|^2

along the linearized closed loop.  This script runs the synthesis with the
[clf] weights and bound of the bundled quadcopter_fig8.cfg, prints
the solution, and then hammers the inequality with random (e, w) samples
as an independent check that the algebra behind the certificate holds.
"""

import numpy as np

from robustroa import plants
from robustroa.clf_synth import roa_level, synthesize, verify_closed_loop
from robustroa.harness.scenarios import bundled_scenario


def main():
    scn = bundled_scenario("quadcopter_fig8.cfg")
    model = plants.quadcopter_linearize(scn.quadcopter)
    block = scn.clf_blocks["main"]
    weights = block.params

    cert, sol = synthesize(model, weights)
    eig = verify_closed_loop(model, cert)
    print(f"status       : {sol.status.value}")
    print(f"objective    : {sol.objective_value:.6f}")
    print(f"cert_eig_max : {eig:.3e}   (negative = supply rate holds)")
    print("K =")
    print(np.array_str(cert.k, precision=4, suppress_small=True))
    print("P (top-left 3x3) =")
    print(np.array_str(cert.p[:3, :3], precision=4))

    # independent spot check: Edot along the closed loop, random directions
    a_cl = model.a + model.b @ cert.k
    rng = np.random.default_rng(0)
    worst = -np.inf
    for _ in range(500):
        e = rng.standard_normal(6)
        w = rng.standard_normal(model.b_w.shape[1])
        edot = e @ (a_cl.T @ cert.p + cert.p @ a_cl) @ e + 2 * e @ cert.p @ model.b_w @ w
        bound = -weights.decay_rate * (e @ cert.p @ e) + weights.dist_weight * (w @ w)
        worst = max(worst, edot - bound)
    print(f"max supply-rate violation over 500 samples: {worst:.3e}")

    level = roa_level(weights, block.w_max)
    print(f"invariant level for |w| <= {block.w_max}: E <= {level:.6f}")


if __name__ == "__main__":
    main()
