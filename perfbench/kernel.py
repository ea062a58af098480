"""Exact disturbance bound for the quadruped error subsystems.

Each axis of the quadruped is a double integrator in error coordinates,
e1' = e2, e2' = a, and the safe set the HJ solve approximates is its
viability kernel inside the target box |e1| <= h1, |e2| <= h2.  With the
acceleration a monotone in 1/(m + dm), the kernel is known in closed form:
the box cut by the two braking parabolas

    e1 + max(e2, 0)^2 / (2 b_dn) <= h1,   -e1 + max(-e2, 0)^2 / (2 b_up) <= h1,

where b_dn (b_up) is the deceleration (acceleration) the force box
guarantees against the worst payload mass.  The kernel is convex and holds
the origin, so the largest certificate level inside it is the smallest
e'Pe over the boundary of any one constraint, and the bound follows as
w = sqrt(decay_rate * c / dist_weight).
"""

from __future__ import annotations

import math

import numpy as np


def _accel(axis, force, dm, mass, gravity, drag):
    if axis == "z":
        return force / (mass + dm) - gravity
    return (force - drag) / (mass + dm)


def braking(axis, hj_block, quadruped):
    """(b_dn, b_up): braking the force box guarantees for every payload in
    the block's interval (endpoints suffice, the dependence is monotone)."""
    drag = hj_block.drag_force if axis == "y" else 0.0
    args = (quadruped.mass, quadruped.gravity, drag)
    b_dn = min(-_accel(axis, hj_block.u_lo, dm, *args) for dm in hj_block.delta_m)
    b_up = min(_accel(axis, hj_block.u_hi, dm, *args) for dm in hj_block.delta_m)
    if b_dn <= 0.0 or b_up <= 0.0:
        raise ValueError(f"axis {axis}: the force box cannot brake both ways")
    return b_dn, b_up


def _min_on_parabola(p, h1, b):
    """min of e'Pe over the curve e1 = h1 - max(e2, 0)^2 / (2 b)."""
    p11, p12, p22 = p[0, 0], p[0, 1], p[1, 1]
    # e2 <= 0: the straight part e1 = h1, a quadratic in e2
    cands = [min(0.0, -p12 * h1 / p22)]
    # e2 > 0: a quartic in e2; its stationary points are the cubic's roots
    k = 0.5 / b
    cubic = [4.0 * p11 * k * k, -6.0 * p12 * k, 2.0 * (p22 - 2.0 * p11 * h1 * k), 2.0 * p12 * h1]
    cands += [r.real for r in np.roots(cubic) if abs(r.imag) < 1e-12 and r.real > 0.0]

    def quad(s):
        e = np.array([h1 - max(s, 0.0) ** 2 * k, s])
        return float(e @ p @ e)

    return min(quad(s) for s in cands)


def exact_level(p, half_widths, b_dn, b_up):
    """Largest c with {e'Pe <= c} inside the viability kernel."""
    p = np.asarray(p, dtype=float)
    h1, h2 = half_widths
    c_box = h2 * h2 / np.linalg.inv(p)[1, 1]
    # e -> -e maps the upward-braking constraint onto the downward one
    return min(c_box, _min_on_parabola(p, h1, b_dn), _min_on_parabola(p, h1, b_up))


def exact_wmax(axis, cert, hj_block, quadruped):
    """Bound the exact kernel admits for this certificate."""
    b_dn, b_up = braking(axis, hj_block, quadruped)
    c = exact_level(cert.p, hj_block.target_half_widths, b_dn, b_up)
    return math.sqrt(cert.params.decay_rate * c / cert.params.dist_weight)
