import numpy as np
import pytest

import _oracles as orc
from robustroa import clf_synth as cs
from robustroa import matrixkit as mk
from robustroa.harness.scenarios import load_scenario
from robustroa.lmi_solver import Infeasible, SdpStatus, maximize
from robustroa.plants import QuadcopterParams, quadcopter_linearize, quadruped_axis_linear


def scalar_model():
    one = np.array([[1.0]])
    return cs.LinearModel(a=one, b=one, b_w=one)


def scalar_params():
    return cs.ClfParams(q=[1.0], r=[1.0], decay_rate=1.0, dist_weight=1.0)


def quadcopter_setup():
    model = quadcopter_linearize(QuadcopterParams())
    params = cs.ClfParams(q=[1e-1, 1, 1, 1, 1, 1e-2], r=[1e-2, 1e-4],
                          decay_rate=0.5, dist_weight=0.1)
    return model, params


# -- variable layout ----------------------------------------------------------

def test_split_solution_roundtrip():
    # Y packed by the oracle's own loops, then L row-major: split_solution
    # hands both back bit for bit
    rng = np.random.default_rng(2)
    for n, m in ((1, 1), (2, 3), (5, 2)):
        y = rng.standard_normal((n, n))
        y = y + y.T
        l = rng.standard_normal((m, n))
        v = orc.pack_sym(y)
        assert v.shape == (n * (n + 1) // 2,)
        got_y, got_l = cs.split_solution(np.concatenate([v, l.ravel()]), n, m)
        assert got_y.tobytes() == y.tobytes() and got_l.tobytes() == l.tobytes()
    with pytest.raises(cs.DimensionMismatch):
        cs.split_solution(np.zeros(4), 2, 2)


def test_split_solution_shapes():
    x = np.arange(3 + 2 * 2, dtype=float)  # n=2 -> 3 tri entries, m=2 -> 4
    y, l = cs.split_solution(x, 2, 2)
    assert np.allclose(y, [[0.0, 1.0], [1.0, 2.0]])
    assert np.allclose(l, [[3.0, 4.0], [5.0, 6.0]])


# -- LMI assembly --------------------------------------------------------------

def test_scalar_lmi_blocks_by_hand():
    prob = cs.build_synthesis_lmi(scalar_model(), scalar_params())
    assert prob.dim == 5 and prob.num_vars == 2
    f0_expected = np.array([
        [0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
    ])
    assert np.allclose(prob.f0, f0_expected)
    # Y variable: (AY)' + AY + lam*Y contributes 3, plus the Y coupling row,
    # and -Y in the last diagonal block
    fy_expected = np.zeros((5, 5))
    fy_expected[0, 0] = 3.0
    fy_expected[1, 0] = fy_expected[0, 1] = 1.0
    fy_expected[4, 4] = -1.0
    assert np.allclose(prob.fi[0], fy_expected)
    # L variable: (BL)' + BL contributes 2, plus the L coupling row
    fl_expected = np.zeros((5, 5))
    fl_expected[0, 0] = 2.0
    fl_expected[2, 0] = fl_expected[0, 2] = 1.0
    assert np.allclose(prob.fi[1], fl_expected)
    assert np.allclose(prob.c, [1.0, 0.0])


def test_block_dimensions():
    model, params = quadcopter_setup()
    prob = cs.build_synthesis_lmi(model, params)
    assert prob.dim == 22  # 3n + m + p = 18 + 2 + 2
    assert prob.num_vars == 21 + 12


def test_subsystem_block_dimension():
    # a double integrator with two force inputs and one disturbance
    model_y = cs.LinearModel(a=[[0.0, 1.0], [0.0, 0.0]], b=[[0.0, 0.0], [0.08, 0.08]],
                             b_w=[[0.0], [1.0]])
    params = cs.ClfParams(q=[500.0, 10.0], r=[1.0, 1.0], decay_rate=0.3, dist_weight=200.0)
    prob = cs.build_synthesis_lmi(model_y, params)
    assert prob.dim == 9  # 3*2 + 2 + 1


def test_rejects_nondiagonal_weights():
    # a weight is its 1-D diagonal: any 2-D weight, diagonal or not, is a
    # shape mismatch
    model = cs.LinearModel(a=np.zeros((2, 2)), b=np.ones((2, 1)), b_w=np.ones((2, 1)))
    for q in (np.array([[1.0, 0.1], [0.1, 1.0]]), np.eye(2)):
        params = cs.ClfParams(q=q, r=[1.0], decay_rate=1.0, dist_weight=1.0)
        with pytest.raises(cs.DimensionMismatch, match="shape"):
            cs.build_synthesis_lmi(model, params)


def assert_blocks_match_loops(model, params):
    # equal values and equal sign bits, so -0.0 and 0.0 stay apart
    prob = cs.build_synthesis_lmi(model, params)
    c, f0, fi = orc.synthesis_lmi_loops(model, params)
    for got, want in ((prob.c, c), (prob.f0, f0), (prob.fi, fi)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("case", ["fig8", "height-y", "height-z", "push-y", "push-z"])
def test_stacked_blocks_bitwise_match_per_variable_loops_bundled(case):
    if case == "fig8":
        scn = load_scenario(orc.CONFIGS / "quadcopter_fig8.cfg")
        model, params = quadcopter_linearize(scn.quadcopter), scn.clf_blocks["main"].params
    else:
        name, axis = case.split("-")
        scn = load_scenario(orc.CONFIGS / f"quadruped_{name}.cfg")
        model, params = quadruped_axis_linear(scn.quadruped), scn.clf_blocks[axis].params
    assert_blocks_match_loops(model, params)


def test_stacked_blocks_bitwise_match_per_variable_loops_random():
    # random models at random scales with n 1-6, m 1-3 and p 1-2, some
    # entries exact zeros of either sign
    rng = np.random.default_rng(31)
    for _ in range(60):
        n, m, p = int(rng.integers(1, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 3))
        a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3.0, 3.0)
        b = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-3.0, 3.0)
        a[rng.random((n, n)) < 0.3] *= 0.0
        b[rng.random((n, m)) < 0.3] *= 0.0
        model = cs.LinearModel(a=a, b=b, b_w=rng.standard_normal((n, p)))
        params = cs.ClfParams(q=rng.uniform(0.1, 10.0, n), r=rng.uniform(0.1, 10.0, m),
                              decay_rate=rng.uniform(0.1, 2.0),
                              dist_weight=rng.uniform(0.1, 10.0))
        assert_blocks_match_loops(model, params)


# -- gain recovery -------------------------------------------------------------

def test_recover_gains_identity():
    k, p = cs.recover_gains(np.eye(3), np.ones((2, 3)))
    assert np.allclose(p, np.eye(3))
    assert np.allclose(k, np.ones((2, 3)))


def test_recover_gains_random():
    rng = np.random.default_rng(8)
    y = rng.standard_normal((4, 4))
    y = y @ y.T + 4 * np.eye(4)
    l = rng.standard_normal((2, 4))
    k, p = cs.recover_gains(y, l)
    assert mk.inf_norm(k @ y - l) < 1e-9 * mk.inf_norm(l)
    assert mk.inf_norm(p @ y - np.eye(4)) < 1e-9
    assert mk.inf_norm(p - p.T) == 0.0


def test_recover_gains_factors_y_once(monkeypatch):
    factored = orc.record_choleskys(monkeypatch)
    cs.recover_gains(np.diag([2.0, 3.0]), np.ones((1, 2)))
    assert len(factored) == 1


def test_recover_gains_requires_pd():
    with pytest.raises(mk.NotPositiveDefinite):
        cs.recover_gains(np.diag([1.0, -1.0]), np.ones((1, 2)))


# -- certificate checks --------------------------------------------------------

def test_verify_closed_loop_by_hand():
    # scalar: (a+bk) = -1, p=1, q=r=1, lam=0.5, mu=1, k=0:
    # M = -2 + 0.5 + 1 + 0 + 1 = 0.5
    model = cs.LinearModel(a=np.array([[-1.0]]), b=np.array([[1.0]]), b_w=np.array([[1.0]]))
    params = cs.ClfParams(q=[1.0], r=[1.0], decay_rate=0.5, dist_weight=1.0)
    cert = cs.ClfCertificate(k=np.zeros((1, 1)), p=np.eye(1), params=params)
    assert abs(cs.verify_closed_loop(model, cert) - 0.5) < 1e-12
    # two states, no disturbance gain: M = 2A + 0.5 I + I = diag(-0.5, -4.5),
    # and the top eigenvalue is the one reported
    model = cs.LinearModel(a=np.diag([-1.0, -3.0]), b=np.eye(2), b_w=np.zeros((2, 1)))
    params = cs.ClfParams(q=[1.0, 1.0], r=[1.0, 1.0], decay_rate=0.5, dist_weight=1.0)
    cert = cs.ClfCertificate(k=np.zeros((2, 2)), p=np.eye(2), params=params)
    assert abs(cs.verify_closed_loop(model, cert) + 0.5) < 1e-12


def test_roa_level_values():
    _, params = quadcopter_setup()
    assert abs(cs.roa_level(params, 3.5) - 2.45) < 1e-12
    assert cs.roa_level(params, 0.0) == 0.0
    quad_y = cs.ClfParams(q=[500.0, 10.0], r=[1.0], decay_rate=0.3, dist_weight=200.0)
    assert abs(cs.roa_level(quad_y, 1.0) - 666.6667) < 1e-2
    with pytest.raises(ValueError):
        cs.roa_level(params, -1.0)


def test_certificate_set_bound():
    _, params = quadcopter_setup()
    cert = cs.ClfCertificate(k=np.zeros((2, 6)), p=np.eye(6), params=params)
    assert cert.w_max is None and cert.level is None
    cert.set_disturbance_bound(3.5)
    assert cert.w_max == 3.5
    assert abs(cert.level - 2.45) < 1e-12


# -- end-to-end synthesis ------------------------------------------------------

def test_synthesize_quadcopter():
    model, params = quadcopter_setup()
    cert, sol = cs.synthesize(model, params)
    assert sol.status == SdpStatus.OPTIMAL

    # recovered gains satisfy K Y = L (relative 1e-8)
    y, l = cs.split_solution(sol.x, 6, 2)
    assert mk.inf_norm(cert.k @ y - l) < 1e-8 * max(mk.inf_norm(l), 1.0)

    # P is SPD and the closed-loop certificate block is negative definite
    mk.cholesky(cert.p)
    assert cs.verify_closed_loop(model, cert) < 0.0

    # A + BK Hurwitz via the symmetrized similarity transform
    vals, vecs = np.linalg.eigh(cert.p)
    root = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
    acl = model.a + model.b @ cert.k
    sim = root @ acl @ mk.solve(root, np.eye(6))
    assert np.linalg.eigvalsh(mk.symmetrize(sim))[-1] < 0.0


def test_synthesized_supply_rate_random_samples():
    # E' <= -lam E - e'Qe - u'Ru + mu w'w pointwise, any e and w
    model, params = quadcopter_setup()
    cert, _ = cs.synthesize(model, params)
    acl = model.a + model.b @ cert.k
    q = np.diag(params.q_diag(6))
    r = np.diag(params.r_diag(2))
    rng = np.random.default_rng(17)
    for _ in range(50):
        e = rng.standard_normal(6) * rng.uniform(0.1, 5.0)
        w = rng.uniform(-3.5, 3.5, size=2)
        edot = acl @ e + model.b_w @ w
        lhs = 2.0 * e @ cert.p @ edot
        u = cert.k @ e
        rhs = (-params.decay_rate * e @ cert.p @ e - e @ q @ e - u @ r @ u
               + params.dist_weight * w @ w)
        assert lhs <= rhs + 1e-9 * (1.0 + abs(rhs))


def test_synthesis_infeasible_without_positive_definite_y():
    # at decay_rate 1e6 the Schur block needs a Y that is not positive
    # definite, so with the -Y block the best slack is 0 to within phase 1's
    # gap: Infeasible, not a Y that fails at gain recovery
    scn = load_scenario(orc.CONFIGS / "quadruped_height.cfg")
    params = cs.ClfParams(q=[1000.0, 1.0], r=[0.01], decay_rate=1e6, dist_weight=90.0)
    with pytest.raises(Infeasible) as err:
        cs.synthesize(quadruped_axis_linear(scn.quadruped), params)
    assert abs(err.value.slack) < 1e-6


def test_height_z_synthesis_factors_each_slack_matrix_once(monkeypatch):
    scn = load_scenario(orc.CONFIGS / "quadruped_height.cfg")
    prob = cs.build_synthesis_lmi(quadruped_axis_linear(scn.quadruped),
                                  scn.clf_blocks["z"].params)
    factored = orc.record_choleskys(monkeypatch)
    sol = maximize(prob)
    assert sol.status == SdpStatus.OPTIMAL
    assert factored
    assert len(set(factored)) == len(factored)
