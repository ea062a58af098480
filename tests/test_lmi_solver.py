import pickle

import numpy as np
import pytest

import _oracles as orc
from robustroa import clf_synth as cs
from robustroa.harness.scenarios import load_scenario
from robustroa import lmi_solver as lmi
from robustroa import matrixkit as mk
from robustroa.lmi_solver import (AffineSdp, Infeasible, SdpStatus, find_strictly_feasible,
                                  maximize)
from robustroa.plants import quadcopter_linearize, quadruped_axis_linear


def scalar_problem(eps=None):
    # max x s.t. x - 1 < 0
    return AffineSdp(c=[1.0], f0=np.array([[-1.0]]), fi=[np.array([[1.0]])], eps=eps)


def test_validation():
    with pytest.raises(ValueError):
        AffineSdp(c=[1.0], f0=np.array([[0.0, 1.0], [0.0, 0.0]]), fi=[np.eye(2)])
    with pytest.raises(ValueError):
        AffineSdp(c=[1.0, 2.0], f0=-np.eye(2), fi=[np.eye(2)])
    with pytest.raises(ValueError):
        AffineSdp(c=[1.0], f0=-np.eye(2), fi=[np.eye(3)])
    with pytest.raises(ValueError):
        scalar_problem(eps=0.0)
    # a sequence of blocks becomes one (k, d, d) float array, whose shape is
    # checked once, and each block is still checked for symmetry
    prob = AffineSdp(c=[1.0, 0.0], f0=-np.eye(2), fi=[np.eye(2), [[0.0, 1.0], [1.0, 0.0]]])
    assert isinstance(prob.fi, np.ndarray) and prob.fi.shape == (2, 2, 2)
    with pytest.raises(ValueError, match=r"fi has shape \(2, 2\), expected \(2, 2, 2\)"):
        AffineSdp(c=[1.0, 0.0], f0=-np.eye(2), fi=np.eye(2))
    with pytest.raises(ValueError, match=r"fi\[1\] is not symmetric"):
        AffineSdp(c=[1.0, 0.0], f0=-np.eye(2), fi=[np.eye(2), np.triu(np.ones((2, 2)))])


def test_phases_run_on_the_stacked_blocks(monkeypatch):
    # phase 2 takes prob.fi itself; phase 1 takes it with -I appended
    prob = capped_lyapunov_problem()
    seen = []
    primal_dual = lmi._primal_dual

    def spy(cmat, a, *args, **kwargs):
        seen.append(a)
        return primal_dual(cmat, a, *args, **kwargs)

    monkeypatch.setattr(lmi, "_primal_dual", spy)
    maximize(prob)
    phase1, phase2 = seen
    assert phase2 is prob.fi
    assert np.array_equal(phase1[:-1], prob.fi)
    assert np.array_equal(phase1[-1], -np.eye(prob.dim))


def test_overflowing_iterates_raise_non_finite():
    # a 1e300 input gain overflows the Schur matrix of phase 1's first
    # step: matrixkit's one error for a non-finite array (a ValueError), not
    # NaN passed on and not a certified Infeasible; it pickles back from a
    # forked CLI job
    model = cs.LinearModel(a=[[0.0, 1.0], [0.0, 0.0]], b=[[0.0], [1e300]], b_w=[[0.0], [1.0]])
    params = cs.ClfParams(q=[500.0, 10.0], r=[1.0], decay_rate=0.3, dist_weight=200.0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(mk.NonFinite, match="non-finite") as err:
        maximize(cs.build_synthesis_lmi(model, params))
    assert isinstance(err.value, ValueError)
    again = pickle.loads(pickle.dumps(err.value))
    assert type(again) is mk.NonFinite and str(again) == str(err.value)


def test_evaluate():
    p = AffineSdp(c=[1.0, 0.0], f0=-np.eye(2),
                  fi=[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert np.allclose(orc.sdp_evaluate(p, [0.25, -0.5]), np.diag([-0.75, -1.5]))


def test_slack_factor_logdet_matches_slogdet():
    # the barrier oracle's phi = -t c'x - log det S(x), with log det S read
    # off the factor
    rng = np.random.default_rng(37)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n))
        s = float(rng.uniform(1e-3, 1e3)) * (a @ a.T + n * np.eye(n))
        lo = orc.slack_factor(-s, [], [])
        sign, ref = np.linalg.slogdet(s)
        assert sign == 1.0
        phi = orc.barrier_value(np.zeros(0), np.zeros(0), lo)
        assert abs(phi + ref) < 1e-10 * max(abs(ref), 1.0)
    lo = orc.slack_factor(np.diag([-2.0, -8.0]), [], [])
    phi = orc.barrier_value(np.zeros(0), np.zeros(0), lo)
    assert phi == pytest.approx(-np.log(16.0), rel=1e-15)


def test_slack_factor_none_outside_cone():
    # the barrier oracle's cone-membership test: no factor off the positive
    # definite cone
    f0, fi = -np.eye(2), [np.diag([1.0, 0.0])]
    assert orc.slack_factor(f0, fi, [0.5]) is not None
    assert orc.slack_factor(f0, fi, [1.0]) is None  # S = diag(0, 1)
    assert orc.slack_factor(f0, fi, [1.001]) is None
    with pytest.raises(ValueError):
        orc.slack_factor(f0, fi, [np.nan])


def test_scalar_optimum():
    prob = scalar_problem()
    sol = maximize(prob)
    assert sol.status == SdpStatus.OPTIMAL
    assert abs(sol.objective_value - 1.0) < 1e-5
    assert np.linalg.eigvalsh(orc.sdp_evaluate(prob, sol.x))[-1] < 0.0


def test_phase1_interval():
    # F(x) = diag(x - 1, -x - 1): strictly feasible iff -1 < x < 1
    p = AffineSdp(c=[1.0], f0=-np.eye(2), fi=[np.diag([1.0, -1.0])])
    x0 = find_strictly_feasible(p)
    f = orc.sdp_evaluate(p, x0) + p.eps * np.eye(2)
    assert np.linalg.eigvalsh(f)[-1] < 0.0


def test_separable_two_vars():
    p = AffineSdp(c=[1.0, 1.0], f0=np.diag([-2.0, -3.0]),
                  fi=[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    sol = maximize(p)
    assert sol.status == SdpStatus.OPTIMAL
    assert np.allclose(sol.x, [2.0, 3.0], atol=1e-5)


def test_infeasible_raises():
    # F(x) = I + x*diag(1,-1): top eigenvalue >= 1 for every x
    p = AffineSdp(c=[1.0], f0=np.eye(2), fi=[np.diag([1.0, -1.0])])
    with pytest.raises(Infeasible) as err:
        maximize(p)
    assert err.value.slack > 0.5  # true minimum slack is 1
    # a refusal raised in a forked CLI job is pickled back to the parent
    again = pickle.loads(pickle.dumps(err.value))
    assert type(again) is Infeasible
    assert again.slack == err.value.slack and str(again) == str(err.value)


def capped_lyapunov_problem():
    """max tr(Y) s.t. blockdiag(A'Y + YA + 0.1*Y + I, Y - I) < 0, A = diag(-1,-2).

    Without the Y < I cap the trace is unbounded (the Lyapunov block improves
    as Y grows); the cap pins the optimum at Y -> I, tr -> 2.
    Variables x = (y11, y12, y22).
    """
    a = np.diag([-1.0, -2.0])
    lam = 0.1
    f0 = np.zeros((4, 4))
    f0[:2, :2] = np.eye(2)
    f0[2:, 2:] = -np.eye(2)
    fi = []
    c = []
    for (i, j) in ((0, 0), (0, 1), (1, 1)):
        e = np.zeros((2, 2))
        e[i, j] = e[j, i] = 1.0
        blk = np.zeros((4, 4))
        blk[:2, :2] = a.T @ e + e @ a + lam * e
        blk[2:, 2:] = e
        fi.append(blk)
        c.append(1.0 if i == j else 0.0)
    return AffineSdp(c=np.array(c), f0=f0, fi=fi)


def brute_force_capped_lyapunov(prob, centers, half_width, step):
    """Grid search over (y11, y12, y22); feasibility by 2x2 definiteness."""
    axes = [np.arange(c - half_width, c + half_width + step / 2, step) for c in centers]
    y11, y12, y22 = np.meshgrid(*axes, indexing="ij")
    # Lyapunov block < 0
    l11 = -1.9 * y11 + 1.0
    l22 = -3.9 * y22 + 1.0
    l12 = -2.9 * y12
    lyap_nd = (l11 < 0) & (l22 < 0) & (l11 * l22 - l12**2 > 0)
    # cap block Y - I < 0
    c11 = y11 - 1.0
    c22 = y22 - 1.0
    cap_nd = (c11 < 0) & (c22 < 0) & (c11 * c22 - y12**2 > 0)
    tr = np.where(lyap_nd & cap_nd, y11 + y22, -np.inf)
    best = np.unravel_index(np.argmax(tr), tr.shape)
    return float(tr[best]), np.array([axes[k][best[k]] for k in range(3)])


def test_capped_lyapunov_vs_grid_oracle():
    prob = capped_lyapunov_problem()
    sol = maximize(prob)
    assert sol.status == SdpStatus.OPTIMAL
    # coarse pass over a wide box, then refine around the best cell to 1e-3
    best_tr, best_x = brute_force_capped_lyapunov(prob, centers=(0.5, 0.0, 0.5),
                                                  half_width=0.6, step=0.025)
    best_tr, best_x = brute_force_capped_lyapunov(prob, centers=best_x,
                                                  half_width=0.03, step=1e-3)
    assert abs(sol.objective_value - 2.0) < 1e-4  # analytic supremum
    assert abs(sol.objective_value - best_tr) < 5e-3  # grid-limited oracle
    assert best_tr <= sol.objective_value + 1e-6  # solver at least as good


def test_solution_inside_cone_with_margin():
    prob = capped_lyapunov_problem()
    sol = maximize(prob)
    assert np.linalg.eigvalsh(orc.sdp_evaluate(prob, sol.x))[-1] < -0.5 * prob.eps


def test_each_slack_matrix_factored_once(monkeypatch):
    # one Cholesky factor per iterate serves the gradient, the Hessian and
    # the barrier value, and an accepted trial point keeps its factor
    factored = orc.record_choleskys(monkeypatch)
    maximize(capped_lyapunov_problem())
    assert factored
    assert len(set(factored)) == len(factored)


def synthesis_case(case):
    """(model, params) of the bundled fig3 [clf] block or of one axis of
    quadruped_height.cfg."""
    if case == "fig3":
        scn = load_scenario(orc.CONFIGS / "quadcopter_fig8.cfg")
        return quadcopter_linearize(scn.quadcopter), scn.clf_blocks["main"].params
    scn = load_scenario(orc.CONFIGS / "quadruped_height.cfg")
    return quadruped_axis_linear(scn.quadruped), scn.clf_blocks[case[-1]].params


@pytest.mark.parametrize("case", ["capped", "fig3", "height-y", "height-z"])
def test_objective_matches_barrier_oracle(case):
    # the optimum agrees with the log-det barrier's within that method's
    # d/t < 1e-6 gap, and the point is strictly inside the cone
    if case == "capped":
        prob = capped_lyapunov_problem()
        sol = maximize(prob)
    else:
        model, params = synthesis_case(case)
        prob = cs.build_synthesis_lmi(model, params)
        cert, sol = cs.synthesize(model, params)
        assert cs.verify_closed_loop(model, cert) < 0.0
    x_ref, clean = orc.barrier_maximize(prob)
    assert sol.status == SdpStatus.OPTIMAL and clean
    assert abs(sol.objective_value - float(prob.c @ x_ref)) <= 1e-6
    np.linalg.cholesky(-orc.sdp_evaluate(prob, sol.x) - prob.eps * np.eye(prob.dim))


def random_band_problem(rng):
    """max c'x s.t. -I < G0 + sum_i x_i G_i < I (two diagonal blocks) with
    random symmetric G at a random scale: bounded, and strictly feasible or
    not depending on the draw."""
    n = int(rng.integers(2, 7))
    k = int(rng.integers(1, n * (n + 1) // 2 + 1))
    g = [rng.standard_normal((n, n)) for _ in range(k + 1)]
    g = [gi + gi.T for gi in g]
    g[0] *= 0.3
    eye, zero = np.eye(n), np.zeros((n, n))
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    f0 = scale * np.block([[g[0] - eye, zero], [zero, -g[0] - eye]])
    fi = [scale * np.block([[gi, zero], [zero, -gi]]) for gi in g[1:]]
    return AffineSdp(c=rng.standard_normal(k), f0=f0, fi=fi)


def test_random_problems_match_barrier_oracle():
    # the same verdict as the barrier on each draw; the same phase-1 slack
    # when there is no strictly feasible point, else the same optimum
    rng = np.random.default_rng(1)
    verdicts = set()
    for _ in range(20):
        prob = random_band_problem(rng)
        x_ref, slack_ref = orc.barrier_phase1(prob)
        feasible = slack_ref <= -prob.eps
        verdicts.add(feasible)
        if not feasible:
            with pytest.raises(Infeasible) as err:
                maximize(prob)
            assert abs(err.value.slack - slack_ref) <= 1e-6 * (1.0 + abs(slack_ref))
            continue
        sol = maximize(prob)
        # two draws run a barrier stage into its Newton cap; its iterate is
        # still interior and within the gap, so it is compared all the same
        x_ref, _ = orc.barrier_maximize(prob)
        assert sol.status == SdpStatus.OPTIMAL
        assert abs(sol.objective_value - float(prob.c @ x_ref)) <= 1e-6
        assert np.linalg.eigvalsh(orc.sdp_evaluate(prob, sol.x))[-1] < -prob.eps
    assert verdicts == {True, False}


def test_phase1_finds_thin_feasible_set():
    # the synthesis block without its -Y part at decay_rate 1e6 is strictly
    # feasible (best slack about -1e-3, reached with a slightly negative Y);
    # the barrier's phase 1 stalled on it and reported Infeasible(0.668)
    scn = load_scenario(orc.CONFIGS / "quadruped_height.cfg")
    model = quadruped_axis_linear(scn.quadruped)
    params = cs.ClfParams(q=[1000.0, 1.0], r=[0.01], decay_rate=1e6, dist_weight=90.0)
    full = cs.build_synthesis_lmi(model, params)
    d = full.dim - model.n_states
    plain = AffineSdp(c=full.c, f0=full.f0[:d, :d], fi=[f[:d, :d] for f in full.fi])
    x = find_strictly_feasible(plain)
    assert np.linalg.eigvalsh(orc.sdp_evaluate(plain, x) + plain.eps * np.eye(d))[-1] < 0.0


def test_eps_monotonicity():
    # shrinking the margin tenfold can only enlarge the feasible set
    wide = maximize(scalar_problem(eps=1e-4))
    tight = maximize(scalar_problem(eps=1e-5))
    assert tight.objective_value >= wide.objective_value - 1e-7
