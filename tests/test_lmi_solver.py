import pickle

import numpy as np
import pytest

import _oracles as orc
from robustroa.lmi_solver import (AffineSdp, Infeasible, SdpStatus, _barrier_value,
                                  _slack_factor, find_strictly_feasible, maximize)


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


def test_evaluate():
    p = AffineSdp(c=[1.0, 0.0], f0=-np.eye(2),
                  fi=[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert np.allclose(orc.sdp_evaluate(p, [0.25, -0.5]), np.diag([-0.75, -1.5]))


def test_slack_factor_logdet_matches_slogdet():
    # phi = -t c'x - log det S(x), with log det S read off the factor
    rng = np.random.default_rng(37)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n))
        s = float(rng.uniform(1e-3, 1e3)) * (a @ a.T + n * np.eye(n))
        lo = _slack_factor(-s, [], [])
        sign, ref = np.linalg.slogdet(s)
        assert sign == 1.0
        assert abs(_barrier_value(np.zeros(0), np.zeros(0), lo) + ref) < 1e-10 * max(abs(ref), 1.0)
    lo = _slack_factor(np.diag([-2.0, -8.0]), [], [])
    assert _barrier_value(np.zeros(0), np.zeros(0), lo) == pytest.approx(-np.log(16.0), rel=1e-15)


def test_slack_factor_none_outside_cone():
    # the barrier's cone-membership test: no factor off the positive definite cone
    f0, fi = -np.eye(2), [np.diag([1.0, 0.0])]
    assert _slack_factor(f0, fi, [0.5]) is not None
    assert _slack_factor(f0, fi, [1.0]) is None  # S = diag(0, 1)
    assert _slack_factor(f0, fi, [1.001]) is None
    with pytest.raises(ValueError):
        _slack_factor(f0, fi, [np.nan])


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


def test_outer_objectives_monotone():
    for prob in (scalar_problem(), capped_lyapunov_problem()):
        sol = maximize(prob)
        diffs = np.diff(sol.outer_objectives)
        assert np.all(diffs >= -1e-9 * (1.0 + abs(sol.objective_value)))


def test_eps_monotonicity():
    # shrinking the margin tenfold can only enlarge the feasible set
    wide = maximize(scalar_problem(eps=1e-4))
    tight = maximize(scalar_problem(eps=1e-5))
    assert tight.objective_value >= wide.objective_value - 1e-7
