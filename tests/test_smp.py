import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from mfsmp import forward, smp
from mfsmp.adjoint import linearize, solve_adjoint, solve_linear_forward
from mfsmp.cli import main, write_control_csv
from mfsmp.errors import CostDomainError, MfsmpError, SimulationError
from mfsmp.forward import constant_control, cost, simulate
from mfsmp.instances import (random_control, random_lq, random_prodcons, random_spike,
                             smooth_nonlinear)
from mfsmp.problem import (AdmissibleSet, builtin, parse_problem, serialize_problem,
                           validate_spec)
from mfsmp.smp import (SpikeVariation, _hamiltonian_gradient_parts, adjoint_gradient,
                       conditional_costate, duality_residual, fd_cost_gradient,
                       gradient_consistency, hamiltonian, hamiltonian_gradient,
                       necessary_check, rate_check, rate_ratios, spike_cost_increment,
                       sufficiency_check, variational_state)
from mfsmp.tree import AdaptedProcess, expect


def _stored_adjoint(spec, tree, traj, u):
    steps, terminal = linearize(spec, tree, traj, u)
    return solve_adjoint(steps.__getitem__, tree, terminal)


def _solved(spec, tree, u):
    traj = simulate(spec, tree, u)
    return traj, _stored_adjoint(spec, tree, traj, u)


def _stored_spike_system(spec, tree, traj, u, spike):
    """The spike response's linear system stored whole: every step's
    coefficients from `linearize` as a list, and forward forcing that is the
    spike's h f_u bump, sigma_u bump at its step and zero at every other step."""
    steps = range(tree.grid.n_steps + 1)
    drift = [np.zeros((tree.size(k), spec.n)) for k in steps]
    diff = [np.zeros((tree.size(k), spec.d, spec.n)) for k in steps]
    k = spike.step
    x, y = traj.rows(k)
    bump = spike.scale * np.broadcast_to(spike.delta, (tree.size(k), spec.r))
    drift[k] = tree.grid.h * np.einsum("mia,ma->mi", spec.coeffs.f_u(k, x, y, u.at(k)), bump)
    diff[k] = np.einsum("mjia,ma->mji", spec.coeffs.sigma_u(k, x, y, u.at(k)), bump)
    return linearize(spec, tree, traj, u)[0], drift, diff


def test_hamiltonian_e1_closed_form(e1):
    spec, tree = e1
    u = constant_control(spec, tree, 0.0)
    traj, adj = _solved(spec, tree, u)
    # E{p|F} = 0, q = -2, sigma = 1, l = v^2: H(v) = -2 - v^2
    for v in (-1.0, -0.3, 0.0, 0.5, 1.0):
        assert hamiltonian(spec, tree, traj, adj, 0, [v])[0] == pytest.approx(-2.0 - v ** 2)
    grid = np.linspace(-1, 1, 201)
    values = [hamiltonian(spec, tree, traj, adj, 0, [v])[0] for v in grid]
    assert grid[int(np.argmax(values))] == pytest.approx(0.0, abs=1e-12)


def test_hamiltonian_zero_problem_identically_zero():
    spec = builtin("lq_meanfield", n=1, r=1, d=1, h=1.0, N=1, x0=[0.0],
                   lo=-1.0, hi=1.0)
    tree = spec.build_tree()
    u = constant_control(spec, tree, 0.2)
    traj, adj = _solved(spec, tree, u)
    for k in (0, 1):
        assert np.all(hamiltonian(spec, tree, traj, adj, k, [0.7]) == 0.0)
        assert np.all(hamiltonian_gradient(spec, tree, traj, adj, u, k) == 0.0)


def test_hamiltonian_prodcons_dynamics_consistent_form():
    # H(t, v) = utility(v) + E{p|F} (h (1 - dep) x - v) + q x / 2; the consumption
    # term carries no extra step factor because the dynamics subtract v directly
    spec = builtin("prodcons", delta_util=0.5, depreciation=0.5, h=0.5, N=1, x0=1.0,
                   v_floor=0.2)
    tree = spec.build_tree()
    u = constant_control(spec, tree, 0.6)
    traj, adj = _solved(spec, tree, u)
    k = 0
    ep = expect(tree, adj.p.at(1), 1)  # root: conditional = total expectation
    x0, v = 1.0, 0.85
    utility = -1.0 / v  # delta/(delta-1) v^{1-1/delta} at delta = 1/2
    expected = utility + ep[0] * (0.5 * 0.5 * x0 - v) + adj.q.at(0)[0, 0, 0] * 0.5 * x0
    assert hamiltonian(spec, tree, traj, adj, k, [v])[0] == pytest.approx(expected)


def test_hamiltonian_gradient_e1_values(e1):
    spec, tree = e1
    u0 = constant_control(spec, tree, 0.0)
    traj0, adj0 = _solved(spec, tree, u0)
    assert hamiltonian_gradient(spec, tree, traj0, adj0, u0, 0)[0, 0] == pytest.approx(0.0)
    u1 = constant_control(spec, tree, 1.0)
    traj1, adj1 = _solved(spec, tree, u1)
    assert hamiltonian_gradient(spec, tree, traj1, adj1, u1, 0)[0, 0] == pytest.approx(-4.0)


def test_necessary_check_examples(e1):
    spec, tree = e1
    u0 = constant_control(spec, tree, 0.0)
    report = necessary_check(spec, u0, adjoint_gradient(spec, tree, u0), tol=1e-10)
    assert report.passed and report.worst.value == pytest.approx(0.0, abs=1e-14)

    u_bad = constant_control(spec, tree, 0.5)
    report_b = necessary_check(spec, u_bad, adjoint_gradient(spec, tree, u_bad), tol=1e-6)
    assert not report_b.passed
    # H_u = -2 at u = 0.5; worst feasible direction is v = -1: <-2, -1.5> = 3
    assert report_b.worst.value == pytest.approx(3.0)


def test_necessary_check_interior_stationary_unbounded():
    spec = builtin("lq_meanfield", n=1, r=1, d=1, h=1.0, N=0, x0=[0.0],
                   B=[[1.0]], sigma=[{"s0": [1.0]}], R=[[2.0]], G=[[2.0]])
    tree = spec.build_tree()
    u = constant_control(spec, tree, 0.0)
    assert necessary_check(spec, u, adjoint_gradient(spec, tree, u), tol=1e-10).passed


def test_variational_state_zero_scale_and_single_step(e1):
    spec, tree = e1
    u = constant_control(spec, tree, 0.0)
    traj, _ = _solved(spec, tree, u)
    xi0 = variational_state(spec, tree, traj, u, SpikeVariation(0, np.array([[1.0]]), 0.0))
    assert all(np.all(xi0.at(k) == 0.0) for k in (0, 1))
    xi = variational_state(spec, tree, traj, u, SpikeVariation(0, np.array([[1.0]]), 0.25))
    np.testing.assert_allclose(xi.at(1), 0.25)


def test_variational_state_linearity_in_scale():
    spec = random_lq(51, steps_max=3)
    tree = spec.build_tree()
    u = random_control(spec, tree, 52)
    traj = simulate(spec, tree, u)
    delta = np.random.default_rng(53).uniform(-1, 1, (tree.size(1), spec.r))
    xi1 = variational_state(spec, tree, traj, u, SpikeVariation(1, delta, 0.5))
    xi2 = variational_state(spec, tree, traj, u, SpikeVariation(1, delta, 1.0))
    for k in range(tree.grid.n_steps + 2):
        np.testing.assert_array_equal(2.0 * xi1.at(k), xi2.at(k))


def test_duality_residual_e1_both_sides_zero(e1):
    spec, tree = e1
    u = constant_control(spec, tree, 0.0)
    traj, adj = _solved(spec, tree, u)
    spike = SpikeVariation(0, np.array([[1.0]]), 0.3)
    xi = variational_state(spec, tree, traj, u, spike)
    lhs = expect(tree, np.einsum("mi,mi->m", adj.p.at(1), xi.at(1)), 1)
    assert lhs == pytest.approx(0.0, abs=1e-14)
    assert duality_residual(spec, tree, traj, adj, u, spike) <= 1e-14
    # degenerate zero-magnitude spike: both sides of the identity vanish
    assert duality_residual(spec, tree, traj, adj, u,
                            SpikeVariation(0, np.array([[1.0]]), 0.0)) == 0.0


def test_duality_residual_random_instances():
    for seed in range(20):
        spec = random_lq(seed) if seed % 3 else random_prodcons(seed)
        tree = spec.build_tree()
        u = random_control(spec, tree, 500 + seed)
        traj, adj = _solved(spec, tree, u)
        spike = random_spike(spec, tree, u, 700 + seed, 0.05)
        assert duality_residual(spec, tree, traj, adj, u, spike) <= 1e-10


def test_spike_cost_increment_e1(e1):
    spec, tree = e1
    eps = 0.25
    pred, act = spike_cost_increment(spec, tree, constant_control(spec, tree, 0.0),
                                     SpikeVariation(0, np.array([[1.0]]), eps))
    assert pred == pytest.approx(0.0, abs=1e-14)
    assert act == pytest.approx(2.0 * eps ** 2)

    pred, act = spike_cost_increment(spec, tree, constant_control(spec, tree, 0.5),
                                     SpikeVariation(0, np.array([[1.0]]), eps))
    assert pred == pytest.approx(2.0 * eps)
    assert act == pytest.approx(2.0 * eps + 2.0 * eps ** 2)

    pred, act = spike_cost_increment(spec, tree, constant_control(spec, tree, 0.5),
                                     SpikeVariation(0, np.array([[1.0]]), 0.0))
    assert (pred, act) == (0.0, 0.0)


def test_first_order_increment_vanishing_gap():
    # |actual - predicted| / eps -> 0 down a geometric ladder
    spec = smooth_nonlinear(2)
    tree = spec.build_tree()
    u = random_control(spec, tree, 61)
    gaps = []
    for eps in (1e-1, 1e-2, 1e-3):
        spike = random_spike(spec, tree, u, 62, eps, max_scale=1e-1, step=0)
        pred, act = spike_cost_increment(spec, tree, u, spike)
        gaps.append(abs(act - pred) / eps)
    assert gaps[1] <= 0.15 * gaps[0]
    assert gaps[2] <= 0.15 * gaps[1]


def test_predicted_slope_matches_gradient_pairing():
    spec = random_lq(71, steps_max=3)
    tree = spec.build_tree()
    u = random_control(spec, tree, 72)
    spike = random_spike(spec, tree, u, 73, 0.02)
    g = adjoint_gradient(spec, tree, u)
    pairing = spike.scale * float(expect(
        tree, np.einsum("ma,ma->m", g.at(spike.step), spike.delta), spike.step))
    pred, _ = spike_cost_increment(spec, tree, u, spike)
    assert pred == pytest.approx(pairing, abs=1e-12)


def test_rate_check_lq_and_zero_dynamics(e1):
    spec, tree = e1
    u = constant_control(spec, tree, 0.0)
    spike = SpikeVariation(0, np.array([[0.5]]), 1e-1)
    rates = rate_ratios(spec, tree, u, spike)
    assert max(rates["ratio2"]) <= 1e-20
    assert rate_check(spec, tree, u, spike).passed

    zero = builtin("lq_meanfield", n=1, r=1, d=1, h=1.0, N=1, x0=[0.0],
                   lo=-1.0, hi=1.0)
    tz = zero.build_tree()
    uz = constant_control(zero, tz, 0.0)
    rz = rate_ratios(zero, tz, uz, SpikeVariation(0, np.array([[0.5]]), 1e-1))
    assert max(rz["ratio1"]) == 0.0 and max(rz["ratio2"]) == 0.0


def test_rate_check_smooth_nonlinear_second_order():
    spec = smooth_nonlinear(1)
    tree = spec.build_tree()
    u = random_control(spec, tree, 81)
    spike = random_spike(spec, tree, u, 82, 1e-1, max_scale=1e-1, step=0)
    rates = rate_ratios(spec, tree, u, spike)
    r2 = rates["ratio2"]
    assert r2[1] <= 0.1 * r2[0] and r2[2] <= 0.1 * r2[1]
    assert rate_check(spec, tree, u, spike).passed


def test_sufficiency_e1_and_negative_mean_gradient(e1):
    spec, tree = e1
    u = constant_control(spec, tree, 0.0)
    traj, adj = _solved(spec, tree, u)
    report = sufficiency_check(spec, tree, traj, adj, u)
    assert report.passed

    bad = builtin("lq_meanfield", n=1, r=1, d=1, h=1.0, N=0, x0=[0.0],
                  B=[[1.0]], R=[[2.0]], q_mean=[-1.0], lo=-1.0, hi=1.0)
    tb = bad.build_tree()
    ub = constant_control(bad, tb, 0.0)
    traj_b, adj_b = _solved(bad, tb, ub)
    report_b = sufficiency_check(bad, tb, traj_b, adj_b, ub)
    signs = [r for r in report_b.residuals if "mean-gradient" in r.label][0]
    assert signs.value >= 1.0 - 1e-12 and not report_b.passed


def test_adjoint_gradient_closed_forms(e1):
    spec, tree = e1
    for u_val in (0.5, -0.25):
        g = adjoint_gradient(spec, tree, constant_control(spec, tree, u_val))
        assert g.at(0)[0, 0] == pytest.approx(4.0 * u_val)
    zero = builtin("lq_meanfield", n=1, r=1, d=1, h=1.0, N=1, x0=[0.0],
                   lo=-1.0, hi=1.0)
    tz = zero.build_tree()
    gz = adjoint_gradient(zero, tz, constant_control(zero, tz, 0.4))
    assert all(np.all(gz.at(k) == 0.0) for k in (0, 1))
    mf = builtin("lq_meanfield", n=1, r=1, d=1, h=1.0, N=0, x0=[0.0],
                 B=[[1.0]], G_mean=[[2.0]], lo=-5.0, hi=5.0)
    tm = mf.build_tree()
    gm = adjoint_gradient(mf, tm, constant_control(mf, tm, 0.7))
    assert gm.at(0)[0, 0] == pytest.approx(1.4)


def test_gradient_consistency_random_instances():
    for seed in range(8):
        spec = random_lq(seed, steps_max=3) if seed % 2 else random_prodcons(seed, steps_max=3)
        tree = spec.build_tree()
        u = random_control(spec, tree, 900 + seed)
        err, _, _ = gradient_consistency(spec, tree, u)
        assert err <= 1e-6


def test_fd_gradient_carries_probability_weight(e1):
    # raw dJ/du at a node equals the node probability times the costate value
    spec, tree = e1
    u = constant_control(spec, tree, 0.5)
    g_fd = fd_cost_gradient(spec, tree, u)
    assert g_fd.at(0)[0, 0] == pytest.approx(4.0 * 0.5, rel=1e-8)  # root prob is 1


def _fd_loop(spec, tree, u, step=1e-5):
    """Reference finite differences: one unbatched `cost` per +-step perturbation,
    in the order level, node, coordinate, +step before -step."""
    g = AdaptedProcess.zeros(tree, 0, tree.grid.n_steps, (spec.r,))
    for k in range(tree.grid.n_steps + 1):
        vals = np.zeros((tree.size(k), spec.r))
        for node in range(tree.size(k)):
            for i in range(spec.r):
                up, down = u.copy(), u.copy()
                up.at(k)[node, i] += step
                down.at(k)[node, i] -= step
                j_up = cost(spec, tree, up, validate=False)
                j_down = cost(spec, tree, down, validate=False)
                vals[node, i] = (j_up - j_down) / (2.0 * step) / tree.abs_prob[k][node]
        g.set_level(k, vals)
    return g


FD_TABLES_CFG = {
    "dims": {"n": 2, "r": 1, "d": 1},
    "grid": {"t0": 0.0, "h": 0.5, "N": 2},
    "noise": {"kind": "binary"},
    "x0": [0.5, -0.3],
    "tables": {
        "A": {"per_step": [[[0.1, 0.2], [0.0, -0.3]], [[0.0, 0.1], [0.2, 0.0]],
                           [[-0.2, 0.0], [0.1, 0.1]]]},
        "A_mean": [[0.05, 0.0], [0.0, 0.1]],
        "B": {"per_step": [[[1.0], [0.5]], [[0.5], [1.0]], [[0.2], [0.3]]]},
        "sigma": [{"C": [[0.2, 0.0], [0.0, 0.1]], "s0": [0.1, 0.2]}],
        "Q": [[1.0, 0.0], [0.0, 1.0]], "Q_mean": [[0.2, 0.0], [0.0, 0.2]],
        "R": {"per_step": [[[2.0]], [[1.0]], [[1.5]]]},
        "G": [[1.0, 0.0], [0.0, 1.0]], "g": [0.1, -0.2],
    },
    "admissible": [{"t": "all", "lo": [-1.0], "hi": [1.0]}],
    "direction": "minimize",
}

FD_CASES = {
    "lq-d2-r2": lambda: builtin(
        "lq_meanfield", n=2, r=2, d=2, h=0.5, N=2, t0=0.25, x0=[0.3, -1.0],
        A=[[0.1, 0.2], [0.0, -0.3]], A_mean=[[0.05, 0.0], [0.0, 0.1]],
        B=[[1.0, 0.5], [0.2, 1.0]],
        sigma=[{"s0": [0.1, 0.2], "C": [[0.1, 0.0], [0.0, 0.2]]},
               {"s0": [0.3, 0.0], "C_mean": [[0.0, 0.1], [0.1, 0.0]]}],
        Q=[[1.0, 0.0], [0.0, 1.0]], Q_mean=[[0.3, 0.0], [0.0, 0.3]], R=[[2.0, 0.0], [0.0, 1.0]],
        G=[[1.0, 0.0], [0.0, 1.0]], G_mean=[[0.2, 0.0], [0.0, 0.2]], q=[0.1, -0.2],
        lo=-1.0, hi=1.0),
    "trinomial": lambda: builtin(
        "lq_meanfield", n=1, r=1, d=1, h=0.5, N=3, x0=[1.0], noise="trinomial",
        trinomial_p=0.2, A_mean=[[0.3]], B=[[1.0]], sigma=[{"s0": [1.0], "C": [[0.3]]}],
        R=[[2.0]], G=[[1.0]], G_mean=[[0.5]], lo=-2.0, hi=2.0),
    "tables": lambda: parse_problem(json.dumps(FD_TABLES_CFG)),
    "prodcons": lambda: builtin("prodcons", delta_util=0.5, depreciation=0.3, h=0.5, N=3,
                                x0=1.0, v_floor=0.05, v_cap=1.0),
}


JACOBIANS = ("f_x", "f_y", "f_u", "sigma_x", "sigma_y", "sigma_u")


def _per_node(spec):
    """`spec` with every Jacobian block copied onto each node of the step."""
    def spread(fn):
        def evaluator(k, x, y, u):
            block = fn(k, x, y, u)
            return np.broadcast_to(block, (x.shape[0],) + block.shape[1:]).copy()
        return evaluator

    return dataclasses.replace(spec, coeffs=dataclasses.replace(
        spec.coeffs, **{name: spread(getattr(spec.coeffs, name)) for name in JACOBIANS}))


@pytest.mark.parametrize("case", FD_CASES)
def test_step_blocks_match_per_node_jacobians_bitwise(case):
    # a step-constant Jacobian comes as one block with a length-1 node axis;
    # every consumer broadcasts it, with the bits of the per-node arrays
    spec = FD_CASES[case]()
    tree = spec.build_tree()
    u = random_control(spec, tree, 8)
    x, uk = np.zeros((3, spec.n)), u.at(0)[:1].repeat(3, axis=0)
    assert all(getattr(spec.coeffs, name)(0, x, x, uk).shape[0] == 1 for name in JACOBIANS)
    spike = random_spike(spec, tree, u, 9, 0.05)
    runs = []
    for s in (spec, _per_node(spec)):
        g, traj, adj = adjoint_gradient(s, tree, u, return_all=True)
        runs.append((g, adj, duality_residual(s, tree, traj, adj, u, spike)))
    (g, adj, dual), (g_wide, adj_wide, dual_wide) = runs
    for k in g.levels():
        np.testing.assert_array_equal(g.at(k), g_wide.at(k))
        np.testing.assert_array_equal(adj.q.at(k), adj_wide.q.at(k))
    for k in range(tree.grid.n_levels):
        np.testing.assert_array_equal(adj.p.at(k), adj_wide.p.at(k))
    assert dual == dual_wide and dual <= 1e-10


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("per_node", [False, True])
@pytest.mark.parametrize("case", sorted(FD_CASES))
def test_gradient_sweep_matches_stored_adjoint_bitwise(case, per_node):
    # one backward sweep over coefficients made a step at a time, against
    # the stored linearization, its solve and the Hamiltonian gradient
    spec = _per_node(FD_CASES[case]()) if per_node else FD_CASES[case]()
    tree = spec.build_tree()
    u = random_control(spec, tree, 8)
    g, traj, adj = adjoint_gradient(spec, tree, u, return_all=True)
    ref_traj = simulate(spec, tree, u)
    ref = _stored_adjoint(spec, tree, ref_traj, u)
    assert all(_same_bits(adj.p.at(k), ref.p.at(k)) for k in range(tree.grid.n_levels))
    g_alone = adjoint_gradient(spec, tree, u)
    for k in u.levels():
        assert _same_bits(adj.q.at(k), ref.q.at(k))
        expected = -hamiltonian_gradient(spec, tree, ref_traj, ref, u, k)
        assert _same_bits(g.at(k), expected) and _same_bits(g_alone.at(k), expected)


def _reference_necessary_residuals(spec, u, hu_levels):
    """(value, step, node) of the worst node of each step: sum over the
    coordinates of max <H_u, v - u> on the box, one scalar at a time."""
    rows = []
    for k, hu in enumerate(hu_levels):
        lo, hi = spec.admissible.lo[k], spec.admissible.hi[k]
        per_node = []
        for h_row, u_row in zip(hu.tolist(), u.at(k).tolist()):
            total = 0.0
            for i, (a, v) in enumerate(zip(h_row, u_row)):
                up = max(a, 0.0) * (hi[i] - v) if np.isfinite(hi[i]) else max(a, 0.0)
                down = max(-a, 0.0) * (v - lo[i]) if np.isfinite(lo[i]) else max(-a, 0.0)
                total += max(up, down)
            per_node.append(total)
        node = int(np.argmax(per_node))
        rows.append((per_node[node], k, node))
    return rows


@pytest.mark.parametrize("case", sorted(FD_CASES))
def test_necessary_check_reads_g_as_the_hamiltonian_gradient(case):
    # the verdict reads g = -H_u from the gradient sweep; residual by residual
    # it equals the residuals of H_u evaluated on its own, to the bit, at a
    # seeded control where the check fails
    spec = FD_CASES[case]()
    tree = spec.build_tree()
    u = random_control(spec, tree, 8)
    g, traj, adj = adjoint_gradient(spec, tree, u, return_all=True)
    report = necessary_check(spec, u, g)
    expected = _reference_necessary_residuals(
        spec, u, [hamiltonian_gradient(spec, tree, traj, adj, u, k) for k in u.levels()])
    assert not report.passed
    assert len(report.residuals) == len(expected)
    for res, (value, k, node) in zip(report.residuals, expected):
        assert (res.label, res.level, res.node, res.tol) == (f"max <H_u, v-u> @step {k}",
                                                             k, node, 1e-6)
        assert res.value == value


def _memory_lq():
    """Mean-field LQ at N = 14, n = 3, with every coupling on, and a control."""
    n = 3
    spec = builtin("lq_meanfield", n=n, r=1, d=1, h=0.1, N=14, x0=[0.3, -0.2, 0.1],
                   A=0.2 * np.eye(n), A_mean=0.1 * np.eye(n), B=np.ones((n, 1)),
                   sigma=[{"s0": [0.1] * n, "C": 0.2 * np.eye(n), "C_mean": 0.1 * np.eye(n)}],
                   Q=np.eye(n), Q_mean=0.3 * np.eye(n), R=[[1.0]], q=[0.1] * n,
                   G=np.eye(n), G_mean=0.2 * np.eye(n), g=[0.2] * n)
    tree = spec.build_tree()
    return spec, tree, random_control(spec, tree, 4)


def _traced_peak(run):
    """The tracemalloc peak of `run()` above what was held when it began."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("return_all, bound", [(False, 3.5), (True, 4.0)])
def test_adjoint_gradient_holds_about_one_costate_level(return_all, bound):
    # the sweep keeps no level of p or q unless asked, makes the coefficients
    # a step at a time and drops each E{p|F} once its g_k is made: at N = 14
    # its peak is about 2.6 leaf state arrays, 3.7 with the p and q it
    # returns (3.3), where the stored linearization and costate took 6.6
    spec, tree, u = _memory_lq()
    traj = simulate(spec, tree, u)
    leaf_bytes = traj.at(tree.grid.n_steps + 1).nbytes
    peak = _traced_peak(lambda: adjoint_gradient(spec, tree, u, return_all=return_all, traj=traj))
    assert peak <= bound * leaf_bytes


def test_duality_residual_holds_about_one_response_level():
    # a spike at the root streams its response through every level with
    # coefficients made a step at a time, one level of xi held: its peak is
    # about 3.1 leaf state arrays at N = 14, where storing the response and
    # the coefficients of every step takes 4.1
    spec, tree, u = _memory_lq()
    _, traj, adj = adjoint_gradient(spec, tree, u, return_all=True)
    spike = random_spike(spec, tree, u, 5, 0.05, step=0)
    leaf_bytes = traj.at(tree.grid.n_steps + 1).nbytes
    peak = _traced_peak(lambda: duality_residual(spec, tree, traj, adj, u, spike))
    assert peak <= 3.5 * leaf_bytes


def test_terminal_costate_is_negated_in_place(monkeypatch):
    # between `linearize_terminal` and the sweep the gradient allocates no
    # leaf array (a negated copy took one): the fresh sum is negated in
    # place, to the bits of its negation
    spec = _ill_conditioned_lq(10)
    tree = spec.build_tree()
    u = random_control(spec, tree, 4)
    traj = simulate(spec, tree, u)
    leaf_bytes = traj.at(tree.grid.n_steps + 1).nbytes
    terminal, sweep, negated, held, peak = smp.linearize_terminal, smp.backward_levels, [], [], []

    def linearized(*args):
        out = terminal(*args)
        negated.append(-out)
        tracemalloc.reset_peak()
        held.append(tracemalloc.get_traced_memory()[0])
        return out

    def swept(tree, p, coefficients):
        peak.append(tracemalloc.get_traced_memory()[1])
        np.testing.assert_array_equal(p, negated[0])
        return sweep(tree, p, coefficients)

    monkeypatch.setattr(smp, "linearize_terminal", linearized)
    monkeypatch.setattr(smp, "backward_levels", swept)
    tracemalloc.start()
    try:
        adjoint_gradient(spec, tree, u, traj=traj)
    finally:
        tracemalloc.stop()
    assert peak[0] - held[0] <= 0.1 * leaf_bytes


def _rows_per_chunk(monkeypatch, spec, tree, rows, dtype=float):
    """Patch the chunk budget so a batch chunk of `dtype` rows holds `rows` rows."""
    widest = tree.size(tree.grid.n_steps + 1) * max(spec.d * spec.n, spec.r)
    monkeypatch.setattr(forward, "CHUNK_BYTES", rows * widest * np.dtype(dtype).itemsize)


@pytest.mark.parametrize("rows", [None, 3])  # 3: +-step pairs straddle chunk edges
@pytest.mark.parametrize("case", sorted(FD_CASES))
def test_fd_gradient_batched_matches_loop(case, rows, monkeypatch):
    # batch rows see the level means as contiguous repeats, the unbatched
    # cost as broadcast views, and matrix products may round the two apart
    spec = FD_CASES[case]()
    tree = spec.build_tree()
    if rows is not None:
        _rows_per_chunk(monkeypatch, spec, tree, rows)
    u = random_control(spec, tree, 21)
    g, ref = fd_cost_gradient(spec, tree, u), _fd_loop(spec, tree, u)
    for k in range(tree.grid.n_steps + 1):
        bound = 1e-8 * np.maximum(1.0, np.abs(ref.at(k)))
        assert np.all(np.abs(g.at(k) - ref.at(k)) <= bound), (case, k)


def _raised(fn, *args):
    try:
        fn(*args)
    except (CostDomainError, SimulationError) as exc:
        return type(exc), str(exc), exc.level, getattr(exc, "node", None)
    raise AssertionError("no error raised")


def _overflow_cases():
    # a state that overflows at level 3 below node 3 of level 2, whatever the step
    state = builtin("lq_meanfield", n=1, r=1, d=1, h=0.5, N=3, x0=[1.0], B=[[1e10]],
                    R=[[1.0]], lo=-1e300, hi=1e300)
    # a finite state and a control whose quadratic cost overflows at level 1, node 1
    running = builtin("lq_meanfield", n=1, r=1, d=1, h=0.5, N=3, x0=[1.0], B=[[1.0]],
                      R=[[1.0]], Q=[[1.0]], lo=-1e300, hi=1e300)
    # costs that never read the state, so only the state shows the overflow
    blind = dataclasses.replace(state, coeffs=dataclasses.replace(
        state.coeffs, l=lambda k, x, y, u: np.zeros(u.shape[:-1]),
        phi=lambda x, y: np.zeros(x.shape[:-1])))
    # the same two at the deepest control level N = 3: a child of node 5
    # overflows at the leaves, and the running cost of node 1 at level N
    return [(state, (2, 3, 1e305), SimulationError),
            (running, (1, 1, 1e160), CostDomainError),
            (blind, (2, 3, 1e305), SimulationError),
            (state, (3, 5, 1e305), SimulationError),
            (running, (3, 1, 1e160), CostDomainError)]


@pytest.mark.parametrize("rows", [None, 3])
def test_fd_gradient_raises_as_loop_does(rows, monkeypatch):
    for spec, (k, node, value), error in _overflow_cases():
        tree = spec.build_tree()
        if rows is not None:
            _rows_per_chunk(monkeypatch, spec, tree, rows)
        u = constant_control(spec, tree, 0.1)
        u.at(k)[node, 0] = value
        expected = _raised(_fd_loop, spec, tree, u)
        assert expected[0] is error
        assert _raised(fd_cost_gradient, spec, tree, u) == expected


@pytest.mark.parametrize("rows", [None, 3])
def test_fd_gradient_on_consumption_boundary_raises_and_cli_certifies(rows, monkeypatch,
                                                                      tmp_path, capsys):
    # -step from the consumption floor 1e-6 leaves the utility's domain at
    # level 2, node 2: the loop and the batch raise the same CostDomainError.
    # The complex step never leaves the real control, so the CLI's
    # certificate checks the gradient there too
    spec = builtin("prodcons", delta_util=0.5, depreciation=0.3, h=0.5, N=2, x0=1.0,
                   v_floor=1e-6, v_cap=1.0)
    tree = spec.build_tree()
    if rows is not None:
        _rows_per_chunk(monkeypatch, spec, tree, rows)
    u = random_control(spec, tree, 5)
    u.at(2)[2, 0] = 1e-6
    expected = _raised(_fd_loop, spec, tree, u)
    assert expected == (CostDomainError, "running cost undefined at level 2, node 2", 2, 2)
    assert _raised(fd_cost_gradient, spec, tree, u) == expected
    cfg, control = tmp_path / "cfg.json", tmp_path / "u.csv"
    cfg.write_text(serialize_problem(spec))
    control.write_text(write_control_csv(spec, tree, u))
    main(["check", str(cfg), str(control)])
    gradient = json.loads(capsys.readouterr().out)["gradient"]
    assert gradient["pass"] and len(gradient["residuals"]) == 5
    assert gradient["residuals"][0]["label"].startswith("complex-step gradient on 7 sampled")


def test_literal_mean_drift_convention_breaks_duality():
    # dropping the step factor on the mean-drift gradient (the h-free variant)
    # breaks the summation-by-parts identity whenever h != 1 and the mean
    # coupling is active; the default convention keeps it exact
    spec = builtin("lq_meanfield", n=2, r=1, d=1, h=0.5, N=2, x0=[0.3, -0.2],
                   A_mean=[[0.4, 0.1], [0.0, 0.3]], B=[[1.0], [0.5]],
                   Q=[[0.5, 0.0], [0.0, 0.5]], R=[[1.0]], G=[[1.0, 0.0], [0.0, 1.0]],
                   lo=-1.0, hi=1.0)
    tree = spec.build_tree()
    u = random_control(spec, tree, 3)
    traj = simulate(spec, tree, u)
    # spike at the first step so the response crosses the mean-coupled drift
    spike = random_spike(spec, tree, u, 4, 0.05, step=0)
    adj_default = _stored_adjoint(spec, tree, traj, u)
    assert duality_residual(spec, tree, traj, adj_default, u, spike) <= 1e-12
    steps, terminal = linearize(spec, tree, traj, u)
    literal = [s._replace(drift_mean=s.drift_mean / tree.grid.h) for s in steps]
    adj_literal = solve_adjoint(literal.__getitem__, tree, terminal)
    assert duality_residual(spec, tree, traj, adj_literal, u, spike) > 1e-6


def test_literal_variational_drift_differs():
    # the h-free response recursion genuinely differs from the exact
    # derivative of the forward map when h != 1
    spec = random_lq(77, steps_max=2)
    assert spec.grid.h != 1.0
    tree = spec.build_tree()
    u = random_control(spec, tree, 78)
    traj = simulate(spec, tree, u)
    spike = random_spike(spec, tree, u, 79, 0.1, step=0)
    xi = variational_state(spec, tree, traj, u, spike)
    # the h-free variant: drift blocks and drift forcing without the step factor
    (literal, drift, diff), h = _stored_spike_system(spec, tree, traj, u, spike), tree.grid.h
    literal = [s._replace(drift_x=s.drift_x / h, drift_mean=s.drift_mean / h) for s in literal]
    xi_lit = solve_linear_forward(literal.__getitem__, tree, np.zeros(spec.n),
                                  [c / h for c in drift], diff)
    gap = max(float(np.max(np.abs(xi.at(k) - xi_lit.at(k))))
              for k in range(tree.grid.n_steps + 2))
    assert gap > 1e-6


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("make", [lambda: random_lq(5, steps_max=3), lambda: random_prodcons(3),
                                  lambda: smooth_nonlinear(1)], ids=["lq", "prodcons", "smooth"])
def test_streamed_spike_response_matches_stored_system_bit_for_bit(make, where):
    # the response streamed from the spike step against the whole stored
    # system run from level 0: its levels up to the spike step are zero, so
    # the two sum the same nonzero terms in the same order
    spec = make()
    tree = spec.build_tree()
    n_steps = tree.grid.n_steps
    step = {"first": 0, "middle": n_steps // 2, "last": n_steps}[where]
    u = random_control(spec, tree, 11)
    _, traj, adj = adjoint_gradient(spec, tree, u, return_all=True)
    spike = random_spike(spec, tree, u, 12, 0.05, step=step)
    steps, drift, diff = _stored_spike_system(spec, tree, traj, u, spike)
    xi = solve_linear_forward(steps.__getitem__, tree, np.zeros(spec.n), drift, diff)
    streamed = variational_state(spec, tree, traj, u, spike)
    assert all(np.array_equal(streamed.at(k), xi.at(k)) for k in range(n_steps + 2))
    assert np.any(xi.at(n_steps + 1) != 0.0)

    kT = n_steps + 1
    lhs = float(expect(tree, np.einsum("mi,mi->m", adj.p.at(kT), xi.at(kT)), kT))
    run_term = sum(float(expect(tree, np.einsum("mi,mi->m", steps[k].running, xi.at(k)), k))
                   for k in range(n_steps + 1))
    state_part, _ = _hamiltonian_gradient_parts(spec, tree, traj, u, step,
                                                conditional_costate(tree, adj, step),
                                                adj.q.at(step))
    spike_term = spike.scale * float(expect(
        tree, np.einsum("ma,ma->m", state_part, spike.delta), step))
    assert duality_residual(spec, tree, traj, adj, u, spike) == abs(lhs - run_term - spike_term)


def test_gradient_scales_with_cost_scaling():
    # doubling both cost families doubles H_u node by node, exactly
    base = dict(n=1, r=1, d=1, h=0.5, N=2, x0=[0.4], A=[[0.3]], B=[[0.8]],
                sigma=[{"C": [[0.2]], "s0": [0.3]}], lo=-1.0, hi=1.0)
    spec1 = builtin("lq_meanfield", Q=[[0.6]], R=[[0.8]], G=[[0.5]], q=[0.2], **base)
    spec2 = builtin("lq_meanfield", Q=[[1.2]], R=[[1.6]], G=[[1.0]], q=[0.4], **base)
    tree = spec1.build_tree()
    u = random_control(spec1, tree, 7)
    g1 = adjoint_gradient(spec1, tree, u)
    g2 = adjoint_gradient(spec2, tree, u)
    for k in range(3):
        np.testing.assert_array_equal(2.0 * g1.at(k), g2.at(k))


STEP_EVALUATORS = ("f", "f_x", "f_y", "f_u", "sigma", "sigma_x", "sigma_y", "sigma_u",
                   "l", "l_x", "l_y", "l_u")


@pytest.mark.parametrize("make", [
    lambda: random_lq(5, steps_max=3, bounded=True),
    lambda: random_prodcons(3),
    lambda: smooth_nonlinear(1),
], ids=["lq", "prodcons", "smooth-nonlinear"])
def test_evaluators_receive_integer_steps(make):
    # every consumer passes the step index as a Python int, never a float time
    spec = make()
    seen = set()

    def checked(fn):
        def evaluator(k, x, y, u):
            assert type(k) is int, f"step {k!r} passed as {type(k).__name__}"
            seen.add(k)
            return fn(k, x, y, u)
        return evaluator

    spec = dataclasses.replace(spec, coeffs=dataclasses.replace(
        spec.coeffs, **{name: checked(getattr(spec.coeffs, name)) for name in STEP_EVALUATORS}))
    tree = spec.build_tree()
    u = random_control(spec, tree, 6)
    spike = random_spike(spec, tree, u, 7, 0.05, step=0)
    traj = simulate(spec, tree, u)
    cost(spec, tree, u, traj=traj)
    linearize(spec, tree, traj, u)
    g, _, adj = adjoint_gradient(spec, tree, u, return_all=True)
    necessary_check(spec, u, g)
    sufficiency_check(spec, tree, traj, adj, u, samples=20)
    duality_residual(spec, tree, traj, adj, u, spike)
    rate_ratios(spec, tree, u, spike, eps_values=(1e-2,))
    assert validate_spec(spec).passed
    assert seen == set(range(tree.grid.n_steps + 1))


def _negated(g):
    out = g.copy()
    for k in out.levels():
        out.set_level(k, -g.at(k))
    return out


def _ill_conditioned_lq(n_steps):
    """Ill-conditioned unconstrained convex mean-field LQ, n = 2, r = d = 1,
    h = 0.5: from zero, `optimize` needs 207 gradients at N = 16, against 49
    on the bench coefficients of `test_optimize._deep_lq`."""
    return builtin("lq_meanfield", n=2, r=1, d=1, h=0.5, N=n_steps, x0=[0.3, -0.2],
                   A=[[0.1, 0.2], [0.0, -0.3]], A_mean=[[0.05, 0.0], [0.0, 0.1]],
                   B=[[1.0], [0.5]], sigma=[{"s0": [0.1, 0.2], "C": [[0.2, 0.0], [0.0, 0.1]]}],
                   Q=[[1.0, 0.0], [0.0, 1.0]], Q_mean=[[0.2, 0.0], [0.0, 0.2]], R=[[2.0]],
                   G=[[1.0, 0.0], [0.0, 1.0]], G_mean=[[0.2, 0.0], [0.0, 0.2]], q=[0.1, -0.2])


def _floor_prodcons():
    """Prodcons control with one node on its consumption floor (FD cannot straddle it)."""
    spec = builtin("prodcons", delta_util=0.5, depreciation=0.3, h=0.5, N=2, x0=1.0,
                   v_floor=1e-6, v_cap=1.0)
    tree = spec.build_tree()
    u = random_control(spec, tree, 5)
    u.at(2)[2, 0] = 1e-6
    return spec, tree, u


CERT_CASES = dict(FD_CASES, **{
    "lq-binary": lambda: _ill_conditioned_lq(4),
    "smooth-nonlinear": lambda: smooth_nonlinear(2),
})


@pytest.mark.parametrize("case", sorted(CERT_CASES) + ["prodcons-floor"])
def test_certificate_passes_and_fails_on_flipped_sign(case):
    if case == "prodcons-floor":
        spec, tree, u = _floor_prodcons()
    else:
        spec = CERT_CASES[case]()
        tree = spec.build_tree()
        u = random_control(spec, tree, 21)
    g = adjoint_gradient(spec, tree, u)
    report = smp.certify_gradient(spec, tree, u, g)
    assert report.passed, report.to_dict()
    assert report.residuals[0].label.startswith("complex-step gradient")
    flipped = smp.certify_gradient(spec, tree, u, _negated(g))
    assert not flipped.passed
    # the directions and the Taylor ladder see the flip without the sample
    assert not any(r.ok for r in flipped.residuals[1:])


def test_certificate_direction_scale_is_the_state_part_plus_l_u():
    # the scale is sum (|state part| + |l_u|) |w|, with the state part read
    # from the Hamiltonian gradient's own parts, not recovered from g
    spec = random_prodcons(2)
    tree = spec.build_tree()
    u = random_control(spec, tree, 5)
    traj, adj = _solved(spec, tree, u)
    g = adjoint_gradient(spec, tree, u)
    report = smp.certify_gradient(spec, tree, u, g)
    directions = smp.certificate_directions(spec, tree, u)
    moves = [[wk / tree.abs_prob[k][:, None] for k, wk in enumerate(w)] for w in directions]
    _, along = smp.complex_step_derivatives(
        spec, tree, u, smp.certificate_sample(tree, spec.r), moves)
    parts = [smp._hamiltonian_gradient_parts(spec, tree, traj, u, k,
                                             smp.conditional_costate(tree, adj, k), adj.q.at(k))
             for k in u.levels()]
    for d, w in enumerate(directions):
        numerator = abs(along[d] - sum(float(np.sum(g.at(k) * w[k])) for k in u.levels()))
        scale = sum(float(np.sum((np.abs(state) + np.abs(lu)) * np.abs(w[k])))
                    for k, (state, lu) in enumerate(parts))
        assert numerator > 0.0
        row = report.residuals[1 + d]
        assert "|l_u - g| + |l_u|" in row.label
        assert row.value == pytest.approx(numerator / scale, rel=1e-9, abs=0.0)


def test_complex_step_matches_fd_on_selftest_instances():
    from mfsmp.selftest import gradient_instance
    for seed in range(20):
        spec, tree, u = gradient_instance(seed)
        coords = smp.certificate_sample(tree, spec.r)
        control_nodes = sum(tree.size(k) for k in u.levels())
        assert len(coords) == min(control_nodes, 49) * spec.r
        partials, _ = smp.complex_step_derivatives(spec, tree, u, coords, [])
        g_fd = fd_cost_gradient(spec, tree, u)
        for (k, node, i), value in zip(coords.tolist(), partials):
            cs = value / tree.abs_prob[k][node]
            ref = g_fd.at(k)[node, i]
            assert abs(cs - ref) <= 1e-6 * max(1.0, abs(ref)), (seed, k, node, i)


def _sampled_fd_error(spec, tree, u, g, coords, step=1e-5):
    worst = 0.0
    for k, node, i in coords.tolist():
        up, down = u.copy(), u.copy()
        up.at(k)[node, i] += step
        down.at(k)[node, i] -= step
        fd = (cost(spec, tree, up) - cost(spec, tree, down)) / (2 * step * tree.abs_prob[k][node])
        worst = max(worst, abs(g.at(k)[node, i] - fd) / max(1.0, abs(fd)))
    return worst


def test_certificate_exact_at_depth_where_fd_loses_digits():
    spec = _ill_conditioned_lq(12)
    tree = spec.build_tree()
    u = random_control(spec, tree, 1)
    g = adjoint_gradient(spec, tree, u)
    report = smp.certify_gradient(spec, tree, u, g)
    assert report.passed
    assert report.residuals[0].value <= 1e-12
    coords = smp.certificate_sample(tree, spec.r)
    # central differences on the same coordinates lose digits to cancellation
    assert _sampled_fd_error(spec, tree, u, g, coords) > 1e-7


def test_certificate_catches_one_corrupted_deepest_node_outside_sample():
    spec = _ill_conditioned_lq(12)
    tree = spec.build_tree()
    u = random_control(spec, tree, 1)
    g = adjoint_gradient(spec, tree, u)
    n_steps = tree.grid.n_steps
    coords = smp.certificate_sample(tree, spec.r)
    sampled = set(coords[coords[:, 0] == n_steps, 1].tolist())
    outside = [m for m in range(tree.size(n_steps)) if m not in sampled]
    node = int(np.random.default_rng(3).choice(outside))
    g.at(n_steps)[node, 0] *= 1.0 + 1e-6
    report = smp.certify_gradient(spec, tree, u, g)
    assert not report.passed
    assert report.residuals[0].ok  # the sample cannot see it; the directions do
    assert not all(r.ok for r in report.residuals[1:3])


def test_certificate_row_counts_do_not_grow_with_depth(monkeypatch):
    # the moved rows of both routes: those of the forward passes, which run
    # after the unmoved u when some row is finished from its leaf level, and
    # the deepest-level rows finished so
    counts, passes = {}, {}

    def counting(spec, tree, n_rows, controls_of, dtype=float, moved=None):
        key = (tree.grid.n_steps, np.dtype(dtype).kind)
        full = n_rows - (moved is not None)
        passes[key] = passes.get(key, 0) + full
        counts[key] = counts.get(key, 0) + full + (0 if moved is None else len(moved[0]))
        return batch_cost(spec, tree, n_rows, controls_of, dtype, moved)

    batch_cost = smp.batch_cost
    monkeypatch.setattr(smp, "batch_cost", counting)
    for n_steps in (6, 12):
        spec = _ill_conditioned_lq(n_steps)
        tree = spec.build_tree()
        u = random_control(spec, tree, 1)
        assert smp.certify_gradient(spec, tree, u, adjoint_gradient(spec, tree, u)).passed
    assert counts[(6, "c")] == counts[(12, "c")] == 49 + smp.CERT_DIRECTIONS
    assert counts[(6, "f")] == counts[(12, "f")] == 1 + smp.CERT_DIRECTIONS * len(
        smp.TAYLOR_MOVES)
    coords = smp.certificate_sample(tree, spec.r)
    assert passes[(12, "c")] == np.sum(coords[:, 0] < 12) + smp.CERT_DIRECTIONS
    assert passes[(12, "f")] == counts[(12, "f")]


MOVED_CASES = dict(FD_CASES, **{
    "lq-binary-sampled": lambda: _ill_conditioned_lq(6),
    "random-lq": lambda: random_lq(4, steps_max=3),
})


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("case", sorted(MOVED_CASES))
def test_moved_costs_match_a_loop_per_row(case, dtype, chunk, monkeypatch):
    # the coordinate and direction moves, applied by fancy indexing and the
    # deepest-level rows finished from the leaf level of u, against the same
    # moves made one row at a time, all rows run whole.  Each row set runs in
    # chunks of 1 and 3 rows, so deepest-level rows straddle chunk edges;
    # then each deepest-level row alone, and one with a move too large for
    # the state or the cost
    spec = MOVED_CASES[case]()
    tree = spec.build_tree()
    _rows_per_chunk(monkeypatch, spec, tree, chunk, dtype)
    u = random_control(spec, tree, 3)
    coords = smp.certificate_sample(tree, spec.r)
    moves = [[wk / tree.abs_prob[k][:, None] for k, wk in enumerate(w)]
             for w in smp.certificate_directions(spec, tree, u)]
    step = 1j * smp.CS_STEP if dtype is complex else 1e-3
    deepest = np.flatnonzero(coords[:, 0] == tree.grid.n_steps).tolist()
    row_sets = ([[(step, c, -1) for c in range(len(coords))]
                 + [(s * step, -1, d) for d in range(len(moves)) for s in (1.0, -2.0)]]
                + [[(step, c, -1)] for c in deepest]
                + [[(step, deepest[0], -1), (1e305, deepest[-1], -1)]])
    for rows in row_sets:
        ref = []
        for k in u.levels():
            uk = np.repeat(u.at(k)[None].astype(dtype), len(rows), axis=0)
            for b, (a, c, d) in enumerate(rows):
                if c < 0:
                    uk[b] += a * moves[d][k]
                elif coords[c, 0] == k:
                    uk[b, coords[c, 1], coords[c, 2]] += a
            ref.append(uk)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = forward.batch_cost(spec, tree, len(rows), lambda idx: [c[idx] for c in ref],
                                          dtype)
            got = smp._moved_costs(spec, tree, u, rows, coords, moves, dtype)
        np.testing.assert_array_equal(got, expected)


CHUNK_FAMILIES = {"random-lq": random_lq, "smooth-nonlinear": smooth_nonlinear,
                  "random-prodcons": random_prodcons}


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("case", [f"{family}-{seed}" for family in CHUNK_FAMILIES
                                  for seed in range(4)])
def test_moved_costs_do_not_depend_on_the_chunk_budget(case, dtype, monkeypatch):
    # a row's cost is the same bits whichever rows share its chunk: in
    # chunks of 1 row, the root's one-row products are evaluated as two rows
    family, seed = case.rsplit("-", 1)
    spec = CHUNK_FAMILIES[family](int(seed))
    tree = spec.build_tree()
    u = random_control(spec, tree, 5)
    coords = smp.certificate_sample(tree, spec.r)
    moves = [[wk / tree.abs_prob[k][:, None] for k, wk in enumerate(w)]
             for w in smp.certificate_directions(spec, tree, u)]
    step = 1j * smp.CS_STEP if dtype is complex else 1e-3
    rows = ([(s * step, c, -1) for c in range(len(coords)) for s in (1.0, -1.0)]
            + [(s * step, -1, d) for d in range(len(moves)) for s in (1.0, -1.0)])
    expected = smp._moved_costs(spec, tree, u, rows, coords, moves, dtype)
    for chunk in (1, 2, 3):
        _rows_per_chunk(monkeypatch, spec, tree, chunk, dtype)
        assert forward.chunk_rows(spec, tree, dtype) == chunk
        got = smp._moved_costs(spec, tree, u, rows, coords, moves, dtype)
        np.testing.assert_array_equal(got, expected, err_msg=f"{chunk} rows per chunk")


def _first_steps(spec, n_steps):
    """`spec` on its first `n_steps` control steps."""
    box = AdmissibleSet(spec.admissible.lo[:n_steps + 1], spec.admissible.hi[:n_steps + 1])
    return dataclasses.replace(spec, grid=dataclasses.replace(spec.grid, n_steps=n_steps),
                               admissible=box)


@pytest.mark.parametrize("rows", [None, 2])  # 2: the moved rows span several chunks
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n_steps", [1, 3])
@pytest.mark.parametrize("family", sorted(CHUNK_FAMILIES))
def test_moved_rows_are_the_rows_run_whole(family, n_steps, dtype, rows, monkeypatch):
    # `batch_cost`'s `moved` rows are finished from row 0's level table, at
    # N = 1 too, where `_moved_costs` runs every row whole: each is the same
    # bits as the row that moves that control run whole
    specs = (CHUNK_FAMILIES[family](seed) for seed in itertools.count())
    for spec in itertools.islice((s for s in specs if s.grid.n_steps >= 3), 4):
        spec = _first_steps(spec, n_steps)
        tree = spec.build_tree()
        if rows is not None:
            _rows_per_chunk(monkeypatch, spec, tree, rows, dtype)
        u = random_control(spec, tree, 5)
        levels = [u.at(k).astype(dtype) for k in u.levels()]
        # each coordinate of each level-N node, moved up and down
        m = tree.size(n_steps)
        nodes = np.repeat(np.arange(m), 2 * spec.r)
        coord = np.tile(np.repeat(np.arange(spec.r), 2), m)
        step = 1j * smp.CS_STEP if dtype is complex else 1e-3
        values = levels[-1][nodes]
        values[np.arange(nodes.size), coord] += np.tile([step, -step], m * spec.r)

        def controls_of(idx):
            controls = [np.repeat(uk[None], idx.size, axis=0) for uk in levels]
            at = np.flatnonzero(idx > 0)
            controls[-1][at, nodes[idx[at] - 1]] = values[idx[at] - 1]
            return controls

        whole = forward.batch_cost(spec, tree, 1 + nodes.size, controls_of, dtype)
        finished = forward.batch_cost(spec, tree, 1, controls_of, dtype, (nodes, values))
        assert np.isfinite(whole).all()
        np.testing.assert_array_equal(finished, whole)


def test_moved_rows_need_row_zero():
    spec = smooth_nonlinear(0)
    tree = spec.build_tree()
    moved = (np.array([0]), np.zeros((1, spec.r)))
    with pytest.raises(MfsmpError, match="row 0"):
        forward.batch_cost(spec, tree, 0, lambda idx: [], float, moved)


def _real_only(spec, wrap):
    """The spec with its running cost passed through `wrap`, which is not complex-safe."""
    l = spec.coeffs.l
    return dataclasses.replace(spec, coeffs=dataclasses.replace(
        spec.coeffs, l=lambda k, x, y, u: wrap(l(k, x, y, u))))


@pytest.mark.parametrize("wrap, error", [
    (lambda v: np.asarray(v, dtype=float), "ComplexWarning"),
    (lambda v: np.array(v.tolist(), dtype=float), "TypeError"),
], ids=["cast", "python-floats"])
def test_certificate_falls_back_to_central_differences(wrap, error):
    base = random_lq(6, steps_max=3)
    spec = _real_only(base, wrap)
    tree = spec.build_tree()
    u = random_control(spec, tree, 8)
    g = adjoint_gradient(spec, tree, u)
    report = smp.certify_gradient(spec, tree, u, g)
    assert report.notes[0].startswith(f"coefficients are not complex-safe ({error})")
    assert report.passed and report.residuals[0].label.startswith("finite-difference gradient")
    assert not smp.certify_gradient(spec, tree, u, _negated(g)).passed
    # the real forward path is unchanged by the wrapper
    assert cost(spec, tree, u) == cost(base, tree, u)


def test_adjoint_gradient_reuses_given_trajectory():
    spec = random_lq(5, steps_max=3)
    tree = spec.build_tree()
    u = random_control(spec, tree, 2)
    traj = simulate(spec, tree, u)
    g1 = adjoint_gradient(spec, tree, u)
    g2 = adjoint_gradient(spec, tree, u, traj=traj)
    for k in g1.levels():
        np.testing.assert_array_equal(g1.at(k), g2.at(k))


def _box_point(unit, lo, hi, base):
    """One coordinate at a time, the point `AdmissibleSet.sample` makes of the
    uniform draws `unit`, in the arithmetic of `Generator.uniform`."""
    out = np.empty_like(base)
    for i in range(base.size):
        a, b = lo[i], hi[i]
        if np.isfinite(a) and np.isfinite(b):
            w = b - a
            low, high = a + 0.05 * w, b - 0.05 * w
            out[i] = a if w == 0.0 else low + (high - low) * unit[i]
        elif np.isfinite(a):
            out[i] = a + (1.0 + abs(a)) * (0.05 + 0.95 * unit[i])
        elif np.isfinite(b):
            out[i] = b - (1.0 + abs(b)) * (0.05 + 0.95 * unit[i])
        else:
            out[i] = base[i] + (2.0 * unit[i] - 1.0)
    return out


def _sufficiency_loop(spec, tree, traj, adj, u, samples=200, seed=0):
    """Reference for parts (ii) and (iv) of `sufficiency_check`: the same
    array draws, then one evaluator call per sample and per probe combination."""
    rng = np.random.default_rng(seed)
    c, grid, kT = spec.coeffs, tree.grid, tree.grid.n_steps + 1
    rng.integers(traj.at(kT).shape[0], size=samples)  # part (i)'s draws
    rng.uniform(-0.5, 0.5, (4, samples, spec.n))
    steps = rng.integers(grid.n_steps + 1, size=samples)
    nodes = rng.integers(np.array(tree.level_sizes)[steps])
    dx, dy = (rng.uniform(-0.5, 0.5, (2, samples, spec.n)) for _ in range(2))
    unit = rng.random((2, samples, spec.r))
    concavity = -np.inf
    for s, (k, node) in enumerate(zip(steps.tolist(), nodes.tolist())):
        xk = traj.at(k)
        ep, qn = smp.conditional_costate(tree, adj, k)[node], adj.q.at(k)[node]
        span = 1.0 + float(np.abs(xk[node]).max())
        x1, x2 = xk[node] + dx[:, s] * span
        y1, y2 = traj.means[k] + dy[:, s] * span
        v1, v2 = (_box_point(unit[j, s], spec.admissible.lo[k], spec.admissible.hi[k],
                             u.at(k)[node]) for j in range(2))
        xs, ys, vs = (np.stack([a, b, 0.5 * (a + b)]) for a, b in ((x1, x2), (y1, y2), (v1, v2)))
        hvals = (grid.h * c.f(k, xs, ys, vs) @ ep
                 + np.einsum("mji,ji->m", c.sigma(k, xs, ys, vs), qn) - c.l(k, xs, ys, vs))
        if np.all(np.isfinite(hvals)):
            concavity = max(concavity, float(0.5 * (hvals[0] + hvals[1]) - hvals[2]))
    vertex = -np.inf
    for k in range(grid.n_steps + 1):
        lo, hi, uk = spec.admissible.lo[k], spec.admissible.hi[k], u.at(k)
        probes = []
        for i in range(spec.r):
            low = ([np.full(uk.shape[0], lo[i])] if np.isfinite(lo[i]) else
                   [uk[:, i] - s * (1.0 + np.abs(uk[:, i])) for s in (1.0, 10.0)])
            high = ([np.full(uk.shape[0], hi[i])] if np.isfinite(hi[i]) else
                    [uk[:, i] + s * (1.0 + np.abs(uk[:, i])) for s in (1.0, 10.0)])
            probes.append(low + high)
        h_at_u = hamiltonian(spec, tree, traj, adj, k, uk)
        for combo in np.ndindex(*[len(p) for p in probes]):
            v = np.stack([probes[i][combo[i]] for i in range(spec.r)], axis=1)
            gap = hamiltonian(spec, tree, traj, adj, k, v) - h_at_u
            if np.isfinite(gap).any():
                vertex = max(vertex, float(np.max(gap[np.isfinite(gap)])))
    return concavity, vertex


@pytest.mark.parametrize("make, rtol", [
    (lambda: random_prodcons(2), 0.0),
    (lambda: smooth_nonlinear(1), 0.0),
    (lambda: random_lq(4, r_max=2), 1e-12),
    (lambda: random_lq(9, bounded=True), 1e-12),
], ids=["prodcons", "smooth-nonlinear", "lq", "lq-boxed"])
def test_sufficiency_batches_match_per_sample_loop(make, rtol):
    # LQ costs round a row differently in a longer batch (three-operand
    # einsum); prodcons and smooth-nonlinear rows are evaluated exactly alike
    spec = make()
    tree = spec.build_tree()
    u = random_control(spec, tree, 4)
    traj, adj = _solved(spec, tree, u)
    report = sufficiency_check(spec, tree, traj, adj, u)
    values = {r.label: r.value for r in report.residuals}
    concavity, vertex = _sufficiency_loop(spec, tree, traj, adj, u)
    assert values["Hamiltonian midpoint concavity violation"] == pytest.approx(
        concavity, rel=rtol, abs=0.0)
    assert values["H(vertex) - H(candidate) max"] == pytest.approx(vertex, rel=rtol, abs=0.0)


def test_admissible_sample_keeps_each_bound_case_in_its_range():
    # one column per case: a finite box, a point box, lower bound only,
    # upper bound only, free; one box per row, as the check passes them
    rng = np.random.default_rng(3)
    rows = 2000
    box = AdmissibleSet(np.tile([-2.0, 0.5, 3.0, -np.inf, -np.inf], (4, 1)),
                        np.tile([1.0, 0.5, np.inf, -4.0, np.inf], (4, 1)))
    steps = rng.integers(4, size=rows)
    base = rng.uniform(-1.0, 1.0, (rows, 5))  # off the point box's point
    v = box.sample(rng, steps, base)
    ranges = [(-2.0 + 0.15, 1.0 - 0.15), (3.0 + 0.05 * 4.0, 3.0 + 4.0),
              (-4.0 - 5.0, -4.0 - 0.05 * 5.0)]
    for col, (low, high) in zip((0, 2, 3), ranges):
        assert np.all((low <= v[:, col]) & (v[:, col] <= high))
        # the draws fill the range, not a corner of it
        assert v[:, col].min() < low + 0.01 * (high - low)
        assert v[:, col].max() > high - 0.01 * (high - low)
    np.testing.assert_array_equal(v[:, 1], 0.5)
    free = v[:, 4] - base[:, 4]
    assert np.all(np.abs(free) <= 1.0) and free.min() < -0.99 and free.max() > 0.99
    # a point box returns its point around any base, zero included
    np.testing.assert_array_equal(box.sample(rng, 0, np.zeros((3, 5)))[:, 1], 0.5)


def _capped_cost(spec, limit):
    """The spec with its running cost undefined where the control reaches `limit`."""
    l = spec.coeffs.l
    return dataclasses.replace(spec, coeffs=dataclasses.replace(
        spec.coeffs, l=lambda k, x, y, v: np.where(np.real(v[..., 0]) < limit, l(k, x, y, v),
                                                   np.nan)))


def test_certificate_taylor_skips_rungs_outside_cost_domain():
    base = _ill_conditioned_lq(7)
    tree = base.build_tree()
    u = random_control(base, tree, 9)
    directions = smp.certificate_directions(base, tree, u)
    # the deepest level has the least probability, so it moves by the full rung
    up = np.flatnonzero((directions[0][7] > 0) & (directions[1][7] > 0))[0]

    # a domain a little above the largest control: the largest move leaves
    # it, and the order is read on the smaller rungs
    spec = _capped_cost(base, float(u.at(7).max()) + 0.005)
    for w in directions:
        assert np.any(u.at(7) + smp.TAYLOR_MOVES[0] * w[7] >= float(u.at(7).max()) + 0.005)
    assert smp.certify_gradient(spec, tree, u, adjoint_gradient(spec, tree, u)).passed

    # a node on the domain's edge that both directions move out of: no rung
    # is finite, so the Taylor test cannot pass
    edge = max(float(np.abs(u.at(k)).max()) for k in u.levels()) + 0.1
    u.at(7)[up, 0] = edge
    spec = _capped_cost(base, edge + 1e-12)
    report = smp.certify_gradient(spec, tree, u, adjoint_gradient(spec, tree, u))
    assert [r.value for r in report.residuals[3:]] == [np.inf, np.inf]
    assert all(r.ok for r in report.residuals[:3])
