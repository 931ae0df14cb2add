import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfsmp.adjoint import (StepCoefficients, _transpose_local, apply_transition,
                           apply_transition_adjoint, closed_form_costate, integrability_report,
                           linearize, propagate, q_definition_residual, solve_adjoint,
                           solve_linear_forward, variation_of_constants)
from mfsmp.errors import MfsmpError
from mfsmp.forward import constant_control, forward_levels, simulate
from mfsmp.instances import (random_control, random_lq, random_prodcons, random_spike,
                             smooth_nonlinear)
from mfsmp.problem import builtin, parse_problem, to_config
from mfsmp.smp import (CERT_DIRECTIONS, CS_STEP, adjoint_gradient, certify_gradient,
                       duality_residual)
from mfsmp.tree import (NoiseModel, TimeGrid, build_tree, cond_expect, cond_expect_noise,
                        expect)


def _solved(spec, u_value):
    tree = spec.build_tree()
    u = constant_control(spec, tree, u_value)
    traj = simulate(spec, tree, u)
    steps, terminal = linearize(spec, tree, traj, u)
    return tree, traj, steps, terminal


def _zero_steps(tree, n=1, d=1):
    """Zero coefficients of every step, per-node arrays, as a list."""
    return [StepCoefficients(np.zeros((m, n, n)), np.zeros((m, n, n)), np.zeros((m, d, n, n)),
                             np.zeros((m, d, n, n)), np.zeros((m, n)))
            for m in tree.level_sizes[:-1]]


def _transition_matrix(step, tree, k):
    """Dense matrix of the step-k transition on stacked level vectors, the
    reference for the matrix-free operators."""
    n = step.drift_x.shape[-1]
    m0, m1 = tree.size(k), tree.size(k + 1)
    par = np.arange(m1) // tree.branch
    inc = tree.increments(k + 1)

    def parent_rows(a):
        # a step-constant block has a length-1 node axis: every node reads it
        return np.broadcast_to(a, (m0,) + a.shape[1:])[par]

    local = (np.eye(n)[None] + parent_rows(step.drift_x)
             + np.einsum("cj,cjab->cab", inc, parent_rows(step.diff_x)))
    mean_part = (parent_rows(step.drift_mean)
                 + np.einsum("cj,cjab->cab", inc, parent_rows(step.diff_mean)))
    mat = np.zeros((m1, n, m0, n))
    mat[np.arange(m1), :, par, :] = local
    mat += mean_part[:, :, None, :] * tree.abs_prob[k][None, None, :, None]
    return mat.reshape(m1 * n, m0 * n)


def _operator_case(name):
    """Step coefficients on a small tree: random blocks without expectation
    coupling for the noise laws, a linearized mean-field LQ for the last."""
    rng = np.random.default_rng(len(name))
    if name == "mixed blocks":
        # per-node arrays at step 0 beside the step-constant blocks of step 1,
        # and beside the block of another Jacobian at step 0
        tree, steps = _operator_case("mean-field")
        n, d = steps[0].drift_x.shape[-1], steps[0].diff_x.shape[1]
        steps[0] = steps[0]._replace(
            drift_x=rng.uniform(-0.5, 0.5, (tree.size(0), n, n)),
            diff_mean=rng.uniform(-0.5, 0.5, (tree.size(0), d, n, n)))
        steps[1] = steps[1]._replace(drift_x=rng.uniform(-0.5, 0.5, (tree.size(1), n, n)))
        assert [s.diff_x.shape[0] for s in steps] == [1, 1]
        assert [s.diff_mean.shape[0] for s in steps] == [tree.size(0), 1]
        return tree, steps
    if name == "mean-field":
        spec = random_lq(11, n_max=2, steps_max=3, mean_field=True)
        tree = spec.build_tree()
        u = random_control(spec, tree, 12)
        steps, _ = linearize(spec, tree, simulate(spec, tree, u), u)
        assert any(np.any(s.drift_mean != 0.0) for s in steps)
        return tree, steps
    noise = {"binary d=1": NoiseModel.binary(1, 0.5), "binary d=2": NoiseModel.binary(2, 0.5),
             "trinomial": NoiseModel.trinomial(1, 0.5, 0.2)}[name]
    tree = build_tree(TimeGrid(0.0, 0.5, 2), noise)
    n, d = 2, noise.dim
    steps = _zero_steps(tree, n=n, d=d)
    for k in range(3):
        steps[k] = steps[k]._replace(drift_x=rng.uniform(-0.5, 0.5, (tree.size(k), n, n)),
                                     diff_x=rng.uniform(-0.5, 0.5, (tree.size(k), d, n, n)))
    return tree, steps


OPERATOR_CASES = ["binary d=1", "binary d=2", "trinomial", "mean-field", "mixed blocks"]


def test_linearize_e1_values(e1):
    spec, _ = e1
    tree, traj, steps, terminal = _solved(spec, 0.0)
    assert all(np.all(s.drift_x == 0.0) and np.all(s.diff_x == 0.0) and np.all(s.running == 0.0)
               for s in steps)
    np.testing.assert_allclose(terminal, 2.0 * traj.at(1))


def test_linearize_mean_field_terminal_is_level_constant():
    spec = builtin("lq_meanfield", n=1, r=1, d=1, h=1.0, N=0, x0=[0.0],
                   B=[[1.0]], G_mean=[[2.0]], lo=-5.0, hi=5.0)
    _, _, _, terminal = _solved(spec, 0.7)
    np.testing.assert_allclose(terminal, 1.4, atol=1e-15)


def test_lq_linearization_bytes_do_not_grow_with_the_tree():
    # step-constant Jacobians are stored as one block per step, whatever the
    # level size: every step holds the same bytes at N = 8 and at N = 12
    per_step = set()
    for n_steps in (8, 12):
        spec = builtin("lq_meanfield", n=2, r=1, d=1, h=0.25, N=n_steps, x0=[0.5, -0.3],
                       A=[[0.1, 0.2], [0.0, -0.3]], A_mean=[[0.05, 0.0], [0.0, 0.1]],
                       B=[[1.0], [0.5]], sigma=[{"C": [[0.2, 0.0], [0.0, 0.1]],
                                                 "C_mean": [[0.0, 0.1], [0.1, 0.0]]}],
                       R=[[1.0]], G=[[1.0, 0.0], [0.0, 1.0]])
        _, _, steps, _ = _solved(spec, 0.1)
        per_step |= {sum(a.nbytes for a in step[:4]) for step in steps}
    assert per_step == {4 * 8 * (2 * 2)}


def test_linearize_zero_problem_zero_data():
    spec = builtin("lq_meanfield", n=2, r=1, d=1, h=0.5, N=1, x0=[0.0, 0.0],
                   lo=-1.0, hi=1.0)
    _, _, steps, terminal = _solved(spec, 0.2)
    assert all(np.all(a == 0.0) for step in steps for a in step)
    assert np.all(terminal == 0.0)


def test_solve_adjoint_e1_hand_values(e1):
    spec, _ = e1
    tree, traj, steps, terminal = _solved(spec, 0.0)
    adj = solve_adjoint(steps.__getitem__, tree, terminal)
    np.testing.assert_allclose(adj.p.at(1), -2.0 * traj.at(1))
    np.testing.assert_allclose(adj.q.at(0), [[[-2.0]]])
    np.testing.assert_allclose(adj.p.at(0), [[0.0]])
    assert q_definition_residual(adj, tree) <= 1e-14


def test_solve_adjoint_zero_terminal_gives_zero():
    tree = build_tree(TimeGrid(0.0, 0.5, 2), NoiseModel.binary(1, 0.5))
    adj = solve_adjoint(_zero_steps(tree).__getitem__, tree, np.zeros((tree.size(3), 1)))
    for k in range(4):
        assert np.all(adj.p.at(k) == 0.0)
    report = integrability_report(adj, tree)
    assert report.passed and all(r.value == 0.0 for r in report.residuals)


def test_solve_adjoint_rejects_a_terminal_off_the_leaves():
    tree = build_tree(TimeGrid(0.0, 0.5, 2), NoiseModel.binary(1, 0.5))
    with pytest.raises(MfsmpError, match="leaf level"):
        solve_adjoint(_zero_steps(tree).__getitem__, tree, np.zeros((tree.size(2), 1)))


def test_transition_copies_identity_and_scales():
    tree = build_tree(TimeGrid(0.0, 1.0, 1), NoiseModel.binary(1, 1.0))
    steps = _zero_steps(tree)
    z = np.array([[1.5], [-0.5]])
    np.testing.assert_array_equal(apply_transition(steps.__getitem__, tree, 1, z),
                                  np.repeat(z, 2, axis=0))
    steps[1] = steps[1]._replace(drift_x=np.ones((2, 1, 1)))
    np.testing.assert_array_equal(apply_transition(steps.__getitem__, tree, 1, z),
                                  2.0 * np.repeat(z, 2, axis=0))


def test_transition_mean_coupling_adds_level_mean():
    tree = build_tree(TimeGrid(0.0, 1.0, 1), NoiseModel.binary(1, 1.0))
    steps = _zero_steps(tree)
    steps[1] = steps[1]._replace(drift_mean=np.ones((2, 1, 1)))
    z = np.array([[3.0], [1.0]])  # level mean 2
    out = apply_transition(steps.__getitem__, tree, 1, z)
    np.testing.assert_allclose(out, np.repeat(z + 2.0, 2, axis=0))


def test_propagate_conventions():
    tree = build_tree(TimeGrid(0.0, 1.0, 1), NoiseModel.binary(1, 1.0))
    steps = _zero_steps(tree)
    z = np.array([[0.7]])
    np.testing.assert_array_equal(propagate(steps.__getitem__, tree, z, 0, 0), z)
    assert np.all(propagate(steps.__getitem__, tree, np.zeros((2, 1)), 1, 0) == 0.0)
    # two applications compose
    rng = np.random.default_rng(0)
    for k in range(2):
        steps[k] = steps[k]._replace(drift_x=rng.uniform(-0.4, 0.4, (tree.size(k), 1, 1)),
                                     diff_x=rng.uniform(-0.4, 0.4, (tree.size(k), 1, 1, 1)))
    at = steps.__getitem__
    twice = apply_transition(at, tree, 1, apply_transition(at, tree, 0, z))
    np.testing.assert_allclose(propagate(at, tree, z, 0, 2), twice, atol=1e-13)


def test_semigroup_property_random():
    spec = random_lq(13, steps_max=4)
    tree = spec.build_tree()
    u = random_control(spec, tree, 14)
    traj = simulate(spec, tree, u)
    at = linearize(spec, tree, traj, u)[0].__getitem__
    rng = np.random.default_rng(15)
    z = rng.uniform(-1.0, 1.0, (1, spec.n))
    last = tree.grid.n_steps + 1
    full = propagate(at, tree, z, 0, last)
    for k in range(1, last):
        split = propagate(at, tree, propagate(at, tree, z, 0, k), k, last)
        np.testing.assert_allclose(full, split, atol=1e-12)


def test_variation_of_constants_zero_forcing_zero_start():
    tree = build_tree(TimeGrid(0.0, 1.0, 2), NoiseModel.binary(1, 1.0))
    rep = variation_of_constants(_zero_steps(tree).__getitem__, tree, np.zeros(1),
                                 [np.zeros((tree.size(k), 1)) for k in range(3)],
                                 [np.zeros((tree.size(k), 1, 1)) for k in range(3)])
    assert all(np.all(rep.at(k) == 0.0) for k in range(4))


def test_variation_of_constants_constant_forcing():
    # zero coefficients with constant forcing c accumulate k * c
    tree = build_tree(TimeGrid(0.0, 1.0, 2), NoiseModel.binary(1, 1.0))
    rep = variation_of_constants(_zero_steps(tree).__getitem__, tree, np.array([0.5]),
                                 [np.full((tree.size(k), 1), 0.3) for k in range(3)],
                                 [np.zeros((tree.size(k), 1, 1)) for k in range(3)])
    for k in range(4):
        np.testing.assert_allclose(rep.at(k), 0.5 + 0.3 * k, atol=1e-14)


def test_representation_matches_recursion_random():
    for seed in range(6):
        spec = random_lq(seed, steps_max=4, n_max=3, d_max=2)
        tree = spec.build_tree()
        u = random_control(spec, tree, 30 + seed)
        traj = simulate(spec, tree, u)
        at = linearize(spec, tree, traj, u)[0].__getitem__
        rng = np.random.default_rng(60 + seed)
        steps = tree.grid.n_steps + 1
        forcing = ([rng.uniform(-0.5, 0.5, (tree.size(k), spec.n)) for k in range(steps)],
                   [rng.uniform(-0.5, 0.5, (tree.size(k), spec.d, spec.n))
                    for k in range(steps)])
        z0 = rng.uniform(-1.0, 1.0, spec.n)
        direct = solve_linear_forward(at, tree, z0, *forcing)
        rep = variation_of_constants(at, tree, z0, *forcing)
        for k in range(steps + 1):
            np.testing.assert_allclose(rep.at(k), direct.at(k), atol=1e-12)


def test_closed_form_constant_terminal():
    tree = build_tree(TimeGrid(0.0, 1.0, 2), NoiseModel.binary(1, 1.0))
    p = closed_form_costate(_zero_steps(tree).__getitem__, tree, np.full((tree.size(3), 1), 0.8))
    for k in range(4):
        np.testing.assert_allclose(p.at(k), -0.8, atol=1e-14)


def test_closed_form_single_step_hand_oracle():
    # one step, scalar, no mean field: costate = -(E[(1 + a + b w) h1 | root] + v0)
    tree = build_tree(TimeGrid(0.0, 1.0, 0), NoiseModel.binary(1, 1.0))
    a, b, v0 = 0.3, 0.2, 0.7
    steps = [_zero_steps(tree)[0]._replace(drift_x=np.full((1, 1, 1), a),
                                           diff_x=np.full((1, 1, 1, 1), b),
                                           running=np.full((1, 1), v0))]
    h1 = np.array([[1.5], [-0.4]])
    w = tree.increments(1)[:, 0]
    cond = tree.support_prob
    expected_root = -(np.sum(cond * (1.0 + a + b * w) * h1[:, 0]) + v0)
    p = closed_form_costate(steps.__getitem__, tree, h1)
    assert p.at(0)[0, 0] == pytest.approx(expected_root, abs=1e-12)
    adj = solve_adjoint(steps.__getitem__, tree, h1)
    assert adj.p.at(0)[0, 0] == pytest.approx(expected_root, abs=1e-12)


@pytest.mark.parametrize("mean_field", [False, True], ids=["plain", "mean-field"])
def test_closed_form_matches_backward(mean_field):
    for seed in range(4):
        spec = random_lq(seed, steps_max=3, mean_field=mean_field)
        tree = spec.build_tree()
        u = random_control(spec, tree, 90 + seed)
        traj = simulate(spec, tree, u)
        steps, terminal = linearize(spec, tree, traj, u)
        adj = solve_adjoint(steps.__getitem__, tree, terminal)
        closed = closed_form_costate(steps.__getitem__, tree, terminal)
        for k in range(tree.grid.n_steps + 2):
            np.testing.assert_allclose(closed.at(k), adj.p.at(k), atol=1e-10)


def test_integrability_values(e1):
    spec, _ = e1
    tree, _, steps, terminal = _solved(spec, 0.0)
    adj = solve_adjoint(steps.__getitem__, tree, terminal)
    report = integrability_report(adj, tree)
    assert report.passed
    values = {r.label: r.value for r in report.residuals}
    assert values["E|p|^2 @level 1"] == pytest.approx(4.0)
    assert values["E|q^1|^2 @level 0"] == pytest.approx(4.0)


def test_integrability_prodcons_terminal_unit():
    spec = builtin("prodcons", delta_util=0.5, depreciation=0.5, h=0.5, N=5, x0=1.0,
                   v_floor=0.25)
    tree, _, steps, terminal = _solved(spec, 0.5)
    adj = solve_adjoint(steps.__getitem__, tree, terminal)
    report = integrability_report(adj, tree)
    values = {r.label: r.value for r in report.residuals}
    assert values["E|p|^2 @level 6"] == pytest.approx(1.0)


@pytest.mark.parametrize("case", OPERATOR_CASES)
def test_dense_chain_matches_propagate(case):
    tree, steps = _operator_case(case)
    n = steps[0].drift_x.shape[-1]
    last = tree.grid.n_steps + 1
    rng = np.random.default_rng(23)
    for k_from in range(last):
        chain = np.eye(tree.size(k_from) * n)
        z = rng.uniform(-1.0, 1.0, (tree.size(k_from), n))
        for k_to in range(k_from + 1, last + 1):
            chain = _transition_matrix(steps[k_to - 1], tree, k_to - 1) @ chain
            np.testing.assert_allclose(
                (chain @ z.ravel()).reshape(-1, n),
                propagate(steps.__getitem__, tree, z, k_from, k_to), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("case", OPERATOR_CASES)
def test_transition_adjoint_is_weighted_transpose(case):
    # <Phi z, v>_{k+1} = <z, Phi* v>_k, and Phi* = W_k^-1 M^T W_{k+1} for the
    # dense matrix M of the transition and diagonal node weights W
    tree, steps = _operator_case(case)
    n = steps[0].drift_x.shape[-1]
    rng = np.random.default_rng(24)
    for k in range(tree.grid.n_steps + 1):
        z = rng.uniform(-1.0, 1.0, (tree.size(k), n))
        v = rng.uniform(-1.0, 1.0, (tree.size(k + 1), n))
        adj = apply_transition_adjoint(steps.__getitem__, tree, k, v)
        lhs = np.sum(tree.abs_prob[k + 1][:, None]
                     * apply_transition(steps.__getitem__, tree, k, z) * v)
        rhs = np.sum(tree.abs_prob[k][:, None] * z * adj)
        assert abs(lhs - rhs) <= 1e-12
        w_from = np.repeat(tree.abs_prob[k], n)
        w_to = np.repeat(tree.abs_prob[k + 1], n)
        dense = (_transition_matrix(steps[k], tree, k).T @ (w_to * v.ravel())) / w_from
        np.testing.assert_allclose(adj.ravel(), dense, rtol=0.0, atol=1e-12)


def test_transition_rejects_wrong_level():
    tree = build_tree(TimeGrid(0.0, 1.0, 1), NoiseModel.binary(1, 1.0))
    with pytest.raises(MfsmpError, match="level-0 values"):
        apply_transition(_zero_steps(tree).__getitem__, tree, 0, np.zeros((2, 1)))


def test_transition_adjoint_rejects_wrong_level():
    tree = build_tree(TimeGrid(0.0, 1.0, 1), NoiseModel.binary(1, 1.0))
    with pytest.raises(MfsmpError, match="level-1 values"):
        apply_transition_adjoint(_zero_steps(tree).__getitem__, tree, 0, np.zeros((1, 1)))


def test_mean_field_contributions_level_constant():
    # the expectation-coupled terms of the backward step are identical across
    # a level: solving with and without them differs by a level-constant shift
    spec = random_lq(31, steps_max=3, mean_field=True)
    tree = spec.build_tree()
    u = random_control(spec, tree, 32)
    traj = simulate(spec, tree, u)
    steps, terminal = linearize(spec, tree, traj, u)
    adj_full = solve_adjoint(steps.__getitem__, tree, terminal)
    stripped = [s._replace(drift_mean=np.zeros_like(s.drift_mean),
                           diff_mean=np.zeros_like(s.diff_mean)) for s in steps]
    k = tree.grid.n_steps
    adj_plain = solve_adjoint(stripped.__getitem__, tree, terminal)
    diff = adj_full.p.at(k) - adj_plain.p.at(k)
    np.testing.assert_allclose(diff, np.broadcast_to(diff[0], diff.shape), atol=1e-12)


def test_prodcons_duality_residual_smoke():
    spec = random_prodcons(41)
    tree = spec.build_tree()
    u = random_control(spec, tree, 42)
    traj = simulate(spec, tree, u)
    steps, terminal = linearize(spec, tree, traj, u)
    adj = solve_adjoint(steps.__getitem__, tree, terminal)
    assert q_definition_residual(adj, tree) <= 1e-14


def _noise_doc(kind, h):
    """Config entry of a noise law: the binary and trinomial families or an
    asymmetric three-point custom support, all with E w = 0 and E w^2 = h."""
    if kind == "custom":
        a = float(np.sqrt(h / 1.2))
        return {"kind": "custom", "params": {"support": [[-2.0 * a, 0.2], [0.0, 0.4], [a, 0.4]]}}
    return {"kind": "trinomial", "params": {"p": 0.2}} if kind == "trinomial" else {"kind": kind}


def _noise_model(kind, d, h):
    doc = _noise_doc(kind, h)
    if kind == "custom":
        return NoiseModel.from_support(d, h, doc["params"]["support"])
    return NoiseModel.trinomial(d, h, 0.2) if kind == "trinomial" else NoiseModel.binary(d, h)


def _smooth_nonlinear(seed, kind, d):
    """`smooth_nonlinear(seed)` on the noise law `kind` with d components.
    At d = 2 the second one carries the diffusion 0.3 tanh(E x), whose
    Jacobian in the mean is a per-node array."""
    spec = smooth_nonlinear(seed)
    c, n, r = spec.coeffs, spec.n, spec.r

    def second(fn, extra):
        if d == 1:
            return fn
        return lambda k, x, y, u: np.concatenate([fn(k, x, y, u), extra(x, y)], axis=1)

    def dtanh(x, y):
        return np.einsum("mi,ij->mij", 0.3 * (1.0 - np.tanh(y) ** 2), np.eye(n))[:, None]

    coeffs = dataclasses.replace(
        c, sigma=second(c.sigma, lambda x, y: 0.3 * np.tanh(y)[:, None]),
        sigma_x=second(c.sigma_x, lambda x, y: np.zeros((x.shape[0], 1, n, n))),
        sigma_y=second(c.sigma_y, dtanh),
        sigma_u=lambda k, x, y, u: np.zeros((x.shape[0], d, n, r)))
    return dataclasses.replace(spec, d=d, noise=_noise_model(kind, d, spec.grid.h), coeffs=coeffs)


LQ_D2 = dict(
    n=2, r=1, d=2, h=0.5, N=2, x0=[0.3, -1.0], A=[[0.1, 0.2], [0.0, -0.3]],
    A_mean=[[0.05, 0.1], [-0.2, 0.1]], B=[[1.0], [0.2]],
    sigma=[{"s0": [0.1, 0.2], "C": [[0.1, 0.0], [0.0, 0.2]], "C_mean": [[0.3, -0.1], [0.0, 0.2]]},
           {"s0": [0.3, 0.0], "C_mean": [[0.0, 0.1], [0.1, 0.0]]}],
    R=[[2.0]], G=[[1.0, 0.0], [0.0, 1.0]], G_mean=[[0.2, 0.0], [0.0, 0.2]], lo=-1.0, hi=1.0)


def _einsum_transpose_local(step, tree, k, ep, qk):
    """`_transpose_local` with each mean-field term as one three-operand
    einsum over the level, the reference for the level-reduced form."""
    w = tree.abs_prob[k]
    return (ep
            + np.einsum("mij,mi->mj", step.drift_x, ep)
            + np.einsum("mjab,mja->mb", step.diff_x, qk)
            + np.einsum("m,mij,mi->j", w, step.drift_mean, ep)
            + np.einsum("m,mjab,mja->b", w, step.diff_mean, qk))


@pytest.mark.parametrize("case", ["lq step blocks", "smooth-nonlinear per node"])
def test_transpose_local_means_match_three_operand_einsum(case):
    if case == "lq step blocks":
        spec = builtin("lq_meanfield", **LQ_D2)
    else:
        spec = _smooth_nonlinear(3, "binary", 2)
    tree = spec.build_tree()
    u = random_control(spec, tree, 5)
    steps, _ = linearize(spec, tree, simulate(spec, tree, u), u)
    per_node = case != "lq step blocks"
    assert all((a.shape[0] > 1) == per_node for s in steps[1:] for a in (s.drift_mean, s.diff_mean))
    assert spec.d == 2 and all(np.any(a != 0.0) for s in steps for a in (s.drift_mean, s.diff_mean))
    rng = np.random.default_rng(6)
    for k in range(tree.grid.n_steps + 1):
        v = rng.uniform(-1.0, 1.0, (tree.size(k + 1), spec.n))
        ep, qk = cond_expect(tree, v, k + 1), cond_expect_noise(tree, v, k + 1)
        # relative to the sum of the terms' magnitudes, which no
        # cancellation in the level sums can shrink
        scale = _einsum_transpose_local(StepCoefficients(*map(np.abs, steps[k])), tree, k,
                                        np.abs(ep), np.abs(qk))
        gap = np.abs(_transpose_local(steps[k], tree, k, ep, qk)
                     - _einsum_transpose_local(steps[k], tree, k, ep, qk))
        assert np.all(gap <= 1e-15 * scale)


def _lq_document(rng, d, per_step):
    """A random mean-field LQ config with every expectation coupling on, as
    a `lq_meanfield` family or, with `per_step`, as per-step `tables`."""
    n, r, n_steps = int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(1, 3))

    def entry(*shape, scale=0.4, varying=False):
        if varying and per_step:
            return {"per_step": rng.uniform(-scale, scale, (n_steps + 1,) + shape).tolist()}
        return rng.uniform(-scale, scale, shape).tolist()

    params = {"A": entry(n, n, varying=True), "A_mean": entry(n, n, scale=0.2),
              "B": entry(n, r, varying=True), "f0": entry(n),
              "sigma": [{"C": entry(n, n, scale=0.3, varying=True), "C_mean": entry(n, n, scale=0.2),
                         "D": entry(n, r, scale=0.3), "s0": entry(n)} for _ in range(d)],
              "Q": entry(n, n), "Q_mean": entry(n, n, scale=0.2), "R": np.eye(r).tolist(),
              "q": entry(n), "q_mean": entry(n), "G": entry(n, n), "G_mean": entry(n, n, scale=0.2),
              "g": entry(n), "g_mean": entry(n)}
    doc = {"dims": {"n": n, "r": r, "d": d}, "grid": {"t0": 0.0, "h": 0.5, "N": n_steps},
           "x0": entry(n, scale=0.8), "direction": "minimize",
           "admissible": [{"t": "all", "lo": [-1.0] * r, "hi": [1.0] * r}]}
    if per_step:
        doc["tables"] = params
    else:
        doc["family"] = {"name": "lq_meanfield", "params": params}
    return doc


def _property_spec(family, kind, d, seed):
    if family == "smooth_nonlinear":
        return _smooth_nonlinear(seed, kind, d)
    if family == "prodcons":
        doc = to_config(random_prodcons(seed, steps_max=2))
    else:
        doc = _lq_document(np.random.default_rng(seed), d, per_step=family == "tables")
    doc["noise"] = _noise_doc(kind, doc["grid"]["h"])
    return parse_problem(json.dumps(doc))


# family, noise kind, d, seed
PROPERTY_INPUTS = (st.sampled_from(["lq_meanfield", "tables", "prodcons", "smooth_nonlinear"]),
                   st.sampled_from(["binary", "trinomial", "custom"]), st.sampled_from([1, 2]),
                   st.integers(0, 2 ** 20))


@settings(max_examples=25, deadline=None)
@given(*PROPERTY_INPUTS)
def test_duality_and_transition_transpose_properties(family, kind, d, seed):
    # prodcons is scalar: its d = 2 draws run at d = 1
    spec = _property_spec(family, kind, d, seed)
    assert spec.d == (1 if family == "prodcons" else d) and spec.noise.kind == kind
    tree = spec.build_tree()
    u = random_control(spec, tree, seed + 1)
    traj = simulate(spec, tree, u)
    steps, terminal = linearize(spec, tree, traj, u)
    adj = solve_adjoint(steps.__getitem__, tree, terminal)
    spike = random_spike(spec, tree, u, seed + 2, 0.05)
    assert duality_residual(spec, tree, traj, adj, u, spike) <= 1e-10
    rng = np.random.default_rng(seed + 3)
    for k in range(tree.grid.n_steps + 1):
        z = rng.uniform(-1.0, 1.0, (tree.size(k), spec.n))
        v = rng.uniform(-1.0, 1.0, (tree.size(k + 1), spec.n))
        phi_z = apply_transition(steps.__getitem__, tree, k, z)
        lhs = float(expect(tree, np.sum(phi_z * v, axis=1), k + 1))
        phi_star_v = apply_transition_adjoint(steps.__getitem__, tree, k, v)
        rhs = float(expect(tree, np.sum(z * phi_star_v, axis=1), k))
        # relative to the Cauchy-Schwarz bound of the pairing
        bound = np.sqrt(float(expect(tree, np.sum(phi_z ** 2, axis=1), k + 1))
                        * float(expect(tree, np.sum(v ** 2, axis=1), k + 1)))
        assert abs(lhs - rhs) <= 1e-12 * bound


@settings(max_examples=25, deadline=None)
@given(*PROPERTY_INPUTS)
def test_taylor_remainder_is_second_order_properties(family, kind, d, seed):
    # along each certificate direction the adjoint gradient leaves a Taylor
    # remainder of order 2
    spec = _property_spec(family, kind, d, seed)
    tree = spec.build_tree()
    u = random_control(spec, tree, seed + 1)
    report = certify_gradient(spec, tree, u, adjoint_gradient(spec, tree, u))
    taylor = [r for r in report.residuals if r.label.startswith("Taylor remainder")]
    assert len(taylor) == CERT_DIRECTIONS
    assert all(r.value <= r.tol for r in taylor), [(r.label, r.value) for r in taylor]


@pytest.mark.parametrize("make", [lambda: _property_spec("lq_meanfield", "trinomial", 2, 7),
                                  lambda: smooth_nonlinear(2)], ids=["lq", "smooth-nonlinear"])
def test_forced_forward_recursion_is_the_tangent_along_a_direction(make):
    # forced at every step by (h f_u v_k, sigma_u v_k), the linear recursion
    # is the derivative of the state along a direction v non-zero at every
    # step: Im x(u + i tau v) / tau level by level
    spec = make()
    if spec.family == "lq_meanfield":
        assert (spec.d, spec.noise.kind) == (2, "trinomial")
    tree = spec.build_tree()
    u = random_control(spec, tree, 8)
    traj = simulate(spec, tree, u)
    rng = np.random.default_rng(9)
    v = [rng.uniform(-1.0, 1.0, u.at(k).shape) for k in u.levels()]
    c, h = spec.coeffs, tree.grid.h
    drift = [h * np.einsum("mia,ma->mi", c.f_u(k, *traj.rows(k), u.at(k)), v[k])
             for k in u.levels()]
    diff = [np.einsum("mjia,ma->mji", c.sigma_u(k, *traj.rows(k), u.at(k)), v[k])
            for k in u.levels()]
    steps, _ = linearize(spec, tree, traj, u)
    tangent = solve_linear_forward(steps.__getitem__, tree, np.zeros(spec.n), drift, diff)
    moved = [u.at(k) + 1j * CS_STEP * v[k] for k in u.levels()]
    for k, (x, _) in enumerate(forward_levels(spec, tree, moved)):
        ref = x.imag / CS_STEP
        assert np.any(ref != 0.0) or k == 0
        assert np.max(np.abs(tangent.at(k) - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref))), k
