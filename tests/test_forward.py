import json
import tracemalloc

import numpy as np
import pytest

from mfsmp import forward
from mfsmp.errors import CostDomainError, MfsmpError, SimulationError
from mfsmp.forward import (check_feasible, constant_control, cost,
                           mean_recursion_residual, simulate)
from mfsmp.instances import (random_control, random_lq, random_prodcons, random_spike,
                             smooth_nonlinear)
from mfsmp.problem import builtin, parse_problem
from mfsmp.smp import adjoint_gradient, duality_residual
from mfsmp.tree import AdaptedProcess, expect


def test_zero_dynamics_state_constant():
    spec = builtin("lq_meanfield", n=2, r=1, d=1, h=0.5, N=2, x0=[1.5, -0.5],
                   lo=-1.0, hi=1.0)
    tree = spec.build_tree()
    traj = simulate(spec, tree, constant_control(spec, tree, 0.7))
    for k in range(4):
        np.testing.assert_array_equal(traj.at(k), np.broadcast_to(spec.x0, (tree.size(k), 2)))


def test_e1_one_step_states(e1):
    spec, tree = e1
    traj = simulate(spec, tree, constant_control(spec, tree, 0.0))
    np.testing.assert_allclose(sorted(traj.at(1).ravel()), [-1.0, 1.0])


def test_prodcons_one_step_states():
    spec = builtin("prodcons", delta_util=0.5, depreciation=0.5, h=0.5, N=0, x0=1.0,
                   v_floor=0.25)
    tree = spec.build_tree()
    traj = simulate(spec, tree, constant_control(spec, tree, 0.25))
    expected = 1.0 + 0.25 - 0.25 + 0.5 * np.sqrt(0.5) * np.array([1.0, -1.0])
    np.testing.assert_allclose(sorted(traj.at(1).ravel()), sorted(expected), atol=1e-14)


def test_e1_costs(e1):
    spec, tree = e1
    assert cost(spec, tree, constant_control(spec, tree, 0.0)) == pytest.approx(1.0)
    assert cost(spec, tree, constant_control(spec, tree, 1.0)) == pytest.approx(3.0)


def test_mean_matches_recursion_on_random_instances():
    for seed in range(8):
        spec = random_lq(seed)
        tree = spec.build_tree()
        u = random_control(spec, tree, 100 + seed)
        traj = simulate(spec, tree, u)
        assert mean_recursion_residual(spec, tree, u, traj) <= 1e-12
        for k in range(tree.grid.n_levels):
            np.testing.assert_allclose(traj.means[k], expect(tree, traj.at(k), k),
                                       atol=1e-12)


def test_zero_noise_degeneracy():
    # all diffusions identically zero: every node of a level carries one state
    spec = builtin("lq_meanfield", n=2, r=1, d=2, h=0.5, N=3, x0=[0.4, -0.2],
                   A=[[0.3, 0.1], [0.0, 0.2]], B=[[1.0], [0.5]], lo=-1.0, hi=1.0)
    tree = spec.build_tree()
    traj = simulate(spec, tree, constant_control(spec, tree, 0.3))
    for k in range(tree.grid.n_levels):
        level = traj.at(k)
        np.testing.assert_array_equal(level, np.broadcast_to(level[0], level.shape))


def test_feasibility_guard(e1):
    spec, tree = e1
    u = constant_control(spec, tree, 2.0)  # box is [-1, 1]
    with pytest.raises(MfsmpError, match="admissible box"):
        simulate(spec, tree, u)
    check_feasible(spec, tree, constant_control(spec, tree, 1.0))


def test_cost_domain_error_names_node():
    spec = builtin("prodcons", delta_util=0.5, h=0.5, N=0, x0=1.0)
    tree = spec.build_tree()
    bad = AdaptedProcess.constant(tree, 0, 0, [0.0])
    with pytest.raises(CostDomainError, match="level 0, node 0") as err:
        cost(spec, tree, bad, validate=False)
    assert err.value.level == 0 and err.value.node == 0


def test_overflow_raises_simulation_error():
    spec = builtin("lq_meanfield", n=1, r=1, d=1, h=1.0, N=1, x0=[1e308],
                   f0=[1e308], lo=-1.0, hi=1.0)
    tree = spec.build_tree()
    with pytest.raises(SimulationError, match="level 1") as err:
        simulate(spec, tree, constant_control(spec, tree, 0.0))
    assert err.value.level == 1


def test_simulate_transient_memory_is_one_and_a_half_leaf_arrays():
    # the lift builds each child level in one array, the one kept: on top of
    # the trajectory, simulate holds only the leaf step's drift, base and
    # diff (half a leaf array each on a binary tree), plus 68 KiB that do not
    # grow with the tree: 0.04 leaf arrays at N = 15
    spec = builtin("lq_meanfield", n=3, r=1, d=1, h=0.1, N=15, x0=[0.1, -0.2, 0.3])
    tree = spec.build_tree()
    u = random_control(spec, tree, 1)
    leaf = tree.size(tree.n_levels - 1) * spec.n * 8
    tracemalloc.start()
    try:
        traj = simulate(spec, tree, u)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held >= 2 * leaf * (1 - 2.0 ** -tree.n_levels)  # the kept states
    assert peak - held <= 1.6 * leaf


STREAM_CASES = {
    "lq-binary": lambda: random_lq(4, steps_max=4, bounded=True),
    "lq-trinomial": lambda: builtin(
        "lq_meanfield", n=1, r=1, d=1, h=0.5, N=4, x0=[1.0], noise="trinomial",
        trinomial_p=0.2, A_mean=[[0.3]], B=[[1.0]], sigma=[{"s0": [1.0], "C": [[0.3]]}],
        Q_mean=[[0.4]], R=[[2.0]], G=[[1.0]], G_mean=[[0.5]], lo=-2.0, hi=2.0),
    "lq-d2": lambda: builtin(
        "lq_meanfield", n=2, r=2, d=2, h=0.5, N=3, x0=[0.3, -1.0],
        A=[[0.1, 0.2], [0.0, -0.3]], A_mean=[[0.05, 0.0], [0.0, 0.1]],
        B=[[1.0, 0.5], [0.2, 1.0]],
        sigma=[{"s0": [0.1, 0.2], "C": [[0.1, 0.0], [0.0, 0.2]]},
               {"s0": [0.3, 0.0], "C_mean": [[0.0, 0.1], [0.1, 0.0]]}],
        Q=[[1.0, 0.0], [0.0, 1.0]], Q_mean=[[0.3, 0.0], [0.0, 0.3]], R=[[2.0, 0.0], [0.0, 1.0]],
        G_mean=[[0.2, 0.0], [0.0, 0.2]], q_mean=[0.1, -0.2], lo=-1.0, hi=1.0),
    "tables": lambda: parse_problem(json.dumps({
        "dims": {"n": 2, "r": 1, "d": 1}, "grid": {"t0": 0.0, "h": 0.5, "N": 2},
        "noise": {"kind": "binary"}, "x0": [0.5, -0.3],
        "tables": {"A": {"per_step": [[[0.1, 0.2], [0.0, -0.3]], [[0.0, 0.1], [0.2, 0.0]],
                                      [[-0.2, 0.0], [0.1, 0.1]]]},
                   "B": [[1.0], [0.5]], "sigma": [{"C": [[0.2, 0.0], [0.0, 0.1]]}],
                   "Q_mean": {"per_step": [[[0.2, 0.0], [0.0, 0.2]], [[0.1, 0.0], [0.0, 0.3]],
                                           [[0.0, 0.0], [0.0, 0.1]]]},
                   "R": [[1.0]], "G": [[1.0, 0.0], [0.0, 1.0]], "g_mean": [0.1, -0.2]},
        "admissible": [{"t": "all", "lo": [-1.0], "hi": [1.0]}], "direction": "minimize"})),
    "prodcons": lambda: random_prodcons(2),
    "smooth-nonlinear": lambda: smooth_nonlinear(3),
}


def _cost_outcome(spec, tree, u, validate, stored):
    """J, or the type, text, level and node of the error `cost` raises, from
    the stored trajectory or from the streamed pass."""
    try:
        if stored:
            return cost(spec, tree, u, traj=simulate(spec, tree, u, validate=validate),
                        validate=validate)
        return cost(spec, tree, u, validate=validate)
    except MfsmpError as exc:
        return type(exc), str(exc), getattr(exc, "level", None), getattr(exc, "node", None)


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_streamed_cost_is_the_stored_paths_to_the_bit(case, validate):
    spec = STREAM_CASES[case]()
    tree = spec.build_tree()
    for seed in (1, 2):
        u = random_control(spec, tree, seed)
        j_val = _cost_outcome(spec, tree, u, validate, stored=False)
        assert type(j_val) is float and j_val == _cost_outcome(spec, tree, u, validate, stored=True)


def _box_violation():
    spec = builtin("lq_meanfield", n=1, r=1, d=1, h=0.5, N=3, x0=[1.0], R=[[1.0]],
                   lo=-1.0, hi=1.0)
    u = random_control(spec, spec.build_tree(), 1)
    u.at(2)[1, 0] = 1.5
    return spec, u


def _state_after_running_cost():
    # R u^2 overflows at level 2, node 3, then the state below it at level 3
    spec = builtin("lq_meanfield", n=1, r=1, d=1, h=0.5, N=3, x0=[1.0], B=[[1e10]],
                   R=[[1.0]], lo=-1e308, hi=1e308)
    u = constant_control(spec, spec.build_tree(), 0.1)
    u.at(2)[3, 0] = 1e305
    return spec, u


def _terminal_cost():
    # every state finite, G x^2 overflows at the children of level-3 node 5
    spec = builtin("lq_meanfield", n=1, r=1, d=1, h=0.5, N=3, x0=[1.0], B=[[1.0]],
                   G=[[1.0]], lo=-1e300, hi=1e300)
    u = constant_control(spec, spec.build_tree(), 0.1)
    u.at(3)[5, 0] = 1e160
    return spec, u


def _nan_control():
    # a NaN passes the box test; the cost of its level and every state below are NaN
    spec, u = _box_violation()
    u.at(2)[1, 0] = np.nan
    return spec, u


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize("case, error, text", [
    (_box_violation, MfsmpError, "control violates admissible box at step 2 by 5.000e-01"),
    (_state_after_running_cost, SimulationError, "non-finite state at level 3"),
    (_terminal_cost, CostDomainError, "terminal cost undefined at node 10"),
    (_nan_control, SimulationError, "non-finite state at level 3"),
], ids=["box", "state-after-running-cost", "terminal-cost", "nan-control"])
def test_streamed_cost_raises_as_the_stored_path(case, error, text, validate):
    # a non-finite state wins over an undefined cost at an earlier level, as
    # `simulate` raises before `cost` looks at any level
    spec, u = case()
    tree = spec.build_tree()
    stored = _cost_outcome(spec, tree, u, validate, stored=True)
    assert _cost_outcome(spec, tree, u, validate, stored=False) == stored
    if error is MfsmpError and not validate:
        assert type(stored) is float  # nothing checks the box
    else:
        assert stored[:2] == (error, text)


def test_streamed_cost_holds_one_level():
    # the trajectory's two leaf arrays are never held: the peak is the leaf
    # level plus the lift or the terminal cost's temporaries (2.34 leaf
    # arrays here, 3.84 when `cost` stored the trajectory)
    spec = builtin("lq_meanfield", n=3, r=1, d=1, h=0.1, N=15, x0=[0.1, -0.2, 0.3],
                   A_mean=np.eye(3) * 0.1, B=[[1.0], [0.5], [0.2]],
                   sigma=[{"s0": [0.1, 0.2, 0.3], "C": np.eye(3) * 0.1}],
                   Q=np.eye(3), Q_mean=np.eye(3) * 0.5, R=[[1.0]], G=np.eye(3),
                   G_mean=np.eye(3) * 0.5, q=[0.1, 0.1, 0.1], g=[0.1, 0.2, 0.3], lo=-1.0, hi=1.0)
    tree = spec.build_tree()
    u = random_control(spec, tree, 1)
    leaf = tree.size(tree.n_levels - 1) * spec.n * 8
    tracemalloc.start()
    try:
        cost(spec, tree, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.7 * leaf


def broadcast_rows(x, mean):
    """`forward._rows` in its reference form, the mean of a 2-D level
    broadcast by `np.broadcast_to` and a batch's by `np.repeat`."""
    if x.ndim == 2:
        return x, np.broadcast_to(mean, x.shape)
    n = x.shape[-1]
    return (np.ascontiguousarray(x).reshape(-1, n),
            np.repeat(mean.reshape(-1, n), x.shape[-2], axis=0))


FLAGS = ("C_CONTIGUOUS", "F_CONTIGUOUS", "OWNDATA", "WRITEABLE", "ALIGNED", "WRITEBACKIFCOPY")


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("nodes", [1, 2, 7])
def test_level_mean_rows_are_the_broadcast_view(dtype, nodes):
    rng = np.random.default_rng(nodes)
    x = rng.standard_normal((nodes, 3)).astype(dtype)
    mean = rng.standard_normal(3).astype(dtype)
    if dtype is complex:
        x, mean = x + 1e-30j, mean - 2e-30j
    rows, mean_rows = forward._rows(x, mean)
    ref = np.broadcast_to(mean, x.shape)
    assert rows is x
    assert not mean_rows.flags.writeable and mean_rows.strides == (0, mean.itemsize)
    assert np.shares_memory(mean_rows, mean)
    assert mean_rows.dtype == ref.dtype and mean_rows.strides == ref.strides
    assert [mean_rows.flags[f] for f in FLAGS] == [ref.flags[f] for f in FLAGS]
    np.testing.assert_array_equal(mean_rows, ref)
    # a strided mean is made contiguous first
    strided = np.repeat(mean, 2)[::2]
    np.testing.assert_array_equal(forward._rows(x, strided)[1], ref)


def test_trajectory_rows_are_made_once():
    spec = random_lq(4, steps_max=4, bounded=True)
    tree = spec.build_tree()
    traj = simulate(spec, tree, random_control(spec, tree, 1))
    for k in range(tree.n_levels):
        x, y = traj.rows(k)
        assert traj.rows(k)[0] is x and traj.rows(k)[1] is y
        assert x is traj.at(k) and np.shares_memory(y, traj.means)


def test_gradient_broadcasts_no_level_mean(monkeypatch):
    # a machine-independent counter: the sweep reads every level's rows from
    # the trajectory, and the only broadcast left is the root state's
    spec = random_lq(4, steps_max=4, bounded=True)
    tree = spec.build_tree()
    u = random_control(spec, tree, 1)
    traj = simulate(spec, tree, u)
    calls, broadcast_to = [], np.broadcast_to

    def counted(*args, **kwargs):
        calls.append(args)
        return broadcast_to(*args, **kwargs)

    monkeypatch.setattr(np, "broadcast_to", counted)
    adjoint_gradient(spec, tree, u, traj=traj)
    assert calls == []
    adjoint_gradient(spec, tree, u)  # simulates first
    assert len(calls) <= 1  # the root state's, on a tree of 4 levels


def _wide_state_lq():
    """An LQ with n = 32, where matmul rounds a zero-stride mean and a
    contiguous copy of it differently on levels of 2 to 7 rows."""
    rng = np.random.default_rng(32)

    def mat(scale):
        return (rng.uniform(-scale, scale, (32, 32)) / np.sqrt(32)).tolist()

    return builtin("lq_meanfield", n=32, r=1, d=1, h=0.5, N=3, x0=rng.uniform(-1, 1, 32).tolist(),
                   A=mat(0.5), A_mean=mat(0.5), B=rng.uniform(-1, 1, (32, 1)).tolist(),
                   sigma=[{"C": mat(0.3), "C_mean": mat(0.3), "s0": [0.1] * 32}],
                   Q=np.eye(32).tolist(), Q_mean=mat(0.2), R=[[1.0]], G=np.eye(32).tolist(),
                   G_mean=mat(0.2), q_mean=[0.1] * 32, lo=-1.0, hi=1.0)


ROWS_CASES = {
    **{f"random-lq-{seed}": (lambda seed=seed: random_lq(seed)) for seed in range(6)},
    "lq-n32": _wide_state_lq,
    "tables": STREAM_CASES["tables"],
    "prodcons": lambda: random_prodcons(2),
    "smooth-nonlinear": lambda: smooth_nonlinear(3),
}


def _rows_outputs(spec, tree, u):
    """The arrays and floats of simulate, cost, the gradient and the duality residual, as bytes."""
    traj = simulate(spec, tree, u)
    g, traj_g, adj = adjoint_gradient(spec, tree, u, return_all=True)
    spike = random_spike(spec, tree, u, seed=0, scale=1e-3)
    arrays = ([traj.at(k) for k in range(tree.n_levels)] + [traj.means]
              + [g.at(k) for k in g.levels()] + [adj.p.at(k) for k in adj.p.levels()]
              + [adj.q.at(k) for k in adj.q.levels()])
    floats = [cost(spec, tree, u), cost(spec, tree, u, traj=traj),
              duality_residual(spec, tree, traj_g, adj, u, spike)]
    return [a.tobytes() for a in arrays], np.array(floats).tobytes()


@pytest.mark.parametrize("case", sorted(ROWS_CASES))
def test_direct_mean_view_keeps_the_bits_of_broadcast_to(case, monkeypatch):
    spec = ROWS_CASES[case]()
    tree = spec.build_tree()
    u = random_control(spec, tree, 1)
    direct = _rows_outputs(spec, tree, u)
    monkeypatch.setattr(forward, "_rows", broadcast_rows)
    assert _rows_outputs(spec, tree, u) == direct
