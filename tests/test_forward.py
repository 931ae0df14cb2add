import tracemalloc

import numpy as np
import pytest

from mfsmp.errors import CostDomainError, MfsmpError, SimulationError
from mfsmp.forward import (check_feasible, constant_control, cost,
                           mean_recursion_residual, simulate)
from mfsmp.instances import random_control, random_lq
from mfsmp.problem import builtin
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
