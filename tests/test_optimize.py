import json
import tracemalloc

import numpy as np
import pytest

from mfsmp import forward, selftest
from mfsmp.errors import CostDomainError, MfsmpError
from mfsmp.forward import (check_feasible, constant_control, cost, forward_levels, level_cost,
                           simulate)
from mfsmp.instances import random_lq, random_prodcons, smooth_nonlinear
from mfsmp.optimize import UNRESOLVED_ULPS, OptimizerOptions, brute_force, optimize
from mfsmp.problem import builtin, parse_problem
from mfsmp.smp import adjoint_gradient, necessary_check
from mfsmp.tree import AdaptedProcess


def test_e1_converges_to_closed_form_minimum(e1):
    spec, tree = e1
    result = optimize(spec, tree, constant_control(spec, tree, 1.0),
                      OptimizerOptions(grad_tol=1e-10))
    assert abs(result.u.at(0)[0, 0]) <= 1e-8
    assert result.cost == pytest.approx(1.0, abs=1e-10)
    assert result.reason == "gradient-tolerance"


def test_mean_field_cost_minimum():
    spec = builtin("lq_meanfield", n=1, r=1, d=1, h=1.0, N=0, x0=[0.0],
                   B=[[1.0]], G_mean=[[2.0]], lo=-5.0, hi=5.0)
    tree = spec.build_tree()
    result = optimize(spec, tree, constant_control(spec, tree, 0.7))
    assert abs(result.u.at(0)[0, 0]) <= 1e-7


def test_stationary_start_stops_immediately(e1):
    spec, tree = e1
    result = optimize(spec, tree, constant_control(spec, tree, 0.0))
    assert result.iterations == 0
    assert result.reason == "gradient-tolerance"


def test_history_monotone_and_iterates_feasible(e1):
    spec, tree = e1
    result = optimize(spec, tree, constant_control(spec, tree, 1.0))
    js = [row[0] for row in result.history]
    # the optimizer's own rule: a rise within UNRESOLVED_ULPS ulps is judged by slope
    assert all(b - a <= UNRESOLVED_ULPS * np.spacing(abs(a)) for a, b in zip(js, js[1:]))
    check_feasible(spec, tree, result.u, tol=0.0)


@pytest.mark.parametrize("ulps, monotone", [(UNRESOLVED_ULPS, True),
                                            (UNRESOLVED_ULPS + 1, False)])
def test_selftest_monotone_row_allows_the_slope_judged_rise(ulps, monotone, monkeypatch):
    # the selftest's first optimizer instance, its last J raised by `ulps`
    # ulps of the J before it: within the optimizer's rule the row passes
    def raised(*args, **kwargs):
        result = optimize(*args, **kwargs)
        j = result.history[-2][0]
        result.history[-1] = [j + ulps * np.spacing(abs(j))] + list(result.history[-1][1:])
        return result

    monkeypatch.setattr(selftest, "optimize", raised)
    report = selftest.suite_optimizer(trials=1)
    row = next(r for r in report.residuals if r.label.startswith("descent history monotone"))
    assert (row.value <= row.tol) is monotone


def test_max_iters_termination(e1):
    spec, tree = e1
    result = optimize(spec, tree, constant_control(spec, tree, 1.0),
                      OptimizerOptions(max_iters=1, step_init=1e-3))
    assert result.reason == "max-iters" and result.iterations == 1
    assert len(result.history) == 2  # the start and the one iterate, each with its gradient


def test_stall_below_grad_tol_is_gradient_tolerance(e1):
    # an iteration cap of one stops after the first step; the label then
    # depends only on that iterate's projected gradient
    spec, tree = e1
    u0 = constant_control(spec, tree, 1.0)
    stalled = optimize(spec, tree, u0, OptimizerOptions(step_init=0.2, grad_tol=1e-300,
                                                        max_iters=1))
    assert stalled.reason == "max-iters" and stalled.iterations == 1
    pg = stalled.history[-1][1]
    assert pg > 0.0
    certified = optimize(spec, tree, u0, OptimizerOptions(step_init=0.2, grad_tol=pg,
                                                          max_iters=1))
    assert certified.reason == "gradient-tolerance" and certified.iterations == 1
    assert certified.history == stalled.history


def test_infeasible_cost_at_start_raises():
    spec = builtin("prodcons", delta_util=0.5, h=0.5, N=1, x0=1.0,
                   v_floor=-1.0, v_cap=-0.5)  # box forces v < 0 where utility is undefined
    tree = spec.build_tree()
    with pytest.raises(CostDomainError):
        optimize(spec, tree)


def test_brute_force_e1_grid(e1):
    spec, tree = e1
    u, j_val = brute_force(spec, tree, 41)
    assert u.at(0)[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert j_val == pytest.approx(1.0)


def test_brute_force_recovers_grid_point():
    # l = (u - 0.3)^2 with 0.3 on the 11-point grid of [0, 1]
    spec = builtin("lq_meanfield", n=1, r=1, d=1, h=1.0, N=0, x0=[0.0],
                   R=[[2.0]], r_lin=[-0.6], l0=0.09, lo=0.0, hi=1.0)
    tree = spec.build_tree()
    u, j_val = brute_force(spec, tree, 11)
    assert u.at(0)[0, 0] == pytest.approx(0.3)
    assert j_val == pytest.approx(0.0, abs=1e-15)


def test_brute_force_degenerate_box():
    spec = builtin("lq_meanfield", n=1, r=1, d=1, h=1.0, N=0, x0=[0.0],
                   R=[[2.0]], lo=0.25, hi=0.25)
    tree = spec.build_tree()
    u, j_val = brute_force(spec, tree, 7)
    assert u.at(0)[0, 0] == 0.25
    assert j_val == pytest.approx(0.0625)


def test_brute_force_guards():
    spec = builtin("lq_meanfield", n=1, r=1, d=1, h=1.0, N=3, x0=[0.0],
                   lo=-1.0, hi=1.0)
    tree = spec.build_tree()
    with pytest.raises(MfsmpError, match="exceeds the cap"):
        brute_force(spec, tree, 101, comb_cap=10 ** 6)
    unbounded = builtin("lq_meanfield", n=1, r=1, d=1, h=1.0, N=0, x0=[0.0])
    with pytest.raises(MfsmpError, match="bounded"):
        brute_force(unbounded, unbounded.build_tree(), 11)


@pytest.mark.parametrize("n_steps, points", [(5, 2), (6, 2), (7, 3)])
def test_brute_force_refuses_grids_whose_count_overflows_int64(n_steps, points):
    # 2^63, 2^127 and 3^255 candidates: an int64 count wraps to a negative
    # number or to 0, which slipped past the cap
    spec = builtin("lq_meanfield", n=1, r=1, d=1, h=0.5, N=n_steps, x0=[0.0],
                   lo=-1.0, hi=1.0)
    with pytest.raises(MfsmpError, match="exceeds the cap"):
        brute_force(spec, spec.build_tree(), points)


def _oracle_lq():
    """A boxed LQ with n = 2 and 3 control nodes (N = 1, binary noise)."""
    return builtin("lq_meanfield", n=2, r=1, d=1, h=0.5, N=1, x0=[0.3, -0.2],
                   A=[[0.1, 0.2], [0.0, -0.3]], B=[[1.0], [0.5]], sigma=[{"s0": [0.2, 0.1]}],
                   Q=[[1.0, 0.0], [0.0, 1.0]], R=[[2.0]], G=[[1.0, 0.0], [0.0, 1.0]],
                   q=[0.1, -0.2], lo=-1.0, hi=1.0)


def _brute_force_peak(spec, points):
    """The tracemalloc peak of one `brute_force` call, in bytes."""
    tree = spec.build_tree()
    tracemalloc.start()
    try:
        brute_force(spec, tree, points)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_brute_force_memory_is_its_cost_array_plus_a_chunk():
    candidates = 101 ** 3
    assert _brute_force_peak(_oracle_lq(), 101) < 8 * candidates + 4 * 2 ** 20


def _root_r3():
    """A root-only LQ (N = 0) with three control coordinates."""
    return builtin("lq_meanfield", n=2, r=3, d=1, h=0.5, N=0, x0=[0.3, -0.2],
                   A=[[0.1, 0.2], [0.0, -0.3]], B=[[1.0, 0.2, -0.3], [0.5, 0.1, 0.4]],
                   sigma=[{"s0": [0.2, 0.1], "D": [[0.1, 0.0, 0.2], [0.0, 0.3, 0.1]]}],
                   Q=[[1.0, 0.0], [0.0, 1.0]], R=[[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.5]],
                   G=[[1.0, 0.0], [0.0, 1.0]], q=[0.1, -0.2], lo=-1.0, hi=1.0)


def test_brute_force_memory_when_the_table_is_the_candidate_set():
    # at N = 0 every candidate is its own table row: the table must be held
    # about a chunk at a time, not whole
    candidates = 61 ** 3
    assert _brute_force_peak(_root_r3(), 61) < 8 * candidates + 4 * 2 ** 20


def test_brute_force_runs_the_drift_once_per_table_row(monkeypatch):
    # every candidate used to run the whole recursion: 101^3 candidates times
    # 3 control nodes = 3,090,903 drift rows; a table row per (level-0 point,
    # level-1 point) runs 3 of them, 30,603 in all
    spec = _oracle_lq()
    tree = spec.build_tree()
    f, rows = spec.coeffs.f, []

    def counting(k, x, y, u):
        rows.append(len(x))
        return f(k, x, y, u)

    monkeypatch.setattr(spec.coeffs, "f", counting)
    brute_force(spec, tree, 101)
    assert sum(rows) <= 101 ** 3 * 3 // 10


def _reference_grid_costs(spec, tree, points):
    """Every grid candidate's `forward.batch_cost`, one forward recursion per
    candidate, decoded digit by digit over (step, node, coordinate) axes."""
    axes, layout = [], []
    for k in range(tree.grid.n_steps + 1):
        for node in range(tree.size(k)):
            for i in range(spec.r):
                axes.append(np.unique(np.linspace(spec.admissible.lo[k][i],
                                                  spec.admissible.hi[k][i], points)))
                layout.append((k, node, i))
    sizes = [a.size for a in axes]
    strides = [int(np.prod(sizes[j + 1:])) for j in range(len(sizes))]

    def controls_of(idx):
        controls = [np.zeros((idx.size, tree.size(k), spec.r)) for k in range(tree.grid.n_steps + 1)]
        for j, (k, node, i) in enumerate(layout):
            controls[k][:, node, i] = axes[j][idx // strides[j] % sizes[j]]
        return controls

    return forward.batch_cost(spec, tree, int(np.prod(sizes)), controls_of)


ORACLE_CASES = {
    "oracle-lq": (_oracle_lq, 7),
    "root-r3": (_root_r3, 5),
    "random-lq-6": (lambda: random_lq(6, bounded=True), 3),  # N = 1, r = 2, d = 2
    "tables": (lambda: parse_problem(json.dumps(TABLES_CFG)), 3),
    "prodcons": (lambda: builtin("prodcons", delta_util=0.5, h=0.5, N=3, x0=1.0,
                                 v_floor=-0.5, v_cap=1.0), 2),
}


@pytest.mark.parametrize("rows", [None, 2, 5])  # small chunks: some table windows hold one row
@pytest.mark.parametrize("case", ORACLE_CASES)
def test_brute_force_costs_are_batch_cost_bit_for_bit(case, rows, monkeypatch):
    make, points = ORACLE_CASES[case]
    spec = make()
    tree = spec.build_tree()
    expected = _reference_grid_costs(spec, tree, points)
    if rows is not None:
        _rows_per_chunk(monkeypatch, spec, tree, rows)
    opt_module, seen = _optimize_module(), []
    grid_costs = opt_module._grid_costs

    def spy(*args):
        costs, controls_of = grid_costs(*args)
        seen.append(costs)
        return costs, controls_of

    monkeypatch.setattr(opt_module, "_grid_costs", spy)
    _, j_val = brute_force(spec, tree, points)
    np.testing.assert_array_equal(seen[0], expected)
    assert j_val == expected.min()
    if case == "prodcons":  # undefined candidates are +inf, not the minimum
        assert np.isinf(expected).any()


def _rows_per_chunk(monkeypatch, spec, tree, rows):
    widest = tree.size(tree.grid.n_steps + 1) * max(spec.d * spec.n, spec.r)
    monkeypatch.setattr(forward, "CHUNK_BYTES", rows * widest * np.dtype(float).itemsize)


@pytest.mark.parametrize("rows", [1, 2, 7, 100])
def test_brute_force_is_the_same_in_chunks(rows, monkeypatch):
    spec = _oracle_lq()
    tree = spec.build_tree()
    u_one, j_one = brute_force(spec, tree, 21)
    _rows_per_chunk(monkeypatch, spec, tree, rows)
    u, j_val = brute_force(spec, tree, 21)
    assert j_val == j_one
    for k in u.levels():
        np.testing.assert_array_equal(u.at(k), u_one.at(k))


@pytest.mark.parametrize("rows", [None, 2, 5])
def test_brute_force_tie_goes_to_the_lowest_candidate(rows, monkeypatch):
    # J = E sum u^2 on the grid -3, -1, 1, 3: -1 and 1 tie on every axis, the
    # first of the 8 minima is -1 everywhere, and the minima fall into
    # different chunks
    spec = builtin("lq_meanfield", n=1, r=1, d=1, h=0.5, N=1, x0=[0.0], R=[[2.0]],
                   lo=-3.0, hi=3.0)
    tree = spec.build_tree()
    if rows is not None:
        _rows_per_chunk(monkeypatch, spec, tree, rows)
    u, j_val = brute_force(spec, tree, 4)
    for k in u.levels():
        assert np.all(u.at(k) == -1.0)
    assert j_val == cost(spec, tree, u) == 2.0


TABLES_CFG = {
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

BATCH_CASES = {
    # two controls, two diffusions, mean coupling in drift and cost
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
    "tables": lambda: parse_problem(json.dumps(TABLES_CFG)),
    "prodcons": lambda: builtin("prodcons", delta_util=0.5, h=0.5, N=3, x0=1.0,
                                v_floor=-0.5, v_cap=1.0),
    **{f"random-lq-{seed}": (lambda seed=seed: random_lq(seed, steps_max=3)) for seed in (3, 6, 9)},
}


def _batch_totals(spec, tree, controls):
    """States and expected cost per batch row, summed as the grid oracle sums it."""
    states, total = [], 0.0
    for k, (x, mean) in enumerate(forward_levels(spec, tree, controls)):
        states.append(x)
        with np.errstate(invalid="ignore"):
            total = total + np.einsum("...m,m->...", level_cost(spec, tree, controls, k, x, mean),
                                      tree.abs_prob[k])
    return states, total


def test_batch_cost_matches_plain_cost():
    # the oracle runs the forward recursion with a leading batch axis; every
    # row must reproduce the unbatched states and cost bit for bit.  In the
    # random instances the matrix products meet x0 and the level means as
    # broadcast views unbatched and as contiguous rows batched, and numpy may
    # round those two layouts differently, so there they agree to 1e-12
    for case in BATCH_CASES:
        _check_batch_rows(case, exact=not case.startswith("random"))


def _check_batch_rows(case, exact):
    spec = BATCH_CASES[case]()
    tree = spec.build_tree()
    rng = np.random.default_rng(1000)
    lo = 0.05 if case == "prodcons" else -0.8
    controls = [rng.uniform(lo, 0.8, (5, tree.size(k), spec.r))
                for k in range(tree.grid.n_steps + 1)]
    if case == "prodcons":
        controls[1][3, 1, 0] = -0.25  # utility of a negative consumption is undefined
    states, totals = _batch_totals(spec, tree, controls)
    for b in range(5):
        u = AdaptedProcess(tree, 0, [c[b] for c in controls])
        traj = simulate(spec, tree, u, validate=False)
        for k in range(tree.n_levels):
            np.testing.assert_allclose(states[k][b], traj.at(k), rtol=0, atol=0 if exact else 1e-12)
        if case == "prodcons" and b == 3:
            assert np.isnan(totals[b])  # the oracle maps it to +inf
            with pytest.raises(CostDomainError, match="level 1, node 1"):
                cost(spec, tree, u, validate=False)
        elif exact:
            assert totals[b] == cost(spec, tree, u, validate=False)
        else:
            assert totals[b] == pytest.approx(cost(spec, tree, u, validate=False), abs=1e-12)


def test_brute_force_skips_undefined_candidates():
    # most of this grid has negative consumption somewhere, where the cost is
    # undefined; those candidates lose instead of poisoning the minimum
    spec = builtin("prodcons", delta_util=0.5, h=0.5, N=1, x0=1.0, v_floor=-0.5, v_cap=1.0)
    tree = spec.build_tree()
    u, j_val = brute_force(spec, tree, 5)
    assert np.isfinite(j_val)
    assert j_val == cost(spec, tree, u)
    assert np.all(np.concatenate([u.at(k) for k in u.levels()]) > 0.0)


def test_maximize_direction_pushes_to_upper_bound():
    # maximizing a positively weighted terminal drives the control to its cap
    spec = builtin("lq_meanfield", n=1, r=1, d=1, h=1.0, N=0, x0=[0.0],
                   B=[[1.0]], sigma=[{"s0": [0.5]}], g=[1.0],
                   direction="maximize", lo=-1.0, hi=1.0)
    tree = spec.build_tree()
    result = optimize(spec, tree)
    assert result.u.at(0)[0, 0] == pytest.approx(1.0)
    assert spec.objective_value(result.cost) == pytest.approx(1.0)  # E x(T) at u = 1


def test_time_varying_boxes_respected():
    spec = builtin("lq_meanfield", n=1, r=1, d=1, h=0.5, N=1, x0=[0.4],
                   A=[[0.3]], B=[[1.0]], sigma=[{"s0": [0.3]}],
                   Q=[[0.8]], R=[[0.6]], G=[[0.9]], q=[0.3],
                   lo=[[-1.0], [0.2]], hi=[[0.5], [1.0]])
    tree = spec.build_tree()
    result = optimize(spec, tree, options=OptimizerOptions(grad_tol=1e-10))
    _, j_star = brute_force(spec, tree, 101)
    assert abs(result.cost - j_star) <= 1e-4
    assert float(result.u.at(1).min()) >= 0.2 - 1e-12
    assert float(result.u.at(1).max()) <= 1.0 + 1e-12


def test_optimizer_matches_oracle_on_convex_instances():
    for seed in range(3):
        spec = random_lq(seed, n_max=2, r_max=1, d_max=1, steps_max=1, convex=True)
        tree = spec.build_tree()
        result = optimize(spec, tree,
                          options=OptimizerOptions(seed=seed, grad_tol=1e-9))
        u_star, j_star = brute_force(spec, tree, 101)
        assert abs(result.cost - j_star) <= 1e-4
        g = adjoint_gradient(spec, tree, result.u)
        assert necessary_check(spec, result.u, g, tol=1e-6).passed


def _count_calls(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)


def _optimize_module():
    import importlib
    return importlib.import_module("mfsmp.optimize")  # the package exports the function


def test_optimize_simulates_each_trial_once(monkeypatch):
    # the accepted trial's trajectory goes on to the next adjoint gradient,
    # so the gradient never simulates a control the line search just ran
    from mfsmp import smp
    opt_module = _optimize_module()
    spec = random_lq(3, steps_max=3, convex=True)
    tree = spec.build_tree()
    calls, smp_calls = {}, {}
    _count_calls(monkeypatch, opt_module, "simulate", calls)
    _count_calls(monkeypatch, opt_module, "cost", calls)
    _count_calls(monkeypatch, smp, "simulate", smp_calls)
    result = optimize(spec, tree, options=OptimizerOptions(max_iters=20, seed=1))
    assert smp_calls == {}
    # one trajectory per cost evaluation: the start and every line-search trial
    assert calls["simulate"] == calls["cost"] > result.iterations


def test_history_rows_count_steps_and_backtracks(monkeypatch, e1):
    # every line-search trial is one cost call, and the start is one more
    opt_module = _optimize_module()
    prodcons = builtin("prodcons", delta_util=0.5, h=0.5, N=3, x0=1.0, v_floor=0.05, v_cap=2.0)
    for spec, tree in (e1, (prodcons, prodcons.build_tree())):
        calls = {}
        _count_calls(monkeypatch, opt_module, "cost", calls)
        result = optimize(spec, tree, constant_control(spec, tree, 1.0))
        monkeypatch.undo()
        assert result.history[0][2:] == [0.0, 0]
        assert all(len(row) == 4 and row[2] > 0.0 for row in result.history[1:])
        backtracks = sum(row[3] for row in result.history)
        assert result.iterations + backtracks == calls["cost"] - 1
        assert len(result.history) == result.iterations + 1


def test_spectral_step_cuts_gradients_on_convex_instances(monkeypatch):
    opt_module = _optimize_module()
    calls = {}
    _count_calls(monkeypatch, opt_module, "adjoint_gradient", calls)
    for seed in range(10):
        spec = random_lq(seed, convex=True)
        result = optimize(spec, spec.build_tree())
        assert result.reason == "gradient-tolerance"
    assert calls["adjoint_gradient"] <= 200


def test_nonpositive_curvature_falls_back_to_step_init(monkeypatch):
    # J is concave in u, so <s, y>_P < 0 along every free step: each search
    # after the first starts from step_init, and J still falls monotonically
    opt_module = _optimize_module()
    spec = builtin("lq_meanfield", n=1, r=1, d=1, h=0.5, N=2, x0=[0.2],
                   B=[[1.0]], sigma=[{"s0": [0.5]}], Q=[[0.5]], R=[[-1.0]], r_lin=[0.05],
                   lo=-1.0, hi=1.0)
    tree = spec.build_tree()
    seen = []
    spectral = opt_module._spectral_step

    def spy(tree, s, y, fallback):
        alpha = spectral(tree, s, y, fallback)
        seen.append((opt_module._inner(tree, s, y), alpha, fallback))
        return alpha
    monkeypatch.setattr(opt_module, "_spectral_step", spy)
    options = OptimizerOptions(step_init=0.3)
    result = optimize(spec, tree, constant_control(spec, tree, 0.01), options)
    fallbacks = [alpha for sy, alpha, fallback in seen if sy <= 0.0]
    assert fallbacks and all(alpha == options.step_init for alpha in fallbacks)
    js = [row[0] for row in result.history]
    assert all(b < a for a, b in zip(js, js[1:]))
    assert result.reason == "gradient-tolerance"
    assert np.all(np.abs(np.concatenate([result.u.at(k) for k in result.u.levels()])) == 1.0)


def test_iterates_stay_feasible_under_an_active_box(monkeypatch):
    # the linear cost pushes the unconstrained minimizer outside [-0.2, 0.2];
    # every trial the line search evaluates lies in the box, and so does the result
    opt_module = _optimize_module()
    spec = builtin("lq_meanfield", n=2, r=2, d=1, h=0.5, N=3, x0=[0.3, -0.2],
                   A=[[0.1, 0.2], [0.0, -0.3]], B=[[1.0, 0.5], [0.2, 1.0]],
                   sigma=[{"s0": [0.2, 0.1], "C": [[0.2, 0.0], [0.0, 0.1]]}],
                   Q=[[1.0, 0.0], [0.0, 1.0]], R=[[1.0, 0.0], [0.0, 2.0]],
                   r_lin=[0.9, -0.7], lo=-0.2, hi=0.2)
    tree = spec.build_tree()
    trials = []
    safe_cost = opt_module._safe_cost

    def spy(spec, tree, u):
        trials.append(u)
        return safe_cost(spec, tree, u)
    monkeypatch.setattr(opt_module, "_safe_cost", spy)
    result = optimize(spec, tree, options=OptimizerOptions(seed=4))
    assert len(trials) > 2
    for u in trials:
        check_feasible(spec, tree, u, tol=0.0)
    on_bound = np.concatenate([np.abs(result.u.at(k)) == 0.2 for k in result.u.levels()])
    assert on_bound.any() and not on_bound.all()
    assert result.reason == "gradient-tolerance"


def test_seeded_start_is_strictly_inside_a_one_sided_box(monkeypatch):
    # the seeded start is `random_control`: beyond a lower bound with no upper one
    opt_module = _optimize_module()
    spec = builtin("lq_meanfield", n=1, r=1, d=1, h=0.5, N=2, x0=[0.4], A=[[0.3]], B=[[1.0]],
                   Q=[[0.8]], R=[[0.6]], G=[[0.9]], lo=2.0, hi=np.inf)
    tree = spec.build_tree()
    trials = []
    safe_cost = opt_module._safe_cost

    def spy(spec, tree, u):
        trials.append(u)
        return safe_cost(spec, tree, u)
    monkeypatch.setattr(opt_module, "_safe_cost", spy)
    result = optimize(spec, tree, options=OptimizerOptions(seed=3))
    start = np.concatenate([trials[0].at(k) for k in trials[0].levels()])
    assert np.all(start > 2.0) and np.all(np.isfinite(start))
    assert result.reason == "gradient-tolerance"


def _deep_lq(n_steps):
    """Unconstrained convex mean-field LQ, n = 2, r = d = 1, h = 0.5, binary
    noise: the coefficients of the benchmark's solve-ladder `lq-binary`
    config at seed 1.  From about N = 14 on, J near the optimum has too few
    digits left for the Armijo test."""
    return builtin(
        "lq_meanfield", n=2, r=1, d=1, h=0.5, N=n_steps,
        x0=[0.018914599520410746, 0.7207419141214966],
        A=[[0.2822623581544948, -0.08946390655473407],
           [0.18124905431033922, 0.05808908137510697]],
        A_mean=[[-0.08725900144442765, 0.17934731967082843],
                [0.15669410384899124, -0.057641184043588346]],
        B=[[0.3345865343271693], [-0.1947907137890913]],
        f0=[-0.21350423236821975, 0.2691896682823463],
        sigma=[{"C": [[-0.014558399649903497, 0.23256115883167003],
                      [0.16842048055743622, -0.1261851688248991]],
                "C_mean": [[0.02388150247755271, 0.16120310941649657],
                           [0.10098105837508503, -0.04619165158085299]],
                "D": [[-0.017013743812887044], [0.010084376368126388]],
                "s0": [0.23074296274272343, -0.15744413656668402]}],
        Q=[[0.12084093745021542, -0.0749731306403629],
           [-0.0749731306403629, 0.1967847999172701]],
        Q_mean=[[0.0745149478882896, -0.02160258080983674],
                [-0.02160258080983674, 0.02326018422554771]],
        R=[[0.2569532778302603]],
        G=[[0.03876620630722371, 0.013097317896454852],
           [0.013097317896454852, 0.1916016751772705]],
        G_mean=[[0.08142054428159595, -0.008942651626467723],
                [-0.008942651626467723, 0.06168801192424382]],
        q=[-0.18816854798951455, -0.07667355102742435],
        q_mean=[0.32770259382044176, -0.09080086363083872],
        r_lin=[0.029756212603835708],
        g=[-0.47244088675693163, 0.2535131086748066],
        g_mean=[0.03814331321927822, -0.17026828350090784])


@pytest.mark.parametrize("n_steps", [8, 10, 12, 14])
def test_deep_lq_exits_on_its_gradient_tolerance(n_steps):
    # a gradient of 1e-8 at a node of probability 2^-N moves J by less than
    # its last digit, so the line search must judge such steps by their slope
    spec = _deep_lq(n_steps)
    result = optimize(spec, spec.build_tree())
    assert result.reason == "gradient-tolerance"
    assert result.history[-1][1] <= 1e-8


def test_random_instances_exit_on_their_gradient_tolerance():
    families = (random_prodcons, random_lq, lambda seed: random_lq(seed, convex=True),
                smooth_nonlinear)
    for make in families:
        for seed in range(25):
            spec = make(seed)
            result = optimize(spec, spec.build_tree())
            assert result.reason == "gradient-tolerance", (make, seed, result.history[-1])


def test_unreachable_tolerance_ends_on_gradient_stall():
    spec = random_lq(1, convex=True)
    result = optimize(spec, spec.build_tree(), options=OptimizerOptions(grad_tol=0.0))
    assert result.reason == "gradient-stall"
    assert result.iterations < 100
    assert result.history[-1][1] < 1e-12
