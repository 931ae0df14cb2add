"""Exact forward simulation of the controlled mean-field system and its cost.

Levels are processed breadth-first: the level mean enters every node's step,
so it must be available before any child state is computed.  On a finite tree
the simulated level means coincide (to roundoff) with the deterministic mean
recursion, because the diffusion terms have exactly zero conditional mean.

The evaluators other than l and phi take the level mean as one row per node.
`_rows` is the one place it is broadcast: a 2-D level's mean becomes a
read-only zero-stride view, built directly rather than by `np.broadcast_to`,
whose Python layers cost as much as a small level's arithmetic, and a
`StateTrajectory` keeps each level's rows, so the gradient sweep makes them
once per level.

The mean-field cost couples the nodes of a level through its mean, so every
batched cost is finished from a level-N table that only `level_table` builds:
per batch row, the cost of levels 0..N-1, the level-N states, mean and
running costs, each level-N node's children and the leaf mean.  A level-N
control moves only its node's running cost and children, and through them
the leaf mean and phi, so a row that differs from a table row at level N
alone needs no forward pass.  `batch_cost`, the one batched cost of the
finite differences and the gradient certificate, finishes each row from its
own table, in chunks of `chunk_rows` rows whose widest level array holds at
most `CHUNK_BYTES` bytes, and its `moved` rows from row 0's table, each
moved node lifted again by `forward_step`.  The grid oracle
(`optimize.brute_force`) finishes its candidates in runs in which only the
last level-N node moves: a run is a slice of its prefix's table rows, with
the other nodes' entries broadcast over it.  All of them sum with `_finish`,
so their costs agree to the bit.
"""

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import CostDomainError, MfsmpError, SimulationError
from .tree import AdaptedProcess, ScenarioTree, expect

# bytes in the widest level array of a batch chunk (256 KB): bounds the memory
# a batch adds, whatever the tree, the row count and the dtype
CHUNK_BYTES = 1 << 18

# a batch row's level-N table: the cost of levels 0..N-1 pre (B,), the level-N
# states x (B, m_N, n), mean (B, n) and running costs run (B, m_N), each level-N
# node's children kids (B, m_N, branch, n) and the leaf mean leaf_mean (B, n)
LevelTable = namedtuple("LevelTable", "pre x mean run kids leaf_mean")


@dataclass(eq=False)
class StateTrajectory:
    """Adapted state process over levels 0..N+1 plus its per-level mean."""

    states: AdaptedProcess
    means: np.ndarray  # (N+2, n)
    # level -> its `rows` pair, views of `states` and `means` made on first use
    _level_rows: dict = field(default_factory=dict, init=False, repr=False)

    def at(self, level):
        return self.states.at(level)

    def __iter__(self):
        """The (state, mean) of each level in turn, as `forward_levels` yields them."""
        return ((self.at(k), mean) for k, mean in enumerate(self.means))

    def rows(self, k):
        """The level-k state and its mean as evaluator rows, (m_k, n) each,
        made by `_rows`, the one place a level mean is broadcast over its
        nodes.  The pair is made once and kept: both are views, so it holds
        no memory of its own, and the linearization, the Hamiltonian
        gradient and the checks of every level read the same pair."""
        pair = self._level_rows.get(k)
        if pair is None:
            pair = self._level_rows[k] = _rows(self.at(k), self.means[k])
        return pair


def check_feasible(spec, tree, u: AdaptedProcess, tol: float = 1e-9):
    """Raise if the control leaves its admissible box anywhere (beyond tol)."""
    if u.first_level != 0 or u.last_level != tree.grid.n_steps:
        raise MfsmpError("control process must cover levels 0..N")
    if u.value_shape != (spec.r,):
        raise MfsmpError(f"control values must have shape ({spec.r},), got {u.value_shape}")
    for k in u.levels():
        viol = spec.admissible.violation(k, u.at(k))
        if viol > tol:
            raise MfsmpError(f"control violates admissible box at step {k} by {viol:.3e}")


def constant_control(spec, tree, value) -> AdaptedProcess:
    value = np.broadcast_to(np.asarray(value, dtype=float), (spec.r,))
    return AdaptedProcess.constant(tree, 0, tree.grid.n_steps, value)


def _rows(x, mean):
    """State and level mean as evaluator rows, for all but l and phi: batch axes
    fold into the node axis, and each batch row's mean is repeated over its nodes.

    A 2-D level's mean is a read-only view with a zero row stride, the view
    `np.broadcast_to(mean, x.shape)` gives, with the same strides and flags,
    so `matmul` takes the same loop and rounds the same way.  It is built
    with the `ndarray` constructor, as `np.broadcast_to`'s Python layers cost
    more than the gradient's small levels take to evaluate."""
    if x.ndim == 2:
        mean = np.ascontiguousarray(mean)
        view = np.ndarray(x.shape, mean.dtype, mean, 0, (0, mean.itemsize))
        view.flags.writeable = False
        return x, view
    n = x.shape[-1]
    # matrix products may round a broadcast and a contiguous layout
    # differently, so a batch is contiguous at every level, the root included
    return (np.ascontiguousarray(x).reshape(-1, n),
            mean.reshape(-1, n).repeat(x.shape[-2], axis=0))


def forward_levels(spec, tree: ScenarioTree, controls):
    """The exact state recursion for per-step controls `controls[k]` of shape
    (..., m_k, r), k = 0..N, whose leading axes are a batch.  Yields the state
    (..., m_k, n) and level mean (..., n) of each level k = 0..N+1 in turn;
    nothing of a step is kept once its child level is made, so a consumer
    that lets go of each level holds one at a time.  Overflow is carried on
    as inf/NaN.  The states take the controls' dtype: complex controls (a
    complex step) give complex states, with complex-safe coefficients."""
    x = np.broadcast_to(spec.x0, controls[0].shape[:-2] + (1, spec.n))
    for k, uk in enumerate(controls):
        mean = level_mean(tree, k, x)
        yield x, mean
        with np.errstate(over="ignore", invalid="ignore"):
            base, diff = forward_step(spec, tree, k, x, mean, uk)
            del x, mean
            x = tree.children(k, base, diff)
            # nothing of the step outlives it: the consumer works on the
            # child level with only that level alive here
            del base, diff
    yield x, level_mean(tree, len(controls), x)


def forward_step(spec, tree, k, x, mean, uk):
    """The input of the step-k lift `tree.children` of states x (..., m, n),
    level mean (..., n) and controls uk (..., m, r): the base x + h f and the
    diffusions sigma (..., m, d, n).  A batch folding into one evaluator row
    runs as two, the copy dropped, as BLAS rounds a one-row matrix product
    otherwise; an unbatched level runs as given.  Callers silence overflow."""
    xf, yf = _rows(x, mean)
    uf = uk.reshape(-1, spec.r)
    rows = len(xf)
    if x.ndim > 2 and rows == 1:
        xf, yf, uf = (a.repeat(2, axis=0) for a in (xf, yf, uf))
    drift = spec.coeffs.f(k, xf, yf, uf)[:rows].reshape(x.shape)
    diff = spec.coeffs.sigma(k, xf, yf, uf)[:rows].reshape(x.shape[:-1] + (spec.d, spec.n))
    del xf, yf, uf
    # a fresh h * drift takes the sum: an evaluator's output may be an array
    # it keeps, so it is never written into; a real drift under complex
    # states widens the sum, which then is not in place
    base = tree.grid.h * drift
    del drift
    return np.add(x, base, out=base if base.dtype == np.result_type(x, base) else None), diff


def level_mean(tree, k, x) -> np.ndarray:
    """The level-k mean (..., n) of states x (..., m_k, n)."""
    return np.einsum("...mn,m->...n", x, tree.abs_prob[k])


def level_cost(spec, tree, controls, k, x, mean) -> np.ndarray:
    """Level-k cost values (..., m_k) of a state and mean from `forward_levels`:
    l(k, x, Ex, u) for k <= N, the terminal phi(x, Ex) at k = N+1, which
    reads no controls.  The costs take the level as it is, with the mean as
    one (..., 1, n) row, so a row's mean terms are evaluated once."""
    y = mean[..., None, :]
    with np.errstate(over="ignore", invalid="ignore"):  # callers flag non-finite values
        if k <= tree.grid.n_steps:
            return spec.coeffs.l(k, x, y, controls[k])
        return spec.coeffs.phi(x, y)


def chunk_rows(spec, tree, dtype=float) -> int:
    """Batch rows per chunk: the widest level array of a chunk, the leaf
    level's diffusions or controls, holds at most about `CHUNK_BYTES` bytes."""
    widest = (tree.size(tree.grid.n_steps + 1) * max(spec.d * spec.n, spec.r)
              * np.dtype(dtype).itemsize)
    return max(1, CHUNK_BYTES // widest)


def level_table(spec, tree, controls) -> LevelTable:
    """The `LevelTable` of batch rows with per-step controls (B, m_k, r),
    k = 0..N: the one walk from the root to level N for batched costs."""
    n_steps, pre = len(controls) - 1, np.zeros(len(controls[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        levels = forward_levels(spec, tree, controls)
        for k, (x, mean) in zip(range(n_steps), levels):
            pre = add_level(pre, level_cost(spec, tree, controls, k, x, mean), tree.abs_prob[k])
        x, mean = next(levels)
        run = level_cost(spec, tree, controls, n_steps, x, mean)
        kids, leaf_mean = next(levels)
    return LevelTable(pre, x, mean, run, kids.reshape(run.shape + (tree.branch, spec.n)), leaf_mean)


def batch_cost(spec, tree, n_rows, controls_of, dtype=float, moved=None) -> np.ndarray:
    """Cost J of `n_rows` batch rows, whose per-step controls (B, m_k, r),
    k = 0..N, `controls_of` builds for an array of B row indices, each
    finished from its own level table in chunks of `chunk_rows` rows; a row
    whose state or cost is not finite, where `cost` raises or returns a
    non-finite J, is +inf.  `moved`, level-N nodes (L,) and controls (L, r)
    with N >= 1, appends the L rows that move row 0 at one of them each,
    finished from row 0's table."""
    if moved is not None and n_rows < 1:
        raise MfsmpError("moved rows are finished from row 0, so n_rows must be >= 1")
    chunk = chunk_rows(spec, tree, dtype)
    costs = np.empty(n_rows + (0 if moved is None else len(moved[0])), dtype)
    for start in range(0, n_rows, chunk):
        idx = np.arange(start, min(start + chunk, n_rows))
        table = level_table(spec, tree, controls_of(idx))
        costs[idx] = _finish(spec, tree, table.pre, table.run, table.kids, table.leaf_mean)
        if moved is not None and start == 0:
            costs[n_rows:] = _deepest_costs(spec, tree, table, *moved, chunk)
    return costs


def _deepest_costs(spec, tree, table, nodes, values, chunk) -> np.ndarray:
    """`batch_cost`'s `moved` rows from row 0 of its level table: the moved
    nodes as one-node batch rows, then each row's leaves."""
    pre, x, mean, run, kids, _ = (a[0] for a in table)
    n_steps, moves = tree.grid.n_steps, len(nodes)
    at_x, at_mean, at_u = x[nodes][:, None], np.broadcast_to(mean, (moves, spec.n)), values[:, None]
    costs = np.empty(moves, kids.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        moved_run = spec.coeffs.l(n_steps, at_x, at_mean[:, None], at_u)[:, 0]
        # every node's children see the support in one order: they lift as the root's
        moved_kids = tree.children(0, *forward_step(spec, tree, n_steps, at_x, at_mean, at_u))
    # chunk rows of row 0's level-N costs and leaves, each row's node moved and restored
    running, leaves = (a[None].repeat(min(chunk, moves), axis=0) for a in (run, kids))
    for start in range(0, moves, chunk):
        rows = np.arange(start, min(start + chunk, moves))
        at = (np.arange(rows.size), nodes[rows])
        running[at], leaves[at] = moved_run[rows], moved_kids[rows]
        costs[rows] = _finish(spec, tree, np.full(rows.size, pre), running[:rows.size],
                              leaves[:rows.size])
        running[at], leaves[at] = run[nodes[rows]], kids[nodes[rows]]
    return costs


def add_level(costs, vals, prob):
    """Running batch costs (...) plus the expectation of level values
    (..., m) under the node probabilities `prob` (m,): the einsum `cost`
    uses, pairwise for complex values.  Callers suppress the overflow
    warnings of non-finite values."""
    if vals.dtype.kind == "c":
        # a complex step puts a few large imaginary terms among many equal
        # tiny ones; a running sum rounds each tiny one the same way,
        # drifting by up to nodes * eps, a pairwise sum does not
        return costs + (vals * prob).sum(axis=-1)
    return costs + np.einsum("...m,m->...", vals, prob)


def _finish(spec, tree, pre, run, kids, leaf_mean=None) -> np.ndarray:
    """Batch costs (B,) of a level table's rows: `pre` (B,) plus E of the
    level-N running costs `run` (B, m_N) and of phi at the leaves `kids`
    (B, m_N, branch, n) and their mean, made here unless given; +inf where
    not finite."""
    k, x = tree.grid.n_steps + 1, kids.reshape(len(kids), -1, spec.n)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = level_mean(tree, k, x) if leaf_mean is None else leaf_mean
        costs = add_level(add_level(pre, run, tree.abs_prob[k - 1]),
                          level_cost(spec, tree, None, k, x, mean), tree.abs_prob[k])
    finite = np.isfinite(costs)
    # a non-finite state passes on to every descendant and, as path
    # probabilities are positive, into the mean of the leaves; the per-row
    # test runs only when some row needs it, as a short-axis reduction is slow
    if not np.isfinite(mean).all():
        finite &= np.isfinite(mean).all(axis=-1)
    return np.where(finite, costs, np.inf)


def _finite_levels(spec, tree, controls):
    """`forward_levels` of one control, raising at the first non-finite state."""
    levels = forward_levels(spec, tree, controls)
    for k in range(len(controls) + 1):
        x, mean = next(levels)
        if k > 0 and not np.isfinite(x).all():
            raise SimulationError(f"non-finite state at level {k}", level=k)
        yield x, mean
        del x, mean  # not kept while the next level is made


def simulate(spec, tree: ScenarioTree, u: AdaptedProcess, validate: bool = True) -> StateTrajectory:
    """Run the state recursion node by node; exact on the tree."""
    if validate:
        check_feasible(spec, tree, u)
    states, means = [], []
    for x, mean in _finite_levels(spec, tree, [u.at(k) for k in u.levels()]):
        states.append(x)
        means.append(mean)
    return StateTrajectory(AdaptedProcess(tree, 0, states), np.array(means))


def cost(spec, tree, u: AdaptedProcess, traj: StateTrajectory | None = None,
         validate: bool = True) -> float:
    """Expected cost J (minimization sign; maximize problems were negated at build).

    The levels come from `traj`, or without one from a single `forward_levels`
    pass that costs each level as it is made and holds one level at a time.
    That pass raises as `cost(traj=simulate(...))` does: a control outside
    its box (when `validate`), then any non-finite state, and only when
    every state is finite the first level whose cost is undefined."""
    controls = [u.at(k) for k in u.levels()]
    if traj is None:
        if validate:
            check_feasible(spec, tree, u)
        levels = _finite_levels(spec, tree, controls)
    else:
        levels = iter(traj)
    kT, total, undefined = len(controls), 0.0, None
    for k in range(kT + 1):
        x, mean = next(levels)
        if undefined is None:
            vals = level_cost(spec, tree, controls, k, x, mean)
            if np.isfinite(vals).all():
                total = add_level(total, vals, tree.abs_prob[k])
            else:
                node = int(np.flatnonzero(~np.isfinite(vals))[0])
                kind, at = ("terminal", "") if k == kT else ("running", f"level {k}, ")
                undefined = CostDomainError(f"{kind} cost undefined at {at}node {node}",
                                            level=k, node=node)
            del vals
        del x, mean  # not kept while the next level is made
    if undefined is not None:
        raise undefined
    return float(total)


def mean_recursion_residual(spec, tree, u, traj) -> float:
    """Largest gap between tree-level means and the deterministic mean recursion."""
    grid = tree.grid
    mean = spec.x0.copy()
    worst = float(np.max(np.abs(traj.means[0] - mean)))
    for k in range(grid.n_steps + 1):
        drift_mean = expect(tree, spec.coeffs.f(k, *traj.rows(k), u.at(k)), k)
        mean = mean + grid.h * drift_mean
        worst = max(worst, float(np.max(np.abs(traj.means[k + 1] - mean))))
    return worst
