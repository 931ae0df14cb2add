"""Exact forward simulation of the controlled mean-field system and its cost.

Levels are processed breadth-first: the level mean enters every node's step,
so it must be available before any child state is computed.  On a finite tree
the simulated level means coincide (to roundoff) with the deterministic mean
recursion, because the diffusion terms have exactly zero conditional mean.

`batch_cost` is the one batched cost: the finite differences and the
gradient certificate's rows run through it as batch rows of one forward
recursion, in chunks of `chunk_rows` rows, whose widest level array holds at
most `CHUNK_BYTES` bytes.  The grid oracle runs the same recursion once per
pair (prefix, level-N grid point) and finishes each candidate from those rows
with the same level sums (`add_level`, `add_terminal`), so its costs are
`batch_cost`'s to the bit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CostDomainError, MfsmpError, SimulationError
from .tree import AdaptedProcess, ScenarioTree, expect

# bytes in the widest level array of a batch chunk (256 KB): bounds the memory
# a batch adds, whatever the tree, the row count and the dtype
CHUNK_BYTES = 1 << 18


@dataclass(eq=False)
class StateTrajectory:
    """Adapted state process over levels 0..N+1 plus its per-level mean."""

    states: AdaptedProcess
    means: np.ndarray  # (N+2, n)

    def at(self, level):
        return self.states.at(level)


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
    """State and level mean as evaluator rows: batch axes fold into the node
    axis, and each batch row's mean is repeated over its nodes."""
    if x.ndim == 2:
        return x, np.broadcast_to(mean, x.shape)
    n = x.shape[-1]
    # matrix products may round a broadcast and a contiguous layout
    # differently, so a batch is contiguous at every level, the root included
    return (np.ascontiguousarray(x).reshape(-1, n),
            np.repeat(mean.reshape(-1, n), x.shape[-2], axis=0))


def forward_levels(spec, tree: ScenarioTree, controls):
    """The exact state recursion for per-step controls `controls[k]` of shape
    (..., m_k, r), k = 0..N, whose leading axes are a batch.  Yields the state
    (..., m_k, n) and level mean (..., n) of each level k = 0..N+1 in turn, so
    a consumer holds one level at a time; overflow is carried on as inf/NaN.
    The states take the controls' dtype: complex controls (a complex step)
    give complex states, with complex-safe coefficients."""
    n, d, h, c = spec.n, spec.d, tree.grid.h, spec.coeffs
    x = np.broadcast_to(spec.x0, controls[0].shape[:-2] + (1, n))
    for k, uk in enumerate(controls):
        mean = level_mean(tree, k, x)
        yield x, mean
        xf, yf = _rows(x, mean)
        uf = uk.reshape(-1, spec.r)
        with np.errstate(over="ignore", invalid="ignore"):
            drift = c.f(k, xf, yf, uf).reshape(x.shape)
            diff = c.sigma(k, xf, yf, uf).reshape(x.shape[:-1] + (d, n))
            x = tree.children(k, x + h * drift, diff)
    yield x, level_mean(tree, len(controls), x)


def level_mean(tree, k, x) -> np.ndarray:
    """The level-k mean (..., n) of states x (..., m_k, n)."""
    return np.einsum("...mn,m->...n", x, tree.abs_prob[k])


def level_cost(spec, tree, controls, k, x, mean) -> np.ndarray:
    """Level-k cost values (..., m_k) of a state and mean from `forward_levels`:
    l(k, x, Ex, u) for k <= N, the terminal phi(x, Ex) at k = N+1, which
    reads no controls."""
    xf, yf = _rows(x, mean)
    with np.errstate(over="ignore", invalid="ignore"):  # callers flag non-finite values
        if k <= tree.grid.n_steps:
            vals = spec.coeffs.l(k, xf, yf, controls[k].reshape(-1, spec.r))
        else:
            vals = spec.coeffs.phi(xf, yf)
    return vals.reshape(x.shape[:-1])


def chunk_rows(spec, tree, dtype=float) -> int:
    """Batch rows per chunk: the widest level array of a chunk, the leaf
    level's diffusions or controls, holds at most about `CHUNK_BYTES` bytes."""
    widest = (tree.size(tree.grid.n_steps + 1) * max(spec.d * spec.n, spec.r)
              * np.dtype(dtype).itemsize)
    return max(1, CHUNK_BYTES // widest)


def batch_cost(spec, tree, n_rows, controls_of, dtype=float) -> np.ndarray:
    """Cost J of `n_rows` batch rows, whose per-step controls (B, m_k, r),
    k = 0..N, `controls_of` builds for an array of B row indices.  The rows
    run in chunks of `chunk_rows` rows.  Each row is summed level by level
    with `add_level`; a row whose state or cost is not finite, where `cost`
    raises or returns a non-finite J, is +inf."""
    chunk = chunk_rows(spec, tree, dtype)
    costs = np.empty(n_rows, dtype)
    for start in range(0, n_rows, chunk):
        stop = min(start + chunk, n_rows)
        costs[start:stop] = _chunk_cost(spec, tree, controls_of(np.arange(start, stop)))
    return costs


def _chunk_cost(spec, tree, controls) -> np.ndarray:
    """`batch_cost` of one chunk, given its per-step controls (B, m_k, r)."""
    costs = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        levels = forward_levels(spec, tree, controls)
        for k, (x, mean) in zip(range(len(controls)), levels):
            costs = add_level(costs, level_cost(spec, tree, controls, k, x, mean),
                              tree.abs_prob[k])
        return add_terminal(spec, tree, costs, *next(levels))


def add_level(costs, vals, prob):
    """Running batch costs (...) plus the expectation of level values
    (..., m) under the node probabilities `prob` (m,): the einsum `cost`
    uses, pairwise for complex values.  Callers suppress the overflow
    warnings of non-finite values."""
    if np.iscomplexobj(vals):
        # a complex step puts a few large imaginary terms among many equal
        # tiny ones; a running sum rounds each tiny one the same way,
        # drifting by up to nodes * eps, a pairwise sum does not
        return costs + np.sum(vals * prob, axis=-1)
    return costs + np.einsum("...m,m->...", vals, prob)


def add_terminal(spec, tree, costs, x, mean) -> np.ndarray:
    """Batch costs (...) of levels 0..N plus E phi of the leaf states x
    (..., m_{N+1}, n) and their mean (..., n); +inf where not finite."""
    k = tree.grid.n_steps + 1
    costs = add_level(costs, level_cost(spec, tree, None, k, x, mean), tree.abs_prob[k])
    finite = np.isfinite(costs)
    # a non-finite state passes on to every descendant and, as path
    # probabilities are positive, into the mean of the leaves; the per-row
    # test runs only when some row needs it, as a short-axis reduction is slow
    if not np.isfinite(mean).all():
        finite &= np.isfinite(mean).all(axis=-1)
    return np.where(finite, costs, np.inf)


def simulate(spec, tree: ScenarioTree, u: AdaptedProcess, validate: bool = True) -> StateTrajectory:
    """Run the state recursion node by node; exact on the tree."""
    if validate:
        check_feasible(spec, tree, u)
    states, means = [], []
    for k, (x, mean) in enumerate(forward_levels(spec, tree, [u.at(k) for k in u.levels()])):
        if k > 0 and not np.isfinite(x).all():
            raise SimulationError(f"non-finite state at level {k}", level=k)
        states.append(x)
        means.append(mean)
    return StateTrajectory(AdaptedProcess(tree, 0, states), np.array(means))


def cost(spec, tree, u: AdaptedProcess, traj: StateTrajectory | None = None,
         validate: bool = True) -> float:
    """Expected cost J (minimization sign; maximize problems were negated at build)."""
    if traj is None:
        traj = simulate(spec, tree, u, validate=validate)
    controls = [u.at(k) for k in u.levels()]
    kT = len(controls)
    total = 0.0
    for k in range(kT + 1):
        vals = level_cost(spec, tree, controls, k, traj.at(k), traj.means[k])
        if not np.isfinite(vals).all():
            node = int(np.flatnonzero(~np.isfinite(vals))[0])
            kind, at = ("terminal", "") if k == kT else ("running", f"level {k}, ")
            raise CostDomainError(f"{kind} cost undefined at {at}node {node}", level=k, node=node)
        # `add_level` sums batch rows with this same einsum
        total += float(np.einsum("...m,m->...", vals, tree.abs_prob[k]))
    return total


def mean_recursion_residual(spec, tree, u, traj) -> float:
    """Largest gap between tree-level means and the deterministic mean recursion."""
    grid = tree.grid
    mean = spec.x0.copy()
    worst = float(np.max(np.abs(traj.means[0] - mean)))
    for k in range(grid.n_steps + 1):
        x = traj.at(k)
        y = np.broadcast_to(traj.means[k], x.shape)
        drift_mean = expect(tree, spec.coeffs.f(k, x, y, u.at(k)), k)
        mean = mean + grid.h * drift_mean
        worst = max(worst, float(np.max(np.abs(traj.means[k + 1] - mean))))
    return worst
