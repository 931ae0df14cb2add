"""Projected-gradient solver over nodal controls, plus an exhaustive grid oracle.

The iteration is u <- project(u - alpha * g) with g the adjoint-based gradient
(-H_u node by node) and alpha found by Armijo backtracking on the exact cost.
Boxes make the projection exact and cheap, and the predicted-decrease inner
product carries the node probabilities (the Euclidean gradient of the stacked
cost), so steps that pass the Armijo test decrease J monotonically.

Each backtracking search starts from the spectral step of Barzilai & Borwein
(IMA J. Numer. Anal. 8(1), 1988), alpha = <s, s>_P / <s, y>_P, where s is the
last accepted step u_k - u_{k-1}, y = g_k - g_{k-1} and <., .>_P the same
probability-weighted pairing; this is the trial step of SPG (Birgin, Martinez
& Raydan, SIAM J. Optim. 10(4), 2000) with a monotone Armijo test.  It is
clamped to [STEP_MIN, STEP_MAX]; the first iteration, and any iteration where
<s, y>_P <= 0 or the ratio is not finite, starts from `step_init` instead.

No test reads J's last digits.  A trial within UNRESOLVED_ULPS ulps of J is judged
by the slope half of Hager & Zhang's approximate Wolfe test (SIAM J. Optim. 16(1),
2005): <g(trial), s>_P <= (1 - 2 WOLFE_DELTA) pred with pred = -<g, s>_P, and
g(trial) is the next gradient.  `gradient-stall` ends STALL_ITERS iterations with
neither a new least projected gradient nor an Armijo step.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CostDomainError, MfsmpError, SimulationError
from .forward import StateTrajectory, _finish, chunk_rows, cost, level_table, simulate
from .instances import random_control
from .smp import adjoint_gradient
from .tree import AdaptedProcess, expect

STEP_MIN = 1e-10  # clamp of the spectral trial step
STEP_MAX = 1e10
ARMIJO_C = 1e-4  # sufficient-decrease constant of the Armijo test
SHRINK = 0.5  # backtracking factor
UNRESOLVED_ULPS = 64  # |J_trial - J| within this many ulps of J: judged by slope
WOLFE_DELTA = 0.1  # delta of the approximate Wolfe (slope) test
STALL_ITERS = 10  # iterations without progress before `gradient-stall`


@dataclass
class OptimizerOptions:
    max_iters: int = 500
    step_init: float = 1.0  # first and fallback trial step
    grad_tol: float = 1e-8
    seed: int | None = None  # start from random_control(spec, tree, seed), else zero


@dataclass(eq=False)
class OptimizeResult:
    u: AdaptedProcess
    cost: float
    iterations: int
    # rows [J, projected-gradient norm, accepted step, backtracks]; row 0 has step 0.0
    history: list = field(default_factory=list)
    reason: str = ""
    # `simulate(spec, tree, u)`, which `adjoint_gradient` takes as its `traj`
    traj: StateTrajectory | None = field(default=None, repr=False)


def _project_control(spec, u: AdaptedProcess) -> AdaptedProcess:
    return AdaptedProcess(u.tree, 0, [spec.admissible.project(k, u.at(k)) for k in u.levels()])


def _inner(tree, a, b) -> float:
    """<a, b>_P = sum_k E[a_k . b_k] over per-level arrays a[k], b[k]: the
    probability-weighted pairing in which g is the gradient of J."""
    return sum(float(expect(tree, np.einsum("ma,ma->m", a[k], b[k]), k))
               for k in range(len(a)))


def _spectral_step(tree, s, y, fallback) -> float:
    """BB1 step <s, s>_P / <s, y>_P, clamped to [STEP_MIN, STEP_MAX]; `fallback`
    where the curvature <s, y>_P is not positive or the ratio not finite."""
    sy = _inner(tree, s, y)
    alpha = _inner(tree, s, s) / sy if sy > 0.0 else np.inf
    return min(max(alpha, STEP_MIN), STEP_MAX) if np.isfinite(alpha) else fallback


def _pg_norm(spec, u, g) -> float:
    """Sup norm of the unit-step projected gradient displacement."""
    return max(float(np.abs(spec.admissible.project(k, u.at(k) - g[k]) - u.at(k)).max(initial=0.0))
               for k in u.levels())


def _safe_cost(spec, tree, u):
    """J and the trajectory of u, or (inf, None) where its state or cost is
    undefined; the trajectory goes on to `adjoint_gradient` if u is accepted.
    Every u is a fresh projection into the boxes: `simulate` skips their check."""
    try:
        traj = simulate(spec, tree, u, validate=False)
        return cost(spec, tree, u, traj=traj), traj
    except (CostDomainError, SimulationError):
        return np.inf, None


def optimize(spec, tree, u0: AdaptedProcess | None = None,
             options: OptimizerOptions | None = None) -> OptimizeResult:
    options = options or OptimizerOptions()
    if u0 is None:
        u0 = (AdaptedProcess.zeros(tree, 0, tree.grid.n_steps, (spec.r,)) if options.seed is None
              else random_control(spec, tree, options.seed))
    u = _project_control(spec, u0)
    j_val, traj = _safe_cost(spec, tree, u)
    if not np.isfinite(j_val):
        raise CostDomainError("cost undefined at the (projected) initial control")
    history = []
    iterations, alpha, backtracks = 0, 0.0, 0
    best_pg, quiet = np.inf, 0  # quiet: iterations without progress
    step = g_prev = g = None
    while True:
        if g is None:
            g = adjoint_gradient(spec, tree, u, traj=traj)
            g = [g.at(k) for k in u.levels()]
        pg = _pg_norm(spec, u, g)
        history.append([j_val, pg, alpha, backtracks])
        if pg < best_pg:
            best_pg, quiet = pg, 0
        if pg <= options.grad_tol:
            reason = "gradient-tolerance"
            break
        if quiet >= STALL_ITERS:
            reason = "gradient-stall"
            break
        if iterations >= options.max_iters:
            reason = "max-iters"
            break
        alpha = options.step_init if step is None else _spectral_step(
            tree, step, [a - b for a, b in zip(g, g_prev)], options.step_init)
        backtracks = 0
        while alpha > 1e-16:
            trial = AdaptedProcess(tree, 0, [spec.admissible.project(k, u.at(k) - alpha * g[k])
                                             for k in u.levels()])
            step = [trial.at(k) - u.at(k) for k in u.levels()]
            predicted = -_inner(tree, g, step)
            j_trial, traj_trial = _safe_cost(spec, tree, trial)
            g_trial = None
            if abs(j_trial - j_val) <= UNRESOLVED_ULPS * np.spacing(abs(j_val)):
                g_trial = adjoint_gradient(spec, tree, trial, traj=traj_trial)
                g_trial = [g_trial.at(k) for k in u.levels()]
                if _inner(tree, g_trial, step) <= (1.0 - 2.0 * WOLFE_DELTA) * predicted:
                    break
            elif j_trial <= j_val - ARMIJO_C * predicted:
                break
            alpha *= SHRINK
            backtracks += 1
        else:
            reason = "line-search-failure"
            break
        iterations += 1
        u, j_val, traj, g_prev, g = trial, j_trial, traj_trial, g, g_trial
        quiet = 0 if g is None else quiet + 1  # g is None after an Armijo step
    return OptimizeResult(u=u, cost=j_val, iterations=iterations,
                          history=history, reason=reason, traj=traj)


def brute_force(spec, tree, grid_per_axis: int, comb_cap: int = 10 ** 7):
    """Exhaustively grid every nodal control coordinate over its box and return
    the best candidate with its exact cost; a tie goes to the lowest candidate
    index.  Refuses unbounded boxes and combinatorial sizes beyond `comb_cap`.

    The costs are `forward.batch_cost`'s, bit for bit, but the forward
    recursion runs once per table row (`forward.level_table`), a pair (prefix,
    level-N grid point) with that point at every level-N node: a candidate's
    level-N entries depend only on its prefix, its controls before level N,
    and each node's own control.  A table holds whole prefixes, about a
    quarter chunk of rows (at N = 0, where each candidate is its own row, a
    chunk), so the memory is the cost array plus about one chunk."""
    if grid_per_axis < 1:
        raise MfsmpError("grid_per_axis must be >= 1")
    costs, controls_of = _grid_costs(spec, tree, grid_per_axis, comb_cap)
    best = int(np.argmin(costs))  # the first minimum
    if not np.isfinite(costs[best]):
        raise MfsmpError("brute force found no admissible candidate with finite cost")
    u = AdaptedProcess(tree, 0, [c[0] for c in controls_of(np.array([best]))])
    return u, float(costs[best])


def _grid_costs(spec, tree, grid_per_axis, comb_cap):
    """The cost of every `brute_force` candidate, in index order, and a
    function giving the per-step controls (B, m_k, r) of candidate indices.
    A candidate index is a mixed-radix number over the nodes, level by level,
    whose digit at a node is the index of its grid point, last coordinate
    fastest.  So candidates come in runs of P, a level-N node's grid points,
    in which only the last level-N node moves, over its prefix's P table rows.
    A chunk of `forward.chunk_rows` candidates is whole runs, or part of one
    longer run, so index arithmetic and gathers run per run, not per candidate."""
    n_steps = tree.grid.n_steps
    axes = []  # axes[k][i]: grid of coordinate i at step k
    for k in range(n_steps + 1):
        lo, hi = spec.admissible.lo[k], spec.admissible.hi[k]
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise MfsmpError("brute force needs bounded admissible boxes")
        axes.append([np.unique(np.linspace(lo[i], hi[i], grid_per_axis))
                     for i in range(spec.r)])
    # counts in Python ints, which do not wrap
    points = [math.prod(a.size for a in ax) for ax in axes]  # grid points of one node
    level = [p ** tree.size(k) for k, p in enumerate(points)]  # of all level-k nodes
    total = math.prod(level)
    if total > comb_cap:
        shown = total if total < 10 ** 18 else f"about 10^{math.log10(total):.0f}"
        raise MfsmpError(f"brute-force grid of {shown} candidates exceeds the cap {comb_cap}")
    strides, after = [], total
    for k, ax in enumerate(axes):
        after //= level[k]
        nodes = after * points[k] ** np.arange(tree.size(k) - 1, -1, -1, dtype=np.int64)
        strides.append([nodes * math.prod(a.size for a in ax[i + 1:]) for i in range(spec.r)])

    # table row (prefix, p): the candidate with grid point p at every level-N node
    tail, big_p, m_last = level[-1], points[-1], tree.size(n_steps)
    n_prefixes, per_prefix = total // tail, tail // big_p  # prefixes, and runs of one
    every_node = sum(big_p ** j for j in range(m_last))  # p at every node: p * every_node
    chunk = chunk_rows(spec, tree)
    # a chunk is `per` whole runs or `width` points of one; a table is `span`
    # prefixes, about a quarter chunk of rows, or at N = 0 a chunk's rows
    per, width = max(1, chunk // big_p), min(big_p, chunk)
    held = big_p if m_last > 1 else width  # points of a prefix in a table
    span = max(1, chunk // 4 // held)
    lead_strides = big_p ** np.arange(m_last - 2, -1, -1, dtype=np.int64)[:, None]
    leading = np.arange(m_last - 1)[:, None]  # the level-N nodes but the last
    costs = np.empty(total)
    by_run = costs.reshape(-1, big_p)
    for p0, q0 in itertools.product(range(0, n_prefixes, span), range(0, big_p, held)):
        p1, q1 = min(p0 + span, n_prefixes), min(q0 + held, big_p)
        rows = np.arange(p0, p1)[:, None] * tail + np.arange(q0, q1) * every_node
        table = level_table(spec, tree, _grid_controls(rows.ravel(), axes, strides))
        run, kids = (a.reshape((p1 - p0, q1 - q0) + a.shape[1:]) for a in (table.run, table.kids))
        for r0 in range(p0 * per_prefix, p1 * per_prefix, per):
            r1 = min(r0 + per, p1 * per_prefix)
            # the only index arithmetic: each run's prefix and leading nodes' points
            at, lead = np.divmod(np.arange(r0, r1) - p0 * per_prefix, per_prefix)
            lead = lead // lead_strides % big_p
            lead_run, lead_kids = (a[at, lead, leading].swapaxes(0, 1)[:, None] for a in (run, kids))
            for c0 in range(q0, q1, width):
                c1 = min(c0 + width, q1)
                # the last node's entries in place, the leading nodes' broadcast
                cand = [a[:, c0 - q0:c1 - q0].take(at, axis=0) for a in (run, kids)]
                cand[0][:, :, :-1], cand[1][:, :, :-1] = lead_run, lead_kids
                by_run[r0:r1, c0:c1] = _finish(
                    spec, tree, table.pre[::q1 - q0][at].repeat(c1 - c0),
                    *(a.reshape((-1,) + a.shape[2:]) for a in cand)).reshape(r1 - r0, c1 - c0)
    return costs, lambda idx: _grid_controls(idx, axes, strides)


def _grid_controls(idx, axes, strides):
    """Per-step controls (B, m_k, r) of the grid indices `idx` (B,):
    coordinate i at the level-k nodes is the grid point of digit
    (idx // strides[k][i]) % axes[k][i].size."""
    return [np.stack([a[idx[:, None] // s % a.size] for a, s in zip(ax, st)], axis=-1)
            for ax, st in zip(axes, strides)]

