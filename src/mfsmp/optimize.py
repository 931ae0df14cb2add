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

from dataclasses import dataclass, field

import numpy as np

from .errors import CostDomainError, MfsmpError, SimulationError
from .forward import batch_cost, cost, simulate
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
    seed: int | None = None


@dataclass(eq=False)
class OptimizeResult:
    u: AdaptedProcess
    cost: float
    iterations: int
    # rows [J, projected-gradient norm, accepted step, backtracks]; row 0 has step 0.0
    history: list = field(default_factory=list)
    reason: str = ""


def _project_control(spec, u: AdaptedProcess) -> AdaptedProcess:
    return AdaptedProcess(u.tree, 0, [spec.admissible.project(k, u.at(k)) for k in u.levels()])


def _initial_control(spec, tree, options) -> AdaptedProcess:
    u = AdaptedProcess.zeros(tree, 0, tree.grid.n_steps, (spec.r,))
    if options.seed is not None:
        rng = np.random.default_rng(options.seed)
        for k in u.levels():
            lo = np.where(np.isfinite(spec.admissible.lo[k]), spec.admissible.lo[k], -1.0)
            hi = np.where(np.isfinite(spec.admissible.hi[k]), spec.admissible.hi[k], 1.0)
            u.set_level(k, rng.uniform(lo, hi, (tree.size(k), spec.r)))
    return _project_control(spec, u)


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
    return max(float(np.max(np.abs(spec.admissible.project(k, u.at(k) - g[k]) - u.at(k)),
                            initial=0.0))
               for k in u.levels())


def _safe_cost(spec, tree, u):
    """J and the trajectory of u, or (inf, None) where its state or cost is
    undefined; the trajectory goes on to `adjoint_gradient` if u is accepted."""
    try:
        traj = simulate(spec, tree, u)
        return cost(spec, tree, u, traj=traj), traj
    except (CostDomainError, SimulationError):
        return np.inf, None


def optimize(spec, tree, u0: AdaptedProcess | None = None,
             options: OptimizerOptions | None = None) -> OptimizeResult:
    options = options or OptimizerOptions()
    u = _project_control(spec, u0) if u0 is not None else _initial_control(spec, tree, options)
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
                          history=history, reason=reason)


def brute_force(spec, tree, grid_per_axis: int, comb_cap: int = 10 ** 7):
    """Exhaustively grid every nodal control coordinate over its box and return
    the best candidate with its exact cost; a tie goes to the lowest candidate
    index.  Refuses unbounded boxes and combinatorial sizes beyond `comb_cap`."""
    if grid_per_axis < 1:
        raise MfsmpError("grid_per_axis must be >= 1")
    n_steps = tree.grid.n_steps
    axes = []       # (step, node, coord) -> grid values
    layout = []
    for k in range(n_steps + 1):
        lo, hi = spec.admissible.lo[k], spec.admissible.hi[k]
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise MfsmpError("brute force needs bounded admissible boxes")
        for node in range(tree.size(k)):
            for i in range(spec.r):
                vals = np.unique(np.linspace(lo[i], hi[i], grid_per_axis))
                axes.append(vals)
                layout.append((k, node, i))
    sizes = np.array([a.size for a in axes], dtype=np.int64)
    total = int(np.prod(sizes, dtype=np.int64))
    if total > comb_cap:
        raise MfsmpError(
            f"brute-force grid of {total} candidates exceeds the cap {comb_cap}")
    strides = np.ones(len(axes), dtype=np.int64)
    for j in range(len(axes) - 2, -1, -1):
        strides[j] = strides[j + 1] * sizes[j + 1]

    def controls_of(idx):
        digits = (idx[:, None] // strides[None, :]) % sizes[None, :]
        controls = [np.zeros((idx.size, tree.size(k), spec.r)) for k in range(n_steps + 1)]
        for j, (k, node, i) in enumerate(layout):
            controls[k][:, node, i] = axes[j][digits[:, j]]
        return controls

    costs = batch_cost(spec, tree, total, controls_of)
    best = int(np.argmin(costs))  # the first minimum
    if not np.isfinite(costs[best]):
        raise MfsmpError("brute force found no admissible candidate with finite cost")
    u = AdaptedProcess(tree, 0, [c[0] for c in controls_of(np.array([best]))])
    return u, float(costs[best])
