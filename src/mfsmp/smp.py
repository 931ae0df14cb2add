"""Hamiltonian machinery: first-order conditions, spike variations, duality checks
and the gradient certificate.

Everything here uses the internal minimization convention.  The Hamiltonian

    H(k, v) = <E{p_{k+1} | F_k}, h f(k, x, Ex, v)> + sum_j <q_j(k), sigma_j(k, x, Ex, v)>
              - l(k, x, Ex, v)

is maximized by an optimal control along feasible directions:
<H_u(k, u*), v - u*> <= 0 for every admissible v.  Equivalently, flipping the
sign of H turns the condition into an infimum; both statements describe the
same control and the reports note the orientation in use.  The gradient of the
cost functional in the probability-weighted (L2) inner product is -H_u node by
node; against plain coordinate-wise finite differences of J the node
probability shows up as a weight.
"""

from dataclasses import dataclass
from itertools import starmap
import warnings

import numpy as np

from .adjoint import (adjoint_solution, backward_levels, forward_linear_levels, linearize_step,
                      linearize_terminal)
from .errors import MfsmpError
from .forward import batch_cost, cost, simulate
from .report import CheckReport
from .tree import AdaptedProcess, cond_expect, expect

# numpy >= 1.25 keeps its warnings in `numpy.exceptions`
ComplexWarning = getattr(np, "exceptions", np).ComplexWarning

# the gradient certificate: complex step, coordinate sample, full-support
# directions and the Taylor ladder (largest per-node move of each rung)
CS_STEP = 1e-30
CERT_SEED = 0
CERT_DEEPEST = 32
CERT_RANDOM = 16
CERT_DIRECTIONS = 2
TAYLOR_MOVES = np.array([1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
CERT_SAMPLE_TOL = 1e-6
CERT_DIRECTION_TOL = 1e-12
CERT_ORDER_SHORTFALL_TOL = 0.5
FD_STEP = 1e-5
RATE_EPS = (1e-1, 1e-2, 1e-3)
RATE_DROP = 1e-2
RATE_FLOOR = 1e-20
SUFFICIENCY_CONVEXITY_TOL = 1e-10
SUFFICIENCY_SIGN_TOL = 1e-12


@dataclass(eq=False)
class SpikeVariation:
    """Perturbation of a control at a single step: u + scale * delta there."""

    step: int
    delta: np.ndarray  # (m_step, r), measurable at the spike level by construction
    scale: float

    def __post_init__(self):
        self.delta = np.asarray(self.delta, dtype=float)
        if self.scale < 0:
            raise MfsmpError("spike scale must be nonnegative")


def perturbed_control(u: AdaptedProcess, spike: SpikeVariation) -> AdaptedProcess:
    out = u.copy()
    out.set_level(spike.step, u.at(spike.step) + spike.scale * spike.delta)
    return out


def conditional_costate(tree, adj, k: int) -> np.ndarray:
    """E{p(t+h) | F_t} over level-k nodes."""
    return cond_expect(tree, adj.p.at(k + 1), k + 1)


def _hamiltonian_rows(spec, h, k, x, y, ep, qk, v) -> np.ndarray:
    """H(k, v) per row, each row with its own state, mean, E{p|F} and q."""
    c = spec.coeffs
    drift_term = h * np.einsum("mi,mi->m", ep, c.f(k, x, y, v))
    diff_term = np.einsum("mji,mji->m", qk, c.sigma(k, x, y, v))
    return drift_term + diff_term - c.l(k, x, y, v)


def hamiltonian(spec, tree, traj, adj, k: int, v) -> np.ndarray:
    """H(k, v) per level-k node; v is (r,) or (m_k, r)."""
    x, y = traj.rows(k)
    v = np.broadcast_to(np.asarray(v, dtype=float), (x.shape[0], spec.r))
    return _hamiltonian_rows(spec, tree.grid.h, k, x, y,
                             conditional_costate(tree, adj, k), adj.q.at(k), v)


def _hamiltonian_gradient_parts(spec, tree, traj, u, k, ep, qk):
    """(h f_u^T E{p|F} + sum_j sigma_u^T q_j, l_u) per level-k node, given
    E{p_{k+1} | F_k} and q_k."""
    x, y = traj.rows(k)
    uk = u.at(k)
    c = spec.coeffs
    state_part = (tree.grid.h * np.einsum("mia,mi->ma", c.f_u(k, x, y, uk), ep)
                  + np.einsum("mjia,mji->ma", c.sigma_u(k, x, y, uk), qk))
    return state_part, np.asarray(c.l_u(k, x, y, uk))


def hamiltonian_gradient(spec, tree, traj, adj, u, k: int) -> np.ndarray:
    """H_u(k, u(k)) per level-k node: h f_u^T E{p|F} + sum_j sigma_u^T q_j - l_u."""
    state_part, lu = _hamiltonian_gradient_parts(spec, tree, traj, u, k,
                                                 conditional_costate(tree, adj, k), adj.q.at(k))
    return state_part - lu


def necessary_check(spec, u, g, tol: float = 1e-6) -> CheckReport:
    """First-order condition over the admissible boxes, read from the cost
    gradient g = -H_u that `adjoint_gradient` returns.

    For finite box sides the directional maximum of <H_u, v - u> is attained
    coordinate-wise at a bound (exact for boxes); infinite sides reduce to a
    sign test on the matching H_u component, whose positive part is reported
    directly as the residual contribution.
    """
    report = CheckReport("necessary-condition")
    report.note("orientation: candidate maximizes H along feasible directions "
                "(equivalently minimizes the sign-flipped Hamiltonian)")
    for k in u.levels():
        hu = -g.at(k)
        uk = u.at(k)
        lo, hi = spec.admissible.lo[k], spec.admissible.hi[k]
        pos, neg = np.maximum(hu, 0.0), np.maximum(-hu, 0.0)
        up_room = np.where(np.isfinite(hi), hi - uk, 0.0)
        down_room = np.where(np.isfinite(lo), uk - lo, 0.0)
        up = np.where(np.isfinite(hi), pos * up_room, pos)
        down = np.where(np.isfinite(lo), neg * down_room, neg)
        per_node = np.sum(np.maximum(up, down), axis=1)
        node = int(np.argmax(per_node))
        report.add(f"max <H_u, v-u> @step {k}", float(per_node[node]), tol,
                   level=k, node=node)
    return report


def _spike_levels(spec, tree, traj, u, spike: SpikeVariation):
    """The spike response xi, zero up to the spike step s, swept forward by
    `forward_linear_levels` from its forcing h f_u bump + sum_j sigma_u bump w^j
    lifted onto level s+1 (the exact derivative of the forward map), with
    coefficients `linearize_step` makes a step at a time: yields
    (k, xi_k, step_k), k = s+1 .. N, then (N+1, xi_{N+1}, None)."""
    c, s = spec.coeffs, spike.step
    x, y = traj.rows(s)
    bump = spike.scale * np.broadcast_to(spike.delta, (tree.size(s), spec.r))
    xi = tree.children(s, tree.grid.h * np.einsum("mia,ma->mi", c.f_u(s, x, y, u.at(s)), bump),
                       np.einsum("mjia,ma->mji", c.sigma_u(s, x, y, u.at(s)), bump))
    return forward_linear_levels(tree, xi, s + 1, lambda k: linearize_step(spec, tree, traj, u, k))


def variational_state(spec, tree, traj, u, spike: SpikeVariation) -> AdaptedProcess:
    """First-order state response to the spike (zero initial value)."""
    levels = [np.zeros((tree.size(k), spec.n)) for k in range(spike.step + 1)]
    levels += [xi for _, xi, _ in _spike_levels(spec, tree, traj, u, spike)]
    return AdaptedProcess(tree, 0, levels)


def duality_residual(spec, tree, traj, adj, u, spike: SpikeVariation) -> float:
    """Gap in the summation-by-parts identity pairing the costate with the
    spike response:

        E<p(T), xi(T)> = sum_t E<l_x + E l_y, xi(t)>
                         + scale * E<h f_u^T E{p|F} + sum_j sigma_u^T q_j, delta>

    This is an exact algebraic identity on the tree, so the residual is
    roundoff-sized whenever (p, q) solve the adjoint system of the same
    linearization convention.  It holds one level of xi at a time.
    """
    kT = tree.grid.n_steps + 1
    run_term = 0
    for k, xi, step in _spike_levels(spec, tree, traj, u, spike):
        if step is not None:
            run_term += float(expect(tree, np.einsum("mi,mi->m", step.running, xi), k))
    lhs = float(expect(tree, np.einsum("mi,mi->m", adj.p.at(kT), xi), kT))
    state_part, _ = _hamiltonian_gradient_parts(spec, tree, traj, u, spike.step,
                                                conditional_costate(tree, adj, spike.step),
                                                adj.q.at(spike.step))
    spike_term = spike.scale * float(expect(
        tree, np.einsum("ma,ma->m", state_part, spike.delta), spike.step))
    return abs(lhs - run_term - spike_term)


def spike_cost_increment(spec, tree, u, spike: SpikeVariation):
    """(predicted, actual) first-order cost increment for the spiked control.

    predicted = -scale * E<H_u(step, u(step)), delta>; actual is the exact cost
    difference.  Their gap is o(scale), and second order for quadratic costs.
    """
    traj = simulate(spec, tree, u)
    g = adjoint_gradient(spec, tree, u, traj=traj)  # -H_u
    predicted = spike.scale * float(expect(
        tree, np.einsum("ma,ma->m", g.at(spike.step), spike.delta), spike.step))
    base = cost(spec, tree, u, traj=traj)
    actual = cost(spec, tree, perturbed_control(u, spike)) - base
    return predicted, actual


def rate_ratios(spec, tree, u, spike: SpikeVariation, eps_values=RATE_EPS):
    """Scaled squared deviations of the spiked trajectory.

    ratio1(eps) = max_k E|x_eps - x|^2 / eps^2        (stays bounded)
    ratio2(eps) = max_k E|x_eps - x - xi_eps|^2 / eps^2  (vanishes like eps^2
    for smooth coefficients; zero to roundoff when the dynamics are linear)
    """
    traj = simulate(spec, tree, u)
    unit = SpikeVariation(spike.step, spike.delta, 1.0)
    xi_unit = variational_state(spec, tree, traj, u, unit)
    ratio1, ratio2 = [], []
    for eps in eps_values:
        u_eps = perturbed_control(u, SpikeVariation(spike.step, spike.delta, eps))
        traj_eps = simulate(spec, tree, u_eps)
        worst1 = worst2 = 0.0
        for k in range(tree.grid.n_steps + 2):
            diff = traj_eps.at(k) - traj.at(k)
            dev = diff - eps * xi_unit.at(k)
            worst1 = max(worst1, float(expect(tree, np.sum(diff ** 2, axis=-1), k)))
            worst2 = max(worst2, float(expect(tree, np.sum(dev ** 2, axis=-1), k)))
        ratio1.append(worst1 / eps ** 2)
        ratio2.append(worst2 / eps ** 2)
    return {"eps": list(eps_values), "ratio1": ratio1, "ratio2": ratio2}


def rate_check(spec, tree, u, spike: SpikeVariation) -> CheckReport:
    """Pass iff ratio1 stays bounded across the `RATE_EPS` ladder and ratio2
    collapses by `RATE_DROP` from the largest to the smallest scale (the
    absolute floor `RATE_FLOOR` absorbs the all-roundoff linear case)."""
    rates = rate_ratios(spec, tree, u, spike)
    report = CheckReport("expansion-rates")
    for eps, r1, r2 in zip(rates["eps"], rates["ratio1"], rates["ratio2"]):
        report.add(f"ratio1 @eps={eps:g}", r1, np.inf)
        report.add(f"ratio2 @eps={eps:g}", r2, np.inf)
    r1_first, r1_last = rates["ratio1"][0], rates["ratio1"][-1]
    report.add("ratio1 bounded (last <= 2*first + 1e-30)",
               r1_last, 2.0 * r1_first + 1e-30)
    report.add("ratio2 collapse (last <= drop*first, floored)",
               rates["ratio2"][-1], max(RATE_DROP * rates["ratio2"][0], RATE_FLOOR))
    return report


def _max_skipping_nan(values) -> float:
    """Largest value that is not NaN, or -inf: a running `max` from -inf."""
    return float(np.max(values[~np.isnan(values)], initial=-np.inf))


def sufficiency_check(spec, tree, traj, adj, u, samples: int = 200, seed: int = 0,
                      tol_hamiltonian: float = 1e-6) -> CheckReport:
    """Sampled sufficiency evidence (not a proof): terminal-cost midpoint
    convexity, Hamiltonian midpoint concavity in (x, mean, v) with the frozen
    costates, nonnegative mean-gradients along the trajectory, and Hamiltonian
    optimality over box vertices (unbounded sides probed at a few spans).
    Parts (i) and (ii) draw their `samples` points as arrays, one rng call per
    quantity; part (ii)'s controls are `AdmissibleSet.sample` points around
    the checked control."""
    rng = np.random.default_rng(seed)
    report = CheckReport("sufficient-conditions")
    report.note("orientation: maximize-H convention; concavity of H here equals "
                "convexity of the sign-flipped Hamiltonian in the infimum statement")
    c = spec.coeffs
    grid = tree.grid
    kT = grid.n_steps + 1

    # (i) terminal cost midpoint convexity in (x, y)
    xT = traj.at(kT)
    scale = 1.0 + np.abs(xT).max()
    nodes = rng.integers(xT.shape[0], size=samples)
    x1, x2, y1, y2 = xT[nodes] + rng.uniform(-0.5, 0.5, (4, samples, spec.n)) * scale
    vals = c.phi(np.concatenate([x1, x2, 0.5 * (x1 + x2)]),
                 np.concatenate([y1, y2, 0.5 * (y1 + y2)])).reshape(3, samples)
    report.add("terminal midpoint convexity violation",
               _max_skipping_nan(vals[2] - 0.5 * (vals[0] + vals[1])), SUFFICIENCY_CONVEXITY_TOL)

    # (ii) Hamiltonian midpoint concavity in (x, y, v) with frozen (p, q); the
    # samples are drawn as arrays, then each step's rows go through one evaluator call
    eps = [conditional_costate(tree, adj, k) for k in range(grid.n_steps + 1)]
    steps = rng.integers(grid.n_steps + 1, size=samples)
    nodes = rng.integers(np.array(tree.level_sizes)[steps])
    xn, un = np.empty((samples, spec.n)), np.empty((samples, spec.r))
    for k in np.unique(steps).tolist():
        at = steps == k
        xn[at], un[at] = traj.at(k)[nodes[at]], u.at(k)[nodes[at]]
    span = 1.0 + np.abs(xn).max(axis=1, keepdims=True)
    x1, x2 = xn + rng.uniform(-0.5, 0.5, (2, samples, spec.n)) * span
    y1, y2 = traj.means[steps] + rng.uniform(-0.5, 0.5, (2, samples, spec.n)) * span
    v1, v2 = spec.admissible.sample(rng, steps, np.stack([un, un]))
    xs, ys, vs = (np.stack([a, b, 0.5 * (a + b)], axis=1)
                  for a, b in ((x1, x2), (y1, y2), (v1, v2)))
    gaps = np.full(samples, np.nan)
    for k in np.unique(steps).tolist():
        sel = np.flatnonzero(steps == k)
        at = np.repeat(nodes[sel], 3)
        x, y, v = (a[sel].reshape(3 * sel.size, -1) for a in (xs, ys, vs))
        hvals = (np.einsum("mi,mi->m", grid.h * c.f(k, x, y, v), eps[k][at])
                 + np.einsum("mji,mji->m", c.sigma(k, x, y, v), adj.q.at(k)[at])
                 - c.l(k, x, y, v)).reshape(-1, 3)
        finite = np.isfinite(hvals).all(axis=1)
        gaps[sel[finite]] = 0.5 * (hvals[finite, 0] + hvals[finite, 1]) - hvals[finite, 2]
    report.add("Hamiltonian midpoint concavity violation", _max_skipping_nan(gaps),
               SUFFICIENCY_CONVEXITY_TOL)

    # (iii) nonnegative mean-gradients along the trajectory
    worst = 0.0
    for k in range(grid.n_steps + 1):
        x, y = traj.rows(k)
        uk = u.at(k)
        for arr in (c.f_y(k, x, y, uk), c.sigma_y(k, x, y, uk), c.l_y(k, x, y, uk)):
            worst = max(worst, float(np.max(-np.asarray(arr), initial=0.0)))
    xT_b, yT = traj.rows(kT)
    worst = max(worst, float(np.max(-np.asarray(c.phi_y(xT_b, yT)), initial=0.0)))
    report.add("negative mean-gradient entries", worst, SUFFICIENCY_SIGN_TOL)

    # (iv) Hamiltonian optimality over box vertices / unbounded probes: the
    # candidate and every probe combination of a step in one evaluator call
    worst = -np.inf
    for k in range(grid.n_steps + 1):
        lo, hi = spec.admissible.lo[k], spec.admissible.hi[k]
        uk = u.at(k)
        probes = []
        for i in range(spec.r):
            cands = []
            if np.isfinite(lo[i]):
                cands.append(np.full(uk.shape[0], lo[i]))
            else:
                cands += [uk[:, i] - span * (1.0 + np.abs(uk[:, i])) for span in (1.0, 10.0)]
            if np.isfinite(hi[i]):
                cands.append(np.full(uk.shape[0], hi[i]))
            else:
                cands += [uk[:, i] + span * (1.0 + np.abs(uk[:, i])) for span in (1.0, 10.0)]
            probes.append(cands)
        cands = [uk] + [np.stack([probes[i][combo[i]] for i in range(spec.r)], axis=1)
                        for combo in np.ndindex(*[len(p) for p in probes])]
        x = np.tile(traj.at(k), (len(cands), 1))
        hv = _hamiltonian_rows(spec, grid.h, k, x, np.broadcast_to(traj.means[k], x.shape),
                               np.tile(eps[k], (len(cands), 1)),
                               np.tile(adj.q.at(k), (len(cands), 1, 1)),
                               np.concatenate(cands)).reshape(len(cands), -1)
        gap = hv[1:] - hv[0]
        gap = gap[np.isfinite(gap)]
        if gap.size:
            worst = max(worst, float(np.max(gap)))
    report.add("H(vertex) - H(candidate) max", worst, tol_hamiltonian)
    if report.passed:
        report.note("verdict: sufficient-conditions-hold (sampled evidence, not a proof)")
    return report


def adjoint_gradient(spec, tree, u, return_all: bool = False, traj=None):
    """Cost gradient in the probability-weighted inner product: -H_u node by node.

    Against coordinate-wise finite differences of the cost, each node's value
    picks up that node's path probability as the metric weight.  `traj`, when
    given, is `simulate(spec, tree, u)` already run, and is not run again.
    It is one `backward_levels` sweep over coefficients made a step at a time,
    which keeps no level of p or q unless `return_all` asks for
    (g, traj, adj)."""
    if traj is None:
        traj = simulate(spec, tree, u)
    p_last = linearize_terminal(spec, tree, traj)
    np.negative(p_last, out=p_last)  # a fresh sum: no second leaf array
    levels = backward_levels(tree, p_last, lambda k: linearize_step(spec, tree, traj, u, k))
    kept = []  # (p_k, q_k), k = N .. 0, for return_all

    def level_gradient(k, pk, qk, ep):
        if return_all:
            kept.append((pk, qk))
        state_part, lu = _hamiltonian_gradient_parts(spec, tree, traj, u, k, ep, qk)
        return -(state_part - lu)

    if not return_all:
        del p_last  # the sweep drops p_{N+1} once read
    # starmap lets go of each level's arrays before it asks the sweep for the next
    g = AdaptedProcess(tree, 0, list(starmap(level_gradient, levels))[::-1])
    return (g, traj, adjoint_solution(tree, p_last, kept)) if return_all else g


def fd_cost_gradient(spec, tree, u, step: float = FD_STEP) -> AdaptedProcess:
    """Central finite differences of the cost per nodal control coordinate,
    mapped into the probability-weighted metric (divided by node probability).
    Perturbed evaluations skip feasibility validation, so the base control
    should sit strictly inside its boxes.

    Each level's +-step rows are one `_central_derivatives` call.  A
    coordinate whose difference is not finite is evaluated again by `cost`,
    +step before -step, so the first undefined row in the order level, node,
    coordinate raises what the unbatched evaluation raises.  This costs
    2 r (control nodes above level N) forward passes and a leaf level per
    deepest-level row; `certify_gradient` is the check that scales."""
    g = AdaptedProcess.zeros(tree, 0, tree.grid.n_steps, (spec.r,))
    for k in u.levels():
        m = tree.size(k)
        coords = np.stack([np.full(m * spec.r, k), np.repeat(np.arange(m), spec.r),
                           np.tile(np.arange(spec.r), m)], axis=1)
        partials, _ = _central_derivatives(spec, tree, u, coords, [], step)
        for c in np.flatnonzero(~np.isfinite(partials)):
            node, i = divmod(int(c), spec.r)
            costs = []
            for move in (step, -step):
                moved = u.copy()
                moved.at(k)[node, i] += move
                costs.append(cost(spec, tree, moved, validate=False))
            partials[c] = (costs[0] - costs[1]) / (2.0 * step)
        g.set_level(k, partials.reshape(m, spec.r) / tree.abs_prob[k][:, None])
    return g


def certificate_sample(tree, r: int) -> np.ndarray:
    """Control coordinates (level, node, i), one per row, that the gradient
    certificate differentiates one at a time: every coordinate of the root,
    of `CERT_DEEPEST` seeded nodes of the deepest control level and of
    `CERT_RANDOM` further seeded nodes; every coordinate of the tree when it
    has no more control nodes than that."""
    n_steps = tree.grid.n_steps
    first = np.array([tree.global_id(k, 0) for k in range(n_steps + 2)])
    total = int(first[-1])
    if total <= 1 + CERT_DEEPEST + CERT_RANDOM:
        flat = np.arange(total)
    else:
        rng = np.random.default_rng(CERT_SEED)
        size = tree.size(n_steps)
        deepest = first[n_steps] + rng.choice(size, min(CERT_DEEPEST, size), replace=False)
        rest = np.setdiff1d(np.arange(1, total), deepest)
        flat = np.union1d(np.append(deepest, 0), rng.choice(rest, CERT_RANDOM, replace=False))
    level = np.searchsorted(first, flat, side="right") - 1
    nodes = np.repeat(np.stack([level, flat - first[level]], axis=1), r, axis=0)
    return np.concatenate([nodes, np.tile(np.arange(r), flat.size)[:, None]], axis=1)


def certificate_directions(spec, tree, u):
    """`CERT_DIRECTIONS` seeded sign patterns w = +-1 over every control
    coordinate, as lists of per-level (m_k, r) arrays; the certificate moves
    u along v = w / p_node.  Where the largest Taylor rung would leave the
    box a sign points inward, and it is 0 where neither sign stays inside."""
    rng = np.random.default_rng(CERT_SEED + 1)
    reach = TAYLOR_MOVES[0] * _least_control_prob(tree)
    directions = []
    for _ in range(CERT_DIRECTIONS):
        w = []
        for k in u.levels():
            lo, hi = spec.admissible.lo[k], spec.admissible.hi[k]
            move = reach / tree.abs_prob[k][:, None]

            def inside(sign):
                moved = u.at(k) + sign * move
                return (moved >= lo) & (moved <= hi)

            wk = rng.choice([-1.0, 1.0], size=u.at(k).shape)
            w.append(np.where(inside(wk), wk, np.where(inside(-wk), -wk, 0.0)))
        directions.append(w)
    return directions


def _least_control_prob(tree) -> float:
    return min(float(tree.abs_prob[k].min()) for k in range(tree.grid.n_steps + 1))


def _moved_costs(spec, tree, u, rows, coords, moves, dtype=float) -> np.ndarray:
    """Cost of u + a e for each (a, c, d) in `rows`: e is the unit vector of
    coordinate coords[c] when c >= 0, else the direction moves[d] (per-level
    arrays).  The rows run as batch rows of one forward recursion, but a row
    on one coordinate of the deepest control level N >= 2 is finished from
    the leaves of u (`batch_cost`'s `moved`), added as a last row, run first;
    at N = 1 that would save only the root's step."""
    amount, coord, direction = (np.array(col) for col in zip(*rows, (0.0, -1, -1)))
    stacked = [np.stack([m[k] for m in moves]) for k in u.levels()] if moves else None

    def controls_of(idx):
        a, c, d = amount[idx], coord[idx], direction[idx]
        on_coord, along = np.flatnonzero(c >= 0), np.flatnonzero(d >= 0)
        level, node, i = coords[c[on_coord]].T
        controls = []
        for k in u.levels():
            uk = np.repeat(u.at(k)[None].astype(dtype), idx.size, axis=0)
            at_k = level == k
            uk[on_coord[at_k], node[at_k], i[at_k]] += a[on_coord[at_k]]
            if along.size:
                uk[along] += a[along, None, None] * stacked[k][d[along]]
            controls.append(uk)
        return controls

    n_steps, deepest = tree.grid.n_steps, coord >= 0
    deepest[deepest] = (coords[coord[deepest], 0] == n_steps) & (n_steps > 1)
    full, local, moved = np.flatnonzero(~deepest[:-1]), np.flatnonzero(deepest), None
    if local.size:
        full = np.append(len(rows), full)
        node, i = coords[coord[local], 1:].T
        moved = (node, u.at(n_steps)[node].astype(dtype))
        moved[1][np.arange(local.size), i] += amount[local]
    costs = np.empty(len(rows) + 1, dtype)
    costs[np.append(full, local)] = batch_cost(spec, tree, full.size,
                                               lambda idx: controls_of(full[idx]), dtype, moved)
    return costs[:-1]


def complex_step_derivatives(spec, tree, u, coords, moves):
    """Exact first derivatives of J at u, Im J(u + i tau e) / tau with tau =
    `CS_STEP`, along every coordinate of `coords` (raw partials, not divided
    by the node probability) and every direction of `moves`, as rows of one
    complex forward recursion.  There is no subtraction, so the error is
    roundoff relative to each derivative's own terms, whatever the depth.

    The coefficients must be complex-safe: analytic in complex arguments, no
    `abs`, no value comparisons on the imaginary part, no cast to float.  A
    cast that drops the imaginary part raises `ComplexWarning` here."""
    rows = ([(1j * CS_STEP, c, -1) for c in range(len(coords))]
            + [(1j * CS_STEP, -1, d) for d in range(len(moves))])
    with warnings.catch_warnings():
        warnings.simplefilter("error", ComplexWarning)
        im = _moved_costs(spec, tree, u, rows, coords, moves, complex).imag / CS_STEP
    return im[:len(coords)], im[len(coords):]


def _central_derivatives(spec, tree, u, coords, moves, step):
    """Central differences on the rows of `complex_step_derivatives`: step
    `step` on each coordinate, `step` times the least node probability along
    each direction v = w / p_node (a move of at most `step` per node)."""
    along = step * _least_control_prob(tree)
    rows = ([(s * step, c, -1) for c in range(len(coords)) for s in (1.0, -1.0)]
            + [(s * along, -1, d) for d in range(len(moves)) for s in (1.0, -1.0)])
    costs = _moved_costs(spec, tree, u, rows, coords, moves)
    with np.errstate(invalid="ignore"):
        diff = costs[0::2] - costs[1::2]
    n = len(coords)
    return diff[:n] / (2.0 * step), diff[n:] / (2.0 * along)


def certify_gradient(spec, tree, u, g, traj=None) -> CheckReport:
    """Certify a cost gradient g at u (probability-weighted metric, as
    `adjoint_gradient` returns it) in time linear in the tree, with a fixed
    number of forward passes whatever the depth:

    - complex-step partials on `certificate_sample` agree with g to
      `CERT_SAMPLE_TOL` (relative, as `gradient_consistency` measures);
    - along each of `certificate_directions`, v = w / p_node, the complex-step
      derivative equals <g, v>_P = sum g w to `CERT_DIRECTION_TOL` of
      sum (|l_u - g| + |l_u|) |w|, which sees an error at any single node;
    - the Taylor remainder |J(u + eps v) - J(u) - eps sum g w| shrinks like
      eps^2 down the rungs of `TAYLOR_MOVES` (real batch rows), checked on
      the last two neighbouring rungs whose remainders are finite and above
      the roundoff floor 1e-12 (1 + |J|).

    Coefficients that are not complex-safe (`ComplexWarning` or `TypeError`
    in the complex rows) fall back to central differences on the same rows,
    each checked to `CERT_SAMPLE_TOL`."""
    report = CheckReport("gradient-certificate")
    coords = certificate_sample(tree, spec.r)
    directions = certificate_directions(spec, tree, u)
    moves = [[wk / tree.abs_prob[k][:, None] for k, wk in enumerate(w)] for w in directions]
    try:
        partials, along = complex_step_derivatives(spec, tree, u, coords, moves)
        method, direction_tol = "complex-step", CERT_DIRECTION_TOL
    except (ComplexWarning, TypeError) as exc:
        report.note(f"coefficients are not complex-safe ({type(exc).__name__}): "
                    f"central differences (step {FD_STEP:g}) on the same rows")
        partials, along = _central_derivatives(spec, tree, u, coords, moves, FD_STEP)
        method, direction_tol = "finite-difference", CERT_SAMPLE_TOL
    ref = partials / np.array([tree.abs_prob[k][m] for k, m, _ in coords.tolist()])
    with np.errstate(invalid="ignore"):
        err = (np.abs(np.array([g.at(k)[m, i] for k, m, i in coords.tolist()]) - ref)
               / np.maximum(1.0, np.abs(ref)))
    skipped = ~np.isfinite(ref)
    if method == "finite-difference" and skipped.any():
        # a step off the control leaves the cost's domain
        report.note(f"{int(skipped.sum())} sampled coordinates skipped: cost undefined "
                    f"a finite-difference step away")
        err[skipped] = 0.0
    worst = int(np.argmax(err))  # the first NaN, if any
    report.add(f"{method} gradient on {len(coords)} sampled coordinates, max relative error",
               err[worst], CERT_SAMPLE_TOL, level=int(coords[worst, 0]),
               node=int(coords[worst, 1]))

    if traj is None:
        traj = simulate(spec, tree, u, validate=False)
    # g = l_u - (state part) node by node; the two parts cancel near an
    # optimum, and roundoff scales with their sizes, not with |g|
    size = []
    for k in u.levels():
        lu = np.asarray(spec.coeffs.l_u(k, *traj.rows(k), u.at(k)))
        size.append(np.abs(lu - g.at(k)) + np.abs(lu))
    gw = [sum(float(np.sum(g.at(k) * w[k])) for k in u.levels()) for w in directions]
    scale = [sum(float(np.sum(size[k] * np.abs(w[k]))) for k in u.levels()) for w in directions]
    for d, (exact, inner, sc) in enumerate(zip(along, gw, scale)):
        report.add(f"{method} derivative along direction #{d} vs sum g w, relative to "
                   f"sum (|l_u - g| + |l_u|) |w|",
                   abs(exact - inner) / max(sc, np.finfo(float).tiny), direction_tol)

    eps = TAYLOR_MOVES * _least_control_prob(tree)
    rows = [(0.0, -1, 0)] + [(e, -1, d) for d in range(len(moves)) for e in eps]
    costs = _moved_costs(spec, tree, u, rows, coords, moves)
    floor = 1e-12 * (1.0 + abs(costs[0]))
    for d, inner in enumerate(gw):
        with np.errstate(invalid="ignore"):
            rem = np.abs(costs[1 + d * eps.size:1 + (d + 1) * eps.size] - costs[0] - eps * inner)
        # the order shows on the last two neighbouring rungs above roundoff;
        # with none, the remainder is roundoff, unless a rung left the domain
        usable = np.isfinite(rem) & (rem > floor)
        pairs = np.flatnonzero(usable[:-1] & usable[1:])
        if pairs.size:
            j = pairs[-1]
            order = float(np.log(rem[j] / rem[j + 1]) / np.log(eps[0] / eps[1]))
            shortfall = max(0.0, 2.0 - order)
        else:
            shortfall = 0.0 if np.isfinite(rem).all() else np.inf
        report.add(f"Taylor remainder along direction #{d}: 2 - observed order",
                   shortfall, CERT_ORDER_SHORTFALL_TOL)
    total = int(sum(tree.size(k) for k in u.levels()))
    report.note(f"rows: {len(coords)} sampled coordinates of {total * spec.r} "
                f"(seed {CERT_SEED}), {len(moves)} directions w / p_node with w = +-1, "
                f"Taylor moves {TAYLOR_MOVES[0]:g} .. {TAYLOR_MOVES[-1]:g} per node")
    return report


def gradient_consistency(spec, tree, u, step: float = FD_STEP, g=None):
    """Max relative error between g (default: the adjoint gradient) and finite differences."""
    g = adjoint_gradient(spec, tree, u) if g is None else g
    g_fd = fd_cost_gradient(spec, tree, u, step=step)
    worst = 0.0
    for k in range(tree.grid.n_steps + 1):
        err = np.abs(g.at(k) - g_fd.at(k)) / np.maximum(1.0, np.abs(g_fd.at(k)))
        worst = max(worst, float(np.max(err)))
    return worst, g, g_fd
