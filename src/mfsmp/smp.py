"""Hamiltonian machinery: first-order conditions, spike variations, duality checks.

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

import numpy as np

from .adjoint import LinearSystemData, linearize, solve_adjoint, solve_linear_forward
from .errors import MfsmpError
from .forward import batch_cost, cost, simulate
from .report import CheckReport
from .tree import AdaptedProcess, cond_expect, expect

# floats in the widest level array of a batched finite-difference chunk
# (256 KB): bounds the memory `fd_cost_gradient` adds, whatever the tree
FD_CHUNK_FLOATS = 1 << 15


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


def hamiltonian(spec, tree, traj, adj, k: int, v) -> np.ndarray:
    """H(k, v) per level-k node; v is (r,) or (m_k, r)."""
    x = traj.at(k)
    m = x.shape[0]
    v = np.broadcast_to(np.asarray(v, dtype=float), (m, spec.r))
    y = np.broadcast_to(traj.means[k], x.shape)
    ep = conditional_costate(tree, adj, k)
    qk = adj.q.at(k)
    c = spec.coeffs
    drift_term = tree.grid.h * np.einsum("mi,mi->m", ep, c.f(k, x, y, v))
    diff_term = np.einsum("mji,mji->m", qk, c.sigma(k, x, y, v))
    return drift_term + diff_term - c.l(k, x, y, v)


def _hamiltonian_gradient_parts(spec, tree, traj, adj, u, k):
    x = traj.at(k)
    y = np.broadcast_to(traj.means[k], x.shape)
    uk = u.at(k)
    ep = conditional_costate(tree, adj, k)
    qk = adj.q.at(k)
    c = spec.coeffs
    state_part = (tree.grid.h * np.einsum("mia,mi->ma", c.f_u(k, x, y, uk), ep)
                  + np.einsum("mjia,mji->ma", c.sigma_u(k, x, y, uk), qk))
    return state_part, np.asarray(c.l_u(k, x, y, uk))


def hamiltonian_gradient(spec, tree, traj, adj, u, k: int) -> np.ndarray:
    """H_u(k, u(k)) per level-k node: h f_u^T E{p|F} + sum_j sigma_u^T q_j - l_u."""
    state_part, lu = _hamiltonian_gradient_parts(spec, tree, traj, adj, u, k)
    return state_part - lu


def necessary_check(spec, tree, traj, adj, u, tol: float = 1e-6) -> CheckReport:
    """First-order condition over the admissible boxes.

    For finite box sides the directional maximum of <H_u, v - u> is attained
    coordinate-wise at a bound (exact for boxes); infinite sides reduce to a
    sign test on the matching H_u component, whose positive part is reported
    directly as the residual contribution.
    """
    report = CheckReport("necessary-condition")
    report.note("orientation: candidate maximizes H along feasible directions "
                "(equivalently minimizes the sign-flipped Hamiltonian)")
    for k in range(tree.grid.n_steps + 1):
        hu = hamiltonian_gradient(spec, tree, traj, adj, u, k)
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


def variational_data(spec, tree, traj, u, spike: SpikeVariation) -> LinearSystemData:
    """Linearized system with the spike forcing attached at the spike step; the
    drift blocks and forcing carry the step factor h, so the response is the
    exact derivative of the forward map."""
    data = linearize(spec, tree, traj, u)
    n, d = spec.n, spec.d
    data.drift_force = [np.zeros((tree.size(k), n)) for k in range(tree.grid.n_steps + 1)]
    data.diff_force = [np.zeros((tree.size(k), d, n)) for k in range(tree.grid.n_steps + 1)]
    k = spike.step
    x = traj.at(k)
    y = np.broadcast_to(traj.means[k], x.shape)
    bump = spike.scale * np.broadcast_to(spike.delta, (tree.size(k), spec.r))
    data.drift_force[k] = tree.grid.h * np.einsum(
        "mia,ma->mi", spec.coeffs.f_u(k, x, y, u.at(k)), bump)
    data.diff_force[k] = np.einsum(
        "mjia,ma->mji", spec.coeffs.sigma_u(k, x, y, u.at(k)), bump)
    return data


def variational_state(spec, tree, traj, u, spike: SpikeVariation) -> AdaptedProcess:
    """First-order state response to the spike (zero initial value)."""
    data = variational_data(spec, tree, traj, u, spike)
    return solve_linear_forward(data, tree, np.zeros(spec.n))


def duality_residual(spec, tree, traj, adj, u, spike: SpikeVariation) -> float:
    """Gap in the summation-by-parts identity pairing the costate with the
    spike response:

        E<p(T), xi(T)> = sum_t E<l_x + E l_y, xi(t)>
                         + scale * E<h f_u^T E{p|F} + sum_j sigma_u^T q_j, delta>

    This is an exact algebraic identity on the tree, so the residual is
    roundoff-sized whenever (p, q) solve the adjoint system of the same
    linearization convention.
    """
    xi = variational_state(spec, tree, traj, u, spike)
    data = linearize(spec, tree, traj, u)
    kT = tree.grid.n_steps + 1
    lhs = float(expect(tree, np.einsum("mi,mi->m", adj.p.at(kT), xi.at(kT)), kT))
    run_term = sum(
        float(expect(tree, np.einsum("mi,mi->m", data.running[k], xi.at(k)), k))
        for k in range(tree.grid.n_steps + 1))
    state_part, _ = _hamiltonian_gradient_parts(spec, tree, traj, adj, u, spike.step)
    spike_term = spike.scale * float(expect(
        tree, np.einsum("ma,ma->m", state_part, spike.delta), spike.step))
    return abs(lhs - run_term - spike_term)


def spike_cost_increment(spec, tree, u, spike: SpikeVariation):
    """(predicted, actual) first-order cost increment for the spiked control.

    predicted = -scale * E<H_u(step, u(step)), delta>; actual is the exact cost
    difference.  Their gap is o(scale), and second order for quadratic costs.
    """
    traj = simulate(spec, tree, u)
    adj = solve_adjoint(linearize(spec, tree, traj, u), tree)
    hu = hamiltonian_gradient(spec, tree, traj, adj, u, spike.step)
    predicted = -spike.scale * float(expect(
        tree, np.einsum("ma,ma->m", hu, spike.delta), spike.step))
    base = cost(spec, tree, u, traj=traj)
    actual = cost(spec, tree, perturbed_control(u, spike)) - base
    return predicted, actual


def rate_ratios(spec, tree, u, spike: SpikeVariation,
                eps_values=(1e-1, 1e-2, 1e-3)):
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


def rate_check(spec, tree, u, spike: SpikeVariation,
               eps_values=(1e-1, 1e-2, 1e-3), drop: float = 1e-2,
               floor: float = 1e-20) -> CheckReport:
    """Pass iff ratio1 stays bounded across the ladder and ratio2 collapses by
    the prescribed factor from the largest to the smallest scale (an absolute
    floor absorbs the all-roundoff linear case)."""
    rates = rate_ratios(spec, tree, u, spike, eps_values)
    report = CheckReport("expansion-rates")
    for eps, r1, r2 in zip(rates["eps"], rates["ratio1"], rates["ratio2"]):
        report.add(f"ratio1 @eps={eps:g}", r1, np.inf)
        report.add(f"ratio2 @eps={eps:g}", r2, np.inf)
    r1_first, r1_last = rates["ratio1"][0], rates["ratio1"][-1]
    report.add("ratio1 bounded (last <= 2*first + 1e-30)",
               r1_last, 2.0 * r1_first + 1e-30)
    report.add("ratio2 collapse (last <= drop*first, floored)",
               rates["ratio2"][-1], max(drop * rates["ratio2"][0], floor))
    return report


def _sample_box(rng, lo, hi, base):
    """Jittered admissible point near `base`, kept strictly inside the box."""
    out = np.empty_like(base)
    for i in range(base.size):
        a, b = lo[i], hi[i]
        if np.isfinite(a) and np.isfinite(b):
            w = b - a
            out[i] = base[i] if w == 0.0 else rng.uniform(a + 0.05 * w, b - 0.05 * w)
        elif np.isfinite(a):
            out[i] = a + (1.0 + abs(a)) * rng.uniform(0.05, 1.0)
        elif np.isfinite(b):
            out[i] = b - (1.0 + abs(b)) * rng.uniform(0.05, 1.0)
        else:
            out[i] = base[i] + rng.uniform(-1.0, 1.0)
    return out


def sufficiency_check(spec, tree, traj, adj, u, samples: int = 200, seed: int = 0,
                      tol_convexity: float = 1e-10, tol_signs: float = 1e-12,
                      tol_hamiltonian: float = 1e-6) -> CheckReport:
    """Sampled sufficiency evidence (not a proof): terminal-cost midpoint
    convexity, Hamiltonian midpoint concavity in (x, mean, v) with the frozen
    costates, nonnegative mean-gradients along the trajectory, and Hamiltonian
    optimality over box vertices (unbounded sides probed at a few spans)."""
    rng = np.random.default_rng(seed)
    report = CheckReport("sufficient-conditions")
    report.note("orientation: maximize-H convention; concavity of H here equals "
                "convexity of the sign-flipped Hamiltonian in the infimum statement")
    c = spec.coeffs
    grid = tree.grid
    kT = grid.n_steps + 1

    # (i) terminal cost midpoint convexity in (x, y)
    worst = -np.inf
    xT = traj.at(kT)
    scale = 1.0 + np.abs(xT).max()
    for _ in range(samples):
        node = rng.integers(xT.shape[0])
        pts = xT[node] + rng.uniform(-0.5, 0.5, (4, spec.n)) * scale
        x1, x2, y1, y2 = pts
        vals = c.phi(np.stack([x1, x2, 0.5 * (x1 + x2)]),
                     np.stack([y1, y2, 0.5 * (y1 + y2)]))
        worst = max(worst, float(vals[2] - 0.5 * (vals[0] + vals[1])))
    report.add("terminal midpoint convexity violation", worst, tol_convexity)

    # (ii) Hamiltonian midpoint concavity in (x, y, v) with frozen (p, q)
    worst = -np.inf
    for _ in range(samples):
        k = int(rng.integers(grid.n_steps + 1))
        xk = traj.at(k)
        node = int(rng.integers(xk.shape[0]))
        ep = conditional_costate(tree, adj, k)[node]
        qn = adj.q.at(k)[node]
        s = 1.0 + float(np.abs(xk[node]).max())
        x1, x2 = (xk[node] + rng.uniform(-0.5, 0.5, (2, spec.n)) * s)
        y1, y2 = (traj.means[k] + rng.uniform(-0.5, 0.5, (2, spec.n)) * s)
        v1 = _sample_box(rng, spec.admissible.lo[k], spec.admissible.hi[k], u.at(k)[node])
        v2 = _sample_box(rng, spec.admissible.lo[k], spec.admissible.hi[k], u.at(k)[node])
        xs = np.stack([x1, x2, 0.5 * (x1 + x2)])
        ys = np.stack([y1, y2, 0.5 * (y1 + y2)])
        vs = np.stack([v1, v2, 0.5 * (v1 + v2)])
        hvals = (grid.h * c.f(k, xs, ys, vs) @ ep
                 + np.einsum("mji,ji->m", c.sigma(k, xs, ys, vs), qn)
                 - c.l(k, xs, ys, vs))
        if np.all(np.isfinite(hvals)):
            worst = max(worst, float(0.5 * (hvals[0] + hvals[1]) - hvals[2]))
    report.add("Hamiltonian midpoint concavity violation", worst, tol_convexity)

    # (iii) nonnegative mean-gradients along the trajectory
    worst = 0.0
    for k in range(grid.n_steps + 1):
        x = traj.at(k)
        y = np.broadcast_to(traj.means[k], x.shape)
        uk = u.at(k)
        for arr in (c.f_y(k, x, y, uk), c.sigma_y(k, x, y, uk), c.l_y(k, x, y, uk)):
            worst = max(worst, float(np.max(-np.asarray(arr), initial=0.0)))
    xT_b = traj.at(kT)
    yT = np.broadcast_to(traj.means[kT], xT_b.shape)
    worst = max(worst, float(np.max(-np.asarray(c.phi_y(xT_b, yT)), initial=0.0)))
    report.add("negative mean-gradient entries", worst, tol_signs)

    # (iv) Hamiltonian optimality over box vertices / unbounded probes
    worst = -np.inf
    for k in range(grid.n_steps + 1):
        lo, hi = spec.admissible.lo[k], spec.admissible.hi[k]
        uk = u.at(k)
        h_at_u = hamiltonian(spec, tree, traj, adj, k, uk)
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
        idx = np.ndindex(*[len(p) for p in probes])
        for combo in idx:
            v = np.stack([probes[i][combo[i]] for i in range(spec.r)], axis=1)
            h_v = hamiltonian(spec, tree, traj, adj, k, v)
            gap = h_v - h_at_u
            gap = gap[np.isfinite(gap)]
            if gap.size:
                worst = max(worst, float(np.max(gap)))
    report.add("H(vertex) - H(candidate) max", worst, tol_hamiltonian)
    if report.passed:
        report.note("verdict: sufficient-conditions-hold (sampled evidence, not a proof)")
    return report


def adjoint_gradient(spec, tree, u, return_all: bool = False):
    """Cost gradient in the probability-weighted inner product: -H_u node by node.

    Against coordinate-wise finite differences of the cost, each node's value
    picks up that node's path probability as the metric weight.
    """
    traj = simulate(spec, tree, u)
    adj = solve_adjoint(linearize(spec, tree, traj, u), tree)
    g = AdaptedProcess.zeros(tree, 0, tree.grid.n_steps, (spec.r,))
    for k in range(tree.grid.n_steps + 1):
        g.set_level(k, -hamiltonian_gradient(spec, tree, traj, adj, u, k))
    if return_all:
        return g, traj, adj
    return g


def _fd_rows(u, k, rows, step):
    """Per-step batch controls for the finite-difference rows `rows` of level k:
    rows 2c and 2c+1 move coordinate c = node * r + i of u.at(k) by +step and
    -step; every other entry is u's (a broadcast view off level k)."""
    controls = [np.broadcast_to(u.at(j), (rows.size,) + u.at(j).shape) for j in u.levels()]
    node, i = np.divmod(rows // 2, u.value_shape[0])
    base = u.at(k)[node, i]
    uk = controls[k].copy()
    uk[np.arange(rows.size), node, i] = np.where(rows % 2 == 0, base + step, base - step)
    controls[k] = uk
    return controls


def fd_cost_gradient(spec, tree, u, step: float = 1e-5) -> AdaptedProcess:
    """Central finite differences of the cost per nodal control coordinate,
    mapped into the probability-weighted metric (divided by node probability).
    Perturbed evaluations skip feasibility validation, so the base control
    should sit strictly inside its boxes.

    The +-step perturbations of a level run as batch rows of one forward
    recursion, in chunks of about `FD_CHUNK_FLOATS` floats per level array.
    A row whose state or cost is not finite is evaluated again by `cost`, so
    the first one in the order level, node, coordinate, +step before -step
    raises what the unbatched evaluation raises."""
    g = AdaptedProcess.zeros(tree, 0, tree.grid.n_steps, (spec.r,))
    widest = tree.size(tree.grid.n_steps + 1) * max(spec.d * spec.n, spec.r)
    chunk = max(1, FD_CHUNK_FLOATS // widest)
    for k in range(tree.grid.n_steps + 1):
        n_rows = 2 * tree.size(k) * spec.r
        costs = np.empty(n_rows)
        for start in range(0, n_rows, chunk):
            rows = np.arange(start, min(start + chunk, n_rows))
            costs[rows] = batch_cost(spec, tree, _fd_rows(u, k, rows, step))
            for row in rows[np.isinf(costs[rows])]:
                node, i = divmod(int(row) // 2, spec.r)
                moved = u.copy()
                moved.at(k)[node, i] += step if row % 2 == 0 else -step
                costs[row] = cost(spec, tree, moved, validate=False)
        vals = (costs[0::2] - costs[1::2]).reshape(-1, spec.r) / (2.0 * step)
        g.set_level(k, vals / tree.abs_prob[k][:, None])
    return g


def gradient_consistency(spec, tree, u, step: float = 1e-5):
    """Max relative error between the adjoint gradient and finite differences."""
    g = adjoint_gradient(spec, tree, u)
    g_fd = fd_cost_gradient(spec, tree, u, step=step)
    worst = 0.0
    for k in range(tree.grid.n_steps + 1):
        err = np.abs(g.at(k) - g_fd.at(k)) / np.maximum(1.0, np.abs(g_fd.at(k)))
        worst = max(worst, float(np.max(err)))
    return worst, g, g_fd
