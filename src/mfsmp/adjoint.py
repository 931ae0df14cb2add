"""Linearization and exact backward solves for the mean-field adjoint system.

Conventions.  The linear one-step system on the tree is

    z(t+h) = (I + A(t)) z(t) + A1(t) E z(t) + c(t)
             + sum_j (B_j(t) z(t) + B1_j(t) E z(t) + e_j(t)) w^j(t)

with A = h * (drift x-gradient), A1 = h * (drift mean-gradient), B_j / B1_j the
diffusion gradients, and optional additive forcing (c, e_j).  The paired
backward system solved here reads, per step,

    p(t)   = (I + A^T) E{p(t+h) | F_t} + E[A1^T p(t+h)]
             + sum_j B_j^T q_j(t) + sum_j E[B1_j^T q_j(t)] - rhs(t)
    q_j(t) = E{p(t+h) w^j(t) | F_t}

with terminal p = -terminal gradient.  The expectation-coupled terms are
unconditional level means, constant across nodes of their level.  The step
factor on the mean drift gradient is deliberate: it is the unique choice under
which the discrete summation-by-parts pairing of p against the spike response
closes exactly (set ``mean_drift_step=False`` to reproduce the h-free variant
for comparison).
"""

from dataclasses import dataclass

import numpy as np

from .errors import MfsmpError
from .report import CheckReport
from .tree import AdaptedProcess, cond_expect, cond_expect_noise, expect


@dataclass(eq=False)
class LinearSystemData:
    """Node-indexed coefficients of the linear pair over steps 0..N."""

    drift_x: list       # per step: (m_k, n, n)
    drift_mean: list    # per step: (m_k, n, n)
    diff_x: list        # per step: (m_k, d, n, n)
    diff_mean: list     # per step: (m_k, d, n, n)
    running: list       # per step: (m_k, n)  backward forcing
    terminal: np.ndarray  # (m_{N+1}, n)
    drift_force: list | None = None  # per step: (m_k, n)  forward forcing
    diff_force: list | None = None   # per step: (m_k, d, n)

    @property
    def n_steps(self):
        return len(self.drift_x) - 1

    @property
    def n(self):
        return self.terminal.shape[1]

    @property
    def d(self):
        return self.diff_x[0].shape[1]


@dataclass(eq=False)
class AdjointSolution:
    p: AdaptedProcess   # levels 0..N+1, values (n,)
    q: AdaptedProcess   # levels 0..N, values (d, n)


def linearize(spec, tree, traj, u, mean_drift_step: bool = True) -> LinearSystemData:
    """Evaluate the adjoint coefficients along (x̂, Ex̂, û), node by node."""
    grid = tree.grid
    h = grid.h
    c = spec.coeffs
    drift_x, drift_mean, diff_x, diff_mean, running = [], [], [], [], []
    for k in range(grid.n_steps + 1):
        x = traj.at(k)
        y = np.broadcast_to(traj.means[k], x.shape)
        uk = u.at(k)
        t = grid.time(k)
        drift_x.append(h * np.asarray(c.f_x(t, x, y, uk)))
        mean_scale = h if mean_drift_step else 1.0
        drift_mean.append(mean_scale * np.asarray(c.f_y(t, x, y, uk)))
        diff_x.append(np.asarray(c.sigma_x(t, x, y, uk)))
        diff_mean.append(np.asarray(c.sigma_y(t, x, y, uk)))
        lx = np.asarray(c.l_x(t, x, y, uk))
        ly_mean = expect(tree, np.asarray(c.l_y(t, x, y, uk)), k)
        running.append(lx + ly_mean)
    kT = grid.n_steps + 1
    xT = traj.at(kT)
    yT = np.broadcast_to(traj.means[kT], xT.shape)
    terminal = np.asarray(c.phi_x(xT, yT)) + expect(tree, np.asarray(c.phi_y(xT, yT)), kT)
    return LinearSystemData(drift_x, drift_mean, diff_x, diff_mean, running, terminal)


def solve_adjoint(data: LinearSystemData, tree) -> AdjointSolution:
    """Backward recursion from p(T) = -terminal; exact conditional expectations."""
    n_steps = tree.grid.n_steps
    if data.n_steps != n_steps or data.terminal.shape[0] != tree.size(n_steps + 1):
        raise MfsmpError("linear system data does not match the tree shape")
    n, d = data.n, data.d
    p = AdaptedProcess.zeros(tree, 0, n_steps + 1, (n,))
    q = AdaptedProcess.zeros(tree, 0, n_steps, (d, n))
    p.set_level(n_steps + 1, -data.terminal)
    for k in range(n_steps, -1, -1):
        pc = p.at(k + 1)
        ep = cond_expect(tree, pc, k + 1)
        qk = cond_expect_noise(tree, pc, k + 1)
        q.set_level(k, qk)
        w = tree.abs_prob[k]
        mean_drift = np.einsum("m,mij,mi->j", w, data.drift_mean[k], ep)
        mean_diff = np.einsum("m,mjab,mja->b", w, data.diff_mean[k], qk)
        pk = (ep
              + np.einsum("mij,mi->mj", data.drift_x[k], ep)
              + np.einsum("mjab,mja->mb", data.diff_x[k], qk)
              + mean_drift + mean_diff
              - data.running[k])
        p.set_level(k, pk)
    return AdjointSolution(p, q)


def q_definition_residual(adj: AdjointSolution, tree) -> float:
    """Largest gap of q_j(t) from E{p(t+h) w^j | F_t} (zero by construction)."""
    worst = 0.0
    for k in range(tree.grid.n_steps + 1):
        pc = adj.p.at(k + 1)
        inc = tree.increments(k + 1)
        direct = cond_expect(tree, pc[:, None, :] * inc[:, :, None], k + 1)
        worst = max(worst, float(np.max(np.abs(direct - adj.q.at(k)))))
    return worst


def apply_transition(data: LinearSystemData, tree, k: int, z) -> np.ndarray:
    """One-step transition of the homogeneous linear system: level k -> k+1."""
    z = np.asarray(z, dtype=float)
    if z.shape != (tree.size(k), data.n):
        raise MfsmpError(f"expected level-{k} values of shape ({tree.size(k)}, {data.n})")
    zbar = expect(tree, z, k)
    base = (z
            + np.einsum("mij,mj->mi", data.drift_x[k], z)
            + np.einsum("mij,j->mi", data.drift_mean[k], zbar))
    diff = (np.einsum("mjab,mb->mja", data.diff_x[k], z)
            + np.einsum("mjab,b->mja", data.diff_mean[k], zbar))
    return tree.children(k, base, diff)


def propagate(data: LinearSystemData, tree, z, k_from: int, k_to: int) -> np.ndarray:
    """Iterated transition from level k_from to k_to; identity when equal and
    the zero process when k_to < k_from (the composition convention)."""
    z = np.asarray(z, dtype=float)
    if k_to < k_from:
        return np.zeros((tree.size(k_to), data.n))
    out = z.copy()
    for k in range(k_from, k_to):
        out = apply_transition(data, tree, k, out)
    return out


def solve_linear_forward(data: LinearSystemData, tree, z0) -> AdaptedProcess:
    """Direct recursion of the linear system (the oracle for the representation)."""
    n_steps = tree.grid.n_steps
    z = AdaptedProcess.zeros(tree, 0, n_steps + 1, (data.n,))
    z.set_level(0, np.broadcast_to(np.asarray(z0, dtype=float), (1, data.n)))
    for k in range(n_steps + 1):
        child = apply_transition(data, tree, k, z.at(k))
        if data.drift_force is not None:
            # the step-k forcing c + sum_j e_j w^j, lifted onto level k+1
            child = child + tree.children(k, data.drift_force[k], data.diff_force[k])
        z.set_level(k + 1, child)
    return z


def variation_of_constants(data: LinearSystemData, tree, z0) -> AdaptedProcess:
    """Representation-formula solution: transition chain applied to the initial
    value plus chains applied to each step's lifted forcing."""
    if data.drift_force is None or data.diff_force is None:
        raise MfsmpError("representation requires forward forcing terms")
    n_steps = tree.grid.n_steps
    z0 = np.broadcast_to(np.asarray(z0, dtype=float), (1, data.n))
    out = AdaptedProcess.zeros(tree, 0, n_steps + 1, (data.n,))
    for level in range(n_steps + 2):
        total = propagate(data, tree, z0, 0, level)
        for k in range(min(level, n_steps + 1)):
            lifted = tree.children(k, data.drift_force[k], data.diff_force[k])
            total = total + propagate(data, tree, lifted, k + 1, level)
        out.set_level(level, total)
    return out


def transition_matrix(data: LinearSystemData, tree, k: int) -> np.ndarray:
    """Explicit matrix of the one-step transition on stacked level vectors."""
    n = data.n
    m0, m1 = tree.size(k), tree.size(k + 1)
    par = np.arange(m1) // tree.branch
    inc = tree.increments(k + 1)
    eye = np.eye(n)
    local = (eye[None] + data.drift_x[k][par]
             + np.einsum("cj,cjab->cab", inc, data.diff_x[k][par]))
    mean_part = (data.drift_mean[k][par]
                 + np.einsum("cj,cjab->cab", inc, data.diff_mean[k][par]))
    mat = np.zeros((m1, n, m0, n))
    mat[np.arange(m1), :, par, :] = local
    mat += mean_part[:, :, None, :] * tree.abs_prob[k][None, None, :, None]
    return mat.reshape(m1 * n, m0 * n)


def transition_chain_matrix(data: LinearSystemData, tree, k_from: int, k_to: int) -> np.ndarray:
    n = data.n
    if k_to < k_from:
        return np.zeros((tree.size(k_to) * n, tree.size(k_from) * n))
    out = np.eye(tree.size(k_from) * n)
    for k in range(k_from, k_to):
        out = transition_matrix(data, tree, k) @ out
    return out


def _node_weights(tree, level, n):
    return np.repeat(tree.abs_prob[level], n)


def closed_form_costate(data: LinearSystemData, tree) -> AdaptedProcess:
    """Costate via the transition-chain representation.

    The chain matrices are adjointed with respect to the probability-weighted
    inner product on each level (<z, w>_k = sum_m pi_m z_m . w_m), which is the
    duality that makes the pairing against forward solutions exact.  Without
    expectation coupling (zero mean-gradient blocks) this reproduces the
    backward recursion by construction; with coupling it is the duality-based
    reading and is reported rather than asserted against the recursion.
    """
    n_steps = tree.grid.n_steps
    n = data.n
    p = AdaptedProcess.zeros(tree, 0, n_steps + 1, (n,))
    terminal_vec = data.terminal.reshape(-1)
    for level in range(n_steps + 2):
        w_here = _node_weights(tree, level, n)
        acc = np.zeros(tree.size(level) * n)
        chain = transition_chain_matrix(data, tree, level, n_steps + 1)
        acc += chain.T @ (_node_weights(tree, n_steps + 1, n) * terminal_vec)
        for s in range(level, n_steps + 1):
            chain_s = transition_chain_matrix(data, tree, level, s)
            vec = data.running[s].reshape(-1)
            acc += chain_s.T @ (_node_weights(tree, s, n) * vec)
        p.set_level(level, (-acc / w_here).reshape(tree.size(level), n))
    return p


def invertibility_report(data: LinearSystemData, tree, levels=None) -> CheckReport:
    """Diagnostic: smallest singular value of each realized chain from the root."""
    report = CheckReport("transition-chain-invertibility")
    n_steps = tree.grid.n_steps
    levels = range(1, n_steps + 2) if levels is None else levels
    for level in levels:
        chain = transition_chain_matrix(data, tree, 0, level)
        smin = float(np.linalg.svd(chain, compute_uv=False)[-1])
        report.add(f"sigma_min(chain 0->{level})", 0.0 if smin > 0 else 1.0, 0.0, level=level)
        report.note(f"level {level}: smallest singular value {smin:.6e}")
    return report


def integrability_report(adj: AdjointSolution, tree) -> CheckReport:
    """Second moments of (p, q) per level; finiteness is the pass condition,
    which a finite tree guarantees structurally (the report documents sizes)."""
    report = CheckReport("adjoint-integrability")
    for k in range(tree.grid.n_steps + 2):
        val = float(expect(tree, np.sum(adj.p.at(k) ** 2, axis=-1), k))
        report.add(f"E|p|^2 @level {k}", val, np.inf, level=k)
    for k in range(tree.grid.n_steps + 1):
        qk = adj.q.at(k)
        for j in range(qk.shape[1]):
            val = float(expect(tree, np.sum(qk[:, j, :] ** 2, axis=-1), k))
            report.add(f"E|q^{j + 1}|^2 @level {k}", val, np.inf, level=k)
    return report
