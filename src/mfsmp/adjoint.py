"""Linearization and exact backward solves for the mean-field adjoint system.

Conventions.  The linear one-step system on the tree, level k to k+1, is

    z_{k+1} = Phi_k z_k + c_k + sum_j e_j(k) w^j(k)
    Phi_k z = (I + A) z + A1 E z + sum_j (B_j z + B1_j E z) w^j(k)

with A = h * (drift x-gradient), A1 = h * (drift mean-gradient) and B_j / B1_j
the diffusion gradients, all evaluated at step k, and forcing (c, e_j) passed
to `solve_linear_forward`.  `apply_transition` is Phi_k, `transition_local` its
kernel.  `apply_transition_adjoint` is its transpose Phi*_k in the
probability-weighted pairing <z, v>_k = sum_m pi_m z_m . v_m of level k:

    Phi*_k v = (I + A^T) E{v | F_k} + E[A1^T E{v | F_k}]
               + sum_j B_j^T E{v w^j | F_k} + sum_j E[B1_j^T E{v w^j | F_k}]

The backward system solved here reads p_k = Phi*_k p_{k+1} - rhs_k with
q_j(k) = E{p_{k+1} w^j | F_k} and terminal p = -terminal gradient;
`backward_levels` sweeps it one level at a time.  The
expectation-coupled terms are unconditional level means, constant across
nodes of their level.  The step factor on the mean drift gradient is what
makes the backward step the transpose of the forward one, so the discrete
summation-by-parts pairing of p against the spike response closes exactly.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import MfsmpError
from .report import CheckReport
from .tree import AdaptedProcess, cond_expect, cond_expect_noise, expect


# the coefficients of one step: the Jacobian blocks as `LinearSystemData`
# lists them and the backward forcing
StepCoefficients = namedtuple("StepCoefficients", "drift_x drift_mean diff_x diff_mean running")


@dataclass(eq=False)
class LinearSystemData:
    """Node-indexed coefficients of the linear pair over steps 0..N.  The
    Jacobian blocks of a step hold one array per node or, where they are the
    same at every node, one block with a length-1 node axis."""

    drift_x: list       # per step: (m_k | 1, n, n)
    drift_mean: list    # per step: (m_k | 1, n, n)
    diff_x: list        # per step: (m_k | 1, d, n, n)
    diff_mean: list     # per step: (m_k | 1, d, n, n)
    running: list       # per step: (m_k, n)  backward forcing
    terminal: np.ndarray  # (m_{N+1}, n)

    @property
    def n_steps(self):
        return len(self.drift_x) - 1

    @property
    def n(self):
        return self.terminal.shape[1]

    def step(self, k) -> StepCoefficients:
        return StepCoefficients(self.drift_x[k], self.drift_mean[k], self.diff_x[k],
                                self.diff_mean[k], self.running[k])


@dataclass(eq=False)
class AdjointSolution:
    p: AdaptedProcess   # levels 0..N+1, values (n,)
    q: AdaptedProcess   # levels 0..N, values (d, n)


def linearize_step(spec, tree, traj, u, k) -> StepCoefficients:
    """The step-k adjoint coefficients along (x̂, Ex̂, û), node by node; a
    step-constant Jacobian stays one (1, ...) block."""
    h, c = tree.grid.h, spec.coeffs
    x, y = traj.rows(k)
    uk = u.at(k)
    return StepCoefficients(
        h * np.asarray(c.f_x(k, x, y, uk)), h * np.asarray(c.f_y(k, x, y, uk)),
        np.asarray(c.sigma_x(k, x, y, uk)), np.asarray(c.sigma_y(k, x, y, uk)),
        np.asarray(c.l_x(k, x, y, uk)) + expect(tree, np.asarray(c.l_y(k, x, y, uk)), k))


def linearize_terminal(spec, tree, traj) -> np.ndarray:
    """The terminal gradient phi_x + E phi_y over the leaves."""
    kT = tree.grid.n_steps + 1
    xT, yT = traj.rows(kT)
    c = spec.coeffs
    # the level mean first, so phi_y's values are gone before phi_x's are made
    mean = expect(tree, np.asarray(c.phi_y(xT, yT)), kT)
    return np.asarray(c.phi_x(xT, yT)) + mean


def linearize(spec, tree, traj, u) -> LinearSystemData:
    """`linearize_step` at every step and `linearize_terminal`, stored."""
    steps = [linearize_step(spec, tree, traj, u, k) for k in range(tree.grid.n_steps + 1)]
    return LinearSystemData(*map(list, zip(*steps)), linearize_terminal(spec, tree, traj))


def backward_levels(tree, p, coefficients):
    """The backward recursion p_k = Phi*_k p_{k+1} - running_k from the leaf
    costate p = p_{N+1}, with `coefficients(k)` the step-k `StepCoefficients`:
    yields (k, p_k, q_k, E{p_{k+1} | F_k}) for k = N .. 0, with exact
    conditional expectations.  p_{k+1} and the step's coefficients are
    dropped once read, so a consumer that keeps no level holds about one."""
    for k in range(tree.grid.n_steps, -1, -1):
        qk = cond_expect_noise(tree, p, k + 1)
        ep = cond_expect(tree, p, k + 1)
        del p
        step = coefficients(k)
        p = _transpose_local(step, tree, k, ep, qk) - step.running
        del step
        yield k, p, qk, ep


def adjoint_solution(tree, p_last, levels) -> AdjointSolution:
    """p and q of the leaf costate p_last and the (p_k, q_k), k = N .. 0, of
    a `backward_levels` sweep."""
    p, q = zip(*levels[::-1])
    return AdjointSolution(AdaptedProcess(tree, 0, [*p, p_last]), AdaptedProcess(tree, 0, q))


def solve_adjoint(data: LinearSystemData, tree) -> AdjointSolution:
    """`backward_levels` over stored coefficients from p(T) = -terminal."""
    n_steps = tree.grid.n_steps
    if data.n_steps != n_steps or data.terminal.shape[0] != tree.size(n_steps + 1):
        raise MfsmpError("linear system data does not match the tree shape")
    p_last = -data.terminal
    return adjoint_solution(tree, p_last, [(p, q) for _, p, q, _ in
                                           backward_levels(tree, p_last, data.step)])


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
    return transition_local(data.step(k), tree, k, z)


def transition_local(step, tree, k, z):
    """Phi_k z with the step-k `StepCoefficients` `step`: level k -> k+1."""
    zbar = expect(tree, z, k)
    base = (z
            + np.einsum("mij,mj->mi", step.drift_x, z)
            + np.einsum("mij,j->mi", step.drift_mean, zbar))
    diff = (np.einsum("mjab,mb->mja", step.diff_x, z)
            + np.einsum("mjab,b->mja", step.diff_mean, zbar))
    return tree.children(k, base, diff)


def _transpose_local(step, tree, k, ep, qk):
    """Level-k part of the transposed step-k transition with the
    `StepCoefficients` `step`, given E{v | F_k} and E{v w^j | F_k} of the
    level-k+1 values v.  The mean-field terms are the
    node-wise contractions of the local terms followed by one
    probability-weighted sum over the level, so a step-constant block and its
    per-node copy go through the same arithmetic."""
    w = tree.abs_prob[k]
    mean_drift = w @ np.einsum("mij,mi->mj", step.drift_mean, ep)
    mean_diff = w @ np.einsum("mjab,mja->mb", step.diff_mean, qk)
    return (ep
            + np.einsum("mij,mi->mj", step.drift_x, ep)
            + np.einsum("mjab,mja->mb", step.diff_x, qk)
            + mean_drift + mean_diff)


def apply_transition_adjoint(data: LinearSystemData, tree, k: int, v) -> np.ndarray:
    """Transpose of `apply_transition` at step k in the probability-weighted
    pairing, <apply_transition(z), v>_{k+1} = <z, apply_transition_adjoint(v)>_k:
    level k+1 -> k."""
    v = np.asarray(v, dtype=float)
    if v.shape != (tree.size(k + 1), data.n):
        raise MfsmpError(f"expected level-{k + 1} values of shape ({tree.size(k + 1)}, {data.n})")
    return _transpose_local(data.step(k), tree, k, cond_expect(tree, v, k + 1),
                            cond_expect_noise(tree, v, k + 1))


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


def solve_linear_forward(data: LinearSystemData, tree, z0, drift_force,
                         diff_force) -> AdaptedProcess:
    """Direct recursion, every level stored, with the step-k forcing c + sum_j e_j w^j
    (c, e the arguments' k-th entries) lifted onto level k+1; the spike response streams."""
    n_steps = tree.grid.n_steps
    z = AdaptedProcess.zeros(tree, 0, n_steps + 1, (data.n,))
    z.set_level(0, np.broadcast_to(np.asarray(z0, dtype=float), (1, data.n)))
    for k in range(n_steps + 1):
        z.set_level(k + 1, apply_transition(data, tree, k, z.at(k))
                    + tree.children(k, drift_force[k], diff_force[k]))
    return z


def variation_of_constants(data: LinearSystemData, tree, z0, drift_force,
                           diff_force) -> AdaptedProcess:
    """Representation-formula solution: transition chain applied to the initial
    value plus chains applied to each step's lifted forcing, passed as arguments."""
    n_steps = tree.grid.n_steps
    z0 = np.broadcast_to(np.asarray(z0, dtype=float), (1, data.n))
    out = AdaptedProcess.zeros(tree, 0, n_steps + 1, (data.n,))
    for level in range(n_steps + 2):
        total = propagate(data, tree, z0, 0, level)
        for k in range(min(level, n_steps + 1)):
            lifted = tree.children(k, drift_force[k], diff_force[k])
            total = total + propagate(data, tree, lifted, k + 1, level)
        out.set_level(level, total)
    return out


def closed_form_costate(data: LinearSystemData, tree) -> AdaptedProcess:
    """Costate via the transition-chain representation

        p_k = -(Phi*_k ... Phi*_N terminal + sum_{s=k..N} Phi*_k ... Phi*_{s-1} running_s)

    with each chain of transposed transitions applied from scratch, matrix
    free.  The backward recursion sums the same terms by Horner's rule, so the
    two agree to roundoff, with or without expectation coupling."""
    n_steps = tree.grid.n_steps

    def chain(v, s, level):
        for k in range(s - 1, level - 1, -1):
            v = apply_transition_adjoint(data, tree, k, v)
        return v

    p = AdaptedProcess.zeros(tree, 0, n_steps + 1, (data.n,))
    for level in range(n_steps + 2):
        total = chain(data.terminal, n_steps + 1, level)
        for s in range(level, n_steps + 1):
            total = total + chain(data.running[s], s, level)
        p.set_level(level, -total)
    return p


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
