"""Linearization and exact linear solves for the mean-field adjoint system.

Conventions.  The linear one-step system on the tree, level k to k+1, is

    z_{k+1} = Phi_k z_k + c_k + sum_j e_j(k) w^j(k)
    Phi_k z = (I + A) z + A1 E z + sum_j (B_j z + B1_j E z) w^j(k)

with A = h * (drift x-gradient), A1 = h * (drift mean-gradient) and B_j / B1_j
the diffusion gradients, all evaluated at step k and read from a step source
k -> `StepCoefficients` (`linearize_step`, or the list `linearize` stores);
the terminal gradient and the forcing (c, e_j) are arguments of their own.
`forward_linear_levels` sweeps the system forward, `apply_transition` is
Phi_k and `apply_transition_adjoint` its transpose Phi*_k in the
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


# the coefficients of one step: the Jacobian blocks drift_x, drift_mean (m_k | 1, n, n)
# and diff_x, diff_mean (m_k | 1, d, n, n), a length-1 node axis where they are the
# same at every node, and the backward forcing running (m_k, n)
StepCoefficients = namedtuple("StepCoefficients", "drift_x drift_mean diff_x diff_mean running")


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


def linearize(spec, tree, traj, u):
    """(steps, terminal): the `linearize_step` of every step, stored as a
    list whose `__getitem__` is a step source, and `linearize_terminal`."""
    return ([linearize_step(spec, tree, traj, u, k) for k in range(tree.grid.n_steps + 1)],
            linearize_terminal(spec, tree, traj))


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


def forward_linear_levels(tree, z, k, coefficients, forcing=None):
    """The forward recursion z_{j+1} = Phi_j z_j from the level-k values z,
    with `coefficients(j)` the step-j `StepCoefficients` and, when given,
    the step-j forcing `forcing(j)` = (c_j, e_j) lifted onto level j+1:
    yields (j, z_j, step_j) for j = k .. N, then (N+1, z_{N+1}, None).
    The step's coefficients are dropped once read, so a consumer that keeps
    no level holds about one."""
    for j in range(k, tree.grid.n_steps + 1):
        step = coefficients(j)
        yield j, z, step
        zbar = expect(tree, z, j)
        base = (z
                + np.einsum("mij,mj->mi", step.drift_x, z)
                + np.einsum("mij,j->mi", step.drift_mean, zbar))
        diff = (np.einsum("mjab,mb->mja", step.diff_x, z)
                + np.einsum("mjab,b->mja", step.diff_mean, zbar))
        del step
        z = tree.children(j, base, diff)
        if forcing is not None:
            z += tree.children(j, *forcing(j))
    yield tree.grid.n_steps + 1, z, None


def adjoint_solution(tree, p_last, levels) -> AdjointSolution:
    """p and q of the leaf costate p_last and the (p_k, q_k), k = N .. 0, of
    a `backward_levels` sweep."""
    p, q = zip(*levels[::-1])
    return AdjointSolution(AdaptedProcess(tree, 0, [*p, p_last]), AdaptedProcess(tree, 0, q))


def solve_adjoint(coefficients, tree, terminal) -> AdjointSolution:
    """`backward_levels` over the step source `coefficients` from
    p(T) = -terminal, every level stored."""
    p_last = -np.asarray(terminal, dtype=float)
    if p_last.shape[0] != tree.size(tree.grid.n_steps + 1):
        raise MfsmpError("the terminal gradient does not match the leaf level")
    return adjoint_solution(tree, p_last, [(p, q) for _, p, q, _ in
                                           backward_levels(tree, p_last, coefficients)])


def q_definition_residual(adj: AdjointSolution, tree) -> float:
    """Largest gap of q_j(t) from E{p(t+h) w^j | F_t} (zero by construction)."""
    worst = 0.0
    for k in range(tree.grid.n_steps + 1):
        pc = adj.p.at(k + 1)
        inc = tree.increments(k + 1)
        direct = cond_expect(tree, pc[:, None, :] * inc[:, :, None], k + 1)
        worst = max(worst, float(np.max(np.abs(direct - adj.q.at(k)))))
    return worst


def _checked_level(coefficients, tree, k, level, values):
    """`values` as floats, checked to be level-`level` values of step k's state size."""
    values = np.asarray(values, dtype=float)
    shape = (tree.size(level), coefficients(k).drift_x.shape[-1])
    if values.shape != shape:
        raise MfsmpError(f"expected level-{level} values of shape {shape}")
    return values


def apply_transition(coefficients, tree, k: int, z) -> np.ndarray:
    """One-step transition of the homogeneous linear system: level k -> k+1."""
    return propagate(coefficients, tree, _checked_level(coefficients, tree, k, k, z), k, k + 1)


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


def apply_transition_adjoint(coefficients, tree, k: int, v) -> np.ndarray:
    """Transpose of `apply_transition` at step k in the probability-weighted
    pairing, <apply_transition(z), v>_{k+1} = <z, apply_transition_adjoint(v)>_k:
    level k+1 -> k."""
    v = _checked_level(coefficients, tree, k, k + 1, v)
    return _transpose_local(coefficients(k), tree, k, cond_expect(tree, v, k + 1),
                            cond_expect_noise(tree, v, k + 1))


def propagate(coefficients, tree, z, k_from: int, k_to: int) -> np.ndarray:
    """Iterated transition from level k_from to k_to; identity when equal and
    the zero process when k_to < k_from (the composition convention)."""
    z = np.array(z, dtype=float)
    if k_to < k_from:
        return np.zeros((tree.size(k_to), z.shape[-1]))
    return next(out for k, out, _ in forward_linear_levels(tree, z, k_from, coefficients)
                if k == k_to)


def solve_linear_forward(coefficients, tree, z0, drift_force, diff_force) -> AdaptedProcess:
    """`forward_linear_levels` from z0 at the root, every level stored, with
    the step-k forcing c + sum_j e_j w^j (c, e the arguments' k-th entries)
    lifted onto level k+1."""
    z0 = np.broadcast_to(np.asarray(z0, dtype=float), (1, np.shape(z0)[-1]))
    levels = forward_linear_levels(tree, z0, 0, coefficients,
                                   lambda k: (drift_force[k], diff_force[k]))
    return AdaptedProcess(tree, 0, [z for _, z, _ in levels])


def variation_of_constants(coefficients, tree, z0, drift_force, diff_force) -> AdaptedProcess:
    """Representation-formula solution: transition chain applied to the initial
    value plus chains applied to each step's lifted forcing, passed as arguments."""
    n_steps = tree.grid.n_steps
    z0 = np.broadcast_to(np.asarray(z0, dtype=float), (1, np.shape(z0)[-1]))
    return AdaptedProcess(tree, 0, [
        sum((propagate(coefficients, tree, tree.children(k, drift_force[k], diff_force[k]),
                       k + 1, level) for k in range(min(level, n_steps + 1))),
            propagate(coefficients, tree, z0, 0, level))
        for level in range(n_steps + 2)])


def closed_form_costate(coefficients, tree, terminal) -> AdaptedProcess:
    """Costate via the transition-chain representation

        p_k = -(Phi*_k ... Phi*_N terminal + sum_{s=k..N} Phi*_k ... Phi*_{s-1} running_s)

    with each chain of transposed transitions applied from scratch, matrix
    free.  The backward recursion sums the same terms by Horner's rule, so the
    two agree to roundoff, with or without expectation coupling."""
    n_steps = tree.grid.n_steps

    def chain(v, s, level):
        for k in range(s - 1, level - 1, -1):
            v = apply_transition_adjoint(coefficients, tree, k, v)
        return v

    return AdaptedProcess(tree, 0, [
        -sum((chain(coefficients(s).running, s, level) for s in range(level, n_steps + 1)),
             chain(terminal, n_steps + 1, level))
        for level in range(n_steps + 2)])


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
