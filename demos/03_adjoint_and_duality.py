"""Backward adjoint solves and the exact duality identity behind the gradient.

Solves the paired backward system along a trajectory, with the step
coefficients of `linearize` as the step source k -> `StepCoefficients` and
its terminal gradient, cross-checks the recursion against the
transition-chain closed form, and verifies the
summation-by-parts identity pairing the costate with a spike response: on the
tree it holds to roundoff, which is precisely why the adjoint gradient below
matches finite differences.
"""

import numpy as np

from mfsmp import (adjoint_gradient, constant_control, duality_residual, linearize,
                   simulate, solve_adjoint)
from mfsmp.adjoint import closed_form_costate, integrability_report, q_definition_residual
from mfsmp.instances import e1_problem, random_control, random_lq, random_spike
from mfsmp.smp import fd_cost_gradient

spec = e1_problem()
tree = spec.build_tree()
u = constant_control(spec, tree, 0.0)
traj = simulate(spec, tree, u)
steps, terminal = linearize(spec, tree, traj, u)
adj = solve_adjoint(steps.__getitem__, tree, terminal)
print("benchmark adjoint: p(T) =", adj.p.at(1).ravel(), " q(0) =", adj.q.at(0).ravel(),
      " p(0) =", adj.p.at(0).ravel())
print("q definition gap:", q_definition_residual(adj, tree))
closed = closed_form_costate(steps.__getitem__, tree, terminal)
print("closed form vs recursion:", np.max(np.abs(closed.at(0) - adj.p.at(0))))
for res in integrability_report(adj, tree).residuals:
    print(" ", res.label, "=", res.value)

# The duality identity on a random mean-field instance.
mf = random_lq(seed=7, steps_max=3)
mf_tree = mf.build_tree()
u_mf = random_control(mf, mf_tree, seed=8)
traj_mf = simulate(mf, mf_tree, u_mf)
mf_steps, mf_terminal = linearize(mf, mf_tree, traj_mf, u_mf)
adj_mf = solve_adjoint(mf_steps.__getitem__, mf_tree, mf_terminal)
spike = random_spike(mf, mf_tree, u_mf, seed=9, scale=0.05)
print("\nduality identity residual (random instance):",
      duality_residual(mf, mf_tree, traj_mf, adj_mf, u_mf, spike))

# Consequence: -H_u is the cost gradient in the probability-weighted metric.
g = adjoint_gradient(mf, mf_tree, u_mf)
g_fd = fd_cost_gradient(mf, mf_tree, u_mf)
worst = max(float(np.max(np.abs(g.at(k) - g_fd.at(k)) / np.maximum(1, np.abs(g_fd.at(k)))))
            for k in range(mf_tree.grid.n_steps + 1))
print("adjoint gradient vs finite differences, max relative error:", worst)
