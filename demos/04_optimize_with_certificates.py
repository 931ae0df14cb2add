"""Projected-gradient optimization with first-order and sufficiency certificates.

Optimizes a convex mean-field instance, confirms the result against an
exhaustive grid oracle, and runs the optimality checks: the directional
first-order condition over the boxes, sampled convexity/concavity evidence,
and the expansion-rate diagnostics for the spike response.
"""

from mfsmp import (OptimizerOptions, adjoint_gradient, brute_force, necessary_check, optimize,
                   sufficiency_check)
from mfsmp.instances import random_lq, random_spike
from mfsmp.smp import rate_check

# convex weights and no mean-field coupling, so all four sufficiency
# sub-checks (including the nonnegative mean-gradient one) can hold
spec = random_lq(seed=2, n_max=2, r_max=1, d_max=1, steps_max=1, convex=True,
                 mean_field=False)
tree = spec.build_tree()
print("instance: n =", spec.n, " steps =", spec.grid.n_steps,
      " control nodes =", sum(tree.size(k) for k in range(spec.grid.n_steps + 1)))

result = optimize(spec, tree, options=OptimizerOptions(grad_tol=1e-9))
print(f"optimizer: J = {result.cost:.10f} after {result.iterations} iterations "
      f"({result.reason})")

u_star, j_star = brute_force(spec, tree, grid_per_axis=101)
print(f"grid oracle (101 points/axis): J = {j_star:.10f}   gap = {abs(result.cost - j_star):.2e}")

g, traj, adj = adjoint_gradient(spec, tree, result.u, return_all=True)
print(necessary_check(spec, result.u, g, tol=1e-6).summary_line())
report = sufficiency_check(spec, tree, traj, adj, result.u)
print(report.summary_line())
for note in report.notes:
    print("  note:", note)

spike = random_spike(spec, tree, result.u, seed=3, scale=1e-1, max_scale=1e-1, step=0)
print(rate_check(spec, tree, result.u, spike).summary_line())

print("\ndescent history (J, projected-gradient norm):")
for row in result.history[:5]:
    print(f"  {row[0]:.10f}  {row[1]:.3e}")
if len(result.history) > 5:
    print(f"  ... {len(result.history) - 5} more rows")
