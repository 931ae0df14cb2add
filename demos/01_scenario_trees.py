"""Scenario trees: exact probability spaces for discrete-time noise.

Builds binary and trinomial lattices, checks the increment moment conditions,
and shows that expectations and conditional expectations are exact finite sums
(tower property to machine precision).
"""

import numpy as np

from mfsmp import NoiseModel, TimeGrid, build_tree, cond_expect, expect, validate_noise

# A grid with N = 2 control steps: states live on times 0, h, 2h, 3h.
grid = TimeGrid(t0=0.0, h=0.5, n_steps=2)

# The minimal admissible increment law: +-sqrt(h) with equal probability.
binary = NoiseModel.binary(dim=1, step=grid.h)
print("binary support:", binary.values, "probs:", binary.probs)
print(validate_noise(binary).summary_line())

# A trinomial law spends one extra branch per step on a mass at zero.
trinomial = NoiseModel.trinomial(dim=1, step=grid.h, p=0.2)
print("trinomial support:", trinomial.values, "probs:", trinomial.probs)
print(validate_noise(trinomial).summary_line())

tree = build_tree(grid, binary)
print("\nlevel sizes:", tree.level_sizes)
print("leaf path probabilities:", tree.abs_prob[-1])

# Expectations are plain weighted sums over a level.
rng = np.random.default_rng(0)
z = rng.normal(size=(tree.size(2), 3))
print("\nE[z] at level 2:", expect(tree, z, 2))

# Conditioning averages each node's children with the branch probabilities;
# iterating it reproduces the total expectation exactly (tower property).
z_leaf = rng.normal(size=(tree.size(3), 3))
inner = cond_expect(tree, z_leaf, 3)
print("tower property gap:",
      np.max(np.abs(expect(tree, inner, 2) - expect(tree, z_leaf, 3))))

# Increments have zero conditional mean and conditional second moment h.
inc = tree.increments(1)
print("E[w | root]:", cond_expect(tree, inc, 1)[0],
      "  E[w^2 | root] - h:", cond_expect(tree, inc ** 2, 1)[0] - grid.h)
