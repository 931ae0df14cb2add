"""Finite scenario trees: exact filtered probability spaces for discrete-time noise.

A tree realizes the noise lattice of a discrete-time system on times
t_k = t0 + k*h, k = 0..N+1.  Edges from level k to k+1 carry the step-k noise
increment (a point of the joint finite support) and its conditional
probability, so every expectation and conditional expectation is an exact
finite sum.  The step-k increments sit on level k+1, and every node's
children carry the support in one order, so the tree stores only the support.
"""

from dataclasses import dataclass
import itertools

import numpy as np

from .errors import MfsmpError, TreeSizeError
from .report import CheckReport

DEFAULT_NODE_CAP = 1_000_000


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = t0 + k*h with N control steps (states live on 0..N+1)."""

    t0: float
    h: float
    n_steps: int

    def __post_init__(self):
        if not self.h > 0:
            raise MfsmpError(f"step size must be positive, got h={self.h}")
        if self.n_steps < 0:
            raise MfsmpError(f"number of control steps must be >= 0, got {self.n_steps}")

    @property
    def n_levels(self) -> int:
        return self.n_steps + 2

    def time(self, k: int) -> float:
        return self.t0 + k * self.h


class NoiseModel:
    """Finite-support law of one noise increment, satisfying the moment conditions.

    Each of the `dim` components is an independent scalar with zero mean and
    second moment equal to the grid step, all on one support `values` with
    probabilities `probs`; joint increments are the product distribution,
    which makes cross second moments h times the identity.
    """

    def __init__(self, dim, step, values, probs, kind="custom", params=None):
        if dim < 1:
            raise MfsmpError(f"noise dimension must be >= 1, got {dim}")
        self.dim = int(dim)
        self.step = float(step)
        self.values = np.asarray(values, dtype=float)
        self.probs = np.asarray(probs, dtype=float)
        self.kind = kind
        self.params = dict(params or {})
        if self.values.ndim != 1 or self.probs.shape != self.values.shape or self.values.size == 0:
            raise MfsmpError("support and probabilities must be equal-length 1-d")
        if np.any(self.probs <= 0.0):
            raise MfsmpError("probabilities must be positive")
        if abs(self.probs.sum() - 1.0) > 1e-12:
            raise MfsmpError(f"probabilities sum to {float(self.probs.sum())!r}, not 1")

    @classmethod
    def binary(cls, dim, step):
        """Symmetric two-point law +-sqrt(h), the minimal admissible increment."""
        a = np.sqrt(step)
        return cls(dim, step, [a, -a], [0.5, 0.5], kind="binary")

    @classmethod
    def trinomial(cls, dim, step, p=0.25):
        """Three-point law {-a, 0, +a} with P(+-a) = p and 2*p*a^2 = h."""
        if not 0.0 < p < 0.5:
            raise MfsmpError(f"trinomial tail probability must lie in (0, 0.5), got {p}")
        a = np.sqrt(step / (2.0 * p))
        return cls(dim, step, [-a, 0.0, a], [p, 1.0 - 2.0 * p, p],
                   kind="trinomial", params={"p": float(p)})

    @classmethod
    def from_support(cls, dim, step, support):
        """Custom support of every component given as [(value, prob), ...]."""
        return cls(dim, step, [s[0] for s in support], [s[1] for s in support],
                   kind="custom", params={"support": [[float(v), float(p)] for v, p in support]})

    @property
    def branch_count(self) -> int:
        return self.values.size ** self.dim

    def joint_support(self):
        """Product law across components: (values (B, dim), probs (B,))."""
        grid = np.array(list(itertools.product(range(self.values.size), repeat=self.dim)))
        return self.values[grid], np.prod(self.probs[grid], axis=1)


def validate_noise(noise: NoiseModel, tol: float = 1e-14) -> CheckReport:
    """Check the increment moment conditions: zero mean, second moment h,
    diagonal cross moments, finite fourth moment (the latter is reported,
    not tolerance-bounded; it is automatic for finite support)."""
    report = CheckReport("noise-moments")
    h = noise.step
    vals, probs = noise.joint_support()
    mean = probs @ vals
    for j in range(noise.dim):
        report.add(f"|E w^{j+1}|", abs(mean[j]), tol)
    second = np.einsum("b,bm,bl->ml", probs, vals, vals)
    for m in range(noise.dim):
        for l in range(noise.dim):
            target = h if m == l else 0.0
            report.add(f"|E w^{m+1} w^{l+1} - {'h' if m == l else '0'}|",
                       abs(second[m, l] - target), tol)
    fourth = probs @ (vals ** 4)
    for j in range(noise.dim):
        report.add(f"E (w^{j+1})^4 (finite)", float(fourth[j]), np.inf)
    return report


class ScenarioTree:
    """Immutable event tree over levels 0..N+1 built from a product noise law.

    Every node has `branch` = B children, one per point of the joint noise
    support: the children of node i at level k are the level-k+1 nodes
    i*B .. (i+1)*B - 1, and child i*B + b carries the increment `support[b]`
    on its incoming edge with conditional probability `support_prob[b]`, so
    a node's parent is its index // B.  `abs_prob[k]` holds the path
    probabilities of level k.
    """

    def __init__(self, grid, noise, support, support_prob, abs_prob):
        self.grid = grid
        self.noise = noise
        self.support = support
        self.support_prob = support_prob
        self.abs_prob = abs_prob
        self.branch = noise.branch_count
        self.level_sizes = [a.size for a in abs_prob]
        self.n_levels = len(self.level_sizes)
        self._offsets = np.concatenate([[0], np.cumsum(self.level_sizes)])

    @property
    def n_nodes(self) -> int:
        return int(self._offsets[-1])

    def size(self, level: int) -> int:
        return self.level_sizes[level]

    def global_id(self, level: int, index) -> int:
        return self._offsets[level] + index

    def increments(self, level: int) -> np.ndarray:
        """The step `level - 1` noise increment on the incoming edge of each
        level-`level` node, (m_level, d); a read-only copy built on demand."""
        self._check_level(level, lo=1)
        inc = np.tile(self.support, (self.level_sizes[level - 1], 1))
        inc.flags.writeable = False
        return inc

    def children(self, level: int, base, diff) -> np.ndarray:
        """Lift `base` (..., m, n) and `diff` (..., m, d, n) of level `level`,
        leading axes a batch, to the children: child c of node i gets
        base[i] + sum_j w^j_c diff[i, j], w_c the increment on its edge.  Its
        transpose is (cond_expect, cond_expect_noise) of the child values.
        The child level is one (..., m, B, n) array: noise terms in order, then the base."""
        self._check_level(level + 1, lo=1)  # children of levels 0..N only
        self._check_level(level, nodes=base.shape[-2])
        # every node's children carry the support in one order
        shape = diff.shape[:-3] + (-1, self.branch, diff.shape[-1])  # (..., m, B, n)
        noise = diff[..., 0, :].repeat(self.branch, axis=-2).reshape(shape)
        noise *= self.support[:, 0, None]
        for j in range(1, self.noise.dim):
            term = diff[..., j, :].repeat(self.branch, axis=-2).reshape(shape)
            term *= self.support[:, j, None]
            noise += term
            del term
        # cast after the products, which stay real under a complex base over a real diff
        noise = noise.astype(np.result_type(base, noise), copy=False)
        noise += base[..., None, :]
        return noise.reshape(noise.shape[:-3] + (-1, noise.shape[-1]))

    def _check_level(self, level, lo=0, nodes=None):
        if not lo <= level < self.n_levels:
            raise MfsmpError(f"level {level} outside tree range 0..{self.n_levels - 1}")
        if nodes is not None and nodes != self.size(level):
            raise MfsmpError(f"level {level}: expected {self.size(level)} node values, got {nodes}")


def build_tree(grid: TimeGrid, noise: NoiseModel, node_cap: int = DEFAULT_NODE_CAP) -> ScenarioTree:
    """Enumerate the full lattice: branching factor = (support size)^dim per node,
    depth N+1.  Refuses instances whose node count exceeds `node_cap`."""
    if abs(noise.step - grid.h) > 1e-12 * max(1.0, grid.h):
        raise MfsmpError(
            f"noise second moment target {noise.step} does not match grid step {grid.h}")
    branch = noise.branch_count
    total, width = 1, 1
    for _ in range(grid.n_levels - 1):
        width *= branch
        total += width
        if total > node_cap:
            raise TreeSizeError(
                f"instance too large for exact enumeration: more than {node_cap} nodes "
                f"(branching {branch}, depth {grid.n_levels - 1})")

    joint_vals, joint_probs = noise.joint_support()
    abs_prob = [np.array([1.0])]
    for _ in range(grid.n_levels - 1):
        abs_prob.append((abs_prob[-1][:, None] * joint_probs).reshape(-1))
    return ScenarioTree(grid, noise, joint_vals, joint_probs, abs_prob)


class AdaptedProcess:
    """Values attached to every node of a contiguous level range.

    Measurability is by construction: the level-k array is indexed by level-k
    nodes only.  The value shape (vector, matrix, ...) is fixed across levels.
    """

    def __init__(self, tree, first_level, arrays):
        arrays = [np.asarray(a, dtype=float) for a in arrays]
        if not arrays:
            raise MfsmpError("adapted process needs at least one level")
        shape = arrays[0].shape[1:]
        for off, a in enumerate(arrays):
            k = first_level + off
            tree._check_level(k, nodes=a.shape[0])
            if a.shape[1:] != shape:
                raise MfsmpError(f"level {k}: value shape {a.shape[1:]} differs from {shape}")
        self.tree = tree
        self.first_level = first_level
        self._arrays = arrays

    @classmethod
    def zeros(cls, tree, first_level, last_level, shape=()):
        if isinstance(shape, int):
            shape = (shape,)
        arrays = [np.zeros((tree.size(k),) + tuple(shape))
                  for k in range(first_level, last_level + 1)]
        return cls(tree, first_level, arrays)

    @classmethod
    def constant(cls, tree, first_level, last_level, value):
        value = np.asarray(value, dtype=float)
        arrays = [np.broadcast_to(value, (tree.size(k),) + value.shape).copy()
                  for k in range(first_level, last_level + 1)]
        return cls(tree, first_level, arrays)

    @property
    def last_level(self) -> int:
        return self.first_level + len(self._arrays) - 1

    @property
    def value_shape(self) -> tuple:
        return self._arrays[0].shape[1:]

    def levels(self):
        return range(self.first_level, self.last_level + 1)

    def at(self, level: int) -> np.ndarray:
        if not self.first_level <= level <= self.last_level:
            raise MfsmpError(
                f"process defined on levels {self.first_level}..{self.last_level}, asked for {level}")
        return self._arrays[level - self.first_level]

    def set_level(self, level: int, values):
        values = np.asarray(values, dtype=float)
        current = self.at(level)
        if values.shape != current.shape:
            raise MfsmpError(f"level {level}: shape {values.shape} != {current.shape}")
        self._arrays[level - self.first_level] = values

    def copy(self):
        return AdaptedProcess(self.tree, self.first_level, [a.copy() for a in self._arrays])


def _level_values(tree, proc, level):
    if isinstance(proc, AdaptedProcess):
        return proc.at(level)
    values = np.asarray(proc, dtype=float)
    tree._check_level(level, nodes=values.shape[0])
    return values


def cond_expect(tree, proc, level):
    """Conditional expectation of level-`level` values given the level-1
    partition: the array over level-1 parent nodes (exact weighted sums over
    children)."""
    tree._check_level(level)
    if level == 0:
        raise MfsmpError("level-0 values have no parent level to condition on")
    values = _level_values(tree, proc, level)
    shaped = values.reshape((tree.size(level - 1), tree.branch) + values.shape[1:])
    return np.einsum("mb...,b->m...", shaped, tree.support_prob)


def cond_expect_noise(tree, proc, level):
    """E{v w^j | parent} for each noise component j, with w the increment on
    each level-`level` node's incoming edge; shape (m_parent, d) + value shape."""
    tree._check_level(level, lo=1)
    values = _level_values(tree, proc, level)
    shaped = values.reshape((-1, tree.branch, 1) + values.shape[1:])
    support = tree.support.reshape(tree.support.shape + (1,) * (values.ndim - 1))
    return np.einsum("mb...,b->m...", shaped * support, tree.support_prob)  # as `cond_expect`


def expect(tree, proc, level):
    """Unconditional expectation at a level: absolute-probability weighted sum."""
    tree._check_level(level)
    values = _level_values(tree, proc, level)
    return np.einsum("m...,m->...", values, tree.abs_prob[level])


def tree_invariants_report(tree: ScenarioTree, tol: float = 1e-14) -> CheckReport:
    """Structural checks: probability normalization, martingale increments,
    conditional second moments of the increments."""
    report = CheckReport("tree-invariants")
    h = tree.grid.h
    for k in range(tree.n_levels):
        report.add(f"|sum abs_prob - 1| @level {k}", abs(tree.abs_prob[k].sum() - 1.0), tol, level=k)
    report.add("|sum support_prob - 1|", abs(float(tree.support_prob.sum()) - 1.0), tol)
    for k in range(1, tree.n_levels):
        inc = tree.increments(k)
        mean = cond_expect(tree, inc, k)
        report.add(f"max |E(w | parent)| @step {k - 1}", float(np.max(np.abs(mean))), tol, level=k)
        second = cond_expect(tree, inc ** 2, k)
        report.add(f"max |E(w^2 | parent) - h| @step {k - 1}",
                   float(np.max(np.abs(second - h))), 10 * tol, level=k)
    return report
