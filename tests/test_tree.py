import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfsmp.errors import MfsmpError, TreeSizeError
from mfsmp.tree import (AdaptedProcess, NoiseModel, TimeGrid, build_tree, cond_expect,
                        cond_expect_noise, expect, tree_invariants_report, validate_noise)


def test_binary_one_step_two_leaves():
    tree = build_tree(TimeGrid(0.0, 1.0, 0), NoiseModel.binary(1, 1.0))
    assert tree.level_sizes == [1, 2]
    np.testing.assert_allclose(tree.abs_prob[1], [0.5, 0.5])
    np.testing.assert_allclose(sorted(tree.increments(1)[:, 0]), [-1.0, 1.0])


def test_product_law_two_components():
    tree = build_tree(TimeGrid(0.0, 1.0, 0), NoiseModel.binary(2, 1.0))
    assert tree.level_sizes == [1, 4]
    np.testing.assert_allclose(tree.abs_prob[1], 0.25)


def test_three_step_path_probabilities():
    tree = build_tree(TimeGrid(0.0, 0.5, 2), NoiseModel.binary(1, 0.5))
    assert tree.level_sizes == [1, 2, 4, 8]
    # product of conditional probabilities along each path
    for level in range(1, 4):
        index = np.arange(tree.size(level))
        manual = tree.support_prob[index % tree.branch].copy()
        manual *= tree.abs_prob[level - 1][index // tree.branch]
        np.testing.assert_allclose(tree.abs_prob[level], manual, atol=1e-15)
    np.testing.assert_allclose(tree.abs_prob[3], 1.0 / 8.0)


def test_node_cap_guard():
    with pytest.raises(TreeSizeError, match="too large"):
        build_tree(TimeGrid(0.0, 1.0, 25), NoiseModel.binary(1, 1.0), node_cap=1000)


def test_grid_validation():
    with pytest.raises(MfsmpError):
        TimeGrid(0.0, 0.0, 1)
    with pytest.raises(MfsmpError):
        TimeGrid(0.0, 1.0, -1)


def test_validate_noise_binary_exact():
    report = validate_noise(NoiseModel.binary(1, 1.0), tol=1e-14)
    assert report.passed
    bounded = [r for r in report.residuals if np.isfinite(r.tol)]
    assert max(r.value for r in bounded) <= 1e-14


def test_validate_noise_trinomial():
    # {-a, 0, +a} with tail mass p and 2 p a^2 = h hits all moment targets
    report = validate_noise(NoiseModel.trinomial(2, 0.5, 0.2), tol=1e-14)
    assert report.passed


def test_validate_noise_one_point_fails_mean():
    model = NoiseModel(1, 1.0, [1.0], [1.0])
    report = validate_noise(model, tol=1e-14)
    assert not report.passed
    mean_res = [r for r in report.residuals if r.label.startswith("|E w^1|")][0]
    assert mean_res.value == pytest.approx(1.0)


def test_noise_model_rejects_bad_probabilities():
    with pytest.raises(MfsmpError):
        NoiseModel(1, 1.0, [1.0, -1.0], [0.7, 0.2])
    with pytest.raises(MfsmpError):
        NoiseModel(1, 1.0, [1.0, -1.0], [1.0, -0.0])
    with pytest.raises(MfsmpError):
        NoiseModel.trinomial(1, 1.0, p=0.6)


def test_cond_expect_examples():
    tree = build_tree(TimeGrid(0.0, 1.0, 0), NoiseModel.binary(1, 1.0))
    np.testing.assert_allclose(cond_expect(tree, np.array([7.0, 7.0]), 1), [7.0])
    vals = np.array([3.0, 1.0])
    assert cond_expect(tree, vals, 1)[0] == pytest.approx(2.0)
    # increments come out as (+1, -1) at unit step: 0.5*3*1 + 0.5*1*(-1) = 1,
    # the conditional covariation that defines the martingale part of a costate
    np.testing.assert_array_equal(tree.increments(1)[:, 0], [1.0, -1.0])
    weighted = vals * tree.increments(1)[:, 0]
    assert cond_expect(tree, weighted, 1)[0] == pytest.approx(1.0)


def test_expect_examples():
    tree = build_tree(TimeGrid(0.0, 1.0, 1), NoiseModel.binary(1, 1.0))
    root = AdaptedProcess.constant(tree, 0, 0, [4.0])
    assert expect(tree, root, 0) == pytest.approx(4.0)
    assert expect(tree, AdaptedProcess.constant(tree, 2, 2, [2.5]), 2) == pytest.approx(2.5)


def test_usage_errors():
    tree = build_tree(TimeGrid(0.0, 1.0, 0), NoiseModel.binary(1, 1.0))
    with pytest.raises(MfsmpError):
        cond_expect(tree, np.zeros(2), 0)       # root has no parent level
    with pytest.raises(MfsmpError):
        cond_expect(tree, np.zeros(3), 1)       # wrong node count
    with pytest.raises(MfsmpError):
        expect(tree, np.zeros(2), 5)            # level out of range


def test_adapted_process_range():
    tree = build_tree(TimeGrid(0.0, 1.0, 1), NoiseModel.binary(1, 1.0))
    proc = AdaptedProcess.zeros(tree, 1, 2, (2,))
    assert proc.at(1).shape == (2, 2)
    with pytest.raises(MfsmpError):
        proc.at(0)
    with pytest.raises(MfsmpError):
        AdaptedProcess(tree, 0, [np.zeros((3, 1))])  # wrong level size


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_tower_property(seed):
    """E[E[z | parent]] equals E[z], exactly up to roundoff, on a 3-level tree."""
    tree = build_tree(TimeGrid(0.0, 0.5, 1), NoiseModel.trinomial(1, 0.5, 0.25))
    rng = np.random.default_rng(seed)
    for level in (1, 2):
        z = rng.uniform(-5.0, 5.0, (tree.size(level), 2))
        inner = cond_expect(tree, z, level)
        lhs = expect(tree, z, level)
        rhs = expect(tree, inner, level - 1)
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_martingale_increments_and_probability_sums():
    tree = build_tree(TimeGrid(0.0, 0.25, 3), NoiseModel.binary(2, 0.25))
    h = tree.grid.h
    for level in range(1, tree.n_levels):
        inc = tree.increments(level)
        assert np.max(np.abs(cond_expect(tree, inc, level))) <= 1e-14
        assert np.max(np.abs(cond_expect(tree, inc ** 2, level) - h)) <= 1e-13
        assert abs(tree.abs_prob[level].sum() - 1.0) <= 1e-14
    assert tree_invariants_report(tree).passed


CUSTOM_SUPPORT = [(-1.5, 0.1), (-0.2, 0.4), (0.3, 0.3), (0.9, 0.2)]
LATTICES = {
    "binary-d1": lambda h: NoiseModel.binary(1, h),
    "binary-d2": lambda h: NoiseModel.binary(2, h),
    "trinomial": lambda h: NoiseModel.trinomial(1, h, 0.2),
    "custom": lambda h: NoiseModel.from_support(1, h, CUSTOM_SUPPORT),
}


def _pairing(tree, level, a, b):
    """Probability-weighted inner product <a, b>_level of node values."""
    return float(expect(tree, np.sum(a * b, axis=tuple(range(1, a.ndim))), level))


@pytest.mark.parametrize("lattice", sorted(LATTICES))
def test_children_transpose_identity(lattice):
    # <children(base, diff), v>_{k+1} = <base, E{v|F}>_k + sum_j <diff_j, E{v w^j|F}>_k
    tree = build_tree(TimeGrid(0.0, 0.5, 2), LATTICES[lattice](0.5))
    d, n = tree.noise.dim, 3
    rng = np.random.default_rng(7)
    for k in range(tree.grid.n_steps + 1):
        base = rng.normal(size=(tree.size(k), n))
        diff = rng.normal(size=(tree.size(k), d, n))
        v = rng.normal(size=(tree.size(k + 1), n))
        lhs = _pairing(tree, k + 1, tree.children(k, base, diff), v)
        rhs = (_pairing(tree, k, base, cond_expect(tree, v, k + 1))
               + _pairing(tree, k, diff, cond_expect_noise(tree, v, k + 1)))
        assert abs(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("lattice", sorted(LATTICES))
def test_children_batch_axis_matches_rows(lattice):
    tree = build_tree(TimeGrid(0.0, 0.5, 1), LATTICES[lattice](0.5))
    d, n = tree.noise.dim, 2
    rng = np.random.default_rng(3)
    base = rng.normal(size=(2, 3, tree.size(1), n))
    diff = rng.normal(size=(2, 3, tree.size(1), d, n))
    batched = tree.children(1, base, diff)
    assert batched.shape == (2, 3, tree.size(2), n)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(batched[i, j], tree.children(1, base[i, j], diff[i, j]))


def test_tree_stores_support_not_tiled_levels():
    # the tree holds path probabilities and the B-point support; edge
    # increments tiled over any level, parents or edge probabilities would
    # exceed this bound
    tree = build_tree(TimeGrid(0.0, 0.25, 7), NoiseModel.binary(2, 0.25))
    held = 0
    for value in vars(tree).values():
        for item in (value if isinstance(value, (list, tuple)) else (value,)):
            if isinstance(item, np.ndarray):
                held += item.nbytes
    assert held <= 8 * tree.n_nodes + 4096
    assert not tree.increments(3).flags.writeable


def test_children_rejects_levels_outside_the_steps():
    # children(k, ...) lifts level k onto k + 1, so k runs over 0..N
    tree = build_tree(TimeGrid(0.0, 0.5, 1), NoiseModel.binary(1, 0.5))
    n_steps = tree.grid.n_steps
    tree.children(n_steps, np.zeros((tree.size(n_steps), 1)), np.zeros((tree.size(n_steps), 1, 1)))
    for level in (-1, n_steps + 1):
        with pytest.raises(MfsmpError, match="outside tree range"):
            tree.children(level, np.zeros((2, 1)), np.zeros((2, 1, 1)))


@pytest.mark.parametrize("batch", [(), (3,)], ids=["rows", "batch"])
def test_children_rejects_a_base_of_another_level(batch):
    # level 1 of a binary tree has 2 nodes: a base of 1 or 4 nodes would lift
    # without error, as no array of the lift has the level's size
    tree = build_tree(TimeGrid(0.0, 0.5, 2), NoiseModel.binary(1, 0.5))
    for m in (1, 4):
        with pytest.raises(MfsmpError, match="level 1: expected 2 node values, got " + str(m)):
            tree.children(1, np.zeros(batch + (m, 1)), np.zeros(batch + (m, 1, 1)))


LIFT_NOISES = {
    "binary": lambda d, h: NoiseModel.binary(d, h),
    "trinomial": lambda d, h: NoiseModel.trinomial(d, h, 0.2),
    "custom": lambda d, h: NoiseModel.from_support(d, h, CUSTOM_SUPPORT),
}


def _einsum_lift(tree, level, base, diff):
    """The lift as one broadcast einsum over repeated `diff`: the reference
    whose bits `children` keeps."""
    inc = tree.increments(level + 1)
    return (np.repeat(base, tree.branch, axis=-2)
            + np.einsum("cj,...cjn->...cn", inc, np.repeat(diff, tree.branch, axis=-3)))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("batch", [(), (3,)], ids=["rows", "batch"])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", sorted(LIFT_NOISES))
def test_children_matches_einsum_lift_bitwise(kind, d, batch, dtype):
    tree = build_tree(TimeGrid(0.0, 0.5, 2), LIFT_NOISES[kind](d, 0.5))
    n = 3
    rng = np.random.default_rng(11)

    def draw(shape):
        out = rng.normal(size=shape)
        return out + 1j * rng.normal(size=shape) if dtype is complex else out

    for k in range(tree.grid.n_steps + 1):
        base = draw(batch + (tree.size(k), n))
        diff = draw(batch + (tree.size(k), d, n))
        lifted = tree.children(k, base, diff)
        reference = _einsum_lift(tree, k, base, diff)
        assert lifted.dtype == reference.dtype and lifted.shape == reference.shape
        assert lifted.tobytes() == reference.tobytes()


def _repeat_lift(tree, level, base, diff):
    """The lift in fresh arrays: one repeat and one multiply-add per noise
    component, and the repeated base added last.  The reference whose bits
    the in-place `children` keeps."""
    inc = tree.increments(level + 1)
    noise = inc[:, 0, None] * np.repeat(diff[..., 0, :], tree.branch, axis=-2)
    for j in range(1, inc.shape[1]):
        noise += inc[:, j, None] * np.repeat(diff[..., j, :], tree.branch, axis=-2)
    return np.repeat(base, tree.branch, axis=-2) + noise


@pytest.mark.parametrize("values", ["float", "complex", "complex base"])
@pytest.mark.parametrize("batch", [(), (5,)], ids=["rows", "batch"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(LIFT_NOISES))
def test_children_matches_repeat_lift_bitwise(kind, d, batch, values):
    # "complex base" lifts a complex base over a real diff, as the complex
    # step does at level 0; signed zeros in both then show a cast made
    # before the products, whose imaginary parts would be -0.0
    noise = LIFT_NOISES[kind](d, 0.5)
    tree = build_tree(TimeGrid(0.0, 0.5, 2 if noise.branch_count <= 16 else 1), noise)
    n = 3
    rng = np.random.default_rng(13)

    def draw(shape, complex_values):
        out = np.empty(shape, dtype=complex if complex_values else float)
        parts = (out.real, out.imag) if complex_values else (out,)
        for part in parts:
            part[...] = rng.normal(size=shape)
            part[rng.random(shape) < 0.2] = -0.0
            part[rng.random(shape) < 0.1] = 0.0
        return out

    for k in range(tree.grid.n_steps + 1):
        base = draw(batch + (tree.size(k), n), values != "float")
        diff = draw(batch + (tree.size(k), d, n), values == "complex")
        lifted = tree.children(k, base, diff)
        reference = _repeat_lift(tree, k, base, diff)
        assert lifted.dtype == reference.dtype and lifted.shape == reference.shape
        assert lifted.tobytes() == reference.tobytes()
