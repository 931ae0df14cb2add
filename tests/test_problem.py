import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfsmp.errors import ConfigError, MfsmpError, TreeSizeError
from mfsmp.forward import _rows, constant_control, cost
from mfsmp.instances import (e1_problem, random_control, random_lq, random_prodcons,
                             smooth_nonlinear)
from mfsmp.problem import (AdmissibleSet, builtin, parse_problem, serialize_problem,
                           to_config, validate_spec)
from mfsmp.tree import NoiseModel, TimeGrid, build_tree, exceeds_node_cap

MINIMAL_LQ = {
    "dims": {"n": 1, "r": 1, "d": 1},
    "grid": {"t0": 0.0, "h": 1.0, "N": 0},
    "noise": {"kind": "binary"},
    "x0": [0.0],
    "family": {"name": "lq_meanfield", "params": {"R": [[2.0]]}},
    "admissible": [{"t": "all", "lo": [-1.0], "hi": [1.0]}],
    "direction": "minimize",
}


def test_parse_minimal_lq():
    spec = parse_problem(json.dumps(MINIMAL_LQ))
    assert (spec.n, spec.r, spec.d) == (1, 1, 1)
    tree = spec.build_tree()
    assert tree.level_sizes == [1, 2]


def test_parse_prodcons_figure_setup():
    cfg = {
        "dims": {"n": 1, "r": 1, "d": 1},
        "grid": {"t0": 0.0, "h": 0.5, "N": 5},
        "noise": {"kind": "binary"},
        "x0": [1.0],
        "family": {"name": "prodcons", "params": {"delta_util": 0.5, "depreciation": 0.5}},
        "admissible": [{"t": "all", "lo": [1e-06], "hi": ["inf"]}],
        "direction": "maximize",
    }
    spec = parse_problem(json.dumps(cfg))
    assert spec.grid.n_steps == 5 and spec.grid.h == 0.5
    assert spec.direction == "maximize"
    assert spec.build_tree().level_sizes[-1] == 64


@pytest.mark.parametrize("mutate, message", [
    (lambda c: c.update(extra=1), "unknown top-level"),
    (lambda c: c.pop("dims"), "missing top-level"),
    (lambda c: c.update(tables={}), "exactly one of"),
    (lambda c: c["admissible"].__setitem__(0, {"t": "all", "lo": [2.0], "hi": [1.0]}),
     "lo=2.0 > hi=1.0"),
    (lambda c: c["family"]["params"].update(bogus=[[1.0]]), "unknown coefficient keys"),
    (lambda c: c["noise"].update(kind="gaussian"), "unknown noise kind"),
])
def test_parse_rejects_bad_configs(mutate, message):
    cfg = json.loads(json.dumps(MINIMAL_LQ))
    mutate(cfg)
    with pytest.raises((ConfigError, MfsmpError), match=message):
        parse_problem(json.dumps(cfg))


@pytest.mark.parametrize("section, coefficients, key", [
    ("family", {"R": [[2.0]], "A": [[float("nan")]]}, "A"),
    ("family", {"R": [[2.0]], "q": [float("-inf")]}, "q"),
    ("family", {"R": [[2.0]], "sigma": [{"s0": ["inf"]}]}, "sigma[0].s0"),
    ("tables", {"R": {"per_step": [[[2.0]], [[float("inf")]]]}}, "R"),
])
def test_parse_rejects_non_finite_coefficients(section, coefficients, key):
    cfg = json.loads(json.dumps(MINIMAL_LQ))
    cfg["grid"]["N"] = 1
    if section == "tables":
        del cfg["family"]
        cfg["tables"] = coefficients
    else:
        cfg["family"]["params"] = coefficients
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: coefficients must be finite"):
        parse_problem(json.dumps(cfg))


@pytest.mark.parametrize("mutate, message", [
    (lambda c: c.update(x0=[float("nan")]), "x0 must be finite"),
    (lambda c: c["grid"].update(t0=float("inf")), "grid: t0 and h must be finite"),
    (lambda c: c["grid"].update(h=float("nan")), "grid: t0 and h must be finite"),
])
def test_parse_rejects_non_finite_x0_and_grid(mutate, message):
    cfg = json.loads(json.dumps(MINIMAL_LQ))
    mutate(cfg)
    with pytest.raises(ConfigError, match=message):
        parse_problem(json.dumps(cfg))


@pytest.mark.parametrize("mutate, message", [
    (lambda c: c["dims"].update(n="abc"), "dims.n: expected a number, got 'abc'"),
    (lambda c: c["dims"].update(r=None), "dims.r: expected a number, got None"),
    (lambda c: c["dims"].update(d=[1]), r"dims.d: expected a number, got \[1\]"),
    (lambda c: c["grid"].update(N="two"), "grid.N: expected a number, got 'two'"),
    (lambda c: c["grid"].update(t0="abc"), "grid.t0: expected a number, got 'abc'"),
    (lambda c: c["grid"].update(h={}), "grid.h: expected a number, got {}"),
    (lambda c: c.update(x0=["abc"]), r"x0: expected n=1 numbers, got \['abc'\]"),
    (lambda c: c["admissible"][0].update(lo=[None]), "admissible bound: expected a number"),
    (lambda c: c["noise"].update(kind="trinomial", params={"p": "abc"}),
     "noise.params.p: expected a number, got 'abc'"),
    (lambda c: c.update(family={"name": "prodcons", "params": {"delta_util": "abc"}}),
     "family.params.delta_util: expected a number, got 'abc'"),
    (lambda c: c.update(family={"name": "prodcons",
                                "params": {"delta_util": 0.5, "depreciation": [0.5]}}),
     r"family.params.depreciation: expected a number, got \[0.5\]"),
])
def test_parse_names_key_of_non_numeric_scalar(mutate, message):
    cfg = json.loads(json.dumps(MINIMAL_LQ))
    mutate(cfg)
    with pytest.raises(ConfigError, match=f"^{message}"):
        parse_problem(json.dumps(cfg))


@pytest.mark.parametrize("mutate, message", [
    (lambda c: c["grid"].update(N=2.7), "grid.N: expected an integer, got 2.7"),
    (lambda c: c["grid"].update(N=2.0), "grid.N: expected an integer, got 2.0"),
    (lambda c: c["grid"].update(N=True), "grid.N: expected a number, got True"),
    (lambda c: c["grid"].update(N="2"), "grid.N: expected an integer, got '2'"),
    (lambda c: c["dims"].update(n=1.5), "dims.n: expected an integer, got 1.5"),
    (lambda c: c["dims"].update(r=False), "dims.r: expected a number, got False"),
    (lambda c: c["dims"].update(d=1e0), "dims.d: expected an integer, got 1.0"),
    (lambda c: c["dims"].update(n=0), "dims.n: must be >= 1, got 0"),
    (lambda c: c["dims"].update(d=0), "dims.d: must be >= 1, got 0"),
    (lambda c: c["grid"].update(N=-1), "grid.N: number of control steps must be >= 0, got -1"),
    (lambda c: c["grid"].update(h=0.0), "grid.h: step size must be positive, got 0.0"),
    (lambda c: c["grid"].update(h=-1.0), "grid.h: step size must be positive, got -1.0"),
    (lambda c: c["grid"].update(t0=True), "grid.t0: expected a number, got True"),
])
def test_parse_rejects_non_integer_and_out_of_range_fields(mutate, message):
    cfg = json.loads(json.dumps(MINIMAL_LQ))
    mutate(cfg)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_problem(json.dumps(cfg))


def test_parse_keeps_integer_fields_of_to_config():
    spec = random_lq(5, steps_max=3)
    again = parse_problem(json.dumps(to_config(spec)))
    assert (again.n, again.r, again.d, again.grid.n_steps) == (
        spec.n, spec.r, spec.d, spec.grid.n_steps)
    assert all(type(v) is int for v in (again.n, again.r, again.d, again.grid.n_steps))


@pytest.mark.parametrize("coefficients, key", [
    ({"R": [["abc"]]}, "R"),
    ({"R": [[2.0]], "A": [[1.0, 2.0]]}, "A"),
    ({"R": [[2.0]], "sigma": [{"C": [[1.0], [2.0, 3.0]]}]}, "sigma[0].C"),
])
def test_parse_names_key_of_malformed_coefficient(coefficients, key):
    cfg = json.loads(json.dumps(MINIMAL_LQ))
    cfg["family"]["params"] = coefficients
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: expected numbers of shape"):
        parse_problem(json.dumps(cfg))


def test_parse_keeps_infinite_box_bounds():
    cfg = json.loads(json.dumps(MINIMAL_LQ))
    cfg["admissible"] = [{"t": "all", "lo": ["-inf"], "hi": ["inf"]}]
    spec = parse_problem(json.dumps(cfg))
    assert spec.admissible.lo[0, 0] == -np.inf and spec.admissible.hi[0, 0] == np.inf


def test_parse_rejects_non_json():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_problem("{nope")


def test_e1_cost_closed_form(e1):
    spec, tree = e1
    for u in (0.0, 0.5, 1.0, -0.75):
        got = cost(spec, tree, constant_control(spec, tree, u))
        assert got == pytest.approx(2.0 * u ** 2 + 1.0, abs=1e-12)


def test_zero_family_cost_is_frozen_terminal():
    spec = builtin("lq_meanfield", n=1, r=1, d=1, h=1.0, N=1, x0=[2.0],
                   G=[[2.0]], lo=-1.0, hi=1.0)
    tree = spec.build_tree()
    assert cost(spec, tree, constant_control(spec, tree, 0.3)) == pytest.approx(4.0)


def test_prodcons_requires_unit_interval_exponent():
    with pytest.raises(ConfigError, match="\\(0, 1\\)"):
        builtin("prodcons", delta_util=1.2, h=0.5, N=2, x0=1.0)
    with pytest.raises(ConfigError, match="unknown builtin"):
        builtin("mystery")


@pytest.mark.parametrize("change, key", [
    ({"N": 2.5}, "grid.N"),
    ({"n": 0}, "dims.n"),
    ({"r": 1.7}, "dims.r"),
    ({"t0": float("inf")}, "grid"),
    ({"noise": "trinomial", "trinomial_p": 0.0}, "noise.params.p"),
    ({"x0": [0.0, 0.0]}, "x0"),
], ids=["fractional-N", "zero-n", "fractional-r", "infinite-t0", "trinomial-p-zero",
        "long-x0"])
def test_builtin_refuses_what_the_parser_refuses(change, key):
    # builtin keywords go through the config parser, so they meet its checks
    keywords = dict(n=1, r=1, d=1, h=1.0, N=1, x0=[0.0], R=[[1.0]], lo=-1.0, hi=1.0)
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}[:. ]"):
        builtin("lq_meanfield", **{**keywords, **change})


def _tree_refused(n_steps, law):
    try:
        build_tree(TimeGrid(0.0, 1.0, n_steps), law)
    except TreeSizeError:
        return True
    return False


@pytest.mark.parametrize("kind, steps", [("binary", range(15, 21)), ("trinomial", range(9, 14)),
                                         ("binary", [40, 10 ** 7, 10 ** 9])],
                         ids=["binary", "trinomial", "binary-huge"])
def test_parse_refuses_a_grid_past_the_node_cap(kind, steps):
    # the parser counts the tree's nodes before it allocates per-step tables,
    # and refuses exactly the grids whose tree `build_tree` refuses
    law = NoiseModel.binary(1, 1.0) if kind == "binary" else NoiseModel.trinomial(1, 1.0, 0.25)
    for n_steps in steps:
        cfg = json.dumps(dict(MINIMAL_LQ, grid={"t0": 0.0, "h": 1.0, "N": n_steps},
                              noise={"kind": kind}))
        if n_steps > 100 or _tree_refused(n_steps, law):
            with pytest.raises(ConfigError, match=rf"^grid\.N: {n_steps} steps "):
                parse_problem(cfg)
        else:
            assert parse_problem(cfg).grid.n_steps == n_steps


def test_node_cap_count_stops_past_the_cap():
    for branch in (2, 3, 5):
        for n_levels in range(1, 12):
            nodes = sum(branch ** k for k in range(n_levels))
            for cap in (nodes - 1, nodes):
                assert exceeds_node_cap(branch, n_levels, cap) is (nodes > cap)
    assert exceeds_node_cap(2, 10 ** 18)  # stops after about 20 levels


STEP_EVALUATORS = ("f", "f_x", "f_y", "f_u", "sigma", "sigma_x", "sigma_y", "sigma_u",
                   "l", "l_x", "l_y", "l_u")


@pytest.mark.parametrize("name", STEP_EVALUATORS)
def test_lq_evaluators_reject_steps_outside_grid(name):
    # a negative step used to wrap to the last table row, N + 1 to fail as IndexError
    spec = builtin("lq_meanfield", n=1, r=1, d=1, h=0.5, N=2, x0=[0.0],
                   A=[[1.0]], B=[[1.0]], R=[[1.0]], lo=-1.0, hi=1.0)
    fn = getattr(spec.coeffs, name)
    x, u = np.zeros((1, 1)), np.zeros((1, 1))
    fn(2, x, x, u)
    for k in (-1, 3):
        with pytest.raises(MfsmpError, match=f"^coefficient step {k} outside 0..2$"):
            fn(k, x, x, u)


def test_tables_drift_read_by_step_not_wrapped():
    cfg = json.loads(json.dumps(MINIMAL_LQ))
    cfg["grid"]["N"] = 1
    cfg.pop("family")
    cfg["tables"] = {"A": {"per_step": [[[1.0]], [[5.0]]]}}
    coeffs = parse_problem(json.dumps(cfg)).coeffs
    x = np.ones((1, 1))
    assert coeffs.f(1, x, 0 * x, 0 * x)[0, 0] == 5.0
    with pytest.raises(MfsmpError, match="coefficient step -1 outside 0..1"):
        coeffs.f(-1, x, 0 * x, 0 * x)


def test_validate_spec_builtins_pass():
    assert validate_spec(e1_problem()).passed
    assert validate_spec(random_prodcons(3)).passed
    assert validate_spec(random_lq(5)).passed


def test_validate_spec_flags_wrong_partial():
    spec = e1_problem()
    broken = dataclasses.replace(
        spec.coeffs, f_x=lambda k, x, y, u: np.full((x.shape[0], 1, 1), 0.5))
    bad = dataclasses.replace(spec, coeffs=broken)
    report = validate_spec(bad)
    assert not report.passed
    res = [r for r in report.residuals if r.label == "fd[f_x]"][0]
    assert res.value >= 1e-2


def test_validate_spec_names_a_wrong_block_shape():
    # a Jacobian may come per node or as one (1, ...) block for the step;
    # any other node-axis length, or wrong trailing axes, fails by name
    spec = random_lq(5)
    n, r, d = spec.n, spec.r, spec.d
    assert spec.coeffs.sigma_y(0, np.zeros((4, n)), np.zeros((4, n)),
                               np.zeros((4, r))).shape == (1, d, n, n)
    assert validate_spec(spec).passed
    for name, shape in (("sigma_y", (2, d, n, n)), ("f_u", (1, r, n))):
        broken = dataclasses.replace(
            spec.coeffs, **{name: lambda k, x, y, u, shape=shape: np.zeros(shape)})
        report = validate_spec(dataclasses.replace(spec, coeffs=broken))
        failed = [res.label for res in report.residuals if not res.ok]
        assert failed[0] == f"shape[{name}]"
        assert set(failed) <= {f"shape[{name}]", f"fd[{name}]"}


def test_validate_spec_names_a_cost_that_takes_rows_only():
    # l and phi take batched levels, states (B, m, n) with a mean (B, 1, n),
    # and give every node the bits it gets alone: a cost written for
    # (rows, n) only, or one that reads its mean off the rows it is given,
    # fails by name
    spec = random_lq(5)
    n, r, l, phi = spec.n, spec.r, spec.coeffs.l, spec.coeffs.phi

    def flat(k, x, y, u):  # the right values, but only as (rows,)
        return l(k, x.reshape(-1, n), np.broadcast_to(y, x.shape).reshape(-1, n),
                 u.reshape(-1, r))

    for name, fn, alone in (("l", lambda k, x, y, u: np.zeros(len(u)), False),
                            ("l", flat, True),
                            ("phi", lambda x, y: phi(x, x.mean(axis=-2, keepdims=True)), False)):
        broken = dataclasses.replace(spec.coeffs, **{name: fn})
        report = validate_spec(dataclasses.replace(spec, coeffs=broken))
        failed = [res.label for res in report.residuals if not res.ok]
        assert f"batch[{name}]" in failed
        assert failed == [f"batch[{name}]"] or not alone


@pytest.mark.parametrize("n", [1, 2, 3, 4, "random_lq(9)", "tables", "prodcons",
                               "smooth_nonlinear"])
def test_lq_costs_of_a_row_do_not_depend_on_the_batch(n):
    # l and phi give each row the same bits alone and inside a 5-, 64- or
    # 1,000-row call, real or complex: as rows (m, n) with a mean per row, and
    # as a batched level (B, m, n) with one mean row (B, 1, n) per batch row,
    # as the oracle's and the certificate's batch rows need
    rng = np.random.default_rng(17)
    k = 0
    if n == "random_lq(9)":
        spec = random_lq(9)
    elif n == "prodcons":
        spec = random_prodcons(4)
    elif n == "smooth_nonlinear":
        spec = smooth_nonlinear(0)  # n = 2
    else:
        dim = 3 if n == "tables" else n

        def mat():
            return rng.uniform(-1.0, 1.0, (dim, dim)).tolist()

        def vec():
            return rng.uniform(-1.0, 1.0, dim).tolist()

        params = dict(Q=mat(), Q_mean=mat(), R=mat(), q=vec(), q_mean=vec(), r_lin=vec(),
                      l0=0.3, G=mat(), G_mean=mat(), g=vec(), g_mean=vec(), phi0=-0.2)
        if n == "tables":
            k = 1  # a step whose running-cost tables differ from step 0's
            for key in ("Q", "Q_mean", "R"):
                params[key] = {"per_step": [mat(), mat(), mat()]}
            spec = parse_problem(json.dumps({
                "dims": {"n": dim, "r": dim, "d": 1}, "grid": {"t0": 0.0, "h": 0.5, "N": 2},
                "noise": {"kind": "binary"}, "x0": [0.0] * dim, "tables": params,
                "admissible": [{"t": "all", "lo": ["-inf"] * dim, "hi": ["inf"] * dim}],
                "direction": "minimize"}))
        else:
            spec = builtin("lq_meanfield", n=n, r=n, d=1, h=0.5, N=0, x0=[0.0] * n, **params)
    c = spec.coeffs

    def draw(size, dim, dtype):
        # positive real parts keep prodcons' utility in its domain
        v = rng.uniform(0.1, 1.0, (size, dim))
        return v + 1j * rng.uniform(-1e-3, 1e-3, v.shape) if dtype is complex else v

    for dtype in (float, complex):
        for size in (5, 64, 1000):
            x, y = draw(size, spec.n, dtype), draw(size, spec.n, dtype)
            u = draw(size, spec.r, dtype)
            running, terminal = c.l(k, x, y, u), c.phi(x, y)
            for m in range(size):
                one = slice(m, m + 1)
                assert c.l(k, x[one], y[one], u[one])[0] == running[m]
                assert c.phi(x[one], y[one])[0] == terminal[m]
            # the same states and controls as a level of B batch rows
            batch = int(np.gcd(size, 8))
            xb, yb = x.reshape(batch, -1, spec.n), y[:batch, None]
            ub = u.reshape(batch, -1, spec.r)
            running, terminal = c.l(k, xb, yb, ub), c.phi(xb, yb)
            assert running.shape == terminal.shape == xb.shape[:-1]
            for b, m in np.ndindex(running.shape):
                one = slice(m, m + 1)
                assert c.l(k, xb[b, one], yb[b], ub[b, one])[0] == running[b, m]
                assert c.phi(xb[b, one], yb[b])[0] == terminal[b, m]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lq_sigma_is_the_stack_of_its_columns(d):
    # the d diffusions are written into one fresh array with the bits of
    # np.stack of the columns, real or complex, for the rows of a level, of
    # a batch folded into rows and of a batched level
    rng = np.random.default_rng(d)
    n, r = 3, 2
    sigma = [{"C": rng.uniform(-1.0, 1.0, (n, n)), "C_mean": rng.uniform(-1.0, 1.0, (n, n)),
              "D": rng.uniform(-1.0, 1.0, (n, r)), "s0": rng.uniform(-1.0, 1.0, n)}
             for _ in range(d)]
    spec = builtin("lq_meanfield", n=n, r=r, d=d, h=0.5, N=0, x0=[0.0] * n,
                   sigma=[{key: v.tolist() for key, v in entry.items()} for entry in sigma])

    def reference(x, y, u):
        return np.stack([x @ t["C"].T + y @ t["C_mean"].T + u @ t["D"].T + t["s0"]
                         for t in sigma], axis=1)

    def draw(*shape, dtype):
        v = rng.uniform(-1.0, 1.0, shape)
        return v + 1j * rng.uniform(-1e-3, 1e-3, shape) if dtype is complex else v

    for dtype in (float, complex):
        x, mean, u = (draw(*shape, dtype=dtype) for shape in ((7, n), (n,), (7, r)))
        xb, mean_b, ub = (draw(*shape, dtype=dtype) for shape in ((2, 7, n), (2, n), (2, 7, r)))
        for args in ((*_rows(x, mean), u), (*_rows(xb, mean_b), ub.reshape(-1, r)),
                     (xb, mean_b[:, None], ub)):
            got, want = spec.coeffs.sigma(0, *args), reference(*args)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            again = spec.coeffs.sigma(0, *args)
            assert got.flags.owndata and got.flags.writeable
            assert not np.shares_memory(got, again)
            got[...] = np.nan
            assert again.tobytes() == spec.coeffs.sigma(0, *args).tobytes() == want.tobytes()


def test_project_examples():
    spec = builtin("lq_meanfield", n=1, r=2, d=1, h=1.0, N=0, x0=[0.0],
                   lo=[0.0, 0.0], hi=[1.0, 1.0])
    np.testing.assert_allclose(spec.admissible.project(0, [0.5, 0.25]), [0.5, 0.25])
    np.testing.assert_allclose(spec.admissible.project(0, [2.0, -3.0]), [1.0, 0.0])
    half_open = builtin("lq_meanfield", n=1, r=1, d=1, h=1.0, N=0, x0=[0.0],
                        lo=0.0, hi=np.inf)
    np.testing.assert_allclose(half_open.admissible.project(0, [-5.0]), [0.0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=2))
def test_project_idempotent_and_nonexpansive(values):
    """Clamping is a projection: applying it twice changes nothing, and it
    never increases distances between points."""
    box = AdmissibleSet.box(0, 2, [-1.0, 0.0], [2.0, 0.5])
    v = np.asarray(values)
    once = box.project(0, v)
    np.testing.assert_array_equal(box.project(0, once), once)
    w = np.array([0.1, 0.2])
    assert np.linalg.norm(once - box.project(0, w)) <= np.linalg.norm(v - w) + 1e-12


def _per_step_box(seed):
    """Boxed LQ whose bounds change from step to step, some of them infinite."""
    rng = np.random.default_rng(seed)
    lo = -rng.uniform(0.1, 2.0, (3, 2))
    hi = rng.uniform(0.1, 2.0, (3, 2))
    lo[1, 0], hi[2, 1] = -np.inf, np.inf
    spec = builtin("lq_meanfield", n=2, r=2, d=1, h=0.5, N=2, x0=rng.uniform(-1, 1, 2),
                   B=rng.uniform(-1, 1, (2, 2)), R=np.eye(2), Q=np.eye(2), G=np.eye(2),
                   lo=lo, hi=hi)
    np.testing.assert_array_equal(spec.admissible.lo, lo)
    np.testing.assert_array_equal(spec.admissible.hi, hi)
    return spec


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["lq", "prodcons", "per-step box"]),
       seed=st.integers(0, 2 ** 32 - 1), bounded=st.booleans(), mean_field=st.booleans())
def test_roundtrip_serialization(kind, seed, bounded, mean_field):
    """A spec's config document parses back to the same config and the same
    cost, bit for bit, at a random admissible control."""
    if kind == "lq":
        spec = random_lq(seed, bounded=bounded, mean_field=mean_field)
    else:
        spec = random_prodcons(seed) if kind == "prodcons" else _per_step_box(seed)
    text = serialize_problem(spec)
    again = parse_problem(text)
    assert to_config(again) == to_config(spec)
    assert serialize_problem(again) == text
    tree = spec.build_tree()
    u = random_control(spec, tree, seed=seed)
    assert cost(again, again.build_tree(), u) == cost(spec, tree, u)


def test_roundtrip_time_varying_tables():
    cfg = dict(MINIMAL_LQ)
    cfg = json.loads(json.dumps(cfg))
    del cfg["family"]
    cfg["grid"]["N"] = 1
    cfg["tables"] = {"B": {"per_step": [[[1.0]], [[0.5]]]}, "R": [[2.0]]}
    spec = parse_problem(json.dumps(cfg))
    assert to_config(parse_problem(serialize_problem(spec))) == to_config(spec)


def test_builtin_partials_match_finite_differences():
    # every builtin family carries exact derivatives at 100 sampled points
    for spec in (random_lq(11), random_prodcons(12)):
        report = validate_spec(spec, tol=1e-6, n_points=100, seed=4)
        assert report.passed, report.summary_line()
