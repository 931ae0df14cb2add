"""Problem definitions: coefficients with exact partials, admissible boxes, config I/O.

Coefficient evaluators are vectorized over nodes: with m evaluation points,
state x is (m, n), mean argument y is (m, n) (the level mean broadcast to rows
by `forward._rows`, or a genuine per-row batch), control u is (m, r), and k is
the integer step 0..N whose coefficients apply; the terminal cost phi takes no
step.  The costs l and phi also take whole batched levels, x (..., m, n) and
u (..., m, r) with y broadcasting against x, as a level mean (..., 1, n) does,
and return (..., m).  Returned shapes are

    f (m, n)          sigma (m, d, n)        l (m,)        phi (m,)
    f_x, f_y (m | 1, n, n)   f_u (m | 1, n, r)
    sigma_x, sigma_y (m | 1, d, n, n)   sigma_u (m | 1, d, n, r)
    l_x, l_y (m, n)   l_u (m, r)   phi_x, phi_y (m, n)

A Jacobian that is the same at every node of a step may come as one block
with a length-1 node axis (LQ, tables, prodcons); consumers broadcast it.

Maximization problems are normalized at construction: the stored running and
terminal costs are negated so that every downstream consumer minimizes.
"""

from dataclasses import dataclass
import json

import numpy as np

from .errors import ConfigError, MfsmpError
from .report import CheckReport
from .tree import (DEFAULT_NODE_CAP, NoiseModel, TimeGrid, build_tree, exceeds_node_cap,
                   validate_noise)

_TOP_KEYS = {"dims", "grid", "noise", "x0", "family", "tables", "admissible", "direction"}

_LQ_MATRIX_KEYS = {
    "A": ("n", "n"), "A_mean": ("n", "n"), "B": ("n", "r"), "f0": ("n",),
    "Q": ("n", "n"), "Q_mean": ("n", "n"), "R": ("r", "r"),
    "q": ("n",), "q_mean": ("n",), "r_lin": ("r",), "l0": (),
    "G": ("n", "n"), "G_mean": ("n", "n"), "g": ("n",), "g_mean": ("n",), "phi0": (),
}
_LQ_SIGMA_KEYS = {"C": ("n", "n"), "C_mean": ("n", "n"), "D": ("n", "r"), "s0": ("n",)}
_JACOBIANS = ("f_x", "f_y", "f_u", "sigma_x", "sigma_y", "sigma_u")
SPEC_FD_STEP = 1e-6


@dataclass
class CoefficientSet:
    """Vectorized evaluators for the drift, diffusions, running and terminal cost:
    `f(k, x, y, u)` and its kin take the integer step k, `phi(x, y)` none.

    Contract: l and phi take batched levels (module docstring) and give each
    row the bits it gets alone.  f, sigma, l and phi are complex-safe: given
    complex x, y, u they return complex values analytic in them, with no
    `abs`, no comparison of values, no cast to float.  The gradient
    certificate (`smp.certify_gradient`) evaluates them at complex steps;
    where a cast drops an imaginary part (`ComplexWarning`) or an evaluator
    raises `TypeError`, it falls back to central differences.

    The Jacobians f_x, f_y, f_u, sigma_x, sigma_y and sigma_u return either
    one array per node, (m, ...), or one block (1, ...) for every node of the
    step.  A block may be shared and read-only: consumers do not write to it."""

    f: callable
    f_x: callable
    f_y: callable
    f_u: callable
    sigma: callable
    sigma_x: callable
    sigma_y: callable
    sigma_u: callable
    l: callable
    l_x: callable
    l_y: callable
    l_u: callable
    phi: callable
    phi_x: callable
    phi_y: callable


class AdmissibleSet:
    """Per-step box constraints lo(t) <= v <= hi(t); components may be infinite."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 2:
            raise MfsmpError("admissible bounds must be (n_steps+1, r) arrays")
        if np.any(self.lo > self.hi):
            k, i = np.argwhere(self.lo > self.hi)[0]
            raise MfsmpError(f"empty admissible box at step {k}, coordinate {i}: "
                             f"lo={self.lo[k, i]} > hi={self.hi[k, i]}")

    @classmethod
    def box(cls, n_steps, r, lo, hi):
        lo = np.broadcast_to(np.asarray(lo, dtype=float), (n_steps + 1, r)).copy()
        hi = np.broadcast_to(np.asarray(hi, dtype=float), (n_steps + 1, r)).copy()
        return cls(lo, hi)

    @property
    def n_steps(self):
        return self.lo.shape[0] - 1

    @property
    def r(self):
        return self.lo.shape[1]

    def project(self, step, v):
        """Componentwise clamp into the step's box; idempotent and nonexpansive."""
        return np.asarray(v, dtype=float).clip(self.lo[step], self.hi[step])

    def violation(self, step, v):
        v = np.asarray(v, dtype=float)
        return float(np.maximum(self.lo[step] - v, v - self.hi[step]).max(initial=0.0))

    def sample(self, rng, steps, base):
        """Random admissible points near `base` (..., r), one `rng.random` draw
        per entry, strictly inside the boxes of `steps` (an int, or indices
        whose boxes broadcast against `base`): the inner 90% of a finite box
        (its point where lo = hi), (0.05, 1) (1 + |bound|) beyond a one-sided
        bound, and base +- 1 when free."""
        lo, hi = self.lo[steps], self.hi[steps]
        unit = rng.random(base.shape)
        lo_in, hi_in = np.isfinite(lo), np.isfinite(hi)
        with np.errstate(invalid="ignore"):
            w = hi - lo
            low, high = lo + 0.05 * w, hi - 0.05 * w
            return np.select(
                [lo_in & hi_in & (w == 0.0), lo_in & hi_in, lo_in, hi_in],
                [lo, low + (high - low) * unit, lo + (1.0 + np.abs(lo)) * (0.05 + 0.95 * unit),
                 hi - (1.0 + np.abs(hi)) * (0.05 + 0.95 * unit)],
                base + (2.0 * unit - 1.0))


@dataclass(eq=False)
class ProblemSpec:
    """A fully specified control problem instance (internal minimization sign)."""

    n: int
    r: int
    d: int
    grid: TimeGrid
    noise: NoiseModel
    x0: np.ndarray
    coeffs: CoefficientSet
    admissible: AdmissibleSet
    direction: str = "minimize"
    family: str | None = None
    family_params: dict | None = None

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float).reshape(self.n)
        if not np.all(np.isfinite(self.x0)):
            raise MfsmpError("initial state must be finite")
        if self.direction not in ("minimize", "maximize"):
            raise MfsmpError(f"direction must be 'minimize' or 'maximize', got {self.direction!r}")
        if self.admissible.n_steps != self.grid.n_steps or self.admissible.r != self.r:
            raise MfsmpError("admissible set shape does not match grid/control dimensions")

    def build_tree(self):
        return build_tree(self.grid, self.noise)

    def objective_value(self, internal_cost):
        """Map the internal minimization value back to the declared direction."""
        return -internal_cost if self.direction == "maximize" else internal_cost


def _lin(v, w):
    """sum_j w_j v[..., j] per row of v (w_j numbers or per-row arrays), from
    elementwise ufuncs only: unlike an einsum or matmul reduction, a row's bits
    do not depend on the batch it is evaluated in.  Complex-safe."""
    out = w[0] * v[..., 0]
    for j in range(1, len(w)):
        out += w[j] * v[..., j]
    return out


def _quad(v, mat):
    """v_m . (mat v_m) per row m of v, row-independent as `_lin`.  No product is
    in place: numpy rounds an in-place complex product of a one-element array
    differently from the same product inside a longer one."""
    out = _lin(v, mat[0]) * v[..., 0]
    for i in range(1, len(mat)):
        out += _lin(v, mat[i]) * v[..., i]
    return out


def _sym(mat):
    mat = np.asarray(mat, dtype=float)
    return 0.5 * (mat + mat.T)


def _as_steps(value, n_steps, shape, key):
    """Normalize a table entry to a stacked (n_steps+1, *shape) array."""
    if isinstance(value, dict):
        extra = set(value) - {"per_step"}
        if extra:
            raise ConfigError(f"{key}: unknown table keys {sorted(extra)}")
        rows = value.get("per_step")
        if not isinstance(rows, list) or len(rows) != n_steps + 1:
            raise ConfigError(f"{key}: per_step must list exactly {n_steps + 1} entries")
    try:
        if isinstance(value, dict):
            out = np.array([np.asarray(rw, dtype=float) for rw in rows])
        else:
            out = np.broadcast_to(np.asarray(value, dtype=float), (n_steps + 1,) + shape).copy()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: expected numbers of shape {shape} per step ({exc})") from exc
    if out.shape != (n_steps + 1,) + shape:
        raise ConfigError(f"{key}: expected shape {shape} per step, got {out.shape[1:]}")
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        step, *index = bad[0].tolist()
        where = f" at step {step}" if isinstance(value, dict) else ""
        raise ConfigError(f"{key}: coefficients must be finite, got "
                          f"{float(out[tuple(bad[0])])!r}{where} at index {index}")
    return out


def _lq_tables(n, r, d, n_steps, params, time_varying):
    """Stacked affine/quadratic coefficient tables, zero by default: the
    top-level ones and one dict per diffusion."""
    size = {"n": n, "r": r}

    def stacked(entry, keys, where):
        unknown = set(entry) - set(keys)
        if unknown:
            raise ConfigError(f"unknown coefficient keys {sorted(where + k for k in unknown)}")
        out = {}
        for key, dims in keys.items():
            shape = tuple(size[c] for c in dims)
            raw = entry.get(key, np.zeros(shape))
            if not time_varying and isinstance(raw, dict):
                raise ConfigError(f"{where}{key}: per-step tables are only allowed under 'tables'")
            out[key] = _as_steps(raw, n_steps, shape, where + key)
        return out

    params = dict(params)
    sigma = params.pop("sigma", None)
    tables = stacked(params, _LQ_MATRIX_KEYS, "")
    sigma = [{}] * d if sigma is None else sigma
    if not isinstance(sigma, list) or len(sigma) != d:
        raise ConfigError(f"sigma: expected a list of {d} diffusion entries, got {sigma!r}")
    return tables, [stacked(_object(entry, f"sigma[{j}]"), _LQ_SIGMA_KEYS, f"sigma[{j}].")
                    for j, entry in enumerate(sigma)]


def _lq_coeffs(n, r, d, tables, sigma_tabs, sign):
    """Build exact-derivative evaluators from stacked coefficient tables, each
    evaluator reading row k of every table.

    `sign` is +1 for minimize, -1 for maximize (flips the cost family only).
    """
    tb = {key: v.copy() for key, v in tables.items()}
    for key in ("Q", "Q_mean", "R", "G", "G_mean"):
        tb[key] = sign * np.stack([_sym(m) for m in tb[key]])
    for key in ("q", "q_mean", "r_lin", "l0", "g", "g_mean", "phi0"):
        tb[key] = sign * tb[key]
    n_steps = len(tb["A"]) - 1
    # the Jacobians are the same at every node of a step: row k of each is
    # returned as one read-only block with a length-1 node axis
    jac = {"f_x": tb["A"], "f_y": tb["A_mean"], "f_u": tb["B"]}
    jac.update({name: np.stack([tab[key] for tab in sigma_tabs], axis=1)
                for name, key in (("sigma_x", "C"), ("sigma_y", "C_mean"), ("sigma_u", "D"))})
    for table in jac.values():
        table.flags.writeable = False
    # row k of every table; "sigma" holds row k of each diffusion's tables
    rows = [dict({key: v[k] for key, v in tb.items()},
                 sigma=[{key: v[k].copy() for key, v in tab.items()} for tab in sigma_tabs],
                 **{name: v[k:k + 1] for name, v in jac.items()})
            for k in range(n_steps + 1)]

    def step(k):
        if not 0 <= k <= n_steps:
            raise MfsmpError(f"coefficient step {k!r} outside 0..{n_steps}")
        return rows[k]

    def block(name):
        return lambda k, x, y, u: step(k)[name]

    def f(k, x, y, u):
        t = step(k)
        return x @ t["A"].T + y @ t["A_mean"].T + u @ t["B"].T + t["f0"]

    def sigma(k, x, y, u):
        # the columns go straight into one array, the bits of np.stack(cols, axis=1)
        out = None
        for j, t in enumerate(step(k)["sigma"]):
            col = x @ t["C"].T + y @ t["C_mean"].T + u @ t["D"].T + t["s0"]
            if out is None:
                out = np.empty(col.shape[:1] + (d,) + col.shape[1:], col.dtype)
            out[:, j] = col
        return out

    def l(k, x, y, u):
        t = step(k)
        quad = 0.5 * (_quad(x, t["Q"]) + _quad(y, t["Q_mean"]) + _quad(u, t["R"]))
        return quad + _lin(x, t["q"]) + _lin(y, t["q_mean"]) + _lin(u, t["r_lin"]) + t["l0"]

    def l_x(k, x, y, u):
        t = step(k)
        return x @ t["Q"].T + t["q"]

    def l_y(k, x, y, u):
        t = step(k)
        return y @ t["Q_mean"].T + t["q_mean"]

    def l_u(k, x, y, u):
        t = step(k)
        return u @ t["R"].T + t["r_lin"]

    def phi(x, y):
        return (0.5 * (_quad(x, tb["G"][0]) + _quad(y, tb["G_mean"][0]))
                + _lin(x, tb["g"][0]) + _lin(y, tb["g_mean"][0]) + tb["phi0"][0])

    def phi_x(x, y):
        return x @ tb["G"][0].T + tb["g"][0]

    def phi_y(x, y):
        return y @ tb["G_mean"][0].T + tb["g_mean"][0]

    return CoefficientSet(f, block("f_x"), block("f_y"), block("f_u"),
                          sigma, block("sigma_x"), block("sigma_y"), block("sigma_u"),
                          l, l_x, l_y, l_u, phi, phi_x, phi_y)


def _pospow(v, expo):
    """v**expo where the real part of v is positive, NaN elsewhere (consumers
    raise a domain error on NaN).  The principal power is analytic there, so
    a complex step through it is exact."""
    inside = np.real(v) > 0
    safe = np.where(inside, v, 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(inside, np.power(safe, expo), np.nan)


def _constant(value, ndim):
    """A Jacobian evaluator that returns one shared read-only block (1, ..., 1)
    of `value` for every node and step."""
    block = np.full((1,) * ndim, value)
    block.flags.writeable = False
    return lambda k, x, y, u: block


def _prodcons_coeffs(grid, delta_util, depreciation):
    """Production/consumption model: capital grows by retained income, is consumed
    directly (no step factor on the consumption term), and carries proportional
    noise; utility of consumption is the CRRA-type power law.  Stored with the
    minimization sign (the model maximizes)."""
    h = grid.h
    du = delta_util
    coef = du / (du - 1.0)      # negative for 0 < du < 1
    expo = 1.0 - 1.0 / du       # negative for 0 < du < 1
    growth = 1.0 - depreciation

    def f(k, x, y, u):
        return growth * x - u / h

    def sigma(k, x, y, u):
        return 0.5 * x.reshape(-1, 1, 1)

    f_x, f_y, f_u = _constant(growth, 3), _constant(0.0, 3), _constant(-1.0 / h, 3)
    sigma_x, sigma_y, sigma_u = _constant(0.5, 4), _constant(0.0, 4), _constant(0.0, 4)

    def l(k, x, y, u):
        return -coef * _pospow(u[..., 0], expo)

    def l_x(k, x, y, u):
        return np.zeros((x.shape[0], 1))

    l_y = l_x

    def l_u(k, x, y, u):
        return (-_pospow(u[:, 0], -1.0 / du)).reshape(-1, 1)

    def phi(x, y):
        return -x[..., 0]

    def phi_x(x, y):
        return np.full((x.shape[0], 1), -1.0)

    def phi_y(x, y):
        return np.zeros((x.shape[0], 1))

    return CoefficientSet(f, f_x, f_y, f_u, sigma, sigma_x, sigma_y, sigma_u,
                          l, l_x, l_y, l_u, phi, phi_x, phi_y)


def _noise_from_config(kind, params, d, h):
    params = dict(params or {})
    if kind == "binary":
        if params:
            raise ConfigError("binary noise takes no params")
        return NoiseModel.binary(d, h)
    if kind == "trinomial":
        p = _number(params.pop("p", 0.25), "noise.params.p")
        if params:
            raise ConfigError(f"trinomial noise: unknown params {sorted(params)}")
        if not 0.0 < p < 0.5:
            raise ConfigError(f"noise.params.p: trinomial tail probability must lie in "
                              f"(0, 0.5), got {p}")
        return NoiseModel.trinomial(d, h, p)
    if kind == "custom":
        support = params.pop("support", None)
        if params or support is None:
            raise ConfigError("custom noise needs exactly a 'support' list of [value, prob] pairs")
        try:
            noise = NoiseModel.from_support(d, h, support)
        except MfsmpError as exc:
            raise ConfigError(f"noise.params.support: {exc}") from exc
        except (TypeError, ValueError, IndexError) as exc:
            raise ConfigError(f"noise.params.support: expected [value, prob] pairs ({exc})") from exc
        # the tolerance `build_tree` matches the second moment target with
        worst = validate_noise(noise, tol=1e-12 * max(1.0, h)).worst
        if not worst.ok:
            raise ConfigError(f"noise.params.support: moments break the model, "
                              f"{worst.label} = {worst.value!r} (zero mean and E w^2 = h needed)")
        return noise
    raise ConfigError(f"unknown noise kind {kind!r}")


def _number(value, key, kind=float):
    """`kind(value)`, or a ConfigError naming `key` when the value is not a
    number (a JSON true/false is not one) or, for `int`, not a JSON integer."""
    if isinstance(value, bool):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    try:
        out = kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from exc
    if kind is int and not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return out


def _object(value, key) -> dict:
    """`value` when it is a JSON object (null reads as an empty one), else a
    ConfigError naming `key`."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: expected a JSON object, got {value!r}")
    return value


def _bound(value, key):
    """A box bound: a number or "inf"/"+inf"/"-inf"; NaN is refused."""
    if isinstance(value, str):
        out = {"inf": np.inf, "+inf": np.inf, "-inf": -np.inf}.get(value, np.nan)
    else:
        out = _number(value, "admissible bound")
    if np.isnan(out):
        raise ConfigError(f"{key}: bound must be a number or 'inf'/'-inf', got {value!r}")
    return out


def _admissible_from_config(entries, n_steps, r):
    if not isinstance(entries, list) or not entries:
        raise ConfigError("admissible must be a non-empty list of {t, lo, hi} entries")
    lo = np.full((n_steps + 1, r), np.nan)
    hi = np.full((n_steps + 1, r), np.nan)
    for index, entry in enumerate(entries):
        entry = _object(entry, f"admissible[{index}]")
        extra = set(entry) - {"t", "lo", "hi"}
        if extra:
            raise ConfigError(f"admissible entry: unknown keys {sorted(extra)}")
        missing = {"t", "lo", "hi"} - set(entry)
        if missing:
            raise ConfigError(f"admissible entry: missing keys {sorted(missing)}")
        rows = []
        for key in ("lo", "hi"):
            where = f"admissible[{index}].{key}"
            if not isinstance(entry[key], list) or len(entry[key]) != r:
                raise ConfigError(f"{where}: expected a list of r={r} bounds, got {entry[key]!r}")
            rows.append(np.array([_bound(v, where) for v in entry[key]]))
        lo_row, hi_row = rows
        t = entry["t"]
        if t != "all" and (isinstance(t, bool) or not isinstance(t, int)):
            raise ConfigError(f"admissible.t: expected 'all' or an integer step, got {t!r}")
        steps = range(n_steps + 1) if t == "all" else [t]
        for k in steps:
            if not 0 <= k <= n_steps:
                raise ConfigError(f"admissible step {k} outside 0..{n_steps}")
            if not np.isnan(lo[k]).all():
                raise ConfigError(f"admissible step {k} specified more than once")
            if np.any(lo_row > hi_row):
                i = int(np.argmax(lo_row > hi_row))
                raise ConfigError(f"admissible step {k}: empty box at coordinate {i}, "
                                  f"lo={lo_row[i]} > hi={hi_row[i]}")
            lo[k], hi[k] = lo_row, hi_row
    if np.isnan(lo).any():
        missing = sorted(set(np.argwhere(np.isnan(lo[:, 0])).ravel().tolist()))
        raise ConfigError(f"admissible bounds missing for steps {missing}")
    return AdmissibleSet(lo, hi)


def _canonical(obj):
    """JSON-ready copy with numpy containers turned into plain lists/floats."""
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _canonical(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def builtin(name, **kw) -> ProblemSpec:
    """Construct a built-in family from keywords, mapped onto a config document
    that goes through the parser `parse_problem` runs, with all its checks:
    n/r/d -> dims; h/N/t0 -> grid; noise/trinomial_p -> noise; x0 (a number
    for prodcons); lo/hi (LQ) or v_floor/v_cap (prodcons) -> admissible, each
    a number, one value per coordinate or an (N+1, r) per-step table;
    direction (LQ only: prodcons maximizes); every other keyword ->
    family.params."""
    if name == "lq_meanfield":
        dims = {key: kw.pop(key, None) for key in ("n", "r", "d")}
        x0 = kw.pop("x0", None)
        lo, hi = kw.pop("lo", -np.inf), kw.pop("hi", np.inf)
        direction = kw.pop("direction", "minimize")
    elif name == "prodcons":
        dims = {"n": 1, "r": 1, "d": 1}
        x0 = [kw.pop("x0", None)]
        lo, hi = kw.pop("v_floor", 1e-6), kw.pop("v_cap", np.inf)
        direction = "maximize"
    else:
        raise ConfigError(f"unknown builtin family {name!r}")
    noise = {"kind": kw.pop("noise", "binary")}
    if "trinomial_p" in kw:
        noise["params"] = {"p": kw.pop("trinomial_p")}
    grid = {"t0": kw.pop("t0", 0.0), "h": kw.pop("h", None), "N": kw.pop("N", None)}
    return _problem_from_config({
        "dims": dims, "grid": grid, "noise": noise, "x0": x0,
        "admissible": _box_entries(lo, hi, grid["N"], dims["r"]), "direction": direction,
        "family": {"name": name, "params": kw}})


def _box_entries(lo, hi, n_steps, r):
    """One `admissible` entry per step for bounds given as a number, one value
    per coordinate or an (N+1, r) per-step table.  A bound of another shape
    goes to the parser as it is, which names it."""
    tables = []
    for bound in (lo, hi):
        try:
            tables.append(np.broadcast_to(np.asarray(bound, dtype=object),
                                          (n_steps + 1, r)).tolist())
        except (TypeError, ValueError):
            tables.append([bound])
    return [{"t": k, "lo": a, "hi": b} for k, (a, b) in enumerate(zip(*tables))]


def parse_problem(config_text: str) -> ProblemSpec:
    """Parse the JSON problem document; unknown keys are rejected."""
    try:
        cfg = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _problem_from_config(cfg)


def _problem_from_config(cfg) -> ProblemSpec:
    """Check a config document key by key and build its ProblemSpec."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)}")
    for key in ("dims", "grid", "noise", "x0", "admissible", "direction"):
        if key not in cfg:
            raise ConfigError(f"missing top-level key {key!r}")
    if ("family" in cfg) == ("tables" in cfg):
        raise ConfigError("config needs exactly one of 'family' or 'tables'")

    dims = _object(cfg["dims"], "dims")
    if set(dims) != {"n", "r", "d"}:
        raise ConfigError("dims must have exactly keys n, r, d")
    n, r, d = (_number(dims[key], f"dims.{key}", int) for key in ("n", "r", "d"))
    for key, value in (("n", n), ("r", r), ("d", d)):
        if value < 1:
            raise ConfigError(f"dims.{key}: must be >= 1, got {value}")
    gr = _object(cfg["grid"], "grid")
    if set(gr) != {"t0", "h", "N"}:
        raise ConfigError("grid must have exactly keys t0, h, N")
    t0, h = _number(gr["t0"], "grid.t0"), _number(gr["h"], "grid.h")
    if not np.isfinite([t0, h]).all():
        raise ConfigError(f"grid: t0 and h must be finite, got t0={t0}, h={h}")
    if not h > 0:
        raise ConfigError(f"grid.h: step size must be positive, got {h}")
    n_steps = _number(gr["N"], "grid.N", int)
    if n_steps < 0:
        raise ConfigError(f"grid.N: number of control steps must be >= 0, got {n_steps}")
    grid = TimeGrid(t0, h, n_steps)
    noise_cfg = _object(cfg["noise"], "noise")
    extra = set(noise_cfg) - {"kind", "params"}
    if extra:
        raise ConfigError(f"noise: unknown keys {sorted(extra)}")
    noise = _noise_from_config(noise_cfg.get("kind"),
                               _object(noise_cfg.get("params"), "noise.params"), d, grid.h)
    if exceeds_node_cap(noise.branch_count, grid.n_levels):
        raise ConfigError(f"grid.N: {n_steps} steps of {noise.branch_count} branches exceed "
                          f"the tree's cap of {DEFAULT_NODE_CAP} nodes")
    try:
        x0 = np.asarray(cfg["x0"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"x0: expected n={n} numbers, got {cfg['x0']!r}") from exc
    if x0.shape != (n,):
        raise ConfigError(f"x0 must have length n={n}")
    if not np.isfinite(x0).all():
        raise ConfigError(f"x0 must be finite, got {x0.tolist()}")
    admissible = _admissible_from_config(cfg["admissible"], grid.n_steps, r)
    direction = cfg["direction"]
    if direction not in ("minimize", "maximize"):
        raise ConfigError(f"direction: must be 'minimize' or 'maximize', got {direction!r}")

    time_varying = "tables" in cfg
    if time_varying:
        name, params = "tables", _object(cfg["tables"], "tables")
    else:
        family = _object(cfg["family"], "family")
        extra = set(family) - {"name", "params"}
        if extra:
            raise ConfigError(f"family: unknown keys {sorted(extra)}")
        name, params = family.get("name"), _object(family.get("params"), "family.params")
    params = dict(params)
    if name == "prodcons":
        if (n, r, d) != (1, 1, 1):
            raise ConfigError("prodcons requires dims n = r = d = 1")
        extra = set(params) - {"delta_util", "depreciation"}
        if extra:
            raise ConfigError(f"prodcons family: unknown params {sorted(extra)}")
        if "delta_util" not in params:
            raise ConfigError("family.params.delta_util: missing; prodcons needs its "
                              "utility exponent in (0, 1)")
        du = _number(params["delta_util"], "family.params.delta_util")
        if not 0.0 < du < 1.0:
            raise ConfigError(f"prodcons utility exponent must lie in (0, 1), got {du}")
        dep = _number(params.get("depreciation", du), "family.params.depreciation")
        if not np.isfinite(dep):
            raise ConfigError(f"family.params.depreciation: must be finite, got {dep}")
        if direction != "maximize":
            raise ConfigError("prodcons is a maximization family; set direction = maximize")
        coeffs = _prodcons_coeffs(grid, du, dep)
        params = {"delta_util": du, "depreciation": dep}
    elif name == "lq_meanfield" or time_varying:
        tables, sigma_tabs = _lq_tables(n, r, d, grid.n_steps, params, time_varying)
        coeffs = _lq_coeffs(n, r, d, tables, sigma_tabs, -1.0 if direction == "maximize" else 1.0)
        params = _canonical(params)
    else:
        raise ConfigError(f"unknown family name {name!r}")
    return ProblemSpec(n, r, d, grid, noise, x0, coeffs, admissible, direction=direction,
                       family=name, family_params=params)


def to_config(spec: ProblemSpec) -> dict:
    """Reconstruct the canonical configuration document for a parseable spec."""
    if spec.family is None:
        raise ConfigError("spec was built programmatically and has no config form")
    noise = {"kind": spec.noise.kind}
    if spec.noise.params:
        noise["params"] = _canonical(spec.noise.params)
    lo, hi = spec.admissible.lo, spec.admissible.hi

    def row(bounds_row):
        return [("inf" if v == np.inf else "-inf" if v == -np.inf else float(v))
                for v in bounds_row]

    if all(np.array_equal(lo[0], lo[k]) and np.array_equal(hi[0], hi[k])
           for k in range(lo.shape[0])):
        admissible = [{"t": "all", "lo": row(lo[0]), "hi": row(hi[0])}]
    else:
        admissible = [{"t": k, "lo": row(lo[k]), "hi": row(hi[k])} for k in range(lo.shape[0])]
    cfg = {
        "dims": {"n": spec.n, "r": spec.r, "d": spec.d},
        "grid": {"t0": spec.grid.t0, "h": spec.grid.h, "N": spec.grid.n_steps},
        "noise": noise,
        "x0": spec.x0.tolist(),
        "admissible": admissible,
        "direction": spec.direction,
    }
    if spec.family == "tables":
        cfg["tables"] = _canonical(spec.family_params)
    else:
        cfg["family"] = {"name": spec.family, "params": _canonical(spec.family_params)}
    return cfg


def serialize_problem(spec: ProblemSpec) -> str:
    return json.dumps(to_config(spec), sort_keys=True, indent=2)


def validate_spec(spec: ProblemSpec, tol: float = 1e-6, n_points: int = 20,
                  seed: int = 0) -> CheckReport:
    """Sampled consistency check: output shapes, batched l and phi, analytic
    partials against central finite differences, and non-empty boxes.  This
    samples smoothness near the initial state; it certifies nothing globally."""
    report = CheckReport("spec-validation")
    rng = np.random.default_rng(seed)
    n, r, d = spec.n, spec.r, spec.d
    m = n_points
    scale = 1.0 + np.abs(spec.x0)
    x = spec.x0 + rng.uniform(-0.5, 0.5, (m, n)) * scale
    y = spec.x0 + rng.uniform(-0.5, 0.5, (m, n)) * scale
    u = spec.admissible.sample(rng, 0, np.zeros((m, r)))
    k = 0
    c = spec.coeffs

    expected = {
        "f": (m, n), "sigma": (m, d, n), "l": (m,), "f_x": (m, n, n), "f_y": (m, n, n),
        "f_u": (m, n, r), "sigma_x": (m, d, n, n), "sigma_y": (m, d, n, n),
        "sigma_u": (m, d, n, r), "l_x": (m, n), "l_y": (m, n), "l_u": (m, r),
    }
    for name, shape in expected.items():
        got = np.shape(getattr(c, name)(k, x, y, u))
        # a Jacobian may also come as one block for every node of the step
        ok = got == shape or (name in _JACOBIANS and got == (1,) + shape[1:])
        report.add(f"shape[{name}]", 0.0 if ok else 1.0, 0.0)
    for name, shape in {"phi": (m,), "phi_x": (m, n), "phi_y": (m, n)}.items():
        got = np.shape(getattr(c, name)(x, y))
        report.add(f"shape[{name}]", 0.0 if got == shape else 1.0, 0.0)

    def fd_check(label, value_fn, analytic, wrt, dim):
        analytic = np.asarray(analytic)
        worst = 0.0
        for i in range(dim):
            shift = np.zeros(dim)
            shift[i] = SPEC_FD_STEP
            hi, lo, at = [x, y, u], [x, y, u], "xyu".index(wrt)
            hi[at], lo[at] = hi[at] + shift, lo[at] - shift
            fd = (np.asarray(value_fn(*hi)) - np.asarray(value_fn(*lo))) / (2.0 * SPEC_FD_STEP)
            try:
                # a length-1 node axis broadcasts over the sampled rows
                err = np.max(np.abs(fd - analytic[..., i]) / np.maximum(1.0, np.abs(fd)))
            except (IndexError, ValueError):
                err = np.inf  # a shape the shape check has already flagged
            worst = max(worst, float(err))
        report.add(f"fd[{label}]", worst, tol)

    for name in ("f", "sigma", "l"):
        fn = getattr(c, name)
        for wrt, dim in (("x", n), ("y", n), ("u", r)):
            fd_check(f"{name}_{wrt}", lambda a, b, v, fn=fn: fn(k, a, b, v),
                     getattr(c, f"{name}_{wrt}")(k, x, y, u), wrt, dim)
    for wrt in ("x", "y"):
        fd_check(f"phi_{wrt}", lambda a, b, v: c.phi(a, b), getattr(c, f"phi_{wrt}")(x, y), wrt, n)

    # l and phi on a batched level: each node gets the bits it gets alone
    xb, yb = (spec.x0 + rng.uniform(-0.5, 0.5, (3, rows, n)) * scale for rows in (m, 1))
    ub = spec.admissible.sample(rng, 0, np.zeros((3, m, r)))
    for name, fn in (("l", lambda a, b, v: c.l(k, a, b, v)), ("phi", lambda a, b, v: c.phi(a, b))):
        try:
            batched = fn(xb, yb, ub)
            alone = [[fn(xb[j, i:i + 1], yb[j], ub[j, i:i + 1])[0] for i in range(m)]
                     for j in range(3)]
            ok = np.shape(batched) == (3, m) and np.array_equal(batched, alone, equal_nan=True)
        except (TypeError, ValueError, IndexError):
            ok = False
        report.add(f"batch[{name}]", 0.0 if ok else 1.0, 0.0)

    report.add("boxes nonempty",
               0.0 if np.all(spec.admissible.lo <= spec.admissible.hi) else 1.0, 0.0)
    return report
