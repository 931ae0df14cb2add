"""Deterministic instance generators used by the verification suites and tests."""

import numpy as np

from .problem import AdmissibleSet, CoefficientSet, ProblemSpec, _lin, builtin
from .smp import SpikeVariation
from .tree import AdaptedProcess, NoiseModel, TimeGrid


def e1_problem(lo=-1.0, hi=1.0):
    """One-step scalar benchmark: J(u) = 2 u^2 + 1 in closed form."""
    return builtin("lq_meanfield", n=1, r=1, d=1, h=1.0, N=0, x0=[0.0],
                   B=[[1.0]], sigma=[{"s0": [1.0]}], R=[[2.0]], G=[[2.0]],
                   lo=lo, hi=hi)


def _psd(rng, n, scale):
    root = rng.uniform(-1.0, 1.0, (n, n))
    return scale * (root @ root.T) / n


def random_lq(seed, n_max=3, r_max=2, d_max=2, steps_max=4, convex=False,
              mean_field=True, bounded=False):
    """Random affine/quadratic mean-field instance within the stated size caps."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, n_max + 1))
    r = int(rng.integers(1, r_max + 1))
    d = int(rng.integers(1, d_max + 1))
    n_steps = int(rng.integers(0, steps_max + 1))
    h = float(rng.uniform(0.25, 1.0))
    mf = 1.0 if mean_field else 0.0

    def mat(rows, cols, scale=0.45):
        return (rng.uniform(-scale, scale, (rows, cols)) / np.sqrt(max(rows, 1))).tolist()

    def vec(size, scale=0.5):
        return rng.uniform(-scale, scale, size).tolist()

    if convex:
        q_mat = _psd(rng, n, rng.uniform(0.1, 0.6)).tolist()
        qm_mat = (_psd(rng, n, rng.uniform(0.05, 0.3)) * mf).tolist()
        r_mat = (_psd(rng, r, rng.uniform(0.2, 0.6)) + 0.2 * np.eye(r)).tolist()
        g_mat = _psd(rng, n, rng.uniform(0.1, 0.6)).tolist()
        gm_mat = (_psd(rng, n, rng.uniform(0.05, 0.3)) * mf).tolist()
    else:
        q_mat, qm_mat = mat(n, n), (np.array(mat(n, n)) * mf).tolist()
        r_mat = (_psd(rng, r, rng.uniform(0.3, 0.8)) + 0.3 * np.eye(r)).tolist()
        g_mat, gm_mat = mat(n, n), (np.array(mat(n, n)) * mf).tolist()
    sigma = [{"C": mat(n, n, 0.35), "C_mean": (np.array(mat(n, n, 0.25)) * mf).tolist(),
              "D": mat(n, r, 0.4), "s0": vec(n, 0.4)} for _ in range(d)]
    lo, hi = (-1.0, 1.0) if bounded or convex else (-np.inf, np.inf)
    return builtin(
        "lq_meanfield", n=n, r=r, d=d, h=h, N=n_steps,
        x0=vec(n, 0.8), A=mat(n, n), A_mean=(np.array(mat(n, n, 0.3)) * mf).tolist(),
        B=mat(n, r, 0.5), f0=vec(n, 0.3), sigma=sigma,
        Q=q_mat, Q_mean=qm_mat, R=r_mat, q=vec(n), q_mean=(np.array(vec(n)) * mf).tolist(),
        r_lin=vec(r, 0.3), G=g_mat, G_mean=gm_mat, g=vec(n), g_mean=(np.array(vec(n)) * mf).tolist(),
        lo=lo, hi=hi)


def random_prodcons(seed, steps_max=4):
    rng = np.random.default_rng(seed)
    return builtin(
        "prodcons",
        delta_util=float(rng.uniform(0.3, 0.7)),
        depreciation=float(rng.uniform(0.2, 0.8)),
        h=float(rng.uniform(0.3, 0.8)),
        N=int(rng.integers(1, steps_max + 1)),
        x0=float(rng.uniform(0.8, 1.5)),
        v_floor=0.05, v_cap=2.5)


def _diag_rows(vals):
    """Stack of diagonal matrices: (m, n) -> (m, n, n)."""
    m, n = vals.shape
    out = np.zeros((m, n, n))
    idx = np.arange(n)
    out[:, idx, idx] = vals
    return out


def smooth_nonlinear(seed):
    """Programmatic instance with genuinely nonlinear smooth dynamics.

    Both config families have affine state equations, so the second-order
    remainder of the spike response vanishes identically there; this family
    provides the curvature the expansion-rate checks need.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3))
    r = 1
    d = 1
    n_steps = int(rng.integers(2, 4))
    h = float(rng.uniform(0.3, 0.6))
    a = rng.uniform(0.3, 0.8, n)
    b = rng.uniform(0.1, 0.4, n)
    bu = rng.uniform(0.3, 0.8, (n, r))
    cs = rng.uniform(0.2, 0.5, n)
    s0 = rng.uniform(-0.2, 0.2, n)
    qw = rng.uniform(0.2, 0.6, n)
    rw = rng.uniform(0.3, 0.8, r)
    gw = rng.uniform(0.2, 0.6, n)

    def f(k, x, y, u):
        return a * np.tanh(x) + b * np.tanh(y) + u @ bu.T

    def f_x(k, x, y, u):
        return _diag_rows(a * (1.0 - np.tanh(x) ** 2))

    def f_y(k, x, y, u):
        return _diag_rows(b * (1.0 - np.tanh(y) ** 2))

    def f_u(k, x, y, u):
        return np.broadcast_to(bu, (x.shape[0], n, r))

    def sigma(k, x, y, u):
        return (cs * np.sin(x) + s0)[:, None, :]

    def sigma_x(k, x, y, u):
        return _diag_rows(cs * np.cos(x))[:, None, :, :]

    def sigma_y(k, x, y, u):
        return np.zeros((x.shape[0], d, n, n))

    def sigma_u(k, x, y, u):
        return np.zeros((x.shape[0], d, n, r))

    def l(k, x, y, u):
        return 0.5 * (_lin(x ** 2, qw) + _lin(u ** 2, rw))

    def l_x(k, x, y, u):
        return qw * x

    def l_y(k, x, y, u):
        return np.zeros_like(x)

    def l_u(k, x, y, u):
        return rw * u

    def phi(x, y):
        return 0.5 * _lin(x ** 2, gw)

    def phi_x(x, y):
        return gw * x

    def phi_y(x, y):
        return np.zeros_like(x)

    coeffs = CoefficientSet(f, f_x, f_y, f_u, sigma, sigma_x, sigma_y, sigma_u,
                            l, l_x, l_y, l_u, phi, phi_x, phi_y)
    grid = TimeGrid(0.0, h, n_steps)
    noise = NoiseModel.binary(d, h)
    admissible = AdmissibleSet.box(n_steps, r, -1.0, 1.0)
    return ProblemSpec(n, r, d, grid, noise, rng.uniform(-0.5, 0.5, n), coeffs, admissible)


def random_control(spec, tree, seed):
    """Seeded feasible control strictly inside the boxes (finite-difference
    safe): each level is one `AdmissibleSet.sample` draw around zero."""
    rng = np.random.default_rng(seed)
    u = AdaptedProcess.zeros(tree, 0, tree.grid.n_steps, (spec.r,))
    for k in u.levels():
        u.set_level(k, spec.admissible.sample(rng, k, u.at(k)))
    return u


def random_spike(spec, tree, u, seed, scale, max_scale=None, step=None):
    """Spike variation whose perturbed control stays feasible for every
    magnitude up to `max_scale` (defaults to `scale`).  A spike at the final
    step never propagates through the drift again, so rate checks that need
    curvature should pin `step` to an early level."""
    rng = np.random.default_rng(seed)
    max_scale = max(scale, max_scale or scale)
    if step is None:
        step = int(rng.integers(0, tree.grid.n_steps + 1))
    uk = u.at(step)
    lo, hi = spec.admissible.lo[step], spec.admissible.hi[step]
    delta = rng.uniform(-1.0, 1.0, uk.shape)
    room = np.where(delta > 0, hi - uk, uk - lo)
    room = np.where(np.isfinite(room), room, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        shrink = np.minimum(1.0, 0.9 * room / np.maximum(max_scale * np.abs(delta), 1e-300))
    delta = delta * shrink
    return SpikeVariation(step, delta, scale)
