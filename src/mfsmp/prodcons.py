"""Production/consumption example: reference-recursion replica vs general solver.

The replica reproduces the model's reference closed-form sequence literally:

    p(t_{N+1}) = 1,   p((N+1-m) h) = (h (2 - delta))^m,   q = 0,
    v(t) = h^{-delta} p(t+h)^{-delta}

The general solver linearizes the actual drift, whose costate recursion is
p(t) = (1 + h (1 - depreciation)) p(t+h); the two sequences coincide only when
h = 1.  The comparison table reports both side by side instead of choosing.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MfsmpError
from .forward import constant_control
from .optimize import OptimizerOptions, optimize
from .problem import builtin
from .smp import adjoint_gradient

V_FLOOR = 1e-6
AGREE_REL_TOL = 1e-9
PLOT_T0 = 0.0


@dataclass
class ProdconsReplica:
    delta_util: float
    h: float
    n_steps: int
    p: np.ndarray  # (N+2,) costate values per time t_0..t_{N+1}
    q: np.ndarray  # (N+1,) all zero
    v: np.ndarray  # (N+1,) consumption rate per control time


def replica(delta_util: float, h: float, n_steps: int) -> ProdconsReplica:
    if not 0.0 < delta_util < 1.0:
        raise MfsmpError(f"utility exponent must lie in (0, 1), got {delta_util}")
    if n_steps < 1:
        raise MfsmpError("replica needs at least one control step")
    base = h * (2.0 - delta_util)
    exponents = np.arange(n_steps + 1, -1, -1, dtype=float)  # N+1 down to 0
    p = base ** exponents
    v = (h * p[1:]) ** (-delta_util)
    return ProdconsReplica(delta_util, h, n_steps, p, np.zeros(n_steps + 1), v)


def general_run(delta_util: float, h: float, n_steps: int, x0: float = 1.0):
    """Solve the same model with the general machinery (optimizer + adjoint).

    Returns the spec, optimize result, and per-time costate values.  The
    costate of this model is deterministic (constant across nodes per level),
    which is asserted before collapsing it to a sequence.
    """
    spec = builtin("prodcons", delta_util=delta_util, depreciation=delta_util,
                   h=h, N=n_steps, x0=x0, v_floor=V_FLOOR)
    tree = spec.build_tree()
    result = optimize(spec, tree, constant_control(spec, tree, max(1.0, V_FLOOR)),
                      OptimizerOptions(max_iters=400, grad_tol=1e-10))
    _, _, adj = adjoint_gradient(spec, tree, result.u, return_all=True)
    p_seq = np.empty(n_steps + 2)
    for k in range(n_steps + 2):
        vals = adj.p.at(k)[:, 0]
        if np.max(np.abs(vals - vals[0]), initial=0.0) > 1e-9:
            raise MfsmpError("expected a deterministic costate for this model")
        p_seq[k] = vals[0]
    v_seq = np.array([float(np.mean(result.u.at(k)[:, 0])) for k in range(n_steps + 1)])
    return spec, tree, result, p_seq, v_seq


def comparison_rows(delta_util: float, h: float, n_steps: int, x0: float = 1.0):
    """Side-by-side replica vs general-solver sequences with agreement flags."""
    rep = replica(delta_util, h, n_steps)
    _, _, result, p_gen, v_gen = general_run(delta_util, h, n_steps, x0)
    rows = []
    for k in range(n_steps + 2):
        t = k * h
        row = {"k": k, "t": t, "p_replica": float(rep.p[k]), "p_general": float(p_gen[k])}
        row["p_agree"] = abs(row["p_replica"] - row["p_general"]) <= AGREE_REL_TOL * max(
            1.0, abs(row["p_replica"]))
        if k <= n_steps:
            row["v_replica"] = float(rep.v[k])
            row["v_general"] = float(v_gen[k])
            row["v_agree"] = abs(row["v_replica"] - row["v_general"]) <= AGREE_REL_TOL * max(
                1.0, abs(row["v_replica"]))
        rows.append(row)
    return rep, result, rows


def plot_data_csv(rep: ProdconsReplica) -> str:
    """Consumption-path CSV (t, v) with exactly N+1 rows of increasing t."""
    lines = ["t,v"]
    for k in range(rep.n_steps + 1):
        lines.append(f"{float(PLOT_T0 + k * rep.h)!r},{float(rep.v[k])!r}")
    return "\n".join(lines) + "\n"


def comparison_csv(rows) -> str:
    header = "k,t,p_replica,p_general,p_agree,v_replica,v_general,v_agree"
    lines = [header]
    for row in rows:
        v_rep = repr(row["v_replica"]) if "v_replica" in row else ""
        v_gen = repr(row["v_general"]) if "v_general" in row else ""
        v_ok = str(row.get("v_agree", "")).lower() if "v_agree" in row else ""
        lines.append(
            f"{row['k']},{row['t']!r},{row['p_replica']!r},{row['p_general']!r},"
            f"{str(row['p_agree']).lower()},{v_rep},{v_gen},{v_ok}")
    return "\n".join(lines) + "\n"
