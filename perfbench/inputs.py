"""Seeded inputs for the benchmark workloads.

Every workload is a `Workload`: problem configs written through
`mfsmp.problem.to_config`, seeded control CSVs in the CLI's format, and the
lists of inputs each timed phase runs over.  The seed draws the affine terms
(x0, f0, s0, q, r_lin, g, ...) and the controls.  The coefficients that fix
the problem's curvature (A, B, C, D, Q, R, G and their mean parts) are drawn
from a constant per-rung stream, so the optimizer does about the same work at
every seed and the timings compare across seeds.
"""

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

@dataclass
class Item:
    """One problem instance: its config file and a seeded control CSV."""

    name: str
    config: Path
    control: Path
    nodes: int
    control_rows: int


@dataclass
class Workload:
    name: str
    items: dict = field(default_factory=dict)  # name -> Item
    # item names whose seeded control goes through the gradient phase and `mfsmp simulate`
    controls: list = field(default_factory=list)
    solve: list = field(default_factory=list)      # item names run through solve then check
    oracle: list = field(default_factory=list)     # (item name, points per axis, gap tol or None)


def _psd(rng, n, scale):
    root = rng.uniform(-1.0, 1.0, (n, n))
    return scale * (root @ root.T) / n + 0.05 * scale * np.eye(n)


def _curvature(fixed, n, r, d):
    """Coefficients that set the Hessian of J in u, mean-field parts included;
    drawn from the constant stream."""
    def mat(rows, cols, scale):
        return fixed.uniform(-scale, scale, (rows, cols)) / np.sqrt(rows)

    return {
        "A": mat(n, n, 0.45), "A_mean": mat(n, n, 0.3), "B": mat(n, r, 0.5),
        "Q": _psd(fixed, n, 0.4), "Q_mean": _psd(fixed, n, 0.2),
        "R": _psd(fixed, r, 0.4) + 0.2 * np.eye(r),
        "G": _psd(fixed, n, 0.4), "G_mean": _psd(fixed, n, 0.2),
        "sigma": [{"C": mat(n, n, 0.35), "C_mean": mat(n, n, 0.25),
                   "D": mat(n, r, 0.4)} for _ in range(d)],
    }


def _affine(rng, n, r, d):
    """Affine terms and the initial state; drawn from the seed."""
    def vec(size, scale):
        return rng.uniform(-scale, scale, size)

    return {
        "x0": vec(n, 0.8), "f0": vec(n, 0.3), "q": vec(n, 0.5), "q_mean": vec(n, 0.5),
        "r_lin": vec(r, 0.3), "g": vec(n, 0.5), "g_mean": vec(n, 0.5),
        "s0": [vec(n, 0.4) for _ in range(d)],
    }


def _lists(obj):
    if isinstance(obj, dict):
        return {k: _lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_lists(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def lq_config(mfsmp, fixed_seed, rng, n, r, d, N, h, noise="binary", box=None,
              per_step=False):
    """An LQ mean-field config document (through `to_config`).

    With `per_step`, A, D and R get one table entry per step and the config
    uses the `tables` form instead of the `lq_meanfield` family."""
    fixed = np.random.default_rng(fixed_seed)
    curv = _curvature(fixed, n, r, d)
    aff = _affine(rng, n, r, d)
    if per_step:
        # time-varying A, D and R: the fixed matrix scaled per step
        scales = 1.0 + 0.5 * np.sin(np.arange(N + 1))
        curv["A"] = {"per_step": [s * curv["A"] for s in scales]}
        curv["R"] = {"per_step": [s * curv["R"] for s in scales]}
        for tab in curv["sigma"]:
            tab["D"] = {"per_step": [s * tab["D"] for s in scales]}
    sigma = [dict(tab, s0=aff["s0"][j]) for j, tab in enumerate(curv["sigma"])]
    coeffs = {k: v for k, v in curv.items() if k != "sigma"}
    coeffs.update({k: v for k, v in aff.items() if k not in ("x0", "s0")})
    coeffs["sigma"] = sigma
    lo, hi = box if box is not None else ("-inf", "inf")
    noise_doc = {"kind": noise}
    if noise == "trinomial":
        noise_doc["params"] = {"p": 0.25}
    cfg = {
        "dims": {"n": n, "r": r, "d": d},
        "grid": {"t0": 0.0, "h": h, "N": N},
        "noise": noise_doc,
        "x0": aff["x0"],
        "admissible": [{"t": "all", "lo": [lo] * r, "hi": [hi] * r}],
        "direction": "minimize",
    }
    if per_step:
        cfg["tables"] = coeffs
    else:
        cfg["family"] = {"name": "lq_meanfield", "params": coeffs}
    spec = mfsmp.parse_problem(json.dumps(_lists(cfg)))
    return mfsmp.to_config(spec)


def prodcons_config(mfsmp, fixed_seed, rng, N):
    """The production/consumption model.  Its constants come from the constant
    stream, with the ranges of `mfsmp.instances.random_prodcons`; the seed
    draws x0 within 10% of the stream's value."""
    fixed = np.random.default_rng(fixed_seed)
    delta, dep, h = fixed.uniform(0.3, 0.7), fixed.uniform(0.2, 0.8), fixed.uniform(0.3, 0.8)
    x0 = fixed.uniform(0.8, 1.5) * rng.uniform(0.9, 1.1)
    spec = mfsmp.builtin("prodcons", delta_util=float(delta), depreciation=float(dep),
                         h=float(h), N=N, x0=float(x0), v_floor=0.05, v_cap=2.5)
    return mfsmp.to_config(spec)


def _level_sizes(cfg):
    """Nodes per level, 0..N+1, of the lattice a config describes."""
    support = {"binary": 2, "trinomial": 3}[cfg["noise"]["kind"]]
    branch = support ** cfg["dims"]["d"]
    return [branch ** k for k in range(cfg["grid"]["N"] + 2)]


def control_csv(cfg, rng, margin=0.15) -> str:
    """A seeded control strictly inside the box, in the format `mfsmp check`
    and `mfsmp simulate` read: header time,node_id,u_1..u_r; one row per
    control node, levels 0..N in order, global node ids."""
    r = cfg["dims"]["r"]
    t0, h = cfg["grid"]["t0"], cfg["grid"]["h"]
    lo, hi = cfg["admissible"][0]["lo"], cfg["admissible"][0]["hi"]
    sizes = _level_sizes(cfg)[:-1]
    lines = [",".join(["time", "node_id"] + [f"u_{i + 1}" for i in range(r)])]
    node_id = 0
    for k, m in enumerate(sizes):
        vals = np.empty((m, r))
        for i in range(r):
            a, b = float(lo[i]), float(hi[i])
            if np.isfinite(a) and np.isfinite(b):
                w = b - a
                vals[:, i] = rng.uniform(a + margin * w, b - margin * w, m)
            else:
                vals[:, i] = rng.uniform(-0.8, 0.8, m)
        t = repr(float(t0 + k * h))
        ids = range(node_id, node_id + m)
        lines.extend(",".join([t, str(j)] + [repr(v) for v in row])
                     for j, row in zip(ids, vals.tolist()))
        node_id += m
    return "\n".join(lines) + "\n"


def _add(work: Workload, mfsmp_cfg, name, rng, out_dir: Path):
    cfg_path = out_dir / f"{name}.json"
    cfg_path.write_text(json.dumps(mfsmp_cfg, sort_keys=True, indent=2) + "\n")
    ctl_path = out_dir / f"{name}.control.csv"
    ctl_path.write_text(control_csv(mfsmp_cfg, rng))
    sizes = _level_sizes(mfsmp_cfg)
    work.items[name] = Item(name, cfg_path, ctl_path, sum(sizes), sum(sizes[:-1]))


def solve_ladder(mfsmp, seed, out_dir):
    """Five small configs through solve and check: per-call overhead, the line
    search and the finite-difference certification dominate."""
    rng = np.random.default_rng(seed)
    work = Workload("solve-ladder")
    _add(work, lq_config(mfsmp, 101, rng, n=2, r=1, d=1, N=7, h=0.5), "lq-binary", rng, out_dir)
    _add(work, lq_config(mfsmp, 102, rng, n=2, r=1, d=1, N=5, h=0.5, noise="trinomial"),
         "lq-trinomial", rng, out_dir)
    _add(work, lq_config(mfsmp, 103, rng, n=2, r=1, d=2, N=4, h=0.5), "lq-d2", rng, out_dir)
    _add(work, lq_config(mfsmp, 104, rng, n=2, r=1, d=1, N=6, h=0.5, per_step=True),
         "tables", rng, out_dir)
    _add(work, prodcons_config(mfsmp, 105, rng, N=6), "prodcons", rng, out_dir)
    rungs = list(work.items)
    # the grid oracle needs 3 bounded control coordinates: prodcons at N=1
    _add(work, prodcons_config(mfsmp, 105, rng, N=1), "prodcons-n1", rng, out_dir)
    work.controls = work.solve = rungs
    work.oracle = [("prodcons-n1", 21, None)]
    return work


def wide_tree(mfsmp, seed, out_dir):
    """One boxed LQ at N=17 (524,287 nodes): memory traffic in the tree,
    forward and adjoint kernels, and CSV text in `simulate`."""
    rng = np.random.default_rng(seed)
    work = Workload("wide-tree")
    shape = dict(n=3, r=1, d=1, h=0.1, box=(-1.0, 1.0))
    _add(work, lq_config(mfsmp, 201, rng, N=17, **shape), "lq-wide", rng, out_dir)
    # solve, check and the oracle cannot run at 524k nodes; they run on the
    # same coefficients at N=1
    _add(work, lq_config(mfsmp, 201, rng, N=1, **shape), "lq-wide-n1", rng, out_dir)
    work.controls = ["lq-wide"]
    work.solve = ["lq-wide-n1"]
    work.oracle = [("lq-wide-n1", 21, None)]
    return work


def grid_oracle(mfsmp, seed, out_dir):
    """Three 3-coordinate instances through the 101-point grid oracle, each
    also solved for the optimizer-vs-oracle gap."""
    rng = np.random.default_rng(seed)
    work = Workload("grid-oracle")
    for N in (1, 9):
        for i, fixed in enumerate((301, 302)):
            _add(work, lq_config(mfsmp, fixed, rng, n=2, r=1, d=1, N=N, h=0.5,
                                 box=(-1.0, 1.0)), f"lq-convex-{i}-n{N}", rng, out_dir)
        _add(work, prodcons_config(mfsmp, 303, rng, N=N), f"prodcons-n{N}", rng, out_dir)
    names = [name for name in work.items if name.endswith("-n1")]
    work.solve = names
    work.oracle = [(name, 101, 1e-4) for name in names]
    # the gradient phase and `simulate` run on the same coefficients at N=9
    # (1,023 nodes): at N=1 a `simulate` call is mostly argument parsing and
    # file opens, whose speed on a shared machine drifts apart from the rest
    work.controls = [name for name in work.items if name.endswith("-n9")]
    return work


WORKLOADS = {"solve-ladder": solve_ladder, "wide-tree": wide_tree, "grid-oracle": grid_oracle}


def main(argv=None):
    """Write a workload's inputs and a manifest.json describing them.

    Run in its own process, so generating the inputs leaves no trace in the
    benchmark process's memory high-water mark."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import mfsmp

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    work = WORKLOADS[args.workload](mfsmp, args.seed, out)
    doc = asdict(work)
    for item in doc["items"].values():
        item["config"], item["control"] = str(item["config"]), str(item["control"])
    (out / "manifest.json").write_text(json.dumps(doc, indent=2) + "\n")


def load(manifest_path: Path) -> Workload:
    doc = json.loads(manifest_path.read_text())
    items = {name: Item(**dict(item, config=Path(item["config"]), control=Path(item["control"])))
             for name, item in doc["items"].items()}
    return Workload(doc["name"], items, doc["controls"], doc["solve"],
                    [tuple(entry) for entry in doc["oracle"]])


if __name__ == "__main__":
    main()
