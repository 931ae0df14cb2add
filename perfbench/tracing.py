"""Spans around mfsmp's public functions, and the per-layer metrics derived from them.

`install` replaces each traced function in the module that defines it and in
every loaded mfsmp module that imported it by name (`optimize` imports
`cost`, `cli` imports `simulate`, ...), so calls made inside the package are
recorded too.  Spans stay in memory until `write` is called at the end of the
run.  Nothing here runs unless the benchmark is started with `--trace 1`.
"""

import functools
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

# span name -> function; the layer is the defining module
TRACED = (
    "tree.build_tree",
    "problem.parse_problem",
    "forward.simulate", "forward.cost",
    "adjoint.linearize", "adjoint.solve_adjoint", "adjoint.integrability_report",
    "smp.adjoint_gradient", "smp.hamiltonian_gradient", "smp.necessary_check",
    "smp.sufficiency_check", "smp.duality_residual", "smp.fd_cost_gradient",
    "optimize.optimize", "optimize.brute_force",
    "cli.read_control_csv", "cli.write_trajectory_csv", "cli.write_adjoint_csv",
    "cli.write_control_csv",
)
CSV_WRITERS = ("cli.write_trajectory_csv", "cli.write_adjoint_csv", "cli.write_control_csv")

# (name, unit) in the order BENCHMARK.json lists them
LAYER_METRICS = (
    ("tree.build_s", "s"), ("tree.nodes", "count"), ("tree.bytes", "bytes"),
    ("problem.parse_s", "s"),
    ("forward.simulate_s", "s"), ("forward.simulate_calls", "count"),
    ("forward.cost_s", "s"), ("forward.cost_calls", "count"),
    ("adjoint.linearize_s", "s"), ("adjoint.linearize_bytes", "bytes"),
    ("adjoint.solve_adjoint_s", "s"), ("adjoint.integrability_s", "s"),
    ("smp.adjoint_gradient_s", "s"), ("smp.adjoint_gradient_calls", "count"),
    ("smp.hamiltonian_gradient_s", "s"), ("smp.necessary_check_s", "s"),
    ("smp.sufficiency_check_s", "s"), ("smp.duality_residual_s", "s"),
    ("smp.fd_gradient_s", "s"), ("smp.fd_cost_calls", "count"),
    ("optimize.optimize_s", "s"), ("optimize.iterations", "count"),
    ("optimize.line_search_trials", "count"), ("optimize.accept_ratio", "ratio"),
    ("optimize.brute_force_s", "s"), ("optimize.candidates_per_s", "1/s"),
    ("cli.read_control_s", "s"), ("cli.write_csv_s", "s"), ("cli.output_bytes", "bytes"),
    ("cli.nonzero_exits", "count"),
)


def array_bytes(obj) -> int:
    """Bytes held in numpy arrays among an object's fields (lists walked one deep)."""
    total = 0
    for value in vars(obj).values():
        for item in (value if isinstance(value, (list, tuple)) else (value,)):
            if isinstance(item, np.ndarray):
                total += item.nbytes
    return total


def _candidates(args, kwargs):
    spec, tree, points = args[:3]
    count = 1
    for k in range(tree.grid.n_steps + 1):
        lo, hi = spec.admissible.lo[k], spec.admissible.hi[k]
        per_node = 1
        for i in range(spec.r):
            per_node *= np.unique(np.linspace(lo[i], hi[i], points)).size
        count *= per_node ** tree.size(k)
    return {"candidates": count}


# counts recorded at a function's boundary, from its arguments and result
_ATTRS = {
    "tree.build_tree": lambda a, kw, res: {"nodes": res.n_nodes, "bytes": array_bytes(res)},
    "adjoint.linearize": lambda a, kw, res: {"bytes": array_bytes(res)},
    "optimize.optimize": lambda a, kw, res: {"iterations": res.iterations},
    "optimize.brute_force": lambda a, kw, res: _candidates(a, kw),
}


class Tracer:
    """In-memory span recorder: each span is [name, start, end, parent, nodes, attrs]."""

    def __init__(self, tree_type):
        self.spans = []
        self._stack = []
        self._tree_type = tree_type

    def _open(self, name, nodes):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, nodes, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself; the caller may fill its attrs."""
        idx = self._open(name, 0)
        attrs = {}
        try:
            yield attrs
        finally:
            self._close(idx)
            self.spans[idx][5] = attrs

    def wrap(self, name, fn):
        tracer, tree_type, attrs_of = self, self._tree_type, _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tree = next((a for a in (*args, *kwargs.values()) if isinstance(a, tree_type)), None)
            idx = tracer._open(name, tree.n_nodes if tree is not None else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if attrs_of is not None:
                attrs = attrs_of(args, kwargs, result)
                tracer.spans[idx][5] = attrs
                if "nodes" in attrs:
                    tracer.spans[idx][4] = attrs["nodes"]
            return result

        return traced

    def install(self):
        """Wrap every traced function wherever mfsmp holds it; returns an undo list."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "mfsmp" or key.startswith("mfsmp.")]
        undo = []
        for qual in TRACED:
            layer, fn_name = qual.split(".")
            original = getattr(sys.modules[f"mfsmp.{layer}"], fn_name)
            wrapper = self.wrap(qual, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
        return undo

    @staticmethod
    def uninstall(undo):
        for module, attr, original in undo:
            setattr(module, attr, original)

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], s[4], s[5]] for s in self.spans]
        path.write_text(json.dumps({"columns": ["name", "start", "end", "parent", "nodes",
                                                "attrs"],
                                    "names": names, "spans": rows}) + "\n")


def summarize(spans):
    """Per-function self time, inclusive time, calls, nodes per call and attrs."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = {}
    for i, (name, start, end, parent, nodes, attrs) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "nodes": 0,
                                      "attrs": {}})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        row["incl_s"] += end - start
        row["nodes"] += nodes
        for key, value in (attrs or {}).items():
            row["attrs"][key] = row["attrs"].get(key, 0) + value
    for row in table.values():
        row["nodes_per_call"] = row.pop("nodes") / row["calls"]
    return table


def layer_metrics(spans):
    """The per-layer metrics of BENCHMARK.json, derived from the spans."""
    table = summarize(spans)
    empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "nodes_per_call": 0.0, "attrs": {}}

    def row(name):
        return table.get(name, empty)

    def self_s(name):
        return row(name)["self_s"]

    def attr(name, key):
        return row(name)["attrs"].get(key, 0)

    def cost_calls_under(parent_name):
        return sum(1 for s in spans
                   if s[0] == "forward.cost" and s[3] >= 0 and spans[s[3]][0] == parent_name)

    # optimize evaluates the cost once at its start; every later cost call is a trial step
    trials = cost_calls_under("optimize.optimize") - row("optimize.optimize")["calls"]
    iterations = attr("optimize.optimize", "iterations")
    brute_incl = row("optimize.brute_force")["incl_s"]
    values = {
        "tree.build_s": self_s("tree.build_tree"),
        "tree.nodes": attr("tree.build_tree", "nodes"),
        "tree.bytes": attr("tree.build_tree", "bytes"),
        "problem.parse_s": self_s("problem.parse_problem"),
        "forward.simulate_s": self_s("forward.simulate"),
        "forward.simulate_calls": row("forward.simulate")["calls"],
        "forward.cost_s": self_s("forward.cost"),
        "forward.cost_calls": row("forward.cost")["calls"],
        "adjoint.linearize_s": self_s("adjoint.linearize"),
        "adjoint.linearize_bytes": attr("adjoint.linearize", "bytes"),
        "adjoint.solve_adjoint_s": self_s("adjoint.solve_adjoint"),
        "adjoint.integrability_s": self_s("adjoint.integrability_report"),
        "smp.adjoint_gradient_s": self_s("smp.adjoint_gradient"),
        "smp.adjoint_gradient_calls": row("smp.adjoint_gradient")["calls"],
        "smp.hamiltonian_gradient_s": self_s("smp.hamiltonian_gradient"),
        "smp.necessary_check_s": self_s("smp.necessary_check"),
        "smp.sufficiency_check_s": self_s("smp.sufficiency_check"),
        "smp.duality_residual_s": self_s("smp.duality_residual"),
        "smp.fd_gradient_s": self_s("smp.fd_cost_gradient"),
        "smp.fd_cost_calls": cost_calls_under("smp.fd_cost_gradient"),
        "optimize.optimize_s": self_s("optimize.optimize"),
        "optimize.iterations": iterations,
        "optimize.line_search_trials": trials,
        "optimize.accept_ratio": iterations / trials if trials else 0.0,
        "optimize.brute_force_s": self_s("optimize.brute_force"),
        "optimize.candidates_per_s": (attr("optimize.brute_force", "candidates") / brute_incl
                                      if brute_incl else 0.0),
        "cli.read_control_s": self_s("cli.read_control_csv"),
        "cli.write_csv_s": sum(self_s(name) for name in CSV_WRITERS),
        "cli.output_bytes": attr("cli.main", "output_bytes"),
        "cli.nonzero_exits": attr("cli.main", "nonzero_exit"),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}, table
