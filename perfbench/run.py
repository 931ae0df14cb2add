"""Benchmark for mfsmp: end-to-end timings and memory per workload, or per-layer
metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it holds the details
(sample counts, tail percentiles, gate results, environment).  Scratch files
go to `.perfbench_work/` in the checkout.

Every workload runs the same phases over its own inputs (see inputs.py):
set-up in fresh processes, then in this process rounds of the gradient phase,
solve and check, simulate and the grid oracle.  Each round makes a fixed
number of passes over each phase's inputs; rounds go on until `--seconds` is
used.  A metric is the mean of the middle half of its passes.
"""

import os

# one BLAS thread: the benchmark process is single-threaded, and the timings
# should not depend on what else the machine runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import ctypes
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402

# (name, unit) of the end-to-end metrics, in BENCHMARK.json order
E2E_METRICS = (
    ("setup_s", "s"), ("solve_s", "s"), ("check_s", "s"), ("simulate_s", "s"),
    ("grad_eval_s", "s"), ("oracle_s", "s"), ("grad_peak_rss_mb", "MB"), ("peak_rss_mb", "MB"),
)
PHASE_TIMES = ("solve_s", "check_s", "simulate_s", "grad_eval_s", "oracle_s")
SETUP_RUNS = 7
# (minimum rounds, passes per round of each phase); the passes keep each
# cheap phase at a few hundred milliseconds per round or more, and leave
# room for three or four rounds in 35 seconds
PLANS = {
    "solve-ladder": (3, {"grad": 24, "solve": 1, "simulate": 12, "oracle": 36}),
    "wide-tree": (3, {"grad": 6, "solve": 10, "simulate": 1, "oracle": 20}),
    "grid-oracle": (4, {"grad": 24, "solve": 4, "simulate": 12, "oracle": 1}),
}
# middle mean of `reference()` called in a loop on its own, on the 2-vCPU
# machine the benchmark was built on; timings are reported at the machine
# speed at which the reference takes this long
REFERENCE_S = 2.45e-3
_REF_MATRIX = np.full((2, 2), 0.5)
_REF_ARRAY = np.arange(65536, dtype=float)
DUALITY_TOL = 1e-10
ORACLE_COST_RTOL = 1e-9


def tail(values):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None, None
    pct = math.floor(100 * (n - 10) / n)
    return pct, sorted(values)[max(0, math.ceil(pct / 100 * n) - 1)]


def middle_mean(values):
    """Mean of the middle half of the samples (the interquartile mean).  A
    median of a few dozen skewed samples jumps between them; this keeps the
    median's indifference to stray slow samples and averages the rest."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def reference():
    """Time a fixed mix of the kinds of work mfsmp does (interpreter loops,
    small-array calls, number formatting, a half-megabyte array temporary, a
    file read) with no mfsmp code in it.  Its time follows the speed the
    shared machine gives the benchmark, which drifts by 20% and more between
    minutes, and no change to mfsmp moves it."""
    start = time.perf_counter()
    x = 0
    for i in range(4000):
        x += i * i
    v = np.ones(2)
    for _ in range(100):
        v = _REF_MATRIX @ v * 0.5 + 0.1
    ",".join([repr(i * 0.1) for i in range(1500)])
    for _ in range(4):
        (_REF_ARRAY * 1.0001 + _REF_ARRAY).sum()
    with open(__file__, "rb") as fh:
        fh.read()
    return time.perf_counter() - start


def _nothing():
    pass


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Samples, operation counts and gate results of one benchmark run."""

    def __init__(self, mfsmp, work, seed, tracer=None):
        self.mfsmp = mfsmp
        self.work = work
        self.seed = seed
        self.tracer = tracer
        self.samples = {}      # metric -> per-pass totals over the inputs
        self.rss = {}
        self.attempted = 0
        self.wrong = []        # outputs that are wrong, or operations that errored
        self.uncertified = []  # solves whose own first-order check failed
        self.sufficiency = {}
        self.library_cost = {}
        self.solve_cost = {}
        self.controls = {}       # input name -> (spec, tree, control) for gradient and simulate
        self.oracle_inputs = {}  # input name -> (spec, tree, None), or None if loading failed
        self.rounds = 0

    # -- bookkeeping ---------------------------------------------------------
    def op(self, name):
        self.attempted += 1
        if self.tracer is None:
            return contextlib.nullcontext({})
        return self.tracer.span(f"bench.{name}")

    def fail(self, what):
        self.wrong.append(what)

    def add(self, key, times):
        """Record one pass: `times` maps each input that ran to its time.  A
        reference sample follows every pass, so the reference samples spread
        over the run as the passes do."""
        self.samples.setdefault(key, []).append(sum(times.values()))
        self.samples.setdefault("reference_s", []).append(reference())

    def cli(self, argv, out_dir):
        """In-process `mfsmp` call; returns (exit status, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.tracer is None:
                rc = self.mfsmp.cli.main(argv)
            else:
                with self.tracer.span("cli.main") as span:
                    rc = self.mfsmp.cli.main(argv)
                # the span's attrs dict is stored by reference
                span["nonzero_exit"] = int(rc != 0)
                span["output_bytes"] = _dir_bytes(out_dir)
        return rc, out.getvalue(), err.getvalue()

    def load(self, name, with_control=True):
        item = self.work.items[name]
        spec = self.mfsmp.parse_problem(item.config.read_text())
        tree = spec.build_tree()
        u = None
        if with_control:
            u = self.mfsmp.cli.read_control_csv(spec, tree, item.control.read_text())
        return spec, tree, u

    def guarded(self, what, fn):
        """Run one operation; an exception counts as a failed operation."""
        try:
            return fn()
        except Exception as exc:  # the run goes on and reports the failure
            self.fail(f"{what} raised {type(exc).__name__}: {exc}")
            return None

    # -- phases --------------------------------------------------------------
    def setup(self, runs):
        configs = [str(item.config) for item in self.work.items.values()]
        argv = [sys.executable, str(HERE / "probe.py"), str(SRC)] + configs
        for _ in range(runs):
            with self.op("setup"):
                start = time.perf_counter()
                proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                self.fail(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            self.add("setup_s", {"probe": float(proc.stdout.split()[-1]) - start})

    def _timed(self, name, fn, *args, **kwargs):
        with self.op(name):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            return time.perf_counter() - start, result

    def _grad_item(self, name, spec, tree, u):
        grad_s, _ = self._timed("adjoint_gradient", self.mfsmp.adjoint_gradient, spec, tree, u)
        cost_s, j_val = self._timed("cost", self.mfsmp.cost, spec, tree, u)
        if self.library_cost.setdefault(name, j_val) != j_val:
            self.fail(f"{name}: cost not reproducible ({j_val!r} vs {self.library_cost[name]!r})")
        return grad_s, cost_s

    def _duality(self, name, spec, tree, u):
        with self.op("duality_residual"):
            _, traj, adj = self.mfsmp.adjoint_gradient(spec, tree, u, return_all=True)
            spike = self.mfsmp.instances.random_spike(spec, tree, u, seed=self.seed, scale=1e-3)
            dual = self.mfsmp.duality_residual(spec, tree, traj, adj, u, spike)
        if not dual <= DUALITY_TOL:
            self.fail(f"{name}: duality residual {dual!r} > {DUALITY_TOL}")

    def grad(self, passes, between=_nothing):
        for _ in range(passes):
            grad_times, cost_times = {}, {}
            for name, args in self.controls.items():
                between()
                times = self.guarded(f"{name}: gradient", lambda: self._grad_item(name, *args))
                if times is not None:
                    grad_times[name], cost_times[name] = times
            self.add("grad_eval_s", grad_times)
            self.add("cost_eval_s", cost_times)
            self.rss.setdefault("grad_peak_rss_mb", peak_rss_mb())

    def _solve_item(self, name):
        item = self.work.items[name]
        out = WORK / "out" / self.work.name / "solve" / name
        chk = WORK / "out" / self.work.name / "check" / name
        for path in (out, chk):
            shutil.rmtree(path, ignore_errors=True)
        solve_s, (rc, _, err) = self._timed(
            "solve", self.cli, ["solve", str(item.config), "--out", str(out)], out)
        if rc != 0:
            self.fail(f"{name}: solve exited {rc}: {err.strip()[-300:]}")
            return None
        checks_text = (out / "checks.json").read_text()
        checks = json.loads(checks_text)
        self.sufficiency[name] = checks["sufficiency"]["pass"]
        if not checks["necessary"]["pass"]:
            worst = max(r["value"] for r in checks["necessary"]["residuals"])
            self.uncertified.append(
                f"{name}: solve's necessary check fails (worst residual {worst!r})")
        for key in ("duality", "gradient", "integrability"):
            if not checks[key]["pass"]:
                self.fail(f"{name}: solve's {key} check fails")
        report = json.loads((out / "optimize_report.json").read_text())
        self.solve_cost.setdefault(name, report["cost"])
        check_s, (rc, _, err) = self._timed(
            "check", self.cli,
            ["check", str(item.config), str(out / "control.csv"), "--out", str(chk)], chk)
        # check exits 1 whenever a report fails, sufficiency included
        if rc not in (0, 1) or not (chk / "checks.json").is_file():
            self.fail(f"{name}: check exited {rc}: {err.strip()[-300:]}")
            return None
        if (chk / "checks.json").read_text() != checks_text:
            self.fail(f"{name}: check's checks.json differs from solve's")
        return solve_s, check_s

    def solve(self, passes, between=_nothing):
        for _ in range(passes):
            solve_times, check_times = {}, {}
            for name in self.work.solve:
                between()
                times = self.guarded(f"{name}: solve/check", lambda: self._solve_item(name))
                if times is not None:
                    solve_times[name], check_times[name] = times
            self.add("solve_s", solve_times)
            self.add("check_s", check_times)

    def _simulate_item(self, name):
        item = self.work.items[name]
        out = WORK / "out" / self.work.name / "simulate" / name
        sim_s, (rc, text, err) = self._timed(
            "simulate", self.cli,
            ["simulate", str(item.config), str(item.control), "--out", str(out)], out)
        if rc != 0:
            self.fail(f"{name}: simulate exited {rc}: {err.strip()[-300:]}")
            return None
        printed = float(text.split("J = ", 1)[1].split(";", 1)[0])
        if printed != self.library_cost[name]:
            self.fail(f"{name}: simulate printed J = {printed!r}, library cost is "
                      f"{self.library_cost[name]!r}")
        return sim_s

    def simulate(self, passes, between=_nothing):
        for _ in range(passes):
            times = {}
            for name in self.work.controls:
                between()
                times[name] = self.guarded(f"{name}: simulate", lambda: self._simulate_item(name))
            self.add("simulate_s", {k: v for k, v in times.items() if v is not None})

    def _oracle_item(self, name, points, gap_tol, spec, tree):
        oracle_s, (u_best, j_best) = self._timed(
            "brute_force", self.mfsmp.brute_force, spec, tree, points)
        exact = self.mfsmp.cost(spec, tree, u_best)
        if not abs(j_best - exact) <= ORACLE_COST_RTOL * max(1.0, abs(exact)):
            self.fail(f"{name}: oracle J {j_best!r} != cost of its control {exact!r}")
        if gap_tol is not None:
            gap = abs(self.solve_cost[name] - j_best)
            if not gap <= gap_tol:
                self.fail(f"{name}: |J(optimize) - J(oracle)| = {gap!r} > {gap_tol}")
        return oracle_s

    def oracle(self, passes, between=_nothing):
        for _ in range(passes):
            times = {}
            for name, points, gap_tol in self.work.oracle:
                if self.oracle_inputs[name] is not None:
                    between()
                    times[name] = self.guarded(f"{name}: oracle", lambda: self._oracle_item(
                        name, points, gap_tol, *self.oracle_inputs[name][:2]))
            self.add("oracle_s", {k: v for k, v in times.items() if v is not None})

    def _inputs(self, phase):
        """How many inputs one pass of `phase` runs over."""
        return {"grad": len(self.controls), "solve": len(self.work.solve),
                "simulate": len(self.work.controls),
                "oracle": sum(v is not None for v in self.oracle_inputs.values())}[phase]

    def phases(self, plan, seconds, fixed):
        """Rounds of every phase.  In a round, a phase that makes one pass is
        the backbone, and the passes of the other phases are split into
        chunks that run before, between and after the backbone's inputs.  So
        every metric samples the whole run, and a slow spell on the machine
        touches every metric a little instead of one metric wholly.  Rounds go
        on while the next one is expected to end within `seconds`.  `fixed`
        runs one round of one pass per phase, as the traced run does.  The
        gradient phase comes first: its memory reading precedes any CLI call."""
        min_rounds, passes = plan
        if fixed:
            min_rounds, passes, seconds = 1, dict.fromkeys(passes, 1), 0.0
        for name in self.work.controls:
            loaded = self.guarded(f"{name}: load", lambda: self.load(name))
            if loaded is not None:
                self.controls[name] = loaded
        for name, _, _ in self.work.oracle:
            self.oracle_inputs[name] = self.guarded(
                f"{name}: load", lambda: self.load(name, with_control=False))
        order = ("grad", "solve", "simulate", "oracle")
        backbone = [p for p in order if passes[p] == 1]
        gaps = 1 + sum(self._inputs(p) for p in backbone)
        # chunk j of a phase making n passes: ceil(n(j+1)/gaps) - ceil(nj/gaps)
        chunks = [{p: -(-n * (j + 1) // gaps) + (-n * j // gaps) for p, n in passes.items()
                   if n > 1} for j in range(gaps)]

        def run_chunk(chunk):
            for phase in order:
                if chunk.get(phase):
                    getattr(self, phase)(chunk[phase])

        start = time.perf_counter()
        self.rounds = 0
        while True:
            pending = iter(chunks)
            for phase in backbone:
                getattr(self, phase)(1, between=lambda: run_chunk(next(pending, {})))
            for chunk in pending:
                run_chunk(chunk)
            self.rounds += 1
            elapsed = time.perf_counter() - start
            if (self.rounds >= min_rounds
                    and elapsed * (self.rounds + 1) / self.rounds > seconds):
                break
        self.rss["peak_rss_mb"] = peak_rss_mb()
        # the duality identity along a seeded spike, after the memory readings
        for name, args in self.controls.items():
            self.guarded(f"{name}: duality", lambda: self._duality(name, *args))

    def speed_scale(self):
        """Factor from this run's wall times to times at the reference speed."""
        return REFERENCE_S / middle_mean(self.samples["reference_s"])

    def end_to_end(self):
        values = {}
        scale = self.speed_scale()
        for name, unit in E2E_METRICS:
            if name in self.rss:
                value = self.rss[name]
            else:
                value = middle_mean(self.samples[name]) * scale
            values[name] = {"value": value, "unit": unit}
        return values

    def sample_stats(self):
        stats = {}
        for key, values in self.samples.items():
            pct, tail_value = tail(values)
            stats[key] = {"middle_mean": middle_mean(values),
                          "median": statistics.median(values), "n": len(values),
                          "tail_pct": pct, "tail": tail_value}
        return stats


def _dir_bytes(path):
    if path is None or not Path(path).is_dir():
        return 0
    return sum(f.stat().st_size for f in Path(path).iterdir() if f.is_file())


def environment(numpy):
    libc = ctypes.CDLL(None)
    libc.sysconf.argtypes = [ctypes.c_int]
    libc.sysconf.restype = ctypes.c_long
    # glibc _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE
    l2, l3 = libc.sysconf(191), libc.sysconf(194)
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "l2_cache_bytes": l2,
        "l3_cache_bytes": l3,
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mfsmp" / "__init__.py").is_file():
        print(f"error: no mfsmp package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import mfsmp
    import mfsmp.cli
    import mfsmp.instances

    tag = f"{args.workload}-seed{args.seed}"
    in_dir = WORK / "inputs" / tag
    shutil.rmtree(in_dir, ignore_errors=True)
    subprocess.run([sys.executable, str(HERE / "inputs.py"), "--src", str(SRC),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--out", str(in_dir)], check=True, timeout=120)
    work = inputs.load(in_dir / "manifest.json")
    plan = PLANS[args.workload]

    run = Run(mfsmp, work, args.seed)
    run.setup(SETUP_RUNS)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(numpy)}
    if args.trace:
        # one round untraced, then the same round traced: the difference is
        # the overhead.  A first round, not measured, warms caches and first calls.
        run.phases(plan, args.seconds, fixed=True)
        untraced = Run(mfsmp, work, args.seed)
        untraced.phases(plan, args.seconds, fixed=True)
        tracer = tracing.Tracer(mfsmp.tree.ScenarioTree)
        traced = Run(mfsmp, work, args.seed, tracer)
        undo = tracer.install()
        try:
            traced.phases(plan, args.seconds, fixed=True)
        finally:
            tracer.uninstall(undo)
        metrics, table = tracing.layer_metrics(tracer.spans)
        trace_path = WORK / f"trace-{tag}.json"
        tracer.write(trace_path)
        detail["tracing_overhead"] = {}
        for name in PHASE_TIMES:
            on, off = (statistics.median(r.samples[name]) for r in (traced, untraced))
            detail["tracing_overhead"][name] = {"traced": on, "untraced": off,
                                                "overhead": on - off}
        detail["functions"] = table
        detail["spans"] = {"count": len(tracer.spans), "file": str(trace_path.relative_to(ROOT))}
        runs = (run, untraced, traced)
    else:
        run.phases(plan, args.seconds, fixed=False)
        metrics = run.end_to_end()
        detail["samples"] = run.sample_stats()
        detail["speed_scale"] = run.speed_scale()
        detail["rounds"] = run.rounds
        runs = (run,)

    attempted = sum(r.attempted for r in runs)
    wrong = [w for r in runs for w in r.wrong]
    uncertified = [w for r in runs for w in r.uncertified]
    detail.update({
        "inputs": {name: {"nodes": item.nodes, "control_rows": item.control_rows}
                   for name, item in work.items.items()},
        "failed_ops": {"failed": len(wrong) + len(uncertified), "attempted": attempted},
        "wrong": wrong,
        "uncertified": uncertified,
        "sufficiency_verdicts": runs[-1].sufficiency,
    })
    (WORK / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(detail, indent=2))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": len(wrong) + len(uncertified), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
