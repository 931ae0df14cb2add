"""Command-line interface: solve, check, simulate, example, selftest.

Exit codes: 0 success, 1 check/test failure (for `solve`: its solution fails
the first-order check, with every output written), 2 usage or configuration
error, or an output that cannot be written (found before any work is done),
141 (128 + SIGPIPE, as a shell reports) when standard output closes before
all is written, as in `mfsmp simulate ... | head`: the command ends quietly.
All outputs are deterministic for identical inputs (stable float repr, sorted
JSON keys, no timestamps), so re-running a manifest reproduces files byte for
byte.
"""

import argparse
import hashlib
import io
import json
import os
import signal
import sys
import threading
from functools import cache, partial
from itertools import islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .adjoint import integrability_report
from .errors import ConfigError, MfsmpError
from .forward import cost, forward_levels
from .optimize import OptimizerOptions, optimize
from .problem import parse_problem
from .prodcons import comparison_csv, comparison_rows, plot_data_csv
from .report import CheckReport
from .selftest import check_options, report_json, run_selftest
from .smp import (adjoint_gradient, certify_gradient, duality_residual, necessary_check,
                  sufficiency_check)
from .tree import AdaptedProcess
from .instances import random_spike


# rows per chunk: bounds the text held in memory while a CSV is written or read
CHUNK_ROWS = 4096
# characters per block of lines a control CSV is read and split in; blocks
# of 256K characters left the heap too fragmented for the gradient that ran
# after `mfsmp simulate` in the same process (+6.5 MB peak RSS on wide-tree)
READ_CHARS = 1 << 15
# printf conversion per numpy dtype kind; any other kind (object) is "%s"
_CONVERSIONS = {"i": "%d", "f": "%r"}


def _fmt(value) -> str:
    return repr(float(value))


def _distinct_labels(values):
    """Object array of `repr` strings, one per entry of the float array `values`,
    formatting each distinct value once.  Values are told apart by bit pattern,
    so -0.0 and 0.0 keep their own text."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    labels = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return labels[inverse]


def _write_rows(out, header, tree, levels, fields) -> str | None:
    """Write CSV rows `time,node_id,...` for every node of levels 0, 1, ...
    to the text stream `out`, or return the text when `out` is None.

    `levels` gives each level's data in turn, and `fields(k, data, rows)`
    lays out the rest of the level-k rows in the slice `rows` as a list
    whose items are either a string free of `%`, written verbatim in every
    row, or an array with one row per node of the slice whose columns become
    fields: integers as `%d`, floats as their shortest round-trip repr (`%r`,
    equal to `repr(float(v))`), objects as `%s`.  Each level is formatted
    column-wise and written in chunks of `CHUNK_ROWS` rows, node ids
    included, so no array spans a whole level and the whole text is never
    held in memory; `_write_level` may split a level's chunks between two
    processes, with the same bytes.  A level's data is let go before the
    next is asked for, so a source that makes its levels one at a time, as
    `forward_levels` does, has one alive.
    """
    if out is None:
        buf = io.StringIO()
        _write_rows(buf, header, tree, levels, fields)
        return buf.getvalue()
    out.write(",".join(header) + "\n")
    k = 0
    for data in levels:
        _write_level(out, tree, k, partial(fields, k, data))
        del data
        k += 1
    return None


def _write_level(out, tree, k, fields) -> None:
    """The rows of level k for `_write_rows`, `fields(rows)` laying out a chunk.
    `repr` costs far more than writing, so with a second usable CPU a forked
    child formats the odd chunks of a level of two or more from the data it
    shares copy-on-write, while this process formats the even ones and
    writes all in order; where no child runs (see `_fork_formatter`) or its
    pipe ends early, this process formats the rest: the bytes are the same."""
    size = tree.size(k)
    chunks = [slice(start, min(start + CHUNK_ROWS, size)) for start in range(0, size, CHUNK_ROWS)]
    text = partial(_chunk_text, tree, k, fields)
    pid, pipe = _fork_formatter(text, chunks[1::2]) if len(chunks) > 1 else (0, None)
    sent = iter(partial(_frame, pipe), None) if pipe else iter(())
    try:
        for i, rows in enumerate(chunks):
            piece = next(sent, None) if i % 2 else None
            out.write(text(rows) if piece is None else piece)
    finally:
        if pipe:  # the child may still be formatting if this process stopped early
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _chunk_text(tree, k, fields, rows) -> str:
    """The text of the rows in the slice `rows` of level k."""
    first = int(tree.global_id(k, 0))
    parts = [repr(float(tree.grid.time(k))), "%d"]
    columns = [np.arange(first + rows.start, first + rows.stop)[:, None]]
    for item in fields(rows):
        if isinstance(item, str):
            parts.append(item)
            continue
        item = item.reshape(len(columns[0]), -1)
        parts += [_CONVERSIONS.get(item.dtype.kind, "%s")] * item.shape[1]
        columns.append(item)
    # casting to object turns each cell into a Python int, float or str
    cells = np.concatenate(columns, axis=1, dtype=object)
    return ((",".join(parts) + "\n") * len(cells)) % tuple(cells.ravel().tolist())


def _fork_formatter(text, chunks):
    """(pid, pipe) of a forked child that sends `text(rows)` of each slice of
    `chunks` in order to the binary stream `pipe`, as frames of an 8-byte
    length and the UTF-8 text; (0, None) where one CPU is usable, another
    thread runs (a fork copies only this one) or the pipe or fork fails.
    The child only formats and ends by `os._exit`: it never flushes a stream
    of this process."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1 and threading.active_count() == 1):
        return 0, None
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return 0, None
    try:  # 1 MiB holds about two chunks, so the child runs ahead
        import fcntl  # POSIX, as is fork
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 1 << 20)
    except (AttributeError, OSError):
        pass
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return 0, None
    if pid == 0:
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                for rows in chunks:
                    data = text(rows).encode()
                    pipe.write(len(data).to_bytes(8, "little") + data)
                    pipe.flush()
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _frame(pipe) -> str | None:
    """The text of the next frame on `pipe`, or None at its end or a cut frame."""
    size = int.from_bytes(head, "little") if len(head := pipe.read(8)) == 8 else -1
    data = pipe.read(size) if size >= 0 else b""
    return data.decode() if len(data) == size else None


def write_trajectory_csv(spec, tree, traj, u, out=None) -> str | None:
    """The trajectory CSV of control u.  `traj` is a `StateTrajectory` or
    any source of the (state, mean) of levels 0..N+1 in turn, such as a
    `forward_levels` pass, of which the writer holds one level at a time."""
    header = (["time", "node_id", "parent_id", "prob"]
              + [f"x_{i + 1}" for i in range(spec.n)]
              + [f"u_{i + 1}" for i in range(spec.r)])

    def fields(k, x, rows):
        # a node's parent is its index // branch on the level above
        parent = ([""] if k == 0 else
                  [tree.global_id(k - 1, 0) + np.arange(rows.start, rows.stop) // tree.branch])
        controls = [u.at(k)[rows]] if k <= tree.grid.n_steps else [""] * spec.r
        return parent + [_distinct_labels(tree.abs_prob[k][rows]), x[rows]] + controls

    return _write_rows(out, header, tree, map(itemgetter(0), traj), fields)


def write_adjoint_csv(spec, tree, adj, out=None) -> str | None:
    header = (["time", "node_id"] + [f"p_{i + 1}" for i in range(spec.n)]
              + [f"q{j + 1}_{i + 1}" for j in range(spec.d) for i in range(spec.n)])

    def fields(k, p, rows):
        # q is (nodes, d, n); its rows flatten j-major, matching the header
        q = [adj.q.at(k)[rows]] if k <= tree.grid.n_steps else [""] * (spec.d * spec.n)
        return [p[rows]] + q

    return _write_rows(out, header, tree, map(adj.p.at, adj.p.levels()), fields)


def write_control_csv(spec, tree, u, out=None) -> str | None:
    header = ["time", "node_id"] + [f"u_{i + 1}" for i in range(spec.r)]
    return _write_rows(out, header, tree, map(u.at, u.levels()),
                       lambda k, uk, rows: [uk[rows]])


def _blocks(source):
    """The text of `source`, a str or a text stream read from its start, in
    blocks of whole lines of about `READ_CHARS` characters, each without its
    last line end: never the whole text at once."""
    if isinstance(source, str):
        start = 0
        while start < len(source):
            cut = source.find("\n", start + READ_CHARS)
            cut = len(source) if cut < 0 else cut
            yield source[start:cut]
            start = cut + 1
        return
    source.seek(0)
    parts = []
    while block := source.read(READ_CHARS):
        cut = block.rfind("\n")
        if cut < 0:
            parts.append(block)
            continue
        parts.append(block[:cut])
        yield "".join(parts)
        parts = [block[cut + 1:]]
    yield "".join(parts)


def _lines(blocks):
    """The non-blank lines of the text that `blocks` make up, as those of its
    `.strip()`: the first without its leading, the last without its trailing
    whitespace.  Each block's last line waits for the next line, so the
    text's last line is known when it is given."""
    last = None
    for block in blocks:
        lines = list(filter(str.strip, block.split("\n")))
        if not lines:
            continue
        if last is None:
            lines[0] = lines[0].lstrip()
        else:
            yield last
        last = lines.pop()
        yield from lines
    if last is not None:
        yield last.rstrip()


def read_control_csv(spec, tree, text) -> AdaptedProcess:
    """The control of a CSV in the format `write_control_csv` writes: `text`
    is a str or a text stream, such as the open file the CLI passes, which
    is read twice from its start, once to count the rows and once to parse
    them, a block of `READ_CHARS` characters at a time.  Rows go `CHUNK_ROWS`
    at a time into one preallocated array per level.  The checks, and which
    one wins when several fail, are those of a per-line parse of
    `text.strip()`, after a stream's decode error: the header, the row
    count, then level by level each row's field count, node id and numbers,
    and the level's values finite."""
    lines = _lines(_blocks(text))
    header = next(lines, "").split(",")
    rows = sum(1 for _ in lines)  # a stream is read to its end before any check
    if header == [""]:
        raise ConfigError("control CSV is empty")
    expected = ["time", "node_id"] + [f"u_{i + 1}" for i in range(spec.r)]
    if header != expected:
        raise ConfigError(f"control CSV header {header} != expected {expected}")
    levels = [np.empty((tree.size(k), spec.r)) for k in range(tree.grid.n_steps + 1)]
    expected_rows = sum(map(len, levels))
    if rows != expected_rows:
        raise ConfigError(f"control CSV has {rows} rows, tree needs {expected_rows}")
    lines = _lines(_blocks(text))
    next(lines)  # the header, checked above
    for k, level in enumerate(levels):
        first = int(tree.global_id(k, 0))
        try:
            for start in range(0, len(level), CHUNK_ROWS):
                values = []
                part = islice(lines, min(CHUNK_ROWS, len(level) - start))
                for node, line in enumerate(part, start):
                    parts = line.split(",")
                    if len(parts) != 2 + spec.r:
                        raise ConfigError(f"control CSV row has {len(parts)} fields, expected "
                                          f"{2 + spec.r}, at level {k}, node {node}")
                    if int(parts[1]) != first + node:
                        raise ConfigError(
                            f"control CSV node ids out of order at level {k}, node {node}")
                    values.extend(map(float, parts[2:]))
                level[start:node + 1] = np.reshape(values, (-1, spec.r))
        except ConfigError:
            raise  # a ValueError, but one of the reader's own
        except ValueError as exc:
            raise ConfigError(
                f"control CSV field is not a number at level {k}, node {node}: {exc}") from exc
        # a NaN would pass the box check, so the reader rejects it here
        if not np.isfinite(level).all():
            node = int(np.flatnonzero(~np.isfinite(level).all(axis=1))[0])
            raise ConfigError(f"control CSV value is not finite at level {k}, node {node}")
    return AdaptedProcess(tree, 0, levels)


def _out_dir(path) -> Path:
    """The output directory `path`, made with its parents, or a ConfigError."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return Path(path)


def _write(out_dir: Path, name: str, content, manifest_outputs: list) -> None:
    """Write `content` to `out_dir/name`: a string, or a function that writes
    the file's text to the open text stream it is passed."""
    try:
        with open(out_dir / name, "w") as stream:
            if isinstance(content, str):
                stream.write(content)
            else:
                content(stream)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir / name}: {exc}") from exc
    manifest_outputs.append(name)


def _manifest(command, config_path, options, outputs) -> str:
    digest = ""
    if config_path is not None:
        digest = hashlib.sha256(Path(config_path).read_bytes()).hexdigest()
    doc = {
        "command": command,
        "config": str(config_path) if config_path else None,
        "config_sha256": digest,
        "version": __version__,
        "options": options,
        "outputs": sorted(outputs),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _read_text(path: str, what: str) -> str:
    """The text of the input file `path`, or a ConfigError naming it as `what`."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _read_control(spec, tree, path: str) -> AdaptedProcess:
    """The control of the CSV file `path`, read from the open file a block at
    a time (a pipe, which cannot be read twice, whole), or a ConfigError
    naming the file when it cannot be read or decoded."""
    try:
        with open(path) as stream:
            return read_control_csv(spec, tree, stream if stream.seekable() else stream.read())
    except UnicodeDecodeError as exc:
        # a block's decoder counts positions from its block: decoded whole,
        # the file raises the error at its position in the file
        _read_text(path, "control")
        raise ConfigError(f"cannot read control {path}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read control {path}: {exc}") from exc


def _load_spec(path: str):
    return parse_problem(_read_text(path, "config"))


def _check_reports(spec, tree, u, tol, g, traj, adj):
    """Every check report of control u, given its `adjoint_gradient(..., return_all=True)`."""
    necessary = necessary_check(spec, u, g, tol=tol)
    sufficient = sufficiency_check(spec, tree, traj, adj, u, tol_hamiltonian=max(tol, 1e-6))
    spike = random_spike(spec, tree, u, seed=0, scale=1e-3)
    dual = duality_residual(spec, tree, traj, adj, u, spike)
    duality = CheckReport("duality-identity")
    duality.add("duality residual", dual, 1e-10)
    return {
        "necessary": necessary,
        "sufficiency": sufficient,
        "duality": duality,
        "gradient": certify_gradient(spec, tree, u, g, traj=traj),
        "integrability": integrability_report(adj, tree),
    }


def _checks_json(checks) -> str:
    return json.dumps({name: rep.to_dict() for name, rep in checks.items()},
                      sort_keys=True, indent=2) + "\n"


def cmd_solve(args) -> int:
    spec = _load_spec(args.config)
    tree = spec.build_tree()
    out = _out_dir(args.out)
    options = OptimizerOptions(max_iters=args.max_iters, grad_tol=args.grad_tol)
    result = optimize(spec, tree, options=options)
    g, traj, adj = adjoint_gradient(spec, tree, result.u, return_all=True)
    outputs = []
    opt_report = {
        "cost": result.cost,
        "objective": spec.objective_value(result.cost),
        "direction": spec.direction,
        "iterations": result.iterations,
        "termination": result.reason,
        "final_projected_gradient_norm": result.history[-1][1],
        "history": result.history,
        "options": {"max_iters": options.max_iters, "step_init": options.step_init,
                    "grad_tol": options.grad_tol},
    }
    _write(out, "optimize_report.json",
           json.dumps(opt_report, sort_keys=True, indent=2) + "\n", outputs)
    _write(out, "trajectory.csv", partial(write_trajectory_csv, spec, tree, traj, result.u),
           outputs)
    _write(out, "adjoint.csv", partial(write_adjoint_csv, spec, tree, adj), outputs)
    _write(out, "control.csv", partial(write_control_csv, spec, tree, result.u), outputs)
    checks = _check_reports(spec, tree, result.u, args.tol, g, traj, adj)
    _write(out, "checks.json", _checks_json(checks), outputs)
    opts = {"tol": args.tol, "max_iters": args.max_iters, "grad_tol": args.grad_tol}
    _write(out, "manifest.json", _manifest("solve", args.config, opts, outputs), [])
    print(f"solve: J = {result.cost!r} ({result.reason}); outputs in {out}")
    necessary = checks["necessary"]
    if not necessary.passed:
        worst = necessary.worst
        print(f"solve: necessary check failed: {worst.label} = {worst.value:.3e} "
              f"(tol {worst.tol:.1e}) at step {worst.level}, node {worst.node}",
              file=sys.stderr)
        return 1
    return 0


def cmd_check(args) -> int:
    spec = _load_spec(args.config)
    tree = spec.build_tree()
    u = _read_control(spec, tree, args.control)
    out = _out_dir(args.out) if args.out else None
    # the gradient's `simulate` checks u against its box first
    checks = _check_reports(spec, tree, u, args.tol,
                            *adjoint_gradient(spec, tree, u, return_all=True))
    text = _checks_json(checks)
    if out:
        outputs = []
        _write(out, "checks.json", text, outputs)
        _write(out, "manifest.json",
               _manifest("check", args.config, {"tol": args.tol}, outputs), [])
    else:
        sys.stdout.write(text)
    return 0 if all(rep.passed for rep in checks.values()) else 1


def cmd_simulate(args) -> int:
    """J and the trajectory CSV of a control, holding one level of states at
    a time: `cost` takes J from one forward pass, which checks u against its
    box and every state finite, and the CSV is written from a second, so no
    trajectory is stored."""
    spec = _load_spec(args.config)
    tree = spec.build_tree()
    u = _read_control(spec, tree, args.control)
    out = _out_dir(args.out) if args.out else None
    j_val = cost(spec, tree, u)

    def write(stream):
        levels = forward_levels(spec, tree, [u.at(k) for k in u.levels()])
        write_trajectory_csv(spec, tree, levels, u, out=stream)

    if out:
        outputs = []
        _write(out, "trajectory.csv", write, outputs)
        _write(out, "manifest.json",
               _manifest("simulate", args.config, {}, outputs), [])
        print(f"simulate: J = {j_val!r}; outputs in {args.out}")
    else:
        write(sys.stdout)
    return 0


def cmd_example_prodcons(args) -> int:
    if not 0.0 < args.delta < 1.0:
        raise ConfigError(f"--delta must lie in (0, 1), got {args.delta}")
    out = _out_dir(args.out)
    plot = Path(args.plot_data) if args.plot_data else None
    if plot:
        _out_dir(plot.parent)
    rep, result, rows = comparison_rows(args.delta, args.h, args.N, x0=args.x0)
    outputs = []
    replica_lines = ["k,t,p,q,v"]
    for k in range(args.N + 2):
        q_val = _fmt(rep.q[k]) if k <= args.N else ""
        v_val = _fmt(rep.v[k]) if k <= args.N else ""
        replica_lines.append(f"{k},{_fmt(k * args.h)},{_fmt(rep.p[k])},{q_val},{v_val}")
    _write(out, "replica.csv", "\n".join(replica_lines) + "\n", outputs)
    _write(out, "comparison.csv", comparison_csv(rows), outputs)
    if plot:
        _write(plot.parent, plot.name, plot_data_csv(rep), [])
    else:
        _write(out, "figure_data.csv", plot_data_csv(rep), outputs)
    general = {
        "cost": result.cost,
        "objective": -result.cost,
        "iterations": result.iterations,
        "termination": result.reason,
    }
    _write(out, "general_solver.json",
           json.dumps(general, sort_keys=True, indent=2) + "\n", outputs)
    opts = {"delta": args.delta, "h": args.h, "N": args.N, "x0": args.x0}
    _write(out, "manifest.json", _manifest("example prodcons", None, opts, outputs), [])
    agrees = all(row["p_agree"] for row in rows)
    print(f"example prodcons: p(T)={float(rep.p[-1])!r}, v(t0)={float(rep.v[0])!r}; "
          f"replica {'matches' if agrees else 'differs from'} general solver "
          f"(expected to differ unless h = 1); outputs in {out}")
    return 0


def cmd_selftest(args) -> int:
    check_options(args.suite, args.trials, args.inject_fault)
    out = _out_dir(args.out)
    report, reports = run_selftest(suite=args.suite, trials=args.trials,
                                   inject_fault=args.inject_fault)
    outputs = []
    _write(out, "selftest_report.json", report_json(report), outputs)
    opts = {"suite": args.suite, "trials": args.trials, "inject_fault": args.inject_fault}
    _write(out, "manifest.json", _manifest("selftest", None, opts, outputs), [])
    width = max(len(name) for name in reports)
    for name, rep in reports.items():
        print(f"{name.ljust(width)}  {rep.summary_line()}")
    failures = [name for name, rep in reports.items() if not rep.passed]
    if failures:
        print(f"FAILED suites: {', '.join(failures)}")
        return 1
    print("all suites passed")
    return 0


def _at_least(lo, kind, strict=False):
    """argparse type: a finite `kind` >= lo (> lo if `strict`), else an error
    that names the flag."""
    def parse(text):
        value = kind(text)
        if not (np.isfinite(value) and (value > lo if strict else value >= lo)):
            raise argparse.ArgumentTypeError(
                f"must be a finite number {'>' if strict else '>='} {lo}, got {text}")
        return value
    parse.__name__ = kind.__name__  # for argparse's "invalid int value" message
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfsmp",
        description="Mean-field stochastic optimal control on finite scenario trees")
    parser.add_argument("--version", action="version", version=f"mfsmp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="optimize a problem configuration")
    p_solve.add_argument("config")
    p_solve.add_argument("--out", default="mfsmp_out")
    p_solve.add_argument("--tol", type=_at_least(0.0, float), default=1e-6)
    p_solve.add_argument("--max-iters", type=_at_least(0, int), default=500)
    p_solve.add_argument("--grad-tol", type=_at_least(0.0, float), default=1e-8)
    p_solve.set_defaults(fn=cmd_solve)

    p_check = sub.add_parser("check", help="verify optimality conditions of a control")
    p_check.add_argument("config")
    p_check.add_argument("control")
    p_check.add_argument("--out", default=None)
    p_check.add_argument("--tol", type=_at_least(0.0, float), default=1e-6)
    p_check.set_defaults(fn=cmd_check)

    p_sim = sub.add_parser("simulate", help="simulate a control and export the trajectory")
    p_sim.add_argument("config")
    p_sim.add_argument("control")
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(fn=cmd_simulate)

    p_ex = sub.add_parser("example", help="built-in worked examples")
    ex_sub = p_ex.add_subparsers(dest="example", required=True)
    p_pc = ex_sub.add_parser("prodcons", help="production/consumption model")
    p_pc.add_argument("--delta", type=float, default=0.5)
    p_pc.add_argument("--h", type=_at_least(0.0, float, strict=True), default=0.5)
    p_pc.add_argument("--N", type=_at_least(1, int), default=5)
    p_pc.add_argument("--x0", type=float, default=1.0)
    p_pc.add_argument("--plot-data", default=None)
    p_pc.add_argument("--out", default="mfsmp_prodcons")
    p_pc.set_defaults(fn=cmd_example_prodcons)

    p_self = sub.add_parser("selftest", help="run the verification suites")
    p_self.add_argument("--suite", default=None)
    p_self.add_argument("--trials", type=_at_least(1, int), default=None)
    p_self.add_argument("--inject-fault", default=None)
    p_self.add_argument("--out", default="mfsmp_selftest")
    p_self.set_defaults(fn=cmd_selftest)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.fn(args)
    except BrokenPipeError:  # stdout's reader has gone: flush to devnull at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MfsmpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
