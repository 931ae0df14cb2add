import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mfsmp import cli, forward
from mfsmp.adjoint import linearize, solve_adjoint
from mfsmp.cli import (main, read_control_csv, write_adjoint_csv, write_control_csv,
                       write_trajectory_csv)
from mfsmp.errors import ConfigError
from mfsmp.forward import cost, simulate
from mfsmp.instances import e1_problem, random_control, random_lq
from mfsmp.problem import builtin, serialize_problem
from mfsmp.tree import AdaptedProcess

ZERO_CONFIG = {
    "dims": {"n": 1, "r": 1, "d": 1},
    "grid": {"t0": 0.0, "h": 1.0, "N": 0},
    "noise": {"kind": "binary"},
    "x0": [0.0],
    "family": {"name": "lq_meanfield", "params": {}},
    "admissible": [{"t": "all", "lo": [-1.0], "hi": [1.0]}],
    "direction": "minimize",
}


@pytest.fixture()
def e1_config(tmp_path):
    path = tmp_path / "e1.json"
    path.write_text(serialize_problem(e1_problem()))
    return path


def test_solve_writes_reports_and_csvs(e1_config, tmp_path):
    out = tmp_path / "out"
    assert main(["solve", str(e1_config), "--out", str(out)]) == 0
    report = json.loads((out / "optimize_report.json").read_text())
    assert report["cost"] == pytest.approx(1.0, abs=1e-8)
    for name in ("trajectory.csv", "adjoint.csv", "control.csv", "checks.json",
                 "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "control.csv" in manifest["outputs"] and manifest["config_sha256"]
    checks = json.loads((out / "checks.json").read_text())
    assert all(rep["pass"] for rep in checks.values())


def test_check_passes_on_solution_and_fails_on_perturbation(e1_config, tmp_path, capsys):
    out = tmp_path / "out"
    main(["solve", str(e1_config), "--out", str(out)])
    assert main(["check", str(e1_config), str(out / "control.csv")]) == 0
    capsys.readouterr()

    lines = (out / "control.csv").read_text().strip().split("\n")
    parts = lines[1].split(",")
    parts[2] = repr(float(parts[2]) + 0.1)
    bad = tmp_path / "bad.csv"
    bad.write_text(lines[0] + "\n" + ",".join(parts) + "\n")
    assert main(["check", str(e1_config), str(bad)]) == 1
    checks = json.loads(capsys.readouterr().out)
    assert not checks["necessary"]["pass"]


def test_solve_prodcons_self_certifies(tmp_path):
    # the solver's own output must pass every optimality check it writes
    from mfsmp.problem import builtin
    cfg = tmp_path / "pc.json"
    cfg.write_text(serialize_problem(
        builtin("prodcons", delta_util=0.5, h=0.5, N=5, x0=1.0, v_floor=0.05)))
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--out", str(out)]) == 0
    checks = json.loads((out / "checks.json").read_text())
    assert all(rep["pass"] for rep in checks.values()), {
        k: v["pass"] for k, v in checks.items()}
    assert main(["check", str(cfg), str(out / "control.csv")]) == 0


def test_solve_exits_1_when_its_first_order_check_fails(tmp_path, capsys):
    # one iteration stops short of the optimum: every output is still
    # written, and stderr names the worst residual, its step and its node
    cfg = tmp_path / "lq.json"
    cfg.write_text(serialize_problem(random_lq(3, convex=True)))
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--max-iters", "1", "--out", str(out)]) == 1
    for name in ("optimize_report.json", "trajectory.csv", "adjoint.csv", "control.csv",
                 "checks.json", "manifest.json"):
        assert (out / name).exists()
    necessary = json.loads((out / "checks.json").read_text())["necessary"]
    worst = max(necessary["residuals"], key=lambda r: r["value"])
    assert not necessary["pass"] and (worst["level"], worst["node"]) == (1, 0)
    err = capsys.readouterr().err
    assert err == (f"solve: necessary check failed: max <H_u, v-u> @step 1 = "
                   f"{worst['value']:.3e} (tol 1.0e-06) at step 1, node 0\n")


def test_check_zero_problem_trivially_passes(tmp_path, capsys):
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps(ZERO_CONFIG))
    control = tmp_path / "u.csv"
    control.write_text("time,node_id,u_1\n0.0,0,0.25\n")
    assert main(["check", str(cfg), str(control)]) == 0
    checks = json.loads(capsys.readouterr().out)
    assert checks["necessary"]["pass"] and checks["duality"]["pass"]


def test_simulate_streams_trajectory(e1_config, tmp_path, capsys):
    out = tmp_path / "out"
    main(["solve", str(e1_config), "--out", str(out)])
    capsys.readouterr()
    assert main(["simulate", str(e1_config), str(out / "control.csv")]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert rows[0].startswith("time,node_id,parent_id,prob,x_1,u_1")
    assert len(rows) == 1 + 3  # header + root + two leaves


def test_malformed_inputs_exit_2(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["solve", str(broken)]) == 2
    assert main(["solve", str(tmp_path / "missing.json")]) == 2
    assert main(["nonsense"]) == 2


def test_control_shape_mismatch_exits_2(e1_config, tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("time,node_id,u_1\n")
    assert main(["check", str(e1_config), str(short)]) == 2


@pytest.mark.parametrize("field, value", [(2, "abc"), (1, "x")])
def test_control_csv_non_numeric_exits_2(tmp_path, capsys, field, value):
    spec = CSV_CASES["trinomial"]()
    tree = spec.build_tree()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(serialize_problem(spec))
    lines = write_control_csv(spec, tree, random_control(spec, tree, 3)).split("\n")
    row = 1 + 1 + 3 + 4  # header, level 0, level 1, then level 2 node 4
    parts = lines[row].split(",")
    parts[field] = value
    lines[row] = ",".join(parts)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines))
    for command in ("check", "simulate"):
        assert main([command, str(cfg), str(bad)]) == 2
        err = capsys.readouterr().err
        assert "not a number at level 2, node 4" in err and repr(value) in err


def test_control_csv_roundtrip():
    # more rows than one reader block: every level comes back to the bit
    spec = builtin("lq_meanfield", n=1, r=2, d=1, h=0.1, N=15, x0=[0.0])
    tree = spec.build_tree()
    u = random_control(spec, tree, 5)
    text = write_control_csv(spec, tree, u)
    assert tree.size(tree.grid.n_steps) > cli.CHUNK_ROWS and len(text) > 2 * cli.READ_CHARS
    again = read_control_csv(spec, tree, text)
    for k in u.levels():
        assert again.at(k).dtype == u.at(k).dtype and again.at(k).tobytes() == u.at(k).tobytes()


def _reference_read_control(spec, tree, text):
    """The control reader as a per-line parse of the whole text: every check
    in the order the block reader must keep."""
    lines = [line for line in text.strip().split("\n") if line.strip()]
    if not lines:
        raise ConfigError("control CSV is empty")
    header = lines[0].split(",")
    expected = ["time", "node_id"] + [f"u_{i + 1}" for i in range(spec.r)]
    if header != expected:
        raise ConfigError(f"control CSV header {header} != expected {expected}")
    expected_rows = sum(tree.size(k) for k in range(tree.grid.n_steps + 1))
    if len(lines) - 1 != expected_rows:
        raise ConfigError(f"control CSV has {len(lines) - 1} rows, tree needs {expected_rows}")
    arrays, pos = [], 1
    for k in range(tree.grid.n_steps + 1):
        first, size = int(tree.global_id(k, 0)), tree.size(k)
        values = []
        try:
            for node, line in enumerate(lines[pos:pos + size]):
                parts = line.split(",")
                if len(parts) != 2 + spec.r:
                    raise ConfigError(f"control CSV row has {len(parts)} fields, expected "
                                      f"{2 + spec.r}, at level {k}, node {node}")
                if int(parts[1]) != first + node:
                    raise ConfigError(
                        f"control CSV node ids out of order at level {k}, node {node}")
                values.extend(map(float, parts[2:]))
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(
                f"control CSV field is not a number at level {k}, node {node}: {exc}") from exc
        level = np.array(values, dtype=float).reshape(size, spec.r)
        if not np.isfinite(level).all():
            node = int(np.flatnonzero(~np.isfinite(level).all(axis=1))[0])
            raise ConfigError(f"control CSV value is not finite at level {k}, node {node}")
        arrays.append(level)
        pos += size
    return AdaptedProcess(tree, 0, arrays)


def _outcome(read, spec, tree, text):
    """The levels' bytes a reader returns, or the text of the error it raises."""
    try:
        u = read(spec, tree, text)
    except ConfigError as exc:
        return "error", str(exc)
    return "ok", [(u.at(k).shape, u.at(k).dtype.str, u.at(k).tobytes()) for k in u.levels()]


def _set_field(row, field, value):
    """Edit of the control CSV lines: field `field` of data row `row` set to `value`."""
    def edit(lines):
        parts = lines[1 + row].split(",")
        parts[field] = value
        lines[1 + row] = ",".join(parts)
    return edit


def _edit_row(row, fn):
    def edit(lines):
        lines[1 + row] = fn(lines[1 + row])
    return edit


# binary N = 5: levels 3, 4 and 5 start at data rows 7, 15 and 31
READER_CASES = {
    "valid": [],
    "blank lines": [lambda lines: lines.insert(20, ""), lambda lines: lines.insert(9, "  \t"),
                    lambda lines: lines.append("\n \n")],
    "leading and trailing whitespace": [
        _edit_row(0, lambda line: "  " + line), _edit_row(40, lambda line: "  " + line + " \r"),
        _set_field(41, 1, " 41 "), _set_field(41, 3, "\t0.25 "),
        _edit_row(62, lambda line: line + "  \t"), lambda lines: lines.insert(0, " \n\t")],
    "indented header": [lambda lines: lines.__setitem__(0, " \t " + lines[0])],
    "last value not a number, then whitespace": [_set_field(62, 3, "abc"),
                                                 _edit_row(62, lambda line: line + " \t")],
    "python number forms": [_set_field(40, 1, "+40"), _set_field(42, 1, "4_2"),
                            _set_field(43, 2, "1_0.5"), _set_field(44, 3, "1e-3")],
    "windows line ends": [_edit_row(row, lambda line: line + "\r") for row in range(0, 63, 5)],
    "extra field": [_edit_row(40, lambda line: line + ",0.5")],
    "missing field": [_edit_row(40, lambda line: line.rsplit(",", 1)[0])],
    "fields shifted between rows": [_edit_row(40, lambda line: line + ",0.5"),
                                    _edit_row(41, lambda line: line.rsplit(",", 1)[0])],
    "a field moved to the row before": [
        lambda lines: lines.__setitem__(41, lines[41] + "," + lines[42].split(",", 1)[0]),
        _edit_row(41, lambda line: line.split(",", 1)[1])],
    "ids out of order": [_set_field(40, 1, "41"), _set_field(41, 1, "40")],
    "field count beats the id of its row": [_edit_row(40, lambda line: line + ",0.5"),
                                            _set_field(40, 1, "99")],
    "id beats a bad number of its row": [_set_field(40, 1, "99"), _set_field(40, 3, "abc")],
    "id not an integer": [_set_field(40, 1, "40.0")],
    "id too large for int64": [_set_field(40, 1, "9" * 30)],
    "value not a number": [_set_field(40, 3, "abc")],
    "value not finite": [_set_field(40, 2, "nan"), _set_field(50, 3, "-inf")],
    "a bad number beats an earlier non-finite of its level": [_set_field(33, 2, "inf"),
                                                              _set_field(60, 2, "abc")],
    "non-finite beats a bad number of a later level": [_set_field(20, 2, "nan"),
                                                       _set_field(40, 2, "abc")],
    "too few rows": [lambda lines: lines.pop(50)],
    "too many rows": [lambda lines: lines.insert(50, lines[50])],
    "row count beats a bad row": [_set_field(40, 3, "abc"), lambda lines: lines.pop()],
    "wrong header": [lambda lines: lines.__setitem__(0, "time,node,u_1,u_2")],
    "header beats the row count": [lambda lines: lines.__setitem__(0, "time,node_id,u_1"),
                                   lambda lines: lines.pop()],
    "empty": [lambda lines: lines.clear(), lambda lines: lines.append(" \n\t ")],
}


@pytest.mark.parametrize("read_chars, chunk_rows", [(None, None), (64, 5), (200, 7)])
@pytest.mark.parametrize("case", READER_CASES)
def test_control_reader_matches_per_line_reference(case, read_chars, chunk_rows, monkeypatch):
    # with small blocks every edit lies past the first block, and levels
    # straddle blocks and row chunks; values agree to the bit, errors to the
    # character
    spec = builtin("lq_meanfield", n=1, r=2, d=1, h=0.5, N=5, x0=[0.0], lo=-1.0, hi=1.0)
    tree = spec.build_tree()
    lines = write_control_csv(spec, tree, random_control(spec, tree, 2)).split("\n")[:-1]
    # the first block ends before data row 20, where the erroneous edits start
    before_row_20 = len("\n".join(lines[:21]))
    for edit in READER_CASES[case]:
        edit(lines)
    text = "\n".join(lines) + "\n"
    if read_chars is not None:
        monkeypatch.setattr(cli, "READ_CHARS", read_chars)
        monkeypatch.setattr(cli, "CHUNK_ROWS", chunk_rows)
        assert 2 * read_chars < before_row_20
    got = _outcome(read_control_csv, spec, tree, text)
    assert got == _outcome(_reference_read_control, spec, tree, text)
    assert (got[0] == "ok") == (case in ("valid", "blank lines", "leading and trailing whitespace",
                                         "indented header", "python number forms",
                                         "windows line ends"))


@pytest.mark.parametrize("read_chars, chunk_rows", [(None, None), (64, 5)])
def test_control_reader_row_errors_read_as_themselves(read_chars, chunk_rows, monkeypatch):
    # a wrong field count and an out-of-order id are the reader's own errors:
    # each names its level and node, and neither is reported as a bad number
    spec = builtin("lq_meanfield", n=1, r=2, d=1, h=0.5, N=5, x0=[0.0], lo=-1.0, hi=1.0)
    tree = spec.build_tree()
    if read_chars is not None:
        monkeypatch.setattr(cli, "READ_CHARS", read_chars)
        monkeypatch.setattr(cli, "CHUNK_ROWS", chunk_rows)
    lines = write_control_csv(spec, tree, random_control(spec, tree, 2)).split("\n")
    # data row 40 is node 9 of level 5, past the first block and row chunk
    for edit, message in (
            (_edit_row(40, lambda line: line + ",0.5"),
             "control CSV row has 5 fields, expected 4, at level 5, node 9"),
            (_set_field(40, 1, "41"), "control CSV node ids out of order at level 5, node 9")):
        edited = list(lines)
        edit(edited)
        with pytest.raises(ConfigError) as info:
            read_control_csv(spec, tree, "\n".join(edited))
        assert str(info.value) == message


def _file_outcome(spec, tree, path):
    """The outcome of reading the control file whole, then parsing it per line."""
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        return "error", f"cannot read control {path}: {exc}"
    return _outcome(_reference_read_control, spec, tree, text)


def _read_file(spec, tree, path):
    return cli._read_control(spec, tree, str(path))


@pytest.mark.parametrize("read_chars", [None, 64])
@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("case", READER_CASES)
def test_control_file_reads_as_its_whole_text(case, line_end, read_chars, tmp_path, monkeypatch):
    # the CLI hands the reader the open file, in universal-newline text
    # mode: values and errors are those of its whole text
    spec = builtin("lq_meanfield", n=1, r=2, d=1, h=0.5, N=5, x0=[0.0], lo=-1.0, hi=1.0)
    tree = spec.build_tree()
    lines = write_control_csv(spec, tree, random_control(spec, tree, 2)).split("\n")[:-1]
    for edit in READER_CASES[case]:
        edit(lines)
    path = tmp_path / "u.csv"
    path.write_bytes(("\n".join(lines) + "\n").replace("\n", line_end).encode())
    if read_chars is not None:
        monkeypatch.setattr(cli, "READ_CHARS", read_chars)
        monkeypatch.setattr(cli, "CHUNK_ROWS", 5)
    assert _outcome(_read_file, spec, tree, path) == _file_outcome(spec, tree, path)


@pytest.mark.parametrize("edit", [
    lambda data: b"\xff" + data,                        # in the header
    lambda data: data[:50000] + b"\xfe" + data[50000:],  # many blocks in
    lambda data: data[:8191] + b"\xc3" + data[8191:],    # a lead byte at a buffer's end
    lambda data: data[:8191] + "\u00e9".encode() + data[8191:],  # valid, in a number
], ids=["header", "late", "lead-byte-at-buffer-end", "valid-two-bytes-in-a-number"])
def test_control_file_decode_error_names_its_place_in_the_file(edit, tmp_path):
    # decoded a block at a time, the error still gives its position in the
    # whole file, and it wins over the reader's own checks
    spec = builtin("lq_meanfield", n=1, r=2, d=1, h=0.1, N=10, x0=[0.0], lo=-1.0, hi=1.0)
    tree = spec.build_tree()
    path = tmp_path / "u.csv"
    path.write_bytes(edit(write_control_csv(spec, tree, random_control(spec, tree, 2)).encode()))
    expected = _file_outcome(spec, tree, path)
    assert _outcome(_read_file, spec, tree, path) == expected
    assert expected[1].startswith(f"cannot read control {path}: ") != ("number" in expected[1])


def test_control_from_a_pipe_is_read_whole(tmp_path, capsys):
    # a pipe cannot be read twice: its text is read at once, as before
    spec = CSV_CASES["trinomial"]()
    tree = spec.build_tree()
    u = random_control(spec, tree, 4)
    cfg, fifo = tmp_path / "cfg.json", tmp_path / "u.fifo"
    cfg.write_text(serialize_problem(spec))
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(write_control_csv(spec, tree, u),),
                              daemon=True)
    writer.start()
    assert main(["simulate", str(cfg), str(fifo)]) == 0
    writer.join(timeout=10)
    assert capsys.readouterr().out == write_trajectory_csv(spec, tree, simulate(spec, tree, u), u)


@pytest.mark.parametrize("case", ["missing control", "directory as control",
                                  "config not UTF-8"])
def test_unreadable_input_file_exits_2_with_one_error_line(case, tmp_path, capsys):
    spec = builtin("lq_meanfield", n=1, r=1, d=1, h=0.5, N=2, x0=[0.0], lo=-1.0, hi=1.0)
    tree = spec.build_tree()
    cfg, control = tmp_path / "cfg.json", tmp_path / "control.csv"
    cfg.write_text(serialize_problem(spec))
    control.write_text(write_control_csv(spec, tree, random_control(spec, tree, 1)))
    what = "control"
    if case == "missing control":
        control = tmp_path / "missing.csv"
    elif case == "directory as control":
        control = tmp_path
    else:
        cfg.write_bytes(b"\xff\xfe" + cfg.read_bytes())
        what = "config"
    for command in ("check", "simulate"):
        assert main([command, str(cfg), str(control)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {what} ") and err.count("\n") == 1


@pytest.mark.parametrize("command, work", [
    (["solve", "CONFIG", "--out", "BLOCKED/x"], "optimize"),
    (["check", "CONFIG", "CONTROL", "--out", "BLOCKED/y"], "adjoint_gradient"),
    (["simulate", "CONFIG", "CONTROL", "--out", "BLOCKED/z"], "cost"),
    (["example", "prodcons", "--out", "BLOCKED/pc"], "comparison_rows"),
    (["example", "prodcons", "--out", "OK", "--plot-data", "BLOCKED/p.csv"], "comparison_rows"),
    (["selftest", "--suite", "noise", "--out", "BLOCKED/st"], "run_selftest"),
], ids=["solve", "check", "simulate", "prodcons-out", "prodcons-plot-data", "selftest"])
def test_output_that_cannot_be_created_exits_2_before_any_work(command, work, tmp_path,
                                                                 capsys, monkeypatch):
    # BLOCKED is a plain file, so no directory can be made below it
    spec = builtin("lq_meanfield", n=1, r=1, d=1, h=0.5, N=2, x0=[0.0], lo=-1.0, hi=1.0)
    tree = spec.build_tree()
    cfg, control, blocked = tmp_path / "cfg.json", tmp_path / "control.csv", tmp_path / "BLOCKED"
    cfg.write_text(serialize_problem(spec))
    control.write_text(write_control_csv(spec, tree, random_control(spec, tree, 1)))
    blocked.write_text("")

    def refuse(*args, **kw):
        raise AssertionError(f"{work} ran before the output directory was made")

    monkeypatch.setattr(cli, work, refuse)
    names = {"CONFIG": str(cfg), "CONTROL": str(control)}
    argv = [names.get(a, a.replace("BLOCKED", str(blocked)).replace("OK", str(tmp_path / "ok")))
            for a in command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {blocked}") and err.count("\n") == 1


def test_unwritable_output_file_exits_2_with_one_error_line(tmp_path, capsys):
    spec = builtin("lq_meanfield", n=1, r=1, d=1, h=0.5, N=2, x0=[0.0], lo=-1.0, hi=1.0)
    tree = spec.build_tree()
    cfg, control = tmp_path / "cfg.json", tmp_path / "control.csv"
    cfg.write_text(serialize_problem(spec))
    control.write_text(write_control_csv(spec, tree, random_control(spec, tree, 1)))
    out = tmp_path / "out"
    (out / "checks.json").mkdir(parents=True)
    assert main(["check", str(cfg), str(control), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out / 'checks.json'}: ")
    assert err.count("\n") == 1


def test_check_and_simulate_test_feasibility_once(tmp_path, capsys, monkeypatch):
    spec = builtin("lq_meanfield", n=1, r=1, d=1, h=0.5, N=3, x0=[0.0], lo=-1.0, hi=1.0)
    tree = spec.build_tree()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(serialize_problem(spec))
    calls = []
    feasible = forward.check_feasible

    def counted(*args, **kw):
        calls.append(1)
        return feasible(*args, **kw)

    # by either name, so a command that tests feasibility itself is seen too
    monkeypatch.setattr(forward, "check_feasible", counted)
    monkeypatch.setattr(cli, "check_feasible", counted, raising=False)
    u = random_control(spec, tree, 3)
    good = tmp_path / "good.csv"
    good.write_text(write_control_csv(spec, tree, u))
    u.at(2)[1, 0] = 1.5
    bad = tmp_path / "bad.csv"
    bad.write_text(write_control_csv(spec, tree, u))
    for command in ("check", "simulate"):
        calls.clear()
        assert main([command, str(cfg), str(good), "--out", str(tmp_path / command)]) in (0, 1)
        assert len(calls) == 1
        assert main([command, str(cfg), str(bad)]) == 1
        assert capsys.readouterr().err == (
            "error: control violates admissible box at step 2 by 5.000e-01\n")


def test_example_prodcons_outputs(tmp_path, capsys):
    out = tmp_path / "pc"
    plot = tmp_path / "fig.csv"
    code = main(["example", "prodcons", "--delta", "0.5", "--h", "0.5", "--N", "5",
                 "--out", str(out), "--plot-data", str(plot)])
    assert code == 0
    rows = plot.read_text().strip().split("\n")
    assert len(rows) == 7 and rows[0] == "t,v"
    comparison = (out / "comparison.csv").read_text().strip().split("\n")
    assert len(comparison) == 1 + 7  # header + levels 0..6
    replica_rows = (out / "replica.csv").read_text().strip().split("\n")
    assert replica_rows[-1].split(",")[2] == "1.0"  # terminal costate
    assert main(["example", "prodcons", "--delta", "1.5"]) == 2


def test_selftest_suite_and_fault_injection(tmp_path):
    out = tmp_path / "st"
    assert main(["selftest", "--suite", "noise", "--out", str(out)]) == 0
    report = json.loads((out / "selftest_report.json").read_text())
    assert report["pass"] and set(report["suites"]) == {"noise"}
    assert main(["selftest", "--suite", "gradient", "--trials", "3",
                 "--inject-fault", "grad-sign", "--out", str(out)]) == 1
    assert main(["selftest", "--suite", "bogus", "--out", str(out)]) == 2
    assert main(["selftest", "--inject-fault", "bogus", "--out", str(out)]) == 2


@pytest.mark.parametrize("argv, flag", [
    (["selftest", "--trials", "-1", "--inject-fault", "grad-sign"], "--trials"),
    (["selftest", "--trials", "0"], "--trials"),
    (["solve", "CONFIG", "--grad-tol", "nan"], "--grad-tol"),
    (["solve", "CONFIG", "--grad-tol", "-1"], "--grad-tol"),
    (["solve", "CONFIG", "--tol", "nan"], "--tol"),
    (["solve", "CONFIG", "--max-iters", "-3"], "--max-iters"),
    (["check", "CONFIG", "CONTROL", "--tol", "-1"], "--tol"),
    # the example builds its replica from h before any grid check could run
    (["example", "prodcons", "--h", "0"], "--h"),
    (["example", "prodcons", "--h", "-0.5"], "--h"),
    (["example", "prodcons", "--h", "nan"], "--h"),
    (["example", "prodcons", "--h", "inf"], "--h"),
])
def test_bad_numeric_flags_exit_2_at_parse_time(argv, flag, e1_config, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [str(e1_config) if a == "CONFIG" else str(tmp_path / "u.csv") if a == "CONTROL"
            else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not out.exists()


def test_selftest_single_suite_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["selftest", "--suite", "prodcons", "--out", str(out1)]) == 0
    assert main(["selftest", "--suite", "prodcons", "--out", str(out2)]) == 0
    assert (out1 / "selftest_report.json").read_bytes() == \
        (out2 / "selftest_report.json").read_bytes()


def test_solve_outputs_deterministic(e1_config, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    main(["solve", str(e1_config), "--out", str(out1)])
    main(["solve", str(e1_config), "--out", str(out2)])
    for name in ("optimize_report.json", "trajectory.csv", "adjoint.csv",
                 "control.csv", "checks.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# -- CSV byte identity ---------------------------------------------------------
# The per-node writers below are the reference layout: one row per node, every
# float as repr(float(v)).  The streamed column-wise writers must match them
# byte for byte.

def _fmt(value):
    return repr(float(value))


def _reference_trajectory(spec, tree, traj, u):
    header = (["time", "node_id", "parent_id", "prob"]
              + [f"x_{i + 1}" for i in range(spec.n)]
              + [f"u_{i + 1}" for i in range(spec.r)])
    lines = [",".join(header)]
    for k in range(tree.grid.n_levels):
        x = traj.at(k)
        uk = u.at(k) if k <= tree.grid.n_steps else None
        parents = np.arange(tree.size(k)) // tree.branch
        for node in range(tree.size(k)):
            parent = "" if k == 0 else str(tree.global_id(k - 1, parents[node]))
            row = [_fmt(tree.grid.time(k)), str(tree.global_id(k, node)), parent,
                   _fmt(tree.abs_prob[k][node])]
            row += [_fmt(v) for v in x[node]]
            row += ([_fmt(v) for v in uk[node]] if uk is not None else [""] * spec.r)
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _reference_adjoint(spec, tree, adj):
    header = (["time", "node_id"] + [f"p_{i + 1}" for i in range(spec.n)]
              + [f"q{j + 1}_{i + 1}" for j in range(spec.d) for i in range(spec.n)])
    lines = [",".join(header)]
    for k in range(tree.grid.n_levels):
        p = adj.p.at(k)
        q = adj.q.at(k) if k <= tree.grid.n_steps else None
        for node in range(tree.size(k)):
            row = [_fmt(tree.grid.time(k)), str(tree.global_id(k, node))]
            row += [_fmt(v) for v in p[node]]
            if q is None:
                row += [""] * (spec.d * spec.n)
            else:
                row += [_fmt(q[node, j, i]) for j in range(spec.d) for i in range(spec.n)]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _reference_control(spec, tree, u):
    header = ["time", "node_id"] + [f"u_{i + 1}" for i in range(spec.r)]
    lines = [",".join(header)]
    for k in range(tree.grid.n_steps + 1):
        uk = u.at(k)
        for node in range(tree.size(k)):
            row = [_fmt(tree.grid.time(k)), str(tree.global_id(k, node))]
            row += [_fmt(v) for v in uk[node]]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


CSV_CASES = {
    # two controls and two diffusions: q<j>_* columns, several u_* columns
    "lq-d2-r2": lambda: builtin(
        "lq_meanfield", n=2, r=2, d=2, h=0.5, N=3, t0=0.25, x0=[0.3, -1.0],
        A=[[0.1, 0.2], [0.0, -0.3]], A_mean=[[0.05, 0.0], [0.0, 0.1]],
        B=[[1.0, 0.5], [0.2, 1.0]],
        sigma=[{"s0": [0.1, 0.2], "C": [[0.1, 0.0], [0.0, 0.2]]}, {"s0": [0.3, 0.0]}],
        Q=[[1.0, 0.0], [0.0, 1.0]], R=[[2.0, 0.0], [0.0, 1.0]],
        G=[[1.0, 0.0], [0.0, 1.0]], q=[0.1, -0.2], lo=-1.0, hi=1.0),
    # trinomial noise: path probabilities differ within a level
    "trinomial": lambda: builtin(
        "lq_meanfield", n=1, r=1, d=1, h=0.5, N=4, x0=[1.0], noise="trinomial",
        trinomial_p=0.2, B=[[1.0]], sigma=[{"s0": [1.0], "C": [[0.3]]}], R=[[2.0]],
        G=[[1.0]], lo=-2.0, hi=2.0),
    "prodcons": lambda: builtin("prodcons", delta_util=0.5, h=0.5, N=5, x0=1.0,
                                v_floor=0.05),
}


@pytest.mark.parametrize("case, chunk_rows", [
    ("lq-d2-r2", None), ("trinomial", None), ("prodcons", None),
    ("lq-d2-r2", 7),  # chunk boundaries fall inside levels
])
def test_solve_csvs_match_per_node_reference(case, chunk_rows, tmp_path, monkeypatch):
    if chunk_rows is not None:
        monkeypatch.setattr(cli, "CHUNK_ROWS", chunk_rows)
    spec = CSV_CASES[case]()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(serialize_problem(spec))
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--out", str(out)]) == 0

    tree = spec.build_tree()
    u = read_control_csv(spec, tree, (out / "control.csv").read_text())
    traj = simulate(spec, tree, u)
    adj = solve_adjoint(linearize(spec, tree, traj, u), tree)
    expected = {
        "trajectory.csv": _reference_trajectory(spec, tree, traj, u),
        "adjoint.csv": _reference_adjoint(spec, tree, adj),
        "control.csv": _reference_control(spec, tree, u),
    }
    for name, text in expected.items():
        assert (out / name).read_bytes() == text.encode(), name
    if case == "trinomial":
        assert len(set(tree.abs_prob[-1].tolist())) > 1


@pytest.mark.parametrize("case", ["trinomial", "prodcons"])
def test_solve_checks_equal_check_of_written_control(case, tmp_path):
    # solve reuses its adjoint solve for the checks; check of the control it
    # wrote recomputes everything and must give the same bytes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(serialize_problem(CSV_CASES[case]()))
    out, chk = tmp_path / "out", tmp_path / "chk"
    assert main(["solve", str(cfg), "--out", str(out)]) == 0
    assert main(["check", str(cfg), str(out / "control.csv"), "--out", str(chk)]) in (0, 1)
    assert (chk / "checks.json").read_bytes() == (out / "checks.json").read_bytes()


@pytest.mark.parametrize("chunk_rows", [None, 7])
def test_csv_writers_return_or_stream_reference_text(chunk_rows, monkeypatch):
    if chunk_rows is not None:
        monkeypatch.setattr(cli, "CHUNK_ROWS", chunk_rows)
    spec = CSV_CASES["lq-d2-r2"]()
    tree = spec.build_tree()
    u = random_control(spec, tree, 3)
    traj = simulate(spec, tree, u)
    adj = solve_adjoint(linearize(spec, tree, traj, u), tree)
    writers = [
        (lambda **kw: write_trajectory_csv(spec, tree, traj, u, **kw),
         _reference_trajectory(spec, tree, traj, u)),
        (lambda **kw: write_adjoint_csv(spec, tree, adj, **kw), _reference_adjoint(spec, tree, adj)),
        (lambda **kw: write_control_csv(spec, tree, u, **kw), _reference_control(spec, tree, u)),
    ]
    for write, reference in writers:
        assert write() == reference
        stream = io.StringIO()
        assert write(out=stream) is None
        assert stream.getvalue() == reference


def test_trajectory_writer_holds_no_level_wide_array(monkeypatch):
    # node ids, parent ids and probability labels are made per chunk, so
    # with small chunks the writer's peak stays below one level of int64
    class Sink:
        def write(self, text):
            pass

    monkeypatch.setattr(cli, "CHUNK_ROWS", 64)
    spec = builtin("lq_meanfield", n=3, r=1, d=1, h=0.1, N=13, x0=[0.0, 0.0, 0.0])
    tree = spec.build_tree()
    u = random_control(spec, tree, 1)
    traj = simulate(spec, tree, u)
    tracemalloc.start()
    try:
        write_trajectory_csv(spec, tree, traj, u, out=Sink())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tree.size(tree.n_levels - 1) * np.dtype(np.int64).itemsize


def _forks(mode, monkeypatch):
    """Patch this process's usable CPUs and `os.fork` for `mode`, whatever
    the machine has: "split" and "thread-alive" see two CPUs, "one-cpu" one,
    and "fork-fails" two and a fork that raises.  Returns the list that each
    fork attempt appends to."""
    calls, fork = [], os.fork

    def counted_fork():
        calls.append(mode)
        if mode == "fork-fails":
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if mode == "one-cpu" else {0, 1})
    return calls


@contextlib.contextmanager
def _alive_thread(mode):
    """A second thread that runs while the block does, in mode "thread-alive"."""
    if mode != "thread-alive":
        yield
        return
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        yield
    finally:
        done.set()
        thread.join()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


SPLIT_MODES = ["one-cpu", "fork-fails", "thread-alive"]


def _run_split_and_not(mode, run, split_levels, monkeypatch):
    """`run()` with every level of two or more chunks split, then in `mode`,
    where no level is: both results, after checking the fork attempts."""
    with monkeypatch.context() as patch:
        forks = _forks("split", patch)
        split = run()
    assert len(forks) == split_levels
    _assert_no_child_left()
    with monkeypatch.context() as patch, _alive_thread(mode):
        forks = _forks(mode, patch)
        alone = run()
    assert len(forks) == (split_levels if mode == "fork-fails" else 0)
    return split, alone


@pytest.mark.parametrize("mode", SPLIT_MODES)
def test_csv_bytes_do_not_depend_on_the_split(mode, tmp_path, monkeypatch):
    # lq-d2-r2's levels have 1, 4, 16, 64 and 256 nodes: at 9 rows a chunk,
    # 1, 1, 2, 8 and 29 chunks; each level of two or more forks one
    # formatter, and the text, returned or written to a file, is that of one
    # process
    monkeypatch.setattr(cli, "CHUNK_ROWS", 9)
    spec = CSV_CASES["lq-d2-r2"]()
    tree = spec.build_tree()
    u = random_control(spec, tree, 3)
    traj = simulate(spec, tree, u)
    adj = solve_adjoint(linearize(spec, tree, traj, u), tree)
    writers = {
        "trajectory": lambda **kw: write_trajectory_csv(spec, tree, traj, u, **kw),
        "adjoint": lambda **kw: write_adjoint_csv(spec, tree, adj, **kw),
        "control": lambda **kw: write_control_csv(spec, tree, u, **kw),
    }

    def run():
        got = {}
        for name, write in writers.items():
            path = tmp_path / f"{name}.csv"
            with open(path, "w") as stream:
                assert write(out=stream) is None
            got[name] = (write(), path.read_bytes())
        return got

    # levels 2-4 of the trajectory and adjoint, 2-3 of the control, twice
    split, alone = _run_split_and_not(mode, run, 2 * (3 + 3 + 2), monkeypatch)
    assert split == alone
    assert split["trajectory"][0] == _reference_trajectory(spec, tree, traj, u)
    assert split["adjoint"][0] == _reference_adjoint(spec, tree, adj)
    assert split["control"][0] == _reference_control(spec, tree, u)
    for text, written in split.values():
        assert written == text.encode()


@pytest.mark.parametrize("mode", SPLIT_MODES)
def test_simulate_bytes_do_not_depend_on_the_split(mode, tmp_path, capsys, monkeypatch):
    # trinomial levels of 1, 3, 9, 27, 81 and 243 nodes: 1, 1, 2, 6, 17 and
    # 49 chunks of 5 rows; a failed fork is no output error (exit 0, not 2)
    monkeypatch.setattr(cli, "CHUNK_ROWS", 5)
    spec = CSV_CASES["trinomial"]()
    tree = spec.build_tree()
    cfg, control = tmp_path / "cfg.json", tmp_path / "u.csv"
    cfg.write_text(serialize_problem(spec))
    control.write_text(write_control_csv(spec, tree, random_control(spec, tree, 4)))
    out = tmp_path / "out"

    def run():
        assert main(["simulate", str(cfg), str(control), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert main(["simulate", str(cfg), str(control)]) == 0
        return printed, capsys.readouterr().out, (out / "trajectory.csv").read_bytes()

    split, alone = _run_split_and_not(mode, run, 2 * 4, monkeypatch)
    assert split == alone
    assert split[0].startswith("simulate: J = ") and split[2] == split[1].encode()


class _FailingStream:
    """A text stream whose `calls`-th write raises `error`."""

    def __init__(self, calls, error):
        self.calls, self.error = calls, error

    def write(self, text):
        self.calls -= 1
        if self.calls == 0:
            raise self.error


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()])
def test_a_failed_write_leaves_no_child(error, monkeypatch):
    # the header and levels 0-3 are written (1, 1, 2 and 8 chunks), then the
    # write fails in the middle of the 29-chunk leaf level
    monkeypatch.setattr(cli, "CHUNK_ROWS", 9)
    forks = _forks("split", monkeypatch)
    spec = CSV_CASES["lq-d2-r2"]()
    tree = spec.build_tree()
    u = random_control(spec, tree, 3)
    with pytest.raises(type(error)):
        write_trajectory_csv(spec, tree, simulate(spec, tree, u), u,
                             out=_FailingStream(1 + 1 + 1 + 2 + 8 + 5, error))
    assert len(forks) == 3
    _assert_no_child_left()


def test_a_child_that_stops_early_leaves_its_chunks_to_the_parent(monkeypatch):
    # each child sends its first chunk and exits: this process formats the
    # rest of the level, and the bytes are the same
    monkeypatch.setattr(cli, "CHUNK_ROWS", 9)
    spec = CSV_CASES["lq-d2-r2"]()
    tree = spec.build_tree()
    u = random_control(spec, tree, 3)
    traj = simulate(spec, tree, u)
    expected = write_trajectory_csv(spec, tree, traj, u)
    parent, chunk_text, sent = os.getpid(), cli._chunk_text, []

    def first_chunk_only(*args):
        if os.getpid() != parent:
            if sent:
                os._exit(0)
            sent.append(1)
        return chunk_text(*args)

    monkeypatch.setattr(cli, "_chunk_text", first_chunk_only)
    forks = _forks("split", monkeypatch)
    assert write_trajectory_csv(spec, tree, traj, u) == expected
    assert len(forks) == 3
    _assert_no_child_left()


def test_closed_stdout_pipe_ends_quietly(tmp_path):
    # a reader that closes after one line: simulate exits 141 (128 + SIGPIPE)
    # with nothing on stderr, neither a traceback nor an error at exit
    spec = builtin("lq_meanfield", n=3, r=1, d=1, h=0.1, N=12, x0=[0.0, 0.0, 0.0])
    tree = spec.build_tree()
    cfg, control = tmp_path / "cfg.json", tmp_path / "u.csv"
    cfg.write_text(serialize_problem(spec))
    control.write_text(write_control_csv(spec, tree, random_control(spec, tree, 4)))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    # the trajectory text (about 1 MB) overfills the pipe, so the writer is
    # still writing when the pipe closes
    proc = subprocess.Popen([sys.executable, "-m", "mfsmp.cli", "simulate", str(cfg), str(control)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"time,node_id,parent_id,prob,")
    proc.stdout.close()
    assert proc.communicate(timeout=60)[1] == b""
    assert proc.returncode == 141


def test_closed_stdout_pipe_in_a_split_level_ends_quietly(tmp_path):
    # at 3 rows a chunk every level past the second is split; the reader
    # closes after levels 0-5 (63 rows), while the writer is in a split level
    # further down: exit 141, nothing on stderr, and no child left once
    # `main` returns
    spec = builtin("lq_meanfield", n=3, r=1, d=1, h=0.1, N=12, x0=[0.0, 0.0, 0.0])
    tree = spec.build_tree()
    cfg, control = tmp_path / "cfg.json", tmp_path / "u.csv"
    cfg.write_text(serialize_problem(spec))
    control.write_text(write_control_csv(spec, tree, random_control(spec, tree, 4)))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    script = (
        "import os, sys\n"
        "from mfsmp import cli\n"
        "cli.CHUNK_ROWS = 3\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "fork, forks = os.fork, []\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "status = cli.main(sys.argv[1:])\n"
        "if len(forks) < 5:\n"
        "    sys.stderr.write(f'{len(forks)} levels split\\n')\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    sys.stderr.write('a child is left\\n')\n"
        "except ChildProcessError:\n"
        "    pass\n"
        "sys.exit(status)\n")
    proc = subprocess.Popen([sys.executable, "-c", script, "simulate", str(cfg), str(control)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"time,node_id,parent_id,prob,")
    assert [proc.stdout.readline().split(b",")[1] for _ in range(63)][-1] == b"62"
    proc.stdout.close()
    assert proc.communicate(timeout=60)[1] == b""
    assert proc.returncode == 141


def test_simulate_stdout_matches_out_file(tmp_path, capsys):
    spec = CSV_CASES["trinomial"]()
    tree = spec.build_tree()
    cfg, control = tmp_path / "cfg.json", tmp_path / "u.csv"
    cfg.write_text(serialize_problem(spec))
    control.write_text(write_control_csv(spec, tree, random_control(spec, tree, 4)))
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), str(control), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["simulate", str(cfg), str(control)]) == 0
    assert capsys.readouterr().out.encode() == (out / "trajectory.csv").read_bytes()


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_simulate_writes_the_stored_trajectory_csv(case, tmp_path, capsys):
    # J comes from one forward pass and the CSV from a second: both are
    # those of the stored trajectory, to stdout and with --out
    spec = CSV_CASES[case]()
    tree = spec.build_tree()
    u = random_control(spec, tree, 4)
    cfg, control = tmp_path / "cfg.json", tmp_path / "u.csv"
    cfg.write_text(serialize_problem(spec))
    control.write_text(write_control_csv(spec, tree, u))
    traj = simulate(spec, tree, u)
    expected = write_trajectory_csv(spec, tree, traj, u)
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), str(control), "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        f"simulate: J = {cost(spec, tree, u, traj=traj)!r}; outputs in {out}\n")
    assert (out / "trajectory.csv").read_bytes() == expected.encode()
    assert main(["simulate", str(cfg), str(control)]) == 0
    assert capsys.readouterr().out == expected


def test_simulate_holds_one_level_of_states(tmp_path, capsys):
    # the control file read a block at a time, J from one forward pass and
    # the CSV from a second: at N = 15 the command peaks at 3.87 leaf state
    # arrays under tracemalloc, 5.37 when it stored the trajectory and read
    # the file whole
    eye = np.eye(3)
    spec = builtin("lq_meanfield", n=3, r=1, d=1, h=0.1, N=15, x0=[0.1, -0.2, 0.3],
                   A_mean=0.1 * eye, B=[[1.0], [0.5], [0.2]],
                   sigma=[{"s0": [0.1, 0.2, 0.3], "C": 0.1 * eye}], Q=eye, Q_mean=0.5 * eye,
                   R=[[1.0]], G=eye, G_mean=0.5 * eye, q=[0.1, 0.1, 0.1], g=[0.1, 0.2, 0.3],
                   lo=-1.0, hi=1.0)
    tree = spec.build_tree()
    cfg, control = tmp_path / "cfg.json", tmp_path / "u.csv"
    cfg.write_text(serialize_problem(spec))
    control.write_text(write_control_csv(spec, tree, random_control(spec, tree, 1)))
    leaf = tree.size(tree.n_levels - 1) * spec.n * 8
    del tree
    tracemalloc.start()
    try:
        status = main(["simulate", str(cfg), str(control), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0 and capsys.readouterr().out.startswith("simulate: J = ")
    assert peak <= 4.4 * leaf


def test_parser_built_once_parses_as_fresh_ones(e1_config, tmp_path, capsys, monkeypatch):
    # a parse error, --version and real commands in one process: the one
    # parser gives the exit codes and output that a fresh parser gives each
    control = tmp_path / "u.csv"
    control.write_text("time,node_id,u_1\n0.0,0,0.25\n")
    argvs = [["solve", str(e1_config), "--tol", "-1"], ["--version"],
             ["simulate", str(e1_config), str(control)],
             ["check", str(e1_config), str(control)], ["nonsense"],
             ["simulate", str(e1_config), str(control), "--out", str(tmp_path / "out")],
             ["example", "prodcons", "--h", "0"]]

    def run_all(fresh):
        seen = []
        for argv in argvs:
            if fresh:
                cli._parser.cache_clear()
            seen.append((main(argv), *capsys.readouterr()))
        return seen

    expected = run_all(fresh=True)
    assert [status for status, *_ in expected] == [2, 0, 0, 1, 2, 0, 2]
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    assert run_all(fresh=False) == expected
    assert len(built) == 1


def test_non_finite_coefficient_exits_2(tmp_path, capsys):
    cfg = json.loads(json.dumps(ZERO_CONFIG))
    cfg["family"]["params"] = {"A": [[float("nan")]]}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(cfg))
    assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "A: coefficients must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_control_csv_non_finite_exits_2(tmp_path, capsys, value):
    spec = CSV_CASES["trinomial"]()
    tree = spec.build_tree()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(serialize_problem(spec))
    lines = write_control_csv(spec, tree, random_control(spec, tree, 3)).split("\n")
    row = 1 + 1 + 3 + 4  # header, level 0, level 1, then level 2 node 4
    lines[row] = ",".join(lines[row].split(",")[:2] + [value])
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines))
    for command in ("check", "simulate"):
        assert main([command, str(cfg), str(bad)]) == 2
        assert "not finite at level 2, node 4" in capsys.readouterr().err


@pytest.mark.parametrize("grid, message", [
    ({"h": 0.0}, "grid.h: step size must be positive, got 0.0"),
    ({"h": -0.5}, "grid.h: step size must be positive, got -0.5"),
    ({"N": -1}, "grid.N: number of control steps must be >= 0, got -1"),
    ({"N": 2.7}, "grid.N: expected an integer, got 2.7"),
    ({"N": True}, "grid.N: expected a number, got True"),
])
def test_grid_out_of_range_exits_2(tmp_path, capsys, grid, message):
    cfg = json.loads(json.dumps(ZERO_CONFIG))
    cfg["grid"].update(grid)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    control = tmp_path / "u.csv"
    control.write_text("time,node_id,u_1\n0.0,0,0.0\n")
    assert main(["simulate", str(path), str(control)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def _admissible_steps(cfg, entries):
    cfg["grid"]["N"] = 2
    cfg["admissible"] = entries


@pytest.mark.parametrize("mutate, message", [
    (lambda c: c.update(noise={"kind": "trinomial", "params": {"p": 0.7}}),
     "noise.params.p: trinomial tail probability must lie in (0, 0.5), got 0.7"),
    (lambda c: c.update(admissible=[{"t": "all", "lo": [1.0], "hi": [-1.0]}]),
     "admissible step 0: empty box at coordinate 0, lo=1.0 > hi=-1.0"),
    (lambda c: c.update(noise={"kind": "custom", "params": {"support": [[1.0, 0.5], [-1.0, 0.4]]}}),
     "noise.params.support: probabilities sum to 0.9, not 1"),
    (lambda c: c.update(noise={"kind": "custom", "params": {"support": [[2.0, 0.5], [-2.0, 0.5]]}}),
     "noise.params.support: moments break the model, |E w^1 w^1 - h| = 3.0"),
    (lambda c: c.update(noise={"kind": "custom", "params": {"support": [[1.5, 0.5], [-0.5, 0.5]]}}),
     "noise.params.support: moments break the model, |E w^1| = 0.5"),
    (lambda c: c.update(direction="sideways"),
     "direction: must be 'minimize' or 'maximize', got 'sideways'"),
    (lambda c: c.update(admissible=[{"t": "x", "lo": [-1.0], "hi": [1.0]}]),
     "admissible.t: expected 'all' or an integer step, got 'x'"),
    (lambda c: _admissible_steps(c, [{"t": k, "lo": [-1.0], "hi": [1.0]} for k in (0, 1, 2.7)]),
     "admissible.t: expected 'all' or an integer step, got 2.7"),
    (lambda c: c.update(admissible=[{"t": "all", "lo": [-1.0]}]),
     "admissible entry: missing keys ['hi']"),
    (lambda c: c.update(admissible=[{"t": "all", "lo": -1.0, "hi": [1.0]}]),
     "admissible[0].lo: expected a list of r=1 bounds, got -1.0"),
    (lambda c: _admissible_steps(c, [{"t": 0, "lo": [-1.0], "hi": [1.0]},
                                     {"t": 1, "lo": [-1.0], "hi": [1.0]},
                                     {"t": 2, "lo": [-1.0], "hi": 1.0}]),
     "admissible[2].hi: expected a list of r=1 bounds, got 1.0"),
    (lambda c: c.update(family={"name": "prodcons", "params": {"depreciation": 0.5}},
                        direction="maximize"),
     "family.params.delta_util: missing; prodcons needs its utility exponent in (0, 1)"),
    (lambda c: c.update(admissible=[{"t": "all", "lo": [-1.0], "hi": [float("nan")]}]),
     "admissible[0].hi: bound must be a number or 'inf'/'-inf', got nan"),
    (lambda c: c.update(admissible=[{"t": "all", "lo": [float("nan")], "hi": [1.0]}]),
     "admissible[0].lo: bound must be a number or 'inf'/'-inf', got nan"),
    (lambda c: c.update(family={"name": "prodcons",
                                "params": {"delta_util": 0.5, "depreciation": float("nan")}},
                        direction="maximize"),
     "family.params.depreciation: must be finite, got nan"),
    (lambda c: c.update(family={"name": "prodcons",
                                "params": {"delta_util": 0.5, "depreciation": float("-inf")}},
                        direction="maximize"),
     "family.params.depreciation: must be finite, got -inf"),
    (lambda c: c.update(dims=5), "dims: expected a JSON object, got 5"),
    (lambda c: c.update(admissible=[5]), "admissible[0]: expected a JSON object, got 5"),
    (lambda c: c.update(family={"name": "lq_meanfield", "params": [["A", [[1.0]]]]}),
     "family.params: expected a JSON object, got [['A', [[1.0]]]]"),
], ids=["trinomial-p", "empty-box", "support-sum", "support-second-moment", "support-mean",
        "direction", "step-string", "step-float", "missing-hi", "scalar-lo", "scalar-hi",
        "prodcons-no-delta-util", "nan-hi", "nan-lo", "prodcons-nan-depreciation",
        "prodcons-infinite-depreciation", "dims-not-object", "admissible-entry-not-object",
        "family-params-list"])
def test_solve_config_errors_exit_2(tmp_path, capsys, mutate, message):
    cfg = json.loads(json.dumps(ZERO_CONFIG))
    mutate(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_simulate_reads_coefficients_by_step_far_from_time_origin(tmp_path, capsys):
    # at t0 = 1e16 the times t0 + k h do not give k back by rounding (t0 + 1
    # is t0 in floating point), so step 1 must read its own table row
    cfg = json.loads(json.dumps(ZERO_CONFIG))
    del cfg["family"]
    cfg["grid"] = {"t0": 1e16, "h": 1.0, "N": 2}
    cfg["x0"] = [1.0]
    cfg["tables"] = {"A": {"per_step": [[[0.0]], [[5.0]], [[-3.0]]]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    control = tmp_path / "u.csv"
    control.write_text("time,node_id,u_1\n" + "".join(f"0.0,{i},0.0\n" for i in range(7)))
    assert main(["simulate", str(path), str(control)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
    means = np.zeros(4)
    for row in rows:
        level = int(np.log2(int(row[1]) + 1))
        means[level] += float(row[3]) * float(row[4])
    np.testing.assert_array_equal(means, [1.0, 1.0, 6.0, -12.0])
