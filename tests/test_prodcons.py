import numpy as np
import pytest

from mfsmp.errors import MfsmpError
from mfsmp.prodcons import comparison_rows, general_run, plot_data_csv, replica


def test_replica_reference_sequence():
    rep = replica(0.5, 0.5, 5)
    assert rep.p[6] == 1.0
    assert rep.p[5] == 0.75
    assert rep.p[4] == 0.5625
    base = 0.5 * (2.0 - 0.5)
    for m in range(7):
        assert rep.p[6 - m] == pytest.approx(base ** m, rel=1e-15)
    assert np.all(rep.q == 0.0)


def test_replica_invariants():
    for du, h, n in ((0.5, 0.5, 5), (0.3, 0.8, 3), (0.7, 1.0, 4)):
        rep = replica(du, h, n)
        assert rep.p[-1] == 1.0
        assert np.all(rep.v > 0.0)


def test_replica_consumption_values():
    rep = replica(0.5, 0.5, 5)
    assert rep.v[5] == pytest.approx(1.414214, abs=1e-6)
    assert rep.v[4] == pytest.approx(1.632993, abs=1e-6)
    direct = (0.5 * rep.p[1:]) ** -0.5
    np.testing.assert_allclose(rep.v, direct, atol=1e-15)


def test_replica_rejects_bad_parameters():
    with pytest.raises(MfsmpError):
        replica(1.5, 0.5, 5)
    with pytest.raises(MfsmpError):
        replica(0.5, 0.5, 0)


def test_plot_data_rows():
    rep = replica(0.5, 0.5, 5)
    lines = plot_data_csv(rep).strip().split("\n")
    assert lines[0] == "t,v"
    assert len(lines) == 7  # header + N+1 rows
    ts = [float(line.split(",")[0]) for line in lines[1:]]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_general_run_costate_geometric():
    # the linearized-drift recursion gives p(t_k) = (1 + h (1 - dep))^(N+1-k)
    du, h, n = 0.5, 0.5, 5
    _, _, _, p_seq, v_seq = general_run(du, h, n)
    growth = 1.0 + h * (1.0 - du)
    expected = growth ** np.arange(n + 1, -1, -1.0)
    np.testing.assert_allclose(p_seq, expected, atol=1e-9)
    np.testing.assert_allclose(v_seq, p_seq[1:] ** -du, atol=1e-6)


def test_comparison_differs_at_half_step_and_agrees_at_unit_step():
    _, _, rows = comparison_rows(0.5, 0.5, 3)
    assert rows[-1]["p_agree"]  # both sequences end at 1
    assert not any(row["p_agree"] for row in rows[:-1])
    _, _, rows_unit = comparison_rows(0.5, 1.0, 3)
    assert all(row["p_agree"] for row in rows_unit)


def test_general_run_meets_first_order_tolerance():
    # the general solver exits on its 1e-10 gradient tolerance, far below the
    # 1e-6 first-order tolerance at unit step
    _, _, result, _, _ = general_run(0.5, 1.0, 5)
    assert result.history[-1][1] <= 1e-6


def test_unit_step_comparison_agrees_everywhere():
    # at h = 1 the replica and the general solver's sequences coincide, and
    # the solver ends certified, so every costate and consumption row agrees
    _, result, rows = comparison_rows(0.5, 1.0, 5)
    assert result.reason == "gradient-tolerance"
    assert all(row["p_agree"] for row in rows)
    assert all(row["v_agree"] for row in rows if "v_agree" in row)
