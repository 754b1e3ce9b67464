"""Closed-form wheel predictions, the column-operation replay, the Goeritz
check, and the cross-route report."""

import math

import pytest

from foxabf import cli, wheel
from foxabf.alexander import wheel_g, wheel_module
from foxabf.braid import wheel_braid
from foxabf.coloring import coloring_group
from foxabf.ring import AbelianGroup, Matrix, snf
from foxabf.sequences import fib, lucas
from foxabf.wheel import (
    cross_verify,
    fibonacci_relation_matrix,
    fox_closed_form,
    goeritz_equivalence_check,
)


def test_fox_closed_form_examples():
    assert fox_closed_form(4) == AbelianGroup(torsion=(3, 15))
    assert fox_closed_form(5) == AbelianGroup(torsion=(11, 11))
    assert fox_closed_form(1) == AbelianGroup()
    assert fox_closed_form(2) == AbelianGroup(torsion=(5,))
    with pytest.raises(ValueError):
        fox_closed_form(0)


def test_closed_form_table_two_to_seven():
    expected = [
        (5,),
        (4, 4),
        (3, 15),
        (11, 11),
        (8, 40),
        (29, 29),
    ]
    for n, torsion in zip(range(2, 8), expected):
        assert fox_closed_form(n).torsion == torsion


def test_closed_form_matches_burau_group():
    for n in range(1, 41):
        assert fox_closed_form(n) == coloring_group(wheel_braid(n)).group, n


def test_fibonacci_relation_matrix_examples():
    assert fibonacci_relation_matrix(2) == Matrix([[3, 1], [4, 3]])
    assert fibonacci_relation_matrix(1) == Matrix([[1, 0], [1, 1]])
    assert snf(fibonacci_relation_matrix(2)) == AbelianGroup(torsion=(5,))
    assert snf(fibonacci_relation_matrix(1)) == AbelianGroup()


# -- reduction trace ---------------------------------------------------------


def reduction_trace(n: int) -> list[Matrix]:
    """Exact sequence of matrices obtained from the Fibonacci presentation
    by alternating column operations (col1 -= col2, then col2 -= col1).

    For odd n the trace ends after n+1 operations at the upper-triangular
    matrix [[L_n, F_{n-2} - F_{n+2}], [0, L_n]]; for even n it ends after
    n operations at [[2F_n, -F_n], [F_n, 2F_n]] followed by one extra step
    (col1 += 2*col2) giving [[0, -F_n], [5F_n, 2F_n]].
    """
    trace = [fibonacci_relation_matrix(n)]
    steps = n + 1 if n % 2 else n
    for step in range(1, steps + 1):
        (a, b), (c, d) = trace[-1].entries()
        if step % 2:
            trace.append(Matrix([[a - b, b], [c - d, d]]))
        else:
            trace.append(Matrix([[a, b - a], [c, d - c]]))
    if n % 2 == 0:
        (a, b), (c, d) = trace[-1].entries()
        trace.append(Matrix([[a + 2 * b, b], [c + 2 * d, d]]))
    return trace


def test_trace_terminal_odd():
    trace = reduction_trace(3)
    assert trace[-1] == Matrix([[4, -4], [0, 4]])  # [[L_3, F_1 - F_5], [0, L_3]]


def test_trace_even_intermediate_and_terminal():
    trace = reduction_trace(2)
    assert Matrix([[2, -1], [1, 2]]) in trace  # [[2F_2, -F_2], [F_2, 2F_2]]
    assert trace[-1] == Matrix([[0, -1], [5, 2]])


def test_trace_constant_snf():
    for n in range(1, 21):
        groups = {snf(m) for m in reduction_trace(n)}
        assert len(groups) == 1
        assert groups.pop() == fox_closed_form(n)


def expected_intermediate(n, j):
    """Fibonacci pattern for the matrix after j column operations."""
    if j % 2 == 0:
        k = j // 2
        return Matrix(
            [
                [fib(2 * n - 2 * k) + fib(2 * k), fib(2 * n - 2 * k - 1) - fib(2 * k + 1)],
                [fib(2 * n - 2 * k + 1) - fib(2 * k - 1), fib(2 * n - 2 * k) + fib(2 * k)],
            ]
        )
    k = (j - 1) // 2
    return Matrix(
        [
            [fib(2 * n - 2 * k - 2) + fib(2 * k + 2), fib(2 * n - 2 * k - 1) - fib(2 * k + 1)],
            [fib(2 * n - 2 * k - 1) - fib(2 * k + 1), fib(2 * n - 2 * k) + fib(2 * k)],
        ]
    )


def test_trace_matches_fibonacci_pattern():
    for n in range(1, 21):
        trace = reduction_trace(n)
        steps = n + 1 if n % 2 else n
        for j in range(steps + 1):
            assert trace[j] == expected_intermediate(n, j), (n, j)


def test_trace_terminal_gcd_and_det():
    for n in range(1, 31):
        terminal = reduction_trace(n)[-1]
        entries = [v for row in terminal.entries() for v in row]
        gcd = 0
        for v in entries:
            gcd = math.gcd(gcd, v)
        if n % 2:
            assert gcd == lucas(n)
            assert terminal.det() == lucas(n) ** 2
        else:
            assert gcd == fib(n)
            assert abs(terminal.det()) == 5 * fib(n) ** 2


def test_trace_rejects_bad_n():
    with pytest.raises(ValueError):
        reduction_trace(0)


# -- Goeritz equivalence -------------------------------------------------------


def test_goeritz_examples():
    assert goeritz_equivalence_check(1)
    assert goeritz_equivalence_check(2)
    assert goeritz_equivalence_check(7)
    # for n = 7 both presentations give Z_29 + Z_29
    assert snf(fibonacci_relation_matrix(7)).torsion == (29, 29)


def test_goeritz_range():
    assert all(goeritz_equivalence_check(n) for n in range(1, 61))


# -- cross verification ----------------------------------------------------------


def test_cross_verify_wheel_six():
    report = cross_verify(6, brute_force_moduli=(2, 5, 8))
    assert report.all_consistent
    assert report.closed_form_group.torsion == (8, 40)
    assert report.burau_group.torsion == (8, 40)
    assert sorted(report.abf_gens_at_minus_one) == [8, 40]
    assert all(c.ok for c in report.brute_force_checks)


def test_cross_verify_unknot():
    report = cross_verify(1, brute_force_moduli=(2, 3))
    assert report.all_consistent
    assert report.closed_form_group == AbelianGroup()
    assert [c.count for c in report.brute_force_checks] == [2, 3]


def test_cross_verify_wheel_four_counts():
    # m * gcd(3, m) * gcd(15, m): 27 for m = 3, 25 for m = 5
    report = cross_verify(4, brute_force_moduli=(3, 5))
    assert report.all_consistent
    assert [(c.modulus, c.count) for c in report.brute_force_checks] == [(3, 27), (5, 25)]
    assert [c.predicted for c in report.brute_force_checks] == [27, 25]


def test_report_carries_the_wheel_module():
    for n in range(1, 13):
        module = cross_verify(n).module
        assert module == wheel_module(n)


@pytest.mark.parametrize("n", [4, 7, 12])
def test_corrupted_closed_matrix_fails_the_check(n, monkeypatch, capsys):
    # A_n at t = -1 with g_n(-1)^2 added to one entry no longer presents the
    # Fox group, and that route alone disagrees
    build = wheel.wheel_abf_matrix_closed

    def corrupted(k, ring):
        (a, b), (c, d) = build(k, ring).entries()
        return Matrix([[a + wheel_g(k, ring) * wheel_g(k, ring), b], [c, d]])

    monkeypatch.setattr(wheel, "wheel_abf_matrix_closed", corrupted)
    assert not cross_verify(n).all_consistent
    assert cli.main(["wheel", str(n)]) == 1
    assert "all routes consistent: False" in capsys.readouterr().out


def test_cross_verify_rejects_bad_n():
    with pytest.raises(ValueError):
        cross_verify(0)
