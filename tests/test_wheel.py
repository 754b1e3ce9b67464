"""Closed-form wheel predictions, the column-operation replay, the Goeritz
check, and the cross-route report."""

import math

import pytest

from foxabf import cli, verify, wheel
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
    assert report.brute_force == ((2, 8, 8), (5, 25, 25), (8, 512, 512))
    assert [c.name for c in report.checks] == [
        "closed_form_vs_burau",
        "drop_index_invariance",
        "abf_matrix_at_minus_one",
        "ideal_gens_at_minus_one",
        "bareiss_det_a_prime",
        "brute_force_mod_2",
        "brute_force_mod_5",
        "brute_force_mod_8",
        "goeritz",
    ]
    assert all(c.passed and c.cases == 1 for c in report.checks)


def test_cross_verify_unknot():
    report = cross_verify(1, brute_force_moduli=(2, 3))
    assert report.all_consistent
    assert report.closed_form_group == AbelianGroup()
    assert [count for _, count, _ in report.brute_force] == [2, 3]


def test_cross_verify_wheel_four_counts():
    # m * gcd(3, m) * gcd(15, m): 27 for m = 3, 25 for m = 5
    report = cross_verify(4, brute_force_moduli=(3, 5))
    assert report.all_consistent
    assert report.brute_force == ((3, 27, 27), (5, 25, 25))


def test_report_carries_the_wheel_module():
    for n in range(1, 13):
        module = cross_verify(n).module
        assert module == wheel_module(n)


def _plus_g_squared(build):
    # A_n at t = -1 with g_n(-1)^2 added to one entry no longer presents the
    # Fox group
    def corrupted(k, ring):
        (a, b), (c, d) = build(k, ring).entries()
        return Matrix([[a + wheel_g(k, ring) * wheel_g(k, ring), b], [c, d]])

    return corrupted


def _free_summand(drop):
    """Corrupts coloring_group: the group of one drop index gains a free Z."""

    def corrupt(real):
        def corrupted(word, drop_index=None):
            result = real(word, drop_index)
            if drop_index != drop:
                return result
            group = result.group
            return result._replace(group=AbelianGroup(group.torsion, group.free_rank + 1))

        return corrupted

    return corrupt


def _rows_swapped(build):
    def corrupted(p, q, *ring):
        first, second = build(p, q, *ring).entries()
        return Matrix([list(second), list(first)])

    return corrupted


def _next_index(real):
    return lambda k: real(k + 1)


# (name in foxabf.wheel, corrupted route from the real one, n, the checks
# that read that route's value and so fail)
_CORRUPTED_ROUTES = [
    *(
        pytest.param(
            "wheel_abf_matrix_closed", _plus_g_squared, n, ["abf_matrix_at_minus_one"], id=str(n)
        )
        for n in (4, 7, 12)
    ),
    # the predicted brute-force counts read the default-drop group too
    pytest.param(
        "coloring_group",
        _free_summand(None),
        6,
        [
            "closed_form_vs_burau",
            "drop_index_invariance",
            "brute_force_mod_2",
            "brute_force_mod_3",
        ],
        id="default-drop",
    ),
    pytest.param(
        "coloring_group", _free_summand(2), 5, ["drop_index_invariance"], id="middle-drop"
    ),
    pytest.param(
        "fox_closed_form",
        _next_index,
        7,
        ["closed_form_vs_burau", "abf_matrix_at_minus_one", "ideal_gens_at_minus_one"],
        id="closed-form",
    ),
    pytest.param("_wheel_matrix", _rows_swapped, 8, ["bareiss_det_a_prime"], id="bareiss-det"),
    pytest.param(
        "wheel_module",
        _next_index,
        7,
        ["ideal_gens_at_minus_one", "bareiss_det_a_prime"],
        id="module",
    ),
    pytest.param(
        "brute_force_coloring_count",
        lambda real: lambda word, m: real(word, m) + (m == 3),
        4,
        ["brute_force_mod_3"],
        id="brute-force",
    ),
    pytest.param(
        "goeritz_equivalence_check", lambda real: lambda k: False, 3, ["goeritz"], id="goeritz"
    ),
]


@pytest.mark.parametrize("route, corrupt, n, failed", _CORRUPTED_ROUTES)
def test_corrupted_closed_matrix_fails_the_check(route, corrupt, n, failed, monkeypatch, capsys):
    # a corrupted route fails exactly the checks that read it, in the report,
    # in the CLI's exit code and in verify's counterexample
    monkeypatch.setattr(wheel, route, corrupt(getattr(wheel, route)))
    report = cross_verify(n, (2, 3))
    assert [c.name for c in report.checks if not c.passed] == failed
    assert not report.all_consistent
    assert cli.main(["wheel", str(n), "--moduli", "2", "3"]) == 1
    assert "all routes consistent: False" in capsys.readouterr().out
    counterexample = verify.wheel_cross_verify_check(n).counterexample
    named = counterexample.partition(" (")[2].removesuffix(")").split(", ")
    assert set(failed) <= set(named), counterexample


def test_cross_verify_rejects_bad_n():
    with pytest.raises(ValueError):
        cross_verify(0)
