"""Closed-form predictions for the wheel-graph links and the master
cross-verification combining every route.

The closure of (sigma_1 sigma_2^{-1})^n has reduced coloring group
Z_{L_n} (+) Z_{L_n} for odd n and Z_{F_n} (+) Z_{5 F_n} for even n.  The
Fibonacci route presents it by the 2x2 matrix
[[F_{2n}, F_{2n-1}-1], [F_{2n+1}-1, F_{2n}]].  goeritz_equivalence_check
compares its Smith form against the independently derived Goeritz
presentation built from S_k(3).  cross_verify also checks that the
closed-form ABF matrix A_n at t = -1 presents the Fox group, and compares
the Bareiss determinant of -A'_n with the one the Euclidean reduction read
off.  Evaluation at t = -1 is a ring map (Lickorish, An Introduction to
Knot Theory, ch. 6) that sends z = 1 - t - t^{-1} to 3, so A_n(-1) is
built over the integers from S_k(3), by the same W(p, q) and g_n as the
Laurent A_n, and no Laurent A_n is built.

Each comparison is a named IdentityCheck of one case, the same verdict
record as every verify suite, so a failed report says which routes
disagreed.
"""

from __future__ import annotations

from collections import namedtuple

from .alexander import (
    _AT_MINUS_ONE,
    _wheel_matrix,
    wheel_abf_matrix_closed,
    wheel_g,
    wheel_module,
)
from .braid import wheel_braid
from .coloring import (
    _check_enumeration,
    brute_force_coloring_count,
    coloring_count_from_group,
    coloring_group,
)
from .ring import AbelianGroup, Matrix, snf
from .sequences import _run_cases, cheb_S_at, fib, lucas


class WheelReport(
    namedtuple(
        "WheelReport",
        "n closed_form_group burau_group module abf_gens_at_minus_one brute_force checks",
    )
):
    __slots__ = ()

    @property
    def all_consistent(self) -> bool:
        return all(c.passed for c in self.checks)


def fox_closed_form(n: int) -> AbelianGroup:
    """Reduced coloring group of the n-spoke wheel closure in closed form
    (factors of 1 dropped, smallest invariant factor first)."""
    if n < 1:
        raise ValueError("the wheel family starts at n = 1")
    if n % 2:
        ln = lucas(n)
        torsion = [ln, ln]
    else:
        fn = fib(n)
        torsion = [fn, 5 * fn]
    return AbelianGroup(torsion=tuple(d for d in torsion if d > 1))


def fibonacci_relation_matrix(n: int) -> Matrix:
    """2x2 Fibonacci presentation of the reduced coloring group."""
    if n < 1:
        raise ValueError("the wheel family starts at n = 1")
    return Matrix(
        [
            [fib(2 * n), fib(2 * n - 1) - 1],
            [fib(2 * n + 1) - 1, fib(2 * n)],
        ]
    )


def goeritz_equivalence_check(n: int) -> bool:
    """Whether the Goeritz-style matrix built from S_k(3) presents the same
    group as the Fibonacci presentation."""
    if n < 1:
        raise ValueError("the wheel family starts at n = 1")
    goeritz = Matrix(
        [
            [cheb_S_at(n - 1, 3), 1 - cheb_S_at(n, 3)],
            [cheb_S_at(n - 2, 3) + 1, -cheb_S_at(n - 1, 3)],
        ]
    )
    return snf(goeritz) == snf(fibonacci_relation_matrix(n))


def cross_verify(n: int, brute_force_moduli: tuple[int, ...] = ()) -> WheelReport:
    """Run every route for one wheel index and compare:

    closed Fibonacci/Lucas form, Burau reduction at t = -1 (for both the
    default and the middle drop index), A_n and the module generators at
    t = -1, the Bareiss det of -A'_n against the module's det A'_n,
    brute-force coloring counts, and the Goeritz presentation.
    """
    word = wheel_braid(n)
    for modulus in brute_force_moduli:  # refuse an over-cap modulus before any route runs
        _check_enumeration(word.strands, modulus)
    closed = fox_closed_form(n)
    burau_group = coloring_group(word).group
    drop_middle_group = coloring_group(word, drop_index=2).group
    abf_group = snf(wheel_abf_matrix_closed(n, _AT_MINUS_ONE))

    # before the module: its products are then freed before the module's
    # Alexander polynomial exists, which keeps the peak memory down
    bareiss_det = _wheel_matrix(wheel_g(n + 1), wheel_g(n - 1)).det()

    module = wheel_module(n)
    gens_at = tuple(abs(g.at_minus_one()) for g in module.ideal_gens)
    gens_torsion = tuple(sorted(v for v in gens_at if v > 1))

    brute_force = tuple(  # (modulus, count, predicted)
        (m, brute_force_coloring_count(word, m), coloring_count_from_group(burau_group, m))
        for m in brute_force_moduli
    )
    comparisons = [
        ("closed_form_vs_burau", closed == burau_group),
        ("drop_index_invariance", burau_group == drop_middle_group),
        ("abf_matrix_at_minus_one", abf_group == closed),
        ("ideal_gens_at_minus_one", gens_torsion == closed.torsion),
        ("bareiss_det_a_prime", bareiss_det == module.det_a_prime),
        *((f"brute_force_mod_{m}", count == predicted) for m, count, predicted in brute_force),
        ("goeritz", goeritz_equivalence_check(n)),
    ]
    return WheelReport(
        n=n,
        closed_form_group=closed,
        burau_group=burau_group,
        module=module,
        abf_gens_at_minus_one=gens_at,
        brute_force=brute_force,
        checks=tuple(_run_cases(name, [(f"n={n}", ok)]) for name, ok in comparisons),
    )
