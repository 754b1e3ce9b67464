"""The seeded random and cross-route suites of `foxabf verify`; only that
command imports this module, so no other request loads ``random``."""

from __future__ import annotations

import random

from .alexander import _wheel_recursion, wheel_abf_matrix_closed
from .braid import BraidWord, burau, exponent_sum, reduced_relation_matrix, wheel_braid
from .ring import LaurentPoly, Matrix, normalize_unit
from .sequences import (
    IdentityCheck,
    _run_cases,
    iterate_chebyshev_recurrence,
    solve_chebyshev_recurrence,
)
from .wheel import cross_verify


def random_word(rng: random.Random, max_strands: int = 6, max_len: int = 20) -> BraidWord:
    """A word of up to ``max_len`` uniform letters on 2..max_strands strands."""
    strands = rng.randint(2, max_strands)
    length = rng.randint(0, max_len)
    letters = tuple(
        rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)
    )
    return BraidWord(strands, letters)


def burau_property_check() -> IdentityCheck:
    """Randomized Burau sanity: homomorphism, braid relations, inverse
    cancellation, det = (-t)^writhe, row sums, weighted left null vector."""
    rng = random.Random(9151)
    results = []
    for trial in range(120):
        # every trial draws its word, so each trial tests the same words
        word = random_word(rng)
        s = word.strands
        kind = trial % 4
        m = burau(word) if kind < 3 else None  # the det trial reads only ``small``
        if kind == 0:
            other = random_word(rng, max_strands=s, max_len=10)
            other = BraidWord(s, other.letters)
            ok = burau(word * other) == m * burau(other)
        elif kind == 1:
            ok = m * burau(word.inverse()) == Matrix.identity(s, one=LaurentPoly.one())
        elif kind == 2:
            # (t^{s-1}, ..., t, 1) * m is that same row, and every row sums to 1
            ok = all(
                sum((m[i, j].shift(s - 1 - i) for i in range(s)), LaurentPoly.zero())
                == LaurentPoly.t(s - 1 - j)
                for j in range(s)
            ) and all(
                sum((m[i, j] for j in range(s)), LaurentPoly.zero()) == 1
                for i in range(s)
            )
        else:
            small = random_word(rng, max_strands=4, max_len=12)
            sign = exponent_sum(small)
            expected = (-LaurentPoly.t() if sign >= 0 else -LaurentPoly.t(-1)) ** abs(sign)
            ok = burau(small).det() == expected
        results.append((f"trial={trial}", ok))
    # braid relations on every adjacent pair up to 6 strands
    for s in range(3, 7):
        for i in range(1, s - 1):
            lhs = burau(BraidWord(s, (i, i + 1, i)))
            rhs = burau(BraidWord(s, (i + 1, i, i + 1)))
            results.append((f"braid relation s={s}, i={i}", lhs == rhs))
        for i in range(1, s - 1):
            for j in range(i + 2, s):
                lhs = burau(BraidWord(s, (i, j)))
                rhs = burau(BraidWord(s, (j, i)))
                results.append((f"far commutation s={s}, i={i}, j={j}", lhs == rhs))
    return _run_cases("burau_properties", results)


def recurrence_solver_check(max_n: int) -> IdentityCheck:
    """Randomized check that the closed-form solver equals direct iteration
    over both rings (ints and Laurent polynomials)."""
    rng = random.Random(20230301)

    def rand_poly() -> LaurentPoly:
        return LaurentPoly(
            {e: rng.randint(-4, 4) for e in range(rng.randint(-2, 0), rng.randint(1, 3))}
        )

    cases = []
    for trial in range(30):
        n = rng.randint(0, max_n)
        if trial % 2 == 0:
            p0, p1 = rng.randint(-9, 9), rng.randint(-9, 9)
            z = rng.randint(-5, 5)
            cs = [rng.randint(-9, 9) for _ in range(max(0, n - 1))]
        else:
            p0, p1, z = rand_poly(), rand_poly(), rand_poly()
            cs = [rand_poly() for _ in range(max(0, n - 1))]
        closed = solve_chebyshev_recurrence(p0, p1, cs, z, n)
        iterated = iterate_chebyshev_recurrence(p0, p1, cs, z, n)
        cases.append((f"trial={trial}, n={n}", closed == iterated))
    return _run_cases("chebyshev_solver_vs_iteration", cases)


def wheel_matrix_routes_check(max_n: int) -> IdentityCheck:
    """Recursive and closed wheel matrices agree entrywise for n <= max_n,
    from one walk of the recursion, and for n <= 15 the closed determinant
    matches the Burau route's.  That route multiplies out a new 2n-letter
    word per n: run to n = 120 it would cost some 30 times the rest."""

    def cases():
        for n, recursive in enumerate(_wheel_recursion(max_n), 1):
            closed = wheel_abf_matrix_closed(n)
            if recursive != closed:
                yield f"n={n} (recursive != closed)", False
            elif n <= 15 and normalize_unit(closed.det()) != normalize_unit(
                reduced_relation_matrix(burau(wheel_braid(n)), 2).det()
            ):
                yield f"n={n} (closed det != burau det)", False
            else:
                yield f"n={n}", True

    return _run_cases("wheel_matrix_routes", cases())


def wheel_cross_verify_check(max_n: int) -> IdentityCheck:
    """cross_verify, with brute force mod 2, 3 and 5, is consistent for
    every n <= max_n; a counterexample names the checks that failed."""

    def cases():
        for n in range(1, max_n + 1):
            checks = cross_verify(n, brute_force_moduli=(2, 3, 5)).checks
            failed = ", ".join(c.name for c in checks if not c.passed)
            yield (f"n={n} ({failed})", False) if failed else (f"n={n}", True)

    return _run_cases("wheel_cross_verify", cases())
