"""Acceptance criteria.

Each test exercises one criterion end to end at its stated tolerance
(everything here is exact arithmetic; the only tolerances are wall-clock
budgets) and prints one PASS/FAIL line.  Run with ``pytest
tests/test_acceptance.py -v -s`` to see the lines as they go by.
"""

import random
import time

from foxabf import cli
from foxabf.alexander import general_presentation, wheel_module
from foxabf.braid import BraidWord, burau, exponent_sum, wheel_braid
from foxabf.coloring import (
    brute_force_coloring_count,
    coloring_count_from_group,
    coloring_group,
)
from foxabf.ring import LaurentPoly, Matrix, normalize_unit, snf
from foxabf.sequences import (
    cheb_S_at,
    cheb_S_subst,
    fib,
    identity_suite,
    iterate_chebyshev_recurrence,
    lucas,
    solve_chebyshev_recurrence,
)
from foxabf.wheel import fox_closed_form, goeritz_equivalence_check
from test_wheel import reduction_trace

T = LaurentPoly.t()
TI = LaurentPoly.t(-1)
ONE = LaurentPoly.one()
DET_EVEN = 3 - T - TI


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_small_wheel_groups():
    start = time.perf_counter()
    expected = {
        2: (5,),
        3: (4, 4),
        4: (3, 15),
        5: (11, 11),
        6: (8, 40),
        7: (29, 29),
    }
    got = {n: coloring_group(wheel_braid(n)).group.torsion for n in range(2, 8)}
    elapsed = time.perf_counter() - start
    ok = got == expected and elapsed < 1.0
    report(1, ok, f"coloring groups for n=2..7 ({elapsed:.3f}s)")
    assert got == expected
    assert elapsed < 1.0


def test_criterion_2_closed_form_vs_burau():
    start = time.perf_counter()
    mismatches = [
        n
        for n in range(1, 201)
        if fox_closed_form(n) != coloring_group(wheel_braid(n)).group
    ]
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 10.0
    report(2, ok, f"closed form == Burau route for n=1..200 ({elapsed:.3f}s)")
    assert mismatches == []
    assert elapsed < 10.0


def _oracle_corpus():
    rng = random.Random(424242)
    words = [wheel_braid(n) for n in range(1, 6)]
    for _ in range(20):
        length = rng.randint(0, 10)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, 2) for _ in range(length))
        words.append(BraidWord(3, letters))
    return words


def test_criterion_3_brute_force_oracle():
    start = time.perf_counter()
    failures = []
    for word in _oracle_corpus():
        group = coloring_group(word).group
        for modulus in range(2, 14):
            if brute_force_coloring_count(word, modulus) != coloring_count_from_group(
                group, modulus
            ):
                failures.append((word.letters, modulus))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 5.0
    report(3, ok, f"brute force == group prediction on 25 words x 12 moduli ({elapsed:.3f}s)")
    assert failures == []
    assert elapsed < 5.0


def test_criterion_4_module_closed_forms():
    start = time.perf_counter()
    gen_failures = []
    for n in range(1, 51):
        gens = wheel_module(n).ideal_gens
        k = n // 2
        if n % 2:
            expected = normalize_unit(cheb_S_subst(k - 1) + cheb_S_subst(k))
            if gens != (expected, expected):
                gen_failures.append(n)
        else:
            g = cheb_S_subst(k - 1)
            if gens != (normalize_unit(g), normalize_unit(DET_EVEN * g)):
                gen_failures.append(n)
    det_failures = [
        n
        for n in range(1, 101)
        if wheel_module(n).det_a_prime != (ONE if n % 2 else DET_EVEN)
    ]
    elapsed = time.perf_counter() - start
    ok = not gen_failures and not det_failures and elapsed < 10.0
    report(4, ok, f"cyclic generators n<=50 and det A' n<=100 ({elapsed:.3f}s)")
    assert gen_failures == []
    assert det_failures == []
    assert elapsed < 10.0


def test_criterion_5_specialization_bridge():
    failures = []
    for n in range(1, 51):
        gens = wheel_module(n).ideal_gens
        values = tuple(sorted(abs(p.at_minus_one()) for p in gens))
        torsion = tuple(v for v in values if v > 1)
        if torsion != fox_closed_form(n).torsion:
            failures.append(n)
    ok = not failures
    report(5, ok, "generators at t=-1 reproduce the invariant factors, n<=50")
    assert failures == []


def test_criterion_6_identity_suites():
    start = time.perf_counter()
    problems = []

    for n in range(1, 101):
        if cheb_S_at(n - 1, 3) != fib(2 * n):
            problems.append(f"S_{n-1}(3) != F_{2*n}")

    def sign(k):
        return -1 if k % 2 else 1

    for a in range(-60, 61):
        for b in range(-60, 61):
            if fib(a) * lucas(b) != fib(a + b) + sign(b) * fib(a - b):
                problems.append(f"product-to-sum m={a}, n={b}")
    for n in range(1, 61):
        if fib(2 * n) != fib(n) * lucas(n):
            problems.append(f"doubling n={n}")
        split = (
            fib(n) * (fib(n - 2) + fib(n))
            if n % 2 == 0
            else fib(n - 1) * (fib(n - 1) + fib(n + 1))
        )
        if fib(2 * n - 1) - 1 != split:
            problems.append(f"odd-index-minus-one n={n}")

    problems.extend(c.name for c in identity_suite(40) if not c.passed)

    rng = random.Random(1234)
    for trial in range(30):
        n = rng.randint(0, 40)
        if trial % 2:
            p0, p1, z = rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-4, 4)
            cs = [rng.randint(-9, 9) for _ in range(max(0, n - 1))]
        else:
            mk = lambda: LaurentPoly({e: rng.randint(-3, 3) for e in range(-2, 3)})
            p0, p1, z = mk(), mk(), mk()
            cs = [mk() for _ in range(max(0, n - 1))]
        if solve_chebyshev_recurrence(p0, p1, cs, z, n) != iterate_chebyshev_recurrence(
            p0, p1, cs, z, n
        ):
            problems.append(f"solver trial {trial}")

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 10.0
    report(6, ok, f"identity suites ({elapsed:.3f}s)")
    assert problems == []
    assert elapsed < 10.0


def _random_word(rng, max_strands=6, max_len=20):
    strands = rng.randint(2, max_strands)
    length = rng.randint(0, max_len)
    letters = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length))
    return BraidWord(strands, letters)


def test_criterion_7_burau_property_suite():
    start = time.perf_counter()
    rng = random.Random(8675309)
    cases = 0
    failures = []

    def check(label, ok):
        nonlocal cases
        cases += 1
        if not ok:
            failures.append(label)

    for i in range(100):
        u = _random_word(rng)
        v = BraidWord(u.strands, _random_word(rng, max_strands=u.strands).letters)
        check(f"hom {i}", burau(u * v) == burau(u) * burau(v))
    for i in range(100):
        w = _random_word(rng)
        check(
            f"inv {i}",
            burau(w) * burau(w.inverse()) == Matrix.identity(w.strands, one=ONE),
        )
    for i in range(100):
        w = _random_word(rng)
        m = burau(w)
        check(
            f"rowsum {i}",
            all(
                sum((m[r, c] for c in range(w.strands)), LaurentPoly.zero()) == 1
                for r in range(w.strands)
            ),
        )
    for i in range(100):
        w = _random_word(rng)
        s = w.strands
        m = burau(w)
        ok = True
        for c in range(s):
            total = LaurentPoly.zero()
            for r in range(s):
                total = total + LaurentPoly.t(s - 1 - r) * m[r, c]
            ok = ok and total == LaurentPoly.t(s - 1 - c)
        check(f"nullvec {i}", ok)
    for i in range(90):
        w = _random_word(rng, max_strands=5, max_len=14)
        e = exponent_sum(w)
        expected = (-T if e >= 0 else -TI) ** abs(e)
        check(f"det {i}", burau(w).det() == expected)
    for s in range(3, 7):
        for i in range(1, s - 1):
            check(
                f"braidrel s={s} i={i}",
                burau(BraidWord(s, (i, i + 1, i))) == burau(BraidWord(s, (i + 1, i, i + 1))),
            )
        for i in range(1, s - 1):
            for j in range(i + 2, s):
                check(
                    f"farcomm s={s} i={i} j={j}",
                    burau(BraidWord(s, (i, j))) == burau(BraidWord(s, (j, i))),
                )

    elapsed = time.perf_counter() - start
    ok = not failures and cases >= 500 and elapsed < 5.0
    report(7, ok, f"burau property suite, {cases} cases ({elapsed:.3f}s)")
    assert failures == []
    assert cases >= 500
    assert elapsed < 5.0


def test_criterion_8_reduction_replay_and_goeritz():
    import math

    failures = []
    for n in range(1, 61):
        trace = reduction_trace(n)
        reference = snf(trace[0])
        if any(snf(m) != reference for m in trace[1:]):
            failures.append(f"snf drift n={n}")
        terminal = trace[-1]
        entries = [v for row in terminal.entries() for v in row]
        gcd = 0
        for v in entries:
            gcd = math.gcd(gcd, v)
        if n % 2:
            if gcd != lucas(n) or terminal.det() != lucas(n) ** 2:
                failures.append(f"odd terminal n={n}")
        else:
            if gcd != fib(n) or abs(terminal.det()) != 5 * fib(n) ** 2:
                failures.append(f"even terminal n={n}")
    goeritz_bad = [n for n in range(1, 101) if not goeritz_equivalence_check(n)]
    ok = not failures and not goeritz_bad
    report(8, ok, "reduction replay n<=60 and Goeritz agreement n<=100")
    assert failures == []
    assert goeritz_bad == []


def test_criterion_9_alexander_sanity():
    unknot = general_presentation(wheel_braid(1)).alexander
    figure_eight = general_presentation(wheel_braid(2)).alexander
    ok = unknot == ONE and figure_eight == LaurentPoly({0: 1, 1: -3, 2: 1})
    report(9, ok, "alexander: wheel 1 -> 1, wheel 2 -> 1-3*t+t^2")
    assert unknot == ONE
    assert figure_eight == LaurentPoly({0: 1, 1: -3, 2: 1})


def test_criterion_10_split_word_abf_within_one_second(capsys):
    # 600 letters on 64 strands that never use sigma_31: the closure is
    # split, so Delta = 0 is read off the word instead of from a 63x63
    # Laurent determinant
    rng = random.Random(7)
    gens = [i for i in range(1, 64) if i != 31]
    letters = [rng.choice((1, -1)) * rng.choice(gens) for _ in range(600)]
    start = time.perf_counter()
    code = cli.main(["abf", " ".join(map(str, letters)), "--strands", "64"])
    elapsed = time.perf_counter() - start
    last = capsys.readouterr().out.splitlines()[-1]
    ok = code == 0 and last == "alexander polynomial: 0" and elapsed < 1.0
    report(10, ok, f"abf on a split 64x600 word ({elapsed:.3f}s)")
    assert code == 0
    assert last == "alexander polynomial: 0"
    assert elapsed < 1.0
