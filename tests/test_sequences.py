"""Fibonacci/Lucas/Chebyshev values, the recurrence solver, and the
identity suite."""

import random
import sys
import threading

import pytest

from foxabf import sequences
from foxabf.ring import LaurentPoly
from foxabf.sequences import (
    Z_OF_T,
    Z_VAR,
    cheb_S,
    cheb_S_at,
    cheb_S_subst,
    cheb_T,
    fib,
    identity_suite,
    iterate_chebyshev_recurrence,
    lucas,
    solve_chebyshev_recurrence,
)
from foxabf.verify import recurrence_solver_check

TI = LaurentPoly.t(-1)


def test_fib_values():
    assert fib(0) == 0
    assert fib(1) == 1
    assert fib(12) == 144
    assert [fib(n) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]


def test_fib_negative():
    assert fib(-3) == 2
    # oracle: run the recurrence backwards, F_{n-2} = F_n - F_{n-1}
    a, b = 1, 0  # F_1, F_0
    for n in range(-1, -21, -1):
        a, b = b, a - b
        assert fib(n) == b


def test_lucas_values():
    assert lucas(0) == 2
    assert lucas(1) == 1
    assert lucas(2) == 3
    assert lucas(3) == 4
    assert lucas(4) == 7
    assert lucas(7) == 29


def test_cheb_S_small():
    assert cheb_S(-1) == LaurentPoly.zero()
    assert cheb_S(0) == 1
    assert cheb_S(1) == Z_VAR
    assert cheb_S(2) == Z_VAR * Z_VAR - 1
    assert cheb_S(-2) == LaurentPoly.const(-1)


def test_cheb_S_negative_matches_backward_recurrence():
    # oracle: S_{n-2} = z*S_{n-1} - S_n run downward from (S_0, S_{-1})
    cur, nxt = LaurentPoly.zero(), LaurentPoly.one()  # S_{-1}, S_0
    for n in range(-1, -15, -1):
        assert cheb_S(n) == cur
        cur, nxt = Z_VAR * cur - nxt, cur


def test_cheb_T_values():
    assert cheb_T(0) == 2
    assert cheb_T(1) == Z_VAR
    assert cheb_T(2) == Z_VAR * Z_VAR - 2
    for n in range(0, 12):
        assert cheb_T(-n) == cheb_T(n)


def test_cheb_T_negative_matches_backward_recurrence():
    cur, nxt = cheb_T(0), cheb_T(1)
    for n in range(0, -12, -1):
        assert cheb_T(n) == cur
        cur, nxt = Z_VAR * cur - nxt, cur


def test_cheb_S_at_values():
    assert cheb_S_at(0, 3) == 1
    assert cheb_S_at(1, 3) == 3
    assert cheb_S_at(2, 3) == 8
    assert cheb_S_at(3, 3) == 21
    assert cheb_S_at(-1, 5) == 0


def test_cheb_S_at_matches_symbolic():
    for n in range(-8, 15):
        symbolic = cheb_S(n)
        # evaluate the z-polynomial at z = 4 by hand
        value = sum(c * 4**e for e, c in symbolic.terms())
        assert cheb_S_at(n, 4) == value


def test_cheb_S_at_is_an_int_equal_to_the_two_variable_loop():
    def two_variable_loop(n, x0):
        if n < 0:
            return 0 if n == -1 else -two_variable_loop(-n - 2, x0)
        prev, cur = 0, 1  # S_{-1}, S_0
        for _ in range(n):
            prev, cur = cur, x0 * cur - prev
        return cur

    for x0 in range(-3, 6):
        for n in range(-6, 41):
            value = cheb_S_at(n, x0)
            assert type(value) is int, (n, x0)
            assert value == two_variable_loop(n, x0), (n, x0)


def test_cheb_S_at_keeps_one_sequence_per_base(monkeypatch):
    built = []

    class CountingChebyshev(sequences._Chebyshev):
        def __init__(self, x0, z):
            built.append(z)
            super().__init__(x0, z)

    monkeypatch.setattr(sequences, "_Chebyshev", CountingChebyshev)
    monkeypatch.setattr(sequences, "_CHEB_S_AT", {}, raising=False)
    values = [cheb_S_at(n, 3) for n in (5, 2, 40, -3, 40)]
    assert values == [144, 8, fib(82), -3, fib(82)]
    assert built == [3]
    assert cheb_S_at(2, 4) == 15
    assert built == [3, 4]


@pytest.mark.parametrize(
    "name, cache, x0, z",
    [
        ("cheb_S", "_CHEB_S", 1, Z_VAR),
        ("cheb_T", "_CHEB_T", 2, Z_VAR),
        ("cheb_S_subst", "_CHEB_S_SUBST", 1, Z_OF_T),
    ],
)
def test_sequence_matches_a_rerun_of_the_recurrence(name, cache, x0, z, monkeypatch):
    # oracle: x_k = z*x_{k-1} - x_{k-2} forward from (x_0, z), and
    # x_{k-2} = z*x_{k-1} - x_k backward; both S and T satisfy it at every
    # index (S_{-1} = 0, T_{-1} = T_1)
    expected = {0: LaurentPoly.const(x0), 1: z}
    for k in range(2, 61):
        expected[k] = z * expected[k - 1] - expected[k - 2]
    for k in range(-1, -7, -1):
        expected[k] = z * expected[k + 1] - expected[k + 2]
    # a fresh sequence, so that reads in both orders grow it
    monkeypatch.setattr(sequences, cache, sequences._Chebyshev(LaurentPoly.const(x0), z))
    fn = getattr(sequences, name)
    for k in [*range(40, -7, -1), *range(-6, 61)]:
        assert fn(k) == expected[k], k


def test_cheb_S_subst_small():
    assert cheb_S_subst(0) == 1
    assert cheb_S_subst(1) == Z_OF_T
    assert cheb_S_subst(-1) == LaurentPoly.zero()


def test_cheb_S_subst_specializes_to_3():
    for n in range(-5, 31):
        assert cheb_S_subst(n).at_minus_one() == cheb_S_at(n, 3)


def test_even_fib_equals_cheb():
    for n in range(1, 101):
        assert cheb_S_at(n - 1, 3) == fib(2 * n)


def test_fib_doubling():
    for n in range(1, 101):
        assert fib(2 * n) == fib(n) * (fib(n - 1) + fib(n + 1))


def test_fib_odd_index_minus_one_cases():
    for n in range(1, 101):
        if n % 2 == 0:
            assert fib(2 * n - 1) - 1 == fib(n) * (fib(n - 2) + fib(n))
        else:
            assert fib(2 * n - 1) - 1 == fib(n - 1) * (fib(n - 1) + fib(n + 1))


# -- recurrence solver --------------------------------------------------------


def test_solver_base_cases():
    assert solve_chebyshev_recurrence(7, 9, [], Z_VAR, 0) == 7
    assert solve_chebyshev_recurrence(7, 9, [], Z_VAR, 1) == 9


def test_solver_length_validation():
    with pytest.raises(ValueError):
        solve_chebyshev_recurrence(0, 1, [1], Z_VAR, 4)
    with pytest.raises(ValueError):
        solve_chebyshev_recurrence(0, 1, [], Z_VAR, -1)
    with pytest.raises(ValueError):
        iterate_chebyshev_recurrence(0, 1, [1, 2], Z_VAR, 2)
    with pytest.raises(ValueError, match="^n must be non-negative$"):
        iterate_chebyshev_recurrence(0, 1, [], Z_VAR, -1)


def test_solver_constant_inhomogeneous_term():
    # p0 = 0, p1 = t^-1, every c_k = t^-1, n = 4:
    # iteration gives t^-1*(S_0 + S_1 + S_2 + S_3) at z = 1 - t - t^-1
    cs = [TI, TI, TI]
    got = solve_chebyshev_recurrence(LaurentPoly.zero(), TI, cs, Z_OF_T, 4)
    assert got == iterate_chebyshev_recurrence(LaurentPoly.zero(), TI, cs, Z_OF_T, 4)
    expected = TI * sum((cheb_S_subst(j) for j in range(4)), LaurentPoly.zero())
    assert got == expected


def test_solver_negative_constant_case():
    # p0 = 0, p1 = -1, every c_k = -(1 + t^-1), n = 3
    c = -(1 + TI)
    got = solve_chebyshev_recurrence(LaurentPoly.zero(), LaurentPoly.const(-1), [c, c], Z_OF_T, 3)
    expected = -cheb_S_subst(2) + c * (cheb_S_subst(0) + cheb_S_subst(1))
    assert got == expected


def test_solver_equals_iteration_random():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randint(0, 40)
        p0, p1 = rng.randint(-9, 9), rng.randint(-9, 9)
        z = rng.randint(-4, 4)
        cs = [rng.randint(-9, 9) for _ in range(max(0, n - 1))]
        assert solve_chebyshev_recurrence(p0, p1, cs, z, n) == iterate_chebyshev_recurrence(
            p0, p1, cs, z, n
        )


def test_solver_equals_iteration_laurent():
    rng = random.Random(2025)

    def rp():
        return LaurentPoly({e: rng.randint(-3, 3) for e in range(-2, 3)})

    for _ in range(15):
        n = rng.randint(0, 25)
        p0, p1, z = rp(), rp(), rp()
        cs = [rp() for _ in range(max(0, n - 1))]
        assert solve_chebyshev_recurrence(p0, p1, cs, z, n) == iterate_chebyshev_recurrence(
            p0, p1, cs, z, n
        )


def test_recurrence_solver_check_passes():
    assert recurrence_solver_check(40).passed


# -- identity suite -----------------------------------------------------------


def test_identity_suite_all_pass():
    checks = identity_suite(10)
    assert all(c.passed for c in checks)
    names = {c.name for c in checks}
    assert "fib_lucas_product_to_sum" in names
    assert "cheb_SS_product_to_sum" in names
    assert all(c.cases > 0 for c in checks)


def test_identity_suite_sum_checks_catch_a_wrong_S_k(monkeypatch):
    # the parity-prefix table is summed from the same S_k as the products,
    # so an S_5 off by one must still fail every check that sums S values
    exact = sequences.cheb_S
    monkeypatch.setattr(
        sequences, "cheb_S", lambda n: exact(n) + LaurentPoly.one() if n == 5 else exact(n)
    )
    failed = {c.name for c in identity_suite(10) if not c.passed}
    assert {"cheb_SS_product_to_sum", "cheb_sum_even_prefix", "cheb_sum_odd_prefix"} <= failed


def test_identity_suite_rejects_bad_bound():
    with pytest.raises(ValueError):
        identity_suite(0)


def test_product_to_sum_instance():
    # F_2 * L_1 = F_3 + (-1)^1 * F_1, i.e. 1*1 = 2 - 1
    assert fib(2) * lucas(1) == fib(3) - fib(1) == 1


def test_cheb_SS_instance():
    # S_2 * S_2 = S_0 + S_2 + S_4
    assert cheb_S(2) * cheb_S(2) == cheb_S(0) + cheb_S(2) + cheb_S(4)


def test_cheb_TT_needs_T0_equal_2():
    assert cheb_T(0) * cheb_T(0) == cheb_T(0) + cheb_T(0)


def test_cheb_double_index():
    for k in range(0, 41):
        s = cheb_S
        assert s(2 * k) == (s(k) - s(k - 1)) * (s(k) + s(k - 1))
        assert s(2 * k + 1) == s(k) * (s(k + 1) - s(k - 1))


@pytest.mark.parametrize(
    "z", [Z_VAR, Z_OF_T, 3, -2], ids=["z", "1-t-1/t", "at 3", "at -2"]
)
def test_a_jumped_value_equals_the_stepped_one(z):
    # a cold sequence reaches k > 4 by doubling, never reading k - 1; its
    # neighbours k + 1, k - 1 and k - 2 and their mirrors S_{-j-2} = -S_j
    # then come by a step or a doubling from what the jump left known
    one = z ** 0
    stepped = sequences._Chebyshev(one, z)
    top = 402
    for k in range(top + 1):  # in order: every read is one step up from top
        stepped[k]
    assert stepped.top == top and stepped.known.keys() == set(range(top + 1))
    for k in [*range(41), 85, 135, 400]:
        cold = sequences._Chebyshev(one, z)
        assert cold[k] == stepped[k], k
        if k > 4:
            assert k - 1 not in cold.known, k
        for j in (k, k + 1, k - 1, k - 2):
            if j >= 0:
                assert cold[j] == stepped[j], (k, j)
            assert cold.s(-j - 2) == -stepped.s(j), (k, j)
        assert cold.known.keys() >= set(range(cold.top + 1)), k


def test_a_jump_takes_a_logarithmic_number_of_products(monkeypatch):
    # S_400 from a cold sequence: one product for each value it stores,
    # S_2..S_13 and 12 values at the halvings of 400, against 399 steps
    products = []
    exact = LaurentPoly.__mul__

    def counted(a, b):
        products.append(None)
        return exact(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    monkeypatch.setattr(LaurentPoly, "__rmul__", counted)
    cold = sequences._Chebyshev(LaurentPoly.one(), Z_OF_T)
    cold[400]
    assert len(products) == 24


def test_cheb_T_never_jumps():
    cold = sequences._Chebyshev(LaurentPoly.const(2), Z_VAR)
    assert cold[100] == cheb_T(100)
    assert cold.top == 100 and cold.known.keys() == set(range(101))


def _stepped_s(z, top):
    """S_{-top-2}..S_top by the plain two-term loop, keyed by index."""
    prev, cur = z - z, z ** 0  # S_{-1}, S_0
    s = {-1: prev}
    for k in range(top + 1):
        s[k], s[-k - 2] = cur, -cur
        prev, cur = cur, z * cur - prev
    return s


def _random_reads(rng, top):
    """60 indices in -top-2..top: repeats, negative indices, far jumps and
    gaps just above the highest index read so far."""
    reads = [0]
    for _ in range(59):
        roll = rng.random()
        if roll < 0.2:
            k = rng.choice(reads)
        elif roll < 0.35:
            k = rng.randrange(-top - 2, 0)
        elif roll < 0.5:
            k = rng.randrange(top // 2, top + 1)
        else:
            k = min(max(reads) + rng.randrange(1, 12), top)
        reads.append(k)
    return reads


_ORDER_BASES = pytest.mark.parametrize(
    "z, top",
    [(Z_VAR, 120), (Z_OF_T, 120), (3, 400), (-2, 400), (0, 400)],
    ids=["z", "1-t-1/t", "at 3", "at -2", "at 0"],
)


@_ORDER_BASES
@pytest.mark.parametrize("seed", range(4))
def test_any_read_order_gives_the_stepped_values(z, top, seed):
    expected = _stepped_s(z, top)
    cold = sequences._Chebyshev(z ** 0, z)
    for k in _random_reads(random.Random(seed), top):
        assert cold.s(k) == expected[k], (seed, k)
        assert all(j in cold.known for j in range(cold.top + 1)), (seed, k)
    assert all(value == expected[k] for k, value in cold.known.items())


@_ORDER_BASES
def test_threads_sharing_a_cold_sequence_read_the_stepped_values(z, top):
    expected = _stepped_s(z, top)
    shared = sequences._Chebyshev(z ** 0, z)
    start = threading.Barrier(4)
    wrong = []

    def reader(seed):
        reads = _random_reads(random.Random(seed), top)
        start.wait()
        for k in reads:
            if shared.s(k) != expected[k]:
                wrong.append((seed, k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside reads too
    try:
        threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert all(j in shared.known for j in range(shared.top + 1))
    assert all(value == expected[k] for k, value in shared.known.items())
