"""Laurent polynomial arithmetic, determinants, and Smith normal form."""

import math
import random

import pytest

from foxabf import ring
from foxabf.braid import BraidWord, burau, burau_at_minus_one, reduced_relation_matrix
from foxabf.ring import (
    AbelianGroup,
    InexactDivisionError,
    LaurentPoly,
    Matrix,
    divide_exact,
    normalize_unit,
    smith_invariant_factors,
    snf,
)

T = LaurentPoly.t()
TI = LaurentPoly.t(-1)
ONE = LaurentPoly.one()
Z = LaurentPoly({0: 1, 1: -1, -1: -1})  # 1 - t - t^-1


def rand_poly(rng, span=3, coef=6):
    return LaurentPoly(
        {e: rng.randint(-coef, coef) for e in range(-span, span + 1) if rng.random() < 0.6}
    )


# -- addition / multiplication examples -------------------------------------


def test_add_additive_inverse():
    assert T + (-T) == LaurentPoly.zero()


def test_add_cancellation():
    assert (ONE - T) + (T + TI) == ONE + TI


def test_add_doubling():
    assert Z + Z == LaurentPoly({0: 2, 1: -2, -1: -2})


def test_mul_unit_inverse():
    assert T * TI == ONE


def test_mul_hand_expansion():
    # (t - 1)(t^-1 - 1) = 1 - t - t^-1 + 1 = 2 - t - t^-1
    assert (T - 1) * (TI - 1) == LaurentPoly({0: 2, 1: -1, -1: -1})


def test_mul_by_unit():
    assert (ONE - TI) * T == T - 1


def test_zero_is_empty_map():
    assert LaurentPoly({0: 0, 3: 0}) == LaurentPoly.zero()
    assert not LaurentPoly.zero()
    assert LaurentPoly.zero().is_zero


# -- evaluation at t = -1 ----------------------------------------------------


def test_eval_z_gives_three():
    assert Z.at_minus_one() == 3


def test_eval_det_a_prime_gives_five():
    assert (3 - T - TI).at_minus_one() == 5


def test_eval_zero():
    assert LaurentPoly.zero().at_minus_one() == 0


def test_eval_is_ring_homomorphism():
    rng = random.Random(101)
    for _ in range(200):
        a, b = rand_poly(rng), rand_poly(rng)
        assert (a * b).at_minus_one() == a.at_minus_one() * b.at_minus_one()
        assert (a + b).at_minus_one() == a.at_minus_one() + b.at_minus_one()


# -- commutative ring axioms -------------------------------------------------


def test_ring_axioms_random():
    rng = random.Random(77)
    for _ in range(200):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a
        assert a * ONE == a
        assert a + LaurentPoly.zero() == a
        assert a * LaurentPoly.zero() == LaurentPoly.zero()


def test_int_coercion():
    assert 2 * T == T + T
    assert T - 1 == -(1 - T)
    assert LaurentPoly.const(5) == 5
    assert hash(LaurentPoly.const(5)) == hash(5)


def test_pow():
    assert (T + 1) ** 0 == ONE
    assert (T + 1) ** 2 == T * T + 2 * T + 1
    with pytest.raises(ValueError):
        T ** -1


# -- products against independent oracles --------------------------------------
#
# From 8 coefficients in the shorter operand a product is one big-int
# multiplication with a packed digit per coefficient; these tests put
# operands on both sides of that switch and product coefficients at the
# edge of the digit width.

BOUND_BITS = (1, 7, 8, 63, 64, 200)


def schoolbook_product(p, q):
    """Product by the definition, over (exponent, coefficient) terms."""
    out = {}
    for e, c in p.terms():
        for f, d in q.terms():
            out[e + f] = out.get(e + f, 0) + c * d
    return LaurentPoly(out)


def rand_dense(rng, length, bits, zeros=0.0):
    """``length`` coefficients of up to ``bits`` bits, any sign, nonzero
    ends, interior zeros with probability ``zeros``, lowest exponent in
    [-300, 300]."""
    top = 2**bits - 1
    coeffs = [rng.choice((-1, 1)) * rng.randint(1, top) for _ in range(length)]
    for i in range(1, length - 1):
        if rng.random() < zeros:
            coeffs[i] = 0
    lo = rng.randint(-300, 300)
    return LaurentPoly({lo + i: c for i, c in enumerate(coeffs)})


def test_product_matches_schoolbook_random():
    rng = random.Random(4242)
    packed = 0  # products whose shorter operand takes the packed path
    for trial in range(4000):
        draw = rng.random()
        if trial < 1200:
            short = (7, 8, 9)[trial % 3]  # around the switch
        elif draw < 0.1:
            short = rng.randint(1, 6)
        elif draw < 0.55:
            short = rng.randint(10, 16)
        elif draw < 0.95:
            short = rng.randint(17, 64)
        else:
            short = rng.randint(65, 200)
        long = short + rng.choice((0, rng.randint(0, 8), rng.randint(0, 60)))
        packed += short >= 8
        bits = rng.choice(BOUND_BITS + (2, 30))
        zeros = rng.choice((0.0, 0.3, 0.9))
        a = rand_dense(rng, short, bits, zeros)
        b = rand_dense(rng, long, rng.choice(BOUND_BITS), zeros)
        if trial % 4 == 1:
            a = -LaurentPoly({e: abs(c) for e, c in a.terms()})  # all negative
        if trial % 4 == 2:
            a, b = (-LaurentPoly({e: abs(c) for e, c in p.terms()}) for p in (a, b))
        expected = schoolbook_product(a, b)
        assert a * b == expected, (trial, short, long, bits)
        assert b * a == expected
    assert packed >= 3000


@pytest.mark.parametrize("bits_a", BOUND_BITS)
@pytest.mark.parametrize("bits_b", BOUND_BITS)
def test_product_at_the_digit_bound(bits_a, bits_b):
    # every coefficient at +/-(2^B - 1): the middle coefficients of the
    # product are length * (2^Ba - 1) * (2^Bb - 1), as close to the digit
    # width as the bit counts of the coefficients and of the length allow;
    # lengths 255 and 1023 make that width a whole number of bytes for
    # the pairs whose bit counts sum to 0 or 6 mod 8
    top_a, top_b = 2**bits_a - 1, 2**bits_b - 1
    for len_a, len_b in ((7, 7), (8, 8), (8, 9), (9, 40), (255, 255), (255, 300), (1023, 1023)):
        for sign_a, sign_b in ((1, 1), (1, -1), (-1, -1)):
            a = LaurentPoly({e: sign_a * top_a for e in range(-3, len_a - 3)})
            b = LaurentPoly({e: sign_b * top_b for e in range(5, len_b + 5)})
            m = len_a + len_b - 1
            expected = LaurentPoly(
                {
                    2 + j: sign_a * sign_b * top_a * top_b * min(j + 1, len_a, len_b, m - j)
                    for j in range(m)
                }
            )
            assert a * b == expected, (len_a, len_b, sign_a, sign_b)


def test_product_with_units_and_interior_zeros():
    rng = random.Random(99)
    for length in (1, 7, 8, 9, 50):
        p = rand_dense(rng, length, 64, zeros=0.5)
        for k in (-40, -1, 0, 1, 40):
            for sign in (1, -1):
                assert p * (sign * LaurentPoly.t(k)) == sign * p.shift(k)
        q = rand_dense(rng, 30, 8, zeros=0.5)
        assert p.shift(7) * q.shift(-9) == (p * q).shift(-2) == schoolbook_product(p, q).shift(-2)
    sparse = LaurentPoly({0: 1, 20: -1})  # 19 interior zeros
    assert sparse * sparse == LaurentPoly({0: 1, 20: -2, 40: 1})
    assert sparse * (-sparse) == LaurentPoly({0: -1, 20: 2, 40: -1})


@pytest.mark.parametrize("c", [1, -1, 2, -7, 2**70])
@pytest.mark.parametrize("k", [-40, 0, 3])
def test_one_coefficient_product_matches_schoolbook(c, k):
    # c * t^k is the other operand's tuple, shifted and scaled, in either order
    rng = random.Random(abs(c) + k)
    monomial = LaurentPoly({k: c})
    for length in (1, 2, 7, 8, 30):
        p = rand_dense(rng, length, 64, zeros=0.5)
        expected = schoolbook_product(monomial, p)
        assert monomial * p == expected, length
        assert p * monomial == expected, length
        assert c * p.shift(k) == expected and p.shift(k) * c == expected


def test_zero_operand_gives_zero_in_either_order():
    rng = random.Random(100)
    for p in (LaurentPoly.zero(), ONE, -T, Z, rand_dense(rng, 9, 64), rand_dense(rng, 40, 8)):
        for zero in (0, LaurentPoly.zero()):
            for product in (p * zero, zero * p):
                assert isinstance(product, LaurentPoly)
                assert product == LaurentPoly.zero() and product.is_zero


def test_difference_is_the_sum_with_the_negation():
    rng = random.Random(101)
    pairs = [(rand_poly(rng), rand_poly(rng)) for _ in range(300)]
    pairs += [(rand_dense(rng, 20, 64), rand_dense(rng, 5, 8)) for _ in range(50)]
    p = rand_dense(rng, 12, 30)
    pairs += [
        (p, p),  # equal: the difference is zero
        (Z, LaurentPoly.zero()),
        (LaurentPoly.zero(), Z),
        (T.shift(50), Z),  # disjoint exponent spans, either order
        (Z, T.shift(-50)),
        (Z + T.shift(2), Z),  # the low ends cancel
        (T.shift(-3) + Z, Z),  # the high ends cancel
        (T.shift(-3) + Z + T.shift(3), Z),  # both ends cancel
    ]
    for a, b in pairs:
        difference = a - b
        assert difference == a + (-b), (a, b)
        assert difference == LaurentPoly({e: a.coeff(e) - b.coeff(e) for e in range(-400, 400)})
        assert b - a == -difference
    assert 3 - T == LaurentPoly({0: 3, 1: -1}) and T - 3 == LaurentPoly({0: -3, 1: 1})


# -- unit normalization ------------------------------------------------------


def test_normalize_examples():
    assert normalize_unit(LaurentPoly({2: -1, 1: 3, 0: -1})) == LaurentPoly({0: 1, 1: -3, 2: 1})
    assert normalize_unit(TI) == ONE
    assert normalize_unit(T - 3 + TI) == LaurentPoly({0: 1, 1: -3, 2: 1})


def test_normalize_zero_rejected():
    with pytest.raises(ValueError):
        normalize_unit(LaurentPoly.zero())


def test_normalize_idempotent_and_unit_orbit():
    rng = random.Random(5)
    for _ in range(100):
        a = rand_poly(rng)
        if a.is_zero:
            continue
        canon = normalize_unit(a)
        assert normalize_unit(canon) == canon
        for k in range(-5, 6):
            for sign in (1, -1):
                assert normalize_unit(a.shift(k) * sign) == canon


# -- exact division and gcd --------------------------------------------------


def test_divide_exact():
    assert divide_exact(T * T - 1, T - 1) == T + 1
    assert divide_exact(LaurentPoly.zero(), T) == LaurentPoly.zero()
    assert divide_exact(Z * (T - 2) * TI, Z) == (T - 2) * TI
    with pytest.raises(InexactDivisionError):
        divide_exact(T + 1, T - 1)
    with pytest.raises(ZeroDivisionError):
        divide_exact(T, LaurentPoly.zero())


# -- matrices ----------------------------------------------------------------


def burau_sigma1_2strand():
    return Matrix([[LaurentPoly.zero(), ONE], [T, ONE - T]])


def test_identity_multiplication():
    rng = random.Random(8)
    m = Matrix([[rand_poly(rng) for _ in range(3)] for _ in range(3)])
    assert Matrix.identity(3, one=ONE) * m == m
    assert m * Matrix.identity(3, one=ONE) == m


def test_generator_times_inverse():
    inv = Matrix([[ONE - TI, TI], [ONE, LaurentPoly.zero()]])
    assert burau_sigma1_2strand() * inv == Matrix.identity(2, one=ONE)


def test_square_of_generator():
    m = burau_sigma1_2strand()
    assert m * m == Matrix([[T, ONE - T], [T - T * T, ONE - T + T * T]])


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        Matrix([[1, 2]]) * Matrix([[1, 2]])


def test_det_examples():
    assert Matrix.identity(4).det() == 1
    assert Matrix([[2, 0], [0, 3]]).det() == 6
    assert burau_sigma1_2strand().det() == -T
    # column 1 is zero from row 1 down while column 2 is not: the pivot
    # search finds an entry outside column 1 and the determinant is the
    # ring's zero
    rows = [[1, 2, 3], [0, 0, 5], [0, 0, 7]]
    det = Matrix(rows).det()
    assert det == 0 and type(det) is int
    rows[0][0] = ONE
    det = Matrix(rows).det()
    assert isinstance(det, LaurentPoly) and det.is_zero


def test_det_non_square():
    with pytest.raises(ValueError):
        Matrix([[1, 2]]).det()


def _det_permanent_oracle(m):
    # brute-force determinant by permutation expansion
    import itertools

    n = m.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term = term * m[i, perm[i]]
        total = total + term
    return total


def test_bareiss_matches_expansion_int():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = Matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        assert m.det() == _det_permanent_oracle(m)


def test_bareiss_matches_expansion_laurent():
    rng = random.Random(14)
    for _ in range(12):
        m = Matrix([[rand_poly(rng, span=1, coef=3) for _ in range(4)] for _ in range(4)])
        assert m.det() == _det_permanent_oracle(m)


def _det_dividing_by_one(rows):
    """Bareiss elimination that also divides its first step by the initial
    previous pivot 1: the reference for the division Matrix.det skips."""
    a = [list(row) for row in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return a[k][k] * 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = ring._entry_div_exact(a[i][j] * a[k][k] - a[i][k] * a[k][j], prev)
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def test_bareiss_skips_the_division_by_the_initial_pivot(monkeypatch):
    rng = random.Random(11)  # a 24-strand, 80-letter word with nonzero determinant
    word = BraidWord(24, tuple(rng.choice((1, -1)) * rng.randint(1, 23) for _ in range(80)))
    m = reduced_relation_matrix(burau(word))
    original = ring.divide_exact
    divisors = []
    monkeypatch.setattr(ring, "divide_exact", lambda a, b: divisors.append(b) or original(a, b))
    det = m.det()
    skipping = len(divisors)
    divisors.clear()
    assert _det_dividing_by_one(m.entries()) == det != 0
    assert len(divisors) - skipping == (m.rows - 1) ** 2 == 484


# -- Smith normal form -------------------------------------------------------


def test_snf_diag_2_3():
    group = snf(Matrix([[2, 0], [0, 3]]))
    assert group == AbelianGroup(torsion=(6,), free_rank=0)


def test_snf_zero_1x1():
    group = snf(Matrix([[0]]))
    assert group == AbelianGroup(torsion=(), free_rank=1)


def test_snf_wheel_six_matrix():
    # [[F_12, F_11 - 1], [F_13 - 1, F_12]]: det 320, entry gcd 8 -> Z_8 + Z_40
    m = Matrix([[144, 88], [232, 144]])
    assert abs(m.det()) == 320
    assert math.gcd(144, math.gcd(88, 232)) == 8
    assert snf(m) == AbelianGroup(torsion=(8, 40), free_rank=0)


def test_snf_empty_matrix():
    assert snf(Matrix([])) == AbelianGroup()


def test_snf_rejects_laurent():
    with pytest.raises(TypeError):
        smith_invariant_factors(Matrix([[T]]))


def test_snf_divisor_chain_and_det_product():
    rng = random.Random(90)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = Matrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        group = snf(m)
        for a, b in zip(group.torsion, group.torsion[1:]):
            assert b % a == 0
        det = m.det()
        if det == 0:
            assert group.free_rank > 0
        else:
            assert group.free_rank == 0
            assert group.torsion_order() == abs(det)


def _random_ops(rng, rows, nr, nc):
    op = rng.randint(0, 5)
    if op == 0 and nr > 1:
        i, j = rng.sample(range(nr), 2)
        rows[i], rows[j] = rows[j], rows[i]
    elif op == 1 and nc > 1:
        i, j = rng.sample(range(nc), 2)
        for row in rows:
            row[i], row[j] = row[j], row[i]
    elif op == 2:
        i = rng.randrange(nr)
        rows[i] = [-v for v in rows[i]]
    elif op == 3:
        j = rng.randrange(nc)
        for row in rows:
            row[j] = -row[j]
    elif op == 4 and nr > 1:
        i, j = rng.sample(range(nr), 2)
        c = rng.randint(-3, 3)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    elif op == 5 and nc > 1:
        i, j = rng.sample(range(nc), 2)
        c = rng.randint(-3, 3)
        for row in rows:
            row[i] += c * row[j]


def test_snf_invariant_under_unimodular_ops():
    rng = random.Random(91)
    for _ in range(80):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        before = smith_invariant_factors(Matrix(rows))
        for _ in range(8):
            _random_ops(rng, rows, nr, nc)
        assert smith_invariant_factors(Matrix(rows)) == before


# -- AbelianGroup ------------------------------------------------------------


def test_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup(torsion=(1,))
    with pytest.raises(ValueError):
        AbelianGroup(torsion=(4, 6))
    with pytest.raises(ValueError):
        AbelianGroup(free_rank=-1)


def test_group_describe():
    assert AbelianGroup().describe() == "0"
    assert AbelianGroup(torsion=(8, 40)).describe() == "Z_40 + Z_8"
    assert AbelianGroup(torsion=(5,), free_rank=1).describe() == "Z + Z_5"
    assert AbelianGroup(free_rank=2).describe() == "Z^2"


def test_group_order():
    assert AbelianGroup().order() == 1
    assert AbelianGroup(torsion=(8, 40)).order() == 320
    assert AbelianGroup(free_rank=1).order() == 0


# -- string form -------------------------------------------------------------


def test_to_str_forms():
    assert LaurentPoly.zero().to_str() == "0"
    assert LaurentPoly({0: 1, 1: -3, 2: 1}).to_str() == "1-3*t+t^2"
    assert TI.to_str() == "t^-1"
    assert (3 - T - TI).to_str() == "-t^-1+3-t"
    assert (-T).to_str() == "-t"
    assert LaurentPoly({-2: 2}).to_str() == "2*t^-2"
    assert LaurentPoly({0: 1, 1: -1, -1: -1}).to_str("z") == "-z^-1+1-z"


# -- differential tests against sympy ----------------------------------------
#
# sympy works in Z[t], so each Laurent polynomial is multiplied by t^SHIFT
# first; SHIFT exceeds every negative exponent rand_laurent produces.

SHIFT = 12


@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


def rand_laurent(rng, size=12, low=-10):
    """Dense-ish Laurent polynomial: interior zeros, any sign, small or
    big-integer coefficients, lowest exponent in [low, 10]."""
    lo = rng.randint(low, 10)
    bound = rng.choice((3, 10**25))
    return LaurentPoly(
        {lo + i: rng.randint(-bound, bound) for i in range(rng.randint(0, size)) if rng.random() < 0.8}
    )


def to_sympy(sp, p, shift=SHIFT):
    t = sp.Symbol("t")
    return sp.Poly(sum((c * t ** (e + shift) for e, c in p.terms()), sp.Integer(0)), t)


def from_sympy(poly, shift=SHIFT):
    return LaurentPoly({e - shift: int(c) for (e,), c in poly.terms()})


def test_arithmetic_matches_sympy(sp):
    rng = random.Random(2024)
    for _ in range(400):
        a, b = rand_laurent(rng), rand_laurent(rng)
        sa, sb = to_sympy(sp, a), to_sympy(sp, b)
        assert a * b == from_sympy(sa * sb, 2 * SHIFT)
        assert a + b == from_sympy(sa + sb)
        assert a - b == from_sympy(sa - sb)


def test_cancelling_sums_are_canonical():
    rng = random.Random(2025)
    for _ in range(200):
        a, b = rand_laurent(rng), rand_laurent(rng)
        total = (a + b) - b
        assert total == a and hash(total) == hash(a) and str(total) == str(a)
        assert (a - a).is_zero and a - a == LaurentPoly.zero()


def test_divide_exact_matches_sympy(sp):
    rng = random.Random(2026)
    inexact = 0
    for _ in range(300):
        b = rand_laurent(rng, size=5)
        if b.is_zero:
            continue
        a = rand_laurent(rng, size=6) * b if rng.random() < 0.5 else rand_laurent(rng)
        if a.is_zero:
            continue
        # in Z[t^(+/-1)], b | a exactly when b / t^min | a / t^min in Z[t]
        fa, fb = to_sympy(sp, a, -a.min_exp), to_sympy(sp, b, -b.min_exp)
        q, r = sp.div(fa, fb, domain=sp.QQ)
        if r.is_zero and all(c.is_integer for c in q.coeffs()):
            assert divide_exact(a, b) == from_sympy(q, b.min_exp - a.min_exp)
        else:
            inexact += 1
            with pytest.raises(InexactDivisionError):
                divide_exact(a, b)
    assert inexact > 50


def _det_by_sympy(sp, m):
    n = m.rows
    shifted = sp.Matrix(n, n, lambda i, j: to_sympy(sp, m[i, j]).as_expr())
    return from_sympy(sp.Poly(shifted.det(method="berkowitz"), sp.Symbol("t")), n * SHIFT)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_matches_sympy(sp, n):
    # a zero first pivot makes elimination swap rows; a zero first column
    # makes the determinant vanish before elimination ends
    rng = random.Random(2028 + n)
    for case in range(12):
        rows = [[rand_laurent(rng, size=3, low=-3) for _ in range(n)] for _ in range(n)]
        if case % 3 == 1:
            rows[0][0] = LaurentPoly.zero()
        elif case % 3 == 2:
            for row in rows:
                row[0] = LaurentPoly.zero()
        m = Matrix(rows)
        assert m.det() == _det_by_sympy(sp, m)
        ints = Matrix([[p.at_minus_one() for p in row] for row in rows])
        assert ints.det() == sp.Matrix([list(r) for r in ints.entries()]).det()


def test_snf_matches_sympy(sp):
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(2029)
    for case in range(300):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        bound = rng.choice((2, 9, 10**6))
        rows = [[rng.randint(-bound, bound) for _ in range(nc)] for _ in range(nr)]
        if case % 4 == 1:
            rows[rng.randrange(nr)] = [0] * nc
        elif case % 4 == 2:
            j = rng.randrange(nc)
            for row in rows:
                row[j] = 0
        expected = [abs(int(d)) for d in invariant_factors(sp.Matrix(rows)) if d]
        assert smith_invariant_factors(Matrix(rows)) == expected


def test_snf_matches_sympy_on_braid_matrices(sp):
    # the matrices colorgroup reduces: reduced t = -1 presentations of 30
    # mixed words and 10 of 24 strands and 80 letters, singular ones kept
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(2030)
    shapes = [(rng.randint(6, 14), rng.randint(10, 80)) for _ in range(30)] + [(24, 80)] * 10
    singular = 0
    for strands, length in shapes:
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length))
        m = reduced_relation_matrix(burau_at_minus_one(BraidWord(strands, letters)))
        expected = [abs(int(d)) for d in invariant_factors(sp.Matrix(m.entries())) if d]
        factors = smith_invariant_factors(m)
        assert factors == expected, (strands, letters)
        singular += len(factors) < m.rows
    assert singular > 0


def test_group_stores_its_torsion_as_a_tuple():
    # a list argument once made a group unequal to its tuple twin, and unhashable
    group = AbelianGroup([4, 8])
    assert group.torsion == (4, 8)
    assert group == AbelianGroup((4, 8))
    assert hash(group) == hash(AbelianGroup((4, 8)))
