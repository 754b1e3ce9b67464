"""Fixed points from classical knot theory, independent of the wheel
family: (2, n) torus closures, an SNF oracle via determinantal divisors,
the determinant, Torres and symmetry facts about Delta on seeded words,
and an Alexander polynomial oracle from the reduced Burau
representation."""

import math
import random
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from foxabf.alexander import general_presentation, wheel_module
from foxabf.braid import BraidWord, burau, reduced_relation_matrix
from foxabf.coloring import coloring_group
from foxabf.ring import AbelianGroup, LaurentPoly, Matrix, normalize_unit, snf
from foxabf.verify import random_word
from test_braid import closure_components


def torus_word(n):
    """sigma_1^n on two strands; its closure is the (2, n) torus knot/link."""
    return BraidWord(2, (1,) * n)


def test_torus_coloring_groups():
    # Col^red of the (2, n) torus closure is Z_n
    assert coloring_group(torus_word(1)).group == AbelianGroup()
    for n in range(2, 10):
        assert coloring_group(torus_word(n)).group == AbelianGroup(torsion=(n,)), n


def test_trefoil_alexander():
    assert general_presentation(torus_word(3)).alexander == LaurentPoly({0: 1, 1: -1, 2: 1})


def test_cinquefoil_alexander():
    assert general_presentation(torus_word(5)).alexander == LaurentPoly(
        {0: 1, 1: -1, 2: 1, 3: -1, 4: 1}
    )


def test_hopf_link_alexander():
    assert general_presentation(torus_word(2)).alexander == LaurentPoly({0: 1, 1: -1})


def test_torus_alexander_general_shape():
    # 1 - t + t^2 - ... +- t^(n-1), so the determinant |eval(-1)| equals n
    for n in range(2, 10):
        poly = general_presentation(torus_word(n)).alexander
        assert poly == LaurentPoly({e: (-1) ** e for e in range(n)})
        assert abs(poly.at_minus_one()) == n


def test_alexander_drop_index_invariance():
    # the normalized determinant of the reduced presentation does not
    # depend on which arc/relation is dropped (unit-weighted null vectors)
    rng = random.Random(55)
    for _ in range(25):
        strands = rng.randint(2, 4)
        length = rng.randint(0, 12)
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)
        )
        word = BraidWord(strands, letters)
        dets = [
            reduced_relation_matrix(burau(word), drop_index=d).det() for d in range(1, strands + 1)
        ]
        if any(d.is_zero for d in dets):
            assert all(d.is_zero for d in dets)
        else:
            normalized = {normalize_unit(d) for d in dets}
            assert len(normalized) == 1


# -- independent SNF oracle ------------------------------------------------------


def snf_via_determinantal_divisors(m):
    """Invariant factors as ratios d_k / d_{k-1} of k x k minor gcds."""
    factors = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows_idx in combinations(range(m.rows), k):
            for cols_idx in combinations(range(m.cols), k):
                sub = Matrix([[m[i, j] for j in cols_idx] for i in rows_idx])
                g = math.gcd(g, sub.det())
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return AbelianGroup(
        torsion=tuple(f for f in factors if f > 1),
        free_rank=m.cols - len(factors),
    )


def test_snf_against_determinantal_divisors():
    rng = random.Random(321)
    for _ in range(80):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = Matrix([[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)])
        assert snf(m) == snf_via_determinantal_divisors(m)


def test_snf_oracle_on_wheel_matrices():
    from foxabf.wheel import fibonacci_relation_matrix, fox_closed_form

    for n in range(1, 13):
        m = fibonacci_relation_matrix(n)
        assert snf_via_determinantal_divisors(m) == fox_closed_form(n)


# -- Markov invariance -----------------------------------------------------------


def markov_words(seed, count=120):
    """Seeded words on 2..6 strands with up to 20 letters each."""
    rng = random.Random(seed)
    for _ in range(count):
        strands = rng.randint(2, 6)
        length = rng.randint(0, 20)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length))
        yield rng, BraidWord(strands, letters)


def assert_same_invariants(word, moved):
    # the Alexander polynomial is the canonical associate: equal means equal up to units
    assert coloring_group(moved).group == coloring_group(word).group, (word, moved)
    moved_alexander = general_presentation(moved).alexander
    assert moved_alexander == general_presentation(word).alexander, (word, moved)


def test_markov_conjugation_by_a_letter():
    for rng, word in markov_words(6061):
        letter = rng.choice((1, -1)) * rng.randint(1, word.strands - 1)
        assert_same_invariants(word, BraidWord(word.strands, (letter, *word.letters, -letter)))


def test_markov_stabilization():
    # w on s strands -> w * sigma_s^(+-1) on s + 1 strands
    for rng, word in markov_words(6062):
        last = rng.choice((1, -1)) * word.strands
        assert_same_invariants(word, BraidWord(word.strands + 1, (*word.letters, last)))


# derandomized and without an example database: the same examples on
# every run, none of them saved between runs
MARKOV_SETTINGS = settings(derandomize=True, database=None, deadline=None)


@st.composite
def markov_cases(draw):
    """A word on 2..6 strands with up to 20 letters, and a conjugator on the
    same strands with up to 8."""
    strands = draw(st.integers(2, 6))
    letter = st.sampled_from([i for i in range(1 - strands, strands) if i])
    word = BraidWord(strands, tuple(draw(st.lists(letter, max_size=20))))
    return word, tuple(draw(st.lists(letter, max_size=8)))


@MARKOV_SETTINGS
@given(markov_cases())
def test_markov_conjugation_by_a_word(case):
    word, c = case
    inverse = tuple(-x for x in reversed(c))
    assert_same_invariants(word, BraidWord(word.strands, (*c, *word.letters, *inverse)))


@MARKOV_SETTINGS
@given(markov_cases(), st.sampled_from((1, -1)))
def test_markov_stabilization_property(case, sign):
    word, _ = case
    assert_same_invariants(word, BraidWord(word.strands + 1, (*word.letters, sign * word.strands)))


# -- classical facts about Delta on seeded random words ---------------------------
#
# Torres, "On the Alexander polynomial", Ann. of Math. 57 (1953); Lickorish,
# An Introduction to Knot Theory (GTM 175), ch. 6.  The code that computes
# Delta uses none of these facts.


@pytest.fixture(scope="module")
def classical_words():
    """600 seeded words on up to 7 strands with up to 24 letters, each
    with its Alexander polynomial."""
    rng = random.Random(4242)
    words = [random_word(rng, max_strands=7, max_len=24) for _ in range(600)]
    return [(word, general_presentation(word).alexander) for word in words]


def test_alexander_at_minus_one_is_the_coloring_group_order(classical_words):
    # the link determinant: Bareiss over Z[t^(+/-1)] against SNF over Z
    for word, poly in classical_words:
        assert abs(poly.at_minus_one()) == coloring_group(word).group.order(), word


def test_torres_alexander_at_one(classical_words):
    knots = 0
    for word, poly in classical_words:
        at_one = sum(c for _, c in poly.terms())
        if closure_components(word) == 1:
            knots += 1
            assert abs(at_one) == 1, word
        else:
            assert at_one == 0, word
    assert 0 < knots < 600


def test_alexander_is_symmetric(classical_words):
    nonzero = 0
    for word, poly in classical_words:
        if not poly.is_zero:
            nonzero += 1
            mirrored = LaurentPoly({-e: c for e, c in poly.terms()})
            assert normalize_unit(mirrored) == poly, word
    assert nonzero > 0


# -- independent Alexander oracle: the reduced Burau representation --------------
#
# Birman, Braids, Links, and Mapping Class Groups (1974), Thm 3.11: for a
# braid b on s strands, Delta(t) ~ det(I - psi(b)) * (1 - t) / (1 - t^s),
# with psi the reduced Burau representation.  Built with sympy alone; it
# shares no code with foxabf's Burau product, ring or determinant.

T = sympy.Symbol("t")


def _one_column_off_diagonal(strands, i, diagonal, above, on):
    """diagonal * I of size s - 1 whose column i reads above, on, 1 in rows
    i - 1, i, i + 1 (as far as they exist)."""
    m = diagonal * sympy.eye(strands - 1)
    c = i - 1
    if c > 0:
        m[c - 1, c] = above
    m[c, c] = on
    if c + 1 < strands - 1:
        m[c + 1, c] = 1
    return m


def reduced_burau(strands, i):
    """psi(sigma_i): the identity but for column i, (t, -t, 1)."""
    return _one_column_off_diagonal(strands, i, 1, T, -T)


def reduced_burau_inverse_times_t(strands, i):
    """t * psi(sigma_i)^-1: t times the identity but for column i,
    (t, -1, 1); no negative powers of t."""
    return _one_column_off_diagonal(strands, i, T, T, -1)


def burau_alexander(strands, letters):
    """Coefficients, lowest first, of det(t^m I - P) (1 - t) / (1 - t^s),
    P the product of psi(sigma_i) and t * psi(sigma_i^-1) over the word and
    m its number of inverse letters; P = t^m psi(b).  The product and the
    determinant run over ZZ[t] in sympy's DomainMatrix."""
    ring = sympy.ZZ[T]
    product = DomainMatrix.eye(strands - 1, ring)
    for letter in letters:
        build = reduced_burau if letter > 0 else reduced_burau_inverse_times_t
        product = product * DomainMatrix.from_Matrix(build(strands, abs(letter))).convert_to(ring)
    t_m = ring.from_sympy(T ** sum(1 for letter in letters if letter < 0))
    det = sympy.Poly(ring.to_sympy((DomainMatrix.eye(strands - 1, ring) * t_m - product).det()), T)
    quotient, remainder = sympy.div(det * sympy.Poly(1 - T, T), sympy.Poly(1 - T**strands, T))
    assert remainder.is_zero, (strands, letters)
    return [int(c) for c in reversed(quotient.all_coeffs())]


def up_to_units_and_inversion(coeffs):
    """One representative of +-t^k * p(t^(+-1)) from a coefficient list."""
    nonzero = [i for i, c in enumerate(coeffs) if c]
    if not nonzero:
        return ()
    trimmed = tuple(coeffs[nonzero[0] : nonzero[-1] + 1])
    variants = [trimmed, trimmed[::-1]]
    return min(v for u in variants for v in (u, tuple(-c for c in u)))


def foxabf_coefficients(poly):
    if poly.is_zero:
        return []
    return [poly.coeff(e) for e in range(poly.min_exp, poly.terms()[-1][0] + 1)]


def test_reduced_burau_inverse_letters():
    for strands in range(2, 7):
        for i in range(1, strands):
            product = (reduced_burau(strands, i) * reduced_burau_inverse_times_t(strands, i)).expand()
            assert product == T * sympy.eye(strands - 1), (strands, i)


def test_alexander_against_reduced_burau_oracle():
    rng = random.Random(9091)
    for _ in range(40):
        word = random_word(rng)
        expected = up_to_units_and_inversion(burau_alexander(word.strands, word.letters))
        got = up_to_units_and_inversion(foxabf_coefficients(general_presentation(word).alexander))
        assert got == expected, word


def test_wheel_alexander_against_reduced_burau_oracle():
    for n in range(1, 13):
        expected = up_to_units_and_inversion(burau_alexander(3, (1, -2) * n))
        got = up_to_units_and_inversion(foxabf_coefficients(wheel_module(n).alexander))
        assert got == expected, n
