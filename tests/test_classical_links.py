"""Fixed points from classical knot theory, independent of the wheel
family: (2, n) torus closures and an SNF oracle via determinantal
divisors."""

import math
import random
from itertools import combinations

from foxabf.alexander import alexander_polynomial
from foxabf.braid import BraidWord, reduced_relation_matrix
from foxabf.coloring import coloring_group
from foxabf.ring import AbelianGroup, LaurentPoly, Matrix, normalize_unit, snf


def torus_word(n):
    """sigma_1^n on two strands; its closure is the (2, n) torus knot/link."""
    return BraidWord(2, (1,) * n)


def test_torus_coloring_groups():
    # Col^red of the (2, n) torus closure is Z_n
    assert coloring_group(torus_word(1)).group == AbelianGroup()
    for n in range(2, 10):
        assert coloring_group(torus_word(n)).group == AbelianGroup(torsion=(n,)), n


def test_trefoil_alexander():
    assert alexander_polynomial(torus_word(3)) == LaurentPoly({0: 1, 1: -1, 2: 1})


def test_cinquefoil_alexander():
    assert alexander_polynomial(torus_word(5)) == LaurentPoly(
        {0: 1, 1: -1, 2: 1, 3: -1, 4: 1}
    )


def test_hopf_link_alexander():
    assert alexander_polynomial(torus_word(2)) == LaurentPoly({0: 1, 1: -1})


def test_torus_alexander_general_shape():
    # 1 - t + t^2 - ... +- t^(n-1), so the determinant |eval(-1)| equals n
    for n in range(2, 10):
        poly = alexander_polynomial(torus_word(n))
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
        dets = [reduced_relation_matrix(word, drop_index=d).det() for d in range(1, strands + 1)]
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
    # alexander_polynomial is the canonical associate: equal means equal up to units
    assert coloring_group(moved).group == coloring_group(word).group, (word, moved)
    assert alexander_polynomial(moved) == alexander_polynomial(word), (word, moved)


def test_markov_conjugation_by_a_letter():
    for rng, word in markov_words(6061):
        letter = rng.choice((1, -1)) * rng.randint(1, word.strands - 1)
        assert_same_invariants(word, BraidWord(word.strands, (letter, *word.letters, -letter)))


def test_markov_stabilization():
    # w on s strands -> w * sigma_s^(+-1) on s + 1 strands
    for rng, word in markov_words(6062):
        last = rng.choice((1, -1)) * word.strands
        assert_same_invariants(word, BraidWord(word.strands + 1, (*word.letters, last)))
