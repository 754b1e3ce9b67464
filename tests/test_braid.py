"""Braid parsing, wheel words, permutations, and the Burau representation."""

import random
import time

import pytest

from foxabf.braid import (
    MAX_STRANDS,
    BraidParseError,
    BraidWord,
    _echo,
    burau,
    burau_at_minus_one,
    exponent_sum,
    parse_braid,
    reduced_relation_matrix,
    wheel_braid,
)
from foxabf.ring import LaurentPoly, Matrix

T = LaurentPoly.t()
TI = LaurentPoly.t(-1)
ONE = LaurentPoly.one()


def random_word(rng, max_strands=6, max_len=20):
    strands = rng.randint(2, max_strands)
    length = rng.randint(0, max_len)
    letters = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length))
    return BraidWord(strands, letters)


# -- parsing -------------------------------------------------------------------


def test_parse_basic():
    word = parse_braid("1 -2 1 -2")
    assert word.strands == 3
    assert word.letters == (1, -2, 1, -2)


def test_parse_commas_and_whitespace():
    assert parse_braid("1,-2,  1,\t-2").letters == (1, -2, 1, -2)


def test_parse_empty_with_strands():
    word = parse_braid("", strands=2)
    assert word.strands == 2
    assert word.letters == ()


def test_parse_empty_without_strands():
    with pytest.raises(BraidParseError):
        parse_braid("")


def test_parse_zero_letter():
    with pytest.raises(BraidParseError) as info:
        parse_braid("1 0 2")
    assert info.value.position == 2


def test_parse_garbled_token():
    with pytest.raises(BraidParseError) as info:
        parse_braid("1 x2 3")
    assert info.value.position == 2


def test_parse_strands_too_small():
    with pytest.raises(BraidParseError):
        parse_braid("1 -2", strands=2)


def test_parse_strands_override():
    word = parse_braid("1", strands=4)
    assert word.strands == 4


def test_parse_json_form():
    word = parse_braid('{"strands": 3, "letters": [1, -2, 1, -2]}')
    assert word == parse_braid("1 -2 1 -2")
    inferred = parse_braid('{"letters": [1, -2]}')
    assert inferred.strands == 3


def test_parse_json_conflict():
    with pytest.raises(BraidParseError):
        parse_braid('{"strands": 3, "letters": [1]}', strands=4)


def test_braidword_validation():
    with pytest.raises(ValueError):
        BraidWord(0)
    with pytest.raises(ValueError):
        BraidWord(2, (2,))
    with pytest.raises(ValueError):
        BraidWord(3, (0,))


@pytest.mark.parametrize("args", [(True,), (3, (True,))])
def test_braidword_rejects_bools(args):
    with pytest.raises(ValueError):
        BraidWord(*args)


# -- wheel words ----------------------------------------------------------------


def test_wheel_braid_small():
    assert wheel_braid(1).letters == (1, -2)
    assert wheel_braid(1).strands == 3
    assert len(wheel_braid(7)) == 14
    with pytest.raises(ValueError):
        wheel_braid(0)


def test_wheel_closure_components():
    assert closure_components(wheel_braid(1)) == 1
    assert closure_components(wheel_braid(3)) == 3
    assert closure_components(wheel_braid(6)) == 3


# -- permutations ----------------------------------------------------------------


def permutation(word: BraidWord) -> tuple[int, ...]:
    """Underlying permutation: entry i-1 is the bottom position of the
    strand entering at top position i (1-based values)."""
    state = list(range(word.strands))  # state[p] = strand currently at position p
    for letter in word.letters:
        i = abs(letter) - 1
        state[i], state[i + 1] = state[i + 1], state[i]
    image = [0] * word.strands
    for pos, strand in enumerate(state):
        image[strand] = pos + 1
    return tuple(image)


def cycle_count(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = perm[cur] - 1
    return cycles


def closure_components(word: BraidWord) -> int:
    """Number of link components of the braid closure."""
    return cycle_count(permutation(word))


def test_permutation_identity():
    assert permutation(BraidWord(4)) == (1, 2, 3, 4)


def test_permutation_wheel():
    p1 = permutation(wheel_braid(1))
    assert sorted(p1) == [1, 2, 3] and cycle_count(p1) == 1
    p2 = permutation(wheel_braid(2))
    assert cycle_count(p2) == 1
    # the two single-period permutations are inverse 3-cycles
    assert tuple(p1[p2[i] - 1] for i in range(3)) == (1, 2, 3)


def test_exponent_sum():
    assert exponent_sum(wheel_braid(5)) == 0
    assert exponent_sum(parse_braid("1 1 1")) == 3
    assert exponent_sum(BraidWord(2)) == 0


# -- Burau ------------------------------------------------------------------------


def test_burau_generator_matrix():
    assert burau(BraidWord(2, (1,))) == Matrix([[LaurentPoly.zero(), ONE], [T, ONE - T]])


def test_burau_inverse_cancellation():
    assert burau(parse_braid("1 -1")) == Matrix.identity(2, one=ONE)


def test_burau_identity_braid():
    assert burau(BraidWord(3)) == Matrix.identity(3, one=ONE)


def test_burau_row_sums_wheel():
    m = burau_at_minus_one(wheel_braid(1))
    assert all(sum(m[i, j] for j in range(3)) == 1 for i in range(3))


def test_burau_homomorphism_random():
    rng = random.Random(71)
    for _ in range(40):
        u = random_word(rng, max_len=12)
        v = BraidWord(u.strands, random_word(rng, max_strands=u.strands, max_len=12).letters)
        assert burau(u * v) == burau(u) * burau(v)


def test_burau_braid_relations():
    for s in range(3, 7):
        for i in range(1, s - 1):
            assert burau(BraidWord(s, (i, i + 1, i))) == burau(BraidWord(s, (i + 1, i, i + 1)))
        for i in range(1, s - 1):
            for j in range(i + 2, s):
                assert burau(BraidWord(s, (i, j))) == burau(BraidWord(s, (j, i)))


def test_burau_det_is_minus_t_to_writhe():
    rng = random.Random(72)
    for _ in range(25):
        word = random_word(rng, max_strands=4, max_len=12)
        e = exponent_sum(word)
        expected = (-T if e >= 0 else -TI) ** abs(e)
        assert burau(word).det() == expected


def test_burau_row_sums_random():
    rng = random.Random(73)
    for _ in range(40):
        word = random_word(rng)
        m = burau(word)
        for i in range(word.strands):
            assert sum((m[i, j] for j in range(word.strands)), LaurentPoly.zero()) == 1


def test_burau_weighted_left_null_vector():
    rng = random.Random(74)
    for _ in range(40):
        word = random_word(rng)
        s = word.strands
        m = burau(word)
        weights = [LaurentPoly.t(s - 1 - i) for i in range(s)]
        # w * (m - Id) = 0, i.e. w * m = w
        for j in range(s):
            total = LaurentPoly.zero()
            for i in range(s):
                total = total + weights[i] * m[i, j]
            assert total == weights[j]


def test_alternating_null_vector_at_minus_one():
    # at t = -1 the weights specialize to alternating signs
    rng = random.Random(75)
    for _ in range(40):
        word = random_word(rng)
        s = word.strands
        m = burau_at_minus_one(word)
        for j in range(s):
            assert sum((-1) ** (s - 1 - i) * m[i, j] for i in range(s)) == (-1) ** (s - 1 - j)


def test_burau_int_path_matches_polynomial_path():
    def at_minus_one(matrix):
        return Matrix([[p.at_minus_one() for p in row] for row in matrix.entries()])

    rng = random.Random(76)
    for _ in range(30):
        word = random_word(rng, max_len=12)
        product, product_at = burau(word), burau_at_minus_one(word)
        assert product_at == at_minus_one(product)
        # the one reduced-matrix builder commutes with t -> -1 for every drop
        for d in (None, *range(1, word.strands + 1)):
            reduced = reduced_relation_matrix(product, d)
            assert reduced_relation_matrix(product_at, d) == at_minus_one(reduced), (word, d)


def test_word_inverse_and_concat():
    rng = random.Random(77)
    for _ in range(10):
        word = random_word(rng, max_len=8)
        assert burau(word * word.inverse()) == Matrix.identity(word.strands, one=ONE)
    with pytest.raises(ValueError):
        BraidWord(2, (1,)) * BraidWord(3, (1,))


# -- strict wire form and the strand limit ---------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        '{"strands": true, "letters": []}',
        '{"letters": ["1 -2", "1"]}',
        '{"letters": [[1,2]]}',
        '{"letters": [1], "bogus": 3}',
        '{"letters": [true]}',
        '{"letters": [1.0]}',
        '{"strands": 3.0, "letters": [1]}',
        '{"strands": null, "letters": [1]}',
        pytest.param('{"letters": ' + '[' * 5000 + ']' * 5000 + '}', id="nested-5000-deep"),
    ],
)
def test_parse_json_rejects_malformed(text):
    with pytest.raises(BraidParseError):
        parse_braid(text)


def test_parse_json_letter_position():
    with pytest.raises(BraidParseError) as info:
        parse_braid('{"letters": [1, -2, "3"]}')
    assert info.value.position == 3


@pytest.mark.parametrize("text", ["\uff11 2", "1 \u0663", "\u00b9"])
def test_parse_rejects_non_ascii_digits(text):
    with pytest.raises(BraidParseError):
        parse_braid(text)


def test_parse_signed_ascii_letters():
    assert parse_braid("+1 -2").letters == (1, -2)


def test_parse_strand_limit():
    assert MAX_STRANDS >= 64  # well above the word sizes in everyday use
    assert parse_braid("1", strands=MAX_STRANDS).strands == MAX_STRANDS
    with pytest.raises(BraidParseError):
        parse_braid("1", strands=MAX_STRANDS + 1)
    with pytest.raises(BraidParseError):
        parse_braid(str(MAX_STRANDS))  # inferred count MAX_STRANDS + 1
    with pytest.raises(BraidParseError):
        parse_braid(f'{{"strands": {MAX_STRANDS + 1}, "letters": [1]}}')


def test_strand_count_past_str_digit_limit_is_clipped():
    # str() refuses an int of more than 4300 digits; the echo must not call it
    with pytest.raises(BraidParseError) as info:
        parse_braid("1", strands=10**5000)
    assert str(info.value) == (
        f"{'1' + '0' * 19}... (5001 characters) strands exceed the limit of {MAX_STRANDS}"
    )
    assert _echo(-(10**5000) + 1) == f"-{'9' * 19}... (5001 characters)"


@pytest.mark.parametrize("digits", [19, 20, 21, 22, 300, 4000])
def test_echo_of_an_int_matches_its_clipped_text(digits):
    for value in (10 ** (digits - 1), 10**digits - 1, -(10**digits - 1), 123456789 * 10**digits):
        text = str(value)
        expected = text if len(text) <= 20 else f"{text[:20]}... ({len(text)} characters)"
        assert _echo(value) == expected


# -- Burau against products of letter matrices -------------------------------------


def letter_matrix_product(word, one, t, t_inv):
    """Burau by the definition: the letter matrices of README's crossing
    blocks ([[0, 1], [t, 1-t]] for sigma_i, [[1-t^-1, t^-1], [1, 0]] for its
    inverse, on strands i and i+1), multiplied with Matrix.__mul__."""
    s = word.strands
    zero = one * 0
    product = Matrix.identity(s, one=one)
    for letter in word.letters:
        i = abs(letter) - 1
        block = ((zero, one), (t, one - t)) if letter > 0 else ((one - t_inv, t_inv), (one, zero))
        rows = [[one if r == c else zero for c in range(s)] for r in range(s)]
        for a in range(2):
            for b in range(2):
                rows[i + a][i + b] = block[a][b]
        product = product * Matrix(rows)
    return product


def wide_word(rng, strands, length, split):
    """Random letters on ``strands`` strands.  A non-split word uses
    +-(strands - 1); a split word leaves its last two strands untouched,
    so its closure has split components."""
    used = strands - 2 if split else strands
    letters = [rng.choice((1, -1)) * rng.randint(1, used - 1) for _ in range(length)]
    letters[rng.randrange(length)] = rng.choice((1, -1)) * (used - 1)
    return BraidWord(strands, tuple(letters))


def oracle_words():
    rng = random.Random(79)
    words = [BraidWord(1), BraidWord(4)]
    for _ in range(40):
        words.append(random_word(rng, max_strands=8, max_len=16))
    for _ in range(20):
        # letters on the first strands only: the rest stay untouched
        strands = rng.randint(4, 8)
        used = rng.randint(1, strands - 3)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, used) for _ in range(rng.randint(1, 12)))
        words.append(BraidWord(strands, letters))
    for strands, length in ((16, 40), (24, 22), (24, 80)):
        # wide, sparse words: in most rows both columns a letter touches
        # are zero, and the Burau product skips those rows
        for split in (False, True):
            words.append(wide_word(rng, strands, length, split))
    return words


def test_burau_matches_letter_matrix_product():
    for word in oracle_words():
        assert burau(word) == letter_matrix_product(word, ONE, T, TI), word


def test_burau_at_minus_one_matches_letter_matrix_product():
    for word in oracle_words():
        assert burau_at_minus_one(word) == letter_matrix_product(word, 1, -1, -1), word


def test_burau_long_word_is_fast():
    rng = random.Random(80)
    letters = tuple(rng.choice((1, -1)) * rng.randint(1, 23) for _ in range(300))
    start = time.perf_counter()
    burau(BraidWord(24, letters))
    assert time.perf_counter() - start < 1.0
