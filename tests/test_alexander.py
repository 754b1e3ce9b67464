"""Reduced ABF presentations: general braids and the wheel family's two
routes, Euclidean reduction, and specialization to Fox colorings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foxabf import alexander, verify
from foxabf.alexander import (
    InternalConsistencyError,
    ModulePresentation,
    WheelModule,
    general_presentation,
    wheel_abf_matrix_closed,
    wheel_g,
    wheel_module,
)
from foxabf.braid import BraidWord, burau, parse_braid, reduced_relation_matrix, wheel_braid
from foxabf.coloring import coloring_group
from foxabf.ring import LaurentPoly, Matrix, divide_exact, normalize_unit, snf
from foxabf.sequences import IdentityCheck, cheb_S_subst, fib
from foxabf.wheel import fox_closed_form

T = LaurentPoly.t()
TI = LaurentPoly.t(-1)
ONE = LaurentPoly.one()
DET_EVEN = 3 - T - TI  # det A' for even n


# -- general reduced presentations ----------------------------------------------


def test_identity_braid_two_strands():
    assert reduced_relation_matrix(burau(BraidWord(2))) == Matrix([[LaurentPoly.zero()]])
    # one strand: its row and column are the whole matrix, leaving 0x0
    assert reduced_relation_matrix(burau(BraidWord(1))) == Matrix([])


def test_wheel_two_drop_middle_det():
    m = reduced_relation_matrix(burau(wheel_braid(2)), drop_index=2)
    assert normalize_unit(m.det()) == normalize_unit(DET_EVEN)


def test_wheel_one_det_is_unit():
    det = reduced_relation_matrix(burau(wheel_braid(1))).det()
    assert normalize_unit(det) == 1


def test_drop_index_validation():
    with pytest.raises(ValueError):
        reduced_relation_matrix(burau(wheel_braid(1)), drop_index=5)


# -- Alexander polynomial ---------------------------------------------------------


def test_alexander_unknot():
    assert general_presentation(wheel_braid(1)).alexander == ONE
    assert general_presentation(parse_braid("1", strands=2)).alexander == ONE


def test_alexander_figure_eight():
    assert general_presentation(wheel_braid(2)).alexander == LaurentPoly({0: 1, 1: -3, 2: 1})


def test_alexander_wheel_three():
    # normalized (2 - t - t^-1)^2 = t^-2 * (1 - 2t + t^2)^2
    expected = normalize_unit((2 - T - TI) * (2 - T - TI))
    assert expected == LaurentPoly({0: 1, 1: -4, 2: 6, 3: -4, 4: 1})
    assert general_presentation(wheel_braid(3)).alexander == expected


def test_alexander_split_unlink():
    assert general_presentation(parse_braid("1 -1")).alexander == LaurentPoly.zero()


def test_general_presentation_has_no_gens():
    # each family's record has only the fields that family fills
    assert ModulePresentation._fields == ("matrix", "alexander")
    assert "matrix" not in WheelModule._fields
    pres = general_presentation(parse_braid("1 -2 1 -2"))
    assert pres.alexander == LaurentPoly({0: 1, 1: -3, 2: 1})


# -- split words: Delta = 0 without a determinant ---------------------------------
#
# general_presentation reads Delta = 0 off a word that lacks some sigma_i;
# these properties tie that rule to the Bareiss route it skips.  Derandomized
# and without an example database, like the Markov properties.

SPLIT_SETTINGS = settings(derandomize=True, database=None, deadline=None)


@st.composite
def words_using_every_generator(draw):
    """A word on 2..6 strands with up to 16 free letters plus each sigma_i
    (1 <= i < strands) once with a drawn sign, in a drawn order."""
    strands = draw(st.integers(2, 6))
    letter = st.sampled_from([i for i in range(1 - strands, strands) if i])
    letters = draw(st.lists(letter, max_size=16))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=strands - 1, max_size=strands - 1))
    letters += [sign * i for i, sign in enumerate(signs, start=1)]
    return BraidWord(strands, tuple(draw(st.permutations(letters))))


@SPLIT_SETTINGS
@given(words_using_every_generator(), st.data())
def test_word_without_a_generator_has_a_singular_bareiss_matrix(word, data):
    absent = data.draw(st.integers(1, word.strands - 1))
    split = BraidWord(word.strands, tuple(l for l in word.letters if abs(l) != absent))
    assert reduced_relation_matrix(burau(split)).det() == 0
    assert general_presentation(split).alexander == LaurentPoly.zero()


@SPLIT_SETTINGS
@given(words_using_every_generator())
def test_word_using_every_generator_gets_the_bareiss_alexander(word):
    det = reduced_relation_matrix(burau(word)).det()
    expected = normalize_unit(det) if det else LaurentPoly.zero()
    assert general_presentation(word).alexander == expected


# -- wheel matrices: recursive vs closed -------------------------------------------


def test_wheel_g_values():
    assert wheel_g(0) == LaurentPoly.zero()
    assert wheel_g(1) == ONE
    assert wheel_g(2) == ONE
    assert wheel_g(3) == 1 + cheb_S_subst(1)
    assert wheel_g(4) == cheb_S_subst(1)


def test_closed_matrix_n1():
    assert wheel_abf_matrix_closed(1) == Matrix(
        [[LaurentPoly.const(-1), LaurentPoly.zero()], [T, LaurentPoly.const(-1)]]
    )
    assert wheel_abf_matrix_closed(1).det() == ONE


def test_closed_matrix_n2():
    # hand-expanded from the g-formula: g_2 = g_1 = 1, g_3 = 1 + z
    expected = Matrix(
        [
            [T - 2, TI],
            [-(T - 1) * (T - 1), TI - 2],
        ]
    )
    assert wheel_abf_matrix_closed(2) == expected


def recursive_matrix(n):
    """[[P^a_n, P^c_n], [Q^a_n, Q^c_n]]: the last matrix of one walk of the
    pair recursion from the identity braid."""
    *_, matrix = alexander._wheel_recursion(n)
    return matrix


def test_recursive_first_step():
    m = recursive_matrix(1)
    assert m[0, 0] == -1
    assert m[0, 1] == LaurentPoly.zero()
    assert m[1, 0] == T
    assert m[1, 1] == -1


def test_routes_agree_entrywise():
    for n in [*range(1, 31), 64, 101]:
        assert recursive_matrix(n) == wheel_abf_matrix_closed(n), n


def test_route_inputs_validated():
    for fn in (wheel_abf_matrix_closed, wheel_module):
        with pytest.raises(ValueError):
            fn(0)


def test_collected_odd_forms():
    # P^a_{2k+1} = -(S_{k-1}+S_k)(S_k + t^-1 S_{k-1}),
    # P^c_{2k+1} = t^-1 S_{k-1} (S_{k-1}+S_k)
    for k in range(0, 21):
        m = recursive_matrix(2 * k + 1)
        s_km1, s_k = cheb_S_subst(k - 1), cheb_S_subst(k)
        assert m[0, 0] == -((s_km1 + s_k) * (s_k + TI * s_km1))
        assert m[0, 1] == TI * s_km1 * (s_km1 + s_k)


def test_det_matches_burau_route():
    for n in range(1, 16):
        closed = normalize_unit(wheel_abf_matrix_closed(n).det())
        via_burau = normalize_unit(reduced_relation_matrix(burau(wheel_braid(n)), 2).det())
        assert closed == via_burau, n


def test_routes_check_walks_the_recursion_once(monkeypatch):
    # one walk serves every n; restarting it per n would make 30 walks
    # and draw 465 matrices
    original = alexander._wheel_recursion
    walks, drawn = [], []

    def counted(max_n):
        walks.append(max_n)
        for matrix in original(max_n):
            drawn.append(matrix)
            yield matrix

    for module in (alexander, verify):
        monkeypatch.setattr(module, "_wheel_recursion", counted)
    assert verify.wheel_matrix_routes_check(30) == IdentityCheck("wheel_matrix_routes", 30)
    assert (walks, len(drawn)) == ([30], 30)


def test_routes_check_names_the_first_disagreement(monkeypatch):
    original = alexander._wheel_recursion

    def corrupted(max_n):
        for n, matrix in enumerate(original(max_n), 1):
            if n == 4:
                (pa, pc), q_row = matrix.entries()
                matrix = Matrix([[pa + 1, pc], q_row])
            yield matrix

    monkeypatch.setattr(verify, "_wheel_recursion", corrupted)
    check = verify.wheel_matrix_routes_check(10)
    assert (check.passed, check.cases, check.counterexample) == (
        False,
        4,
        "n=4 (recursive != closed)",
    )


def test_closed_matrix_at_minus_one_presents_fox_group():
    for n in range(1, 13):
        specialized = Matrix(
            [[p.at_minus_one() for p in row] for row in wheel_abf_matrix_closed(n).entries()]
        )
        fibonacci = Matrix(
            [[fib(2 * n), fib(2 * n - 1) - 1], [fib(2 * n + 1) - 1, fib(2 * n)]]
        )
        assert snf(specialized) == snf(fibonacci)


def test_g_divides_every_entry():
    for n in range(1, 51):
        g = wheel_g(n)
        for row in recursive_matrix(n).entries():
            for entry in row:
                divide_exact(entry, g)


def test_closed_matrix_is_minus_g_times_a_prime():
    # A'_n written out with products by t^{+/-1}, apart from the shared
    # builder: A_n = -g_n*A'_n entrywise on both routes, and the -A'_n the
    # Euclidean reduction starts from is its negation
    for n in range(1, 41):
        g, g_prev, g_next = wheel_g(n), wheel_g(n - 1), wheel_g(n + 1)
        a_prime = [
            [g_next + TI * g_prev, -(TI * g_prev)],
            [-(T * g_next), g_next + T * g_prev],
        ]
        closed = wheel_abf_matrix_closed(n).entries()
        recursive = recursive_matrix(n).entries()
        neg_a_prime = alexander._wheel_matrix(g_next, g_prev).entries()
        for i in range(2):
            for j in range(2):
                assert closed[i][j] == recursive[i][j] == -g * a_prime[i][j], (n, i, j)
                assert neg_a_prime[i][j] == -a_prime[i][j], (n, i, j)


# -- Euclidean reduction and the module --------------------------------------------


def test_reduction_odd_case():
    for k in range(0, 26):
        n = 2 * k + 1
        _, gens, det_a_prime = wheel_module(n)
        expected = normalize_unit(cheb_S_subst(k - 1) + cheb_S_subst(k))
        assert det_a_prime == ONE
        assert gens == (expected, expected)


def test_reduction_even_case():
    for k in range(1, 26):
        n = 2 * k
        _, gens, det_a_prime = wheel_module(n)
        g = cheb_S_subst(k - 1)
        assert det_a_prime == DET_EVEN
        assert gens == (normalize_unit(g), normalize_unit(DET_EVEN * g))


def test_reduction_unknot():
    _, gens, det_a_prime = wheel_module(1)
    assert gens == (ONE, ONE)
    assert det_a_prime == ONE


@pytest.mark.parametrize("n", [4, 9, 30])
def test_descent_rejects_a_perturbed_g(n, monkeypatch):
    # the descent runs a fixed number of recurrence steps, so a first row
    # that is not a pair of consecutive Chebyshev values must not reach
    # (1, 0); g_{n+1} off by 1 is such a row
    exact = alexander.wheel_g
    monkeypatch.setattr(alexander, "wheel_g", lambda m: exact(m) + (1 if m == n + 1 else 0))
    with pytest.raises(
        InternalConsistencyError,
        match=fr"^Euclidean descent did not reach \(1, 0\) for n = {n}$",
    ):
        wheel_module(n)


@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("n", [4, 9, 30])
def test_descent_rejects_a_second_row_that_is_not_the_first_times_n(n, column, monkeypatch):
    # only the first row descends, so the second row must be checked to be
    # the first times N before it is read off the first row's end
    exact = alexander._wheel_matrix

    def corrupted(p, q):
        (a, b), second = exact(p, q).entries()
        second = tuple(e + (1 if j == column else 0) for j, e in enumerate(second))
        return Matrix([(a, b), second])

    monkeypatch.setattr(alexander, "_wheel_matrix", corrupted)
    with pytest.raises(
        InternalConsistencyError,
        match=fr"^second row of -A'_n is not the first row times N at n = {n}$",
    ):
        wheel_module(n)


def two_row_descent(neg_aprime, n):
    """The descent as it ran on both rows of -A'_n: the column replay, then
    n//2 - 1 steps col1, col2 <- col2, z*col2 - col1 on whole columns."""
    z = 1 - T - TI
    (p, q), (r, s) = neg_aprime.entries()
    col1, col2 = [-(p + q), -(r + s)], [q.shift(1), s.shift(1)]
    for _ in range(n // 2 - 1):
        col1, col2 = col2, [z * b - a for a, b in zip(col1, col2)]
    return tuple(col1), tuple(col2)


def test_one_row_descent_ends_where_the_two_row_descent_does():
    for n in [*range(1, 61), 100, 171, 270]:
        neg_aprime = alexander._wheel_matrix(wheel_g(n + 1), wheel_g(n - 1))
        first = alexander._replay(neg_aprime, n)
        assert alexander._descend(first, n) == two_row_descent(neg_aprime, n), n


def test_det_a_prime_closed_forms_to_100():
    # the Euclidean reduction's det and the Bareiss det of -A'_n
    for n in range(1, 102):
        closed_form = ONE if n % 2 else DET_EVEN
        assert wheel_module(n).det_a_prime == closed_form, n
        bareiss = alexander._wheel_matrix(wheel_g(n + 1), wheel_g(n - 1)).det()
        assert bareiss == closed_form, n


@pytest.mark.parametrize("lo, hi", [(1, 9), (2, 10), (3, 11), (1, 60), (171, 174)])
def test_wheel_modules_are_the_wheel_modules_row_by_row(lo, hi):
    # from 3 the lowest odd row descends fully, from 1 it chains onto n = 1
    indices = range(lo, hi + 1)
    assert list(alexander.wheel_modules(indices)) == [wheel_module(n) for n in indices]


def test_wheel_modules_descends_fully_when_the_row_two_below_is_missing(monkeypatch):
    steps = []
    exact = alexander._step
    monkeypatch.setattr(alexander, "_step", lambda *row: steps.append(row) or exact(*row))
    modules = list(alexander.wheel_modules([20, 22, 30]))
    assert len(steps) == (20 // 2 - 1) + 1 + (30 // 2 - 1)
    assert modules == [wheel_module(n) for n in (20, 22, 30)]


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_descent_checks_its_det_against_the_closed_form(n, monkeypatch):
    # a descent that reached (1, 0) but lost a unit factor is refused
    exact = alexander._descend
    monkeypatch.setattr(
        alexander,
        "_descend",
        lambda first, m: tuple((x, -y) for x, y in exact(first, m)),
    )
    with pytest.raises(
        InternalConsistencyError,
        match=fr"^Euclidean reduction of the wheel matrix lost the determinant at n = {n}$",
    ):
        wheel_module(n)


def test_wheel_module_invariant():
    # det A_n and g | h, which wheel_module takes as given; the indices
    # from 8 coefficients up run the Kronecker product path
    for n in [*range(1, 41), 100, 171, 270]:
        module = wheel_module(n)
        g, h = module.ideal_gens
        divide_exact(h, g)
        assert normalize_unit(g * h) == normalize_unit(wheel_abf_matrix_closed(n).det())
        assert module.alexander == normalize_unit(g * h)


def test_wheel_module_specializations():
    gens3 = wheel_module(3).ideal_gens
    assert [p.at_minus_one() for p in gens3] == [4, 4]
    gens2 = wheel_module(2).ideal_gens
    assert [p.at_minus_one() for p in gens2] == [1, 5]
    gens6 = wheel_module(6).ideal_gens
    assert [p.at_minus_one() for p in gens6] == [8, 40]


def test_specialization_bridge():
    # ideal generators at t = -1 give the Fox invariant factors, and A_n at
    # t = -1 presents the Fox group, n <= 50
    for n in range(1, 51):
        gens = wheel_module(n).ideal_gens
        values = tuple(sorted(abs(p.at_minus_one()) for p in gens))
        torsion = tuple(v for v in values if v > 1)
        assert torsion == fox_closed_form(n).torsion, n
        rows = wheel_abf_matrix_closed(n).entries()
        specialized = Matrix([[p.at_minus_one() for p in row] for row in rows])
        assert snf(specialized) == fox_closed_form(n), n


def test_module_group_agreement():
    for n in range(1, 21):
        gens = wheel_module(n).ideal_gens
        torsion = tuple(sorted(abs(p.at_minus_one()) for p in gens))
        torsion = tuple(v for v in torsion if v > 1)
        assert torsion == coloring_group(wheel_braid(n)).group.torsion
