"""Reduced Alexander-Burau-Fox presentations over Z[t^(+/-1)].

For a general braid closure the reduced presentation is burau(w) - Id
with one row and the matching column deleted (the weighted left null
vector has unit entries t^k, so every row is redundant; deleting a column
sets that arc to zero).  Only the presentation matrix and the Alexander
polynomial are emitted for general words: Z[t^(+/-1)] is not a PID, so no
cyclic decomposition is claimed there.

A word that never uses some sigma_i (1 <= i < strands) closes to a split
link, and its Alexander polynomial is 0 with no determinant taken:
burau(w) is block-diagonal on strands 1..i and i+1..s, the weighted row
(t^{i-1}, ..., 1) is a left null vector of the first block of
burau(w) - Id, and dropping strand s leaves that block whole, so the
reduced matrix is singular.

For the wheel family (closures of (sigma_1 sigma_2^{-1})^n) the module
does decompose, and two independent routes compute the same 2x2
presentation:

* recursive route: write the bottom-arc differences of the 2k-tangle as
  P_n = P^a_n*a + P^c_n*c and Q_n = Q^a_n*a + Q^c_n*c (middle arc set to
  zero) and iterate the first-order pair recursion

      P_{n+1} = -t*P_n - t^{-1}*Q_n - a
      Q_{n+1} = (1-t)*P_{n+1} + t*P_n + a - c

  in one walk from P_0 = Q_0 = 0 (the identity braid), t^{+/-1} as shifts;

* closed route: with g_{2k} = S_{k-1} and g_{2k+1} = S_{k-1} + S_k
  (Chebyshev S at z = 1 - t - t^{-1}), both wheel matrices are instances
  of the one formula

      W(p, q) = [ -p - t^{-1}*q    t^{-1}*q     ]
                [  t*p            -p - t*q      ]

  A_n = W(g_n*g_{n+1}, g_n*g_{n-1}) and -A'_n = W(g_{n+1}, g_{n-1}), so
  A_n = -g_n*A'_n.  The plus signs inside the diagonal are forced: with
  them the two routes agree entrywise, det A'_n is exactly 1 for odd n
  and 3 - t - t^{-1} for even n, and det A_n equals the determinant of
  the Burau-route reduced matrix (middle strand dropped).

wheel_module builds -A'_n, replays the column operations that bring the
first row to (g_{n+1}, g_{n-1}), and runs the Euclidean descent: steps of
the Chebyshev recurrence col1, col2 <- col2, z*col2 - col1, the recurrence
run backwards, so one step takes row n's first row onto row n - 2's.  The
first row steps down until it meets a known row, at the latest row 1,
(g_2, g_0) = (1, 0), or row 2, (g_3, g_1) = (1 + z, 1), and must equal it.
A step multiplies each row by M = [[0, -1], [1, z]].  After the replay the
second row is the first times N = [[1-t, -t], [t, -t^2]], and
N = (1-t)*Id + t*M (since (1-t) + t*z = -t^2) commutes with M, so only the
first row descends and the second is its end times N.  The replay has the
unit determinant -t and a step 1, so det A'_n is that of row 1 or row 2:
1 for odd n and 3 - t - t^{-1} for even n; no determinant is taken.  Both
base rows hold a unit entry, so the result is the cyclic decomposition
with ideal generators (g_n, det(A'_n) * g_n), whose normalized product is
the Alexander polynomial: det A_n = g_n^2 * det(A'_n) in any commutative
ring, so no A_n is built.  wheel_modules, which serves a table, stops each
row's descent at the row two below, so in a contiguous range only the
lowest row of each parity descends to its base row.

W(p, q), g_n and the closed A_n take a ring, as
braid._burau_product does: Z[t^(+/-1)] by default, or its image at t = -1,
where t = t^{-1} = -1 and z = 3, so S_k is read as S_k(3).
wheel.cross_verify builds A_n once, over the integers at t = -1, checks
that it presents the Fox group, and takes the Bareiss det of -A'_n as an
independent check of det_a_prime.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator

from .braid import BraidWord, burau, reduced_relation_matrix
from .ring import LaurentPoly, Matrix, normalize_unit
from .sequences import Z_OF_T, cheb_S_at, cheb_S_subst

_ONE = LaurentPoly.one()
_ZERO = LaurentPoly.zero()
_DET_A_PRIME = (Z_OF_T + 2, _ONE)  # det A'_n for even n (3 - t - t^-1) and odd n
# the replayed first rows (g_2, g_0) of n = 1 and (g_3, g_1) of n = 2, where
# every descent ends
_BASE_ROWS = {1: (_ONE, _ZERO), 2: (Z_OF_T + 1, _ONE)}


# Ring data (t, t^-1, k -> S_k at z = 1 - t - t^-1) over Z[t^(+/-1)] and at
# t = -1, where z = 3: evaluation is a ring map, so W and g_n built there
# are the Laurent ones evaluated at t = -1.  The S functions are looked up
# when called, so a wrapper bound to their names in this module sees every
# call
_LAURENT = (LaurentPoly.t(), LaurentPoly.t(-1), lambda k: cheb_S_subst(k))
_AT_MINUS_ONE = (-1, -1, lambda k: cheb_S_at(k, 3))


class InternalConsistencyError(RuntimeError):
    """A structural identity the implementation relies on failed; this
    signals a bug, not bad input."""


ModulePresentation = namedtuple("ModulePresentation", "matrix alexander")
ModulePresentation.__doc__ = """Relation matrix (rows are relations) and normalized
Alexander polynomial of a general braid closure."""

WheelModule = namedtuple("WheelModule", "alexander ideal_gens det_a_prime")
WheelModule.__doc__ = """Cyclic decomposition of the wheel module: normalized
Alexander polynomial, the ordered pair of cyclic ideal generators (g, h)
with g | h, and the determinant of A'_n = A_n / (-g_n), that of the base row
(1 or 2) where the Euclidean descent ends."""


def general_presentation(word: BraidWord) -> ModulePresentation:
    """Presentation + Alexander polynomial for an arbitrary braid word
    (no cyclic decomposition).

    A word without some sigma_i (1 <= i < strands) gets Delta = 0 and no
    determinant is taken; the matrix is still built.  burau(w) is then
    block-diagonal on strands 1..i and i+1..s, the first block of
    burau(w) - Id has the left null vector (t^{i-1}, ..., 1), and the
    reduced matrix (strand s dropped) keeps that block whole.
    """
    matrix = reduced_relation_matrix(burau(word))
    # every letter has 1 <= |letter| < strands, so fewer distinct |letter|
    # than strands - 1 means some sigma_i is absent: the strands 1..i block
    # of burau(w) - Id is singular and survives dropping strand s, so det = 0
    if len({abs(letter) for letter in word.letters}) < word.strands - 1:
        return ModulePresentation(matrix=matrix, alexander=LaurentPoly.zero())
    det = matrix.det()
    alexander = normalize_unit(det) if det else LaurentPoly.zero()
    return ModulePresentation(matrix=matrix, alexander=alexander)


def wheel_g(n: int, ring: tuple = _LAURENT):
    """The common Chebyshev factor g_n of the wheel presentation matrix:
    S_{k-1} for n = 2k, S_{k-1} + S_k for n = 2k+1 (z = 1 - t - t^{-1}),
    over ``ring``."""
    if n < 0:
        raise ValueError("g_n is only used for n >= 0")
    k = n // 2
    s = ring[2]
    if n % 2 == 0:
        return s(k - 1)
    return s(k - 1) + s(k)


def _wheel_recursion(max_n: int):
    """Yield [[P^a_n, P^c_n], [Q^a_n, Q^c_n]] for n = 1, ..., max_n from
    one walk of the pair recursion, with t^{+/-1} applied as shifts."""
    p = q = (_ZERO, _ZERO)
    for _ in range(max_n):
        # column a: -a into P_{n+1} and +a into Q_{n+1}; column c: -c into Q_{n+1}
        p, p_prev = tuple(-x.shift(1) - y.shift(-1) + k for x, y, k in zip(p, q, (-1, 0))), p
        q = tuple(x - x.shift(1) + y.shift(1) + k for x, y, k in zip(p, p_prev, (1, -1)))
        yield Matrix([p, q])


def _wheel_matrix(p, q, ring: tuple = _LAURENT) -> Matrix:
    """W(p, q) = [[-p - t^{-1}*q, t^{-1}*q], [t*p, -p - t*q]] over ``ring``,
    the one formula behind A_n and -A'_n."""
    t, t_inv, _ = ring
    q_inv = t_inv * q
    return Matrix([[-p - q_inv, q_inv], [t * p, -p - t * q]])


def _times_n(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """The row (a, b) times N = [[1 - t, -t], [t, -t^2]]."""
    return a - a.shift(1) + b.shift(1), -a.shift(1) - b.shift(2)


def wheel_abf_matrix_closed(n: int, ring: tuple = _LAURENT) -> Matrix:
    """Wheel presentation from the Chebyshev closed form,
    A_n = W(g_n*g_{n+1}, g_n*g_{n-1}), over ``ring``."""
    if n < 1:
        raise ValueError("the wheel family starts at n = 1")
    g = wheel_g(n, ring)
    return _wheel_matrix(g * wheel_g(n + 1, ring), g * wheel_g(n - 1, ring), ring)


def _replay(neg_aprime: Matrix, n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The first row of -A'_n after the column replay, (g_{n+1}, g_{n-1});
    raises unless the second row is then the first times N."""
    # col1 <- -(col1 + col2) takes the first row to (g_{n+1}, t^-1 g_{n-1}),
    # col2 *= t then to (g_{n+1}, g_{n-1}): det -1 times det t
    (p, q), (r, s) = neg_aprime.entries()
    x1, x2 = -(p + q), q.shift(1)
    if (-(r + s), s.shift(1)) != _times_n(x1, x2):
        raise InternalConsistencyError(
            f"second row of -A'_n is not the first row times N at n = {n}"
        )
    return x1, x2


def _step(x1: LaurentPoly, x2: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """One descent step col1, col2 <- col2, z*col2 - col1 on a first row: a
    column operation of det 1 that takes (S_j, S_{j-1}) to (S_{j-1}, S_{j-2}),
    and a sum of two such rows alike."""
    return x2, Z_OF_T * x2 - x1


def wheel_modules(indices: Iterable[int]) -> Iterator[WheelModule]:
    """wheel_module(n) for each n of ``indices``, in order.

    Every row builds -A'_n = W(g_{n+1}, g_{n-1}) and replays its columns.
    One descent step takes the first row (g_{n+1}, g_{n-1}) to
    (g_{n-1}, g_{n-3}), row n - 2's, so the first row steps down two rows
    at a time until it meets a known row (rows 1 and 2, or one of the last
    two rows) and must equal that row's first row.  In a contiguous range
    the lowest row of each parity descends to its base row, and every row
    above takes one step.
    """
    last_two = ()  # (n, replayed first row) of the last two rows
    for n in indices:
        if n < 1:
            raise ValueError("the wheel family starts at n = 1")
        first = _replay(_wheel_matrix(wheel_g(n + 1), wheel_g(n - 1)), n)
        known = {**_BASE_ROWS, **dict(last_two)}
        row, m = first, n
        while m not in known:
            row, m = _step(*row), m - 2
        if row != known[m]:
            raise InternalConsistencyError(f"Euclidean descent did not reach (1, 0) for n = {n}")
        last_two = (*last_two[-1:], (n, first))
        # the steps have det 1 and N commutes with them, so A'_n shares its
        # det with row m, and so with row 1 or row 2
        det_a_prime = _DET_A_PRIME[n % 2]
        g = wheel_g(n)
        gens = (normalize_unit(g), normalize_unit(det_a_prime * g))
        yield WheelModule(normalize_unit(gens[0] * gens[1]), gens, det_a_prime)


def wheel_module(n: int) -> WheelModule:
    """Reduced module of the wheel-family closure, by the Euclidean
    reduction of -A'_n = W(g_{n+1}, g_{n-1}); no A_n is built.

    The ideal generators are (g, h) with g = g_n and h = det(A'_n) * g_n,
    both unit-normalized; det_a_prime is the exact determinant of
    A'_n = A_n / (-g_n) (that of -A'_n, the same for a 2x2), the det of row
    1 or row 2 where the descent ends: 1 for odd n and 3 - t - t^{-1} for
    even n; the Alexander polynomial is the generators' normalized product.
    """
    return next(wheel_modules(range(n, n + 1)))
