"""Fibonacci, Lucas and Chebyshev sequences, plus the identity suite that
cross-checks their product-to-sum relations.

Chebyshev polynomials of the second kind S_n satisfy S_{-1} = 0, S_0 = 1
and S_n = z*S_{n-1} - S_{n-2}; running the recurrence backwards extends
them to negative indices (S_{-n-2} = -S_n).  First-kind polynomials use
T_0 = 2, T_1 = z (forced by the closed form T_n = p^n + p^{-n}; see the
product identity T_m*T_n = T_{m+n} + T_{m-n} at m = n = 0) and T_{-n} = T_n.
Symbolic values reuse LaurentPoly with the variable read as z; the
substituted variants evaluate at z = 1 - t - t^{-1}.

Every Chebyshev sequence is a _Chebyshev object that runs the recurrence
from x_0 and x_1 = z: module-level objects for S_n and T_n in z, for the
substituted S_n and for S_n at each integer base cheb_S_at has seen grow on
demand; the recurrence solver builds one per call.  A caller that reads in
order grows the prefix one step at a time.  An S index past twice the
prefix is reached by doubling instead (Mason & Handscomb, Chebyshev
Polynomials, 2003):

    S_{2m} = S_m^2 - S_{m-1}^2,    S_{2m-1} = S_{m-1}*(S_m - S_{m-2}),

so a cold wheel request, which reads S_k near k = n/2 only, takes
O(log n) products instead of n/2 steps.  The pairs so reached are kept
beside the prefix, one recurrence step from their neighbours either way;
identity_suite checks both identities as cheb_double_index_even/odd, and
the wheel module's Euclidean descent, the recurrence run backwards,
re-checks every value it starts from.  T never jumps.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .ring import LaurentPoly

Z_VAR = LaurentPoly.t()  # the Chebyshev variable; print with to_str("z")
Z_OF_T = LaurentPoly({0: 1, 1: -1, -1: -1})  # 1 - t - t^-1

_fib_cache: tuple[int, ...] = (0, 1)


def fib(n: int) -> int:
    """Fibonacci number F_n for any integer n (F_{-k} = (-1)^{k+1} F_k)."""
    global _fib_cache
    if n < 0:
        value = fib(-n)
        return value if n % 2 else -value
    cache = _fib_cache
    if n >= len(cache):
        ext = list(cache)
        while len(ext) <= n:
            ext.append(ext[-1] + ext[-2])
        cache = tuple(ext)
        _fib_cache = cache
    return cache[n]


def lucas(n: int) -> int:
    """Lucas number L_n = F_{n-1} + F_{n+1}."""
    return fib(n - 1) + fib(n + 1)


class _Chebyshev:
    """x_0, x_1 = z and x_k = z*x_{k-1} - x_{k-2}, grown on demand.

    With x_0 = 1 this is S_k(z), with x_0 = 2 it is T_k(z); z may be any
    ring element (int or LaurentPoly).  The values tuple is a prefix
    x_0, x_1, ..., rebound whole, so concurrent readers only ever see a
    fully built prefix.

    An S index past twice the prefix is reached by doubling instead: the
    pair (x_{k-1}, x_k) comes from (x_{m-1}, x_m), m = ceil(k/2), and
    x_{m-2} = z*x_{m-1} - x_m by the module's two identities, two big
    products a halving.  Every pair so reached is kept in ``far``,
    beside the prefix, and an index one recurrence step from two kept
    neighbours, in either direction, takes that one step; ``far`` only ever
    gains finished values.  T never jumps.
    """

    def __init__(self, x0, z):
        self.z = z
        self.values = (x0, z)
        self.far = {} if x0 == 1 else None  # index -> S value past the prefix

    def __getitem__(self, k: int):
        values = self.values
        if k < len(values):
            return values[k]
        far, z = self.far, self.z
        if far is not None:
            if k in far:
                return far[k]
            for a, b in ((k - 1, k - 2), (k + 1, k + 2)):
                if a in far and b in far:  # one step from two kept neighbours
                    far[k] = value = z * far[a] - far[b]
                    return value
            if k > 2 * len(values):
                # halve k until (S_{m-1}, S_m) is known, then double back up
                chain, m = [], k
                while m >= len(values) and not (m in far and m - 1 in far):
                    chain.append(m)
                    m = (m + 1) // 2
                known = values if m < len(values) else far
                s1, s2 = known[m - 1], known[m]
                for j in reversed(chain):  # (s1, s2) = (S_{m-1}, S_m), m = ceil(j/2)
                    s0 = z * s1 - s2  # S_{m-2}
                    odd = s1 * (s2 - s0)  # S_{2m-1}
                    if j % 2:  # j = 2m - 1: (S_{2m-2}, S_{2m-1})
                        s1, s2 = (s1 - s0) * (s1 + s0), odd
                    else:  # j = 2m: (S_{2m-1}, S_{2m})
                        s1, s2 = odd, (s2 - s1) * (s2 + s1)
                    far[j - 1], far[j] = s1, s2
                return s2
        ext = list(values)
        while len(ext) <= k:
            ext.append(z * ext[-1] - ext[-2])
        self.values = values = tuple(ext)
        return values[k]

    def s(self, n: int):
        """x_n read as S_n for every integer n: S_{-1} = 0, S_{-n-2} = -S_n."""
        if n >= 0:
            return self[n]
        return self[0] - self[0] if n == -1 else -self[-n - 2]


_CHEB_S = _Chebyshev(LaurentPoly.one(), Z_VAR)
_CHEB_T = _Chebyshev(LaurentPoly.const(2), Z_VAR)
_CHEB_S_SUBST = _Chebyshev(LaurentPoly.one(), Z_OF_T)
_CHEB_S_AT: dict[int, _Chebyshev] = {}  # S_n(x0) by integer base x0


def cheb_S(n: int) -> LaurentPoly:
    """Second-kind Chebyshev polynomial S_n in the variable z."""
    return _CHEB_S.s(n)


def cheb_T(n: int) -> LaurentPoly:
    """First-kind Chebyshev polynomial T_n in the variable z (T_0 = 2)."""
    return _CHEB_T[abs(n)]


def cheb_S_at(n: int, x0: int) -> int:
    """S_n evaluated at the integer x0."""
    seq = _CHEB_S_AT.get(x0)
    if seq is None:
        seq = _CHEB_S_AT.setdefault(x0, _Chebyshev(1, x0))
    return seq.s(n)


def cheb_S_subst(n: int) -> LaurentPoly:
    """S_n with z = 1 - t - t^{-1} substituted, as a polynomial in t."""
    return _CHEB_S_SUBST.s(n)


def _recurrence_terms(cs: Sequence, n: int) -> tuple:
    """cs as a tuple, checked to hold the n - 1 terms c_2..c_n (n >= 0)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    cs = tuple(cs)
    if len(cs) != max(0, n - 1):
        raise ValueError(f"need exactly {max(0, n - 1)} inhomogeneous terms c_2..c_n")
    return cs


def solve_chebyshev_recurrence(p0, p1, cs: Sequence, z, n: int):
    """Closed form for P_k = z*P_{k-1} - P_{k-2} + c_k.

    ``cs`` lists the inhomogeneous terms c_2 .. c_n; the result is
    S_{n-1}*p1 - S_{n-2}*p0 + sum_{j=0}^{n-2} S_j * c_{n-j}, which equals
    direct iteration (see iterate_chebyshev_recurrence).  Works over any
    commutative ring whose elements support +, -, * (ints, LaurentPoly).
    """
    cs = _recurrence_terms(cs, n)
    if n == 0:
        return p0
    if n == 1:
        return p1
    svals = _Chebyshev(z ** 0, z)
    # S_0, S_1, ... in order, so the sequence grows its prefix and never jumps
    result = svals[0] * cs[n - 2]  # c_{n-j} lives at cs[n-j-2]
    for j in range(1, n - 1):
        result = result + svals[j] * cs[n - j - 2]
    return svals[n - 1] * p1 - svals[n - 2] * p0 + result


def iterate_chebyshev_recurrence(p0, p1, cs: Sequence, z, n: int):
    """P_n by direct iteration; the independent check of the closed form."""
    cs = _recurrence_terms(cs, n)
    if n == 0:
        return p0
    prev, cur = p0, p1
    for k in range(2, n + 1):
        prev, cur = cur, z * cur - prev + cs[k - 2]
    return cur


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------


class IdentityCheck(namedtuple("IdentityCheck", "name cases counterexample", defaults=(None,))):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


def _run_cases(name: str, cases) -> IdentityCheck:
    count = 0
    for label, ok in cases:
        count += 1
        if not ok:
            return IdentityCheck(name, count, label)
    return IdentityCheck(name, count)


def identity_suite(max_index: int) -> tuple[IdentityCheck, ...]:
    """Exhaustively verify the Fibonacci/Lucas/Chebyshev identities up to
    the given index bound; symbolic identities are exact polynomial
    equalities, Fibonacci ones exact integer equalities."""
    if max_index < 1:
        raise ValueError("max_index must be at least 1")
    m = max_index
    neg = min(10, m)
    s = cheb_S
    t = cheb_T

    # same-parity prefix sums par[i] = S_i + S_{i-2} + ..., par[-1] = par[-2] = 0,
    # so S_lo + S_{lo+2} + ... + S_hi = par[hi] - par[lo - 2]
    par = {-2: LaurentPoly.zero(), -1: LaurentPoly.zero()}
    for i in range(2 * m + 2):
        par[i] = par[i - 2] + s(i)

    checks = [
        _run_cases(
            "fib_doubling",
            (
                (f"n={n}", fib(2 * n) == fib(n) * lucas(n))
                for n in range(1, m + 1)
            ),
        ),
        _run_cases(
            "fib_odd_index_minus_one",
            (
                (
                    f"n={n}",
                    fib(2 * n - 1) - 1
                    == (
                        fib(n) * (fib(n - 2) + fib(n))
                        if n % 2 == 0
                        else fib(n - 1) * (fib(n - 1) + fib(n + 1))
                    ),
                )
                for n in range(1, m + 1)
            ),
        ),
        _run_cases(
            "fib_lucas_product_to_sum",
            (
                (
                    f"m={a}, n={b}",
                    fib(a) * lucas(b) == fib(a + b) + _sign(b) * fib(a - b)
                    and fib(a) * lucas(b) == fib(a + b) - _sign(a) * fib(b - a),
                )
                for a in range(-m, m + 1)
                for b in range(-m, m + 1)
            ),
        ),
        _run_cases(
            "even_fib_equals_cheb_at_3",
            (
                (f"n={n}", fib(2 * n) == cheb_S_at(n - 1, 3))
                for n in range(1, m + 1)
            ),
        ),
        _run_cases(
            "cheb_TT_product",
            (
                (f"m={a}, n={b}", t(a) * t(b) == t(a + b) + t(a - b))
                for a in range(0, m + 1)
                for b in range(-neg, a + 1)
            ),
        ),
        _run_cases(
            "cheb_ST_product",
            (
                (f"m={a}, n={b}", s(a) * t(b) == s(a + b) + s(a - b))
                for a in range(0, m + 1)
                for b in range(-neg, a + 1)
            ),
        ),
        _run_cases(
            "cheb_SS_product_to_sum",
            (
                (f"m={a}, n={b}", s(a) * s(b) == par[a + b] - par[a - b - 2])
                for a in range(0, m + 1)
                for b in range(0, a + 1)
            ),
        ),
        _run_cases(
            "cheb_sum_even_prefix",
            (
                (f"k={k}", s(k) * (s(k) + s(k - 1)) == par[2 * k] + par[2 * k - 1])
                for k in range(0, m + 1)
            ),
        ),
        _run_cases(
            "cheb_sum_odd_prefix",
            (
                (f"k={k}", s(k) * (s(k) + s(k + 1)) == par[2 * k + 1] + par[2 * k])
                for k in range(0, m + 1)
            ),
        ),
        _run_cases(
            "cheb_double_index_even",
            (
                (
                    f"k={k}",
                    s(2 * k) == s(k) * s(k) - s(k - 1) * s(k - 1)
                    and s(2 * k) == (s(k) - s(k - 1)) * (s(k) + s(k - 1)),
                )
                for k in range(0, m + 1)
            ),
        ),
        _run_cases(
            "cheb_double_index_odd",
            (
                (
                    f"k={k}",
                    s(2 * k + 1) == s(k) * s(k + 1) - s(k - 1) * s(k)
                    and s(2 * k + 1) == s(k) * (s(k + 1) - s(k - 1)),
                )
                for k in range(0, m + 1)
            ),
        ),
    ]
    return tuple(checks)
