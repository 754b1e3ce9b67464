"""Exact arithmetic core: Laurent polynomials over Z, dense matrices, and
integer Smith normal form.

Integers are plain Python ``int`` (arbitrary precision; Fibonacci-scale
entries up to F_400 and beyond are exact).  A Laurent polynomial is stored
densely as ``(lo, coeffs)``: ``lo`` is the lowest exponent and ``coeffs``
the tuple of coefficients of t^lo, t^(lo+1), ..., whose first and last
entries are nonzero; zero is ``(0, ())``.  The form is canonical, so
equality is tuple equality.  Storage grows with the exponent span, not
the number of terms; every polynomial the library builds is dense (its
span is bounded by the word length or the wheel index).  A product with a
zero operand is that operand, and one with a one-coefficient operand c*t^k
is the other operand's tuple shifted by k and scaled by c, with no convolution
(the units t^(+/-1) of the Burau update, det A'_n = 1); otherwise it is a
schoolbook convolution when the shorter operand has fewer than 8
coefficients and one big-int multiplication (Kronecker substitution) from
8 up.  A sum and a difference align the two tuples once and combine them
entrywise, so a difference builds no negated operand.  Exact division is
always schoolbook.  Matrices are immutable and work over either ring:
entries may be ``int`` or ``LaurentPoly`` and mix freely, since ints
coerce to constant polynomials.

Everything in this module is a pure function over immutable values and is
safe to call concurrently.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence


class InexactDivisionError(ArithmeticError):
    """Raised when an exact ring division leaves a remainder."""


class LaurentPoly:
    """Element of Z[t^(+/-1)], stored as ``(lo, coeffs)``.

    ``coeffs[i]`` is the coefficient of t^(lo+i); the first and last
    entries are nonzero, and zero is ``(0, ())``.  A sparse polynomial
    such as 1 + t^1000 therefore stores its 999 zero coefficients too.
    """

    __slots__ = ("_lo", "_coeffs")

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        coeffs = coeffs or {}
        for exp, coef in coeffs.items():
            if not isinstance(exp, int) or not isinstance(coef, int):
                raise TypeError("exponents and coefficients must be ints")
        exps = [e for e, c in coeffs.items() if c]
        lo = min(exps, default=0)
        dense = [0] * (max(exps) - lo + 1 if exps else 0)
        for e in exps:
            dense[e - lo] = coeffs[e]
        self._lo = lo
        self._coeffs = tuple(dense)

    @classmethod
    def _of(cls, lo: int, coeffs: tuple[int, ...]) -> "LaurentPoly":
        # internal fast path: coeffs must already be canonical
        poly = cls.__new__(cls)
        poly._lo = lo if coeffs else 0
        poly._coeffs = coeffs
        return poly

    @classmethod
    def _trimmed(cls, lo: int, coeffs: Sequence[int]) -> "LaurentPoly":
        """Canonical polynomial sum(coeffs[i] t^(lo+i)); zeros at either end dropped."""
        start, end = 0, len(coeffs)
        while end and not coeffs[end - 1]:
            end -= 1
        while start < end and not coeffs[start]:
            start += 1
        return cls._of(lo + start, tuple(coeffs[start:end]))

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._of(0, ())

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._of(0, (1,))

    @classmethod
    def const(cls, value: int) -> "LaurentPoly":
        return cls._of(0, (value,) if value else ())

    @classmethod
    def t(cls, exp: int = 1) -> "LaurentPoly":
        return cls._of(exp, (1,))

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return self._lo

    def coeff(self, exp: int) -> int:
        i = exp - self._lo
        return self._coeffs[i] if 0 <= i < len(self._coeffs) else 0

    def terms(self) -> tuple[tuple[int, int], ...]:
        """Terms as (exponent, coefficient) pairs in increasing exponent."""
        return tuple((e, c) for e, c in enumerate(self._coeffs, self._lo) if c)

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(value) -> "LaurentPoly | None":
        if isinstance(value, LaurentPoly):
            return value
        if isinstance(value, int):
            return LaurentPoly.const(value)
        return None

    def _combine(self, other, op):
        """self op other for op in (operator.add, operator.sub): both
        coefficient tuples aligned on one exponent range, then combined."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not b:
            return self
        if not a:
            return other if op is operator.add else -other
        la, lb = self._lo, other._lo
        lo = min(la, lb)
        hi = max(la + len(a), lb + len(b))
        a = (0,) * (la - lo) + a + (0,) * (hi - la - len(a))
        b = (0,) * (lb - lo) + b + (0,) * (hi - lb - len(b))
        return LaurentPoly._trimmed(lo, list(map(op, a, b)))

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._of(self._lo, tuple(map(operator.neg, self._coeffs)))

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._combine(self, operator.sub)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a:
            return self
        if not b:
            return other
        lo = self._lo + other._lo
        if len(a) > len(b):
            a, b = b, a
        # over Z the end coefficients of the product are nonzero: no trim
        if len(a) == 1:  # c * t^k: the other tuple, shifted and scaled
            c = a[0]
            if c == 1:
                return LaurentPoly._of(lo, b)
            if c == -1:
                return LaurentPoly._of(lo, tuple(map(operator.neg, b)))
            return LaurentPoly._of(lo, tuple([c * cb for cb in b]))
        if len(a) >= _KRONECKER_MIN_LEN:
            return LaurentPoly._of(lo, _kronecker_product(a, b))
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        return LaurentPoly._of(lo, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, power: int):
        if not isinstance(power, int) or power < 0:
            raise ValueError("only non-negative integer powers are defined")
        result = LaurentPoly.one()
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly._of(self._lo + k, self._coeffs)

    def at_minus_one(self) -> int:
        """Evaluate at t = -1 (so t^-1 = -1 as well); exact integer."""
        value = sum(self._coeffs[0::2]) - sum(self._coeffs[1::2])
        return -value if self._lo % 2 else value

    # -- comparisons / hashing ----------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._lo == other._lo and self._coeffs == other._coeffs

    def __hash__(self):
        # constant polynomials hash like their integer value so that the
        # int coercion in __eq__ keeps the hash invariant
        if not self._coeffs:
            return hash(0)
        if self._lo == 0 and len(self._coeffs) == 1:
            return hash(self._coeffs[0])
        return hash(self.terms())

    def __bool__(self):
        return bool(self._coeffs)

    # -- formatting ---------------------------------------------------

    def to_str(self, var: str = "t") -> str:
        """Canonical string: increasing exponents, explicit '*', no spaces.

        Examples: "0", "1-3*t+t^2", "t^-1", "-t^-1+3-t".
        """
        text = ""
        for exp, coef in self.terms():
            mag = abs(coef)
            if exp == 0:
                body = str(mag)
            else:
                power = var if exp == 1 else f"{var}^{exp}"
                body = power if mag == 1 else f"{mag}*{power}"
            text += ("-" if coef < 0 else "+" if text else "") + body
        return text or "0"

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"LaurentPoly('{self.to_str()}')"


Ring = int | LaurentPoly

# shorter-operand length from which a product is one big-int multiplication;
# most products have 1-3 coefficients, where packing costs 3-7 times the
# schoolbook loop, and the two break even between 8 and 16 coefficients
_KRONECKER_MIN_LEN = 8


def _kronecker_product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of the product of the polynomials with coefficient
    tuples ``a`` and ``b`` (len(a) <= len(b)), by Kronecker substitution.

    Each operand becomes one int with a k-byte digit per coefficient, so a
    single big-int product (Karatsuba in CPython) does the convolution.  A
    product coefficient is a sum of len(a) terms, each of magnitude below
    2^(bits of max|a| + bits of max|b|); 8k covers those bits, the bits of
    len(a) and a sign bit, so every coefficient lies in [-2^(8k-1),
    2^(8k-1)).  Adding 2^(8k-1) to every digit of the product then leaves
    no carries, and the digits are read straight off the bytes.
    """
    bits = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
    bits += len(a).bit_length() + 1  # a sum of len(a) terms, and the sign
    k = (bits + 7) // 8
    half = 1 << (8 * k - 1)
    bias = half.to_bytes(k, "little")
    n = len(a) + len(b) - 1
    packed = _pack(a, k, half, bias) * _pack(b, k, half, bias)
    raw = (packed + int.from_bytes(bias * n, "little")).to_bytes(n * k, "little")
    return tuple([int.from_bytes(raw[i : i + k], "little") - half for i in range(0, n * k, k)])


def _pack(coeffs: tuple[int, ...], k: int, half: int, bias: bytes) -> int:
    """sum(coeffs[i] * 2^(8k*i)), each |coeff| below ``half`` = 2^(8k-1)."""
    digits = b"".join([(c + half).to_bytes(k, "little") for c in coeffs])
    return int.from_bytes(digits, "little") - int.from_bytes(bias * len(coeffs), "little")


def normalize_unit(p: Ring) -> LaurentPoly:
    """Canonical associate of p under the units +/- t^k.

    The result has minimum exponent 0 and a positive coefficient there,
    which makes ideal generators comparable by plain equality.
    """
    poly = LaurentPoly._coerce(p)
    if poly is None:
        raise TypeError("expected an int or LaurentPoly")
    if poly.is_zero:
        raise ValueError("zero has no canonical associate")
    poly = poly.shift(-poly.min_exp)
    if poly.coeff(0) < 0:
        poly = -poly
    return poly


def divide_exact(a: Ring, b: Ring) -> LaurentPoly:
    """Exact quotient a / b in Z[t^(+/-1)]; raises if b does not divide a."""
    pa, pb = LaurentPoly._coerce(a), LaurentPoly._coerce(b)
    if pa is None or pb is None:
        raise TypeError("expected ints or LaurentPolys")
    if pb.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if pa.is_zero:
        return LaurentPoly.zero()
    da, db = pa._coeffs, pb._coeffs
    if len(da) < len(db):
        raise InexactDivisionError(f"({pa}) is not divisible by ({pb})")
    rem = list(da)
    lead = db[-1]
    quot = [0] * (len(da) - len(db) + 1)
    for i in range(len(quot) - 1, -1, -1):
        top = rem[i + len(db) - 1]
        if top % lead:
            raise InexactDivisionError(f"({pa}) is not divisible by ({pb})")
        q = top // lead
        quot[i] = q
        if q:
            for j, c in enumerate(db, i):
                rem[j] -= q * c
    if any(rem):
        raise InexactDivisionError(f"({pa}) is not divisible by ({pb})")
    # exact: the ends of quot divide the nonzero ends of da, so are nonzero
    return LaurentPoly._of(pa._lo - pb._lo, tuple(quot))


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


class Matrix:
    """Immutable dense matrix over Z or Z[t^(+/-1)] (entries int/LaurentPoly)."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: Iterable[Iterable]):
        """Rows of equal, nonzero length; no rows at all is the 0x0 matrix."""
        data = tuple(tuple(row) for row in rows)
        ncols = len(data[0]) if data else 0
        if any(len(row) != ncols for row in data):
            raise ValueError("rows must all have the same length")
        if data and ncols == 0:
            raise ValueError("rows must be non-empty")
        self.rows = len(data)
        self.cols = ncols
        self._data = data

    @classmethod
    def identity(cls, n: int, one: Ring = 1) -> "Matrix":
        zero = one * 0
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    def __getitem__(self, key: tuple[int, int]):
        i, j = key
        return self._data[i][j]

    def entries(self) -> tuple[tuple, ...]:
        return self._data

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(
            a == b for ra, rb in zip(self._data, other._data) for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._data))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        bt = list(zip(*other._data)) if other._data else []
        out = []
        for arow in self._data:
            out.append([_dot(arow, bcol) for bcol in bt])
        return Matrix(out)

    def det(self) -> Ring:
        """Exact determinant by fraction-free (Bareiss) elimination, which
        stays inside the entry ring; the 0x0 determinant is 1."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if self.rows == 0:
            return 1
        return _det_bareiss([list(row) for row in self._data])

    def __str__(self):
        return "\n".join("[" + ", ".join(str(a) for a in row) + "]" for row in self._data)

    def __repr__(self):
        return f"Matrix({[list(r) for r in self._data]!r})"


def _dot(arow, bcol):
    it = zip(arow, bcol)
    a, b = next(it)
    total = a * b
    for a, b in it:
        total = total + a * b
    return total


def _entry_div_exact(a, b):
    if isinstance(a, LaurentPoly) or isinstance(b, LaurentPoly):
        return divide_exact(a, b)
    q, r = divmod(a, b)
    if r:
        raise InexactDivisionError(f"{a} is not divisible by {b}")
    return q


def _first_nonzero(a, k, nr, nc):
    # the pivot search of both eliminations: (i, j) of the first nonzero
    # entry of the trailing submatrix a[k:nr][k:nc] in column order, or None
    for j in range(k, nc):
        for i in range(k, nr):
            if a[i][j]:
                return i, j
    return None


def _det_bareiss(a):
    # fraction-free elimination; every division is exact in the entry ring.
    # The first step's divisor, the initial previous pivot, is 1: skip it.
    n = len(a)
    sign = 1
    prev = None
    for k in range(n - 1):
        pivot = _first_nonzero(a, k, n, n)
        if pivot is None or pivot[1] != k:
            return a[k][k] * 0
        if pivot[0] != k:
            a[k], a[pivot[0]] = a[pivot[0]], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                entry = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = entry if prev is None else _entry_div_exact(entry, prev)
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Smith normal form and finitely generated abelian groups
# ---------------------------------------------------------------------------


class AbelianGroup(namedtuple("AbelianGroup", "torsion free_rank")):
    """Invariant-factor form: torsion chain d1 | d2 | ... (each >= 2) plus
    free rank.  Smallest factor first; Z_1 summands are never stored."""

    __slots__ = ()

    def __new__(cls, torsion: Iterable[int] = (), free_rank: int = 0):
        self = super().__new__(cls, tuple(torsion), free_rank)
        if free_rank < 0:
            raise ValueError("free rank must be non-negative")
        if any(d < 2 for d in self.torsion):
            raise ValueError("invariant factors must be at least 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"broken divisibility chain: {a} does not divide {b}")
        return self

    def torsion_order(self) -> int:
        order = 1
        for d in self.torsion:
            order *= d
        return order

    def order(self) -> int:
        """Group order; 0 stands for infinite (positive free rank)."""
        return 0 if self.free_rank else self.torsion_order()

    def describe(self) -> str:
        """Display string, largest torsion factor first (e.g. 'Z_40 + Z_8')."""
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z_{d}" for d in reversed(self.torsion))
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        return self.describe()


def smith_invariant_factors(mat: Matrix) -> list[int]:
    """Nonzero diagonal of the Smith normal form of an integer matrix.

    Returns [d1, ..., dr] with d1 | d2 | ... | dr, each positive; r is the
    rank.  The pivot is the first nonzero entry of the trailing submatrix
    in column order, as in Bareiss; elimination leaves a diagonal, and a
    gcd/lcm pass over it yields the divisor chain.  On a 40-strand,
    300-letter braid word a least-|value| pivot took 88 s and reached
    5.7-million-bit entries; this one takes 3 ms and 1156 bits.  Entry
    size is still unbounded: either rule runs about a minute on some such words.
    """
    a = []
    for row in mat.entries():
        out_row = []
        for entry in row:
            if isinstance(entry, LaurentPoly):
                raise TypeError("Smith normal form requires integer entries")
            out_row.append(int(entry))
        a.append(out_row)
    nr, nc = mat.rows, mat.cols
    k = 0
    while k < nr and k < nc:
        pivot = _first_nonzero(a, k, nr, nc)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
        if pj != k:
            for row in a:
                row[k], row[pj] = row[pj], row[k]
        while True:
            # clear column k with row operations, then row k with column
            # operations; a remainder smaller than the pivot is swapped in
            # as the new pivot, which can refill column k, so repeat
            for i in range(k + 1, nr):
                while a[i][k]:
                    q = a[i][k] // a[k][k]
                    for j in range(k, nc):
                        a[i][j] -= q * a[k][j]
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
            for j in range(k + 1, nc):
                while a[k][j]:
                    q = a[k][j] // a[k][k]
                    for i in range(k, nr):
                        a[i][j] -= q * a[i][k]
                    if a[k][j]:
                        for row in a:
                            row[k], row[j] = row[j], row[k]
            if not any(a[i][k] for i in range(k + 1, nr)):
                break
        k += 1
    # the matrix is now diagonal; replacing each pair (d_i, d_j) by (gcd,
    # lcm) keeps the group and turns any diagonal into the divisor chain
    factors = [abs(a[i][i]) for i in range(k)]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if factors[j] % factors[i]:
                g = math.gcd(factors[i], factors[j])
                factors[i], factors[j] = g, factors[i] * factors[j] // g
    factors.sort()
    return factors


def snf(mat: Matrix) -> AbelianGroup:
    """Abelian group presented by an integer matrix (relations in rows,
    generators in columns): cokernel in invariant-factor form."""
    factors = smith_invariant_factors(mat)
    return AbelianGroup(
        torsion=tuple(d for d in factors if d > 1),
        free_rank=mat.cols - len(factors),
    )
