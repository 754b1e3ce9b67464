"""Braid words, the braid-word grammar, and the unreduced Burau
representation.

A word on s strands is a sequence of nonzero integers i with |i| < s:
positive i is the generator sigma_i, negative its inverse.  The text
grammar is whitespace- or comma-separated ASCII integers ("1 -2 1 -2"); a
JSON object {"strands": s, "letters": [...]} with int letters and no other
keys is accepted as an equivalent wire form.  When the strand count is
omitted it is inferred as max|i| + 1; counts above MAX_STRANDS are refused.

Sign convention for Burau: a positive crossing acts on the strand pair as
(a, b) -> (b, t*a + (1-t)*b), i.e. the generator block is [[0, 1], [t, 1-t]]
and the inverse block is [[1-t^-1, t^-1], [1, 0]].  (Braid-theory texts
often swap the roles of t and t^-1; this library fixes the knot-theoretic
choice above.)  burau(w) is the product of the letter matrices in word
order, the weighted row vector (t^{s-1}, ..., t, 1) is a fixed left vector,
and every row sums to 1.  Words are kept exactly as given: no free
reduction or Markov moves, so invariance under them is testable, not
assumed.
"""

from __future__ import annotations

import json
import math
import re

from .ring import LaurentPoly, Matrix

# Largest strand count parse_braid accepts: Burau matrices are s x s, and
# the reduced presentations are reduced by determinant and Smith normal
# form, so far larger counts could neither be stored nor finished.
MAX_STRANDS = 256

_LETTER = re.compile(r"[+-]?[0-9]+")

# Characters an error message echoes of an argument before clipping it.
_ECHO_LIMIT = 20


def _echo(value: object) -> str:
    """A value as an error message shows it (strings quoted), clipped past
    _ECHO_LIMIT characters so an oversized argument is not echoed whole."""
    if isinstance(value, int) and abs(value) >= 10**_ECHO_LIMIT:
        # str() refuses an int past 4300 digits: count the digits and take
        # the leading ones arithmetically instead
        magnitude = abs(value)
        digits = int(magnitude.bit_length() * math.log10(2)) - 1  # below the count
        while 10**digits <= magnitude:
            digits += 1
        sign = "-" if value < 0 else ""
        shown = (sign + str(magnitude // 10 ** (digits - _ECHO_LIMIT)))[:_ECHO_LIMIT]
        return f"{shown}... ({len(sign) + digits} characters)"
    text = str(value)
    shown = repr(text[:_ECHO_LIMIT]) if isinstance(value, str) else text[:_ECHO_LIMIT]
    return shown if len(text) <= _ECHO_LIMIT else f"{shown}... ({len(text)} characters)"


class BraidParseError(ValueError):
    """Invalid braid text; ``position`` is the 1-based offending token."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class BraidWord:
    """An immutable word; len() is its letter count, and it is not iterable."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: tuple[int, ...] = ()):
        if type(strands) is not int or strands < 1:
            raise ValueError("strand count must be a positive integer")
        letters = tuple(letters)
        for letter in letters:
            if type(letter) is not int or letter == 0:
                raise ValueError(f"invalid letter {letter!r}: letters are nonzero ints")
            if abs(letter) >= strands:
                raise ValueError(
                    f"letter {letter} needs at least {abs(letter) + 1} strands, "
                    f"word has {strands}"
                )
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.strands, self.letters) == (other.strands, other.letters)

    def __hash__(self):
        return hash((self.strands, self.letters))

    def __repr__(self):
        return f"BraidWord(strands={self.strands!r}, letters={self.letters!r})"

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        """Concatenation (composition in the braid group)."""
        if not isinstance(other, BraidWord):
            return NotImplemented
        if self.strands != other.strands:
            raise ValueError("cannot concatenate words on different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-l for l in reversed(self.letters)))

    def as_text(self) -> str:
        return " ".join(str(l) for l in self.letters)


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse braid text (or the JSON object form) into a BraidWord."""
    stripped = text.strip()
    if stripped.startswith("{"):
        letters, strands = _parse_json_braid(stripped, strands)
    else:
        letters = []
        tokens = [tok for tok in re.split(r"[\s,]+", stripped) if tok]
        for pos, token in enumerate(tokens, start=1):
            try:
                if not _LETTER.fullmatch(token):
                    raise ValueError(token)
                letters.append(int(token, 10))
            except ValueError:  # not ASCII digits, or more than int() converts
                raise BraidParseError(
                    f"invalid braid letter {_echo(token)} at token {pos}", position=pos
                ) from None
    return _checked_word(letters, strands)


def _checked_word(letters: list[int], strands: int | None) -> BraidWord:
    if strands is not None and (type(strands) is not int or strands < 1):
        raise BraidParseError("strand count must be a positive integer")
    for pos, value in enumerate(letters, start=1):
        if value == 0:
            raise BraidParseError(f"braid letter 0 at token {pos}", position=pos)
        if abs(value) >= MAX_STRANDS:
            raise BraidParseError(
                f"letter {_echo(value)} at token {pos} needs more than {MAX_STRANDS} strands",
                position=pos,
            )
    inferred = max((abs(l) for l in letters), default=0) + 1
    if strands is None:
        if not letters:
            raise BraidParseError(
                "cannot infer strand count of an empty word; pass strands explicitly"
            )
        strands = inferred
    elif letters and inferred > strands:
        bad = max(range(len(letters)), key=lambda i: abs(letters[i]))
        raise BraidParseError(
            f"letter {letters[bad]} at token {bad + 1} does not fit on "
            f"{strands} strands",
            position=bad + 1,
        )
    if strands > MAX_STRANDS:
        raise BraidParseError(f"{_echo(strands)} strands exceed the limit of {MAX_STRANDS}")
    return BraidWord(strands, tuple(letters))


def _parse_json_braid(text: str, strands: int | None) -> tuple[list[int], int | None]:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise BraidParseError(f"invalid JSON braid: {exc}") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("letters"), list):
        raise BraidParseError('JSON braid must look like {"strands": s, "letters": [...]}')
    unknown = sorted(set(obj) - {"strands", "letters"})
    if unknown:
        raise BraidParseError(f"unknown JSON braid keys: {', '.join(map(repr, unknown))}")
    letters = obj["letters"]
    for pos, value in enumerate(letters, start=1):
        if type(value) is not int:  # bools and floats are not letters
            raise BraidParseError(
                f"JSON braid letter {_echo(value)} at token {pos} is not an integer",
                position=pos,
            )
    if "strands" not in obj:
        return letters, strands
    own = obj["strands"]
    if type(own) is not int or own < 1:
        raise BraidParseError(f"JSON strand count {_echo(own)} is not a positive integer")
    if strands is not None and own != strands:
        raise BraidParseError(
            f"JSON strand count {own} conflicts with the explicit value {strands}"
        )
    return letters, own


def wheel_braid(n: int) -> BraidWord:
    """The 3-strand word (sigma_1 sigma_2^{-1})^n whose closure is the Tait
    diagram of the wheel graph with n spokes."""
    if n < 1:
        raise ValueError("the wheel family starts at n = 1")
    return BraidWord(3, (1, -2) * n)


# ---------------------------------------------------------------------------
# Burau representation
# ---------------------------------------------------------------------------

# Ring constants (one, t, t^-1) over Z[t^(+/-1)] and at t = -1
_LAURENT = (LaurentPoly.one(), LaurentPoly.t(), LaurentPoly.t(-1))
_AT_MINUS_ONE = (1, -1, -1)


def _burau_product(word: BraidWord, ring) -> Matrix:
    """Product of the letter matrices in word order over the given ring.

    Multiplying on the right by a letter matrix changes only columns i and
    i+1, so each letter updates those two columns of every row in place
    instead of taking a full matrix product.  A row whose entries in both
    columns are zero stays (0, 0) under either letter, over either ring
    (an int 0 and the zero LaurentPoly are both falsy), and is skipped, so
    a letter costs O(rows in which either column is nonzero) ring
    operations: on a wide word most rows are still zero in most columns.
    """
    one, t, t_inv = ring
    one_minus_t, one_minus_t_inv = one - t, one - t_inv
    zero = one * 0
    rows = [[one if r == c else zero for c in range(word.strands)] for r in range(word.strands)]
    for letter in word.letters:
        i = abs(letter) - 1
        j = i + 1
        if letter > 0:  # columns (a, b) -> (t*b, a + (1-t)*b)
            for row in rows:
                a, b = row[i], row[j]
                if not (a or b):
                    continue
                row[i] = t * b
                row[j] = a + one_minus_t * b
        else:  # columns (a, b) -> ((1-t^-1)*a + b, t^-1*a)
            for row in rows:
                a, b = row[i], row[j]
                if not (a or b):
                    continue
                row[i] = one_minus_t_inv * a + b
                row[j] = t_inv * a
    return Matrix(rows)


def burau(word: BraidWord) -> Matrix:
    """Unreduced Burau matrix of the word: the product of its letter
    matrices in word order (the identity braid gives Id)."""
    return _burau_product(word, _LAURENT)


def burau_at_minus_one(word: BraidWord) -> Matrix:
    """burau(word) specialized at t = -1, computed over plain integers."""
    return _burau_product(word, _AT_MINUS_ONE)


def reduced_relation_matrix(product: Matrix, drop_index: int | None = None) -> Matrix:
    """product - Id for a Burau product over either ring (burau(word) or
    burau_at_minus_one(word)), with row/column ``drop_index`` (1-based,
    default the last strand) deleted, built in one pass; one strand gives
    the 0x0 matrix."""
    drop = product.rows if drop_index is None else drop_index
    if not (1 <= drop <= product.rows):
        raise ValueError(f"drop_index {drop} out of range for {product.rows} strands")
    d = drop - 1
    return Matrix(
        [
            [a - 1 if i == j else a for j, a in enumerate(row) if j != d]
            for i, row in enumerate(product.entries())
            if i != d
        ]
    )


def exponent_sum(word: BraidWord) -> int:
    return sum(1 if letter > 0 else -1 for letter in word.letters)
