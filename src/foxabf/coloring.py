"""Fox coloring group of a braid closure.

The reduced coloring group is presented by the integer matrix
burau(w)|_{t=-1} - Id with one row and the matching column deleted:
deleting the column sets one top arc to zero (killing the trivial
colorings), and deleting the row is harmless because at t = -1 the rows
satisfy the alternating-sign relation with unit weights, so any single
row is a consequence of the others.  Split components (strands the word
never touches) need no special casing: they contribute zero rows/columns
and surface as free rank.

brute_force_coloring_count is the independent oracle: it propagates the
coloring rule (new undercrossing color = 2*over - under) once through the
word on the basis colorings over Z, in O(L*s), then reduces the rows mod
m, enumerates all m^s assignments of Z_m values to the top arcs and keeps
those the propagated map fixes, in O(m^s * s^2).  The last word's rows
are kept, so counting one word for several moduli in turn propagates the
rule once.  It applies the rule itself and shares no
code with the Burau product, the reduced matrix or SNF; its count equals
the number of fixed vectors of the Burau matrix mod m at t = -1.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple

from .braid import BraidWord, _echo, burau_at_minus_one, reduced_relation_matrix
from .ring import AbelianGroup, snf

# Most assignments brute_force_coloring_count enumerates: modulus**strands.
ENUMERATION_CAP = 10**7


class EnumerationLimitError(ValueError):
    """Brute-force enumeration would exceed ENUMERATION_CAP."""


ColoringResult = namedtuple("ColoringResult", "group determinant reduced_matrix")


def coloring_group(word: BraidWord, drop_index: int | None = None) -> ColoringResult:
    """Reduced Fox coloring group of the closure, as SNF invariant factors;
    the determinant is the group order (0 when the group is infinite)."""
    reduced = reduced_relation_matrix(burau_at_minus_one(word), drop_index)
    group = snf(reduced)
    return ColoringResult(group=group, determinant=group.order(), reduced_matrix=reduced)


def _check_enumeration(strands: int, modulus: int) -> None:
    """Refuse a modulus below 2, and an enumeration of modulus**strands
    assignments past ENUMERATION_CAP, before any of it runs."""
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    # modulus**strands >= 2**((bits - 1) * strands): past the cap's bit
    # length the power is refused unformed, as it may be too large to print
    if (modulus.bit_length() - 1) * strands >= ENUMERATION_CAP.bit_length():
        raise EnumerationLimitError(
            f"{_echo(modulus)}^{strands} assignments exceed the cap {ENUMERATION_CAP}"
        )
    total = modulus**strands
    if total > ENUMERATION_CAP:
        raise EnumerationLimitError(
            f"{modulus}^{strands} = {total} assignments exceed the cap {ENUMERATION_CAP}"
        )


@functools.lru_cache(maxsize=1)
def _closing_rows(word: BraidWord) -> tuple[tuple[int, ...], ...]:
    """The rows of (bottom - top) over Z, as coefficients over the top arcs:
    an assignment mod m closes up when each row maps it to 0 mod m.  The
    last word's rows are kept, so counting it for several moduli
    propagates the rule once."""
    strands = word.strands
    # arcs[j]: color of the arc at position j as coefficients over the top
    # arcs; the rule is linear, so one pass serves every assignment
    arcs = [[int(i == j) for i in range(strands)] for j in range(strands)]
    for letter in word.letters:
        i = abs(letter) - 1
        a, b = arcs[i], arcs[i + 1]
        if letter > 0:
            arcs[i], arcs[i + 1] = b, [v + v - u for u, v in zip(a, b)]
        else:
            arcs[i], arcs[i + 1] = [u + u - v for u, v in zip(a, b)], a
    return tuple(tuple(c - (i == j) for i, c in enumerate(arc)) for j, arc in enumerate(arcs))


def brute_force_coloring_count(word: BraidWord, modulus: int) -> int:
    """Number of Fox colorings of the closure with values in Z_modulus,
    counted by exhaustive enumeration over the top arcs: O(L*s) to
    propagate the rule through L letters on s strands, then O(m^s * s^2),
    reading only the strand count and the letters."""
    strands = word.strands
    _check_enumeration(strands, modulus)
    rows = [[c % modulus for c in row] for row in _closing_rows(word)]
    count = 0
    for top in itertools.product(range(modulus), repeat=strands):
        for row in rows:
            if sum(map(operator.mul, row, top)) % modulus:
                break
        else:
            count += 1
    return count


def coloring_count_from_group(group: AbelianGroup, modulus: int) -> int:
    """Coloring count predicted by Col = Z (+) Col^red:
    m^(1 + free_rank) * prod gcd(d_i, m)."""
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    count = modulus ** (1 + group.free_rank)
    for d in group.torsion:
        count *= math.gcd(d, modulus)
    return count
