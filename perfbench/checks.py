"""Checks of foxabf's CLI output against computations made without foxabf.

Nothing here imports foxabf.  The braid matrices are rebuilt from the
conventions README documents: a positive crossing acts on a strand pair
by the block [[0, 1], [t, 1-t]], its inverse by [[1-t^-1, t^-1], [1, 0]],
and Burau matrices multiply in word order.  At t = -1 the positive block
is [[0, 1], [-1, 2]], which is the Fox coloring rule: the new under-arc
colour is 2*over - under.  The coloring group comes from sympy's
``invariant_factors``; the Laurent-polynomial answers are checked by
exact evaluation at seeded random integer points t0, where Burau is
rebuilt with ``Fraction``.

Each ``check_*`` function raises ``Mismatch`` on the first disagreement.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from sympy import Matrix as SympyMatrix
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.domains import ZZ


class Mismatch(AssertionError):
    """An output disagrees with the independent computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# Laurent polynomials in foxabf's canonical text form
# ---------------------------------------------------------------------------

_TERM = re.compile(r"([+-]?)(?:(\d+)\*t(?:\^(-?\d+))?|(\d+)|t(?:\^(-?\d+))?)")


def parse_poly(text: str) -> dict[int, int]:
    """{exponent: coefficient} of a canonical polynomial string such as
    "1-3*t+t^2" or "-t^-1+3-t"; rejects any non-canonical spelling."""
    if text == "0":
        return {}
    terms: dict[int, int] = {}
    pos = 0
    last = None
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or m.end() == pos or not (m[1] or pos == 0):
            raise Mismatch(f"bad polynomial {text[:80]!r} at {pos}")
        sign, coef_t, exp_ct, const, exp_t = m.groups()
        if const is not None:
            coef, exp, canonical = int(const), 0, const != "0"
        elif coef_t is not None:
            coef, exp = int(coef_t), int(exp_ct) if exp_ct is not None else 1
            canonical = coef > 1 and exp_ct not in ("0", "1")
        else:
            coef, exp = 1, int(exp_t) if exp_t is not None else 1
            canonical = exp_t not in ("0", "1")
        if not canonical or (last is not None and exp <= last):
            raise Mismatch(f"non-canonical term {m[0]!r} in {text[:80]!r}")
        terms[exp] = -coef if sign == "-" else coef
        last = exp
        pos = m.end()
    return terms


def evaluate(poly: dict[int, int], t0: int) -> Fraction:
    """Exact value at the nonzero integer t0."""
    if not poly:
        return Fraction(0)
    low, high = min(poly), max(poly)
    value = 0
    for exp in range(high, low - 1, -1):
        value = value * t0 + poly.get(exp, 0)
    return Fraction(value) * Fraction(t0) ** low


def is_unit_multiple(a: Fraction, b: Fraction, t0: int) -> bool:
    """Whether a = +-t0^k * b for some integer k."""
    if a == 0 or b == 0:
        return a == b
    ratio = abs(a / b)
    base = abs(t0)
    num, den = ratio.numerator, ratio.denominator
    if den == 1:
        while num % base == 0:
            num //= base
        return num == 1
    if num == 1:
        while den % base == 0:
            den //= base
        return den == 1
    return False


def is_palindromic_up_to_sign(poly: dict[int, int]) -> bool:
    if not poly:
        return True
    low, high = min(poly), max(poly)
    coeffs = [poly.get(e, 0) for e in range(low, high + 1)]
    mirrored = coeffs[::-1]
    return mirrored == coeffs or mirrored == [-c for c in coeffs]


def canonical_associate(poly: dict[int, int]) -> bool:
    """Minimum exponent 0 and a positive coefficient there."""
    return bool(poly) and min(poly) == 0 and poly[0] > 0


# ---------------------------------------------------------------------------
# Braid matrices rebuilt from the documented conventions
# ---------------------------------------------------------------------------


def burau_at(strands: int, letters, t0) -> list[list]:
    """Unreduced Burau matrix at the point t0 (an int or Fraction): the
    identity multiplied on the right by each letter matrix in word order.
    Right multiplication changes only columns i and i+1."""
    one = t0 ** 0
    zero = one * 0
    t_inv = t0 if t0 in (1, -1) else one / t0  # at t = +-1 plain ints stay ints
    m = [[one if r == c else zero for c in range(strands)] for r in range(strands)]
    for letter in letters:
        i = abs(letter) - 1
        for row in m:
            a, b = row[i], row[i + 1]
            if letter > 0:  # block [[0, 1], [t, 1-t]]
                row[i], row[i + 1] = t0 * b, a + (one - t0) * b
            else:  # block [[1-t^-1, t^-1], [1, 0]]
                row[i], row[i + 1] = (one - t_inv) * a + b, t_inv * a
    return m


def reduced(m: list[list]) -> list[list]:
    """m - Id with the last row and column deleted."""
    n = len(m)
    return [[m[r][c] - (1 if r == c else 0) for c in range(n - 1)] for r in range(n - 1)]


def det(matrix: list[list]) -> Fraction:
    """Exact determinant of a square matrix of ints or Fractions: rows are
    scaled to integers, then fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    rows = []
    for row in matrix:
        den = math.lcm(*(Fraction(x).denominator for x in row))
        rows.append([int(Fraction(x) * den) for x in row])
        scale *= den
    sign, prev = 1, 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if rows[r][k]), None)
            if swap is None:
                return Fraction(0)
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
        prev = rows[k][k]
    return Fraction(sign * rows[n - 1][n - 1]) / scale


def closure_components(strands: int, letters) -> int:
    perm = list(range(strands))
    for letter in letters:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, cycles = set(), 0
    for start in range(strands):
        if start not in seen:
            cycles += 1
            cur = start
            while cur not in seen:
                seen.add(cur)
                cur = perm[cur]
    return cycles


def display(torsion, free_rank: int) -> str:
    """Group display string as README documents it: free part, then the
    torsion factors largest first, e.g. "Z + Z_40 + Z_8"; "0" if trivial."""
    parts = ([] if free_rank == 0 else ["Z"] if free_rank == 1 else [f"Z^{free_rank}"])
    parts += [f"Z_{d}" for d in sorted(torsion, reverse=True)]
    return " + ".join(parts) if parts else "0"


def coloring_group(int_matrix: list[list[int]]) -> tuple[list[int], int]:
    """(torsion smallest first, free rank) of the cokernel, by sympy."""
    if not int_matrix:
        return [], 0
    factors = [abs(int(d)) for d in invariant_factors(SympyMatrix(int_matrix), domain=ZZ)]
    torsion = sorted(d for d in factors if d > 1)
    return torsion, len(int_matrix[0]) - sum(1 for d in factors if d)


# ---------------------------------------------------------------------------
# Wheel family closed forms, from the benchmark's own sequences
# ---------------------------------------------------------------------------


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas(n: int) -> int:
    return fibonacci(n - 1) + fibonacci(n + 1)


def wheel_torsion(n: int) -> list[int]:
    """Z_{L_n}^2 for odd n, Z_{F_n} + Z_{5F_n} for even n; factors 1 dropped."""
    factors = [lucas(n), lucas(n)] if n % 2 else [fibonacci(n), 5 * fibonacci(n)]
    return [d for d in factors if d > 1]


def chebyshev_s(k: int, z: Fraction) -> Fraction:
    """S_k(z) with S_-1 = 0, S_0 = 1, S_k = z*S_{k-1} - S_{k-2}."""
    prev, cur = Fraction(0), Fraction(1)
    if k == -1:
        return prev
    for _ in range(k):
        prev, cur = cur, z * cur - prev
    return cur


def wheel_g(n: int, t0: int) -> Fraction:
    """g_n at t0: S_{k-1} for n = 2k, S_{k-1} + S_k for n = 2k+1, at
    z = 1 - t0 - 1/t0."""
    z = 1 - Fraction(t0) - Fraction(1, t0)
    k = n // 2
    return chebyshev_s(k - 1, z) if n % 2 == 0 else chebyshev_s(k - 1, z) + chebyshev_s(k, z)


DET_A_PRIME = {1: "1", 0: "-t^-1+3-t"}  # by parity of n


def check_wheel_row(n: int, group: str, gens: list[str], alexander: str, points) -> None:
    """One wheel index: group, ideal generators and Alexander polynomial."""
    torsion = wheel_torsion(n)
    expect(group == display(torsion, 0), f"n={n}: group {group!r}, expected {display(torsion, 0)!r}")
    g, h = (parse_poly(x) for x in gens)
    delta = parse_poly(alexander)
    expect(canonical_associate(g) and canonical_associate(h), f"n={n}: generators not normalized")
    expect(canonical_associate(delta), f"n={n}: alexander not normalized")
    det_a_prime = parse_poly(DET_A_PRIME[n % 2])
    for t0 in points:
        gn = wheel_g(n, t0)
        expect(is_unit_multiple(evaluate(g, t0), gn, t0), f"n={n}: first generator != g_n at t={t0}")
        expect(
            is_unit_multiple(evaluate(h, t0), gn * evaluate(det_a_prime, t0), t0),
            f"n={n}: second generator != det(A')*g_n at t={t0}",
        )
        expect(
            is_unit_multiple(evaluate(delta, t0), evaluate(g, t0) * evaluate(h, t0), t0),
            f"n={n}: alexander != product of generators at t={t0}",
        )
    expect(is_palindromic_up_to_sign(delta), f"n={n}: alexander not palindromic")
    order = math.prod(torsion)
    expect(abs(evaluate(delta, -1)) == order, f"n={n}: |alexander(-1)| != group order {order}")
    expect(sorted(abs(evaluate(p, -1)) for p in (g, h) if abs(evaluate(p, -1)) > 1) == torsion,
           f"n={n}: generators at t=-1 do not give the group")


# ---------------------------------------------------------------------------
# Per-subcommand checks
# ---------------------------------------------------------------------------


def _braid_inputs(doc: dict, spec: dict, command: str) -> None:
    expect(doc.get("command") == command, f"command {doc.get('command')!r}")
    inputs = doc["inputs"]
    expect(inputs == {"braid": list(spec["letters"]), "strands": spec["strands"]},
           f"inputs echo {inputs!r}")


def check_colorgroup(spec: dict, stdout: str, rng) -> None:
    doc = json.loads(stdout)
    _braid_inputs(doc, spec, "colorgroup")
    results = doc["results"]
    mine = reduced(burau_at(spec["strands"], spec["letters"], -1))
    theirs = [[int(x) for x in row] for row in results["reduced_matrix"]]
    expect(theirs == mine, "reduced t=-1 matrix differs from the Fox coloring rule")
    torsion, free_rank = coloring_group(mine)
    group = results["group"]
    expect([int(d) for d in group["torsion"]] == torsion, f"torsion {group['torsion']} != {torsion}")
    expect(group["free_rank"] == free_rank, f"free rank {group['free_rank']} != {free_rank}")
    expect(group["display"] == display(torsion, free_rank), f"display {group['display']!r}")
    determinant = 0 if free_rank else math.prod(torsion)
    expect(int(results["determinant"]) == determinant, f"determinant {results['determinant']} != {determinant}")
    expect(abs(det(mine)) == determinant, "determinant != |det| of the relation matrix")


def check_abf(spec: dict, stdout: str, rng, points: int = 2) -> None:
    doc = json.loads(stdout)
    _braid_inputs(doc, spec, "abf")
    strands, letters = spec["strands"], spec["letters"]
    results = doc["results"]
    entries = [[parse_poly(x) for x in row] for row in results["matrix"]]
    delta = parse_poly(results["alexander"])
    expect(len(entries) == strands - 1 and all(len(r) == strands - 1 for r in entries),
           "presentation matrix has the wrong shape")
    for t0 in rng.sample((2, 3, 5, 7, -2, -3, -5), points):
        mine = reduced(burau_at(strands, letters, Fraction(t0)))
        theirs = [[evaluate(p, t0) for p in row] for row in entries]
        expect(theirs == mine, f"presentation matrix differs from Burau at t={t0}")
        expect(is_unit_multiple(det(mine), evaluate(delta, t0), t0),
               f"det at t={t0} is not a unit multiple of alexander({t0})")
    det_minus_one = abs(det(reduced(burau_at(strands, letters, -1))))
    expect(abs(evaluate(delta, -1)) == det_minus_one,
           f"|alexander(-1)| != coloring determinant {det_minus_one}")
    if delta:
        expect(canonical_associate(delta), "alexander not normalized")
        expect(is_palindromic_up_to_sign(delta), "alexander not palindromic up to sign")
        if closure_components(strands, letters) == 1:
            expect(abs(evaluate(delta, 1)) == 1, "alexander(1) != +-1 for a knot")


def check_wheel(spec: dict, stdout: str, rng) -> None:
    doc = json.loads(stdout)
    n, moduli = spec["n"], spec["moduli"]
    expect(doc.get("command") == "wheel", "command")
    expect(doc["inputs"] == {"n": n, "moduli": moduli}, f"inputs echo {doc['inputs']!r}")
    results = doc["results"]
    torsion = wheel_torsion(n)
    for key in ("closed_form_group", "burau_group"):
        group = results[key]
        expect([int(d) for d in group["torsion"]] == torsion and group["free_rank"] == 0,
               f"n={n}: {key} {group['torsion']} != {torsion}")
        expect(group["display"] == display(torsion, 0), f"n={n}: {key} display {group['display']!r}")
    check_wheel_row(n, display(torsion, 0), results["ideal_gens"], results["alexander"],
                    rng.sample((2, 3, -2, 5), 2))
    expect(results["det_a_prime"] == DET_A_PRIME[n % 2], f"n={n}: det_a_prime {results['det_a_prime']!r}")
    at_minus_one = [abs(evaluate(parse_poly(g), -1)) for g in results["ideal_gens"]]
    expect([int(v) for v in results["ideal_gens_at_minus_one"]] == at_minus_one,
           f"n={n}: ideal_gens_at_minus_one")
    expect([c["modulus"] for c in results["brute_force"]] == moduli, f"n={n}: brute-force moduli")
    for c in results["brute_force"]:
        m = c["modulus"]
        predicted = m * math.prod(math.gcd(d, m) for d in torsion)
        expect(int(c["count"]) == predicted and int(c["predicted"]) == predicted and c["ok"] is True,
               f"n={n}: brute force mod {m}: {c} != {predicted}")
    expect(results["goeritz_ok"] is True, f"n={n}: goeritz_ok")
    expect(doc["consistency"] is True, f"n={n}: consistency")


def table_rows(fmt: str, stdout: str) -> list[tuple[int, str, list[str], str]]:
    """(n, group, [gen1, gen2], alexander) per row, from any table format."""
    lines = stdout.splitlines()
    if fmt == "json":
        doc = json.loads(stdout)
        expect(doc.get("command") == "table", "command")
        return [(r["n"], r["group"], r["ideal_gens"], r["alexander"]) for r in doc["results"]["rows"]]
    rows = []
    if fmt == "csv":
        expect(lines[0] == "n,group,ideal_gen_1,ideal_gen_2,alexander", "csv header")
        for line in lines[1:]:
            n, group, g1, g2, alexander = line.split(",")
            rows.append((int(n), group, [g1, g2], alexander))
    elif fmt == "markdown":
        expect(lines[:2] == ["| n | group | ideal generators | alexander |",
                             "|---|-------|------------------|-----------|"], "markdown header")
        for line in lines[2:]:
            m = re.fullmatch(r"\| (\d+) \| (.+) \| (\S+), (\S+) \| (\S+) \|", line)
            expect(m is not None, f"markdown row {line[:80]!r}")
            rows.append((int(m[1]), m[2], [m[3], m[4]], m[5]))
    else:
        for line in lines:
            m = re.fullmatch(r"n=(\d+): (.+); gens \((\S+), (\S+)\); alexander (\S+)", line)
            expect(m is not None, f"text row {line[:80]!r}")
            rows.append((int(m[1]), m[2], [m[3], m[4]], m[5]))
    return rows


def check_table(spec: dict, stdout: str, rng) -> None:
    rows = table_rows(spec["format"], stdout)
    expect([r[0] for r in rows] == list(range(spec["from"], spec["to"] + 1)), "table rows != window")
    points = rng.sample((2, 3, -2, 5), 2)
    for n, group, gens, alexander in rows:
        check_wheel_row(n, group, gens, alexander, points)


def check_verify(spec: dict, stdout: str, rng) -> None:
    if spec["format"] == "json":
        doc = json.loads(stdout)
        expect(doc["inputs"] == {"max_n": spec["max_n"], "max_index": spec["max_index"]}, "inputs echo")
        suites = doc["results"]["suites"]
        expect(bool(suites) and all(s["passed"] and s["counterexample"] is None and s["cases"] > 0
                                    for s in suites), "a verify suite failed")
        expect(doc["consistency"] is True, "consistency")
    else:
        lines = stdout.splitlines()
        expect(len(lines) > 1 and all(line.startswith("ok   ") for line in lines[:-1]),
               "a verify suite failed")
        expect(lines[-1] == "all suites passed", "verify summary")


CHECKS = {
    "colorgroup": check_colorgroup,
    "abf": check_abf,
    "wheel": check_wheel,
    "table": check_table,
    "verify": check_verify,
}


def check(spec: dict, rc: int, stdout: str, rng) -> None:
    """Raise Mismatch unless the request exited 0 with a correct output."""
    expect(rc == 0, f"exit code {rc}")
    try:
        CHECKS[spec["command"]](spec, stdout, rng)
    except (AttributeError, KeyError, ValueError, TypeError, IndexError) as exc:
        raise Mismatch(f"malformed output: {exc!r}") from exc
