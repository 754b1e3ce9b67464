"""Command-line interface.

Subcommands: colorgroup, abf, wheel, verify, table.  Output is text by
default; --format json emits a deterministic document (stable key order,
canonical polynomial strings, big integers as decimal strings) that
round-trips byte-identically through json.loads/render_json.  Exit codes:
0 success, 1 verification failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .alexander import general_presentation, wheel_module
from .braid import _LETTER, BraidParseError, BraidWord, _echo, burau_property_check, parse_braid
from .coloring import EnumerationLimitError, coloring_group
from .ring import AbelianGroup, Matrix
from .sequences import identity_suite, recurrence_solver_check
from .wheel import (
    cross_verify,
    fox_closed_form,
    wheel_cross_verify_check,
    wheel_matrix_routes_check,
)

# Largest indices the CLI accepts.  Exact wheel arithmetic at index n
# costs about n^3, a table the sum of n^3 over its rows and verify about
# max_n^4 (the identity suite about max_index^3); past these bounds one
# request runs for minutes.
MAX_WHEEL_INDEX = 800
MAX_TABLE_INDEX = 300
MAX_TABLE_CUBES = 984_390_625  # sum of n^3 for n = 1..250
MAX_VERIFY_N = 120
MAX_IDENTITY_INDEX = 120


def _group_payload(group: AbelianGroup) -> dict:
    return {
        "torsion": [str(d) for d in group.torsion],
        "free_rank": group.free_rank,
        "display": group.describe(),
    }


def _matrix_payload(matrix: Matrix) -> list[list[str]]:
    return [[str(entry) for entry in row] for row in matrix.entries()]


def render_json(document: dict) -> str:
    """The byte-exact JSON form used by every subcommand."""
    return json.dumps(document, indent=2, ensure_ascii=False)


def _emit(document: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(render_json(document))
    else:
        for line in text_lines:
            print(line)


def _ascii_int(text: str) -> int:
    """argparse type: an optionally signed integer in ASCII digits."""
    if _LETTER.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"invalid integer {_echo(text)}")


def _parse_braid_arg(parser: argparse.ArgumentParser, text: str, strands: int | None) -> BraidWord:
    try:
        return parse_braid(text, strands=strands)
    except BraidParseError as exc:
        parser.error(str(exc))  # exits 2


def _cmd_colorgroup(parser, args) -> int:
    word = _parse_braid_arg(parser, args.braid, args.strands)
    result = coloring_group(word)
    document = {
        "command": "colorgroup",
        "inputs": {"braid": list(word.letters), "strands": word.strands},
        "results": {
            "group": _group_payload(result.group),
            "determinant": str(result.determinant),
            "reduced_matrix": _matrix_payload(result.reduced_matrix),
        },
    }
    lines = [
        f"braid: {word.as_text() or '(identity)'} on {word.strands} strands",
        f"reduced coloring group: {result.group.describe()}",
        f"determinant: {result.determinant}",
    ]
    _emit(document, args.format, lines)
    return 0


def _cmd_abf(parser, args) -> int:
    word = _parse_braid_arg(parser, args.braid, args.strands)
    presentation = general_presentation(word)
    document = {
        "command": "abf",
        "inputs": {"braid": list(word.letters), "strands": word.strands},
        "results": {
            "matrix": _matrix_payload(presentation.matrix),
            "alexander": str(presentation.alexander),
        },
    }
    lines = [
        f"braid: {word.as_text() or '(identity)'} on {word.strands} strands",
        "reduced presentation matrix:",
        *(
            "  [" + ", ".join(str(e) for e in row) + "]"
            for row in presentation.matrix.entries()
        ),
        f"alexander polynomial: {presentation.alexander}",
    ]
    _emit(document, args.format, lines)
    return 0


def _cmd_wheel(parser, args) -> int:
    if args.n < 1:
        parser.error("n must be at least 1")
    if args.n > MAX_WHEEL_INDEX:
        parser.error(f"n = {_echo(args.n)} exceeds the limit of {MAX_WHEEL_INDEX}")
    moduli = tuple(args.moduli or ())
    if any(m < 2 for m in moduli):
        parser.error("every modulus must be at least 2")
    try:
        report = cross_verify(args.n, brute_force_moduli=moduli)
    except EnumerationLimitError as exc:
        parser.error(str(exc))
    module = report.module
    gens = module.ideal_gens
    document = {
        "command": "wheel",
        "inputs": {"n": args.n, "moduli": list(moduli)},
        "results": {
            "closed_form_group": _group_payload(report.closed_form_group),
            "burau_group": _group_payload(report.burau_group),
            "ideal_gens": [str(g) for g in gens],
            "det_a_prime": str(module.det_a_prime),
            "alexander": str(module.alexander),
            "ideal_gens_at_minus_one": [str(v) for v in report.abf_gens_at_minus_one],
            "brute_force": [
                {
                    "modulus": c.modulus,
                    "count": str(c.count),
                    "predicted": str(c.predicted),
                    "ok": c.ok,
                }
                for c in report.brute_force_checks
            ],
            "goeritz_ok": report.goeritz_ok,
        },
        "consistency": report.all_consistent,
    }
    lines = [
        f"wheel n = {args.n}: closure of (sigma_1 sigma_2^-1)^{args.n}",
        f"closed-form group:  {report.closed_form_group.describe()}",
        f"burau-route group:  {report.burau_group.describe()}",
        f"module generators:  ({gens[0]}, {gens[1]})",
        f"det A' = {module.det_a_prime}",
        f"alexander polynomial: {module.alexander}",
        f"generators at t=-1: {list(report.abf_gens_at_minus_one)}",
    ]
    for c in report.brute_force_checks:
        verdict = "ok" if c.ok else "MISMATCH"
        lines.append(
            f"brute force mod {c.modulus}: {c.count} colorings, predicted {c.predicted} [{verdict}]"
        )
    lines.append(f"goeritz presentation agrees: {report.goeritz_ok}")
    lines.append(f"all routes consistent: {report.all_consistent}")
    _emit(document, args.format, lines)
    return 0 if report.all_consistent else 1


def _cmd_verify(parser, args) -> int:
    if args.max_n < 1 or args.max_index < 1:
        parser.error("--max-n and --max-index must be at least 1")
    if args.max_n > MAX_VERIFY_N or args.max_index > MAX_IDENTITY_INDEX:
        parser.error(f"--max-n is limited to {MAX_VERIFY_N}, --max-index to {MAX_IDENTITY_INDEX}")
    checks = identity_suite(args.max_index) + (
        recurrence_solver_check(min(40, args.max_index)),
        burau_property_check(),
        wheel_matrix_routes_check(args.max_n),
        wheel_cross_verify_check(args.max_n),
    )

    document = {
        "command": "verify",
        "inputs": {"max_n": args.max_n, "max_index": args.max_index},
        "results": {
            "suites": [
                {
                    "name": c.name,
                    "cases": c.cases,
                    "passed": c.passed,
                    "counterexample": c.counterexample,
                }
                for c in checks
            ]
        },
        "consistency": all(c.passed for c in checks),
    }
    lines = []
    for c in checks:
        status = "ok  " if c.passed else "FAIL"
        extra = "" if c.passed else f"  first counterexample: {c.counterexample}"
        lines.append(f"{status} {c.name} ({c.cases} cases){extra}")
    ok = all(c.passed for c in checks)
    lines.append("all suites passed" if ok else "verification FAILED")
    _emit(document, args.format, lines)
    return 0 if ok else 1


def _cmd_table(parser, args) -> int:
    if args.from_n < 1 or args.from_n > args.to_n:
        parser.error("need 1 <= --from <= --to")
    if args.to_n > MAX_TABLE_INDEX:
        parser.error(f"--to {_echo(args.to_n)} exceeds the limit of {MAX_TABLE_INDEX}")
    indices = range(args.from_n, args.to_n + 1)
    cubes = sum(n**3 for n in indices)
    if cubes > MAX_TABLE_CUBES:
        parser.error(f"the range's sum of n^3, {cubes}, exceeds the limit of {MAX_TABLE_CUBES}")
    rows = []
    for n in indices:
        group = fox_closed_form(n)
        module = wheel_module(n)
        rows.append(
            {
                "n": n,
                "group": group.describe(),
                "ideal_gens": [str(g) for g in module.ideal_gens],
                "alexander": str(module.alexander),
            }
        )
    document = {
        "command": "table",
        "inputs": {"from": args.from_n, "to": args.to_n},
        "results": {"rows": rows},
    }
    if args.format == "json":
        print(render_json(document))
    elif args.format == "csv":
        print("n,group,ideal_gen_1,ideal_gen_2,alexander")
        for row in rows:
            gens = row["ideal_gens"]
            print(f"{row['n']},{row['group']},{gens[0]},{gens[1]},{row['alexander']}")
    elif args.format == "markdown":
        print("| n | group | ideal generators | alexander |")
        print("|---|-------|------------------|-----------|")
        for row in rows:
            gens = ", ".join(row["ideal_gens"])
            print(f"| {row['n']} | {row['group']} | {gens} | {row['alexander']} |")
    else:
        for row in rows:
            gens = ", ".join(row["ideal_gens"])
            print(f"n={row['n']}: {row['group']}; gens ({gens}); alexander {row['alexander']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foxabf",
        description=(
            "Exact Fox coloring groups and Alexander-Burau-Fox modules of "
            "braid closures, with closed-form cross-checks for the wheel family."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_color = sub.add_parser("colorgroup", help="reduced Fox coloring group of a braid closure")
    p_color.add_argument("braid", help='braid word, e.g. "1 -2 1 -2"')
    p_color.add_argument("--strands", type=_ascii_int, default=None, help="strand count override")
    p_color.add_argument("--format", choices=("text", "json"), default="text")

    p_abf = sub.add_parser("abf", help="reduced ABF presentation and Alexander polynomial")
    p_abf.add_argument("braid", help='braid word, e.g. "1 -2 1 -2"')
    p_abf.add_argument("--strands", type=_ascii_int, default=None, help="strand count override")
    p_abf.add_argument("--format", choices=("text", "json"), default="text")

    p_wheel = sub.add_parser("wheel", help="cross-verified report for one wheel index")
    p_wheel.add_argument("n", type=_ascii_int, help="number of spokes (>= 1)")
    p_wheel.add_argument(
        "--moduli", type=_ascii_int, nargs="*", default=None, help="brute-force coloring moduli"
    )
    p_wheel.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify", help="run every identity and cross-route suite")
    p_verify.add_argument("--max-n", type=_ascii_int, default=20, dest="max_n")
    p_verify.add_argument("--max-index", type=_ascii_int, default=40, dest="max_index")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_table = sub.add_parser("table", help="closed-form table over a range of wheel indices")
    p_table.add_argument("--from", type=_ascii_int, required=True, dest="from_n")
    p_table.add_argument("--to", type=_ascii_int, required=True, dest="to_n")
    p_table.add_argument(
        "--format", choices=("text", "json", "csv", "markdown"), default="text"
    )

    return parser


_HANDLERS = {
    "colorgroup": _cmd_colorgroup,
    "abf": _cmd_abf,
    "wheel": _cmd_wheel,
    "verify": _cmd_verify,
    "table": _cmd_table,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return _HANDLERS[args.command](parser, args)


if __name__ == "__main__":
    sys.exit(main())
