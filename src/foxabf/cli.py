"""Command-line interface.

Subcommands: colorgroup, abf, wheel, verify, table.  Each handler returns
its JSON document and text lines, and main prints one of them: text by
default; --format json emits a deterministic document (stable key order,
canonical polynomial strings, big integers as decimal strings) that
round-trips byte-identically through json.loads/render_json.  -h/--help
hands its text to main, which prints it on the same path.  Exit codes:
0 success, 1 verification failure (a route disagreed, or an internal
consistency check failed: one stderr line names it) or a closed stdout,
2 usage or parse error.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

from .alexander import InternalConsistencyError, general_presentation, wheel_modules
from .braid import _LETTER, BraidParseError, _echo, parse_braid
from .coloring import EnumerationLimitError, coloring_group
from .ring import AbelianGroup, Matrix
from .sequences import identity_suite
from .wheel import cross_verify, fox_closed_form

# Largest indices the CLI accepts.  Exact wheel arithmetic at index n
# costs about n^3, a table at most the sum of n^3 over its rows and verify
# about max_n^4 (the identity suite about max_index^3); past these bounds
# one request runs for minutes.  A table's rows above the lowest two take
# one descent step each and cost less, but MAX_TABLE_CUBES stays as it
# was, so the same ranges are refused.
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


def _ideal_gens_payload(gens) -> list[str]:
    """The two ideal generators' strings; for odd n both are g_n (det A'_n
    = 1), and the equal second one is not rendered again."""
    first = str(gens[0])
    return [first, first if gens[1] == gens[0] else str(gens[1])]


def render_json(document: dict) -> str:
    """The byte-exact JSON form used by every subcommand."""
    return json.dumps(document, indent=2, ensure_ascii=False)


class _UsageError(ValueError):
    """A usage error: main() prints it under the usage line and exits 2."""


def _ascii_int(text: str) -> int:
    """Type of the integer arguments: an optionally signed integer in ASCII
    digits."""
    if _LETTER.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise _UsageError(f"invalid integer {_echo(text)}")


def _cmd_colorgroup(args) -> tuple[dict, list[str]]:
    word = parse_braid(args.braid, strands=args.strands)
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
    return document, [
        f"braid: {word.as_text() or '(identity)'} on {word.strands} strands",
        f"reduced coloring group: {result.group.describe()}",
        f"determinant: {result.determinant}",
    ]


def _cmd_abf(args) -> tuple[dict, list[str]]:
    word = parse_braid(args.braid, strands=args.strands)
    presentation = general_presentation(word)
    matrix = _matrix_payload(presentation.matrix)
    alexander = str(presentation.alexander)
    document = {
        "command": "abf",
        "inputs": {"braid": list(word.letters), "strands": word.strands},
        "results": {"matrix": matrix, "alexander": alexander},
    }
    return document, [
        f"braid: {word.as_text() or '(identity)'} on {word.strands} strands",
        "reduced presentation matrix:",
        *("  [" + ", ".join(row) + "]" for row in matrix),
        f"alexander polynomial: {alexander}",
    ]


def _cmd_wheel(args) -> tuple[dict, list[str]]:
    if args.n < 1:
        raise _UsageError("n must be at least 1")
    if args.n > MAX_WHEEL_INDEX:
        raise _UsageError(f"n = {_echo(args.n)} exceeds the limit of {MAX_WHEEL_INDEX}")
    moduli = tuple(args.moduli or ())
    if any(m < 2 for m in moduli):
        raise _UsageError("every modulus must be at least 2")
    report = cross_verify(args.n, brute_force_moduli=moduli)
    passed = {c.name: c.passed for c in report.checks}
    module = report.module
    gens = _ideal_gens_payload(module.ideal_gens)
    det_a_prime, alexander = str(module.det_a_prime), str(module.alexander)
    document = {
        "command": "wheel",
        "inputs": {"n": args.n, "moduli": list(moduli)},
        "results": {
            "closed_form_group": _group_payload(report.closed_form_group),
            "burau_group": _group_payload(report.burau_group),
            "ideal_gens": gens,
            "det_a_prime": det_a_prime,
            "alexander": alexander,
            "ideal_gens_at_minus_one": [str(v) for v in report.abf_gens_at_minus_one],
            "brute_force": [
                {
                    "modulus": m,
                    "count": str(count),
                    "predicted": str(predicted),
                    "ok": passed[f"brute_force_mod_{m}"],
                }
                for m, count, predicted in report.brute_force
            ],
            "goeritz_ok": passed["goeritz"],
        },
        "consistency": report.all_consistent,
    }
    lines = [
        f"wheel n = {args.n}: closure of (sigma_1 sigma_2^-1)^{args.n}",
        f"closed-form group:  {report.closed_form_group.describe()}",
        f"burau-route group:  {report.burau_group.describe()}",
        f"module generators:  ({gens[0]}, {gens[1]})",
        f"det A' = {det_a_prime}",
        f"alexander polynomial: {alexander}",
        f"generators at t=-1: {list(report.abf_gens_at_minus_one)}",
    ]
    for m, count, predicted in report.brute_force:
        verdict = "ok" if passed[f"brute_force_mod_{m}"] else "MISMATCH"
        lines.append(f"brute force mod {m}: {count} colorings, predicted {predicted} [{verdict}]")
    lines.append(f"goeritz presentation agrees: {passed['goeritz']}")
    lines.append(f"all routes consistent: {report.all_consistent}")
    return document, lines


def _cmd_verify(args) -> tuple[dict, list[str]]:
    if args.max_n < 1 or args.max_index < 1:
        raise _UsageError("--max-n and --max-index must be at least 1")
    if args.max_n > MAX_VERIFY_N or args.max_index > MAX_IDENTITY_INDEX:
        raise _UsageError(
            f"--max-n is limited to {MAX_VERIFY_N}, --max-index to {MAX_IDENTITY_INDEX}"
        )
    from . import verify  # only verify loads the suites and ``random``

    checks = identity_suite(args.max_index) + (
        verify.recurrence_solver_check(min(40, args.max_index)),
        verify.burau_property_check(),
        verify.wheel_matrix_routes_check(args.max_n),
        verify.wheel_cross_verify_check(args.max_n),
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
    lines.append("all suites passed" if document["consistency"] else "verification FAILED")
    return document, lines


# Each text layout of ``table``: its header lines, then the format of a row.
# JSON is rendered from the document.
_TABLE_LAYOUTS = {
    "text": ["n={n}: {group}; gens ({ideal_gens[0]}, {ideal_gens[1]}); alexander {alexander}"],
    "csv": [
        "n,group,ideal_gen_1,ideal_gen_2,alexander",
        "{n},{group},{ideal_gens[0]},{ideal_gens[1]},{alexander}",
    ],
    "markdown": [
        "| n | group | ideal generators | alexander |",
        "|---|-------|------------------|-----------|",
        "| {n} | {group} | {ideal_gens[0]}, {ideal_gens[1]} | {alexander} |",
    ],
}


def _cmd_table(args) -> tuple[dict, list[str]]:
    if args.from_n < 1 or args.from_n > args.to_n:
        raise _UsageError("need 1 <= --from <= --to")
    if args.to_n > MAX_TABLE_INDEX:
        raise _UsageError(f"--to {_echo(args.to_n)} exceeds the limit of {MAX_TABLE_INDEX}")
    indices = range(args.from_n, args.to_n + 1)
    cubes = sum(n**3 for n in indices)
    if cubes > MAX_TABLE_CUBES:
        raise _UsageError(
            f"the range's sum of n^3, {cubes}, exceeds the limit of {MAX_TABLE_CUBES}"
        )
    rows = [
        {
            "n": n,
            "group": fox_closed_form(n).describe(),
            "ideal_gens": _ideal_gens_payload(module.ideal_gens),
            "alexander": str(module.alexander),
        }
        for n, module in zip(indices, wheel_modules(indices))
    ]
    document = {
        "command": "table",
        "inputs": {"from": args.from_n, "to": args.to_n},
        "results": {"rows": rows},
    }
    *header, row_format = _TABLE_LAYOUTS.get(args.format, [""])
    return document, [*header, *(row_format.format_map(row) for row in rows)]


_DESCRIPTION = (
    "Exact Fox coloring groups and Alexander-Burau-Fox modules of braid closures,\n"
    "with closed-form cross-checks for the wheel family."
)
_REQUIRED = object()  # the default of an option that must be given
_FORMAT = ("format", ("text", "json"), False, "text")
_BRAID_OPTIONS = {"--strands": ("strands", _ascii_int, False, None), "--format": _FORMAT}

# The command-line grammar.  Each subcommand has its handler, a help line,
# its positional (name, type) or None, and its options, each mapping to
# (dest, type, many, default).  A type is a function of the token text or a
# tuple of choices; an option with many set takes every value up to the
# next option.  Every subcommand also takes -h/--help.
_GRAMMAR = {
    "colorgroup": (
        _cmd_colorgroup,
        "reduced Fox coloring group of a braid closure",
        ("braid", str),
        _BRAID_OPTIONS,
    ),
    "abf": (
        _cmd_abf,
        "reduced ABF presentation and Alexander polynomial",
        ("braid", str),
        _BRAID_OPTIONS,
    ),
    "wheel": (
        _cmd_wheel,
        "cross-verified report for one wheel index",
        ("n", _ascii_int),
        {"--moduli": ("moduli", _ascii_int, True, None), "--format": _FORMAT},
    ),
    "verify": (
        _cmd_verify,
        "run every identity and cross-route suite",
        None,
        {
            "--max-n": ("max_n", _ascii_int, False, 20),
            "--max-index": ("max_index", _ascii_int, False, 40),
            "--format": _FORMAT,
        },
    ),
    "table": (
        _cmd_table,
        "closed-form table over a range of wheel indices",
        None,
        {
            "--from": ("from_n", _ascii_int, False, _REQUIRED),
            "--to": ("to_n", _ascii_int, False, _REQUIRED),
            "--format": ("format", ("text", "json", "csv", "markdown"), False, "text"),
        },
    ),
}

# A token that starts with "-" but reads as a negative number is positional
# (argparse's pattern), so "-1" is a braid word.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: foxabf [-h] {" + ",".join(_GRAMMAR) + "} ..."
    _, _, positional, options = _GRAMMAR[command]
    parts = [f"usage: foxabf {command} [-h]"]
    for name, (dest, kind, many, default) in options.items():
        meta = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else dest.upper()
        usage = f"{name} [{meta} ...]" if many else f"{name} {meta}"
        parts.append(usage if default is _REQUIRED else f"[{usage}]")
    if positional is not None:
        parts.append(positional[0])
    return " ".join(parts)


class _Help(SystemExit):
    """-h/--help: main() prints the help text it carries and exits 0."""

    def __init__(self, command: str | None):
        super().__init__(0)
        lines = [_usage(command), ""]
        if command is None:
            lines += [_DESCRIPTION, ""]
            lines += [f"  {name:<12}{line}" for name, (_, line, _, _) in _GRAMMAR.items()]
        else:
            lines.append(_GRAMMAR[command][1])
        self.text = "\n".join(lines)


def _option(token: str, names) -> tuple[str | None, str | None] | None:
    """None if the token is positional, else (the option in ``names`` it
    names, None for an unknown option; the text after "=", or None).  A
    long option may be shortened to any unique prefix."""
    if token.startswith("--") and token != "--":
        name, eq, value = token.partition("=")
        matches = [option for option in names if option.startswith(name)]
        if name in names:
            matches = [name]
        if len(matches) > 1:
            raise _UsageError(f"ambiguous option: {_echo(name)} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token.startswith("-h"):
        return "--help", token[2:].removeprefix("=") if len(token) > 2 else None
    if token[:1] != "-" or token == "-" or _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def _convert(label: str, kind, text: str):
    if isinstance(kind, tuple):
        if text in kind:
            return text
        choices = ", ".join(repr(choice) for choice in kind)
        raise _UsageError(
            f"argument {label}: invalid choice: {_echo(text)} (choose from {choices})"
        )
    try:
        return kind(text)
    except _UsageError as exc:
        raise _UsageError(f"argument {label}: {exc}") from None


def _parse(argv: list[str]) -> SimpleNamespace:
    """The subcommand and its arguments as _GRAMMAR reads them.

    Options may come before or after the positional, as --opt value or
    --opt=value, and the last repeat of an option wins.  After the first
    "--" every token is positional.  Raises _UsageError, or _Help for
    -h/--help.
    """
    if not argv:
        raise _UsageError("the following arguments are required: command")
    if _option(argv[0], ("--help",)) == ("--help", None):
        raise _Help(None)
    command, tokens = _convert("command", tuple(_GRAMMAR), argv[0]), argv[1:]
    _, _, positional, options = _GRAMMAR[command]
    split = tokens.index("--") if "--" in tokens else len(tokens)
    kinds = [_option(token, ("--help", *options)) for token in tokens[:split]]
    kinds += [None] * (len(tokens) - split)
    values = {dest: default for dest, _, _, default in options.values()}
    filled_at = None  # index of the token that gave the positional
    extras = []
    i = 0
    while i < len(tokens):
        at, token, kind = i, tokens[i], kinds[i]
        i += 1
        if at == split:
            # the first "--" belongs to a positional it stands next to
            if positional is None or filled_at not in (None, at - 1):
                extras.append(token)
        elif kind is None and positional is not None and filled_at is None:
            values[positional[0]] = _convert(*positional, token)
            filled_at = at
        elif kind is None or kind[0] is None:
            extras.append(token)
        elif kind[0] == "--help":
            if kind[1] is not None:
                raise _UsageError(f"argument -h/--help: ignored explicit argument {_echo(kind[1])}")
            raise _Help(command)
        else:
            name, value = kind
            dest, type_, many, _ = options[name]
            if value is not None:
                texts = [value]
            else:
                end = i
                while end < split and kinds[end] is None and (many or end == i):
                    end += 1
                texts, i = tokens[i:end], end
                if not texts and not many:
                    raise _UsageError(f"argument {name}: expected one argument")
            converted = [_convert(name, type_, text) for text in texts]
            values[dest] = converted if many else converted[0]
    missing = [name for name, (dest, _, _, _) in options.items() if values[dest] is _REQUIRED]
    if positional is not None and filled_at is None:
        missing.insert(0, positional[0])
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(map(_echo, extras))}")
    return SimpleNamespace(command=command, **values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _GRAMMAR else None
    try:
        args = _parse(argv)
        document, lines = _GRAMMAR[command][0](args)
        text = render_json(document) if args.format == "json" else "\n".join(lines)
    except _Help as exc:
        document, text = None, exc.text
    except (_UsageError, BraidParseError, EnumerationLimitError) as exc:
        prog = "foxabf" if command is None else f"foxabf {command}"
        sys.stderr.write(f"{_usage(command)}\n{prog}: error: {exc}\n")
        raise SystemExit(2) from None
    except InternalConsistencyError as exc:
        # handlers print nothing, so stdout stays empty
        sys.stderr.write(f"foxabf {command}: error: internal consistency check failed: {exc}\n")
        return 1
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; devnull takes the interpreter's final
        # flush.  Only this branch needs os, which a request does not load.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    if document is None:
        raise SystemExit(0)
    return 0 if document.get("consistency", True) else 1


if __name__ == "__main__":
    sys.exit(main())
