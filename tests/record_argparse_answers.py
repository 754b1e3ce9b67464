"""Record Python 3.11's argparse answers for the grammar tests of test_cli.py.

    PYTHONPATH=src python3.11 tests/record_argparse_answers.py

For each argv of test_cli.GRAMMAR_CORPUS and of test_cli.random_argvs(), it
writes the [parsed values, exit code] pair that test_cli.parsed_by gives for
the argparse parser the CLI once used, one answer a line, to
tests/argparse_answers.json.  Argparse's answers change between Python
releases, so the grammar tests compare cli._parse with this recording on
every Python; rerun this script when the corpus or the grammar changes.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from test_cli import GRAMMAR_CORPUS, build_parser, parsed_by, random_argvs

OUTPUT = Path(__file__).parent / "argparse_answers.json"


def answers(argvs):
    parse = build_parser().parse_args
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        found = [parsed_by(parse, argv) for argv in argvs]
    return [json.dumps(answer, sort_keys=True, separators=(",", ":")) for answer in found]


def main() -> int:
    if sys.version_info[:2] != (3, 11):
        print("record under Python 3.11, whose argparse the grammar follows", file=sys.stderr)
        return 2
    fixed, rand = answers(GRAMMAR_CORPUS), answers(random_argvs())
    OUTPUT.write_text(
        '{"fixed": [\n' + ",\n".join(fixed) + '\n], "random": [\n' + ",\n".join(rand) + "\n]}\n"
    )
    print(f"{len(fixed)} fixed and {len(rand)} random answers written to {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
