"""Record the CLI's answers on a fixed corpus for test_cli_digests.py.

    PYTHONPATH=src python3 tests/record_cli_digests.py [--check]

For each argv of CORPUS it runs foxabf.cli.main in-process and writes the
[argv, exit code, sha256 of stdout, sha256 of stderr] record, one a line,
to tests/cli_digests.json.  With --check it writes nothing, compares the
answers with that file and exits 1 on the first difference.  The CLI's
output is a contract (byte-identical text and JSON, stable exit codes), so
rerun this script only when the corpus or that contract changes on purpose.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from foxabf import cli

OUTPUT = Path(__file__).parent / "cli_digests.json"


def seeded_words():
    """240 seeded colorgroup/abf argvs on 2-6 strands with 0-12 letters,
    alternating commands, half of them in JSON."""
    rng = random.Random(20261020)
    for i in range(240):
        strands = rng.randint(2, 6)
        letters = [
            rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, 12))
        ]
        argv = [("colorgroup", "abf")[i % 2], " ".join(map(str, letters)), "--strands", str(strands)]
        yield argv + (["--format", "json"] if i % 4 >= 2 else [])


def corpus():
    for n in [*range(1, 41), 100, 171, 270]:
        for fmt in ("text", "json"):
            yield ["wheel", str(n), "--moduli", "2", "3", "5", "--format", fmt]
    # brute-force corners: a repeated modulus, no modulus after --moduli, one even modulus
    for n, moduli in (("6", ["2", "2", "5"]), ("6", []), ("7", ["4"])):
        for fmt in ("text", "json"):
            yield ["wheel", n, "--moduli", *moduli, "--format", fmt]
    for fmt in ("text", "json", "csv", "markdown"):
        yield ["table", "--from", "1", "--to", "60", "--format", fmt]
    for fmt in ("text", "json"):
        yield ["verify", "--format", fmt]
    yield from seeded_words()
    yield from REFUSALS_AND_HELP


# Usage errors (exit 2, nothing on stdout) and help requests (exit 0).
REFUSALS_AND_HELP = [
    ["wheel", "0"],
    ["wheel", "801"],
    ["wheel", "3", "--moduli", "1"],
    ["wheel", "2", "--moduli", "216"],
    ["table", "--from", "3", "--to", "2"],
    ["table", "--from", "1", "--to", "251"],
    ["table", "--from", "1", "--to", "301"],
    ["table", "--from", "1"],
    ["verify", "--max-n", "121"],
    ["verify", "--max-index", "0"],
    ["colorgroup", "1 x"],
    ["colorgroup", "1", "--strands", "300"],
    ["abf", '{"letters": [1], "extra": 2}'],
    ["frob"],
    [],
    ["-h"],
    ["wheel", "-h"],
    ["--format=json"],
]


CORPUS = list(corpus())


def answer(argv):
    """[argv, exit code, sha256 of stdout, sha256 of stderr] of one
    in-process request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    digest = [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]
    return [argv, code, *digest]


def recorded():
    return json.loads(OUTPUT.read_text())


def main(argv) -> int:
    if argv == ["--check"]:
        wanted = recorded()
        if [want[0] for want in wanted] != CORPUS:
            print("the recording is not of this corpus", file=sys.stderr)
            return 1
        for want in wanted:
            got = answer(want[0])
            if got != want:
                print(f"differs from the recording: {got}", file=sys.stderr)
                return 1
        print(f"{len(CORPUS)} answers match {OUTPUT}")
        return 0
    lines = [json.dumps(answer(a), separators=(",", ":")) for a in CORPUS]
    OUTPUT.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"{len(lines)} answers written to {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
