"""CLI behavior: outputs, exit codes, and deterministic JSON."""

import argparse
import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from foxabf import alexander, cli, coloring, ring, sequences
from foxabf.sequences import IdentityCheck


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run(argv, capsys)
    return code, out, json.loads(out)


def count_calls(monkeypatch, module, name):
    """Wrap module.name (module may be a class) and the same object in
    every foxabf namespace that binds it; the returned list grows by one
    per call."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    for module_name, namespace in list(sys.modules.items()):
        if module_name.startswith("foxabf") and getattr(namespace, name, None) is original:
            monkeypatch.setattr(namespace, name, counted)
    return calls


# -- colorgroup -----------------------------------------------------------------


def test_colorgroup_wheel_three(capsys):
    code, out = run(["colorgroup", "1 -2 1 -2 1 -2"], capsys)
    assert code == 0
    assert "Z_4 + Z_4" in out
    assert "determinant: 16" in out


def test_colorgroup_unknot_one_strand(capsys):
    code, out, doc = run_json(["colorgroup", "", "--strands", "1", "--format", "json"], capsys)
    assert code == 0
    assert doc["results"]["group"]["display"] == "0"
    assert doc["results"]["determinant"] == "1"


def test_colorgroup_bad_token_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["colorgroup", "1 0"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["colorgroup", '{"strands": true, "letters": []}'],
        ["colorgroup", '{"letters": ["1 -2", "1"]}'],
        ["colorgroup", '{"letters": [[1,2]]}'],
        ["colorgroup", '{"letters": [1], "bogus": 3}'],
        ["colorgroup", "\uff11 2"],
        ["colorgroup", "1", "--strands", "100000"],
        ["abf", '{"strands": 100000, "letters": [1]}'],
        ["colorgroup", '{"letters": ' + '[' * 5000 + ']' * 5000 + '}'],
    ],
)
def test_malformed_or_oversized_braid_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["colorgroup", "1", "--strands", "\uff15"],
        ["abf", "1", "--strands", "\u0665"],
        ["wheel", "\uff11\uff12"],
        ["wheel", "2", "--moduli", "\uff15"],
        ["verify", "--max-n", "\uff12"],
        ["verify", "--max-index", "\uff12"],
        ["table", "--from", "\uff11", "--to", "3"],
        ["table", "--from", "1", "--to", "1_0"],
        ["table", "--from", " 1", "--to", "3"],
    ],
)
def test_non_ascii_integer_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


NINES = "9" * 5000  # past the 4300 digits int() converts
LONG = "9" * 4300  # converts, but the strand count it implies would not


@pytest.mark.parametrize(
    "argv",
    [
        ["wheel", NINES],
        ["colorgroup", "1 " + NINES],
        ["colorgroup", "1 " + LONG],
        ["wheel", LONG],
        ["colorgroup", "1", "--strands", LONG],
        ["colorgroup", json.dumps({"letters": [NINES]})],
        ["wheel", "3", "--moduli", "9" * 2000],
        ["wheel", "3", "--bogus" + "9" * 5000],
        ["table", "--from", "1", "--to", "3", "--format", "9" * 3000],
        ["9" * 3000],
    ],
)
def test_oversized_integer_exits_2_with_a_short_message(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "_ascii_int" not in captured.err
    assert "9" * 100 not in captured.err
    assert len(captured.err) < 400


def test_colorgroup_json_braid_input(capsys):
    code, out = run(["colorgroup", '{"strands": 3, "letters": [1, -2, 1, -2, 1, -2]}'], capsys)
    assert code == 0
    assert "Z_4 + Z_4" in out


# -- abf ---------------------------------------------------------------------------


def test_abf_figure_eight(capsys):
    code, out, doc = run_json(["abf", "1 -2 1 -2", "--format", "json"], capsys)
    assert code == 0
    assert doc["results"]["alexander"] == "1-3*t+t^2"


def test_abf_split_unlink(capsys):
    code, out, doc = run_json(["abf", "1 -1", "--format", "json"], capsys)
    assert code == 0
    assert doc["results"]["alexander"] == "0"


def test_abf_unknot_two_strands(capsys):
    code, out, doc = run_json(["abf", "1", "--strands", "2", "--format", "json"], capsys)
    assert code == 0
    assert doc["results"]["alexander"] == "1"


@pytest.mark.parametrize(
    "argv, dets, alexander",
    [
        (["abf", "1 1 1", "--strands", "5"], 0, "0"),
        (["abf", "1 3 -1 3"], 0, "0"),  # sigma_2 absent
        (["abf", "", "--strands", "3"], 0, "0"),
        (["abf", "1 -2 1 -2"], 1, "1-3*t+t^2"),
    ],
)
def test_abf_takes_no_determinant_of_a_split_word(argv, dets, alexander, capsys, monkeypatch):
    # a word without some sigma_i closes to a split link: Delta = 0 is read
    # off the word, and only a word using every generator runs Bareiss
    calls = count_calls(monkeypatch, ring.Matrix, "det")
    code, out = run(argv, capsys)
    assert code == 0
    assert out.splitlines()[-1] == f"alexander polynomial: {alexander}"
    assert len(calls) == dets


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_abf_renders_each_polynomial_once(fmt, capsys, monkeypatch):
    # the text rows join the strings of the JSON matrix: 3 x 3 entries and
    # the Alexander polynomial
    renders = count_calls(monkeypatch, ring.LaurentPoly, "to_str")
    code, _ = run(["abf", "1 -2 3 -2 1", "--format", fmt], capsys)
    assert code == 0
    assert len(renders) == 3 * 3 + 1


# -- wheel --------------------------------------------------------------------------


def test_wheel_five(capsys):
    code, out, doc = run_json(["wheel", "5", "--format", "json"], capsys)
    assert code == 0
    assert doc["consistency"] is True
    assert doc["results"]["closed_form_group"]["torsion"] == ["11", "11"]
    assert doc["results"]["ideal_gens"][0] == doc["results"]["ideal_gens"][1]
    assert doc["results"]["det_a_prime"] == "1"


def test_wheel_two_brute_force(capsys):
    code, out, doc = run_json(["wheel", "2", "--moduli", "5", "--format", "json"], capsys)
    assert code == 0
    checks = doc["results"]["brute_force"]
    assert checks == [{"modulus": 5, "count": "25", "predicted": "25", "ok": True}]


def test_wheel_zero_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["wheel", "0"])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "usage: foxabf wheel [-h] [--moduli [MODULI ...]] [--format {text,json}] n",
        "foxabf wheel: error: n must be at least 1",
    ]


def test_wheel_enumeration_cap_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["wheel", "2", "--moduli", "216"])  # 216^3 > 10^7 assignments
    assert info.value.code == 2
    assert "216^3 = 10077696 assignments exceed the cap 10000000" in capsys.readouterr().err


def test_wheel_refuses_an_over_cap_modulus_before_any_route_runs(capsys, monkeypatch):
    # the order of the moduli changes nothing: mod 200 is not counted
    # (4 s of enumeration) before 216^3 is refused
    counts = count_calls(monkeypatch, coloring, "brute_force_coloring_count")
    errors = []
    for moduli in (["216", "200"], ["200", "216"]):
        with pytest.raises(SystemExit) as info:
            cli.main(["wheel", "3", "--moduli", *moduli])
        assert info.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].endswith(
        "foxabf wheel: error: 216^3 = 10077696 assignments exceed the cap 10000000\n"
    )
    assert counts == []


def test_wheel_computes_the_module_once(capsys, monkeypatch):
    builds = count_calls(monkeypatch, alexander, "wheel_abf_matrix_closed")
    modules = count_calls(monkeypatch, alexander, "wheel_module")
    code, _ = run(["wheel", "7"], capsys)
    assert code == 0
    assert (len(builds), len(modules)) == (1, 1)


def test_wheel_builds_each_wheel_matrix_once(capsys, monkeypatch):
    # one formula builds both matrices: A_n for the t = -1 route of
    # cross_verify, -A'_n for the Euclidean reduction and -A'_n again for
    # cross_verify's Bareiss determinant, which stays independent of the
    # reduction's matrix
    builds = count_calls(monkeypatch, alexander, "_wheel_matrix")
    code, _ = run(["wheel", "7"], capsys)
    assert code == 0
    assert len(builds) == 3


def test_wheel_takes_one_determinant_and_no_division(capsys, monkeypatch):
    # the Euclidean reduction reads det A'_n off its column operations, and
    # the Alexander polynomial is the product of the ideal generators, so
    # the one determinant is cross_verify's Bareiss det of -A'_n; its one
    # Bareiss step would divide by the initial pivot 1, which det skips
    divisions = count_calls(monkeypatch, ring, "divide_exact")
    dets = count_calls(monkeypatch, ring.Matrix, "det")
    code, _ = run(["wheel", "7"], capsys)
    assert code == 0
    assert (len(divisions), len(dets)) == (0, 1)


def test_wheel_propagates_the_coloring_rule_once(capsys):
    coloring._closing_rows.cache_clear()
    code, _ = run(["wheel", "7", "--moduli", "2", "3", "5", "7"], capsys)
    assert code == 0
    info = coloring._closing_rows.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_a_cold_wheel_request_jumps_to_its_chebyshev_values(capsys, monkeypatch):
    # from cold sequences, the (n - 1)//2 descent steps are the bulk of the
    # Laurent products: S_k near k = n/2 is reached by doubling, not by
    # n/2 recurrence steps, and no Laurent A_n is built
    cold = sequences._Chebyshev(ring.LaurentPoly.one(), sequences.Z_OF_T)
    monkeypatch.setattr(sequences, "_CHEB_S_SUBST", cold)
    monkeypatch.setattr(sequences, "_CHEB_S_AT", {})
    products = [count_calls(monkeypatch, ring.LaurentPoly, op) for op in ("__mul__", "__rmul__")]
    code, _ = run(["wheel", "800", "--moduli", "2", "3", "5", "7"], capsys)
    assert code == 0
    assert sum(map(len, products)) <= 800 // 2 + 60


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_wheel_renders_each_polynomial_once(fmt, capsys, monkeypatch):
    # two ideal generators, det A' and the Alexander polynomial, each once
    renders = count_calls(monkeypatch, ring.LaurentPoly, "to_str")
    code, _ = run(["wheel", "7", "--format", fmt], capsys)
    assert code == 0
    assert len(renders) <= 4


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_wheel_reports_a_bareiss_det_that_disagrees(fmt, capsys, monkeypatch):
    # the Bareiss det of -A'_n is the independent route to det A'_n
    exact = ring.Matrix.det
    monkeypatch.setattr(ring.Matrix, "det", lambda self: exact(self) + 1)
    code, out = run(["wheel", "7", "--format", fmt], capsys)
    assert code == 1
    if fmt == "json":
        assert json.loads(out)["consistency"] is False
    else:
        assert out.splitlines()[-1] == "all routes consistent: False"


@pytest.mark.parametrize(
    "argv",
    [
        ["wheel", str(cli.MAX_WHEEL_INDEX + 1)],
        ["table", "--from", "1", "--to", str(cli.MAX_TABLE_INDEX + 1)],
        ["table", "--from", "1", "--to", "251"],  # sum of n^3 one row past the limit
        ["table", "--from", "2", "--to", "300"],
        ["verify", "--max-n", str(cli.MAX_VERIFY_N + 1)],
        ["verify", "--max-index", str(cli.MAX_IDENTITY_INDEX + 1)],
    ],
)
def test_index_over_its_limit_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_table_cube_limit_is_the_range_1_to_250():
    assert sum(n**3 for n in range(1, 251)) == cli.MAX_TABLE_CUBES


# -- verify ---------------------------------------------------------------------------


def test_verify_small(capsys):
    code, out = run(["verify", "--max-n", "3", "--max-index", "4"], capsys)
    assert code == 0
    assert "all suites passed" in out


def test_verify_degenerate(capsys):
    code, out = run(["verify", "--max-n", "1", "--max-index", "1"], capsys)
    assert code == 0


def test_verify_reports_failure(capsys, monkeypatch):
    # simulate a corrupted build: one suite yields a counterexample
    broken = (IdentityCheck("broken_suite", 3, "m=1, n=2"),)
    monkeypatch.setattr(cli, "identity_suite", lambda max_index: broken)
    code, out = run(["verify", "--max-n", "1", "--max-index", "2"], capsys)
    assert code == 1
    assert "FAIL broken_suite" in out
    assert "m=1, n=2" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["wheel", "9"],
        ["wheel", "9", "--format", "json"],
        ["table", "--from", "8", "--to", "10"],
        ["table", "--from", "8", "--to", "10", "--format", "csv"],
        ["table", "--from", "2", "--to", "12"],
        ["table", "--from", "2", "--to", "12", "--format", "csv"],
    ],
)
def test_failed_internal_check_is_named_on_one_stderr_line(argv, capsys, monkeypatch):
    # g_10 off by 1 leaves n = 9's first row off the Chebyshev pairs: from 8
    # row 9's descent misses row 1's first row, from 2 its one step misses
    # row 7's.  Only the Laurent g_10 is off; the integer one, at t = -1,
    # is exact
    exact = alexander.wheel_g
    laurent = alexander._LAURENT

    def perturbed(m, ring=laurent):
        return exact(m, ring) + (1 if m == 10 and ring is laurent else 0)

    monkeypatch.setattr(alexander, "wheel_g", perturbed)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"foxabf {argv[0]}: error: internal consistency check failed: "
        "Euclidean descent did not reach (1, 0) for n = 9\n"
    )


# -- table ----------------------------------------------------------------------------


def test_table_lists_known_groups(capsys):
    code, out = run(["table", "--from", "2", "--to", "7"], capsys)
    assert code == 0
    for display in ("Z_5", "Z_4 + Z_4", "Z_15 + Z_3", "Z_11 + Z_11", "Z_40 + Z_8", "Z_29 + Z_29"):
        assert display in out


def test_table_single_row(capsys):
    code, out = run(["table", "--from", "1", "--to", "1"], capsys)
    assert code == 0
    assert "n=1: 0" in out


def test_table_csv(capsys):
    code, out = run(["table", "--from", "2", "--to", "3", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,group,ideal_gen_1,ideal_gen_2,alexander"
    assert lines[1].startswith("2,Z_5,1,1-3*t+t^2,")


def test_table_markdown(capsys):
    code, out = run(["table", "--from", "2", "--to", "2", "--format", "markdown"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "| n | group | ideal generators | alexander |"


def test_table_builds_each_matrix_once(capsys, monkeypatch):
    # a row needs only the cyclic decomposition: one -A'_n, no A_n and no
    # determinant, which the Euclidean reduction reads off
    closed = count_calls(monkeypatch, alexander, "wheel_abf_matrix_closed")
    builds = count_calls(monkeypatch, alexander, "_wheel_matrix")
    dets = count_calls(monkeypatch, ring.Matrix, "det")
    code, _ = run(["table", "--from", "2", "--to", "11"], capsys)
    assert code == 0
    assert (len(closed), len(builds), len(dets)) == (0, 10, 0)


def test_table_descends_fully_only_the_lowest_row_of_each_parity(capsys, monkeypatch):
    # a row above the lowest two takes one step onto the row two below
    steps = count_calls(monkeypatch, alexander, "_step")
    code, _ = run(["table", "--from", "102", "--to", "105"], capsys)
    assert code == 0
    assert len(steps) == 50 + 51 + 2


@pytest.mark.parametrize("fmt", ["text", "json", "csv", "markdown"])
def test_table_renders_an_odd_row_generator_once(fmt, capsys, monkeypatch):
    # odd n has det A'_n = 1, so both ideal generators are g_n: an odd row
    # renders g_n and the Alexander polynomial, an even row three strings
    renders = count_calls(monkeypatch, ring.LaurentPoly, "to_str")
    code, _ = run(["table", "--from", "1", "--to", "9", "--format", fmt], capsys)
    assert code == 0
    assert len(renders) == 5 * 2 + 4 * 3


def test_table_bad_range_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["table", "--from", "3", "--to", "2"])
    assert info.value.code == 2


def test_table_large_range_csv(capsys):
    # performance check: full-precision big integers all the way to n = 200
    code, out = run(["table", "--from", "2", "--to", "200", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 200
    assert lines[-1].startswith("200,")


# -- JSON round trip -------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["colorgroup", "1 -2 1 -2", "--format", "json"],
        ["abf", "1 -2", "--format", "json"],
        ["wheel", "4", "--moduli", "3", "5", "--format", "json"],
        ["verify", "--max-n", "2", "--max-index", "3", "--format", "json"],
        ["table", "--from", "1", "--to", "4", "--format", "json"],
    ],
)
def test_json_round_trip(argv, capsys):
    code, out = run(argv, capsys)
    assert code == 0
    reparsed = json.loads(out)
    assert cli.render_json(reparsed) + "\n" == out


# -- one output path ------------------------------------------------------------------

# One small request of each subcommand.
SMALL_REQUESTS = [
    ["colorgroup", "1 -2 1 -2", "--format", "json"],
    ["abf", "1 1 1"],
    ["wheel", "5"],
    ["verify", "--max-n", "2", "--max-index", "3"],
    ["table", "--from", "1", "--to", "4", "--format", "csv"],
]


@pytest.mark.parametrize("argv", SMALL_REQUESTS)
def test_handlers_return_the_answer_and_print_nothing(argv, capsys):
    # main prints the answer once, so a failing handler leaves no partial stdout
    document, lines = cli._GRAMMAR[argv[0]][0](cli._parse(argv))
    assert capsys.readouterr() == ("", "")
    assert isinstance(document, dict) and document["command"] == argv[0]
    assert isinstance(lines, list) and lines and all(isinstance(line, str) for line in lines)


@pytest.mark.parametrize("argv", [*SMALL_REQUESTS, ["-h"], ["wheel", "-h"]])
def test_closed_stdout_exits_1_with_nothing_on_stderr(argv):
    # the reader has gone before the answer is written, as in `foxabf ... | head -0`
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    process = subprocess.Popen(
        [sys.executable, "-S", "-m", "foxabf.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    process.stdout.close()
    err = process.stderr.read()
    process.stderr.close()
    assert process.wait(timeout=60) == 1
    assert err == b""


# -- the command-line grammar ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI once used: the reference grammar for the
    differential test below."""
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
    p_color.add_argument("--strands", type=cli._ascii_int, default=None, help="strand count override")
    p_color.add_argument("--format", choices=("text", "json"), default="text")

    p_abf = sub.add_parser("abf", help="reduced ABF presentation and Alexander polynomial")
    p_abf.add_argument("braid", help='braid word, e.g. "1 -2 1 -2"')
    p_abf.add_argument("--strands", type=cli._ascii_int, default=None, help="strand count override")
    p_abf.add_argument("--format", choices=("text", "json"), default="text")

    p_wheel = sub.add_parser("wheel", help="cross-verified report for one wheel index")
    p_wheel.add_argument("n", type=cli._ascii_int, help="number of spokes (>= 1)")
    p_wheel.add_argument(
        "--moduli", type=cli._ascii_int, nargs="*", default=None, help="brute-force coloring moduli"
    )
    p_wheel.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify", help="run every identity and cross-route suite")
    p_verify.add_argument("--max-n", type=cli._ascii_int, default=20, dest="max_n")
    p_verify.add_argument("--max-index", type=cli._ascii_int, default=40, dest="max_index")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_table = sub.add_parser("table", help="closed-form table over a range of wheel indices")
    p_table.add_argument("--from", type=cli._ascii_int, required=True, dest="from_n")
    p_table.add_argument("--to", type=cli._ascii_int, required=True, dest="to_n")
    p_table.add_argument(
        "--format", choices=("text", "json", "csv", "markdown"), default="text"
    )

    return parser


def parsed_by(parse, argv):
    """(parsed values, None) or (None, exit code) of one parse of argv."""
    try:
        return vars(parse(argv)), None
    except SystemExit as exc:
        return None, exc.code
    except cli._UsageError:  # main() exits 2 on it
        return None, 2


GRAMMAR_CORPUS = [
    # option order and "=" forms
    ["colorgroup", "1 -2", "--strands", "3", "--format", "json"],
    ["colorgroup", "--format", "json", "--strands", "3", "1 -2"],
    ["colorgroup", "--strands=3", "1", "--format=json"],
    ["abf", "--format=text", "1 -2 1 -2"],
    ["wheel", "--format", "json", "5"],
    ["table", "--to=3", "--from=1", "--format=csv"],
    ["table", "--from=-1", "--to", "3"],
    ["verify", "--max-index=4", "--max-n", "3"],
    # unique and ambiguous prefixes
    ["colorgroup", "1", "--form", "json"],
    ["colorgroup", "1", "--form=json"],
    ["colorgroup", "--s", "4", "--f", "json", "1"],
    ["verify", "--m", "3"],
    ["verify", "--max-", "3"],
    ["verify", "--max-i", "3", "--max-n", "2"],
    ["table", "--f", "1", "--to", "3"],
    ["table", "--fr", "1", "--t", "3", "--fo", "markdown"],
    ["colorgroup", "--=x", "1"],
    # repeated options: the last one wins
    ["colorgroup", "1", "--format", "json", "--format", "text"],
    ["table", "--from", "1", "--from", "2", "--to", "3"],
    ["wheel", "3", "--moduli", "2", "--moduli", "3"],
    # --moduli with 0, 1 and 4 values, and followed by another option
    ["wheel", "3", "--moduli"],
    ["wheel", "3", "--moduli", "2"],
    ["wheel", "3", "--moduli", "2", "3", "5", "7"],
    ["wheel", "3", "--moduli", "--format", "json"],
    ["wheel", "3", "--moduli", "2", "3", "--format", "json"],
    ["wheel", "3", "--moduli=5"],
    ["wheel", "3", "--moduli=5", "7"],
    ["wheel", "3", "--moduli", "-2", "3"],
    ["wheel", "--moduli", "2", "3", "5"],
    # braids and integers that start with "-"
    ["colorgroup", "-1"],
    ["colorgroup", "-1 2"],
    ["colorgroup", "-1,2"],
    ["colorgroup", "-1.5"],
    ["colorgroup", "-"],
    ["colorgroup", "1", "--strands", "-3"],
    ["colorgroup", "1", "--strands", "-1,2"],
    ["colorgroup", "--format", "-1 2", "1"],
    ["wheel", "-5"],
    # "--"
    ["colorgroup", "--", "-1,2"],
    ["colorgroup", "--", "-1"],
    ["colorgroup", "1", "--"],
    ["colorgroup", "--"],
    ["colorgroup", "--", "--"],
    ["colorgroup", "--strands", "3", "--", "1"],
    ["colorgroup", "--strands", "--", "1"],
    ["colorgroup", "1", "--", "2"],
    ["colorgroup", "1", "--format", "json", "--"],
    ["colorgroup", "--", "1", "--format", "json"],
    ["wheel", "--", "5"],
    ["wheel", "--moduli", "2", "--", "5"],
    ["wheel", "3", "--moduli", "2", "--"],
    ["verify", "--"],
    ["--", "colorgroup", "1"],
    ["--"],
    # missing and extra arguments, bad values and choices
    ["colorgroup"],
    ["wheel"],
    ["table"],
    ["table", "--to", "3"],
    ["colorgroup", "1", "2"],
    ["verify", "x"],
    ["colorgroup", "1", "--strands"],
    ["colorgroup", "1", "--strands", "--format", "json"],
    ["colorgroup", "--bogus", "1"],
    ["colorgroup", "-x", "1"],
    ["colorgroup", "1", "--format", "xml"],
    ["colorgroup", "1", "--format=a b"],
    ["table", "--from", "1", "--to", "3", "--format", "xml"],
    ["wheel", "x"],
    ["wheel", "3", "--moduli=", "5"],
    ["verify", "--max-n", "２"],
    # help, and its misuse
    ["-h"],
    ["--help"],
    ["--he"],
    ["-h", "bogus"],
    ["colorgroup", "-h"],
    ["wheel", "-h", "x"],
    ["wheel", "x", "-h"],
    ["colorgroup", "--bogus", "-h"],
    ["colorgroup", "1", "2", "--help"],
    ["verify", "--h"],
    ["table", "--hel"],
    ["colorgroup", "1", "--he=x"],
    ["colorgroup", "1", "-h=x"],
    ["colorgroup", "-hx"],
    # unknown subcommands and empty argv
    [],
    ["bogus"],
    ["Colorgroup", "1"],
    ["-1"],
    ["--strands", "3"],
]


def random_argvs():
    """2000 seeded argvs: a subcommand and 0-6 tokens drawn from the corpus's
    tokens (prefixes, "=" forms, "--", -h variants, negative numbers, tokens
    with spaces)."""
    alphabet = sorted({token for argv in GRAMMAR_CORPUS for token in argv})
    rng = random.Random(20261019)
    for _ in range(2000):
        argv = [rng.choice(tuple(cli._GRAMMAR))]
        argv += [rng.choice(alphabet) for _ in range(rng.randint(0, 6))]
        yield argv


# argparse's answers change between Python releases, patch releases too
# (3.13 reads "colorgroup -hx" as help), so cli._parse is compared with the
# answers Python 3.11's argparse gave, recorded by record_argparse_answers.py;
# under 3.11 the recording is also compared with live argparse, so a
# recording that no longer matches the corpus or the parser fails there
def recorded_answers(kind):
    return json.loads((Path(__file__).parent / "argparse_answers.json").read_text())[kind]


def assert_parsed_as_recorded(argv, recorded):
    assert list(parsed_by(cli._parse, argv)) == recorded, argv
    if sys.version_info[:2] == (3, 11):
        assert list(parsed_by(build_parser().parse_args, argv)) == recorded, ("stale", argv)


@pytest.mark.parametrize("i, argv", enumerate(GRAMMAR_CORPUS), ids=range(len(GRAMMAR_CORPUS)))
def test_grammar_agrees_with_argparse(i, argv, capsys):
    # only the wording of a grammar error may differ.  Left out on purpose:
    # an unknown option before the subcommand followed by -h, and "-hh",
    # which argparse reads as help; both are usage errors here
    assert_parsed_as_recorded(argv, recorded_answers("fixed")[i])


def test_grammar_agrees_with_argparse_on_random_argvs(capsys):
    argvs, answers = list(random_argvs()), recorded_answers("random")
    assert len(answers) == len(argvs)
    for argv, recorded in zip(argvs, answers):
        assert_parsed_as_recorded(argv, recorded)


def test_main_reads_sys_argv(capsys, monkeypatch):
    # the foxabf script calls main() with no argv
    monkeypatch.setattr(sys, "argv", ["foxabf", "colorgroup", "1 -2 1 -2 1 -2"])
    code, out = run(None, capsys)
    assert code == 0
    assert "Z_4 + Z_4" in out


@pytest.mark.parametrize(
    "argv", [["-h"], ["--help"], ["wheel", "-h"], ["table", "--from", "1", "--help"]]
)
def test_help_prints_usage_and_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    usage = captured.out.splitlines()[0]
    if argv[0] in ("-h", "--help"):
        assert usage == "usage: foxabf [-h] {colorgroup,abf,wheel,verify,table} ..."
        for command in ("colorgroup", "abf", "wheel", "verify", "table"):
            assert f"\n  {command} " in captured.out
    else:
        assert usage.startswith(f"usage: foxabf {argv[0]} [-h] ")


def test_console_script_resolves_to_cli_main(capsys):
    # the installed `foxabf` command is pyproject's [project.scripts] entry;
    # tomllib is 3.11+, and pyproject admits 3.10
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["foxabf"]
    module_name, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module_name), attr)
    assert entry is cli.main
    with pytest.raises(SystemExit) as info:
        entry(["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: foxabf ")


def test_cli_request_imports_no_argument_parsing_machinery():
    # argparse loads shutil (and with it zlib, bz2, lzma) and gettext (and
    # locale) inside every request; typing came in through ring and sequences,
    # dataclasses (and with it inspect) through every record type, and random
    # through the check suites that now live in foxabf.verify; os only
    # in the closed-stdout branch of main
    src = Path(cli.__file__).resolve().parents[1]

    def fresh_request(argv):
        code = (
            "import io, sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "import foxabf.cli\n"
            "sys.stdout = io.StringIO()\n"
            f"assert foxabf.cli.main({argv!r}) == 0\n"
            "sys.stdout = sys.__stdout__\n"
            "print(' '.join(sorted(sys.modules)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        return set(result.stdout.split())

    loaded = fresh_request(["colorgroup", "1", "--format", "json"])
    assert "foxabf.cli" in loaded
    unwanted = {"argparse", "shutil", "locale", "gettext", "typing", "dataclasses", "inspect", "os"}
    assert not loaded & (unwanted | {"random", "foxabf.verify"})
    # verify imports its suites inside the command, outside pytest's process
    assert "foxabf.verify" in fresh_request(["verify", "--max-n", "2", "--max-index", "2"])
