"""CLI behavior: outputs, exit codes, and deterministic JSON."""

import json
import sys

import pytest

from foxabf import alexander, cli, ring
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


def test_wheel_enumeration_cap_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["wheel", "2", "--moduli", "216"])  # 216^3 > 10^7 assignments
    assert info.value.code == 2
    assert "216^3 = 10077696 assignments exceed the cap 10000000" in capsys.readouterr().err


def test_wheel_computes_the_module_once(capsys, monkeypatch):
    builds = count_calls(monkeypatch, alexander, "wheel_abf_matrix_closed")
    modules = count_calls(monkeypatch, alexander, "wheel_module")
    code, _ = run(["wheel", "7"], capsys)
    assert code == 0
    assert (len(builds), len(modules)) == (1, 1)


def test_wheel_builds_a_prime_once(capsys, monkeypatch):
    # the closed A_n comes from two products, not from A'_n; only the
    # Euclidean reduction builds A'_n
    builds = count_calls(monkeypatch, alexander, "_wheel_a_prime")
    code, _ = run(["wheel", "7"], capsys)
    assert code == 0
    assert len(builds) == 1


def test_wheel_takes_one_determinant_and_one_division(capsys, monkeypatch):
    # A'_n = A_n / (-g_n) is built from g_{n-1} and g_{n+1}, and the
    # Alexander polynomial is the product of the ideal generators, so the
    # one determinant is det A'_n and its Bareiss step the one division
    divisions = count_calls(monkeypatch, ring, "divide_exact")
    dets = count_calls(monkeypatch, ring.Matrix, "det")
    code, _ = run(["wheel", "7"], capsys)
    assert code == 0
    assert (len(divisions), len(dets)) == (1, 1)


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
    builds = count_calls(monkeypatch, alexander, "wheel_abf_matrix_closed")
    code, _ = run(["table", "--from", "2", "--to", "11"], capsys)
    assert code == 0
    assert [args[0] for args in builds] == list(range(2, 12))


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
