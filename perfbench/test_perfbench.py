"""Tests of the benchmark itself: every output check accepts foxabf's real
output and rejects a corrupted one, tracing changes no output, and the
metric lists agree with BENCHMARK.json.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


def cli_output(argv: list[str]) -> str:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from foxabf import cli
    finally:
        sys.path.remove(str(ROOT / "src"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def assert_rejected(request: dict, stdout: str) -> None:
    with pytest.raises(checks.Mismatch):
        checks.check(request, 0, stdout, random.Random(0))


def edit_json(stdout: str, edit) -> str:
    doc = json.loads(stdout)
    edit(doc)
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


FIGURE_EIGHT = (3, [1, -2, 1, -2])
TREFOIL_SPLIT = (5, [1, 1, 1])  # two extra strands: a split link


@pytest.mark.parametrize("strands,letters", [FIGURE_EIGHT, TREFOIL_SPLIT, (6, [1, -3, 5, 2, -4, 1, 3])])
def test_colorgroup_check(strands, letters):
    request = workloads._braid_request("colorgroup", strands, letters, "split")
    good = cli_output(request["argv"])
    checks.check(request, 0, good, random.Random(0))

    def bump_torsion(doc):
        doc["results"]["group"]["torsion"] = doc["results"]["group"]["torsion"] + ["2"]

    def bump_entry(doc):
        row = doc["results"]["reduced_matrix"][0]
        row[0] = str(int(row[0]) + 1)

    def bump_determinant(doc):
        doc["results"]["determinant"] = str(int(doc["results"]["determinant"]) + 1)

    def bump_rank(doc):
        doc["results"]["group"]["free_rank"] += 1

    for edit in (bump_torsion, bump_entry, bump_determinant, bump_rank):
        assert_rejected(request, edit_json(good, edit))
    assert_rejected(request, good.replace('"command": "colorgroup"', '"command": "abf"'))
    assert_rejected({**request, "letters": letters[:-1]}, good)


@pytest.mark.parametrize("strands,letters,form", [(*FIGURE_EIGHT, "text"), (*TREFOIL_SPLIT, "split"), (6, [1, -3, 5, 2, -4, 1, 3, 3], "json")])
def test_abf_check(strands, letters, form):
    request = workloads._braid_request("abf", strands, letters, form)
    good = cli_output(request["argv"])
    checks.check(request, 0, good, random.Random(0))

    def bump_entry(doc):
        doc["results"]["matrix"][0][0] += "+t^7"

    def shift_entry(doc):
        row = doc["results"]["matrix"][-1]
        row[-1] = row[-1] + "+t^-9"

    def bump_alexander(doc):
        doc["results"]["alexander"] = "1-3*t+2*t^2" if doc["results"]["alexander"] != "0" else "1"

    def misspell(doc):
        doc["results"]["matrix"][0][0] = "1*t+0"

    for edit in (bump_entry, shift_entry, bump_alexander, misspell):
        assert_rejected(request, edit_json(good, edit))


def test_alexander_properties():
    assert checks.is_palindromic_up_to_sign(checks.parse_poly("1-3*t+t^2"))
    assert checks.is_palindromic_up_to_sign(checks.parse_poly("-1+t"))
    assert not checks.is_palindromic_up_to_sign(checks.parse_poly("1-3*t+2*t^2"))
    assert checks.parse_poly("-t^-1+3-t") == {-1: -1, 0: 3, 1: -1}
    for bad in ("1+-t", "t^1", "1*t", "t+1", "0*t^2", "2t", "1 - t"):
        with pytest.raises(checks.Mismatch):
            checks.parse_poly(bad)
    assert checks.is_unit_multiple(checks.Fraction(-24), checks.Fraction(3), 2)
    assert not checks.is_unit_multiple(checks.Fraction(9), checks.Fraction(3), 2)


@pytest.mark.parametrize("n", [1, 2, 7, 12])
def test_wheel_check(n):
    request = workloads.wheel_single(random.Random(0))[0] | {"n": n}
    request["argv"] = ["wheel", str(n), "--moduli", "2", "3", "5", "7", "--format", "json"]
    good = cli_output(request["argv"])
    checks.check(request, 0, good, random.Random(0))

    def set_(path, value):
        def edit(doc):
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value(target[path[-1]])
        return edit

    edits = [
        set_(("results", "ideal_gens", 0), lambda g: g + "+t^40"),
        set_(("results", "ideal_gens", 1), lambda g: "2" if g == "1" else "1"),
        set_(("results", "alexander"), lambda a: a + "+t^99"),
        set_(("results", "det_a_prime"), lambda d: "1" if d != "1" else "-t^-1+3-t"),
        set_(("results", "brute_force", 1, "count"), lambda c: str(int(c) + 1)),
        set_(("results", "brute_force", 1, "ok"), lambda ok: False),
        set_(("results", "burau_group", "torsion"), lambda t: t + ["3"]),
        set_(("results", "closed_form_group", "display"), lambda d: d + " + Z_2"),
        set_(("results", "ideal_gens_at_minus_one", 0), lambda v: str(int(v) + 1)),
        set_(("results", "goeritz_ok"), lambda ok: False),
        set_(("consistency",), lambda ok: False),
    ]
    for edit in edits:
        assert_rejected(request, edit_json(good, edit))


@pytest.mark.parametrize("fmt", workloads.TABLE_FORMATS)
def test_table_check(fmt):
    request = {"command": "table", "from": 5, "to": 9, "format": fmt,
               "argv": ["table", "--from", "5", "--to", "9", "--format", fmt]}
    good = cli_output(request["argv"])
    checks.check(request, 0, good, random.Random(0))
    lines = good.splitlines(keepends=True)
    assert_rejected(request, "".join(lines[:-1]))  # a row missing
    assert_rejected(request, good.replace("Z_11 + Z_11", "Z_11 + Z_12"))  # n = 5's group
    assert_rejected(request, good.replace("1-2*t+2*t^2-2*t^3+t^4", "1-2*t+3*t^2-2*t^3+t^4", 1))  # g_6
    assert_rejected(request, good.replace("-6*t+15*t^2", "-6*t+16*t^2", 1))  # alexander of n = 5


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_check(fmt):
    request = {"command": "verify", "max_n": 3, "max_index": 5, "format": fmt,
               "argv": ["verify", "--max-n", "3", "--max-index", "5", "--format", fmt]}
    good = cli_output(request["argv"])
    checks.check(request, 0, good, random.Random(0))
    if fmt == "json":
        assert_rejected(request, good.replace('"passed": true', '"passed": false', 1))
        assert_rejected(request, good.replace('"consistency": true', '"consistency": false'))
    else:
        assert_rejected(request, good.replace("ok  ", "FAIL", 1))
        assert_rejected(request, good.replace("all suites passed", "verification FAILED"))
    with pytest.raises(checks.Mismatch):
        checks.check(request, 1, good, random.Random(0))


def test_output_of_the_wrong_shape_is_a_mismatch():
    for workload in workloads.WORKLOADS.values():
        for request in workload(random.Random(0)):
            for stdout in ("[]\n", "3\n", '"text"\n', "null\n", ""):
                assert_rejected(request, stdout)


def test_workloads_are_seeded_and_valid():
    for name, workload in workloads.WORKLOADS.items():
        first = workload(random.Random(f"{name}:3"))
        assert first == workload(random.Random(f"{name}:3"))
        assert first != workload(random.Random(f"{name}:4"))
        assert run.tail_percentile(len(first)) >= 80
    ns = [r["n"] for r in workloads.wheel_single(random.Random(5))]
    assert 10 <= min(ns) and max(ns) <= 306
    assert [n % 2 for n in ns] == [i % 2 for i in range(len(ns))]
    for request in workloads.range_sweeps(random.Random(5)):
        if request["command"] == "table":
            assert 2 <= request["from"] <= request["to"] <= 200


def test_tracing_changes_no_output_and_counts_repeat():
    env = run.worker_env()
    request = {"argv": ["wheel", "12", "--moduli", "2", "3", "--format", "json"]}
    plain = run.run_request(request, False, env)
    traced = run.run_request(request, True, env)
    again = run.run_request(request, True, env)
    assert plain["rc"] == traced["rc"] == 0
    assert traced["stdout"] == plain["stdout"]
    assert traced["trace"]["calls"] == again["trace"]["calls"]
    calls = traced["trace"]["calls"]
    assert calls["cli.main"] == 1
    assert calls["alexander.wheel_abf_matrix_closed"] >= 1
    assert calls["ring.poly_mul"] > 0 and calls["ring.det"] > 0
    self_total = sum(traced["trace"]["self_ms"].values())
    assert self_total == pytest.approx(traced["trace"]["incl_ms"]["cli.main"], rel=1e-6)
    assert traced["trace"]["counters"]["coloring.brute_force_assignments"] == 2**3 + 3**3


def test_metric_lists_match_benchmark_json():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in benchmark["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == run.PER_LAYER_UNITS
    assert [m["name"] for m in benchmark["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in benchmark["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_a_tree_without_foxabf():
    bare = ROOT / "perfbench" / "results" / "bare-tree"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "wheel_single", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
