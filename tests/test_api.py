"""The package's public names, its immutable record types, and that every
function in the package is entered by some CLI request."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import foxabf


def test_every_exported_name_resolves():
    missing = [name for name in foxabf.__all__ if not hasattr(foxabf, name)]
    assert missing == []
    assert len(set(foxabf.__all__)) == len(foxabf.__all__)


# Each record type: a factory of fresh equal instances and the repr text.
_GROUP = "AbelianGroup(torsion=(5,), free_rank=0)"
_RECORDS = {
    "BraidWord": (lambda: foxabf.BraidWord(3, (1, -2)), "BraidWord(strands=3, letters=(1, -2))"),
    "AbelianGroup": (lambda: foxabf.AbelianGroup((5,)), _GROUP),
    "ColoringResult": (
        lambda: foxabf.ColoringResult(foxabf.AbelianGroup((5,)), 5, foxabf.Matrix([[5]])),
        f"ColoringResult(group={_GROUP}, determinant=5, reduced_matrix=Matrix([[5]]))",
    ),
    "ModulePresentation": (
        lambda: foxabf.ModulePresentation(
            foxabf.Matrix([[foxabf.LaurentPoly.t()]]), foxabf.LaurentPoly.one()
        ),
        "ModulePresentation(matrix=Matrix([[LaurentPoly('t')]]), alexander=LaurentPoly('1'))",
    ),
    "WheelModule": (
        lambda: foxabf.WheelModule(
            foxabf.LaurentPoly.one(), (foxabf.LaurentPoly.one(),) * 2, foxabf.LaurentPoly.one()
        ),
        "WheelModule(alexander=LaurentPoly('1'), "
        "ideal_gens=(LaurentPoly('1'), LaurentPoly('1')), det_a_prime=LaurentPoly('1'))",
    ),
    "IdentityCheck": (
        lambda: foxabf.IdentityCheck("fib_doubling", 40),
        "IdentityCheck(name='fib_doubling', cases=40, counterexample=None)",
    ),
    "WheelReport": (
        lambda: foxabf.WheelReport(
            n=1,
            closed_form_group=foxabf.AbelianGroup(),
            burau_group=foxabf.AbelianGroup(),
            module=None,
            abf_gens_at_minus_one=(1, 1),
            brute_force=((2, 2, 2),),
            checks=(foxabf.IdentityCheck("brute_force_mod_2", 1),),
        ),
        "WheelReport(n=1, closed_form_group=AbelianGroup(torsion=(), free_rank=0), "
        "burau_group=AbelianGroup(torsion=(), free_rank=0), module=None, "
        "abf_gens_at_minus_one=(1, 1), brute_force=((2, 2, 2),), "
        "checks=(IdentityCheck(name='brute_force_mod_2', cases=1, counterexample=None),))",
    ),
}


def test_every_record_type_has_a_case():
    # every exported named tuple, and the one record that is no tuple
    exported = (getattr(foxabf, name) for name in foxabf.__all__)
    records = {
        cls.__name__
        for cls in exported
        if isinstance(cls, type) and issubclass(cls, tuple) and hasattr(cls, "_fields")
    }
    assert records | {"BraidWord"} == set(_RECORDS)


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_records_are_immutable_values(name):
    make, text = _RECORDS[name]
    record, twin = make(), make()
    assert record is not twin
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert repr(record) == text
    field = text[len(name) + 1 :].partition("=")[0]  # the first field the repr names
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == twin


def test_braid_word_is_not_iterable():
    with pytest.raises(TypeError):
        iter(foxabf.BraidWord(3, (1,)))
    assert len(foxabf.BraidWord(3, (1, -2, 1))) == 3


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: foxabf.BraidWord(0), "strand count must be a positive integer"),
        (lambda: foxabf.BraidWord(3, (0,)), "invalid letter 0: letters are nonzero ints"),
        (lambda: foxabf.BraidWord(3, [True]), "invalid letter True: letters are nonzero ints"),
        (lambda: foxabf.BraidWord(3, (3,)), "letter 3 needs at least 4 strands, word has 3"),
        (lambda: foxabf.AbelianGroup((1,)), "invariant factors must be at least 2"),
        (lambda: foxabf.AbelianGroup((4, 6)), "broken divisibility chain: 4 does not divide 6"),
        (lambda: foxabf.AbelianGroup(free_rank=-1), "free rank must be non-negative"),
    ],
)
def test_record_validation_messages(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


# -- every function is reached by a request ----------------------------------------

_PACKAGE = Path(foxabf.__file__).parent

# A small fixed corpus: a wheel index that cold caches reach by doubling
# Chebyshev indices, every subcommand in text and JSON, a split word, a JSON
# word, refusals of a bad letter, an over-cap modulus and a huge index, and
# help.
_REACH_CORPUS = [
    ["wheel", "100"],
    ["verify", "--max-n", "3", "--max-index", "12"],
    ["wheel", "4", "--moduli", "2", "3"],
    ["wheel", "5", "--format", "json"],
    ["table", "--from", "1", "--to", "4"],
    ["table", "--from", "1", "--to", "4", "--format", "json"],
    ["colorgroup", "1 -2 1 -2"],
    ["abf", '{"strands": 4, "letters": [1, -2, 3]}', "--format", "json"],
    ["abf", "1 1 1"],
    ["abf", "1 1", "--strands", "4"],
    ["colorgroup", "x"],
    ["wheel", "3", "--moduli", "99999"],
    ["wheel", "1" + "0" * 40],
    ["-h"],
]


def _defined_functions() -> set[tuple[str, str]]:
    """(file name, function name) of every non-dunder def in the package,
    nested ones included."""
    defined = set()
    for path in _PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add((path.name, node.name))
    return defined


# Runs the corpus of argv[1] through cli.main and prints, as JSON, the
# (file name, function name) of every package function it entered.
_REACH_SCRIPT = """
import contextlib, io, json, os, sys
import foxabf
from foxabf import cli

prefix = os.path.dirname(foxabf.__file__) + os.sep  # built once: per call is slow
entered = set()

def record(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(prefix):
        entered.add((code.co_filename[len(prefix) :], code.co_name))
    # returning None traces no lines, only further calls

sys.settrace(record)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass
sys.settrace(None)
print(json.dumps(sorted(entered)))
"""


def test_every_function_is_entered_by_a_request():
    # a fresh interpreter starts every sequence cache cold, so a function
    # that only a cold request enters is seen whatever ran before this test
    result = subprocess.run(
        [sys.executable, "-S", "-c", _REACH_SCRIPT, json.dumps(_REACH_CORPUS)],
        env={**os.environ, "PYTHONPATH": str(_PACKAGE.parent)},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    entered = {tuple(pair) for pair in json.loads(result.stdout)}
    missing = sorted(_defined_functions() - entered)
    assert not missing, missing
