"""The package's public names, its immutable record types, and that every
function in the package is entered by some CLI request."""

import ast
import contextlib
import io
import os
import re
import sys
from pathlib import Path

import pytest

import foxabf
from foxabf import cli


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
    "BruteForceCheck": (
        lambda: foxabf.BruteForceCheck(5, 25, 25),
        "BruteForceCheck(modulus=5, count=25, predicted=25)",
    ),
    "WheelReport": (
        lambda: foxabf.WheelReport(
            n=1,
            closed_form_group=foxabf.AbelianGroup(),
            burau_group=foxabf.AbelianGroup(),
            module=None,
            abf_gens_at_minus_one=(1, 1),
            brute_force_checks=(foxabf.BruteForceCheck(2, 2, 2),),
            goeritz_ok=True,
            all_consistent=True,
        ),
        "WheelReport(n=1, closed_form_group=AbelianGroup(torsion=(), free_rank=0), "
        "burau_group=AbelianGroup(torsion=(), free_rank=0), module=None, "
        "abf_gens_at_minus_one=(1, 1), "
        "brute_force_checks=(BruteForceCheck(modulus=2, count=2, predicted=2),), "
        "goeritz_ok=True, all_consistent=True)",
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

# A small fixed corpus: every subcommand in text and JSON, a split word, a
# JSON word, refusals of a bad letter, an over-cap modulus and a huge index,
# and help.
_REACH_CORPUS = [
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


def test_every_function_is_entered_by_a_request():
    prefix = str(_PACKAGE) + os.sep  # built once: resolving paths per call is slow
    entered = set()

    def record(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add((code.co_filename[len(prefix) :], code.co_name))
        # returning None traces no lines, only further calls

    previous = sys.gettrace()
    sys.settrace(record)
    try:
        for argv in _REACH_CORPUS:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                try:
                    cli.main(argv)
                except SystemExit:
                    pass
    finally:
        sys.settrace(previous)
    missing = sorted(_defined_functions() - entered)
    assert not missing, missing
