"""Start-up cost and the value semantics of the package's record types.

Every verdict is one process, so ``import fockcalc.cli`` is paid once per
command.  The record types are namedtuples or plain classes: the
``dataclasses`` module imports ``inspect``, which a fresh interpreter
would otherwise not load.
"""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import fockcalc
from fockcalc.cli import _merge_reports
from fockcalc.exact import ShiftedQSeries, chi_s
from fockcalc.report import PASS, Cell, VerificationReport
from fockcalc.series import (NEG_POWERS_Y1, NEG_POWERS_Y2,
                             ExpansionConvention, VarSpec,
                             _plusplus_correction, convention, trunc_var,
                             window_var)

SRC = Path(fockcalc.__file__).resolve().parents[1]


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # the modules the import itself adds: whatever site hooks loaded
    # before it is left out
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import fockcalc.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)))
    loaded = set(out.stdout.split())
    assert {"fockcalc.cli", "fockcalc.series", "fockcalc.voa"} <= loaded
    assert not loaded & {"dataclasses", "inspect", "typing"}


def test_var_specs_and_conventions_are_values():
    y = trunc_var("y", 3)
    assert y == VarSpec("y", "trunc", order=3) == trunc_var("y", 3)
    assert y != trunc_var("y", 2) and y != window_var("y", 0, 3)
    assert hash(y) == hash(VarSpec("y", "trunc", None, None, 3))
    assert len({y, trunc_var("y", 3), window_var("x", -2, 2)}) == 2
    assert ExpansionConvention("y1") == NEG_POWERS_Y1 != NEG_POWERS_Y2
    assert hash(ExpansionConvention("y2")) == hash(NEG_POWERS_Y2)
    # the reprs of the dataclasses they replace
    assert repr(y) == ("VarSpec(name='y', kind='trunc', lo=None, hi=None, "
                       "order=3)")
    assert repr(window_var("x", -2, 2)) == (
        "VarSpec(name='x', kind='window', lo=-2, hi=2, order=None)")
    assert repr(NEG_POWERS_Y1) == "ExpansionConvention(distinguished='y1')"
    with pytest.raises(AttributeError):
        y.order = 4
    with pytest.raises(AttributeError):
        NEG_POWERS_Y1.distinguished = "y2"


def test_rebuilt_convention_hits_the_correction_cache():
    first = _plusplus_correction(NEG_POWERS_Y1, 1, 1)
    rebuilt = ExpansionConvention(convention("neg-powers-y1").distinguished)
    assert rebuilt is not NEG_POWERS_Y1
    hits = _plusplus_correction.cache_info().hits
    assert _plusplus_correction(rebuilt, 1, 1) is first
    assert _plusplus_correction.cache_info().hits == hits + 1


def test_shifted_q_series_is_a_value():
    chi = chi_s(3)
    assert chi == chi_s(3) != chi_s(4)
    assert hash(chi) == hash(chi_s(3))
    assert chi == ShiftedQSeries(F(-1, 24), chi.series)
    assert repr(chi_s(2)) == ("ShiftedQSeries(shift=Fraction(-1, 24), "
                              "series=PowerSeries(1*x^0 + 1*x^1 + 2*x^2; "
                              "order 2))")
    assert chi.to_json_dict() == {"shift": "-1/24",
                                  "series": [[0, "1"], [1, "1"], [2, "2"],
                                             [3, "3"]]}


def test_cells_compare_by_value_and_stay_mutable():
    cell = Cell("x^1", "1", "1", PASS)
    assert cell == Cell("x^1", "1", "1", PASS) != Cell("x^1", "1", "2", PASS)
    assert repr(cell) == "Cell(key='x^1', lhs='1', rhs='1', status='pass')"
    cell.key = "a | x^1"
    assert cell == Cell("a | x^1", "1", "1", PASS)
    with pytest.raises(TypeError):
        hash(cell)


def test_reports_built_with_defaults_share_no_containers():
    a = VerificationReport(identity="a", parameters={})
    b = VerificationReport("b", {})
    assert a.cells is not b.cells and a.data is not b.data
    a.add_cell("k", "1", "1")
    a.data["x"] = 1
    assert b.cells == [] and b.data == {} and b.bulk_passed == 0


def test_merge_relabels_keys_in_place():
    first = VerificationReport("t", {"w": 1}, bulk_passed=2)
    first.add_cell("x^1", "1", "1")
    first.data["scalar"] = "1/2"
    second = VerificationReport("t", {"w": 2})
    second.add_cell("x^1", "1", "2")
    cells = first.cells + second.cells
    merged = _merge_reports("t", {"max": 2}, [("w=1", first),
                                             ("w=2", second)])
    assert [c.key for c in merged.cells] == ["w=1 | x^1", "w=2 | x^1"]
    assert all(a is b for a, b in zip(merged.cells, cells))
    assert merged.to_json_dict() == {
        "schema": 1, "identity": "t", "parameters": {"max": 2},
        "data": {"w=1 | scalar": "1/2"},
        "cells": [{"key": "w=1 | x^1", "lhs": "1", "rhs": "1", "pass": True,
                   "status": "pass"},
                  {"key": "w=2 | x^1", "lhs": "1", "rhs": "2", "pass": False,
                   "status": "fail"}],
        "summary": {"total": 4, "passed": 3, "failed": 1, "uncertified": 0},
    }
