"""Tests for the report records and the JSON writer: ``report.json_text``
and the pieces ``report.json_chunks`` writes it in."""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fockcalc import cli, report
from fockcalc.report import (FAIL, PASS, VerificationReport, json_chunks,
                             json_text)

GOLDEN_DIR = Path(__file__).parent / "golden"


def reference(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


def test_counts_follow_added_cells():
    rep = VerificationReport(identity="t", parameters={}, bulk_passed=3)
    rep.add_cell("a", "1", "1")
    rep.add_cell("b", "1", "2")
    rep.add_uncertified("c")
    assert rep.counts == {"total": 6, "passed": 4, "failed": 1,
                          "uncertified": 1}
    # reports stay mutable: counts are not kept from an earlier read
    rep.add_cell("d", "0", "0")
    assert rep.add_cell("e", "x", "y") == FAIL
    assert rep.counts == {"total": 8, "passed": 5, "failed": 2,
                          "uncertified": 1}
    assert not rep.passed


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.iterdir()))
def test_writer_reproduces_golden_bytes(name):
    raw = (GOLDEN_DIR / name).read_text()
    assert raw.endswith("\n")
    assert json_text(json.loads(raw)) == raw[:-1]


# quotes, backslashes, control characters, non-ASCII and lone surrogates
_TRICKY = st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é",
                           " ", "\ud800", "\udfff", "\U0001f600"])
_TEXT = st.text(_TRICKY | st.characters() | st.characters(categories=["Cs"]),
                max_size=6)
_CELL = st.fixed_dictionaries({"key": _TEXT, "lhs": _TEXT,
                               "pass": st.booleans(), "rhs": _TEXT,
                               "status": st.sampled_from([PASS, FAIL])
                               | _TEXT})
_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT,
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.just("cells") | _TEXT, kids,
                                    max_size=3)),
    max_leaves=8)


@st.composite
def _payloads(draw):
    payload = draw(st.dictionaries(_TEXT, _VALUE, max_size=3))
    payload.update({
        "schema": 1, "identity": draw(_TEXT),
        "parameters": draw(st.dictionaries(_TEXT, _VALUE, max_size=3)),
        # data may hold a nested key named cells
        "data": draw(st.dictionaries(st.just("cells") | _TEXT, _VALUE,
                                     max_size=3)),
        "cells": draw(st.lists(_CELL, max_size=5)),
        "summary": {"total": draw(st.integers(0, 9))}})
    return payload


_NESTED = {"schema": 1, "identity": "\ud800", "parameters": {},
           "aa": {"cells": 0}, "data": {"cells": [{"cells": 0}]},
           "summary": {}}


@settings(max_examples=300, deadline=None)
@given(_payloads())
@example({**_NESTED, "cells": []})
@example({**_NESTED, "cells": [
    {"key": 'u="1" | x0^-1', "lhs": "\\\x00\x1f\né\ud83d",
     "pass": True, "rhs": "\U0001f600\udfff", "status": PASS},
    {"key": "", "lhs": "é", "pass": False, "rhs": "?", "status": FAIL}]})
def test_writer_matches_json_dumps(payload):
    text = json_text(payload)
    assert text == reference(payload)
    assert text.isascii()


@pytest.mark.parametrize("cell", [
    {"key": "k", "lhs": "1", "pass": True, "rhs": "1", "status": PASS,
     "note": "a sixth key"},
    {"key": "k", "lhs": "1", "pass": True, "rhs": "1"},
    {"key": "k", "lhs": "1", "pass": 1, "rhs": "1", "status": PASS},
])
def test_malformed_cell_raises(cell):
    good = {"key": "k", "lhs": "1", "pass": True, "rhs": "1", "status": PASS}
    payload = {"schema": 1, "data": {}, "cells": [good, cell]}
    with pytest.raises(ValueError, match="not a report cell"):
        json_text(payload)


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.iterdir()))
def test_pieces_hold_at_most_a_chunk_of_cells(name):
    raw = (GOLDEN_DIR / name).read_text()
    pieces = list(json_chunks(json.loads(raw)))
    assert "".join(pieces) == raw[:-1]
    assert all(p.count('"status": ') <= report._CHUNK_CELLS for p in pieces)


@pytest.mark.parametrize("size", [1, 2, 3, 5, 6])
def test_pieces_join_to_the_text_at_every_chunk_size(size, monkeypatch):
    monkeypatch.setattr(report, "_CHUNK_CELLS", size)
    cells = [{"key": f"k{i}", "lhs": "1", "pass": i != 3, "rhs": "1",
              "status": PASS if i != 3 else FAIL} for i in range(5)]
    for n in range(6):
        payload = {"schema": 1, "data": {"cells": 1}, "cells": cells[:n],
                   "summary": {}}
        pieces = list(json_chunks(payload))
        assert "".join(pieces) == reference(payload)
        # the head, one piece per chunk of cells, the tail
        assert len(pieces) == (2 + -(-n // size) if n else 1)


def test_malformed_cell_raises_before_any_piece():
    good = {"key": "k", "lhs": "1", "pass": True, "rhs": "1", "status": PASS}
    payload = {"schema": 1, "data": {}, "cells": [good] * 600 + [{}]}
    with pytest.raises(ValueError, match="not a report cell"):
        json_chunks(payload)


@pytest.mark.parametrize("to_file", [False, True])
def test_main_writes_nothing_for_a_malformed_cell(to_file, tmp_path,
                                                  monkeypatch, capsys):
    good = {"key": "k", "lhs": "1", "pass": True, "rhs": "1", "status": PASS}
    payload = {"schema": 1, "data": {}, "cells": [good] * 600 + [{}]}
    monkeypatch.setattr(cli, "cmd_zeta", lambda args: (0, payload, ""))
    path = tmp_path / "report.json"
    argv = ["--format", "json"] + (["--output", str(path)] if to_file
                                   else []) + ["zeta"]
    with pytest.raises(ValueError, match="not a report cell"):
        cli.main(argv)
    assert capsys.readouterr().out == ""
    assert not path.exists()
