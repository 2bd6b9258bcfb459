"""Tests for the report records and the JSON writer: the pieces
``report.json_chunks`` writes a report in, which join to the text of
``json.dumps(payload, indent=2, sort_keys=True)``."""

import copy
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fockcalc import cli, report
from fockcalc.exact import rat_str
from fockcalc.fock import _label, _nonzero
from fockcalc.report import FAIL, PASS, VerificationReport, json_chunks

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


# ---------------------------------------------------------------------------
# VerificationReport.add_int_cells against the per-site loops it replaced
# ---------------------------------------------------------------------------

def _ref_int_str(terms, den, memo):
    """The renderer each verifier called, with a memo the caller kept for
    one scale."""
    if not terms:
        return "0"
    bits = []
    for mon, n in sorted(terms.items()):
        c = memo.get(n)
        if c is None:
            c = memo[n] = rat_str(Fraction(n, den))
        bits.append(f"{c}*{_label(mon)}")
    return " + ".join(bits)


def _ref_add_int_cells(den, key, cells, listed, memo):
    """The per-cell step of the verifiers before the batch method: zero
    entries dropped, a cell zero on both sides a bulk pass unless listed,
    equal sides rendered once, the status from ``add_cell``."""
    for rep, k, lhs, rhs in cells:
        if rhs is None:
            rep.add_uncertified(key(*k))
            continue
        lhs, rhs = _nonzero(lhs), _nonzero(rhs)
        if lhs or rhs or listed:
            text = _ref_int_str(lhs, den, memo)
            rep.add_cell(key(*k), text,
                         text if lhs == rhs else _ref_int_str(rhs, den, memo))
        else:
            rep.bulk_passed += 1


# int term maps over a few monomials, zero entries and empty maps included
_INTS = st.dictionaries(st.sampled_from([(), (1,), (1, 1), (2,), (1, 3)]),
                        st.integers(-13, 13), max_size=4)
_SIDES = st.one_of(
    _INTS.map(lambda d: (d, dict(d))),                  # equal sides
    st.tuples(_INTS, _INTS | st.none()),                # any, or uncertified
    st.just(({(1,): 0}, {})))                           # zero on both sides
_BATCH = st.tuples(st.sampled_from([1, 2, 3, 4, 6, 12, 24]), st.booleans(),
                   st.lists(st.tuples(st.integers(0, 1), _SIDES), max_size=6))


@settings(max_examples=400, deadline=None)
@given(st.lists(_BATCH, min_size=1, max_size=4))
def test_int_cells_match_the_per_cell_reference(batches):
    got = [VerificationReport("t", {}) for _ in range(2)]
    want = [VerificationReport("t", {}) for _ in range(2)]
    for i, (den, listed, cells) in enumerate(batches):
        cells = [((r, i, j), lhs, rhs)
                 for j, (r, (lhs, rhs)) in enumerate(cells)]
        before = copy.deepcopy(cells)
        # one call per batch; the caller's memo of the reference lives as
        # long as one call
        VerificationReport.add_int_cells(
            den, "r{} b{} c{}".format,
            ((got[k[0]], k, lhs, rhs) for k, lhs, rhs in cells), listed)
        assert cells == before
        _ref_add_int_cells(den, "r{} b{} c{}".format,
                           [(want[k[0]], k, lhs, rhs) for k, lhs, rhs in cells],
                           listed, {})
    for g, w in zip(got, want):
        assert g.cells == w.cells
        assert g.bulk_passed == w.bulk_passed
        assert g.counts == w.counts


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.iterdir()))
def test_writer_reproduces_golden_bytes(name):
    raw = (GOLDEN_DIR / name).read_text()
    assert raw.endswith("\n")
    assert "".join(json_chunks(json.loads(raw))) == raw[:-1]


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
    text = "".join(json_chunks(payload))
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
        "".join(json_chunks(payload))


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
