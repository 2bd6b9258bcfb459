"""Structured pass/fail records for identity verification.

Every verifier in the package produces a VerificationReport: one cell per
compared coefficient, with both sides kept as exact strings.  A cell is
"pass" only when the two sides are exactly equal; cells that could not be
certified (requested outside a certified window) are recorded as
"uncertified" and never count as passed.  Int cells are compared,
rendered and counted by ``VerificationReport.add_int_cells``.
"""

from __future__ import annotations

import json
from collections import Counter
from json.encoder import encode_basestring_ascii as _quote
from math import gcd
from operator import attrgetter

from .fock import _label

PASS = "pass"
FAIL = "fail"
UNCERTIFIED = "uncertified"

SCHEMA_VERSION = 1


class Cell:
    """One compared coefficient.  Mutable, so that merging reports can
    relabel keys in place; equal when all four fields are."""

    __slots__ = ("key", "lhs", "rhs", "status")

    def __init__(self, key, lhs, rhs, status):
        self.key = key
        self.lhs = lhs
        self.rhs = rhs
        self.status = status

    def _fields(self):
        return (self.key, self.lhs, self.rhs, self.status)

    def __eq__(self, other):
        if type(other) is not Cell:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return ("Cell(key={!r}, lhs={!r}, rhs={!r}, status={!r})"
                .format(*self._fields()))


def _int_str(terms: dict, den: int, memo: dict) -> str:
    """``fock_str`` of the vector terms / den, for an int term map with no
    zero entry; memo maps a numerator n to ``rat_str(n / den)``."""
    bits = []
    for mon, n in sorted(terms.items()):
        c = memo.get(n)
        if c is None:
            g = gcd(n, den)
            c = memo[n] = str(n // g) if g == den else f"{n // g}/{den // g}"
        bits.append(f"{c}*{_label(mon)}")
    return " + ".join(bits) or "0"


class VerificationReport:
    """The cells of one verification, its parameters and recorded data.
    cells and data default to a fresh list and dict per report."""

    def __init__(self, identity, parameters, cells=None, data=None,
                 bulk_passed=0):
        self.identity = identity
        self.parameters = parameters
        self.cells = [] if cells is None else cells
        self.data = {} if data is None else data
        # zero-equals-zero cells verified in bulk, counted but not listed
        self.bulk_passed = bulk_passed

    def add_cell(self, key, lhs, rhs, status=None):
        if status is None:
            status = PASS if lhs == rhs else FAIL
        self.cells.append(Cell(str(key), str(lhs), str(rhs), status))
        return status

    def add_uncertified(self, key):
        self.cells.append(Cell(str(key), "?", "?", UNCERTIFIED))

    @staticmethod
    def add_int_cells(den, key, cells, listed=False):
        """Compare, render and count the int cells of one check, which may
        feed several reports, on the scale den.  cells yields (report, k,
        lhs, rhs), the sides den times int term maps, zero entries
        allowed, or rhs None if uncertified; the sides are read, never
        written.  A cell zero on both sides is a bulk pass unless listed;
        any other is keyed key(*k) and passes if its sides are equal.  One
        memo of coefficient strings serves the call and goes with it."""
        memo = {}
        for rep, k, lhs, rhs in cells:
            if rhs is None:
                rep.add_uncertified(key(*k))
                continue
            if 0 in lhs.values():
                lhs = {mon: x for mon, x in lhs.items() if x}
            if 0 in rhs.values():
                rhs = {mon: x for mon, x in rhs.items() if x}
            if lhs != rhs:
                rep.cells.append(Cell(key(*k), _int_str(lhs, den, memo),
                                      _int_str(rhs, den, memo), FAIL))
            elif lhs or listed:
                text = _int_str(lhs, den, memo)
                rep.cells.append(Cell(key(*k), text, text, PASS))
            else:
                rep.bulk_passed += 1

    @property
    def counts(self):
        total = len(self.cells) + self.bulk_passed
        statuses = Counter(map(attrgetter("status"), self.cells))
        passed = statuses[PASS] + self.bulk_passed
        failed = statuses[FAIL]
        uncert = total - passed - failed
        return {"total": total, "passed": passed, "failed": failed,
                "uncertified": uncert}

    @property
    def passed(self):
        """True when every cell passed and none was uncertified.  A report
        with no cells at all has checked nothing, so it does not pass."""
        c = self.counts
        return c["total"] > 0 and c["failed"] == 0 and c["uncertified"] == 0

    def failing_cells(self, limit=10):
        return [c for c in self.cells if c.status != PASS][:limit]

    def to_json_dict(self):
        return {
            "schema": SCHEMA_VERSION,
            "identity": self.identity,
            "parameters": self.parameters,
            "data": self.data,
            "cells": [
                {"key": c.key, "lhs": c.lhs, "rhs": c.rhs, "pass": c.status == PASS,
                 "status": c.status}
                for c in self.cells
            ],
            "summary": self.counts,
        }

    def summary_line(self):
        c = self.counts
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{verdict} {self.identity} {self.parameters}: "
                f"{c['passed']}/{c['total']} cells passed, "
                f"{c['failed']} failed, {c['uncertified']} uncertified")

    def __str__(self):
        return self.summary_line()


_CELL_KEYS = {"key", "lhs", "pass", "rhs", "status"}

# cells per piece of ``json_chunks``
_CHUNK_CELLS = 256


def json_chunks(payload):
    """The text of ``json.dumps(payload, indent=2, sort_keys=True)`` as an
    iterator of pieces, at most ``_CHUNK_CELLS`` cells each, so a writer
    holds one piece of the text at a time.  A top-level ``cells`` list of
    ``to_json_dict`` cells is written here: with ``indent`` set,
    ``json.dumps`` runs its pure-Python encoder, and reports are mostly
    cells.  Every cell is checked before the iterator is returned: a cell
    of any other shape raises ``ValueError`` with no text made."""
    if "cells" not in payload:
        return iter((json.dumps(payload, indent=2, sort_keys=True),))
    cells = payload["cells"]
    for c in cells:
        if c.keys() != _CELL_KEYS or type(c["pass"]) is not bool:
            raise ValueError(f"not a report cell: {c!r}")
    # only top-level keys sit two spaces in, as no string holds a newline
    head, tail = json.dumps({**payload, "cells": 0}, indent=2,
                            sort_keys=True).split('\n  "cells": 0', 1)
    return _cell_chunks(head, cells, tail)


def _cell_chunks(head, cells, tail):
    if not cells:
        yield f'{head}\n  "cells": []{tail}'
        return
    yield f'{head}\n  "cells": ['
    for i in range(0, len(cells), _CHUNK_CELLS):
        yield ("," if i else "") + ",".join(
            f'\n    {{\n      "key": {_quote(c["key"])},\n'
            f'      "lhs": {_quote(c["lhs"])},\n'
            f'      "pass": {"true" if c["pass"] else "false"},\n'
            f'      "rhs": {_quote(c["rhs"])},\n'
            f'      "status": {_quote(c["status"])}\n    }}'
            for c in cells[i:i + _CHUNK_CELLS])
    yield f"\n  ]{tail}"


def write_chunks(out, chunks):
    """Write the pieces of a text to the stream out, one at a time, and
    end it with a newline."""
    for chunk in chunks:
        out.write(chunk)
    out.write("\n")
