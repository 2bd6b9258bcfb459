"""Structured pass/fail records for identity verification.

Every verifier in the package produces a VerificationReport: one cell per
compared coefficient, with both sides kept as exact strings.  A cell is
"pass" only when the two sides are exactly equal; cells that could not be
certified (requested outside a certified window) are recorded as
"uncertified" and never count as passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
UNCERTIFIED = "uncertified"

SCHEMA_VERSION = 1


@dataclass
class Cell:
    key: str
    lhs: str
    rhs: str
    status: str


@dataclass
class VerificationReport:
    identity: str
    parameters: dict
    cells: list = field(default_factory=list)
    data: dict = field(default_factory=dict)
    # zero-equals-zero cells verified in bulk, counted but not listed
    bulk_passed: int = 0

    def add_cell(self, key, lhs, rhs, status=None):
        if status is None:
            status = PASS if lhs == rhs else FAIL
        self.cells.append(Cell(str(key), str(lhs), str(rhs), status))
        return status

    def add_uncertified(self, key):
        self.cells.append(Cell(str(key), "?", "?", UNCERTIFIED))

    @property
    def counts(self):
        total = len(self.cells) + self.bulk_passed
        passed = sum(1 for c in self.cells if c.status == PASS) + self.bulk_passed
        failed = sum(1 for c in self.cells if c.status == FAIL)
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
