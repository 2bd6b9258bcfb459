"""The delta-kernel cell loop with every sum started from an empty dict,
kept for the tests.

``fockcalc.voa._check_orders`` starts each half sum and each right side
from a copy of its first nonempty table and adds only the later tables
with ``_iaxpy``; a left side whose first half sum is empty is the second
half itself, or its negation.  ``reference_check_orders`` is the loop it
replaced: ``acc = {}`` and one ``_iaxpy`` per table, with the half sums
of ``reference_half_sums``.  It takes the same arguments, so a test can
put it in the place of ``voa._check_orders`` and compare the reports.
"""

import functools

from fockcalc.fock import _iaxpy
from fockcalc.report import VerificationReport
from fockcalc.series import comb_int


def reference_half_sums(tab, a0):
    """``voa._slice_half_sums`` with every half sum summed into {}."""
    n = -a0 - 1

    @functools.cache
    def terms(swap, b2):
        inner, reach = (tab.uw, tab.u_reach) if swap else (tab.vw, tab.v_reach)
        kmax = b2 + reach if n < 0 else min(b2 + reach, n)
        return [(k - n, b2 - k, c) for k in range(kmax + 1)
                if (c := comb_int(n, k) * (-1) ** k) and inner(b2 - k).terms]

    @functools.cache
    def half(swap, b1, b2):
        outer = tab.v_uw if swap else tab.u_vw
        acc = {}
        for d, e, c in terms(swap, b2):
            if table := outer(b1 + d, e).terms:
                _iaxpy(acc, table, c)
        return acc
    return half


def reference_check_orders(tab, windows, top, den, sides):
    """``voa._check_orders`` with each side summed into {}: the left side
    as a copy of the first half sum plus the signed second, the right
    side as one ``_iaxpy`` per nonempty iterate table."""
    (lo0, hi0), (lo1, hi1), (lo2, hi2) = (windows[x] for x in ("x0", "x1",
                                                                "x2"))
    r2 = range(lo2, hi2 + 1)

    def cells():
        for a0 in range(lo0, hi0 + 1):
            half = reference_half_sums(tab, a0)
            sign = -1 if a0 % 2 else 1
            for swap, (rep, rhs_terms, table) in enumerate(sides):
                first = bool(swap) and not tab.same
                second = not swap and not tab.same
                for a1 in range(lo1, hi1 + 1):
                    row = range(max(lo2, -(top + a0 + a1 + 1)), hi2 + 1)
                    rep.bulk_passed += len(r2) - len(row)
                    if not row:
                        continue
                    terms = rhs_terms(a0, a1)
                    for a2 in row:
                        lhs = half(first, a1, a2)
                        if other := half(second, a2, a1):
                            lhs = dict(lhs)
                            _iaxpy(lhs, other, sign)
                        rhs = {}
                        for i, c in terms:
                            if it := table(i, a0 + a1 + a2).terms:
                                _iaxpy(rhs, it, c)
                        if lhs or rhs:
                            yield rep, (a0, a1, a2), lhs, rhs
                        else:
                            rep.bulk_passed += 1
    VerificationReport.add_int_cells(den, "x0^{} x1^{} x2^{}".format, cells())
    return [rep for rep, _, _ in sides]
