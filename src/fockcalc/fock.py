"""The polynomial boson Fock space and its oscillator actions.

States are finite rational combinations of monomials h(-j1)...h(-jk)*1,
indexed by integer partitions (parts sorted descending).  The mode h(n)
acts by multiplication for n < 0, by n * d/dh(-n) for n > 0, and by zero
for n = 0; the vacuum is the empty partition.  wt h(-j) = j, so the weight
of a monomial is the sum of its parts.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import lcm
from types import MappingProxyType

from .exact import ZERO, UsageError, _add_into, rat_str

# A monomial is a tuple of parts sorted descending; () is the vacuum.
VACUUM = ()


class FockVector:
    """Finite sparse rational combination of Fock monomials.

    The term map never stores zero coefficients.  Instances are treated
    as immutable once returned from this module's functions.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for mon, c in other.terms.items():
            _add_into(out, mon, c)
        return FockVector(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for mon, c in other.terms.items():
            _add_into(out, mon, -c)
        return FockVector(out)

    def scale(self, a):
        a = Fraction(a)
        if not a:
            return FockVector()
        return FockVector({mon: a * c for mon, c in self.terms.items()})

    def __mul__(self, a):
        return self.scale(a)

    __rmul__ = __mul__

    def coeff(self, mon) -> Fraction:
        return self.terms.get(tuple(mon), ZERO)

    def max_weight(self) -> int:
        """Largest monomial weight present (-1 for the zero vector)."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def weight_components(self):
        """Split into homogeneous pieces, sorted by weight."""
        buckets = {}
        for mon, c in self.terms.items():
            buckets.setdefault(sum(mon), {})[mon] = c
        return [(w, FockVector(t)) for w, t in sorted(buckets.items())]


def _den(v: FockVector) -> int:
    """The lcm of v's coefficient denominators; 1 for the zero vector."""
    return lcm(*[c.denominator for c in v.terms.values()])


def _on_scale(v: FockVector, den: int) -> FockVector:
    """den * v as an int-valued vector.

    The division is exact: a coefficient that is not a multiple of 1/den
    raises, so no entry is ever floored onto the scale.
    """
    out = {}
    for mon, c in v.terms.items():
        n, r = divmod(c.numerator * den, c.denominator)
        if r:
            raise ValueError(f"coefficient {rat_str(c)} of {list(mon)} is "
                             f"not a multiple of 1/{den}")
        out[mon] = n
    return FockVector(out)


def _off_scale(terms: dict, den: int) -> FockVector:
    """The inverse of ``_on_scale``: the Fraction-valued vector terms / den
    of an int term map, zero entries dropped."""
    return FockVector({mon: Fraction(x, den) for mon, x in terms.items()
                       if x})


def _iaxpy(acc: dict, terms, c: int) -> None:
    """acc += c * terms, in place, for int term maps; zero sums are kept.

    The one accumulation protocol of the package: each vector goes onto
    an int scale with ``_on_scale``, the sum is taken here, and the total
    is divided once with ``_off_scale``.  A delta-kernel cell sum
    (``voa._slice_half_sums``, ``voa._check_orders``) starts from a copy
    of its first table and adds the rest here: the shared tables it reads
    are never written.
    """
    for mon, x in terms.items():
        acc[mon] = acc.get(mon, 0) + c * x


def _nonzero(acc: dict) -> dict:
    """acc without its zero entries; acc itself when it has none."""
    if 0 in acc.values():
        return {mon: x for mon, x in acc.items() if x}
    return acc


@functools.lru_cache(maxsize=None)
def _label(mon: tuple) -> str:
    return "[" + ",".join(map(str, mon)) + "]"


def fock_str(v: FockVector) -> str:
    """Canonical display string, e.g. ``1/2*[1,1] + 2*[3]``; "0" if zero."""
    if not v.terms:
        return "0"
    return " + ".join(f"{rat_str(c)}*{_label(mon)}"
                      for mon, c in sorted(v.terms.items()))


def vacuum() -> FockVector:
    return FockVector({VACUUM: Fraction(1)})


def h_apply(n: int, v: FockVector) -> FockVector:
    """Action of the oscillator mode h(n) on a vector.

    n < 0: multiply by h(n), i.e. insert a part -n.
    n > 0: n * d/dh(-n), removing one part n per occurrence.
    n = 0: zero map (the central mode acts trivially).
    """
    if n == 0 or not v:
        return FockVector()
    # inserting or removing one part is injective on partitions, so no two
    # terms land on one monomial
    if n < 0:
        return FockVector({_insert_part(mon, -n): c
                           for mon, c in v.terms.items()})
    return FockVector({_remove_part(mon, n): c * (n * mult)
                       for mon, c in v.terms.items()
                       if (mult := mon.count(n))})


@functools.lru_cache(maxsize=None)
def _insert_part(mon: tuple, part: int) -> tuple:
    for i, p in enumerate(mon):
        if part >= p:
            return mon[:i] + (part,) + mon[i:]
    return mon + (part,)


@functools.lru_cache(maxsize=None)
def _remove_part(mon: tuple, part: int) -> tuple:
    i = mon.index(part)
    return mon[:i] + mon[i + 1:]


@functools.lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple:
    """All partitions of n as descending tuples, in descending lex order."""
    if n == 0:
        return (VACUUM,)
    out = []
    _append_partitions(out, n, n, [])
    return tuple(out)


def _append_partitions(out, remaining, max_part, prefix):
    """Append prefix + each partition of remaining into parts <= max_part
    to out, in descending lex order (module-level: no closure cycle)."""
    if remaining == 0:
        out.append(tuple(prefix))
        return
    for p in range(min(max_part, remaining), 0, -1):
        prefix.append(p)
        _append_partitions(out, remaining - p, p, prefix)
        prefix.pop()


@functools.lru_cache(maxsize=None)
def weight_basis(w: int) -> tuple:
    """Basis monomials of the weight-w subspace, deterministically ordered."""
    return partitions_of(w)


@functools.lru_cache(maxsize=None)
def weight_index(w: int) -> MappingProxyType:
    """Position of each weight-w monomial in ``weight_basis(w)``; read-only,
    since every caller shares the cached mapping."""
    return MappingProxyType({mon: i for i, mon in enumerate(weight_basis(w))})


def basis(max_weight: int) -> list:
    """All basis monomials of weight <= max_weight, by weight then lex."""
    if max_weight < 0:
        raise UsageError("max_weight must be >= 0")
    out = []
    for w in range(max_weight + 1):
        out.extend(weight_basis(w))
    return out

