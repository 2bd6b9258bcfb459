"""Fock-space and Laurent-polynomial helpers that no fockcalc command runs,
kept for the tests.

* ``monomial`` and ``weight``: the canonical monomial of a list of parts,
  and the weight of a homogeneous vector;
* ``ordered_pair_apply``: :h(j)h(k): by two ``h_apply`` calls, the oracle
  of the cached quadratic tables ``fockcalc.quadratic._lpq_mon``;
* ``d_apply``, ``t_mul``, ``diff_op_apply`` and ``laurent_str``: Laurent
  polynomials in t as dicts {power: coefficient}, zero entries dropped,
  with the operators (-1)^{r+1} D^r (t^n D) D^r composed one D at a time.
  They are the oracle of the closed form
  ``fockcalc.quadratic._diff_op_coeff``.
"""

from fockcalc.exact import UsageError, rat_str
from fockcalc.fock import FockVector, h_apply


def monomial(parts) -> tuple:
    """Canonical monomial from an iterable of positive integer parts."""
    parts = tuple(sorted(parts, reverse=True))
    if any(p < 1 for p in parts):
        raise UsageError("parts must be positive integers")
    return parts


def weight(v: FockVector) -> int:
    """Common weight of a homogeneous nonzero vector."""
    weights = {sum(mon) for mon in v.terms}
    if not weights:
        raise UsageError("the zero vector has no weight")
    if len(weights) > 1:
        raise UsageError(f"vector is not weight-homogeneous: weights {sorted(weights)}")
    return weights.pop()


def ordered_pair_apply(j: int, k: int, v: FockVector) -> FockVector:
    """:h(j)h(k): v with the annihilation factor applied first."""
    if j > 0 and k < 0:
        return h_apply(k, h_apply(j, v))
    return h_apply(j, h_apply(k, v))


def d_apply(p: dict) -> dict:
    """The homogeneous derivative D = t d/dt: D t^m = m t^m."""
    return {k: k * c for k, c in p.items() if k}


def t_mul(n: int, p: dict) -> dict:
    return {k + n: c for k, c in p.items()}


def diff_op_apply(r: int, n: int, p: dict) -> dict:
    """Apply (-1)^{r+1} D^r (t^n D) D^r to a Laurent polynomial."""
    out = p
    for _ in range(r):
        out = d_apply(out)
    out = t_mul(n, d_apply(out))
    for _ in range(r):
        out = d_apply(out)
    return out if r % 2 else {k: -c for k, c in out.items()}


def laurent_str(p: dict) -> str:
    """The verify-diffop cell string of a Laurent polynomial."""
    if not p:
        return "LaurentPolyVector(0)"
    body = " + ".join(f"{rat_str(c)}*t^{k}" for k, c in sorted(p.items()))
    return f"LaurentPolyVector({body})"
