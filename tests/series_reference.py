"""Reference constructions that no fockcalc command runs, kept for the tests.

The verifiers sum their delta products and exponentials in closed form,
and Bernoulli numbers come from the recurrence.  What is here is the
series-level route to the same objects, used as oracles and as building
blocks of oracles:

* ``PowerSeries``: the package's truncated power series with the
  operations no command needs (sums, scaling, shifts, composition,
  derivative, exp and log);
* ``exp_x``, ``bernoulli_series`` and ``check_geometric_bernoulli``: the
  long-division route to x/(e^x - 1), a second route to the Bernoulli
  numbers beside the recurrence of ``fockcalc.exact.bernoulli``;
* ``constant_series``, ``monomial_series``, ``exp_linear_form`` and
  ``delta_series``: elementary ``MultiSeries``;
* ``apply_taylor`` and ``apply_dilation``: the formal translation and
  dilation exponentials f(x) -> f(x + y) and f(x) -> f(e^y x);
* ``localized_scale``, ``localized_mul_series`` and ``localized_add``:
  the ``LocalizedSeries`` operations no command needs;
* ``exp_cells_by_recursion``, ``derivative_pole`` and
  ``plusplus_pieces``: the Fraction route to the ++ pole sums of the
  generating-function identity, the oracle of the packed-int
  ``fockcalc.series._plusplus_pieces``.
"""

from fractions import Fraction
from math import factorial, lcm
from types import MappingProxyType

from fockcalc import exact
from fockcalc.exact import (ONE, ZERO, SeriesError, UsageError, _add_into,
                            bernoulli, rat_str)
from fockcalc.report import VerificationReport
from fockcalc.series import (_RHS_TERMS, _YS, LocalizedSeries, MultiSeries,
                             _exact_div, _exp_cells, _genfun_space,
                             _geometric_pole_coeffs, _min_none, _poly_in_form,
                             _ys, comb_int)


class PowerSeries(exact.PowerSeries):
    """``fockcalc.exact.PowerSeries`` with the whole ring structure.  The
    package's own operations return this class on its instances."""

    __slots__ = ()

    @classmethod
    def zero(cls, order):
        return cls({}, order)

    @classmethod
    def x(cls, order):
        return cls({1: ONE} if order >= 1 else {}, order)

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise SeriesError("cannot extend a truncated series")
        return PowerSeries({n: c for n, c in self.coeffs.items() if n <= order},
                           order)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        order = min(self.order, other.order)
        out = {}
        for n in set(self.coeffs) | set(other.coeffs):
            if n <= order:
                c = self.coeffs.get(n, ZERO) + other.coeffs.get(n, ZERO)
                if c:
                    out[n] = c
        return PowerSeries(out, order)

    def __neg__(self):
        return PowerSeries({n: -c for n, c in self.coeffs.items()}, self.order)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, a) -> "PowerSeries":
        a = Fraction(a)
        if not a:
            return PowerSeries.zero(self.order)
        return PowerSeries({n: a * c for n, c in self.coeffs.items()},
                           self.order)

    def shift(self, k: int) -> "PowerSeries":
        """Multiply by x^k (k >= 0); truncation order grows with the shift."""
        if k < 0:
            raise SeriesError("shift exponent must be >= 0")
        return PowerSeries({n + k: c for n, c in self.coeffs.items()},
                           self.order + k)

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """self(inner(x)); the inner series must have zero constant term."""
        if inner.constant_term():
            raise SeriesError("composition requires zero inner constant term")
        order = min(self.order, inner.order)
        inner = inner.truncate(order)
        out = PowerSeries({0: self.coeffs.get(0, ZERO)}, order)
        power = PowerSeries.one(order)
        for n in range(1, order + 1):
            power = power * inner
            if power.is_zero():
                break
            cn = self.coeffs.get(n, ZERO)
            if cn:
                out = out + power.scale(cn)
        return out

    def derivative(self) -> "PowerSeries":
        if self.order == 0:
            return PowerSeries.zero(0)
        return PowerSeries({n - 1: n * c for n, c in self.coeffs.items()
                            if n >= 1}, self.order - 1)

    def exp(self) -> "PowerSeries":
        """exp of a series with zero constant term, via e' = a' e."""
        if self.constant_term():
            raise SeriesError("exp requires zero constant term")
        order = self.order
        out = {0: ONE}
        for n in range(1, order + 1):
            acc = ZERO
            for k in range(1, n + 1):
                ak = self.coeffs.get(k, ZERO)
                if ak:
                    acc += k * ak * out.get(n - k, ZERO)
            c = acc / n
            if c:
                out[n] = c
        return PowerSeries(out, order)

    def log(self) -> "PowerSeries":
        """log of a series with constant term 1, via l' = a'/a."""
        if self.constant_term() != 1:
            raise SeriesError("log requires constant term 1")
        order = self.order
        out = {}
        for n in range(1, order + 1):
            acc = n * self.coeffs.get(n, ZERO)
            for k in range(1, n):
                lk = out.get(k, ZERO)
                if lk:
                    acc -= k * lk * self.coeffs.get(n - k, ZERO)
            c = acc / n
            if c:
                out[n] = c
        return PowerSeries(out, order)


def exp_x(order: int) -> PowerSeries:
    """e^x - computed from the factorial coefficients."""
    return PowerSeries({n: Fraction(1, factorial(n))
                        for n in range(order + 1)}, order)


def bernoulli_series(order: int) -> PowerSeries:
    """x/(e^x - 1) through the given order, by exact long division.

    The coefficient of x^k is B_k / k!.
    """
    # divide x by (e^x - 1) after cancelling the common factor x
    denom = PowerSeries(
        {n - 1: Fraction(1, factorial(n)) for n in range(1, order + 2)}, order)
    return PowerSeries.one(order).div(denom)


def check_geometric_bernoulli(order: int) -> VerificationReport:
    """Compare the two rigorous routes to 1/(1 - e^x) coefficient-wise.

    Left side: -x^{-1} * (x/(e^x-1)) with the inner series computed by long
    division.  Right side: -sum_k B_k/k! x^{k-1} with B_k from the
    recurrence.  The report has one cell per exponent from -1 up.
    """
    if order < 1:
        raise UsageError("order must be >= 1")
    rep = VerificationReport(
        identity="geometric-bernoulli",
        parameters={"order": order},
    )
    divided = bernoulli_series(order)
    for k in range(order + 1):
        lhs = -divided.coeff(k)          # coefficient of x^{k-1} on the left
        rhs = -bernoulli(k) / factorial(k)
        rep.add_cell(f"x^{k - 1}", rat_str(lhs), rat_str(rhs))
    return rep


# ---------------------------------------------------------------------------
# Elementary multivariate series
# ---------------------------------------------------------------------------

def constant_series(varspecs, value=Fraction(1)) -> MultiSeries:
    complete = {v.name: (None, None) for v in varspecs if v.kind == "window"}
    zero_cell = (0,) * len(varspecs)
    terms = {zero_cell: Fraction(value)} if value else {}
    return MultiSeries(varspecs, terms, complete)


def monomial_series(varspecs, exponents: dict,
                    value=Fraction(1)) -> MultiSeries:
    out = constant_series(varspecs, value)
    if not value:
        return out
    cell = [0] * len(varspecs)
    for name, e in exponents.items():
        cell[out.pos(name)] = e
    out.terms = {tuple(cell): Fraction(value)}
    return out


def exp_linear_form(varspecs, form: dict, tcap: int) -> MultiSeries:
    """exp(sum_v form[v]*v) over the trunc variables, total degree <= tcap."""
    names = [v.name for v in varspecs if v.kind == "trunc"]
    coeffs = tuple(form.get(n, 0) for n in names)
    pos = {v.name: i for i, v in enumerate(varspecs)}
    terms = {}
    for local_cell, value in _exp_cells(coeffs, tcap):
        if not value:
            continue
        cell = [0] * len(varspecs)
        for n, e in zip(names, local_cell):
            cell[pos[n]] = e
        terms[tuple(cell)] = value
    complete = {v.name: (None, None) for v in varspecs if v.kind == "window"}
    return MultiSeries(varspecs, terms, complete, tcap)


def delta_series(varspecs, ratio: dict, window: tuple) -> MultiSeries:
    """The formal delta function sum_n (ratio)^n restricted to a window.

    ratio is a single monomial given as an exponent map over window
    variables; each variable's certified interval is the image of the
    window under its ratio exponent.
    """
    lo, hi = window
    pos = {v.name: i for i, v in enumerate(varspecs)}
    terms = {}
    for n in range(lo, hi + 1):
        cell = [0] * len(varspecs)
        for name, rho in ratio.items():
            cell[pos[name]] = rho * n
        terms[tuple(cell)] = Fraction(1)
    ival = {}
    for v in varspecs:
        if v.kind != "window":
            continue
        rho = ratio.get(v.name, 0)
        if rho == 0:
            ival[v.name] = (None, None)
        else:
            ival[v.name] = (min(rho * lo, rho * hi), max(rho * lo, rho * hi))
    return MultiSeries(varspecs, terms, ival)


# ---------------------------------------------------------------------------
# Formal translation and dilation
# ---------------------------------------------------------------------------

def _y_order(f: MultiSeries, yname: str, order, role: str) -> int:
    """The y truncation order of a translation or dilation in yname:
    order if given, else the variable's own order, else f's tcap."""
    yspec = f.varspecs[f.pos(yname)]
    if yspec.kind != "trunc":
        raise UsageError(f"{role} variable must be truncated-nonnegative")
    jmax = order if order is not None else (
        yspec.order if yspec.order is not None else f.tcap)
    if jmax is None:
        raise UsageError("no truncation order available for the y variable")
    return jmax


def apply_taylor(yname: str, f: MultiSeries, xname: str,
                 order=None) -> MultiSeries:
    """Formal translation f(x) -> f(x+y), binomials expanded in
    nonnegative powers of y.

    x^m translates to sum_k C(m,k) x^{m-k} y^k (general integer m); the
    certified x interval shrinks by the y order at the top end.
    """
    jmax = _y_order(f, yname, order, "translation")
    xi, yi = f.pos(xname), f.pos(yname)
    tcap = _min_none(f.tcap, jmax)
    ival = dict(f.x_ival)
    lo, hi = ival[xname]
    ival[xname] = (lo, None if hi is None else hi - jmax)
    out = MultiSeries(f.varspecs, {}, ival, tcap, f.neg_floor)
    for cell, c in f.terms.items():
        m = cell[xi]
        for k in range(jmax + 1):
            coef = comb_int(m, k)
            if not coef:
                continue
            new = list(cell)
            new[xi] = m - k
            new[yi] = cell[yi] + k
            _add_into(out.terms, tuple(new), c * coef)
    return out._prune()


def apply_dilation(yname: str, f: MultiSeries, xname: str,
                   order=None) -> MultiSeries:
    """Formal dilation f(x) -> f(e^y x): the x^n coefficient picks up the
    exponential series e^{ny} through the y truncation."""
    jmax = _y_order(f, yname, order, "dilation")
    xi, yi = f.pos(xname), f.pos(yname)
    out = MultiSeries(f.varspecs, {}, f.x_ival, _min_none(f.tcap, jmax),
                      f.neg_floor)
    for cell, c in f.terms.items():
        n = cell[xi]
        power = Fraction(1)
        for k in range(jmax + 1):
            if k:
                power = power * n / k
                if not power:
                    break
            new = list(cell)
            new[yi] = cell[yi] + k
            _add_into(out.terms, tuple(new), c * power)
    return out._prune()


# ---------------------------------------------------------------------------
# Localized pole series
# ---------------------------------------------------------------------------

def localized_scale(loc: LocalizedSeries, a) -> LocalizedSeries:
    return LocalizedSeries(loc.pole, loc.order, loc.body.scale(a))


def localized_mul_series(loc: LocalizedSeries, s: MultiSeries):
    return LocalizedSeries(loc.pole, loc.order, loc.body.mul(s))


def localized_add(a: LocalizedSeries, b: LocalizedSeries) -> LocalizedSeries:
    """Sum over the pole of a.  b's pole must be the same form or its
    negation; body/(-lambda)^k is (-1)^k body/lambda^k."""
    body_b = b.body
    if b.pole != a.pole:
        if b.pole != {n: -c for n, c in a.pole.items()}:
            raise UsageError(
                "cannot add localized series with different poles")
        body_b = body_b.scale((-1) ** b.order)
    k = max(a.order, b.order)
    body_a = a.body
    for _ in range(k - a.order):
        body_a = a._pole_times(body_a)
    for _ in range(k - b.order):
        body_b = a._pole_times(body_b)
    return LocalizedSeries(a.pole, k, body_a.add(body_b))


# ---------------------------------------------------------------------------
# The ++ pole sums of the generating-function identity, in Fractions
# ---------------------------------------------------------------------------

def exp_cells_by_recursion(coeffs: tuple, tcap: int) -> tuple:
    """Term list of exp(sum c_i u_i) through total degree tcap, one
    Fraction product per exponent."""
    out = []

    def rec(i, budget, prefix, value):
        if i == len(coeffs):
            out.append((tuple(prefix), value))
            return
        c = coeffs[i]
        if c == 0:
            rec(i + 1, budget, prefix + [0], value)
            return
        power = Fraction(1)
        for k in range(budget + 1):
            rec(i + 1, budget - k, prefix + [k], value * power)
            power = power * c / (k + 1)

    rec(0, tcap, [], Fraction(1))
    return tuple(out)


def derivative_pole(a_form: dict, b_form: dict, varspecs,
                    order: int) -> LocalizedSeries:
    """W'(a-b) for W(u) = 1/(1-e^{-u}): pole order 2 with body H(a-b),
    H(u) = u G'(u) - G(u)."""
    g = _geometric_pole_coeffs(order)
    h = [(k - 1) * g[k] for k in range(order + 1)]
    lam: dict = {}
    for name, c in a_form.items():
        lam[name] = lam.get(name, 0) + c
    for name, c in b_form.items():
        lam[name] = lam.get(name, 0) - c
    lam = {n: c for n, c in lam.items() if c}
    body = _poly_in_form(varspecs, lam, h, order)
    return LocalizedSeries(lam, 2, body)


def plusplus_pieces(window: int, ydeg: int) -> tuple:
    """``fockcalc.series._plusplus_pieces`` on exponent tuples: each
    product cell of H(lam) e^{n(f-g)} and each step of lam d_outer P -
    2 c P built as a tuple, H and the exponential as Fraction series."""
    varspecs = _genfun_space(window, ydeg)
    top = ydeg + 3
    bases = [(_YS.index(outer), _ys({f: 1, g: -1}),
              derivative_pole(a_form, {b_var: 1}, varspecs, top))
             for outer, a_form, b_var, (f, g) in _RHS_TERMS]
    den_h = lcm(*(x.denominator for *_, base in bases
                  for x in base.body.terms.values()))
    fact = factorial(top)
    out = []
    for n in range(-window, window + 1):
        by_pole = {}
        for o, fg, base in bases:
            lam = _ys(base.pole)    # the pole a - b
            efactor = [(cell, sum(cell), _exact_div(x.numerator * fact,
                                                    x.denominator))
                       for cell, x in exp_cells_by_recursion(
                           tuple(n * c for c in fg), top)]
            product = {}
            for cell, x in base.body.terms.items():
                cell, x = cell[:4], x.numerator * (den_h // x.denominator)
                for ecell, deg, y in efactor:
                    if deg <= top - sum(cell):
                        new = tuple(a + b for a, b in zip(cell, ecell))
                        product[new] = product.get(new, 0) + x * y
            # lam d_outer P - 2 c P, and -body / lam^3 for the pole -lam
            key = min(lam, tuple(-c for c in lam))
            pole, piece = by_pole.setdefault(key, (base.pole, {}))
            sign = 1 if lam == _ys(pole) else -1
            for cell, x in product.items():
                piece[cell] = piece.get(cell, 0) - 2 * lam[o] * x * sign
                if cell[o]:
                    down = cell[:o] + (cell[o] - 1,) + cell[o + 1:]
                    for j, c in enumerate(lam):
                        new = down[:j] + (down[j] + 1,) + down[j + 1:]
                        piece[new] = piece.get(new, 0) + c * cell[o] * x * sign
        out.append((n, tuple(
            LocalizedSeries(pole, 3, MultiSeries(varspecs, MappingProxyType(
                {cell + (0, 0): Fraction(x, 4 * den_h * fact)
                 for cell, x in piece.items() if x}),
                {"x1": (None, None), "x2": (None, None)}, top))
            for pole, piece in by_pole.values())))
    return tuple(out)
