"""Outside-in, reversible tracer for one benchmark pass.

Nothing inside ``fockcalc`` knows about it.  ``Tracer.install`` replaces
functions and methods with wrappers; ``Tracer.restore`` puts every
original back.  Because the package binds names with ``from .fock import
h_apply``, a function is replaced under every ``fockcalc.*`` module
attribute bound to the same object, not only where it is defined.

Two kinds of wrapper:

* timed: call count, self time (duration minus the wrapped calls made
  inside it) and inclusive time, optionally the number of distinct
  arguments;
* counted: a call count and no timer, for the hottest primitives
  (``h_apply``, the FockVector dunders, the Fraction operators), whose
  time stays in the self time of the timed caller.

Cache hits and misses are read through ``cache_info()`` and
``len(_MATRIX_CACHE)``, without patching.
"""

from __future__ import annotations

import fractions
import functools
import inspect
import json
import sys
from time import perf_counter

MODULES = ("exact", "fock", "quadratic", "series", "voa", "report", "cli")

FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                "__pow__", "__rpow__")

# (module, class, method) timed besides every public module function
TIMED_METHODS = (
    ("series", "LocalizedSeries", "expand"),
    ("series", "MultiSeries", "mul"),
    ("series", "MultiSeries", "add"),
    ("exact", "PowerSeries", "__mul__"),
    ("report", "VerificationReport", "to_json_dict"),
)

# (module, class or None, name) counted only
COUNTED = (
    ("fock", None, "h_apply"),
    ("fock", "FockVector", "__add__"),
    ("fock", "FockVector", "__sub__"),
    ("fock", "FockVector", "scale"),
)


def _vec_key(v):
    return frozenset(v.terms.items())


def _mode_apply_key(state, n, w):
    return (_vec_key(state), n, _vec_key(w))


def _expand_key(self, conv, dvar_floor):
    return (tuple(sorted(self.pole.items())), self.order,
            frozenset(self.body.terms.items()), conv.distinguished, dvar_floor)


DISTINCT_KEYS = {
    "voa.mode_apply": _mode_apply_key,
    "series.LocalizedSeries.expand": _expand_key,
}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fockcalc"
                                  or name.startswith("fockcalc."))]


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.incl_s = {}
        self.distinct = {}
        self._stack = []
        self._patches = []      # (owner, attribute, original)
        self._restored = []
        self._wrappers = {}     # id -> installed wrapper, kept alive
        self.cells = 0
        self.bulk_cells = 0

    # -- wrappers -----------------------------------------------------

    def timed(self, name, fn, key=None):
        calls, self_s, incl_s, stack = (self.calls, self.self_s, self.incl_s,
                                        self._stack)
        calls[name] = 0
        self_s[name] = incl_s[name] = 0.0
        seen = self.distinct.setdefault(name, set()) if key else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = perf_counter()
            if seen is not None:
                seen.add(key(*args, **kwargs))
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[name] += dt - stack.pop()
                incl_s[name] += dt
                calls[name] += 1
                if stack:
                    # the caller's self time excludes this call and its
                    # wrapper overhead
                    stack[-1] += perf_counter() - enter
        return wrapper

    def counted(self, name, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching -----------------------------------------------------

    def _set(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        self._wrappers[id(wrapper)] = wrapper
        setattr(owner, attr, wrapper)

    def _replace_everywhere(self, original, wrapper):
        self._wrappers[id(wrapper)] = wrapper
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        pkg = sys.modules
        for short in MODULES:
            mod = pkg["fockcalc." + short]
            for name, obj in sorted(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")
                        and (short, None, name) not in COUNTED):
                    qual = f"{short}.{name}"
                    self._replace_everywhere(
                        obj, self.timed(qual, obj, DISTINCT_KEYS.get(qual)))
        for short, cls_name, meth in TIMED_METHODS:
            cls = getattr(pkg["fockcalc." + short], cls_name)
            qual = f"{short}.{cls_name}.{meth}"
            wrapper = self.timed(qual, cls.__dict__[meth],
                                 DISTINCT_KEYS.get(qual))
            if qual == "report.VerificationReport.to_json_dict":
                wrapper = self._tally_cells(wrapper)
            self._set(cls, meth, wrapper)
        for short, cls_name, name in COUNTED:
            mod = pkg["fockcalc." + short]
            if cls_name is None:
                fn = getattr(mod, name)
                self._replace_everywhere(fn, self.counted(f"{short}.{name}", fn))
            else:
                cls = getattr(mod, cls_name)
                self._set(cls, name, self.counted(
                    f"{short}.{cls_name}.{name}", cls.__dict__[name]))
        for op in FRACTION_OPS:
            self._set(fractions.Fraction, op,
                      self.counted("arith.fraction_ops",
                                   fractions.Fraction.__dict__[op]))
        self._set(json, "dumps", self.timed("report.json_dumps", json.dumps))
        self._cache_base = _cache_state()

    def _tally_cells(self, to_json_dict):
        def wrapper(report):
            self.cells += len(report.cells)
            self.bulk_cells += report.bulk_passed
            return to_json_dict(report)
        return wrapper

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._restored, self._patches = self._patches, []

    def leftovers(self):
        """Names still bound to a wrapper after ``restore``; empty if clean."""
        bad = []
        owners = _package_modules() + [fractions.Fraction, json]
        for mod in _package_modules():
            owners.extend(v for v in vars(mod).values() if inspect.isclass(v))
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if id(value) in self._wrappers:
                    bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        for owner, attr, original in self._restored:
            if owner.__dict__.get(attr) is not original:
                bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return sorted(set(bad))

    @property
    def patched(self):
        return len(self._patches) + len(self._restored)


def _cache_state():
    voa = sys.modules["fockcalc.voa"]
    series = sys.modules["fockcalc.series"]
    quadratic = sys.modules["fockcalc.quadratic"]
    return {"mode_mon": voa._mode_mon.cache_info(),
            "exp_cells": series._exp_cells.cache_info(),
            "matrix_cache": len(quadratic._MATRIX_CACHE)}


def _ratio(num, den):
    return num / den if den else 0.0


# per-layer metric name -> unit, in output order
LAYER_UNITS = dict((
        ("series.expand.calls", "count"), ("series.expand.self_s", "s"),
        ("series.expand.distinct_ratio", "ratio"),
        ("series.slot_pair_apply.calls", "count"),
        ("series.slot_pair_apply.self_s", "s"),
        ("series.mul.self_s", "s"), ("series.add.self_s", "s"),
        ("series.exp_cells.hit_ratio", "ratio"),
        ("voa.mode_apply.calls", "count"), ("voa.mode_apply.self_s", "s"),
        ("voa.mode_apply.distinct_ratio", "ratio"),
        ("voa.X_apply.calls", "count"),
        ("voa.mode_mon.hits", "count"), ("voa.mode_mon.misses", "count"),
        ("voa.mode_mon.size", "count"),
        ("voa.zhu_bracket_apply.self_s", "s"), ("voa.verifier.self_s", "s"),
        ("quadratic.Lr_apply.calls", "count"),
        ("quadratic.Lr_apply.self_s", "s"),
        ("quadratic.to_matrix.calls", "count"),
        ("quadratic.to_matrix.misses", "count"),
        ("quadratic.to_matrix.self_s", "s"),
        ("quadratic.matrix_cache.size", "count"),
        ("quadratic.commutator.self_s", "s"),
        ("quadratic.central_decompose.calls", "count"),
        ("quadratic.central_decompose.self_s", "s"),
        ("quadratic.solve_exact.self_s", "s"),
        ("fock.h_apply.calls", "count"), ("fock.add.calls", "count"),
        ("fock.scale.calls", "count"), ("arith.fraction_ops", "count"),
        ("report.cells", "count"), ("report.bulk_cells", "count"),
        ("report.output_bytes", "bytes"), ("report.fock_str.self_s", "s"),
        ("report.serialise_s", "s"),
        ("exact.bernoulli.calls", "count"),
        ("exact.powerseries.mul_calls", "count"),
        *((f"{m}.self_s", "s") for m in MODULES),
        ("trace_overhead", "ratio")))


def layer_metrics(tracer, output_bytes):
    """Per-layer values of one traced pass (all but ``trace_overhead``)."""
    calls, self_s, incl_s = tracer.calls, tracer.self_s, tracer.incl_s
    base, end = tracer._cache_base, _cache_state()

    def distinct(name):
        return _ratio(len(tracer.distinct[name]), calls[name])

    mode_hits = end["mode_mon"].hits - base["mode_mon"].hits
    mode_misses = end["mode_mon"].misses - base["mode_mon"].misses
    exp_hits = end["exp_cells"].hits - base["exp_cells"].hits
    exp_misses = end["exp_cells"].misses - base["exp_cells"].misses
    out = {
        "series.expand.calls": calls["series.LocalizedSeries.expand"],
        "series.expand.self_s": self_s["series.LocalizedSeries.expand"],
        "series.expand.distinct_ratio": distinct("series.LocalizedSeries.expand"),
        "series.slot_pair_apply.calls": calls["series.slot_pair_apply"],
        "series.slot_pair_apply.self_s": self_s["series.slot_pair_apply"],
        "series.mul.self_s": self_s["series.MultiSeries.mul"],
        "series.add.self_s": self_s["series.MultiSeries.add"],
        "series.exp_cells.hit_ratio": _ratio(exp_hits, exp_hits + exp_misses),
        "voa.mode_apply.calls": calls["voa.mode_apply"],
        "voa.mode_apply.self_s": self_s["voa.mode_apply"],
        "voa.mode_apply.distinct_ratio": distinct("voa.mode_apply"),
        "voa.X_apply.calls": calls["voa.X_apply"],
        "voa.mode_mon.hits": mode_hits,
        "voa.mode_mon.misses": mode_misses,
        "voa.mode_mon.size": end["mode_mon"].currsize,
        "voa.zhu_bracket_apply.self_s": self_s["voa.zhu_bracket_apply"],
        "voa.verifier.self_s": sum(self_s[n] for n in (
            "voa.jacobi_check", "voa.dilated_jacobi_check", "voa.axiom_suite")),
        "quadratic.Lr_apply.calls": calls["quadratic.Lr_apply"],
        "quadratic.Lr_apply.self_s": self_s["quadratic.Lr_apply"],
        "quadratic.to_matrix.calls": calls["quadratic.to_matrix"],
        "quadratic.to_matrix.misses": end["matrix_cache"] - base["matrix_cache"],
        "quadratic.to_matrix.self_s": self_s["quadratic.to_matrix"],
        "quadratic.matrix_cache.size": end["matrix_cache"],
        "quadratic.commutator.self_s": self_s["quadratic.commutator"],
        "quadratic.central_decompose.calls": calls["quadratic.central_decompose"],
        "quadratic.central_decompose.self_s":
            self_s["quadratic.central_decompose"],
        "quadratic.solve_exact.self_s": self_s["quadratic.solve_exact"],
        "fock.h_apply.calls": calls["fock.h_apply"],
        "fock.add.calls": (calls["fock.FockVector.__add__"]
                           + calls["fock.FockVector.__sub__"]),
        "fock.scale.calls": calls["fock.FockVector.scale"],
        "arith.fraction_ops": calls["arith.fraction_ops"],
        "report.cells": tracer.cells,
        "report.bulk_cells": tracer.bulk_cells,
        "report.output_bytes": output_bytes,
        "report.fock_str.self_s": self_s["fock.fock_str"],
        "report.serialise_s": sum(incl_s[n] for n in (
            "report.VerificationReport.to_json_dict", "report.json_dumps",
            "report.write")),
        "exact.bernoulli.calls": calls["exact.bernoulli"],
        "exact.powerseries.mul_calls": calls["exact.PowerSeries.__mul__"],
    }
    for m in MODULES:
        out[f"{m}.self_s"] = sum(v for n, v in self_s.items()
                                 if n.startswith(m + "."))
    return out
