"""Command-line driver with deterministic machine-readable reports.

Every command writes either a human-readable text summary or a JSON
document with a top-level ``"schema": 1`` field.  All numbers are exact
rational strings.  Identical configuration produces byte-identical JSON.

Exit codes: 0 when every checked cell passes, 1 on any identity
violation or uncertified cell, 2 on usage errors (``UsageError``: a
precondition the code names itself), 141 (128 + SIGPIPE) when the reader
of standard output or of an ``--output`` pipe closes it before the
report is written.  Any other exception, such as a ``KeyError`` or a
plain ``ValueError``, is a bug and propagates.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from fractions import Fraction

from .exact import (UsageError, bernoulli, chi_s, graded_dimension, rat_str,
                    zeta_nonpositive)
from .fock import FockVector, basis, vacuum
from .quadratic import (FitError, WindowError, verify_diff_op_projection,
                        verify_modified_virasoro, verify_monomial_purity,
                        verify_virasoro)
from .report import (SCHEMA_VERSION, Cell, VerificationReport, json_chunks,
                     write_chunks)
from .series import (UncertifiedError, contraction_check, convention,
                     regularized_commutator_checks)
from .voa import (VOAConstants, axiom_suite, dilated_jacobi_check,
                  dilated_jacobi_pair_checks, jacobi_check, jacobi_pair_checks,
                  weak_comm_check)

STATE_TABLE = {
    "1": vacuum,
    "h": lambda: FockVector({(1,): Fraction(1)}),
    "omega": VOAConstants.omega,
}


def _basis_vectors(max_weight):
    return [(list(mon), FockVector({mon: Fraction(1)}))
            for mon in basis(max_weight)]


def _merge_reports(identity, parameters, labelled):
    merged = VerificationReport(identity=identity, parameters=parameters)
    for label, rep in labelled:
        # relabelled in place: no caller reads a child's cells after the merge
        for cell in rep.cells:
            cell.key = f"{label} | {cell.key}"
        merged.cells.extend(rep.cells)
        merged.bulk_passed += rep.bulk_passed
        for k, v in rep.data.items():
            merged.data[f"{label} | {k}"] = v
    return merged


# ---------------------------------------------------------------------------
# Command handlers: each returns (exit_code, json_payload, text)
# ---------------------------------------------------------------------------

def cmd_bernoulli(args):
    values = [[k, rat_str(bernoulli(k))] for k in range(args.max + 1)]
    payload = {"schema": SCHEMA_VERSION, "table": "bernoulli", "values": values}
    text = "\n".join(f"B_{k} = {v}" for k, v in values)
    return 0, payload, text


def cmd_zeta(args):
    values = [[-n, rat_str(zeta_nonpositive(n))] for n in range(args.max + 1)]
    payload = {"schema": SCHEMA_VERSION, "table": "zeta", "values": values}
    text = "\n".join(f"zeta({s}) = {v}" for s, v in values)
    return 0, payload, text


def cmd_qdim(args):
    series = graded_dimension(args.max)
    values = [[n, rat_str(series.coeff(n))] for n in range(args.max + 1)]
    payload = {"schema": SCHEMA_VERSION, "table": "qdim", "values": values}
    text = "\n".join(f"dim S_{n} = {v}" for n, v in values)
    return 0, payload, text


def cmd_chi(args):
    chi = chi_s(args.max)
    payload = {"schema": SCHEMA_VERSION, "table": "chi", **chi.to_json_dict()}
    text = (f"shift = {rat_str(chi.shift)}\n"
            + "\n".join(f"q^{n} : {c}" for n, c in chi.series.to_pairs()))
    return 0, payload, text


def _report_result(rep):
    payload = rep.to_json_dict()
    lines = [rep.summary_line()]
    for cell in rep.failing_cells(20):
        lines.append(f"  {cell.status}: {cell.key}: {cell.lhs} vs {cell.rhs}")
    return (0 if rep.passed else 1), payload, "\n".join(lines)


def cmd_verify_virasoro(args):
    return _report_result(verify_virasoro(args.m, args.n, args.weight))


def cmd_verify_modified(args):
    return _report_result(verify_modified_virasoro(args.m, args.n, args.weight))


def cmd_verify_bloch_purity(args):
    m_max = args.mmax if args.mmax is not None else max(
        6, 2 * (args.r + args.s) + 4)
    return _report_result(
        verify_monomial_purity(args.r, args.s, m_max, args.weight))


def cmd_verify_diffop(args):
    return _report_result(verify_diff_op_projection(
        args.r, args.s, args.m, args.n, args.weight, args.laurent_bound))


def cmd_verify_contraction(args):
    labelled = [(str(label), contraction_check(vec, args.window))
                for label, vec in _basis_vectors(args.weight)]
    rep = _merge_reports("contraction",
                         {"max_weight": args.weight, "window": args.window},
                         labelled)
    return _report_result(rep)


def cmd_verify_thm31(args):
    convs = ([args.convention] if args.convention else
             ["neg-powers-y1", "neg-powers-y2"])
    vectors = _basis_vectors(args.weight)
    # both conventions share each vector's sides; the reports are listed
    # convention by convention
    per_vector = [regularized_commutator_checks(
                      vec, args.window, args.ydeg,
                      [convention(cname) for cname in convs])
                  for _, vec in vectors]
    labelled = []
    verdicts = {}
    for i, cname in enumerate(convs):
        reps = [row[i] for row in per_vector]
        labelled.extend((f"{cname} {label}", rep)
                        for (label, _), rep in zip(vectors, reps))
        verdicts[cname] = ("pass" if all(rep.passed for rep in reps)
                           else "fail")
    merged = _merge_reports(
        "regularized-commutator-genfun",
        {"max_weight": args.weight, "window": args.window, "ydeg": args.ydeg,
         "conventions": convs},
        labelled)
    merged.data["convention_verdicts"] = verdicts
    merged.data["validating_conventions"] = sorted(
        c for c, v in verdicts.items() if v == "pass")
    code, payload, text = _report_result(merged)
    if args.convention is None:
        # dual-convention mode: success means at least one convention
        # validates in full; the other's verdict is recorded as data
        code = 0 if merged.data["validating_conventions"] else 1
    return code, payload, text


def cmd_verify_axioms(args):
    return _report_result(axiom_suite(args.weight, args.mode_window))


def cmd_verify_delta_kernel(args):
    """verify-jacobi and verify-thm42, on every ordered pair (u, v) of the
    listed states and every basis vector w.  Each unordered pair of
    distinct state names is checked once per w: args.pair_check(u, v, w,
    windows, *extra) gives the reports of both orders from one table set,
    args.check(u, u, ...) the one report of a name paired with itself.
    extra holds the values of the arguments named in args.extra.  The
    reports are listed in the order of the ordered pairs of positions,
    each one under its own label, so a repeated name lists its checks
    again."""
    check, pair_check = globals()[args.check], globals()[args.pair_check]
    box = (-args.window, args.window)
    windows = {"x0": box, "x1": box, "x2": box}
    extra = {name: getattr(args, name) for name in args.extra}
    names = list(dict.fromkeys(args.states))
    states = [STATE_TABLE[name]() for name in names]
    vectors = _basis_vectors(args.weight)
    reports = {}
    for i, u in enumerate(states):
        for j in range(i, len(states)):
            for k, (_, wvec) in enumerate(vectors):
                uv, vu = (names[i], names[j], k), (names[j], names[i], k)
                if i == j:
                    reports[uv] = check(u, u, wvec, windows, *extra.values())
                else:
                    reports[uv], reports[vu] = pair_check(
                        u, states[j], wvec, windows, *extra.values())
    labelled = []
    listed = set()
    for uname in args.states:
        for vname in args.states:
            for k, (wlabel, _) in enumerate(vectors):
                rep = reports[uname, vname, k]
                if (uname, vname, k) in listed:
                    # _merge_reports relabels cells in place, so a report
                    # listed again is merged from copies of its cells
                    cells = [Cell(c.key, c.lhs, c.rhs, c.status)
                             for c in rep.cells]
                    rep = VerificationReport(rep.identity, rep.parameters,
                                             cells, rep.data, rep.bulk_passed)
                listed.add((uname, vname, k))
                labelled.append((f"u={uname} v={vname} w={wlabel}", rep))
    rep = _merge_reports(args.identity,
                         {"states": list(args.states),
                          "max_weight": args.weight, "window": args.window,
                          **extra},
                         labelled)
    return _report_result(rep)


def cmd_verify_weak_comm(args):
    u = STATE_TABLE[args.u]()
    v = STATE_TABLE[args.v]()
    rep = weak_comm_check(u, v, vacuum(), args.window, args.nmax)
    return _report_result(rep)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _nonneg_int(text: str) -> int:
    """Weights, windows, degrees and table sizes: a negative one makes an
    empty range, which would pass with nothing checked."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a nonnegative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockcalc",
        description="Exact verification of boson Fock space operator "
                    "identities.")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--output", help="write the report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bernoulli", help="Bernoulli number table")
    p.add_argument("--max", type=_nonneg_int, default=12)
    p.set_defaults(handler="cmd_bernoulli")

    p = sub.add_parser("zeta", help="zeta values at nonpositive integers")
    p.add_argument("--max", type=_nonneg_int, default=8)
    p.set_defaults(handler="cmd_zeta")

    p = sub.add_parser("qdim", help="graded dimension coefficients")
    p.add_argument("--max", type=_nonneg_int, default=20)
    p.set_defaults(handler="cmd_qdim")

    p = sub.add_parser("chi", help="eta-shifted graded dimension")
    p.add_argument("--max", type=_nonneg_int, default=20)
    p.set_defaults(handler="cmd_chi")

    p = sub.add_parser("verify-virasoro", help="bracket relation of the "
                       "quadratic family")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weight", type=_nonneg_int, default=6)
    p.set_defaults(handler="cmd_verify_virasoro")

    p = sub.add_parser("verify-modified", help="bracket relation of the "
                       "regularized family")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weight", type=_nonneg_int, default=6)
    p.set_defaults(handler="cmd_verify_modified")

    p = sub.add_parser("verify-bloch-purity", help="pure-monomial central "
                       "terms of the regularized family")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--mmax", type=int)
    p.add_argument("--weight", type=_nonneg_int, default=6)
    p.set_defaults(handler="cmd_verify_bloch_purity")

    p = sub.add_parser("verify-diffop", help="projection onto differential "
                       "operators")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weight", type=_nonneg_int, default=6)
    p.add_argument("--laurent-bound", type=_nonneg_int, default=6)
    p.set_defaults(handler="cmd_verify_diffop")

    p = sub.add_parser("verify-contraction", help="two-point contraction "
                       "formula")
    p.add_argument("--weight", type=_nonneg_int, default=4)
    p.add_argument("--window", type=_nonneg_int, default=8)
    p.set_defaults(handler="cmd_verify_contraction")

    p = sub.add_parser("verify-thm31", help="generating-function commutator "
                       "identity of the regularized family")
    p.add_argument("--weight", type=_nonneg_int, default=2)
    p.add_argument("--window", type=_nonneg_int, default=4)
    p.add_argument("--ydeg", type=_nonneg_int, default=1)
    p.add_argument("--convention",
                   choices=("neg-powers-y1", "neg-powers-y2"))
    p.set_defaults(handler="cmd_verify_thm31")

    p = sub.add_parser("verify-axioms", help="vertex operator algebra axiom "
                       "suite")
    p.add_argument("--weight", type=_nonneg_int, default=4)
    p.add_argument("--mode-window", type=_nonneg_int, default=6)
    p.set_defaults(handler="cmd_verify_axioms")

    p = sub.add_parser("verify-jacobi", help="classical delta-kernel "
                       "identity")
    p.add_argument("--weight", type=_nonneg_int, default=2)
    p.add_argument("--window", type=_nonneg_int, default=4)
    p.add_argument("--states", nargs="+", default=["1", "h", "omega"],
                   choices=sorted(STATE_TABLE))
    p.set_defaults(handler="cmd_verify_delta_kernel", check="jacobi_check",
                   pair_check="jacobi_pair_checks",
                   identity="jacobi-identity", extra=())

    p = sub.add_parser("verify-thm42", help="dilated delta-kernel identity")
    p.add_argument("--weight", type=_nonneg_int, default=2)
    p.add_argument("--window", type=_nonneg_int, default=4)
    p.add_argument("--ydeg", type=_nonneg_int, default=4)
    p.add_argument("--states", nargs="+", default=["1", "h", "omega"],
                   choices=sorted(STATE_TABLE))
    p.set_defaults(handler="cmd_verify_delta_kernel",
                   check="dilated_jacobi_check",
                   pair_check="dilated_jacobi_pair_checks",
                   identity="dilated-jacobi-identity", extra=("ydeg",))

    p = sub.add_parser("verify-weak-comm", help="weak commutativity order "
                       "search")
    p.add_argument("--u", default="h", choices=sorted(STATE_TABLE))
    p.add_argument("--v", default="h", choices=sorted(STATE_TABLE))
    p.add_argument("--window", type=_nonneg_int, default=5)
    p.add_argument("--nmax", type=_nonneg_int, default=8)
    p.set_defaults(handler="cmd_verify_weak_comm")

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process.  It names handlers
    and checks rather than holding them, so ``main`` looks each up when
    it is called, and no handler may mutate a parsed default."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command with the cyclic collector paused from parsing to the
    last write, re-enabled only if it was on.  No check's tables form a
    cycle; the few cycles left wait for a later one (test_gc_pause.py)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _parser().parse_args(argv)
        try:
            code, payload, text = globals()[args.handler](args)
        except (UncertifiedError, WindowError, FitError) as exc:
            # an uncertified coefficient, a window too small to certify a
            # block, or a fit with no exact solution: a result, not misuse
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except UsageError as exc:
            # a named precondition; any other exception is a bug and raises
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # a JSON report is checked whole before its first piece is written
        chunks = json_chunks(payload) if args.format == "json" else (text,)
        try:
            if args.output:
                with open(args.output, "w") as fh:
                    write_chunks(fh, chunks)
            else:
                write_chunks(sys.stdout, chunks)
                sys.stdout.flush()
        except BrokenPipeError:
            # the reader left: 128 + SIGPIPE, and a silent exit flush
            if not args.output:
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141
        return code
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
