"""Every subcommand of the parser at its smallest accepted scale.

Each subcommand of ``cli.build_parser()`` is declared below with the
values of its required arguments and the names of its size arguments;
the smallest scale gives every size argument 0.  A subcommand the
parser has and this table does not fails.  At that scale a ``verify-*``
command must say what it established: it refuses with a usage error
(exit 2), or it lists a failed or uncertified cell (exit 1), or it
passes with at least one compared cell (exit 0).  A table command has
no cells and exits 0.
"""

import argparse
import contextlib
import io
import json

import pytest

from fockcalc import cli

# subcommand: (required arguments with their values, size arguments,
# whether the command compares cells)
DECLARED = {
    "bernoulli": ({}, ("--max",), False),
    "zeta": ({}, ("--max",), False),
    "qdim": ({}, ("--max",), False),
    "chi": ({}, ("--max",), False),
    "verify-virasoro": ({"--m": 1, "--n": -1}, ("--weight",), True),
    "verify-modified": ({"--m": 1, "--n": -1}, ("--weight",), True),
    "verify-bloch-purity": ({"--r": 0, "--s": 0}, ("--mmax", "--weight"),
                            True),
    "verify-diffop": ({"--r": 0, "--s": 0, "--m": 1, "--n": -1},
                      ("--weight", "--laurent-bound"), True),
    "verify-contraction": ({}, ("--weight", "--window"), True),
    "verify-thm31": ({}, ("--weight", "--window", "--ydeg"), True),
    "verify-axioms": ({}, ("--weight", "--mode-window"), True),
    "verify-jacobi": ({}, ("--weight", "--window"), True),
    "verify-thm42": ({}, ("--weight", "--window", "--ydeg"), True),
    "verify-weak-comm": ({}, ("--window", "--nmax"), True),
}


def _subcommands():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


SUBCOMMANDS = _subcommands()


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_declaration_matches_the_parser(name):
    assert name in DECLARED, f"{name} has no declaration"
    required, sizes, _ = DECLARED[name]
    options = {a.option_strings[0]: a for a in SUBCOMMANDS[name]._actions
               if a.option_strings and a.dest != "help"}
    assert {o for o, a in options.items() if a.required} == set(required)
    assert set(sizes) <= set(options)
    # every nonnegative-int argument is a size argument
    assert {o for o, a in options.items()
            if a.type is cli._nonneg_int} <= set(sizes)


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_smallest_scale_says_what_it_established(name):
    required, sizes, compares = DECLARED[name]
    argv = [name]
    for option, value in required.items():
        argv += [option, str(value)]
    for option in sizes:
        argv += [option, "0"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--format", "json"] + argv)
    if not compares:
        payload = json.loads(out.getvalue())
        assert code == 0 and "cells" not in payload
        return
    if code == 2:
        assert out.getvalue() == ""
        return
    summary = json.loads(out.getvalue())["summary"]
    if code == 1:
        assert summary["failed"] + summary["uncertified"] > 0
    else:
        assert code == 0
        assert summary["total"] > 0
