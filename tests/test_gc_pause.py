"""The cyclic garbage collector is paused for each command of ``cli.main``.

The pause is safe only if a command leaves no reference cycle of its own:
a cycle made while the collector is off is freed by the first collection
after ``main`` returns, and one that keeps a check's tables alive would
hold them until then.  So every subcommand of the parser runs twice at
the smallest scale ``test_smallest_scale.py`` declares; on the second
run (argparse's formatters and the first-call caches are made by the
first) the collector saves what it finds, and none of it may be a
function defined in ``fockcalc`` or an instance of a ``fockcalc`` class.
The cycles of the json encoder's closures are the stdlib's and allowed.

The first run of each subcommand is checked too, in a fresh interpreter
so that every cache of the package starts empty, at the smallest scale
and at scale 1 for every size (the first scale that enumerates a
nonempty partition): an uncached helper that refers to itself through
its closure would leave a cycle there that the second run cannot see.

The collector must come back on after every way out of ``main``, and a
collector the host switched off must stay off.
"""

import contextlib
import gc
import inspect
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path
from unittest import mock

import pytest

from fockcalc import cli
from fockcalc.exact import UsageError
from fockcalc.series import UncertifiedError
from test_smallest_scale import DECLARED, SUBCOMMANDS


@pytest.fixture(autouse=True)
def _collector_on_after_each_test():
    # a test that fails with the collector off must not fail the next
    yield
    gc.enable()


def _smallest_argv(name, size=0):
    required, sizes, _ = DECLARED[name]
    argv = ["--format", "json", name]
    for option, value in required.items():
        argv += [option, str(value)]
    for option in sizes:
        argv += [option, str(size)]
    return argv


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


def _from_fockcalc(obj):
    if isinstance(obj, types.FunctionType):
        return obj.__module__.partition(".")[0] == "fockcalc"
    return type(obj).__module__.partition(".")[0] == "fockcalc"


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_a_command_leaves_no_cycle_of_its_own(name):
    argv = _smallest_argv(name)
    _run(argv)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        _run(argv)
        gc.collect()
        found = [obj for obj in gc.garbage if _from_fockcalc(obj)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not found, [repr(obj)[:80] for obj in found]


# one cold command under DEBUG_SAVEALL; prints the reprs of the
# fockcalc functions and objects the collector found unreachable
_FIRST_RUN = """
import contextlib, gc, io, json, sys, types
from fockcalc import cli
""" + inspect.getsource(_from_fockcalc) + """
gc.collect()
gc.set_debug(gc.DEBUG_SAVEALL)
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    try:
        cli.main(sys.argv[1:])
    except SystemExit:
        pass
gc.collect()
print(json.dumps([repr(o)[:80] for o in gc.garbage if _from_fockcalc(o)]))
"""

SRC = Path(cli.__file__).resolve().parents[1]


@pytest.mark.parametrize("size", [0, 1])
@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_a_first_command_leaves_no_cycle_of_its_own(name, size):
    out = subprocess.run(
        [sys.executable, "-c", _FIRST_RUN, *_smallest_argv(name, size)],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert json.loads(out.stdout) == []


@pytest.mark.parametrize("argv,code", [
    (["zeta", "--max", "2"], 0),
    # uncertified at this scale: a result, exit 1
    (["verify-weak-comm", "--u", "h", "--v", "h", "--window", "1",
      "--nmax", "0"], 1),
    # argparse refuses a negative size: SystemExit(2)
    (["zeta", "--max", "-1"], 2)],
    ids=["exit-0", "exit-1", "usage-exit-2"])
def test_collector_is_back_after_main(argv, code):
    assert gc.isenabled()
    assert _run(argv) == code
    assert gc.isenabled()


@pytest.mark.parametrize("raised,code", [
    (UncertifiedError("coefficient not certified"), 1),
    (UsageError("named precondition"), 2)],
    ids=["handled-exit-1", "handled-exit-2"])
def test_collector_is_back_after_a_handled_error(raised, code):
    with mock.patch.object(cli, "cmd_zeta", side_effect=raised):
        assert _run(["zeta", "--max", "2"]) == code
    assert gc.isenabled()


def test_collector_is_back_after_a_handler_that_raises():
    with mock.patch.object(cli, "cmd_zeta", side_effect=KeyError("bug")):
        with pytest.raises(KeyError):
            cli.main(["zeta", "--max", "2"])
    assert gc.isenabled()


def test_collector_is_paused_inside_the_command():
    seen = []

    def handler(args):
        seen.append(gc.isenabled())
        return 0, {"schema": 1}, ""
    with mock.patch.object(cli, "cmd_zeta", handler):
        assert _run(["zeta", "--max", "2"]) == 0
    assert seen == [False]
    assert gc.isenabled()


def test_collector_the_host_disabled_stays_disabled():
    gc.disable()
    try:
        assert _run(["zeta", "--max", "2"]) == 0
        assert _run(["zeta", "--max", "-1"]) == 2
        with mock.patch.object(cli, "cmd_zeta", side_effect=KeyError("bug")):
            with pytest.raises(KeyError):
                cli.main(["zeta", "--max", "2"])
        assert not gc.isenabled()
    finally:
        gc.enable()
