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

The collector must come back on after every way out of ``main``, and a
collector the host switched off must stay off.
"""

import contextlib
import gc
import io
import types
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


def _smallest_argv(name):
    required, sizes, _ = DECLARED[name]
    argv = ["--format", "json", name]
    for option, value in required.items():
        argv += [option, str(value)]
    for option in sizes:
        argv += [option, "0"]
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
