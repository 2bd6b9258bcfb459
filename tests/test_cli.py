"""Tests for the command-line driver: exit codes, determinism, schema."""

import gc
import hashlib
import json
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from fockcalc import cli
from fockcalc.exact import SeriesError, UsageError
from fockcalc.quadratic import FitError, WindowError
from fockcalc.series import UncertifiedError

CMD = [sys.executable, "-m", "fockcalc.cli"]


def run_cli(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True)


def test_zeta_table():
    out = run_cli("zeta", "--max", "5")
    assert out.returncode == 0
    assert "zeta(-1) = -1/12" in out.stdout
    assert "zeta(-5) = -1/252" in out.stdout


def test_qdim_table():
    out = run_cli("qdim", "--max", "6")
    assert out.returncode == 0
    values = [line.split(" = ")[1] for line in out.stdout.strip().splitlines()]
    assert values == ["1", "1", "2", "3", "5", "7", "11"]


def test_bernoulli_json_schema():
    out = run_cli("--format", "json", "bernoulli", "--max", "4")
    data = json.loads(out.stdout)
    assert data["schema"] == 1
    assert data["values"][2] == [2, "1/6"]


def test_chi_json():
    out = run_cli("--format", "json", "chi", "--max", "3")
    data = json.loads(out.stdout)
    assert data["shift"] == "-1/24"
    assert data["series"][0] == [0, "1"]


def test_verify_exit_zero_and_central_term():
    out = run_cli("--format", "json", "verify-virasoro", "--m", "2", "--n",
                  "-2", "--weight", "6")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["data"]["central_term"] == "1/2"
    assert data["summary"]["failed"] == 0
    assert data["summary"]["uncertified"] == 0


def test_json_output_is_deterministic():
    a = run_cli("--format", "json", "verify-modified", "--m", "1", "--n", "-1",
                "--weight", "4")
    b = run_cli("--format", "json", "verify-modified", "--m", "1", "--n", "-1",
                "--weight", "4")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_usage_error_exit_two():
    out = run_cli("no-such-command")
    assert out.returncode == 2
    out = run_cli("verify-virasoro", "--m", "2")      # missing --n
    assert out.returncode == 2


def test_purity_command():
    out = run_cli("--format", "json", "verify-bloch-purity", "--r", "0",
                  "--s", "0", "--weight", "5")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["data"]["monomial_exponent"] == 3
    assert data["data"]["monomial_coefficient"] == "1/12"


def test_diffop_command():
    out = run_cli("verify-diffop", "--r", "0", "--s", "1", "--m", "1", "--n",
                  "1", "--weight", "5", "--laurent-bound", "4")
    assert out.returncode == 0


def test_contraction_command():
    out = run_cli("verify-contraction", "--weight", "2", "--window", "5")
    assert out.returncode == 0


def test_weak_comm_command():
    out = run_cli("--format", "json", "verify-weak-comm", "--u", "omega",
                  "--v", "omega", "--window", "4", "--nmax", "6")
    assert out.returncode == 0
    assert json.loads(out.stdout)["data"]["order_found"] == 4


def test_thm31_single_convention():
    out = run_cli("--format", "json", "verify-thm31", "--weight", "0",
                  "--window", "2", "--ydeg", "1", "--convention",
                  "neg-powers-y1")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["data"]["convention_verdicts"] == {"neg-powers-y1": "pass"}


def test_thm31_default_runs_both_conventions():
    out = run_cli("--format", "json", "verify-thm31", "--weight", "0",
                  "--window", "2", "--ydeg", "1")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert set(data["data"]["convention_verdicts"]) == {"neg-powers-y1",
                                                        "neg-powers-y2"}
    assert "neg-powers-y1" in data["data"]["validating_conventions"]


def test_jacobi_command_small():
    out = run_cli("verify-jacobi", "--weight", "1", "--window", "3",
                  "--states", "1", "h")
    assert out.returncode == 0


def test_thm42_command_small():
    out = run_cli("verify-thm42", "--weight", "1", "--window", "3",
                  "--ydeg", "3", "--states", "1", "h")
    assert out.returncode == 0


def test_output_file(tmp_path):
    path = tmp_path / "report.json"
    out = run_cli("--format", "json", "--output", str(path), "zeta",
                  "--max", "3")
    assert out.returncode == 0
    assert out.stdout == ""
    data = json.loads(path.read_text())
    assert data["values"][1] == [-1, "-1/12"]


def test_output_file_matches_stdout_and_golden(tmp_path):
    # a report with cells: the file, stdout and the golden agree byte for
    # byte
    path = tmp_path / "report.json"
    args = ["verify-jacobi", "--weight", "1", "--window", "2"]
    to_file = subprocess.run(CMD + ["--format", "json", "--output", str(path)]
                             + args, capture_output=True)
    to_stdout = subprocess.run(CMD + ["--format", "json"] + args,
                               capture_output=True)
    assert to_file.returncode == to_stdout.returncode == 0
    assert to_file.stdout == b""
    golden = Path(__file__).parent / "golden" / "jacobi_w1_win2.json"
    assert path.read_bytes() == to_stdout.stdout == golden.read_bytes()


@pytest.mark.parametrize("args", [
    ("verify-jacobi", "--weight", "0", "--window", "-1", "--states", "1"),
    ("verify-thm42", "--weight", "0", "--window", "-1", "--states", "1"),
    ("verify-contraction", "--weight", "1", "--window", "-1"),
    ("verify-diffop", "--r", "0", "--s", "1", "--m", "1", "--n", "1",
     "--weight", "2", "--laurent-bound", "-1"),
    # the other size arguments: each of these used to pass or print an
    # empty range with nothing checked
    ("verify-axioms", "--weight", "-1", "--mode-window", "2"),
    ("verify-thm31", "--weight", "1", "--window", "1", "--ydeg", "-1"),
    ("verify-weak-comm", "--nmax", "-1"),
    ("zeta", "--max", "-1"),
    ("bernoulli", "--max", "-1"),
])
def test_negative_window_is_usage_error(args):
    # an empty box must not pass vacuously
    out = run_cli(*args)
    assert out.returncode == 2
    assert "must be a nonnegative integer" in out.stderr
    assert "PASS" not in out.stdout


@pytest.mark.parametrize("exc, code", [
    (UncertifiedError("cell (9,) outside certified region"), 1),
    (UsageError("bad argument"), 2),
    (WindowError("window too small to certify any commutator block"), 1),
    (FitError("inconsistent system: nonzero residual"), 1),
    (SeriesError("exponent 9 exceeds truncation order 4"), 2),
    (UsageError("m_max=2 gives too few interpolation points"), 2),
    (KeyError("no-such-state"), None),
    (ValueError("stray value error inside a verifier"), None),
])
def test_uncertified_exits_one_other_errors_two(monkeypatch, capsys, exc,
                                                code):
    # an uncertified coefficient, a window too small to certify and a
    # failed exact fit are verdicts (exit 1); a precondition the code
    # names itself (UsageError, SeriesError among them) is a usage error
    # (exit 2); any other exception, a plain ValueError included, is a
    # bug, which raises rather than passing for misuse (code None)
    def handler(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_zeta", handler)
    if code is None:
        with pytest.raises(type(exc)) as raised:
            cli.main(["zeta", "--max", "1"])
        assert raised.value is exc
        return
    assert cli.main(["zeta", "--max", "1"]) == code
    assert str(exc) in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ("verify-diffop", "--r", "-1", "--s", "0", "--m", "1", "--n", "1"),
    ("verify-bloch-purity", "--r", "-1", "--s", "0"),
    ("verify-bloch-purity", "--r", "0", "--s", "0", "--mmax", "2"),
])
def test_named_preconditions_exit_two(args):
    # checked before any table is read: a negative index would otherwise
    # reach the int tables as a float power
    out = run_cli(*args)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: ")
    assert "Traceback" not in out.stderr
    assert out.stdout == ""


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        for argv in (["zeta", "--max", "1"], ["bernoulli", "--max", "2"],
                     ["zeta", "--max", "3"]):
            assert cli.main(argv) == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    assert "zeta(-3) = 1/120" in capsys.readouterr().out


def test_handlers_leave_parsed_defaults_alone(capsys):
    # the shared parser hands every run the same default objects
    def defaults():
        return [vars(cli._parser().parse_args([name]))
                for name in ("verify-jacobi", "verify-thm42")]

    before = [{k: list(v) if isinstance(v, list) else v
               for k, v in parsed.items()} for parsed in defaults()]
    for argv in (["verify-jacobi", "--weight", "0", "--window", "0"],
                 ["verify-thm42", "--weight", "0", "--window", "0",
                  "--ydeg", "0"]):
        assert cli.main(argv) in (0, 1)
    capsys.readouterr()
    assert defaults() == before


def _json_run(capsys, *args):
    code = cli.main(["--format", "json", *args])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("args, key", [
    (("verify-bloch-purity", "--r", "0", "--s", "0", "--weight", "0"),
     "fit-unique(m=1)"),
    (("verify-diffop", "--r", "0", "--s", "0", "--m", "1", "--n", "-1",
      "--weight", "0"), "fit-unique"),
])
def test_undetermined_fit_is_uncertified_not_failed(capsys, args, key):
    # weight 0 cannot pin the fit: nothing is violated, nothing certified
    code, out = _json_run(capsys, *args)
    data = json.loads(out)
    assert code == 1
    assert data["summary"]["failed"] == 0
    assert data["summary"]["uncertified"] == 1
    cell = data["cells"][-1]
    assert (cell["key"], cell["status"], cell["pass"]) == (
        key, "uncertified", False)
    assert data["data"] == {}


@pytest.mark.parametrize("window", [0, 1])
def test_weak_comm_box_without_a_nonzero_cell_is_uncertified(capsys, window):
    # [Y(h, x1), Y(h, x2)]1 has no nonzero cell on these boxes, so no
    # order is established there (the true order is 2)
    code, out = _json_run(capsys, "verify-weak-comm", "--u", "h", "--v", "h",
                          "--window", str(window))
    data = json.loads(out)
    assert code == 1
    assert data["data"] == {"order_found": None}
    assert [(c["key"], c["status"]) for c in data["cells"]] == [
        ("annihilation-order", "uncertified")]
    assert data["summary"]["uncertified"] == 1


def test_weak_comm_order_zero_stands_where_the_commutator_vanishes(capsys):
    # Y(1, x) is the identity: no computed commutator cell is nonzero,
    # so order 0 holds on the smallest box too
    code, out = _json_run(capsys, "verify-weak-comm", "--u", "1", "--v",
                          "omega", "--window", "0")
    assert code == 0
    assert json.loads(out)["data"] == {"order_found": 0}


@pytest.mark.parametrize("args, sha", [
    (("--window", "2"),
     "fe33a5d5cb1b5cbecfcac043fa2cd830bce2535d6794069dd051657985e9410c"),
    ((), "75591992008788021de8fb16e1659d792ebfe209cf4503b2ce24fc6f04d62310"),
])
def test_weak_comm_box_with_a_nonzero_cell_keeps_its_bytes(capsys, args, sha):
    code, out = _json_run(capsys, "verify-weak-comm", "--u", "h", "--v", "h",
                          *args)
    assert code == 0
    assert json.loads(out)["data"] == {"order_found": 2}
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def test_reader_that_closes_early_gets_exit_141_and_no_traceback():
    # the report is about 108 kB, more than a pipe holds, so the writer
    # is still writing when the reader goes
    proc = subprocess.Popen(
        CMD + ["--format", "json", "verify-axioms", "--weight", "3",
               "--mode-window", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""
    assert head.startswith(b"{")


def test_broken_pipe_leaves_the_collector_on(tmp_path):
    class Closed:
        """A standard output whose reader has gone, on a file's fd."""

        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fh.fileno()

    with open(tmp_path / "stdout", "w") as fh, \
            mock.patch.object(sys, "stdout", Closed(fh)):
        assert cli.main(["--format", "json", "zeta", "--max", "2"]) == 141
    assert gc.isenabled()
