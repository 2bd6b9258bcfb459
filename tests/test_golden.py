"""Golden reports: refactors must reproduce these CLI outputs byte for byte.

Each file under ``tests/golden/`` is the ``--format json`` output of the
command listed next to it in ``GOLDEN``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {
    "thm31_w1_win2_ydeg1.json":
        "verify-thm31 --weight 1 --window 2 --ydeg 1",
    "thm31_w2_win2_ydeg1_neg-powers-y2.json":
        "verify-thm31 --weight 2 --window 2 --ydeg 1 "
        "--convention neg-powers-y2",
    "jacobi_w1_win2.json":
        "verify-jacobi --weight 1 --window 2",
    "thm42_w1_win2_ydeg2.json":
        "verify-thm42 --weight 1 --window 2 --ydeg 2",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden(name):
    out = subprocess.run(
        [sys.executable, "-m", "fockcalc.cli", "--format", "json"]
        + GOLDEN[name].split(), capture_output=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == (GOLDEN_DIR / name).read_bytes()
