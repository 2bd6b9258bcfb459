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
    "thm31_w1_win2_ydeg2.json":
        "verify-thm31 --weight 1 --window 2 --ydeg 2",
    "thm31_w2_win2_ydeg1_neg-powers-y2.json":
        "verify-thm31 --weight 2 --window 2 --ydeg 1 "
        "--convention neg-powers-y2",
    "thm31_w3_win2_ydeg2_neg-powers-y2.json":
        "verify-thm31 --weight 3 --window 2 --ydeg 2 "
        "--convention neg-powers-y2",
    "jacobi_w1_win2.json":
        "verify-jacobi --weight 1 --window 2",
    "thm42_w1_win2_ydeg2.json":
        "verify-thm42 --weight 1 --window 2 --ydeg 2",
    # a repeated state: each ordered pair of positions lists its own cells
    "jacobi_hh_w1_win1.json":
        "verify-jacobi --states h h --weight 1 --window 1",
    "thm42_hh_w1_win1_ydeg2.json":
        "verify-thm42 --states h h --weight 1 --window 1 --ydeg 2",
    "contraction_w2_win3.json":
        "verify-contraction --weight 2 --window 3",
    "axioms_w2_mw3.json":
        "verify-axioms --weight 2 --mode-window 3",
    "axioms_w3_mw6.json":
        "verify-axioms --weight 3 --mode-window 6",
    "weak_comm_omega_omega.json":
        "verify-weak-comm --u omega --v omega",
    "virasoro_m2_n-2_w4.json":
        "verify-virasoro --m 2 --n -2 --weight 4",
    "modified_m3_n-3_w4.json":
        "verify-modified --m 3 --n -3 --weight 4",
    # m + n != 0: no central term, and (m-n) L(m+n) has a nonzero degree
    "virasoro_m3_n1_w6.json":
        "verify-virasoro --m 3 --n 1 --weight 6",
    "modified_m-2_n3_w6.json":
        "verify-modified --m -2 --n 3 --weight 6",
    "bloch_purity_r0_s1_w4.json":
        "verify-bloch-purity --r 0 --s 1 --weight 4",
    "bloch_purity_r1_s1_w4.json":
        "verify-bloch-purity --r 1 --s 1 --weight 4",
    "diffop_r1_s1_m2_n-1_w4_lb3.json":
        "verify-diffop --r 1 --s 1 --m 2 --n -1 --weight 4 "
        "--laurent-bound 3",
    "chi_max10.json":
        "chi --max 10",
    "bernoulli_max12.json":
        "bernoulli --max 12",
    "zeta_max8.json":
        "zeta --max 8",
    "qdim_max20.json":
        "qdim --max 20",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden(name):
    out = subprocess.run(
        [sys.executable, "-m", "fockcalc.cli", "--format", "json"]
        + GOLDEN[name].split(), capture_output=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == (GOLDEN_DIR / name).read_bytes()
