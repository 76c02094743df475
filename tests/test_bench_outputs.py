import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_two_runs_print_identical_digests():
    """Two processes of ``bench/outputs.py --n 2`` print the same lines:
    one per seeded output, 12 verify reports (2 of them the rounding
    suite at VERIFY_SLAB + 44 instances, across a slab boundary), 3
    inspect reports, 36 round outputs, 9 multi-corner outputs, 8 fiber
    outputs and 4 rank-deficient fiber certificates.  Each CLI report's
    line carries its exit code, and every one of them is 0."""
    command = [sys.executable, str(ROOT / "bench" / "outputs.py"), "--n", "2"]
    runs = [
        subprocess.run(command, capture_output=True, text=True, timeout=120) for _ in range(2)
    ]
    assert [run.returncode for run in runs] == [0, 0]
    outputs = [run.stdout for run in runs]
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert len(lines) == 72 and len(set(lines)) == 72
    assert all(
        re.fullmatch(r"(verify|inspect|round|multicorner|fiber|fiber-rd) .+ [0-9a-f]{64}", line)
        for line in lines
    )
    reports = [line for line in lines if re.search(r" (report|optimize|round) exit=", line)]
    assert len(reports) == 12 + 3 + 18
    assert all(" exit=0 " in line for line in reports)
