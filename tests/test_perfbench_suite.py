import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tests_pass():
    """The benchmark's own tests pass on this tree: among them, every
    function the traced run wraps (``reduced_density``,
    ``corner_compressions`` and the rest) is still there and does work."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench", "-q"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
