"""Recompute ``reference.json``: the key scalars of every catalogue entry.

    python3 perfbench/make_reference.py

Run from the root of a checkout at the commit the reference should
describe.  The benchmark compares every op's key scalars with this file,
so regenerate it only when a change is meant to alter those numbers.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, import_syncround
from workloads import CATALOGUE_SIZE, VERIFY_SUITES, WORKLOADS, Op


def main() -> int:
    sr = import_syncround()
    reference = {"verify-sweep": dict(VERIFY_SUITES)}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        for name in ("round-multicorner", "fiber-large", "optimize-round"):
            workload = WORKLOADS[name](sr, Path(tmp))
            reference[name] = {}
            for stratum in workload.strata:
                rows = []
                for index in range(CATALOGUE_SIZE):
                    op = Op(stratum, index, workload.make_input(stratum, index))
                    rows.append(workload.summarize(op, workload.run(op))["keys"])
                    print(name, stratum, index, rows[-1], file=sys.stderr)
                reference[name][stratum] = rows
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
