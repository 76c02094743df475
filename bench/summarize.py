"""Summarize benchmark result files into one committed BENCH JSON.

Reads the ``result-<workload>-seed<seed>-trace<0|1>.json`` files that
``perfbench/run.py`` leaves in ``.perfbench_out/`` and writes, per
workload, the end-to-end rows (from ``--trace 0`` runs) and the
per-layer rows (from ``--trace 1`` runs), each the best of its k runs in
the direction ``BENCHMARK.json`` calls better, with the median beside
it, plus the machine record (cores, Python, numpy, BLAS).

Only results of the checkout's current source are read: a file whose
``source_digest`` differs was made by other code and is skipped, so
stale runs never mix into the table.  ``commits`` lists the checkout's
HEAD at run time, which for runs of uncommitted source is its parent.

    python3 bench/summarize.py --out BENCH_N.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("nproc", "python", "numpy", "blas")


def source_digest() -> str:
    """Digest of ``src/syncround/*.py``, computed as the benchmark runner does."""
    h = hashlib.blake2b(digest_size=16)
    for path in sorted((ROOT / "src" / "syncround").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _row(values: list[float], unit: str, better: str) -> dict:
    best = max(values) if better == "higher" else min(values)
    return {
        "unit": unit,
        "better": better,
        "best": best,
        "median": statistics.median(values),
        "runs": len(values),
    }


def summarize(results: list[dict], benchmark: dict, digest: str) -> dict:
    """The BENCH document of the result records whose source is ``digest``."""
    metrics = benchmark["end_to_end"] + benchmark["per_layer"]
    better = {m["name"]: m["better"] for m in metrics}
    kept = [r for r in results if r["machine"]["source_digest"] == digest]
    workloads: dict[str, dict] = {}
    for name in [w["name"] for w in benchmark["workloads"]]:
        runs = [r for r in kept if r["workload"] == name]
        if not runs:
            continue
        entry = {"seeds": sorted({r["seed"] for r in runs})}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            group = [r["result"] for r in runs if r["trace"] == trace]
            if not group:
                continue
            names = [m for m in group[0]["metrics"] if m in better]
            entry[section] = {
                m: _row(
                    [g["metrics"][m]["value"] for g in group],
                    group[0]["metrics"][m]["unit"],
                    better[m],
                )
                for m in names
            }
        entry["ops"] = sum(r["result"]["attempted"] for r in runs)
        entry["failed"] = sum(r["result"]["failed"] for r in runs)
        entry["correct"] = all(r["result"]["correct"] for r in runs)
        workloads[name] = entry
    machines = {json.dumps({k: r["machine"].get(k) for k in MACHINE_KEYS}) for r in kept}
    return {
        "source_digest": digest,
        "commits": sorted({str(r["machine"].get("commit")) for r in kept}),
        "machine": [json.loads(m) for m in sorted(machines)],
        "skipped_results": len(results) - len(kept),
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="path of the BENCH JSON to write")
    parser.add_argument("--results", default=str(ROOT / ".perfbench_out"),
                        help="directory of result-*.json files")
    args = parser.parse_args(argv)
    paths = sorted(Path(args.results).glob("result-*.json"))
    if not paths:
        print(f"error: no result-*.json files in {args.results}", file=sys.stderr)
        return 2
    results = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    doc = summarize(results, benchmark, source_digest())
    if not doc["workloads"]:
        print("error: no result was made by the current source", file=sys.stderr)
        return 2
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}: {', '.join(doc['workloads'])};"
          f" {doc['skipped_results']} results of other sources skipped")
    return 0


if __name__ == "__main__":
    sys.exit(main())
