import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("summarize", ROOT / "bench" / "summarize.py")
summarize = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(summarize)

BENCHMARK = {
    "workloads": [{"name": "verify-sweep"}, {"name": "fiber-large"}],
    "end_to_end": [
        {"name": "ops_per_s", "better": "higher"},
        {"name": "latency_p50_ms", "better": "lower"},
    ],
    "per_layer": [{"name": "spectral.eigh.calls", "better": "lower"}],
}
MACHINE = {"nproc": 2, "python": "3.11", "numpy": "2.0", "blas": {"name": "openblas"}}


def record(workload, seed, trace, metrics, digest="abc"):
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "machine": {**MACHINE, "commit": "c0ffee", "source_digest": digest},
        "result": {
            "correct": True,
            "attempted": 10,
            "failed": 0,
            "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()},
        },
    }


def test_best_of_k_follows_the_better_direction():
    results = [
        record("verify-sweep", 1, 0, {"ops_per_s": 7.0, "latency_p50_ms": 140.0}),
        record("verify-sweep", 2, 0, {"ops_per_s": 8.0, "latency_p50_ms": 150.0}),
        record("verify-sweep", 3, 0, {"ops_per_s": 6.0, "latency_p50_ms": 130.0}),
        record("verify-sweep", 1, 1, {"spectral.eigh.calls": 424}),
        record("verify-sweep", 9, 0, {"ops_per_s": 99.0, "latency_p50_ms": 1.0}, "old"),
    ]
    doc = summarize.summarize(results, BENCHMARK, "abc")
    assert doc["skipped_results"] == 1
    assert doc["machine"] == [MACHINE]
    entry = doc["workloads"]["verify-sweep"]
    assert entry["seeds"] == [1, 2, 3]
    ops = entry["end_to_end"]["ops_per_s"]
    assert (ops["best"], ops["median"], ops["runs"]) == (8.0, 7.0, 3)
    assert entry["end_to_end"]["latency_p50_ms"]["best"] == 130.0
    assert entry["per_layer"]["spectral.eigh.calls"]["best"] == 424
    assert entry["correct"] and entry["failed"] == 0 and entry["ops"] == 40
    assert "fiber-large" not in doc["workloads"]


def test_cli_writes_the_document(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    digest = summarize.source_digest()
    doc = record("fiber-large", 4, 0, {"ops_per_s": 28.0, "latency_p50_ms": 35.0}, digest)
    (results / "result-fiber-large-seed4-trace0.json").write_text(json.dumps(doc))
    out = tmp_path / "BENCH.json"
    assert summarize.main(["--out", str(out), "--results", str(results)]) == 0
    written = json.loads(out.read_text())
    assert written["source_digest"] == digest
    assert written["workloads"]["fiber-large"]["end_to_end"]["ops_per_s"]["best"] == 28.0


def test_cli_without_results_exits_two(tmp_path):
    argv = ["--out", str(tmp_path / "x.json"), "--results", str(tmp_path)]
    assert summarize.main(argv) == 2
