"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They check the generators, the workload properties the benchmark's
design relies on, the tracer, and that BENCHMARK.json, the per-layer
table and the metrics the runner emits agree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import layers
import run
from tracer import Tracer
from workloads import (
    CATALOGUE_SIZE,
    GAMES,
    WORKLOADS,
    Op,
    einsum_corner_table,
    fiber_instance,
    multicorner_instance,
)

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCE = json.loads(run.REFERENCE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def sr():
    return run.import_syncround()


@pytest.fixture
def workdir():
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        yield Path(tmp)


def _arrays(strategy):
    return [strategy.state] + [p for q in strategy.questions for p in strategy.pvms_b[q]]


# ---------------------------------------------------------------------------
# generators


def test_multicorner_generator_is_deterministic_per_seed(sr):
    _, first = multicorner_instance(sr, 5, 8, 3)
    _, again = multicorner_instance(sr, 5, 8, 3)
    _, other = multicorner_instance(sr, 5, 8, 4)
    assert all(np.array_equal(a, b) for a, b in zip(_arrays(first), _arrays(again)))
    assert not np.array_equal(first.state, other.state)


def test_fiber_generator_is_deterministic_per_seed(sr):
    first, again, other = (fiber_instance(sr, 64, i) for i in (2, 2, 3))
    assert all(np.array_equal(a, b) for a, b in zip(first[:3], again[:3]))
    assert not np.array_equal(first[0], other[0])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_schedule_is_deterministic_per_seed_and_differs_across_seeds(sr, workdir, name):
    workload = WORKLOADS[name](sr, workdir)
    workload.prepared_cycles = 2
    workload.make_input = lambda stratum, index: None

    def keys(seed):
        return [(op.stratum, op.index, str(op.data)) for c in workload.schedule(seed) for op in c]

    assert keys(5) == keys(5)
    assert keys(5) != keys(6)


# ---------------------------------------------------------------------------
# workload properties


@pytest.mark.parametrize("stratum", WORKLOADS["round-multicorner"].cycle[:6])
def test_multicorner_instances_have_their_corner_counts(sr, stratum):
    n_cycle, levels = (int(part[1:]) for part in stratum.split("-"))
    _, strategy = multicorner_instance(sr, n_cycle, levels, 0)
    decomp = sr.corner_decomposition(sr.reduced_density(strategy))
    assert decomp.n_corners == levels
    assert [row["corners"] for row in REFERENCE["round-multicorner"][stratum]] == [
        levels
    ] * CATALOGUE_SIZE


def test_multicorner_reaches_the_non_vacuous_regime(sr):
    """Some instance has 57 delta^(1/4) < 2, and its certificate holds."""
    rows = [
        (row["delta"], stratum, index)
        for stratum, table in REFERENCE["round-multicorner"].items()
        for index, row in enumerate(table)
    ]
    assert sum(57 * d**0.25 < 2 for d, _, _ in rows) >= len(rows) // 2
    _, stratum, index = min(r for r in rows if r[1] == "C5-L8")
    game, strategy = multicorner_instance(sr, 5, 8, index)
    cert = sr.round_strategy(game, strategy).certificate
    assert cert.bound_total < 2
    assert cert.holds


def test_corner_table_matches_the_einsum_kernel(sr, workdir):
    workload = WORKLOADS["round-multicorner"](sr, workdir)
    op = Op("C7-L24", 1, workload.make_input("C7-L24", 1))
    assert workload.cross_check(op) <= 1e-9
    game, strategy = op.data
    assert einsum_corner_table(game, strategy).shape == (7, 7, 3, 3)


def test_optimize_round_rounds_with_few_corners(sr):
    """Cycle games round to one or two corners; K4, whose see-saw state can
    be degenerate, does in most seeds."""
    workload = WORKLOADS["optimize-round"]
    corners = {}
    for game_name, edges in GAMES.items():
        game = sr.graph_coloring_game(edges, 3, "1/2")
        for index in range(CATALOGUE_SIZE):
            seed = 100 * workload.cycle.index(game_name) + index
            strategy = sr.seesaw_optimize(game, 12, 12, 5, seed).strategy
            blocks = sr.round_strategy(game, strategy).tracial.blocks
            corners.setdefault(game_name, []).append(len(blocks))
    assert max(corners["C5"] + corners["C7"]) <= 2
    assert sorted(corners["K4"])[CATALOGUE_SIZE * 3 // 4 - 1] <= 2


# ---------------------------------------------------------------------------
# tracer


def test_self_time_subtracts_children_on_the_same_thread():
    tracer = Tracer()

    def inner():
        threading.Event().wait(0.02)

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        threading.Event().wait(0.01)
        traced_inner()

    tracer.wrap("outer", outer)()
    self_s, spans = tracer.self_times(), tracer.durations()
    assert self_s["inner"] == pytest.approx(spans["inner"])
    assert self_s["outer"] == pytest.approx(spans["outer"] - spans["inner"])
    assert self_s["outer"] >= 0.009
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(lambda _: traced_inner(), range(4)))
    pooled = [s for s in tracer.spans if s.name == "inner"][1:]
    assert all(s.parent == -1 for s in pooled)
    assert {s.thread for s in pooled} != {tracer.spans[0].thread}


def test_tracer_wraps_every_binding_and_restores_them(sr):
    tracer = Tracer()
    original = sr.spectral.eigh
    assert sr.rounding.eigh is original
    assert tracer.install("syncround.spectral", "eigh", "spectral.eigh") >= 4
    assert sr.rounding.eigh is not original and sr.eigh is sr.rounding.eigh
    sr.rounding.orthogonalize_povm([np.eye(2) / 2, np.eye(2) / 2])
    assert tracer.calls()["spectral.eigh"] == 2
    tracer.remove()
    assert sr.rounding.eigh is original and sr.spectral.eigh is original


# ---------------------------------------------------------------------------
# per-layer metrics


def _small_ops(workload, name):
    if name == "verify-sweep":
        return [
            Op(suite, 0, ["verify", "--suite", suite, "--n", "4", "--seed", "1"])
            for suite in workload.cycle
        ]
    cycle = workload.schedule(0)[0]
    return cycle[:3] if name == "optimize-round" else cycle[:1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_metrics_are_nonzero_where_the_layer_works(sr, workdir, name):
    workload = WORKLOADS[name](sr, workdir)
    workload.prepared_cycles = 1
    *_, metrics, _, _ = run.measure_layers(workload, _small_ops(workload, name))
    assert list(metrics) == layers.NAMES
    zero = [m.name for m in layers.LAYER_METRICS
            if name in m.nonzero_on and metrics[m.name]["value"] == 0]
    assert zero == []
    if name == "round-multicorner":
        assert all(v["value"] == 0 for k, v in metrics.items()
                   if k.startswith("haagerup.") and k.endswith(".calls"))


# ---------------------------------------------------------------------------
# BENCHMARK.json and the command


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.LAYER_METRICS
    ]
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == {
        "ops_per_s", "latency_p50_ms", "latency_tail_ms", "cpu_ms_per_op",
        "setup_s", "peak_rss_mb",
    }
    assert set(run.TAIL_PERCENTILE) == set(run.TRACE_CYCLES) == set(WORKLOADS)


def test_command_fails_without_the_program():
    """In a directory with only BENCHMARK.json and the benchmark, exit non-zero."""
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, *BENCHMARK["command"][1:], "--workload", "verify-sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
