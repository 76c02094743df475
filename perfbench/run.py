"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload round-multicorner --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the benchmark imports ``syncround``
from ``src/`` there and refuses any other copy.  ``--trace 0`` measures
the end-to-end metrics in a closed loop for about ``--seconds`` seconds
of whole cycles; ``--trace 1`` runs a fixed op list untraced and then
traced, and reports the per-layer metrics.  Human-readable lines come
first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A result file with the
machine record (and, traced, the span file) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the only concurrency measured is
# the CLI's own pool.  On a 2-core machine two OpenBLAS threads made one
# round-multicorner cycle vary by 13 % between repeats, against 0.6 % with one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The whole process on one CPU, set before any thread starts (threads inherit
# it).  Unpinned, the GIL hand-offs between the caller and the CLI's pool
# threads crossed CPUs, and on a shared 2-vCPU host their cost varied with
# the other tenants and not with the calibration kernel (correlation 0.1);
# pinned, op and kernel times move together (correlation 0.8).
PINNED_CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {PINNED_CPU})

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib
import itertools
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import calibrate
import layers
from tracer import Tracer, array_digest
from workloads import CROSS_CHECK_TOL, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

SETUP_REPEATS = 3
# latency_tail_ms: the highest percentile with at least ten samples beyond
# it at the op count of a typical 30 s run on a 2-core machine (32, 35, 20
# and 96 ops), but not below the median.  A run while other tenants load
# the machine gives fewer ops: 24-40, 25-55, 16-24 and 81-138 were seen.
TAIL_PERCENTILE = {
    "round-multicorner": 68,
    "verify-sweep": 71,
    "fiber-large": 50,
    "optimize-round": 89,
}
# cycles in the traced run's fixed op list, so that call counts are exact
TRACE_CYCLES = {
    "round-multicorner": 1,
    "verify-sweep": 1,
    "fiber-large": 3,
    "optimize-round": 6,
}
THREADS_ENV = "SYNCROUND_THREADS"


def import_syncround():
    """Import ``syncround`` afresh from this checkout's ``src/``."""
    src = (ROOT / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "syncround" or m.startswith("syncround.")]:
        del sys.modules[name]
    sr = importlib.import_module("syncround")
    importlib.import_module("syncround.cli")
    if not Path(sr.__file__).resolve().is_relative_to(src):
        raise ImportError(f"syncround imported from {sr.__file__}, not from {src}")
    return sr


def setup(name: str, seed: int, workdir: Path):
    """Import, input generation and warm-up; returns (seconds, workload, cycles)."""
    started = time.perf_counter()
    sr = import_syncround()
    workload = WORKLOADS[name](sr, workdir)
    cycles = workload.schedule(seed)
    workload.warmup()
    return time.perf_counter() - started, workload, cycles


def run_ops(workload, ops):
    """Closed loop over ``ops``; returns (summaries, latencies, errors, wall)."""
    summaries, latencies, errors = [], [], []
    started = time.perf_counter()
    for op in ops:
        summary = error = None
        t0 = time.perf_counter()
        try:
            out = workload.run(op)
        except Exception:  # an op that raises counts as failed; the loop goes on
            error = traceback.format_exc()
        latencies.append(time.perf_counter() - t0)
        if error is None:
            try:
                summary = workload.summarize(op, out)
            except Exception:  # a malformed output is a failed op
                error = traceback.format_exc()
        summaries.append(summary)
        errors.append(error)
    return summaries, latencies, errors, time.perf_counter() - started


def run_timed(workload, cycles, seconds: float) -> dict:
    """Whole cycles until about ``seconds`` have passed (at least one).

    The workload's calibration kernel runs before and after every op.
    Each op's latency is scaled by the kernel's ``REFERENCE_S`` over the
    mean wall time of the kernel runs on either side of it, and its CPU
    time (all threads) by the same over their mean CPU time.
    """
    kind = workload.calibration
    run = {k: [] for k in ("ops", "summaries", "errors", "latencies", "cpu", "kernel_s")}
    after = calibrate.kernel_seconds(kind)
    started = time.perf_counter()
    for c in itertools.count():
        cycle_started = time.perf_counter()
        for op in cycles[c % len(cycles)]:
            before = after
            cpu = time.process_time()
            summary, latency, error, _ = run_ops(workload, [op])
            run["cpu"].append(time.process_time() - cpu)
            after = calibrate.kernel_seconds(kind)
            run["kernel_s"].append([before, after])
            run["ops"].append(op)
            run["summaries"] += summary
            run["latencies"] += latency
            run["errors"] += error
        now = time.perf_counter()
        if now - started + (now - cycle_started) / 2 >= seconds:
            break
    kernels = np.asarray(run["kernel_s"])  # op, before/after, wall/cpu
    run["factors"] = calibrate.REFERENCE_S[kind] / kernels[:, :, 0].mean(axis=1)
    run["cpu_factors"] = calibrate.REFERENCE_S[kind] / kernels[:, :, 1].mean(axis=1)
    return run


def count_failures(workload, ops, summaries, errors, reference) -> int:
    failed = 0
    for op, summary, err in zip(ops, summaries, errors):
        problems = [err] if err else []
        if not problems:
            try:
                problems = workload.check(op, summary, reference)
            except Exception:  # a malformed summary is a failed op
                problems = [traceback.format_exc()]
        if problems:
            failed += 1
            print(f"FAILED {workload.name} {op.stratum}#{op.index}: {problems}",
                  file=sys.stderr)
    return failed


def cross_check(workload, cycles, seed: int) -> bool:
    """round-multicorner only: one corner table against the einsum kernel."""
    if not hasattr(workload, "cross_check"):
        return True
    op = cycles[0][seed % len(cycles[0])]
    deviation = workload.cross_check(op)
    print(f"cross-check {op.stratum}#{op.index}: corner table vs einsum"
          f" max deviation {deviation:.3e} (limit {CROSS_CHECK_TOL:.0e})")
    return deviation <= CROSS_CHECK_TOL


# ---------------------------------------------------------------------------
# tracing


def _strategy_digest(args, kwargs):
    s = args[0]
    arrays = [s.state]
    for side in (s.pvms_a, s.pvms_b):
        for q in sorted(side):
            arrays += side[q]
    questions = args[1] if len(args) > 1 else kwargs.get("questions")
    return array_digest(*arrays) + repr(questions).encode()


def _iterations(args, kwargs, result):
    return args[3] if len(args) > 3 else kwargs["iterations"]


TRACED = [
    ("spectral", ["eigh", "functional_calculus", "require_pvm", "require_povm"]),
    ("sampling", ["rng_for", "random_unitary", "random_hermitian", "random_psd",
                  "random_state", "random_pvm", "random_povm"]),
    ("games", ["load_game", "save_game", "table_l1_distance", "game_value"]),
    ("strategies", ["correlation_of_commuting", "reduced_density", "standard_form_dual",
                    "synchronicity_deficit", "tracial_correlation", "seesaw_optimize"]),
    ("haagerup", ["joint_spectral_measure", "threshold_chi_distance", "connes_certificate",
                  "commutator_certificate", "lp_duality_check", "threshold_integral",
                  "measure_moments"]),
    ("rounding", ["round_strategy", "symmetrized_correlation", "corner_decomposition",
                  "corner_correlation", "verify_dual_distance", "corner_compressions",
                  "orthogonalize_povm"]),
]
TRACE_OPTIONS = {
    "spectral.eigh": {"digest": lambda args, kwargs: array_digest(args[0])},
    "strategies.correlation_of_commuting": {"digest": _strategy_digest},
    "strategies.seesaw_optimize": {"observe": _iterations},
    "rounding.round_strategy": {"observe": lambda a, k, r: len(r.tracial.blocks)},
    "cli.pool": {"observe": lambda a, k, r: r},
}
STRATEGY_IO = ["dump_commuting_strategy", "load_commuting_strategy",
               "dump_tracial_strategy", "load_tracial_strategy"]


def install_tracer(sr, tracer: Tracer) -> None:
    for module, names in TRACED:
        for fn in names:
            span = f"{module}.{fn}"
            tracer.install(f"syncround.{module}", fn, span, **TRACE_OPTIONS.get(span, {}))
    for fn in STRATEGY_IO:
        tracer.install("syncround.strategies", fn, f"strategies.io.{fn}")
    tracer.install("syncround.cli", "main", "cli.main")
    tracer.install("syncround.cli", "_pool_size", "cli.pool", **TRACE_OPTIONS["cli.pool"])
    runners = getattr(sr.cli, "_INSTANCE_RUNNERS", None)
    if runners is not None:
        tracer.install_mapping(runners, "cli.verify.runner")


def layer_metrics(tracer: Tracer, n_ops: int, walls: dict) -> dict:
    """Every metric of ``layers.LAYER_METRICS`` from the traced op list."""
    calls = tracer.calls()
    self_s = tracer.self_times()
    busy_s = tracer.durations()

    def grouped(table, prefix):
        return sum(v for k, v in table.items() if k == prefix or k.startswith(prefix + "."))

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    special = {
        "strategies.seesaw_optimize.ms_per_iter": 1000.0
        * self_s.get("strategies.seesaw_optimize", 0.0)
        / max(1.0, sum(tracer.observed["strategies.seesaw_optimize"])),
        "rounding.corners": mean(tracer.observed["rounding.round_strategy"]),
        "cli.verify.runner_busy_ms": 1000.0 * busy_s.get("cli.verify.runner", 0.0) / n_ops,
        "cli.verify.pooled_wall_ms": 1000.0 * walls.get("pooled", 0.0) / n_ops,
        "cli.verify.serial_wall_ms": 1000.0 * walls.get("serial", 0.0) / n_ops,
        "cli.pool.workers": max(tracer.observed["cli.pool"], default=0.0),
        "trace.overhead_ratio": walls["traced"] / walls["untraced"],
    }
    metrics = {}
    for m in layers.LAYER_METRICS:
        prefix, _, kind = m.name.rpartition(".")
        if m.name in special:
            value = special[m.name]
        elif kind == "calls":
            value = calls.get(prefix, 0)
        elif kind == "calls_per_op":
            value = calls.get(prefix, 0) / n_ops
        elif kind == "self_ms":
            value = 1000.0 * grouped(self_s, prefix) / n_ops
        elif kind == "distinct_ratio":
            digests = tracer.digests[prefix]
            value = len(set(digests)) / len(digests) if digests else 0.0
        else:
            raise KeyError(f"no rule for per-layer metric {m.name}")
        metrics[m.name] = {"value": value, "unit": m.unit}
    return metrics


# ---------------------------------------------------------------------------
# machine record


def blas_record() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.blake2b(digest_size=16)
    for path in sorted((ROOT / "src" / "syncround").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": PINNED_CPU,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "syncround_threads_set": THREADS_ENV in os.environ,
        "syncround_threads": os.environ.get(THREADS_ENV),
        "commit": git_commit(),
        "source_digest": source_digest(),
    }


# ---------------------------------------------------------------------------


@contextlib.contextmanager
def pass_mode(kind: str, tracer: Tracer, sr):
    """``untraced``, ``traced`` (tracer installed) or ``serial`` (one pool worker)."""
    if kind == "traced":
        install_tracer(sr, tracer)
        try:
            yield
        finally:
            tracer.remove()
    elif kind == "serial":
        previous = os.environ.get(THREADS_ENV)
        os.environ[THREADS_ENV] = "1"
        try:
            yield
        finally:
            if previous is None:
                del os.environ[THREADS_ENV]
            else:
                os.environ[THREADS_ENV] = previous
    else:
        yield


def measure_end_to_end(workload, cycles, seconds: float, setup_s: float):
    run = run_timed(workload, cycles, seconds)
    n = len(run["ops"])
    latencies = np.asarray(run["latencies"]) * run["factors"]
    cpu = np.asarray(run["cpu"]) * run["cpu_factors"]
    tail = float(np.percentile(latencies, TAIL_PERCENTILE[workload.name]))
    metrics = {
        "ops_per_s": {"value": n / float(latencies.sum()), "unit": "1/s"},
        "latency_p50_ms": {"value": 1000.0 * float(np.median(latencies)), "unit": "ms"},
        "latency_tail_ms": {"value": 1000.0 * tail, "unit": "ms"},
        "cpu_ms_per_op": {"value": 1000.0 * float(cpu.sum()) / n, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }
    record = {
        "samples": n,
        "tail_percentile": TAIL_PERCENTILE[workload.name],
        # per op: stratum, catalogue index, raw latency and CPU seconds
        "raw": [
            [op.stratum, op.index, lat, cpu_s]
            for op, lat, cpu_s in zip(run["ops"], run["latencies"], run["cpu"])
        ],
        "kernel_s": run["kernel_s"],
    }
    return run["ops"], run["summaries"], run["errors"], metrics, record


def measure_layers(workload, ops):
    """Each op of a fixed list runs untraced, then traced, then (verify-sweep)
    with one pool worker, so that drift in machine speed hits all passes alike."""
    passes = ["untraced", "traced"] + (["serial"] if workload.name == "verify-sweep" else [])
    tracer = Tracer()
    walls = dict.fromkeys(passes, 0.0)
    run, summaries, errors = [], [], []
    for op in ops:
        for kind in passes:
            with pass_mode(kind, tracer, workload.sr):
                out, _, err, wall = run_ops(workload, [op])
            walls[kind] += wall
            run.append(op)
            summaries += out
            errors += err
    if "serial" in walls:
        walls["pooled"] = walls["untraced"]
    metrics = layer_metrics(tracer, len(ops), walls)
    record = {"samples": len(ops), "walls_s": walls}
    return run, summaries, errors, metrics, record, tracer


def measure(args, workdir: Path, reference: dict) -> tuple[dict, dict]:
    """Set up ``SETUP_REPEATS`` times, then run the timed or the traced loop."""
    kind = WORKLOADS[args.workload].calibration
    setups, kernel = [], [calibrate.kernel_seconds(kind)]
    for _ in range(SETUP_REPEATS):
        seconds, workload, cycles = setup(args.workload, args.seed, workdir)
        kernel.append(calibrate.kernel_seconds(kind))
        kernel_wall = statistics.fmean(wall for wall, _ in kernel[-2:])
        setups.append(seconds * calibrate.REFERENCE_S[kind] / kernel_wall)
    if args.trace:
        n_cycles = TRACE_CYCLES[args.workload]
        ops = [op for c in range(n_cycles) for op in cycles[c % len(cycles)]]
        ops, summaries, errors, metrics, record, tracer = measure_layers(workload, ops)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        record["spans_file"] = spans_path.name
    else:
        ops, summaries, errors, metrics, record = measure_end_to_end(
            workload, cycles, args.seconds, statistics.median(setups)
        )
    record["setup_s"] = setups
    record["setup_kernel_s"] = kernel
    record["calibration"] = kind
    failed = count_failures(workload, ops, summaries, errors, reference)
    correct = failed == 0 and cross_check(workload, cycles, args.seed)
    result = {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}
    return result, record


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=_non_negative)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_syncround()
    except ImportError as exc:
        print(f"error: cannot import syncround from this checkout: {exc}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        result, record = measure(args, workdir, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        machine=machine_record(), result=result,
    )
    out_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {result['attempted']} ops,"
          f" {result['failed']} failed (fail_ratio"
          f" {result['failed'] / result['attempted']:.4g}), correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
