"""The per-layer metrics of the traced run, and what each should move.

Each row names one metric, its unit, which direction is better, the
end-to-end metric it should move and on which workload, and the
workloads on which the layer does work at all, so that the metric must
read non-zero there.  ``BENCHMARK.json`` lists the same names; the
benchmark's tests keep the two in step.

Counting conventions of the traced run (see ``tracer.py``):

- ``calls`` is the exact number of calls over the traced op list;
- ``calls_per_op`` is that count divided by the number of ops;
- ``self_ms`` is self time (span minus its children on the same
  thread) summed over the traced ops, divided by the number of ops;
- ``distinct_ratio`` is distinct input digests divided by calls.
"""

from __future__ import annotations

from dataclasses import dataclass

RMC = "round-multicorner"
VS = "verify-sweep"
FL = "fiber-large"
OR = "optimize-round"
EVERY_WORKLOAD = (RMC, VS, FL, OR)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str
    nonzero_on: tuple[str, ...]


def _row(names, unit, better, moves, nonzero_on):
    return [LayerMetric(n, unit, better, moves, tuple(nonzero_on)) for n in names]


_P50 = "latency_p50_ms"
_HAAGERUP = (
    "joint_spectral_measure",
    "threshold_chi_distance",
    "connes_certificate",
    "commutator_certificate",
    "lp_duality_check",
    "threshold_integral",
    "measure_moments",
)

LAYER_METRICS: list[LayerMetric] = [
    *_row(
        [
            "spectral.eigh.calls",
            "spectral.functional_calculus.calls",
        ],
        "count", "lower", f"{_P50} on {RMC}, {VS}", (RMC, VS),
    ),
    *_row(
        [
            "spectral.eigh.self_ms",
            "spectral.functional_calculus.self_ms",
            "spectral.require_pvm.self_ms",
            "spectral.require_povm.self_ms",
        ],
        "ms", "lower", f"{_P50} on {RMC}, {VS}", (RMC, VS),
    ),
    *_row(
        ["spectral.eigh.distinct_ratio"],
        "ratio", "higher", f"{_P50} on {RMC}, {VS}", (RMC, VS),
    ),
    *_row(["sampling.self_ms"], "ms", "lower", f"ops_per_s on {VS}", (VS,)),
    *_row(
        [
            "games.load_game.self_ms",
            "games.save_game.self_ms",
            "games.game_value.self_ms",
        ],
        "ms", "lower", f"{_P50} on {OR}", (OR,),
    ),
    *_row(
        ["games.table_l1_distance.calls"],
        "count", "lower", f"{_P50} on {RMC}", (RMC, OR),
    ),
    *_row(
        ["games.table_l1_distance.self_ms"],
        "ms", "lower", f"{_P50} on {RMC}", (RMC, OR),
    ),
    *_row(
        ["strategies.correlation_of_commuting.calls"],
        "count", "lower", f"{_P50} on {RMC}", (RMC,),
    ),
    *_row(
        [
            "strategies.correlation_of_commuting.self_ms",
            "strategies.standard_form_dual.self_ms",
            "strategies.synchronicity_deficit.self_ms",
            "strategies.tracial_correlation.self_ms",
        ],
        "ms", "lower", f"{_P50} on {RMC}", (RMC,),
    ),
    *_row(
        ["strategies.correlation_of_commuting.distinct_ratio"],
        "ratio", "higher", f"{_P50} on {RMC}", (RMC,),
    ),
    *_row(
        ["strategies.reduced_density.calls_per_op"],
        "count/op", "lower", f"{_P50} on {RMC}", (RMC,),
    ),
    *_row(
        ["strategies.seesaw_optimize.self_ms", "strategies.io.self_ms"],
        "ms", "lower", f"{_P50} on {OR}", (OR,),
    ),
    *_row(
        ["strategies.seesaw_optimize.ms_per_iter"],
        "ms/iter", "lower", f"{_P50} on {OR}", (OR,),
    ),
    # threshold_integral has no verify suite, so it works on fiber-large only
    *[
        LayerMetric(
            f"haagerup.{fn}.{kind}", unit, "lower", f"{_P50} on {FL}; ops_per_s on {VS}",
            (FL,) if fn == "threshold_integral" else (FL, VS),
        )
        for fn in _HAAGERUP
        for kind, unit in (("calls", "count"), ("self_ms", "ms"))
    ],
    *_row(
        [
            "rounding.round_strategy.self_ms",
            "rounding.symmetrized_correlation.self_ms",
            "rounding.corner_decomposition.self_ms",
            "rounding.corner_correlation.self_ms",
            "rounding.corner_compressions.self_ms",
            "rounding.orthogonalize_povm.self_ms",
        ],
        "ms", "lower", f"{_P50} on {RMC}; no change on {OR}", (RMC, OR),
    ),
    # the round command does not evaluate the dual-distance inequalities
    *_row(
        ["rounding.verify_dual_distance.self_ms"],
        "ms", "lower", f"{_P50} on {RMC}; no change on {OR}", (RMC,),
    ),
    *_row(
        ["rounding.corner_compressions.calls_per_op"],
        "count/op", "lower", f"{_P50} on {RMC}; no change on {OR}", (RMC, OR),
    ),
    *_row(
        ["rounding.orthogonalize_povm.calls", "rounding.corners"],
        "count", "lower", f"{_P50} on {RMC}; no change on {OR}", (RMC, OR),
    ),
    *_row(
        ["cli.main.self_ms"],
        "ms", "lower", f"ops_per_s, cpu_ms_per_op on {VS}", (VS, OR),
    ),
    *_row(
        [
            "cli.verify.runner_busy_ms",
            "cli.verify.pooled_wall_ms",
            "cli.verify.serial_wall_ms",
        ],
        "ms", "lower", f"ops_per_s, cpu_ms_per_op on {VS}", (VS,),
    ),
    *_row(
        ["cli.pool.workers"],
        "count", "lower", f"ops_per_s, cpu_ms_per_op on {VS}", (VS,),
    ),
    *_row(["trace.overhead_ratio"], "ratio", "lower", "none", EVERY_WORKLOAD),
]

NAMES = [m.name for m in LAYER_METRICS]
