"""Command-line surface.

One self-describing JSON report, a single compact document, goes to
stdout, a human summary to stderr.  Exit codes: 0 all certificates
pass, 1 a certificate failed, 2 input or usage error.  Randomized
commands require an explicit seed and produce byte-identical reports
(modulo the timing fields) for identical seeds and flags.

``verify`` draws every instance from its own seeded stream
``rng_for(seed, index)``.  The streams of each slab of VERIFY_SLAB
indices are seeded in one pass by the bulk form of ``rng_for``, bitwise
the streams of the per-index calls.  The sweep groups the slab's
instances by shape (matrix dimension; for the commutator suite also the
outcome count) and does each group's arithmetic as one stack: the
Wishart and Haar transforms of ``sampling`` turn the group's draws into
its instances, bitwise those of the per-instance generators, and the
certificates cost one eigensolve per side.  The rounding suite's
instances perturb only the B side of one strategy, so each of its groups
is one stacked pass: ``perturb_b_sides`` draws the group's B sides as
one (N, Y, B, d, d) stack, and ``round_b_sides`` checks it once and
rounds it against one corner stage of the base strategy.  Its
certificate and dual report hold one (N,) array per field, and entry i
is bitwise the field of rounding instance i alone.
The sweep's thread pool maps over these batches.  It has one thread per CPU
the process may run on (its affinity mask), at most 8;
SYNCROUND_THREADS overrides that.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .games import GameFormatError, alpha_of, graph_coloring_game, load_game
from .haagerup import (
    _trace_product,
    commutator_certificate,
    connes_certificate,
    joint_spectral_measure,
    lp_duality_check,
    measure_moments,
    threshold_chi_distance,
)
from .rounding import round_b_sides, round_strategy
from .sampling import (
    ginibre,
    ginibre_draw,
    haar_unitary,
    pvm_from_unitary,
    rng_for,
    wishart,
)
from .spectral import DUALITY_TOL, IDENTITY_TOL, MONOTONE_TOL, eigh
from .strategies import (
    cyclic_coloring_strategy,
    dump_commuting_strategy,
    dump_tracial_strategy,
    load_commuting_strategy,
    perturb_b_sides,
    seesaw_optimize,
)

SUITES = ("connes", "measure", "commutator", "duality", "rounding")
ROUNDING_ETAS = (0.02, 0.05, 0.1)
# the certificate fields of a rounding suite row, in report order
ROUNDING_ROW_FIELDS = (
    "delta", "d1_total", "bound_total", "value_in", "value_out",
    "vacuous_total", "vacuous_game", "holds_by_slack",
)
# instances sampled and held at once: this bounds a sweep's memory, while
# a README-size cycle of the four matrix suites still stacks into about
# 150 eigensolves (one per side per shape group of each slab)
VERIFY_SLAB = 256


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _pool_size() -> int:
    raw = os.environ.get("SYNCROUND_THREADS", "")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ValueError(f"SYNCROUND_THREADS must be an integer, got {raw!r}")
    if hasattr(os, "sched_getaffinity"):
        # the CPUs this process may run on, which an affinity mask narrows
        return min(8, len(os.sched_getaffinity(0)))
    return min(8, os.cpu_count() or 1)


def _emit(report: dict, summary: str, started: float) -> None:
    report["timings"] = {"wall_s": time.monotonic() - started}
    print(json.dumps(report))
    print(summary, file=sys.stderr)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# verify suites
#
# A sampler draws one instance from its own stream, the generator
# rng_for(seed, index), and returns the key of its shape group with its
# raw draws.  A runner takes one group, its indices and its draws, each
# stacked over the group, and returns one report row per instance.  A
# matrix suite's runner first turns the draws into the group's instances
# with its transform, built from the stack-capable transforms of
# ``sampling``.


def _sample_pair(rng, dims: int):
    dim = int(rng.integers(1, dims + 1))
    return (dim,), (ginibre_draw(rng, dim, dim), ginibre_draw(rng, dim, dim))


def _sample_commutator(rng, dims: int):
    dim = int(rng.integers(1, dims + 1))
    x = ginibre_draw(rng, dim, dim)
    n_outcomes = int(rng.integers(2, 5))
    return (dim, n_outcomes), (x, ginibre_draw(rng, dim, dim))


def _sample_rounding(rng, dims: int):
    return (), (int(rng.integers(2**31)),)


def _psd_pair(x, y):
    """The random_psd pair of each instance."""
    return wishart(ginibre(x)), wishart(ginibre(y))


def _unit_psd_and_pvm(x, u, n_outcomes: int):
    """x = random_psd scaled to unit Hilbert-Schmidt norm, and the
    random_pvm with ``n_outcomes`` outcomes, of each instance."""
    x = wishart(ginibre(x))
    x = x / np.sqrt(np.trace(x @ x, axis1=-2, axis2=-1).real)[:, None, None]
    return x, pvm_from_unitary(haar_unitary(ginibre(u)), n_outcomes)


def _rows(indices: np.ndarray, fixed: dict, columns: dict) -> list[dict]:
    """One row per instance: its index, the group's fixed fields, then
    its entry of each column (a dict column holds one array per field).
    Each column becomes Python floats and bools in one ``tolist``."""
    columns = {
        name: {k: v.tolist() for k, v in column.items()}
        if isinstance(column, dict)
        else column.tolist()
        for name, column in columns.items()
    }
    rows = []
    for i, index in enumerate(indices.tolist()):
        row = {"index": index, **fixed}
        for name, column in columns.items():
            if isinstance(column, dict):
                row[name] = {k: v[i] for k, v in column.items()}
            else:
                row[name] = column[i]
        rows.append(row)
    return rows


def _connes_batch(key, indices, x, y) -> list[dict]:
    x, y = _psd_pair(x, y)
    cert = connes_certificate(x, y)
    columns = {"lhs": cert.lhs, "mid": cert.mid, "rhs": cert.rhs, "holds": cert.holds}
    return _rows(indices, {"dim": key[0]}, columns)


def _measure_batch(key, indices, x, y) -> list[dict]:
    x, y = _psd_pair(x, y)
    # one decomposition per side serves the measure and the chi distance
    xdec, ydec = eigh(x, "x"), eigh(y, "y")
    measure = joint_spectral_measure(xdec, ydec)
    moments = measure_moments(measure)
    s = x + y
    residuals = {
        "norm_x_sq": np.abs(moments.norm_x_sq - _trace_product(x, x)),
        "norm_y_sq": np.abs(moments.norm_y_sq - _trace_product(y, y)),
        "inner_product": np.abs(moments.inner_product - _trace_product(x, y)),
        "total_mass": np.abs(measure.total_mass - _trace_product(s, s)),
        "chi_dual_path": np.abs(moments.chi_distance - threshold_chi_distance(xdec, ydec)),
    }
    holds = np.all([r <= IDENTITY_TOL for r in residuals.values()], axis=0)
    return _rows(indices, {"dim": key[0]}, {"residuals": residuals, "holds": holds})


def _commutator_batch(key, indices, x, u) -> list[dict]:
    x, pvm = _unit_psd_and_pvm(x, u, key[1])
    cert = commutator_certificate(x, pvm)
    columns = {
        "sum_comm_x": cert.sum_comm_x,
        "sum_comm_q": cert.sum_comm_q,
        "upper": cert.upper,
        "holds": cert.holds,
    }
    return _rows(indices, {"dim": key[0], "n_outcomes": key[1]}, columns)


def _duality_batch(key, indices, x, y) -> list[dict]:
    x, y = _psd_pair(x, y)
    xdec = eigh(x, "x")  # one decomposition for both exponents
    residuals = {"p2": lp_duality_check(xdec, y, 2.0), "p3": lp_duality_check(xdec, y, 3.0)}
    holds = np.all([r <= DUALITY_TOL for r in residuals.values()], axis=0)
    return _rows(indices, {"dim": key[0]}, {"residuals": residuals, "holds": holds})


def _rounding_batch(key, indices, perturb_seeds) -> list[dict]:
    game = graph_coloring_game([("v0", "v1")], 3, "1/2")
    base = cyclic_coloring_strategy(game.questions, 3)
    # every instance perturbs only the B side of one base strategy: the
    # group's B sides are one stack, checked and rounded in one stacked pass
    etas = np.take(ROUNDING_ETAS, indices % len(ROUNDING_ETAS))
    names = [f"instance {index}" for index in indices.tolist()]
    stack_b = perturb_b_sides(base, etas, perturb_seeds)
    cert, dual = round_b_sides(game, base, stack_b, names)
    columns = {
        "eta": etas,
        **{name: getattr(cert, name) for name in ROUNDING_ROW_FIELDS},
        "holds_bounds": cert.holds,
        "holds_dual": dual.holds,
        "holds": cert.holds & dual.holds,
    }
    return _rows(indices, {}, columns)


# one sampler per suite, called once per instance
_SAMPLERS = {
    "connes": _sample_pair,
    "measure": _sample_pair,
    "commutator": _sample_commutator,
    "duality": _sample_pair,
    "rounding": _sample_rounding,
}
# one runner per suite, called once per shape group of a slab
_INSTANCE_RUNNERS = {
    "connes": _connes_batch,
    "measure": _measure_batch,
    "commutator": _commutator_batch,
    "duality": _duality_batch,
    "rounding": _rounding_batch,
}


def _verify_instances(suite: str, n: int, dims: int, seed: int) -> list[dict]:
    """The report rows of a sweep, in index order.

    The instances are taken VERIFY_SLAB at a time: the slab's streams
    seeded in one pass, its instances drawn and grouped by shape, and the
    slab's groups mapped over the pool, each group's draws transformed
    and certified as stacks by its runner.
    """
    sample = _SAMPLERS[suite]
    # looked up per call, so that a wrapper installed on the dict applies
    runner = _INSTANCE_RUNNERS[suite]

    def run_group(group):
        key, items = group
        indices, *draws = (np.array(field) for field in zip(*items))
        return runner(key, indices, *draws)

    rows = []
    with ThreadPoolExecutor(max_workers=_pool_size()) as pool:
        for first in range(0, n, VERIFY_SLAB):
            indices = np.arange(first, min(first + VERIFY_SLAB, n))
            groups: dict[tuple, list] = {}
            for index, rng in zip(indices.tolist(), rng_for(seed, indices)):
                key, data = sample(rng, dims)
                groups.setdefault(key, []).append((index, *data))
            for batch in pool.map(run_group, groups.items()):
                rows += batch
    return sorted(rows, key=lambda r: r["index"])


def cmd_verify(args) -> int:
    started = time.monotonic()
    instances = _verify_instances(args.suite, args.n, args.dims, args.seed)
    violations = [inst["index"] for inst in instances if not inst["holds"]]
    passed = not violations
    report = {
        "command": "verify",
        "flags": {"suite": args.suite, "n": args.n, "dims": args.dims},
        "seed": args.seed,
        "instances": instances,
        "summary": {"pass": passed, "n": args.n, "violations": violations},
    }
    _emit(
        report,
        f"verify suite={args.suite} n={args.n} dims={args.dims}"
        f" violations={len(violations)} -> {'PASS' if passed else 'FAIL'}",
        started,
    )
    return 0 if passed else 1


def cmd_inspect(args) -> int:
    started = time.monotonic()
    game = load_game(_read(args.game))
    diag_mass = float(np.trace(game.nu))
    report = {
        "command": "inspect",
        "flags": {"game": args.game},
        "questions": list(game.questions),
        "answers": list(game.answers),
        "n_questions": game.n_questions,
        "n_answers": game.n_answers,
        "alpha": alpha_of(game),
        "nu": {
            "total": float(game.nu.sum()),
            "diagonal_mass": diag_mass,
            "support_pairs": int(np.count_nonzero(game.nu)),
            "marginals": {
                q: float(m) for q, m in zip(game.questions, game.mu)
            },
        },
        "summary": {"pass": True},
    }
    _emit(
        report,
        f"inspect {args.game}: |X|={game.n_questions} |A|={game.n_answers}"
        f" alpha={alpha_of(game):.6g}",
        started,
    )
    return 0


def cmd_round(args) -> int:
    started = time.monotonic()
    game = load_game(_read(args.game))
    strategy = load_commuting_strategy(_read(args.strategy))
    result = round_strategy(game, strategy)
    Path(args.out).write_text(dump_tracial_strategy(result.tracial), encoding="utf-8")
    cert = result.certificate
    report = {
        "command": "round",
        "flags": {"game": args.game, "strategy": args.strategy, "out": args.out},
        "certificate": asdict(cert),
        "summary": {"pass": cert.holds},
    }
    _emit(
        report,
        f"round: delta={cert.delta:.3e} value {cert.value_in:.6f} ->"
        f" {cert.value_out:.6f}, bounds {'hold' if cert.holds else 'VIOLATED'},"
        f" wrote {args.out}",
        started,
    )
    return 0 if cert.holds else 1


def cmd_optimize(args) -> int:
    started = time.monotonic()
    game = load_game(_read(args.game))
    result = seesaw_optimize(game, args.dims, args.dims, args.iters, args.seed)
    Path(args.out).write_text(
        dump_commuting_strategy(result.strategy), encoding="utf-8"
    )
    monotone = all(
        later >= earlier - MONOTONE_TOL
        for earlier, later in zip(result.values, result.values[1:])
    )
    report = {
        "command": "optimize",
        "flags": {
            "game": args.game,
            "dims": args.dims,
            "iters": args.iters,
            "out": args.out,
        },
        "seed": args.seed,
        "trajectory": result.values,
        "final_value": result.values[-1],
        "summary": {"pass": monotone},
    }
    _emit(
        report,
        f"optimize: final value {result.values[-1]:.6f} after {args.iters}"
        f" iterations, wrote {args.out}",
        started,
    )
    return 0 if monotone else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncround",
        description="Synchronous non-local games: strategy rounding and"
        " spectral certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inspect = sub.add_parser("inspect", help="validate and summarize a game file")
    p_inspect.add_argument("--game", required=True, help="game file path")
    p_inspect.set_defaults(run=cmd_inspect)

    p_round = sub.add_parser(
        "round", help="round a commuting strategy to a tracial strategy"
    )
    p_round.add_argument("--game", required=True)
    p_round.add_argument("--strategy", required=True)
    p_round.add_argument("--out", required=True, help="tracial strategy output path")
    p_round.set_defaults(run=cmd_round)

    p_verify = sub.add_parser("verify", help="run a seeded certificate sweep")
    p_verify.add_argument("--suite", required=True, choices=SUITES)
    p_verify.add_argument("--n", required=True, type=_positive_int)
    p_verify.add_argument(
        "--dims",
        type=_positive_int,
        default=8,
        help="max dimension for random-matrix suites (ignored by the"
        " rounding suite, which runs the fixed single-edge instance)",
    )
    p_verify.add_argument("--seed", required=True, type=int)
    p_verify.set_defaults(run=cmd_verify)

    p_opt = sub.add_parser("optimize", help="see-saw search for a test strategy")
    p_opt.add_argument("--game", required=True)
    p_opt.add_argument("--dims", required=True, type=_positive_int)
    p_opt.add_argument("--iters", required=True, type=int)
    p_opt.add_argument("--seed", required=True, type=int)
    p_opt.add_argument("--out", required=True)
    p_opt.set_defaults(run=cmd_optimize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (GameFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
