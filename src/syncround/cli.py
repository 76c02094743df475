"""Command-line surface.

Every command prints one report, a single compact JSON document, to
stdout and a one-line summary to stderr.  A ``cmd_*`` function returns
its own fields, ending in ``summary``, and that line; ``main`` alone
wraps the fields in the envelope ``command``, ``flags`` (the parsed
options other than ``--seed``, in parser order), ``seed`` (for the
commands that take one), the fields, then ``timings``: the wall time,
the only field not fixed by the flags and the seed.  Exit codes: 0 when
``summary.pass`` holds, 1 when it does not, 2 on an input or usage
error, which prints no report.

``verify`` draws every instance from its own seeded stream
``rng_for(seed, index)``, a slab of indices at a time, each slab's
streams seeded in one pass by the bulk form of ``rng_for``.  A slab
holds at most VERIFY_SLAB = 1024 indices and VERIFY_SLAB_BYTES = 8 MiB
of draws (32 · dims² bytes per instance, one seed for the rounding
suite); the report does not depend on its size.  The sweep groups the
slab's instances by shape (matrix dimension; for the commutator suite
also the outcome count) and does each group's arithmetic as one stack:
the transforms of ``sampling`` turn the draws into instances bitwise
those of the per-instance generators, and the certificates cost one
eigensolve per side.  The rounding suite's instances perturb only the B
side of one strategy, so each group is one pass of ``perturb_b_sides``
and ``round_b_sides``, bitwise per instance.  The measure suite judges
the residual |m - r| of each moment m against its reference r by
``joint_spectral_measure``'s rule, |m - r| <= IDENTITY_TOL (1 + |r|).

A thread pool maps over the groups, one thread per CPU the process may
run on (its affinity mask), at most 8; SYNCROUND_THREADS overrides that.
A sweep whose pool would have one thread runs its groups in the calling
thread.  The argument parser is built once per process and reused by
every ``main`` call; parsing leaves no state in it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .games import GameFormatError, graph_coloring_game, load_game
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

ROUNDING_ETAS = (0.02, 0.05, 0.1)
# the certificate fields of a rounding suite row, in report order
ROUNDING_ROW_FIELDS = (
    "delta", "d1_total", "bound_total", "value_in", "value_out",
    "vacuous_total", "vacuous_game", "holds_by_slack",
)
# instances sampled and held at once: the smallest power of two that holds
# the largest README-size sweep (connes, n = 1000), so each README-size
# suite is seeded, grouped and certified as one slab, one stack per shape.
VERIFY_SLAB = 1024
# a slab's draws, 32 * dims**2 bytes per instance: a full slab up to dims 16
VERIFY_SLAB_BYTES = VERIFY_SLAB * 32 * 16**2


def _int_at_least(text: str, low: int, wording: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1  # a non-integer gets the flag's own message
    if value < low:
        raise argparse.ArgumentTypeError(f"{wording}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1, "must be a positive integer")


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0, "expected non-negative integer")


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
    return _rows(indices, {"dim": key[0]}, asdict(connes_certificate(x, y)))


def _measure_batch(key, indices, x, y) -> list[dict]:
    x, y = _psd_pair(x, y)
    # one decomposition per side serves the measure and the chi distance
    xdec, ydec = eigh(x, "x"), eigh(y, "y")
    measure = joint_spectral_measure(xdec, ydec)
    moments = measure_moments(measure)
    s = x + y
    pairs = {  # each moment and its reference
        "norm_x_sq": (moments.norm_x_sq, _trace_product(x, x)),
        "norm_y_sq": (moments.norm_y_sq, _trace_product(y, y)),
        "inner_product": (moments.inner_product, _trace_product(x, y)),
        "total_mass": (measure.total_mass, _trace_product(s, s)),
        "chi_dual_path": (moments.chi_distance, threshold_chi_distance(xdec, ydec)),
    }
    residuals = {name: np.abs(m - r) for name, (m, r) in pairs.items()}
    allowed = {name: IDENTITY_TOL * (1.0 + np.abs(r)) for name, (_, r) in pairs.items()}
    holds = np.all([residuals[name] <= allowed[name] for name in pairs], axis=0)
    return _rows(indices, {"dim": key[0]}, {"residuals": residuals, "holds": holds})


def _commutator_batch(key, indices, x, u) -> list[dict]:
    x, pvm = _unit_psd_and_pvm(x, u, key[1])
    fixed = {"dim": key[0], "n_outcomes": key[1]}
    return _rows(indices, fixed, asdict(commutator_certificate(x, pvm)))


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


# one sampler per suite, called once per instance; its keys are the suites
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

    The instances are taken a slab at a time: the slab's streams
    seeded in one pass, its instances drawn and grouped by shape, and the
    slab's groups mapped over the pool (or, when the pool would have one
    thread, in the calling thread), each group's draws transformed and
    certified as stacks by its runner.
    """
    sample = _SAMPLERS[suite]
    # looked up per call, so that a wrapper installed on the dict applies
    runner = _INSTANCE_RUNNERS[suite]

    def run_group(group):
        key, items = group
        indices, *draws = (np.array(field) for field in zip(*items))
        return runner(key, indices, *draws)

    fits = VERIFY_SLAB if suite == "rounding" else VERIFY_SLAB_BYTES // (32 * dims**2)
    slab = max(1, min(VERIFY_SLAB, fits))  # a rounding instance draws one seed
    workers = _pool_size()
    rows = []
    with contextlib.ExitStack() as stack:
        # a pool of one thread would only hand each group to it and wait
        mapper = map if workers == 1 else stack.enter_context(ThreadPoolExecutor(workers)).map
        for first in range(0, n, slab):
            indices = np.arange(first, min(first + slab, n))
            groups: dict[tuple, list] = {}
            for index, rng in zip(indices.tolist(), rng_for(seed, indices)):
                key, data = sample(rng, dims)
                groups.setdefault(key, []).append((index, *data))
            for batch in mapper(run_group, groups.items()):
                rows += batch
    return sorted(rows, key=lambda r: r["index"])


def cmd_verify(args) -> tuple[dict, str]:
    instances = _verify_instances(args.suite, args.n, args.dims, args.seed)
    violations = [inst["index"] for inst in instances if not inst["holds"]]
    passed = not violations
    body = {
        "instances": instances,
        "summary": {"pass": passed, "n": args.n, "violations": violations},
    }
    return body, (
        f"verify suite={args.suite} n={args.n} dims={args.dims}"
        f" violations={len(violations)} -> {'PASS' if passed else 'FAIL'}"
    )


def cmd_inspect(args) -> tuple[dict, str]:
    game = load_game(_read(args.game))
    diag_mass = float(np.trace(game.nu))
    body = {
        "questions": list(game.questions),
        "answers": list(game.answers),
        "n_questions": game.n_questions,
        "n_answers": game.n_answers,
        "alpha": game.alpha,
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
    return body, (
        f"inspect {args.game}: |X|={game.n_questions} |A|={game.n_answers}"
        f" alpha={game.alpha:.6g}"
    )


def cmd_round(args) -> tuple[dict, str]:
    game = load_game(_read(args.game))
    strategy = load_commuting_strategy(_read(args.strategy))
    result = round_strategy(game, strategy)
    Path(args.out).write_text(dump_tracial_strategy(result.tracial), encoding="utf-8")
    cert = result.certificate
    body = {"certificate": asdict(cert), "summary": {"pass": cert.holds}}
    return body, (
        f"round: delta={cert.delta:.3e} value {cert.value_in:.6f} ->"
        f" {cert.value_out:.6f}, bounds {'hold' if cert.holds else 'VIOLATED'},"
        f" wrote {args.out}"
    )


def cmd_optimize(args) -> tuple[dict, str]:
    game = load_game(_read(args.game))
    result = seesaw_optimize(game, args.dims, args.dims, args.iters, args.seed)
    Path(args.out).write_text(
        dump_commuting_strategy(result.strategy), encoding="utf-8"
    )
    monotone = all(
        later >= earlier - MONOTONE_TOL
        for earlier, later in zip(result.values, result.values[1:])
    )
    body = {
        "trajectory": result.values,
        "final_value": result.values[-1],
        "summary": {"pass": monotone},
    }
    return body, (
        f"optimize: final value {result.values[-1]:.6f} after {args.iters}"
        f" iterations, wrote {args.out}"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call.

    Each subcommand binds its ``cmd_*`` function then, so a later
    rebinding of a ``cmd_*`` name is not seen by ``main``.
    """
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
    p_verify.add_argument("--suite", required=True, choices=tuple(_SAMPLERS))
    p_verify.add_argument("--n", required=True, type=_positive_int)
    p_verify.add_argument(
        "--dims",
        type=_positive_int,
        default=8,
        help="max dimension for random-matrix suites (ignored by the"
        " rounding suite, which runs the fixed single-edge instance)",
    )
    p_verify.add_argument("--seed", required=True, type=_non_negative_int)
    p_verify.set_defaults(run=cmd_verify)

    p_opt = sub.add_parser("optimize", help="see-saw search for a test strategy")
    p_opt.add_argument("--game", required=True)
    p_opt.add_argument("--dims", required=True, type=_positive_int)
    p_opt.add_argument("--iters", required=True, type=_non_negative_int)
    p_opt.add_argument("--seed", required=True, type=_non_negative_int)
    p_opt.add_argument("--out", required=True)
    p_opt.set_defaults(run=cmd_optimize)
    return parser


def main(argv=None) -> int:
    """Run one command and print its report (see the module docstring)."""
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        body, line = args.run(args)
    except (GameFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # the parsed options, in parser order, less the subcommand and its function
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "run")}
    seed = {"seed": flags.pop("seed")} if "seed" in flags else {}
    report = {
        "command": args.command,
        "flags": flags,
        **seed,
        **body,
        "timings": {"wall_s": time.monotonic() - started},
    }
    print(json.dumps(report))
    print(line, file=sys.stderr)
    return 0 if body["summary"]["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
