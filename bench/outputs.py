"""Print one SHA-256 per seeded output of the checkout, minus timings and paths.

Each line is ``<case> <output> <sha256>``, and a CLI report's line
``<case> <output> exit=<code> <sha256>``, over six families of cases:

- ``verify <suite> seed=<s>``: the ``syncround verify`` report of every
  suite at its README size (``--dims 8``), seeds 1 and 7, and
  ``verify rounding n=<VERIFY_SLAB + 44> seed=<s>``, the rounding suite
  across the boundary of two sweep slabs;
- ``inspect <game>``: the ``inspect`` report of the 3-colouring games of
  C5, C7 and K4 (diagonal mass 1/2);
- ``round <game> seed=<s>``: ``optimize --dims 12 --iters 5`` then
  ``round`` on those games, seeds 0-2: both reports, the strategy file
  and the tracial file;
- ``multicorner C7-L24#<i>``: ``round_strategy`` and
  ``verify_dual_distance`` on the benchmark's multi-corner instances 0-2:
  the certificate, the dual report and the tracial strategy's arrays;
- ``fiber d=<d>#<i>``: the benchmark's fiber-large pairs at d = 64 and
  96, instances 0-1: the joint spectral measure (its atom arrays and
  moments) and the certificates (Connes, commutator, the duality
  residuals at p = 2 and 3, the threshold integral at p = 2);
- ``fiber-rd d=<d>#<i>``: a rank-deficient x at d = 64 and 96,
  instances 0-1, the Wishart matrix of a d x d/2 Ginibre draw, so that
  half its spectrum sits at roundoff near 0, with a full-rank y and a
  4-outcome PVM: the certificates (as above, the threshold integral at
  p = 1 and 2).

Reports lose their ``timings`` and the flags that name a file, so equal
lines mean byte-identical outputs and exit codes.  A ``tracial`` digest hashes block
PVMs that are fixed only up to a unitary inside each degenerate level of
rho (the multicorner instances have such levels), so a change of
factorization routine can move it while the tracial table stays within
roundoff: where one moves, compare the tables before calling it a change
of result.  The instances and the README sizes
come from ``perfbench/workloads.py`` of the same checkout.  To compare
two checkouts, run the script in each and diff the lines:

    python3 bench/outputs.py > change.txt
    (cd ../parent && python3 bench/outputs.py) > parent.txt
    diff parent.txt change.txt

``--n N`` runs every verify suite at N instances instead of its README
size; the slab-boundary case keeps its VERIFY_SLAB + 44.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# the checkout's own source and benchmark inputs, ahead of anything installed
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import syncround as sr
import syncround.cli
import workloads

VERIFY_SEEDS = (1, 7)
ROUND_GAMES = ("C5", "C7", "K4")
ROUND_SEEDS = (0, 1, 2)
MULTICORNER = (7, 24, range(3))  # C7, 24 corners, instances 0-2
FIBER = ((64, 96), range(2))  # dimensions, instances 0-1
FIBER_RD = (31, (64, 96), range(2))  # seed, dimensions, instances 0-1
# two slabs of the sweep, whatever its slab size
SLAB_BOUNDARY = ("rounding", syncround.cli.VERIFY_SLAB + 44)
PATH_FLAGS = ("game", "strategy", "out")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tracial_digest(t) -> str:
    """The digest of a tracial strategy's weights, dimensions and PVM
    stacks: equal exactly when its dumps are, without writing the 20 MB
    dump of a 24-corner strategy at d = 48."""
    h = hashlib.sha256()
    for block in t.blocks:
        h.update(f"{block.weight!r} {block.dim} {block.pvms.questions!r}".encode())
        h.update(block.pvms.stack.tobytes())
    return h.hexdigest()


def report_text(stdout: str) -> str:
    """A report without its timings and its file-path flags."""
    report = json.loads(stdout)
    del report["timings"]
    report["flags"] = {k: v for k, v in report["flags"].items() if k not in PATH_FLAGS}
    return json.dumps(report)


def cli(argv: list[str]) -> str:
    """``exit=<code> <sha256>`` of one CLI call and its report."""
    code, stdout = workloads.run_cli(sr, argv)
    if code == 2:
        raise SystemExit(f"syncround {' '.join(argv)} exited 2")
    return f"exit={code} {digest(report_text(stdout))}"


def verify_lines(n: int | None) -> list[str]:
    cases = [(suite, n or size, suite) for suite, size in workloads.VERIFY_SUITES]
    suite, size = SLAB_BOUNDARY
    cases.append((suite, size, f"{suite} n={size}"))
    lines = []
    for suite, size, label in cases:
        for seed in VERIFY_SEEDS:
            argv = ["verify", "--suite", suite, "--n", str(size), "--dims", "8",
                    "--seed", str(seed)]
            lines.append(f"verify {label} seed={seed} report {cli(argv)}")
    return lines


def game_lines(workdir: Path) -> list[str]:
    game_path, strategy_path, tracial_path = (
        str(workdir / name) for name in ("game.json", "strategy.json", "tracial.json")
    )
    lines = []
    for name in ROUND_GAMES:
        game = sr.graph_coloring_game(workloads.GAMES[name], 3, "1/2")
        Path(game_path).write_text(sr.save_game(game), encoding="utf-8")
        lines.append(f"inspect {name} report {cli(['inspect', '--game', game_path])}")
        for seed in ROUND_SEEDS:
            outputs = {
                "optimize": cli(["optimize", "--game", game_path, "--dims", "12", "--iters", "5",
                                 "--seed", str(seed), "--out", strategy_path]),
                "strategy": digest(Path(strategy_path).read_text(encoding="utf-8")),
                "round": cli(["round", "--game", game_path, "--strategy", strategy_path,
                              "--out", tracial_path]),
                "tracial": digest(Path(tracial_path).read_text(encoding="utf-8")),
            }
            lines += [f"round {name} seed={seed} {key} {value}" for key, value in outputs.items()]
    return lines


def multicorner_lines() -> list[str]:
    n_cycle, levels, indices = MULTICORNER
    lines = []
    for index in indices:
        game, strategy = workloads.multicorner_instance(sr, n_cycle, levels, index)
        result = sr.round_strategy(game, strategy)
        outputs = {
            "certificate": digest(json.dumps(asdict(result.certificate))),
            "dual": digest(json.dumps(asdict(sr.verify_dual_distance(game, strategy)))),
            "tracial": tracial_digest(result.tracial),
        }
        lines += [f"multicorner C{n_cycle}-L{levels}#{index} {key} {value}"
                  for key, value in outputs.items()]
    return lines


def pair_certificates(x, y, x_unit, pvm) -> dict:
    """The Connes and commutator certificates and the duality residuals
    at p = 2 and 3 of one PSD pair."""
    return {
        "connes": asdict(sr.connes_certificate(x, y)),
        "commutator": asdict(sr.commutator_certificate(x_unit, pvm)),
        "duality": [sr.lp_duality_check(x, y, p) for p in (2.0, 3.0)],
    }


def fiber_lines() -> list[str]:
    dims, indices = FIBER
    lines = []
    for dim in dims:
        for index in indices:
            x, y, x_unit, pvm = workloads.fiber_instance(sr, dim, index)
            measure = sr.joint_spectral_measure(x, y)
            atoms = hashlib.sha256(measure.lambdas.tobytes() + measure.masses.tobytes())
            atoms.update(json.dumps(asdict(sr.measure_moments(measure))).encode())
            certificates = pair_certificates(x, y, x_unit, pvm)
            certificates["threshold_integral"] = sr.threshold_integral(x, 2.0)
            outputs = {
                "measure": atoms.hexdigest(),
                "certificates": digest(json.dumps(certificates)),
            }
            lines += [f"fiber d={dim}#{index} {key} {value}" for key, value in outputs.items()]
    return lines


def fiber_rd_lines() -> list[str]:
    seed, dims, indices = FIBER_RD
    sampling = sr.sampling
    lines = []
    for dim in dims:
        for index in indices:
            rng = sampling.rng_for(seed, dim, index)
            x = sampling.wishart(sampling.ginibre(sampling.ginibre_draw(rng, dim, dim // 2)))
            y = sampling.random_psd(rng, dim)
            pvm = sampling.random_pvm(rng, dim, 4)
            x_unit = x / np.sqrt(np.trace(x @ x).real)
            certificates = pair_certificates(x, y, x_unit, pvm)
            certificates["threshold_integral"] = [sr.threshold_integral(x, p) for p in (1.0, 2.0)]
            lines.append(f"fiber-rd d={dim}#{index} certificates {digest(json.dumps(certificates))}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=None,
                        help="instances per verify suite (default: its README size)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        lines = (verify_lines(args.n) + game_lines(Path(tmp)) + multicorner_lines()
                 + fiber_lines() + fiber_rd_lines())
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
