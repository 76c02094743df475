"""The four benchmark workloads: seeded inputs, one op, and its checks.

Every workload runs in a closed loop: one caller, and the next op starts
only after the previous one returns.  Ops are grouped in cycles that
visit a fixed list of strata (instance shapes), so every run holds the
same mix of shapes whatever the seed.  Each cycle is chosen so that the
median of a run falls inside one stratum's latencies, not in the gap
between two shapes of different cost, where it would jump from run to
run.

Inputs come from a finite catalogue per stratum, ``CATALOGUE_SIZE``
instances each, so that every op's key scalars can be compared with a
reference computed once and kept in ``reference.json``.  The run seed
picks and orders catalogue entries; the library and CLI receive only the
generated inputs.  ``verify-sweep`` needs no catalogue: its checks hold
for every seed, so each op gets a fresh seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CATALOGUE_SIZE = 8
KEY_TOL = 1e-9          # key scalars must match the reference within KEY_TOL (1 + |ref|)
CROSS_CHECK_TOL = 1e-9  # corner table against the independent einsum

# round-multicorner: delta is about DELTA_PER_ETA_SQ * eta^2 for these
# instances (measured), so eta is set from a log-uniform target delta
MULTICORNER_DIM = 48
DELTA_PER_ETA_SQ = 0.17
LOG10_DELTA_RANGE = (-8.0, -5.0)

VERIFY_SUITES = (
    ("connes", 1000),
    ("measure", 500),
    ("commutator", 500),
    ("duality", 200),
    ("rounding", 60),
)


def cycle_edges(n: int) -> list[tuple[str, str]]:
    return [(f"v{i}", f"v{(i + 1) % n}") for i in range(n)]


K4_EDGES = [(f"v{i}", f"v{j}") for i in range(4) for j in range(i + 1, 4)]


def proper_colourings(n_cycle: int, n_colours: int = 3) -> list[tuple[int, ...]]:
    return [
        c
        for c in itertools.product(range(n_colours), repeat=n_cycle)
        if all(c[i] != c[(i + 1) % n_cycle] for i in range(n_cycle))
    ]


def run_cli(sr, argv: list[str]) -> tuple[int, str]:
    """One in-process ``syncround`` invocation; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = sr.cli.main(argv)
    return code, out.getvalue()


def compare_keys(got: dict, ref: dict, tol: float = KEY_TOL) -> list[str]:
    errors = []
    for key, want in ref.items():
        have = got[key]
        if abs(have - want) > tol * (1.0 + abs(want)):
            errors.append(f"{key} = {have!r}, reference {want!r}")
    return errors


@dataclass
class Op:
    """One unit a user waits for: its stratum, catalogue index and input."""

    stratum: str
    index: int
    data: object


class Workload:
    """Base: cycle of strata, seeded schedule, op, summary and checks."""

    name = ""
    # the strata of one cycle, in order; a stratum may appear twice
    cycle: tuple[str, ...] = ()
    # cycles generated in set-up; longer runs revisit them in order
    prepared_cycles = 3
    # the calibration kernel of the timed loop (``calibrate.py``)
    calibration = "mixed"

    @property
    def strata(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.cycle))

    def __init__(self, sr, workdir: Path):
        self.sr = sr
        self.workdir = workdir

    def make_input(self, stratum: str, index: int):
        raise NotImplementedError

    def schedule(self, seed: int) -> list[list[Op]]:
        """Cycles of ops for a run seed, walking a seeded catalogue
        permutation per stratum."""
        rng = np.random.default_rng([7, seed])
        picks = {s: iter(np.tile(rng.permutation(CATALOGUE_SIZE), 8)) for s in self.strata}
        cycles = []
        for _ in range(self.prepared_cycles):
            cycle = []
            for s in self.cycle:
                index = int(next(picks[s]))
                cycle.append(Op(s, index, self.make_input(s, index)))
            cycles.append(cycle)
        return cycles

    def warmup(self) -> None:
        raise NotImplementedError

    def run(self, op: Op):
        """The op itself: the only code inside the latency timer."""
        raise NotImplementedError

    def summarize(self, op: Op, out) -> dict:
        """What the checks need from one op's output, so outputs are not kept."""
        raise NotImplementedError

    def check(self, op: Op, summary: dict, reference: dict) -> list[str]:
        """Failure descriptions for one op; empty when it passed."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# round-multicorner


def multicorner_instance(sr, n_cycle: int, levels: int, index: int,
                         dim: int = MULTICORNER_DIM):
    """Seeded near-synchronous strategy for 3-colouring C_n with ``levels`` corners.

    The state is xi = sqrt(rho) with ``levels`` distinct eigenvalues of
    equal multiplicity; the A-side PVMs are block-diagonal in rho's
    eigenbasis (each eigenvector carries a proper colouring); the B side
    is their conjugate, then perturbed so that delta lands in
    10^LOG10_DELTA_RANGE.
    """
    rng = np.random.default_rng([11, n_cycle, levels, dim, index])
    game = sr.graph_coloring_game(cycle_edges(n_cycle), 3, "1/2")
    block = dim // levels
    if block * levels != dim:
        raise ValueError(f"{levels} levels do not divide dimension {dim}")
    spectrum = np.repeat(np.sort(rng.uniform(0.2, 1.0, levels))[::-1], block)
    spectrum /= spectrum.sum()
    u = sr.sampling.random_unitary(rng, dim)
    colourings = proper_colourings(n_cycle)
    pvms = {q: [np.zeros((dim, dim), complex) for _ in range(3)] for q in game.questions}
    for k in range(levels):
        rotation = sr.sampling.random_unitary(rng, block)
        for j in range(block):
            v = u[:, k * block:(k + 1) * block] @ rotation[:, j]
            colouring = colourings[int(rng.integers(len(colourings)))]
            for qi, q in enumerate(game.questions):
                pvms[q][colouring[qi]] += np.outer(v, v.conj())
    pvms_a = {q: [(p + p.conj().T) / 2 for p in fam] for q, fam in pvms.items()}
    pvms_b = {q: [p.conj() for p in fam] for q, fam in pvms_a.items()}
    xi = (u * np.sqrt(spectrum)) @ u.conj().T
    exact = sr.CommutingStrategy(dim, dim, xi, pvms_a, pvms_b)
    target = 10 ** rng.uniform(*LOG10_DELTA_RANGE)
    eta = float(np.sqrt(target / DELTA_PER_ETA_SQ))
    return game, sr.perturb_b_side(exact, eta, int(rng.integers(2**31)))


def einsum_corner_table(game, strategy) -> np.ndarray:
    """Corner table as one Schur-kernel contraction in rho's eigenbasis.

    T[x, y, a, b] = sum_ij P[x, a, i, j] K[i, j] P[y, b, j, i] with
    P = U* p U and K = min(l_i, l_j): the corner gaps of the corners that
    contain both i and j telescope to the smaller eigenvalue.  Built from
    numpy alone, independently of ``syncround.rounding``.
    """
    m = strategy.state
    rho = m @ m.conj().T
    lam, u = np.linalg.eigh((rho + rho.conj().T) / 2)
    lam = np.clip(lam, 0.0, None)
    kernel = np.minimum.outer(lam, lam)
    p = np.array(
        [[u.conj().T @ op @ u for op in strategy.pvms_a[q]] for q in game.questions]
    )
    return np.einsum("xaij,ij,ybji->xyab", p, kernel, p, optimize=True).real


class RoundMulticorner(Workload):
    name = "round-multicorner"
    # C5-L24 and C7-L8 twice: three ops of a cycle cost less than C5-L24 and
    # three more, so the median falls in the middle of C5-L24's latencies
    cycle = ("C5-L8", "C7-L8", "C5-L24", "C7-L24", "C5-L48", "C7-L48", "C5-L24", "C7-L8")

    def make_input(self, stratum: str, index: int):
        n_cycle, levels = (int(part[1:]) for part in stratum.split("-"))
        return multicorner_instance(self.sr, n_cycle, levels, index)

    def warmup(self) -> None:
        game, strategy = multicorner_instance(self.sr, 5, 4, 0, dim=12)
        self.sr.round_strategy(game, strategy)
        self.sr.verify_dual_distance(game, strategy)

    def run(self, op: Op):
        game, strategy = op.data
        result = self.sr.round_strategy(game, strategy)
        dual = self.sr.verify_dual_distance(game, strategy)
        return result, dual

    def summarize(self, op: Op, out) -> dict:
        result, dual = out
        cert = result.certificate
        return {
            "holds": cert.holds,
            "holds_dual": dual.holds,
            "keys": {
                "delta": cert.delta,
                "d1_total": cert.d1_total,
                "value_out": cert.value_out,
                "corners": len(result.tracial.blocks),
            },
        }

    def check(self, op: Op, summary: dict, reference: dict) -> list[str]:
        errors = []
        if not summary["holds"]:
            errors.append("rounding certificate does not hold")
        if not summary["holds_dual"]:
            errors.append("dual-distance inequalities do not hold")
        ref = reference[self.name][op.stratum][op.index]
        return errors + compare_keys(summary["keys"], ref)

    def cross_check(self, op: Op) -> float:
        """Largest deviation of ``corner_correlation`` from the einsum table."""
        game, strategy = op.data
        rho = self.sr.reduced_density(strategy)
        decomp = self.sr.corner_decomposition(rho)
        table = self.sr.corner_correlation(strategy.pvms_a, decomp, game.questions)
        return float(np.abs(table.data - einsum_corner_table(game, strategy)).max())


# ---------------------------------------------------------------------------
# verify-sweep


class VerifySweep(Workload):
    name = "verify-sweep"
    # each suite once, cheapest to dearest: duality, commutator, rounding,
    # measure and connes, so the median falls in the middle of rounding's
    # latencies (or of rounding's and commutator's, where they overlap)
    cycle = ("connes", "measure", "commutator", "duality", "rounding")
    prepared_cycles = 4
    calibration = "small"

    def schedule(self, seed: int) -> list[list[Op]]:
        rng = np.random.default_rng([17, seed])
        sizes = dict(VERIFY_SUITES)
        return [
            [
                Op(suite, c, ["verify", "--suite", suite, "--n", str(sizes[suite]),
                              "--dims", "8", "--seed", str(int(rng.integers(2**31)))])
                for suite in self.cycle
            ]
            for c in range(self.prepared_cycles)
        ]

    def warmup(self) -> None:
        for suite, _ in VERIFY_SUITES:
            run_cli(self.sr, ["verify", "--suite", suite, "--n", "2", "--seed", "0"])

    def run(self, op: Op):
        return run_cli(self.sr, op.data)

    def summarize(self, op: Op, out) -> dict:
        code, stdout = out
        report = json.loads(stdout) if code == 0 else {"summary": {}, "instances": []}
        return {
            "code": code,
            "violations": report["summary"].get("violations"),
            "n": report["summary"].get("n"),
            "instances": len(report["instances"]),
        }

    def check(self, op: Op, summary: dict, reference: dict) -> list[str]:
        if summary["code"] != 0:
            return [f"exit code {summary['code']}"]
        errors = []
        if summary["violations"] != []:
            errors.append(f"violations {summary['violations']}")
        n = reference[self.name][op.stratum]
        if summary["n"] != n or summary["instances"] != n:
            errors.append(
                f"instance counts {summary['n']}, {summary['instances']}; expected {n}"
            )
        return errors


# ---------------------------------------------------------------------------
# fiber-large


def fiber_instance(sr, dim: int, index: int):
    """Seeded PSD pair, the unit-normalized x and a 4-outcome PVM."""
    rng = np.random.default_rng([13, dim, index])
    x = sr.sampling.random_psd(rng, dim)
    y = sr.sampling.random_psd(rng, dim)
    x_unit = x / np.sqrt(float(np.trace(x @ x).real))
    return x, y, x_unit, sr.sampling.random_pvm(rng, dim, 4)


class FiberLarge(Workload):
    name = "fiber-large"
    # d=80 between the two sizes of interest, twice a cycle: the median
    # falls in the middle of its latencies, and half the ops sample it
    cycle = ("d64", "d80", "d96", "d80")
    prepared_cycles = 8

    def make_input(self, stratum: str, index: int):
        return fiber_instance(self.sr, int(stratum[1:]), index)

    def warmup(self) -> None:
        self._evaluate(fiber_instance(self.sr, 16, 0))

    def _evaluate(self, data) -> dict:
        sr = self.sr
        x, y, x_unit, pvm = data
        measure = sr.joint_spectral_measure(x, y)
        moments = sr.measure_moments(measure)
        connes = sr.connes_certificate(x, y)
        comm = sr.commutator_certificate(x_unit, pvm)
        return {
            "total_mass": measure.total_mass,
            "chi_moment": moments.chi_distance,
            "lhs": connes.lhs,
            "mid": connes.mid,
            "rhs": connes.rhs,
            "connes_holds": connes.holds,
            "sum_comm_q": comm.sum_comm_q,
            "commutator_holds": comm.holds,
            "duality_p2": sr.lp_duality_check(x, y, 2.0),
            "duality_p3": sr.lp_duality_check(x, y, 3.0),
            "threshold_integral": sr.threshold_integral(x, 2.0),
        }

    def run(self, op: Op):
        return self._evaluate(op.data)

    def summarize(self, op: Op, out) -> dict:
        keys = ("lhs", "mid", "rhs", "total_mass", "sum_comm_q", "threshold_integral")
        return {**out, "keys": {k: out[k] for k in keys}}

    def check(self, op: Op, summary: dict, reference: dict) -> list[str]:
        x, y = op.data[0], op.data[1]
        errors = [
            f"{k} is false" for k in ("connes_holds", "commutator_holds") if not summary[k]
        ]
        scale = 1.0 + abs(float(np.trace(x @ y).real))
        for p in ("duality_p2", "duality_p3"):
            if summary[p] > KEY_TOL * scale:
                errors.append(f"{p} residual {summary[p]:.3e}")
        ref = reference[self.name][op.stratum][op.index]
        return errors + compare_keys(summary["keys"], ref)


# ---------------------------------------------------------------------------
# optimize-round


GAMES = {"C5": cycle_edges(5), "C7": cycle_edges(7), "K4": K4_EDGES}


class OptimizeRound(Workload):
    name = "optimize-round"
    cycle = tuple(GAMES)
    prepared_cycles = 8

    def __init__(self, sr, workdir: Path):
        super().__init__(sr, workdir)
        self.games = {g: sr.graph_coloring_game(e, 3, "1/2") for g, e in GAMES.items()}

    def make_input(self, stratum: str, index: int):
        return self.games[stratum], 100 * self.strata.index(stratum) + index

    def warmup(self) -> None:
        self._pipeline(self.games["C5"], 0, dims=3, iters=1)

    def _pipeline(self, game, seed: int, dims: int = 12, iters: int = 5):
        game_path = self.workdir / "game.json"
        strategy_path = self.workdir / "strategy.json"
        tracial_path = self.workdir / "tracial.json"
        game_path.write_text(self.sr.save_game(game), encoding="utf-8")
        inspect = run_cli(self.sr, ["inspect", "--game", str(game_path)])
        optimize = run_cli(self.sr, [
            "optimize", "--game", str(game_path), "--dims", str(dims),
            "--iters", str(iters), "--seed", str(seed), "--out", str(strategy_path),
        ])
        rounded = run_cli(self.sr, [
            "round", "--game", str(game_path), "--strategy", str(strategy_path),
            "--out", str(tracial_path),
        ])
        tracial = self.sr.load_tracial_strategy(tracial_path.read_text(encoding="utf-8"))
        return inspect, optimize, rounded, tracial

    def run(self, op: Op):
        game, seed = op.data
        return self._pipeline(game, seed)

    def summarize(self, op: Op, out) -> dict:
        inspect, optimize, rounded, tracial = out
        codes = [inspect[0], optimize[0], rounded[0]]
        if codes != [0, 0, 0]:
            return {"codes": codes}
        return {
            "codes": codes,
            "n_questions": json.loads(inspect[1])["n_questions"],
            # not a key scalar: the see-saw state can be a top eigenvector of
            # a degenerate payoff, and rounding error then sets rho's clusters
            "corners": len(tracial.blocks),
            "keys": {
                "final_value": json.loads(optimize[1])["final_value"],
                "value_out": json.loads(rounded[1])["certificate"]["value_out"],
            },
        }

    def check(self, op: Op, summary: dict, reference: dict) -> list[str]:
        if summary["codes"] != [0, 0, 0]:
            return [f"exit codes {summary['codes']} for inspect, optimize, round"]
        game = op.data[0]
        errors = []
        if summary["n_questions"] != game.n_questions:
            errors.append(f"inspect reports {summary['n_questions']} questions")
        ref = reference[self.name][op.stratum][op.index]
        return errors + compare_keys(summary["keys"], ref)


WORKLOADS = {w.name: w for w in (RoundMulticorner, VerifySweep, FiberLarge, OptimizeRound)}
