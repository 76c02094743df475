"""Commuting and tracial strategies on finite-dimensional spaces.

A commuting strategy lives on a tensor product C^dA x C^dB: the two
players' PVMs act as p x 1 and 1 x q, so commutation is structural, and
the shared unit state is stored as its dA x dB coefficient matrix M.
The resulting correlation is

    P_{x,y}(a, b) = <(p^x_a x q^y_b) xi, xi> = Tr(p^x_a M (q^y_b)^T M+).

A tracial strategy is a weighted direct sum of matrix blocks carrying
one PVM family per question; its correlation tau(r^x_a r^y_b) uses the
weighted normalized traces and is synchronous by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .games import CorrelationTable, SynchronousGame
from .sampling import random_pvm, random_state
from .spectral import (
    PSD_CLAMP,
    SpectralDecomposition,
    eigh,
    functional_calculus,
    require_povm,
    require_pvm,
    trace_pairing,
)

__all__ = [
    "STATE_TOL",
    "CommutingStrategy",
    "TracialBlock",
    "TracialStrategy",
    "DensityOperator",
    "SeesawResult",
    "correlation_of_commuting",
    "reduced_density",
    "standard_form_dual",
    "synchronicity_deficit",
    "tracial_correlation",
    "seesaw_optimize",
    "perturb_b_side",
    "maximally_entangled_state",
    "conjugate_synchronous_strategy",
    "cyclic_coloring_strategy",
    "dump_commuting_strategy",
    "load_commuting_strategy",
    "dump_tracial_strategy",
    "load_tracial_strategy",
]

STATE_TOL = 1e-10
IMAG_TOL = 1e-8
WEIGHT_TOL = 1e-10
SYNC_TOL = 1e-8


def _pvm_dict(pvms, dim: int, side: str) -> dict[str, list[np.ndarray]]:
    """The families of ``pvms`` as lists of complex arrays, checked as one
    (X, A, dim, dim) stack whose errors name the question."""
    if not pvms:
        raise ValueError(f"{side} has no question PVMs")
    # keep the caller's arrays: storing the checked stack instead would pin
    # a second copy of every family the caller still holds
    out = {str(q): [np.asarray(p, dtype=complex) for p in f] for q, f in pvms.items()}
    names = [f"{side} PVM for question {q!r}" for q in out]
    n_answers = len(next(iter(out.values())))
    for name, ops in zip(names, out.values()):
        if not ops:
            raise ValueError(f"{name} must have at least one outcome")
        if len(ops) != n_answers:
            raise ValueError(f"{name} has {len(ops)} outcomes, expected {n_answers}")
        for k, op in enumerate(ops):
            if op.shape != (dim, dim):
                raise ValueError(
                    f"{name} element {k} has shape {op.shape}, expected {(dim, dim)}"
                )
    require_pvm(_stack(out, out), dim, names)
    return out


@dataclass(eq=False)
class CommutingStrategy:
    """Tensor-split commuting strategy with a shared pure state."""

    dim_a: int
    dim_b: int
    state: np.ndarray
    pvms_a: dict[str, list[np.ndarray]]
    pvms_b: dict[str, list[np.ndarray]]

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("dimensions must be positive")
        self.state = np.asarray(self.state, dtype=np.complex128)
        if self.state.shape != (self.dim_a, self.dim_b):
            raise ValueError(
                f"state must have shape {(self.dim_a, self.dim_b)},"
                f" got {self.state.shape}"
            )
        norm = float(np.linalg.norm(self.state))
        if abs(norm - 1.0) > STATE_TOL:
            raise ValueError(f"state is not a unit vector: norm {norm!r}")
        self.pvms_a = _pvm_dict(self.pvms_a, self.dim_a, "A side")
        self.pvms_b = _pvm_dict(self.pvms_b, self.dim_b, "B side")
        if set(self.pvms_a) != set(self.pvms_b):
            raise ValueError("A and B sides must share the same question set")
        na = len(next(iter(self.pvms_a.values())))
        nb = len(next(iter(self.pvms_b.values())))
        if na != nb:
            raise ValueError("A and B sides must share the answer count")

    @property
    def questions(self) -> tuple[str, ...]:
        return tuple(self.pvms_a)

    @property
    def n_answers(self) -> int:
        return len(next(iter(self.pvms_a.values())))


@dataclass(eq=False)
class TracialBlock:
    weight: float
    dim: int
    pvms: dict[str, list[np.ndarray]]

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError(f"block weight must be positive, got {self.weight!r}")
        if self.dim < 1:
            raise ValueError("block dimension must be positive")
        self.pvms = _pvm_dict(self.pvms, self.dim, f"block(dim={self.dim})")


@dataclass(eq=False)
class TracialStrategy:
    """Weighted direct sum of matrix blocks with per-question PVMs."""

    blocks: list[TracialBlock]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("tracial strategy needs at least one block")
        total = sum(b.weight for b in self.blocks)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"block weights must sum to 1, got {total!r}")
        questions = self.blocks[0].pvms.keys()
        n_answers = len(next(iter(self.blocks[0].pvms.values())))
        for b in self.blocks[1:]:
            if b.pvms.keys() != questions:
                raise ValueError("all blocks must share the same question set")
            if len(next(iter(b.pvms.values()))) != n_answers:
                raise ValueError("all blocks must share the answer count")
        # a synchronous strategy puts no mass on tau(r^x_a r^x_b), a != b
        cross = _tracial_table(self.blocks, questions, same_question=True)
        off_diagonal = ~np.eye(n_answers, dtype=bool)
        worst = float(np.abs(cross[:, off_diagonal]).max(initial=0.0))
        if worst > SYNC_TOL:
            raise ValueError(
                f"strategy is not synchronous: cross term {worst:.3e} exceeds"
                f" {SYNC_TOL:.0e}"
            )

    @property
    def questions(self) -> tuple[str, ...]:
        return tuple(self.blocks[0].pvms)

    @property
    def n_answers(self) -> int:
        return len(next(iter(self.blocks[0].pvms.values())))


@dataclass(eq=False)
class DensityOperator:
    """Unit-trace PSD matrix together with its spectral decomposition;
    ``sqrt`` is rho^(1/2), computed from that decomposition on first use."""

    matrix: np.ndarray
    decomposition: SpectralDecomposition

    def __post_init__(self):
        tr = float(np.trace(self.matrix).real)
        if abs(tr - 1.0) > STATE_TOL:
            raise ValueError(f"density operator must have unit trace, got {tr!r}")
        low = float(self.decomposition.eigenvalues.min())
        if low < -PSD_CLAMP:
            raise ValueError(
                f"density operator is not PSD: min eigenvalue {low:.3e}"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def sqrt(self) -> np.ndarray:
        return functional_calculus(self.decomposition)


def _question_order(strategy, questions) -> tuple[str, ...]:
    if questions is None:
        return strategy.questions
    questions = tuple(questions)
    missing = [q for q in questions if q not in strategy.questions]
    if missing:
        raise ValueError(f"strategy has no PVMs for questions {missing!r}")
    return questions


def _stack(pvms: dict[str, list[np.ndarray]], order) -> np.ndarray:
    """The families of ``order`` as one (X, A, d, d) array."""
    return np.array([pvms[q] for q in order])


def _tracial_table(
    blocks: list[TracialBlock], order, same_question: bool = False
) -> np.ndarray:
    """sum_k w_k tr_k(r^x_a r^y_b) over the blocks, shape (X, Y, A, A).

    With ``same_question`` only the x = y blocks, shape (X, A, A): each
    question is paired with itself alone, X A^2 traces instead of
    X^2 A^2.
    """
    data = 0.0
    for blk in blocks:
        stack = _stack(blk.pvms, order)
        if same_question:
            nx, na, d, _ = stack.shape
            flat = stack.reshape(nx, na, d * d)
            pair = flat @ stack.swapaxes(-1, -2).reshape(nx, na, d * d).swapaxes(-1, -2)
        else:
            pair = trace_pairing(stack, stack)
        data = data + blk.weight / blk.dim * pair.real
    return data


def _b_conditional_operators(state: np.ndarray, stack_b: np.ndarray) -> np.ndarray:
    """A-side operators h(y, b) with Tr(z h(y, b)) = <(z x q^y_b) xi, xi>
    for the stacked (Y, B, dB, dB) B-side PVMs, shape (Y, B, dA, dA)."""
    return state @ stack_b.conj() @ state.conj().T


def correlation_of_commuting(
    s: CommutingStrategy, questions=None
) -> CorrelationTable:
    """Correlation table P_{x,y}(a, b) = <(p^x_a x q^y_b) xi, xi>.

    Raises when the imaginary residue of any entry exceeds 1e-8; the
    residue is discarded after the check.
    """
    order = _question_order(s, questions)
    data = trace_pairing(
        _stack(s.pvms_a, order),
        _b_conditional_operators(s.state, _stack(s.pvms_b, order)),
    )
    residue = float(np.abs(data.imag).max())
    if residue > IMAG_TOL:
        raise ValueError(
            f"correlation entries have imaginary residue {residue:.3e}"
        )
    return CorrelationTable(order, s.n_answers, data.real)


def reduced_density(s: CommutingStrategy) -> DensityOperator:
    """Partial trace of |xi><xi| over the B side."""
    rho = s.state @ s.state.conj().T
    rho = (rho + rho.conj().T) / 2
    return DensityOperator(rho, eigh(rho, "reduced density"))


def standard_form_dual(
    s: CommutingStrategy, questions=None, decompose: bool = False
) -> dict[str, list[np.ndarray]] | SpectralDecomposition:
    """Transport the B-side PVMs to A-side POVMs through the state.

    Returns per question y a POVM (p'^y_b on the A side) satisfying

        Tr(p^x_a rho^(1/2) p'^y_b rho^(1/2)) = P_{x,y}(a, b)

    where rho is the reduced density of the state.  With xi = U S V*,
    the polar part J = U_s V_s* on the support (S^2 >= PSD_CLAMP) is the
    modular conjugation of the standard form: rho^(1/2) J = xi, so
    p'^y_b = J conj(q^y_b) J* meets the identity with no inverse.  The
    kernel of rho is completed on the first answer.  ``questions`` picks
    and orders the questions (default: the strategy's).  With
    ``decompose`` the result is the ``eigh`` of the (Y, B, d, d) stack
    that validated it as a POVM, for a caller that needs its square roots.
    """
    u, sigma, vh = np.linalg.svd(s.state, full_matrices=False)
    kept = sigma**2 >= PSD_CLAMP
    support = u[:, kept]
    polar = support @ vh[kept]
    order = _question_order(s, questions)
    stacked = polar @ _stack(s.pvms_b, order).conj() @ polar.conj().T
    stacked = (stacked + stacked.conj().swapaxes(-1, -2)) / 2
    stacked[:, 0] += np.eye(s.dim_a) - support @ support.conj().T
    dual = require_povm(stacked, s.dim_a, "dual POVM", decompose)
    if decompose:
        return dual
    return {q: list(family) for q, family in zip(order, dual)}


def synchronicity_deficit(game: SynchronousGame, s: CommutingStrategy) -> float:
    """The mu-averaged probability of unequal answers to equal questions,
    sum_x mu(x) sum_a ||p^x_a M (1 - conj q^x_a)||_F^2 (for a unit state,
    1 - sum_x mu(x) sum_a P_{x,x}(a, a)).  No term is negative, so no clamp,
    and the rounding error is about 1e-16 sqrt(delta), not 1e-16."""
    order = _question_order(s, game.questions)
    p, q = _stack(s.pvms_a, order), _stack(s.pvms_b, order)
    miss = p @ (s.state @ (np.eye(s.dim_b) - q.conj()))
    return float(game.mu @ (miss.real**2 + miss.imag**2).sum(axis=(1, 2, 3)))


def tracial_correlation(t: TracialStrategy, questions=None) -> CorrelationTable:
    """Correlation sum_k w_k tr_k(r^x_a r^y_b) of a tracial strategy."""
    order = _question_order(t, questions)
    return CorrelationTable(order, t.n_answers, _tracial_table(t.blocks, order))


# ---------------------------------------------------------------------------
# constructions


def maximally_entangled_state(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex) / np.sqrt(dim)


def conjugate_synchronous_strategy(pvms_a) -> CommutingStrategy:
    """Maximally entangled state with B-side the entrywise conjugates.

    The resulting correlation is Tr(p^x_a p^y_b) / d, hence exactly
    synchronous.
    """
    first = next(iter(pvms_a.values()))
    dim = np.asarray(first[0]).shape[0]
    pvms_b = {q: [np.asarray(p).conj() for p in fam] for q, fam in pvms_a.items()}
    return CommutingStrategy(
        dim, dim, maximally_entangled_state(dim), dict(pvms_a), pvms_b
    )


def cyclic_coloring_strategy(questions, n_colors: int) -> CommutingStrategy:
    """Deterministic proper-coloring strategy on C^k for cyclically
    adjacent questions: question i answers color (a + i) mod k with the
    basis projection e_{(a+i) mod k}."""
    basis = [np.zeros((n_colors, n_colors), dtype=complex) for _ in range(n_colors)]
    for i in range(n_colors):
        basis[i][i, i] = 1.0
    pvms = {
        q: [basis[(a + i) % n_colors] for a in range(n_colors)]
        for i, q in enumerate(questions)
    }
    return conjugate_synchronous_strategy(pvms)


def perturb_b_side(s: CommutingStrategy, eta: float, seed: int) -> CommutingStrategy:
    """Conjugate every B-side PVM by exp(i eta K), K Hermitian of unit
    spectral norm drawn from the seed.  Produces synchronicity deficits
    of order eta^2 on exactly synchronous inputs."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((s.dim_b, s.dim_b)) + 1j * rng.standard_normal(
        (s.dim_b, s.dim_b)
    )
    k = (g + g.conj().T) / 2
    k = k / float(np.abs(np.linalg.eigvalsh(k)).max())
    w, v = np.linalg.eigh(k)
    u = (v * np.exp(1j * eta * w)) @ v.conj().T
    pvms_b = {
        q: [u @ p @ u.conj().T for p in fam] for q, fam in s.pvms_b.items()
    }
    return CommutingStrategy(s.dim_a, s.dim_b, s.state.copy(), s.pvms_a, pvms_b)


# ---------------------------------------------------------------------------
# see-saw optimizer


@dataclass(eq=False)
class SeesawResult:
    strategy: CommutingStrategy
    values: list[float]


def _seesaw_value(weights, pvms_a, pvms_b, state) -> float:
    """sum W[x, y, a, b] Tr(p^x_a M (q^y_b)^T M+) for stacked PVMs."""
    table = trace_pairing(pvms_a, _b_conditional_operators(state, pvms_b))
    return float(np.sum(weights * table.real))


def _payoff_operator(weights, pvms_a, pvms_b) -> np.ndarray:
    """sum W[x, y, a, b] p^x_a (x) q^y_b as a (dA dB, dA dB) matrix: one
    product of the flattened A-side stack with the W-weighted B side."""
    da, db = pvms_a.shape[-1], pvms_b.shape[-1]
    paired = np.einsum("xyab,ybkl->xakl", weights, pvms_b)
    flat = pvms_a.reshape(-1, da * da).T @ paired.reshape(-1, db * db)
    payoff = flat.reshape(da, da, db, db).transpose(0, 2, 1, 3)
    return payoff.reshape(da * db, da * db)


def _assign_basis(basis: np.ndarray, effective: np.ndarray) -> np.ndarray:
    """Per question, the PVM assigning each column of ``basis`` (X, d, d)
    to the answer whose effective operator (X, A, d, d) pays most on it."""
    scores = np.einsum("xji,xajk,xki->xai", basis.conj(), effective, basis).real
    answers = np.arange(effective.shape[1])[:, None]
    chosen = np.argmax(scores, axis=1)[:, None, :] == answers
    columns = basis[:, None] * chosen[:, :, None, :]
    p = columns @ basis[:, None].conj().swapaxes(-1, -2)
    return (p + p.conj().swapaxes(-1, -2)) / 2


def _sweep(weights, state, theirs, mine, schmidt, mirror=None) -> np.ndarray:
    """Best PVM per question for the side ``weights`` and ``state`` put first.

    Against the other side's PVMs ``theirs`` the payoff of question x is
    sum_a Tr(p_a F_a) with F_a = M (sum_{y,b} W[x, y, a, b] q^y_b)^T M+.
    Candidates, the first maximum winning: the eigenbasis of
    sum_a (a + 1) F_a and the Schmidt basis ``schmidt``, each assigned
    column by column, the current PVMs ``mine``, then ``mirror`` if given.
    """
    paired = np.einsum("xyab,ybij->xaij", weights, theirs)
    f = state @ paired.swapaxes(-1, -2) @ state.conj().T
    effective = (f + f.conj().swapaxes(-1, -2)) / 2
    levels = np.arange(1, effective.shape[1] + 1)[:, None, None]
    basis = np.linalg.eigh((levels * effective).sum(axis=1))[1]
    candidates = [
        _assign_basis(basis, effective),
        _assign_basis(np.broadcast_to(schmidt, basis.shape), effective),
        mine,
    ]
    if mirror is not None:
        candidates.append(mirror)
    candidates = np.array(candidates)
    scores = np.einsum("cxaij,xaji->cx", candidates, effective).real
    return candidates[np.argmax(scores, axis=0), np.arange(len(basis))]


def seesaw_optimize(
    game: SynchronousGame,
    dim_a: int,
    dim_b: int,
    iterations: int,
    seed: int,
) -> SeesawResult:
    """Alternating maximization of the game value over tensor strategies.

    Each iteration updates the A-side PVMs (assigning eigenvectors of
    the effective payoff operators to their best answers, with the
    Schmidt basis of the state as an alternative candidate), then the
    B side symmetrically, then moves the state to the top eigenvector of
    the global payoff operator.  Two constructive candidates are also
    evaluated each iteration and adopted only on improvement: the
    answer-matching strategy (B = conjugated A-side PVMs on the
    maximally entangled state, equal dimensions only) and the best
    constant-answer strategy; together they solve diagonal-supported
    games exactly.  Every update is guarded, so the value trajectory is
    non-decreasing.
    """
    if dim_a < 1 or dim_b < 1:
        raise ValueError("dimensions must be positive")
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    rng = np.random.default_rng(seed)
    nq, na = game.n_questions, game.n_answers
    # W[x, y, a, b] = nu(x, y) D(x, y, a, b); the B side sees it mirrored
    weights = game.nu[:, :, None, None] * game.predicate
    mirrored = weights.transpose(1, 0, 3, 2)
    pvms_a = np.array([random_pvm(rng, dim_a, na) for _ in range(nq)])
    pvms_b = np.array([random_pvm(rng, dim_b, na) for _ in range(nq)])
    state = random_state(rng, dim_a, dim_b)
    # constant-answer candidates: both sides always answer a, any state;
    # their value is the weight on the (a, a) fiber
    fiber = np.einsum("xyaa->a", weights)
    best_const = int(np.argmax(fiber))

    values = [_seesaw_value(weights, pvms_a, pvms_b, state)]
    for _ in range(iterations):
        # one SVD: a second one could pick other bases of degenerate spectra
        u, _, vh = np.linalg.svd(state)
        pvms_a = _sweep(weights, state, pvms_b, pvms_a, u)
        mirror = pvms_a.conj() if dim_a == dim_b else None
        pvms_b = _sweep(mirrored, state.T, pvms_a, pvms_b, vh.T, mirror)
        # state update: top eigenvector of the global payoff operator
        payoff = _payoff_operator(weights, pvms_a, pvms_b)
        payoff = (payoff + payoff.conj().T) / 2
        candidate_state = np.linalg.eigh(payoff)[1][:, -1].reshape(dim_a, dim_b)
        current = _seesaw_value(weights, pvms_a, pvms_b, candidate_state)
        if current >= values[-1]:
            state = candidate_state
        else:
            current = _seesaw_value(weights, pvms_a, pvms_b, state)
        # answer-matching candidate: conjugate PVMs on the maximally
        # entangled state, exactly synchronous by construction
        if dim_a == dim_b:
            snapped_b = pvms_a.conj()
            snapped_state = maximally_entangled_state(dim_a)
            snapped = _seesaw_value(weights, pvms_a, snapped_b, snapped_state)
            if snapped > current:
                pvms_b, state, current = snapped_b, snapped_state, snapped
        if fiber[best_const] > current:
            pvms_a = np.zeros_like(pvms_a)
            pvms_b = np.zeros_like(pvms_b)
            pvms_a[:, best_const] = np.eye(dim_a)
            pvms_b[:, best_const] = np.eye(dim_b)
            current = float(fiber[best_const])
        values.append(current)
    strategy = CommutingStrategy(
        dim_a,
        dim_b,
        state,
        {q: list(pvms_a[i]) for i, q in enumerate(game.questions)},
        {q: list(pvms_b[i]) for i, q in enumerate(game.questions)},
    )
    return SeesawResult(strategy, values)


# ---------------------------------------------------------------------------
# file formats


def _matrix_to_pairs(m: np.ndarray):
    m = np.asarray(m)
    return np.stack([m.real, m.imag], -1).tolist()


def _pairs_to_matrix(rows, what: str) -> np.ndarray:
    try:
        pairs = np.array(rows)
    except ValueError as exc:  # ragged rows
        raise ValueError(f"malformed complex matrix in {what}: {exc}") from exc
    if pairs.dtype.kind not in "biuf" or pairs.ndim != 3 or pairs.shape[-1] != 2:
        raise ValueError(
            f"malformed complex matrix in {what}: expected rows of [re, im]"
            f" number pairs, got {pairs.dtype} entries of shape {pairs.shape}"
        )
    return pairs[..., 0] + 1j * pairs[..., 1]


def dump_commuting_strategy(s: CommutingStrategy) -> str:
    doc = {
        "dimA": s.dim_a,
        "dimB": s.dim_b,
        "xi": _matrix_to_pairs(s.state),
        "pvmsA": {q: [_matrix_to_pairs(p) for p in fam] for q, fam in s.pvms_a.items()},
        "pvmsB": {q: [_matrix_to_pairs(p) for p in fam] for q, fam in s.pvms_b.items()},
    }
    return json.dumps(doc)


def load_commuting_strategy(text: str) -> CommutingStrategy:
    try:
        doc = json.loads(text)
        dim_a, dim_b = int(doc["dimA"]), int(doc["dimB"])
        state = _pairs_to_matrix(doc["xi"], "xi")
        pvms_a = {
            str(q): [_pairs_to_matrix(p, f"pvmsA[{q!r}]") for p in fam]
            for q, fam in doc["pvmsA"].items()
        }
        pvms_b = {
            str(q): [_pairs_to_matrix(p, f"pvmsB[{q!r}]") for p in fam]
            for q, fam in doc["pvmsB"].items()
        }
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed strategy document: {exc}") from exc
    return CommutingStrategy(dim_a, dim_b, state, pvms_a, pvms_b)


def dump_tracial_strategy(t: TracialStrategy) -> str:
    doc = {
        "blocks": [
            {
                "w": blk.weight,
                "dim": blk.dim,
                "pvms": {
                    q: [_matrix_to_pairs(p) for p in fam]
                    for q, fam in blk.pvms.items()
                },
            }
            for blk in t.blocks
        ]
    }
    return json.dumps(doc)


def load_tracial_strategy(text: str) -> TracialStrategy:
    try:
        doc = json.loads(text)
        blocks = [
            TracialBlock(
                float(raw["w"]),
                int(raw["dim"]),
                {
                    str(q): [_pairs_to_matrix(p, f"block pvms[{q!r}]") for p in fam]
                    for q, fam in raw["pvms"].items()
                },
            )
            for raw in doc["blocks"]
        ]
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed tracial strategy document: {exc}") from exc
    return TracialStrategy(blocks)
