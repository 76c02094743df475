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
import weakref
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .games import CorrelationTable, SynchronousGame
from .sampling import random_pvm, random_state, rng_for
from .spectral import (
    PSD_CLAMP,
    TABLE_TOL,
    UNIT_TOL,
    SpectralDecomposition,
    _hermitian_part,
    _require_psd,
    _require_shapes,
    eigh,
    functional_calculus,
    require_povm,
    require_pvm,
    trace_pairing,
)

__all__ = [
    "PVMStack",
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
    "perturb_b_sides",
    "maximally_entangled_state",
    "conjugate_synchronous_strategy",
    "cyclic_coloring_strategy",
    "dump_commuting_strategy",
    "load_commuting_strategy",
    "dump_tracial_strategy",
    "load_tracial_strategy",
]


class PVMStack(Mapping):
    """PVM families, one per question, held as one read-only (X, A, d, d)
    stack; as a mapping, question -> the (A, d, d) view of its family.

    The stack is checked once, by one ``require_pvm`` call whose errors
    name the question, and is held as given, not copied: the caller hands
    it over and must not write to it afterwards.
    """

    def __init__(self, questions, stack: np.ndarray, side: str = "PVMs"):
        self.questions = tuple(str(q) for q in questions)
        stack = np.asarray(stack, dtype=np.complex128)
        if stack.ndim != 4 or len(stack) != len(self.questions):
            raise ValueError(f"{side} stack of shape {stack.shape} for {self.questions!r}")
        require_pvm(stack, stack.shape[-1], [f"{side} PVM for question {q!r}" for q in self])
        self.stack = stack.view()
        self.stack.flags.writeable = False
        self.n_answers, self.dim = stack.shape[1], stack.shape[-1]
        self._index = {q: i for i, q in enumerate(self.questions)}

    def __reduce__(self):  # unpickled through the constructor: checked and read-only again
        return PVMStack, (self.questions, self.stack)

    def __getitem__(self, question) -> np.ndarray:
        return self.stack[self._index[question]]

    def __iter__(self):
        return iter(self.questions)

    def __len__(self) -> int:
        return len(self.questions)

    def in_order(self, questions=None) -> np.ndarray:
        """The families of ``questions`` (default: all) as one stack: a view
        of the held stack when the order is its own, else a reordered copy."""
        order = self.questions if questions is None else tuple(questions)
        if order == self.questions:
            return self.stack
        return self.stack[self.positions(order)]

    def positions(self, questions) -> list[int]:
        """The index of each of ``questions`` in the held order."""
        missing = [q for q in questions if q not in self._index]
        if missing:
            raise ValueError(f"strategy has no PVMs for questions {missing!r}")
        return [self._index[q] for q in questions]


def _pvm_stack(pvms, dim: int | None = None, side: str = "PVMs") -> PVMStack:
    """``pvms`` as a checked ``PVMStack`` of dimension ``dim`` (default:
    that of its first element).  A ``PVMStack`` was checked when it was
    built and is read-only, so it is taken as it is; any other mapping of
    question -> family is stacked into a new array."""
    if isinstance(pvms, PVMStack) and dim in (None, pvms.dim):
        return pvms
    if not pvms:
        raise ValueError(f"{side} has no question PVMs")
    families = [list(f) for f in pvms.values()]
    if dim is None:
        dim = np.shape(families[0][0])[-1] if families[0] else 0
    names = [f"{side} PVM for question {q!r}" for q in pvms]
    n_answers = len(families[0])
    for name, ops in zip(names, families):
        if not ops:
            raise ValueError(f"{name} must have at least one outcome")
        if len(ops) != n_answers:
            raise ValueError(f"{name} has {len(ops)} outcomes, expected {n_answers}")
        _require_shapes(ops, dim, name)
    return PVMStack(pvms.keys(), np.array(families, dtype=np.complex128), side)


@dataclass(frozen=True, eq=False)
class CommutingStrategy:
    """Tensor-split commuting strategy with a shared pure state.

    Immutable: the state and both ``PVMStack`` sides are read-only, so
    strategies can share them.  The constructor also takes each side as
    a plain mapping of question -> family and stacks it.
    """

    dim_a: int
    dim_b: int
    state: np.ndarray
    pvms_a: PVMStack
    pvms_b: PVMStack

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("dimensions must be positive")
        state = np.asarray(self.state, dtype=np.complex128)
        if state.flags.writeable:  # a read-only state, such as a strategy's, is shared
            state = state.copy()
            state.flags.writeable = False
        if state.shape != (self.dim_a, self.dim_b):
            raise ValueError(
                f"state must have shape {(self.dim_a, self.dim_b)}, got {state.shape}"
            )
        norm = float(np.linalg.norm(state))
        # norm^2 is tr rho, which DensityOperator holds to the same tolerance
        if not abs(norm**2 - 1.0) <= UNIT_TOL:  # NaN fails too
            raise ValueError(f"state is not a unit vector: norm {norm!r}")
        pvms_a = _pvm_stack(self.pvms_a, self.dim_a, "A side")
        pvms_b = _pvm_stack(self.pvms_b, self.dim_b, "B side")
        if set(pvms_a) != set(pvms_b):
            raise ValueError("A and B sides must share the same question set")
        if pvms_a.n_answers != pvms_b.n_answers:
            raise ValueError("A and B sides must share the answer count")
        for name, value in (("state", state), ("pvms_a", pvms_a), ("pvms_b", pvms_b)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_rho", lambda: None)  # no rho held yet

    def __reduce__(self):  # unpickled through the constructor, with no rho held
        return CommutingStrategy, (self.dim_a, self.dim_b, self.state, self.pvms_a, self.pvms_b)

    @property
    def questions(self) -> tuple[str, ...]:
        return self.pvms_a.questions

    @property
    def n_answers(self) -> int:
        return self.pvms_a.n_answers

    @property
    def rho(self) -> DensityOperator:
        """The reduced density, computed by ``reduced_density`` and held
        weakly: every use on this strategy reads the one object while
        something else holds it, as the ``CornerRounding`` of a rounding
        result does, so ``round_strategy`` then ``verify_dual_distance``
        compute it once.  Two threads may both compute a missing rho;
        either is the same numbers."""
        rho = self._rho()
        if rho is None:
            rho = reduced_density(self)
            object.__setattr__(self, "_rho", weakref.ref(rho))
        return rho


@dataclass(frozen=True, eq=False)
class TracialBlock:
    weight: float
    dim: int
    pvms: PVMStack

    def __post_init__(self):
        if not self.weight > 0:  # NaN fails too
            raise ValueError(f"block weight must be positive, got {self.weight!r}")
        if self.dim < 1:
            raise ValueError("block dimension must be positive")
        pvms = _pvm_stack(self.pvms, self.dim, f"block(dim={self.dim})")
        object.__setattr__(self, "pvms", pvms)


@dataclass(frozen=True, eq=False)
class TracialStrategy:
    """Weighted direct sum of matrix blocks with per-question PVMs.

    Immutable, with its blocks held as a tuple.  ``table`` is the
    correlation sum_k w_k tr_k(r^x_a r^y_b), (X, X, A, A) in ``questions``
    order, built once, one ``trace_pairing`` per block: the synchronicity
    check reads its x = y blocks and ``tracial_correlation`` returns it.

    The blocks passed ``require_pvm``, so with tau = tr / d both terms of
    sum_{b != a} tau(r_a r_b) = tau(r_a - r_a^2) + tau(r_a (sum_b r_b - 1))
    are at most about FAMILY_TOL / sqrt(d), and TABLE_TOL is FAMILY_TOL:
    the check is reached only at the edge of the PVM tolerance, as by a
    1 x 1 block with r_1 = FAMILY_TOL + FAMILY_TOL^2, whose cross term is
    FAMILY_TOL^2 above it.  It stays for tracial files, outside input.
    """

    blocks: tuple[TracialBlock, ...]
    table: CorrelationTable = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ValueError("tracial strategy needs at least one block")
        total = sum(b.weight for b in self.blocks)
        if not abs(total - 1.0) <= UNIT_TOL:  # NaN fails too
            raise ValueError(f"block weights must sum to 1, got {total!r}")
        questions = set(self.questions)
        for b in self.blocks[1:]:
            if set(b.pvms) != questions:
                raise ValueError("all blocks must share the same question set")
            if b.pvms.n_answers != self.n_answers:
                raise ValueError("all blocks must share the answer count")
        data = 0.0
        for b in self.blocks:
            stack = b.pvms.in_order(self.questions)
            data = data + b.weight / b.dim * trace_pairing(stack, stack).real
        # a synchronous strategy puts no mass on tau(r^x_a r^x_b), a != b
        off_diagonal = ~np.eye(self.n_answers, dtype=bool)
        cross = np.einsum("xxab->xab", data)[:, off_diagonal]
        worst = float(np.abs(cross).max(initial=0.0))
        if worst > TABLE_TOL:
            raise ValueError(
                f"strategy is not synchronous: cross term {worst:.3e} exceeds"
                f" {TABLE_TOL:.0e}"
            )
        data.flags.writeable = False
        object.__setattr__(self, "table", CorrelationTable(self.questions, self.n_answers, data))

    @property
    def questions(self) -> tuple[str, ...]:
        return self.blocks[0].pvms.questions

    @property
    def n_answers(self) -> int:
        return self.blocks[0].pvms.n_answers


@dataclass(eq=False)
class DensityOperator:
    """Unit-trace PSD matrix together with its spectral decomposition;
    ``sqrt`` is rho^(1/2), computed from that decomposition on first use."""

    matrix: np.ndarray
    decomposition: SpectralDecomposition

    def __post_init__(self):
        tr = float(np.trace(self.matrix).real)
        if abs(tr - 1.0) > UNIT_TOL:
            raise ValueError(f"density operator must have unit trace, got {tr!r}")
        _require_psd(self.decomposition.eigenvalues.min(), "density operator")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def sqrt(self) -> np.ndarray:
        return functional_calculus(self.decomposition)


def _b_conditional_operators(state: np.ndarray, stack_b: np.ndarray) -> np.ndarray:
    """A-side operators h(y, b) with Tr(z h(y, b)) = <(z x q^y_b) xi, xi>
    for the stacked (Y, B, dB, dB) B-side PVMs, shape (Y, B, dA, dA)."""
    return state @ stack_b.conj() @ state.conj().T


def correlation_of_commuting(s: CommutingStrategy, questions=None) -> CorrelationTable:
    """Correlation table P_{x,y}(a, b) = <(p^x_a x q^y_b) xi, xi>.

    Raises when the imaginary residue of any entry exceeds TABLE_TOL; the
    residue is discarded after the check.
    """
    order = tuple(questions or s.questions)
    return _commuting_tables(s, order, s.pvms_b.in_order(order))


def _commuting_tables(s: CommutingStrategy, order, stack_b: np.ndarray) -> CorrelationTable:
    """The table of ``s`` with the B side ``stack_b`` (Y, B, d, d) in
    ``order``, or a stack of tables for a stack (..., Y, B, d, d) of B sides."""
    data = trace_pairing(s.pvms_a.in_order(order), _b_conditional_operators(s.state, stack_b))
    residue = float(np.abs(data.imag).max())
    if residue > TABLE_TOL:
        raise ValueError(
            f"correlation entries have imaginary residue {residue:.3e}"
        )
    return CorrelationTable(order, s.n_answers, data.real)


def reduced_density(s: CommutingStrategy) -> DensityOperator:
    """Partial trace of |xi><xi| over the B side."""
    rho = _hermitian_part(s.state @ s.state.conj().T)
    return DensityOperator(rho, eigh(rho, "reduced density"))


def standard_form_dual(
    s: CommutingStrategy, questions=None, decompose: bool = False
) -> dict[str, np.ndarray] | SpectralDecomposition:
    """Transport the B-side PVMs to A-side POVMs through the state.

    Returns per question y a POVM (p'^y_b on the A side), as the
    (B, dA, dA) array of its elements, satisfying

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
    order = tuple(questions or s.questions)
    dual = _dual_povms(s, s.pvms_b.in_order(order), "dual POVM", decompose)
    if decompose:
        return dual
    return dict(zip(order, dual))


def _dual_povms(s: CommutingStrategy, stack_b: np.ndarray, what, decompose: bool):
    """``standard_form_dual`` for the B side ``stack_b``, or for each B side
    of a stack (..., Y, B, d, d): one SVD of the state, one ``require_povm``
    naming its errors by ``what`` (a list: one label per B side)."""
    u, sigma, vh = np.linalg.svd(s.state, full_matrices=False)
    kept = sigma**2 >= PSD_CLAMP
    support = u[:, kept]
    polar = support @ vh[kept]
    stacked = _hermitian_part(polar @ stack_b.conj() @ polar.conj().T)
    stacked[..., 0, :, :] += np.eye(s.dim_a) - support @ support.conj().T
    return require_povm(stacked, s.dim_a, what, decompose)


def synchronicity_deficit(game: SynchronousGame, s: CommutingStrategy) -> float:
    """The mu-averaged probability of unequal answers to equal questions,
    sum_x mu(x) sum_a ||p^x_a M (1 - conj q^x_a)||_F^2 (for a unit state,
    1 - sum_x mu(x) sum_a P_{x,x}(a, a)).  No term is negative, so no clamp,
    and the rounding error is about 1e-16 sqrt(delta), not 1e-16."""
    return float(_deficits(game, s, s.pvms_b.in_order(game.questions)))


def _deficits(game: SynchronousGame, s: CommutingStrategy, stack_b: np.ndarray):
    """``synchronicity_deficit`` with the B side ``stack_b`` in the game's
    order, or one per B side of a stack (..., X, A, d, d).  numpy takes
    each (1, X) @ (X, 1) product as a dot product, as for one B side.
    Every rounding entry point computes it first: it rejects a strategy
    without the game's answer count before any eigensolve."""
    if s.n_answers != game.n_answers:
        raise ValueError(f"strategy has {s.n_answers} answers, game has {game.n_answers}")
    p = s.pvms_a.in_order(game.questions)
    miss = p @ (s.state @ (np.eye(s.dim_b) - stack_b.conj()))
    sums = (miss.real**2 + miss.imag**2).sum(axis=(-3, -2, -1))
    return (sums[..., None, :] @ game.mu[:, None])[..., 0, 0]


def tracial_correlation(t: TracialStrategy, questions=None) -> CorrelationTable:
    """Correlation sum_k w_k tr_k(r^x_a r^y_b) of a tracial strategy: its
    ``table``, reindexed when ``questions`` gives another order."""
    order = tuple(questions or t.questions)
    if order == t.questions:
        return t.table
    index = t.blocks[0].pvms.positions(order)
    return CorrelationTable(order, t.n_answers, t.table.data[np.ix_(index, index)])


# ---------------------------------------------------------------------------
# constructions


def maximally_entangled_state(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex) / np.sqrt(dim)


def conjugate_synchronous_strategy(pvms_a) -> CommutingStrategy:
    """Maximally entangled state with B-side the entrywise conjugates.

    The resulting correlation is Tr(p^x_a p^y_b) / d, hence exactly
    synchronous.
    """
    a = _pvm_stack(pvms_a, side="A side")
    b = PVMStack(a.questions, a.stack.conj(), "B side")
    return CommutingStrategy(a.dim, a.dim, maximally_entangled_state(a.dim), a, b)


def cyclic_coloring_strategy(questions, n_colors: int) -> CommutingStrategy:
    """Deterministic proper-coloring strategy on C^k for cyclically
    adjacent questions: question i answers color (a + i) mod k with the
    basis projection e_{(a+i) mod k}."""
    basis = np.einsum("ij,ik->ijk", np.eye(n_colors), np.eye(n_colors))
    colors = (np.arange(n_colors) + np.arange(len(questions))[:, None]) % n_colors
    return conjugate_synchronous_strategy(PVMStack(questions, basis[colors], "A side"))


def perturb_b_side(s: CommutingStrategy, eta: float, seed: int) -> CommutingStrategy:
    """Conjugate every B-side PVM by exp(i eta K), K Hermitian of unit
    spectral norm drawn from the seed.  Produces synchronicity deficits
    of order eta^2 on exactly synchronous inputs."""
    pvms_b = PVMStack(s.pvms_b.questions, perturb_b_sides(s, [eta], [seed])[0], "B side")
    # the state and the A side are read-only, so the result shares them
    return CommutingStrategy(s.dim_a, s.dim_b, s.state, s.pvms_a, pvms_b)


def perturb_b_sides(s: CommutingStrategy, etas, seeds) -> np.ndarray:
    """The B side of ``perturb_b_side(s, eta, seed)`` for each (eta, seed)
    pair as one (N, Y, B, d, d) stack in ``s``'s order, unchecked (its
    consumer checks it, as ``PVMStack`` and ``round_b_sides`` do).

    u q u* for each B-side PVM q and u = exp(i eta K): K from the stream
    ``default_rng(seed)`` (all seeded in one ``rng_for`` pass), then one
    stacked eigensolve for its norm and one for its exponential."""
    if len(etas) != len(seeds):
        raise ValueError(f"{len(etas)} etas for {len(seeds)} seeds: one each per B side")
    shape = (s.dim_b, s.dim_b)
    g = np.empty((len(seeds),) + shape, complex)
    for i, rng in enumerate(rng_for(np.asarray(seeds))):
        g[i] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    k = _hermitian_part(g)
    k /= np.abs(np.linalg.eigvalsh(k)).max(axis=-1)[:, None, None]
    w, v = np.linalg.eigh(k)
    phases = np.exp(1j * np.asarray(etas, dtype=float)[:, None] * w)
    u = ((v * phases[:, None, :]) @ v.conj().swapaxes(-1, -2))[:, None]
    # a question at a time: a stack-sized temporary fragments the heap (peak RSS +6 %)
    stack = np.empty((len(seeds),) + s.pvms_b.stack.shape, complex)
    for x, family in enumerate(s.pvms_b.stack):
        stack[:, x] = u @ family @ u.conj().swapaxes(-1, -2)
    return stack


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
    return _hermitian_part(columns @ basis[:, None].conj().swapaxes(-1, -2))


def _sweep(weights, state, theirs, mine, schmidt, mirror=None) -> np.ndarray:
    """Best PVM per question for the side ``weights`` and ``state`` put first.

    Against the other side's PVMs ``theirs`` the payoff of question x is
    sum_a Tr(p_a F_a) with F_a = M (sum_{y,b} W[x, y, a, b] q^y_b)^T M+.
    Candidates, the first maximum winning: the eigenbasis of
    sum_a (a + 1) F_a and the Schmidt basis ``schmidt``, each assigned
    column by column, the current PVMs ``mine``, then ``mirror`` if given.
    """
    paired = np.einsum("xyab,ybij->xaij", weights, theirs)
    effective = _hermitian_part(state @ paired.swapaxes(-1, -2) @ state.conj().T)
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
        payoff = _hermitian_part(_payoff_operator(weights, pvms_a, pvms_b))
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
    a_side = PVMStack(game.questions, pvms_a, "A side")
    b_side = PVMStack(game.questions, pvms_b, "B side")
    return SeesawResult(CommutingStrategy(dim_a, dim_b, state, a_side, b_side), values)


# ---------------------------------------------------------------------------
# file formats


def _matrix_to_pairs(m: np.ndarray):
    m = np.asarray(m)
    return np.stack([m.real, m.imag], -1).tolist()


def _stack_to_pairs(pvms: PVMStack) -> dict:
    return dict(zip(pvms.questions, _matrix_to_pairs(pvms.stack)))


def _pairs_to_families(doc: dict, what: str) -> dict:
    return {
        str(q): [_pairs_to_matrix(p, f"{what}[{q!r}]") for p in fam] for q, fam in doc.items()
    }


def _pairs_to_matrix(rows, what: str) -> np.ndarray:
    try:
        pairs = np.array(rows)
    except ValueError as exc:  # ragged rows
        raise ValueError(f"malformed complex matrix in {what}: {exc}") from exc
    if pairs.dtype.kind not in "iuf" or pairs.ndim != 3 or pairs.shape[-1] != 2:
        raise ValueError(
            f"malformed complex matrix in {what}: expected rows of [re, im]"
            f" number pairs, got {pairs.dtype} entries of shape {pairs.shape}"
        )
    return pairs[..., 0] + 1j * pairs[..., 1]


def _json_field(raw, kind, what: str):
    """``raw`` if it is a JSON integer (``kind`` int) or number (``kind``
    (int, float)), not a bool, else a TypeError naming ``what``."""
    if isinstance(raw, bool) or not isinstance(raw, kind):
        noun = "integer" if kind is int else "number"
        raise TypeError(f"{what} must be a JSON {noun}, got {raw!r}")
    return raw


def dump_commuting_strategy(s: CommutingStrategy) -> str:
    doc = {
        "dimA": s.dim_a,
        "dimB": s.dim_b,
        "xi": _matrix_to_pairs(s.state),
        "pvmsA": _stack_to_pairs(s.pvms_a),
        "pvmsB": _stack_to_pairs(s.pvms_b),
    }
    return json.dumps(doc)


def load_commuting_strategy(text: str) -> CommutingStrategy:
    try:
        doc = json.loads(text)
        dim_a, dim_b = (_json_field(doc[key], int, key) for key in ("dimA", "dimB"))
        state = _pairs_to_matrix(doc["xi"], "xi")
        pvms_a = _pairs_to_families(doc["pvmsA"], "pvmsA")
        pvms_b = _pairs_to_families(doc["pvmsB"], "pvmsB")
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed strategy document: {exc}") from exc
    return CommutingStrategy(dim_a, dim_b, state, pvms_a, pvms_b)


def dump_tracial_strategy(t: TracialStrategy) -> str:
    blocks = [
        {"w": blk.weight, "dim": blk.dim, "pvms": _stack_to_pairs(blk.pvms)}
        for blk in t.blocks
    ]
    return json.dumps({"blocks": blocks})


def load_tracial_strategy(text: str) -> TracialStrategy:
    try:
        doc = json.loads(text)
        blocks = [
            TracialBlock(
                float(_json_field(raw["w"], (int, float), f"block {k} w")),
                _json_field(raw["dim"], int, f"block {k} dim"),
                _pairs_to_families(raw["pvms"], "block pvms"),
            )
            for k, raw in enumerate(doc["blocks"])
        ]
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed tracial strategy document: {exc}") from exc
    return TracialStrategy(blocks)
