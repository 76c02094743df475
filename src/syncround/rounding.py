"""Rounding an almost-synchronous commuting strategy to a tracial one.

The pipeline: measure the synchronicity deficit delta, symmetrize the
correlation through the reduced density rho, decompose rho into nested
spectral corners with scalar weights, compress the A-side PVMs into
each corner, orthogonalize the compressed POVMs back into PVMs, and
assemble the weighted blocks into a tracial strategy.  Every stage has
an L1 distance (integrated against the game's question distribution)
recorded in a certificate, together with the delta^(1/4)-type bounds it
is checked against.

The certified constants are implementation commitments:

- 9  * delta^(1/4)  bounds the distance from the input correlation to
  the corner correlation (a symmetrization step below 3 delta^(1/4)
  plus a corner step below 4 sqrt(2) delta^(1/4));
- 57 * delta^(1/4)  bounds the distance to the final tracial
  correlation (3 + 38 sqrt(2), rounded up), where the 38 comes from the
  orthogonalization budget applied at deficit 4 delta;
- the output value satisfies value_out >= 1 - 58 (eps / alpha)^(1/4)
  whenever the input value is 1 - eps, since the deficit of a strategy
  with value 1 - eps on an alpha-synchronous game is at most
  eps / alpha and eps <= (eps / alpha)^(1/4).

The corner stage uses only the state and the A-side PVMs (Connes'
distribution lemma applied to rho^(1/2) p rho^(1/2)); the B side enters
through delta and the input correlation alone.  ``round_corners`` builds
that stage as a value.  Rounding many B sides of one state and A side
is ``round_b_sides``: one stage, then one pass over the (N, ...) stack
of B sides for the input tables, delta (once per B side, for both
reports), the distances and the dual, into the dataclasses of
``round_strategy`` and ``verify_dual_distance`` with (N,) fields.  Each
entry point factors the state once, by ``reduced_density(s)``: nothing
is cached on a strategy.  The dual report's comm_sq is read from
``haagerup``'s commutator kernel, which ``commutator_certificate`` uses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .games import (
    CorrelationTable,
    SynchronousGame,
    _table_sums,
    game_value,
    table_l1_distance,
)
from .haagerup import _commutator_sums
from .spectral import (
    BOUND_SLACK,
    IDENTITY_TOL,
    MERGE_TOL_SCALE,
    ORTHOGONALIZATION_SLACK,
    ROUNDING_SLACK,
    _exactly_hermitian,
    _first_failure,
    _hermitian_part,
    _unstack,
    eigh,
    functional_calculus,
    require_hermitian,
    require_povm,
    require_pvm,
    trace_pairing,
)
from .strategies import (
    CommutingStrategy,
    PVMStack,
    StandardForm,
    TracialBlock,
    TracialStrategy,
    _commuting_tables,
    _deficits,
    _dual_povms,
    _pvm_stack,
    correlation_of_commuting,
    reduced_density,
    standard_form_dual,
    synchronicity_deficit,
    tracial_correlation,
)

__all__ = [
    "FIRST_HALF_CONSTANT",
    "TOTAL_CONSTANT",
    "GAME_CONSTANT",
    "ORTHOGONALIZATION_CONSTANT",
    "CornerDecomposition",
    "CornerRounding",
    "OrthogonalizationReport",
    "RoundingCertificate",
    "RoundingResult",
    "DualDistanceReport",
    "corner_decomposition",
    "symmetrized_correlation",
    "corner_correlation",
    "pvm_frames",
    "orthogonalize_povm",
    "round_corners",
    "round_strategy",
    "round_b_sides",
    "verify_dual_distance",
]

FIRST_HALF_CONSTANT = 9.0
TOTAL_CONSTANT = 57.0
GAME_CONSTANT = 58.0
ORTHOGONALIZATION_CONSTANT = 9.0

# a bound at or above these values holds for every input: no L1 distance
# between correlation tables exceeds 2, and no value is below 0
VACUOUS_DISTANCE = 2.0
VACUOUS_VALUE_GAP = 1.0


@dataclass(eq=False)
class CornerDecomposition:
    """Nested threshold projections of a density operator.

    ``values`` holds the distinct positive eigenvalues l_1 > ... > l_m
    after clustering; P_k projects onto eigenvectors with eigenvalue
    >= l_k, and w_k = (l_k - l_{k+1}) rank(P_k) with l_{m+1} = 0.  The
    weights sum to the kept trace: 1 less the eigenvalues dropped as
    numerical zeros.  ``basis`` is the kept eigenbasis, its columns
    ordered by descending eigenvalue, so that P_k projects onto its
    leading ranks[k] columns; ``levels`` holds each column's clustered
    eigenvalue.
    """

    values: np.ndarray
    ranks: tuple[int, ...]
    weights: np.ndarray
    basis: np.ndarray = field(repr=False)
    levels: np.ndarray = field(repr=False)

    @property
    def n_corners(self) -> int:
        return len(self.ranks)


def _cluster_starts(values: np.ndarray, tol) -> np.ndarray:
    """First index of each cluster of an ascending spectrum: consecutive
    eigenvalues within ``tol`` chain into one cluster, whatever its span."""
    return np.flatnonzero(np.diff(values, prepend=-np.inf) > tol)


def corner_decomposition(rho: StandardForm) -> CornerDecomposition:
    """Corner decomposition of the reduced density of a standard form.

    rho's eigenvalues w = S^2 within tol = MERGE_TOL_SCALE (1 + max |w|)
    of the next chain into one cluster, which stands for its mean; the
    clusters above tol give the nested corners, whose weights sum to the
    kept mass within IDENTITY_TOL.
    """
    w = rho.singular_values**2
    tol = MERGE_TOL_SCALE * (1.0 + np.abs(w).max())
    starts = _cluster_starts(w, tol)
    sizes = np.diff(starts, append=w.size)
    means = np.add.reduceat(w, starts) / sizes
    values = means[::-1]
    values = values[values > tol]
    if values.size == 0:
        raise ValueError("density operator has no positive spectrum")
    levels = np.repeat(means, sizes)
    ranks = w.size - np.searchsorted(levels, values)
    # by descending cluster, ascending index inside a cluster
    columns = np.argsort(-levels, kind="stable")[: ranks[-1]]
    basis = rho.left[:, columns]
    weights = (values - np.append(values[1:], 0.0)) * ranks
    total = float(weights.sum())
    kept = 1.0 - float(w[: w.size - ranks[-1]].sum())
    if abs(total - kept) > IDENTITY_TOL:
        raise ValueError(f"corner weights sum to {total!r}, expected {kept!r}")
    return CornerDecomposition(values, tuple(ranks.tolist()), weights, basis, levels[columns])


def symmetrized_correlation(pvms_a, rho: StandardForm, questions=None) -> CorrelationTable:
    """Symmetric table T_{x,y}(a, b) = Tr(p^x_a rho^(1/2) p^y_b rho^(1/2)) of the
    A side ``pvms_a``, a ``PVMStack`` or a dict of question -> PVM (as below):
    with p~ = U* p U, the kernel sum_ij p~^x_a[i, j] s_i s_j p~^y_b[j, i]."""
    pvms_a = _pvm_stack(pvms_a)
    order = tuple(questions or pvms_a.questions)
    u, s = rho.left, rho.singular_values
    rotated = u.conj().T @ pvms_a.in_order(order) @ u
    data = trace_pairing(rotated * np.outer(s, s), rotated).real
    sums = data.sum(axis=(2, 3))
    worst = float(np.abs(sums - 1.0).max())
    if worst > IDENTITY_TOL:
        raise ValueError(f"symmetrized blocks do not sum to 1: deviation {worst:.3e}")
    return CorrelationTable(order, pvms_a.n_answers, data)


def corner_compressions(pvms_a, decomp: CornerDecomposition, questions=None) -> np.ndarray:
    """The POVMs (B_k+ p^x_a B_k) on the range of every corner P_k as one
    rotated (X, A, r, r) stack: the families of ``questions`` (default:
    all) in the kept eigenbasis of rho.  Its columns run by descending
    cluster, so corner k is the leading ranks[k] x ranks[k] block of
    every rotated element."""
    basis = decomp.basis
    return _hermitian_part(basis.conj().T @ _pvm_stack(pvms_a).in_order(questions) @ basis)


def pvm_frames(pvms_a, questions=None) -> tuple[np.ndarray, np.ndarray]:
    """The frame and labelling of each PVM of ``questions`` (default: all)
    of the A side ``pvms_a``, a ``PVMStack`` or a dict of question -> PVM.

    Returns (frames, counts): frames (X, d, d) holds per question a
    unitary U^x whose columns, grouped by outcome label, span the ranges
    of the PVM's elements, so that p^x_a is the product of U^x's columns
    labelled a with their adjoints; counts (X, A) is the number of
    columns of each label, which run in outcome order, one contiguous
    range per outcome.

    One stacked ``eigh`` of sum_a (a + 1) p^x_a, whose eigenvalue is
    a + 1 on the range of p^x_a: a column's label is its rounded
    eigenvalue less 1.  Every eigenvalue must lie within 1/4 of an
    outcome's 1..A, and each outcome's count must be rint tr p^x_a,
    or a ``ValueError`` names the question.  For a family within
    ``FAMILY_TOL`` of a PVM, U^x_a U^x_a+ is within a few ``FAMILY_TOL``
    of p^x_a, as the eigenvalue gaps are at least 1.
    """
    pvms_a = _pvm_stack(pvms_a)
    order = tuple(questions or pvms_a.questions)
    stack = pvms_a.in_order(order)
    n_answers = stack.shape[1]
    names = [f"A side PVM for question {q!r}" for q in order]
    dec = eigh(_hermitian_part(np.einsum("a,xaij->xij", np.arange(1.0, n_answers + 1), stack)),
               names)
    labels = np.rint(dec.eigenvalues) - 1.0
    off = (np.abs(dec.eigenvalues - labels - 1.0) > 0.25) | (labels < 0) | (labels >= n_answers)
    bad = _first_failure(off)
    if bad is not None:
        raise ValueError(f"{names[bad[0]]}: frame eigenvalue {dec.eigenvalues[bad]:.6g} is not"
                         f" within 1/4 of an outcome 1..{n_answers}")
    counts = np.count_nonzero(labels[:, None, :] == np.arange(n_answers)[:, None], axis=-1)
    expected = np.rint(np.trace(stack, axis1=-2, axis2=-1).real)
    bad = _first_failure(counts != expected)
    if bad is not None:
        raise ValueError(f"{names[bad[0]]}: {counts[bad]} frame columns for outcome {bad[1]},"
                         f" expected rint tr p = {expected[bad]:.0f}")
    return dec.eigenvectors, counts


@dataclass(eq=False)
class FramedCompressions:
    """The compressed A side of ``corner_compressions``, (X, A, r, r), with
    the factor of every element, as ``round_corners`` builds it for the
    greedy.

    ``factor`` is (X, r, d), B+ U^x for rho's kept eigenbasis B and the
    frame U^x of ``pvm_frames``, and ``counts`` (X, A) its counts: element
    (x, a) compresses the projection onto U^x's columns labelled a, so it
    is G G+ for the columns G of ``factor[x]`` that outcome a owns, and
    corner k's element is the same product of G's leading ranks[k] rows.
    ``stack`` stays the compression of the A side itself, which the
    corner table and the reports read; its elements are G G+ within a few
    ``FAMILY_TOL`` (see ``pvm_frames``).
    """

    stack: np.ndarray
    factor: np.ndarray
    counts: np.ndarray


def corner_correlation(pvms_a, decomp: CornerDecomposition, questions=None) -> CorrelationTable:
    """Weighted corner table sum_k (l_k - l_{k+1}) Tr(P_k p^x_a P_k p^y_b P_k).

    ``pvms_a`` is the A side, a ``PVMStack`` or a dict of question ->
    PVM, compressed here by ``corner_compressions``; or that compressed
    (X, A, r, r) stack itself, as ``corner_compressions(pvms_a, decomp,
    questions)`` returns it, with ``questions`` then naming its families
    in order.  ``round_corners`` passes the stack it also orthogonalizes,
    so one rotation serves the table and the greedy.

    This is the weight integral over the nested threshold projections of
    rho, computed as one Schur-kernel contraction in rho's kept
    eigenbasis.  With p~ = U+ p U, the corner term is
    sum_ij p~^x_a[i, j] p~^y_b[j, i] over i, j both inside corner k, and
    the gaps l_k - l_{k+1} of the corners containing both i and j
    telescope to min(v_i, v_j), where v_i is the clustered eigenvalue of
    column i.  Hence

        T[x, y, a, b] = sum_ij p~^x_a[i, j] min(v_i, v_j) p~^y_b[j, i].

    Each block of that sum adds up to the kept mass sum_k w_k, which
    falls short of 1 by the spectrum dropped as numerical zeros; the
    table is divided by it, as ``round_strategy`` divides the block
    weights.
    """
    if isinstance(pvms_a, np.ndarray):
        stack, order = pvms_a, tuple(questions or ())
        rank = decomp.levels.size
        if stack.ndim != 4 or stack.shape[-2:] != (rank, rank) or len(stack) != len(order):
            raise ValueError(
                f"compressed stack of shape {stack.shape} for questions {order!r}:"
                f" expected (X, A, {rank}, {rank}) with one family per question"
            )
    else:
        pvms_a = _pvm_stack(pvms_a)
        order = tuple(questions or pvms_a.questions)
        stack = corner_compressions(pvms_a, decomp, order)
    data = trace_pairing(stack * np.minimum.outer(decomp.levels, decomp.levels), stack).real
    return CorrelationTable(order, stack.shape[1], data / float(decomp.weights.sum()))


@dataclass(eq=False)
class OrthogonalizationReport:
    """Distance report for one POVM-to-PVM rounding.

    ``distance_sq`` is sum_a tr|m_a - r_a|^2 and ``budget`` is
    9 (1 - sum_a tr(m_a^2)), both under the normalized trace; ``holds``
    records whether the distance met the budget (the budget is
    empirical, violations are reported rather than asserted).
    """

    dim: int
    n_outcomes: int
    distance_sq: float
    budget: float
    holds: bool


def _adjoint(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


def _greedy_pvms(ms: np.ndarray, what: str, frame=None) -> np.ndarray:
    """Greedy rounding of F POVMs of one size, (F, A, n, n), to PVMs.

    Per POVM, outcomes are visited by decreasing trace.  W holds an
    orthonormal basis of the unassigned subspace, live columns first;
    each visit eigensolves W+ m W for all F POVMs in one stacked call,
    gives the columns with eigenvalue above 1/2 to the outcome and keeps
    the rest as the next W, so the eigensolves shrink as outcomes fill.
    A POVM with fewer live columns is padded with zero columns whose
    diagonal is set to -1: padding then never mixes with a real
    eigenvalue (exact projections have eigenvalue 0) and never passes
    1/2.  The subspace left when the outcomes run out goes to the
    outcome with the largest expectation on it.

    ``frame`` is (factor, counts) when every element is a factored
    compression: m[f, a] = G G+ for the counts[f, a] columns G of the
    (F, n, d) ``factor`` that outcome a owns, one contiguous range per
    outcome in outcome order.  A visit whose outcomes' largest frame
    rank q is below the current width then takes the Gram form, and the
    greedy stays on it: with P = W W+ - T T+ the projection onto the
    unassigned subspace (W the rest at the switch, 1 on a first visit; T
    the columns taken since), it eigensolves the q x q Gram (PG)+ PG of
    the visited outcomes' columns, zero-padded to q, and takes PG v /
    sigma for every sigma^2 > 1/2: the eigenvectors of P m P above 1/2,
    which the rest form finds from a width x width solve.  A visit with
    q = 0 has nothing to take and solves nothing.

    Each eigensolve is one stacked ``eigh`` with all its checks, a
    failure naming ``what`` element (x, a).  Its Hermitian check passes
    on the cheap path, as its input comes from ``_hermitian_part``,
    exactly Hermitian in floating point.  Eigenvalues ascend, so the -1
    padding, the rest and the taken columns are three contiguous ranges.
    """
    nf, na, n, _ = ms.shape
    order = np.argsort(-np.trace(ms, axis1=-2, axis2=-1).real, axis=-1, kind="stable")
    family = np.arange(nf)
    basis = None  # W = 1 on the first visit
    taken_cols = None  # T, once on the Gram form
    n_live = np.full(nf, n)
    rs = np.empty_like(ms)
    if frame is not None:
        factor, counts = frame
        starts = np.cumsum(counts, axis=-1) - counts
    for step, outcome in enumerate(order.T):
        labels = [f"{what} element ({x}, {a})" for x, a in enumerate(outcome.tolist())]
        width = n if basis is None else basis.shape[-1]
        if frame is not None and (taken_cols is not None or counts[family, outcome].max() < width):
            if taken_cols is None:
                taken_cols = np.zeros((nf, n, 0), complex)
            ranks = counts[family, outcome]
            span = np.arange(ranks.max())
            columns = np.minimum(starts[family, outcome][:, None] + span, factor.shape[-1] - 1)
            g = np.take_along_axis(factor, columns[:, None, :], axis=-1)
            g *= (span < ranks[:, None])[:, None, :]
            pg = g if basis is None else basis @ (_adjoint(basis) @ g)
            pg -= taken_cols @ (_adjoint(taken_cols) @ g)
            took, new = 0, pg[..., :0]
            if span.size:
                dec = eigh(_hermitian_part(_adjoint(pg) @ pg), labels)
                took = np.count_nonzero(dec.eigenvalues > 0.5, axis=-1)
                # the taken eigenpairs: a trailing range, padded by zero columns
                first = span.size - took.max()
                top = dec.eigenvalues[:, first:]
                scale = np.where(top > 0.5, 1.0 / np.sqrt(np.maximum(top, 0.5)), 0.0)
                new = pg @ (dec.eigenvectors[..., first:] * scale[:, None, :])
            rs[family, outcome] = _hermitian_part(new @ _adjoint(new))
            taken_cols = np.concatenate([taken_cols, new], axis=-1)
            n_live = n_live - took
        else:
            m = ms[family, outcome]
            comp = _hermitian_part(m if basis is None else _adjoint(basis) @ m @ basis)
            if basis is not None:
                np.einsum("fii->fi", comp)[np.arange(width) >= n_live[:, None]] = -1.0
            dec = eigh(comp, labels)
            w = dec.eigenvalues
            vecs = dec.eigenvectors if basis is None else basis @ dec.eigenvectors
            taken = w > 0.5
            rs[family, outcome] = _hermitian_part((vecs * taken[:, None, :]) @ _adjoint(vecs))
            # the next W is the rest: one contiguous range of columns per POVM
            low = np.count_nonzero(w <= -0.5, axis=-1)
            n_live = width - low - np.count_nonzero(taken, axis=-1)
            columns = np.arange(n_live.max())
            keep = np.minimum(low[:, None] + columns, width - 1)
            basis = np.take_along_axis(vecs, keep[:, None, :], axis=-1)
            basis *= (columns < n_live[:, None])[:, None, :]
        if n_live.max() <= 0:
            rs[family[:, None], order[:, step + 1 :]] = 0.0
            return rs
    live = np.eye(n) if basis is None else basis @ _adjoint(basis)
    if taken_cols is not None:
        live = live - taken_cols @ _adjoint(taken_cols)
    residual = _hermitian_part(live)
    scores = np.einsum("fij,faji->fa", residual, ms).real
    open_f = np.flatnonzero(n_live > 0)
    rs[open_f, np.argmax(scores[open_f], axis=-1)] += residual[open_f]
    return rs


def orthogonalize_povm(povm, ranks=None):
    """Greedy spectral rounding of POVMs into PVMs.

    Outcomes are visited by decreasing trace; each receives the spectral
    projection above 1/2 of its compression to the unassigned subspace,
    and any residual subspace goes to the outcome with the largest
    residual expectation.  The result sums to the identity exactly by
    construction.

    With ``ranks`` omitted, ``povm`` is one POVM and the result is its
    list of PVM elements with one report.  With ``ranks``, ``povm`` is
    a stack (X, A, r, r) of X POVMs whose leading ranks[k] x ranks[k]
    blocks are the POVMs of corner k; the result is a list with one
    (X, A, ranks[k], ranks[k]) PVM stack per corner, and the reports in
    corner-then-question order.  The stack may come as
    ``FramedCompressions``, with the factor of every element: a visit
    whose outcomes' frame ranks are all below the unassigned width then
    eigensolves their Gram matrix, not the compression, and gives the
    same PVMs wherever no eigenvalue lies near 1/2 (see ``_greedy_pvms``).

    Checks, and where they run:

    - the shape, before any work: one POVM holds matrices, and a stack
      for ``ranks`` holds (A, r, r) families.
    - ``require_povm`` on the full stack: Hermitian, PSD (one stacked
      Cholesky factorization per slab, see ``require_povm``) and sum to the
      identity.  By Cauchy interlacing, and since a leading block of
      sum - 1 has no larger Frobenius norm, every leading block passes
      the PSD and sum checks when the stack does.
    - ``require_hermitian`` on every corner's leading block, whose
      elementwise tolerance scales with the block's own entries, when
      the stack is not exactly Hermitian: every leading block of an
      exactly Hermitian stack is exactly Hermitian, and passes.
    - in the greedy, every eigensolve's ``eigh`` checks: Hermitian,
      reconstruction and orthonormality (see ``_greedy_pvms``).
    """
    frame = None
    if isinstance(povm, FramedCompressions):
        frame, povm = povm, povm.stack
    if len(povm) == 0:
        raise ValueError("POVM must have at least one outcome")
    first = np.shape(povm[0])
    # square matrices nested at another depth; any other shape is named
    # by require_povm
    if len(first) >= 2 and first[-1] == first[-2] and len(first) != (2 if ranks is None else 3):
        expected = ("without corner ranks, povm must be one POVM (A, n, n)" if ranks is None
                    else "with corner ranks, povm must be an (X, A, r, r) stack of POVMs")
        raise ValueError(f"{expected}, got shape {(len(povm),) + first}")
    ms = require_povm(povm, np.atleast_1d(povm[0]).shape[-1])
    if ranks is None:
        rounded, reports = _orthogonalize_corners(ms[None], (ms.shape[-1],))
        return list(rounded[0][0]), reports[0]
    if not all(0 < r <= ms.shape[-1] for r in ranks):
        raise ValueError(f"corner ranks {ranks} must lie in 1..{ms.shape[-1]}")
    if frame is not None:
        nx, na, n, _ = ms.shape
        if (frame.factor.ndim != 3 or frame.factor.shape[:2] != (nx, n)
                or frame.counts.shape != (nx, na)
                or np.any(frame.counts.sum(axis=-1) != frame.factor.shape[-1])):
            raise ValueError(
                f"frame factor of shape {frame.factor.shape} with counts of shape"
                f" {frame.counts.shape} for a stack of shape {ms.shape}: expected"
                f" ({nx}, {n}, d) and ({nx}, {na}) counts summing to d"
            )
    return _orthogonalize_corners(ms, ranks, frame)


def _sum_of_squares(stack: np.ndarray, out: str) -> np.ndarray:
    """Sum of |entry|^2 over a stack (X, A, n, n), as re^2 + im^2, onto
    the einsum axes ``out`` of "xaij"."""
    spec = f"xaij,xaij->{out}"
    return np.einsum(spec, stack.real, stack.real) + np.einsum(spec, stack.imag, stack.imag)


def _orthogonalize_corners(ms: np.ndarray, ranks, frame=None) -> tuple[list, list]:
    """The greedy rounding of every leading block of a validated stack.

    Corners run one at a time, each as one stacked greedy over the X
    POVMs: padding every corner to the full rank would multiply the
    eigensolve work (for ranks 1, 2, ..., r the n^3 cost sums to about
    r^4 / 4, against r^4 padded).  Every corner's purity, the sum of
    squared entries of its leading block, is read off one 2-D prefix sum
    of the stack's squared entries.  Each leading block is checked to be
    Hermitian on its own scale only when the stack is not exactly
    Hermitian.
    """
    prefix = _sum_of_squares(ms, "xij").cumsum(axis=-1).cumsum(axis=-2)
    exact = _exactly_hermitian(ms)
    rounded, reports = [], []
    for k, r in enumerate(ranks):
        block = ms[..., :r, :r]
        if not exact:
            require_hermitian(block, f"corner {k} POVM")
        rs = _greedy_pvms(
            block, f"corner {k} POVM",
            None if frame is None else (frame.factor[:, :r], frame.counts),
        )
        # tr(m^2) = ||m||_F^2 for Hermitian m
        distance_sq = _sum_of_squares(block - rs, "x") / r
        budget = ORTHOGONALIZATION_CONSTANT * (1.0 - prefix[:, r - 1, r - 1] / r)
        rounded.append(rs)
        reports += [
            OrthogonalizationReport(
                r, ms.shape[1], float(d), float(b), bool(d <= b + ORTHOGONALIZATION_SLACK)
            )
            for d, b in zip(distance_sq, budget)
        ]
    return rounded, reports


@dataclass(eq=False)
class CornerRounding:
    """The half of a rounding run that depends only on the state, the
    A-side PVMs and the question order.

    ``rho`` is the standard form of the state, and the rest the corner
    stage built from it and the A side: the symmetrized and corner tables, the orthogonalized tracial strategy (its table in
    ``questions`` order) and one report per corner and question.
    """

    questions: tuple[str, ...]
    rho: StandardForm = field(repr=False)
    decomposition: CornerDecomposition
    symmetrized: CorrelationTable = field(repr=False)
    corner: CorrelationTable = field(repr=False)
    tracial: TracialStrategy = field(repr=False)
    reports: list[OrthogonalizationReport] = field(repr=False)


def round_corners(game: SynchronousGame, s: CommutingStrategy) -> CornerRounding:
    """The corner stage of ``round_strategy`` for ``s`` in ``game``'s
    question order, built from ``reduced_density(s)`` and the A side.
    The A side is compressed into rho's kept eigenbasis once: the corner
    table and the greedy both read that one (X, A, r, r) stack.  Its
    frames (``pvm_frames``, one stacked eigensolve) are rotated into the
    same basis once, and the greedy's Gram steps read them."""
    questions = tuple(game.questions)
    rho = reduced_density(s)
    symmetrized = symmetrized_correlation(s.pvms_a, rho, questions)
    decomp = corner_decomposition(rho)
    compressed = corner_compressions(s.pvms_a, decomp, questions)
    corner = corner_correlation(compressed, decomp, questions)
    frames, counts = pvm_frames(s.pvms_a, questions)
    framed = FramedCompressions(compressed, decomp.basis.conj().T @ frames, counts)
    rounded, reports = orthogonalize_povm(framed, decomp.ranks)
    # spectrum in the numerical-zero band is excluded from the corners,
    # so the kept weights can fall short of 1 by up to the merge
    # tolerance; renormalize for the strategy's exact weight contract
    normalized_weights = decomp.weights / float(decomp.weights.sum())
    blocks = [
        TracialBlock(float(w), r, PVMStack(questions, pvms, f"block(dim={r})"))
        for w, r, pvms in zip(normalized_weights, decomp.ranks, rounded)
    ]
    return CornerRounding(
        questions, rho, decomp, symmetrized, corner, TracialStrategy(blocks), reports
    )


@dataclass(eq=False)
class RoundingCertificate:
    """All distances, values and delta^(1/4) bounds of one rounding run.

    ``d1_sym``, ``d1_corner`` and ``d1_pvm`` are the staged L1 distances
    (input vs symmetrized, symmetrized vs corner, corner vs tracial);
    ``d1_first`` and ``d1_total`` are the direct distances from the
    input table to the corner table and to the final tracial table,
    which the two certified fourth-root bounds are checked against.
    ``vacuous_total`` and ``vacuous_game`` flag a bound that no input can
    violate (a distance bound of at least 2, a value bound of at least
    1); ``holds_by_slack`` flags a ``holds_*`` that is true only through
    ``BOUND_SLACK``.  Floats and bools for one strategy, arrays of shape
    (N,) for the N B sides of ``round_b_sides``, which share
    ``orthogonalization``, the reports of the corner stage.
    """

    delta: float | np.ndarray
    alpha: float | np.ndarray
    d1_sym: float | np.ndarray
    d1_corner: float | np.ndarray
    d1_pvm: float | np.ndarray
    d1_first: float | np.ndarray
    d1_total: float | np.ndarray
    value_in: float | np.ndarray
    value_out: float | np.ndarray
    bound_first: float | np.ndarray
    bound_total: float | np.ndarray
    bound_game: float | np.ndarray
    holds_first: bool | np.ndarray
    holds_total: bool | np.ndarray
    holds_game: bool | np.ndarray
    vacuous_total: bool | np.ndarray
    vacuous_game: bool | np.ndarray
    holds_by_slack: bool | np.ndarray
    orthogonalization: list[dict] = field(default_factory=list)

    @property
    def holds(self) -> bool | np.ndarray:
        return self.holds_first & self.holds_total & self.holds_game


@dataclass(eq=False)
class RoundingResult:
    """The rounded strategy, its certificate, and the corner stage that
    built it."""

    tracial: TracialStrategy
    certificate: RoundingCertificate
    corners: CornerRounding = field(repr=False)


def round_strategy(game: SynchronousGame, s: CommutingStrategy) -> RoundingResult:
    """Round a commuting strategy into a tracial strategy with certificate.

    Requires game.alpha > 0 (otherwise the value bound is vacuous)
    and the game's answer count; either failing, the run is rejected
    before any work.  The corner stage uses only the A-side PVMs and the
    reduced density (``round_corners``).
    """
    _require_alpha(game)
    delta = synchronicity_deficit(game, s)
    corners = round_corners(game, s)
    original = correlation_of_commuting(s, game.questions)
    cert = _certificate(game, corners, original, delta)
    return RoundingResult(corners.tracial, cert, corners)


def _require_alpha(game: SynchronousGame) -> None:
    """A ValueError when game.alpha is 0: the value bound divides by it."""
    if game.alpha <= 0.0:
        raise ValueError(
            "game has alpha = 0 (some question carries no diagonal mass);"
            " the rounding bound is vacuous and unsupported"
        )


def _fourth_roots(values) -> np.ndarray:
    """values^(1/4), each entry by Python's pow, in the shape of ``values``."""
    values = np.asarray(values, dtype=float)
    return np.array([v**0.25 for v in values.ravel().tolist()]).reshape(values.shape)


def _shaped(shape, fields: dict) -> dict:
    """Every field broadcast to ``shape``, a Python scalar for shape ()."""
    return {name: _unstack(np.full(shape, value)) for name, value in fields.items()}


def _certificate(
    game: SynchronousGame, corners: CornerRounding, original: CorrelationTable, delta
) -> RoundingCertificate:
    """The certificate of an input table ``original`` with deficit
    ``delta``, or of each of a stack of N tables with (N,) ``delta``, on
    the corner stage ``corners`` in ``game``.
    Each distance and value is one reduction over the stack, the checks
    run on every table, and the fourth roots are taken on Python floats."""
    symmetrized, corner = corners.symmetrized, corners.corner
    tracial_table = tracial_correlation(corners.tracial, corners.questions)
    d1_sym = table_l1_distance(game, original, symmetrized)
    d1_corner = table_l1_distance(game, symmetrized, corner)
    d1_pvm = table_l1_distance(game, corner, tracial_table)
    d1_first = table_l1_distance(game, original, corner)
    d1_total = table_l1_distance(game, original, tracial_table)
    value_in = game_value(game, original)
    value_out = game_value(game, tracial_table)

    staged = np.ravel(d1_sym + d1_corner + d1_pvm)
    drift = np.ravel(np.abs(value_in - value_out))
    over = drift > staged + ROUNDING_SLACK
    if over.any():
        i = int(np.argmax(over))
        raise ValueError(
            f"value drift {drift[i]:.3e} exceeds the staged L1 budget {staged[i]:.3e}"
        )

    root = _fourth_roots(delta)
    # eps is the nu-weighted losing mass, summed from the table's small
    # entries: 1 - value_in cancels to 0 (or below) once eps nears 1e-16
    losing = _table_sums(game.nu[:, :, None, None] * ~game.predicate * original.data)
    bound_first = FIRST_HALF_CONSTANT * root
    bound_total = TOTAL_CONSTANT * root
    bound_game = GAME_CONSTANT * _fourth_roots(np.clip(losing, 0.0, None) / game.alpha)
    # each check as (without slack, with slack)
    checks = [
        (d1_first <= bound_first, d1_first <= bound_first + BOUND_SLACK),
        (d1_total <= bound_total, d1_total <= bound_total + BOUND_SLACK),
        (value_out >= 1.0 - bound_game, value_out >= 1.0 - bound_game - BOUND_SLACK),
    ]
    fields = _shaped(np.shape(delta), {
        "delta": delta, "alpha": game.alpha, "d1_sym": d1_sym, "d1_corner": d1_corner,
        "d1_pvm": d1_pvm, "d1_first": d1_first, "d1_total": d1_total,
        "value_in": value_in, "value_out": value_out,
        "bound_first": bound_first, "bound_total": bound_total, "bound_game": bound_game,
        "holds_first": checks[0][1], "holds_total": checks[1][1], "holds_game": checks[2][1],
        "vacuous_total": bound_total >= VACUOUS_DISTANCE,
        "vacuous_game": bound_game >= VACUOUS_VALUE_GAP,
        "holds_by_slack": np.any([slack & ~strict for strict, slack in checks], axis=0),
    })
    orthogonalization = [
        {"corner": k, "question": q, "dim": r.dim, "distance_sq": r.distance_sq,
         "budget": r.budget, "holds": r.holds}
        for (k, q), r in zip(
            itertools.product(range(corners.decomposition.n_corners), corners.questions),
            corners.reports,
        )
    ]
    return RoundingCertificate(**fields, orthogonalization=orthogonalization)


@dataclass(eq=False)
class DualDistanceReport:
    """The two intermediate commutation quantities of a rounding run.

    ``comm_sq`` is the mu-averaged sum of squared commutator norms
    ||[p^x_a, rho^(1/2)]||^2 (budget 4 delta) and ``dual_sq`` the
    mu-averaged sum of ||rho^(1/2)(p^x_a - sqrt(p'^x_a))||^2 against the
    transported POVMs (budget 6 sqrt(delta)).  Floats and bools for one
    strategy, arrays of shape (N,) for the N B sides of ``round_b_sides``.
    """

    delta: float | np.ndarray
    comm_sq: float | np.ndarray
    comm_budget: float | np.ndarray
    holds_comm: bool | np.ndarray
    dual_sq: float | np.ndarray
    dual_budget: float | np.ndarray
    holds_dual: bool | np.ndarray

    @property
    def holds(self) -> bool | np.ndarray:
        return self.holds_comm & self.holds_dual


def verify_dual_distance(game: SynchronousGame, s: CommutingStrategy) -> DualDistanceReport:
    """Evaluate both intermediate inequalities on a concrete strategy.

    Both sums run over the stacked (X, A, d, d) families at once: the
    one stacked eigensolve that validates the dual POVMs also gives
    their square roots, and the squared norms are mu-weighted reductions
    over the stack.  The state is factored once, by ``reduced_density(s)``,
    with no corner stage.  A strategy without the game's answer count is
    rejected before any work.
    """
    delta = synchronicity_deficit(game, s)
    rho = reduced_density(s)
    sqrt_dual = functional_calculus(standard_form_dual(s.pvms_b, rho, game.questions))
    return _dual_report(game, s, rho, sqrt_dual, delta)


def _dual_report(
    game: SynchronousGame, s: CommutingStrategy, rho: StandardForm, sqrt_dual: np.ndarray,
    delta,
) -> DualDistanceReport:
    """The report of dual square roots ``sqrt_dual`` (X, A, d, d) and
    deficit ``delta``, or of a stack (N, X, A, d, d) and (N,) ``delta``,
    for the A side of ``s`` and its state's standard form ``rho``: comm_sq
    is the mu-average of haagerup's commutator kernel on rho^(1/2) = U S U*,
    the first term of the chain ``commutator_certificate`` checks, and
    ||rho^(1/2) X||_F is ||S U* X||_F."""
    p = s.pvms_a.in_order(game.questions)
    weights = game.mu[:, None, None, None]
    u, sv = rho.left, rho.singular_values
    comm_sq = float(game.mu @ _commutator_sums(sv, u, p)[0])
    dual_sq = _table_sums(weights * np.abs(sv[:, None] * (u.conj().T @ (p - sqrt_dual))) ** 2)
    comm_budget = 4.0 * delta
    dual_budget = 6.0 * np.sqrt(delta)
    return DualDistanceReport(**_shaped(np.shape(delta), {
        "delta": delta,
        "comm_sq": comm_sq,
        "comm_budget": comm_budget,
        "holds_comm": comm_sq <= comm_budget + ROUNDING_SLACK,
        "dual_sq": dual_sq,
        "dual_budget": dual_budget,
        "holds_dual": dual_sq <= dual_budget + ROUNDING_SLACK,
    }))


def round_b_sides(game: SynchronousGame, s: CommutingStrategy, stack_b: np.ndarray, names):
    """Round ``s`` with each B side of an (N, Y, B, d, d) stack in ``s``'s
    question order (as ``perturb_b_sides`` gives) in place of its own;
    ``names`` names each B side in the errors of the PVM and dual POVM
    checks.

    The N strategies share the state, the A side and so one corner stage,
    whose standard form (one ``reduced_density`` per call) also gives the
    duals their polar part and rho^(1/2); every B-side term is one stacked
    pass: one PVM check, one table contraction, one deficit per strategy for both
    reports, one dual eigensolve, one reduction per distance.  Returns
    the certificate and the dual report with (N,) fields: entry i of
    each is the field ``round_strategy`` and ``verify_dual_distance``
    give for the strategy with B side i.
    """
    _require_alpha(game)
    if stack_b.ndim != 5 or stack_b.shape[1:] != s.pvms_b.stack.shape:
        raise ValueError(
            f"B-side stack of shape {stack_b.shape} for B sides of {s.pvms_b.stack.shape}"
        )
    if len(names) != len(stack_b):
        raise ValueError(f"{len(names)} names for {len(stack_b)} B sides: one each per B side")
    if len(stack_b) == 0:
        raise ValueError("at least one B side is needed")
    labels = [f"B side PVM for question {q!r} of {name}" for name in names for q in s.pvms_b]
    require_pvm(stack_b.reshape((-1,) + stack_b.shape[2:]), s.dim_b, labels)
    order = tuple(game.questions)
    if order != s.questions:
        stack_b = stack_b[:, s.pvms_b.positions(order)]
    delta = _deficits(game, s, stack_b)
    corners = round_corners(game, s)
    certificate = _certificate(game, corners, _commuting_tables(s, order, stack_b), delta)
    dual = _dual_povms(corners.rho, stack_b, [f"dual POVM of {name}" for name in names])
    return certificate, _dual_report(game, s, corners.rho, functional_calculus(dual), delta)
