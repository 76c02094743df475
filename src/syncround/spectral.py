"""Dense Hermitian spectral calculus.

Eigendecomposition into plain ascending eigenpairs (no clustering) with
a deterministic phase convention, the singular value decomposition in
the same order and convention, the PSD square root, the trace pairing
of two stacked operator families, and the matrix validation helpers
(Hermitian / PVM / POVM) shared by the rest of the package.  Everything
works on plain complex numpy arrays at desk scale (dense, dimension up
to a few hundred).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralDecomposition",
    "require_hermitian",
    "require_pvm",
    "require_povm",
    "eigh",
    "svd",
    "functional_calculus",
    "trace_pairing",
]

# The tolerance policy of the package: every threshold a check uses, with
# what it guards.  Every other module imports its thresholds from here.
HERMITIAN_TOL = 1e-12     # |H - H*| entrywise, per unit of 1 + max |H|
DECOMP_TOL = 1e-10        # eigh reconstruction (per unit of 1 + ||h||_F), orthonormality
MERGE_TOL_SCALE = 1e-9    # rho's eigenvalues this close (per unit of 1 + max |w|) share a corner
PSD_CLAMP = 1e-10         # eigenvalues in [-PSD_CLAMP, 0) are roundoff and clamped to 0
FAMILY_TOL = 1e-8         # PVM / POVM: ||p^2 - p||_F, ||sum - 1||_F and POVM min eigenvalue
UNIT_TOL = 1e-10          # unit norm of a state, unit sum of block weights, unit trace of rho
TABLE_TOL = 1e-8          # correlations: block sums, imaginary residue, sync cross terms, value
TABLE_NEG_TOL = 1e-10     # negative roundoff a correlation entry may carry
NU_SUM_TOL = 1e-12        # total mass of a validated nu
NU_RENORM_TOL = 1e-9      # a game file's nu mass within this of 1 is renormalized
IDENTITY_TOL = 1e-9       # closed forms: symmetrized sums, corner weights, mass, moments
NORMED_TOL = 1e-8         # Tr(x^2) = 1 for the commutator chain's input
CHAIN_SLACK = 1e-9        # the Connes and commutator inequality chains
DUALITY_TOL = 1e-8        # residual of the L_p trace duality
MONOTONE_TOL = 1e-10      # see-saw values are recomputed: a kept update may read ulps lower
BOUND_SLACK = 1e-6        # the delta^(1/4) bounds; a bound met only through it is flagged
ROUNDING_SLACK = 1e-8     # value drift against the staged L1 sum, the dual-distance budgets
ORTHOGONALIZATION_SLACK = 1e-12  # a PVM input: distance and budget are 0 up to ulps

CHECK_SLAB_BYTES = 1 << 17  # validator temporaries: malloc's default trim threshold


def _unstack(value):
    """A Python float or bool for one matrix; the array for a stack."""
    return value.item() if np.ndim(value) == 0 else value


def _element(what, index: tuple, noun: str = "element") -> str:
    """Name entry ``index`` of a stack; the bare ``what`` for one matrix.
    A sequence ``what`` holds a caller's labels, one per leading index."""
    if not isinstance(what, str):
        what, index = what[index[0]], index[1:]
    if not index:
        return what
    return f"{what} {noun} {index[0] if len(index) == 1 else index}"


def _first_failure(failed: np.ndarray) -> tuple | None:
    """Stack index of the first True entry (C order), or None."""
    hits = np.argwhere(failed)
    return tuple(int(i) for i in hits[0]) if len(hits) else None


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack.  A matrix whose plain norm
    is not finite (its sum of squares overflows) is scaled by its largest
    |entry| first, so every norm in floating-point range comes out; a NaN
    entry gives NaN."""
    # overflow and NaN are what is tested for; squares that underflow are
    # below roundoff of the norm
    with np.errstate(all="ignore"):
        norms = np.linalg.norm(stack, axis=(-2, -1))
        large = ~np.isfinite(norms)
        if large.any():
            scale = np.abs(stack).max(axis=(-2, -1))
            scaled = np.linalg.norm(stack / scale[..., None, None], axis=(-2, -1)) * scale
            norms = np.where(large, scaled, norms)
    return norms


def _first_excess(residual: np.ndarray, floor: float, allowed=None):
    """(index, norm) of the first matrix of a stack whose Frobenius norm
    exceeds its allowance or is NaN, or None.

    Every allowance is at least ``floor`` and no matrix's norm exceeds
    the whole array's, so one norm accepts the stack; only past that are
    per-matrix norms and the allowances ``allowed()`` (default ``floor``)
    computed.
    """
    # vdot warns of no overflow: an overflowed or NaN sum goes on below
    if np.sqrt(np.vdot(residual, residual).real) <= floor:
        return None
    norms = _frobenius(residual)
    bad = _first_failure(~(norms <= (floor if allowed is None else allowed())))
    return None if bad is None else (bad, norms[bad])


def _hermitian_part(stack: np.ndarray) -> np.ndarray:
    """(H + H*) / 2 of each matrix of a stack, as a new C-ordered stack.
    Entries (i, j) and (j, i) are conj(s_ji) + s_ij and conj(s_ij) + s_ji
    halved, exact conjugates of each other: the result is exactly
    Hermitian in floating point.  It is bitwise numpy's (H + H*) / 2,
    signed zeros included, with one temporary less and no division."""
    out = np.conjugate(stack.swapaxes(-1, -2), out=np.empty(stack.shape, complex))
    out += stack
    # numpy divides z by 2 as ((re + im 0) / 2, (im - re 0) / 2): z (1/2 - 0i)
    # has the same bits (only a component of +-5e-324 may halve to a zero of
    # the other sign) at the cost of a multiplication
    out *= complex(0.5, -0.0)
    return out


def _require_psd(low, what, floor: float = PSD_CLAMP) -> None:
    """Raise unless every minimum eigenvalue ``low`` (one per matrix of a
    stack) is at least -``floor``, naming the first failing element; a
    NaN fails."""
    bad = _first_failure(~(-floor <= low))
    if bad is not None:
        raise ValueError(f"{_element(what, bad)} is not PSD: min eigenvalue {low[bad]:.3e}")


def _require_shapes(ops, dim: int, what: str) -> None:
    """Raise unless every element of the sequence ``ops`` is (dim, dim)."""
    for k, op in enumerate(ops):
        if np.shape(op) != (dim, dim):
            raise ValueError(f"{what} element {k} has shape {np.shape(op)}, expected {(dim, dim)}")


def _slab_views(*stacks) -> list[tuple]:
    """(start, views) per check slab of stacks with the same leading axes,
    each slab as many matrices as fit in CHECK_SLAB_BYTES (at least one):
    larger temporaries make malloc return memory to the OS and refault it.
    The stacks come back as they are, with start None, when the first is
    one matrix or fits in one slab; else as the same slice of each
    flattened (k, m, n) stack, whose first matrix has flat index
    ``start``."""
    if stacks[0].ndim == 2 or stacks[0].nbytes <= CHECK_SLAB_BYTES:
        return [(None, stacks)]
    flats = [stack.reshape((-1,) + stack.shape[-2:]) for stack in stacks]
    step = max(1, CHECK_SLAB_BYTES // flats[0][0].nbytes)
    return [(i, [flat[i : i + step] for flat in flats]) for i in range(0, len(flats[0]), step)]


def _slabs(stack: np.ndarray) -> list[np.ndarray]:
    """The matrices of a stack as flat stacks (k, m, n), one per check slab."""
    return [slab for _, (slab,) in _slab_views(stack.reshape((-1,) + stack.shape[-2:]))]


def _per_matrix(stack: np.ndarray, reduce) -> np.ndarray:
    """``reduce`` of each matrix of a stack, run slab by slab."""
    slabs = [reduce(slab) for slab in _slabs(stack)]
    return np.concatenate(slabs).reshape(stack.shape[:-2])


def _anti_hermitian(stack: np.ndarray) -> np.ndarray:
    return stack - stack.conj().swapaxes(-1, -2)


def _exactly_hermitian(h: np.ndarray) -> bool:
    """Whether every matrix of a stack equals its adjoint bit for bit.
    H - H* is then zero everywhere; a NaN or infinite entry makes it NaN
    or infinite (inf - inf is NaN), so a non-finite stack is never exact."""
    with np.errstate(invalid="ignore"):
        return not any(_anti_hermitian(slab).any() for slab in _slabs(h))


def require_hermitian(matrix, what: str = "matrix") -> np.ndarray:
    """Validate Hermitianity entrywise and return the complex ndarray.

    ``matrix`` is one square matrix or a stack of them, shape (..., n, n).
    Every entry must be finite, and for each matrix H the deviation
    max |H - H*| must not exceed ``HERMITIAN_TOL * (1 + max |H|)``; a
    failing stack names the first failing element.
    """
    h = np.asarray(matrix, dtype=np.complex128)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"{what} must be a square matrix, got shape {h.shape}")
    if h.size == 0:
        raise ValueError(f"{what} must be non-empty")
    # stacks the package builds are exactly Hermitian; non-finite input
    # goes on below
    if _exactly_hermitian(h):
        return h
    with np.errstate(invalid="ignore"):  # inf - inf: reported below
        deviation = _per_matrix(h, lambda s: np.abs(_anti_hermitian(s)).max(axis=(-2, -1)))
    # each allowance is at least HERMITIAN_TOL
    if deviation.max() <= HERMITIAN_TOL:
        return h
    # a NaN or infinite entry makes its matrix's deviation NaN or infinite
    # (|H_ij - conj(H_ji)|, with inf - inf = NaN on the diagonal), and NaN
    # fails every comparison, so it is caught here, before the allowances
    bad = _first_failure(~np.isfinite(deviation))
    if bad is not None:
        entry = _first_failure(~np.isfinite(h[bad]))
        raise ValueError(
            f"{_element(what, bad)} has a non-finite entry {h[bad][entry]} at {entry}"
        )
    allowed = HERMITIAN_TOL * (1.0 + np.abs(h).max(axis=(-2, -1)))
    bad = _first_failure(deviation > allowed)
    if bad is not None:
        raise ValueError(
            f"{_element(what, bad)} is not Hermitian: max entry of |H - H*| is"
            f" {deviation[bad]:.3e} which exceeds the allowed {allowed[bad]:.3e}"
        )
    return h


def _family_stack(family, dim: int, what: str) -> np.ndarray:
    """One family, a sequence of (dim, dim) operators, or an array stack
    of families (..., A, dim, dim), as one Hermitian-checked array."""
    if len(family) == 0:
        raise ValueError(f"{what} must have at least one outcome")
    if not isinstance(family, np.ndarray):
        _require_shapes(family, dim, what)
    ops = require_hermitian(family, what)
    if ops.ndim < 3 or ops.shape[-1] != dim:
        raise ValueError(f"{what} has shape {ops.shape}, expected (..., A, {dim}, {dim})")
    return ops


def _require_unit_sum(ops: np.ndarray, what: str) -> None:
    excess = _first_excess(ops.sum(axis=-3) - np.eye(ops.shape[-1]), FAMILY_TOL)
    if excess:
        raise ValueError(
            f"{_element(what, excess[0], 'family')} does not sum to the identity:"
            f" ||sum - 1||_F = {excess[1]:.3e}"
        )


def require_pvm(family, dim: int, what: str | list[str] = "PVM") -> np.ndarray:
    """Validate a projection-valued family summing to the identity.

    ``family`` is one PVM, a sequence of (dim, dim) operators, or an
    array stack of PVMs, shape (..., A, dim, dim).  Each element must be
    Hermitian with ``||p^2 - p||_F <= FAMILY_TOL`` and each family must sum
    to the identity within ``FAMILY_TOL`` in Frobenius norm; a failure
    names the first failing element or family (a list ``what`` names each
    family).  Zero elements are allowed.  Returns the validated stack.
    """
    ops = _family_stack(family, dim, what)
    norms = _per_matrix(ops, lambda s: np.linalg.norm(s @ s - s, axis=(-2, -1)))
    bad = _first_failure(norms > FAMILY_TOL)
    if bad is not None:
        raise ValueError(
            f"{_element(what, bad)} is not a projection: ||p^2 - p||_F = {norms[bad]:.3e}"
        )
    _require_unit_sum(ops, what)
    return ops


def _shifted_cholesky_passes(ops: np.ndarray, shift: float) -> bool:
    """Whether every matrix of a stack plus ``shift`` times the identity
    has a finite Cholesky factor, from one stacked factorization per
    check slab.

    A pass means that each matrix is PSD down to -``shift``, up to the
    factorization's backward error (c n eps ||m|| for n x n matrices).
    The factor must be finite as well as found: OpenBLAS returns a NaN
    factor for NaN input without raising.  Each entry L_ik below the
    diagonal enters L_ii through |L_ik|^2, so the factor is finite when
    its diagonal is, and the diagonal is when its (positive) sum is."""
    eye = shift * np.eye(ops.shape[-1])
    for slab in _slabs(ops):
        try:
            factor = np.linalg.cholesky(slab + eye)
        except np.linalg.LinAlgError:
            return False
        if not np.isfinite(np.trace(factor.real, axis1=-2, axis2=-1).sum()):
            return False
    return True


def require_povm(family, dim: int, what: str = "POVM", decompose: bool = False):
    """Validate a positive family summing to the identity within FAMILY_TOL.

    ``family`` is one POVM, a sequence of (dim, dim) operators, or an
    array stack of POVMs, shape (..., A, dim, dim).  Every element must
    be PSD down to -FAMILY_TOL and every POVM must sum to the identity
    within FAMILY_TOL in Frobenius norm; a failure names the first failing
    element or POVM.  Returns the validated stack as one complex array,
    or with ``decompose`` its ``eigh``, whose eigenvalues then serve the
    PSD check, for a caller that goes on to a functional calculus.

    Without ``decompose`` the PSD check is a stacked Cholesky
    factorization of each element plus FAMILY_TOL times the identity, one
    per check slab; a finite factor passes.  Only when that fails does
    ``eigvalsh`` run, to decide with the least eigenvalues and name the
    first failing element.  The two agree except for a least eigenvalue
    within the factorization's backward error c n eps ||m|| below
    -FAMILY_TOL, which the factorization may accept.
    """
    ops = _family_stack(family, dim, what)
    if decompose:
        dec = eigh(ops, what)
        _require_psd(dec.eigenvalues[..., 0], what, FAMILY_TOL)
    elif not _shifted_cholesky_passes(ops, FAMILY_TOL):
        _require_psd(np.linalg.eigvalsh(ops)[..., 0], what, FAMILY_TOL)
    _require_unit_sum(ops, what)
    return dec if decompose else ops


@dataclass(eq=False)
class SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack.

    ``eigenvalues`` are ascending and ``eigenvectors`` holds the matching
    orthonormal columns; a stack holds stacked arrays, (..., n) and
    (..., n, n).  The eigenpairs are all there is: a caller that groups
    close eigenvalues does so with its own tolerance.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[-1]

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _phases(vectors: np.ndarray) -> np.ndarray:
    """The unit phase per column of one matrix or a stack (..., n, m) that
    makes its largest-magnitude component real positive (1 for a zero column).
    """
    top_row = np.argmax(np.abs(vectors), axis=-2)
    top = np.take_along_axis(vectors, top_row[..., None, :], axis=-2)[..., 0, :]
    size = np.abs(top)
    phase = np.ones_like(top)
    nonzero = size > 0
    phase[nonzero] = np.conj(top[nonzero]) / size[nonzero]
    return phase


def _require_factors(matrix, left, values, right, what, kind: str, bases) -> None:
    """Raise unless left diag(values) right* is ``matrix`` within DECOMP_TOL
    (1 + ||matrix||_F) and each (name, basis) of ``bases`` is orthonormal
    within DECOMP_TOL, in Frobenius norm, naming the first failing element.
    Every residual is formed slab by slab, as ``_per_matrix`` runs."""
    lead = matrix.shape[:-2]

    def named(start, index):
        if start is not None:
            index = tuple(int(i) for i in np.unravel_index(start + index[0], lead))
        return _element(what, index)

    for start, (m, u, w, v) in _slab_views(matrix, left, values[..., None, :], right):
        residual = (u * w) @ v.conj().swapaxes(-1, -2)
        residual -= m
        excess = _first_excess(residual, DECOMP_TOL, lambda: DECOMP_TOL * (1.0 + _frobenius(m)))
        if excess:
            raise ValueError(f"{kind} of {named(start, excess[0])} failed to reconstruct:"
                             f" residual {excess[1]:.3e}")
    for name, basis in bases:
        eye = np.eye(basis.shape[-1])
        for start, (b,) in _slab_views(basis):
            residual = b.conj().swapaxes(-1, -2) @ b
            residual -= eye
            excess = _first_excess(residual, DECOMP_TOL)
            if excess:
                raise ValueError(f"{name} of {named(start, excess[0])} are not orthonormal:"
                                 f" residual {excess[1]:.3e}")


def eigh(matrix, what: str = "matrix") -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix with deterministic phases.

    Returns eigenvalues ascending together with the unitary of
    eigenvectors.  A stack (..., n, n) is decomposed matrix by matrix
    into stacked eigenvalues and eigenvectors, each matrix checked with
    the same tolerances.  Raises ``ValueError`` on non-Hermitian input,
    reporting the violating entry norm, and on a decomposition that
    fails its guards: each matrix must be reconstructed within
    ``DECOMP_TOL * (1 + ||h||_F)`` and its eigenvectors must be
    orthonormal within ``DECOMP_TOL``, both in Frobenius norm, a failure
    naming the first failing element.
    """
    h = require_hermitian(matrix, what)
    w, v = np.linalg.eigh(h)
    v = v * _phases(v)[..., None, :]
    _require_factors(h, v, w, v, what, "eigendecomposition", [("eigenvectors", v)])
    return SpectralDecomposition(w, v)


def svd(matrix, what: str = "matrix") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M = U diag(s) V* of one (m, n) matrix, as (s, u, v) in ``eigh``'s order
    and phases: s ascends, zero-padded at the front to m, so (s^2, u) is the
    ``eigh`` of M M*; v is (n, m) with M v_j = s_j u_j, zero where s_j is
    padding.  Fails closed as ``eigh`` does: on a non-finite entry, naming
    it, and on factors that do not reconstruct M or are not orthonormal."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"{what} must be a non-empty matrix, got shape {m.shape}")
    bad = _first_failure(~np.isfinite(m))
    if bad is not None:
        raise ValueError(f"{what} has a non-finite entry {m[bad]} at {bad}")
    u, s, vh = np.linalg.svd(m)
    k = len(s)
    phase = _phases(u)
    u, v = u * phase, vh[:k].conj().T * phase[:k]
    _require_factors(m, u[:, :k], s, v, what, "singular value decomposition",
                     [("left singular vectors", u), ("right singular vectors", v)])
    s, v = np.pad(s, (0, len(u) - k)), np.pad(v, ((0, 0), (0, len(u) - k)))
    return s[::-1], u[:, ::-1], v[:, ::-1]


def functional_calculus(matrix) -> np.ndarray:
    """Square root of a PSD matrix, or of each matrix of a stack, spectrally.

    ``matrix`` is one (n, n) matrix, a stack (..., n, n), or their
    ``SpectralDecomposition``.  Eigenvalues in [-PSD_CLAMP, 0) are
    roundoff and map to 0; a lower one or a NaN is rejected, naming the
    first failing element of a stack.
    """
    dec = matrix if isinstance(matrix, SpectralDecomposition) else eigh(matrix)
    w = dec.eigenvalues
    _require_psd(w.min(axis=-1), "functional calculus input")
    v = dec.eigenvectors
    root = np.sqrt(np.clip(w, 0.0, None))
    return _hermitian_part((v * root[..., None, :]) @ v.conj().swapaxes(-1, -2))


def trace_pairing(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Table T[x, y, a, b] = Tr(p[x, a] q[y, b]) of two stacked families.

    ``p`` has shape (X, A, d, d) and ``q`` shape (Y, B, d, d); the result
    has shape (X, Y, A, B).  Tr(P Q) = sum_ij P_ij Q_ji, so the whole
    table is one product of the flattened ``p`` with the flattened,
    transposed ``q``.  A ``q`` with leading axes, (..., Y, B, d, d), gives
    one table per leading index, (..., X, Y, A, B): one such product per
    table, each table's entries contiguous as for a single table.
    """
    nx, na, d, _ = p.shape
    *lead, ny, nb = q.shape[:-2]
    q_flat = q.swapaxes(-1, -2).reshape(*lead, ny * nb, d * d).swapaxes(-1, -2)
    flat = p.reshape(nx * na, d * d) @ q_flat
    return flat.reshape(*lead, nx, na, ny, nb).swapaxes(-3, -2)
