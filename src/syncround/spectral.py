"""Dense Hermitian spectral calculus.

Eigendecomposition with a deterministic phase convention and clustered
eigenvalues, the square root of positive semidefinite matrices,
the trace pairing of two stacked operator families, and the matrix
validation helpers (Hermitian / PVM / POVM) shared by the rest of the
package.  Everything works on plain complex numpy arrays at desk scale
(dense, dimension up to a few hundred).
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
    "functional_calculus",
    "trace_pairing",
]

# The tolerance policy of the package: every threshold a check uses, with
# what it guards.  Every other module imports its thresholds from here.
HERMITIAN_TOL = 1e-12     # |H - H*| entrywise, per unit of 1 + max |H|
DECOMP_TOL = 1e-10        # eigh reconstruction (per unit of 1 + ||h||_F), orthonormality
MERGE_TOL_SCALE = 1e-9    # eigenvalues closer than this times 1 + spectral radius cluster
PSD_CLAMP = 1e-10         # eigenvalues in [-PSD_CLAMP, 0) are roundoff and clamped to 0
FAMILY_TOL = 1e-8         # PVM / POVM: ||p^2 - p||_F, ||sum - 1||_F and POVM min eigenvalue
UNIT_TOL = 1e-10          # unit norm of a state, unit sum of block weights, unit trace of rho
TABLE_TOL = 1e-8          # correlations: block sums, imaginary residue, sync cross terms, value
TABLE_NEG_TOL = 1e-10     # negative roundoff a correlation entry may carry
NU_SUM_TOL = 1e-12        # total mass of a validated nu
NU_RENORM_TOL = 1e-9      # a game file's nu mass within this of 1 is renormalized
IDENTITY_TOL = 1e-9       # closed forms: symmetrized sums, corner weights, mass, moments
MASS_DROP_TOL = 1e-12     # eigenpairs of smaller overlap carry no atom of the joint measure
LAMBDA_MERGE_TOL = 1e-12  # atoms of the joint measure closer than this merge
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


def _first_excess(residual: np.ndarray, floor: float, allowed=None):
    """(index, norm) of the first matrix of a stack whose Frobenius norm
    exceeds its allowance, or None.

    Every allowance is at least ``floor`` and no matrix's norm exceeds
    the whole array's, so one norm accepts the stack; only past that are
    per-matrix norms and the allowances ``allowed()`` (default ``floor``)
    computed.
    """
    if np.linalg.norm(residual) <= floor:
        return None
    norms = np.linalg.norm(residual, axis=(-2, -1))
    bad = _first_failure(norms > (floor if allowed is None else allowed()))
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
    stack) is at least -``floor``, naming the first failing element."""
    bad = _first_failure(low < -floor)
    if bad is not None:
        raise ValueError(f"{_element(what, bad)} is not PSD: min eigenvalue {low[bad]:.3e}")


def _require_shapes(ops, dim: int, what: str) -> None:
    """Raise unless every element of the sequence ``ops`` is (dim, dim)."""
    for k, op in enumerate(ops):
        if np.shape(op) != (dim, dim):
            raise ValueError(f"{what} element {k} has shape {np.shape(op)}, expected {(dim, dim)}")


def _slabs(stack: np.ndarray) -> list[np.ndarray]:
    """The matrices of a stack, CHECK_SLAB_BYTES at a time: larger
    temporaries make malloc return memory to the OS and refault it."""
    flat = stack.reshape((-1,) + stack.shape[-2:])
    if flat.nbytes <= CHECK_SLAB_BYTES:
        return [flat]
    step = max(1, CHECK_SLAB_BYTES // flat[0].nbytes)
    return [flat[i : i + step] for i in range(0, len(flat), step)]


def _per_matrix(stack: np.ndarray, reduce) -> np.ndarray:
    """``reduce`` of each matrix of a stack, run slab by slab."""
    slabs = [reduce(slab) for slab in _slabs(stack)]
    return np.concatenate(slabs).reshape(stack.shape[:-2])


def _anti_hermitian(stack: np.ndarray) -> np.ndarray:
    return stack - stack.conj().swapaxes(-1, -2)


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
    with np.errstate(invalid="ignore"):  # inf - inf: reported below
        # stacks the package builds are exactly Hermitian, so H - H* is zero
        # everywhere; a NaN or infinite entry makes it NaN or infinite
        # (inf - inf is NaN), so non-finite input goes on below
        if not any(_anti_hermitian(slab).any() for slab in _slabs(h)):
            return h
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


def require_povm(family, dim: int, what: str = "POVM", decompose: bool = False):
    """Validate a positive family summing to the identity within FAMILY_TOL.

    ``family`` is one POVM, a sequence of (dim, dim) operators, or an
    array stack of POVMs, shape (..., A, dim, dim).  Every element must
    be PSD down to -FAMILY_TOL and every POVM must sum to the identity
    within FAMILY_TOL in Frobenius norm; a failure names the first failing
    element or POVM.  Returns the validated stack as one complex array,
    or with ``decompose`` its ``eigh``, whose eigenvalues then serve the
    PSD check, for a caller that goes on to a functional calculus.
    """
    ops = _family_stack(family, dim, what)
    dec = eigh(ops, what) if decompose else None
    low = (dec.eigenvalues if decompose else np.linalg.eigvalsh(ops))[..., 0]
    _require_psd(low, what, FAMILY_TOL)
    _require_unit_sum(ops, what)
    return dec if decompose else ops


@dataclass(eq=False)
class SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are ascending and ``eigenvectors`` holds the matching
    orthonormal columns.  Consecutive eigenvalues within ``merge_tol``
    chain into one cluster, represented by its mean.  The decomposition
    of a stack holds stacked arrays and one ``merge_tol`` per matrix;
    ``cluster_levels`` takes either, ``cluster_values`` one matrix.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    merge_tol: float

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[-1]

    def cluster_values(self) -> np.ndarray:
        """Representative (mean) eigenvalue per cluster, strictly decreasing."""
        return self._cluster_means()[0][::-1]

    def cluster_levels(self) -> np.ndarray:
        """Each eigenvalue replaced by its cluster's value, ascending; of
        every matrix of a stack, shape (..., n)."""
        return np.repeat(*self._cluster_means()).reshape(self.eigenvalues.shape)

    def _cluster_means(self) -> tuple[np.ndarray, np.ndarray]:
        """Cluster means and sizes over the flattened spectra: every row
        of a stack starts a new cluster, so no cluster spans two matrices
        and a row's means are those of its matrix alone."""
        values = self.eigenvalues
        starts = _cluster_starts(values, np.asarray(self.merge_tol)[..., None])
        sizes = np.diff(starts, append=values.size)
        return np.add.reduceat(values.reshape(-1), starts) / sizes, sizes

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column real positive.

    ``vectors`` is one matrix or a stack (..., n, m), read by flat index:
    entry (i, j) of matrix b sits at b n m + i m + j.
    """
    rows, cols = vectors.shape[-2:]
    top_row = np.argmax(np.abs(vectors), axis=-2)
    flat = top_row * cols + np.arange(cols)
    if vectors.ndim > 2:
        flat += np.arange(0, vectors.size, rows * cols).reshape(flat.shape[:-1] + (1,))
    top = vectors.reshape(-1)[flat]
    size = np.abs(top)
    phase = np.ones_like(top)
    nonzero = size > 0
    phase[nonzero] = np.conj(top[nonzero]) / size[nonzero]
    return vectors * phase[..., None, :]


def _cluster_starts(values: np.ndarray, tol) -> np.ndarray:
    """First (flat) index of each cluster of an ascending spectrum, or of
    each row of a stack with one ``tol`` per row, shape (..., 1):
    consecutive eigenvalues within ``tol`` chain into one cluster,
    whatever its span."""
    return np.flatnonzero(np.diff(values, prepend=-np.inf) > tol)


def eigh(matrix, what: str = "matrix") -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix with deterministic phases.

    Returns eigenvalues ascending together with the unitary of
    eigenvectors.  A stack (..., n, n) is decomposed matrix by matrix
    into stacked eigenvalues and eigenvectors, each matrix checked with
    the same tolerances and with its own merge tolerance.  Raises
    ``ValueError`` on non-Hermitian input, reporting the violating
    entry norm, and on a decomposition that fails its guards: each
    matrix must be reconstructed within ``DECOMP_TOL * (1 + ||h||_F)``
    and its eigenvectors must be orthonormal within ``DECOMP_TOL``, both
    in Frobenius norm, a failure naming the first failing element.
    """
    h = require_hermitian(matrix, what)
    w, v = np.linalg.eigh(h)
    v = _fix_phases(v)
    vh = v.conj().swapaxes(-1, -2)
    # residuals formed in place: each stack-sized temporary costs page faults
    residual = (v * w[..., None, :]) @ vh
    residual -= h
    excess = _first_excess(
        residual, DECOMP_TOL, lambda: DECOMP_TOL * (1.0 + np.linalg.norm(h, axis=(-2, -1)))
    )
    if excess:
        raise ValueError(
            f"eigendecomposition of {_element(what, excess[0])} failed to"
            f" reconstruct: residual {excess[1]:.3e}"
        )
    residual = vh @ v
    residual -= np.eye(h.shape[-1])
    excess = _first_excess(residual, DECOMP_TOL)
    if excess:
        raise ValueError(
            f"eigenvectors of {_element(what, excess[0])} are not orthonormal:"
            f" residual {excess[1]:.3e}"
        )
    tol = MERGE_TOL_SCALE * (1.0 + np.abs(w).max(axis=-1))
    return SpectralDecomposition(w, v, float(tol) if tol.ndim == 0 else tol)


def functional_calculus(matrix) -> np.ndarray:
    """Square root of a PSD matrix, or of each matrix of a stack, spectrally.

    ``matrix`` is one (n, n) matrix, a stack (..., n, n), or their
    ``SpectralDecomposition``.  Eigenvalues in [-PSD_CLAMP, 0) are
    roundoff and map to 0; a lower one is rejected, naming the first
    failing element of a stack.
    """
    dec = matrix if isinstance(matrix, SpectralDecomposition) else eigh(matrix)
    w = dec.eigenvalues
    _require_psd(w[..., 0], "functional calculus input")
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
