"""Dense Hermitian spectral calculus.

Eigendecomposition with a deterministic phase convention and clustered
eigenvalues, functional calculus for positive semidefinite matrices,
the trace pairing of two stacked operator families, and the matrix
validation helpers (Hermitian / PVM / POVM) shared by the rest of the
package.  Everything works on plain complex numpy arrays at desk scale
(dense, dimension up to a few hundred).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HERMITIAN_TOL",
    "DECOMP_TOL",
    "MERGE_TOL_SCALE",
    "PSD_CLAMP",
    "PVM_TOL",
    "POVM_TOL",
    "SpectralDecomposition",
    "require_hermitian",
    "require_pvm",
    "require_povm",
    "eigh",
    "functional_calculus",
    "trace_pairing",
]

HERMITIAN_TOL = 1e-12     # relative entrywise Hermitianity tolerance
DECOMP_TOL = 1e-10        # reconstruction / orthonormality tolerance
MERGE_TOL_SCALE = 1e-9    # eigenvalue clustering: tol = scale * (1 + spectral radius)
PSD_CLAMP = 1e-10         # eigenvalues in [-PSD_CLAMP, 0) are clamped to 0
PVM_TOL = 1e-8            # projection / partition-of-unity tolerance (Frobenius)
POVM_TOL = 1e-8


def require_hermitian(matrix, what: str = "matrix") -> np.ndarray:
    """Validate Hermitianity entrywise and return the complex ndarray.

    The deviation max |H - H*| must not exceed
    ``HERMITIAN_TOL * (1 + max |H|)``.
    """
    h = np.asarray(matrix, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {h.shape}")
    if h.size == 0:
        raise ValueError(f"{what} must be non-empty")
    scale = float(np.abs(h).max())
    deviation = float(np.abs(h - h.conj().T).max())
    allowed = HERMITIAN_TOL * (1.0 + scale)
    if deviation > allowed:
        raise ValueError(
            f"{what} is not Hermitian: max entry of |H - H*| is {deviation:.3e}"
            f" which exceeds the allowed {allowed:.3e}"
        )
    return h


def require_pvm(family, dim: int, what: str = "PVM") -> list[np.ndarray]:
    """Validate a projection-valued family summing to the identity.

    Each element must be Hermitian with ``||p^2 - p||_F <= PVM_TOL`` and
    the family must sum to the identity within ``PVM_TOL`` in Frobenius
    norm.  Zero elements are allowed.
    """
    if len(family) == 0:
        raise ValueError(f"{what} must have at least one outcome")
    ops = []
    for k, p in enumerate(family):
        p = require_hermitian(p, f"{what} element {k}")
        if p.shape != (dim, dim):
            raise ValueError(
                f"{what} element {k} has shape {p.shape}, expected {(dim, dim)}"
            )
        idem = float(np.linalg.norm(p @ p - p))
        if idem > PVM_TOL:
            raise ValueError(
                f"{what} element {k} is not a projection: ||p^2 - p||_F = {idem:.3e}"
            )
        ops.append(p)
    total = sum(ops)
    dev = float(np.linalg.norm(total - np.eye(dim)))
    if dev > PVM_TOL:
        raise ValueError(
            f"{what} does not sum to the identity: ||sum - 1||_F = {dev:.3e}"
        )
    return ops


def require_povm(family, dim: int, what: str = "POVM") -> list[np.ndarray]:
    """Validate a positive family summing to the identity within POVM_TOL."""
    if len(family) == 0:
        raise ValueError(f"{what} must have at least one outcome")
    ops = []
    for k, m in enumerate(family):
        m = require_hermitian(m, f"{what} element {k}")
        if m.shape != (dim, dim):
            raise ValueError(
                f"{what} element {k} has shape {m.shape}, expected {(dim, dim)}"
            )
        low = float(np.linalg.eigvalsh(m).min())
        if low < -POVM_TOL:
            raise ValueError(
                f"{what} element {k} is not PSD: min eigenvalue {low:.3e}"
            )
        ops.append(m)
    dev = float(np.linalg.norm(sum(ops) - np.eye(dim)))
    if dev > POVM_TOL:
        raise ValueError(
            f"{what} does not sum to the identity: ||sum - 1||_F = {dev:.3e}"
        )
    return ops


@dataclass(eq=False)
class SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are ascending, ``eigenvectors`` holds the matching
    orthonormal columns, and ``clusters`` partitions the indices into
    groups of eigenvalues equal within ``merge_tol``, ordered so that the
    cluster representatives are strictly decreasing.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    merge_tol: float

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def clusters(self) -> tuple[np.ndarray, ...]:
        return _cluster_indices(self.eigenvalues, self.merge_tol)

    def cluster_values(self) -> np.ndarray:
        """Representative (mean) eigenvalue per cluster, strictly decreasing."""
        return self._cluster_means()[0][::-1]

    def cluster_levels(self) -> np.ndarray:
        """Each eigenvalue replaced by its cluster's value, ascending."""
        return np.repeat(*self._cluster_means())

    def _cluster_means(self) -> tuple[np.ndarray, np.ndarray]:
        starts = _cluster_starts(self.eigenvalues, self.merge_tol)
        sizes = np.diff(starts, append=self.dim)
        return np.add.reduceat(self.eigenvalues, starts) / sizes, sizes

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column real positive."""
    top = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    size = np.abs(top)
    phase = np.ones_like(top)
    nonzero = size > 0
    phase[nonzero] = np.conj(top[nonzero]) / size[nonzero]
    return vectors * phase


def _cluster_starts(values: np.ndarray, tol: float) -> np.ndarray:
    """First index of each cluster of an ascending spectrum: consecutive
    eigenvalues within ``tol`` chain into one cluster, whatever its span."""
    return np.flatnonzero(np.diff(values, prepend=-np.inf) > tol)


def _cluster_indices(values: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    # values ascending, clusters reported by decreasing representative
    groups = np.split(np.arange(values.size), _cluster_starts(values, tol))[1:]
    return tuple(groups[::-1])


def eigh(matrix, what: str = "matrix") -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix with deterministic phases.

    Returns eigenvalues ascending together with the unitary of
    eigenvectors and the degenerate clusters.  Raises ``ValueError`` on
    non-Hermitian input, reporting the violating entry norm.
    """
    h = require_hermitian(matrix, what)
    w, v = np.linalg.eigh(h)
    v = _fix_phases(v)
    radius = float(np.abs(w).max()) if w.size else 0.0
    tol = MERGE_TOL_SCALE * (1.0 + radius)
    dec = SpectralDecomposition(w, v, tol)
    recon = float(np.linalg.norm(dec.reconstruct() - h))
    if recon > DECOMP_TOL * (1.0 + float(np.linalg.norm(h))):
        raise ValueError(
            f"eigendecomposition of {what} failed to reconstruct: residual {recon:.3e}"
        )
    ortho = float(np.linalg.norm(v.conj().T @ v - np.eye(h.shape[0])))
    if ortho > DECOMP_TOL:
        raise ValueError(
            f"eigenvectors of {what} are not orthonormal: residual {ortho:.3e}"
        )
    return dec


def functional_calculus(matrix, kind: str) -> np.ndarray:
    """Apply a named scalar function to a PSD matrix spectrally.

    Supported kinds:

    - ``"sqrt"``: eigenvalue square root; input must be PSD up to clamp.
    - ``"pinv_sqrt"``: Moore-Penrose inverse square root; eigenvalues
      below the zero clamp map to 0.
    """
    dec = matrix if isinstance(matrix, SpectralDecomposition) else eigh(matrix)
    w = dec.eigenvalues
    if float(w.min()) < -PSD_CLAMP:
        raise ValueError(
            "functional calculus input is not positive semidefinite: min"
            f" eigenvalue {float(w.min()):.3e} is below the clamp -{PSD_CLAMP:.0e}"
        )
    w = np.clip(w, 0.0, None)
    if kind == "sqrt":
        vals = np.sqrt(w)
    elif kind == "pinv_sqrt":
        vals = np.zeros_like(w)
        mask = w >= PSD_CLAMP
        vals[mask] = w[mask] ** -0.5
    else:
        raise ValueError(f"unknown functional calculus kind {kind!r}")
    out = (dec.eigenvectors * vals) @ dec.eigenvectors.conj().T
    return (out + out.conj().T) / 2


def trace_pairing(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Table T[x, y, a, b] = Tr(p[x, a] q[y, b]) of two stacked families.

    ``p`` has shape (X, A, d, d) and ``q`` shape (Y, B, d, d); the result
    has shape (X, Y, A, B).  Tr(P Q) = sum_ij P_ij Q_ji, so the whole
    table is one product of the flattened ``p`` with the flattened,
    transposed ``q``.
    """
    nx, na, d, _ = p.shape
    ny, nb = q.shape[:2]
    flat = p.reshape(nx * na, d * d) @ q.swapaxes(-1, -2).reshape(ny * nb, d * d).T
    return flat.reshape(nx, na, ny, nb).transpose(0, 2, 1, 3)
