"""Scaling-fiber model of non-commutative L_p spaces over (M_d, Tr).

A positive matrix x standing for an element of L_p is realized as the
operator-valued function u -> e^(u/p) x over the weight e^(-u) du.  Its
threshold projections chi_(1,inf)(x-hat) have fibers chi_(t,inf)(x)
under the substitution t = e^(-u/p), which turns every weight integral
into

    integral_0^inf p t^(p-1) Tr( . ) dt.

Every such integral here is a Schur kernel contracted in eigenbases.
With x = U diag(a) U+, y = V diag(b) V+ (eigenvalues as the solver
gives them, clipped at 0) and the overlap O_ij = |(U+ V)_ij|^2, the
projections chi_(t,inf)(x) and chi_(t,inf)(y) overlap in Tr = sum of
O_ij over the pairs with a_i > t and b_j > t, and the t-integral of
each pair has a closed form:

- chi distance: int 2t Tr((chi_t(x) - chi_t(y))^2) dt
  = sum_ij O_ij |a_i^2 - b_j^2|;
- joint spectral measure: one atom per eigenvector pair at
  a_i / (a_i + b_j) with mass O_ij (a_i + b_j)^2; atoms of repeated or
  close eigenvalues may share a position, since only sums over the
  atoms are ever taken;
- commutator with a PVM (p_k), p~_k = U+ p_k U and the weights
  W_ij = sum_k |p~_k[i, j]|^2:
  int 2t sum_k ||[p_k, chi_t(x)]||^2 dt = sum_ij W_ij |a_i^2 - a_j^2|,
  and on the same weights sum_k ||[p_k, x]||^2 = sum_ij W_ij (a_i - a_j)^2;
- trace duality: int p t^(p-1) Tr(x^(1-p) chi_t(x) y) dt = sum_i a_i <u_i, y u_i>,
  since p cancels in each exact term a_i^p a_i^(1-p) <u_i, y u_i>;
- threshold integral: int p t^(p-1) Tr(chi_t(x)) dt = sum_i a_i^p.

All integrals are evaluated exactly this way; quadrature, the
per-breakpoint sums, the per-atom integral and the direct commutator
products appear only as test oracles.

The module provides the joint spectral measure of a positive pair, its
moment functionals, the squared L_2 distance of threshold projections,
the two-sided comparison between that distance and the L_2 distance of
the operators themselves, the commutator comparison for partitions of
unity, and the trace duality check between conjugate exponents.

Every function takes one matrix or a stack (N, d, d) of them, and any
matrix argument may be passed as its ``SpectralDecomposition`` instead,
so that a caller eigensolving once can evaluate several integrals.  One
matrix gives Python floats and bools; a stack gives arrays of shape
(N,) in the same dataclasses, and a failing element of a stack is named
by its index.

A caller that passes the same matrix to several certificates gets it
eigensolved once: the eigendecompositions of the last
``SPECTRUM_MEMO_SIZE`` = 4 matrix operands (2-D arrays) are kept.  An
entry matches only the same array object, held by a weak reference,
while its content still equals the entry's private complex copy (shape
first, then ``np.array_equal``), so an equal copy, an array mutated in
place and any NaN entry miss.  Entries are read-only, the least
recently used is dropped first, and a hit still runs the PSD check
under the caller's label.  ``lp_duality_check`` reads the least
eigenvalue of a y the memo holds from its entry, and that of a y passed
as its decomposition from the decomposition, instead of solving
``eigvalsh`` again.  The memo holds up to 4 x (copy +
eigenvectors), about 1.2 MB at d = 96.  A stack, whose copy would grow
with N, and a ``SpectralDecomposition`` argument bypass it: a caller
reusing a stack passes its decomposition.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .spectral import (
    CHAIN_SLACK,
    IDENTITY_TOL,
    NORMED_TOL,
    SpectralDecomposition,
    _element,
    _first_failure,
    _require_psd,
    _unstack,
    eigh,
    require_hermitian,
    require_pvm,
)

__all__ = [
    "JointSpectralMeasure",
    "MeasureMoments",
    "ConnesCertificate",
    "CommutatorCertificate",
    "joint_spectral_measure",
    "measure_moments",
    "threshold_chi_distance",
    "connes_certificate",
    "commutator_certificate",
    "lp_duality_check",
    "threshold_integral",
]


def _matrix(x) -> np.ndarray:
    """x as a complex array: the input, or a decomposition rebuilt."""
    if isinstance(x, SpectralDecomposition):
        return x.reconstruct()
    return np.asarray(x, dtype=complex)


def _trace_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re Tr(x y) of every matrix pair of two stacks."""
    return np.einsum("...ij,...ji->...", x, y).real


SPECTRUM_MEMO_SIZE = 4  # about one fiber op's operands: x, y and the unit x


class _SpectrumMemo:
    """The eigendecompositions of the last few matrix operands, least
    recently used first; see the module docstring for what matches.

    Lookups and inserts hold a lock, so pool threads may share it; the
    eigensolve of a miss runs outside the lock.
    """

    def __init__(self):
        self._entries: OrderedDict[int, tuple] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def lookup(self, matrix) -> SpectralDecomposition | None:
        """The held decomposition of a matrix operand, or None."""
        if not isinstance(matrix, np.ndarray) or matrix.ndim != 2:
            return None
        key = id(matrix)
        with self._lock:
            entry = self._entries.get(key)
            if (
                entry is not None
                and entry[0]() is matrix
                and matrix.shape == entry[1].shape
                and np.array_equal(matrix, entry[1])
            ):
                self._entries.move_to_end(key)
                return entry[2]
        return None

    def decompose(self, matrix, what: str) -> SpectralDecomposition:
        if not isinstance(matrix, np.ndarray) or matrix.ndim != 2:
            return eigh(matrix, what)
        dec = self.lookup(matrix)
        if dec is not None:
            return dec
        key = id(matrix)
        copy = np.array(matrix, dtype=complex)
        dec = eigh(copy, what)
        for array in (copy, dec.eigenvalues, dec.eigenvectors):
            array.flags.writeable = False
        with self._lock:
            self._entries[key] = (weakref.ref(matrix), copy, dec)
            self._entries.move_to_end(key)
            while len(self._entries) > SPECTRUM_MEMO_SIZE:
                self._entries.popitem(last=False)
        return dec


_SPECTRA = _SpectrumMemo()


def _psd_spectrum(matrix, what: str) -> tuple[np.ndarray, SpectralDecomposition]:
    """Eigenvalues of a PSD matrix or stack (ascending, clipped at 0); a
    matrix operand is eigensolved through the memo."""
    dec = matrix if isinstance(matrix, SpectralDecomposition) else _SPECTRA.decompose(matrix, what)
    _require_psd(dec.eigenvalues[..., 0], what)
    return np.clip(dec.eigenvalues, 0.0, None), dec


def _require_in_range(a, what: str, limit: float) -> None:
    """Raise unless every matrix's largest eigenvalue is at most ``limit``."""
    top = a[..., -1]
    bad = _first_failure(~(top <= limit))
    if bad is not None:
        raise ValueError(f"{_element(what, bad)} is past the float range of the fiber"
                         f" integrals: largest eigenvalue {top[bad]:.3e} exceeds {limit:.3e}")


def _psd_pair(x, y):
    """Spectra of a PSD pair and the overlap O_ij = |<u_i, v_j>|^2."""
    a, xdec = _psd_spectrum(x, "x")
    b, ydec = _psd_spectrum(y, "y")
    if xdec.eigenvectors.shape != ydec.eigenvectors.shape:
        raise ValueError(
            f"dimension mismatch: x has shape {xdec.eigenvectors.shape},"
            f" y has shape {ydec.eigenvectors.shape}"
        )
    # every sum taken of the pair is at most Tr((x + y)^2) <= d (a_max + b_max)^2
    limit = np.sqrt(np.finfo(float).max / xdec.dim) / 2
    _require_in_range(a, "x", limit)
    _require_in_range(b, "y", limit)
    overlap = np.abs(xdec.eigenvectors.conj().swapaxes(-1, -2) @ ydec.eigenvectors) ** 2
    return a, b, overlap


@dataclass(eq=False)
class JointSpectralMeasure:
    """Finite atomic measure on [0, 1] attached to a positive pair.

    For PSD x, y it is the unique finite measure mu with

        tau(f(x-hat) g(y-hat)) =
            int_0^1 int_0^inf f(l / sqrt(r)) g((1 - l) / sqrt(r)) dr dmu(l)

    for Borel f, g >= 0 with f(0) g(0) = 0, where x-hat, y-hat are the
    scaling-fiber realizations.  Atoms sit at l = a / (a + b), one per
    pair of eigenvectors (u, v) of x and y with eigenvalues (a, b) and
    positive mass |<u, v>|^2 (a + b)^2; atoms may share a position.

    The measure of one pair holds 1-d arrays of its atoms, in row-major
    order of the eigenvector pairs.  The measures of a stack hold one
    row of d^2 entries per pair; an entry of mass 0 in a row is
    padding, not an atom.
    """

    lambdas: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.masses = np.asarray(self.masses, dtype=float)
        if self.lambdas.shape != self.masses.shape or self.lambdas.ndim not in (1, 2):
            raise ValueError("atoms must be parallel 1-d arrays, or rows of a stack")
        if self.lambdas.size and (
            float(self.lambdas.min()) < 0 or float(self.lambdas.max()) > 1
        ):
            raise ValueError("atom positions must lie in [0, 1]")
        # only the rows of a stack pad with zero masses
        positive = self.masses >= 0 if self.masses.ndim == 2 else self.masses > 0
        if not positive.all():
            raise ValueError("atom masses must be positive")

    @property
    def total_mass(self):
        return _unstack(self.masses.sum(axis=-1))


def joint_spectral_measure(x, y) -> JointSpectralMeasure:
    """Joint spectral measure of a PSD pair in the fiber model.

    One atom per eigenvector pair (u_i, v_j) at a_i / (a_i + b_j) with
    mass O_ij (a_i + b_j)^2, where O_ij = |<u_i, v_j>|^2; a pair of mass
    0 (the (0, 0) pair, or orthogonal eigenvectors) carries no atom.
    Atoms are not merged, so several may sit at one position.  The total
    mass is validated against Tr((x + y)^2).
    """
    a, b, overlap = _psd_pair(x, y)
    s = a[..., :, None] + b[..., None, :]
    rows = s.shape[:-2] + (-1,)
    lam = (a[..., :, None] / np.where(s > 0, s, 1.0)).reshape(rows)
    mass = (overlap * s * s).reshape(rows)
    atoms = mass > 0 if mass.ndim == 1 else ...  # a stack's rows keep every pair
    measure = JointSpectralMeasure(lam[atoms], mass[atoms])
    xm, ym = _matrix(x), _matrix(y)
    expected = _trace_product(xm + ym, xm + ym)
    total = measure.masses.sum(axis=-1)
    bad = _first_failure(np.abs(total - expected) > IDENTITY_TOL * (1.0 + expected))
    if bad is not None:
        raise ValueError(
            f"{_element('total mass', bad, 'of pair')} {total[bad].item()!r} does not"
            f" match Tr((x+y)^2) = {expected[bad].item()!r}"
        )
    return measure


@dataclass(eq=False)
class MeasureMoments:
    """The four moment functionals of a joint spectral measure: floats
    for one pair, arrays of shape (N,) for a stack."""

    norm_x_sq: float | np.ndarray
    norm_y_sq: float | np.ndarray
    chi_distance: float | np.ndarray
    inner_product: float | np.ndarray


def measure_moments(measure: JointSpectralMeasure) -> MeasureMoments:
    """Exact atom sums of l^2, (1-l)^2, |2l - 1| and l(1-l)."""
    l, m = measure.lambdas, measure.masses
    return MeasureMoments(
        norm_x_sq=_unstack(np.sum(m * l**2, axis=-1)),
        norm_y_sq=_unstack(np.sum(m * (1 - l) ** 2, axis=-1)),
        chi_distance=_unstack(np.sum(m * np.abs(2 * l - 1), axis=-1)),
        inner_product=_unstack(np.sum(m * l * (1 - l), axis=-1)),
    )


def threshold_chi_distance(x, y):
    """Squared L_2(tau) distance of the threshold projections.

    In the fiber model this is

        int_0^inf 2 t Tr( (chi_(t,inf)(x) - chi_(t,inf)(y))^2 ) dt.

    O is doubly stochastic, so an eigenpair (i, j) contributes O_ij to
    the integrand while exactly one of a_i, b_j exceeds t, and the
    integral is exactly sum_ij O_ij |a_i^2 - b_j^2|, which equals
    Tr x^2 + Tr y^2 - 2 sum_ij O_ij min(a_i, b_j)^2.
    """
    a, b, overlap = _psd_pair(x, y)
    gaps = np.abs(a[..., :, None] ** 2 - b[..., None, :] ** 2)
    return _unstack(np.sum(overlap * gaps, axis=(-2, -1)))


@dataclass(eq=False)
class ConnesCertificate:
    """Two-sided comparison for a PSD pair:

    ||x - y||^2 <= ||chi(x-hat) - chi(y-hat)||^2_L2(tau)
                <= ||x - y|| ||x + y||.

    Floats and a bool for one pair, arrays of shape (N,) for a stack.
    """

    lhs: float | np.ndarray
    mid: float | np.ndarray
    rhs: float | np.ndarray
    holds: bool | np.ndarray


def connes_certificate(x, y) -> ConnesCertificate:
    mid = threshold_chi_distance(x, y)  # first: it names a shape mismatch
    xm, ym = _matrix(x), _matrix(y)
    diff = np.linalg.norm(xm - ym, axis=(-2, -1))
    lhs = diff**2
    rhs = diff * np.linalg.norm(xm + ym, axis=(-2, -1))
    holds = (lhs <= mid + CHAIN_SLACK) & (mid <= rhs + CHAIN_SLACK)
    return ConnesCertificate(_unstack(lhs), mid, _unstack(rhs), _unstack(holds))


@dataclass(eq=False)
class CommutatorCertificate:
    """Commutator chain for a unit vector x of L_2 and a PVM (p_k):

    sum_k ||[p_k, x]||^2 <= sum_k ||[p_k, chi(x-hat)]||^2_L2(tau)
                         <= 2 (sum_k ||[p_k, x]||^2)^(1/2).

    Both sums are one kernel on the weights W_ij = sum_k |<u_i, p_k u_j>|^2
    over x's eigenvectors, (a_i - a_j)^2 and |a_i^2 - a_j^2|.  For a >= 0
    the first is at most the second term by term, so the first link holds
    by construction; the second carries the content.

    Floats and a bool for one x, arrays of shape (N,) for a stack.
    """

    sum_comm_x: float | np.ndarray
    sum_comm_q: float | np.ndarray
    upper: float | np.ndarray
    holds: bool | np.ndarray


def commutator_certificate(x, pvm) -> CommutatorCertificate:
    """The commutator chain of x, or of each matrix of a stack (N, d, d)
    with the matching PVM of a stack (N, K, d, d)."""
    a, xdec = _psd_spectrum(x, "x")
    xm = _matrix(x)
    norm_sq = _trace_product(xm, xm)
    bad = _first_failure(np.abs(norm_sq - 1.0) > NORMED_TOL)
    if bad is not None:
        raise ValueError(
            f"{_element('x', bad)} must satisfy Tr(x^2) = 1, got {norm_sq[bad].item()!r}"
        )
    ops = require_pvm(pvm, xdec.dim)
    if ops.shape[:-3] != xm.shape[:-2]:
        raise ValueError(f"stack mismatch: x has shape {xm.shape}, pvm has shape {ops.shape}")
    # one kernel on W_ij = sum_k |p~_k[i, j]|^2: [p, x] has entries
    # p~_ij (a_j - a_i) in x's eigenbasis, and ||[p, chi_t(x)]||^2 sums
    # |p~_ij|^2 over the pairs split by t, whose int 2t dt is |a_i^2 - a_j^2|
    u = xdec.eigenvectors[..., None, :, :]
    weights = np.sum(np.abs(u.conj().swapaxes(-1, -2) @ ops @ u) ** 2, axis=-3)
    sum_comm_x = np.sum(weights * (a[..., :, None] - a[..., None, :]) ** 2, axis=(-2, -1))
    gaps = np.abs(a[..., :, None] ** 2 - a[..., None, :] ** 2)
    sum_comm_q = np.sum(weights * gaps, axis=(-2, -1))
    upper = 2.0 * np.sqrt(sum_comm_x)
    holds = (sum_comm_x <= sum_comm_q + CHAIN_SLACK) & (sum_comm_q <= upper + CHAIN_SLACK)
    return CommutatorCertificate(*map(_unstack, (sum_comm_x, sum_comm_q, upper, holds)))


def lp_duality_check(x, y, p: float):
    """Residual of the trace duality between conjugate exponents.

    For PSD x (as an L_p element) and y (as an L_p' element),

        Tr(x y) = int_0^inf p t^(p-1) Tr( x^(1-p) chi_(t,inf)(x) y ) dt.

    The eigenvector u_i of x contributes a_i^p a_i^(1-p) <u_i, y u_i>, in
    which p cancels: the right side is sum_i a_i <u_i, y u_i>, summed with
    no power of a_i.  Returns |lhs - rhs|.
    """
    if not 1 < p < np.inf:  # NaN fails too
        raise ValueError(f"exponent must be finite with p > 1, got {p!r}")
    a, xdec = _psd_spectrum(x, "x")
    # a y passed decomposed or held by the memo has its least eigenvalue already
    ydec = y if isinstance(y, SpectralDecomposition) else _SPECTRA.lookup(y)
    ym = y.reconstruct() if ydec is y else require_hermitian(y, "y")
    low = ydec.eigenvalues[..., 0] if ydec is not None else np.linalg.eigvalsh(ym)[..., 0]
    _require_psd(low, "y")
    if ym.shape != xdec.eigenvectors.shape:
        raise ValueError(
            f"dimension mismatch: x has shape {xdec.eigenvectors.shape},"
            f" y has shape {ym.shape}"
        )
    lhs = _trace_product(_matrix(x), ym)
    u = xdec.eigenvectors
    rhs = np.sum(a * np.sum(u.conj() * (ym @ u), axis=-2).real, axis=-1)
    return _unstack(np.abs(lhs - rhs))


def threshold_integral(x, p: float):
    """Exact weight integral int_0^inf p t^(p-1) Tr(chi_(t,inf)(x)) dt.

    Equals Tr(x^p) = sum_i a_i^p over the whole spectrum of PSD x,
    clipped at 0; with p = 1 and a unit-trace density this is the
    normalization of the fiber weight.
    """
    if not 1 <= p < np.inf:  # NaN fails too
        raise ValueError(f"exponent must be finite with p >= 1, got {p!r}")
    a, dec = _psd_spectrum(x, "x")
    _require_in_range(a, "x", (np.finfo(float).max / dec.dim) ** (1.0 / p))
    return _unstack(np.sum(a**p, axis=-1))
