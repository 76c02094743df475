"""Scaling-fiber model of non-commutative L_p spaces over (M_d, Tr).

A positive matrix x standing for an element of L_p is realized as the
operator-valued function u -> e^(u/p) x over the weight e^(-u) du.  Its
threshold projections chi_(1,inf)(x-hat) have fibers chi_(t,inf)(x)
under the substitution t = e^(-u/p), which turns every weight integral
into

    integral_0^inf p t^(p-1) Tr( . ) dt.

Every such integral here is a Schur kernel contracted in eigenbases.
With x = U diag(a) U+, y = V diag(b) V+ (eigenvalues replaced by their
cluster values) and the overlap O_ij = |(U+ V)_ij|^2, the projections
chi_(t,inf)(x) and chi_(t,inf)(y) overlap in Tr = sum of O_ij over the
pairs with a_i > t and b_j > t, and the t-integral of each pair has a
closed form:

- chi distance: int 2t Tr((chi_t(x) - chi_t(y))^2) dt
  = sum_ij O_ij |a_i^2 - b_j^2|;
- joint spectral measure: one atom per eigenpair at a_i / (a_i + b_j)
  with mass O_ij (a_i + b_j)^2;
- commutator with a PVM (p_k), p~_k = U+ p_k U:
  int 2t sum_k ||[p_k, chi_t(x)]||^2 dt
  = sum_k sum_ij |p~_k[i, j]|^2 |a_i^2 - a_j^2|;
- threshold integral: int p t^(p-1) Tr(chi_t(x)) dt = sum_i a_i^p.

All integrals are evaluated exactly this way; quadrature and the
per-breakpoint sums appear only as test oracles.

The module provides the joint spectral measure of a positive pair, its
moment functionals, the squared L_2 distance of threshold projections,
the two-sided comparison between that distance and the L_2 distance of
the operators themselves, the commutator comparison for partitions of
unity, and the trace duality check between conjugate exponents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    PSD_CLAMP,
    SpectralDecomposition,
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

MASS_DROP_TOL = 1e-12    # eigenvalue pairs with smaller overlap are dropped
MASS_CHECK_TOL = 1e-9    # total mass must match Tr((x+y)^2) this closely
LAMBDA_MERGE_TOL = 1e-12
CHAIN_SLACK = 1e-9       # slack for the certified inequality chains
NORMED_TOL = 1e-8


def _psd_spectrum(matrix, what: str) -> tuple[np.ndarray, SpectralDecomposition]:
    """Clustered eigenvalues of a PSD matrix (ascending, clipped at 0)."""
    dec = matrix if isinstance(matrix, SpectralDecomposition) else eigh(matrix, what)
    low = float(dec.eigenvalues.min())
    if low < -PSD_CLAMP:
        raise ValueError(f"{what} is not PSD: min eigenvalue {low:.3e}")
    return np.clip(dec.cluster_levels(), 0.0, None), dec


def _psd_pair(x, y):
    """Spectra of a PSD pair and the overlap O_ij = |<u_i, v_j>|^2."""
    a, xdec = _psd_spectrum(x, "x")
    b, ydec = _psd_spectrum(y, "y")
    if xdec.dim != ydec.dim:
        raise ValueError(f"dimension mismatch: {xdec.dim} vs {ydec.dim}")
    overlap = np.abs(xdec.eigenvectors.conj().T @ ydec.eigenvectors) ** 2
    return a, b, overlap


@dataclass(eq=False)
class JointSpectralMeasure:
    """Finite atomic measure on [0, 1] attached to a positive pair.

    For PSD x, y it is the unique finite measure mu with

        tau(f(x-hat) g(y-hat)) =
            int_0^1 int_0^inf f(l / sqrt(r)) g((1 - l) / sqrt(r)) dr dmu(l)

    for Borel f, g >= 0 with f(0) g(0) = 0, where x-hat, y-hat are the
    scaling-fiber realizations.  Atoms sit at l = a / (a + b) over
    eigenvalue pairs (a, b) with mass Tr(P Q) (a + b)^2.
    """

    lambdas: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.masses = np.asarray(self.masses, dtype=float)
        if self.lambdas.shape != self.masses.shape or self.lambdas.ndim != 1:
            raise ValueError("atoms must be parallel 1-d arrays")
        if self.lambdas.size and (
            float(self.lambdas.min()) < 0 or float(self.lambdas.max()) > 1
        ):
            raise ValueError("atom positions must lie in [0, 1]")
        if self.masses.size and float(self.masses.min()) <= 0:
            raise ValueError("atom masses must be positive")

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def integrate(self, fn) -> float:
        """Exact integral of a scalar function against the measure."""
        return float(sum(m * fn(l) for l, m in zip(self.lambdas, self.masses)))


def joint_spectral_measure(x, y) -> JointSpectralMeasure:
    """Joint spectral measure of a PSD pair in the fiber model.

    Atoms lie at a / (a + b) with mass O (a + b)^2 over eigenpairs,
    where O = |<u, v>|^2 is the overlap of the two eigenvectors; atoms
    closer than LAMBDA_MERGE_TOL are merged.  The (0, 0) pair has no
    counterpart in the measure and is excluded, as are overlaps below
    1e-12.  The total mass is validated against Tr((x + y)^2).
    """
    a, b, overlap = _psd_pair(x, y)
    s = a[:, None] + b[None, :]
    keep = (s > 0) & (overlap > MASS_DROP_TOL)
    lam = (a[:, None] / np.where(keep, s, 1.0))[keep]
    mass = (overlap * s * s)[keep]
    order = np.argsort(lam, kind="stable")
    lam, mass = lam[order], mass[order]
    starts = np.flatnonzero(np.diff(lam, prepend=-np.inf) > LAMBDA_MERGE_TOL)
    if lam.size:
        lam, mass = lam[starts], np.add.reduceat(mass, starts)
    measure = JointSpectralMeasure(lam, mass)
    xm = np.asarray(x, dtype=complex)
    ym = np.asarray(y, dtype=complex)
    expected = float(np.trace((xm + ym) @ (xm + ym)).real)
    if abs(measure.total_mass - expected) > MASS_CHECK_TOL * (1.0 + expected):
        raise ValueError(
            f"total mass {measure.total_mass!r} does not match Tr((x+y)^2)"
            f" = {expected!r}"
        )
    return measure


@dataclass(eq=False)
class MeasureMoments:
    """The four moment functionals of a joint spectral measure."""

    norm_x_sq: float
    norm_y_sq: float
    chi_distance: float
    inner_product: float


def measure_moments(measure: JointSpectralMeasure) -> MeasureMoments:
    """Exact atom sums of l^2, (1-l)^2, |2l - 1| and l(1-l)."""
    l, m = measure.lambdas, measure.masses
    return MeasureMoments(
        norm_x_sq=float(np.sum(m * l**2)),
        norm_y_sq=float(np.sum(m * (1 - l) ** 2)),
        chi_distance=float(np.sum(m * np.abs(2 * l - 1))),
        inner_product=float(np.sum(m * l * (1 - l))),
    )


def threshold_chi_distance(x, y) -> float:
    """Squared L_2(tau) distance of the threshold projections.

    In the fiber model this is

        int_0^inf 2 t Tr( (chi_(t,inf)(x) - chi_(t,inf)(y))^2 ) dt.

    O is doubly stochastic, so an eigenpair (i, j) contributes O_ij to
    the integrand while exactly one of a_i, b_j exceeds t, and the
    integral is exactly sum_ij O_ij |a_i^2 - b_j^2|, which equals
    Tr x^2 + Tr y^2 - 2 sum_ij O_ij min(a_i, b_j)^2.
    """
    a, b, overlap = _psd_pair(x, y)
    return float(np.sum(overlap * np.abs(a[:, None] ** 2 - b[None, :] ** 2)))


@dataclass(eq=False)
class ConnesCertificate:
    """Two-sided comparison for a PSD pair:

    ||x - y||^2 <= ||chi(x-hat) - chi(y-hat)||^2_L2(tau)
                <= ||x - y|| ||x + y||.
    """

    lhs: float
    mid: float
    rhs: float
    holds: bool


def connes_certificate(x, y) -> ConnesCertificate:
    xm = np.asarray(x, dtype=complex)
    ym = np.asarray(y, dtype=complex)
    lhs = float(np.linalg.norm(xm - ym) ** 2)
    mid = threshold_chi_distance(x, y)
    rhs = float(np.linalg.norm(xm - ym) * np.linalg.norm(xm + ym))
    holds = lhs <= mid + CHAIN_SLACK and mid <= rhs + CHAIN_SLACK
    return ConnesCertificate(lhs, mid, rhs, holds)


@dataclass(eq=False)
class CommutatorCertificate:
    """Commutator chain for a unit vector x of L_2 and a PVM (p_k):

    sum_k ||[p_k, x]||^2 <= sum_k ||[p_k, chi(x-hat)]||^2_L2(tau)
                         <= 2 (sum_k ||[p_k, x]||^2)^(1/2).
    """

    sum_comm_x: float
    sum_comm_q: float
    upper: float
    holds: bool


def commutator_certificate(x, pvm) -> CommutatorCertificate:
    a, xdec = _psd_spectrum(x, "x")
    xm = np.asarray(x, dtype=complex)
    norm_sq = float(np.trace(xm @ xm).real)
    if abs(norm_sq - 1.0) > NORMED_TOL:
        raise ValueError(f"x must satisfy Tr(x^2) = 1, got {norm_sq!r}")
    ops = require_pvm(pvm, xdec.dim)
    sum_comm_x = float(np.sum(np.abs(ops @ xm - xm @ ops) ** 2))
    # ||[p, chi_t(x)]||^2 = sum of |p~_ij|^2 over the pairs split by t,
    # and int 2t dt over the split thresholds is |a_i^2 - a_j^2|
    u = xdec.eigenvectors
    weights = np.sum(np.abs(u.conj().T @ ops @ u) ** 2, axis=0)
    sum_comm_q = float(np.sum(weights * np.abs(a[:, None] ** 2 - a[None, :] ** 2)))
    upper = float(2.0 * np.sqrt(sum_comm_x))
    holds = bool(
        sum_comm_x <= sum_comm_q + CHAIN_SLACK
        and sum_comm_q <= upper + CHAIN_SLACK
    )
    return CommutatorCertificate(sum_comm_x, sum_comm_q, upper, holds)


def lp_duality_check(x, y, p: float) -> float:
    """Residual of the trace duality between conjugate exponents.

    For PSD x (as an L_p element) and y (as an L_p' element),

        Tr(x y) = int_0^inf p t^(p-1) Tr( x^(1-p) chi_(t,inf)(x) y ) dt,

    with the right side evaluated exactly per eigenvalue: the eigenvector
    u_i of x contributes a_i^p a_i^(1-p) <u_i, y u_i> for each a_i above
    the merge tolerance.  Returns |lhs - rhs|.
    """
    if not p > 1:
        raise ValueError(f"exponent must satisfy p > 1, got {p!r}")
    a, xdec = _psd_spectrum(x, "x")
    ym = require_hermitian(y, "y")
    low = float(np.linalg.eigvalsh(ym).min())
    if low < -PSD_CLAMP:
        raise ValueError(f"y is not PSD: min eigenvalue {low:.3e}")
    if ym.shape[0] != xdec.dim:
        raise ValueError(f"dimension mismatch: {xdec.dim} vs {ym.shape[0]}")
    xm = np.asarray(x, dtype=complex)
    lhs = float(np.trace(xm @ ym).real)
    u = xdec.eigenvectors
    diagonal = np.sum(u.conj() * (ym @ u), axis=0).real
    pos = a > xdec.merge_tol
    rhs = float(np.sum(a[pos] ** p * a[pos] ** (1.0 - p) * diagonal[pos]))
    return abs(lhs - rhs)


def threshold_integral(x, p: float) -> float:
    """Exact weight integral int_0^inf p t^(p-1) Tr(chi_(t,inf)(x)) dt.

    Equals Tr(x^p) = sum_i a_i^p over the eigenvalues above the merge
    tolerance for PSD x; with p = 1 and a unit-trace density this is the
    normalization of the fiber weight.
    """
    if not p >= 1:
        raise ValueError(f"exponent must satisfy p >= 1, got {p!r}")
    a, xdec = _psd_spectrum(x, "x")
    return float(np.sum(a[a > xdec.merge_tol] ** p))
