import ast
import importlib
import pathlib
import pkgutil
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import syncround
from syncround import spectral
from syncround.rounding import _cluster_starts, corner_decomposition
from syncround.sampling import (
    random_hermitian,
    random_povm,
    random_psd,
    random_pvm,
    random_unitary,
    rng_for,
)
from syncround.spectral import (
    FAMILY_TOL,
    HERMITIAN_TOL,
    SpectralDecomposition,
    _phases,
    _hermitian_part,
    eigh,
    functional_calculus,
    require_hermitian,
    require_povm,
    require_pvm,
    svd,
)
from conftest import assert_close, standard_form_of
from oracles import (
    cluster_indices_loop,
    fix_phases_loop,
    require_hermitian_formula,
    require_povm_psd_eigvalsh,
)


class TestEigh:
    def test_identity_single_cluster(self):
        dec = eigh(np.eye(3))
        assert_close(dec.eigenvalues, [1.0, 1.0, 1.0], 1e-14)

    def test_diagonal_ascending(self):
        dec = eigh(np.diag([3.0, 1.0, 2.0]))
        assert_close(dec.eigenvalues, [1.0, 2.0, 3.0], 1e-14)

    def test_random_reconstruction(self):
        h = random_hermitian(rng_for(821, 0), 8)
        dec = eigh(h)
        assert np.linalg.norm(dec.reconstruct() - h) <= 1e-10 * (
            1 + np.linalg.norm(h)
        )
        assert np.linalg.norm(
            dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(8)
        ) <= 1e-10

    def test_phase_convention_deterministic(self):
        h = random_hermitian(rng_for(17, 3), 5)
        a, b = eigh(h), eigh(h.copy())
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        for j in range(5):
            i = int(np.argmax(np.abs(a.eigenvectors[:, j])))
            top = a.eigenvectors[i, j]
            assert abs(top.imag) < 1e-12 and top.real > 0

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            eigh(bad)

    @pytest.mark.parametrize("dim", [8, 24, 48])
    def test_phase_fix_matches_column_loop(self, dim):
        rng = rng_for(23, dim)
        vectors = np.linalg.eigh(random_hermitian(rng, dim))[1]
        # tied magnitudes: every entry of a Fourier column has modulus 1
        tied = np.exp(2j * np.pi * np.outer(np.arange(dim), np.arange(3)) / dim)
        tied[:, 1] *= np.exp(0.7j)
        zero = np.zeros((dim, 2), dtype=complex)
        for v in (vectors, np.hstack([vectors[:, :4], tied, zero])):
            assert np.array_equal(v * _phases(v), fix_phases_loop(v))
        # a stack of non-square column blocks, fixed matrix by matrix
        stack = np.array([[v, 1j * v], [v[::-1], -v]])
        fixed = stack * _phases(stack)[..., None, :]
        for idx in np.ndindex(2, 2):
            assert np.array_equal(fixed[idx], fix_phases_loop(stack[idx]))


class TestStacks:
    def test_stacked_eigh_equals_per_matrix(self):
        rng = rng_for(24, 0)
        stack = np.array(
            [[random_hermitian(rng, 5) for _ in range(3)] for _ in range(2)]
            + [[np.diag([0.0, 0.0, 1.0, 1.0, 2.0])] * 3]
        )
        dec = eigh(stack)
        assert dec.eigenvalues.shape == (3, 3, 5)
        for idx in np.ndindex(3, 3):
            single = eigh(stack[idx])
            assert_close(dec.eigenvalues[idx], single.eigenvalues, 1e-13)
            assert_close(dec.eigenvectors[idx], single.eigenvectors, 1e-13)
        assert_close(dec.reconstruct(), stack, 1e-12)

    def test_non_hermitian_element_named(self):
        stack = np.array([[np.eye(3)] * 3] * 2, dtype=complex)
        stack[1, 2, 0, 1] = 1e-6
        with pytest.raises(ValueError, match=r"matrix element \(1, 2\) is not Hermitian"):
            eigh(stack)
        with pytest.raises(ValueError, match=r"^x element 5 is not Hermitian"):
            require_hermitian(stack.reshape(6, 3, 3), "x")

    def test_hermitian_tolerance_per_matrix(self):
        # 5e-12 is within 1e-12 (1 + 10) for the large matrix only
        stack = np.array([np.eye(2) * 10, np.eye(2)], dtype=complex)
        stack[:, 0, 1] = 5e-12
        require_hermitian(stack[:1])
        with pytest.raises(ValueError, match=r"element 1 is not Hermitian"):
            require_hermitian(stack)

    def test_non_psd_element_named(self):
        rng = rng_for(25, 0)
        stack = np.array([random_pvm(rng, 4, 3) for _ in range(2)])
        stack[1, 0] -= 0.02 * np.eye(4)
        stack[1, 1] += 0.02 * np.eye(4)
        with pytest.raises(ValueError, match=r"POVM element \(1, 0\) is not PSD"):
            require_povm(stack, 4)

    def test_decomposed_povm_check_matches_eigvalsh(self):
        rng = rng_for(27, 0)
        stack = np.array([random_pvm(rng, 4, 3) for _ in range(2)]) * 0.9
        stack[:, 0] += 0.1 * np.eye(4)
        dec = require_povm(stack, 4, decompose=True)
        assert_close(dec.eigenvalues, np.linalg.eigvalsh(stack), 1e-12)
        assert_close(dec.reconstruct(), stack, 1e-12)
        stack[1, 0] -= 0.2 * np.eye(4)
        stack[1, 1] += 0.2 * np.eye(4)
        with pytest.raises(ValueError, match=r"POVM element \(1, 0\) is not PSD"):
            require_povm(stack, 4, decompose=True)

    def test_family_sums_checked_per_family(self):
        rng = rng_for(26, 0)
        stack = np.array([random_pvm(rng, 3, 2) for _ in range(3)])
        assert require_pvm(stack, 3).shape == (3, 2, 3, 3)
        stack[2, 1] = 0.0
        with pytest.raises(ValueError, match=r"PVM family 2 does not sum"):
            require_pvm(stack, 3)
        with pytest.raises(ValueError, match=r"POVM family 2 does not sum"):
            require_povm(stack, 3)

    @pytest.mark.parametrize("slab_bytes", [1, 1 << 17])
    def test_slabs_name_the_same_element(self, monkeypatch, slab_bytes):
        # one matrix per slab, or the whole stack in one
        monkeypatch.setattr(spectral, "CHECK_SLAB_BYTES", slab_bytes)
        rng = rng_for(28, 0)
        stack = np.array([random_pvm(rng, 4, 3) for _ in range(3)])
        assert require_pvm(stack, 4).shape == (3, 3, 4, 4)
        skew = stack.copy()
        skew[1, 2, 0, 1] += 1e-6
        with pytest.raises(ValueError, match=r"PVM element \(1, 2\) is not Hermitian"):
            require_pvm(skew, 4)
        halved = stack.copy()
        halved[2, 1] *= 0.5
        with pytest.raises(ValueError, match=r"PVM element \(2, 1\) is not a projection"):
            require_pvm(halved, 4)

    def test_shape_of_listed_element_named(self):
        with pytest.raises(ValueError, match=r"element 1 has shape \(2, 2\)"):
            require_pvm([np.eye(3), np.eye(2)], 3)


TOL = 1e-9


@st.composite
def clustered_spectra(draw):
    """Ascending spectra built from gaps that sit at the clustering
    tolerance's edges: exact ties, tol (1 -/+ 1e-3), tenths of tol
    (chains whose span exceeds tol) and clear gaps."""
    gaps = draw(
        st.lists(
            st.sampled_from([0.0, TOL * (1 - 1e-3), TOL * (1 + 1e-3), 0.1 * TOL, 0.3]),
            max_size=30,
        )
    )
    start = draw(st.sampled_from([-1.0, 0.0, 0.25]))
    return start + np.concatenate([[0.0], np.cumsum(gaps)])


class TestClustering:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(values=clustered_spectra())
    @example(values=np.arange(12) * 0.1 * TOL)  # one cluster spanning 1.1 tol
    def test_split_matches_loop(self, values):
        # ascending groups, listed by decreasing representative as the loop does
        clusters = np.split(np.arange(values.size), _cluster_starts(values, TOL))[1:]
        assert [tuple(c.tolist()) for c in clusters[::-1]] == list(
            cluster_indices_loop(values, TOL)
        )

    def test_levels_and_values_agree(self):
        spectrum = np.array([0.2, 0.2, 0.5, 0.5 + 1e-12, 0.3])
        rho = np.diag(spectrum / spectrum.sum())
        decomp = corner_decomposition(standard_form_of(rho))
        top, mid, low = np.array([0.5 + 5e-13, 0.3, 0.2]) / spectrum.sum()
        assert_close(decomp.values, [top, mid, low], 1e-15)
        assert_close(decomp.levels, [top, top, mid, low, low], 1e-15)


class TestFunctionalCalculus:
    def test_sqrt_diagonal(self):
        assert_close(functional_calculus(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), 1e-12)

    def test_sqrt_squares_back(self):
        x = random_psd(rng_for(4, 4), 6)
        r = functional_calculus(x)
        assert np.linalg.norm(r @ r - x) <= 1e-9
        # a (k, n, n) stack is rooted matrix by matrix
        rng = rng_for(4, 5)
        stack = np.array([random_psd(rng, 5) for _ in range(4)])
        roots = functional_calculus(stack)
        assert roots.shape == stack.shape
        assert np.linalg.norm(roots @ roots - stack, axis=(-2, -1)).max() <= 1e-9
        for root, m in zip(roots, stack):
            assert_close(root, functional_calculus(m), 1e-12)

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError, match="not PSD"):
            functional_calculus(np.diag([1.0, -1e-3]))
        stack = np.array([np.eye(2), np.eye(2), np.diag([1.0, -1e-3])])
        with pytest.raises(ValueError, match="input element 2 is not PSD"):
            functional_calculus(stack)

    def test_clamp_tolerates_roundoff(self):
        out = functional_calculus(np.diag([1.0, -5e-11]))
        assert_close(out, np.diag([1.0, 0.0]), 1e-9)


class TestFiniteness:
    @pytest.mark.parametrize(
        "entry, value",
        [((0, 1), np.nan), ((1, 1), np.inf), ((1, 0), complex(0.0, -np.inf))],
    )
    def test_non_finite_entry_named(self, entry, value):
        stack = np.array([np.eye(2), np.eye(2)], dtype=complex)
        stack[1][entry] = value
        with pytest.raises(ValueError, match=r"^m element 1 has a non-finite entry") as err:
            require_hermitian(stack, "m")
        assert str(err.value).endswith(f"at {entry}")

    def test_validators_and_eigh_reject_nan(self):
        pvm = [np.diag([1.0, np.nan]), np.diag([0.0, 1.0])]
        for check in (lambda: require_pvm(pvm, 2), lambda: require_povm(pvm, 2),
                      lambda: eigh(pvm[0])):
            with pytest.raises(ValueError, match="non-finite entry"):
                check()


class TestEighGuards:
    """Faults injected into LAPACK's answer: every guard fails closed, on
    NaN as on a wrong number, and at any representable scale."""

    @staticmethod
    def _inject(monkeypatch, corrupt):
        """Corrupt LAPACK's (w, v) on every eigensolve."""
        real = np.linalg.eigh

        def faulty(h):
            w, v = (a.copy() for a in real(h))
            corrupt(w, v)
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", faulty)

    @staticmethod
    def _nan_eigenvalue(w, v):
        w[..., -1] = np.nan

    @staticmethod
    def _nan_eigenvector(w, v):
        v[..., 0, -1] = np.nan

    @staticmethod
    def _shift_eigenvalue(w, v):
        w[..., -1] *= 1.5

    @staticmethod
    def _rescale_column(w, v):
        # V D (W D^-2) D V* = V W V*: reconstructs, not orthonormal
        v[..., -1] *= 2.0
        w[..., -1] /= 4.0

    @pytest.mark.parametrize("corrupt", ["_nan_eigenvalue", "_nan_eigenvector"])
    def test_nan_fails_reconstruction(self, monkeypatch, corrupt):
        self._inject(monkeypatch, getattr(self, corrupt))
        with pytest.raises(ValueError, match=r"^eigendecomposition of m failed to reconstruct: residual nan$"):
            eigh(np.diag([1.0, 2.0]), "m")

    @pytest.mark.parametrize("corrupt", ["_nan_eigenvalue", "_nan_eigenvector"])
    def test_nan_names_stack_element(self, monkeypatch, corrupt):
        real = getattr(self, corrupt)
        self._inject(monkeypatch, lambda w, v: real(w[1], v[1]))
        stack = np.array([np.diag([1.0, 2.0])] * 3)
        with pytest.raises(ValueError, match=r"^eigendecomposition of m element 1 failed to reconstruct: residual nan$"):
            eigh(stack, "m")

    def test_functional_calculus_rejects_nan_eigenvalue(self):
        for w in ([np.nan, 1.0], [1.0, np.nan]):
            dec = SpectralDecomposition(np.array(w), np.eye(2, dtype=complex))
            with pytest.raises(ValueError, match=r"^functional calculus input is not PSD: min eigenvalue nan$"):
                functional_calculus(dec)
        stack = SpectralDecomposition(np.array([[1.0, 2.0], [1.0, np.nan]]), np.array([np.eye(2)] * 2, complex))
        with pytest.raises(ValueError, match=r"^functional calculus input element 1 is not PSD"):
            functional_calculus(stack)

    def test_representable_scale_runs_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = eigh(np.diag([1e300, 1.0]))
            stacked = eigh(np.array([np.diag([1e300, 1.0]), np.diag([1e160, 1.0]), np.eye(2)]))
        assert_close(dec.eigenvalues / [1.0, 1e300], [1.0, 1.0], 1e-15)
        want = [[1.0, 1e300], [1.0, 1e160], [1.0, 1.0]]
        assert_close(stacked.eigenvalues / want, np.ones((3, 2)), 1e-15)

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize(
        "corrupt, message",
        [("_nan_eigenvalue", "eigendecomposition of {} failed to reconstruct"),
         ("_shift_eigenvalue", "eigendecomposition of {} failed to reconstruct"),
         ("_rescale_column", "eigenvectors of {} are not orthonormal")],
    )
    def test_corruption_at_large_scale_rejected(self, monkeypatch, corrupt, message, stacked):
        huge = np.diag([1e300, 1.0])
        if stacked:
            # only the last element is corrupted, and named beside the huge one
            real = getattr(self, corrupt)
            self._inject(monkeypatch, lambda w, v: real(w[1], v[1]))
            matrix, name = np.array([huge, huge]), "m element 1"
        else:
            self._inject(monkeypatch, getattr(self, corrupt))
            matrix, name = huge, "m"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^" + message.format(name)):
                eigh(matrix, "m")

    @pytest.mark.parametrize(
        "corrupt, message",
        [("_shift_eigenvalue", "eigendecomposition of {} failed to reconstruct"),
         ("_rescale_column", "eigenvectors of {} are not orthonormal")],
    )
    def test_stack_beyond_one_slab_names_element(self, monkeypatch, corrupt, message):
        """The guards run slab by slab; a fault in the second slab is named
        by its stack index."""
        n = 16
        per_slab = spectral.CHECK_SLAB_BYTES // np.zeros((n, n), complex).nbytes
        stack = np.broadcast_to(np.diag(np.arange(1.0, n + 1)), (3, per_slab, n, n)).astype(complex)
        assert len(spectral._slabs(stack)) == 3
        real = getattr(self, corrupt)
        self._inject(monkeypatch, lambda w, v: real(w[1, 2], v[1, 2]))
        with pytest.raises(ValueError, match="^" + re.escape(message.format("m element (1, 2)"))):
            eigh(stack, "m")


class TestSvd:
    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4)])
    def test_eigh_conventions(self, shape):
        """(s^2, u) are eigh's eigenpairs of M M*, phases included; v pairs
        each u column, M v_j = s_j u_j, and is zero on the padding."""
        rng = rng_for(29, *shape)
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        s, u, v = svd(m)
        assert s.shape == (shape[0],) and u.shape == (shape[0],) * 2 and v.shape == shape[::-1]
        dec = eigh(m @ m.conj().T)
        pad = shape[0] - min(shape)
        assert not s[:pad].any() and not v[:, :pad].any()
        assert_close(s**2, dec.eigenvalues, 1e-13)
        # the kernel of M M* has no preferred basis: compare its projection
        assert_close(u[:, pad:], dec.eigenvectors[:, pad:], 1e-12)
        kernel, theirs = u[:, :pad], dec.eigenvectors[:, :pad]
        assert_close(kernel @ kernel.conj().T, theirs @ theirs.conj().T, 1e-12)
        assert_close(m @ v, u * s, 1e-13)
        assert_close(v[:, pad:].conj().T @ v[:, pad:], np.eye(min(shape)), 1e-13)


class TestSvdGuards:
    """Faults injected into LAPACK's SVD, as ``TestEighGuards`` does into
    its eigensolver: every guard of ``svd`` fails closed and names what
    failed, at any representable scale."""

    @staticmethod
    def _inject(monkeypatch, corrupt):
        real = np.linalg.svd

        def faulty(m, *args, **kwargs):
            u, s, vh = (a.copy() for a in real(m, *args, **kwargs))
            corrupt(u, s, vh)
            return u, s, vh

        monkeypatch.setattr(np.linalg, "svd", faulty)

    @staticmethod
    def _matrix(scale):
        rng = rng_for(31, 0)
        return scale * (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))

    @staticmethod
    def _nan_singular_value(u, s, vh):
        s[0] = np.nan

    @staticmethod
    def _shift_singular_value(u, s, vh):
        s[-1] *= 1.5

    @staticmethod
    def _rescale_left(u, s, vh):
        # (2 u_0) (s_0 / 2) v_0* = u_0 s_0 v_0*: reconstructs, not orthonormal
        u[:, 0] *= 2.0
        s[0] /= 2.0

    @staticmethod
    def _rescale_right(u, s, vh):
        vh[0] *= 2.0
        s[0] /= 2.0

    @pytest.mark.parametrize(
        "entry, value", [((0, 1), np.nan), ((2, 0), np.inf), ((1, 1), complex(0.0, -np.inf))]
    )
    def test_non_finite_entry_named(self, entry, value):
        m = self._matrix(1.0)
        m[entry] = value
        with pytest.raises(ValueError, match=r"^xi has a non-finite entry") as err:
            svd(m, "xi")
        assert str(err.value).endswith(f"at {entry}")

    @pytest.mark.parametrize("scale", [1.0, 1e300])
    @pytest.mark.parametrize(
        "corrupt, message",
        [("_nan_singular_value", "singular value decomposition of xi failed to reconstruct"),
         ("_shift_singular_value", "singular value decomposition of xi failed to reconstruct"),
         ("_rescale_left", "left singular vectors of xi are not orthonormal"),
         ("_rescale_right", "right singular vectors of xi are not orthonormal")],
    )
    def test_corruption_rejected(self, monkeypatch, corrupt, message, scale):
        self._inject(monkeypatch, getattr(self, corrupt))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^" + message + ": residual"):
                svd(self._matrix(scale), "xi")

    def test_representable_scale_runs_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s, _, _ = svd(self._matrix(1e300))
        assert s[0] == 0.0
        assert_close(s[1:] / 1e300, svd(self._matrix(1.0))[0][1:], 1e-15)


@st.composite
def hermitian_candidates(draw):
    """Exactly Hermitian stacks at three scales, one matrix or a stack,
    as they are or with one entry moved to about the allowance's edge,
    set to NaN or set to an infinity, and the bytes per check slab."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-8, 1.0, 1e8]))
    h = _hermitian_part(scale * (rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))))
    m, i, j = (draw(st.integers(0, size - 1)) for size in (k, n, n))
    kind = draw(st.sampled_from(["exact", "near", "nan", "inf"]))
    if kind == "near":
        # |H_ij - conj(H_ji)| = factor * allowance off the diagonal,
        # |2 i Im H_ii| on it
        allowed = HERMITIAN_TOL * (1.0 + np.abs(h[m]).max())
        factor = draw(st.sampled_from([0.5, 0.999, 1.001, 2.0]))
        h[m, i, j] += factor * allowed if i != j else 0.5j * factor * allowed
    elif kind != "exact":
        value = np.nan if kind == "nan" else draw(st.sampled_from([1.0, -1.0])) * np.inf
        h[m, i, j] = draw(st.sampled_from([value, 1j * value, complex(value, 1.0)]))
    single = k == 1 and draw(st.booleans())
    slab_bytes = draw(st.sampled_from([16, spectral.CHECK_SLAB_BYTES]))
    return (h[0] if single else h), slab_bytes


def _outcome(check, matrix):
    try:
        return "accepted", check(matrix, "m")
    except ValueError as exc:
        return "rejected", str(exc)


class TestRequireHermitian:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=hermitian_candidates())
    def test_matches_deviation_formula(self, case):
        matrix, slab_bytes = case
        with mock.patch.object(spectral, "CHECK_SLAB_BYTES", slab_bytes):
            got = _outcome(require_hermitian, matrix)
        want = _outcome(require_hermitian_formula, matrix)
        assert got[0] == want[0]
        if got[0] == "accepted":
            assert np.array_equal(got[1], want[1])
        else:
            assert got[1] == want[1]


PSD_BOUND_LOWS = [-FAMILY_TOL * (1 + k * 1e-4) for k in range(-3, 4)] + [0.0, -1.0]


@st.composite
def povms_at_the_psd_bound(draw):
    """One POVM (A, n, n) or a stack (X, A, n, n) of random POVMs in which
    one element has its least eigenvalue placed at -FAMILY_TOL (1 + k 1e-4)
    for k in -3..3, at 0 or at -1; its complement, split at random, fills
    the rest of its family."""
    nx, na, n = draw(st.integers(1, 3)), draw(st.integers(2, 4)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.sampled_from(PSD_BOUND_LOWS))
    x, a = draw(st.integers(0, nx - 1)), draw(st.integers(0, na - 1))
    stack = np.array([random_povm(rng, n, na) for _ in range(nx)])
    u = random_unitary(rng, n)
    m = _hermitian_part((u * np.append(low, rng.uniform(0.0, 1.0, n - 1))) @ u.conj().T)
    split = rng.uniform(0.1, 1.0, na - 1)
    rest = (split / split.sum())[:, None, None] * _hermitian_part(np.eye(n) - m)
    stack[x] = np.insert(rest, a, m, axis=0)
    return stack[0] if nx == 1 and draw(st.booleans()) else stack


class TestRequirePovmPsd:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(family=povms_at_the_psd_bound())
    def test_matches_eigvalsh_oracle(self, family):
        """The Cholesky test accepts and rejects as the least eigenvalues
        do, except within its backward error c n eps ||m|| of the bound;
        a rejection names the same element with the same text."""
        got = _outcome(lambda m, what: require_povm(m, m.shape[-1], what), family)
        want = _outcome(require_povm_psd_eigvalsh, family)
        spectra = np.linalg.eigvalsh(family)
        band = 8 * family.shape[-1] * np.finfo(float).eps * max(1.0, np.abs(spectra).max())
        if np.abs(spectra[..., 0] + FAMILY_TOL).min() <= band:
            return
        assert got[0] == want[0]
        if got[0] == "rejected":
            assert got[1] == want[1]
        else:
            assert got[1] is family or np.array_equal(got[1], family)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_entry_fails_closed(self, value):
        stack = np.array([[np.eye(2) / 2] * 2] * 2, dtype=complex)
        stack[1, 0, 1, 0] = value
        with pytest.raises(ValueError, match=r"^POVM element \(1, 0\) has a non-finite entry"):
            require_povm(stack, 2)
        # the factorization alone never passes a non-finite matrix either
        assert not spectral._shifted_cholesky_passes(stack[1, 0], FAMILY_TOL)
        assert not spectral._shifted_cholesky_passes(stack, FAMILY_TOL)

    def test_nan_factor_is_no_pass(self, monkeypatch):
        """A factor that is not finite sends the decision to eigvalsh,
        which accepts a POVM and rejects a non-PSD element as before."""
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: np.full(np.shape(a), np.nan, complex))
        stack = np.array([random_povm(rng_for(33, x), 3, 2) for x in range(2)])
        assert require_povm(stack, 3) is stack
        stack[1, 0] -= 0.01 * np.eye(3)
        stack[1, 1] += 0.01 * np.eye(3)
        with pytest.raises(ValueError, match=r"^POVM element \(1, 0\) is not PSD: min eigenvalue"):
            require_povm(stack, 3)

    def test_eigvalsh_runs_only_on_failure(self, monkeypatch):
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or real(a))
        stack = np.array([random_povm(rng_for(34, x), 4, 3) for x in range(2)])
        require_povm(stack, 4)
        assert not calls
        stack[0, 2] -= 0.01 * np.eye(4)
        stack[0, 1] += 0.01 * np.eye(4)
        with pytest.raises(ValueError, match=r"^POVM element \(0, 2\) is not PSD"):
            require_povm(stack, 4)
        assert len(calls) == 1


class TestPvmValidation:
    def test_basis_pvm_accepted(self):
        e = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        require_pvm(e, 2)

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError, match="sum to the identity"):
            require_pvm([np.diag([1.0, 0.0])], 2)

    def test_non_projection_rejected(self):
        with pytest.raises(ValueError, match="not a projection"):
            require_pvm([np.diag([0.5, 0.5]), np.diag([0.5, 0.5])], 2)


class TestTolerancePolicy:
    def test_every_tolerance_is_the_tables(self):
        """A module of the package names a threshold (*TOL*, *SLACK* or
        *CLAMP*) only by importing the entry of spectral's table."""
        modules = [syncround] + [
            importlib.import_module(f"syncround.{info.name}")
            for info in pkgutil.iter_modules(syncround.__path__)
        ]
        seen = 0
        for module in modules:
            for name, value in vars(module).items():
                if name.isupper() and any(k in name for k in ("TOL", "SLACK", "CLAMP")):
                    assert value is getattr(spectral, name, None), f"{module.__name__}.{name}"
                    seen += 1
        assert seen  # the scan found the table itself

    def test_every_table_entry_is_read(self):
        """Each name of spectral's table is read (a load of the name, or an
        attribute of that name) somewhere in the package's source."""
        table = {
            name for name in vars(spectral)
            if name.isupper() and any(k in name for k in ("TOL", "SLACK", "CLAMP"))
        }
        read = set()
        for path in pathlib.Path(syncround.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
        assert "HERMITIAN_TOL" in table  # the scan found the table
        assert table <= read, sorted(table - read)
