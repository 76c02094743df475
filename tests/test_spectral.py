import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncround.sampling import random_hermitian, random_psd, rng_for
from syncround.spectral import (
    _fix_phases,
    eigh,
    functional_calculus,
    require_pvm,
    spectral_projection_above,
)

from conftest import assert_close
from oracles import fix_phases_loop


class TestEigh:
    def test_identity_single_cluster(self):
        dec = eigh(np.eye(3))
        assert_close(dec.eigenvalues, [1.0, 1.0, 1.0], 1e-14)
        assert len(dec.clusters) == 1

    def test_diagonal_ascending(self):
        dec = eigh(np.diag([3.0, 1.0, 2.0]))
        assert_close(dec.eigenvalues, [1.0, 2.0, 3.0], 1e-14)
        assert len(dec.clusters) == 3
        assert_close(dec.cluster_values(), [3.0, 2.0, 1.0], 1e-14)

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
            assert np.array_equal(_fix_phases(v), fix_phases_loop(v))


class TestSpectralProjection:
    def test_diagonal_threshold(self):
        p = spectral_projection_above(np.diag([2.0, 1.0]), 1.5)
        assert_close(p, np.diag([1.0, 0.0]), 1e-12)

    def test_above_spectrum_is_zero(self):
        h = random_hermitian(rng_for(5, 1), 4)
        t = float(np.linalg.eigvalsh(h).max()) + 1.0
        assert_close(spectral_projection_above(h, t), np.zeros((4, 4)), 1e-12)

    def test_rank_between_eigenvalues(self):
        x = random_psd(rng_for(99, 2), 6)
        w = np.linalg.eigvalsh(x)
        t = 0.5 * (w[2] + w[3])
        p = spectral_projection_above(x, t)
        assert_close(np.trace(p).real, 3.0, 1e-9)
        assert np.linalg.norm(p @ p - p) <= 1e-9
        assert np.linalg.norm(p @ x - x @ p) <= 1e-9

    def test_eigenvalue_collision_rejected(self):
        with pytest.raises(ValueError, match="midpoint"):
            spectral_projection_above(np.diag([2.0, 1.0]), 1.0)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(dim=st.integers(2, 7), seed=st.integers(0, 10**6))
    def test_projection_family_monotone(self, dim, seed):
        h = random_hermitian(rng_for(seed, dim), dim)
        w = np.linalg.eigvalsh(h)
        mids = [(w[i] + w[i + 1]) / 2 for i in range(dim - 1) if w[i + 1] - w[i] > 1e-6]
        for t1, t2 in zip(mids, mids[1:]):
            diff = spectral_projection_above(h, t1) - spectral_projection_above(h, t2)
            assert float(np.linalg.eigvalsh(diff).min()) >= -1e-9


class TestFunctionalCalculus:
    def test_sqrt_diagonal(self):
        assert_close(
            functional_calculus(np.diag([4.0, 9.0]), "sqrt"), np.diag([2.0, 3.0]), 1e-12
        )

    def test_pinv_sqrt_kernel(self):
        assert_close(
            functional_calculus(np.diag([4.0, 0.0]), "pinv_sqrt"),
            np.diag([0.5, 0.0]),
            1e-12,
        )

    def test_power_two_matches_frobenius(self):
        x = random_psd(rng_for(3, 3), 5)
        sq = functional_calculus(x, "power", exponent=2)
        assert_close(np.trace(sq).real, np.linalg.norm(x) ** 2, 1e-9)

    def test_sqrt_squares_back(self):
        x = random_psd(rng_for(4, 4), 6)
        r = functional_calculus(x, "sqrt")
        assert np.linalg.norm(r @ r - x) <= 1e-9

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            functional_calculus(np.diag([1.0, -1e-3]), "sqrt")

    def test_clamp_tolerates_roundoff(self):
        out = functional_calculus(np.diag([1.0, -5e-11]), "sqrt")
        assert_close(out, np.diag([1.0, 0.0]), 1e-9)


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
