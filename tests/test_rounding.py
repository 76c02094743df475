import json
import pickle
import re
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from syncround import (
    corner_correlation,
    corner_decomposition,
    correlation_of_commuting,
    cyclic_coloring_strategy,
    load_game,
    load_tracial_strategy,
    dump_tracial_strategy,
    orthogonalize_povm,
    perturb_b_side,
    perturb_b_sides,
    round_b_sides,
    round_corners,
    round_strategy,
    symmetrized_correlation,
    synchronicity_deficit,
    tracial_correlation,
    verify_dual_distance,
)
import syncround.rounding
from syncround.rounding import _hermitian_part, corner_compressions
from syncround.sampling import (
    random_povm,
    random_psd,
    random_pvm,
    random_unitary,
    rng_for,
)
from syncround.spectral import eigh
from syncround.strategies import CommutingStrategy, DensityOperator
from syncround import reduced_density

from conftest import assert_close, diagonal_game_doc, fresh_copy, random_commuting_strategy
from oracles import corner_table_loop, corner_table_quadrature, orthogonalize_povm_loop


def corner_projection(decomp, k):
    """P_k, the projection onto the leading ranks[k] kept eigenvectors."""
    b = decomp.basis[:, : decomp.ranks[k]]
    return b @ b.conj().T


def density_from_diag(values):
    m = np.diag(np.asarray(values, dtype=complex))
    return DensityOperator(m, eigh(m))


def density_with_spectrum(rng, spectrum):
    """Unit-trace density with the given spectrum in a Haar eigenbasis."""
    w = np.asarray(spectrum, dtype=float)
    u = random_unitary(rng, w.size)
    m = (u * (w / w.sum())) @ u.conj().T
    m = (m + m.conj().T) / 2
    return DensityOperator(m, eigh(m))


# name: (dim, answers, spectrum, corners after clustering)
CORNER_INSTANCES = {
    "answers-exceed-dim": (3, 5, [5, 3, 2], 3),
    "rank-deficient": (6, 3, [4, 3, 2, 1, 0, 0], 4),
    # pairs split by 5e-10 after normalization, inside the merge
    # tolerance: 5 levels, 3 corners
    "near-degenerate": (5, 3, [3, 3 + 5e-9, 2, 1, 1 - 5e-9], 3),
    "many-corners": (10, 3, np.arange(10, 0, -1), 10),
}


class TestCornerDecomposition:
    def test_tracial_state_single_corner(self):
        decomp = corner_decomposition(density_from_diag([0.25] * 4))
        assert decomp.n_corners == 1
        assert_close(decomp.weights, [1.0], 1e-12)
        assert_close(corner_projection(decomp, 0), np.eye(4), 1e-12)

    def test_two_level_example(self):
        decomp = corner_decomposition(density_from_diag([0.7, 0.3]))
        assert_close(decomp.values, [0.7, 0.3], 1e-12)
        assert decomp.ranks == (1, 2)
        assert_close(decomp.weights, [0.4, 0.6], 1e-12)
        assert_close(corner_projection(decomp, 0), np.diag([1.0, 0.0]), 1e-12)
        assert_close(corner_projection(decomp, 1), np.eye(2), 1e-12)

    def test_degenerate_spectrum_excludes_kernel(self):
        decomp = corner_decomposition(density_from_diag([0.5, 0.5, 0.0]))
        assert decomp.n_corners == 1
        assert_close(decomp.weights, [1.0], 1e-12)
        assert_close(corner_projection(decomp, 0), np.diag([1.0, 1.0, 0.0]), 1e-12)

    def test_projections_nested(self):
        rng = rng_for(121, 0)
        rho_m = random_psd(rng, 5)
        rho_m = rho_m / np.trace(rho_m).real
        decomp = corner_decomposition(DensityOperator(rho_m, eigh(rho_m)))
        for k in range(decomp.n_corners - 1):
            p, q = corner_projection(decomp, k), corner_projection(decomp, k + 1)
            # range(P_k) inside range(P_{k+1})
            assert np.linalg.norm(q @ p - p) <= 1e-9
        assert_close(decomp.weights.sum(), 1.0, 1e-9)

    def test_weight_identity_against_trace(self):
        # sum_k (l_k - l_{k+1}) Tr(P_k z) telescopes to Tr(rho z)
        rng = rng_for(122, 0)
        rho_m = random_psd(rng, 6)
        rho_m = rho_m / np.trace(rho_m).real
        decomp = corner_decomposition(DensityOperator(rho_m, eigh(rho_m)))
        gaps = decomp.values - np.append(decomp.values[1:], 0.0)
        for _ in range(100):
            z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            z = (z + z.conj().T) / 2
            lhs = sum(
                float(gaps[k]) * float(np.trace(corner_projection(decomp, k) @ z).real)
                for k in range(decomp.n_corners)
            )
            assert abs(lhs - float(np.trace(rho_m @ z).real)) <= 1e-9


class TestSymmetrizedCorrelation:
    def test_tracial_state_reduces_to_trace_pairing(self):
        rng = rng_for(131, 0)
        pvms = {"x": random_pvm(rng, 3, 2), "y": random_pvm(rng, 3, 2)}
        rho = density_from_diag([1 / 3] * 3)
        table = symmetrized_correlation(pvms, rho)
        for xi, qx in enumerate(("x", "y")):
            for yi, qy in enumerate(("x", "y")):
                for a in range(2):
                    for b in range(2):
                        expected = np.trace(pvms[qx][a] @ pvms[qy][b]).real / 3
                        assert_close(table.data[xi, yi, a, b], expected, 1e-12)

    def test_diagonal_instance_is_classical(self):
        rho = density_from_diag([0.6, 0.3, 0.1])
        basis = [np.zeros((3, 3)) for _ in range(3)]
        for i in range(3):
            basis[i][i, i] = 1.0
        pvms = {"q": [basis[0] + basis[1], basis[2], np.zeros((3, 3))]}
        table = symmetrized_correlation(pvms, rho)
        # classical: joint distribution of one measurement against itself
        assert_close(table.data[0, 0, 0, 0], 0.9, 1e-12)
        assert_close(table.data[0, 0, 1, 1], 0.1, 1e-12)
        assert_close(table.data[0, 0, 0, 1], 0.0, 1e-12)

    def test_diagonal_entries_bounded_by_expectation(self):
        rng = rng_for(132, 0)
        rho_m = random_psd(rng, 4)
        rho_m = rho_m / np.trace(rho_m).real
        rho = DensityOperator(rho_m, eigh(rho_m))
        pvms = {"q": random_pvm(rng, 4, 2)}
        table = symmetrized_correlation(pvms, rho)
        for a in range(2):
            expectation = float(np.trace(pvms["q"][a] @ rho_m).real)
            assert table.data[0, 0, a, a] <= expectation + 1e-10
        # commuting instance saturates
        dec = eigh(rho_m)
        v = dec.eigenvectors
        commuting = {
            "q": [
                v[:, :2] @ v[:, :2].conj().T,
                v[:, 2:] @ v[:, 2:].conj().T,
            ]
        }
        table_c = symmetrized_correlation(commuting, rho)
        for a in range(2):
            expectation = float(np.trace(commuting["q"][a] @ rho_m).real)
            assert_close(table_c.data[0, 0, a, a], expectation, 1e-10)


class TestCornerCorrelation:
    def test_tracial_state_single_corner(self):
        rng = rng_for(141, 0)
        pvms = {"x": random_pvm(rng, 3, 2), "y": random_pvm(rng, 3, 2)}
        rho = density_from_diag([1 / 3] * 3)
        table = corner_correlation(pvms, corner_decomposition(rho))
        sym = symmetrized_correlation(pvms, rho)
        assert_close(table.data, sym.data, 1e-12)

    def test_commuting_diagonal_matches_symmetrized(self):
        rho = density_from_diag([0.5, 0.3, 0.2])
        basis = [np.zeros((3, 3)) for _ in range(3)]
        for i in range(3):
            basis[i][i, i] = 1.0
        pvms = {"q": [basis[0], basis[1] + basis[2]]}
        corner = corner_correlation(pvms, corner_decomposition(rho))
        sym = symmetrized_correlation(pvms, rho)
        assert_close(corner.data, sym.data, 1e-12)

    def test_matches_threshold_quadrature(self):
        rng = rng_for(142, 0)
        rho_m = random_psd(rng, 4)
        rho_m = rho_m / np.trace(rho_m).real
        rho = DensityOperator(rho_m, eigh(rho_m))
        pvms = {"q": random_pvm(rng, 4, 3)}
        table = corner_correlation(pvms, corner_decomposition(rho))
        for n in (500, 4000):
            quad = corner_table_quadrature(
                rho_m, pvms["q"][0], pvms["q"][1], n
            )
            assert abs(quad - table.data[0, 0, 0, 1]) <= 10.0 / n

    @pytest.mark.parametrize("kind", sorted(CORNER_INSTANCES))
    def test_matches_per_corner_loop(self, kind):
        dim, na, spectrum, corners = CORNER_INSTANCES[kind]
        rng = rng_for(143, dim, na)
        decomp = corner_decomposition(density_with_spectrum(rng, spectrum))
        assert decomp.n_corners == corners
        questions = ("x", "y", "z")
        pvms = {q: random_pvm(rng, dim, na) for q in questions}
        table = corner_correlation(pvms, decomp, questions)
        assert_close(table.data, corner_table_loop(pvms, decomp, questions), 1e-10)
        levels = np.repeat(decomp.values, np.diff((0,) + decomp.ranks))
        assert np.array_equal(decomp.levels, levels)
        stack = corner_compressions(pvms, decomp)
        for r in decomp.ranks:
            basis = decomp.basis[:, :r]
            for q, compressed in zip(questions, stack[:, :, :r, :r]):
                for p, c in zip(pvms[q], compressed):
                    assert_close(c, basis.conj().T @ p @ basis, 1e-12)


class TestOrthogonalizePovm:
    def test_pvm_is_fixed_point(self):
        rng = rng_for(151, 0)
        pvm = random_pvm(rng, 4, 3)
        rounded, report = orthogonalize_povm(pvm)
        for p, r in zip(pvm, rounded):
            assert_close(r, p, 1e-9)
        assert report.distance_sq <= 1e-12
        assert report.holds

    def test_empty_povm_rejected(self):
        with pytest.raises(ValueError, match="POVM must have at least one outcome"):
            orthogonalize_povm([])

    def test_single_outcome_identity(self):
        rounded, report = orthogonalize_povm([np.eye(3)])
        assert_close(rounded[0], np.eye(3), 1e-12)
        assert report.holds

    def test_two_by_two_hand_example(self):
        m1, m2 = np.diag([0.9, 0.1]), np.diag([0.1, 0.9])
        rounded, report = orthogonalize_povm([m1, m2])
        assert_close(rounded[0], np.diag([1.0, 0.0]), 1e-12)
        assert_close(rounded[1], np.diag([0.0, 1.0]), 1e-12)
        assert_close(report.distance_sq, 0.02, 1e-12)
        assert_close(report.budget, 9 * (1 - 0.82), 1e-12)
        assert report.holds

    def test_half_half_hand_example(self):
        # no eigenvalue passes 1/2: the whole space is the residual and
        # goes to the first of the tied outcomes
        rounded, report = orthogonalize_povm([np.eye(2) / 2, np.eye(2) / 2])
        assert_close(rounded[0], np.eye(2), 1e-15)
        assert_close(rounded[1], np.zeros((2, 2)), 1e-15)
        assert_close(report.distance_sq, 0.5, 1e-15)
        assert_close(report.budget, 4.5, 1e-15)
        assert report.holds

    def test_sums_to_identity_exactly(self):
        rng = rng_for(152, 0)
        for trial in range(20):
            dim = int(rng.integers(2, 7))
            povm = random_povm(rng, dim, int(rng.integers(2, 5)))
            rounded, _ = orthogonalize_povm(povm)
            assert np.linalg.norm(sum(rounded) - np.eye(dim)) <= 1e-12
            for r in rounded:
                assert np.linalg.norm(r @ r - r) <= 1e-12


def _ragged_pvm(rng, dim, n_outcomes):
    """PVM on C^dim in a Haar basis with random (possibly zero) ranks."""
    cuts = np.sort(rng.integers(0, dim + 1, n_outcomes - 1))
    sizes = np.diff(np.concatenate([[0], cuts, [dim]]))
    u = random_unitary(rng, dim)
    columns = np.split(u, np.cumsum(sizes)[:-1], axis=1)
    return np.array([v @ v.conj().T for v in columns])


def _nested_povm_stack(kind, seed, dim, n_questions, n_answers, ranks):
    """(X, A, dim, dim) stack of POVMs whose leading blocks are POVMs.

    ``povm``: Wishart POVMs; ``pvm``: Haar PVMs with ragged ranks, so
    the leading blocks are proper POVMs; ``block-pvm``: PVMs that are
    block-diagonal along the nested ranks, so every leading block is an
    exact projection family (eigenvalues 0 and 1).
    """
    rng = rng_for(191, seed)
    families = []
    for _ in range(n_questions):
        if kind == "povm":
            families.append(np.array(random_povm(rng, dim, n_answers)))
        elif kind == "pvm":
            families.append(_ragged_pvm(rng, dim, n_answers))
        else:
            edges = sorted({0, *ranks, dim})
            family = np.zeros((n_answers, dim, dim), dtype=complex)
            for lo, hi in zip(edges, edges[1:]):
                family[:, lo:hi, lo:hi] = _ragged_pvm(rng, hi - lo, n_answers)
            families.append(family)
    stack = np.array(families)
    return (stack + stack.conj().swapaxes(-1, -2)) / 2


@st.composite
def nested_povm_instances(draw):
    dim = draw(st.integers(1, 6))
    ranks = tuple(sorted(draw(st.sets(st.integers(1, dim), min_size=1))))
    return (
        draw(st.sampled_from(["povm", "pvm", "block-pvm"])),
        draw(st.integers(0, 10**6)),
        dim,
        draw(st.integers(1, 3)),
        draw(st.integers(1, 5)),
        ranks,
    )


class TestOrthogonalizeNested:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(instance=nested_povm_instances())
    @example(instance=("povm", 1, 3, 2, 5, (1, 2, 3)))  # |A| > d, ranks down to 1
    @example(instance=("block-pvm", 2, 6, 3, 3, (1, 3, 6)))  # exact projections
    @example(instance=("pvm", 3, 5, 3, 4, (2, 5)))  # ragged ranks across questions
    @example(instance=("povm", 4, 4, 2, 1, (1, 4)))  # a single outcome
    def test_matches_per_povm_loop(self, instance):
        stack = _nested_povm_stack(*instance)
        ranks = instance[-1]
        rounded, reports = orthogonalize_povm(stack, ranks)
        assert len(rounded) == len(ranks)
        assert len(reports) == len(ranks) * len(stack)
        for k, r in enumerate(ranks):
            assert rounded[k].shape == (len(stack), stack.shape[1], r, r)
            for x, family in enumerate(stack[:, :, :r, :r]):
                pvm, distance_sq, budget, holds, gap = orthogonalize_povm_loop(family)
                assume(gap > 1e-9)
                report = reports[k * len(stack) + x]
                assert_close(rounded[k][x], pvm, 1e-12)
                assert report.dim == r and report.n_outcomes == stack.shape[1]
                assert abs(report.distance_sq - distance_sq) <= 1e-12
                assert abs(report.budget - budget) <= 1e-12
                assert report.holds == holds

    def test_single_povm_matches_loop(self):
        povm = random_povm(rng_for(192, 0), 5, 3)
        rounded, report = orthogonalize_povm(povm)
        pvm, distance_sq, budget, holds, _ = orthogonalize_povm_loop(povm)
        assert isinstance(rounded, list) and len(rounded) == 3
        assert_close(np.array(rounded), pvm, 1e-12)
        assert abs(report.distance_sq - distance_sq) <= 1e-12
        assert abs(report.budget - budget) <= 1e-12
        assert report.holds == holds

    def test_non_psd_full_stack_rejected(self):
        # the leading 2 x 2 blocks are POVMs, the full stack is not PSD
        stack = _nested_povm_stack("block-pvm", 5, 4, 2, 2, (1, 2))
        stack[0, 0, 3, 3] += 0.02
        stack[0, 1, 3, 3] -= 0.02
        low = np.linalg.eigvalsh(stack[0, :, :2, :2]).min()
        assert low >= -1e-12
        with pytest.raises(ValueError, match=r"POVM element \(0, 1\) is not PSD"):
            orthogonalize_povm(stack, (1, 2))

    def test_hermitian_check_per_block(self):
        # two rank-1 projections on C^2: the full elements reach 0.9, the
        # 1 x 1 leading block of the first is 0.1; an imaginary 1.2e-12
        # deviation passes the full scale (1.9e-12), not the block's (1.1e-12)
        m = np.array([[0.1, 0.3], [0.3, 0.9]], dtype=complex)
        stack = np.array([[m, np.eye(2) - m]])
        stack[0, 0, 0, 0] += 0.6e-12j
        with pytest.raises(ValueError, match=r"corner 0 POVM element \(0, 0\) is not Hermitian"):
            orthogonalize_povm(stack, (1, 2))

    def test_eigh_calls_at_most_corners_times_answers(self, k2_game, monkeypatch):
        # three corners, two questions, three answers: one stacked
        # eigensolve per visit step and corner, never one per POVM
        e = [np.diag(np.eye(3)[i]).astype(complex) for i in range(3)]
        pvms = {"v0": e, "v1": [e[0] + e[1], e[2], 0 * e[0]]}
        s = CommutingStrategy(3, 3, np.diag(np.sqrt([0.5, 0.3, 0.2])), pvms, pvms)
        calls = []
        inner = syncround.rounding.eigh
        monkeypatch.setattr(
            syncround.rounding, "eigh", lambda *a, **k: calls.append(1) or inner(*a, **k)
        )
        result = round_strategy(k2_game, s)
        assert len(result.tracial.blocks) == 3 and len(k2_game.questions) == 2
        assert len(calls) <= 3 * k2_game.n_answers
        # the compressions are exact projections and v0's has rank 1 per
        # outcome, so corner k runs out of unassigned columns after k + 1
        # visits; in corner 1, v1 is empty after one visit and only padded
        assert len(calls) == 1 + 2 + 3


@st.composite
def complex_stacks(draw):
    """(F, A, n, n) complex stacks with entries scaled by 1e-8 ... 1e8."""
    shape = tuple(draw(st.integers(1, k)) for k in (4, 3)) + (draw(st.integers(1, 9)),) * 2
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    entries = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return rng, entries * 10.0 ** rng.uniform(-8, 8, size=shape)


class TestHermitianPart:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(instance=complex_stacks())
    def test_exactly_hermitian(self, instance):
        # (i, j) is conj(s_ji) + s_ij halved and (j, i) conj(s_ij) + s_ji
        # halved: exact conjugates, as rounding is sign-symmetric
        rng, stack = instance
        n = stack.shape[-1]
        for source in (stack, stack[..., : max(1, n - 2), : max(1, n - 2)]):
            h = _hermitian_part(source)
            assert np.array_equal(h, h.conj().swapaxes(-1, -2))
            # every module's Hermitian part: bitwise the plain formula, on
            # the stack and on a 2-D slice of it
            for x in (source, source[(0,) * (source.ndim - 2)]):
                plain = (x + x.conj().swapaxes(-1, -2)) / 2
                assert _hermitian_part(x).tobytes() == plain.tobytes()
            # the greedy's -1 padding writes on the diagonal keep it so
            dead = rng.random(h.shape[:-1]) < 0.4
            np.einsum("...ii->...i", h)[dead] = -1.0
            assert np.array_equal(h, h.conj().swapaxes(-1, -2))


class TestGreedyChecks:
    def test_hermitian_fault_in_one_middle_corner(self):
        # corners of ranks 1, 2, 3 on C^4; element 0 is the projection on
        # u, whose leading 3 x 3 block has entries 0.01 and whose (3, 3)
        # entry is 0.97.  A 1.5e-12 deviation at (2, 0) of question 1
        # passes the full scale (1.97e-12) and lies outside corners 0 and
        # 1: only corner 2 fails, against its own scale (1.01e-12)
        u = np.array([0.1, 0.1, 0.1, np.sqrt(0.97)])
        p = np.outer(u, u).astype(complex)
        stack = np.array([[p, np.eye(4) - p]] * 2)
        stack[1, 0, 2, 0] += 1.5e-12j
        with pytest.raises(ValueError, match=r"^corner 2 POVM element \(1, 0\) is not Hermitian"):
            orthogonalize_povm(stack, (1, 2, 3))
        # the same stack without the fault rounds
        stack[1, 0, 2, 0] = p[2, 0]
        orthogonalize_povm(stack, (1, 2, 3))

    @staticmethod
    def _stack_and_calls():
        """A stack whose leading blocks are PVMs, and the width of each
        stacked eigensolve its rounding makes, in call order."""
        stack = _nested_povm_stack("block-pvm", 2, 4, 3, 3, (2, 4))
        widths = []
        real = np.linalg.eigh

        def spy(h):
            widths.append(h.shape[-1])
            return real(h)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigh", spy)
            orthogonalize_povm(stack, (2, 4))
        return stack, widths

    @staticmethod
    def _inject(monkeypatch, call: int, family: int, corrupt):
        """Corrupt matrix ``family`` of LAPACK's answer on eigensolve ``call``."""
        real, calls = np.linalg.eigh, []

        def faulty(h):
            w, v = (a.copy() for a in real(h))
            calls.append(1)
            if len(calls) == call:
                corrupt(w[family], v[family])
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", faulty)

    @staticmethod
    def _rescale_column(w, v):
        # V D (W D^-2) D V* = V W V*: reconstructs, not orthonormal
        v[:, -1] *= 2.0
        w[-1] /= 4.0

    @staticmethod
    def _shift_eigenvalue(w, v):
        w[-1] += 0.25

    @pytest.mark.parametrize("step", [0, 1])
    @pytest.mark.parametrize(
        "corrupt, message",
        [("_rescale_column", "eigenvectors of {} are not orthonormal"),
         ("_shift_eigenvalue", "eigendecomposition of {} failed to reconstruct")],
    )
    def test_guard_names_failing_element(self, monkeypatch, step, corrupt, message):
        stack, widths = self._stack_and_calls()
        # corner 1 (rank 4) starts at the first width-4 solve, after corner 0
        call = widths.index(4) + step + 1
        assert len(widths) >= call
        family = 2
        order = np.argsort(-np.trace(stack, axis1=-2, axis2=-1).real, axis=-1, kind="stable")
        name = f"corner 1 POVM element {(family, int(order[family, step]))}"
        self._inject(monkeypatch, call, family, getattr(self, corrupt))
        with pytest.raises(ValueError, match="^" + re.escape(message.format(name))):
            orthogonalize_povm(stack, (2, 4))


class TestRoundStrategy:
    def test_exact_synchronous_fixed_point(self, k2_game, k2_strategy):
        result = round_strategy(k2_game, k2_strategy)
        cert = result.certificate
        assert cert.delta <= 1e-10
        original = correlation_of_commuting(k2_strategy, k2_game.questions)
        rounded = tracial_correlation(result.tracial, k2_game.questions)
        assert np.abs(original.data - rounded.data).max() <= 1e-8
        assert abs(cert.value_in - cert.value_out) <= 1e-8
        assert cert.holds

    def test_dropped_zero_spectrum_within_tolerance(self, k2_game, k2_strategy):
        # two Schmidt^2 values clustered as zeros carry 1.73e-9 of the
        # trace, more than the weight tolerance; the weights are checked
        # against the kept mass, not against 1
        schmidt_sq = np.array([1 - 1.1e-9 - 6.3e-10, 1.1e-9, 6.3e-10])
        s = CommutingStrategy(
            3, 3, np.diag(np.sqrt(schmidt_sq)), k2_strategy.pvms_a, k2_strategy.pvms_b
        )
        decomp = corner_decomposition(reduced_density(s))
        assert decomp.ranks == (1,)
        assert_close(decomp.weights, [schmidt_sq[0]], 1e-15)
        assert round_strategy(k2_game, s).certificate.holds

    def test_dropped_zero_spectrum_above_table_tolerance(self, k2_game, k2_strategy):
        # ten Schmidt^2 values of 1.4e-9 fall in the zero band and carry
        # 1.4e-8 of the trace, more than the table's 1e-8 sum tolerance;
        # the corner table is divided by the kept mass
        lift = {
            side: {q: [np.kron(p, np.eye(4)) for p in fam] for q, fam in pvms.items()}
            for side, pvms in (("a", k2_strategy.pvms_a), ("b", k2_strategy.pvms_b))
        }
        schmidt_sq = np.array([(1 - 1.4e-8) / 2] * 2 + [1.4e-9] * 10)
        s = CommutingStrategy(12, 12, np.diag(np.sqrt(schmidt_sq)), lift["a"], lift["b"])
        decomp = corner_decomposition(reduced_density(s))
        assert decomp.ranks == (2,)
        corner = corner_correlation(s.pvms_a, decomp, k2_game.questions)
        assert_close(corner.data.sum(axis=(2, 3)), 1.0, 1e-15)
        assert round_strategy(k2_game, s).certificate.holds

    def test_single_answer_game_trivial(self):
        game = load_game(diagonal_game_doc(["q0", "q1"], ["only"]))
        rng = rng_for(161, 0)
        s = random_commuting_strategy(rng, game.questions, 1, 3, 3)
        result = round_strategy(game, s)
        assert abs(result.certificate.value_in - result.certificate.value_out) <= 1e-9
        assert result.certificate.holds

    def test_perturbation_sweep_bounds_hold(self, k2_game, k2_strategy):
        for eta in (0.02, 0.05, 0.1):
            for seed in (0, 1):
                s = perturb_b_side(k2_strategy, eta, seed)
                cert = round_strategy(k2_game, s).certificate
                assert cert.delta > 0
                assert cert.holds_first and cert.holds_total and cert.holds_game
                assert cert.d1_first <= cert.d1_sym + cert.d1_corner + 1e-12
                assert (
                    cert.d1_total
                    <= cert.d1_sym + cert.d1_corner + cert.d1_pvm + 1e-12
                )

    def test_random_strategy_bounds_hold(self, k2_game):
        rng = rng_for(162, 0)
        s = random_commuting_strategy(rng, k2_game.questions, 3, 3, 3)
        cert = round_strategy(k2_game, s).certificate
        # large delta makes every bound loose; they must still hold
        assert cert.holds

    def test_alpha_zero_rejected(self, monkeypatch):
        """Rejected before any work: no corner stage is built, and the
        stacked route rejects it too."""

        def refuse(*args, **kwargs):
            raise AssertionError("the corner stage ran")

        monkeypatch.setattr(syncround.rounding, "corner_decomposition", refuse)
        doc = {
            "questions": ["p", "q"],
            "answers": ["a", "b"],
            "nu": [
                {"x": "p", "y": "q", "w": "1/2"},
            ],
            "predicate": {"default": 1, "entries": []},
        }
        game = load_game(json.dumps(doc))
        rng = rng_for(163, 0)
        s = random_commuting_strategy(rng, game.questions, 2, 2, 2)
        with pytest.raises(ValueError, match="alpha"):
            round_strategy(game, s)
        with pytest.raises(ValueError, match="alpha"):
            round_b_sides(game, s, s.pvms_b.stack[None], ["own B side"])

    def test_answer_count_mismatch_rejected_before_any_work(self, k2_game, monkeypatch):
        """A strategy with 4 answers in the 3-answer game is rejected by
        every entry point, naming both counts, before any eigensolve."""
        s = cyclic_coloring_strategy(k2_game.questions, 4)

        def refuse(*args, **kwargs):
            raise AssertionError("an eigensolve ran")

        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        message = "^strategy has 4 answers, game has 3$"
        for entry_point in (round_strategy, verify_dual_distance, synchronicity_deficit):
            with pytest.raises(ValueError, match=message):
                entry_point(k2_game, s)
        with pytest.raises(ValueError, match=message):
            round_b_sides(k2_game, s, s.pvms_b.stack[None], ["own B side"])

    def test_tracial_output_recomputes_identically(self, k2_game, k2_strategy):
        s = perturb_b_side(k2_strategy, 0.05, 4)
        result = round_strategy(k2_game, s)
        reloaded = load_tracial_strategy(dump_tracial_strategy(result.tracial))
        direct = tracial_correlation(reloaded, k2_game.questions)
        pipeline = tracial_correlation(result.tracial, k2_game.questions)
        assert np.abs(direct.data - pipeline.data).max() <= 1e-9

    def test_value_drop_bounded_by_staged_distances(self, k2_game, k2_strategy):
        s = perturb_b_side(k2_strategy, 0.1, 9)
        cert = round_strategy(k2_game, s).certificate
        staged = cert.d1_sym + cert.d1_corner + cert.d1_pvm
        assert cert.value_out >= cert.value_in - staged - 1e-8


class TestPipelineIntegration:
    def test_triangle_game_random_strategy_multicorner(self):
        from syncround import graph_coloring_game

        game = graph_coloring_game([("a", "b"), ("b", "c"), ("a", "c")], 3, "1/3")
        rng = rng_for(181, 0)
        s = random_commuting_strategy(rng, game.questions, 3, 4, 4)
        rho = reduced_density(s)
        decomp = corner_decomposition(rho)
        assert decomp.n_corners >= 2
        result = round_strategy(game, s)
        cert = result.certificate
        assert cert.holds
        reloaded = load_tracial_strategy(dump_tracial_strategy(result.tracial))
        recomputed = tracial_correlation(reloaded, game.questions)
        pipeline = tracial_correlation(result.tracial, game.questions)
        assert np.abs(recomputed.data - pipeline.data).max() <= 1e-9

    def test_seesaw_output_rounds_cleanly(self, k2_game):
        from syncround import seesaw_optimize

        found = seesaw_optimize(k2_game, 3, 3, 20, 2).strategy
        cert = round_strategy(k2_game, found).certificate
        assert cert.holds
        # a high-value strategy stays high-value after rounding
        if cert.value_in >= 0.99:
            assert cert.value_out >= cert.value_in - cert.d1_total - 1e-9

    def test_merge_band_spectrum_renormalized(self, k2_game):
        # a Schmidt coefficient whose square lies inside the clustering
        # merge band gets dropped from the corners; the assembled block
        # weights must still satisfy the exact sum contract
        rng = rng_for(183, 0)
        tiny = 8e-10
        diag = np.zeros((3, 3), dtype=complex)
        diag[0, 0] = np.sqrt(1.0 - tiny)
        diag[1, 1] = np.sqrt(tiny)
        s = CommutingStrategy(
            3,
            3,
            diag,
            {q: random_pvm(rng, 3, 3) for q in k2_game.questions},
            {q: random_pvm(rng, 3, 3) for q in k2_game.questions},
        )
        result = round_strategy(k2_game, s)
        total = sum(b.weight for b in result.tracial.blocks)
        assert abs(total - 1.0) <= 1e-12
        assert result.certificate.holds

    def test_rank_deficient_density_supported(self, k2_game):
        rng = rng_for(182, 0)
        # state with a vanishing Schmidt coefficient: rho has a kernel
        diag = np.zeros((3, 3), dtype=complex)
        diag[0, 0] = np.sqrt(0.6)
        diag[1, 1] = np.sqrt(0.4)
        s = CommutingStrategy(
            3,
            3,
            diag,
            {q: random_pvm(rng, 3, 3) for q in k2_game.questions},
            {q: random_pvm(rng, 3, 3) for q in k2_game.questions},
        )
        rho = reduced_density(s)
        decomp = corner_decomposition(rho)
        assert max(decomp.ranks) == 2  # kernel excluded
        result = round_strategy(k2_game, s)
        assert result.certificate.holds
        for blk in result.tracial.blocks:
            assert blk.dim <= 2


class TestVerifyDualDistance:
    def test_exact_case_both_vanish(self, k2_game, k2_strategy):
        report = verify_dual_distance(k2_game, k2_strategy)
        assert report.comm_sq <= 1e-8
        assert report.dual_sq <= 1e-8
        assert report.holds

    def test_perturbed_within_budget(self, k2_game, k2_strategy):
        report = verify_dual_distance(
            k2_game, perturb_b_side(k2_strategy, 0.05, 2)
        )
        assert report.delta > 0
        assert report.holds_comm and report.holds_dual

    def test_dual_povm_roundoff_tolerated(self):
        # the transported POVM J conj(q) J* is PSD to roundoff (about
        # 1e-15) by construction, so the square roots of the dual pass the
        # strict -PSD_CLAMP clamp: the looser -FAMILY_TOL clamp that the
        # inverse-square-root transport needed here is unreachable
        from syncround import graph_coloring_game, seesaw_optimize

        game = graph_coloring_game([("a", "b"), ("b", "c"), ("a", "c")], 3, "1/3")
        found = seesaw_optimize(game, 4, 3, 8, 5).strategy
        rho = reduced_density(found)
        if float(rho.decomposition.eigenvalues.min()) > 1e-8:
            report = verify_dual_distance(game, found)
            assert report.holds

    def test_product_state_large_deficit_unconditional(self, k2_game):
        rng = rng_for(171, 0)
        e = np.zeros(3, dtype=complex)
        e[0] = 1.0
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        f /= np.linalg.norm(f)
        s = CommutingStrategy(
            3,
            3,
            np.outer(e, f),
            {q: random_pvm(rng, 3, 3) for q in k2_game.questions},
            {q: random_pvm(rng, 3, 3) for q in k2_game.questions},
        )
        report = verify_dual_distance(k2_game, s)
        assert report.delta > 0.1
        assert report.holds


class TestBoundsAgainstDistances:
    def test_first_half_and_full_bounds_on_sweep(self, k2_game, k2_strategy):
        for eta in (0.02, 0.1):
            for seed in (3, 5):
                s = perturb_b_side(k2_strategy, eta, seed)
                game = k2_game
                cert = round_strategy(game, s).certificate
                root = cert.delta**0.25
                assert cert.d1_first <= 9 * root + 1e-6
                assert cert.d1_total <= 57 * root + 1e-6


def _certificate_fields(result):
    return json.dumps(asdict(result.certificate))


class TestRoundBSides:
    """The stacked B-side half against the one-strategy entry points:
    entry i of every field of ``round_b_sides`` is, bit for bit, the
    field that ``round_strategy`` and ``verify_dual_distance`` give for
    ``perturb_b_side`` of a fresh copy of the base strategy."""

    @staticmethod
    def _entry(report, i) -> dict:
        """Entry i of every (N,) field of a stacked report."""
        return {
            f.name: getattr(report, f.name)[i].item()
            for f in fields(report)
            if f.name != "orthogonalization"
        }

    def _assert_entries_match(self, game, base, etas, seeds):
        names = [f"pair {i}" for i in range(len(seeds))]
        stack_b = perturb_b_sides(base, etas, seeds)
        cert, dual = round_b_sides(game, base, stack_b, names)
        for i, (eta, seed) in enumerate(zip(etas, seeds)):
            t = perturb_b_side(fresh_copy(base), eta, seed)
            assert np.array_equal(stack_b[i], t.pvms_b.stack)
            expected = round_strategy(game, t).certificate
            assert cert.holds[i] == expected.holds
            expected = asdict(expected)
            assert json.dumps(cert.orthogonalization) == json.dumps(
                expected.pop("orthogonalization")
            )
            got = self._entry(cert, i)
            assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)
            expected = verify_dual_distance(game, t)
            assert dual.holds[i] == expected.holds
            got = self._entry(dual, i)
            assert json.dumps(got, sort_keys=True) == json.dumps(
                asdict(expected), sort_keys=True
            )

    def test_single_corner_k2(self, k2_game, k2_strategy):
        etas = [0.02, 0.05, 0.1, 0.0, 0.3]
        self._assert_entries_match(k2_game, k2_strategy, etas, list(range(5)))

    def test_multicorner_base_in_another_question_order(self):
        from syncround import graph_coloring_game

        game = graph_coloring_game([("a", "b"), ("b", "c"), ("a", "c")], 3, "1/3")
        s = random_commuting_strategy(rng_for(182, 0), game.questions[::-1], 3, 4, 4)
        assert s.questions != game.questions
        assert round_corners(game, s).decomposition.n_corners >= 2
        self._assert_entries_match(game, s, [0.05, 0.02, 0.1], [7, 8, 2**31 - 1])

    def test_fields_are_arrays_for_a_stack_and_scalars_for_one(self, k2_game, k2_strategy):
        """Every field of ``round_b_sides``, ``holds`` included, is an (N,)
        array; every field of the one-strategy entry points is a Python
        float or bool, so their reports dump to JSON."""
        stack_b = perturb_b_sides(k2_strategy, [0.02, 0.05, 0.1], [1, 2, 3])
        stacked = round_b_sides(k2_game, k2_strategy, stack_b, ["a", "b", "c"])
        s = perturb_b_side(k2_strategy, 0.05, 2)
        single = (round_strategy(k2_game, s).certificate, verify_dual_distance(k2_game, s))
        for report in stacked:
            values = [getattr(report, f.name) for f in fields(report)]
            values = [v for v in values if not isinstance(v, list)] + [report.holds]
            assert all(isinstance(v, np.ndarray) and v.shape == (3,) for v in values)
        for report in single:
            values = [getattr(report, f.name) for f in fields(report)]
            values = [v for v in values if not isinstance(v, list)] + [report.holds]
            assert all(type(v) in (float, bool) for v in values)
            json.dumps(asdict(report))

    def test_non_pvm_b_sides_rejected(self, k2_game, k2_strategy):
        """A B side whose outcomes are all I/3 is a POVM, not a PVM: as the
        B side of a strategy it is rejected, and so it is in a stack."""
        third = np.broadcast_to(np.eye(3) / 3, (2, 2, 3, 3, 3)).astype(complex)
        side = dict(zip(k2_strategy.questions, third[0]))
        with pytest.raises(ValueError, match="is not a projection"):
            CommutingStrategy(3, 3, k2_strategy.state, k2_strategy.pvms_a, side)
        with pytest.raises(ValueError) as raised:
            round_b_sides(k2_game, k2_strategy, third, ["instance 4", "instance 5"])
        assert str(raised.value).startswith(
            "B side PVM for question 'v0' of instance 4 element 0 is not a projection"
        )

    def test_argument_lengths_must_match(self, k2_game, k2_strategy):
        with pytest.raises(ValueError, match="^1 etas for 3 seeds"):
            perturb_b_sides(k2_strategy, [0.05], [1, 2, 3])
        stack_b = perturb_b_sides(k2_strategy, [0.05] * 3, [1, 2, 3])
        with pytest.raises(ValueError, match="^2 names for 3 B sides"):
            round_b_sides(k2_game, k2_strategy, stack_b, ["a", "b"])

    def test_no_b_side_rejected(self, k2_game, k2_strategy):
        empty = np.empty((0,) + k2_strategy.pvms_b.stack.shape, complex)
        with pytest.raises(ValueError, match="at least one B side is needed"):
            round_b_sides(k2_game, k2_strategy, empty, [])


class TestRoundCorners:
    """Every ``round_corners`` call builds its stage from the strategy's
    weakly held rho, with the numbers of a stage built for a fresh copy;
    a strategy with another state or A side has its own rho."""

    def test_each_call_builds_its_own_stage(self, k2_game, k2_strategy, monkeypatch):
        builds = self._count_builds(monkeypatch)
        first = round_corners(k2_game, k2_strategy)
        second = round_corners(k2_game, k2_strategy)
        assert second is not first and len(builds) == 2
        assert second.rho is first.rho is k2_strategy.rho
        assert np.array_equal(second.tracial.table.data, first.tracial.table.data)
        assert [asdict(r) for r in second.reports] == [asdict(r) for r in first.reports]

    def _mismatches(self, k2_game, k2_strategy):
        rng = rng_for(191, 0)
        state = np.diag(np.sqrt([0.5, 0.3, 0.2])).astype(complex)
        other_state = CommutingStrategy(
            3, 3, state, k2_strategy.pvms_a, k2_strategy.pvms_b
        )
        other_a = CommutingStrategy(
            3,
            3,
            k2_strategy.state,
            {q: random_pvm(rng, 3, 3) for q in k2_game.questions},
            k2_strategy.pvms_b,
        )
        swapped = load_game(
            json.dumps(
                {
                    "questions": ["v1", "v0"],
                    "answers": ["0", "1", "2"],
                    "nu": [
                        {"x": "v0", "y": "v0", "w": "1/4"},
                        {"x": "v1", "y": "v1", "w": "1/4"},
                        {"x": "v0", "y": "v1", "w": "1/4"},
                    ],
                    "predicate": {"default": 1, "entries": []},
                }
            )
        )
        return [
            (k2_game, other_state, "state"),
            (k2_game, other_a, "A side"),
            (swapped, k2_strategy, "question order"),
        ]

    def test_mismatched_corners_rejected(self, k2_game, k2_strategy):
        """A held rho never reaches a strategy with another state or A
        side, and another question order of the same strategy gets a
        stage of its own."""
        corners = round_corners(k2_game, k2_strategy)
        stages = []
        for game, s, what in self._mismatches(k2_game, k2_strategy):
            result = round_strategy(game, s)
            assert result.corners is not corners, what
            assert result.corners.questions == tuple(game.questions)
            assert _certificate_fields(result) == (
                _certificate_fields(round_strategy(game, fresh_copy(s)))
            ), what
            # the dual report reads the strategy's own rho and A side
            assert (s.rho is corners.rho) == (s is k2_strategy), what
            assert asdict(verify_dual_distance(game, s)) == asdict(
                verify_dual_distance(game, fresh_copy(s))
            ), what
            stages.append(result.corners)
        assert len({id(stage) for stage in stages}) == len(stages)

    def _count_builds(self, monkeypatch) -> list:
        """One entry per corner stage built from here on."""
        builds = []
        original = syncround.rounding.corner_decomposition

        def counted(rho):
            builds.append(None)
            return original(rho)

        monkeypatch.setattr(syncround.rounding, "corner_decomposition", counted)
        return builds

    def test_dropped_stage_is_built_again(self, k2_game, k2_strategy, monkeypatch):
        """The strategy keeps nothing alive: with no reference cycle, rho
        goes with the last result that holds it, without a garbage
        collection, and the next round computes it again."""
        builds = self._count_builds(monkeypatch)
        densities = []
        original = syncround.strategies.reduced_density

        def counted(s):
            densities.append(s)
            return original(s)

        monkeypatch.setattr(syncround.strategies, "reduced_density", counted)
        s = perturb_b_side(k2_strategy, 0.05, 1)
        result = round_strategy(k2_game, s)
        again = round_strategy(k2_game, s)
        assert again.corners.rho is result.corners.rho
        assert len(builds) == 2 and len(densities) == 1
        first = _certificate_fields(result)
        del result, again
        assert _certificate_fields(round_strategy(k2_game, s)) == first
        assert len(builds) == 3 and len(densities) == 2

    def test_question_order_builds_its_own_stage(self, k2_game, k2_strategy, monkeypatch):
        builds = self._count_builds(monkeypatch)
        swapped = self._mismatches(k2_game, k2_strategy)[-1][0]
        assert swapped.questions == tuple(reversed(k2_game.questions))
        corners = round_corners(k2_game, k2_strategy)
        other = round_corners(swapped, k2_strategy)
        assert other is not corners and len(builds) == 2
        assert other.questions == swapped.questions
        assert other.rho is corners.rho

    def test_pickled_copy_shares_nothing(self, k2_game, k2_strategy, monkeypatch):
        builds = self._count_builds(monkeypatch)
        s = perturb_b_side(k2_strategy, 0.05, 4)
        result = round_strategy(k2_game, s)
        again = pickle.loads(pickle.dumps(s))
        copied = round_strategy(k2_game, again)
        assert copied.corners is not result.corners and len(builds) == 2
        assert again.rho is not s.rho
        assert _certificate_fields(copied) == _certificate_fields(result)

    def test_dual_distance_runs_no_greedy(self, k2_game, k2_strategy, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the corner stage ran")

        monkeypatch.setattr(syncround.rounding, "orthogonalize_povm", refuse)
        monkeypatch.setattr(syncround.rounding, "corner_decomposition", refuse)
        s = perturb_b_side(k2_strategy, 0.05, 2)
        assert verify_dual_distance(k2_game, s).holds


class TestCertificateFlags:
    def test_exact_strategy_holds_by_slack(self, k2_game, k2_strategy):
        # delta = 0 makes every bound 0, and d1_total is roundoff above it
        cert = round_strategy(k2_game, k2_strategy).certificate
        assert cert.delta == 0.0 and cert.d1_total > 0.0
        assert cert.holds and cert.holds_by_slack
        assert not cert.vacuous_total and not cert.vacuous_game
