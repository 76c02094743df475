import dataclasses
import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import syncround
from syncround import (
    CommutingStrategy,
    PVMStack,
    TracialBlock,
    TracialStrategy,
    conjugate_synchronous_strategy,
    correlation_of_commuting,
    cyclic_coloring_strategy,
    dump_commuting_strategy,
    dump_tracial_strategy,
    game_value,
    graph_coloring_game,
    load_commuting_strategy,
    load_game,
    load_tracial_strategy,
    maximally_entangled_state,
    perturb_b_side,
    perturb_b_sides,
    purify,
    reduced_density,
    round_b_sides,
    round_strategy,
    seesaw_optimize,
    standard_form_dual,
    synchronicity_deficit,
    tracial_correlation,
    verify_dual_distance,
)
from syncround.sampling import random_pvm, random_unitary, rng_for
from syncround.spectral import FAMILY_TOL, PSD_CLAMP, TABLE_TOL, functional_calculus
from syncround.strategies import _payoff_operator

from conftest import assert_close, density_matrix, diagonal_game_doc, random_commuting_strategy
from oracles import (
    payoff_operator_kron,
    seesaw_value_loop,
    standard_form_dual_pinv,
    tracial_table_loop,
)

CYCLE5_EDGES = [(f"v{i}", f"v{(i + 1) % 5}") for i in range(5)]
K4_EDGES = [(f"v{i}", f"v{j}") for i in range(4) for j in range(i + 1, 4)]


def spread_strategy(rng, questions, n_answers, dim_a, dim_b):
    """Random strategy whose Schmidt^2 values, drawn log-uniform over
    [1e-5, 1] and normalized, all exceed 1e-6 (at most 5 of them)."""
    rank = min(dim_a, dim_b)
    schmidt_sq = 10.0 ** rng.uniform(-5.0, 0.0, rank)
    schmidt_sq /= schmidt_sq.sum()
    u = random_unitary(rng, dim_a)[:, :rank]
    v = random_unitary(rng, dim_b)[:, :rank]
    return CommutingStrategy(
        dim_a,
        dim_b,
        u @ np.diag(np.sqrt(schmidt_sq)) @ v.T,
        {q: random_pvm(rng, dim_a, n_answers) for q in questions},
        {q: random_pvm(rng, dim_b, n_answers) for q in questions},
    )


def dual_elements(s, questions=None):
    """The dual POVMs of ``s``, question -> (B, dA, dA) elements, read
    through the decomposition's ``reconstruct()``."""
    order = tuple(questions or s.questions)
    dec = standard_form_dual(s.pvms_b, reduced_density(s), order)
    return dict(zip(order, dec.reconstruct()))


def identity_residual(s, dual):
    """Largest |Tr(p^x_a rho^(1/2) p'^y_b rho^(1/2)) - P_{x,y}(a, b)|, with
    rho^(1/2) from the state's own product xi xi*."""
    table = correlation_of_commuting(s)
    rho = s.state @ s.state.conj().T
    sqrt_rho = functional_calculus((rho + rho.conj().T) / 2)
    worst = 0.0
    for yi, y in enumerate(s.questions):
        for b, dual_b in enumerate(dual[y]):
            inner = sqrt_rho @ dual_b @ sqrt_rho
            for xi, x in enumerate(s.questions):
                for a, p in enumerate(s.pvms_a[x]):
                    got = np.trace(p @ inner).real
                    worst = max(worst, abs(got - table.data[xi, yi, a, b]))
    return worst


def product_strategy(rng, questions, n_answers, dim_a, dim_b):
    e = rng.standard_normal(dim_a) + 1j * rng.standard_normal(dim_a)
    f = rng.standard_normal(dim_b) + 1j * rng.standard_normal(dim_b)
    e, f = e / np.linalg.norm(e), f / np.linalg.norm(f)
    state = np.outer(e, f)
    return (
        CommutingStrategy(
            dim_a,
            dim_b,
            state,
            {q: random_pvm(rng, dim_a, n_answers) for q in questions},
            {q: random_pvm(rng, dim_b, n_answers) for q in questions},
        ),
        e,
        f,
    )


class TestCorrelation:
    def test_maximally_entangled_conjugate_is_tracial(self):
        rng = rng_for(11, 0)
        pvms = {q: random_pvm(rng, 4, 3) for q in ("x", "y")}
        s = conjugate_synchronous_strategy(pvms)
        table = correlation_of_commuting(s)
        for xi, x in enumerate(s.questions):
            for yi, y in enumerate(s.questions):
                for a in range(3):
                    for b in range(3):
                        expected = np.trace(pvms[x][a] @ pvms[y][b]).real / 4
                        assert_close(table.data[xi, yi, a, b], expected, 1e-12)

    def test_product_state_factorizes(self):
        s, e, f = product_strategy(rng_for(12, 0), ("q",), 2, 3, 3)
        table = correlation_of_commuting(s)
        for a in range(2):
            for b in range(2):
                expected = (e.conj() @ s.pvms_a["q"][a] @ e).real * (
                    f.conj() @ s.pvms_b["q"][b] @ f
                ).real
                assert_close(table.data[0, 0, a, b], expected, 1e-10)

    def test_single_answer_is_constant_one(self):
        rng = rng_for(13, 0)
        s = random_commuting_strategy(rng, ("q0", "q1"), 1, 3, 2)
        table = correlation_of_commuting(s)
        assert_close(table.data, np.ones_like(table.data), 1e-10)


class TestReducedDensity:
    def test_maximally_entangled_is_tracial_state(self):
        rng = rng_for(21, 0)
        s = conjugate_synchronous_strategy({"q": random_pvm(rng, 3, 2)})
        rho = reduced_density(s)
        assert_close(density_matrix(rho), np.eye(3) / 3, 1e-12)

    def test_product_state_is_pure(self):
        s, e, _ = product_strategy(rng_for(22, 0), ("q",), 2, 4, 3)
        rho = reduced_density(s)
        assert_close(density_matrix(rho), np.outer(e, e.conj()), 1e-12)

    def test_schmidt_spectrum(self):
        # state with Schmidt coefficients sqrt(0.7), sqrt(0.3), rotated
        rng = rng_for(23, 0)
        u, v = random_unitary(rng, 2), random_unitary(rng, 2)
        state = u @ np.diag([np.sqrt(0.7), np.sqrt(0.3)]) @ v.T
        s = CommutingStrategy(
            2,
            2,
            state,
            {"q": random_pvm(rng, 2, 2)},
            {"q": random_pvm(rng, 2, 2)},
        )
        rho = reduced_density(s)
        assert_close(np.sort(rho.singular_values**2), [0.3, 0.7], 1e-12)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_partial_trace_duality(self, seed):
        rng = rng_for(seed, 24)
        s = random_commuting_strategy(rng, ("q",), 2, 3, 4)
        rho = reduced_density(s)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = np.trace(z @ density_matrix(rho))
        zm = z @ s.state
        rhs = np.sum(zm * s.state.conj())
        assert abs(lhs - rhs) <= 1e-9


class TestStandardFormDual:
    def test_maximally_entangled_returns_partner_pvms(self):
        rng = rng_for(31, 0)
        pvms = {q: random_pvm(rng, 3, 3) for q in ("x", "y")}
        s = conjugate_synchronous_strategy(pvms)
        dual = dual_elements(s)
        for q in pvms:
            for a in range(3):
                assert_close(dual[q][a], pvms[q][a], 1e-8)

    def test_product_state_closed_form(self):
        s, e, f = product_strategy(rng_for(32, 0), ("q",), 2, 3, 3)
        dual = dual_elements(s)
        proj = np.outer(e, e.conj())
        complement = np.eye(3) - proj
        for b in range(2):
            weight = (f.conj() @ s.pvms_b["q"][b] @ f).real
            expected = weight * proj + (complement if b == 0 else 0)
            assert_close(dual["q"][b], expected, 1e-8)

    def test_single_answer_gives_identity(self):
        rng = rng_for(33, 0)
        s = random_commuting_strategy(rng, ("q",), 1, 3, 3)
        dual = dual_elements(s)
        assert_close(dual["q"][0], np.eye(3), 1e-8)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_defining_identity_residual(self, seed):
        rng = rng_for(seed, 34)
        s = random_commuting_strategy(rng, ("q0", "q1"), 2, 3, 3)
        assert identity_residual(s, dual_elements(s)) <= 1e-7

    def test_rank_deficient_rho(self, k2_game):
        # Schmidt^2 values down to 3e-10 and 1e-9 lie on the support
        # (>= PSD_CLAMP): an inverse square root of rho amplifies roundoff
        # there by ~6e4 into a dual that is neither PSD nor a partition of
        # unity, while the polar part of the state needs no inverse
        rng = rng_for(36, 0)
        schmidt_sq = np.array([0.4, 0.3, 0.2, 0.1 - 1.3e-9, 1e-9, 3e-10])
        u, v = random_unitary(rng, 6), random_unitary(rng, 6)
        s = CommutingStrategy(
            6,
            6,
            u @ np.diag(np.sqrt(schmidt_sq)) @ v.T,
            {q: random_pvm(rng, 6, 3) for q in k2_game.questions},
            {q: random_pvm(rng, 6, 3) for q in k2_game.questions},
        )
        dual = dual_elements(s)
        low = np.linalg.eigvalsh(np.array([dual[q] for q in s.questions])).min()
        assert low >= -PSD_CLAMP
        assert identity_residual(s, dual) <= 1e-10
        assert verify_dual_distance(k2_game, s).holds

    def test_decomposed_dual_in_question_order(self):
        rng = rng_for(37, 0)
        s = random_commuting_strategy(rng, ("q0", "q1", "q2"), 3, 4, 3)
        dual = dual_elements(s)
        order = ("q2", "q0")
        dec = standard_form_dual(s.pvms_b, reduced_density(s), order)
        assert dec.eigenvectors.shape == (2, 3, 4, 4)
        assert_close(dec.reconstruct(), np.array([dual[q] for q in order]), 1e-10)
        assert list(dual_elements(s, order)) == list(order)

    @pytest.mark.parametrize("dim_a, dim_b", [(5, 3), (3, 5), (4, 4)])
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_matches_pinv_transport(self, dim_a, dim_b, seed):
        s = spread_strategy(rng_for(seed, 35), ("q0", "q1"), 3, dim_a, dim_b)
        rho = np.linalg.eigvalsh(s.state @ s.state.conj().T)
        assert rho[-min(dim_a, dim_b)] >= 1e-6
        expected = standard_form_dual_pinv(s)
        dual = dual_elements(s)
        for q in s.questions:
            assert_close(dual[q], expected[q], 1e-10, q)


class TestSynchronicityDeficit:
    def test_exact_strategy_has_zero_deficit(self, k2_game, k2_strategy):
        assert synchronicity_deficit(k2_game, k2_strategy) <= 1e-12

    def test_single_answer_zero(self):
        game = load_game(diagonal_game_doc(["q0", "q1"], ["only"]))
        rng = rng_for(41, 0)
        s = random_commuting_strategy(rng, game.questions, 1, 3, 2)
        assert synchronicity_deficit(game, s) <= 1e-12

    def test_perturbed_matches_direct_evaluation(self, k2_game, k2_strategy):
        s = perturb_b_side(k2_strategy, 0.05, 7)
        delta = synchronicity_deficit(k2_game, s)
        table = correlation_of_commuting(s, k2_game.questions)
        direct = 1.0 - sum(
            k2_game.mu[x] * table.data[x, x, a, a]
            for x in range(k2_game.n_questions)
            for a in range(k2_game.n_answers)
        )
        assert delta > 0
        assert_close(delta, direct, 1e-12)

    @staticmethod
    def rotated_k2(k2_strategy, theta):
        """The K2 colouring strategy with its B side conjugated by the real
        rotation by theta in the (0, 1) plane: delta = 2 sin^2(theta) / 3."""
        r = np.eye(3)
        r[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        pvms_b = {q: [r @ p @ r.T for p in fam] for q, fam in k2_strategy.pvms_b.items()}
        return CommutingStrategy(3, 3, k2_strategy.state, k2_strategy.pvms_a, pvms_b)

    @pytest.mark.parametrize("theta", [1e-6, 1e-8])
    def test_tiny_deficit_keeps_relative_accuracy(self, k2_game, k2_strategy, theta):
        s = self.rotated_k2(k2_strategy, theta)
        exact = 2.0 * np.sin(theta) ** 2 / 3.0
        delta = synchronicity_deficit(k2_game, s)
        assert abs(delta - exact) <= 1e-9 * exact

    def test_tiny_deficit_certificate_holds_without_slack(self, k2_game, k2_strategy):
        cert = round_strategy(k2_game, self.rotated_k2(k2_strategy, 1e-8)).certificate
        assert cert.delta > 0
        assert cert.d1_total <= cert.bound_total
        assert cert.d1_first <= cert.bound_first
        # value_in rounds to 1 or just above, so 1 - value_in would give
        # eps = 0; eps as the losing mass keeps it, and the value bound
        # holds without the slack too
        assert cert.bound_game > 0
        assert cert.holds_by_slack is False


class TestTracialStrategy:
    def test_single_block_fixed_pvm(self):
        rng = rng_for(51, 0)
        pvm = random_pvm(rng, 4, 3)
        t = TracialStrategy([TracialBlock(1.0, 4, {"x": pvm, "y": pvm})])
        table = tracial_correlation(t)
        for a in range(3):
            for b in range(3):
                expected = (a == b) * np.trace(pvm[a]).real / 4
                assert_close(table.data[0, 1, a, b], expected, 1e-12)

    def test_two_blocks_convex_combination(self):
        rng = rng_for(52, 0)
        pvms = [
            {"q": random_pvm(rng, 3, 2)},
            {"q": random_pvm(rng, 2, 2)},
        ]
        t = TracialStrategy(
            [TracialBlock(0.4, 3, pvms[0]), TracialBlock(0.6, 2, pvms[1])]
        )
        singles = [
            tracial_correlation(TracialStrategy([TracialBlock(1.0, 3, pvms[0])])),
            tracial_correlation(TracialStrategy([TracialBlock(1.0, 2, pvms[1])])),
        ]
        combined = tracial_correlation(t)
        assert_close(
            combined.data, 0.4 * singles[0].data + 0.6 * singles[1].data, 1e-12
        )

    def test_table_symmetric_and_synchronous(self):
        rng = rng_for(53, 0)
        t = TracialStrategy(
            [
                TracialBlock(0.5, 3, {q: random_pvm(rng, 3, 3) for q in "xy"}),
                TracialBlock(0.5, 4, {q: random_pvm(rng, 4, 3) for q in "xy"}),
            ]
        )
        table = tracial_correlation(t)
        assert_close(table.data, table.data.transpose(1, 0, 3, 2), 1e-12)
        for x in range(2):
            off = table.data[x, x] - np.diag(np.diag(table.data[x, x]))
            assert np.abs(off).max() <= 1e-12

    def test_coloring_blocks_win_triangle(self):
        from syncround import graph_coloring_game

        game = graph_coloring_game([("a", "b"), ("b", "c"), ("a", "c")], 3, "1/3")
        basis = [np.zeros((3, 3), dtype=complex) for _ in range(3)]
        for i in range(3):
            basis[i][i, i] = 1.0
        pvms = {
            q: [basis[(a + i) % 3] for a in range(3)]
            for i, q in enumerate(game.questions)
        }
        t = TracialStrategy([TracialBlock(1.0, 3, pvms)])
        assert abs(game_value(game, tracial_correlation(t, game.questions)) - 1.0) <= 1e-12

    def test_synchronicity_invariant_enforced(self):
        overlap = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        bad = [np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([[0.5, -0.5], [-0.5, 0.5]])]
        TracialStrategy([TracialBlock(1.0, 2, {"q": overlap})])
        table = tracial_correlation(
            TracialStrategy([TracialBlock(1.0, 2, {"q": bad})])
        )
        # bad is still a PVM (orthogonal rank-1 projections), so fine
        assert table.data[0, 0, 0, 1] <= 1e-12

    def test_cross_term_check_is_reachable(self, monkeypatch):
        """With the table tolerance below zero, any cross term fails the
        check, so it is live code on valid PVMs."""
        block = TracialBlock(1.0, 2, {"q": [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]})
        TracialStrategy([block])
        monkeypatch.setattr(syncround.strategies, "TABLE_TOL", -1.0)
        with pytest.raises(ValueError, match="not synchronous: cross term 0.000e"):
            TracialStrategy([block])

    def test_cross_term_at_the_pvm_edge(self):
        """A 1 x 1 PVM at the edge of FAMILY_TOL passes ``require_pvm`` and
        carries a cross term FAMILY_TOL^2 above TABLE_TOL (= FAMILY_TOL)."""
        assert TABLE_TOL == FAMILY_TOL
        tol = FAMILY_TOL
        edge = [np.array([[1.0 - tol**2]]), np.array([[tol + tol**2]])]
        TracialBlock(1.0, 1, {"q": edge})
        with pytest.raises(ValueError, match="not synchronous: cross term 1.000e-08"):
            TracialStrategy([TracialBlock(1.0, 1, {"q": edge})])

    def test_same_question_table_is_the_diagonal(self):
        rng = rng_for(54, 0)
        t = TracialStrategy(
            [
                TracialBlock(0.3, 3, {q: random_pvm(rng, 3, 4) for q in "xyz"}),
                TracialBlock(0.7, 5, {q: random_pvm(rng, 5, 4) for q in "xyz"}),
            ]
        )
        # "zxy" is the held order "xyz" permuted by [2, 0, 1]
        order, same = [2, 0, 1], np.arange(3)
        permuted = tracial_correlation(t, "zxy")
        assert permuted.questions == ("z", "x", "y")
        assert np.array_equal(permuted.data[same, same], t.table.data[order, order])
        assert np.array_equal(permuted.data, t.table.data[np.ix_(order, order)])

    def test_table_matches_per_entry_loop(self):
        # dims 1-5, more answers than most dims, unequal weights, and the
        # first three blocks with equal w / d
        rng = rng_for(55, 0)
        weights, dims = [0.1, 0.2, 0.3, 0.15, 0.25], [1, 2, 3, 4, 5]
        t = TracialStrategy(
            [
                TracialBlock(w, d, {q: random_pvm(rng, d, 4) for q in "xyz"})
                for w, d in zip(weights, dims)
            ]
        )
        assert t.questions == ("x", "y", "z")
        assert_close(t.table.data, tracial_table_loop(t, t.questions), 1e-14)
        assert tracial_correlation(t) is t.table
        for order in ("zxy", "yzx", ("z", "y")):
            table = tracial_correlation(t, order)
            assert_close(table.data, tracial_table_loop(t, tuple(order)), 1e-14)

    def test_strategy_is_frozen(self):
        t = TracialStrategy([TracialBlock(1.0, 2, {"q": [np.eye(2), np.zeros((2, 2))]})])
        assert isinstance(t.blocks, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.blocks = ()
        with pytest.raises(ValueError, match="read-only"):
            t.table.data[0, 0, 0, 0] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            tracial_correlation(t).data = np.zeros_like(t.table.data)

    def test_unknown_question_rejected(self):
        t = TracialStrategy([TracialBlock(1.0, 2, {"q": [np.eye(2), np.zeros((2, 2))]})])
        with pytest.raises(ValueError, match=r"strategy has no PVMs for questions \['w'\]"):
            tracial_correlation(t, ["q", "w"])

    def test_weights_must_sum_to_one(self):
        pvm = [np.eye(2)]
        with pytest.raises(ValueError, match="sum to 1"):
            TracialStrategy([TracialBlock(0.5, 2, {"q": pvm})])


class TestPurify:
    """purify(t) realizes t's table, and rounding it gives that table back:
    its state commutes with its A side, so every corner is exact."""

    K3 = graph_coloring_game([("a", "b"), ("b", "c"), ("a", "c")], 3, "1/2")

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10**6),
        # a few levels w_k / d_k, so that blocks often share one and their corners merge
        blocks=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3),
    )
    def test_round_of_purification_is_the_table(self, seed, blocks):
        rng = rng_for(seed, 0)
        total = sum(level * dim for dim, level in blocks)
        t = TracialStrategy([
            TracialBlock(level * dim / total, dim,
                         {q: random_pvm(rng, dim, 3) for q in self.K3.questions})
            for dim, level in blocks
        ])
        s = purify(t)
        assert s.dim_a == s.dim_b == sum(dim for dim, _ in blocks)
        assert_close(correlation_of_commuting(s, t.questions).data, t.table.data, TABLE_TOL)
        rounded = round_strategy(self.K3, s).tracial
        assert_close(rounded.table.data, t.table.data, TABLE_TOL)


class TestSeesaw:
    def test_diagonal_game_reaches_one_in_two_iterations(self):
        game = load_game(diagonal_game_doc(["q0", "q1", "q2"], ["a", "b", "c"]))
        for dims in ((3, 3), (2, 4), (4, 2), (1, 1)):
            for seed in range(3):
                result = seesaw_optimize(game, dims[0], dims[1], 2, seed)
                assert result.values[-1] >= 1.0 - 1e-9, (dims, seed)

    def test_k2_coloring_embeds_classical_optimum(self, k2_game):
        result = seesaw_optimize(k2_game, 3, 3, 30, 1)
        assert result.values[-1] >= 0.99
        table = correlation_of_commuting(result.strategy, k2_game.questions)
        assert game_value(k2_game, table) >= 0.99

    def test_zero_iterations_returns_valid_random_strategy(self, k2_game):
        result = seesaw_optimize(k2_game, 3, 2, 0, 5)
        assert result.strategy.dim_a == 3 and result.strategy.dim_b == 2
        assert len(result.values) == 1
        correlation_of_commuting(result.strategy)

    def test_trajectory_monotone(self, k2_game):
        for seed in (0, 1, 2):
            values = seesaw_optimize(k2_game, 3, 3, 10, seed).values
            assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))

    def test_rectangular_dimensions_supported(self, k2_game):
        result = seesaw_optimize(k2_game, 3, 2, 5, 3)
        values = result.values
        assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("edges", [[("v0", "v1")], CYCLE5_EDGES, K4_EDGES])
    def test_final_value_matches_loop_oracle(self, edges):
        game = graph_coloring_game(edges, 3, "1/2")
        for dims in ((3, 3), (2, 4), (4, 2), (1, 1)):
            result = seesaw_optimize(game, dims[0], dims[1], 3, 4)
            s = result.strategy
            expected = seesaw_value_loop(
                game,
                [s.pvms_a[q] for q in game.questions],
                [s.pvms_b[q] for q in game.questions],
                s.state,
            )
            assert abs(result.values[-1] - expected) <= 1e-12, dims

    def test_state_operator_matches_kron_oracle(self):
        game = graph_coloring_game(CYCLE5_EDGES, 3, "1/2")
        assert np.count_nonzero(game.nu == 0.0) > 0
        rng = rng_for(31, 0)
        pvms_a = [random_pvm(rng, 2, 3) for _ in game.questions]
        pvms_b = [random_pvm(rng, 3, 3) for _ in game.questions]
        weights = game.nu[:, :, None, None] * game.predicate
        got = _payoff_operator(weights, np.array(pvms_a), np.array(pvms_b))
        assert_close(got, payoff_operator_kron(game, pvms_a, pvms_b), 1e-12)


class TestPerturbation:
    def test_perturbation_preserves_pvm_structure(self, k2_strategy):
        s = perturb_b_side(k2_strategy, 0.1, 3)
        CommutingStrategy(s.dim_a, s.dim_b, s.state, s.pvms_a, s.pvms_b)

    def test_deficit_scales_quadratically(self, k2_game, k2_strategy):
        deltas = [
            synchronicity_deficit(k2_game, perturb_b_side(k2_strategy, eta, 11))
            for eta in (0.02, 0.04)
        ]
        ratio = deltas[1] / deltas[0]
        assert 3.0 <= ratio <= 5.0


class TestReadOnlyStacks:
    """Each side and each tracial block owns one read-only (X, A, d, d)
    stack; strategies that share a side share its array."""

    def test_writes_raise(self, k2_strategy):
        s = k2_strategy
        for array in (s.state, s.pvms_a.stack, s.pvms_b["v1"], s.pvms_a["v0"][1]):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.state = np.eye(3)
        block = TracialBlock(1.0, 2, {"q": [np.eye(2), np.zeros((2, 2))]})
        with pytest.raises(ValueError, match="read-only"):
            block.pvms.stack[0, 0, 0, 0] = 0.0

    def test_family_is_a_view_of_the_stack(self, k2_strategy):
        side = k2_strategy.pvms_a
        assert isinstance(side, PVMStack) and side.stack.shape == (2, 3, 3, 3)
        assert np.shares_memory(side["v1"], side.stack)
        assert side.in_order(("v0", "v1")) is side.stack
        assert_close(side.in_order(("v1", "v0")), side.stack[::-1], 0.0)
        with pytest.raises(ValueError, match=r"no PVMs for questions \['w'\]"):
            side.in_order(("v0", "w"))

    def test_caller_arrays_are_not_kept(self):
        pvm = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        state = maximally_entangled_state(2)
        s = CommutingStrategy(2, 2, state, {"q": pvm}, {"q": pvm})
        pvm[0][0, 0] = 0.5
        state[0, 0] = 0.0
        assert s.pvms_a["q"][0][0, 0] == 1.0
        assert s.state[0, 0] != 0.0

    def test_pickle_round_trip_stays_read_only(self, k2_strategy):
        s = perturb_b_side(k2_strategy, 0.05, 4)
        again = pickle.loads(pickle.dumps(s))
        for mine, theirs in ((s.state, again.state), (s.pvms_b.stack, again.pvms_b.stack)):
            assert np.array_equal(mine, theirs) and not theirs.flags.writeable
        assert again.questions == s.questions
        mine, theirs = reduced_density(s), reduced_density(again)
        assert np.array_equal(mine.singular_values, theirs.singular_values)
        assert np.array_equal(mine.left, theirs.left) and np.array_equal(mine.right, theirs.right)

    def test_perturbation_shares_state_and_a_side(self, k2_strategy):
        t = perturb_b_side(k2_strategy, 0.05, 4)
        assert t.state is k2_strategy.state
        assert t.pvms_a is k2_strategy.pvms_a
        rho = density_matrix(reduced_density(k2_strategy))
        assert np.array_equal(density_matrix(reduced_density(t)), rho)

    def test_reduced_density_once_per_use(self, k2_game, monkeypatch):
        """Nothing is cached on a strategy: each rounding entry point
        computes rho once, and the strategy holds only its fields."""
        calls = []
        original = syncround.rounding.reduced_density

        def counted(s):
            calls.append(s)
            return original(s)

        monkeypatch.setattr(syncround.rounding, "reduced_density", counted)
        base = cyclic_coloring_strategy(k2_game.questions, 3)
        s = perturb_b_side(base, 0.05, 6)
        result = round_strategy(k2_game, s)
        dual = verify_dual_distance(k2_game, s)
        assert result.certificate.holds and dual.holds
        assert calls == [s, s]
        calls.clear()
        for _ in range(2):
            stack_b = perturb_b_sides(base, [0.05] * 3, range(3))
            cert, dual = round_b_sides(k2_game, base, stack_b, ["0", "1", "2"])
            assert cert.holds.all() and dual.holds.all()
        assert calls == [base, base]
        assert set(vars(s)) == {f.name for f in dataclasses.fields(CommutingStrategy)}

    def test_question_order_of_a_strategy_does_not_matter(self):
        game = graph_coloring_game(CYCLE5_EDGES, 3, "1/2")
        s = perturb_b_side(
            random_commuting_strategy(rng_for(71, 0), game.questions, 3, 4, 4), 0.05, 1
        )
        backwards = CommutingStrategy(
            4,
            4,
            s.state,
            {q: s.pvms_a[q] for q in reversed(game.questions)},
            {q: s.pvms_b[q] for q in reversed(game.questions)},
        )
        assert backwards.questions == tuple(reversed(game.questions))
        for fn in (round_strategy, verify_dual_distance):
            forward, backward = fn(game, s), fn(game, backwards)
            if fn is round_strategy:
                forward, backward = forward.certificate, backward.certificate
            assert json.dumps(dataclasses.asdict(forward)) == json.dumps(
                dataclasses.asdict(backward)
            )

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_block_weight_rejected(self, weight):
        pvm = {"q": [np.eye(2), np.zeros((2, 2))]}
        with pytest.raises(ValueError, match="block weight|sum to 1"):
            TracialStrategy([TracialBlock(weight, 2, pvm)])

    @pytest.mark.parametrize("norm_excess, accepted", [(4.5e-11, True), (9e-11, False)])
    def test_unit_mass_is_the_density_check(self, k2_game, k2_strategy, norm_excess, accepted):
        # ||xi||^2 = tr rho: 1 + 9e-11 is accepted, 1 + 1.8e-10 is not
        state = k2_strategy.state * (1.0 + norm_excess)
        sides = k2_strategy.pvms_a, k2_strategy.pvms_b
        if not accepted:
            with pytest.raises(ValueError, match="unit vector"):
                CommutingStrategy(3, 3, state, *sides)
            return
        s = perturb_b_side(CommutingStrategy(3, 3, state, *sides), 0.05, 1)
        assert round_strategy(k2_game, s).certificate.holds
        assert verify_dual_distance(k2_game, s).holds

    def test_nan_state_rejected(self, k2_strategy):
        state = np.array(k2_strategy.state)
        state[1, 2] = np.nan
        with pytest.raises(ValueError, match="unit vector: norm nan"):
            CommutingStrategy(3, 3, state, k2_strategy.pvms_a, k2_strategy.pvms_b)


class TestSerialization:
    def test_commuting_round_trip(self):
        rng = rng_for(61, 0)
        s = random_commuting_strategy(rng, ("q0", "q1"), 2, 3, 2)
        again = load_commuting_strategy(dump_commuting_strategy(s))
        assert again.dim_a == s.dim_a and again.dim_b == s.dim_b
        assert np.abs(again.state - s.state).max() <= 1e-15
        for q in s.questions:
            for a in range(2):
                assert np.abs(again.pvms_a[q][a] - s.pvms_a[q][a]).max() <= 1e-15
                assert np.abs(again.pvms_b[q][a] - s.pvms_b[q][a]).max() <= 1e-15

    def test_tracial_round_trip(self):
        rng = rng_for(62, 0)
        t = TracialStrategy(
            [
                TracialBlock(0.25, 2, {"q": random_pvm(rng, 2, 2)}),
                TracialBlock(0.75, 3, {"q": random_pvm(rng, 3, 2)}),
            ]
        )
        again = load_tracial_strategy(dump_tracial_strategy(t))
        assert [b.dim for b in again.blocks] == [2, 3]
        assert_close(
            tracial_correlation(again).data, tracial_correlation(t).data, 1e-15
        )

    @pytest.mark.parametrize(
        "key, value",
        [("dimA", 3.9), ("dimB", 3.0), ("dimA", "x"), ("dimB", True)],
        ids=["fraction", "float", "string", "bool"],
    )
    def test_dimensions_must_be_json_integers(self, k2_strategy, key, value):
        doc = json.loads(dump_commuting_strategy(k2_strategy))
        doc[key] = value
        message = f"malformed strategy document: {key} must be a JSON integer, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_commuting_strategy(json.dumps(doc))

    @pytest.mark.parametrize(
        "key, value, kind",
        [("dim", 3.7, "integer"), ("dim", True, "integer"), ("w", True, "number"),
         ("w", "1.0", "number")],
        ids=["dim-fraction", "dim-bool", "w-bool", "w-string"],
    )
    def test_block_fields_must_be_json_numbers(self, key, value, kind):
        pvm = {"q": [np.eye(3), np.zeros((3, 3))]}
        doc = json.loads(dump_tracial_strategy(TracialStrategy([TracialBlock(1.0, 3, pvm)])))
        doc["blocks"][0][key] = value
        message = f"block 0 {key} must be a JSON {kind}, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_tracial_strategy(json.dumps(doc))
        doc["blocks"][0][key] = 1 if key == "w" else 3
        assert load_tracial_strategy(json.dumps(doc)).blocks[0].weight == 1.0

    def test_block_weight_beyond_float_range_rejected(self):
        pvm = {"q": [np.eye(3), np.zeros((3, 3))]}
        doc = json.loads(dump_tracial_strategy(TracialStrategy([TracialBlock(1.0, 3, pvm)])))
        doc["blocks"][0]["w"] = 10**400
        with pytest.raises(ValueError, match="^malformed tracial strategy document"):
            load_tracial_strategy(json.dumps(doc))

    def test_malformed_strategy_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            load_commuting_strategy("{}")

    @pytest.mark.parametrize(
        "xi",
        [
            [[[1, 0], [0, "0"]], [[0, 0], [0, 0]]],  # a string entry
            [[[1, 0], [0, 0]], [[0, 0]]],  # a ragged row
        ],
        ids=["string-entry", "ragged-row"],
    )
    def test_malformed_matrix_rejected(self, xi):
        pvm = [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]
        doc = {"dimA": 2, "dimB": 2, "xi": xi, "pvmsA": {"q": pvm}, "pvmsB": {"q": pvm}}
        with pytest.raises(ValueError, match=r"malformed complex matrix in xi"):
            load_commuting_strategy(json.dumps(doc))


class TestValidation:
    @pytest.mark.parametrize(
        "fault, message",
        [
            ("projection", r"^B side PVM for question 'v1' element 2 is not a projection"),
            ("hermitian", r"^B side PVM for question 'v1' element 2 is not Hermitian"),
            ("sum", r"^B side PVM for question 'v1' does not sum to the identity"),
            ("shape", r"^B side PVM for question 'v1' element 2 has shape \(2, 2\)"),
            ("outcomes", r"^B side PVM for question 'v1' has 2 outcomes, expected 3"),
        ],
    )
    def test_stacked_check_names_the_question(self, k2_strategy, fault, message):
        family = list(k2_strategy.pvms_b["v1"])
        if fault == "projection":
            family[2] = 0.5 * family[2]
        elif fault == "hermitian":
            family[2] = family[2] + 1e-3 * np.triu(np.ones((3, 3)), 1)
        elif fault == "sum":
            family[2] = np.zeros((3, 3))
        elif fault == "shape":
            family[2] = np.eye(2)
        else:
            family = family[:2]
        pvms_b = {**k2_strategy.pvms_b, "v1": family}
        with pytest.raises(ValueError, match=message):
            CommutingStrategy(3, 3, k2_strategy.state, k2_strategy.pvms_a, pvms_b)

    def test_tracial_block_names_the_question(self):
        pvms = {"q0": [np.eye(2), np.zeros((2, 2))], "q1": [np.eye(2), np.eye(2)]}
        with pytest.raises(ValueError, match=r"^block\(dim=2\) PVM for question 'q1' does not"):
            TracialBlock(1.0, 2, pvms)

    def test_non_unit_state_rejected(self):
        pvm = [np.eye(2)]
        with pytest.raises(ValueError, match="unit vector"):
            CommutingStrategy(2, 2, np.eye(2), {"q": pvm}, {"q": pvm})

    def test_question_set_mismatch_rejected(self):
        pvm = [np.eye(2)]
        with pytest.raises(ValueError, match="question set"):
            CommutingStrategy(
                2,
                2,
                maximally_entangled_state(2),
                {"q": pvm},
                {"r": pvm},
            )
