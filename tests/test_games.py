import dataclasses
import json
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from syncround import (
    CorrelationTable,
    GameFormatError,
    SynchronousGame,
    game_value,
    graph_coloring_game,
    load_game,
    save_game,
    table_l1_distance,
)

from conftest import diagonal_game_doc
from oracles import save_game_loop


def coloring_doc(asymmetric=False, bad_total=None):
    entries = [
        {"x": "v0", "y": "v0", "w": "1/4"},
        {"x": "v1", "y": "v1", "w": "1/4"},
        {"x": "v0", "y": "v1", "w": "1/4"},
    ]
    if asymmetric:
        entries.append({"x": "v1", "y": "v0", "w": "1/8"})
    if bad_total is not None:
        entries[-1] = {"x": "v0", "y": "v1", "w": bad_total}
    return json.dumps(
        {
            "questions": ["v0", "v1"],
            "answers": ["0", "1", "2"],
            "nu": entries,
            "predicate": {
                "default": 1,
                "entries": [
                    {"x": "v0", "y": "v1", "a": c, "b": c, "v": 0} for c in "012"
                ],
            },
        }
    )


class TestLoadGame:
    def test_uniform_diagonal_alpha_one(self):
        game = load_game(diagonal_game_doc(["q0", "q1"], ["a", "b"]))
        assert game.alpha == 1.0
        assert game.nu_exact is not None

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_names_its_pair(self, weight):
        message = r"^invalid weight (nan|inf) in nu entry \('v0', 'v1'\)$"
        with pytest.raises(GameFormatError, match=message):
            load_game(coloring_doc(bad_total=weight))

    @pytest.mark.parametrize(
        "entries, pair",
        [
            ([{"x": "v0", "y": "v1", "w": 10**400}], "('v0', 'v1')"),
            ([{"x": "v0", "y": "v1", "w": "1e400"}], "('v0', 'v1')"),
            ([{"x": "v0", "y": "v0", "w": 0.5}, {"x": "v1", "y": "v1", "w": 10**400}],
             "('v1', 'v1')"),
            ([{"x": "v0", "y": "v0", "w": 10**308}, {"x": "v1", "y": "v1", "w": 10**308}],
             "('v1', 'v1')"),
        ],
        ids=["integer", "string", "after-float", "sum"],
    )
    def test_weight_beyond_float_range_names_its_entry(self, entries, pair):
        """A weight, or a sum of weights, past float range is a format error
        at the entry that gets there, not an OverflowError."""
        doc = dict(json.loads(coloring_doc()), nu=entries)
        message = f"^nu mass exceeds the float range at entry {re.escape(pair)}$"
        with pytest.raises(GameFormatError, match=message):
            load_game(json.dumps(doc))

    def test_asymmetric_nu_rejected(self):
        with pytest.raises(GameFormatError, match="not symmetric"):
            load_game(coloring_doc(asymmetric=True))

    def test_k2_coloring_document_alpha(self):
        game = load_game(coloring_doc())
        assert game.alpha == 0.5

    def test_renormalization_within_tolerance(self):
        doc = json.loads(diagonal_game_doc(["q0", "q1"], ["a"]))
        doc["nu"] = [
            {"x": "q0", "y": "q0", "w": 0.5 + 3e-10},
            {"x": "q1", "y": "q1", "w": 0.5},
        ]
        game = load_game(json.dumps(doc))
        assert abs(float(game.nu.sum()) - 1.0) <= 1e-12

    def test_renormalization_beyond_tolerance_rejected(self):
        doc = json.loads(diagonal_game_doc(["q0", "q1"], ["a"]))
        doc["nu"] = [
            {"x": "q0", "y": "q0", "w": 0.6},
            {"x": "q1", "y": "q1", "w": 0.5},
        ]
        with pytest.raises(GameFormatError, match="sums to"):
            load_game(json.dumps(doc))

    def test_unknown_label_rejected(self):
        doc = json.loads(diagonal_game_doc(["q0"], ["a"]))
        doc["nu"] = [{"x": "q0", "y": "zz", "w": 1}]
        with pytest.raises(GameFormatError, match="unknown question"):
            load_game(json.dumps(doc))

    def test_conflicting_diagonal_entry_rejected(self):
        doc = json.loads(diagonal_game_doc(["q0"], ["a", "b"]))
        doc["predicate"]["entries"] = [
            {"x": "q0", "y": "q0", "a": "a", "b": "b", "v": 1}
        ]
        with pytest.raises(GameFormatError, match="diagonal"):
            load_game(json.dumps(doc))

    def test_exact_iff_every_weight_is_a_fraction(self):
        g = graph_coloring_game([("a", "b")], 2, "1/2")
        same = SynchronousGame(g.questions, g.answers, g.nu_exact, g.predicate)
        assert same.nu_exact == g.nu_exact
        assert save_game(same) == save_game(g)
        as_floats = SynchronousGame(g.questions, g.answers, g.nu, g.predicate)
        assert as_floats.nu_exact is None
        assert np.array_equal(as_floats.nu, g.nu)
        # an int is not promoted: one among Fractions makes the weights floats
        mixed = [[Fraction(1), 0], [0, Fraction(0)]]
        pred = np.ones((2, 2, 1, 1), dtype=bool)
        assert SynchronousGame(("p", "q"), ("a",), mixed, pred).nu_exact is None

    def test_first_conflicting_diagonal_entry_named(self):
        doc = json.loads(diagonal_game_doc(["q0", "q1"], ["a", "b"]))
        doc["predicate"]["entries"] = [
            {"x": "q1", "y": "q1", "a": "a", "b": "b", "v": 1},
            {"x": "q0", "y": "q0", "a": "b", "b": "b", "v": 0},
            {"x": "q0", "y": "q0", "a": "b", "b": "a", "v": 1},
        ]
        # the (q0, b, a) entry also sets its mirror (q0, a, b), the first
        # conflict in (question, answer, answer) order
        with pytest.raises(GameFormatError, match=r"at \('q0', 'a', 'b'\)$"):
            load_game(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"questions": 5}, r"^questions must be a JSON array, got 5$"),
            ({"questions": "v0"}, r"^questions must be a JSON array, got 'v0'$"),
            ({"answers": "ab"}, r"^answers must be a JSON array, got 'ab'$"),
            ({"nu": 3}, r"^nu must be a JSON array, got 3$"),
            (
                {"predicate": {"default": 1, "entries": 7}},
                r"^predicate entries must be a JSON array, got 7$",
            ),
            (
                {"nu": [{"x": ["v"], "y": "v", "w": 1}]},
                r"^nu entry references unknown question \(\['v'\], 'v'\)$",
            ),
            (
                {"predicate": {"default": 1, "entries": [
                    {"x": "v", "y": ["0"], "a": "a", "b": "b", "v": 0}]}},
                r"^predicate entry references unknown question \('v', \['0'\]\)$",
            ),
            (
                {"predicate": {"default": 1, "entries": [
                    {"x": "v", "y": "0", "a": ["a"], "b": "b", "v": 0}]}},
                r"^predicate entry references unknown answer \(\['a'\], 'b'\)$",
            ),
            (
                {"questions": [0, 1], "nu": [{"x": 0, "y": 0, "w": 1}]},
                r"^questions label 0 is not a JSON string$",
            ),
            (
                {"questions": [["q"], {"r": 1}]},
                r"^questions label \['q'\] is not a JSON string$",
            ),
            ({"answers": ["a", None]}, r"^answers label None is not a JSON string$"),
        ],
        ids=["questions-int", "questions-str", "answers-str", "nu-int", "entries-int",
             "nu-x-list", "predicate-y-list", "predicate-a-list", "question-labels-int",
             "question-labels-list-object", "answer-label-null"],
    )
    def test_malformed_field_named(self, field, message):
        # a string of labels is not split into one-character labels: "v0"
        # would read as the questions "v" and "0" of the document below
        doc = dict(json.loads(diagonal_game_doc(["v", "0"], ["a", "b"])), **field)
        with pytest.raises(GameFormatError, match=message):
            load_game(json.dumps(doc))

    def test_malformed_json_rejected(self):
        with pytest.raises(GameFormatError, match="JSON"):
            load_game("{not json")

    def test_round_trip_identity(self):
        for doc in (coloring_doc(), diagonal_game_doc(["q0", "q1", "q2"], ["x", "y"])):
            game = load_game(doc)
            again = load_game(save_game(game))
            assert again.questions == game.questions
            assert again.answers == game.answers
            assert np.array_equal(again.nu, game.nu)
            assert again.nu_exact == game.nu_exact
            assert np.array_equal(again.predicate, game.predicate)

    def test_round_trip_float_weights(self):
        doc = json.loads(diagonal_game_doc(["q0", "q1"], ["a"]))
        doc["nu"] = [
            {"x": "q0", "y": "q0", "w": 1 / 3},
            {"x": "q1", "y": "q1", "w": 2 / 3},
            {"x": "q0", "y": "q1", "w": 0.0},
        ]
        game = load_game(json.dumps(doc))
        assert game.nu_exact is None
        again = load_game(save_game(game))
        assert np.abs(again.nu - game.nu).max() <= 1e-15


@st.composite
def accepted_games(draw):
    """A game the constructor accepts: 2-4 questions, 1-3 answers, a
    symmetric predicate that keeps the diagonal rule, and symmetric
    weights, exact (with a total within the constructor's 1e-12 of 1) or
    floats."""
    nq, na = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    questions = draw(st.lists(st.text(max_size=3), min_size=nq, max_size=nq, unique=True))
    answers = draw(st.lists(st.text(max_size=3), min_size=na, max_size=na, unique=True))
    exact = draw(st.booleans())
    entry = st.integers(0, 4) if exact else st.floats(0.0, 1.0)
    raw = np.array(draw(st.lists(entry, min_size=nq * nq, max_size=nq * nq)), dtype=object)
    raw = raw.reshape(nq, nq)
    raw = np.triu(raw) + np.triu(raw, 1).T
    total = raw.sum()
    assume(total > 0)
    if exact:
        scale = 1 + Fraction(draw(st.integers(-99, 99)), 10**14)
        nu = [[Fraction(w) / total * scale for w in row] for row in raw.tolist()]
    else:
        nu = raw.astype(float) / float(total)
    bits = draw(st.lists(st.booleans(), min_size=(nq * na) ** 2, max_size=(nq * na) ** 2))
    predicate = np.array(bits).reshape(nq, nq, na, na)
    predicate &= predicate.transpose(1, 0, 3, 2)
    predicate[np.arange(nq), np.arange(nq)] = np.eye(na, dtype=bool)
    return SynchronousGame(tuple(questions), tuple(answers), nu, predicate)


class TestFrozenGame:
    """A game is a value: nu is held once, and the fields derived from it
    cannot drift from it."""

    @pytest.mark.parametrize("name", ["nu", "predicate", "mu"])
    def test_arrays_are_read_only(self, k2_game, name):
        with pytest.raises(ValueError, match="read-only"):
            getattr(k2_game, name)[0] = 0.9
        assert k2_game.alpha == 0.5

    def test_fields_cannot_be_set(self, k2_game):
        with pytest.raises(dataclasses.FrozenInstanceError):
            k2_game.alpha = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            k2_game.nu = np.eye(2) / 2

    def test_caller_array_does_not_change_the_game(self, k2_game):
        nu, predicate = k2_game.nu.copy(), k2_game.predicate.copy()
        game = SynchronousGame(k2_game.questions, k2_game.answers, nu, predicate)
        nu[0, 0], predicate[0, 1] = 0.9, False
        assert np.array_equal(game.nu, k2_game.nu)
        assert np.array_equal(game.predicate, k2_game.predicate)

    def test_exact_negative_weight_below_float_range_named(self):
        # its float is -0.0, which a sign check on the floats lets through
        tiny = Fraction(1, 10**400)
        nu = [[Fraction(1, 2), -tiny], [-tiny, Fraction(1, 2) + 2 * tiny]]
        pred = np.ones((2, 2, 1, 1), dtype=bool)
        with pytest.raises(GameFormatError, match=r"^nu\('p', 'q'\) is negative$"):
            SynchronousGame(("p", "q"), ("a",), nu, pred)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_float_weight_named(self, weight):
        # checked before symmetry (which NaN fails) and the unit mass (inf)
        nu = [[weight, 0.0], [0.0, 1.0]]
        pred = np.ones((2, 2, 1, 1), dtype=bool)
        message = rf"^nu\('p', 'p'\) is not finite: {re.escape(repr(weight))}$"
        with pytest.raises(GameFormatError, match=message):
            SynchronousGame(("p", "q"), ("a",), nu, pred)

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_pickle_round_trip_keeps_arrays_read_only(self, k2_game, exact):
        game = k2_game if exact else SynchronousGame(
            k2_game.questions, k2_game.answers, k2_game.nu, k2_game.predicate
        )
        again = pickle.loads(pickle.dumps(game))
        for name in ("nu", "predicate", "mu"):
            assert not getattr(again, name).flags.writeable, name
            assert np.array_equal(getattr(again, name), getattr(game, name)), name
        assert again.nu_exact == game.nu_exact
        assert again.alpha == game.alpha

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(game=accepted_games())
    def test_save_load_round_trip(self, game):
        again = load_game(save_game(game))
        assert again.questions == game.questions
        assert again.answers == game.answers
        assert np.array_equal(again.predicate, game.predicate)
        assert again.nu.tobytes() == game.nu.tobytes()
        assert again.nu_exact == game.nu_exact
        assert again.alpha == game.alpha


class TestSaveGame:
    CYCLES = {n: [(f"v{i}", f"v{(i + 1) % n}") for i in range(n)] for n in (5, 7)}
    K4 = [(f"v{i}", f"v{j}") for i in range(4) for j in range(i + 1, 4)]

    @pytest.mark.parametrize("edges", [CYCLES[5], CYCLES[7], K4], ids=["C5", "C7", "K4"])
    def test_coloring_games_match_loop_oracle(self, edges):
        game = graph_coloring_game(edges, 3, "1/2")
        assert save_game(game) == save_game_loop(game)

    def test_diagonal_game_matches_loop_oracle(self):
        game = load_game(diagonal_game_doc(["q0", "q1", "q2"], ["x", "y"]))
        assert save_game(game) == save_game_loop(game)

    def test_mostly_losing_predicate_matches_loop_oracle(self):
        # off-diagonal majority 0: the listed entries carry v = 1
        game = graph_coloring_game(self.K4, 3, "1/2")
        predicate = game.predicate.copy()
        off = ~np.eye(4, dtype=bool)
        predicate[off] = np.eye(3, dtype=bool)
        game = SynchronousGame(game.questions, game.answers, game.nu, predicate)
        text = save_game(game)
        assert json.loads(text)["predicate"]["default"] == 0
        assert text == save_game_loop(game)


class TestAlpha:
    def test_diagonal_support_gives_one(self):
        game = load_game(diagonal_game_doc(["a", "b", "c"], ["0"]))
        assert game.alpha == 1.0

    def test_uniform_square_gives_one_over_n(self):
        n = 4
        questions = [f"q{i}" for i in range(n)]
        nu = np.full((n, n), 1.0 / n**2)
        pred = np.ones((n, n, 1, 1), dtype=bool)
        game = SynchronousGame(tuple(questions), ("a",), nu, pred)
        assert abs(game.alpha - 1.0 / n) <= 1e-15

    def test_mixed_diagonal_and_offdiagonal(self):
        # half uniform diagonal, half uniform over the 3 off-diagonal pairs
        n = 3
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = Fraction(1, 6)
        for i in range(n):
            for j in range(n):
                if i != j:
                    rows[i][j] = Fraction(1, 12)
        pred = np.ones((n, n, 1, 1), dtype=bool)
        game = SynchronousGame(("x", "y", "z"), ("a",), rows, pred)
        expected = min(
            (Fraction(1, 6)) / (Fraction(1, 6) + 2 * Fraction(1, 12)) for _ in range(n)
        )
        assert game.alpha == float(expected)

    def test_zero_marginal_question_excluded(self):
        rows = [
            [Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(0)],
        ]
        pred = np.ones((2, 2, 1, 1), dtype=bool)
        game = SynchronousGame(("p", "q"), ("a",), rows, pred)
        assert game.alpha == 1.0


class TestGameValue:
    def test_uniform_table_always_winning(self):
        # nu off-diagonal and D identically 1 where nu charges it
        doc = json.loads(coloring_doc())
        doc["nu"] = [{"x": "v0", "y": "v1", "w": "1/2"}]
        doc["predicate"] = {"default": 1, "entries": []}
        always = load_game(json.dumps(doc))
        na = always.n_answers
        table = CorrelationTable(
            always.questions, na, np.full((2, 2, na, na), 1.0 / na**2)
        )
        assert abs(game_value(always, table) - 1.0) <= 1e-12
        # against the coloring predicate the uniform table loses mass
        assert game_value(load_game(coloring_doc()), table) < 1.0

    def test_deterministic_proper_coloring_wins(self, k2_game):
        color = {"v0": 0, "v1": 1}
        na = k2_game.n_answers
        data = np.zeros((2, 2, na, na))
        for x in range(2):
            for y in range(2):
                data[x, y, color[k2_game.questions[x]], color[k2_game.questions[y]]] = 1.0
        table = CorrelationTable(k2_game.questions, na, data)
        assert abs(game_value(k2_game, table) - 1.0) <= 1e-12

    def test_diagonal_game_uniform_table(self):
        game = load_game(diagonal_game_doc(["q0", "q1"], ["a", "b", "c"]))
        na = 3
        table = CorrelationTable(
            game.questions, na, np.full((2, 2, na, na), 1.0 / na**2)
        )
        assert abs(game_value(game, table) - 1.0 / na) <= 1e-12

    def test_index_mismatch_rejected(self, k2_game):
        table = CorrelationTable(("x",), 3, np.full((1, 1, 3, 3), 1.0 / 9))
        with pytest.raises(ValueError, match="questions"):
            game_value(k2_game, table)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_value_monotone_in_predicate(self, seed):
        rng = np.random.default_rng(seed)
        na = 3
        raw = rng.random((2, 2, na, na))
        raw = raw / raw.sum(axis=(2, 3), keepdims=True)
        raw = (raw + raw.transpose(1, 0, 3, 2)) / 2
        game = load_game(coloring_doc())
        table = CorrelationTable(game.questions, na, raw)
        richer = game.predicate.copy()
        richer[0, 1, 0, 0] = True
        richer[1, 0, 0, 0] = True
        bigger = SynchronousGame(game.questions, game.answers, game.nu, richer)
        assert game_value(bigger, table) >= game_value(game, table) - 1e-12


class TestCorrelationTable:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_named(self, bad):
        # NaN passes both the floor and the block-sum comparisons
        data = np.full((2, 2, 3, 3), 1.0 / 9)
        data[0, 1, 2, 1] = bad
        with pytest.raises(
            ValueError, match=r"table entry \('v0', 'v1', 2, 1\) is not finite: -?(nan|inf)"
        ):
            CorrelationTable(("v0", "v1"), 3, data)

    def test_first_non_finite_entry_named(self):
        data = np.full((2, 2, 3, 3), 1.0 / 9)
        data[1, 0, 0, 0] = np.inf
        data[0, 1, 0, 0] = np.nan
        with pytest.raises(ValueError, match=r"\('v0', 'v1', 0, 0\) is not finite: nan"):
            CorrelationTable(("v0", "v1"), 3, data)

    def test_game_value_rejects_nan(self, k2_game):
        # a table's data stays writable after the constructor's check
        table = CorrelationTable(k2_game.questions, 3, np.full((2, 2, 3, 3), 1.0 / 9))
        table.data[0, 1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="game value nan falls outside"):
            game_value(k2_game, table)


class TestTableStacks:
    """A stack of tables, (N, X, X, A, A), is checked at once, and its
    values and distances are those of each table alone, bit for bit,
    whatever the stack's memory layout."""

    def _tables(self, k2_game, n):
        raw = np.random.default_rng(3).random((n, 2, 2, 3, 3))
        raw /= raw.sum(axis=(-2, -1), keepdims=True)
        # the layout trace_pairing gives: each table's (x, a, y, b) entries contiguous
        return np.ascontiguousarray(raw.swapaxes(-3, -2)).swapaxes(-3, -2)

    def test_stacked_values_equal_each_table(self, k2_game):
        data = self._tables(k2_game, 7)
        stack = CorrelationTable(k2_game.questions, 3, data)
        other = CorrelationTable(k2_game.questions, 3, data[3])
        values = game_value(k2_game, stack)
        distances = table_l1_distance(k2_game, stack, other)
        for i, table in enumerate(data):
            table = CorrelationTable(k2_game.questions, 3, table)
            assert values[i] == game_value(k2_game, table)
            assert distances[i] == table_l1_distance(k2_game, table, other)

    def test_stack_entry_named(self, k2_game):
        data = self._tables(k2_game, 4)
        data[2, 1, 0, 2, 1] = np.nan
        with pytest.raises(ValueError, match=r"table entry \('v1', 'v0', 2, 1\) is not finite"):
            CorrelationTable(k2_game.questions, 3, data)

    def test_stacked_value_range_checked(self, k2_game):
        data = self._tables(k2_game, 4)
        stack = CorrelationTable(k2_game.questions, 3, data)
        stack.data[1] *= 10.0
        with pytest.raises(ValueError, match="falls outside"):
            game_value(k2_game, stack)


class TestColoringGenerator:
    def test_k2_alpha_closed_form(self):
        lam = Fraction(1, 2)
        game = graph_coloring_game([("v0", "v1")], 3, lam)
        expected = (lam / 2) / (lam / 2 + (1 - lam) / 2)
        assert game.alpha == float(expected)

    def test_empty_edges_rejected(self):
        with pytest.raises(GameFormatError, match="empty edge list"):
            graph_coloring_game([], 3, "1/2")

    def test_lambda_bounds_rejected(self):
        with pytest.raises(GameFormatError, match="diagonal mass"):
            graph_coloring_game([("a", "b")], 3, 1)

    def test_triangle_proper_coloring_value_one(self):
        game = graph_coloring_game(
            [("a", "b"), ("b", "c"), ("a", "c")], 3, Fraction(1, 3)
        )
        color = {"a": 0, "b": 1, "c": 2}
        na = 3
        data = np.zeros((3, 3, na, na))
        for x, qx in enumerate(game.questions):
            for y, qy in enumerate(game.questions):
                data[x, y, color[qx], color[qy]] = 1.0
        table = CorrelationTable(game.questions, na, data)
        assert abs(game_value(game, table) - 1.0) <= 1e-12

    def test_regular_graph_alpha_formula(self):
        # 4-cycle: 2-regular, deg share = 2 / (2 |E|) = 1/4
        edges = [("0", "1"), ("1", "2"), ("2", "3"), ("3", "0")]
        lam = Fraction(2, 5)
        game = graph_coloring_game(edges, 2, lam)
        expected = (lam / 4) / (lam / 4 + (1 - lam) * Fraction(1, 4))
        assert game.alpha == float(expected)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GameFormatError, match="duplicate edge"):
            graph_coloring_game([("a", "b"), ("b", "a")], 2, "1/2")


class TestTableDistance:
    def test_distance_zero_on_equal(self, k2_game):
        na = k2_game.n_answers
        table = CorrelationTable(
            k2_game.questions, na, np.full((2, 2, na, na), 1.0 / na**2)
        )
        assert table_l1_distance(k2_game, table, table) == 0.0

    def test_value_difference_bounded_by_distance(self, k2_game):
        rng = np.random.default_rng(0)
        na = k2_game.n_answers
        tables = []
        for _ in range(2):
            raw = rng.random((2, 2, na, na))
            raw /= raw.sum(axis=(2, 3), keepdims=True)
            tables.append(CorrelationTable(k2_game.questions, na, raw))
        gap = abs(game_value(k2_game, tables[0]) - game_value(k2_game, tables[1]))
        assert gap <= table_l1_distance(k2_game, tables[0], tables[1]) + 1e-12
