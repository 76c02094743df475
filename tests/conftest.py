import json

import numpy as np
import pytest

from syncround import (
    CommutingStrategy,
    StandardForm,
    cyclic_coloring_strategy,
    graph_coloring_game,
    haagerup,
    load_game,
    svd,
)


@pytest.fixture(autouse=True)
def empty_spectrum_memo():
    """No test passes on a decomposition another test left in the memo."""
    haagerup._SPECTRA.clear()


@pytest.fixture
def k2_game():
    """Single-edge 3-coloring game with half the mass on the diagonal."""
    return graph_coloring_game([("v0", "v1")], 3, "1/2")


@pytest.fixture
def k2_strategy(k2_game):
    """Exactly synchronous value-1 strategy for the single-edge game."""
    return cyclic_coloring_strategy(k2_game.questions, 3)


def diagonal_game_doc(questions, answers):
    """Document of a game with uniform diagonal question distribution."""
    nq = len(questions)
    return json.dumps(
        {
            "questions": list(questions),
            "answers": list(answers),
            "nu": [{"x": q, "y": q, "w": f"1/{nq}"} for q in questions],
            "predicate": {"default": 1, "entries": []},
        }
    )


@pytest.fixture
def diagonal_game():
    return load_game(diagonal_game_doc(["q0", "q1"], ["a0", "a1"]))


def random_commuting_strategy(rng, questions, n_answers, dim_a, dim_b):
    from syncround.sampling import random_pvm, random_state

    return CommutingStrategy(
        dim_a,
        dim_b,
        random_state(rng, dim_a, dim_b),
        {q: random_pvm(rng, dim_a, n_answers) for q in questions},
        {q: random_pvm(rng, dim_b, n_answers) for q in questions},
    )


def standard_form_of(rho):
    """The standard form of the state rho^(1/2), whose reduced density is
    the PSD matrix ``rho``."""
    w, v = np.linalg.eigh(rho)
    return StandardForm(*svd((v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T))


def density_matrix(rho):
    """The reduced density U S^2 U* of the standard form ``rho``."""
    return (rho.left * rho.singular_values**2) @ rho.left.conj().T


def fresh_copy(s):
    """The strategy ``s`` rebuilt from copies of its arrays: it shares no
    array with ``s`` (and, like every strategy, holds its own rho)."""
    side_a = {q: np.array(f) for q, f in s.pvms_a.items()}
    side_b = {q: np.array(f) for q, f in s.pvms_b.items()}
    return CommutingStrategy(s.dim_a, s.dim_b, np.array(s.state), side_a, side_b)


def assert_close(actual, expected, tol, label=""):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    worst = float(np.abs(actual - expected).max())
    assert worst <= tol, f"{label}: deviation {worst:.3e} exceeds {tol:.1e}"
