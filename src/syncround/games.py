"""Synchronous games: data model, validation, serialization, generators.

A synchronous game is a tuple (X, nu, A, D) of finite question and
answer sets, a symmetric probability distribution nu on X x X and a
symmetric binary predicate D with D(x, x, a, b) = 1 exactly when a = b.
The game is alpha-synchronous for the largest alpha such that
nu(x, x) >= alpha * mu(x) for every question x with positive marginal
mu(x) = sum_y nu(x, y).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .spectral import NU_RENORM_TOL, NU_SUM_TOL, TABLE_NEG_TOL, TABLE_TOL

__all__ = [
    "GameFormatError",
    "SynchronousGame",
    "CorrelationTable",
    "load_game",
    "save_game",
    "game_value",
    "table_l1_distance",
    "graph_coloring_game",
]


class GameFormatError(ValueError):
    """Raised when a game document violates the file format or invariants."""


@dataclass(frozen=True, eq=False)
class SynchronousGame:
    """Validated synchronous game over labelled question and answer sets.

    Immutable, as the strategies are.  ``nu`` is given once: exact when
    every entry is a ``fractions.Fraction``, else as floats.  The
    constructor sets each derived field once: ``nu`` (read-only float64),
    ``nu_exact`` (the exact weights as a tuple of tuples of Fractions, or
    None), the marginal ``mu`` (read-only) and ``alpha``.  A non-finite
    float weight is rejected first, naming its pair.  Symmetry,
    non-negativity, the unit mass and alpha are decided on the exact
    weights when there are any, else on the floats.
    """

    questions: tuple[str, ...]
    answers: tuple[str, ...]
    nu: np.ndarray
    predicate: np.ndarray
    nu_exact: tuple[tuple[Fraction, ...], ...] | None = field(init=False, repr=False)
    mu: np.ndarray = field(init=False, repr=False)
    alpha: float = field(init=False)

    def __post_init__(self):
        nq, na = len(self.questions), len(self.answers)
        if nq == 0 or na == 0:
            raise GameFormatError("question and answer sets must be non-empty")
        if len(set(self.questions)) != nq or len(set(self.answers)) != na:
            raise GameFormatError("question and answer labels must be unique")
        weights = np.asarray(self.nu)
        if weights.shape != (nq, nq):
            raise GameFormatError(f"nu must have shape {(nq, nq)}, got {weights.shape}")
        exact = weights.dtype == object and all(isinstance(w, Fraction) for w in weights.flat)
        if not exact:  # a copy, so the caller's array cannot change the game
            weights = weights.astype(float)
            if not np.isfinite(weights).all():  # NaN would fail symmetry, inf the mass
                i, j = np.argwhere(~np.isfinite(weights))[0]
                raise GameFormatError(
                    f"nu({self.questions[i]!r}, {self.questions[j]!r}) is not finite:"
                    f" {float(weights[i, j])!r}"
                )
        if not np.array_equal(weights, weights.T):
            i, j = np.argwhere(weights != weights.T)[0]
            raise GameFormatError(
                f"nu is not symmetric at ({self.questions[i]!r}, {self.questions[j]!r})"
            )
        if (weights < 0).any():
            i, j = np.argwhere(weights < 0)[0]
            raise GameFormatError(
                f"nu({self.questions[i]!r}, {self.questions[j]!r}) is negative"
            )
        mass = weights.sum(axis=1)
        if abs(mass.sum() - 1) > NU_SUM_TOL:
            raise GameFormatError(f"nu must sum to 1, got {float(mass.sum())!r}")
        predicate = np.array(self.predicate, dtype=bool)
        if predicate.shape != (nq, nq, na, na):
            raise GameFormatError(
                f"predicate must have shape {(nq, nq, na, na)}, got {predicate.shape}"
            )
        if not np.array_equal(predicate, predicate.transpose(1, 0, 3, 2)):
            x, y, a, b = np.argwhere(predicate != predicate.transpose(1, 0, 3, 2))[0]
            raise GameFormatError(
                "predicate is not symmetric at "
                f"({self.questions[x]!r}, {self.questions[y]!r}, "
                f"{self.answers[a]!r}, {self.answers[b]!r})"
            )
        want = np.eye(na, dtype=bool)
        for x in range(nq):
            if not np.array_equal(predicate[x, x], want):
                a, b = np.argwhere(predicate[x, x] != want)[0]
                raise GameFormatError(
                    "diagonal rule violated at "
                    f"({self.questions[x]!r}, {self.answers[a]!r}, {self.answers[b]!r})"
                )
        held = mass > 0
        nu = weights.astype(float) if exact else weights
        mu = nu.sum(axis=1)
        for array in (nu, predicate, mu):
            array.flags.writeable = False
        derived = {
            "nu": nu,
            "predicate": predicate,
            "nu_exact": tuple(map(tuple, weights.tolist())) if exact else None,
            "mu": mu,
            # the largest alpha with nu(x, x) >= alpha mu(x) wherever mu(x) > 0
            "alpha": float((np.diagonal(weights)[held] / mass[held]).min()),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def __reduce__(self):  # unpickled through the constructor: checked and read-only again
        return SynchronousGame, (
            self.questions, self.answers, self.nu_exact or self.nu, self.predicate
        )

    @property
    def n_questions(self) -> int:
        return len(self.questions)

    @property
    def n_answers(self) -> int:
        return len(self.answers)


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """Per question pair (x, y), a probability table P_{x,y}(a, b).

    Answers are positional (index into the owning game's answer list).
    Entries may carry roundoff down to -1e-10; each block sums to 1
    within 1e-8.  Frozen, as a tracial strategy shares its table.
    ``data`` is (X, X, A, A), or (..., X, X, A, A) for a stack of tables
    over leading axes, checked at once.
    """

    questions: tuple[str, ...]
    n_answers: int
    data: np.ndarray

    def __post_init__(self):
        nq, na = len(self.questions), self.n_answers
        object.__setattr__(self, "data", np.asarray(self.data, dtype=float))
        if self.data.shape[-4:] != (nq, nq, na, na) or self.data.ndim < 4:
            raise ValueError(
                f"table must have shape {(nq, nq, na, na)}, got {self.data.shape}"
            )
        low = float(self.data.min())
        worst = float(np.abs(self.data.sum(axis=(-2, -1)) - 1.0).max())
        # a NaN entry makes the minimum NaN, an infinite one the minimum or
        # its block's sum; NaN fails every comparison, so name it first
        if not np.isfinite(low + worst):
            *_, x, y, a, b = entry = np.argwhere(~np.isfinite(self.data))[0]
            raise ValueError(
                f"table entry ({self.questions[x]!r}, {self.questions[y]!r}, {a}, {b})"
                f" is not finite: {self.data[tuple(entry)]}"
            )
        if low < -TABLE_NEG_TOL:
            raise ValueError(f"table entry {low:.3e} below -{TABLE_NEG_TOL:.0e}")
        if worst > TABLE_TOL:
            raise ValueError(
                f"some P_xy does not sum to 1: worst deviation {worst:.3e}"
            )


def _check_table_matches(game: SynchronousGame, table: CorrelationTable):
    if table.questions != game.questions:
        raise ValueError(
            f"table questions {table.questions!r} do not match game questions"
            f" {game.questions!r}"
        )
    if table.n_answers != game.n_answers:
        raise ValueError(
            f"table has {table.n_answers} answers, game has {game.n_answers}"
        )


def _table_sums(terms: np.ndarray):
    """The sum of a table's terms, a float; of each table of a stack, an
    array.  numpy sums in memory order, and a stack whose tables are each
    one contiguous run sums each as ``np.sum`` sums that table alone."""
    if terms.ndim == 4:
        return float(np.sum(terms))
    return terms.sum(axis=(-4, -3, -2, -1))


def game_value(game: SynchronousGame, table: CorrelationTable):
    """nu-weighted winning probability of a correlation against D: a float,
    or one per table of a stack."""
    _check_table_matches(game, table)
    value = _table_sums(game.nu[:, :, None, None] * game.predicate * table.data)
    inside = np.logical_and(value >= -TABLE_TOL, value <= 1.0 + TABLE_TOL)  # NaN fails too
    if not inside.all():
        value = np.ravel(value)[np.argmin(np.ravel(inside))].item()
        raise ValueError(f"game value {value!r} falls outside [0, 1] beyond slack")
    return value


def table_l1_distance(
    game: SynchronousGame, first: CorrelationTable, second: CorrelationTable
):
    """L1 distance between two tables, integrated against the game's nu: a
    float, or one per table when either is a stack."""
    _check_table_matches(game, first)
    _check_table_matches(game, second)
    return _table_sums(game.nu[:, :, None, None] * np.abs(first.data - second.data))


# ---------------------------------------------------------------------------
# file format


def _parse_weight(raw, where: str):
    """Weight as Fraction when exact (int or 'p/q' string), else float."""
    if isinstance(raw, bool):
        raise GameFormatError(f"invalid weight {raw!r} in {where}")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise GameFormatError(f"invalid weight {raw!r} in {where}: {exc}") from exc
    if isinstance(raw, float) and np.isfinite(raw):
        return raw
    raise GameFormatError(f"invalid weight {raw!r} in {where}")


def _array(value, name: str) -> list:
    """``value`` if it is a JSON array, else a GameFormatError naming ``name``."""
    if not isinstance(value, list):
        raise GameFormatError(f"{name} must be a JSON array, got {value!r}")
    return value


def _labels(value, name: str) -> list[str]:
    """The labels of the JSON array ``value``, each a JSON string."""
    labels = _array(value, name)
    for label in labels:
        if not isinstance(label, str):
            raise GameFormatError(f"{name} label {label!r} is not a JSON string")
    return labels


def _labelled(index: dict, *labels) -> bool:
    """Whether every label is a string key of ``index``; a list or an
    object label is not hashable, so it is tested for type first."""
    return all(isinstance(label, str) and label in index for label in labels)


def _is_bit(raw) -> bool:
    """Whether ``raw`` is the JSON integer 0 or 1 (``True in (0, 1)`` holds)."""
    return type(raw) is int and raw in (0, 1)


def load_game(text: str) -> SynchronousGame:
    """Parse and validate a game document (JSON text).

    The loader mirrors each listed unordered nu pair, renormalizes when
    the total mass deviates from 1 by more than the constructor accepts
    (1e-12) and at most 1e-9, enforces the diagonal predicate rule and
    reports every violation with the offending tuple.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GameFormatError("top level must be a JSON object")
    try:
        questions = _labels(doc["questions"], "questions")
        answers = _labels(doc["answers"], "answers")
        nu_entries = _array(doc["nu"], "nu")
        pred_doc = doc["predicate"]
    except KeyError as exc:
        raise GameFormatError(f"missing required field {exc}") from exc
    nq, na = len(questions), len(answers)
    if len(set(questions)) != nq or len(set(answers)) != na:
        raise GameFormatError("question and answer labels must be unique")
    q_index = {q: i for i, q in enumerate(questions)}
    a_index = {a: i for i, a in enumerate(answers)}

    weights: dict[tuple[int, int], object] = {}
    mass = Fraction(0)  # exact, so a sum past float range is caught where it gets there
    for entry in nu_entries:
        try:
            x, y, w = entry["x"], entry["y"], entry["w"]
        except (TypeError, KeyError) as exc:
            raise GameFormatError(f"malformed nu entry {entry!r}") from exc
        if not _labelled(q_index, x, y):
            raise GameFormatError(f"nu entry references unknown question ({x!r}, {y!r})")
        i, j = q_index[x], q_index[y]
        w = _parse_weight(w, f"nu entry ({x!r}, {y!r})")
        if w < 0:
            raise GameFormatError(f"nu({x!r}, {y!r}) is negative")
        for key in ((i, j), (j, i)):
            if key not in weights:
                mass += Fraction(w)
            elif weights[key] != w:
                raise GameFormatError(
                    f"nu is not symmetric at ({x!r}, {y!r}):"
                    f" conflicting weights {weights[key]!r} and {w!r}"
                )
            weights[key] = w
        if mass > np.finfo(float).max:
            raise GameFormatError(f"nu mass exceeds the float range at entry ({x!r}, {y!r})")
    exact = all(isinstance(w, Fraction) for w in weights.values())
    nu = np.full((nq, nq), Fraction(0) if exact else 0.0, dtype=object if exact else float)
    for (i, j), w in weights.items():
        nu[i, j] = w
    total = mass if exact else nu.sum(axis=1).sum()  # the constructor's total
    if total <= 0:
        raise GameFormatError("nu has no mass")
    # renormalized only where the constructor would reject it, so that a
    # game the constructor accepts loads back as it was saved
    if abs(total - 1) > NU_SUM_TOL:
        if abs(float(total) - 1.0) > NU_RENORM_TOL:
            raise GameFormatError(
                f"nu sums to {float(total)!r}; deviations above {NU_RENORM_TOL:.0e}"
                " are rejected"
            )
        nu = nu / total

    if not isinstance(pred_doc, dict) or "default" not in pred_doc:
        raise GameFormatError("predicate must be an object with a 'default' field")
    default = pred_doc["default"]
    if not _is_bit(default):
        raise GameFormatError(
            f"predicate default must be the JSON integer 0 or 1, got {default!r}"
        )
    predicate = np.full((nq, nq, na, na), bool(default))
    explicit = np.zeros((nq, nq, na, na), dtype=bool)
    for entry in _array(pred_doc.get("entries", []), "predicate entries"):
        try:
            x, y, a, b, v = entry["x"], entry["y"], entry["a"], entry["b"], entry["v"]
        except (TypeError, KeyError) as exc:
            raise GameFormatError(f"malformed predicate entry {entry!r}") from exc
        if not _labelled(q_index, x, y):
            raise GameFormatError(
                f"predicate entry references unknown question ({x!r}, {y!r})"
            )
        if not _labelled(a_index, a, b):
            raise GameFormatError(
                f"predicate entry references unknown answer ({a!r}, {b!r})"
            )
        if not _is_bit(v):
            raise GameFormatError(
                f"predicate value must be the JSON integer 0 or 1 in entry {entry!r}"
            )
        i, j, k, l = q_index[x], q_index[y], a_index[a], a_index[b]
        for pos in ((i, j, k, l), (j, i, l, k)):
            if explicit[pos] and predicate[pos] != bool(v):
                raise GameFormatError(
                    f"conflicting predicate entries at ({x!r}, {y!r}, {a!r}, {b!r})"
                )
            predicate[pos] = bool(v)
            explicit[pos] = True
    diagonal, want = np.arange(nq), np.eye(na, dtype=bool)
    conflicts = explicit[diagonal, diagonal] & (predicate[diagonal, diagonal] != want)
    if conflicts.any():
        i, k, l = np.argwhere(conflicts)[0]
        raise GameFormatError(
            "conflicting diagonal predicate entry at "
            f"({questions[i]!r}, {answers[k]!r}, {answers[l]!r})"
        )
    predicate[diagonal, diagonal] = want
    return SynchronousGame(tuple(questions), tuple(answers), nu, predicate)


def save_game(game: SynchronousGame) -> str:
    """Serialize to the game file format; load_game(save_game(g)) == g."""
    entries = [  # an exact weight as its "p/q" string
        {"x": game.questions[i], "y": game.questions[j], "w": str(w) if game.nu_exact else w}
        for i, row in enumerate(game.nu_exact or game.nu.tolist())
        for j, w in enumerate(row[i:], i)
        if w != 0
    ]
    off_diagonal = game.predicate[~np.eye(game.n_questions, dtype=bool)]
    default = 1 if 2 * int(off_diagonal.sum()) >= off_diagonal.size else 0
    # pairs i < j in lexicographic (i, j, k, l) order, as np.argwhere lists them
    upper = np.triu(np.ones((game.n_questions,) * 2, dtype=bool), 1)[:, :, None, None]
    pred_entries = [
        {
            "x": game.questions[i],
            "y": game.questions[j],
            "a": game.answers[k],
            "b": game.answers[l],
            "v": 1 - default,
        }
        for i, j, k, l in np.argwhere(upper & (game.predicate != bool(default))).tolist()
    ]
    doc = {
        "questions": list(game.questions),
        "answers": list(game.answers),
        "nu": entries,
        "predicate": {"default": default, "entries": pred_entries},
    }
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# generators


def graph_coloring_game(edges, n_colors: int, diagonal_mass) -> SynchronousGame:
    """Synchronous k-coloring game of a simple undirected graph.

    Questions are the vertices (first-appearance order in the edge
    list), answers the colors "0".."k-1".  The question distribution is
    ``diagonal_mass`` uniform on the diagonal plus the remainder uniform
    on ordered edge pairs, built in exact rational arithmetic.  The
    predicate rejects equal colors on adjacent vertices.
    """
    lam = Fraction(diagonal_mass)
    if not 0 < lam < 1:
        raise GameFormatError(f"diagonal mass must be in (0, 1), got {diagonal_mass!r}")
    if n_colors < 1:
        raise GameFormatError(f"need at least one color, got {n_colors}")
    edge_list: list[tuple[str, str]] = []
    vertices: list[str] = []
    seen = set()
    for u, v in edges:
        u, v = str(u), str(v)
        if u == v:
            raise GameFormatError(f"self-loop at vertex {u!r}")
        key = frozenset((u, v))
        if key in seen:
            raise GameFormatError(f"duplicate edge ({u!r}, {v!r})")
        seen.add(key)
        edge_list.append((u, v))
        for w in (u, v):
            if w not in vertices:
                vertices.append(w)
    if not edge_list:
        raise GameFormatError("empty edge list: the diagonal cannot carry full mass")
    nq = len(vertices)
    q_index = {q: i for i, q in enumerate(vertices)}
    rows = [[Fraction(0)] * nq for _ in range(nq)]
    for i in range(nq):
        rows[i][i] = lam / nq
    per_pair = (1 - lam) / (2 * len(edge_list))
    for u, v in edge_list:
        i, j = q_index[u], q_index[v]
        rows[i][j] += per_pair
        rows[j][i] += per_pair
    answers = tuple(str(c) for c in range(n_colors))
    same = np.eye(n_colors, dtype=bool)
    predicate = np.ones((nq, nq, n_colors, n_colors), dtype=bool)
    predicate[np.arange(nq), np.arange(nq)] = same
    for u, v in edge_list:
        i, j = q_index[u], q_index[v]
        predicate[[i, j], [j, i]] &= ~same
    return SynchronousGame(tuple(vertices), answers, rows, predicate)
