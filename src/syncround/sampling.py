"""Seeded random instance generators for sweeps and tests.

Each generator is a per-instance draw from a numpy Generator followed by
transforms that take any stack ``(..., d, d)``: ``ginibre``, ``wishart``,
``haar_unitary`` and ``pvm_from_unitary``.  A sweep draws each instance
from its own stream ``rng_for(seed, index)`` and applies the transforms
once per stack of same-shape draws; its instances are bitwise those of
the per-instance generators, which compose the same draw and transforms.

``rng_for(seed, index)`` is ``np.random.default_rng([seed, index])``.
Given an array of indices it seeds all their streams in one pass: it
reproduces numpy's SeedSequence hash (entropy words, the 4-word pool,
``generate_state``) as uint32 array arithmetic and lets each PCG64 seed
itself in C from its four words, so every stream is bitwise the one of
the per-index call.
"""

from __future__ import annotations

import numpy as np

from .spectral import _hermitian_part

__all__ = [
    "rng_for",
    "ginibre_draw",
    "ginibre",
    "wishart",
    "haar_unitary",
    "pvm_from_unitary",
    "random_unitary",
    "random_hermitian",
    "random_psd",
    "random_state",
    "random_pvm",
    "random_povm",
]


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of 4
# uint32 words, hashmix and mix with these multipliers, XSHIFT = 16
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def rng_for(seed: int, *index):
    """Generator derived from a base seed and an instance index path:
    ``np.random.default_rng([seed, *index])``.

    When the last index (with no index, the seed) is a 1-D integer
    array, returns one new, independent Generator per entry i, bitwise
    the stream of ``rng_for(seed, *path, i)`` (of ``default_rng(i)``).
    That form runs numpy's SeedSequence hash once for all entries, as
    uint32 array arithmetic, and hands each PCG64 its four seed words, so
    numpy still seeds PCG64 in C.  Its generators carry no spawnable seed
    sequence.
    """
    *path, last = (seed, *index)
    if np.ndim(last) == 1:
        return _rngs_for([*map(int, path)], np.asarray(last))
    return np.random.default_rng([int(seed), *map(int, index)])


def _uint32_words(value: int) -> list[int]:
    """numpy's entropy words of a non-negative int, least significant first."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _rngs_for(prefix: list[int], indices: np.ndarray) -> list[np.random.Generator]:
    if indices.size == 0:
        return []
    if not np.issubdtype(indices.dtype, np.integer):
        raise TypeError(f"indices must be integers, got dtype {indices.dtype}")
    if indices.min() < 0:
        raise ValueError("expected non-negative integer")
    head = [w for value in prefix for w in _uint32_words(value)]
    indices = indices.astype(np.uint64)
    # the low and high entropy word of each index
    digits = np.stack([indices & _MASK32, indices >> np.uint64(32)]).astype(np.uint32)
    rngs = [None] * len(indices)
    # an index below 2**32 is one entropy word, any other two
    one_word = digits[1] == 0
    for n_words, members in enumerate((np.flatnonzero(one_word), np.flatnonzero(~one_word)), 1):
        if members.size == 0:
            continue
        words = np.empty((len(head) + n_words, members.size), np.uint32)
        words[: len(head)] = np.array(head, np.uint32)[:, None]
        words[len(head) :] = digits[:n_words, members]
        for i, state in zip(members.tolist(), _pcg64_seeds(words)):
            rngs[i] = np.random.Generator(np.random.PCG64(_SeedWords(state)))
    return rngs


def _pcg64_seeds(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for each
    column of a (L, N) uint32 entropy array: one (N, 4) uint64 array.
    Hashmix calls that read no result of each other run as one (k, N)
    op, row i with the running hash constants of the i-th call."""
    n_words = len(words)
    constants = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * max(_POOL_SIZE, n_words))
    used = 0

    def hashmix(value, calls: int):
        nonlocal used
        const = constants[used : used + calls + 1, None]
        used += calls
        value = (value ^ const[:-1]) * const[1:]
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    # SeedSequence.mix_entropy: fill the pool, cross-mix it, then fold in
    # each word beyond the pool size
    pool = np.zeros((_POOL_SIZE, words.shape[1]), np.uint32)
    pool[:n_words] = words[:_POOL_SIZE]
    pool = hashmix(pool, _POOL_SIZE)
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], _POOL_SIZE - 1))
    for src in range(_POOL_SIZE, n_words):
        pool = mix(pool, hashmix(words[src], _POOL_SIZE))
    # SeedSequence.generate_state: 8 uint32 words cycling over the pool,
    # hashed with a fresh constant run, read as 4 little-endian uint64 words
    constants, used = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE), 0
    state = hashmix(pool[np.arange(2 * _POOL_SIZE) % _POOL_SIZE], 2 * _POOL_SIZE)
    return np.ascontiguousarray(state.T).astype("<u4").view("<u8").astype(np.uint64)


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The running hash constant of ``calls`` hashmix calls of a
    SeedSequence loop: call k uses entries k and k + 1, before and after
    its multiplication.  It does not depend on the data."""
    const = [init]
    for _ in range(calls):
        const.append(const[-1] * mult & _MASK32)
    return np.array(const, np.uint32)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """The four uint64 seed words one PCG64 asks its seed sequence for."""

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("holds only the 4 uint64 words of a PCG64 seed")
        return self._state


def ginibre_draw(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """The (2, rows, cols) standard normal block of one Ginibre matrix:
    its real parts, then its imaginary parts."""
    return rng.standard_normal((2, rows, cols))


def ginibre(draw: np.ndarray) -> np.ndarray:
    """Complex Ginibre matrices from a stack of (2, rows, cols) draws."""
    return draw[..., 0, :, :] + 1j * draw[..., 1, :, :]


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return ginibre(ginibre_draw(rng, rows, cols))


def wishart(g: np.ndarray) -> np.ndarray:
    """The Hermitian part of g g* for each matrix of a stack."""
    return _hermitian_part(g @ g.conj().swapaxes(-1, -2))


def haar_unitary(g: np.ndarray) -> np.ndarray:
    """Q of the QR factorization of each Ginibre matrix of a stack, its
    columns rephased so that R has a positive diagonal: Haar-distributed."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def pvm_from_unitary(u: np.ndarray, n_outcomes: int) -> np.ndarray:
    """The (..., n_outcomes, d, d) PVMs projecting onto near-equal groups
    of consecutive columns of each unitary of a stack; when
    ``n_outcomes > d`` the surplus outcomes are zero projections."""
    dim = u.shape[-1]
    out = np.zeros(u.shape[:-2] + (n_outcomes, dim, dim), complex)
    c = 0
    for a in range(min(n_outcomes, dim)):
        s = dim // n_outcomes + (1 if a < dim % n_outcomes else 0)
        v = u[..., c : c + s]
        out[..., a, :, :] = _hermitian_part(v @ v.conj().swapaxes(-1, -2))
        c += s
    return out


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    return haar_unitary(_ginibre(rng, dim, dim))


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _hermitian_part(_ginibre(rng, dim, dim))


def random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Wishart-type PSD matrix."""
    return wishart(_ginibre(rng, dim, dim))


def random_state(rng: np.random.Generator, dim_a: int, dim_b: int) -> np.ndarray:
    """Unit coefficient matrix of a random bipartite pure state."""
    m = _ginibre(rng, dim_a, dim_b)
    return m / np.linalg.norm(m)


def random_pvm(rng: np.random.Generator, dim: int, n_outcomes: int) -> list[np.ndarray]:
    """Random PVM from a Haar basis split into near-equal column groups.

    When ``n_outcomes > dim`` the surplus outcomes are zero projections.
    """
    return list(pvm_from_unitary(random_unitary(rng, dim), n_outcomes))


def random_povm(rng: np.random.Generator, dim: int, n_outcomes: int) -> list[np.ndarray]:
    """Random POVM by normalizing a family of Wishart matrices."""
    gs = [random_psd(rng, dim) for _ in range(n_outcomes)]
    total = sum(gs)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v * (w**-0.5)) @ v.conj().T
    return [_hermitian_part(inv_sqrt @ g @ inv_sqrt) for g in gs]
