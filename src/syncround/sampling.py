"""Seeded random instance generators for sweeps and tests.

Each generator is a per-instance draw from a numpy Generator followed by
transforms that take any stack ``(..., d, d)``: ``ginibre``, ``wishart``,
``haar_unitary`` and ``pvm_from_unitary``.  A sweep draws each instance
from its own stream ``rng_for(seed, index)`` and applies the transforms
once per stack of same-shape draws; its instances are bitwise those of
the per-instance generators, which compose the same draw and transforms.
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


def rng_for(seed: int, *index: int) -> np.random.Generator:
    """Generator derived from a base seed and an instance index path."""
    return np.random.default_rng([int(seed), *map(int, index)])


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


def random_psd(rng: np.random.Generator, dim: int, norm: str | None = None) -> np.ndarray:
    """Wishart-type PSD matrix; ``norm`` in {None, "fro", "trace"}."""
    x = wishart(_ginibre(rng, dim, dim))
    if norm == "fro":
        x = x / np.linalg.norm(x)
    elif norm == "trace":
        x = x / np.trace(x).real
    elif norm is not None:
        raise ValueError(f"unknown norm {norm!r}")
    return x


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
