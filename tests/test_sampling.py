import numpy as np
import pytest

from syncround.sampling import _ginibre, rng_for


def test_ginibre_block_is_the_two_call_stream():
    """One (2, rows, cols) normal block is the stream of drawing the real
    and then the imaginary parts in two calls, and leaves the generator
    at the same position."""
    for dim in range(1, 97):
        for rows, cols in ((dim, dim), (dim, dim + 3)):
            rng, twin = rng_for(12, dim, cols), rng_for(12, dim, cols)
            g = _ginibre(rng, rows, cols)
            expected = twin.standard_normal((rows, cols)) + 1j * twin.standard_normal(
                (rows, cols)
            )
            assert np.array_equal(g, expected), (rows, cols)
            assert rng.bit_generator.state == twin.bit_generator.state, (rows, cols)


# the entropy words of an int are its base-2**32 digits: 1 to 4 words here
EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 5, 10**30)
# one-word and two-word indices, mixed in one call
EDGE_INDICES = np.array([0, 1, 2**32 - 1, 2**32, 5, 2**40 + 3])
EDGE_PATH = (3, 2**32 + 1, 0, 2**64, 12)


def assert_default_rng_streams(rngs, seed, path, indices):
    assert len(rngs) == len(indices)
    for i, rng in zip(indices, rngs):
        twin = np.random.default_rng([seed, *path, i])
        assert rng.bit_generator.state == twin.bit_generator.state, (seed, path, i)
        assert np.array_equal(rng.standard_normal(5), twin.standard_normal(5))
        assert rng.integers(2**62) == twin.integers(2**62)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("path_len", range(len(EDGE_PATH) + 1))
def test_bulk_streams_are_default_rng_streams(seed, path_len):
    """Entropies of 2 to 11 words: past the pool's 4 words, SeedSequence
    folds in each further word."""
    path = EDGE_PATH[:path_len]
    rngs = rng_for(seed, *path, EDGE_INDICES)
    assert_default_rng_streams(rngs, seed, path, EDGE_INDICES.tolist())


def test_bulk_streams_of_a_sweep():
    indices = np.arange(600)
    assert_default_rng_streams(rng_for(7, indices), 7, (), indices.tolist())
    assert_default_rng_streams(rng_for(7, indices.astype(np.uint32)), 7, (), range(600))


def test_bulk_generators_are_independent():
    rngs = rng_for(5, np.arange(6))
    before = [rng.bit_generator.state for rng in rngs]
    rngs[2].standard_normal(100)
    for k, rng in enumerate(rngs):
        assert (rng.bit_generator.state == before[k]) == (k != 2), k
    assert len({id(rng.bit_generator) for rng in rngs}) == len(rngs)


@pytest.mark.parametrize(
    "args",
    [(-1, 0), (1, -3), (-1, np.arange(3)), (1, np.array([0, -2])), (1, -1, np.arange(2))],
)
def test_negative_entropy_raises_like_numpy(args):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        rng_for(*args)


def test_bulk_form_edge_inputs():
    assert rng_for(3, np.arange(0)) == []
    with pytest.raises(TypeError, match="indices must be integers"):
        rng_for(3, np.array([0.5, 1.0]))
