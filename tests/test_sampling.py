import numpy as np

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
