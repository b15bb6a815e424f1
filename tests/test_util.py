import numpy as np
import pytest

from perflat.util import derived_rng


@pytest.mark.parametrize("word", [0, 2 ** 31 - 1, 2 ** 32 - 1, 2 ** 32, 2 ** 40])
def test_derived_rng_draws_the_stream_of_its_words(word):
    # words below 2^32 go in as a uint32 array, larger ones as the list: either way
    # the stream is the one of the plain word list
    for seed, keys in ((word, ()), (7, (word, 3)), (word, (word, word))):
        want = np.random.default_rng([seed, *keys]).random(5)
        assert np.array_equal(derived_rng(seed, *keys).random(5), want)


def test_derived_rng_rejects_a_negative_key_as_before():
    with pytest.raises(ValueError) as before:
        np.random.default_rng([3, -1])
    with pytest.raises(ValueError) as now:
        derived_rng(3, -1)
    assert str(now.value) == str(before.value)
