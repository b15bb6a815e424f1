import numpy as np
import pytest

from perflat.util import derived_rng, trial_rngs


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


SEEDS = [0, 1, 8, 10, 2 ** 31 - 1, 2 ** 32 - 1, 2 ** 32, 2 ** 40, np.int64(5)]
KEYS = [0, *range(21, 33), 41, 42, 43, 71, 2 ** 32 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_rngs_yield_the_streams_of_their_word_lists(seed):
    # the one-pass seeding (and, from 2^32, the derived_rng fallback) must put every
    # trial's Generator in the state np.random.default_rng([seed, key, k]) starts in
    for key in KEYS:
        for k, rng in enumerate(trial_rngs(seed, key, 300)):
            want = np.random.default_rng([int(seed), key, k])
            assert rng.bit_generator.state == want.bit_generator.state, (seed, key, k)
            assert np.array_equal(rng.random(3), want.random(3))
            assert rng.integers(1 << 62) == want.integers(1 << 62)
        assert k == 299


def test_trial_rngs_yield_nothing_for_no_trial():
    assert list(trial_rngs(3, 41, 0)) == []


@pytest.mark.parametrize("seed, key", [(-1, 41), (3, -1)])
def test_trial_rngs_reject_a_negative_word_as_derived_rng_does(seed, key):
    with pytest.raises(ValueError) as oracle:
        derived_rng(seed, key, 0)
    with pytest.raises(ValueError) as now:
        next(trial_rngs(seed, key, 5))
    assert str(now.value) == str(oracle.value)
