import numpy as np
import pytest

from perflat.report import Report, TwoPhase, run_trials
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


SEEDS = [0, 1, 8, 10, 2 ** 31 - 1, 2 ** 32 - 1, 2 ** 32, 2 ** 40, np.int64(5)]
KEYS = [0, *range(21, 33), 41, 42, 43, 71, 2 ** 32 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_per_trial_seeding_draws_the_streams_of_the_word_lists(seed):
    # a trial-by-trial loop hands trial k the Generator in the state
    # np.random.default_rng([seed, key, k]) starts in, whether its words seed
    # numpy as one uint32 array or, from 2^32, as the list
    for key in KEYS:
        states = []
        run_trials(Report("seeding"), "prop", 100, seed, key,
                   lambda rng, k: states.append(rng.bit_generator.state))
        assert states == [np.random.default_rng([int(seed), key, k]).bit_generator.state
                          for k in range(100)], (seed, key)


@pytest.mark.parametrize("seed, key", [(-1, 41), (3, -1)])
def test_per_trial_seeding_rejects_a_negative_word_as_numpy_does(seed, key):
    # trial by trial and field by field alike
    with pytest.raises(ValueError) as oracle:
        np.random.default_rng([seed, key, 0])
    two_phase = TwoPhase(lambda field, ks: field(), None, None, None)
    for probe in (lambda rng, k: None, two_phase):
        with pytest.raises(ValueError) as now:
            run_trials(Report("seeding"), "prop", 5, seed, key, probe)
        assert str(now.value) == str(oracle.value)
