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
    # a property's field j starts in the state np.random.default_rng([seed, key, j])
    # starts in, whether its words seed numpy as one uint32 array or, from 2^32, as
    # the list
    for key in KEYS:
        states = []

        def draw(field, ks):
            states.extend(field().bit_generator.state for _ in range(100))
            return np.zeros(len(ks), dtype=int), np.zeros((len(ks), 1, 1)), [None] * len(ks)

        run_trials(Report("seeding"), "prop", 1, seed, key, TwoPhase(
            draw, lambda stage, rows: rows, lambda vals, ctxs: np.zeros(len(ctxs), bool),
            None))
        assert states == [np.random.default_rng([int(seed), key, j]).bit_generator.state
                          for j in range(100)], (seed, key)


@pytest.mark.parametrize("seed, key", [(-1, 41), (3, -1)])
def test_per_trial_seeding_rejects_a_negative_word_as_numpy_does(seed, key):
    # the first field a draw asks for raises numpy's error
    with pytest.raises(ValueError) as oracle:
        np.random.default_rng([seed, key, 0])
    with pytest.raises(ValueError) as now:
        run_trials(Report("seeding"), "prop", 5, seed, key,
                   TwoPhase(lambda field, ks: field(), None, None, None))
    assert str(now.value) == str(oracle.value)
