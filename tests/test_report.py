import dataclasses

import numpy as np
import pytest

from perflat import (DynamicMeasure, GainLossRatio, binomial_tree, check_axioms,
                     check_lift_axioms, check_lift_time_consistency,
                     check_riskaversion_monotone_consistency, check_scale_invariance,
                     check_time_consistency, closure_check, induced_family,
                     random_tree, report, validate_standard_family)
from perflat.report import Report, TwoPhase, run_trials
from perflat.util import derived_rng


def test_run_trials_seeds_counts_and_keeps_the_first_witness():
    rep = Report("runner")
    seen = []

    def probe(rng, k):
        draw = float(rng.uniform())
        seen.append((k, draw))
        if k % 3 == 1:
            return {"k": k, "draw": draw}

    res = run_trials(rep, "prop", 7, 5, 9, probe)
    assert rep.results == [res]
    assert seen == [(k, float(derived_rng(5, 9, k).uniform())) for k in range(7)]
    assert (res.name, res.passed, res.trials, res.failures) == ("prop", False, 7, 2)
    assert res.witness == {"k": 1, "draw": seen[1][1]}

    ok = run_trials(rep, "quiet", 4, 5, 9, lambda rng, k: None)
    assert ok.to_json() == {"name": "quiet", "passed": True, "trials": 4, "failures": 0}
    assert rep.results == [res, ok]


def test_run_trials_refuses_a_count_below_one():
    # a property checked on no trial would pass vacuously
    rep = Report("runner")
    for n in (0, -5):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            run_trials(rep, "prop", n, 5, 9, lambda rng, k: None)
    assert rep.results == []


def _two_phase(log, fails, rows=2):
    """A two-phase probe that logs its phases: trial k draws ``rows`` rows of two
    leaves from field 0 at stage k % 2, whose values are the rows' sums plus the
    stage, and fails when k is in fails."""
    def draw(field, ks):
        drawn = field().uniform(size=(len(ks), rows, 2))
        log.append(("draw", list(ks)))
        return np.array(ks) % 2, drawn, [(k, r) for k, r in zip(ks, drawn)]

    def values(stage, flat):
        log.append(("values", stage, len(flat)))
        return flat.sum(axis=1, keepdims=True) + stage

    def judge(vals, ctxs):
        ks = [k for k, _ in ctxs]
        log.append(("judge", ks[0] % 2, ks))
        assert vals.tolist() == [(r.sum(axis=1, keepdims=True) + k % 2).tolist()
                                 for k, r in ctxs]
        return np.isin(ks, list(fails))

    def witness(drawn, ctx, vals):
        log.append(("witness", ctx[0]))
        assert np.array_equal(drawn, ctx[1])
        assert vals.tolist() == (drawn.sum(axis=1, keepdims=True) + ctx[0] % 2).tolist()
        return {"k": ctx[0]}

    return TwoPhase(draw, values, judge, witness)


def test_two_phase_draws_every_trial_then_judges_in_order():
    log = []
    rep = Report("runner")
    res = run_trials(rep, "prop", 7, 5, 9, _two_phase(log, fails={2, 3, 5}))
    # trial 0 alone, whose rows size the chunks, then one chunk: every other trial
    # drawn at once, then one values call and one judge call per stage, in the order
    # the stages first appear, each judge call with its stage's trials in order;
    # then only the first failing trial is asked for its witness
    assert log == [("draw", [0]), ("values", 0, 2), ("judge", 0, [0]),
                   ("draw", list(range(1, 7))),
                   ("values", 1, 3 * 2), ("judge", 1, [1, 3, 5]),
                   ("values", 0, 3 * 2), ("judge", 0, [2, 4, 6]),
                   ("witness", 2)]
    assert (res.passed, res.trials, res.failures, res.witness) == (False, 7, 3, {"k": 2})


def test_two_phase_field_j_draws_what_one_phase_trial_j_draws(monkeypatch):
    # field j of a two-phase property is derived_rng(seed, key, j), the stream of a
    # one-phase trial j, and each chunk continues the same field Generators, so the
    # trials' rows are the fields' streams however the trials are chunked
    one_phase = []
    run_trials(Report("runner"), "prop", 2, 5, 9,
               lambda rng, k: one_phase.append(rng.uniform(size=(6, 3))))

    def fields_of(bound):
        monkeypatch.setattr(report, "LEAF_VALUES_PER_CALL", bound)
        drawn = []

        def draw(field, ks):
            drawn.append(np.stack([field().uniform(size=(len(ks), 3)),
                                   field().uniform(size=(len(ks), 3))], axis=1))
            return np.zeros(len(ks), dtype=int), drawn[-1], [None] * len(ks)

        run_trials(Report("runner"), "prop", 6, 5, 9, TwoPhase(
            draw, lambda stage, rows: rows,
            lambda vals, ctxs: np.zeros(len(ctxs), bool), lambda *_: {}))
        return [len(d) for d in drawn], np.concatenate(drawn).transpose(1, 0, 2)

    for bound, chunks in ((1 << 18, [1, 5]), (12, [1, 2, 2, 1]), (1, [1] * 6)):
        sizes, fields = fields_of(bound)
        assert sizes == chunks
        assert np.array_equal(fields, one_phase)


def test_one_and_two_phase_properties_share_a_report():
    rep = Report("mixed")
    run_trials(rep, "one", 3, 1, 1, lambda rng, k: {"k": k} if k == 1 else None)
    run_trials(rep, "two", 5, 1, 2, _two_phase([], fails={4}))
    run_trials(rep, "quiet", 2, 1, 3, _two_phase([], fails=()))
    assert [r.to_json() for r in rep.results] == [
        {"name": "one", "passed": False, "trials": 3, "failures": 1,
         "witness": {"k": 1}},
        {"name": "two", "passed": False, "trials": 5, "failures": 1,
         "witness": {"k": 4}},
        {"name": "quiet", "passed": True, "trials": 2, "failures": 0}]
    assert not rep.passed


def test_two_phase_batches_hold_at_most_the_leaf_value_bound(monkeypatch):
    # a bound of 4 leaf values: after trial 0, a chunk holds as many trials as fit
    # (one at least), and each values call at most two rows of two leaves; the
    # witness comes from the first chunk that fails, and no later chunk is asked
    # for one
    monkeypatch.setattr(report, "LEAF_VALUES_PER_CALL", 4)
    log = []
    res = run_trials(Report("runner"), "prop", 5, 5, 9,
                     _two_phase(log, fails={1, 3}, rows=1))
    assert log == [("draw", [0]), ("values", 0, 1), ("judge", 0, [0]),
                   ("draw", [1, 2]),
                   ("values", 1, 1), ("judge", 1, [1]),
                   ("values", 0, 1), ("judge", 0, [2]),
                   ("witness", 1),
                   ("draw", [3, 4]),
                   ("values", 1, 1), ("judge", 1, [3]),
                   ("values", 0, 1), ("judge", 0, [4])]
    assert (res.failures, res.witness) == (2, {"k": 1})
    # three rows of two leaves are over the bound: one trial a chunk, in two slices
    log.clear()
    res = run_trials(Report("runner"), "prop", 2, 5, 9,
                     _two_phase(log, fails={1}, rows=3))
    assert log == [("draw", [0]), ("values", 0, 2), ("values", 0, 1), ("judge", 0, [0]),
                   ("draw", [1]), ("values", 1, 2), ("values", 1, 1), ("judge", 1, [1]),
                   ("witness", 1)]
    assert (res.failures, res.witness) == (1, {"k": 1})


def _plain(obj):
    """Arrays, tuples, lists and numbers as nested lists and numbers, for =="""
    if isinstance(obj, np.ndarray):
        return [obj.dtype.str, obj.shape, obj.tolist()]
    if isinstance(obj, (tuple, list)):
        return [_plain(o) for o in obj]
    return obj


def _drawn(check, n, monkeypatch):
    """Every two-phase property's draws in a run of n trials, in property order: the
    stages, rows and ctx of all its chunks, joined, and its chunk sizes."""
    drawn = {}
    judged = report._judged_chunk

    def recorded(probe, *chunk):
        drawn.setdefault(probe, []).append(chunk)
        return judged(probe, *chunk)

    with monkeypatch.context() as mp:
        mp.setattr(report, "_judged_chunk", recorded)
        check(n)
    return [(np.concatenate([c[0] for c in chunks]),
             np.concatenate([c[1] for c in chunks]),
             _plain([ctx for c in chunks for ctx in c[2]]), [len(c[0]) for c in chunks])
            for chunks in drawn.values()]


_CHECKS = {
    "axioms": lambda n: check_axioms(GainLossRatio(), binomial_tree(2), 1, trials=n,
                                     rng_seed=3),
    "axioms_random16": lambda n: check_axioms(
        GainLossRatio(), random_tree(np.random.default_rng(4), periods=3), 2,
        trials=n, rng_seed=3),
    "scale": lambda n: check_scale_invariance(GainLossRatio(), binomial_tree(2), 1,
                                              trials=n, rng_seed=3),
    "lift": lambda n: check_lift_axioms(GainLossRatio(), binomial_tree(2), trials=n,
                                        rng_seed=3),
    "lift_random16": lambda n: check_lift_axioms(
        GainLossRatio(), random_tree(np.random.default_rng(4), periods=3), trials=n,
        rng_seed=3)}


@pytest.mark.parametrize("name", list(_CHECKS))
def test_a_shorter_run_draws_a_prefix_of_a_longer_one(name, monkeypatch):
    # trial k's stage, rows and ctx do not depend on the trial count
    short, long = (_drawn(_CHECKS[name], n, monkeypatch) for n in (20, 40))
    assert len(short) == len(long) >= 2
    for (stages, rows, ctx, _), (stages2, rows2, ctx2, _) in zip(short, long):
        assert np.array_equal(stages, stages2[:20])
        assert rows.tobytes() == rows2[:20].tobytes()
        assert ctx == ctx2[:20]
    if name.startswith("lift"):  # the lift's trials draw their own stages
        assert all(len(set(stages.tolist())) > 1 for stages, *_ in short)


@pytest.mark.parametrize("name", list(_CHECKS))
def test_a_run_drawn_in_chunks_draws_what_one_chunk_draws(name, monkeypatch):
    # a bound of a few leaf values cuts every property's trials into chunks of one
    # or two trials, which continue the same field Generators
    whole = _drawn(_CHECKS[name], 25, monkeypatch)
    monkeypatch.setattr(report, "LEAF_VALUES_PER_CALL", 8)
    chunked = _drawn(_CHECKS[name], 25, monkeypatch)
    assert all(sizes == [1, 24] for *_, sizes in whole)
    assert {size for *_, sizes in chunked for size in sizes} <= {1, 2}
    assert len(chunked) == len(whole)
    for (stages, rows, ctx, _), (stages2, rows2, ctx2, _) in zip(whole, chunked):
        assert np.array_equal(stages, stages2)
        assert rows.tobytes() == rows2.tobytes()
        assert ctx == ctx2


@pytest.mark.parametrize("check", [
    lambda n: check_axioms(GainLossRatio(), binomial_tree(2), 1, trials=n),
    lambda n: check_lift_axioms(GainLossRatio(), binomial_tree(2), trials=n)])
def test_seeding_is_per_property_not_per_trial(check, monkeypatch):
    # each two-phase property seeds one Generator per draw field, so the Generators
    # and SeedSequences constructed do not grow with the trial count
    made = []
    for name in ("default_rng", "SeedSequence"):
        real = getattr(np.random, name)
        monkeypatch.setattr(np.random, name,
                            lambda *a, real=real, name=name, **kw:
                            made.append(name) or real(*a, **kw))
    counts = []
    for n in (10, 40):
        made.clear()
        check(n)
        counts.append(sorted(made))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("check", [
    lambda n: check_axioms(GainLossRatio(), binomial_tree(2), 1, trials=n),
    lambda n: check_scale_invariance(GainLossRatio(), binomial_tree(2), 1, trials=n),
    lambda n: check_lift_axioms(GainLossRatio(), binomial_tree(2), trials=n),
    lambda n: validate_standard_family(induced_family(GainLossRatio()),
                                       binomial_tree(2), 0, trials=n),
    lambda n: closure_check(GainLossRatio(), 0, 1.0, trials=n, space=binomial_tree(2)),
    lambda n: check_time_consistency(DynamicMeasure(GainLossRatio()), binomial_tree(2),
                                     trials=n),
    lambda n: check_lift_time_consistency(DynamicMeasure(GainLossRatio()),
                                          binomial_tree(2), trials=n),
    lambda n: check_riskaversion_monotone_consistency(1.0, binomial_tree(2), trials=n)])
def test_every_checker_refuses_a_trial_count_below_one(check):
    for n in (0, -5):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            check(n)


@pytest.mark.parametrize("check", [check_time_consistency, check_lift_time_consistency])
def test_every_consistency_checker_refuses_an_empty_level_grid(check):
    # no sample would run, so every entry would pass on nothing
    with pytest.raises(ValueError, match="level grid is empty"):
        check(DynamicMeasure(GainLossRatio()), binomial_tree(2), z_grid=[], trials=2)
