import numpy as np

from perflat import report
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


def _two_phase(log, fails):
    """A two-phase probe that logs its phases: trial k draws k % 3 + 1 rows of two
    leaves at stage k % 2, whose values are the rows' sums, and fails when k is in
    fails."""
    def draw(rng, k):
        rows = rng.uniform(size=(k % 3 + 1, 2))
        log.append(("draw", k))
        return k % 2, rows, (k, rows)

    def values(stage, rows):
        log.append(("values", stage, len(rows)))
        return rows.sum(axis=1, keepdims=True) + stage

    def judge(k, ctx, vals):
        log.append(("judge", k))
        assert ctx[0] == k
        assert vals.tolist() == (ctx[1].sum(axis=1, keepdims=True) + k % 2).tolist()
        if k in fails:
            return {"k": k}

    return TwoPhase(draw, values, judge)


def test_two_phase_draws_every_trial_then_judges_in_order():
    log = []
    rep = Report("runner")
    res = run_trials(rep, "prop", 7, 5, 9, _two_phase(log, fails={2, 3, 5}))
    assert log[:7] == [("draw", k) for k in range(7)]
    # one values call per stage, in the order the stages first appear
    assert log[7:9] == [("values", 0, 1 + 3 + 2 + 1), ("values", 1, 2 + 1 + 3)]
    assert log[9:] == [("judge", k) for k in range(7)]
    assert (res.passed, res.trials, res.failures, res.witness) == (False, 7, 3, {"k": 2})


def test_two_phase_trials_draw_what_one_phase_trials_draw():
    # trial k draws from derived_rng(seed, key, k) whatever the probe's kind
    one_phase, two_phase = [], []
    run_trials(Report("runner"), "prop", 4, 5, 9,
               lambda rng, k: one_phase.append(float(rng.uniform())))
    run_trials(Report("runner"), "prop", 4, 5, 9, TwoPhase(
        lambda rng, k: (0, np.full((1, 1), rng.uniform()), None),
        lambda stage, rows: rows,
        lambda k, ctx, vals: two_phase.append(float(vals[0, 0]))))
    assert two_phase == one_phase


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
    # a bound of 4 leaf values: trials are drawn until their rows reach it, and each
    # values call takes at most two rows of two leaves
    monkeypatch.setattr(report, "_TRIAL_LEAF_VALUES", 4)
    log = []
    res = run_trials(Report("runner"), "prop", 5, 5, 9, _two_phase(log, fails={3}))
    assert log == [("draw", 0), ("draw", 1), ("values", 0, 1), ("values", 1, 2),
                   ("judge", 0), ("judge", 1),
                   ("draw", 2), ("values", 0, 2), ("values", 0, 1), ("judge", 2),
                   ("draw", 3), ("draw", 4), ("values", 1, 1), ("values", 0, 2),
                   ("judge", 3), ("judge", 4)]
    assert (res.failures, res.witness) == (1, {"k": 3})
