from perflat.report import Report, run_trials
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
