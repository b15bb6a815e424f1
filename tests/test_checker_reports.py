"""The randomized axiom, scale and lift checkers against pinned reports.

``tests/fixtures/checker_reports.json`` holds the canonical JSON of every report on
the grid below.  Regenerate it only for a deliberate report change, with

    PYTHONPATH=src python tests/test_checker_reports.py
"""
import json
from pathlib import Path

import numpy as np

from perflat import (CertaintyEquivalentMeasure, ConditionalExpectation, CustomMeasure,
                     ExpectedUtilityMeasure, ExponentialUtilityMeasure, GainLossRatio,
                     UtilitySpec, binomial_tree, check_axioms, check_lift_axioms,
                     check_scale_invariance, lpm_ratio, random_tree, raroc)
from perflat import report
from perflat.lattice import dump_json, jsonable

FIXTURE = Path(__file__).parent / "fixtures" / "checker_reports.json"
SEEDS = (8, 10)
# a quarter of check_axioms' draws put +inf on a leaf with probability 0.02, so at
# this count the grid's trials include +inf legs on both trees
TRIALS = 30


def _squared_mean(space, t, v):
    mean = np.bincount(space.atom_index[t], weights=space.probs * v,
                       minlength=space.n_atoms(t)) / space.atom_mass[t]
    return np.square(mean)


def _measures():
    """Criterion 8's seven measures and a values-only one that fails some axioms."""
    return [GainLossRatio(), ExponentialUtilityMeasure(risk_aversion=1.0),
            CertaintyEquivalentMeasure(UtilitySpec("exp", lam=1.0)),
            ExpectedUtilityMeasure(UtilitySpec("power", eta=0.5)),
            ConditionalExpectation(), lpm_ratio(2.0), raroc(0.5),
            CustomMeasure(_squared_mean, z_d=0.0, z_u=np.inf, kind="squared_mean")]


def _spaces():
    return {"binomial2": binomial_tree(2),
            "random16": random_tree(np.random.default_rng(4), periods=3)}


def checker_reports() -> dict:
    """Canonical JSON of each report on the grid, keyed by checker, measure, tree,
    stage and seed."""
    out = {}
    for tree, space in _spaces().items():
        assert tree != "random16" or space.n_leaves == 16
        for m in _measures():
            for seed in SEEDS:
                where = f"{m.label()}/{tree}/seed={seed}"
                for t in space.times:
                    for name, check in (("axioms", check_axioms),
                                        ("scale", check_scale_invariance)):
                        rep = check(m, space, t, trials=TRIALS, rng_seed=seed)
                        out[f"{name}/{where}/t={t}"] = dump_json(jsonable(rep.to_json()))
                rep = check_lift_axioms(m, space, trials=TRIALS, rng_seed=seed)
                out[f"lift/{where}"] = dump_json(jsonable(rep.to_json()))
    return out


def _one_row_at_a_time(mp):
    """Split every batch that a measured class's ``values`` gets into one-row calls."""
    for cls in {type(m) for m in _measures()}:
        values = cls.values

        def split(self, space, t, leaf_values, values=values):
            if np.ndim(leaf_values) == 1:
                return values(self, space, t, leaf_values)
            return np.array([values(self, space, t, row) for row in leaf_values],
                            dtype=float)

        mp.setattr(cls, "values", split)


def _pinned() -> dict:
    return {key: dump_json(rep) for key, rep in json.loads(FIXTURE.read_text()).items()}


def test_reports_match_the_fixture():
    want, got = _pinned(), checker_reports()
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key], key


def test_one_row_route_gives_the_same_reports(monkeypatch):
    # every values call takes one row, and each trial is drawn, evaluated and judged
    # before the next is drawn, as a one-phase probe runs
    _one_row_at_a_time(monkeypatch)
    monkeypatch.setattr(report, "LEAF_VALUES_PER_CALL", 1)
    assert checker_reports() == _pinned()


def test_batches_stay_within_the_leaf_value_bound(monkeypatch):
    space = binomial_tree(14)
    bound = report.LEAF_VALUES_PER_CALL
    m = GainLossRatio()
    shapes = []
    values = type(m).values

    def recorded(self, space, t, leaf_values):
        shapes.append(np.shape(leaf_values))
        return values(self, space, t, leaf_values)

    def run():
        return [dump_json(jsonable(check(m, space, 7, trials=3, rng_seed=1).to_json()))
                for check in (check_axioms, check_scale_invariance)]

    with monkeypatch.context() as mp:
        mp.setattr(type(m), "values", recorded)
        batched = run()
    assert max(int(np.prod(s)) for s in shapes) <= bound
    assert max(s[0] for s in shapes if len(s) == 2) > 1  # the bound still batches
    with monkeypatch.context() as mp:
        _one_row_at_a_time(mp)
        assert run() == batched


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    reports = {key: json.loads(text) for key, text in checker_reports().items()}
    FIXTURE.write_text(json.dumps(reports, indent=1, allow_nan=False) + "\n")
