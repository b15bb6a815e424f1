"""The randomized axiom, scale, lift and family checkers against pinned reports.

``tests/fixtures/checker_reports.json`` holds the canonical JSON of every axiom,
scale and lift report on the grid below, and ``tests/fixtures/family_reports.json``
those of ``validate_standard_family`` and ``closure_check``.  Regenerate them only
for a deliberate report change, with

    PYTHONPATH=src python tests/test_checker_reports.py
"""
import json
from pathlib import Path

import numpy as np

from perflat import (CertaintyEquivalentMeasure, ConditionalExpectation, CustomMeasure,
                     ExpectedUtilityMeasure, ExponentialUtilityMeasure, GainLossRatio,
                     UtilitySpec, XVar, binomial_tree, check_axioms, check_lift_axioms,
                     check_scale_invariance, lpm_ratio, random_tree, raroc)
from perflat import report
from perflat.lattice import atom_expect, dump_json, jsonable
from perflat.risk_family import (StandardFamily, closure_check, entropic_family,
                                 induced_family, validate_standard_family)

FIXTURE = Path(__file__).parent / "fixtures" / "checker_reports.json"
FAMILY_FIXTURE = Path(__file__).parent / "fixtures" / "family_reports.json"
SEEDS = (8, 10)
# a quarter of check_axioms' draws put +inf on a leaf with probability 0.02, so at
# this count the grid's trials include +inf legs on both trees
TRIALS = 30


def _squared_mean(space, t, v):
    mean = np.bincount(space.atom_index[t], weights=space.probs * v,
                       minlength=space.n_atoms(t)) / space.atom_mass[t]
    return np.square(mean)


def _global_mean(space, t, v):
    # every atom valued at the whole-space mean: not local
    return np.full(space.n_atoms(t), space.probs @ v)


def _floored_mean(space, t, v):
    # the conditional mean in steps of 2^-52: not continuous from below, and a
    # transfer's payment date can move it by a step
    return np.floor(np.ldexp(atom_expect(space, t, v), 52))


def _measures():
    """Criterion 8's seven measures and three values-only ones that fail some axioms;
    the floored mean declares a scale invariance that it does not have."""
    return [GainLossRatio(), ExponentialUtilityMeasure(risk_aversion=1.0),
            CertaintyEquivalentMeasure(UtilitySpec("exp", lam=1.0)),
            ExpectedUtilityMeasure(UtilitySpec("power", eta=0.5)),
            ConditionalExpectation(), lpm_ratio(2.0), raroc(0.5),
            CustomMeasure(_squared_mean, z_d=0.0, z_u=np.inf, kind="squared_mean"),
            CustomMeasure(_global_mean, z_d=-np.inf, z_u=np.inf, kind="global_mean"),
            CustomMeasure(_floored_mean, z_d=-np.inf, z_u=np.inf, kind="floored_mean",
                          scale_invariant=True)]


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


def _pinned(path=FIXTURE) -> dict:
    return {key: dump_json(rep) for key, rep in json.loads(path.read_text()).items()}


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


# ---------------------------------------------------------------------------
# standard families

FAMILY_SEED, FAMILY_TRIALS = 3, 6


def _mean(x, t):
    return atom_expect(x.space, t, x.values)


def _atom_max(x, t):
    out = np.full(x.space.n_atoms(t), -np.inf)
    np.maximum.at(out, x.space.atom_index[t], x.values)
    return out


def _closed_form(label, rho, stopped=None):
    """A family on (-inf, inf) with raw = rho(z, t, x) on scalar levels and level
    rows alike, and on claim rows one claim at a time; ``stopped`` maps raw to the
    answer under any ``stop_at``."""
    def raw(z, t, x, stop_at=None):
        if not isinstance(x, XVar):
            return np.array([raw(z, t, claim, stop_at) for claim in x])
        v = rho(np.asarray(z, dtype=float), t, x)
        return v if stop_at is None or stopped is None else stopped(v)

    return StandardFamily(interval=(-np.inf, np.inf), raw=raw, label=label)


def _first_answer_inf():
    # +inf on atom 0 of the first answer only, so no later difference meets inf - inf
    answered = []

    def rho(z, t, x):
        v = z - _mean(x, t)
        if not answered:
            answered.append(True)
            v = np.where(np.arange(v.shape[-1]) == 0, np.inf, v)
        return v

    return _closed_form("first_answer_inf", rho)


# each broken family and the validator entries it is built to fail
_BROKEN = {
    "first_answer_inf": (_first_answer_inf, {"finite_on_bounded_claims"}),
    "concave": (lambda: _closed_form("concave", lambda z, t, x: z - _atom_max(x, t)),
                {"convexity"}),
    "increasing": (lambda: _closed_form("increasing", lambda z, t, x: z + _mean(x, t)),
                   {"monotone_nonincreasing"}),
    "half_cash": (lambda: _closed_form("half_cash",
                                       lambda z, t, x: z - 0.5 * _mean(x, t)),
                  {"translation_invariance"}),
    "global_mean": (lambda: _closed_form(
        "global_mean", lambda z, t, x: z - _mean(x, t) - 0.5 * _mean(x, 0)),
        {"locality"}),
    "wobbly": (lambda: _closed_form(
        "wobbly",
        lambda z, t, x: z - _mean(x, t) + 0.1 * np.sin(np.ldexp(_mean(x, t), 20))),
        {"continuity_from_below"}),
    "decreasing_in_z": (lambda: _closed_form("decreasing_in_z",
                                             lambda z, t, x: -z - _mean(x, t)),
                        {"z_paths_monotone"}),
    "jump_in_z": (lambda: _closed_form(
        "jump_in_z", lambda z, t, x: z - _mean(x, t) + 5.0 * (z > 0.1)),
        {"z_paths_continuous"}),
    "stop_shifted": (lambda: _closed_form(
        "stop_shifted", lambda z, t, x: z - _mean(x, t), stopped=lambda v: v + 10.0),
        {"sign_query_matches_raw"}),
}


def _families():
    """Criterion 8's seven induced families, the entropic one and the broken ones,
    each made fresh (one broken family keeps state)."""
    measures = _measures()[:7]
    return ([(m.label(), lambda m=m: induced_family(m)) for m in measures]
            + [("entropic", lambda: entropic_family(0.8))]
            + [(name, make) for name, (make, _) in _BROKEN.items()])


def family_reports() -> dict:
    """Canonical JSON of each family report on ``binomial_tree(2)`` at stages 0 and
    1, and of ``closure_check`` for gain-loss and the lpm ratio."""
    space, out = binomial_tree(2), {}
    for name, make in _families():
        for t in (0, 1):
            rep = validate_standard_family(make(), space, t, trials=FAMILY_TRIALS,
                                           rng_seed=FAMILY_SEED)
            out[f"family/{name}/t={t}"] = dump_json(jsonable(rep.to_json()))
    for m in (GainLossRatio(), lpm_ratio(2.0)):
        for t in (0, 1):
            rep = closure_check(m, t, 0.5, trials=FAMILY_TRIALS, rng_seed=FAMILY_SEED,
                                space=space)
            out[f"closure/{m.label()}/t={t}"] = dump_json(jsonable(rep.to_json()))
    return out


def test_family_reports_match_the_fixture():
    want, got = _pinned(FAMILY_FIXTURE), family_reports()
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key], key
    # every witness format is pinned: each broken family fails what it is built to
    for name, (_, fails) in _BROKEN.items():
        failed = {r["name"] for r in json.loads(got[f"family/{name}/t=1"])["results"]
                  if r["passed"] is False}
        assert fails <= failed, (name, failed)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    for path, reports in ((FIXTURE, checker_reports()), (FAMILY_FIXTURE, family_reports())):
        reports = {key: json.loads(text) for key, text in reports.items()}
        path.write_text(json.dumps(reports, indent=1, allow_nan=False) + "\n")
