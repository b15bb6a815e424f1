import json
from importlib import resources

import numpy as np
import pytest

from perflat import (DynamicMeasure, ExponentialUtilityMeasure, GainLossRatio,
                     TVar, XVar, binomial_tree, check_penalty_inequality_coherent,
                     check_riskaversion_monotone_consistency,
                     check_time_consistency, evaluate, globalize_witness,
                     lpm_ratio, random_tree, search_counterexample,
                     verify_witness)
from perflat.dynamics import _child_min, _ratio_feasible


def _load_pinned_witness():
    text = resources.files("perflat").joinpath(
        "fixtures/lpm_witness.json").read_text()
    return json.loads(text)


# ---------------------------------------------------------------------------
# consistent families stay consistent on samples


def test_glr_is_consistent_on_sample(tree2):
    rep = check_time_consistency(DynamicMeasure(GainLossRatio()), tree2,
                                 trials=60, rng_seed=0)
    assert rep.verdict == "consistent-on-sample"
    assert rep.checks_pass()
    assert rep.witness is None
    assert rep.result("criteria_agreement").passed


def test_constant_lambda_exp_utility_is_consistent(tree2):
    d = DynamicMeasure(ExponentialUtilityMeasure(risk_aversion=1.0))
    rep = check_time_consistency(d, tree2, trials=60, rng_seed=1)
    assert rep.consistent
    for name in ("eq_tc[measure-level]", "eq_tc[strict-risk]",
                 "eq_tc[weak-risk]"):
        assert rep.result(name).passed


def test_sample_count_accounting(tree2):
    rep = check_time_consistency(DynamicMeasure(GainLossRatio()), tree2,
                                 trials=20, rng_seed=0)
    pairs = len(rep.meta["stage_pairs"])
    levels = len(rep.meta["z_grid"])
    assert rep.samples == 20 * pairs * levels


def test_grid_must_stay_inside_interval(tree2):
    d = DynamicMeasure(GainLossRatio())
    with pytest.raises(ValueError):
        check_time_consistency(d, tree2, z_grid=[0.0, 1.0], trials=5)


# ---------------------------------------------------------------------------
# the inconsistent family and its witness


def test_search_finds_lpm_counterexample(tree2):
    d = DynamicMeasure(lpm_ratio(2.0))
    rep = search_counterexample(d, tree2, budget=30_000, rng_seed=0)
    assert rep.verdict == "counterexample"
    w = rep.witness
    assert w["margin"] >= 1e-3
    ok, detail = verify_witness(d, tree2, w, risk_tol=1e-12)
    assert ok, detail


def test_pinned_witness_still_verifies(tree2):
    w = _load_pinned_witness()
    d = DynamicMeasure(lpm_ratio(2.0))
    ok, detail = verify_witness(d, tree2, w, risk_tol=1e-12)
    assert ok, detail
    assert w["margin"] >= 1e-3


def test_sampling_check_also_catches_lpm(tree2):
    # the witness level is fed back through the z grid to make the point
    w = _load_pinned_witness()
    d = DynamicMeasure(lpm_ratio(2.0))
    x = XVar.from_json(w["x"], tree2)

    rep = check_time_consistency(d, tree2, z_grid=[w["z"]], trials=40,
                                 rng_seed=0, sampler=lambda space, rng: x)
    assert rep.verdict == "counterexample"


def test_globalized_witness_violates_everywhere(tree2):
    w = _load_pinned_witness()
    d = DynamicMeasure(lpm_ratio(2.0))
    x_glob = globalize_witness(d, tree2, w)
    s, t, z = w["s"], w["t"], w["z"]
    beta_t = evaluate(d.measure, t, x_glob).values
    beta_s = evaluate(d.measure, s, x_glob).values
    assert np.all(beta_t > z)            # premise holds on every stage-t atom
    assert np.any(beta_s <= z)           # yet the earlier stage drops below


def _embedded_witness(tree3):
    """The pinned witness moved one stage down: its payoff on the u subtree of the
    three-step tree, -3 on the d subtree, localized at F_1-atom uuu against F_2."""
    w = _load_pinned_witness()
    x = XVar(tree3, [w["x"]["values"][lid[1:]] if lid[0] == "u" else -3.0
                     for lid in tree3.leaf_ids])
    return dict(w, x=x.to_json(), s=1, t=2, atom="uuu"), x


def test_witness_below_the_root_verifies(tree3):
    w, _ = _embedded_witness(tree3)
    ok, detail = verify_witness(DynamicMeasure(lpm_ratio(2.0)), tree3, w)
    assert ok, detail
    assert detail["beta_s"] == w["beta_s"]
    assert detail["beta_t_min"] == w["beta_t_min"]


def test_sampling_check_localizes_below_the_root(tree3):
    w, x = _embedded_witness(tree3)
    d = DynamicMeasure(lpm_ratio(2.0))
    rep = check_time_consistency(d, tree3, z_grid=[w["z"]], trials=5,
                                 rng_seed=0, sampler=lambda space, rng: x)
    assert rep.verdict == "counterexample"
    found = rep.witness
    assert (found["s"], found["t"], found["atom"]) == (1, 2, "uuu")
    assert abs(found["margin"] - 101.7425) <= 1e-4
    # the sampler returns the same payoff, so each sample verifies one candidate
    assert rep.result("localized_violations").failures == 5


def test_globalized_witness_below_the_root(tree3):
    w, _ = _embedded_witness(tree3)
    d = DynamicMeasure(lpm_ratio(2.0))
    x_glob = globalize_witness(d, tree3, w)
    for lid, v in zip(tree3.leaf_ids, x_glob.values):
        if lid[0] == "d":
            assert v == 1.0       # the first filler already lifts the d subtree
        else:
            assert v == w["x"]["values"][lid]
    beta_2 = evaluate(d.measure, 2, x_glob).values
    beta_1 = evaluate(d.measure, 1, x_glob).values
    assert np.all(beta_2 > w["z"])
    assert beta_1[tree3.atom_by_id(1, "uuu")] <= w["z"]


def test_verify_witness_rejects_tampering(tree2):
    w = dict(_load_pinned_witness())
    d = DynamicMeasure(lpm_ratio(2.0))
    w["z"] = w["z"] * 3.0  # level no longer below the child values
    ok, _ = verify_witness(d, tree2, w)
    assert not ok


# ---------------------------------------------------------------------------
# risk-aversion profiles


def test_constant_profile_consistent(tree2):
    rep = check_riskaversion_monotone_consistency(1.0, tree2, trials=30)
    assert rep.meta["profile"] == "constant"
    for name, verdict in rep.meta["verdicts"].items():
        assert verdict == "consistent-on-sample", (name, verdict)


def test_varying_profile_is_reported_not_asserted(tree2):
    lam = {t: TVar(tree2, t, np.full(tree2.n_atoms(t), 0.5 + 0.5 * t))
           for t in tree2.times}
    rep = check_riskaversion_monotone_consistency(lam, tree2, trials=30)
    assert rep.meta["profile"] == "nondecreasing in t"
    # informational entries never hard-fail for a non-constant profile
    for r in rep.results:
        assert r.passed is not False


# ---------------------------------------------------------------------------
# penalty aggregation for the coherent family


def test_penalty_aggregation_entries(tree2):
    rep = check_penalty_inequality_coherent(space=tree2, z=1.0, s=0, t=1,
                                            n_random=6)
    assert rep.result("penalty_aggregation").passed
    assert rep.result("ratio_polytope_nesting").passed
    assert rep.result("reverse_nesting").passed is None


def test_reverse_nesting_counterexample(tree2):
    # ratios inside each child stay within 1+z, the cross-child ratio does not
    lopsided = np.array([2.0 / 3.0, 4.0 / 3.0, 10.0 / 11.0, 20.0 / 11.0])
    assert _ratio_feasible(tree2, 1, 1.0, lopsided).all()
    assert not _ratio_feasible(tree2, 0, 1.0, lopsided).all()
    rep = check_penalty_inequality_coherent(space=tree2, z=1.0, s=0, t=1,
                                            q_samples=[lopsided], n_random=2)
    assert "given[0]" in rep.result("reverse_nesting").note
    # the aggregation inequality itself survives the counterexample
    assert rep.result("penalty_aggregation").passed


def test_symmetric_vertex_is_globally_feasible(tree2):
    symmetric = np.array([2.0 / 3.0, 4.0 / 3.0, 2.0 / 3.0, 4.0 / 3.0])
    assert _ratio_feasible(tree2, 1, 1.0, symmetric).all()
    assert _ratio_feasible(tree2, 0, 1.0, symmetric).all()


def _feasible_by_masks(space, r, z, density):
    """Reference: one boolean mask per F_r-atom."""
    out = np.zeros(space.n_atoms(r), dtype=bool)
    for k in range(space.n_atoms(r)):
        g = density[space.atom_index[r] == k]
        hi, lo = float(g.max()), float(g.min())
        out[k] = hi <= 0.0 or hi <= (1.0 + z) * lo * (1.0 + 1e-9) + 1e-12
    return out


def test_ratio_feasible_matches_the_mask_loop():
    rng = np.random.default_rng(2)
    for _ in range(100):
        space = random_tree(rng, periods=int(rng.integers(1, 4)), max_leaves=16)
        z = float(rng.uniform(0.1, 3.0))
        density = rng.uniform(0.0, 2.0, space.n_leaves)
        density[rng.random(space.n_leaves) < 0.3] = 0.0  # uncharged leaves and atoms
        for r in space.times:
            assert np.array_equal(_ratio_feasible(space, r, z, density),
                                  _feasible_by_masks(space, r, z, density))


def test_child_min_matches_the_subatom_lists():
    rng = np.random.default_rng(3)
    for _ in range(100):
        space = random_tree(rng, periods=int(rng.integers(1, 4)), max_leaves=16)
        for s in space.times:
            for t in space.times[s:]:
                values = rng.uniform(-4.0, 4.0, space.n_atoms(t))
                values[rng.random(space.n_atoms(t)) < 0.2] = np.inf
                want = [min(values[j] for j in space.subatoms(s, t, k))
                        for k in range(space.n_atoms(s))]
                assert np.array_equal(_child_min(space, s, t, values), want)

