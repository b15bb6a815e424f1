import numpy as np
import pytest

from perflat import (INF, CustomMeasure, DividendProcess, DynamicMeasure,
                     ExponentialUtilityMeasure, GainLossRatio, TVar, XVar,
                     atom_expect, binomial_tree, check_lift_axioms,
                     check_lift_time_consistency, evaluate, lift_evaluate,
                     lpm_ratio, sample_dividend)
from perflat.util import derived_rng


# ---------------------------------------------------------------------------
# the stream container


def test_terminal_only_round_trip(tree2):
    x = XVar(tree2, [1.0, -2.0, 0.5, 3.0])
    dp = DividendProcess.terminal_only(x)
    assert dp.stages() == [tree2.horizon]
    agg = dp.aggregate_from(0)
    assert np.array_equal(agg.values, x.values)


def test_payment_restaging(tree2):
    xi = TVar(tree2, 0, [2.0])
    dp = DividendProcess(tree2, {1: xi, 2: 1.0})
    # an earlier-measurable payment is legal at a later date
    assert np.allclose(dp.payment(1).values, [2.0, 2.0])
    with pytest.raises(ValueError):
        DividendProcess(tree2, {0: TVar(tree2, 1, [1.0, 2.0])})


def test_aggregate_tail_sums(tree2):
    dp = DividendProcess(tree2, {0: 1.0, 1: TVar(tree2, 1, [2.0, -1.0]),
                                 2: TVar(tree2, 2, [0.5, 0.0, 0.0, 0.5])})
    assert np.allclose(dp.aggregate_from(0).values, [3.5, 3.0, 0.0, 0.5])
    assert np.allclose(dp.aggregate_from(1).values, [2.5, 2.0, -1.0, -0.5])
    assert np.allclose(dp.aggregate_from(2).values, [0.5, 0.0, 0.0, 0.5])


def test_scaling_and_mixing(tree2):
    dp = DividendProcess(tree2, {1: TVar(tree2, 1, [2.0, -1.0]), 2: 1.0})
    doubled = dp.scaled(2.0)
    assert np.allclose(doubled.aggregate_from(0).values,
                       2.0 * dp.aggregate_from(0).values)
    with pytest.raises(ValueError):
        dp.scaled(-1.0)
    other = DividendProcess(tree2, {2: 3.0})
    mix = dp.mixed_with(other, 0.25)
    want = 0.25 * dp.aggregate_from(0).values + 0.75 * other.aggregate_from(0).values
    assert np.allclose(mix.aggregate_from(0).values, want)


def test_stream_json_round_trip(tree2):
    dp = DividendProcess(tree2, {0: 1.5, 2: TVar(tree2, 2, [1.0, 0.0, -2.0, 4.0])})
    back = DividendProcess.from_json(dp.to_json(), tree2)
    for r in dp.stages():
        assert np.array_equal(back.payment(r).values, dp.payment(r).values)


# ---------------------------------------------------------------------------
# lift values


def test_lift_equals_measure_of_tail_sum(tree2):
    glr = GainLossRatio()
    dp = DividendProcess(tree2, {0: 1.0, 1: TVar(tree2, 1, [2.0, -1.0])})
    v = lift_evaluate(glr, 0, dp)
    direct = evaluate(glr, 0, dp.aggregate_from(0))
    assert np.array_equal(v.values, direct.values)


def test_lift_ignores_past_payments(tree2):
    glr = GainLossRatio()
    base = {1: TVar(tree2, 1, [2.0, -1.0]), 2: TVar(tree2, 2, [1.0, 0.0, 3.0, -1.0])}
    dp1 = DividendProcess(tree2, {**base, 0: 0.0})
    dp2 = DividendProcess(tree2, {**base, 0: 50.0})
    assert np.array_equal(lift_evaluate(glr, 1, dp1).values,
                          lift_evaluate(glr, 1, dp2).values)


# ---------------------------------------------------------------------------
# lift axioms


@pytest.mark.parametrize("m", [GainLossRatio(),
                               ExponentialUtilityMeasure(risk_aversion=1.0),
                               lpm_ratio(2.0)],
                         ids=lambda m: m.label())
def test_lift_axioms(m, tree2):
    rep = check_lift_axioms(m, tree2, trials=80, rng_seed=5)
    failed = [r.name for r in rep.results if r.passed is False]
    assert not failed, failed


def test_lift_axiom_entry_names(tree2):
    rep = check_lift_axioms(GainLossRatio(), tree2, trials=30, rng_seed=2)
    names = {r.name for r in rep.results}
    assert {"independence_of_past_and_locality", "bounds_interval",
            "monotonicity", "strict_shift", "quasi_concavity",
            "timing_invariance", "aggregation_identity",
            "terminal_round_trip"} <= names


def test_lift_axioms_flag_a_broken_measure(tree2):
    # decreasing in the payoff, so it sits at the wrong end of its bounds too
    falling = CustomMeasure(lambda space, t, v: -np.arctan(atom_expect(space, t, v)),
                            z_d=-np.pi / 2, z_u=np.pi / 2, kind="falling")
    rep = check_lift_axioms(falling, tree2, trials=30, rng_seed=10)
    failed = {r.name: r for r in rep.results if r.passed is False}
    assert set(failed) == {"upper_bound_attained", "lower_bound_approached",
                           "monotonicity", "strict_shift"}
    assert (failed["upper_bound_attained"].failures,
            failed["lower_bound_approached"].failures) == (3, 3)
    mono = failed["monotonicity"]
    assert mono.trials == 30 and 0 < mono.failures < 30
    assert mono.witness["note"] == "larger payments lowered the value"
    t = mono.witness["stage"]
    d1 = DividendProcess.from_json(mono.witness["D"], tree2)
    d2 = DividendProcess.from_json(mono.witness["D2"], tree2)
    assert np.any(lift_evaluate(falling, t, d2).values
                  < lift_evaluate(falling, t, d1).values)
    assert failed["strict_shift"].failures == 30


def test_lift_axioms_raise_on_a_nan_value(tree2):
    # NaN where the aggregate's conditional mean is positive and finite, so only
    # the randomized trials meet it: the batched lift raises as lift_evaluate
    # does on such a stream, rather than judging NaN
    def fn(space, t, v):
        mean = atom_expect(space, t, v)
        return np.where((mean > 0.0) & (mean < INF), np.nan, 0.0)

    partial = CustomMeasure(fn, z_d=-INF, z_u=INF, kind="partial")
    with pytest.raises(ValueError, match="nan"):
        lift_evaluate(partial, 0, DividendProcess(tree2, {2: 1.0}))
    with pytest.raises(ValueError, match="nan"):
        check_lift_axioms(partial, tree2, trials=30, rng_seed=10)


def test_scale_invariance_skipped_for_exp(tree2):
    rep = check_lift_axioms(ExponentialUtilityMeasure(risk_aversion=1.0),
                            tree2, trials=30, rng_seed=2)
    assert rep.result("scale_invariance").passed is None


# ---------------------------------------------------------------------------
# time consistency transported to streams


def test_lift_consistency_glr(tree2):
    rep = check_lift_time_consistency(DynamicMeasure(GainLossRatio()), tree2,
                                      trials=40, rng_seed=0)
    failed = [r.name for r in rep.results if r.passed is False]
    assert not failed, failed
    assert rep.meta["verdicts"]["variable"] == "consistent-on-sample"


def test_lift_consistency_lpm_transports_pinned_witness(tree2):
    import json
    from importlib import resources
    w = json.loads(resources.files("perflat").joinpath(
        "fixtures/lpm_witness.json").read_text())
    rep = check_lift_time_consistency(DynamicMeasure(lpm_ratio(2.0)), tree2,
                                      trials=60, rng_seed=0, witness=w)
    assert rep.meta["verdicts"]["variable"] == "counterexample"
    assert rep.result("transport_to_process").passed is True
    assert rep.result("verdict_agreement").passed is True


def test_lift_consistency_rejects_bogus_witness(tree2):
    # an unverifiable witness must not flip the verdict
    bogus = {"x": {"space": "binomial2",
                   "values": {"uu": 1.0, "ud": 1.0, "du": 1.0, "dd": 1.0}},
             "s": 0, "t": 1, "z": 0.5, "atom": "uu",
             "beta_s": 0.0, "beta_t_min": 1.0, "margin": 0.5}
    rep = check_lift_time_consistency(DynamicMeasure(lpm_ratio(2.0)), tree2,
                                      trials=20, rng_seed=0, witness=bogus)
    assert rep.meta["verdicts"]["variable"] == "consistent-on-sample"


def test_negative_interim_breaks_the_stream_direction(tree2):
    # a large negative interim payment plus a small terminal one: every tail
    # sum from stage 2 is fine, the stage-1 tail merges the hole and the value
    # drops; the variable-level family never sees the interim hole at all
    glr = GainLossRatio()
    dp = DividendProcess(tree2, {1: -5.0, 2: 1.0})
    v2 = lift_evaluate(glr, 2, dp)
    v1 = lift_evaluate(glr, 1, dp)
    assert np.all(np.isposinf(v2.values))      # tail from 2 is the gain 1 > 0
    assert np.all(v1.values == 0.0)            # tail from 1 is -4 < 0, all loss
    rep = check_lift_time_consistency(DynamicMeasure(glr), tree2, trials=30,
                                      rng_seed=0, nonnegative_interim=False)
    agree = rep.result("verdict_agreement")
    assert agree.passed is None
    assert "negative interim" in agree.note


def test_sample_dividend_respects_sign_constraint(tree2):
    for k in range(30):
        rng = derived_rng(0, 61, k)
        dp = sample_dividend(tree2, rng, nonnegative_interim=True)
        for r in dp.stages():
            if r < tree2.horizon:
                assert np.all(dp.payment(r).values >= 0.0)
