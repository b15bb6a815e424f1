import numpy as np
import pytest

from perflat import (INF, CustomMeasure, DividendProcess, DynamicMeasure,
                     ExponentialUtilityMeasure, GainLossRatio, TVar, XVar,
                     atom_expect, binomial_tree, check_lift_axioms, coin2,
                     check_lift_time_consistency, evaluate, lift_evaluate,
                     lpm_ratio, random_tree, sample_dividend)
from perflat import dividends
from perflat.dividends import _aggregate, _paid_at_the_end, draw_dividend
from perflat.dynamics import check_time_consistency
from perflat.lattice import EventMask, draw_leaf_values, ext_add, num_from_json
from perflat.measures import check_axioms
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
    for elsewhere in (binomial_tree(2, p=0.3), coin2()):  # other probabilities, tree
        with pytest.raises(ValueError, match="payment lives on a different space"):
            dp.mixed_with(DividendProcess(elsewhere, {1: 1.0}), 0.5)


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
    assert [r.name for r in rep.results] == [
        "independence_of_past_and_locality", "bounds_interval", "upper_bound_attained",
        "lower_bound_approached", "monotonicity", "strict_shift", "quasi_concavity",
        "timing_invariance", "scale_invariance"]


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
    assert (mono.trials, mono.failures) == (30, 30)
    assert mono.witness["note"] == "value dropped under a nonnegative bump"
    # the witness shows D and the bump of its aggregate: D2 is D with the bump paid
    # at the final date, whose atoms are single leaves
    t, last = mono.witness["stage"], tree2.horizon
    d1 = DividendProcess.from_json(mono.witness["D"], tree2)
    bump = np.array(mono.witness["bump"])
    assert np.all(bump >= 0.0) and np.any(bump > 0.0)
    d2 = d1.with_payment_added(last, TVar(tree2, last, bump[tree2.atom_first[last]]))
    assert np.any(lift_evaluate(falling, t, d2).values
                  < lift_evaluate(falling, t, d1).values)
    assert failed["strict_shift"].failures == 30


def test_timing_witness_replays(tree2):
    # the conditional mean in steps of 2^-52: paying a known transfer at another date
    # adds in another order and can move the value by a step
    floored = CustomMeasure(
        lambda space, t, v: np.floor(np.ldexp(atom_expect(space, t, v), 52)),
        z_d=-INF, z_u=INF, kind="floored_mean")
    rep = check_lift_axioms(floored, tree2, trials=30, rng_seed=8)
    w = rep.result("timing_invariance").witness
    assert w["note"] == "payment date of a known transfer mattered"
    t, d = w["stage"], DividendProcess.from_json(w["D"], tree2)
    assert w["xi"]["stage"] == t
    xi = TVar(tree2, t, [num_from_json(w["xi"]["values"][tree2.atom_id(t, k)])
                         for k in range(tree2.n_atoms(t))])
    first, second = (lift_evaluate(floored, t, d.with_payment_added(r, xi)).values
                     for r in w["dates"])
    assert not np.array_equal(first, second)


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


_STREAM_MEASURES = {"glr": GainLossRatio, "lpm": lambda: lpm_ratio(2.0),
                    "exp": lambda: ExponentialUtilityMeasure(risk_aversion=0.7)}


@pytest.mark.parametrize("nonnegative_interim", [True, False])
@pytest.mark.parametrize("measure", list(_STREAM_MEASURES))
def test_streams_get_all_three_readings(measure, nonnegative_interim, tree2):
    # time consistency is equivalent to the induced families' sign readings at each
    # stage's own claim, so on streams the three readings agree as they do on
    # payoffs; with nonnegative interim payments gain-loss streams stay consistent,
    # and negative ones show violations, each counted alike by all three readings
    rep = check_lift_time_consistency(DynamicMeasure(_STREAM_MEASURES[measure]()),
                                      tree2, trials=40, rng_seed=1,
                                      nonnegative_interim=nonnegative_interim)
    assert rep.result("process_criteria_agreement").passed is True
    counts = {rep.result(f"process_eq_tc[{c}]").failures
              for c in ("measure-level", "strict-risk", "weak-risk")}
    assert len(counts) == 1
    if measure == "glr" and nonnegative_interim:
        assert counts == {0}
    if not nonnegative_interim:
        assert counts != {0}  # this sample shows the one-way gap


def test_sample_dividend_respects_sign_constraint(tree2):
    for k in range(30):
        rng = derived_rng(0, 61, k)
        dp = sample_dividend(tree2, rng, nonnegative_interim=True)
        for r in dp.stages():
            if r < tree2.horizon:
                assert np.all(dp.payment(r).values >= 0.0)


# ---------------------------------------------------------------------------
# streams as payment arrays


def test_sample_dividend_wraps_its_array_draw(tree2):
    for nonnegative_interim in (True, False):
        for seed in range(8):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            dp = sample_dividend(tree2, a, nonnegative_interim=nonnegative_interim)
            present, pays = draw_dividend(tree2, b, nonnegative_interim=nonnegative_interim)
            assert a.bit_generator.state == b.bit_generator.state
            assert dp.stages() == np.flatnonzero(present).tolist()
            assert np.array_equal(dp.pays, pays)
            assert DividendProcess.of_arrays(tree2, present, pays).to_json() == dp.to_json()


def test_payment_added_to_a_stream(tree2):
    dp = DividendProcess(tree2, {0: 1.5, 2: TVar(tree2, 2, [1.0, INF, -3.0, 0.5])})
    xi = TVar(tree2, 1, [2.0, -1.0])  # re-expressed at stage 2 as [2, 2, -1, -1]
    added = dp.with_payment_added(2, xi)
    assert added.stages() == [0, 2]
    assert np.array_equal(added.payment(2).values, [3.0, INF, -4.0, -0.5])
    fresh = dp.with_payment_added(1, xi)
    assert fresh.stages() == [0, 1, 2]
    assert np.array_equal(fresh.payment(1).values, [2.0, -1.0])
    assert np.array_equal(dp.with_payment_added(0, 0.5).payment(0).values, [2.0])
    assert dp.stages() == [0, 2]  # the stream itself is unchanged
    with pytest.raises(ValueError):
        dp.with_payment_added(0, xi)  # xi is not known at stage 0


def test_a_payment_from_another_space_is_refused(tree2):
    # the constructor and with_payment_added check a payment alike
    elsewhere = TVar(binomial_tree(2, p=0.3), 1, [1.0, 2.0])
    dp = DividendProcess(tree2, {2: 1.0})
    for build in (lambda: DividendProcess(tree2, {1: elsewhere}),
                  lambda: dp.with_payment_added(1, elsewhere)):
        with pytest.raises(ValueError, match="different space"):
            build()


@pytest.mark.parametrize("bad, message", [(np.nan, "nan"), (-INF, "-inf")])
def test_of_arrays_rejects_nan_and_minus_inf(tree2, bad, message):
    present = np.array([False, True, True])
    pays = np.ones((len(tree2.times), tree2.n_leaves))
    pays[1, 2:] = bad  # the second stage-1 atom
    with pytest.raises(ValueError, match=message):
        DividendProcess.of_arrays(tree2, present, pays)
    # an absent stage is ignored, whatever its row holds
    present[1] = False
    dp = DividendProcess.of_arrays(tree2, present, pays)
    assert dp.stages() == [2] and not dp.pays[1].any()


def test_aggregate_from_is_the_batch_pass_bit_for_bit(tree2):
    rng = np.random.default_rng(5)
    streams = [sample_dividend(tree2, rng, nonnegative_interim=False) for _ in range(30)]
    streams += [
        DividendProcess(tree2, {}),
        DividendProcess(tree2, {0: INF, 2: TVar(tree2, 2, [1.0, INF, -3.0, 0.5])}),
        DividendProcess(tree2, {1: TVar(tree2, 1, [INF, -0.0])}),
        # partial sums that overflow to -inf and then meet +inf: inf - inf = 0
        DividendProcess(tree2, {0: -1.7e308, 1: -1.7e308,
                                2: TVar(tree2, 2, [INF, 1.0, 2.0, 3.0])})]
    assert any(len(dp.stages()) < len(tree2.times) for dp in streams)
    pays = np.stack([dp.pays for dp in streams])
    for t in tree2.times:
        with np.errstate(over="ignore"):
            batch = _aggregate(t, pays)
        for dp, agg in zip(streams, batch):
            want = np.zeros(tree2.n_leaves)  # the payments from t on, in stage order
            with np.errstate(over="ignore"):
                for r, pay in dp.payments.items():
                    if r >= t:
                        want = ext_add(want, pay.values[tree2.atom_index[r]])
                got = dp.aggregate_from(t).values
            assert got.tobytes() == agg.tobytes() == want.tobytes()


def _drawn_streams(space, seed, n=100):
    """n random streams as present flags and pays; every fifth also pays +inf on one
    atom of a random stage."""
    rng = np.random.default_rng(seed)
    streams = []
    for k in range(n):
        present, pays = draw_dividend(space, rng, nonnegative_interim=False)
        if k % 5 == 0:
            r = int(rng.integers(len(space.times)))
            present[r] = True
            pays[r, space.atom_index[r] == rng.integers(space.n_atoms(r))] = INF
        streams.append((present, pays))
    return streams


_SPACES = [binomial_tree(2), random_tree(np.random.default_rng(4), periods=3)]


@pytest.mark.parametrize("space", _SPACES, ids=["binomial2", "random16"])
def test_aggregate_of_a_final_payment_is_the_payment(space):
    # bundling a stream's aggregate from t at the final date keeps it, and a payoff
    # paid at the final date alone aggregates to itself from every stage
    streams = _drawn_streams(space, 68)
    pays = np.stack([p for _, p in streams])
    rng = np.random.default_rng(69)
    payoffs = np.stack([draw_leaf_values(space, rng, inf_prob=0.1) for _ in range(100)])
    assert np.isposinf(pays).any() and np.isposinf(payoffs).any()
    for t in space.times:
        agg = _aggregate(t, pays)
        bundled = np.stack([_paid_at_the_end(space, a) for a in agg])
        assert _aggregate(t, bundled).tobytes() == agg.tobytes()
        paid = np.stack([_paid_at_the_end(space, x) for x in payoffs])
        assert _aggregate(t, paid).tobytes() == payoffs.tobytes()


@pytest.mark.parametrize("space", _SPACES, ids=["binomial2", "random16"])
def test_terminal_only_round_trips_every_aggregate(space):
    # the same two identities through the stream objects
    rng = np.random.default_rng(69)
    payoffs = [XVar(space, draw_leaf_values(space, rng, inf_prob=0.1))
               for _ in range(100)]
    for present, pays in _drawn_streams(space, 68):
        dp = DividendProcess.of_arrays(space, present, pays)
        for t in space.times:
            agg = dp.aggregate_from(t)
            back = DividendProcess.terminal_only(agg).aggregate_from(t)
            assert back.values.tobytes() == agg.values.tobytes()
    for x in payoffs:
        dp = DividendProcess.terminal_only(x)
        for t in space.times:
            assert dp.aggregate_from(t).values.tobytes() == x.values.tobytes()


def _constructions(monkeypatch):
    """Count the constructions of every variable and stream class, streams made
    through ``DividendProcess.of_arrays`` included."""
    counts = {}

    def count(name):
        counts[name] = counts.get(name, 0) + 1

    for cls in (XVar, TVar, EventMask, DividendProcess):
        def counted(self, *args, init=cls.__init__, name=cls.__name__, **kwargs):
            count(name)
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)

    def of_arrays(*args, built=DividendProcess.of_arrays, **kwargs):
        count("DividendProcess")
        return built(*args, **kwargs)
    monkeypatch.setattr(DividendProcess, "of_arrays", staticmethod(of_arrays))
    return counts


def test_checkers_build_no_variables_per_trial(monkeypatch, tree2):
    # a passing measure has no witness, so the trials build no XVar, TVar,
    # EventMask or DividendProcess: the count does not grow with the trial count
    counts = _constructions(monkeypatch)
    m = GainLossRatio()
    for check in (lambda n: check_axioms(m, tree2, 1, trials=n, rng_seed=8),
                  lambda n: check_lift_axioms(m, tree2, trials=n, rng_seed=10)):
        built = []
        for n in (30, 60):
            counts.clear()
            assert check(n).passed
            built.append(dict(counts))
        assert built[0] == built[1]


def test_stream_scan_builds_no_variables_per_trial(monkeypatch, tree2):
    # the payoff-level check is held fixed, so what is counted is the stream pass:
    # its streams are arrays, each trial builds one XVar per stage (the aggregate
    # that the sign queries take), and no candidate of gain-loss reaches the core,
    # so no TVar, EventMask or DividendProcess is built
    d = DynamicMeasure(GainLossRatio())
    fixed = check_time_consistency(d, tree2, trials=4, rng_seed=3)
    monkeypatch.setattr(dividends, "check_time_consistency", lambda *a, **k: fixed)
    counts = _constructions(monkeypatch)
    for n in (30, 60):
        counts.clear()
        rep = check_lift_time_consistency(d, tree2, trials=n, rng_seed=3)
        assert rep.meta["verdicts"]["process"] == "consistent-on-sample"
        assert counts == {"XVar": n * len(tree2.times)}
