import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perflat import (INF, CertaintyEquivalentMeasure, ConditionalExpectation,
                     CustomMeasure, EventMask, ExpectedUtilityMeasure,
                     ExponentialUtilityMeasure, GainLossRatio,
                     RewardRiskRatio, TVar, UtilitySpec, XVar, binomial_tree,
                     check_axioms, check_scale_invariance, coin2, evaluate,
                     lpm_ratio, measure_from_json, paste, random_tree, raroc,
                     sample_xvar)
from perflat.lattice import atom_expect
from perflat.measures import (AVaRTruncDenominator, LPMDenominator, _interior_levels,
                              evaluate_rows)

AXIOM_TRIALS = 120


# ---------------------------------------------------------------------------
# hand values


def test_glr_hand_values(space2):
    glr = GainLossRatio()
    assert evaluate(glr, 0, XVar(space2, [3.0, -1.0])).values[0] == 2.0
    assert evaluate(glr, 0, XVar.constant(space2, 0.0)).values[0] == 0.0
    assert evaluate(glr, 0, XVar.constant(space2, 0.1)).values[0] == INF
    # all-loss claims sit at the lower bound
    assert evaluate(glr, 0, XVar.constant(space2, -1.0)).values[0] == 0.0


def test_glr_conditional_values(tree2):
    # net-over-loss per atom: E[X | A] / E[X^- | A]
    x = XVar(tree2, [2.0, -1.0, 4.0, -2.0])
    got = evaluate(GainLossRatio(), 1, x).values
    assert np.allclose(got, [1.0, 1.0])


def test_exp_utility_is_expected_utility(space2):
    m = ExponentialUtilityMeasure(risk_aversion=1.0)
    x = XVar(space2, [1.0, -1.0])
    want = 0.5 * (1 - math.exp(-1.0)) + 0.5 * (1 - math.exp(1.0))
    assert abs(evaluate(m, 0, x).values[0] - want) < 1e-12
    assert (m.z_d, m.z_u) == (-INF, 1.0)


def test_exp_expected_utility_has_the_exp_utility_zero_claim_threshold(tree2):
    # expected exp utility and exponential utility share the cash threshold of the
    # zero claim; other utilities have no closed form for it
    expected, exponential = (ExpectedUtilityMeasure(UtilitySpec("exp", lam=0.7)),
                             ExponentialUtilityMeasure(0.7))
    for t in tree2.times:
        for log_level in (-3.0, 0.0, 50.0):
            got = expected.risk_at_zero_log_level(tree2, t, log_level)
            assert got.shape == (tree2.n_atoms(t),)
            np.testing.assert_array_equal(
                got, exponential.risk_at_zero_log_level(tree2, t, log_level))
    power = ExpectedUtilityMeasure(UtilitySpec("power", eta=0.5))
    assert power.risk_at_zero_log_level(tree2, 1, 0.0) is None


def test_exp_utility_stagewise_risk_aversion(tree2):
    lam = {0: np.array([0.5]), 1: np.array([0.5, 2.0]),
           2: np.array([0.5, 0.5, 2.0, 2.0])}
    m = ExponentialUtilityMeasure(risk_aversion=lam)
    x = XVar(tree2, [1.0, -1.0, 1.0, -1.0])
    got = evaluate(m, 1, x).values
    want = [np.mean(1 - np.exp(-0.5 * np.array([1.0, -1.0]))),
            np.mean(1 - np.exp(-2.0 * np.array([1.0, -1.0])))]
    assert np.allclose(got, want)


def test_exp_utility_scalar_per_stage_broadcasts(tree2):
    m = ExponentialUtilityMeasure(risk_aversion={0: 0.5, 1: 1.0, 2: 2.0})
    ref = ExponentialUtilityMeasure(risk_aversion=1.0)
    x = XVar(tree2, [1.0, -1.0, 0.5, -0.5])
    assert np.array_equal(evaluate(m, 1, x).values, evaluate(ref, 1, x).values)


def test_certainty_equivalent_of_constant(space2):
    for c in (-3.0, 0.0, 2.5):
        m = CertaintyEquivalentMeasure(UtilitySpec("exp", lam=1.3))
        got = evaluate(m, 0, XVar.constant(space2, c)).values[0]
        assert abs(got - c) < 1e-9


@pytest.mark.parametrize("eta", [1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 1e-13, 1.0 + 1e-13,
                                 0.5, 2.0])
def test_power_utility_inverts_near_log(eta):
    # the shape guard accepts eta next to 1, and the inverse undoes U to 1e-12 relative
    u = UtilitySpec("power", eta=eta)
    x = np.linspace(-5.0, 40.0, 901)
    err = np.abs(u.inverse(u(x)) - x)
    assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(x)))


def test_conditional_expectation_measure(tree2):
    m = ConditionalExpectation()
    x = XVar(tree2, [1.0, 2.0, 3.0, 5.0])
    assert np.allclose(evaluate(m, 1, x).values, [1.5, 4.0])


def test_lpm_ratio_value(space2):
    m = lpm_ratio(2.0)
    x = XVar(space2, [3.0, -1.0])
    # reward E[X] = 1, risk (E[(X^-)^2])^(1/2) = sqrt(0.5)
    assert abs(evaluate(m, 0, x).values[0] - 1.0 / math.sqrt(0.5)) < 1e-12


def test_raroc_value(space2):
    m = raroc(0.5)
    x = XVar(space2, [3.0, -1.0])
    # AVaR_0.5 doubles the worst half: E^Q[-X] = 1 at the vertex q=(0,1)
    assert abs(evaluate(m, 0, x).values[0] - 1.0) < 1e-9


def _avar_walk(space, t, leaf_values, lv):
    """Reference AVaR: on each atom, spend the level on the largest losses first."""
    losses = -leaf_values
    out = np.empty(space.n_atoms(t))
    for k, atom in enumerate(space.atoms[t]):
        idx = np.fromiter(atom, dtype=np.intp)
        pbar = space.probs[idx] / space.atom_mass[t][k]
        order = np.argsort(-losses[idx])
        remaining = float(lv[k])
        acc = 0.0
        for li, wi in zip(losses[idx][order], pbar[order]):
            take = min(wi, remaining)
            if take > 0.0:
                acc += li * take
            remaining -= take
            if remaining <= 1e-15:
                break
        out[k] = acc / lv[k]
    return out


class _WalkAVaR(AVaRTruncDenominator):
    # the walk behind the kernel, so risk_values and raroc both go through it
    def risk_kernel(self, space, t, leaf_values):
        lv = self.level_at(space, t)
        return lambda y: _avar_walk(space, t, y, lv)


def _avar_levels(space, t, x, rng):
    """A scalar level, random per-atom levels as a TVar and as a dict, and levels
    that end exactly on a leaf's cumulative weight in its atom's loss order."""
    n = space.n_atoms(t)
    on_leaf = rng.uniform(0.02, 0.98, n)
    for k, atom in enumerate(space.atoms[t]):
        if len(atom) > 1:
            idx = np.array(atom)
            pbar = space.probs[idx] / space.atom_mass[t][k]
            w = pbar[np.argsort(x.values[idx])]  # largest loss first
            on_leaf[k] = sum(w[:int(rng.integers(1, len(atom)))].tolist())
    return [float(rng.uniform(0.02, 0.98)),
            TVar(space, t, rng.uniform(0.02, 0.98, n)),
            {t: rng.uniform(0.02, 0.98, n)},
            {t: on_leaf}]


def test_avar_matches_the_tail_walk():
    rng = np.random.default_rng(11)
    spaces = [random_tree(rng, periods=int(rng.integers(1, 4)), max_leaves=16)
              for _ in range(60)] + [binomial_tree(5, 0.3), binomial_tree(3)]
    for i, space in enumerate(spaces):
        x = sample_xvar(space, rng, inf_prob=0.25 if i % 2 else 0.0)
        scale = float(np.max(np.abs(x.values[np.isfinite(x.values)]), initial=1.0))
        for t in space.times:
            for level in _avar_levels(space, t, x, rng):
                got = AVaRTruncDenominator(level).risk_values(space, t, x.values)
                want = _WalkAVaR(level).risk_values(space, t, x.values)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
                for flag in (False, True):
                    m = raroc(level, infinite_when_risk_nonpositive=flag)
                    ref = RewardRiskRatio(UtilitySpec("linear"), _WalkAVaR(level),
                                          infinite_when_risk_nonpositive=flag)
                    np.testing.assert_allclose(evaluate(m, t, x).values,
                                               evaluate(ref, t, x).values,
                                               rtol=1e-12, atol=1e-12)


def test_avar_precision_does_not_depend_on_the_atom_count():
    # 16384 atoms of 4 leaves: prefix sums carried across atoms would reach 16384
    # and lose about 1e-11 here
    space = binomial_tree(16, 0.3)
    rng = np.random.default_rng(5)
    x = rng.uniform(-4.0, 4.0, space.n_leaves)
    level = rng.uniform(0.05, 0.95, space.n_atoms(14))
    got = AVaRTruncDenominator({14: level}).risk_values(space, 14, x)
    np.testing.assert_allclose(got, _avar_walk(space, 14, x, level), rtol=0, atol=4e-14)


def test_avar_hand_values(space2):
    x = XVar(space2, [INF, -1.0]).values
    # the level fits inside the finite loss: AVaR_0.5 = 1
    assert AVaRTruncDenominator(0.5).risk_values(space2, 0, x).tolist() == [1.0]
    # past it the level reaches the +inf gain: the loss mean is -inf
    assert AVaRTruncDenominator(0.7).risk_values(space2, 0, x).tolist() == [-INF]
    assert AVaRTruncDenominator(0.7).kernel(space2, 0, x)(x).tolist() == [0.0]
    # a level below the 1e-15 cutoff still takes the largest loss
    assert AVaRTruncDenominator(1e-16).risk_values(space2, 0, x).tolist() == [1.0]
    m = raroc(0.7, infinite_when_risk_nonpositive=True)
    assert evaluate(m, 0, XVar(space2, [INF, -1.0])).values.tolist() == [INF]


def test_infinite_when_risk_nonpositive_needs_a_signed_risk(space2):
    # the lpm root has no signed risk to test, so the flag could only be ignored
    with pytest.raises(ValueError, match="infinite_when_risk_nonpositive"):
        RewardRiskRatio(UtilitySpec("linear"), LPMDenominator(2.0),
                        infinite_when_risk_nonpositive=True)
    d = lpm_ratio(2.0).to_json(space2)
    d["params"]["infinite_when_risk_nonpositive"] = True
    with pytest.raises(ValueError, match="infinite_when_risk_nonpositive"):
        measure_from_json(d, space=space2)


# ---------------------------------------------------------------------------
# prepared shift evaluators


SHIPPED = [GainLossRatio(),
           ExponentialUtilityMeasure(risk_aversion=1.0),
           CertaintyEquivalentMeasure(UtilitySpec("exp", lam=1.0)),
           ExpectedUtilityMeasure(UtilitySpec("power", eta=0.5)),
           ConditionalExpectation(),
           lpm_ratio(2.0),
           raroc(0.5)]


def _shift_cases(seed):
    """Random trees with +inf legs at payoff scales 1e-8 to 1e8, with one stage, one
    per-atom shift and a (5, n_atoms) batch of them, all at the payoff's scale."""
    rng = np.random.default_rng(seed)
    for scale in (1e-8, 1e-4, 1.0, 1e4, 1e8):
        space = random_tree(rng, periods=int(rng.integers(1, 3)), max_leaves=16)
        x = sample_xvar(space, rng, inf_prob=0.2).values * scale
        t = int(rng.integers(0, len(space.times)))
        n = space.n_atoms(t)
        yield (space, t, x, rng.uniform(-4.0, 4.0, n) * scale,
               rng.uniform(-4.0, 4.0, (5, n)) * scale)


@pytest.mark.parametrize("m", SHIPPED + [
    ExponentialUtilityMeasure({0: 0.7, 1: 1.9, 2: 0.4}),
    raroc(0.3, infinite_when_risk_nonpositive=True)], ids=lambda m: m.label())
def test_prepare_matches_values_bit_for_bit(m):
    for seed in range(8):
        for space, t, x, c, rows in _shift_cases(seed):
            idx = space.atom_index[t]
            g = m.prepare(space, t, x)
            with np.errstate(over="ignore", invalid="ignore"):
                one, batch = g(c), g(rows)
            assert np.array_equal(one, m.values(space, t, x + c[idx]))
            assert np.array_equal(batch, m.values(space, t, x + rows[:, idx]))
            with np.errstate(over="ignore", invalid="ignore"):
                assert all(np.array_equal(g(r), b) for r, b in zip(rows, batch))


def _row_batches(seed):
    """Random trees with batches of leaf rows at payoff scales 1e-8 to 1e8: rows with
    +inf legs, and rows on a coarse grid, which tie leaves inside an atom."""
    rng = np.random.default_rng(seed)
    for scale in (1e-8, 1e-4, 1.0, 1e4, 1e8):
        space = random_tree(rng, periods=int(rng.integers(1, 3)), max_leaves=16)
        rows = np.array([sample_xvar(space, rng, inf_prob=0.2).values
                         for _ in range(6)])
        rows[4:] = rng.integers(-2, 3, (2, space.n_leaves))
        yield space, rows * scale


def _atom_means_squared(space, t, v):
    """One leaf row's per-atom means, squared: a formula that takes one row only."""
    assert v.shape == (space.n_leaves,)
    return np.square(atom_expect(space, t, v))


@pytest.mark.parametrize("m", SHIPPED + [
    ExponentialUtilityMeasure({0: 0.7, 1: 1.9, 2: 0.4}),
    raroc(0.3, infinite_when_risk_nonpositive=True),
    CustomMeasure(_atom_means_squared, z_d=0.0, z_u=INF, kind="one_row")],
    ids=lambda m: m.label())
def test_values_on_row_batches_match_one_row_calls(m):
    for seed in range(6):
        for space, rows in _row_batches(seed):
            for t in space.times:
                got = m.values(space, t, rows)
                assert got.shape == (len(rows), space.n_atoms(t))
                assert all(np.array_equal(g, m.values(space, t, r))
                           for g, r in zip(got, rows))


def test_custom_measures_call_fn_one_row_at_a_time(space2):
    seen = []

    def fn(space, t, leaf_values):
        seen.append(leaf_values.shape)
        return np.array([float(np.min(leaf_values))])

    m = CustomMeasure(fn, z_d=-INF, z_u=INF)
    g = m.prepare(space2, 0, np.array([1.0, 3.0]))
    assert g(np.array([[0.5], [-2.0]])).tolist() == [[1.5], [-1.0]]
    assert seen == [(2,), (2,)]  # one fn call per shift row
    seen.clear()
    rows = np.array([[1.0, 3.0], [-2.0, 0.5], [4.0, 4.0]])
    assert m.values(space2, 0, rows).tolist() == [[1.0], [-2.0], [4.0]]
    assert seen == [(2,), (2,), (2,)]  # one fn call per leaf row of the batch


def test_a_measure_that_defines_values_is_refused():
    # an inherited kernel would stand in for the new values in prepare, induce_risk
    # and reconstruct, so the class itself is refused
    with pytest.raises(TypeError, match="kernel"):
        class Doubled(ConditionalExpectation):
            def values(self, space, t, leaf_values):
                return 2.0 * super().values(space, t, leaf_values)


def test_atom_expect_rows_match_one_row_calls():
    rng = np.random.default_rng(4)
    for _ in range(20):
        space = random_tree(rng, periods=int(rng.integers(1, 4)), max_leaves=16)
        rows = rng.uniform(-4.0, 4.0, (7, space.n_leaves)) * 10.0 ** rng.integers(-8, 9)
        rows[rng.random(rows.shape) < 0.1] = INF
        for t in space.times:
            got = atom_expect(space, t, rows)
            assert got.shape == (7, space.n_atoms(t))
            assert all(np.array_equal(g, atom_expect(space, t, r))
                       for g, r in zip(got, rows))


def test_raroc_cached_order_is_a_fresh_sort_on_pinned_inputs():
    # the claim is sorted once per (stage, claim); a per-atom shift keeps the order
    space = binomial_tree(10, 0.3)
    x = np.random.default_rng(14).uniform(-4.0, 4.0, space.n_leaves)
    rng = np.random.default_rng(16)
    for t in (0, 4, 9):
        for level in (0.5, {t: rng.uniform(0.05, 0.95, space.n_atoms(t))}):
            den = AVaRTruncDenominator(level)
            risk = den.risk_kernel(space, t, x)
            for c in rng.uniform(-5.0, 5.0, (4, space.n_atoms(t))):
                y = x + c[space.atom_index[t]]
                assert np.array_equal(risk(y), den.risk_values(space, t, y))


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_raroc_cached_order_matches_a_fresh_sort(seed):
    # they differ only where a shift rounds two leaves into a tie, which large
    # shifts of tightly spaced leaves provoke; the sum then changes its term order
    rng = np.random.default_rng(seed)
    space = random_tree(rng, periods=2, max_leaves=16)
    x = rng.uniform(-4.0, 4.0, space.n_leaves)
    if seed % 2:
        x = 1.0 + rng.integers(0, 4, space.n_leaves) * 2.0 ** -52
    t = int(rng.integers(0, 2))
    den = AVaRTruncDenominator(float(rng.uniform(0.05, 0.95)))
    c = rng.uniform(-1.0, 1.0, space.n_atoms(t)) * 10.0 ** rng.integers(0, 9)
    y = x + c[space.atom_index[t]]
    got = den.risk_kernel(space, t, x)(y)
    np.testing.assert_allclose(got, den.risk_values(space, t, y), rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# axioms on shipped measures


@pytest.mark.parametrize("m", SHIPPED, ids=lambda m: m.label())
def test_axioms_hold_on_small_trees(m):
    for space, t in ((coin2(), 0), (binomial_tree(2), 1)):
        rep = check_axioms(m, space, t, trials=AXIOM_TRIALS, rng_seed=7)
        failed = [r.name for r in rep.results if r.passed is False]
        assert not failed, (m.label(), t, failed)


def test_scale_invariance_split(space2):
    ok = check_scale_invariance(GainLossRatio(), space2, 0, trials=AXIOM_TRIALS,
                                rng_seed=3)
    assert ok.passed
    bad = check_scale_invariance(ExponentialUtilityMeasure(risk_aversion=1.0),
                                 space2, 0, trials=AXIOM_TRIALS, rng_seed=3)
    failing = [r for r in bad.results if r.passed is False]
    assert failing and any(r.witness is not None for r in failing)


def test_flags_broken_monotonicity(space2):
    squared_mean = CustomMeasure(
        lambda space, t, v: np.square(
            np.bincount(space.atom_index[t], weights=space.probs * v,
                        minlength=space.n_atoms(t)) / space.atom_mass[t]),
        z_d=0.0, z_u=INF, kind="squared_mean")
    rep = check_axioms(squared_mean, space2, 0, trials=AXIOM_TRIALS, rng_seed=1)
    failed = {r.name for r in rep.results if r.passed is False}
    assert "monotonicity" in failed or "quasi_concavity" in failed


def test_acceptance_floor_names_the_first_capped_level(space2):
    # a constant 0: the floor search caps below at the level under 0 and cannot
    # reach the level above 0 at all (BracketError); the report names the lower
    # level rather than raising
    flat = CustomMeasure(lambda space, t, v: np.zeros(space.n_atoms(t)),
                         z_d=-INF, z_u=INF, kind="flat")
    res = check_axioms(flat, space2, 0, trials=4, rng_seed=1).result(
        "acceptance_lower_bound")
    assert (res.passed, res.witness["z"]) == (False, _interior_levels(-INF, INF)[0])


def test_evaluate_rows_rejects_what_evaluate_rejects(space2):
    # each row's atoms take the row's first leaf value; the first bad row decides
    first = CustomMeasure(lambda space, t, v: np.full(space.n_atoms(t), v[0]),
                          z_d=-INF, z_u=INF)
    fine, nan, low = (np.full(space2.n_leaves, v) for v in (1.0, np.nan, -INF))
    assert np.array_equal(evaluate_rows(first, space2, 1, np.stack((fine, fine))),
                          np.ones((2, space2.n_atoms(1))))
    for rows, error in (((fine, nan, low), ValueError),
                        ((fine, low, nan), OverflowError)):
        with pytest.raises(error):
            evaluate_rows(first, space2, 1, np.stack(rows))
        with pytest.raises(error):
            for row in rows:
                evaluate(first, 1, XVar(space2, row, validate=False))
    wide = CustomMeasure(lambda space, t, v: np.zeros(space.n_atoms(t) + 1),
                         z_d=-INF, z_u=INF)
    with pytest.raises(ValueError, match="shape"):
        evaluate_rows(wide, space2, 1, np.stack((fine,)))


# ---------------------------------------------------------------------------
# structural properties, directly


@given(seed=st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_glr_locality(seed):
    space = binomial_tree(2)
    rng = np.random.default_rng(seed)
    x1, x2 = sample_xvar(space, rng), sample_xvar(space, rng)
    b = EventMask.of_atoms(space, 1, [int(rng.integers(0, 2))])
    z = paste(x1, x2, b)
    glr = GainLossRatio()
    v_mix = evaluate(glr, 1, z).values
    v_one = evaluate(glr, 1, x1).values
    assert np.array_equal(v_mix[b.flags], v_one[b.flags])


def test_glr_continuity_from_below(space2):
    glr = GainLossRatio()
    x = XVar(space2, [1.0, 0.0])
    for n in (2, 10, 100, 1000):
        got = evaluate(glr, 0, x - 1.0 / n).values[0]
        assert abs(got - (n - 2.0)) < 1e-8
    assert evaluate(glr, 0, x).values[0] == INF


def test_strictness_fails_without_headroom(space2):
    # above the upper threshold a shift changes nothing; the axiom only bites
    # on the event where the value is still below z_u
    glr = GainLossRatio()
    x = XVar.constant(space2, 1.0)
    assert evaluate(glr, 0, x).values[0] == INF
    assert evaluate(glr, 0, x + 5.0).values[0] == INF


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("m", [
    GainLossRatio(),
    ExponentialUtilityMeasure(risk_aversion=0.7),
    CertaintyEquivalentMeasure(UtilitySpec("exp", lam=2.0)),
    ExpectedUtilityMeasure(UtilitySpec("linear")),
    lpm_ratio(3.0),
    raroc(0.25),
    ExponentialUtilityMeasure(risk_aversion={0: 0.7, 1: [0.4, 1.9]}),
    CertaintyEquivalentMeasure(UtilitySpec("power", eta=0.5)),
    CertaintyEquivalentMeasure(UtilitySpec("power", eta=2.0)),
    ExpectedUtilityMeasure(UtilitySpec("power", eta=0.5)),
    raroc(0.5, infinite_when_risk_nonpositive=True),
], ids=lambda m: m.label())
def test_measure_json_round_trip(m, space2):
    back = measure_from_json(m.to_json(space2), space=space2)
    assert back.kind == m.kind
    assert (back.z_d, back.z_u) == (m.z_d, m.z_u)
    x = XVar(space2, [2.0, -0.5])
    for t in space2.times:
        assert np.allclose(evaluate(back, t, x).values, evaluate(m, t, x).values)


@pytest.mark.parametrize("d", [
    {"kind": "cond_expectation", "params": {"q": {"u": 0.9, "d": 0.1}}},
    {"kind": "expected_utility",
     "params": {"utility": {"tag": "linear"}, "endowment": {"stage": 0}}},
    {"kind": "exp_utility", "params": {"lamda": 2.0}},
], ids=["q", "endowment", "typo"])
def test_measure_json_rejects_unknown_params(d, space2):
    with pytest.raises(ValueError, match="takes no parameters"):
        measure_from_json(d, space=space2)


@pytest.mark.parametrize("flag", ["false", 0.0001, 1], ids=repr)
def test_measure_json_flag_must_be_a_boolean(flag, space2):
    d = raroc(0.5).to_json(space2)
    d["params"]["infinite_when_risk_nonpositive"] = flag
    with pytest.raises(ValueError, match="must be a JSON boolean"):
        measure_from_json(d, space=space2)


def test_measure_json_missing_flag_is_false(space2):
    d = raroc(0.5, infinite_when_risk_nonpositive=True).to_json(space2)
    del d["params"]["infinite_when_risk_nonpositive"]
    assert not measure_from_json(d, space=space2).infinite_when_risk_nonpositive


def test_evaluate_rejects_bad_stage(space2):
    with pytest.raises(ValueError):
        evaluate(GainLossRatio(), 5, XVar.constant(space2, 0.0))
