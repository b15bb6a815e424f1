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
from perflat.measures import AVaRTruncDenominator

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
    def risk_values(self, space, t, leaf_values):
        return _avar_walk(space, t, leaf_values, self.level_at(space, t))


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
    assert AVaRTruncDenominator(0.7).values(space2, 0, x).tolist() == [0.0]
    # a level below the 1e-15 cutoff still takes the largest loss
    assert AVaRTruncDenominator(1e-16).risk_values(space2, 0, x).tolist() == [1.0]
    m = raroc(0.7, infinite_when_risk_nonpositive=True)
    assert evaluate(m, 0, XVar(space2, [INF, -1.0])).values.tolist() == [INF]


# ---------------------------------------------------------------------------
# axioms on shipped measures


@pytest.mark.parametrize("m", [
    GainLossRatio(),
    ExponentialUtilityMeasure(risk_aversion=1.0),
    CertaintyEquivalentMeasure(UtilitySpec("exp", lam=1.0)),
    ExpectedUtilityMeasure(UtilitySpec("power", eta=0.5)),
    ConditionalExpectation(),
    lpm_ratio(2.0),
    raroc(0.5),
], ids=lambda m: m.label())
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
], ids=lambda m: m.label())
def test_measure_json_round_trip(m, space2):
    back = measure_from_json(m.to_json(), space=space2)
    assert back.kind == m.kind
    assert (back.z_d, back.z_u) == (m.z_d, m.z_u)
    x = XVar(space2, [2.0, -0.5])
    assert np.allclose(evaluate(back, 0, x).values, evaluate(m, 0, x).values)


def test_evaluate_rejects_bad_stage(space2):
    with pytest.raises(ValueError):
        evaluate(GainLossRatio(), 5, XVar.constant(space2, 0.0))
