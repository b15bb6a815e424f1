import copy
import dataclasses
import itertools
import math
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from perflat import (INF, CertaintyEquivalentMeasure, ConditionalExpectation,
                     CustomMeasure, DualMeasure, ExpectedUtilityMeasure,
                     ExponentialUtilityMeasure, GainLossRatio, StandardFamily, TVar,
                     UtilitySpec, XVar, binomial_tree, closure_check, coin2,
                     entropic_closed_form, entropic_family, evaluate, glr_dual_risk,
                     induce_risk,
                     induced_family, lpm_ratio, penalty_lower_bound,
                     random_tree, raroc, reconstruct, risk_curve,
                     sample_glr_density, sample_xvar, truncation_limit_check,
                     validate_standard_family, weak_duality_probe)
from perflat import measures, risk_family, solvers
from perflat.lattice import FilteredSpace, atom_expect, cond_expect, ext_gap, loss_order
from perflat.report import LEAF_VALUES_PER_CALL
from perflat.risk_family import (TOL_C, _canonical_bracket, _CapitalChain,
                                 _evaluate_next_blocks, _induce_raw)
from perflat.solvers import vector_monotone_inf
from perflat.util import derived_rng


# ---------------------------------------------------------------------------
# induced risk, hand values


def test_induce_zero_payoff_is_exact_zero(space2):
    glr = GainLossRatio()
    zero = XVar.constant(space2, 0.0)
    for z in (1.0, 2.0):
        rp = induce_risk(glr, 0, z, zero)
        assert rp.values.values[0] == 0.0  # bit-exact, not just close


def test_induce_glr_hand_value(space2):
    rp = induce_risk(GainLossRatio(), 0, 2.0, XVar(space2, [3.0, -1.0]))
    assert abs(rp.values.values[0]) <= 1e-10
    assert rp.near_zero[0]


def test_induce_rejects_level_outside_interval(space2):
    x = XVar(space2, [1.0, -1.0])
    with pytest.raises(ValueError):
        induce_risk(GainLossRatio(), 0, 0.0, x)  # z_d itself is excluded
    with pytest.raises(ValueError):
        induce_risk(ExponentialUtilityMeasure(risk_aversion=1.0), 0, 1.0, x)
    with pytest.raises(ValueError, match="strictly inside"):
        induce_risk(GainLossRatio(), 0, math.nan, x)  # NaN is inside no interval


def test_induce_reports_minus_inf_when_already_acceptable(space2):
    # beta stays above z no matter how negative the shift: rho = -inf
    m = ExponentialUtilityMeasure(risk_aversion=1.0)
    x = XVar.constant(space2, INF)
    rp = induce_risk(m, 0, 0.5, x)
    assert np.all(np.isneginf(rp.values.values))


# ---------------------------------------------------------------------------
# bisection termination


# The float spacing at rho exceeds tol: 7e-12 at rho = -33333.3 against tol = 1e-12,
# and 1.2e-10 at rho = 1e6 against the default tol = 1e-10.
@pytest.mark.parametrize("payoff, tol", [([3e5, -1e5], 1e-12), ([3e6, -3e6], TOL_C)])
def test_induce_terminates_where_float_spacing_exceeds_tol(space2, payoff, tol):
    glr = GainLossRatio()
    x = XVar(space2, payoff)
    start = time.perf_counter()
    rho = induce_risk(glr, 0, 1.0, x, tol=tol).values.values[0]
    assert time.perf_counter() - start < 1.0
    want = glr_dual_risk(0, 1.0, x).values.values[0]
    assert abs(rho - want) <= 2.0 * np.spacing(abs(want))
    assert evaluate(glr, 0, x + rho).values[0] < 1.0  # lower endpoint, g < target


def test_canonical_bracket_pads_by_one_below_two_to_the_53():
    rng = np.random.default_rng(7)
    space = binomial_tree(2)
    for scale in (1.0, 1e3, 1e9, 2.0 ** 40, 2.0 ** 52):
        for _ in range(50):
            x = XVar(space, rng.uniform(-scale, scale, size=space.n_leaves))
            fmin, fmax = x.finite_min(), x.finite_max()
            assert _canonical_bracket(x) == (-fmax - 1.0, -fmin + 1.0)


@pytest.mark.parametrize("v", [1e16, 1e17, -1e17])
def test_equal_large_leaves_keep_a_two_point_bracket(space2, v):
    # at |f| >= 2^53 a pad of 1.0 rounds away; the ulp pad keeps two points, so the
    # search answers, and agrees with the closed form and the capital chain's sign
    x = XVar(space2, [v, v])
    lo, hi = _canonical_bracket(x)
    assert lo < hi
    m = GainLossRatio()
    for z in (0.5, 1.0, 2.0):
        got = induce_risk(m, 0, z, x).values.values
        assert np.array_equal(got, glr_dual_risk(0, z, x).values.values)
        assert np.array_equal(got, [-v])
        fam = induced_family(m)
        for s in (-2.0 * v, -v, 0.0, 2.0 * v):
            assert np.array_equal(fam.raw(z, 0, x, stop_at=s) < s, got < s)


@pytest.mark.parametrize("v, z", [(1e19, -1e6), (-1e19, 1e6)])
def test_claims_past_two_to_60_expand_on_ladders_of_their_scale(space2, v, z):
    # the answer z - v lies outside the canonical bracket and beyond 2^60: the ladders
    # run to max(2^60, 2|end|), so the search reaches it, and the chain's sign agrees
    m = ConditionalExpectation()
    x = XVar(space2, [v, v])
    got = induce_risk(m, 0, z, x).values.values
    assert abs(got[0] - (z - v)) <= 2.0 * math.ulp(v)
    fam = induced_family(m)
    for s in (-2.0 * abs(v), z - v, np.nextafter(got[0], INF), 0.0, 2.0 * abs(v)):
        assert np.array_equal(fam.raw(z, 0, x, stop_at=s) < s, got < s)


@pytest.mark.parametrize("leaves, z, want", [([0.0, 0.0], 1e30, 1e30),
                                             ([5e307, -1000.0], 3e307, 5e306),
                                             ([-1e307, -1e307], 1.6e308, 1.7e308),
                                             ([-1e308, 0.0], 4e307, 9e307),
                                             ([0.0, 0.0], 1e308, 1e308)])
def test_levels_past_the_cap_climb_the_ladder_to_the_largest_float(space2, leaves, z,
                                                                   want):
    # the capital z - E[X] lies past the old cap max(2^60, 2|hi0|): the upward ladder
    # goes on to the largest float, so the search reaches it, and the chain's signs
    # are the search's.  Where the expanded hi passes 2^1021 a midpoint lo + hi would
    # overflow once halving has moved lo up, even from lo0 = -1 in the last two
    # cases: the search and the chain halve each end first.  The answer is want up
    # to the spacing of want and of the leaves, where X + c stops moving in floats
    m = ConditionalExpectation()
    x = XVar(space2, leaves)
    got = induce_risk(m, 0, z, x).values.values
    assert abs(got[0] - want) <= 2.0 * math.ulp(max(want, *map(abs, leaves))), got
    fam = induced_family(m)
    thresholds = (-1e300, 0.0, 1e20, want, got[0], np.nextafter(got[0], INF), 1e300,
                  sys.float_info.max)
    for s in thresholds:
        assert np.array_equal(fam.raw(z, 0, x, stop_at=s) < s, got < s), s
    _on_the_chain(m, 0, x, np.array([z]), thresholds)


@pytest.mark.parametrize("leaves, z", [([1.7e308, 1.7e308], 8.5e307),
                                       ([-1.7e308, -1.7e308], -8.5e307),
                                       ([-1.7e308, 1.7e308], 0.0),
                                       ([-1e308, 1e308], 0.5),
                                       ([-1.7e308, -1.7e308], -1.6e308)])
def test_claims_at_the_edge_of_the_float_range_halve_without_overflow(space2, leaves, z):
    # a canonical end lies beyond 2^1021, where lo + hi and hi - lo overflow: the
    # search and the chain halve each end first (the last claim also expands its
    # bracket).  The answer is z - E[X] up to the leaves' own spacing, where X + c
    # stops moving in floats, and the chain's sign is the search's
    m = ConditionalExpectation()
    x = XVar(space2, leaves)
    got = induce_risk(m, 0, z, x).values.values
    want = z - 0.5 * leaves[0] - 0.5 * leaves[1]
    assert abs(got[0] - want) <= math.ulp(max(map(abs, leaves))), got
    fam = induced_family(m)
    for s in (-8.5e307, -1e300, 0.0, z, got[0], np.nextafter(got[0], INF), 1e300,
              8.5e307):
        assert np.array_equal(fam.raw(z, 0, x, stop_at=s) < s, got < s), s


@pytest.mark.parametrize("stop_at", [None, 0.0])
def test_claim_rows_at_the_edge_of_the_float_range_give_each_claims_own_search(
        space2, stop_at):
    # the claims of the two tests above, and two small ones, at all of their levels
    # in one call: brackets that climb past the cap and turn wide, canonical ends
    # beyond 2^1021 and a fall to -inf, each claim's block its one-claim call bit
    # for bit
    m = ConditionalExpectation()
    xs = [XVar(space2, leaves) for leaves in (
        [0.0, 0.0], [5e307, -1000.0], [-1e307, -1e307], [-1e308, 0.0],
        [1.7e308, 1.7e308], [-1.7e308, 1.7e308], [1.0, -1.0])]
    z = np.array([[-1e25], [0.0], [1e30], [3e307], [4e307], [1e308]])
    got = _induce_raw(m, 0, z, xs, stop_at=stop_at)
    assert got.shape == (len(xs), len(z), 1)
    for x, block in zip(xs, got):
        assert np.array_equal(block, _induce_raw(m, 0, z, x, stop_at=stop_at)), x.values
    lo0, hi0 = map(np.array, zip(*map(_canonical_bracket, xs)))
    assert np.any(got[:, :, 0] > hi0[:, None]) and np.isneginf(got).any()
    assert np.any(solvers.is_wide(lo0[:, None], np.maximum(got[:, :, 0], hi0[:, None])))


_CRITERION8 = [GainLossRatio(), ExponentialUtilityMeasure(risk_aversion=1.0),
               CertaintyEquivalentMeasure(UtilitySpec("exp", lam=1.0)),
               ExpectedUtilityMeasure(UtilitySpec("power", eta=0.5)),
               ConditionalExpectation(), lpm_ratio(2.0), raroc(0.5)]


@pytest.mark.parametrize("make", [lambda m=m: induced_family(m) for m in _CRITERION8]
                         + [lambda: entropic_family(0.8)],
                         ids=[m.label() for m in _CRITERION8] + ["entropic"])
def test_raw_on_claim_rows_stacks_the_one_claim_calls(make, tree2):
    # the family contract: raw on a sequence of claims answers (n_claims, ...), each
    # block its one-claim call bit for bit, at one level and at (B, n_atoms) rows
    fam = make()
    rng = np.random.default_rng(31)
    xs = [XVar(tree2, rng.uniform(-4.0, 4.0, tree2.n_leaves)) for _ in range(5)]
    xs.append(XVar(tree2, np.where(np.arange(tree2.n_leaves) == 1, INF, xs[0].values)))
    z_lo, z_hi = fam.interval
    levels = [z for z in (-3.0, 0.3, 0.5, 0.9, 2.0) if z_lo < z < z_hi]
    for t in (0, 1):
        rows = np.array(levels)[:, None] + np.linspace(0.0, 0.05, tree2.n_atoms(t))
        for z in (levels[1], rows):
            got = np.asarray(fam.raw(z, t, xs))
            assert got.shape == (len(xs), *np.shape(fam.raw(z, t, xs[0])))
            for x, block in zip(xs, got):
                assert np.asarray(fam.raw(z, t, x)).tobytes() == block.tobytes()


@pytest.mark.parametrize("m", [GainLossRatio(), ExponentialUtilityMeasure(1.0)],
                         ids=lambda m: m.label())
def test_every_level_caller_refuses_a_level_outside_the_interval(m, space2):
    # induce_risk, risk_curve, closure_check and truncation_limit_check check the
    # level alike: NaN, both infinities and an endpoint lie strictly inside nothing
    x = XVar(space2, [3.0, -1.0])
    for z in (math.nan, INF, -INF, m.z_d if math.isfinite(m.z_d) else m.z_u):
        for ask in (lambda: induce_risk(m, 0, z, x),
                    lambda: risk_curve(m, 0, x, [z]),
                    lambda: closure_check(m, 0, z, trials=3, space=space2),
                    lambda: truncation_limit_check(m, 0, z, x)):
            with pytest.raises(ValueError, match="level must lie strictly inside"):
                ask()
    z = 0.5  # inside both intervals
    assert closure_check(m, 0, z, trials=3, space=space2).passed
    assert truncation_limit_check(m, 0, z, x).passed


def test_a_tolerance_that_is_not_at_least_zero_is_refused():
    # a NaN tolerance stops every bisection at once and answers a bracket end
    m, x = GainLossRatio(), XVar(binomial_tree(2), [3.0, -1.0, 2.0, -2.0])
    for tol in (np.nan, -1.0):
        for ask in (lambda: induce_risk(m, 0, 1.0, x, tol=tol),
                    lambda: induced_family(m, tol=tol),
                    lambda: reconstruct(induced_family(m), 0, x, tol_z=tol),
                    lambda: reconstruct(induced_family(m), 0, x, tol_c=tol)):
            with pytest.raises(ValueError, match="must be >= 0"):
                ask()


def test_bisection_reaches_the_smallest_spacing_under_the_cap():
    # about 1075 halvings from [-1, 1] down to a width of one subnormal step, and
    # about 2070 from a bracket 1e300 wide, as the ladders of a claim that size give
    for lo0 in (-1.0, -1e300):
        res = vector_monotone_inf(lambda c: c, lo0, 1.0, np.array([0.0]), tol=5e-324)
        assert res[0] == -5e-324


def test_bisection_cap_raises(monkeypatch, space2):
    monkeypatch.setattr(solvers, "BISECT_CAP", 8)
    with pytest.raises(RuntimeError, match="halvings"):
        vector_monotone_inf(lambda c: c, -1.0, 1.0, np.array([0.3]), tol=1e-12)
    # induce_risk passes the cap's message on, not the misdeclared-threshold one
    with pytest.raises(RuntimeError, match="halvings"):
        induce_risk(GainLossRatio(), 0, 1.0, XVar(space2, [3.0, -1.0]))


def test_induce_names_an_unreachable_level(space2):
    # declares z_u = inf but never rises above 0
    flat = CustomMeasure(lambda space, t, x: np.zeros(space.n_atoms(t)), -INF, INF,
                         kind="flat")
    with pytest.raises(RuntimeError, match="misdeclared"):
        induce_risk(flat, 0, 1.0, XVar(space2, [3.0, -1.0]))


def test_induce_names_a_level_whose_capital_is_past_the_float_range():
    # sqrt utility declares z_u = inf rightly, but level 1e160 needs capital of about
    # 1e320 (1e154 needs 2.5e307): the error names the float range, not only the measure
    m = ExpectedUtilityMeasure(UtilitySpec("power", eta=0.5))
    x = XVar(coin2(), [1.0, 2.0])
    assert induce_risk(m, 0, 1e154, x).values.values[0] > 1e307
    for ask in (lambda: induce_risk(m, 0, 1e160, x),
                lambda: induced_family(m).raw(1e160, 0, x, stop_at=0.0)):
        with pytest.raises(RuntimeError, match="needs capital past the float range"):
            ask()


# ---------------------------------------------------------------------------
# entropic closed form


def test_entropic_zero_payoff_values(space2):
    zero = XVar.constant(space2, 0.0)
    for z, want in ((0.0, 0.0), (0.5, math.log(2.0)),
                    (1.0 - math.exp(-1.0), 1.0)):
        got = entropic_closed_form(1.0, 0, z, zero).values.values[0]
        assert abs(got - want) < 1e-12


def test_entropic_lncosh(space2):
    got = entropic_closed_form(1.0, 0, 0.0, XVar(space2, [1.0, -1.0]))
    assert abs(got.values.values[0] - math.log(math.cosh(1.0))) < 1e-12


# The bound of test_dual_matches_bisection, on the same payoff scales: a third of the
# draws put +inf on one leaf, which leaves -inf on an atom of that leaf alone.
@given(seed=st.integers(0, 10_000), log_scale=st.floats(-8.0, 17.0))
@settings(max_examples=80, deadline=None)
def test_entropic_matches_bisection(seed, log_scale):
    space = binomial_tree(2)
    rng = np.random.default_rng(seed)
    lam = float(rng.uniform(0.3, 3.0))
    t = int(rng.integers(0, 3))
    z = float(rng.uniform(-2.0, 0.9))
    values = 10.0 ** log_scale * rng.uniform(-4, 4, space.n_leaves)
    if seed % 3 == 0:
        values[rng.integers(space.n_leaves)] = INF
    x = XVar(space, values)
    m = ExponentialUtilityMeasure(risk_aversion=lam)
    via_formula = entropic_closed_form(lam, t, z, x).values.values
    via_bisect = induce_risk(m, t, z, x).values.values
    tol = TOL_C + 1e-14 * float(np.max(np.abs(values[np.isfinite(values)])))
    assert np.all(ext_gap(via_formula, via_bisect) <= tol)


def test_entropic_rejects_level_at_one(space2):
    with pytest.raises(ValueError):
        entropic_closed_form(1.0, 0, 1.0, XVar.constant(space2, 0.0))


# ---------------------------------------------------------------------------
# family structure


@given(seed=st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_translation_invariance(seed):
    space = binomial_tree(2)
    rng = np.random.default_rng(seed)
    x = XVar(space, rng.uniform(-3, 3, space.n_leaves))
    t = int(rng.integers(0, 3))
    xi = TVar(space, t, rng.uniform(-2, 2, space.n_atoms(t)))
    z = float(rng.uniform(0.3, 3.0))
    glr = GainLossRatio()
    shifted = induce_risk(glr, t, z, x + xi.promote()).values.values
    base = induce_risk(glr, t, z, x).values.values
    assert np.allclose(shifted, base - xi.values, atol=2e-10)


def test_risk_curve_monotone(space2):
    x = XVar(space2, [3.0, -1.0])
    grid = np.linspace(0.25, 6.0, 24)
    curve = risk_curve(GainLossRatio(), 0, x, grid)
    mat = curve.matrix()
    assert np.all(np.diff(mat, axis=0) >= -1e-9)
    assert curve.to_csv().splitlines()[0] == "atom_id,z,rho"


def _du_jumps(tree2, values, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = risk_curve(GainLossRatio(), 1, XVar(tree2, values), grid)
    return curve, [j for j in curve.suspect_jumps if j["atom"] == "du"]


def test_risk_curve_jumps_ignore_an_atom_at_minus_inf(tree2):
    # a +inf leg keeps atom uu at -inf on every level: its gaps are 0, not NaN, and
    # atom du, whose risks match the finite claim's, gets the same verdict; a grid
    # with one wide step after a run of narrow ones flags du there in both claims
    for grid in (np.linspace(0.5, 40.0, 12), np.r_[np.linspace(0.5, 0.6, 11), 40.0]):
        finite, jumps_finite = _du_jumps(tree2, [1.0, 2.0, 5.0, -1e-6], grid)
        inf_leg, jumps_inf = _du_jumps(tree2, [INF, 2.0, 5.0, -1e-6], grid)
        assert np.array_equal(inf_leg.matrix()[:, 1], finite.matrix()[:, 1])
        assert jumps_inf == jumps_finite
    assert [(j["z_lo"], j["z_hi"]) for j in jumps_inf] == [(0.6, 40.0)]


def test_risk_curve_jump_threshold_is_per_atom(tree2):
    # du's gaps fall smoothly from 1.18 to 0.011 on this grid, so it has no jump of
    # its own; a threshold scaled by the median over all atoms flagged (0.5, 4.09)
    # for the finite claim and also (4.09, 7.68) once atom uu sat at -inf (gap 0)
    grid = np.linspace(0.5, 40.0, 12)
    for values in ([1.0, 2.0, 5.0, -1e-6], [INF, 2.0, 5.0, -1e-6]):
        assert _du_jumps(tree2, values, grid)[1] == []


def test_risk_curve_rejects_bad_grids(space2):
    x = XVar(space2, [3.0, -1.0])
    with pytest.raises(ValueError):
        risk_curve(GainLossRatio(), 0, x, [2.0, 1.0])
    with pytest.raises(ValueError):
        risk_curve(GainLossRatio(), 0, x, [-1.0, 1.0])  # leaves the interval
    with pytest.raises(ValueError, match="strictly inside"):
        risk_curve(GainLossRatio(), 0, x, [0.5, math.nan])


@pytest.mark.parametrize("m", [ConditionalExpectation(),
                               ExpectedUtilityMeasure(UtilitySpec("linear")),
                               ExpectedUtilityMeasure(UtilitySpec("power", eta=0.5))],
                         ids=lambda m: m.label())
def test_lower_divergence_without_closed_form(m, space2):
    # no closed form for rho^z(0): the level ladder confirms the divergence at its
    # first rung, which sits clear of the -1e6 threshold
    curve = risk_curve(m, 0, XVar(space2, [1.0, -1.0]), [-1.0, 0.0, 0.5])
    assert curve.limit_note == "esssup rho(0) = -1e+08 at z = -1e8"
    rep = validate_standard_family(induced_family(m), space2, 0, trials=20)
    assert rep.result("lower_divergence").passed


def test_entropic_divergence_beyond_float_range():
    fam = entropic_family(1.0)
    space = coin2()
    # at z = -e^L the cash threshold of the zero claim is -log(1 + e^L)
    vals = fam.zero_log_level(space, 0, 3e6)
    assert np.all(vals < -1e6)


def test_entropic_family_label_carries_lambda(space2):
    titles = [validate_standard_family(entropic_family(lam), space2, 0, trials=2).title
              for lam in (0.8, 2.0)]
    assert titles == ["standard_family[entropic[lam=0.8]] t=0",
                      "standard_family[entropic[lam=2]] t=0"]


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_recovers_glr(space2):
    glr = GainLossRatio()
    fam = induced_family(glr)
    x = XVar(space2, [3.0, -1.0])
    back = reconstruct(fam, 0, x)
    assert abs(back.values[0] - 2.0) <= 1e-6


def test_reconstruct_lower_bound_branch(space2):
    # an all-loss claim never reaches any positive level without cash: beta = z_d
    glr = GainLossRatio()
    back = reconstruct(induced_family(glr), 0, XVar.constant(space2, -1.0))
    assert back.values[0] == 0.0


def test_reconstruct_constant_exp_utility(space2):
    m = ExponentialUtilityMeasure(risk_aversion=1.0)
    for c in (-1.0, 0.0, 2.0):
        back = reconstruct(induced_family(m), 0, XVar.constant(space2, c))
        assert abs(back.values[0] - (1.0 - math.exp(-c))) <= 1e-6


def test_reconstruct_upper_branch(space2):
    # value at the top of the interval: rho^z(X) <= 0 for every level
    glr = GainLossRatio()
    back = reconstruct(induced_family(glr), 0, XVar.constant(space2, 0.1))
    assert back.values[0] == INF


@pytest.mark.parametrize("m", [
    GainLossRatio(), ExponentialUtilityMeasure(risk_aversion=1.0),
    CertaintyEquivalentMeasure(UtilitySpec("exp", lam=1.0)),
    ExpectedUtilityMeasure(UtilitySpec("power", eta=0.5)), ConditionalExpectation(),
    lpm_ratio(2.0), raroc(0.5)], ids=lambda m: m.label())
def test_induce_on_level_rows_matches_one_row_calls(m):
    # each (row, atom) of a level array is its own component of the search
    rng = np.random.default_rng(21)
    lo = 0.05 if m.z_d == 0.0 else -3.0
    hi = 0.9 if m.z_u == 1.0 else 5.0
    fam = induced_family(m)
    for scale in (1e-8, 1.0, 1e8):
        space = random_tree(rng, periods=2, max_leaves=16)
        x = XVar(space, sample_xvar(space, rng, inf_prob=0.15).values * scale)
        for t in (0, 1):
            levels = rng.uniform(lo, hi, (6, space.n_atoms(t)))
            got = fam.raw(levels, t, x)
            assert got.shape == levels.shape
            assert all(np.array_equal(g, fam.raw(z, t, x)) for g, z in zip(got, levels))
    ent = entropic_family(0.8)
    levels = rng.uniform(-3.0, 0.9, (6, space.n_atoms(1)))
    assert all(np.array_equal(g, ent.raw(z, 1, x))
               for g, z in zip(ent.raw(levels, 1, x), levels))


# the shipped measures; ``lam`` is a per-atom risk aversion for the tree at hand
_SIGN_QUERY_MEASURES = {
    "gain-loss": lambda lam: GainLossRatio(),
    "exp-utility": lambda lam: ExponentialUtilityMeasure(risk_aversion=1.0),
    "exp-utility-per-atom": lambda lam: ExponentialUtilityMeasure(risk_aversion=lam),
    "certainty-equivalent":
        lambda lam: CertaintyEquivalentMeasure(UtilitySpec("exp", lam=1.0)),
    "power-utility": lambda lam: ExpectedUtilityMeasure(UtilitySpec("power", eta=0.5)),
    "cond-expectation": lambda lam: ConditionalExpectation(),
    "lpm": lambda lam: lpm_ratio(2.0),
    "raroc": lambda lam: raroc(0.5),
}


@pytest.mark.parametrize("name", list(_SIGN_QUERY_MEASURES))
def test_sign_query_matches_the_full_search(name):
    # stopping once the c-bracket excludes the threshold answers "rho < c" exactly as
    # the search run to its close, at every payoff scale, +inf legs and -inf answers
    # included, for thresholds at the probe's -tol_c, at 0, at random and at one of
    # the full search's own values and its float neighbour
    rng = np.random.default_rng(29)
    capped_seen = False
    for scale in (1e-8, 1e-4, 1.0, 1e4, 1e8, 1e12, 1e16, 1e17):
        for _ in range(2):
            space = random_tree(rng, periods=2, max_leaves=16)
            lam = {t: rng.uniform(0.5, 2.0, space.n_atoms(t)) for t in space.times}
            m = _SIGN_QUERY_MEASURES[name](lam)
            fam = induced_family(m)
            lo = 0.05 if m.z_d == 0.0 else -3.0
            hi = 0.9 if m.z_u == 1.0 else 5.0
            x = XVar(space, sample_xvar(space, rng, inf_prob=0.15).values * scale)
            for t in space.times:
                levels = rng.uniform(lo, hi, (4, space.n_atoms(t)))
                full = _induce_raw(m, t, levels, x)
                capped = np.isneginf(full)
                capped_seen |= bool(capped.any())
                picked = float(rng.choice(np.where(capped, 0.0, full).ravel()))
                for c in (-TOL_C, 0.0, rng.normal(0.0, scale), picked,
                          np.nextafter(picked, INF)):
                    below = _induce_raw(m, t, levels, x, stop_at=c) < c
                    assert np.array_equal(below, full < c)
                    assert np.array_equal(fam.raw(levels, t, x, stop_at=c) < c, below)
    assert capped_seen


def _wobbly(lam):
    """A measure that is not monotone in the shift: c -> E_t[X + c] + 2 sin(3 E_t[X + c])
    falls on part of every period, so a search's decisions are its own, not a
    monotone shortcut's."""
    def fn(space, t, y):
        e = atom_expect(space, t, y)  # +inf on an atom with a +inf leg
        return e + 2.0 * np.sin(3.0 * np.where(np.isfinite(e), e, 0.0))

    return CustomMeasure(fn, -INF, INF, kind="wobbly")


_CHAIN_MEASURES = dict(_SIGN_QUERY_MEASURES, wobbly=_wobbly)


def _chain_g(m, t, x, s, tol):
    """g along the whole capital chain of (t, x, s): canonical ends, then the nodes."""
    chain = _CapitalChain(m, t, x, s, tol).halvings[0, 0]
    while len(chain.g_at) < len(chain.points):
        _evaluate_next_blocks([chain])
    return chain.g_at


def _chain_levels(m, t, x, s, tol, rng):
    """Level rows: random ones, levels equal to g at chain nodes, and levels that force
    the canonical bracket to expand upward (above g(hi0)) and downward (g(lo0) and
    below), each kept where it lies strictly inside the interval."""
    g_at = _chain_g(m, t, x, s, tol)
    n = x.space.n_atoms(t)
    lo = 0.05 if m.z_d == 0.0 else -3.0
    hi = 0.9 if m.z_u == 1.0 else 5.0
    at_nodes = [g_at[rng.integers(len(g_at), size=n), np.arange(n)] for _ in range(2)]
    rows = np.array([rng.uniform(lo, hi, n), *at_nodes,
                     g_at[0], np.nextafter(g_at[0], INF),
                     g_at[1], np.nextafter(g_at[1], -INF)])
    inside = np.isfinite(rows) & (rows > m.z_d) & (rows < m.z_u)
    return np.where(inside, rows, rng.uniform(lo, hi, rows.shape))


def _chain_claims(rng):
    """(space, claim) pairs on a random tree of 1-3 periods and <= 16 leaves and on a
    binomial tree of 2-6 steps, at a random payoff scale in 1e-8..1e17, +inf legs
    included."""
    for space in (random_tree(rng, periods=int(rng.integers(1, 4)), max_leaves=16),
                  binomial_tree(int(rng.integers(2, 7)))):
        scale = 10.0 ** float(rng.choice([-8, -4, 0, 4, 8, 12, 16, 17]))
        yield space, XVar(space, sample_xvar(space, rng, inf_prob=0.15).values * scale)


@pytest.mark.parametrize("name", list(_CHAIN_MEASURES))
def test_capital_chain_gives_the_stopped_search(name):
    # a scalar sign query is answered from one chain of capital brackets per (stage,
    # claim, threshold): the answer must be the stopped search's bit for bit, whose
    # sign is the full search's, from a fresh family, a warmed one, and one that last
    # answered another claim, stage or threshold
    rng = np.random.default_rng(sum(map(ord, name)))
    for tol in (0.0, 1e-12, 1e-3, 5.0):
        for space, x in _chain_claims(rng):
            lam = {t: rng.uniform(0.5, 2.0, space.n_atoms(t)) for t in space.times}
            m = _CHAIN_MEASURES[name](lam)
            stages = sorted(rng.choice(space.times, size=min(2, len(space.times)),
                                       replace=False).tolist())
            levels = {t: _chain_levels(m, t, x, -TOL_C, tol, rng) for t in stages}
            full = {t: _induce_raw(m, t, levels[t], x, tol=tol) for t in stages}
            finite = full[stages[0]][np.isfinite(full[stages[0]])]
            picked = float(rng.choice(finite)) if finite.size else 1.0
            thresholds = [0.0, -TOL_C, float(rng.normal(0.0, np.max(np.abs(finite),
                                                                     initial=1.0))),
                          picked, float(np.nextafter(picked, INF)),
                          float(np.nextafter(picked, -INF))]
            want = {}
            for t, s in itertools.product(stages, thresholds):
                want[t, s] = _induce_raw(m, t, levels[t], x, tol=tol, stop_at=s)
                assert np.array_equal(want[t, s] < s, full[t] < s)
                fresh = induced_family(m, tol=tol).raw(levels[t], t, x, stop_at=s)
                assert np.array_equal(fresh, want[t, s]), (tol, t, s)
            other = XVar(space, np.flip(x.values))
            shared = induced_family(m, tol=tol)
            # the threshold changes from one query to the next on one stage, then the
            # stage on one threshold, with the other claim asked in between
            for order in ([(t, s) for t in stages for s in thresholds],
                          [(t, s) for s in thresholds for t in stages]):
                for t, s in order:
                    got = shared.raw(levels[t], t, x, stop_at=s)
                    assert np.array_equal(got, want[t, s])
                    assert np.array_equal(shared.raw(levels[t], t, x, stop_at=s), got)
                    one_row = shared.raw(levels[t][3], t, x, stop_at=s)
                    assert np.array_equal(one_row, want[t, s][3])
                shared.raw(levels[t][:1], t, other, stop_at=s)  # random levels


def _sized(cls, seen):
    """``cls`` whose prepared evaluator appends the leaf values of each call to seen."""

    class Sized(cls):
        def prepare(self, space, t, leaf_values):
            g = super().prepare(space, t, leaf_values)

            def sized(c):
                seen.append(np.size(c) // space.n_atoms(t) * space.n_leaves)
                return g(c)
            return sized

    return Sized


def test_capital_chain_keeps_each_kernel_call_within_the_leaf_budget():
    # on 1024 leaves at tol = 0: a level at rho = 0 rides the whole chain toward s = 0,
    # about 1075 nodes down to the subnormals, evaluated in several blocks of
    # LEAF_VALUES_PER_CALL leaf values; 260 level rows near exp-utility's upper end
    # expand their bracket up the ladder and halve on its chains, in the same budget
    space = binomial_tree(10)
    rng = np.random.default_rng(10)
    t = 3
    n = space.n_atoms(t)
    near_top = np.vstack([rng.uniform(-2.0, 0.5, (8, n)),
                          rng.uniform(0.999, 0.9999, (260, n))])
    x = XVar(space, rng.uniform(-4.0, 4.0, space.n_leaves))
    for cls, claim, s, levels, blocks in (
            (ExponentialUtilityMeasure, x, -TOL_C, near_top, 1),
            (ConditionalExpectation, XVar.constant(space, 0.0), 0.0, np.zeros((1, n)),
             5)):
        seen = []
        got = induced_family(_sized(cls, seen)(), tol=0.0).raw(levels, t, claim,
                                                                stop_at=s)
        assert len(seen) >= blocks and max(seen) <= LEAF_VALUES_PER_CALL
        want = _induce_raw(cls(), t, levels, claim, tol=0.0, stop_at=s)
        assert np.array_equal(got, want)


def test_induced_family_takes_one_threshold(space2):
    fam = induced_family(GainLossRatio())
    x = XVar(space2, [3.0, -1.0])
    for c in (np.array([0.0]), [-TOL_C, 0.0]):
        with pytest.raises(ValueError, match="one threshold"):
            fam.raw(np.array([[1.0], [2.0]]), 0, x, stop_at=c)


def test_capital_chain_and_search_never_answer_a_nan_upper_end():
    # a measure that is NaN where the smallest leaf reaches 1, i.e. at the canonical
    # upper end hi0: where the bracket below hi0 stalls on adjacent floats, a midpoint
    # can round onto hi0, where g >= z is False; the search stops on the stall as
    # the chain does, so neither moves its lower end onto hi0
    def fn(space, t, y):
        return np.where(np.min(y) >= 1.0, np.nan, atom_expect(space, t, y))

    m = CustomMeasure(fn, -INF, INF, kind="nan-at-top")
    for a in np.linspace(1e8, 3e8, 21):
        x = XVar(coin2(), [a, 1.7 * a + 3.0])
        hi0 = 1.0 - a
        for z in (0.9e8, 1e9):
            want = _induce_raw(m, 0, z, x, stop_at=hi0)
            full = _induce_raw(m, 0, z, x)
            assert want[0] < hi0 and full[0] < hi0
            assert np.array_equal(induced_family(m).raw(z, 0, x, stop_at=hi0), want)
            assert np.array_equal(want < hi0, full < hi0)


def _on_the_chain(m, t, x, levels, thresholds, tol=TOL_C):
    """Each threshold's capital chain, after checking that it answers the levels as
    the stopped search does, bit for bit, without running the search itself."""
    chains = []
    for s in thresholds:
        want = _induce_raw(m, t, levels, x, tol=tol, stop_at=s)
        chain = _CapitalChain(m, t, x, s, tol)
        with pytest.MonkeyPatch.context() as patch:  # the chain must not search
            patch.setattr(risk_family, "vector_monotone_inf", None)
            got = chain.values(levels)
        assert np.array_equal(got, want), (s, got, want)
        chains.append(chain)
    return chains


def _mean(fn=None):
    """The conditional mean as a CustomMeasure, passed through fn if given."""
    def mean(space, t, y):
        e = atom_expect(space, t, y)
        return e if fn is None else fn(e)

    return CustomMeasure(mean, -INF, INF, kind="mean")


@pytest.mark.parametrize("tol", [TOL_C, 0.0])
def test_capital_chain_climbs_the_upper_ladder_to_the_cap(tol):
    # levels past g(hi0) stop on the ladder hi0 + 1, + 2, + 4, ...: a few steps up,
    # deep up, past 2^59, and at BRACKET_CAP itself (claims above 1e3 put hi0 below
    # -998, so the last sum falls short of the cap and the cap is a point of its
    # own); past the cap the ladder goes on to the largest float, where a level above
    # g still raises, as the search does
    space = binomial_tree(3)
    rng = np.random.default_rng(3)
    x = XVar(space, rng.uniform(1e3, 2e3, space.n_leaves))
    m, t = _mean(), 2
    n = space.n_atoms(t)
    g = m.prepare(space, t, x.values)
    at_hi0, at_cap, at_top = (g(np.full(n, c)) for c in (
        1.0 - x.values.min(), solvers.BRACKET_CAP, sys.float_info.max))
    levels = np.array([at_hi0 + rng.uniform(1.0, 40.0, n), rng.uniform(1e6, 1e12, n),
                       rng.uniform(2.0 ** 59 + 1e4, 2.0 ** 60 - 1e4, n),
                       at_cap, np.nextafter(at_cap, -INF), rng.uniform(-4.0, 4.0, n)])
    thresholds = [-TOL_C, 0.0, 1e9, 2.0 ** 59, 2.0 ** 60]
    chains = _on_the_chain(m, t, x, levels, thresholds, tol=tol)
    rise = chains[0].rise.points
    cap = rise.tolist().index(solvers.BRACKET_CAP)
    assert rise[cap - 1] < rise[cap] and len(rise) == cap + 11
    assert rise[-1] == sys.float_info.max
    his = {rise[top] for chain in chains for top, _ in chain.halvings if top}
    assert solvers.BRACKET_CAP in his and len(his) > 3
    # past the cap, up to the largest float: these brackets reach past 2^1021, where
    # the search halves each end first, and the chain follows it
    beyond = np.array([rng.uniform(1e20, 1e300, n), at_top, np.nextafter(at_top, -INF)])
    _on_the_chain(m, t, x, beyond, thresholds + [1e100, sys.float_info.max], tol=tol)
    capped = _mean(lambda e: np.minimum(e, 1e200))  # g never reaches 2e200
    unreachable = levels[:1].copy()
    unreachable[0, 1] = 2e200
    for ask in (lambda: _induce_raw(capped, t, unreachable, x, stop_at=0.0),
                lambda: induced_family(capped).raw(unreachable, t, x, stop_at=0.0)):
        with pytest.raises(RuntimeError, match="never reached the level"):
            ask()
    with pytest.MonkeyPatch.context() as patch:  # the chain raises without the search
        patch.setattr(risk_family, "vector_monotone_inf", None)
        with pytest.raises(RuntimeError, match="never reached the level"):
            induced_family(capped).raw(unreachable, t, x, stop_at=0.0)


@pytest.mark.parametrize("tol", [TOL_C, 0.0])
def test_capital_chain_falls_down_the_lower_ladder_to_minus_inf(tol):
    # levels at or below g(lo0) stop on the ladder lo0 - 1, - 2, - 4, ... floored at
    # -cap; a level that g stays above at -cap answers -inf
    space = binomial_tree(3)
    rng = np.random.default_rng(4)
    x = XVar(space, rng.uniform(-4.0, 4.0, space.n_leaves))
    m, t = _mean(), 1
    n = space.n_atoms(t)
    levels = np.array([rng.uniform(-40.0, -6.0, n), rng.uniform(-1e12, -1e6, n),
                       rng.uniform(-2.0 ** 60 + 1e3, -2.0 ** 59 - 1e3, n),
                       np.full(n, -2e18)])
    levels[3, 0] = -1e300
    chains = _on_the_chain(m, t, x, levels, [-TOL_C, 0.0, -1e9, -2.0 ** 59, 10.0],
                           tol=tol)
    assert np.all(np.isneginf(chains[0].values(levels)[3]))
    fall = chains[0].fall.points
    los = {fall[bottom] for chain in chains for _, bottom in chain.halvings if bottom}
    assert fall[-1] == -solvers.BRACKET_CAP in los and len(los) > 3


def test_capital_chain_stops_a_ladder_at_a_nan():
    # a mean that is NaN once it leaves [-50, 50]: a ladder stops at its first NaN
    # point, and the bracket then has a NaN end, upper or lower
    space = binomial_tree(2)
    rng = np.random.default_rng(6)
    x = XVar(space, rng.uniform(-4.0, 4.0, space.n_leaves))
    m = _mean(lambda e: np.where(np.abs(e) > 50.0, np.nan, e))
    for t in space.times:
        n = space.n_atoms(t)
        levels = np.array([rng.uniform(60.0, 100.0, n), rng.uniform(-100.0, -60.0, n),
                           rng.uniform(-4.0, 4.0, n)])
        chain = _CapitalChain(m, t, x, 0.0, TOL_C)
        ends = [*chain.rise.points[:8], *chain.fall.points[:8]]
        chains = _on_the_chain(m, t, x, levels, [-TOL_C, 0.0, *ends])
        assert any(top and bottom == 0 for c in chains for top, bottom in c.halvings)
        assert any(bottom and top == 0 for c in chains for top, bottom in c.halvings)


def test_capital_chain_expands_a_non_monotone_bracket_both_ways():
    # the wobbly measure on [0, 1]: g(hi0) = 1.5 + 2 sin 4.5 < z <= g(lo0) = -g(hi0)
    # for z in (-0.45, 0.45], so the search expands up, then down, then halves
    space = coin2()
    x = XVar(space, [0.0, 1.0])
    m = _wobbly(None)
    g = m.prepare(space, 0, x.values)
    lo0, hi0 = -2.0, 1.0
    levels = np.linspace(-0.45, 0.45, 19)[:, None]
    assert np.all((g(np.array([hi0])) < levels) & (g(np.array([lo0])) >= levels))
    chains = _on_the_chain(m, 0, x, levels, [-TOL_C, 0.0, 0.5, -1.0, 3.0, -5.0])
    assert all(any(top and bottom for top, bottom in c.halvings) for c in chains[:3])


def test_capital_chain_answers_threads_that_share_one_family():
    # threads asking one family about two claims and three thresholds in turn each
    # get the stopped search's answer, however they interleave on the kept chain
    space = binomial_tree(4)
    rng = np.random.default_rng(4)
    m = ExponentialUtilityMeasure(risk_aversion=1.0)
    levels = rng.uniform(-2.0, 0.9, (5, space.n_atoms(2)))
    cases = [(XVar(space, rng.uniform(-4.0, 4.0, space.n_leaves)), s)
             for _ in range(2) for s in (-TOL_C, 0.0, 0.5)]
    want = [_induce_raw(m, 2, levels, x, stop_at=s) for x, s in cases]
    fam = induced_family(m)

    def ask(k):
        wrong = []
        for r in range(500):
            i = (k + r) % len(cases)
            x, s = cases[i]
            if not np.array_equal(fam.raw(levels, 2, x, stop_at=s), want[i]):
                wrong.append(i)
        return wrong

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            asked = [pool.submit(ask, k) for k in range(6)]
            assert [f.result(timeout=60.0) for f in asked] == [[]] * 6
    finally:
        sys.setswitchinterval(interval)


def _reconstruct_sequential(f, t, x, tol_z=1e-8, tol_c=TOL_C):
    """Reference: ``reconstruct`` with one family call per bisection step.

    The loops stop a component on adjacent floats and raise at their caps, as the
    library does; the library answers d steps per call and must decide alike.
    """
    space = x.space
    z_d, z_u = f.interval
    n = space.n_atoms(t)
    u_lo = np.full(n, np.nan)
    u_hi = np.full(n, np.nan)
    out = np.full(n, np.nan)
    done = np.zeros(n, dtype=bool)
    z_fill = math.tan(0.5 * (math.atan(max(z_d, -1e12)) + math.atan(min(z_u, 1e12))))

    def probe(z_per_atom, active):
        vals = np.asarray(f.raw(np.where(active, z_per_atom, z_fill), t, x))
        return vals < -tol_c

    top = ([math.tan(math.atan(z_u) - max(tol_z, 1e-12))] if math.isfinite(z_u)
           else [1e8, 1e12, 1e16])
    pending = np.ones(n, dtype=bool)
    for lvl in top:
        if not pending.any():
            break
        neg = probe(np.full(n, lvl), pending)
        u_hi[pending & ~neg] = math.atan(lvl)
        u_lo[pending & neg] = math.atan(lvl)
        pending &= neg
    out[pending] = z_u
    done |= pending
    bottom = ([math.tan(math.atan(z_d) + max(tol_z, 1e-12))] if math.isfinite(z_d)
              else [-1e8, -1e12, -1e16])
    pending = ~done & np.isnan(u_lo)
    for lvl in bottom:
        if not pending.any():
            break
        neg = probe(np.full(n, lvl), pending)
        u_lo[pending & neg] = math.atan(lvl)
        hit = pending & ~neg
        u_hi[hit] = np.minimum(np.where(np.isnan(u_hi[hit]), INF, u_hi[hit]),
                               math.atan(lvl))
        pending &= ~neg
    out[pending] = z_d
    done |= pending

    def bisect(lo, hi, is_open, level, cap):
        for _ in range(cap):
            mid = 0.5 * (lo + hi)
            live = is_open(lo, hi) & (lo < mid) & (mid < hi)
            if not live.any():
                return lo, hi
            neg = probe(np.where(live, level(mid), z_fill), live)
            lo = np.where(live & neg, mid, lo)
            hi = np.where(live & ~neg, mid, hi)
        mid = 0.5 * (lo + hi)
        if (is_open(lo, hi) & (lo < mid) & (mid < hi)).any():
            raise RuntimeError("still open at the cap")
        return lo, hi

    u_lo, u_hi = bisect(u_lo, u_hi, lambda lo, hi: ~done & (hi - lo > tol_z),
                        np.tan, 200)
    todo = ~done
    if todo.any():
        def polishing(lo, hi):
            scale = np.maximum(1.0, np.minimum(np.abs(lo), 1e9) * 1e-3)
            return todo & (hi - lo > 1e-7 * scale) & (np.abs(lo) < 1e9)

        z_lo, z_hi = bisect(np.where(todo, np.tan(u_lo), 0.0),
                            np.where(todo, np.tan(u_hi), 0.0), polishing,
                            lambda z: z, 80)
        out = np.where(todo, 0.5 * (z_lo + z_hi), out)
    return out


def _criterion1_instances():
    """The 200 trees, payoffs, stages and measures of acceptance criterion 1."""
    rng = np.random.default_rng(101)
    for i in range(200):
        tree = random_tree(np.random.default_rng(1000 + i), periods=1 + i % 2,
                           max_leaves=16)
        lam_t = {t: rng.uniform(0.5, 2.0, tree.n_atoms(t)) for t in tree.times}
        measures = [GainLossRatio(),
                    ExponentialUtilityMeasure(risk_aversion=1.0),
                    ExponentialUtilityMeasure(risk_aversion=lam_t),
                    CertaintyEquivalentMeasure(UtilitySpec("exp", lam=1.0)),
                    lpm_ratio(2.0)]
        x = XVar(tree, rng.uniform(-4.0, 4.0, tree.n_leaves))
        t = int(rng.integers(0, len(tree.times)))
        yield measures, t, x


def test_reconstruct_matches_the_sequential_loop_on_criterion1():
    for measures, t, x in _criterion1_instances():
        for m in measures:
            fam = induced_family(m)
            got = reconstruct(fam, t, x).values
            assert np.array_equal(got, _reconstruct_sequential(fam, t, x)), m.label()


# upper (+inf leg, positive constant), lower (all loss) and constant claims on tree2,
# and mixed ones where atoms take different branches
_BRANCH_CLAIMS = [[0.1] * 4, [-1.0] * 4, [0.0] * 4, [2.5] * 4, [INF, 1.0, 0.5, 2.0],
                  [INF, -1.0, 3.0, -2.0], [-1.0, -2.0, 1.0, 3.0],
                  [1e-9, -1e-9, 5.0, 0.0]]


@pytest.mark.parametrize("fam", [
    induced_family(GainLossRatio()), induced_family(lpm_ratio(2.0)),
    induced_family(ExponentialUtilityMeasure(risk_aversion=0.7)),
    induced_family(ConditionalExpectation()),
    pytest.param(entropic_family(1.3), id="entropic"),
], ids=lambda f: f.label)
def test_reconstruct_matches_the_sequential_loop_on_every_branch(fam, tree2):
    for values in _BRANCH_CLAIMS:
        x = XVar(tree2, values)
        for t in (0, 1):
            for tol_z in (1e-8, 1e-3, 1e-17):
                want = _reconstruct_sequential(fam, t, x, tol_z=tol_z)
                assert np.array_equal(reconstruct(fam, t, x, tol_z=tol_z).values, want)


def _full_search(fam):
    """``fam`` whose ``raw`` ignores ``stop_at``: every search runs to its close."""
    return dataclasses.replace(fam, raw=lambda z, t, x, stop_at=None: fam.raw(z, t, x))


def _same_by_both_routes(fam, t, x, **kw):
    got = reconstruct(fam, t, x, **kw).values
    want = reconstruct(_full_search(fam), t, x, **kw).values
    assert np.array_equal(got, want), fam.label


def test_reconstruct_by_sign_query_matches_the_raw_route():
    for measures, t, x in itertools.islice(_criterion1_instances(), 40):
        for m in measures:
            _same_by_both_routes(induced_family(m), t, x)
    rng = np.random.default_rng(12)
    for steps in (6, 8):  # 64 and 256 leaves: shallower level trees per call
        space = binomial_tree(steps)
        x = XVar(space, rng.uniform(-4.0, 4.0, space.n_leaves))
        for m in (GainLossRatio(), ExponentialUtilityMeasure(risk_aversion=1.0)):
            _same_by_both_routes(induced_family(m), steps // 2, x)


@pytest.mark.parametrize("m", [
    GainLossRatio(), lpm_ratio(2.0), ExponentialUtilityMeasure(risk_aversion=0.7),
    ConditionalExpectation()], ids=lambda m: m.label())
def test_reconstruct_by_sign_query_matches_the_raw_route_on_every_branch(m, tree2):
    for values in _BRANCH_CLAIMS:
        for t in (0, 1):
            for tol_z in (1e-8, 1e-3):
                _same_by_both_routes(induced_family(m), t, XVar(tree2, values),
                                     tol_z=tol_z)


def _counting(cls):
    """``cls`` with a ``prepare`` whose evaluator counts its calls in ``evals``."""

    class Counted(cls):
        evals = 0

        def prepare(self, space, t, leaf_values):
            g = super().prepare(space, t, leaf_values)

            def counted(c):
                Counted.evals += 1
                return g(c)
            return counted

    return Counted


@pytest.mark.parametrize("cls", [GainLossRatio, ExponentialUtilityMeasure],
                         ids=lambda c: c.__name__)
def test_sign_query_cuts_measure_evaluations(cls):
    # a count, so it holds on any machine: the sign query ends the searches early
    # (here exp-utility makes 46% of the full searches' evaluations, gain-loss 8%)
    space = binomial_tree(3)
    x = XVar(space, np.random.default_rng(5).uniform(-4.0, 4.0, space.n_leaves))
    counted = _counting(cls)
    fam = induced_family(counted())
    got = reconstruct(fam, 0, x).values
    by_sign, counted.evals = counted.evals, 0
    assert np.array_equal(reconstruct(_full_search(fam), 0, x).values, got)
    assert 0 < by_sign <= 0.6 * counted.evals


def test_reconstruct_stops_on_adjacent_floats(tree2):
    # below the float spacing of the atan bracket the loop ends where the floats do,
    # after about 55 sequential probes instead of running on to its cap of 200
    m = ExponentialUtilityMeasure(risk_aversion=1.0)
    x = XVar(tree2, np.random.default_rng(3).uniform(-4.0, 4.0, 4))
    fam = induced_family(m)
    calls = []

    def counted(z, t, xv, stop_at=None):
        calls.append(np.shape(z))
        return fam.raw(z, t, xv)

    tiny = StandardFamily(interval=fam.interval, raw=counted)
    for tol_z in (1e-17, 1e-20):
        calls.clear()
        want = _reconstruct_sequential(tiny, 0, x, tol_z=tol_z)
        sequential = len(calls)
        assert 40 <= sequential <= 70
        calls.clear()
        assert np.array_equal(reconstruct(tiny, 0, x, tol_z=tol_z).values, want)
        # the same end probes, then one tree of 2^d - 1 levels per d halvings, with
        # one partial tree at the end of each of the two bisections
        trees = [shape[0] for shape in calls if len(shape) == 2]
        depth = int(math.log2(trees[0] + 1))
        ends = len(calls) - len(trees)
        assert depth >= 2 and len(trees) <= (sequential - ends) / depth + 2


def test_reconstruct_refuses_a_family_written_for_one_level_per_atom(tree2):
    # evaluating atom k at level z[k] reads row k of a (B, n_atoms) level tree and
    # answers (n_atoms,): the shape check names the contract instead of reading it
    fam = entropic_family(1.0)

    def per_atom(z, t, xv, stop_at=None):
        z = np.broadcast_to(np.asarray(z, dtype=float), (xv.space.n_atoms(t),))
        return np.array([fam.raw(z[k], t, xv)[k] for k in range(len(z))])

    def row_by_atom(z, t, xv, stop_at=None):
        z = np.asarray(z, dtype=float)
        return np.array([fam.raw(z[k], t, xv)[k] for k in range(xv.space.n_atoms(t))])

    x = XVar(tree2, [2.0, -1.0, 4.0, -2.0])
    for raw in (per_atom, row_by_atom):
        assert np.array_equal(raw(np.array([0.3, -0.2]), 1, x),
                              fam.raw(np.array([0.3, -0.2]), 1, x))
        with pytest.raises(ValueError):
            reconstruct(StandardFamily(interval=fam.interval, raw=raw), 1, x)
    with pytest.raises(ValueError, match=r"raw must map \(B, n_atoms\) level rows"):
        reconstruct(StandardFamily(interval=fam.interval, raw=row_by_atom), 1, x)


def test_reconstruct_raises_when_a_bracket_outlasts_its_cap(space2):
    # with tol_c = 0 the value of the zero claim is exactly 0, where floats are dense:
    # at tol_z = 1e-300 the atan bracket needs about 1000 halvings, past the cap of 200
    zero = XVar.constant(space2, 0.0)
    with pytest.raises(RuntimeError, match="after 200 halvings"):
        reconstruct(entropic_family(1.0), 0, zero, tol_z=1e-300, tol_c=0.0)


# ---------------------------------------------------------------------------
# family validation


def test_induced_glr_family_validates(space2):
    fam = induced_family(GainLossRatio())
    rep = validate_standard_family(fam, space2, 0, trials=40)
    failed = [r.name for r in rep.results if r.passed is False]
    assert not failed, failed
    # positive homogeneity is detected on the way
    assert rep.result("coherence").passed
    assert rep.result("sign_query_matches_raw").trials == 20


def test_a_replaced_raw_sees_every_reconstruct_probe(tree2):
    # one probe route: a copy with a wrapped ``raw`` is the family ``reconstruct`` asks
    fam = induced_family(GainLossRatio())
    calls = []

    def counted(z, t, x, stop_at=None):
        calls.append(stop_at)
        return fam.raw(z, t, x, stop_at=stop_at)

    wrapped = dataclasses.replace(fam, raw=counted)
    for values in _BRANCH_CLAIMS:
        x = XVar(tree2, values)
        for t in (0, 1):
            calls.clear()
            got = reconstruct(wrapped, t, x).values
            assert len(calls) > 0 and all(c == -TOL_C for c in calls)
            assert np.array_equal(got, reconstruct(fam, t, x).values)


def test_family_validator_asks_for_each_path_in_one_call(tree2, monkeypatch):
    # at 60 trials: a per-level property asks once for trial 0 and once per grid level
    # drawn by the other trials, with every claim row of that level in the call;
    # z_paths_monotone asks for all seven levels as level rows, once per chunk; each
    # refinement step of z_paths_continuous asks for its three levels in one call;
    # the sign query runs one full search per chunk and a stopped search per claim
    # and threshold
    fam = induced_family(GainLossRatio())
    calls, running = [], [None]
    run_trials = measures.run_trials

    def counted(z, t, x, stop_at=None):
        claims = 0 if isinstance(x, XVar) else len(x)
        calls.append((running[0], np.shape(z), claims, stop_at is not None))
        return fam.raw(z, t, x, stop_at=stop_at)

    def named(rep, name, *args):
        running[0] = name
        result = run_trials(rep, name, *args)
        running[0] = f"after {name}"
        return result

    monkeypatch.setattr(measures, "run_trials", named)
    rep = validate_standard_family(dataclasses.replace(fam, raw=counted), tree2, 1,
                                   trials=60)
    assert rep.passed
    assert len(calls) <= 250  # 1082 when each trial asked on its own
    rows = (7, tree2.n_atoms(1))
    per_level = {"finite_on_bounded_claims": (60, 1), "convexity": (60, 3),
                 "monotone_nonincreasing": (60, 2), "translation_invariance": (60, 2),
                 "locality": (60, 2), "continuity_from_below": (30, 9),
                 "coherence": (30, 2)}
    for name, (trials, r) in per_level.items():
        mine = [c for c in calls if c[0] == name]
        assert 2 <= len(mine) <= 8 and mine[0][2] == r, name
        assert all(c[1] == () and not c[3] for c in mine), name
        assert sum(c[2] for c in mine) == trials * r, name
    assert [c[1:] for c in calls if c[0] == "z_paths_monotone"] == \
        [(rows, 1, False), (rows, 29, False)]
    assert not rep.result("z_paths_continuous").note  # the refinement ran
    # the interval is bounded below, so no divergence probe runs in between
    assert [c[1:] for c in calls if c[0] == "after z_paths_monotone"] == \
        [((3, rows[1]), 0, False)] * 2
    sign = [c[1:] for c in calls if c[0] == "sign_query_matches_raw"]
    assert sorted(sign, key=str) == sorted(
        [(rows, 1, False), (rows, 29, False)] + [(rows, 0, True)] * 4 * 30, key=str)


def test_entropic_family_validates(tree2):
    rep = validate_standard_family(entropic_family(0.8), tree2, 1, trials=40)
    failed = [r.name for r in rep.results if r.passed is False]
    assert not failed, failed
    assert rep.result("sign_query_matches_raw").trials == 20


def test_family_validator_flags_a_stopped_search_that_disagrees_with_raw(space2):
    fam = induced_family(GainLossRatio())

    def raw(z, t, x, stop_at=None):
        rho = fam.raw(z, t, x, stop_at=stop_at)
        return rho if stop_at is None else rho + 1.0

    moved = dataclasses.replace(fam, raw=raw)
    rep = validate_standard_family(moved, space2, 0, trials=20)
    assert rep.result("sign_query_matches_raw").passed is False


def test_family_validator_flags_wrong_z_direction(space2):
    def raw(z, t, x, stop_at=None):
        if not isinstance(x, XVar):  # claim rows
            return np.array([raw(z, t, claim) for claim in x])
        return -cond_expect(x, t).values - np.asarray(z, dtype=float)

    broken = StandardFamily(interval=(0.0, INF), raw=raw, label="wrong-slope")
    rep = validate_standard_family(broken, space2, 0, trials=40)
    assert rep.result("z_paths_monotone").passed is False


# ---------------------------------------------------------------------------
# duality


def test_dual_hand_value(space2):
    got = glr_dual_risk(0, 1.0, XVar(space2, [1.0, -1.0])).values.values[0]
    assert abs(got - 1.0 / 3.0) <= 1e-9


def _dual_by_atoms(t, z, x):
    """Reference: the dual closed form one atom at a time, prefix sums from zero."""
    space = x.space
    loss = -x.values
    mean = atom_expect(space, t, loss)
    order, _, starts = loss_order(space, t, loss)
    ends = np.r_[starts[1:], len(order)]
    out = np.empty(space.n_atoms(t))
    for k in range(space.n_atoms(t)):
        leaves = order[starts[k]:ends[k]]
        pbar = space.probs[leaves] / space.atom_mass[t][k]
        excess = np.cumsum(pbar * (loss[leaves] - mean[k]))
        mass = np.cumsum(pbar)
        out[k] = mean[k] + max(float(np.max(z * excess / (1.0 + z * mass))), 0.0)
    return out


def test_dual_keeps_digits_across_many_atoms():
    # one running sum over all atoms would climb to their count and cost each
    # later atom's conditional masses their last digits (about 1e-12 here)
    space = binomial_tree(16, 0.3)
    x = XVar(space, np.random.default_rng(0).uniform(-4.0, 4.0, space.n_leaves))
    for t in (10, 14):
        got = glr_dual_risk(t, 2.0, x).values.values
        assert np.max(np.abs(got - _dual_by_atoms(t, 2.0, x))) <= 2e-15


def test_dual_constant_payoff(space2):
    for c in (-2.0, 0.5, 3.0):
        got = glr_dual_risk(0, 2.0, XVar.constant(space2, c)).values.values[0]
        assert abs(got - (-c)) <= 1e-9


def _glr_polytope(pbar: np.ndarray, z: float) -> np.ndarray:
    """Rows A of the level-z ratio polytope {A w <= 0} over one atom's leaf weights.

    One row per ordered leaf pair i != j, in row-major order:
    w_i pbar_j - (1+z) w_j pbar_i <= 0, so the densities w / pbar stay within 1+z.
    """
    m = pbar.size
    i, j = np.nonzero(~np.eye(m, dtype=bool))
    rows = np.zeros((i.size, m))
    r = np.arange(i.size)
    rows[r, i] = pbar[j]
    rows[r, j] = -(1.0 + z) * pbar[i]
    return rows


def _lp_min(c, pbar, z):
    """min c.w over the leaf weights w of one atom's level-z ratio polytope, by HiGHS."""
    rows = _glr_polytope(pbar, z)
    sol = linprog(c, A_ub=rows, b_ub=np.zeros(rows.shape[0]),
                  A_eq=np.ones((1, pbar.size)), b_eq=np.ones(1), bounds=(0, None),
                  method="highs")
    assert sol.status == 0, sol.message
    return sol.fun


def _lp_dual(t, z, x):
    """The dual by a linear program over each atom's ratio polytope."""
    space = x.space
    out = []
    for k in range(space.n_atoms(t)):
        idx = np.fromiter(space.atoms[t][k], dtype=np.intp)
        out.append(-_lp_min(x.values[idx], space.probs[idx] / space.atom_mass[t][k], z))
    return np.array(out)


def _one_atom(probs):
    """A one-period space whose stage-0 atom holds one leaf per probability."""
    leaves = [f"w{j}" for j in range(len(probs))]
    return FilteredSpace.from_json({
        "times": [0, 1],
        "leaves": [{"id": s, "p": float(p)} for s, p in zip(leaves, probs)],
        "atoms": {"0": [leaves], "1": [[s] for s in leaves]},
    })


def _one_period(rng, n):
    probs = rng.uniform(0.5, 1.5, n)
    return _one_atom(probs / probs.sum())


def test_dual_matches_lp(tree3):
    rng = np.random.default_rng(7)
    cases = [(_one_period(rng, n), 0) for n in (2, 3, 5, 8, 13, 21, 32)]
    cases += [(tree3, t) for t in tree3.times]
    for space, t in cases:
        for z in (0.5, 1.0, 2.0, 5.0):
            x = XVar(space, rng.uniform(-4.0, 4.0, space.n_leaves))
            got = glr_dual_risk(t, z, x).values.values
            assert np.allclose(got, _lp_dual(t, z, x), rtol=0.0, atol=1e-9), \
                (space.n_leaves, t, z)


# Bisection stops within TOL_C of its root, or on adjacent floats where their spacing
# exceeds TOL_C; the measure's own rounding adds a few ulps of the payoff scale.
# Hence |dual - bisection| <= TOL_C + 1e-14 max|X|: the absolute part binds below
# payoffs of about 1e4, the relative part above.
@given(seed=st.integers(0, 10_000), log_scale=st.floats(-8.0, 17.0))
@settings(max_examples=80, deadline=None)
def test_dual_matches_bisection(seed, log_scale):
    space = binomial_tree(2)
    rng = np.random.default_rng(seed)
    t = int(rng.integers(0, 3))
    z = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
    x = XVar(space, 10.0 ** log_scale * rng.uniform(-4, 4, space.n_leaves))
    via_dual = glr_dual_risk(t, z, x).values.values
    via_bisect = induce_risk(GainLossRatio(), t, z, x).values.values
    tol = TOL_C + 1e-14 * float(np.max(np.abs(x.values)))
    assert np.all(np.abs(via_dual - via_bisect) <= tol)


def test_sampled_density_is_feasible(tree2):
    z = 1.0
    for i in range(8):
        q = sample_glr_density(tree2, 1, z, derived_rng(0, 43, i))
        g = q.density
        assert np.all(g >= -1e-12)
        for k in range(tree2.n_atoms(1)):
            sel = tree2.atom_index[1] == k
            mass = np.sum(g[sel] * tree2.probs[sel])
            assert abs(mass - tree2.atom_mass[1][k]) <= 1e-9 or mass <= 1e-12


# seeds 130 (m = 12, z = 1) and 197 (m = 16, z = 5) are atoms where a dense Bland
# simplex stopped at a suboptimal point without raising
@pytest.mark.parametrize("seed", list(range(12)) + [130, 197])
def test_sampled_density_is_the_lp_optimum(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 17))
    z = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
    space = _one_atom(rng.dirichlet(np.ones(m)))
    c = copy.deepcopy(rng).normal(size=m)  # the objective sample_glr_density draws
    g = sample_glr_density(space, 0, z, rng).density
    pbar = space.probs / space.atom_mass[0][0]
    assert abs(c @ (pbar * g) - _lp_min(c, pbar, z)) <= 1e-12
    assert g.max() <= (1.0 + z) * g.min() * (1.0 + 1e-12)
    assert abs(pbar @ g - 1.0) <= 1e-12


def test_sampled_density_draws_one_normal_per_split_atom():
    # the penalty check draws from the same generator afterwards, so the number of
    # draws is part of its reports
    leaves = ["a", "b", "c", "d", "e", "f"]
    space = FilteredSpace.from_json({
        "times": [0, 1, 2],
        "leaves": [{"id": s, "p": p} for s, p in zip(leaves, [.1, .2, .1, .3, .2, .1])],
        "atoms": {"0": [leaves], "1": [["a"], ["b", "c", "d"], ["e", "f"]],
                  "2": [[s] for s in leaves]},
    })
    for t, sizes in ((0, [6]), (1, [3, 2]), (2, [])):
        for z in (0.5, 5.0):
            rng = np.random.default_rng(11)
            ref = copy.deepcopy(rng)
            sample_glr_density(space, t, z, rng)
            for m in sizes:
                ref.normal(size=m)
            assert rng.bit_generator.state == ref.bit_generator.state, (t, z)


def test_sampled_density_rejects_levels_outside_the_polytope_range(tree2):
    for z in (-0.5, INF, float("nan")):
        with pytest.raises(ValueError, match="finite level"):
            sample_glr_density(tree2, 1, z, np.random.default_rng(0))
    with pytest.raises(ValueError, match="nonnegative"):
        DualMeasure(tree2, 1, np.full(tree2.n_leaves, np.nan))


def test_dual_measure_json_round_trip(tree2):
    q = sample_glr_density(tree2, 1, 0.5, derived_rng(0, 43, 1))
    back = DualMeasure.from_json(q.to_json(), tree2)
    assert np.allclose(back.density, q.density)


def test_weak_duality_and_penalty_bound(space2):
    glr = GainLossRatio()
    x = XVar(space2, [1.0, -1.0])
    q = sample_glr_density(space2, 0, 1.0, derived_rng(0, 43, 2))
    probes = [XVar(space2, [2.0, -0.5]), XVar.constant(space2, 1.0)]
    lb = penalty_lower_bound(glr, 0, 1.0, q, probes)
    assert lb.shape == (1,)
    rep = weak_duality_probe(glr, 0, 1.0, x, q, probes)
    assert rep.passed


# ---------------------------------------------------------------------------
# truncation and closure


def test_truncation_limit(space2):
    rep = truncation_limit_check(GainLossRatio(), 0, 1.0,
                                 XVar(space2, [3.0, -1.0]))
    assert rep.passed


def test_truncation_limit_with_infinite_payoff(space2):
    rep = truncation_limit_check(ExponentialUtilityMeasure(risk_aversion=1.0),
                                 0, 0.5, XVar(space2, [INF, -1.0]))
    failed = [r.name for r in rep.results if r.passed is False]
    assert not failed, failed


def test_closure_check_glr(space2):
    rep = closure_check(GainLossRatio(), 0, 1.0, trials=25, space=space2)
    failed = [r.name for r in rep.results if r.passed is False]
    assert not failed, failed
    # the zero claim sits in {rho <= 0} at every level but is only weakly there
    assert rep.result("boundary_gap_at_zero") is not None
