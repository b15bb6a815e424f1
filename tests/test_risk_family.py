import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perflat import (INF, DualMeasure, ExponentialUtilityMeasure,
                     GainLossRatio, StandardFamily, TVar, XVar, binomial_tree,
                     closure_check, coin2, entropic_closed_form,
                     entropic_family, evaluate, glr_dual_risk, induce_risk,
                     induced_family, lpm_ratio, penalty_lower_bound,
                     reconstruct, risk_curve, sample_glr_density, sample_xvar,
                     truncation_limit_check, validate_standard_family,
                     weak_duality_probe)
from perflat import solvers
from perflat.lattice import FilteredSpace, cond_expect
from perflat.risk_family import TOL_C, _glr_polytope
from perflat.simplex import solve_lp
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


def test_induce_reports_minus_inf_when_already_acceptable(space2):
    # beta stays above z no matter how negative the shift: rho = -inf
    m = ExponentialUtilityMeasure(risk_aversion=1.0)
    x = XVar.constant(space2, INF)
    rp = induce_risk(m, 0, 0.5, x)
    assert np.all(np.isneginf(rp.values.values))
    assert np.all(rp.capped)


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


def test_bisection_reaches_the_smallest_spacing_under_the_cap():
    # about 1075 halvings from [-1, 1] down to a width of one subnormal step
    res = vector_monotone_inf(lambda c: c, np.array([-1.0]), np.array([1.0]),
                              np.array([0.0]), tol=5e-324)
    assert res.values[0] == -5e-324


def test_bisection_cap_raises(monkeypatch, space2):
    monkeypatch.setattr(solvers, "BISECT_CAP", 8)
    with pytest.raises(RuntimeError, match="halvings"):
        vector_monotone_inf(lambda c: c, np.array([-1.0]), np.array([1.0]),
                            np.array([0.3]), tol=1e-12)
    # induce_risk passes the cap's message on, not the misdeclared-threshold one
    with pytest.raises(RuntimeError, match="halvings"):
        induce_risk(GainLossRatio(), 0, 1.0, XVar(space2, [3.0, -1.0]))


def test_induce_names_an_unreachable_level(space2):
    class Flat:  # declares z_u = inf but never rises above 0
        z_d, z_u = -INF, INF

        def values(self, space, t, x):
            return np.zeros(space.n_atoms(t))

    with pytest.raises(RuntimeError, match="misdeclared"):
        induce_risk(Flat(), 0, 1.0, XVar(space2, [3.0, -1.0]))


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


@given(seed=st.integers(0, 400))
@settings(max_examples=60, deadline=None)
def test_entropic_matches_bisection(seed):
    space = binomial_tree(2)
    rng = np.random.default_rng(seed)
    lam = float(rng.uniform(0.3, 3.0))
    t = int(rng.integers(0, 3))
    z = float(rng.uniform(-2.0, 0.9))
    x = XVar(space, rng.uniform(-4, 4, space.n_leaves))
    m = ExponentialUtilityMeasure(risk_aversion=lam)
    via_formula = entropic_closed_form(lam, t, z, x).values.values
    via_bisect = induce_risk(m, t, z, x).values.values
    assert np.allclose(via_formula, via_bisect, atol=1e-8)


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


def test_risk_curve_rejects_bad_grids(space2):
    x = XVar(space2, [3.0, -1.0])
    with pytest.raises(ValueError):
        risk_curve(GainLossRatio(), 0, x, [2.0, 1.0])
    with pytest.raises(ValueError):
        risk_curve(GainLossRatio(), 0, x, [-1.0, 1.0])  # leaves the interval


def test_entropic_divergence_beyond_float_range():
    fam = entropic_family(1.0)
    space = coin2()
    # at z = -e^L the cash threshold of the zero claim is -log(1 + e^L)
    vals = fam.zero_log_level(space, 0, 3e6)
    assert np.all(vals < -1e6)


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


# ---------------------------------------------------------------------------
# family validation


def test_induced_glr_family_validates(space2):
    fam = induced_family(GainLossRatio())
    rep = validate_standard_family(fam, space2, 0, trials=40)
    failed = [r.name for r in rep.results if r.passed is False]
    assert not failed, failed
    # positive homogeneity is detected on the way
    assert rep.result("coherence").passed


def test_entropic_family_validates(tree2):
    rep = validate_standard_family(entropic_family(0.8), tree2, 1, trials=40)
    failed = [r.name for r in rep.results if r.passed is False]
    assert not failed, failed


def test_family_validator_flags_wrong_z_direction(space2):
    def raw(z, t, x):
        return -cond_expect(x, t).values - np.asarray(z, dtype=float)

    broken = StandardFamily(interval=(0.0, INF), raw=raw, label="wrong-slope")
    rep = validate_standard_family(broken, space2, 0, trials=40)
    assert rep.result("z_paths_monotone").passed is False


# ---------------------------------------------------------------------------
# duality


def test_dual_hand_value(space2):
    got = glr_dual_risk(0, 1.0, XVar(space2, [1.0, -1.0])).values.values[0]
    assert abs(got - 1.0 / 3.0) <= 1e-9


def test_dual_constant_payoff(space2):
    for c in (-2.0, 0.5, 3.0):
        got = glr_dual_risk(0, 2.0, XVar.constant(space2, c)).values.values[0]
        assert abs(got - (-c)) <= 1e-9


def _lp_dual(t, z, x):
    """The dual by the dense simplex over each atom's ratio polytope."""
    space = x.space
    out = []
    for k in range(space.n_atoms(t)):
        idx = np.fromiter(space.atoms[t][k], dtype=np.intp)
        rows = _glr_polytope(space.probs[idx] / space.atom_mass[t][k], z)
        sol = solve_lp(x.values[idx], A_ub=rows, b_ub=np.zeros(rows.shape[0]),
                       A_eq=np.ones((1, idx.size)), b_eq=np.ones(1))
        out.append(-sol.value)
    return np.array(out)


def _one_period(rng, n):
    probs = rng.uniform(0.5, 1.5, n)
    leaves = [f"w{j}" for j in range(n)]
    return FilteredSpace.from_json({
        "times": [0, 1],
        "leaves": [{"id": s, "p": float(p)} for s, p in zip(leaves, probs / probs.sum())],
        "atoms": {"0": [leaves], "1": [[s] for s in leaves]},
    })


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
@given(seed=st.integers(0, 10_000), log_scale=st.floats(-8.0, 8.0))
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
