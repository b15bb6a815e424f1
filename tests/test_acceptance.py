"""End-to-end acceptance: the pinned behaviors, at full sample sizes.

Each test prints one [PASS]/[FAIL] line on the real stdout so the run reads
as a checklist even under capture.  Tolerances and counts here are contract,
not taste; loosening them is a bug, not a fix.
"""
import json
import math
import sys
import time
from importlib import resources

import numpy as np

from perflat import (INF, CertaintyEquivalentMeasure, DynamicMeasure,
                     ExponentialUtilityMeasure, GainLossRatio, UtilitySpec,
                     XVar, binomial_tree, check_axioms, check_lift_axioms,
                     check_lift_time_consistency, check_scale_invariance,
                     check_time_consistency, coin2, entropic_closed_form,
                     entropic_family, evaluate, glr_dual_risk, induce_risk,
                     induced_family, lpm_ratio, raroc, random_tree,
                     reconstruct, risk_curve, search_counterexample,
                     verify_witness)
from perflat.lattice import FilteredSpace
from perflat.measures import ConditionalExpectation, ExpectedUtilityMeasure


def _line(capsys, num: int, ok: bool, text: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
        sys.stdout.flush()
    assert ok, f"criterion {num}: {text}"


def _pinned_witness() -> dict:
    return json.loads(resources.files("perflat").joinpath(
        "fixtures/lpm_witness.json").read_text())


def _same(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (int, float, np.integer, np.floating)):
        return isinstance(b, (int, float, np.integer, np.floating)) \
            and float(a) == float(b)
    return a == b


def _gap(a: np.ndarray, b: np.ndarray) -> float:
    both_inf = np.isinf(a) & np.isinf(b) & (np.sign(a) == np.sign(b))
    with np.errstate(invalid="ignore"):
        d = np.abs(a - b)
    return float(np.max(np.where(both_inf, 0.0, d)))


def test_c01_round_trip_uniqueness(capsys):
    rng = np.random.default_rng(101)
    n_trees = 200
    worst = 0.0
    t0 = time.perf_counter()
    for i in range(n_trees):
        # periods = steps, so 1-2 periods spans 2-3 stages
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
        for m in measures:
            back = reconstruct(induced_family(m), t, x)
            direct = evaluate(m, t, x)
            worst = max(worst, _gap(back.values, direct.values))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed <= 60.0
    _line(capsys, 1, ok, f"round-trip uniqueness, 5 measures x {n_trees} trees: "
                 f"worst gap {worst:.2e} (<= 1e-6), {elapsed:.1f}s (<= 60s)")


def test_c02_entropic_closed_form(capsys):
    rng = np.random.default_rng(202)
    worst = 0.0
    worst_zero = 0.0
    for i in range(500):
        tree = random_tree(np.random.default_rng(2000 + i % 40), periods=2)
        t = int(rng.integers(0, len(tree.times)))
        lam = float(rng.uniform(0.3, 3.0))
        z = float(rng.uniform(-3.0, 0.95))
        x = XVar(tree, rng.uniform(-4.0, 4.0, tree.n_leaves))
        m = ExponentialUtilityMeasure(risk_aversion=lam)
        formula = entropic_closed_form(lam, t, z, x).values.values
        bisect = induce_risk(m, t, z, x).values.values
        worst = max(worst, _gap(formula, bisect))
        # the zero claim reduces to the printed one-liner
        zero = XVar.constant(tree, 0.0)
        got = entropic_closed_form(lam, t, z, zero).values.values
        want = -math.log1p(-z) / lam
        worst_zero = max(worst_zero, float(np.max(np.abs(got - want))))
    ok = worst <= 1e-8 and worst_zero <= 1e-12
    _line(capsys, 2, ok, f"entropic closed form, 500 instances: worst gap "
                 f"{worst:.2e} (<= 1e-8), zero-claim gap {worst_zero:.2e}")


def test_c03_sign_equivalences(capsys):
    rng = np.random.default_rng(303)
    checked = 0
    violations = 0
    draw = 0
    while checked < 1000:
        tree = random_tree(np.random.default_rng(3000 + draw), periods=2)
        draw += 1
        m = (GainLossRatio() if rng.random() < 0.5
             else ExponentialUtilityMeasure(risk_aversion=float(rng.uniform(0.5, 2.0))))
        t = int(rng.integers(0, len(tree.times)))
        z = (float(rng.uniform(0.2, 4.0)) if m.kind == "glr"
             else float(rng.uniform(-2.0, 0.9)))
        x = XVar(tree, rng.uniform(-4.0, 4.0, tree.n_leaves))
        beta = evaluate(m, t, x).values
        rho = induce_risk(m, t, z, x).values.values
        above = beta > z + 1e-6
        below = beta < z - 1e-6
        checked += int(np.sum(above) + np.sum(below))
        # the computed rho is the lower bracket endpoint: above the level it
        # must land strictly negative, below it no lower than the tolerance
        violations += int(np.sum(above & ~(rho < 0.0)))
        violations += int(np.sum(below & ~(rho > -1e-10)))
    ok = violations == 0
    _line(capsys, 3, ok, f"sign equivalences, {checked} atomwise instances with "
                 f"|beta - z| >= 1e-6: {violations} violations")


def test_c04_glr_strong_duality(capsys):
    rng = np.random.default_rng(404)
    zs = [0.5, 1.0, 2.0, 5.0]
    worst = 0.0
    for i in range(300):
        n = int(rng.integers(2, 9))
        probs = rng.uniform(0.5, 1.5, n)
        probs = probs / probs.sum()
        leaves = [f"w{j}" for j in range(n)]
        tree = FilteredSpace.from_json({
            "times": [0, 1],
            "leaves": [{"id": s, "p": float(p)} for s, p in zip(leaves, probs)],
            "atoms": {"0": [leaves], "1": [[s] for s in leaves]},
        })
        x = XVar(tree, rng.uniform(-4.0, 4.0, n))
        z = zs[i % 4]
        lp = glr_dual_risk(0, z, x).values.values
        bisect = induce_risk(GainLossRatio(), 0, z, x).values.values
        worst = max(worst, _gap(lp, bisect))
    hand = glr_dual_risk(0, 1.0, XVar(coin2(), [1.0, -1.0])).values.values[0]
    hand_gap = abs(hand - 1.0 / 3.0)
    ok = worst <= 1e-6 and hand_gap <= 1e-9
    _line(capsys, 4, ok, f"gain-loss duality, 300 instances over 2-8-leaf atoms: "
                 f"worst gap {worst:.2e} (<= 1e-6), hand instance off by "
                 f"{hand_gap:.1e} (<= 1e-9)")


def test_c05_dynamic_glr_consistency(capsys):
    d = DynamicMeasure(GainLossRatio())
    samples = 0
    agree_checked = 0
    all_pass = True
    tree_idx = 0
    while samples < 1000:
        # 2 periods = stages 0, 1, 2
        tree = random_tree(np.random.default_rng(5000 + tree_idx), periods=2)
        tree_idx += 1
        rep = check_time_consistency(d, tree, trials=10, rng_seed=tree_idx)
        samples += rep.samples
        agree_checked += rep.result("criteria_agreement").trials
        all_pass = all_pass and rep.consistent and rep.checks_pass()
    ok = all_pass and samples >= 1000
    _line(capsys, 5, ok, f"dynamic gain-loss consistency: {samples} (X, s, t, z) "
                 f"samples, zero violations, three criteria agree on all "
                 f"{agree_checked} decided samples")


def test_c06_lpm_search_matches_fixture(capsys):
    tree = binomial_tree(2)
    d = DynamicMeasure(lpm_ratio(2.0))
    rep = search_counterexample(d, tree, budget=100_000, rng_seed=0)
    found = rep.witness
    ok = found is not None and found["margin"] >= 1e-3
    if ok:
        verified, _ = verify_witness(d, tree, found, risk_tol=1e-12)
        ok = verified and _same(found, _pinned_witness())
    margin = found["margin"] if found else float("nan")
    _line(capsys, 6, ok, f"lpm-ratio search, budget 1e5 on the two-step binomial: "
                 f"margin {margin:.4g} (>= 1e-3), re-verified at 1e-12, "
                 f"matches the pinned fixture")


def test_c07_value_at_zero_exact(capsys):
    space = coin2()
    glr = GainLossRatio()
    v0 = evaluate(glr, 0, XVar.constant(space, 0.0)).values[0]
    v_tenth = evaluate(glr, 0, XVar.constant(space, 0.1)).values[0]
    zero = XVar.constant(space, 0.0)
    rho = [induce_risk(glr, 0, z, zero).values.values[0] for z in (1.0, 2.0)]
    ok = v0 == 0.0 and v_tenth == INF and rho[0] == 0.0 and rho[1] == 0.0
    _line(capsys, 7, ok, f"value at 0: beta(0) = {v0:g}, beta(1/10) = {v_tenth:g}, "
                 f"rho(0) = {rho[0]:g}, {rho[1]:g} at z = 1, 2 (all exact)")


def test_c08_axiom_suite(capsys):
    shipped = [GainLossRatio(),
               ExponentialUtilityMeasure(risk_aversion=1.0),
               CertaintyEquivalentMeasure(UtilitySpec("exp", lam=1.0)),
               ExpectedUtilityMeasure(UtilitySpec("power", eta=0.5)),
               ConditionalExpectation(),
               lpm_ratio(2.0),
               raroc(0.5)]
    tree = binomial_tree(2)
    bad = []
    for m in shipped:
        rep = check_axioms(m, tree, 1, trials=500, rng_seed=8)
        bad += [f"{m.label()}:{r.name}" for r in rep.results
                if r.passed is False]
    glr_si = check_scale_invariance(GainLossRatio(), tree, 1, trials=500,
                                    rng_seed=8).passed
    lpm_si = check_scale_invariance(lpm_ratio(2.0), tree, 1, trials=500,
                                    rng_seed=8).passed
    exp_rep = check_scale_invariance(ExponentialUtilityMeasure(risk_aversion=1.0),
                                     tree, 1, trials=500, rng_seed=8)
    exp_failures = [r for r in exp_rep.results if r.passed is False]
    exp_fails_with_witness = bool(exp_failures) and any(
        r.witness is not None for r in exp_failures)
    ok = not bad and glr_si and lpm_si and exp_fails_with_witness
    _line(capsys, 8, ok, f"axiom suite, {len(shipped)} measures x 500 trials: "
                 f"{'no failures' if not bad else bad}; scale invariance "
                 f"passes for gain-loss and lpm-ratio, fails with witness "
                 f"for exponential utility")


def test_c09_risk_curve_structure(capsys):
    space = binomial_tree(2)
    x = XVar(space, [3.0, -1.0, 2.0, -2.0])
    curves_ok = True
    for m, grid in ((GainLossRatio(), np.linspace(0.1, 8.0, 50)),
                    (ExponentialUtilityMeasure(risk_aversion=1.0),
                     np.linspace(-5.0, 0.9, 50))):
        for t in space.times:
            mat = risk_curve(m, t, x, grid).matrix()
            curves_ok = curves_ok and bool(np.all(np.diff(mat, axis=0) >= -1e-9))
    lam_min = 1.0
    fam = entropic_family(lam_min)
    deep = fam.zero_log_level(space, 0, 1e6 * lam_min + 37.0)
    divergence_ok = bool(np.max(deep) < -1e6)
    ok = curves_ok and divergence_ok
    _line(capsys, 9, ok, f"risk curves monotone on 50-point grids; zero-claim "
                 f"threshold {float(np.max(deep)):.0f} < -1e6 past the "
                 f"matching log-level grid point")


def test_c10_dividend_lift(capsys):
    tree = binomial_tree(2)
    bad = []
    for m in (GainLossRatio(), ExponentialUtilityMeasure(risk_aversion=1.0)):
        rep = check_lift_axioms(m, tree, trials=300, rng_seed=10)
        bad += [f"{m.label()}:{r.name}" for r in rep.results
                if r.passed is False]
    lift_rep = check_lift_time_consistency(DynamicMeasure(lpm_ratio(2.0)),
                                           tree, trials=60, rng_seed=0,
                                           witness=_pinned_witness())
    transported = lift_rep.result("transport_to_process").passed is True
    ok = not bad and transported
    _line(capsys, 10, ok, f"dividend lift: round trip exact and seven stream "
                  f"properties on 2 x 300 processes "
                  f"({'no failures' if not bad else bad}); lpm witness "
                  f"transports to the process level")


def test_c11_dynamic_ce_strong_consistency(capsys):
    rng = np.random.default_rng(1111)
    m = CertaintyEquivalentMeasure(UtilitySpec("exp", lam=1.0))
    worst = 0.0
    for i in range(300):
        tree = random_tree(np.random.default_rng(7000 + i % 50), periods=2)
        stages = tree.times
        s = int(rng.integers(0, len(stages) - 1))
        t = int(rng.integers(s + 1, len(stages)))
        x = XVar(tree, rng.uniform(-4.0, 4.0, tree.n_leaves))
        inner = evaluate(m, t, x).promote()
        nested = evaluate(m, s, inner).values
        direct = evaluate(m, s, x).values
        worst = max(worst, float(np.max(np.abs(nested - direct))))
    ok = worst <= 1e-9
    _line(capsys, 11, ok, f"certainty-equivalent tower property, 300 instances: "
                  f"worst |C_s(C_t(X)) - C_s(X)| = {worst:.2e} (<= 1e-9)")
