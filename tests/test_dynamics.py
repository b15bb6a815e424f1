import json
import math
from importlib import resources

import numpy as np
import pytest

from perflat import (INF, CertaintyEquivalentMeasure, CustomMeasure, DynamicMeasure,
                     ExponentialUtilityMeasure, GainLossRatio, TVar, UtilitySpec,
                     XVar, binomial_tree, check_penalty_inequality_coherent,
                     check_riskaversion_monotone_consistency,
                     check_time_consistency, evaluate, globalize_witness,
                     induce_risk, lpm_ratio, random_tree, raroc,
                     search_counterexample, verify_witness)
from perflat import dynamics
from perflat.dynamics import (_best_separations, _child_min, _make_witness,
                              _ratio_feasible, _stage_pairs)
from perflat.lattice import dump_json, sample_xvar


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



def test_child_min_takes_rows():
    rng = np.random.default_rng(4)
    space = binomial_tree(3)
    rows = rng.uniform(-4.0, 4.0, (9, space.n_atoms(2)))
    rows[rng.random(rows.shape) < 0.2] = np.inf
    got = _child_min(space, 1, 2, rows)
    assert all(np.array_equal(g, _child_min(space, 1, 2, r)) for g, r in zip(got, rows))


# ---------------------------------------------------------------------------
# the batched routes against the sequential ones, byte for byte
#
# The references keep the one-candidate, one-level code that the search and the
# consistency check ran before they were batched: _search_sequential runs the
# restarts one after another and scores one candidate per call, and
# _consistency_per_level makes one induce_risk call per (stage, level).


def _mid_level(lo, hi, z_d, z_u):
    """A level strictly separating lo < hi, strictly inside (z_d, z_u), or None."""
    if not lo < hi:
        return None
    u = 0.5 * (math.atan(max(lo, z_d)) + math.atan(min(hi, z_u)))
    z = float(np.tan(u))
    if not (lo < z < hi and z_d < z < z_u):
        return None
    return z


def _best_of(space, pairs, betas, z_d, z_u):
    """The best localized separation of one candidate, entry by entry."""
    best = (-INF, None)
    for s, t in pairs:
        bt_mins = _child_min(space, s, t, betas[t]).tolist()
        for k, (bs_k, bt_min) in enumerate(zip(betas[s].tolist(), bt_mins)):
            if not math.isfinite(bs_k):
                continue
            z = _mid_level(bs_k, bt_min, z_d, z_u)
            if z is None:
                continue
            m = min(bt_min - z, z - bs_k)
            if m > best[0]:
                best = (m, (s, t, z, k, bs_k, bt_min))
    return best


def _search_sequential(d, space, n_restarts, rng_seed, per_restart):
    pairs = _stage_pairs(space)
    n = space.n_leaves

    def score(leaf_values):
        x = XVar(space, leaf_values, validate=False)
        betas = {r: d.beta(r, x).values for r in space.times}
        return _best_of(space, pairs, betas, *d.interval)

    def one_restart(r):
        rng = dynamics.derived_rng(rng_seed, 42, r)
        xv = rng.uniform(-4.0, 4.0, n)
        best_m, best_info = score(xv)
        best_x = xv.copy()
        used = 1
        step = 4.0
        while step > 1e-4 and used < per_restart:
            improved = False
            for i in range(n):
                if used >= per_restart:
                    break
                for sgn in (1.0, -1.0):
                    if used >= per_restart:
                        break
                    trial_v = best_x.copy()
                    trial_v[i] += sgn * step
                    m, info = score(trial_v)
                    used += 1
                    if info is not None and m > best_m + 1e-12:
                        best_m, best_info, best_x = m, info, trial_v
                        improved = True
                        break
            if not improved:
                step *= 0.5
        if best_info is None:
            return None, used
        return _make_witness(space, *best_info, x=XVar(space, best_x).to_json()), used

    return [one_restart(r) for r in range(n_restarts)]


def _consistency_per_level(d, x, z_grid, tol):
    return {r: [induce_risk(d.measure, r, z, x, tol=tol).values.values for z in z_grid]
            for r in x.space.times}


def _one_row_glr():
    """A values-only measure whose fn refuses a batch of rows."""
    def fn(space, t, leaf_values):
        assert leaf_values.ndim == 1, "one row at a time"
        return GainLossRatio().values(space, t, leaf_values)

    return CustomMeasure(fn, z_d=0.0, z_u=INF, kind="one_row_glr")


_MEASURES = {"lpm": lambda: lpm_ratio(2.0), "glr": GainLossRatio,
             "exp": lambda: ExponentialUtilityMeasure(0.7),
             "ce": lambda: CertaintyEquivalentMeasure(UtilitySpec("exp", lam=1.0)),
             "raroc": lambda: raroc(0.5), "one_row_glr": _one_row_glr}
_SPACES = {"tree2": lambda: binomial_tree(2), "tree3": lambda: binomial_tree(3),
           "random1": lambda: random_tree(np.random.default_rng(1), periods=2,
                                          max_leaves=8),
           "random2": lambda: random_tree(np.random.default_rng(2), periods=2,
                                          max_leaves=8)}
# (per_restart, budget, rng_seed): one candidate per restart; budgets that end
# mid-sweep; restarts that stop on the step before their 300; a budget under
# per_restart.  On tree2 each of these lpm searches certifies a witness.
_SEARCHES = [(1, 6, 3), (3, 20, 7), (10, 64, 1), (300, 600, 5), (300, 90, 11)]


def _both_routes(monkeypatch, seam, reference, run):
    batched = dump_json(run().to_json())
    with monkeypatch.context() as mp:
        mp.setattr(dynamics, seam, reference)
        sequential = dump_json(run().to_json())
    return batched, sequential


@pytest.mark.parametrize("space_name", list(_SPACES))
@pytest.mark.parametrize("measure", list(_MEASURES))
def test_lockstep_search_matches_the_sequential_restarts(measure, space_name,
                                                         monkeypatch):
    d, space = DynamicMeasure(_MEASURES[measure]()), _SPACES[space_name]()
    for per_restart, budget, seed in _SEARCHES:
        def run():
            return search_counterexample(d, space, budget=budget, rng_seed=seed,
                                         per_restart=per_restart)

        batched, sequential = _both_routes(monkeypatch, "_lockstep_restarts",
                                           _search_sequential, run)
        assert batched == sequential, (per_restart, budget)


def test_search_cases_reach_every_stop():
    # the cases above include restarts that stop on the step before their budget
    # and searches whose budget ends mid-sweep, and some that certify a witness
    d, space = DynamicMeasure(lpm_ratio(2.0)), binomial_tree(2)
    runs = [_search_sequential(d, space, max(1, b // p), seed, p)
            for p, b, seed in _SEARCHES]
    used = [u for run in runs for _, u in run]
    assert min(used[-3:]) < 300                      # stopped on the step
    assert any(u % (2 * space.n_leaves) for u in used[:-3])  # mid-sweep
    assert len(runs[-1]) == 1 and used[-1] > 90     # budget 90 < per_restart
    assert all(search_counterexample(d, space, budget=b, rng_seed=seed,
                                     per_restart=p).witness for p, b, seed in _SEARCHES)


@pytest.mark.parametrize("space_name", list(_SPACES))
@pytest.mark.parametrize("measure", list(_MEASURES))
def test_level_rows_match_the_per_level_consistency_check(measure, space_name,
                                                          monkeypatch):
    d, space = DynamicMeasure(_MEASURES[measure]()), _SPACES[space_name]()
    z_d, z_u = d.interval
    grid = ([0.3, 1.1, 7.0] if z_d == 0.0 else
            [-3.0, -0.2, 0.5] if z_u == 1.0 else [-3.0, 0.2, 1.5])

    def with_inf_legs(space, rng):
        return sample_xvar(space, rng, inf_prob=0.25)

    for kw in ({"trials": 4, "rng_seed": 5}, {"z_grid": grid, "trials": 3},
               {"trials": 3, "rng_seed": 2, "sampler": with_inf_legs}):
        batched, sequential = _both_routes(
            monkeypatch, "_stage_risks", _consistency_per_level,
            lambda: check_time_consistency(d, space, **kw))
        assert batched == sequential, kw


def test_level_rows_match_the_per_level_profile_check(monkeypatch):
    space = binomial_tree(3)
    lam = {t: np.linspace(0.5, 1.5, space.n_atoms(t)) for t in space.times}
    batched, sequential = _both_routes(
        monkeypatch, "_stage_risks", _consistency_per_level,
        lambda: check_riskaversion_monotone_consistency(lam, space, trials=4))
    assert batched == sequential


def _beta_rows(rng, space, rows, kind):
    """Stage values for the scorer: spread over many scales, or on a coarse grid
    (ties between entries), with +inf on some atoms."""
    out = {}
    for r in space.times:
        shape = (rows, space.n_atoms(r))
        if kind == "spread":
            v = rng.standard_cauchy(shape) * 10.0 ** rng.integers(-3, 4, shape)
        else:
            v = rng.integers(-2, 5, shape) * 0.5
        v[rng.random(shape) < 0.1] = INF
        out[r] = v
    return out


@pytest.mark.parametrize("interval", [(0.0, INF), (-INF, 1.0), (-INF, INF)])
@pytest.mark.parametrize("kind", ["spread", "coarse"])
def test_batched_scores_match_the_scan_of_one_candidate(interval, kind):
    # every row's best entry, level and margin, bit for bit; "spread" rows put the
    # arctan midpoint where np.arctan and math.atan disagree, "coarse" rows tie
    # entries, where the first one in (pair, atom) order must win
    rng = np.random.default_rng(11)
    space = binomial_tree(3)
    pairs = _stage_pairs(space)
    betas = _beta_rows(rng, space, 3000, kind)
    m, col, lzh = _best_separations(space, pairs, betas, *interval)
    cols = [(p, k) for p, (s, _) in enumerate(pairs) for k in range(space.n_atoms(s))]
    for i in range(m.size):
        want_m, info = _best_of(space, pairs, {r: b[i] for r, b in betas.items()},
                                *interval)
        if info is None:
            assert m[i] == -INF
            continue
        s, t, z, k, lo, hi = info
        assert (m[i], cols[col[i]], tuple(lzh[i])) == (want_m, (pairs.index((s, t)), k),
                                                       (lo, z, hi))
