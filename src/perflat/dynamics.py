"""Dynamic measures over stages and time-consistency verification.

A dynamic measure applies one measure recipe at every stage of a filtered
space, with the level bounds (z_d, z_u) shared across stages.  Time
consistency is the family of implications, one per stage pair s < t and
interior level z,

    beta_t(X) > z everywhere   ==>   beta_s(X) > z everywhere,

together with its two reformulations through the induced risk (strict sign:
rho_t < 0 everywhere implies rho_s < 0 everywhere; weak sign: the same with
<=).  Away from numerical ties the three readings must agree, and every
genuine violation localizes: some F_s-atom sits at or below the level while
all of its F_t-children sit strictly above.  The checkers here sample
payoffs, track all three readings, and certify counterexamples by
re-verification with explicit margins at tightened bisection tolerance.
"consistent-on-sample" is a sampling verdict, never a proof.
"""
from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .lattice import (INF, FilteredSpace, TVar, XVar, jsonable, paste, EventMask,
                      sample_xvar)
from .measures import (ExponentialUtilityMeasure, GainLossRatio,
                       PerformanceMeasure, evaluate)
from .report import CheckResult, Report
from .risk_family import TOL_C, DualMeasure, induce_risk, sample_glr_density
from .util import derived_rng, task_map

CRITERIA = ("measure-level", "strict-risk", "weak-risk")

# level gaps below TIE_BETA carry no verdict; same for risks within TIE_RHO
# of zero (the bisection cannot attest a sign that close to its tolerance)
TIE_BETA = 1e-6
TIE_RHO = 10.0 * TOL_C


@dataclass(frozen=True)
class DynamicMeasure:
    """One measure recipe applied at every stage, with shared level bounds.

    Stage dependence enters only through the measure's own parameters (a
    risk-aversion profile, say); the bounds z_d, z_u never depend on the
    stage, which is what makes a single level z comparable across stages.
    """

    measure: PerformanceMeasure
    label: str = ""

    @property
    def interval(self) -> tuple[float, float]:
        return (self.measure.z_d, self.measure.z_u)

    def beta(self, t: int, x: XVar) -> TVar:
        return evaluate(self.measure, t, x)

    def risk(self, t: int, z: float, x: XVar, tol: float = TOL_C) -> TVar:
        return induce_risk(self.measure, t, z, x, tol=tol).values

    def name(self) -> str:
        return self.label or self.measure.label()


@dataclass
class ConsistencyReport:
    """Outcome of a sampling-based time-consistency check.

    The verdict is "consistent-on-sample" or "counterexample"; only the
    latter is a certificate.  A witness, when present, has re-verified with
    margins: beta_t > z + 1e-9 on every F_t-child of the named F_s-atom
    while beta_s <= z - 1e-9 on the atom itself, and the induced risks
    confirm the signs (rho_t < 0 on the children, rho_s > 0 on the atom) at
    bisection tolerance 1e-12.
    """

    verdict: str
    criteria_checked: tuple = CRITERIA
    trials: int = 0
    samples: int = 0
    seed: int | None = None
    witness: dict | None = None
    checks: list[CheckResult] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent-on-sample"

    def add(self, result: CheckResult) -> CheckResult:
        self.checks.append(result)
        return result

    def check(self, name: str) -> CheckResult:
        for r in self.checks:
            if r.name == name:
                return r
        raise KeyError(f"no check named {name!r}")

    def checks_pass(self) -> bool:
        return all(r.passed is not False for r in self.checks)

    def to_json(self) -> dict:
        return {"verdict": self.verdict,
                "criteria": list(self.criteria_checked),
                "trials": self.trials, "samples": self.samples,
                "seed": self.seed, "witness": jsonable(self.witness),
                "checks": [r.to_json() for r in self.checks],
                "meta": jsonable(self.meta)}

    def summary_lines(self) -> list[str]:
        lines = [f"verdict: {self.verdict} (trials={self.trials}, "
                 f"samples={self.samples}, seed={self.seed})"]
        if self.witness is not None:
            w = self.witness
            lines.append(f"witness: s={w['s']} t={w['t']} z={w['z']:.6g} "
                         f"atom={w['atom']} margin={w['margin']:.4g}")
        for r in self.checks:
            status = "PASS" if r.passed else "INFO" if r.passed is None else "FAIL"
            extra = f" ({r.note})" if r.note else ""
            lines.append(f"[{status}] {r.name}: {r.failures}/{r.trials}{extra}")
        return lines


def _witness_key(w: dict) -> str:
    """Canonical encoding, used to break ties deterministically."""
    return json.dumps(jsonable(w), sort_keys=True)


def _level_grid(z_d: float, z_u: float, n: int = 5) -> list[float]:
    """Interior levels spread evenly in arctan coordinates."""
    lo = math.atan(max(z_d, -1e6))
    hi = math.atan(min(z_u, 1e6))
    us = np.linspace(lo, hi, n + 2)[1:-1]
    return [float(np.tan(u)) for u in us]


def _mid_level(lo: float, hi: float, z_d: float, z_u: float) -> float | None:
    """A level strictly separating lo < hi, strictly inside (z_d, z_u).

    Midpoint in arctan coordinates so infinite endpoints stay usable.
    """
    if not lo < hi:
        return None
    u = 0.5 * (math.atan(max(lo, z_d)) + math.atan(min(hi, z_u)))
    z = float(np.tan(u))
    if not (lo < z < hi and z_d < z < z_u):
        return None
    return z


def _stage_pairs(space: FilteredSpace) -> list[tuple[int, int]]:
    ts = list(space.times)
    return [(s, t) for i, s in enumerate(ts) for t in ts[i + 1:]]


def _sub_table(space: FilteredSpace, pairs) -> dict:
    table = {}
    for s, t in pairs:
        table[(s, t)] = [np.asarray(space.subatoms(s, t, k), dtype=np.intp)
                         for k in range(space.n_atoms(s))]
    return table


def _make_witness(space: FilteredSpace, x: XVar, s: int, t: int, z: float,
                  k: int, beta_s: float, beta_t_min: float) -> dict:
    return {"x": x.to_json(), "s": int(s), "t": int(t), "z": float(z),
            "atom": space.atom_id(s, k),
            "beta_s": float(beta_s), "beta_t_min": float(beta_t_min),
            "margin": float(min(beta_t_min - z, z - beta_s))}


def verify_witness(d: DynamicMeasure, space: FilteredSpace, witness: dict,
                   x: XVar | None = None, *, beta_margin: float = 1e-9,
                   risk_tol: float = 1e-12) -> tuple[bool, dict]:
    """Recompute a localized violation with margins and tight bisection.

    Confirms beta_t > z + beta_margin on every F_t-child of the named
    F_s-atom and beta_s <= z - beta_margin on the atom itself, then checks
    the matching risk signs (rho_t < 0 on the children, rho_s > 0 on the
    atom) with the bisection tolerance lowered to risk_tol.  Returns the
    pass flag and the recomputed numbers.
    """
    s, t, z = int(witness["s"]), int(witness["t"]), float(witness["z"])
    if x is None:
        x = XVar.from_json(witness["x"], space)
    k = space.atom_by_id(s, witness["atom"])
    return _verify_localized(d, space, s, t, z, k, x, x, beta_margin=beta_margin,
                             risk_tol=risk_tol)


def _verify_localized(d: DynamicMeasure, space: FilteredSpace, s: int, t: int,
                      z: float, k: int, x_s: XVar, x_t: XVar, *,
                      beta_margin: float = 1e-9,
                      risk_tol: float = 1e-12) -> tuple[bool, dict]:
    """verify_witness on F_s-atom k, with the stage-s and stage-t payoffs apart.

    A stream is valued at each stage through the aggregate of its payments from that
    stage on, so the two stages may see different payoffs.
    """
    subs = np.asarray(space.subatoms(s, t, k), dtype=np.intp)
    bt = d.beta(t, x_t).values[subs]
    bs = float(d.beta(s, x_s).values[k])
    detail = {"beta_t_min": float(bt.min()), "beta_s": bs}
    ok = bool(np.all(bt > z + beta_margin)) and bs <= z - beta_margin
    if ok:
        rt = d.risk(t, z, x_t, tol=risk_tol).values[subs]
        rs = float(d.risk(s, z, x_s, tol=risk_tol).values[k])
        detail["rho_t_max"] = float(rt.max())
        detail["rho_s"] = rs
        ok = bool(np.all(rt < 0.0)) and rs > 0.0
    return ok, detail


def globalize_witness(d: DynamicMeasure, space: FilteredSpace,
                      witness: dict) -> XVar:
    """Paste a localized witness into a payoff violating the implication
    on the whole space.

    Off the witness atom the payoff is replaced by a constant large enough
    that beta_t stays above the level there (falling back to +inf, where the
    value is the upper bound); by locality the values on the atom do not
    move, so beta_t > z everywhere while beta_s <= z on the witness atom.
    """
    s, t, z = int(witness["s"]), int(witness["t"]), float(witness["z"])
    x = XVar.from_json(witness["x"], space)
    k = space.atom_by_id(s, witness["atom"])
    mask = EventMask.of_atoms(space, s, [k])
    others = ~mask.leaf_values()
    if not others.any():
        return x
    for c in [1.0, 4.0, 64.0, 2.0 ** 20, 2.0 ** 40, INF]:
        filler = XVar.constant(space, c)
        x_new = paste(x, filler, mask)
        bt = d.beta(t, x_new).values
        off = np.unique(space.atom_index[t][others])
        if np.all(bt[off] > z):
            return x_new
    raise RuntimeError("no constant filler keeps the off-atom values above "
                       "the level; the upper bound must sit at the level")


def check_time_consistency(d: DynamicMeasure, space: FilteredSpace,
                           z_grid=None, trials: int = 200, rng_seed: int = 0,
                           *, tol: float = TOL_C, sampler=None) -> ConsistencyReport:
    """Sample payoffs and test the level implications on every stage pair.

    Each sample is one (X, s, t, z) with s < t taken from all stage pairs
    (adjacent and transitive alike) and z from the grid.  All three readings
    run on every sample; ties (level gap under 1e-6 or risk within 10*tol_c
    of zero) carry no verdict and are skipped.  Away from ties the readings
    must agree, and disagreement fails the criteria_agreement entry.  A
    localized scan per F_s-atom supplies counterexample candidates, accepted
    only after re-verification; the first accepted witness (in scan order)
    is reported.
    """
    if space.horizon < 1:
        raise ValueError("need at least two stages")
    z_d, z_u = d.interval
    if z_grid is None:
        z_grid = _level_grid(z_d, z_u)
    z_grid = [float(z) for z in z_grid]
    for z in z_grid:
        if not z_d < z < z_u:
            raise ValueError(f"level {z:g} is outside ({z_d:g}, {z_u:g})")
    pairs = _stage_pairs(space)
    subs_of = _sub_table(space, pairs)

    rep = ConsistencyReport("consistent-on-sample", CRITERIA, trials, 0, rng_seed)
    viol = dict.fromkeys(CRITERIA, 0)
    ties_skipped = 0
    agree_checked = 0
    agree_failed = 0
    cand_total = cand_ties = cand_rejected = cand_verified = 0

    for trial in range(trials):
        rng = derived_rng(rng_seed, 41, trial)
        x = sampler(space, rng) if sampler is not None else sample_xvar(space, rng)
        betas = {r: d.beta(r, x).values for r in space.times}
        rho_cache: dict = {}

        def rho(r, z, _x=x, _c=rho_cache):
            if (r, z) not in _c:
                _c[(r, z)] = induce_risk(d.measure, r, z, _x, tol=tol).values.values
            return _c[(r, z)]

        for s, t in pairs:
            bs_all, bt_all = betas[s], betas[t]
            for z in z_grid:
                rep.samples += 1
                rt, rs = rho(t, z), rho(s, z)
                prem = (bool(np.all(bt_all > z)), bool(np.all(rt < 0.0)),
                        bool(np.all(rt <= 0.0)))
                concl = (bool(np.all(bs_all > z)), bool(np.all(rs < 0.0)),
                         bool(np.all(rs <= 0.0)))
                tie = (np.min(np.abs(bt_all - z)) < TIE_BETA or
                       np.min(np.abs(bs_all - z)) < TIE_BETA or
                       np.min(np.abs(rt)) < TIE_RHO or
                       np.min(np.abs(rs)) < TIE_RHO)
                hit = [prem[i] and not concl[i] for i in range(3)]
                if tie:
                    ties_skipped += sum(hit)
                else:
                    for i, c in enumerate(CRITERIA):
                        viol[c] += hit[i]
                    agree_checked += 1
                    if not ((prem[0], concl[0]) == (prem[1], concl[1])
                            == (prem[2], concl[2])):
                        agree_failed += 1

                # localized scan: an F_s-atom at or below the level whose
                # F_t-children all sit strictly above it
                for k, sub in enumerate(subs_of[(s, t)]):
                    bt_min = float(bt_all[sub].min())
                    bs_k = float(bs_all[k])
                    if not bt_min > z >= bs_k:
                        continue
                    cand_total += 1
                    if min(bt_min - z, z - bs_k) < TIE_BETA:
                        cand_ties += 1
                        continue
                    w = _make_witness(space, x, s, t, z, k, bs_k, bt_min)
                    ok, detail = verify_witness(d, space, w, x=x)
                    if ok:
                        cand_verified += 1
                        w.update(detail)
                        if rep.witness is None:
                            rep.witness = w
                    else:
                        cand_rejected += 1

    for c in CRITERIA:
        rep.add(CheckResult(f"eq_tc[{c}]", viol[c] == 0, rep.samples, viol[c]))
    rep.add(CheckResult("criteria_agreement", agree_failed == 0, agree_checked,
                        agree_failed,
                        note=f"{rep.samples - agree_checked} tie samples excluded"))
    rep.add(CheckResult("localized_violations", cand_verified == 0, cand_total,
                        cand_verified,
                        note=(f"{cand_ties} tie candidates discarded, "
                              f"{cand_rejected} failed re-verification")))
    if rep.witness is not None:
        rep.verdict = "counterexample"
    rep.meta = {"measure": d.name(), "z_grid": z_grid,
                "stage_pairs": [list(p) for p in pairs], "tol": tol,
                "ties_skipped": ties_skipped}
    return rep


def search_counterexample(d: DynamicMeasure, space: FilteredSpace,
                          budget: int = 100_000, rng_seed: int = 0, *,
                          low: float = -4.0, high: float = 4.0,
                          per_restart: int = 300) -> ConsistencyReport:
    """Randomized restarts with coordinate refinement over leaf payoffs.

    Each candidate payoff is scored by the best localized separation it
    achieves: over all stage pairs and F_s-atoms, place the level at the
    arctan midpoint between beta_s on the atom and the smallest beta_t over
    the atom's F_t-children, and take the smaller of the two gaps.  budget
    counts scored candidates.  Margins under 1e-6 are numerical ties and
    never accepted; a candidate becomes a counterexample only after
    re-verification with 1e-9 level margins and risk signs at bisection
    tolerance 1e-12.  Deterministic for fixed (budget, rng_seed): restarts
    draw derived seeds, and the best witness wins by (margin, canonical
    encoding) order regardless of evaluation scheduling.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    rep = ConsistencyReport("consistent-on-sample", CRITERIA, 0, 0, rng_seed)
    rep.meta = {"measure": d.name(), "budget": budget}
    if space.horizon < 1:
        rep.meta["note"] = "single stage: nothing to compare"
        return rep
    z_d, z_u = d.interval
    pairs = _stage_pairs(space)
    subs_of = _sub_table(space, pairs)
    n = space.n_leaves

    def score(leaf_values):
        x = XVar(space, leaf_values, validate=False)
        betas = {r: d.beta(r, x).values for r in space.times}
        best = (-INF, None)
        for s, t in pairs:
            bs_all, bt_all = betas[s], betas[t]
            for k, sub in enumerate(subs_of[(s, t)]):
                bs_k = float(bs_all[k])
                if not math.isfinite(bs_k):
                    continue
                bt_min = float(bt_all[sub].min())
                z = _mid_level(bs_k, bt_min, z_d, z_u)
                if z is None:
                    continue
                m = min(bt_min - z, z - bs_k)
                if m > best[0]:
                    best = (m, (s, t, k, z, bs_k, bt_min))
        return best

    def one_restart(r):
        rng = derived_rng(rng_seed, 42, r)
        xv = rng.uniform(low, high, n)
        best_m, best_info = score(xv)
        best_x = xv.copy()
        used = 1
        step = 0.5 * (high - low)
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
        s, t, k, z, bs_k, bt_min = best_info
        w = _make_witness(space, XVar(space, best_x), s, t, z, k, bs_k, bt_min)
        return w, used

    n_restarts = max(1, budget // per_restart)
    results = task_map(one_restart, range(n_restarts))
    rep.trials = n_restarts
    rep.samples = sum(used for _, used in results)
    candidates = [w for w, _ in results if w is not None and w["margin"] >= TIE_BETA]
    candidates.sort(key=lambda w: (-w["margin"], _witness_key(w)))
    rep.meta["candidates"] = len(candidates)
    if candidates:
        rep.meta["best_margin_scored"] = candidates[0]["margin"]
    rejected = 0
    for w in candidates[:25]:
        ok, detail = verify_witness(d, space, w)
        if ok:
            w.update(detail)
            rep.witness = w
            rep.verdict = "counterexample"
            break
        rejected += 1
    rep.add(CheckResult("search", None, rep.samples, 0,
                        note=(f"{len(candidates)} candidates, {rejected} failed "
                              f"re-verification")))
    return rep


def check_riskaversion_monotone_consistency(lam_process, space: FilteredSpace | None = None,
                                            *, trials: int = 80, rng_seed: int = 0,
                                            z_positive=None, z_negative=None) -> Report:
    """Exponential-utility families: consistency verdicts next to the
    pathwise monotonicity of the risk-aversion profile.

    Which monotonicity direction helps depends on the sign of the level, so
    the check runs three grids (negative levels, positive levels, both) and
    records the verdicts beside the detected profile instead of asserting a
    single orientation.  A constant profile reduces to one deterministic
    utility and is asserted consistent outright.
    """
    if space is None:
        if isinstance(lam_process, TVar):
            space = lam_process.space
        elif isinstance(lam_process, Mapping):
            for v in lam_process.values():
                if isinstance(v, TVar):
                    space = v.space
                    break
    if space is None:
        raise ValueError("pass the space explicitly unless the profile "
                         "contains stage variables")
    m = ExponentialUtilityMeasure(risk_aversion=lam_process)
    d = DynamicMeasure(m)

    lam_leaf = np.stack([m.lam_at(space, t)[space.atom_index[t]]
                         for t in space.times])
    diffs = np.diff(lam_leaf, axis=0)
    nondecr = bool(np.all(diffs >= -1e-12))
    nonincr = bool(np.all(diffs <= 1e-12))
    if nondecr and nonincr:
        profile = "constant"
    elif nondecr:
        profile = "nondecreasing in t"
    elif nonincr:
        profile = "nonincreasing in t"
    else:
        profile = "non-monotone"

    rep = Report("risk aversion profile vs consistency", seed=rng_seed,
                 meta={"profile": profile})
    rep.add(CheckResult("lambda_profile", None, note=profile))

    grids = {"negative-levels": z_negative or [-10.0, -2.0, -0.5],
             "positive-levels": z_positive or [0.1, 0.4, 0.8]}
    grids["all-levels"] = grids["negative-levels"] + grids["positive-levels"]
    verdicts = {}
    for name, grid in grids.items():
        sub = check_time_consistency(d, space, z_grid=grid, trials=trials,
                                     rng_seed=rng_seed)
        verdicts[name] = sub.verdict
        note = f"verdict: {sub.verdict}"
        if sub.witness is not None:
            note += (f"; witness s={sub.witness['s']} t={sub.witness['t']} "
                     f"z={sub.witness['z']:.4g}")
        passed = sub.consistent if profile == "constant" else None
        rep.add(CheckResult(f"consistent[{name}]", passed, sub.samples,
                            0 if sub.consistent else 1, witness=sub.witness,
                            note=note))
    for orient, holds in [("nondecreasing in t", nondecr),
                          ("nonincreasing in t", nonincr)]:
        rep.add(CheckResult(
            f"orientation[{orient}]", None,
            note=(f"profile {'satisfies' if holds else 'violates'} it; "
                  f"verdicts: " + ", ".join(f"{k}={v}" for k, v in verdicts.items()))))
    rep.meta["verdicts"] = verdicts
    return rep


def _ratio_feasible(space: FilteredSpace, r: int, z: float,
                    density: np.ndarray) -> np.ndarray:
    """Per F_r-atom: do the density ratios stay within a factor 1 + z?

    Renormalization inside the atom cancels out of the ratios, so the raw
    density against the reference weights is all that matters.  An atom the
    measure does not charge at all is feasible by convention (it never
    enters a conditional expectation under that measure).
    """
    out = np.zeros(space.n_atoms(r), dtype=bool)
    for k in range(space.n_atoms(r)):
        g = density[space.atom_index[r] == k]
        hi, lo = float(g.max()), float(g.min())
        out[k] = hi <= 0.0 or hi <= (1.0 + z) * lo * (1.0 + 1e-9) + 1e-12
    return out


def check_penalty_inequality_coherent(d: DynamicMeasure | PerformanceMeasure | None = None,
                                      z: float = 1.0, s: int = 0, t: int = 1,
                                      q_samples=(), *, space: FilteredSpace | None = None,
                                      rng_seed: int = 0, n_random: int = 8) -> Report:
    """Penalty aggregation for the coherent gain-loss family.

    The family's acceptability region at level z is a ratio polytope, so the
    penalty is two-valued: zero on the F_r-atoms where the test measure's
    density ratios stay within 1 + z, infinite elsewhere.  The inequality

        E^Q_s[ alpha_t(Q) ] <= alpha_s(Q)     per F_s-atom

    then holds with no slack, because feasibility over an s-atom constrains
    every leaf pair at once, including all pairs inside each of its
    t-children.  The reverse inclusion (feasible on every child => feasible
    on the parent) is genuinely false; observed failures of it are collected
    as an informational entry rather than a defect.
    """
    if d is None:
        d = DynamicMeasure(GainLossRatio())
    measure = d.measure if isinstance(d, DynamicMeasure) else d
    if getattr(measure, "kind", "") != "glr":
        raise ValueError("the two-valued penalty needs the coherent gain-loss "
                         f"family, not {getattr(measure, 'kind', type(measure))!r}")
    qs = list(q_samples)
    if space is None:
        if not qs:
            raise ValueError("pass a space or at least one test measure")
        space = qs[0].space
    s = space.check_stage(s)
    t = space.check_stage(t)
    if not s < t:
        raise ValueError("need s < t")
    if not 0.0 < z < INF:
        raise ValueError("level must be positive and finite")

    densities = [("P", np.ones(space.n_leaves))]
    for i, q in enumerate(qs):
        densities.append((f"given[{i}]", np.asarray(q.density, dtype=float)
                          if isinstance(q, DualMeasure) else np.asarray(q, dtype=float)))
    for i in range(n_random):
        rng = derived_rng(rng_seed, 43, i)
        densities.append((f"vertex_t[{i}]",
                          sample_glr_density(space, t, z, rng).density))
        densities.append((f"vertex_s[{i}]",
                          sample_glr_density(space, s, z, rng).density))
        raw = rng.exponential(1.0, space.n_leaves)
        densities.append((f"random[{i}]", raw / float(raw @ space.probs)))

    rep = Report("penalty aggregation (coherent family)", seed=rng_seed,
                 meta={"z": z, "s": s, "t": t, "n_measures": len(densities)})
    n_checked = n_viol = 0
    nest_checked = nest_viol = 0
    reverse_fail = []
    idx_t = space.atom_index[t]
    for name, g in densities:
        if np.any(g < -1e-12):
            raise ValueError(f"test measure {name} has a negative density")
        g = np.maximum(g, 0.0)
        feas_t = _ratio_feasible(space, t, z, g)
        feas_s = _ratio_feasible(space, s, z, g)
        w = g * space.probs
        for k in range(space.n_atoms(s)):
            children = space.subatoms(s, t, k)
            # E^Q_s[alpha_t]: infinite exactly when Q charges an infeasible child
            charged_bad = any((not feas_t[j]) and w[idx_t == j].sum() > 0.0
                              for j in children)
            lhs = INF if charged_bad else 0.0
            rhs = 0.0 if feas_s[k] else INF
            n_checked += 1
            if lhs > rhs:
                n_viol += 1
            nest_checked += 1
            if feas_s[k] and not all(feas_t[j] for j in children):
                nest_viol += 1
        if np.all(feas_t) and not np.all(feas_s):
            reverse_fail.append(name)

    rep.add(CheckResult("penalty_aggregation", n_viol == 0, n_checked, n_viol))
    rep.add(CheckResult("ratio_polytope_nesting", nest_viol == 0, nest_checked,
                        nest_viol,
                        note="parent-atom feasibility forces every child"))
    rep.add(CheckResult("reverse_nesting", None, len(densities), len(reverse_fail),
                        note=("child feasibility does not bound cross-child ratios; "
                              f"failed for: {', '.join(reverse_fail)}" if reverse_fail
                              else "no reverse failures in this sample")))
    return rep
