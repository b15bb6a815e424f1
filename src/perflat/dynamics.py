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

One trial loop (``_consistency_pass``) serves payoffs here and dividend streams in
``dividends``, given as the claim valued at each stage: per stage pair it reads the
three criteria over a chunk of trials and the level grid and, with one mask over
(trial, level, F_s-atom), finds the atoms at or below a level whose F_t-children
(``_child_min``) all sit above it.
Each candidate away from a tie goes to one verification core, which takes the stage
values the pass already holds.  A certified violation clears the level by
BETA_MARGIN on both sides.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .lattice import (INF, FilteredSpace, TVar, XVar, jsonable, paste, EventMask,
                      sample_xvar)
from .measures import (ExponentialUtilityMeasure, PerformanceMeasure, evaluate,
                       evaluate_rows)
from . import report
from .report import CheckResult, Report
from .risk_family import (TOL_C, DualMeasure, _induce_raw, induce_risk,
                          sample_glr_density)
from .util import derived_rng

CRITERIA = ("measure-level", "strict-risk", "weak-risk")

# level gaps below TIE_BETA carry no verdict
TIE_BETA = 1e-6
# a certified violation keeps the level this far from beta on both sides
BETA_MARGIN = 1e-9


@dataclass(frozen=True)
class DynamicMeasure:
    """One measure recipe applied at every stage, with shared level bounds.

    Stage dependence enters only through the measure's own parameters (a
    risk-aversion profile, say); the bounds z_d, z_u never depend on the
    stage, which is what makes a single level z comparable across stages.
    """

    measure: PerformanceMeasure

    @property
    def interval(self) -> tuple[float, float]:
        return (self.measure.z_d, self.measure.z_u)

    def beta(self, t: int, x: XVar) -> TVar:
        return evaluate(self.measure, t, x)

    def risk(self, t: int, z: float, x: XVar, tol: float = TOL_C) -> TVar:
        return induce_risk(self.measure, t, z, x, tol=tol).values

    def name(self) -> str:
        return self.measure.label()


@dataclass
class ConsistencyReport(Report):
    """Outcome of a sampling-based time-consistency check.

    The verdict is "consistent-on-sample" or "counterexample"; only the
    latter is a certificate.  A witness, when present, has re-verified with
    margins: beta_t > z + BETA_MARGIN on every F_t-child of the named F_s-atom
    while beta_s <= z - BETA_MARGIN on the atom itself, and the induced risks
    confirm the signs (rho_t < 0 on the children, rho_s > 0 on the atom) at
    bisection tolerance 1e-12.
    """

    title: str = "time consistency"
    verdict: str = "consistent-on-sample"
    trials: int = 0
    samples: int = 0
    witness: dict | None = None

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent-on-sample"

    # older name of passed, still called by the benchmark workloads
    def checks_pass(self) -> bool:
        return self.passed

    def to_json(self) -> dict:
        return {"verdict": self.verdict,
                "criteria": list(CRITERIA),
                "trials": self.trials, "samples": self.samples,
                "seed": self.seed, "witness": jsonable(self.witness),
                "checks": [r.to_json() for r in self.results],
                "meta": jsonable(self.meta)}

    def summary_lines(self) -> list[str]:
        lines = [f"verdict: {self.verdict} (trials={self.trials}, "
                 f"samples={self.samples}, seed={self.seed})"]
        if self.witness is not None:
            w = self.witness
            lines.append(f"witness: s={w['s']} t={w['t']} z={w['z']:.6g} "
                         f"atom={w['atom']} margin={w['margin']:.4g}")
        for r in self.results:
            status = "PASS" if r.passed else "INFO" if r.passed is None else "FAIL"
            extra = f" ({r.note})" if r.note else ""
            lines.append(f"[{status}] {r.name}: {r.failures}/{r.trials}{extra}")
        return lines


def _witness_key(w: dict) -> str:
    """Canonical encoding, used to break ties deterministically."""
    return json.dumps(jsonable(w), sort_keys=True)


def _level_grid(z_d: float, z_u: float) -> list[float]:
    """Five interior levels spread evenly in arctan coordinates."""
    lo = math.atan(max(z_d, -1e6))
    hi = math.atan(min(z_u, 1e6))
    us = np.linspace(lo, hi, 7)[1:-1]
    return [float(np.tan(u)) for u in us]


def _stage_pairs(space: FilteredSpace) -> list[tuple[int, int]]:
    ts = list(space.times)
    return [(s, t) for i, s in enumerate(ts) for t in ts[i + 1:]]


def _child_min(space: FilteredSpace, s: int, t: int, values: np.ndarray) -> np.ndarray:
    """Per F_s-atom, the smallest of the stage-t values over its F_t-children.

    values is one row (n_atoms(t),) or a batch (B, n_atoms(t)), reduced row by row.
    """
    out = np.full(values.shape[:-1] + (space.n_atoms(s),), INF)
    np.minimum.at(out, (..., space.atom_index[s]), values[..., space.atom_index[t]])
    return out


def _make_witness(space: FilteredSpace, s: int, t: int, z: float, k: int,
                  beta_s: float, beta_t_min: float, **payoff) -> dict:
    """A localized violation on F_s-atom k; payoff names the claim (x= or D=)."""
    return {**payoff, "s": int(s), "t": int(t), "z": float(z),
            "atom": space.atom_id(s, k),
            "beta_s": float(beta_s), "beta_t_min": float(beta_t_min),
            "margin": float(min(beta_t_min - z, z - beta_s))}


def verify_witness(d: DynamicMeasure, space: FilteredSpace, witness: dict,
                   x: XVar | None = None, *,
                   risk_tol: float = 1e-12) -> tuple[bool, dict]:
    """Recompute a localized violation with margins and tight bisection.

    Confirms beta_t > z + BETA_MARGIN on every F_t-child of the named
    F_s-atom and beta_s <= z - BETA_MARGIN on the atom itself, then checks
    the matching risk signs (rho_t < 0 on the children, rho_s > 0 on the
    atom) with the bisection tolerance lowered to risk_tol.  Returns the
    pass flag and the recomputed numbers.
    """
    s, t, z = int(witness["s"]), int(witness["t"]), float(witness["z"])
    if x is None:
        x = XVar.from_json(witness["x"], space)
    k = space.atom_by_id(s, witness["atom"])
    bt_min = float(_child_min(space, s, t, d.beta(t, x).values)[k])
    bs = float(d.beta(s, x).values[k])
    return _verify_localized(d, space, s, t, z, k, x, x, bs, bt_min,
                             risk_tol=risk_tol)


def _verify_localized(d: DynamicMeasure, space: FilteredSpace, s: int, t: int,
                      z: float, k: int, x_s: XVar, x_t: XVar, beta_s: float,
                      beta_t_min: float, *,
                      risk_tol: float = 1e-12) -> tuple[bool, dict]:
    """verify_witness on F_s-atom k, given beta_s on the atom and the smallest
    beta_t over its children.

    A stream is valued at each stage through the aggregate of its payments from that
    stage on, so the two stages may see different payoffs x_s and x_t.
    """
    detail = {"beta_t_min": beta_t_min, "beta_s": beta_s}
    ok = beta_t_min > z + BETA_MARGIN and beta_s <= z - BETA_MARGIN
    if ok:
        # the largest child risk, as minus the smallest negated one
        rt_max = -float(_child_min(space, s, t,
                                   -d.risk(t, z, x_t, tol=risk_tol).values)[k])
        rs = float(d.risk(s, z, x_s, tol=risk_tol).values[k])
        detail["rho_t_max"] = rt_max
        detail["rho_s"] = rs
        ok = rt_max < 0.0 and rs > 0.0
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


def _risk_signs(m: PerformanceMeasure, claims: dict, levels: np.ndarray,
                tol: float) -> dict:
    """Per stage r, the (n_claims, n_levels, n_atoms) flags rho < 0, rho <= 0 and
    |rho| < 10*tol of the claims in claims[r], a band where a search run to tol
    attests no sign; rho is one full search at tol over all of them (``_induce_raw``
    on claim rows), each claim's block bit for bit its own search.
    """
    out = {}
    for r, xs in claims.items():
        rho = _induce_raw(m, r, levels, xs, tol=tol)
        out[r] = (rho < 0.0, rho <= 0.0, np.abs(rho) < 10.0 * tol)
    return out


def _consistency_pass(d: DynamicMeasure, space: FilteredSpace, z_grid, trials: int,
                      rng_seed: int, key: int, draw, tol: float
                      ) -> tuple[ConsistencyReport, int]:
    """The trial loop of the time-consistency checks, for payoffs and streams alike.

    draw(rng), on derived_rng(rng_seed, key, k)'s stream for trial k, returns the
    claim valued at each stage (XVars keyed by stage) and a thunk for the witness
    fields that name it.  A chunk of trials, whose (trial, level) search rows hold at
    most ``report.LEAF_VALUES_PER_CALL`` leaf values, is valued with one
    ``evaluate_rows`` call and one search (``_risk_signs``) per stage; where that
    raises, trial by trial, so the first failing trial raises its own error.  Per
    stage pair the three readings fill the eq_tc and criteria_agreement entries, and
    one mask picks the localized candidates; each away from a tie goes to
    ``_verify_localized`` in (trial, stage pair, level, atom) order, and the first
    accepted one is the witness.  Returns the report and the number of
    candidates away from a tie.
    """
    if space.horizon < 1:
        raise ValueError("need at least two stages")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    z_d, z_u = d.interval
    z_grid = [float(z) for z in (_level_grid(z_d, z_u) if z_grid is None else z_grid)]
    if not z_grid:
        raise ValueError("the level grid is empty")
    for z in z_grid:
        if not z_d < z < z_u:
            raise ValueError(f"level {z:g} is outside ({z_d:g}, {z_u:g})")
    pairs = _stage_pairs(space)
    m, levels = d.measure, np.array(z_grid)[:, None]
    chunk = max(1, report.LEAF_VALUES_PER_CALL // (len(z_grid) * space.n_leaves))

    def readings(claims):
        betas = {r: evaluate_rows(m, space, r, np.stack([x.values for x in xs]))
                 for r, xs in claims.items()}
        return betas, _risk_signs(m, claims, levels, tol)

    rep = ConsistencyReport(seed=rng_seed, trials=trials)
    viol = np.zeros(len(CRITERIA), dtype=np.int64)
    ties_skipped = agree_checked = agree_failed = cand_ties = decided = verified = 0
    for start in range(0, trials, chunk):
        drawn = [draw(derived_rng(rng_seed, key, k))
                 for k in range(start, min(trials, start + chunk))]
        claims = {r: [c[r] for c, _ in drawn] for r in space.times}
        try:
            betas, signs = readings(claims)
        except (ValueError, OverflowError, RuntimeError):
            for b in range(len(drawn)):
                readings({r: xs[b:b + 1] for r, xs in claims.items()})
            raise
        # per stage, trial and level: the readings beta > z, rho < 0 and rho <= 0 on
        # every atom, and a tie on some atom
        reads = {r: np.stack([betas[r][:, None] > levels, *signs[r][:2]]).all(axis=-1)
                 for r in space.times}
        ties = {r: (np.abs(betas[r][:, None] - levels) < TIE_BETA).any(axis=-1)
                | signs[r][2].any(axis=-1) for r in space.times}
        found = []
        for p, (s, t) in enumerate(pairs):
            prem, concl, tie = reads[t], reads[s], ties[s] | ties[t]
            hit = prem & ~concl
            agree = (prem == prem[0]).all(axis=0) & (concl == concl[0]).all(axis=0)
            viol += hit[:, ~tie].sum(axis=1)
            ties_skipped += int(hit[:, tie].sum())
            agree_checked += int((~tie).sum())
            agree_failed += int((~agree & ~tie).sum())
            # candidates: an F_s-atom at or below the level, its children all above
            # it; one with a gap under TIE_BETA is a tie and carries no verdict
            bs, bt_min = betas[s], _child_min(space, s, t, betas[t])
            b, lv, ks = np.nonzero((bt_min[:, None] > levels) & (levels >= bs[:, None]))
            bs, bt_min, z = bs[b, ks], bt_min[b, ks], levels[lv, 0]
            far = np.minimum(bt_min - z, z - bs) >= TIE_BETA
            cand_ties += int(far.size - far.sum())
            decided += int(far.sum())
            found += zip(*(v[far].tolist()
                           for v in (b, np.full_like(b, p), lv, ks, z, bs, bt_min)))
        for b, p, _, k, z, bs_k, bt_k in sorted(found):  # trial, pair, level, atom
            (s, t), (claim, named) = pairs[p], drawn[b]
            ok, detail = _verify_localized(d, space, s, t, z, k, claim[s], claim[t],
                                           bs_k, bt_k)
            verified += ok
            if ok and rep.witness is None:
                rep.witness = {**_make_witness(space, s, t, z, k, bs_k, bt_k,
                                               **named()), **detail}
        rep.samples += len(drawn) * len(pairs) * len(z_grid)

    for c, v in zip(CRITERIA, viol.tolist()):
        rep.add(CheckResult(f"eq_tc[{c}]", v == 0, rep.samples, v))
    rep.add(CheckResult("criteria_agreement", agree_failed == 0, agree_checked,
                        agree_failed,
                        note=f"{rep.samples - agree_checked} tie samples excluded"))
    rep.add(CheckResult("localized_violations", verified == 0, cand_ties + decided,
                        verified, note=(f"{cand_ties} tie candidates discarded, "
                                        f"{decided - verified} failed re-verification")))
    if rep.witness is not None:
        rep.verdict = "counterexample"
    rep.meta = {"measure": d.name(), "z_grid": z_grid,
                "stage_pairs": [list(p) for p in pairs], "tol": tol,
                "ties_skipped": ties_skipped}
    return rep, decided


def check_time_consistency(d: DynamicMeasure, space: FilteredSpace,
                           z_grid=None, trials: int = 200, rng_seed: int = 0,
                           *, tol: float = TOL_C) -> ConsistencyReport:
    """Sample payoffs and test the level implications on every stage pair.

    Each sample is one (X, s, t, z) with s < t taken from all stage pairs
    (adjacent and transitive alike) and z from the grid.  All three readings
    run on every sample; ties (level gap under 1e-6 or risk within 10*tol
    of zero) carry no verdict and are skipped.  Away from ties the readings
    must agree, and disagreement fails the criteria_agreement entry.  The
    localized scan supplies counterexample candidates, accepted only after
    re-verification; the first accepted witness (in scan order) is reported.
    The risk signs come from one full search at tol per stage for a chunk of
    trials (``_risk_signs``), read per stage pair as arrays over the trials and
    the grid, in ``_consistency_pass``.
    """
    def draw(rng):
        x = sample_xvar(space, rng)
        return dict.fromkeys(space.times, x), lambda: {"x": x.to_json()}

    return _consistency_pass(d, space, z_grid, trials, rng_seed, 41, draw, tol)[0]


def _best_separations(space: FilteredSpace, pairs, betas: dict, z_d: float,
                      z_u: float):
    """Each row's best localized separation, scored over all entries at once.

    betas maps each stage to its (B, n_atoms) values.  Entry (row, stage pair,
    F_s-atom) puts the level z at the arctan midpoint between lo, beta_s on the atom,
    and hi, the smallest beta_t over its F_t-children, each clipped to (z_d, z_u),
    and scores min(hi - z, z - lo).  An entry counts where lo is finite and
    lo < z < hi lies strictly inside (z_d, z_u).  Returns per row the score of the
    first strict maximum in (pair, atom) order (-inf where no entry counts), its
    column, and that entry's (lo, z, hi).
    """
    lo = np.concatenate([betas[s] for s, _ in pairs], axis=1)
    hi = np.concatenate([_child_min(space, s, t, betas[t]) for s, t in pairs], axis=1)
    ok = np.isfinite(lo) & (lo < hi)
    lo_k, hi_k = lo[ok], hi[ok]
    # max(lo, z_d) and min(hi, z_u) as Python's max and min pick them; math.atan on
    # each entry, because np.arctan differs from it in the last bit on some inputs
    # and the level is part of the witness
    a = np.where(z_d > lo_k, z_d, lo_k).tolist()
    b = np.where(z_u < hi_k, z_u, hi_k).tolist()
    u = 0.5 * (np.array(list(map(math.atan, a)), dtype=float)
               + np.array(list(map(math.atan, b)), dtype=float))
    z_k = np.tan(u)
    gap_hi, gap_lo = hi_k - z_k, z_k - lo_k
    inside = (lo_k < z_k) & (z_k < hi_k) & (z_d < z_k) & (z_k < z_u)
    score = np.full(lo.shape, -INF)
    score[ok] = np.where(inside, np.where(gap_lo < gap_hi, gap_lo, gap_hi), -INF)
    z = np.zeros(lo.shape)
    z[ok] = z_k
    col = np.argmax(score, axis=1)
    rows = np.arange(col.size)
    return (score[rows, col], col,
            np.stack((lo[rows, col], z[rows, col], hi[rows, col]), axis=1))


def _lockstep_restarts(d: DynamicMeasure, space: FilteredSpace, n_restarts: int,
                       rng_seed: int, per_restart: int) -> list:
    """The (witness or None, candidates scored) of each restart, all run in lockstep.

    Restart r draws its leaf payoffs from ``derived_rng(rng_seed, 42, r)`` and then
    refines them coordinate by coordinate: in each sweep over the leaves it tries
    +step, then -step on each leaf, accepts the first move that beats its best score
    by more than 1e-12 and goes on to the next leaf; after a sweep with no
    improvement it halves the step.  It stops once it has scored per_restart
    candidates or the step is at most 1e-4.  Each round scores the next candidate of
    every live restart as one batch; a restart sees only its own scores, so its
    witness and count are those of a run on its own.
    """
    z_d, z_u = d.interval
    pairs = _stage_pairs(space)
    n = space.n_leaves
    # the stage pair and F_s-atom of each scored column, in (pair, atom) order
    cols = [(s, t, k) for s, t in pairs for k in range(space.n_atoms(s))]

    def score(rows):
        betas = {r: evaluate_rows(d.measure, space, r, rows) for r in space.times}
        return _best_separations(space, pairs, betas, z_d, z_u)

    best_x = np.array([derived_rng(rng_seed, 42, r).uniform(-4.0, 4.0, n)
                       for r in range(n_restarts)])
    best_m, best_col, best_lzh = score(best_x)
    used = np.ones(n_restarts, dtype=np.intp)
    step = np.full(n_restarts, 4.0)  # half the width of the draws
    leaf = np.zeros(n_restarts, dtype=np.intp)  # the leaf of the next move
    minus = np.zeros(n_restarts, dtype=bool)    # is the next move -step?
    improved = np.zeros(n_restarts, dtype=bool)
    live = (step > 1e-4) & (used < per_restart)
    while live.any():
        on = np.flatnonzero(live)
        trial = best_x[on]
        sign = np.where(minus[on], -1.0, 1.0)
        trial[np.arange(on.size), leaf[on]] += sign * step[on]
        m, col, lzh = score(trial)
        used[on] += 1
        acc = m > best_m[on] + 1e-12  # false where the row has no entry (m = -inf)
        won = on[acc]
        best_x[won], best_m[won] = trial[acc], m[acc]
        best_col[won], best_lzh[won] = col[acc], lzh[acc]
        improved[won] = True
        ahead = acc | minus[on]  # after an acceptance or a -step: the next leaf
        leaf[on] += ahead
        minus[on] = ~ahead
        end = on[leaf[on] == n]  # sweeps that ended this round
        step[end] = np.where(improved[end], step[end], 0.5 * step[end])
        improved[end] = False
        leaf[end] = 0
        live[on] = (step[on] > 1e-4) & (used[on] < per_restart)

    results = []
    for r in range(n_restarts):
        w = None
        if best_m[r] > -INF:
            s, t, k = cols[best_col[r]]
            lo, z, hi = best_lzh[r]
            w = _make_witness(space, s, t, z, k, lo, hi,
                              x=XVar(space, best_x[r]).to_json())
        results.append((w, int(used[r])))
    return results


def search_counterexample(d: DynamicMeasure, space: FilteredSpace,
                          budget: int = 100_000, rng_seed: int = 0, *,
                          per_restart: int = 300) -> ConsistencyReport:
    """Randomized restarts with coordinate refinement over leaf payoffs.

    Each restart draws leaf payoffs uniformly from [-4, 4] and refines them by
    coordinate moves (``_lockstep_restarts``).  Each candidate payoff is scored by
    the best localized separation it achieves: over all stage pairs and F_s-atoms,
    place the level at the arctan midpoint between beta_s on the atom and the
    smallest beta_t over the atom's F_t-children, and take the smaller of the two
    gaps.  budget counts scored candidates: budget // per_restart restarts, or one
    restart of budget candidates when budget < per_restart.  Margins under 1e-6 are
    numerical ties and never accepted; a candidate becomes a counterexample only after
    re-verification with BETA_MARGIN level margins and risk signs at bisection
    tolerance 1e-12.  The restarts advance in lockstep, one batch of candidates per
    round, but each sees only its own scores, so the report is that of running them
    one after another.  Deterministic for fixed (budget, rng_seed): restarts draw
    derived seeds, and the best witness wins by (margin, canonical encoding) order.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if per_restart < 1:
        raise ValueError("per_restart must be at least 1")
    rep = ConsistencyReport(seed=rng_seed)
    rep.meta = {"measure": d.name(), "budget": budget}
    if space.horizon < 1:
        rep.meta["note"] = "single stage: nothing to compare"
        return rep
    per_restart = min(per_restart, budget)  # a budget under one restart caps it
    n_restarts = budget // per_restart
    results = _lockstep_restarts(d, space, n_restarts, rng_seed, per_restart)
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


def check_riskaversion_monotone_consistency(lam_process, space: FilteredSpace, *,
                                            trials: int = 80,
                                            rng_seed: int = 0) -> Report:
    """Exponential-utility families: consistency verdicts next to the
    pathwise monotonicity of the risk-aversion profile.

    Which monotonicity direction helps depends on the sign of the level, so
    the check reads three grids (negative levels, positive levels, both) and
    records the verdicts beside the detected profile instead of asserting a
    single orientation.  A constant profile reduces to one deterministic
    utility and is asserted consistent outright.  Only the first two grids run:
    the seed draws the same payoffs on any grid and each level is decided on its
    own, so the union reads as both together (summed samples, and the negative
    grid's witness or else the positive grid's).
    """
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

    grids = {"negative-levels": [-10.0, -2.0, -0.5],
             "positive-levels": [0.1, 0.4, 0.8]}
    neg, pos = (check_time_consistency(d, space, z_grid=grid, trials=trials,
                                       rng_seed=rng_seed) for grid in grids.values())
    witness = pos.witness if neg.witness is None else neg.witness
    both = ConsistencyReport(samples=neg.samples + pos.samples, witness=witness,
                             verdict=pos.verdict if neg.consistent else neg.verdict)
    verdicts = {}
    for name, sub in zip((*grids, "all-levels"), (neg, pos, both)):
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
    idx = space.atom_index[r]
    hi = np.full(space.n_atoms(r), -INF)
    lo = np.full(space.n_atoms(r), INF)
    np.maximum.at(hi, idx, density)
    np.minimum.at(lo, idx, density)
    return (hi <= 0.0) | (hi <= (1.0 + z) * lo * (1.0 + 1e-9) + 1e-12)


def check_penalty_inequality_coherent(z: float = 1.0, s: int = 0, t: int = 1,
                                      q_samples=(), *, space: FilteredSpace,
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
    qs = list(q_samples)
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
    n_viol = nest_viol = 0
    reverse_fail = []
    for name, g in densities:
        if np.any(g < -1e-12):
            raise ValueError(f"test measure {name} has a negative density")
        g = np.maximum(g, 0.0)
        feas_t = _ratio_feasible(space, t, z, g)
        feas_s = _ratio_feasible(space, s, z, g)
        charged = np.bincount(space.atom_index[t], weights=g * space.probs,
                              minlength=space.n_atoms(t)) > 0.0
        # per F_s-atom, a child minimum of a 0/1 flag is 1 when every child has it;
        # E^Q_s[alpha_t] is infinite exactly when Q charges an infeasible child,
        # and exceeds alpha_s only where that is zero, on the feasible atoms
        lhs_finite = _child_min(space, s, t, (feas_t | ~charged).astype(float)) > 0.0
        children_feasible = _child_min(space, s, t, feas_t.astype(float)) > 0.0
        n_viol += int(np.sum(feas_s & ~lhs_finite))
        nest_viol += int(np.sum(feas_s & ~children_feasible))
        if np.all(feas_t) and not np.all(feas_s):
            reverse_fail.append(name)

    checked = len(densities) * space.n_atoms(s)  # each F_s-atom under each measure
    rep.add(CheckResult("penalty_aggregation", n_viol == 0, checked, n_viol))
    rep.add(CheckResult("ratio_polytope_nesting", nest_viol == 0, checked, nest_viol,
                        note="parent-atom feasibility forces every child"))
    rep.add(CheckResult("reverse_nesting", None, len(densities), len(reverse_fail),
                        note=("child feasibility does not bound cross-child ratios; "
                              f"failed for: {', '.join(reverse_fail)}" if reverse_fail
                              else "no reverse failures in this sample")))
    return rep
