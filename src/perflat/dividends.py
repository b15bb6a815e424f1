"""Dividend processes and the lift of measures from payoffs to streams.

A dividend process pays an F_t-measurable, bounded-below amount at each
stage (+inf allowed, -inf never).  A measure of terminal payoffs lifts to
streams by aggregating every payment from the evaluation stage onward into
a terminal payoff and applying the measure to that:

    beta_hat_t(D) = beta_t( sum_{r >= t} D_r ).

The lift keeps the structure of the underlying measure: independence of
the past together with locality, the level bounds, monotonicity, strict
gain from a positive payment at any later date, quasi-concavity, timing
irrelevance of transfers already known at the evaluation stage, and scale
invariance when the measure has it.  Restricting to a single terminal
payment recovers the measure exactly, and with nonnegative interim
payments the consistency-over-time verdicts for payoffs and for streams
coincide (streams with strictly negative interim payments can break the
stream-to-payoff direction, which is why samplers default to nonnegative).
"""
from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from .dynamics import (BETA_MARGIN, DynamicMeasure, _child_min, _make_witness, _scan,
                       _stage_pairs, check_time_consistency, verify_witness)
from .lattice import (INF, FilteredSpace, TVar, XVar, close_or_both_inf,
                      ext_add, ext_mul, num_from_json, num_to_json,
                      sample_event, sample_tvar, sample_xvar)
from .measures import (DEFAULT_TOL, PerformanceMeasure, _below_mix_floor,
                       _no_strict_gain, evaluate)
from .report import CheckResult, Report, run_trials
from .util import derived_rng


def _at_stage(space: FilteredSpace, r: int, xi: TVar) -> TVar:
    """Re-express a variable known by stage r as a stage-r amount."""
    if xi.stage > r:
        raise ValueError(f"a stage-{xi.stage} variable is not known at {r}")
    if xi.stage == r:
        return xi if xi.kind == "bb" else TVar(space, r, xi.values, kind="bb")
    firsts = [a[0] for a in space.atoms[r]]
    return TVar(space, r, xi.promote().values[firsts], kind="bb")


class DividendProcess:
    """Adapted payment stream: a bounded-below amount at each stage.

    payments maps a stage to the amount paid there; each amount is a stage
    variable measurable no later than the payment date (earlier-stage
    variables are re-expressed at the date) or a plain number.  Stages with
    no entry pay nothing.
    """

    __slots__ = ("space", "payments")

    def __init__(self, space: FilteredSpace, payments: Mapping[int, TVar | float]):
        self.space = space
        store: dict[int, TVar] = {}
        for t, pay in payments.items():
            t = space.check_stage(int(t))
            if isinstance(pay, TVar):
                if not pay.space.same_structure(space):
                    raise ValueError("payment lives on a different space")
                pay = _at_stage(space, t, pay)
            else:
                pay = TVar.constant(space, t, float(pay))
            store[t] = pay
        self.payments = dict(sorted(store.items()))

    @classmethod
    def terminal_only(cls, x: XVar) -> "DividendProcess":
        """The stream paying x at the final date and nothing before."""
        space = x.space
        last = space.times[-1]
        firsts = [a[0] for a in space.atoms[last]]
        vals = x.values[firsts]
        if np.any(x.values != vals[space.atom_index[last]]):
            raise ValueError("payoff is not measurable at the final date")
        return cls(space, {last: TVar(space, last, vals, kind="bb")})

    def stages(self) -> list[int]:
        return list(self.payments)

    def payment(self, t: int) -> TVar:
        t = self.space.check_stage(t)
        pay = self.payments.get(t)
        return pay if pay is not None else TVar.constant(self.space, t, 0.0)

    def aggregate_from(self, t: int) -> XVar:
        """Total of the payments from t onward, as a terminal payoff."""
        t = self.space.check_stage(t)
        out = np.zeros(self.space.n_leaves)
        for r, pay in self.payments.items():
            if r >= t:
                out = ext_add(out, pay.promote().values)
        return XVar(self.space, out, validate=False)

    def with_payment_added(self, r: int, amount: TVar | float) -> "DividendProcess":
        """A copy with amount added to the stage-r payment."""
        r = self.space.check_stage(r)
        if isinstance(amount, TVar):
            add = _at_stage(self.space, r, amount)
        else:
            add = TVar.constant(self.space, r, float(amount))
        pays = dict(self.payments)
        base = pays.get(r)
        vals = add.values if base is None else ext_add(base.values, add.values)
        pays[r] = TVar(self.space, r, vals, kind="bb")
        return DividendProcess(self.space, pays)

    def scaled(self, c: float) -> "DividendProcess":
        if c < 0.0:
            raise ValueError("negative scaling flips the lower bound")
        return DividendProcess(
            self.space, {r: TVar(self.space, r, ext_mul(p.values, c), kind="bb")
                         for r, p in self.payments.items()})

    def mixed_with(self, other: "DividendProcess", lam: float) -> "DividendProcess":
        """Stagewise convex mix lam*self + (1-lam)*other."""
        if not 0.0 <= lam <= 1.0:
            raise ValueError("mixing weight must lie in [0, 1]")
        pays = {}
        for r in sorted(set(self.payments) | set(other.payments)):
            a = self.payment(r).values
            b = other.payment(r).values
            pays[r] = TVar(self.space, r,
                           ext_add(ext_mul(a, lam), ext_mul(b, 1.0 - lam)),
                           kind="bb")
        return DividendProcess(self.space, pays)

    def to_json(self) -> dict:
        return {"space": self.space.name or "",
                "payments": {str(t): {self.space.atom_id(t, k): num_to_json(v)
                                      for k, v in enumerate(pay.values)}
                             for t, pay in self.payments.items()}}

    @classmethod
    def from_json(cls, d: Mapping, space: FilteredSpace) -> "DividendProcess":
        ref = d.get("space", "")
        if ref and space.name and ref != space.name:
            raise ValueError(f"stream references space {ref!r}, got {space.name!r}")
        pays = {}
        for key, row in d["payments"].items():
            t = space.check_stage(int(key))
            vals = np.zeros(space.n_atoms(t))
            for ak, v in row.items():
                vals[space.atom_by_id(t, str(ak))] = num_from_json(v)
            pays[t] = TVar(space, t, vals, kind="bb")
        return cls(space, pays)

    def __repr__(self):
        stages = ", ".join(str(t) for t in self.payments)
        return f"DividendProcess(stages: {stages or 'none'})"


def sample_dividend(space: FilteredSpace, rng: np.random.Generator, *,
                    nonnegative_interim: bool = True) -> DividendProcess:
    """Random stream with a terminal payment and occasional interim ones.

    Aggregation is monotone in the evaluation stage exactly when nothing
    strictly negative is paid in between, and the payoff/stream consistency
    transport relies on that, so negative interim payments are opt-in.
    """
    last = space.times[-1]
    pays = {}
    for t in space.times:
        if t != last and rng.uniform() < 0.35:
            continue
        lo = 0.0 if (nonnegative_interim and t != last) else -4.0
        pays[t] = TVar(space, t, rng.uniform(lo, 4.0, space.n_atoms(t)),
                       kind="bb")
    return DividendProcess(space, pays)


def lift_evaluate(m: PerformanceMeasure, t: int, dp: DividendProcess) -> TVar:
    """Value of the stream: the measure at the aggregate of payments from t on."""
    return evaluate(m, t, dp.aggregate_from(t))


def check_lift_axioms(m: PerformanceMeasure, space: FilteredSpace,
                      trials: int = 200, rng_seed: int = 0) -> Report:
    """Property tests for the lifted measure on random payment streams.

    Alongside the structural properties this verifies the bundling identity
    (paying the aggregate at the final date changes nothing, bit for bit)
    and the exact round trip through single terminal payments.
    """
    tol = DEFAULT_TOL
    rep = Report(f"lift axioms for {m.label()}", seed=rng_seed,
                 meta={"trials": trials, "space": space.name or ""})
    times = list(space.times)
    last = times[-1]

    def independence_of_past_and_locality(rng, k):
        t = int(rng.choice(times))
        b = sample_event(space, t, rng)
        on = b.leaf_values()
        d1 = sample_dividend(space, rng, nonnegative_interim=False)
        pays = {}
        for r in times:
            fresh = rng.uniform(-4.0, 4.0, space.n_atoms(r))
            if r < t:
                # anything may happen before t, payments included
                if rng.uniform() < 0.5:
                    pays[r] = TVar(space, r, fresh, kind="bb")
                continue
            flag = on[[a[0] for a in space.atoms[r]]]
            pays[r] = TVar(space, r, np.where(flag, d1.payment(r).values, fresh),
                           kind="bb")
        d2 = DividendProcess(space, pays)
        v1 = lift_evaluate(m, t, d1).values
        v2 = lift_evaluate(m, t, d2).values
        if not np.all(v1[b.flags] == v2[b.flags]):
            return {"note": "value moved on the unchanged event",
                    "stage": t, "D": d1.to_json(), "D2": d2.to_json()}

    run_trials(rep, "independence_of_past_and_locality", trials, rng_seed, 61,
               independence_of_past_and_locality)

    def bounds_interval(rng, k):
        t = int(rng.choice(times))
        dp = sample_dividend(space, rng, nonnegative_interim=False)
        vals = lift_evaluate(m, t, dp).values
        if np.any(vals < m.z_d - 1e-12) or np.any(vals > m.z_u + 1e-12):
            return {"note": "value left the bounds", "stage": t, "D": dp.to_json()}

    run_trials(rep, "bounds_interval", trials, rng_seed, 62, bounds_interval)

    top = DividendProcess.terminal_only(XVar.constant(space, INF))
    missed = [t for t in times if not np.all(lift_evaluate(m, t, top).values == m.z_u)]
    rep.add(CheckResult("upper_bound_attained", not missed, len(times), len(missed)))

    def approaches_lower_bound(t) -> bool:
        for k in range(9):
            try:
                vals = lift_evaluate(m, t,
                                     DividendProcess(space, {last: -10.0 ** k})).values
            except OverflowError:
                # the value underflowed past float range, diverged for sure
                return not math.isfinite(m.z_d)
            if math.isfinite(m.z_d):
                if np.all(np.abs(vals - m.z_d) <= 1e-6):
                    return True
            elif np.all(vals <= -1e6):
                return True
        return False

    missed = [t for t in times if not approaches_lower_bound(t)]
    rep.add(CheckResult("lower_bound_approached", not missed, len(times), len(missed),
                        witness={"note": "deep negative payments never pushed the "
                                         "value toward the lower bound",
                                 "stage": missed[0]} if missed else None))

    def monotonicity(rng, k):
        t = int(rng.choice(times))
        d1 = sample_dividend(space, rng, nonnegative_interim=False)
        d2 = d1
        for r in times:
            if r >= t and rng.uniform() < 0.7:
                bump = TVar(space, r, rng.uniform(0.0, 2.0, space.n_atoms(r)),
                            kind="bb")
                d2 = d2.with_payment_added(r, bump)
        v1 = lift_evaluate(m, t, d1).values
        v2 = lift_evaluate(m, t, d2).values
        if np.any(v2 < v1 - tol):
            return {"note": "larger payments lowered the value",
                    "stage": t, "D": d1.to_json(), "D2": d2.to_json()}

    run_trials(rep, "monotonicity", trials, rng_seed, 63, monotonicity)

    def strict_shift(rng, k):
        t = int(rng.choice(times))
        r_star = int(rng.choice([r for r in times if r >= t]))
        c = float(rng.uniform(0.05, 2.0))
        dp = sample_dividend(space, rng, nonnegative_interim=False)
        before = lift_evaluate(m, t, dp).values
        after = lift_evaluate(m, t, dp.with_payment_added(r_star, c)).values
        bad = _no_strict_gain(m, before, after)
        if np.any(bad):
            return {"note": "no strict gain from a positive payment",
                    "stage": t, "paid_at": r_star, "shift": c, "D": dp.to_json(),
                    "atom": space.atom_id(t, int(np.argmax(bad)))}

    run_trials(rep, "strict_shift", trials, rng_seed, 64, strict_shift)

    def quasi_concavity(rng, k):
        t = int(rng.choice(times))
        lam = float(rng.uniform(0.001, 0.999))  # keep 0 * inf out of the mix
        d1 = sample_dividend(space, rng, nonnegative_interim=False)
        d2 = sample_dividend(space, rng, nonnegative_interim=False)
        v1 = lift_evaluate(m, t, d1).values
        v2 = lift_evaluate(m, t, d2).values
        got = lift_evaluate(m, t, d1.mixed_with(d2, lam)).values
        if np.any(_below_mix_floor(got, np.minimum(v1, v2), tol)):
            return {"note": "mix fell below both endpoints", "stage": t, "lam": lam,
                    "D": d1.to_json(), "D2": d2.to_json()}

    run_trials(rep, "quasi_concavity", trials, rng_seed, 65, quasi_concavity)

    def timing_invariance(rng, k):
        t = int(rng.choice(times))
        later = [r for r in times if r >= t]
        r1, r2 = int(rng.choice(later)), int(rng.choice(later))
        xi = sample_tvar(space, t, rng)
        dp = sample_dividend(space, rng, nonnegative_interim=False)
        v1 = lift_evaluate(m, t, dp.with_payment_added(r1, xi)).values
        v2 = lift_evaluate(m, t, dp.with_payment_added(r2, xi)).values
        if not np.all(close_or_both_inf(v1, v2, tol)):
            return {"note": "payment date of a known transfer mattered",
                    "stage": t, "dates": [r1, r2], "D": dp.to_json()}

    run_trials(rep, "timing_invariance", trials, rng_seed, 66, timing_invariance)

    def scale_invariance(rng, k):
        t = int(rng.choice(times))
        c = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
        dp = sample_dividend(space, rng, nonnegative_interim=False)
        v1 = lift_evaluate(m, t, dp).values
        v2 = lift_evaluate(m, t, dp.scaled(c)).values
        if not np.all(close_or_both_inf(v1, v2, tol)):
            return {"note": "scaling the stream moved the value",
                    "stage": t, "scale": c, "D": dp.to_json()}

    if m.scale_invariant:
        run_trials(rep, "scale_invariance", trials, rng_seed, 67, scale_invariance)
    else:
        rep.add(CheckResult("scale_invariance", None,
                            note="measure is not scale invariant; skipped"))

    def aggregation_identity(rng, k):
        t = int(rng.choice(times))
        dp = sample_dividend(space, rng, nonnegative_interim=False)
        direct = lift_evaluate(m, t, dp).values
        bundled = lift_evaluate(
            m, t, DividendProcess.terminal_only(dp.aggregate_from(t))).values
        if not np.array_equal(direct, bundled):
            return {"note": "bundling the payments at the final date changed the "
                            "value", "stage": t, "D": dp.to_json()}

    run_trials(rep, "aggregation_identity", trials, rng_seed, 68, aggregation_identity)

    def terminal_round_trip(rng, k):
        t = int(rng.choice(times))
        x = sample_xvar(space, rng)
        lifted = lift_evaluate(m, t, DividendProcess.terminal_only(x)).values
        plain = evaluate(m, t, x).values
        if not np.array_equal(lifted, plain):
            return {"note": "single terminal payment did not recover the measure",
                    "stage": t, "X": x.to_json()}

    run_trials(rep, "terminal_round_trip", trials, rng_seed, 69, terminal_round_trip)
    return rep


def check_lift_time_consistency(d: DynamicMeasure, space: FilteredSpace, *,
                                z_grid=None, trials: int = 120, rng_seed: int = 0,
                                nonnegative_interim: bool = True,
                                witness: dict | None = None) -> Report:
    """Compare consistency-over-time verdicts for payoffs and for streams.

    Runs the payoff-level checker, then scans random streams for localized
    stream-level violations (an F_s-atom at or below a level with every
    F_t-child strictly above it, margins re-verified through the induced
    risk at tolerance 1e-12).  Witnesses transport both ways: a payoff
    witness becomes a single-terminal-payment stream with identical values,
    and a stream witness aggregates from stage s into a payoff witness,
    which is guaranteed when interim payments are nonnegative.  Sampling
    with strictly negative interim payments documents the one-way gap
    instead of asserting agreement.

    A payoff-level ``witness`` found elsewhere (usually by the directed
    search) can be passed in; it is re-verified before use and then fed
    through the same transport machinery, so a deep search needs to run
    only once.
    """
    if space.horizon < 1:
        raise ValueError("need at least two stages")
    rep = Report(f"lift consistency for {d.name()}", seed=rng_seed,
                 meta={"trials": trials,
                       "nonnegative_interim": nonnegative_interim})
    var_rep = check_time_consistency(d, space, z_grid=z_grid, trials=trials,
                                     rng_seed=rng_seed)
    var_witness = var_rep.witness
    var_verdict = var_rep.verdict
    injected = False
    if var_witness is None and witness is not None:
        ok, _ = verify_witness(d, space, witness)
        if ok:  # a verified witness is proof no matter where it came from
            var_witness, var_verdict, injected = witness, "counterexample", True
    levels = var_rep.meta["z_grid"]
    times = list(space.times)
    pairs = _stage_pairs(space)

    proc_witness = None
    proc_candidates = 0
    proc_verified = 0
    for k in range(trials):
        rng = derived_rng(rng_seed, 71, k)
        dp = sample_dividend(space, rng, nonnegative_interim=nonnegative_interim)
        aggs = {t: dp.aggregate_from(t) for t in times}
        betas = {t: evaluate(d.measure, t, aggs[t]).values for t in times}
        for s, t, z, a, bs, bt_min, verdict in _scan(d, space, pairs, levels,
                                                     aggs, betas):
            if verdict is None:  # ties carry no verdict
                continue
            proc_candidates += 1
            if verdict[0]:
                proc_verified += 1
                if proc_witness is None:
                    proc_witness = _make_witness(space, s, t, z, a, bs, bt_min,
                                                 D=dp.to_json())
    proc_verdict = "counterexample" if proc_witness else "consistent-on-sample"

    rep.add(CheckResult("variable_level", None, var_rep.samples,
                        0 if var_verdict == "consistent-on-sample" else 1,
                        note=f"verdict: {var_verdict}" +
                             (" (witness supplied and re-verified)" if injected
                              else "")))
    rep.add(CheckResult("process_level", None, proc_candidates, proc_verified,
                        note=f"verdict: {proc_verdict}"))

    to_process_ok = None
    if var_witness is not None:
        w = var_witness
        x = XVar.from_json(w["x"], space)
        dp = DividendProcess.terminal_only(x)
        s, t, z = w["s"], w["t"], w["z"]
        a = space.atom_by_id(s, w["atom"])
        bh_t_min = _child_min(space, s, t, lift_evaluate(d.measure, t, dp).values)[a]
        bh_s = lift_evaluate(d.measure, s, dp).values[a]
        to_process_ok = bool(bh_t_min > z + BETA_MARGIN and bh_s <= z - BETA_MARGIN)
        rep.add(CheckResult("transport_to_process", to_process_ok, 1,
                            0 if to_process_ok else 1,
                            note="payoff witness re-checked as a single "
                                 "terminal payment"))
    else:
        rep.add(CheckResult("transport_to_process", None,
                            note="no payoff-level witness to transport"))

    gap_note = ""
    var_transport_ok = None
    if proc_witness is not None:
        w = proc_witness
        dp = DividendProcess.from_json(w["D"], space)
        x_star = dp.aggregate_from(w["s"])
        shadow = dict(w, x=x_star.to_json())
        var_transport_ok, detail = verify_witness(d, space, shadow, x=x_star)
        note = (f"aggregate from stage {w['s']} re-verified: "
                f"beta_s={detail['beta_s']:.6g}")
        if nonnegative_interim:
            rep.add(CheckResult("transport_to_variable", var_transport_ok, 1,
                                0 if var_transport_ok else 1, note=note))
        else:
            gap_note = ("stream witness " +
                        ("still transports" if var_transport_ok
                         else "does not transport") +
                        " despite negative interim payments")
            rep.add(CheckResult("transport_to_variable", None, 1,
                                0 if var_transport_ok else 1, note=gap_note))
    else:
        rep.add(CheckResult("transport_to_variable", None,
                            note="no stream-level witness to transport"))

    if nonnegative_interim:
        # with nonnegative interim payments the two views certify each other:
        # when only one side found a witness, transport must bridge the gap
        var_found = var_witness is not None
        if not var_found and proc_witness is None:
            agree = True
        elif var_found and proc_witness is not None:
            agree = True
        elif var_found:
            agree = bool(to_process_ok)
        else:
            agree = bool(var_transport_ok)
        rep.add(CheckResult("verdict_agreement", agree, 1, 0 if agree else 1,
                            note=f"payoffs: {var_verdict}; "
                                 f"streams: {proc_verdict}"))
    else:
        rep.add(CheckResult("verdict_agreement", None,
                            note=(f"payoffs: {var_verdict}; streams: "
                                  f"{proc_verdict}; negative interim payments "
                                  "break the stream-to-payoff direction, so "
                                  "disagreement here is expected, not an error")))
    rep.meta["verdicts"] = {"variable": var_verdict, "process": proc_verdict}
    rep.meta["z_grid"] = levels
    return rep
