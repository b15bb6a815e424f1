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
from .lattice import (INF, FilteredSpace, TVar, XVar, draw_atom_values,
                      draw_event_flags, draw_leaf_values, ext_add, ext_mul,
                      num_from_json, num_to_json)
from .measures import (DEFAULT_TOL, PerformanceMeasure, _drops, _escapes,
                       _missed_lower_bound, _mix_drops, _moved, _no_strict_gain,
                       _property_runner, evaluate, evaluate_rows)
from .report import CheckResult, Report
from .util import trial_rngs


def _aggregate(t: int, pays: np.ndarray) -> np.ndarray:
    """The aggregates from stage t of (..., n_stages, n_leaves) pays, as leaf rows.

    Each stream totals its payments at stages t, t+1, ..., T in that order with
    ``ext_add``.  A stage that pays nothing adds +0.0, which leaves every partial sum
    as it is: a partial sum starts at +0.0 and is never -0.0.
    """
    out = np.zeros(pays.shape[:-2] + pays.shape[-1:])
    for r in range(t, pays.shape[-2]):
        out = ext_add(out, pays[..., r, :])
    return out


def _paid_more(present: np.ndarray, pays: np.ndarray, r: int,
               amount: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A copy of a stream's arrays with the leaf row amount added at stage r."""
    present, pays = present.copy(), pays.copy()
    pays[r] = ext_add(pays[r], amount) if present[r] else amount
    present[r] = True
    return present, pays


def _mix(a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """Stagewise convex mix lam*a + (1-lam)*b of pays."""
    return ext_add(ext_mul(a, lam), ext_mul(b, 1.0 - lam))


def _paid_at_the_end(space: FilteredSpace, leaves: np.ndarray) -> np.ndarray:
    """The pays of the stream paying leaf values at the final date and nothing before
    (the final atoms are single leaves, so any leaf values are known there)."""
    pays = np.zeros((len(space.times), space.n_leaves))
    pays[-1] = leaves
    return pays


def _on_atoms(space: FilteredSpace, r: int, row: np.ndarray) -> np.ndarray:
    """A stage-r leaf row's value on each stage-r atom (at the atom's first leaf)."""
    return row[space.atom_first[r]]


def _valid_payment(row: np.ndarray) -> np.ndarray:
    if not row.min() > -INF:  # one reduction: NaN propagates
        raise ValueError("nan values are not allowed" if np.isnan(row).any()
                         else "-inf not allowed in a bounded-below stage variable")
    return row


def _payment_row(space: FilteredSpace, r: int, pay: TVar | float) -> np.ndarray:
    """A payment due at stage r as a leaf row: a number, or a stage variable on this
    space known by stage r (an earlier one is paid as it stands), bounded below."""
    if not isinstance(pay, TVar):
        return _valid_payment(np.full(space.n_leaves, float(pay)))
    if not pay.space.same_structure(space):
        raise ValueError("payment lives on a different space")
    if pay.stage > r:
        raise ValueError(f"a stage-{pay.stage} variable is not known at {r}")
    return _valid_payment(pay.values[space.atom_index[pay.stage]])


class DividendProcess:
    """Adapted payment stream: a bounded-below amount at each stage.

    payments maps a stage to the amount paid there; each amount is a stage
    variable measurable no later than the payment date (earlier-stage
    variables are re-expressed at the date) or a plain number.  Stages with
    no entry pay nothing.  The stream is held as the arrays the lift checkers
    draw: ``present`` flags each paying stage and ``pays`` holds one leaf row per
    stage, its payment (constant on the stage's atoms, 0 where nothing is paid);
    both are read-only.
    """

    __slots__ = ("space", "present", "pays")

    def __init__(self, space: FilteredSpace, payments: Mapping[int, TVar | float]):
        present = np.zeros(len(space.times), dtype=bool)
        pays = np.zeros((len(space.times), space.n_leaves))
        for t, pay in payments.items():
            t = space.check_stage(int(t))
            present[t], pays[t] = True, _payment_row(space, t, pay)
        self._hold(space, present, pays)

    def _hold(self, space: FilteredSpace, present: np.ndarray, pays: np.ndarray):
        present.setflags(write=False)
        pays.setflags(write=False)
        self.space, self.present, self.pays = space, present, pays

    @classmethod
    def of_arrays(cls, space: FilteredSpace, present: np.ndarray,
                  pays: np.ndarray) -> "DividendProcess":
        """The stream paying pays[r], read off the stage-r atoms, at each stage r
        flagged present."""
        present = np.array(present, dtype=bool)
        rows = np.zeros((len(space.times), space.n_leaves))
        for r in np.flatnonzero(present).tolist():
            rows[r] = _valid_payment(_on_atoms(space, r, pays[r]))[space.atom_index[r]]
        dp = cls.__new__(cls)
        dp._hold(space, present, rows)
        return dp

    @classmethod
    def terminal_only(cls, x: XVar) -> "DividendProcess":
        """The stream paying x at the final date and nothing before."""
        present = np.arange(len(x.space.times)) == x.space.horizon
        return cls.of_arrays(x.space, present, _paid_at_the_end(x.space, x.values))

    @property
    def payments(self) -> dict[int, TVar]:
        """The amount paid at each paying stage, in stage order."""
        return {r: self.payment(r) for r in self.stages()}

    def stages(self) -> list[int]:
        return np.flatnonzero(self.present).tolist()

    def payment(self, t: int) -> TVar:
        t = self.space.check_stage(t)
        return TVar(self.space, t, _on_atoms(self.space, t, self.pays[t]), kind="bb")

    def aggregate_from(self, t: int) -> XVar:
        """Total of the payments from t onward, as a terminal payoff: the one
        aggregation pass that the lift checker runs on its batches of streams."""
        t = self.space.check_stage(t)
        return XVar(self.space, _aggregate(t, self.pays), validate=False)

    def with_payment_added(self, r: int, amount: TVar | float) -> "DividendProcess":
        """A copy with amount added to the stage-r payment."""
        r = self.space.check_stage(r)
        return DividendProcess.of_arrays(self.space, *_paid_more(
            self.present, self.pays, r, _payment_row(self.space, r, amount)))

    def scaled(self, c: float) -> "DividendProcess":
        if c < 0.0:
            raise ValueError("negative scaling flips the lower bound")
        return DividendProcess.of_arrays(self.space, self.present,
                                         ext_mul(self.pays, c))

    def mixed_with(self, other: "DividendProcess", lam: float) -> "DividendProcess":
        """Stagewise convex mix lam*self + (1-lam)*other."""
        if not 0.0 <= lam <= 1.0:
            raise ValueError("mixing weight must lie in [0, 1]")
        if not other.space.same_structure(self.space):
            raise ValueError("payment lives on a different space")
        return DividendProcess.of_arrays(self.space, self.present | other.present,
                                         _mix(self.pays, other.pays, lam))

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
        present = np.zeros(len(space.times), dtype=bool)
        pays = np.zeros((len(space.times), space.n_leaves))
        for key, row in d["payments"].items():
            t = space.check_stage(int(key))
            vals = np.zeros(space.n_atoms(t))
            for ak, v in row.items():
                vals[space.atom_by_id(t, str(ak))] = num_from_json(v)
            present[t], pays[t] = True, vals[space.atom_index[t]]
        return cls.of_arrays(space, present, pays)

    def __repr__(self):
        stages = ", ".join(str(t) for t in self.stages())
        return f"DividendProcess(stages: {stages or 'none'})"


def draw_dividend(space: FilteredSpace, rng: np.random.Generator, *,
                  nonnegative_interim: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Random stream with a terminal payment and occasional interim ones, as present
    flags and pays.

    Aggregation is monotone in the evaluation stage exactly when nothing
    strictly negative is paid in between, and the payoff/stream consistency
    transport relies on that, so negative interim payments are opt-in.
    """
    last = space.times[-1]
    present = np.zeros(len(space.times), dtype=bool)
    pays = np.zeros((len(space.times), space.n_leaves))
    for t in space.times:
        if t != last and rng.uniform() < 0.35:
            continue
        lo = 0.0 if (nonnegative_interim and t != last) else -4.0
        present[t] = True
        pays[t] = draw_atom_values(space, t, rng, lo, 4.0)[space.atom_index[t]]
    return present, pays


def sample_dividend(space: FilteredSpace, rng: np.random.Generator, *,
                    nonnegative_interim: bool = True) -> DividendProcess:
    """``draw_dividend``'s stream as a ``DividendProcess``."""
    return DividendProcess.of_arrays(
        space, *draw_dividend(space, rng, nonnegative_interim=nonnegative_interim))


def lift_evaluate(m: PerformanceMeasure, t: int, dp: DividendProcess) -> TVar:
    """Value of the stream: the measure at the aggregate of payments from t on."""
    return evaluate(m, t, dp.aggregate_from(t))


def check_lift_axioms(m: PerformanceMeasure, space: FilteredSpace,
                      trials: int = 200, rng_seed: int = 0) -> Report:
    """Property tests for the lifted measure on random payment streams.

    Alongside the structural properties this verifies the bundling identity
    (paying the aggregate at the final date changes nothing, bit for bit)
    and the exact round trip through single terminal payments.  Each trial
    picks its own stage and draws its streams as arrays (``draw_dividend``); per
    batch and stage, one pass aggregates them, one ``evaluate_rows`` call values
    them and one call judges them.  Only the first failing trial's witness
    builds ``DividendProcess`` objects.
    """
    tol = DEFAULT_TOL
    rep = Report(f"lift axioms for {m.label()}", seed=rng_seed,
                 meta={"trials": trials, "space": space.name or ""})
    times = list(space.times)
    run = _property_runner(rep, trials, rng_seed, lambda t, rows: evaluate_rows(
        m, space, t, _aggregate(t, rows.reshape(len(rows), len(times), -1))))
    stream = lambda rng: draw_dividend(space, rng, nonnegative_interim=False)
    promoted = lambda r, vals: vals[space.atom_index[r]]

    def shown(note, t, streams, *presents, **extra):
        """A witness: note, stage, extra fields, then streams D and D2 given flags."""
        return {"note": note, "stage": t, **extra,
                **{key: DividendProcess.of_arrays(space, present, pays).to_json()
                   for key, present, pays in zip(("D", "D2"), presents, streams)}}

    def draw_independence_of_past_and_locality(rng, k):
        t = int(rng.choice(times))
        flags = draw_event_flags(space, t, rng)
        p1, pays1 = stream(rng)
        p2, pays2 = np.zeros_like(p1), np.zeros_like(pays1)
        for r in times:
            fresh = promoted(r, draw_atom_values(space, r, rng, -4.0, 4.0))
            if r >= t:  # from t on the streams agree on the event
                p2[r], pays2[r] = True, np.where(promoted(t, flags), pays1[r], fresh)
            elif rng.uniform() < 0.5:  # anything may happen before t, payments included
                p2[r], pays2[r] = True, fresh
        return t, np.array((pays1, pays2)), (t, p1, p2, flags)

    run("independence_of_past_and_locality", 61,
        draw_independence_of_past_and_locality,
        lambda vals, ctxs: (np.array([c[3] for c in ctxs])
                            & (vals[..., 0, :] != vals[..., 1, :])),
        lambda rows, ctx, vals: shown("value moved on the unchanged event", ctx[0],
                                      rows, ctx[1], ctx[2]))

    def draw_bounds_interval(rng, k):
        t = int(rng.choice(times))
        present, pays = stream(rng)
        return t, pays[None], (t, present)

    run("bounds_interval", 62, draw_bounds_interval,
        lambda vals, _: _escapes(m, vals, 1e-12),
        lambda rows, ctx, vals: shown("value left the bounds", ctx[0], rows, ctx[1]))

    top = DividendProcess.terminal_only(XVar.constant(space, INF))
    missed = [t for t in times if not np.all(lift_evaluate(m, t, top).values == m.z_u)]
    rep.add(CheckResult("upper_bound_attained", not missed, len(times), len(missed)))

    def approaches_lower_bound(t) -> bool:
        try:
            return _missed_lower_bound(m, lambda c: lift_evaluate(
                m, t, DividendProcess(space, {space.horizon: c})).values) is None
        except OverflowError:  # the value underflowed past float range: it diverged
            return not math.isfinite(m.z_d)

    missed = [t for t in times if not approaches_lower_bound(t)]
    rep.add(CheckResult("lower_bound_approached", not missed, len(times), len(missed),
                        witness={"note": "deep negative payments never pushed the "
                                         "value toward the lower bound",
                                 "stage": missed[0]} if missed else None))

    def draw_monotonicity(rng, k):
        t = int(rng.choice(times))
        p1, pays1 = stream(rng)
        p2, pays2 = p1, pays1
        for r in times[t:]:
            if rng.uniform() < 0.7:
                bump = promoted(r, draw_atom_values(space, r, rng, 0.0, 2.0))
                p2, pays2 = _paid_more(p2, pays2, r, bump)
        return t, np.array((pays1, pays2)), (t, p1, p2)

    run("monotonicity", 63, draw_monotonicity, lambda vals, _: _drops(vals, tol),
        lambda rows, ctx, vals: shown("larger payments lowered the value", ctx[0],
                                      rows, *ctx[1:]))

    def draw_strict_shift(rng, k):
        t = int(rng.choice(times))
        r_star = int(rng.choice(times[t:]))
        c = float(rng.uniform(0.05, 2.0))
        present, pays = stream(rng)
        paid = _paid_more(present, pays, r_star, np.full(space.n_leaves, c))[1]
        return t, np.array((pays, paid)), (t, r_star, c, present)

    run("strict_shift", 64, draw_strict_shift, lambda vals, _: _no_strict_gain(m, vals),
        lambda rows, ctx, vals: shown(
            "no strict gain from a positive payment", ctx[0], rows, ctx[3],
            paid_at=ctx[1], shift=ctx[2],
            atom=space.atom_id(ctx[0], int(np.argmax(_no_strict_gain(m, vals))))))

    def draw_quasi_concavity(rng, k):
        t = int(rng.choice(times))
        lam = float(rng.uniform(0.001, 0.999))  # keep 0 * inf out of the mix
        (p1, pays1), (p2, pays2) = stream(rng), stream(rng)
        return t, np.array((pays1, pays2, _mix(pays1, pays2, lam))), (t, lam, p1, p2)

    run("quasi_concavity", 65, draw_quasi_concavity,
        lambda vals, _: _mix_drops(vals, tol),
        lambda rows, ctx, vals: shown("mix fell below both endpoints", ctx[0], rows,
                                      *ctx[2:], lam=ctx[1]))

    def draw_timing_invariance(rng, k):
        t = int(rng.choice(times))
        r1, r2 = int(rng.choice(times[t:])), int(rng.choice(times[t:]))
        xi = promoted(t, draw_atom_values(space, t, rng))
        present, pays = stream(rng)
        paid = [_paid_more(present, pays, r, xi)[1] for r in (r1, r2)]
        return t, np.array(paid), (t, r1, r2, present, pays)

    run("timing_invariance", 66, draw_timing_invariance,
        lambda vals, _: _moved(vals, tol),
        lambda rows, ctx, vals: shown("payment date of a known transfer mattered",
                                      ctx[0], ctx[4][None], ctx[3],
                                      dates=[ctx[1], ctx[2]]))

    def draw_scale_invariance(rng, k):
        t = int(rng.choice(times))
        c = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
        present, pays = stream(rng)
        return t, np.array((pays, ext_mul(pays, c))), (t, c, present)

    if m.scale_invariant:
        run("scale_invariance", 67, draw_scale_invariance,
            lambda vals, _: _moved(vals, tol),
            lambda rows, ctx, vals: shown("scaling the stream moved the value", ctx[0],
                                          rows, ctx[2], scale=ctx[1]))
    else:
        rep.add(CheckResult("scale_invariance", None,
                            note="measure is not scale invariant; skipped"))

    def draw_aggregation_identity(rng, k):
        t = int(rng.choice(times))
        present, pays = stream(rng)
        bundled = _paid_at_the_end(space, _aggregate(t, pays))
        return t, np.array((pays, bundled)), (t, present)

    run("aggregation_identity", 68, draw_aggregation_identity,
        lambda vals, _: vals[..., 0, :] != vals[..., 1, :],
        lambda rows, ctx, vals: shown("bundling the payments at the final date changed "
                                      "the value", ctx[0], rows, ctx[1]))

    def draw_terminal_round_trip(rng, k):
        t = int(rng.choice(times))
        x = draw_leaf_values(space, rng)
        return t, np.array((_aggregate(t, _paid_at_the_end(space, x)), x)), t

    # these rows are leaf rows already: the lifted payoff and the payoff itself
    _property_runner(rep, trials, rng_seed,
                     lambda t, rows: evaluate_rows(m, space, t, rows))(
        "terminal_round_trip", 69, draw_terminal_round_trip,
        lambda vals, _: vals[..., 0, :] != vals[..., 1, :],
        lambda rows, t, vals: shown("single terminal payment did not recover the "
                                    "measure", t, rows, X=XVar(space, rows[1]).to_json()))
    return rep


def check_lift_time_consistency(d: DynamicMeasure, space: FilteredSpace, *,
                                z_grid=None, trials: int = 120, rng_seed: int = 0,
                                nonnegative_interim: bool = True,
                                witness: dict | None = None) -> Report:
    """Compare consistency-over-time verdicts for payoffs and for streams.

    Runs the payoff-level checker, then scans random streams, drawn as arrays
    (``draw_dividend``), for localized stream-level violations (an F_s-atom at
    or below a level with every F_t-child strictly above it, margins re-verified
    through the induced risk at tolerance 1e-12).  Witnesses transport both
    ways: a payoff witness becomes a single-terminal-payment stream with
    identical values, and a stream witness aggregates from stage s into a payoff
    witness, which is guaranteed when interim payments are nonnegative.
    Sampling with strictly negative interim payments documents the one-way gap
    instead of asserting agreement.

    A payoff-level ``witness`` found elsewhere (usually by the directed
    search) can be passed in; it is re-verified before use and then fed
    through the same transport machinery, so a deep search needs to run
    only once.
    """
    rep = Report(f"lift consistency for {d.name()}", seed=rng_seed,
                 meta={"trials": trials,
                       "nonnegative_interim": nonnegative_interim})
    var_rep = check_time_consistency(d, space, z_grid=z_grid, trials=trials,
                                     rng_seed=rng_seed)
    var_witness, var_verdict = var_rep.witness, var_rep.verdict
    injected = False
    if var_witness is None and witness is not None:
        ok, _ = verify_witness(d, space, witness)
        if ok:  # a verified witness is proof no matter where it came from
            var_witness, var_verdict, injected = witness, "counterexample", True
    levels = var_rep.meta["z_grid"]
    pairs = _stage_pairs(space)

    proc_witness, proc_candidates, proc_verified = None, 0, 0
    for rng in trial_rngs(rng_seed, 71, trials):
        present, pays = draw_dividend(space, rng, nonnegative_interim=nonnegative_interim)
        aggs = {t: _aggregate(t, pays) for t in space.times}
        betas = {t: evaluate_rows(d.measure, space, t, aggs[t][None])[0]
                 for t in space.times}
        for s, t, z, a, bs, bt_min, verdict in _scan(d, space, pairs, levels,
                                                     aggs, betas):
            if verdict is None:  # ties carry no verdict
                continue
            proc_candidates += 1
            if verdict[0]:
                proc_verified += 1
                if proc_witness is None:
                    proc_witness = _make_witness(
                        space, s, t, z, a, bs, bt_min,
                        D=DividendProcess.of_arrays(space, present, pays).to_json())
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
        dp = DividendProcess.terminal_only(XVar.from_json(w["x"], space))
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

    var_transport_ok = None
    if proc_witness is not None:
        w = proc_witness
        x_star = DividendProcess.from_json(w["D"], space).aggregate_from(w["s"])
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
        agree = (var_found == (proc_witness is not None)
                 or bool(to_process_ok if var_found else var_transport_ok))
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
