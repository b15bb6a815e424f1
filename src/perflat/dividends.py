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
Streams go through the payoff checkers with their aggregates as the claims: the
consistency check runs its trial loop on each stage's aggregate, so the three
readings are sampled on streams as well, and ``check_lift_axioms`` runs the
properties that payoffs share through the payoff checkers' property table.  The
exact round trip and the bundling of the aggregate at the final date are
identities of the stream arithmetic, not of the measure, so unit tests check them.
Streams are drawn as arrays, n at a time (``draw_dividend``), each field as one
array with a fixed width per stream, so the lift checker's trial k draws the same
stream for any trial count and any chunking; the consistency check draws its
streams one trial at a time, each on its own Generator.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import replace
from functools import partial

import numpy as np

from .dynamics import (BETA_MARGIN, CRITERIA, DynamicMeasure, _child_min,
                       _consistency_pass, check_time_consistency, verify_witness)
from .lattice import INF, FilteredSpace, TVar, XVar, ext_add, num_from_json, num_to_json
from .measures import (DEFAULT_TOL, PerformanceMeasure, _claim_properties,
                       _event_flags, _missed_lower_bound, _moved, _prober, evaluate,
                       evaluate_rows)
from .report import CheckResult, Report
from .risk_family import TOL_C


def _aggregate(t, pays: np.ndarray) -> np.ndarray:
    """The aggregates from stage t of (..., n_stages, n_leaves) pays, as leaf rows; t
    is one stage, or one per stream of (n, ..., n_stages, n_leaves) pays.

    Each stream totals its payments at stages 0, 1, ..., T in that order with
    ``ext_add``; a stage before t, or paying nothing, adds +0.0, which leaves every
    partial sum as it is (a partial sum starts at +0.0 and is never -0.0)."""
    t = np.reshape(t, np.shape(t) + (1,) * (pays.ndim - 2))
    out = np.zeros(pays.shape[:-2] + pays.shape[-1:])
    for r in range(pays.shape[-2]):
        out = ext_add(out, np.where(r < t, 0.0, pays[..., r, :]))
    return out


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
        aggregation pass that the lift checker runs on the streams it draws."""
        t = self.space.check_stage(t)
        return XVar(self.space, _aggregate(t, self.pays), validate=False)

    def with_payment_added(self, r: int, amount: TVar | float) -> "DividendProcess":
        """A copy with amount added to the stage-r payment."""
        r = self.space.check_stage(r)
        amount = _payment_row(self.space, r, amount)
        present, pays = self.present.copy(), self.pays.copy()
        pays[r] = ext_add(pays[r], amount) if present[r] else amount
        present[r] = True
        return DividendProcess.of_arrays(self.space, present, pays)

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


def _stage_rows(space: FilteredSpace, values: np.ndarray) -> np.ndarray:
    """(n, stage-0 atoms + stage-1 atoms + ...) values as (n, stages, n_leaves) leaf
    rows, constant on each stage's atoms."""
    first = np.cumsum([0] + [space.n_atoms(t) for t in space.times[:-1]])
    return values[:, [f + space.atom_index[t] for f, t in zip(first, space.times)]]


def _atom_draws(space: FilteredSpace, field, n: int) -> np.ndarray:
    """One field's uniform [0, 1) draw per stage and atom, as ``_stage_rows``."""
    return _stage_rows(space, field().random((n, sum(map(space.n_atoms, space.times)))))


def draw_dividend(space: FilteredSpace, field, n: int, *,
                  nonnegative_interim: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """n random streams with a terminal payment and occasional interim ones, as
    (n, stages) present flags and (n, stages, n_leaves) pays.  field() is called for
    the Generator of the paying dates, then of the amounts, and each draws one array
    with a fixed width per stream.  Aggregation is monotone in the evaluation stage
    exactly when nothing strictly negative is paid in between, and the payoff/stream
    consistency transport relies on that, so negative interim payments are opt-in.
    """
    last = np.arange(len(space.times)) == space.horizon
    present = (field().random((n, len(space.times))) >= 0.35) | last
    lo = np.where(nonnegative_interim & ~last, 0.0, -4.0)[:, None]
    amounts = lo + (4.0 - lo) * _atom_draws(space, field, n)
    return present, np.where(present[..., None], amounts, 0.0)


def sample_dividend(space: FilteredSpace, rng: np.random.Generator, *,
                    nonnegative_interim: bool = True) -> DividendProcess:
    """One ``draw_dividend`` stream, every field from rng, as a ``DividendProcess``."""
    present, pays = draw_dividend(space, lambda: rng, 1,
                                  nonnegative_interim=nonnegative_interim)
    return DividendProcess.of_arrays(space, present[0], pays[0])


def lift_evaluate(m: PerformanceMeasure, t: int, dp: DividendProcess) -> TVar:
    """Value of the stream: the measure at the aggregate of payments from t on."""
    return evaluate(m, t, dp.aggregate_from(t))


def check_lift_axioms(m: PerformanceMeasure, space: FilteredSpace,
                      trials: int = 200, rng_seed: int = 0) -> Report:
    """Property tests for the lifted measure on random payment streams.

    Each randomized property is a ``_prober`` probe: a chunk of trials draws each
    trial's stage t from the first field, then its streams as arrays
    (``draw_dividend``), and aggregates each from its own t; a draw whose width
    depends on the stage (event flags, the transfer xi) is made for every stage and
    each trial takes its own.  Per chunk and stage one ``evaluate_rows`` call values
    the aggregates.  Bounds, monotonicity, strict shift, quasi-concavity and scale
    invariance are the payoff properties of ``measures._claim_properties`` on the
    aggregates; independence of the past with locality and timing invariance are
    the lift's own.  Only the first failing trial's witness builds
    ``DividendProcess`` objects.  The identities of the stream arithmetic (bundling
    at the final date, the terminal round trip) are unit tests.
    """
    rep = Report(f"lift axioms for {m.label()}", seed=rng_seed,
                 meta={"trials": trials, "space": space.name or ""})
    times, sizes = list(space.times), [space.n_atoms(t) for t in space.times]
    shown = lambda t, streams: {"stage": t, **{
        key: DividendProcess.of_arrays(space, *s).to_json()
        for key, s in zip(("D", "D2"), streams)}}
    probe = _prober(rep, space, trials, rng_seed,
                    lambda field, n: field().integers(len(times), size=n),
                    partial(evaluate_rows, m, space), shown)
    stream = lambda field, n: draw_dividend(space, field, n, nonnegative_interim=False)

    def aggregated(field, stages):
        present, pays = stream(field, len(stages))
        return _aggregate(stages, pays), zip(present, pays)

    shared = _claim_properties(m, aggregated)

    def draw_independence_of_past_and_locality(field, ks, stages):
        n, trial = len(ks), np.arange(len(ks))
        flags = _stage_rows(space, _event_flags(field, n, sizes))[trial, stages]
        p1, pays1 = stream(field, n)
        fresh = -4.0 + 8.0 * _atom_draws(space, field, n)
        early = np.arange(len(times)) < stages[:, None]
        # from t on the streams agree on the event; anything may happen before t,
        # payments included
        coin = field().random((n, len(times))) < 0.5
        p2 = ~early | coin
        pays2 = np.where(early[..., None], np.where(coin[..., None], fresh, 0.0),
                         np.where(flags[:, None], pays1, fresh))
        return (_aggregate(stages, np.stack((pays1, pays2), axis=1)),
                zip(zip(p1, pays1), zip(p2, pays2)),
                [_on_atoms(space, t, f) for t, f in zip(stages.tolist(), flags)])

    probe("independence_of_past_and_locality", 61,
          draw_independence_of_past_and_locality,
          lambda vals, flags: np.array(flags) & (vals[..., 0, :] != vals[..., 1, :]),
          "value moved on the unchanged event")
    probe("bounds_interval", 62, *shared["bounds_interval"])

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
    probe("monotonicity", 63, *shared["monotonicity"])
    probe("strict_shift", 64, *shared["strict_shift"])
    probe("quasi_concavity", 65, *shared["quasi_concavity"])

    def draw_timing_invariance(field, ks, stages):
        n, trial = len(ks), np.arange(len(ks))
        dates = stages[:, None] + field().integers(len(times) - stages[:, None],
                                                   size=(n, 2))
        xi = (-2.0 + 4.0 * _atom_draws(space, field, n))[trial, stages]
        present, pays = stream(field, n)
        paid = np.repeat(pays[:, None], 2, axis=1)
        for j, r in enumerate(dates.T):  # xi paid at date r, on top of any payment
            paid[trial, j, r] = ext_add(pays[trial, r], xi)
        return (_aggregate(stages, paid), zip(zip(present, pays)),
                [(d, t, _on_atoms(space, t, x))
                 for d, t, x in zip(dates.tolist(), stages.tolist(), xi)])

    probe("timing_invariance", 66, draw_timing_invariance,
          lambda vals, _: _moved(vals, DEFAULT_TOL),
          "payment date of a known transfer mattered", lambda ctx, vals, atoms: {
              "dates": ctx[0], "xi": TVar(space, *ctx[1:]).to_json()})
    if m.scale_invariant:
        probe("scale_invariance", 67, *shared["positive_scaling"])
    else:
        rep.add(CheckResult("scale_invariance", None,
                            note="measure is not scale invariant; skipped"))
    return rep


def check_lift_time_consistency(d: DynamicMeasure, space: FilteredSpace, *,
                                z_grid=None, trials: int = 120, rng_seed: int = 0,
                                nonnegative_interim: bool = True,
                                witness: dict | None = None) -> Report:
    """Compare consistency-over-time verdicts for payoffs and for streams.

    Runs the payoff-level checker, then its trial loop (``_consistency_pass``) on
    random streams drawn as arrays (``draw_dividend``), with the aggregate from r as
    the claim at stage r.  The process_eq_tc entries count stream violations without
    asserting (a stream may break consistency); process_criteria_agreement is
    asserted, since the sign equivalence holds for each stage's own claim.  Localized
    stream violations are re-verified through the induced risk at tolerance 1e-12.
    Witnesses transport both ways: a payoff witness becomes a single-terminal-payment
    stream with identical values, and a stream witness aggregates from stage s into
    a payoff witness, which is guaranteed when interim payments are nonnegative.
    Sampling with strictly negative interim payments documents the one-way gap
    instead of asserting agreement.

    A payoff-level ``witness`` found elsewhere (usually by the directed
    search) can be passed in; it is re-verified before use and then fed
    through the same transport machinery, so a deep search needs to run
    only once.
    """
    rep = Report(f"lift consistency for {d.name()}", seed=rng_seed,
                 meta={"trials": trials, "nonnegative_interim": nonnegative_interim})
    var_rep = check_time_consistency(d, space, z_grid=z_grid, trials=trials,
                                     rng_seed=rng_seed)
    var_witness, var_verdict = var_rep.witness, var_rep.verdict
    injected = False
    if var_witness is None and witness is not None:
        ok, _ = verify_witness(d, space, witness)
        if ok:  # a verified witness is proof no matter where it came from
            var_witness, var_verdict, injected = witness, "counterexample", True
    levels = var_rep.meta["z_grid"]

    def draw(rng):
        (present,), (pays,) = draw_dividend(space, lambda: rng, 1,
                                            nonnegative_interim=nonnegative_interim)
        return ({r: XVar(space, _aggregate(r, pays), validate=False) for r in space.times},
                lambda: {"D": DividendProcess.of_arrays(space, present, pays).to_json()})

    proc, decided = _consistency_pass(d, space, levels, trials, rng_seed, 71, draw, TOL_C)
    rep.add(CheckResult("variable_level", None, var_rep.samples,
                        0 if var_verdict == "consistent-on-sample" else 1,
                        note=f"verdict: {var_verdict}"
                        + (" (witness supplied and re-verified)" if injected else "")))
    rep.add(CheckResult("process_level", None, decided,
                        proc.result("localized_violations").failures,
                        note=f"verdict: {proc.verdict}"))
    # a stream violation is a verdict, not a defect; the readings must still agree
    for r in proc.results[:len(CRITERIA)]:
        rep.add(CheckResult(f"process_{r.name}", None, r.trials, r.failures))
    rep.add(replace(proc.result("criteria_agreement"), name="process_criteria_agreement"))

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
                            note="payoff witness re-checked as a single terminal payment"))
    else:
        rep.add(CheckResult("transport_to_process", None,
                            note="no payoff-level witness to transport"))

    var_transport_ok = None
    if proc.witness is not None:
        w = proc.witness
        x_star = DividendProcess.from_json(w["D"], space).aggregate_from(w["s"])
        var_transport_ok, detail = verify_witness(d, space, w, x=x_star)
        note = (f"aggregate from stage {w['s']} re-verified: beta_s={detail['beta_s']:.6g}"
                if nonnegative_interim else "stream witness " +
                ("still transports" if var_transport_ok else "does not transport") +
                " despite negative interim payments")
        rep.add(CheckResult("transport_to_variable",
                            var_transport_ok if nonnegative_interim else None, 1,
                            0 if var_transport_ok else 1, note=note))
    else:
        rep.add(CheckResult("transport_to_variable", None,
                            note="no stream-level witness to transport"))

    if nonnegative_interim:
        # with nonnegative interim payments the two views certify each other:
        # when only one side found a witness, transport must bridge the gap
        var_found = var_witness is not None
        agree = (var_found == (proc.witness is not None)
                 or bool(to_process_ok if var_found else var_transport_ok))
        rep.add(CheckResult("verdict_agreement", agree, 1, 0 if agree else 1,
                            note=f"payoffs: {var_verdict}; streams: {proc.verdict}"))
    else:
        rep.add(CheckResult("verdict_agreement", None,
                            note=(f"payoffs: {var_verdict}; streams: {proc.verdict}; "
                                  "negative interim payments break the stream-to-payoff "
                                  "direction, so disagreement here is expected, not an "
                                  "error")))
    rep.meta["verdicts"] = {"variable": var_verdict, "process": proc.verdict}
    rep.meta["z_grid"] = levels
    return rep
