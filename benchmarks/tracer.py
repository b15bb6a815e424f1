"""Spans around the calls into each perflat layer, installed from outside.

The tracer rebinds public names in every loaded ``perflat`` module (and
``values`` methods on the shipped measure classes) to wrappers that time each
call and keep a stack, so a span's self time is its duration minus that of
the wrapped calls under it.  Spans are aggregated per name in memory: calls,
inclusive seconds, self seconds and the measure evaluations made inside.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from collections import Counter

from perflat import lattice, measures

LAYERS = ("lattice", "measures", "solvers", "risk_family", "simplex",
          "dynamics", "dividends", "util")

SPACE_BUILDERS = ("lattice.binomial_tree", "lattice.random_tree",
                  "lattice.FilteredSpace.from_json")

# measure kinds as reported in measures.values.calls.<kind>
MEASURE_KINDS = ("cond_expectation", "expected_utility", "exp_utility",
                 "certainty_equivalent", "glr", "reward_risk_lpm",
                 "reward_risk_avar")
_DENOMINATOR_KIND = {"LPMDenominator": "reward_risk_lpm",
                     "AVaRTruncDenominator": "reward_risk_avar"}


def _measure_kind(m) -> str:
    if isinstance(m, measures.RewardRiskRatio):
        return _DENOMINATOR_KIND.get(type(m.denominator).__name__, "reward_risk")
    return m.kind


@dataclasses.dataclass
class Stat:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    evals: int = 0  # measure evaluations made inside the span


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counts: Counter = Counter()
        self.active = True
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._lp_signature = None

    # -- recording -----------------------------------------------------------

    def take(self) -> tuple[dict, Counter]:
        """Return what was recorded so far and start afresh."""
        out = (self.stats, self.counts)
        self.stats, self.counts = {}, Counter()
        return out

    def snapshot(self) -> tuple[dict, Counter]:
        return ({k: dataclasses.replace(v) for k, v in self.stats.items()},
                Counter(self.counts))

    def _wrap(self, name: str, fn, before=None, after=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack.append(0.0)
            evals0 = self.counts["measures.values.calls"]
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = Stat()
                st.calls += 1
                st.incl_s += dt
                st.self_s += dt - child
                st.evals += self.counts["measures.values.calls"] - evals0
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(out, args, kwargs)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-name hooks --------------------------------------------------------

    def _count_g(self, args, kwargs):
        g = args[0]

        def counted(c):
            self.counts["solvers.g_evals"] += 1
            return g(c)
        return (counted,) + args[1:], kwargs

    def _count_probes(self, args, kwargs):
        family = args[0]
        raw = family.raw

        def counted(*a, **k):
            self.counts["risk_family.raw_probes"] += 1
            return raw(*a, **k)
        return (dataclasses.replace(family, raw=counted),) + args[1:], kwargs

    def _lp_done(self, sol, args, kwargs):
        bound = self._lp_signature.bind(*args, **kwargs)
        a = bound.arguments
        n = len(a["c"])
        ub = 0 if a.get("A_ub") is None else len(a["A_ub"])
        ge = 0 if a.get("b_ub") is None else int(sum(b < 0 for b in a["b_ub"]))
        eq = 0 if a.get("A_eq") is None else len(a["A_eq"])
        self.counts["simplex.pivots"] += sol.iterations
        self.counts["simplex.tableau_cells"] += (ub + eq) * (n + ub + ge + eq + 1)

    def _search_done(self, rep, args, kwargs):
        self.counts["dynamics.search_samples"] += rep.samples

    def _verify_done(self, out, args, kwargs):
        self.counts["dynamics.verify_accepted"] += bool(out[0])

    def _values_done(self, out, args, kwargs):
        self.counts["measures.values.calls"] += 1
        self.counts["measures.values.calls." + _measure_kind(args[0])] += 1

    # -- installing ------------------------------------------------------------

    def _rebind_everywhere(self, orig, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "perflat" or mod_name.startswith("perflat.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, attr, orig, wrapper))
                    setattr(mod, attr, wrapper)

    def _patch_attr(self, owner, attr: str, new):
        self._patches.append((owner, attr, owner.__dict__[attr], new))
        setattr(owner, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            "lattice.atom_expect": {},
            "lattice.binomial_tree": {},
            "lattice.random_tree": {},
            "solvers.vector_monotone_inf": {"before": self._count_g},
            "solvers.group_logsumexp": {},
            "risk_family.reconstruct": {"before": self._count_probes},
            "risk_family.induce_risk": {},
            "risk_family.glr_dual_risk": {},
            "risk_family.entropic_closed_form": {},
            "simplex.solve_lp": {"after": self._lp_done},
            "measures.check_axioms": {},
            "dynamics.search_counterexample": {"after": self._search_done},
            "dynamics.check_time_consistency": {},
            "dynamics.verify_witness": {"after": self._verify_done},
            "dividends.check_lift_axioms": {},
            "util.task_map": {},
        }
        for qual, kw in hooks.items():
            mod_name, attr = qual.split(".")
            orig = getattr(sys.modules[f"perflat.{mod_name}"], attr)
            if qual == "simplex.solve_lp":
                self._lp_signature = inspect.signature(orig)
            self._rebind_everywhere(orig, self._wrap(qual, orig, **kw))

        fs = lattice.FilteredSpace
        self._patch_attr(fs, "same_structure",
                         self._wrap("lattice.same_structure", fs.__dict__["same_structure"]))
        self._patch_attr(fs, "from_json", classmethod(
            self._wrap("lattice.FilteredSpace.from_json", fs.__dict__["from_json"].__func__)))
        for cls in (measures.ConditionalExpectation, measures.ExpectedUtilityMeasure,
                    measures.ExponentialUtilityMeasure, measures.CertaintyEquivalentMeasure,
                    measures.GainLossRatio, measures.RewardRiskRatio,
                    measures.CustomMeasure):
            self._patch_attr(cls, "values", self._wrap(
                "measures.values", cls.__dict__["values"], after=self._values_done))
        avar = measures.AVaRTruncDenominator
        self._patch_attr(avar, "risk_values", self._wrap(
            "measures.avar_risk_values", avar.__dict__["risk_values"]))

    def uninstall(self):
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def per_layer_metrics(setup: tuple[dict, Counter], setup_reps: int,
                      window: tuple[dict, Counter], window_ops: int,
                      timed: tuple[dict, Counter], timed_ops: int,
                      timed_op_s: float, untraced_ratio: float) -> dict:
    """The per-layer metrics of one traced run, as {name: (value, unit)}.

    Counts come from ``window``, the first ops of the traced phase, so they
    repeat exactly for one seed; times come from the whole traced phase.
    """
    wstats, wcounts = window
    tstats, _ = timed

    def wcalls(name):
        st = wstats.get(name)
        return st.calls if st else 0

    def per_op_calls(name):
        return wcalls(name) / window_ops

    def per_call(count, name):
        calls = wcalls(name)
        return count / calls if calls else 0.0

    def self_per_op(name):
        st = tstats.get(name)
        return st.self_s / timed_ops if st else 0.0

    sstats, _ = setup
    build_s = sum(sstats[n].incl_s for n in SPACE_BUILDERS if n in sstats) / setup_reps

    out = {
        "lattice.space_build_s": (build_s, "s"),
        "lattice.atom_expect.calls": (per_op_calls("lattice.atom_expect"), "calls/op"),
        "lattice.atom_expect.self_s": (self_per_op("lattice.atom_expect"), "s/op"),
        "lattice.same_structure.calls": (per_op_calls("lattice.same_structure"), "calls/op"),
        "measures.values.calls": (per_op_calls("measures.values"), "calls/op"),
    }
    for kind in MEASURE_KINDS:
        out[f"measures.values.calls.{kind}"] = (
            wcounts[f"measures.values.calls.{kind}"] / window_ops, "calls/op")
    values = tstats.get("measures.values")
    out["measures.values.us_per_call"] = (
        1e6 * values.incl_s / values.calls if values else 0.0, "us")
    out["measures.avar_risk_values.self_s"] = (self_per_op("measures.avar_risk_values"), "s/op")
    out["measures.check_axioms.self_s"] = (self_per_op("measures.check_axioms"), "s/op")

    vmi = "solvers.vector_monotone_inf"
    out[f"{vmi}.calls"] = (per_op_calls(vmi), "calls/op")
    out[f"{vmi}.self_s"] = (self_per_op(vmi), "s/op")
    out[f"{vmi}.g_evals_per_call"] = (per_call(wcounts["solvers.g_evals"], vmi), "count")
    out["solvers.group_logsumexp.self_s"] = (self_per_op("solvers.group_logsumexp"), "s/op")

    rec = "risk_family.reconstruct"
    ind = "risk_family.induce_risk"
    out[f"{rec}.self_s"] = (self_per_op(rec), "s/op")
    out[f"{rec}.raw_probes_per_call"] = (
        per_call(wcounts["risk_family.raw_probes"], rec), "count")
    out[f"{rec}.evals_per_call"] = (
        per_call(wstats[rec].evals if rec in wstats else 0, rec), "count")
    out[f"{ind}.self_s"] = (self_per_op(ind), "s/op")
    out[f"{ind}.evals_per_call"] = (
        per_call(wstats[ind].evals if ind in wstats else 0, ind), "count")
    out["risk_family.glr_dual_risk.self_s"] = (self_per_op("risk_family.glr_dual_risk"), "s/op")
    out["risk_family.entropic_closed_form.self_s"] = (
        self_per_op("risk_family.entropic_closed_form"), "s/op")

    lp = "simplex.solve_lp"
    out[f"{lp}.calls"] = (per_op_calls(lp), "calls/op")
    out[f"{lp}.self_s"] = (self_per_op(lp), "s/op")
    out[f"{lp}.pivots_per_solve"] = (per_call(wcounts["simplex.pivots"], lp), "count")
    out[f"{lp}.tableau_cells"] = (per_call(wcounts["simplex.tableau_cells"], lp), "count")

    search = tstats.get("dynamics.search_counterexample")
    _, tcounts = timed
    out["dynamics.search_counterexample.candidates_per_s"] = (
        tcounts["dynamics.search_samples"] / search.incl_s if search else 0.0, "1/s")
    out["dynamics.check_time_consistency.self_s"] = (
        self_per_op("dynamics.check_time_consistency"), "s/op")
    vw = "dynamics.verify_witness"
    out[f"{vw}.calls"] = (per_op_calls(vw), "calls/op")
    out[f"{vw}.accepted_ratio"] = (per_call(wcounts["dynamics.verify_accepted"], vw), "ratio")
    out["dividends.check_lift_axioms.self_s"] = (
        self_per_op("dividends.check_lift_axioms"), "s/op")
    out["util.task_map.self_s"] = (self_per_op("util.task_map"), "s/op")

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, st in tstats.items():
        layer_self[layer_of(name)] += st.self_s
    for layer in LAYERS:
        out[f"layer.{layer}.self_share"] = (layer_self[layer] / timed_op_s, "ratio")
    out["tracing.ops_per_s"] = (timed_ops / timed_op_s, "1/s")
    out["tracing.ops_per_s_ratio"] = (untraced_ratio, "ratio")
    return out
