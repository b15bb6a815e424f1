"""Conditional performance measures on scenario trees.

A measure maps a terminal variable X to a stage variable beta_t(X) and satisfies, on
its open interval of attainable levels (z_d, z_u): quasi concavity, monotonicity with
strict increase along constant positive shifts, continuity from below, locality, and a
uniform lower bound on the stage-measurable part of each acceptance set.  Acceptability
indexes additionally satisfy beta_t(cX) = beta_t(X) for c > 0.

Shipped measures: conditional expectation (optionally under an equivalent measure),
expected utility with optional stage endowment, exponential utility with a possibly
random risk-aversion profile, conditional certainty equivalent, gain-loss ratio, and
reward-risk ratios with lower-partial-moment or truncated-AVaR denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .lattice import (INF, FilteredSpace, TVar, XVar, atom_expect,
                      close_or_both_inf, loss_order, num_from_json, num_to_json,
                      sample_event, sample_tvar, sample_xvar)
from .report import CheckResult, Report, run_trials
from .solvers import vector_monotone_inf

EPS_STRICT = 1e-12
DEFAULT_TOL = 1e-9


# ---------------------------------------------------------------------------
# utilities


class UtilitySpec:
    """Concave nondecreasing utility, finite on R, with a usable inverse when strict.

    Tags: linear U(x) = x; exp U(x) = 1 - e^(-lam x); power = shifted CRRA on gains
    with a linear extension below 0 (keeps the function finite on all of R); piecewise
    from concave nondecreasing knots, extended by the end slopes.
    """

    def __init__(self, tag: str, *, lam: float | None = None, eta: float | None = None,
                 knots=None, endowment: TVar | None = None):
        self.tag = tag
        self.endowment = endowment
        if tag == "linear":
            self.at_inf, self.at_neg_inf = INF, -INF
            self.strictly_increasing = True
            self.positively_homogeneous = True
        elif tag == "exp":
            self.lam = float(lam if lam is not None else 1.0)
            if self.lam <= 0:
                raise ValueError("exp utility needs lam > 0")
            self.at_inf, self.at_neg_inf = 1.0, -INF
            self.strictly_increasing = True
            self.positively_homogeneous = False
        elif tag == "power":
            self.eta = float(eta if eta is not None else 0.5)
            if self.eta <= 0:
                raise ValueError("power utility needs eta > 0")
            self.at_inf = INF if self.eta <= 1.0 else 1.0 / (self.eta - 1.0)
            self.at_neg_inf = -INF
            self.strictly_increasing = True
            self.positively_homogeneous = False
        elif tag == "piecewise":
            pts = [(float(a), float(b)) for a, b in knots]
            if len(pts) < 2:
                raise ValueError("piecewise utility needs at least two knots")
            self.kx = np.array([a for a, _ in pts])
            self.ky = np.array([b for _, b in pts])
            if np.any(np.diff(self.kx) <= 0):
                raise ValueError("knot abscissae must be strictly increasing")
            slopes = np.diff(self.ky) / np.diff(self.kx)
            if np.any(slopes < -1e-12):
                raise ValueError("piecewise utility must be nondecreasing")
            if np.any(np.diff(slopes) > 1e-12):
                raise ValueError("piecewise utility must be concave")
            self.slopes = np.maximum(slopes, 0.0)
            if self.slopes[0] <= 0:
                raise ValueError("constant utility is not allowed")
            self.at_inf = self.ky[-1] if self.slopes[-1] == 0.0 else INF
            self.at_neg_inf = -INF
            self.strictly_increasing = bool(np.all(self.slopes > 0))
            self.positively_homogeneous = False
        else:
            raise ValueError(f"unknown utility tag {tag!r}")
        self._validate_shape()

    def _validate_shape(self):
        # sampled concavity / monotonicity guard for every tag
        xs = np.linspace(-50.0, 50.0, 401)
        ys = self(xs)
        if np.any(np.diff(ys) < -1e-12):
            raise ValueError("utility is not nondecreasing on the sample grid")
        if np.any(np.diff(ys, 2) > 1e-9):
            raise ValueError("utility is not concave on the sample grid")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.tag == "linear":
            return x.copy()
        if self.tag == "exp":
            pos_inf = np.isposinf(x)
            with np.errstate(over="ignore"):
                out = 1.0 - np.exp(-self.lam * x)
            return np.where(pos_inf, 1.0, out)
        if self.tag == "power":
            xp = np.maximum(x, 0.0)
            if self.eta == 1.0:
                upper = np.log1p(xp)
            else:
                with np.errstate(over="ignore"):
                    upper = (np.power(1.0 + xp, 1.0 - self.eta) - 1.0) / (1.0 - self.eta)
            upper = np.where(np.isposinf(x), self.at_inf, upper)
            return np.where(x >= 0.0, upper, x)
        # piecewise: interpolate then extend by end slopes
        out = np.interp(x, self.kx, self.ky)
        left = x < self.kx[0]
        right = x > self.kx[-1]
        out = np.where(left, self.ky[0] + self.slopes[0] * (x - self.kx[0]), out)
        out = np.where(right, self.ky[-1] + self.slopes[-1] * (x - self.kx[-1]), out)
        out = np.where(np.isposinf(x), self.at_inf, out)
        return out

    def inverse(self, y):
        """Inverse on the range; y at/above U(+inf) maps to +inf.  Strict tags only."""
        if not self.strictly_increasing:
            raise ValueError("inverse needs a strictly increasing utility")
        y = np.asarray(y, dtype=float)
        if self.tag == "linear":
            return y.copy()
        if self.tag == "exp":
            top = y >= 1.0
            safe = np.where(top, 0.0, y)
            out = -np.log1p(-safe) / self.lam
            return np.where(top, INF, out)
        if self.tag == "power":
            top = y >= self.at_inf
            yp = np.maximum(np.where(top, 0.0, y), 0.0)
            if self.eta == 1.0:
                upper = np.expm1(yp)
            else:
                upper = np.power(1.0 + (1.0 - self.eta) * yp, 1.0 / (1.0 - self.eta)) - 1.0
            out = np.where(y >= 0.0, upper, y)
            return np.where(top, INF, out)
        top = y >= self.at_inf
        safe = np.where(top, self.ky[0], y)
        out = np.interp(safe, self.ky, self.kx)
        left = safe < self.ky[0]
        right = safe > self.ky[-1]
        out = np.where(left, self.kx[0] + (safe - self.ky[0]) / self.slopes[0], out)
        out = np.where(right, self.kx[-1] + (safe - self.ky[-1]) / self.slopes[-1], out)
        return np.where(top, INF, out)

    def to_json(self) -> dict:
        out: dict = {"tag": self.tag}
        if self.tag == "exp":
            out["lam"] = num_to_json(self.lam)
        elif self.tag == "power":
            out["eta"] = num_to_json(self.eta)
        elif self.tag == "piecewise":
            out["knots"] = [[num_to_json(a), num_to_json(b)]
                            for a, b in zip(self.kx, self.ky)]
        return out

    @classmethod
    def from_json(cls, d: Mapping) -> "UtilitySpec":
        tag = d["tag"]
        return cls(tag, lam=d.get("lam") and num_from_json(d["lam"]),
                   eta=d.get("eta") and num_from_json(d["eta"]),
                   knots=d.get("knots"))

    def label(self) -> str:
        if self.tag == "exp":
            return f"exp(lam={self.lam:g})"
        if self.tag == "power":
            return f"power(eta={self.eta:g})"
        return self.tag


def _resolve_stage_param(param, space: FilteredSpace, t: int, name: str) -> np.ndarray:
    """A per-stage parameter: scalar, TVar, or {stage: per-atom array}."""
    if isinstance(param, TVar):
        if param.stage != t:
            raise ValueError(f"{name} given at stage {param.stage}, needed at {t}")
        return param.values
    if isinstance(param, Mapping):
        if t not in param:
            raise ValueError(f"{name} has no entry for stage {t}")
        entry = param[t]
        if isinstance(entry, TVar):
            return _resolve_stage_param(entry, space, t, name)
        arr = np.asarray(entry, dtype=float)
        if arr.ndim == 0:
            return np.full(space.n_atoms(t), float(arr))
        if arr.shape != (space.n_atoms(t),):
            raise ValueError(f"{name} shape mismatch at stage {t}")
        return arr
    return np.full(space.n_atoms(t), float(param))


# ---------------------------------------------------------------------------
# measures


class PerformanceMeasure:
    """Base class: concrete measures implement raw per-atom values."""

    kind = "abstract"
    z_d = -INF
    z_u = INF
    scale_invariant = False
    eps_strict = EPS_STRICT

    def values(self, space: FilteredSpace, t: int, leaf_values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, t: int, x: XVar) -> TVar:
        t = x.space.check_stage(t)
        out = self.values(x.space, t, x.values)
        if np.any(np.isneginf(out)):
            raise OverflowError(
                "measure value below float range (the mathematical value is finite "
                "but not representable); use raw probes for extreme shifts")
        return TVar(x.space, t, out, kind="bb")

    def risk_at_zero_log_level(self, space: FilteredSpace, t: int,
                               log_level: float) -> np.ndarray | None:
        """Closed form for the cash threshold at level z = -e^log_level, if known."""
        return None

    def params_json(self, space: FilteredSpace | None = None) -> dict:
        return {}

    def to_json(self, space: FilteredSpace | None = None) -> dict:
        return {"kind": self.kind, "params": self.params_json(space),
                "z_d": num_to_json(self.z_d), "z_u": num_to_json(self.z_u)}

    def label(self) -> str:
        return self.kind


def evaluate(m: PerformanceMeasure, t: int, x: XVar) -> TVar:
    """beta_t(X) as a bounded-below stage variable."""
    return m.evaluate(t, x)


class ConditionalExpectation(PerformanceMeasure):
    """E^Q[X | F_t]; Q defaults to the reference measure and must be equivalent."""

    kind = "cond_expectation"

    def __init__(self, q: np.ndarray | None = None):
        if q is not None:
            q = np.asarray(q, dtype=float)
            if np.any(q <= 0.0):
                raise ValueError("Q must be equivalent: strictly positive leaf weights")
            if abs(q.sum() - 1.0) > 1e-9:
                raise ValueError("Q weights must sum to one")
        self.q = q

    def values(self, space, t, leaf_values):
        if self.q is not None and self.q.shape != (space.n_leaves,):
            raise ValueError("Q weights shape mismatch")
        return atom_expect(space, t, leaf_values, weights=self.q)

    def params_json(self, space=None):
        if self.q is None:
            return {}
        if space is None:
            raise ValueError("space needed to serialize leaf weights")
        return {"q": {s: num_to_json(v) for s, v in zip(space.leaf_ids, self.q)}}

    def label(self):
        return "cond_expectation" if self.q is None else "cond_expectation(Q)"


class ExpectedUtilityMeasure(PerformanceMeasure):
    """E[U(X + W) | F_t] for a concave nondecreasing U and optional endowment W."""

    kind = "expected_utility"

    def __init__(self, utility: UtilitySpec):
        self.utility = utility
        self.z_u = utility.at_inf
        self.z_d = utility.at_neg_inf
        if not (self.z_d < self.z_u):
            raise ValueError("degenerate utility: z_d must stay below z_u")

    def _shifted(self, space, t, leaf_values):
        w = self.utility.endowment
        if w is None:
            return leaf_values
        if w.stage > t:
            raise ValueError("endowment must be measurable at the evaluation stage")
        return leaf_values + w.values[space.atom_index[w.stage]]

    def values(self, space, t, leaf_values):
        return atom_expect(space, t, self.utility(self._shifted(space, t, leaf_values)))

    def risk_at_zero_log_level(self, space, t, log_level):
        if self.utility.tag != "exp" or self.utility.endowment is not None:
            return None
        lam = self.utility.lam
        return np.full(space.n_atoms(t), -np.logaddexp(0.0, log_level) / lam)

    def params_json(self, space=None):
        out = {"utility": self.utility.to_json()}
        if self.utility.endowment is not None:
            out["endowment"] = self.utility.endowment.to_json()
        return out

    def label(self):
        return f"expected_utility[{self.utility.label()}]"


class ExponentialUtilityMeasure(PerformanceMeasure):
    """beta_t(X) = E[1 - e^(-lam_t X) | F_t] with lam_t > 0, possibly atom by atom."""

    kind = "exp_utility"
    z_d = -INF
    z_u = 1.0

    def __init__(self, risk_aversion=1.0):
        self.risk_aversion = risk_aversion
        if not isinstance(risk_aversion, (Mapping, TVar)):
            if float(risk_aversion) <= 0.0:
                raise ValueError("risk aversion must be positive")

    def lam_at(self, space, t) -> np.ndarray:
        lam = _resolve_stage_param(self.risk_aversion, space, t, "risk_aversion")
        if np.any(lam <= 0.0):
            raise ValueError("risk aversion must be positive")
        return lam

    def values(self, space, t, leaf_values):
        lam_leaf = self.lam_at(space, t)[space.atom_index[t]]
        pos_inf = np.isposinf(leaf_values)
        with np.errstate(over="ignore"):
            w = np.exp(-lam_leaf * leaf_values)
        w = np.where(pos_inf, 0.0, w)
        return 1.0 - atom_expect(space, t, w)

    def risk_at_zero_log_level(self, space, t, log_level):
        return -np.logaddexp(0.0, log_level) / self.lam_at(space, t)

    def params_json(self, space=None):
        ra = self.risk_aversion
        if isinstance(ra, (Mapping, TVar)):
            if space is None:
                raise ValueError("space needed to serialize a random profile")
            if isinstance(ra, TVar):
                ra = {ra.stage: ra.values}
            out = {}
            for t, arr in ra.items():
                arr = np.asarray(arr, dtype=float)
                out[str(t)] = {space.atom_id(int(t), k): num_to_json(v)
                               for k, v in enumerate(arr)}
            return {"risk_aversion": out}
        return {"risk_aversion": num_to_json(float(ra))}

    def label(self):
        if isinstance(self.risk_aversion, (Mapping, TVar)):
            return "exp_utility[random lam]"
        return f"exp_utility[lam={float(self.risk_aversion):g}]"


class CertaintyEquivalentMeasure(PerformanceMeasure):
    """C_t(X) = U^{-1}(E[U(X) | F_t]) for strictly increasing U."""

    kind = "certainty_equivalent"
    z_d = -INF
    z_u = INF

    def __init__(self, utility: UtilitySpec):
        if not utility.strictly_increasing:
            raise ValueError("certainty equivalent needs a strictly increasing utility")
        if utility.endowment is not None:
            raise ValueError("certainty equivalent takes no endowment")
        self.utility = utility

    def values(self, space, t, leaf_values):
        y = atom_expect(space, t, self.utility(leaf_values))
        return self.utility.inverse(y)

    def risk_at_zero_log_level(self, space, t, log_level):
        # C_t(xi) = xi on stage variables, so the cash threshold at level z is z itself
        return np.full(space.n_atoms(t), -math.exp(min(log_level, 709.0)))

    def params_json(self, space=None):
        return {"utility": self.utility.to_json()}

    def label(self):
        return f"certainty_equivalent[{self.utility.label()}]"


class GainLossRatio(PerformanceMeasure):
    """E[X|F_t] / E[X^-|F_t] on {E[X|F_t] > 0}, zero elsewhere; xi/0 = +inf for xi > 0."""

    kind = "glr"
    z_d = 0.0
    z_u = INF
    scale_invariant = True

    def values(self, space, t, leaf_values):
        num = atom_expect(space, t, leaf_values)
        den = atom_expect(space, t, np.maximum(-leaf_values, 0.0))
        pos = num > self.eps_strict
        safe = np.where(den > self.eps_strict, den, 1.0)
        with np.errstate(invalid="ignore"):
            ratio = num / safe
        out = np.where(den > self.eps_strict, ratio, INF)
        return np.where(pos, out, 0.0)


@dataclass
class LPMDenominator:
    """Lower partial moment root: (E[(X^-)^p | F_t])^(1/p), p > 1."""

    p: float = 2.0

    def __post_init__(self):
        if self.p <= 1.0:
            raise ValueError("lower partial moment order must exceed 1")

    positively_homogeneous = True

    def values(self, space, t, leaf_values):
        neg = np.maximum(-leaf_values, 0.0)
        return np.power(atom_expect(space, t, np.power(neg, self.p)), 1.0 / self.p)

    def to_json(self, space=None):
        return {"kind": "lpm", "p": num_to_json(self.p)}

    def label(self):
        return f"lpm(p={self.p:g})"


@dataclass
class AVaRTruncDenominator:
    """Truncated conditional AVaR: max(AVaR_level(X | F_t), 0).

    AVaR at level a is the largest E^Q[-X | F_t] over densities capped at 1/a that
    agree with P on F_t; on an atom that is the mean of the worst a-tail of losses.
    With the atom's losses L_1 >= L_2 >= ... , their conditional weights w_j and
    W_j = w_1 + ... + w_(j-1) the weight of the larger losses,

        AVaR_a = (1/a) sum_j L_j min(w_j, (a - W_j)^+)

    (Acerbi and Tasche 2002), so one sort and one prefix sum serve every atom.
    A level left at or below 1e-15 takes nothing more, and a leaf outside the tail
    contributes 0 even when its loss is -inf (a +inf gain).
    """

    level: object = 0.5  # scalar, TVar, or {stage: per-atom array}

    positively_homogeneous = True

    def level_at(self, space, t) -> np.ndarray:
        lv = _resolve_stage_param(self.level, space, t, "avar level")
        if np.any((lv <= 0.0) | (lv >= 1.0)):
            raise ValueError("avar level must lie in (0, 1)")
        return lv

    def risk_values(self, space, t, leaf_values):
        lv = self.level_at(space, t)
        losses = -leaf_values  # +inf gains become -inf losses and sort to the tail end
        order, atom, starts = loss_order(space, t, losses)
        w = space.probs[order] / space.atom_mass[t][atom]
        # Each atom's weights sum to one, so taking one off at its last leaf brings the
        # running sum back to about zero: an atom's prefix sums keep its own scale
        # however many atoms come before it.
        step = w.copy()
        step[starts[1:] - 1] -= 1.0
        run = np.concatenate(([0.0], np.cumsum(step)))
        rest = (lv + run[starts])[atom] - run[:-1]  # level left for each leaf
        live = rest > 1e-15
        live[starts] = True  # the largest loss is in the tail at any level
        take = np.where(live, np.minimum(w, rest), 0.0)
        tail = np.where(live, losses[order], 0.0) * take
        return np.bincount(atom, weights=tail, minlength=len(lv)) / lv

    def values(self, space, t, leaf_values):
        return np.maximum(self.risk_values(space, t, leaf_values), 0.0)

    def to_json(self, space=None):
        if isinstance(self.level, (Mapping, TVar)):
            raise ValueError("random avar levels are not serialized")
        return {"kind": "avar_trunc", "level": num_to_json(float(self.level))}

    def label(self):
        if isinstance(self.level, (Mapping, TVar)):
            return "avar_trunc(random)"
        return f"avar_trunc(level={float(self.level):g})"


class RewardRiskRatio(PerformanceMeasure):
    """E[U(X)|F_t] / sigma_t(X) on {E[U(X)|F_t] > 0}, zero elsewhere.

    With the AVaR denominator the default convention sets the value to +inf only where
    the reward is positive and the truncated risk vanishes; the alternative flag
    reproduces the variant that returns +inf on {AVaR <= 0} regardless of reward.
    """

    kind = "reward_risk"
    z_d = 0.0
    z_u = INF

    def __init__(self, utility: UtilitySpec, denominator,
                 infinite_when_risk_nonpositive: bool = False):
        if utility.at_inf <= 0.0:
            raise ValueError("reward-risk needs U(+inf) > 0")
        if utility(np.array([0.0]))[0] > 0.0:
            raise ValueError("reward-risk needs U(0) <= 0")
        self.utility = utility
        self.denominator = denominator
        self.infinite_when_risk_nonpositive = bool(infinite_when_risk_nonpositive)
        self.scale_invariant = bool(utility.positively_homogeneous
                                    and denominator.positively_homogeneous)

    def values(self, space, t, leaf_values):
        num = atom_expect(space, t, self.utility(leaf_values))
        den = self.denominator.values(space, t, leaf_values)
        pos = num > self.eps_strict
        safe = np.where(den > self.eps_strict, den, 1.0)
        with np.errstate(invalid="ignore"):
            ratio = num / safe
        out = np.where(den > self.eps_strict, ratio, INF)
        out = np.where(pos, out, 0.0)
        if self.infinite_when_risk_nonpositive and hasattr(self.denominator, "risk_values"):
            risk = self.denominator.risk_values(space, t, leaf_values)
            out = np.where(risk <= self.eps_strict, INF, out)
        return out

    def params_json(self, space=None):
        return {"utility": self.utility.to_json(),
                "denominator": self.denominator.to_json(space),
                "infinite_when_risk_nonpositive": self.infinite_when_risk_nonpositive}

    def label(self):
        return f"reward_risk[{self.utility.label()}/{self.denominator.label()}]"


class CustomMeasure(PerformanceMeasure):
    """Wrap a raw evaluator; used for user extensions and deliberately broken probes."""

    def __init__(self, fn: Callable, z_d: float, z_u: float, kind: str = "custom",
                 scale_invariant: bool = False):
        self.fn = fn
        self.z_d = float(z_d)
        self.z_u = float(z_u)
        self.kind = kind
        self.scale_invariant = scale_invariant

    def values(self, space, t, leaf_values):
        return np.asarray(self.fn(space, t, leaf_values), dtype=float)


def lpm_ratio(p: float = 2.0) -> RewardRiskRatio:
    """Gain to lower-partial-moment ratio: linear reward over the p-LPM root."""
    return RewardRiskRatio(UtilitySpec("linear"), LPMDenominator(p))


def raroc(level: float = 0.5, utility: UtilitySpec | None = None,
          infinite_when_risk_nonpositive: bool = False) -> RewardRiskRatio:
    return RewardRiskRatio(utility or UtilitySpec("linear"), AVaRTruncDenominator(level),
                           infinite_when_risk_nonpositive=infinite_when_risk_nonpositive)


def measure_from_json(d: Mapping, space: FilteredSpace | None = None) -> PerformanceMeasure:
    kind = d["kind"]
    params = d.get("params", {})
    if kind == "cond_expectation":
        q = None
        if "q" in params:
            if space is None:
                raise ValueError("space needed to parse leaf weights")
            q = np.zeros(space.n_leaves)
            for key, v in params["q"].items():
                q[space.leaf_pos(str(key))] = num_from_json(v)
        m: PerformanceMeasure = ConditionalExpectation(q)
    elif kind == "expected_utility":
        util = UtilitySpec.from_json(params["utility"])
        if "endowment" in params and params["endowment"]:
            if space is None:
                raise ValueError("space needed to parse the endowment")
            raw = params["endowment"]
            stage = int(raw["stage"])
            vals = np.zeros(space.n_atoms(stage))
            for key, v in raw["values"].items():
                vals[space.atom_by_id(stage, str(key))] = num_from_json(v)
            util.endowment = TVar(space, stage, vals)
        m = ExpectedUtilityMeasure(util)
    elif kind == "exp_utility":
        ra = params.get("risk_aversion", 1.0)
        if isinstance(ra, Mapping):
            if space is None:
                raise ValueError("space needed to parse a random profile")
            prof = {}
            for t_key, atom_map in ra.items():
                t = int(t_key)
                arr = np.zeros(space.n_atoms(t))
                for key, v in atom_map.items():
                    arr[space.atom_by_id(t, str(key))] = num_from_json(v)
                prof[t] = arr
            m = ExponentialUtilityMeasure(prof)
        else:
            m = ExponentialUtilityMeasure(num_from_json(ra))
    elif kind == "certainty_equivalent":
        m = CertaintyEquivalentMeasure(UtilitySpec.from_json(params["utility"]))
    elif kind == "glr":
        m = GainLossRatio()
    elif kind == "reward_risk":
        den_raw = params["denominator"]
        if den_raw["kind"] == "lpm":
            den = LPMDenominator(num_from_json(den_raw["p"]))
        elif den_raw["kind"] == "avar_trunc":
            den = AVaRTruncDenominator(num_from_json(den_raw["level"]))
        else:
            raise ValueError(f"unknown denominator kind {den_raw['kind']!r}")
        m = RewardRiskRatio(UtilitySpec.from_json(params["utility"]), den,
                            infinite_when_risk_nonpositive=bool(
                                params.get("infinite_when_risk_nonpositive", False)))
    else:
        raise ValueError(f"unknown measure kind {kind!r}")
    for key, attr in (("z_d", m.z_d), ("z_u", m.z_u)):
        if key in d and not close_or_both_inf(num_from_json(d[key]), attr, 1e-9):
            raise ValueError(f"declared {key} does not match the measure kind")
    return m


# ---------------------------------------------------------------------------
# axiom checker


def _below_zu(vals: np.ndarray, z_u: float, gap: float = DEFAULT_TOL) -> np.ndarray:
    return vals < z_u - gap if math.isfinite(z_u) else vals < INF


def _above_zd(vals: np.ndarray, z_d: float, gap: float = DEFAULT_TOL) -> np.ndarray:
    return vals > z_d + gap if math.isfinite(z_d) else vals > -INF


def _below_mix_floor(got: np.ndarray, floor: np.ndarray, tol: float) -> np.ndarray:
    """Atoms where a convex mix falls below the smaller endpoint value.

    A mix valued exactly 0 against a floor of at most 1e-6 counts as a tie, not a drop.
    """
    return (got < floor - tol) & ~((got == 0.0) & (floor <= 1e-6))


def _no_strict_gain(m: PerformanceMeasure, before: np.ndarray,
                    after: np.ndarray) -> np.ndarray:
    """Live atoms (below z_u before, above z_d after) where a positive shift gained nothing."""
    return (_below_zu(before, m.z_u) & _above_zd(after, m.z_d)
            & (after <= before + EPS_STRICT))


def _interior_levels(z_d: float, z_u: float, qs=(0.25, 0.5, 0.75)) -> list[float]:
    u_lo = math.atan(max(z_d, -1e12))
    u_hi = math.atan(min(z_u, 1e12))
    return [math.tan(u_lo + q * (u_hi - u_lo)) for q in qs]


def _witness(x: XVar, note: str, **extra) -> dict:
    out = {"note": note, "X": x.to_json()}
    out.update(extra)
    return out


def check_axioms(m: PerformanceMeasure, space: FilteredSpace, t: int,
                 trials: int = 200, rng_seed: int = 0, tol: float = DEFAULT_TOL,
                 sampler: Callable | None = None) -> Report:
    """Randomized verification of the six defining properties at stage t.

    Each property gets its own trial loop with seeds derived from rng_seed, so verdicts
    do not depend on scheduling.  The report carries the first witness per failure.
    """
    t = space.check_stage(t)
    if sampler is None:
        def sampler(rng):
            return sample_xvar(space, rng, inf_prob=0.02 if rng.random() < 0.25 else 0.0)
    raw = lambda x: m.values(space, t, x.values)
    rep = Report(title=f"axioms[{m.label()}] t={t}", seed=rng_seed,
                 meta={"space": space.name or "", "trials": trials})

    # 1. quasi concavity
    def quasi_concavity(rng, k):
        x, y = sampler(rng), sampler(rng)
        lam = float(rng.uniform(0.001, 0.999))  # keep 0 * inf out of the mix
        mix = XVar(space, lam * x.values + (1.0 - lam) * y.values, validate=False)
        floor = np.minimum(raw(x), raw(y))
        bad = _below_mix_floor(raw(mix), floor, tol)
        if np.any(bad):
            return _witness(x, "beta(mix) below min", Y=y.to_json(),
                            lam=lam, atom=space.atom_id(t, int(np.argmax(bad))))

    run_trials(rep, "quasi_concavity", trials, rng_seed, 1, quasi_concavity)

    # 2. non-random bounds: values inside [z_d, z_u], attained at +inf, approached below
    def bounds_interval(rng, k):
        x = sampler(rng)
        vals = raw(x)
        if np.any(vals < m.z_d - tol) or np.any(vals > m.z_u + tol):
            return _witness(x, "value escapes [z_d, z_u]")

    run_trials(rep, "bounds_interval", trials, rng_seed, 2, bounds_interval)

    vals = raw(XVar.constant(space, INF))
    ok = bool(np.all(close_or_both_inf(vals, m.z_u, tol)))
    rep.add(CheckResult("upper_bound_attained_at_inf", ok, trials=1,
                        failures=0 if ok else 1,
                        witness=None if ok else {"values": vals.tolist()}))

    for k in range(9):
        last = raw(XVar.constant(space, -float(10 ** k)))
        if (np.all(np.abs(last - m.z_d) <= 1e-6) if math.isfinite(m.z_d)
                else np.all(last <= -1e6)):
            rep.add(CheckResult("lower_bound_approached", True, trials=1))
            break
    else:
        if math.isfinite(m.z_d):
            rep.add(CheckResult("lower_bound_approached", False, trials=1,
                                witness={"values": last.tolist(),
                                         "z_d": num_to_json(m.z_d)}))
        else:
            rep.add(CheckResult("lower_bound_approached", None, trials=1,
                                note="still descending at x = -1e8; "
                                     "divergence not confirmed"))

    # 3. monotone, and strictly so along constant positive shifts on the live event
    def monotonicity(rng, k):
        x = sampler(rng)
        style = rng.integers(3)
        if style == 0:
            bump = rng.uniform(0.0, 2.0, size=space.n_leaves)
        elif style == 1:
            bump = np.zeros(space.n_leaves)
            bump[rng.integers(space.n_leaves)] = rng.uniform(0.0, 4.0)
        else:
            bump = np.full(space.n_leaves, rng.uniform(0.0, 2.0))
        before = raw(x)
        after = raw(XVar(space, x.values + bump, validate=False))
        if np.any(after < before - tol):
            return _witness(x, "value dropped under a nonnegative bump",
                            bump=bump.tolist())

    run_trials(rep, "monotonicity", trials, rng_seed, 3, monotonicity)

    def strict_shift(rng, k):
        x = sampler(rng)
        c = float(rng.uniform(0.05, 2.0))
        before = raw(x)
        after = raw(XVar(space, x.values + c, validate=False))
        bad = _no_strict_gain(m, before, after)
        if np.any(bad):
            return _witness(x, "no strict gain from a positive constant shift",
                            shift=c, atom=space.atom_id(t, int(np.argmax(bad))))

    run_trials(rep, "strict_shift", trials, rng_seed, 4, strict_shift)

    # 4. continuity from below along increasing sequences
    deltas = [2.0 ** -e for e in (0, 5, 10, 20, 30, 40, 45)]

    def continuity_from_below(rng, k):
        x = sampler(rng)
        direction = np.ones(space.n_leaves) if k % 2 == 0 else rng.uniform(
            0.5, 2.0, size=space.n_leaves)
        target = raw(x)
        seq = [raw(XVar(space, x.values - d * direction, validate=False))
               for d in deltas]
        for a, b in zip(seq, seq[1:]):
            if np.any(b < a - tol):
                return _witness(x, "sequence not monotone along X_n up")
        last = seq[-1]
        with np.errstate(invalid="ignore"):
            near = np.abs(last - target) <= 1e-6
        ok = np.where(np.isfinite(target), near,
                      np.where(np.isposinf(target),
                               (last >= 1e6) | np.isposinf(last),
                               (last <= -1e6) | np.isneginf(last)))
        if not np.all(ok):
            return _witness(x, "limit misses beta(X)",
                            got=last.tolist(), want=target.tolist())

    run_trials(rep, "continuity_from_below", trials, rng_seed, 5, continuity_from_below)

    # 5. locality: 1_B beta(X) = 1_B beta(X 1_B)
    def locality(rng, k):
        x = sampler(rng)
        mask = sample_event(space, t, rng)
        lhs = raw(x)
        rhs = raw(x.restrict(mask))
        bad = mask.flags & ~close_or_both_inf(lhs, rhs, tol)
        if np.any(bad):
            return _witness(x, "value on B depends on payoffs off B",
                            atoms=[space.atom_id(t, int(i)) for i in np.flatnonzero(bad)])

    run_trials(rep, "locality", trials, rng_seed, 6, locality)

    # 6. stage-measurable acceptance sets are uniformly bounded below
    thresholds = {}
    n_atoms = space.n_atoms(t)

    def scalar_beta(c):
        return m.values(space, t, c[space.atom_index[t]])

    def acceptance_lower_bound(rng, k):
        xi = sample_tvar(space, t, rng, low=-6.0, high=6.0)
        beta_xi = raw(xi.promote())
        for z, floor in thresholds.items():
            if np.any((beta_xi >= z) & (xi.values < floor - 1e-8)):
                return {"note": "accepted stage claim below the floor",
                        "z": num_to_json(z), "xi": xi.to_json()}

    for z in _interior_levels(m.z_d, m.z_u):
        sol = vector_monotone_inf(scalar_beta, np.full(n_atoms, -1.0),
                                  np.full(n_atoms, 1.0), np.full(n_atoms, z))
        if np.any(sol.hit_lower_cap):
            rep.add(CheckResult("acceptance_lower_bound", False, trials=trials,
                                witness={"note": "no uniform floor for stage claims "
                                                 "at this level",
                                         "z": num_to_json(z)}))
            break
        thresholds[z] = sol.values
    else:
        run_trials(rep, "acceptance_lower_bound", trials, rng_seed, 7,
                   acceptance_lower_bound)
    return rep


def check_scale_invariance(m: PerformanceMeasure, space: FilteredSpace, t: int,
                           trials: int = 200, rng_seed: int = 0,
                           tol: float = DEFAULT_TOL) -> Report:
    """beta(cX) = beta(X) for c > 0, plus the two-level structure on stage claims.

    For a scale-invariant measure the value of a stage-measurable claim xi can only be
    beta(1) where xi > 0 and beta(0) where xi <= 0; both identities are probed and the
    first counterexample is reported (expected for utility-based measures).
    """
    t = space.check_stage(t)
    raw = lambda x: m.values(space, t, x.values)
    rep = Report(title=f"scale_invariance[{m.label()}] t={t}", seed=rng_seed,
                 meta={"space": space.name or "", "declared": m.scale_invariant})

    def positive_scaling(rng, k):
        x = sample_xvar(space, rng)
        c = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
        a, b = raw(x), raw(XVar(space, c * x.values, validate=False))
        if not np.all(close_or_both_inf(a, b, tol)):
            return _witness(x, "beta(cX) differs from beta(X)", c=c,
                            beta_x=[num_to_json(v) for v in a],
                            beta_cx=[num_to_json(v) for v in b])

    run_trials(rep, "positive_scaling", trials, rng_seed, 11, positive_scaling)

    beta_one = raw(XVar.constant(space, 1.0))
    beta_zero = raw(XVar.constant(space, 0.0))

    def two_level_structure(rng, k):
        xi = sample_tvar(space, t, rng, low=-3.0, high=3.0)
        vals = xi.values.copy()
        if rng.random() < 0.3:  # pin an exact zero to exercise the xi <= 0 branch
            vals[rng.integers(vals.shape[0])] = 0.0
        got = raw(TVar(space, t, vals).promote())
        want = np.where(vals > 0.0, beta_one, beta_zero)
        if not np.all(close_or_both_inf(got, want, tol)):
            return {"note": "stage claim value escapes {beta(1), beta(0)}",
                    "xi": [num_to_json(v) for v in vals],
                    "got": [num_to_json(v) for v in got]}

    run_trials(rep, "two_level_structure", trials, rng_seed, 12, two_level_structure)
    return rep
