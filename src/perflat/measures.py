"""Conditional performance measures on scenario trees.

A measure maps a terminal variable X to a stage variable beta_t(X) and satisfies, on
its open interval of attainable levels (z_d, z_u): quasi concavity, monotonicity with
strict increase along constant positive shifts, continuity from below, locality, and a
uniform lower bound on the stage-measurable part of each acceptance set.  Acceptability
indexes additionally satisfy beta_t(cX) = beta_t(X) for c > 0.

Shipped measures: conditional expectation, expected utility under a linear,
exponential or power utility, exponential utility with a possibly random
risk-aversion profile, conditional certainty equivalent, gain-loss ratio, and
reward-risk ratios with lower-partial-moment or truncated-AVaR denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .lattice import (INF, FilteredSpace, TVar, XVar, _validate_leaf_values,
                      atom_expector, bin_sums, close_or_both_inf, loss_order,
                      num_from_json, num_to_json)
from .report import CheckResult, Report, TwoPhase, run_trials

EPS_STRICT = 1e-12
DEFAULT_TOL = 1e-9


# ---------------------------------------------------------------------------
# utilities


class UtilitySpec:
    """Concave strictly increasing utility, finite on R, with an inverse on its range.

    Tags: linear U(x) = x; exp U(x) = 1 - e^(-lam x); power = shifted CRRA on gains,
    ((1+x)^(1-eta) - 1)/(1-eta) or log(1+x) at eta = 1, with a linear extension
    below 0 (keeps the function finite on all of R).
    """

    def __init__(self, tag: str, *, lam: float | None = None, eta: float | None = None):
        self.tag = tag
        self.positively_homogeneous = tag == "linear"
        if tag == "linear":
            self.at_inf = INF
        elif tag == "exp":
            self.lam = float(lam if lam is not None else 1.0)
            if self.lam <= 0:
                raise ValueError("exp utility needs lam > 0")
            self.at_inf = 1.0
        elif tag == "power":
            self.eta = float(eta if eta is not None else 0.5)
            if self.eta <= 0:
                raise ValueError("power utility needs eta > 0")
            self.at_inf = INF if self.eta <= 1.0 else 1.0 / (self.eta - 1.0)
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
        if self.tag == "exp":  # U(+inf) = 1 - e^(-inf) = 1 exactly
            with np.errstate(over="ignore"):
                return 1.0 - np.exp(-self.lam * x)
        # power: CRRA on gains, identity below 0
        xp = np.maximum(x, 0.0)
        if self.eta == 1.0:
            upper = np.log1p(xp)
        else:
            # expm1/log1p keep full precision as eta approaches 1
            a = 1.0 - self.eta
            with np.errstate(over="ignore"):
                upper = np.expm1(a * np.log1p(xp)) / a
        upper = np.where(np.isposinf(x), self.at_inf, upper)
        return np.where(x >= 0.0, upper, x)

    def inverse(self, y):
        """Inverse on the range; y at/above U(+inf) maps to +inf."""
        y = np.asarray(y, dtype=float)
        if self.tag == "linear":
            return y.copy()
        if self.tag == "exp":
            top = y >= 1.0
            safe = np.where(top, 0.0, y)
            out = -np.log1p(-safe) / self.lam
            return np.where(top, INF, out)
        # power
        top = y >= self.at_inf
        yp = np.maximum(np.where(top, 0.0, y), 0.0)
        if self.eta == 1.0:
            upper = np.expm1(yp)
        else:
            a = 1.0 - self.eta
            upper = np.expm1(np.log1p(a * yp) / a)
        out = np.where(y >= 0.0, upper, y)
        return np.where(top, INF, out)

    def to_json(self) -> dict:
        out: dict = {"tag": self.tag}
        if self.tag == "exp":
            out["lam"] = num_to_json(self.lam)
        elif self.tag == "power":
            out["eta"] = num_to_json(self.eta)
        return out

    @classmethod
    def from_json(cls, d: Mapping) -> "UtilitySpec":
        tag = d["tag"]
        return cls(tag, lam=d.get("lam") and num_from_json(d["lam"]),
                   eta=d.get("eta") and num_from_json(d["eta"]))

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


def _unshifted(kernel, space: FilteredSpace, t: int, leaf_values) -> np.ndarray:
    """A kernel on its own claim: the values of the leaf rows themselves.

    One row (n_leaves,) gives (n_atoms,); a batch (B, n_leaves) gives (B, n_atoms) from
    one kernel call on the whole batch, each row equal to its one-row call bit for bit.
    """
    leaf_values = np.asarray(leaf_values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return kernel(space, t, leaf_values)(leaf_values)


def evaluate_rows(m, space: FilteredSpace, t: int, rows: np.ndarray) -> np.ndarray:
    """``evaluate`` on each leaf row of a (B, n_leaves) batch: one ``m.values`` call, with
    the guards of ``evaluate``.  A value below float range raises OverflowError; a NaN,
    or an output that is not (B, n_atoms), raises ValueError.  Where rows fail in
    different ways, the first failing row decides, as a row-by-row loop would."""
    out = m.values(space, t, rows)
    if out.shape != (len(rows), space.n_atoms(t)):
        _bounded_below(out)
        raise ValueError("values shape mismatch for stage atoms")
    bad = np.isneginf(out) | np.isnan(out)
    if bad.any():
        _bounded_below(out[bad.any(axis=1).argmax()])
        raise ValueError("nan values are not allowed")
    return out


def _bounded_below(out: np.ndarray) -> np.ndarray:
    if np.any(np.isneginf(out)):
        raise OverflowError(
            "measure value below float range (the mathematical value is finite "
            "but not representable); use raw probes for extreme shifts")
    return out


def _ratio(num: np.ndarray, den: np.ndarray, eps: float) -> np.ndarray:
    """num / den on {num > eps}, zero elsewhere; xi / 0 = +inf (den <= eps)."""
    den_ok = den > eps
    ratio = num / np.where(den_ok, den, 1.0)
    return np.where(num > eps, np.where(den_ok, ratio, INF), 0.0)


class PerformanceMeasure:
    """Base class: per-atom values of leaf rows, and their prepared shift evaluator.

    Batch contract.  ``values(space, t, leaf_values)`` maps one row of leaf values,
    shape (n_leaves,), to (n_atoms,) and a batch (B, n_leaves) to (B, n_atoms); each
    row of a batch equals its one-row call bit for bit.  ``prepare(space, t, x)``
    fixes one claim x (one row) and returns g with

        g(c) = values(space, t, x + c[..., atom_index[t]])   bit for bit

    for per-atom shifts c of shape (n_atoms,) or (B, n_atoms).  g leaves numpy's
    overflow and invalid-value warnings to its caller: ``values`` and the
    induced-risk search run it under ``np.errstate``.

    Both come from one formula, ``kernel(space, t, x)``: it computes once what a
    per-atom shift of x cannot change (stage parameters, index and mass lookups,
    raroc's within-atom loss order) and returns f with f(y) = values(space, t, y) for
    leaf rows y that differ from x by such a shift.  x is one row or a batch of rows;
    for a batch, y has its shape and each row is shifted from its own claim.
    ``values`` is f(x), one kernel call for a whole batch, and ``prepare`` is
    f(x + c[..., idx]).  A measure defines ``kernel`` and nothing else: a subclass
    that defines its own ``values`` is refused when the class is created, so an
    inherited kernel can never stand in for it.  A formula that takes one leaf row at
    a time goes into a ``CustomMeasure``.
    """

    kind = "abstract"
    z_d = -INF
    z_u = INF
    scale_invariant = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__dict__.get("values", PerformanceMeasure.values) is not \
                PerformanceMeasure.values:
            raise TypeError(f"{cls.__name__} defines values; a measure defines kernel, "
                            "and values and prepare are built from it")

    def values(self, space: FilteredSpace, t: int, leaf_values: np.ndarray) -> np.ndarray:
        return _unshifted(self.kernel, space, t, leaf_values)

    def prepare(self, space: FilteredSpace, t: int, leaf_values: np.ndarray):
        f = self.kernel(space, t, leaf_values)
        idx = space.atom_index[t]
        return lambda c: f(leaf_values + c.take(idx, axis=-1))

    def kernel(self, space: FilteredSpace, t: int, leaf_values: np.ndarray):
        raise NotImplementedError(f"{type(self).__name__} defines no kernel")

    def evaluate(self, t: int, x: XVar) -> TVar:
        t = x.space.check_stage(t)
        return TVar(x.space, t, _bounded_below(self.values(x.space, t, x.values)),
                    kind="bb")

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


# The shipped classes and ``CustomMeasure`` list ``values`` in their own bodies only
# because per-class wrappers such as benchmarks/tracer.py look it up in the class dict;
# the lines can go once the tracer counts at the kernels (ROADMAP item 0).


class ConditionalExpectation(PerformanceMeasure):
    """E[X | F_t] under the reference measure."""

    kind = "cond_expectation"
    values = PerformanceMeasure.values

    def kernel(self, space, t, leaf_values):
        return atom_expector(space, t)


class ExpectedUtilityMeasure(PerformanceMeasure):
    """E[U(X) | F_t] for a concave strictly increasing U."""

    kind = "expected_utility"
    values = PerformanceMeasure.values

    def __init__(self, utility: UtilitySpec):
        self.utility = utility
        self.z_u = utility.at_inf

    def kernel(self, space, t, leaf_values):
        expect = atom_expector(space, t)
        u = self.utility
        return lambda y: expect(u(y))

    def risk_at_zero_log_level(self, space, t, log_level):
        if self.utility.tag != "exp":
            return None
        lam = self.utility.lam
        return np.full(space.n_atoms(t), -np.logaddexp(0.0, log_level) / lam)

    def params_json(self, space=None):
        return {"utility": self.utility.to_json()}

    def label(self):
        return f"expected_utility[{self.utility.label()}]"


class ExponentialUtilityMeasure(PerformanceMeasure):
    """beta_t(X) = E[1 - e^(-lam_t X) | F_t] with lam_t > 0, possibly atom by atom."""

    kind = "exp_utility"
    z_d = -INF
    z_u = 1.0
    values = PerformanceMeasure.values

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

    def kernel(self, space, t, leaf_values):
        neg_lam = -self.lam_at(space, t)[space.atom_index[t]]
        expect = atom_expector(space, t)
        # a +inf leaf weighs e^(-inf) = 0 exactly, so it needs no mask
        return lambda y: 1.0 - expect(np.exp(neg_lam * y))

    def risk_at_zero_log_level(self, space, t, log_level):
        return -np.logaddexp(0.0, log_level) / self.lam_at(space, t)

    def params_json(self, space=None):
        ra = self.risk_aversion
        if isinstance(ra, (Mapping, TVar)):
            if space is None:
                raise ValueError("space needed to serialize a random profile")
            stages = [ra.stage] if isinstance(ra, TVar) else list(ra)
            return {"risk_aversion": {
                str(t): {space.atom_id(t, k): num_to_json(v)
                         for k, v in enumerate(self.lam_at(space, t))}
                for t in stages}}
        return {"risk_aversion": num_to_json(float(ra))}

    def label(self):
        if isinstance(self.risk_aversion, (Mapping, TVar)):
            return "exp_utility[random lam]"
        return f"exp_utility[lam={float(self.risk_aversion):g}]"


class CertaintyEquivalentMeasure(PerformanceMeasure):
    """C_t(X) = U^{-1}(E[U(X) | F_t])."""

    kind = "certainty_equivalent"
    z_d = -INF
    z_u = INF
    values = PerformanceMeasure.values

    def __init__(self, utility: UtilitySpec):
        self.utility = utility

    def kernel(self, space, t, leaf_values):
        expect = atom_expector(space, t)
        u = self.utility
        return lambda y: u.inverse(expect(u(y)))

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
    values = PerformanceMeasure.values

    def kernel(self, space, t, leaf_values):
        expect = atom_expector(space, t)
        return lambda y: _ratio(expect(y), expect(np.maximum(-y, 0.0)), EPS_STRICT)


@dataclass
class LPMDenominator:
    """Lower partial moment root: (E[(X^-)^p | F_t])^(1/p), p > 1."""

    p: float = 2.0

    def __post_init__(self):
        if self.p <= 1.0:
            raise ValueError("lower partial moment order must exceed 1")

    positively_homogeneous = True

    def kernel(self, space, t, leaf_values):
        expect = atom_expector(space, t)
        p, inv_p = self.p, 1.0 / self.p
        return lambda y: np.power(expect(np.power(np.maximum(-y, 0.0), p)), inv_p)

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

    A shift constant on each atom keeps the atom's loss order, so ``risk_kernel``
    sorts the claim once and reuses the order and the tail weights for every shift.
    Only where a shift rounds two different leaves into a tie can the sum differ from
    a fresh sort's, in the order of its terms (a few ulps).
    """

    level: object = 0.5  # scalar, TVar, or {stage: per-atom array}

    positively_homogeneous = True

    def level_at(self, space, t) -> np.ndarray:
        lv = _resolve_stage_param(self.level, space, t, "avar level")
        if np.any((lv <= 0.0) | (lv >= 1.0)):
            raise ValueError("avar level must lie in (0, 1)")
        return lv

    def risk_kernel(self, space, t, leaf_values):
        """The signed AVaR of leaf rows that differ from the claim by per-atom shifts.

        A batch of claims is sorted row by row, each row as its one-row call sorts it.
        """
        lv = self.level_at(space, t)
        # +inf gains become -inf losses and sort to the tail end
        order, atom, starts = loss_order(space, t, -leaf_values)
        w = space.probs[order] / space.atom_mass[t][atom]
        # Each atom's weights sum to one, so taking one off at its last leaf brings the
        # running sum back to about zero: an atom's prefix sums keep its own scale
        # however many atoms come before it.
        step = w.copy()
        step[..., starts[1:] - 1] -= 1.0
        run = np.cumsum(step, axis=-1)
        run = np.concatenate((np.zeros(run.shape[:-1] + (1,)), run), axis=-1)
        rest = (lv + run[..., starts])[..., atom] - run[..., :-1]  # level left per leaf
        live = rest > 1e-15
        live[..., starts] = True  # the largest loss is in the tail at any level
        take = np.where(live, np.minimum(w, rest), 0.0)
        per_atom = bin_sums(atom, len(lv))
        if order.ndim == 1:
            def gather(y):
                return y.take(order, axis=-1)
        else:
            def gather(y):
                return np.take_along_axis(y, order, axis=-1)
        return lambda y: per_atom(np.where(live, -gather(y), 0.0) * take) / lv

    def kernel(self, space, t, leaf_values):
        risk = self.risk_kernel(space, t, leaf_values)
        return lambda y: np.maximum(risk(y), 0.0)

    def risk_values(self, space, t, leaf_values):
        return _unshifted(self.risk_kernel, space, t, leaf_values)

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
    A denominator provides ``kernel(space, t, x)`` with a measure's contract, and
    ``risk_kernel`` for the sign of the untruncated risk if it has one; the flag is
    refused for a denominator without it.
    """

    kind = "reward_risk"
    z_d = 0.0
    z_u = INF
    values = PerformanceMeasure.values

    def __init__(self, utility: UtilitySpec, denominator,
                 infinite_when_risk_nonpositive: bool = False):
        if utility.at_inf <= 0.0:
            raise ValueError("reward-risk needs U(+inf) > 0")
        if utility(np.array([0.0]))[0] > 0.0:
            raise ValueError("reward-risk needs U(0) <= 0")
        if infinite_when_risk_nonpositive and not hasattr(denominator, "risk_kernel"):
            raise ValueError(f"{denominator.label()} has no signed risk for "
                             "infinite_when_risk_nonpositive")
        self.utility = utility
        self.denominator = denominator
        self.infinite_when_risk_nonpositive = bool(infinite_when_risk_nonpositive)
        self.scale_invariant = bool(utility.positively_homogeneous
                                    and denominator.positively_homogeneous)

    def kernel(self, space, t, leaf_values):
        expect = atom_expector(space, t)
        u = self.utility
        if self.infinite_when_risk_nonpositive:
            risk = self.denominator.risk_kernel(space, t, leaf_values)

            def f(y):
                r = risk(y)
                out = _ratio(expect(u(y)), np.maximum(r, 0.0), EPS_STRICT)
                return np.where(r <= EPS_STRICT, INF, out)

            return f
        den = self.denominator.kernel(space, t, leaf_values)
        return lambda y: _ratio(expect(u(y)), den(y), EPS_STRICT)

    def params_json(self, space=None):
        return {"utility": self.utility.to_json(),
                "denominator": self.denominator.to_json(space),
                "infinite_when_risk_nonpositive": self.infinite_when_risk_nonpositive}

    def label(self):
        return f"reward_risk[{self.utility.label()}/{self.denominator.label()}]"


class CustomMeasure(PerformanceMeasure):
    """Wrap a raw evaluator; used for user extensions and deliberately broken probes.

    ``fn(space, t, leaf_values)`` maps one row of leaf values, shape (n_leaves,), to
    (n_atoms,).  The kernel calls it on a row directly and once per row on a
    (B, n_leaves) batch, so ``values``, ``prepare`` and the batched checkers all reach
    ``fn`` one row at a time.
    """

    values = PerformanceMeasure.values

    def __init__(self, fn: Callable, z_d: float, z_u: float, kind: str = "custom",
                 scale_invariant: bool = False):
        self.fn = fn
        self.z_d = float(z_d)
        self.z_u = float(z_u)
        self.kind = kind
        self.scale_invariant = scale_invariant

    def kernel(self, space, t, leaf_values):
        fn = self.fn

        def f(y):
            if y.ndim == 1:
                return np.asarray(fn(space, t, y), dtype=float)
            return np.array([fn(space, t, row) for row in y], dtype=float)

        return f


def lpm_ratio(p: float = 2.0) -> RewardRiskRatio:
    """Gain to lower-partial-moment ratio: linear reward over the p-LPM root."""
    return RewardRiskRatio(UtilitySpec("linear"), LPMDenominator(p))


def raroc(level: float = 0.5,
          infinite_when_risk_nonpositive: bool = False) -> RewardRiskRatio:
    return RewardRiskRatio(UtilitySpec("linear"), AVaRTruncDenominator(level),
                           infinite_when_risk_nonpositive=infinite_when_risk_nonpositive)


# the params each kind reads: any other key is an error, never silently dropped
_PARAM_KEYS = {"cond_expectation": set(), "expected_utility": {"utility"},
               "exp_utility": {"risk_aversion"}, "certainty_equivalent": {"utility"},
               "glr": set(),
               "reward_risk": {"utility", "denominator", "infinite_when_risk_nonpositive"}}


def measure_from_json(d: Mapping, space: FilteredSpace | None = None) -> PerformanceMeasure:
    kind = d["kind"]
    params = d.get("params", {})
    unknown = sorted(set(params) - _PARAM_KEYS.get(kind, set(params)))
    if unknown:
        raise ValueError(f"{kind} takes no parameters {unknown}")
    if kind == "cond_expectation":
        m: PerformanceMeasure = ConditionalExpectation()
    elif kind == "expected_utility":
        m = ExpectedUtilityMeasure(UtilitySpec.from_json(params["utility"]))
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
        flag = params.get("infinite_when_risk_nonpositive", False)
        if not isinstance(flag, bool):
            raise ValueError("infinite_when_risk_nonpositive must be a JSON boolean")
        m = RewardRiskRatio(UtilitySpec.from_json(params["utility"]), den,
                            infinite_when_risk_nonpositive=flag)
    else:
        raise ValueError(f"unknown measure kind {kind!r}")
    for key, attr in (("z_d", m.z_d), ("z_u", m.z_u)):
        if key in d and not close_or_both_inf(num_from_json(d[key]), attr, 1e-9):
            raise ValueError(f"declared {key} does not match the measure kind")
    return m


# ---------------------------------------------------------------------------
# axiom checker


# Predicates over valued trials, for the shared property table and the payoff checkers:
# vals[..., i, :] holds the values of a trial's i-th row, and each predicate returns the
# failing atoms, (..., n_atoms).


def _mix_drops(vals: np.ndarray, tol: float) -> np.ndarray:
    """Rows x, y and a convex mix: atoms where the mix falls below the smaller endpoint
    value.  A mix valued exactly 0 against a floor of at most 1e-6 counts as a tie."""
    got, floor = vals[..., 2, :], np.minimum(vals[..., 0, :], vals[..., 1, :])
    return (got < floor - tol) & ~((got == 0.0) & (floor <= 1e-6))


def _drops(vals: np.ndarray, tol: float) -> np.ndarray:
    """Rows of a nondecreasing sequence of claims: atoms where a value fell."""
    return (vals[..., 1:, :] < vals[..., :-1, :] - tol).any(axis=-2)


def _no_strict_gain(m: PerformanceMeasure, vals: np.ndarray) -> np.ndarray:
    """Rows before and after a positive shift: live atoms (below z_u before, above z_d
    after, by DEFAULT_TOL) where the shift gained nothing."""
    before, after = vals[..., 0, :], vals[..., 1, :]
    return ((before < m.z_u - DEFAULT_TOL) & (after > m.z_d + DEFAULT_TOL)
            & (after <= before + EPS_STRICT))


def _moved(vals: np.ndarray, tol: float) -> np.ndarray:
    """Two rows that should value alike: atoms where they differ by more than tol."""
    return ~close_or_both_inf(vals[..., 0, :], vals[..., 1, :], tol)


def _prober(rep: Report, space: FilteredSpace, trials: int, rng_seed: int,
            head: Callable, values: Callable, show: Callable, stage: int | None = None):
    """probe(name, key, draw, bad, note, extra) runs one randomized property through
    ``run_trials`` as a ``TwoPhase`` probe, adds its result to rep and returns it.

    A chunk of trials ks draws its keys head(field, n): each trial's stage, or where
    ``stage`` fixes that, any key that values groups rows by (the family validator's
    grid level).  Then draw(field, ks, keys) -> (rows, shown, ctx): the (n, r,
    n_leaves) rows that values(key, rows) values, and per trial the claims its
    witness shows and what its judge and extra fields read, each field drawn as one
    array over the chunk (see ``TwoPhase``).  bad(vals, ctxs) gives each trial's
    failing atoms.  The first failing trial's witness is the note, show(key, shown),
    then extra(ctx, vals, atoms), atoms the ids of its failing atoms (extra may set
    the note).
    """
    def probe(name, key, draw, bad, note, extra=lambda *_: {}):
        def drawn(field, ks):
            keys = head(field, len(ks))
            claims, shown, ctx = draw(field, ks, keys)
            return keys, claims, list(zip(keys.tolist(), shown, ctx))

        def witness(_, trial, vals):
            key, shown, ctx = trial
            atoms = [space.atom_id(key if stage is None else stage, i)
                     for i in np.flatnonzero(bad(vals[None], [ctx])[0]).tolist()]
            return {"note": note, **show(key, shown), **extra(ctx, vals, atoms)}

        judge = lambda vals, ctxs: bad(vals, [c for *_, c in ctxs]).any(axis=-1)
        return run_trials(rep, name, trials, rng_seed, key,
                          TwoPhase(drawn, values, judge, witness))
    return probe


def _claims_prober(rep: Report, m: PerformanceMeasure, space: FilteredSpace, t: int,
                   trials: int, rng_seed: int):
    """``_prober`` for claims at stage t: m.values, not evaluate_rows, values a chunk
    after one NaN/-inf screen (-inf values get judged); witnesses show X and Y."""
    return _prober(rep, space, trials, rng_seed, lambda field, n: np.full(n, t),
                   lambda t, rows: m.values(space, t, _validate_leaf_values(rows)),
                   lambda t, shown: {key: XVar(space, x).to_json()
                                     for key, x in zip(("X", "Y"), shown)})


def _event_flags(field, n: int, sizes: list) -> np.ndarray:
    """n random events on each atom count of sizes, side by side as (n, sum) flags:
    each atom is in with probability 1/2, and an event that is not proper (no atom,
    or all of several) flips the atom that a second field picks; a lone atom is in."""
    coins = field().random((n, sum(sizes))) < 0.5
    picks = field().integers(sizes, size=(n, len(sizes)))
    for flags, pick in zip(np.split(coins, np.cumsum(sizes)[:-1], axis=1), picks.T):
        flips = np.flatnonzero(flags.all(axis=1) | ~flags.any(axis=1))
        flags[flips, pick[flips]] = ~flags[flips, 0] | (flags.shape[1] == 1)
    return coins


def _payoffs(field, space: FilteredSpace, n: int, inf_legs: bool = True) -> np.ndarray:
    """n payoff rows uniform on [-4, 4); inf_legs: +inf on 2% of a quarter's leaves."""
    x = field().uniform(-4.0, 4.0, (n, space.n_leaves))
    if inf_legs:
        legs = field().random((n, space.n_leaves + 1))
        x = np.where((legs[:, 1:] < 0.02) & (legs[:, :1] < 0.25), INF, x)
    return x


def _from_below(field, ks, x: np.ndarray) -> tuple:
    """The draw of rows X, then X - delta d increasing to X, for payoff rows x: d is 1
    on even trials and drawn on [0.5, 2) per leaf on odd ones, and delta runs 2^0,
    2^-5, ..., 2^-45, 0, each raised to the row's float resolution, two ulps of its
    largest finite |x|, so the last X_n is a few ulps below X at any scale."""
    res = 2.0 * np.spacing(np.where(np.isfinite(x), np.abs(x), 0.0).max(axis=1))
    deltas = np.maximum([2.0 ** -e for e in (0, 5, 10, 20, 30, 40, 45, INF)], res[:, None])
    direction = np.where(np.array(ks)[:, None] % 2 == 0, 1.0,
                         field().uniform(0.5, 2.0, x.shape))[:, None]
    return (np.concatenate((x[:, None], x[:, None] - deltas[..., None] * direction),
                           axis=1), zip(x), [None] * len(ks))


def _localized(field, space: FilteredSpace, t: int, x: np.ndarray) -> tuple:
    """The draw of rows X and X 1_B for payoff rows x, B a random F_t-event each."""
    flags = _event_flags(field, len(x), [space.n_atoms(t)])
    return (np.stack((x, np.where(flags[:, space.atom_index[t]], x, 0.0)), axis=1),
            zip(x), flags)


def _misses_limit(vals: np.ndarray) -> np.ndarray:
    """Rows X, X_n up to X: atoms whose last value misses X's (by 1e-6; 1e6 at inf)."""
    target, last = vals[..., 0, :], vals[..., -1, :]
    with np.errstate(invalid="ignore"):
        near = np.abs(last - target) <= 1e-6
    return ~np.where(np.isfinite(target), near,
                     np.where(target > 0, last >= 1e6, last <= -1e6))


def _claim_properties(m: PerformanceMeasure, claim: Callable) -> dict:
    """The randomized properties that payoffs and streams share, by name, each as the
    (draw, bad, note, extra) of a ``_prober`` probe.  claim(field, stages) ->
    (x, shown) draws one claim per trial: x its (n, n_leaves) leaf row to value at the
    trial's stage and shown what its witness shows.  A payoff is both; a stream
    (``check_lift_axioms``) is valued at its aggregate from the stage.  A draw makes
    every alternative for every trial and then selects."""
    tol = DEFAULT_TOL

    def quasi_concavity(field, ks, stages):
        (x, shown_x), (y, shown_y) = claim(field, stages), claim(field, stages)
        lam = field().uniform(0.001, 0.999, (len(ks), 1))  # keep 0 * inf out of the mix
        return (np.stack((x, y, lam * x + (1.0 - lam) * y), axis=1),
                zip(shown_x, shown_y), lam[:, 0].tolist())

    def bounds_interval(field, ks, stages):
        x, shown = claim(field, stages)
        return x[:, None], zip(shown), [None] * len(ks)

    def monotonicity(field, ks, stages):
        x, shown = claim(field, stages)
        (n, width), leaf = x.shape, np.arange(x.shape[1])
        spread = field().uniform(0.0, 2.0, (n, width))
        style, at = field().integers((3, width), size=(n, 2)).T
        spike, level = field().uniform(0.0, (4.0, 2.0), (n, 2)).T
        bump = np.select([style[:, None] == 0, style[:, None] == 1],
                         [spread, np.where(leaf == at[:, None], spike[:, None], 0.0)],
                         level[:, None])
        return np.stack((x, x + bump), axis=1), zip(shown), bump

    def strict_shift(field, ks, stages):
        x, shown = claim(field, stages)
        c = field().uniform(0.05, 2.0, (len(ks), 1))
        return np.stack((x, x + c), axis=1), zip(shown), c[:, 0].tolist()

    def positive_scaling(field, ks, stages):
        x, shown = claim(field, stages)
        c = np.exp(field().uniform(np.log(0.01), np.log(100.0), (len(ks), 1)))
        return np.stack((x, c * x), axis=1), zip(shown), c[:, 0].tolist()

    return {
        "quasi_concavity": (quasi_concavity, lambda vals, _: _mix_drops(vals, tol),
                            "beta(mix) below min",
                            lambda lam, vals, atoms: {"lam": lam, "atom": atoms[0]}),
        # the bounds are declared constants: a gap of rounding size, not tol
        "bounds_interval": (bounds_interval, lambda vals, _: (
            (vals < m.z_d - 1e-12) | (vals > m.z_u + 1e-12)).any(axis=-2),
                            "value escapes [z_d, z_u]"),
        "monotonicity": (monotonicity, lambda vals, _: _drops(vals, tol),
                         "value dropped under a nonnegative bump",
                         lambda bump, vals, atoms: {"bump": bump.tolist()}),
        "strict_shift": (strict_shift, lambda vals, _: _no_strict_gain(m, vals),
                         "no strict gain from a positive constant shift",
                         lambda c, vals, atoms: {"shift": c, "atom": atoms[0]}),
        "positive_scaling": (positive_scaling, lambda vals, _: _moved(vals, tol),
                             "beta(cX) differs from beta(X)", lambda c, vals, atoms: {
                                 "c": c, "beta_x": [num_to_json(v) for v in vals[0]],
                                 "beta_cx": [num_to_json(v) for v in vals[1]]})}


def _missed_lower_bound(m: PerformanceMeasure, values_at) -> np.ndarray | None:
    """values_at(c) at the constant claims c = -1, -10, ..., -1e8 in turn: None once
    they reach z_d (within 1e-6, or at most -1e6 where z_d = -inf), else the last."""
    for k in range(9):
        vals = values_at(-float(10 ** k))
        if (np.all(np.abs(vals - m.z_d) <= 1e-6) if math.isfinite(m.z_d)
                else np.all(vals <= -1e6)):
            return None
    return vals


def _interior_levels(z_d: float, z_u: float) -> list[float]:
    u_lo = math.atan(max(z_d, -1e12))
    u_hi = math.atan(min(z_u, 1e12))
    return [math.tan(u_lo + q * (u_hi - u_lo)) for q in (0.25, 0.5, 0.75)]


def check_axioms(m: PerformanceMeasure, space: FilteredSpace, t: int,
                 trials: int = 200, rng_seed: int = 0) -> Report:
    """Randomized verification of the six defining properties at stage t.

    Each randomized property is a ``_prober`` probe: a chunk of trials draws each
    field as one array, the chunk is screened, valued by one ``m.values`` call and
    judged by one call, and only the first failing trial builds variables.
    Properties 1-3 come from the table that streams share, ``_claim_properties``,
    with each drawn payoff as its own claim; ``check_lift_axioms`` runs them on
    aggregates.
    """
    t = space.check_stage(t)
    tol = DEFAULT_TOL
    at = space.atom_index[t]

    raw = lambda x: m.values(space, t, x.values)
    rep = Report(title=f"axioms[{m.label()}] t={t}", seed=rng_seed,
                 meta={"space": space.name or "", "trials": trials})
    probe = _claims_prober(rep, m, space, t, trials, rng_seed)
    shared = _claim_properties(m, lambda field, t: (_payoffs(field, space, len(t)),) * 2)

    # 1. quasi concavity
    probe("quasi_concavity", 1, *shared["quasi_concavity"])

    # 2. non-random bounds: values inside [z_d, z_u], attained at +inf, approached below
    probe("bounds_interval", 2, *shared["bounds_interval"])

    vals = raw(XVar.constant(space, INF))
    ok = bool(np.all(close_or_both_inf(vals, m.z_u, tol)))
    rep.add(CheckResult("upper_bound_attained_at_inf", ok, 1, int(not ok),
                        witness=None if ok else {"values": vals.tolist()}))

    last = _missed_lower_bound(m, lambda c: raw(XVar.constant(space, c)))
    if last is None:
        rep.add(CheckResult("lower_bound_approached", True, trials=1))
    elif math.isfinite(m.z_d):
        rep.add(CheckResult("lower_bound_approached", False, trials=1,
                            witness={"values": last.tolist(), "z_d": num_to_json(m.z_d)}))
    else:
        rep.add(CheckResult("lower_bound_approached", None, trials=1,
                            note="still descending at x = -1e8; "
                                 "divergence not confirmed"))

    # 3. monotone, and strictly so along constant positive shifts on the live event
    probe("monotonicity", 3, *shared["monotonicity"])
    probe("strict_shift", 4, *shared["strict_shift"])

    # 4. continuity from below along increasing sequences
    def continuity_extra(_, vals, atoms):
        if _drops(vals[1:], tol).any():
            return {"note": "sequence not monotone along X_n up"}
        return {"got": vals[-1].tolist(), "want": vals[0].tolist()}

    probe("continuity_from_below", 5,
          lambda field, ks, _: _from_below(field, ks, _payoffs(field, space, len(ks))),
          lambda vals, _: _drops(vals[..., 1:, :], tol) | _misses_limit(vals),
          "limit misses beta(X)", continuity_extra)

    # 5. locality: 1_B beta(X) = 1_B beta(X 1_B)
    probe("locality", 6, lambda field, ks, stages: _localized(
              field, space, t, _payoffs(field, space, len(ks))),
          lambda vals, flags: np.array(flags) & _moved(vals, tol),
          "value on B depends on payoffs off B",
          lambda flags, vals, atoms: {"atoms": atoms})

    # 6. stage-measurable acceptance sets are uniformly bounded below
    from .risk_family import _induce_raw  # risk_family imports this module
    levels = _interior_levels(m.z_d, m.z_u)  # the floor at z is rho_t^z(0)
    zero = XVar.constant(space, 0.0)
    try:  # one search for every level, each row the one-level search's
        floors = _induce_raw(m, t, np.array(levels)[:, None], zero)
    except RuntimeError:  # a level out of reach: search level by level, up to it
        floors = (_induce_raw(m, t, z, zero) for z in levels)
    thresholds = {}
    for z, floor in zip(levels, floors):
        thresholds[z] = floor
        if np.any(np.isneginf(floor)):
            rep.add(CheckResult("acceptance_lower_bound", False, trials=trials,
                                witness={"note": "no uniform floor for stage claims "
                                                 "at this level",
                                         "z": num_to_json(z)}))
            return rep

    def draw_acceptance_lower_bound(field, ks, stages):
        xi = field().uniform(-6.0, 6.0, (len(ks), space.n_atoms(t)))
        return xi[:, None, at], [()] * len(ks), xi

    def accepted_below(vals, xi):
        """Per level: the atoms where a stage claim reaches it below its floor."""
        return [(vals[..., 0, :] >= z) & (xi < floor - 1e-8)
                for z, floor in thresholds.items()]

    probe("acceptance_lower_bound", 7, draw_acceptance_lower_bound,
          lambda vals, xis: np.logical_or.reduce(accepted_below(vals, np.array(xis))),
          "accepted stage claim below the floor", lambda xi, vals, atoms: {
              "z": num_to_json(next(z for z, bad in zip(thresholds, accepted_below(
                  vals, xi)) if bad.any())), "xi": TVar(space, t, xi).to_json()})
    return rep


def check_scale_invariance(m: PerformanceMeasure, space: FilteredSpace, t: int,
                           trials: int = 200, rng_seed: int = 0) -> Report:
    """beta(cX) = beta(X) for c > 0, plus the two-level structure on stage claims.

    For a scale-invariant measure the value of a stage-measurable claim xi can only be
    beta(1) where xi > 0 and beta(0) where xi <= 0; both identities are probed and the
    first counterexample is reported (expected for utility-based measures).  Both draw
    arrays and are valued and judged a chunk at a time, as in ``check_axioms``;
    positive scaling is the ``_claim_properties`` entry that the lift runs on streams.
    """
    t = space.check_stage(t)
    tol = DEFAULT_TOL
    rep = Report(title=f"scale_invariance[{m.label()}] t={t}", seed=rng_seed,
                 meta={"space": space.name or "", "declared": m.scale_invariant})
    probe = _claims_prober(rep, m, space, t, trials, rng_seed)

    shared = _claim_properties(m, lambda field, stages: (
        _payoffs(field, space, len(stages), inf_legs=False),) * 2)
    probe("positive_scaling", 11, *shared["positive_scaling"])

    beta_one, beta_zero = (m.values(space, t, np.full(space.n_leaves, c))
                           for c in (1.0, 0.0))

    def draw_two_level_structure(field, ks, stages):
        n, n_atoms = len(ks), space.n_atoms(t)
        xi = field().uniform(-3.0, 3.0, (n, n_atoms))
        pinned = field().random(n) < 0.3  # an exact zero exercises the xi <= 0 branch
        at = field().integers(n_atoms, size=n)
        xi[pinned, at[pinned]] = 0.0
        return xi[:, None, space.atom_index[t]], [()] * n, xi

    probe("two_level_structure", 12, draw_two_level_structure,
          lambda vals, xis: ~close_or_both_inf(
              vals[..., 0, :], np.where(np.array(xis) > 0.0, beta_one, beta_zero), tol),
          "stage claim value escapes {beta(1), beta(0)}",
          lambda xi, vals, atoms: {"xi": [num_to_json(v) for v in xi],
                                   "got": [num_to_json(v) for v in vals[0]]})
    return rep
