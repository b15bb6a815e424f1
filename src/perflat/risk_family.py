"""Families of conditional convex risk measures attached to a performance measure.

For a level z strictly inside (z_d, z_u) the induced risk is the smallest stage-t
capital that lifts the claim to level z:

    rho_t^z(X) = essinf{xi stage-t measurable : beta_t(X + xi) >= z}

computed per atom by bracket expansion and bisection (locality reduces the essinf to a
scalar infimum on each atom, and c -> beta_t(X + c) is nondecreasing).  The key sign
equivalences are: beta_t(X) > z on B iff rho_t^z(X) < 0 on B, and beta_t(X) <= z on B
iff rho_t^z(X) >= 0 on B.

A standard family packages one risk measure per level (nondecreasing and continuous in
z, each level convex, translation invariant, local, continuous from below, with
rho^z(0) diverging to -inf as z does when the interval is unbounded below).  Any
standard family regenerates a performance measure through

    beta_t(X) = z_d on the set where all levels stay nonnegative,
                sup{z : rho_t^z(X) < 0 on the atom} elsewhere,

and the induced family is the unique standard family doing so; ``reconstruct``
implements that supremum by bisection over levels with a tan/atan change of variables
for unbounded intervals.  Duality helpers cover the gain-loss ratio (an exact closed
form over each atom's leaves sorted by loss, and the vertices of its polytope of
conditional densities that random objectives pick, by the same kind of sort; the
tests check both against a linear program over that polytope), truncation limits,
closure diagnostics, and a weak-duality penalty probe.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .lattice import (INF, FilteredSpace, TVar, XVar, atom_expect, close_or_both_inf,
                      ext_gap, loss_order, num_to_json, sample_event, sample_tvar,
                      sample_xvar)
from .measures import ExponentialUtilityMeasure, PerformanceMeasure
from .report import LEAF_VALUES_PER_CALL, CheckResult, Report, run_trials
from .solvers import (BracketError, check_tolerance, group_logsumexp, is_wide, ladder,
                      vector_monotone_inf)

TOL_C = 1e-10   # capital tolerance for the per-atom bisection
TOL_Z = 1e-8    # level tolerance (in atan coordinates) for reconstruction


# ---------------------------------------------------------------------------
# induced risks


@dataclass
class RiskPoint:
    """Per-atom risk at one level: stage, level(s), values (bounded above; -inf where
    the level is reached at every capital), and the capital tolerance ``tol`` that
    ``near_zero`` reads them at."""

    stage: int
    level: float | np.ndarray
    values: TVar
    tol: float = TOL_C

    @property
    def near_zero(self) -> np.ndarray:
        """|rho| <= tol: zero at the resolution of the search."""
        return np.abs(self.values.values) <= self.tol

    def to_json(self) -> dict:
        lv = self.level
        lv_json = [num_to_json(v) for v in np.atleast_1d(np.asarray(lv, dtype=float))]
        space = self.values.space
        return {"stage": self.stage,
                "z": lv_json[0] if np.ndim(lv) == 0 else lv_json,
                "rho": {space.atom_id(self.stage, k): num_to_json(v)
                        for k, v in enumerate(self.values.values)}}


def _canonical_bracket(x: XVar) -> tuple[float, float]:
    """The c-bracket every search on x starts from: [-fmax - 1, -fmin + 1], each pad
    widened to an ulp of its leaf where that is larger (|f| >= 2^53)."""
    fmin, fmax = x.finite_min(), x.finite_max()
    if not math.isfinite(fmin):  # no finite leaf at all
        fmin, fmax = 0.0, 0.0
    return -fmax - max(1.0, math.ulp(fmax)), -fmin + max(1.0, math.ulp(fmin))


_UNREACHED_LEVEL = ("shift bracket never reached the level from below: the level needs "
                    "capital past the float range, or the measure's upper threshold is "
                    "misdeclared")


def _induce_raw(m: PerformanceMeasure, t: int, z, x, tol: float = TOL_C,
                stop_at=None) -> np.ndarray:
    """Per-atom inf{c : beta_t(X + c) >= z}, -inf where the search is capped below.

    z may be a scalar, a per-atom array or a (B, n_atoms) array of level rows; each
    (row, atom) is one independent component of the search, so a row equals the call
    made with that row alone, bit for bit.  x is one claim, or a sequence of claims on
    one space (claim rows) answered (n_claims, ...), each block bit for bit its
    one-claim call.  The measure is prepared once per call.
    With ``stop_at``, one threshold, each component stops once its bracket excludes
    it (``vector_monotone_inf``): only ``values < stop_at`` is then exact.  No library
    caller passes it: ``induced_family`` answers sign queries from a
    ``_CapitalChain``, and the stopped search is the reference its tests compare
    against bit for bit.
    """
    one = isinstance(x, XVar)
    claims = [x] if one else list(x)
    space = claims[0].space
    n = space.n_atoms(t)
    z = np.asarray(z, dtype=float)
    shape = (n,) if z.ndim < 2 else (z.shape[0], n)
    per_claim = np.broadcast_to(z, shape).ravel()
    target = np.tile(per_claim, len(claims))
    if one:
        rows, (lo0, hi0) = m.prepare(space, t, x.values), _canonical_bracket(x)
    else:  # a leaf row per (claim, level row), the claim's bracket per component
        rows = m.prepare(space, t, np.repeat([c.values for c in claims],
                                             per_claim.size // n, axis=0))
        lo0, hi0 = (np.repeat(ends, per_claim.size)
                    for ends in zip(*map(_canonical_bracket, claims)))
    # the search sees one flat vector of (claim, row, atom) components
    g = rows if one and len(shape) == 1 else lambda c: rows(c.reshape(-1, n)).ravel()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = vector_monotone_inf(g, lo0, hi0, target, tol=tol, stop_at=stop_at)
    except BracketError as e:
        raise RuntimeError(_UNREACHED_LEVEL) from e
    return values.reshape(shape if one else (len(claims), *shape))


class _Points:
    """g at capital points read in order: one value per (point, atom) by locality,
    evaluated lazily in blocks of at most ``LEAF_VALUES_PER_CALL`` leaf values."""

    def __init__(self, g, n: int, per_call: int, points):
        self.g, self.n, self.per_call = g, n, per_call
        self.points = np.asarray(points, dtype=float)
        self.g_at = np.empty((0, n))

    def first(self, atom, level, stops, start: int = 0) -> np.ndarray:
        """Per component (atom, level), the first point from ``start`` where
        ``stops(g, level, j, k)`` holds on the block of points j:k; len(points) where
        none does.  g is read only as far as some component needs, and at most
        ``LEAF_VALUES_PER_CALL`` (point, component) pairs are compared at once."""
        at = np.full(atom.size, len(self.points))
        ids = np.arange(atom.size)
        j = start
        while ids.size and j < len(self.points):
            if j == len(self.g_at):
                _evaluate_next_blocks([self])
            k = min(len(self.g_at), j + max(1, LEAF_VALUES_PER_CALL // ids.size))
            hit = stops(self.g_at[j:k, atom], level, j, k)
            left = hit.any(axis=0)
            at[ids] = np.where(left, hit.argmax(axis=0) + j, at[ids])
            if left.all():
                break
            ids, atom, level = ids[~left], atom[~left], level[~left]
            j = k
        return at


def _evaluate_next_blocks(tracks):
    """g at the next unread points of each track, in one call of at most
    ``per_call`` points: a track past the budget keeps its points for later."""
    g, n, room = tracks[0].g, tracks[0].n, tracks[0].per_call
    parts = []
    for track in tracks:
        done = len(track.g_at)
        parts.append(track.points[done:done + room])
        room -= len(parts[-1])
    c = np.repeat(np.concatenate(parts)[:, None], n, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(g(c), dtype=float).reshape(c.shape)
    done = 0
    for track, part in zip(tracks, parts):
        track.g_at = np.concatenate((track.g_at, vals[done:done + len(part)]))
        done += len(part)


class _Halving(_Points):
    """The brackets that every search stopped at s walks from one bracket [lo, hi].

    A search stopped at s halves only while its bracket straddles s, lo < s <= hi,
    and the straddling half of [lo, hi] is [lo, mid] when mid >= s and [mid, hi]
    otherwise, so from one bracket the search at every level walks one chain of
    nodes, set by s and ``tol``, until it closes (width <= tol, or adjacent floats)
    or the component's own decision at a node leaves it.  The points are ``head``,
    then the nodes.  On a ``wide`` bracket (``solvers.is_wide``) the midpoint halves
    each end first.
    """

    def __init__(self, g, n, per_call, lo, hi, s, tol, wide, head=()):
        mids, los = [], []  # node j halves [los[j], hi] at mids[j]
        lo, hi = float(lo), float(hi)  # a wide hi - lo is inf, without a warning
        if lo < s <= hi:
            while hi - lo > tol:
                mid = 0.5 * lo + 0.5 * hi if wide else 0.5 * (lo + hi)
                if not lo < mid < hi:  # adjacent floats
                    break
                mids.append(mid)
                los.append(lo)
                if mid >= s:
                    hi = mid
                else:
                    lo = mid
        mids = np.array(mids)
        self.up = mids >= s
        # the answer of a component that leaves at node j, then past the last node
        self.exits = np.append(np.where(self.up, mids, los), lo)
        self.head = len(head)
        super().__init__(g, n, per_call, np.concatenate((head, mids)))

    def answer(self, atom, level) -> np.ndarray:
        """The stopped search's values for components whose bracket is this one's:

        - at a node mid >= s where ``not (g >= z)``, lo = mid >= s: the answer is mid;
        - at a node mid < s where ``g >= z``, hi = mid < s: the answer is the lower end;
        - past the last node the bracket has closed: the answer is its lower end.
        """
        h = self.head
        return self.exits[self.first(
            atom, level, lambda g, z, j, k: (g >= z) != self.up[j - h:k - h, None],
            start=h) - h]


class _CapitalChain:
    """The brackets that every search stopped at s walks on one (stage, claim).

    The search first expands the canonical bracket [lo0, hi0]: up ``ladder(hi0, +1)``
    while g(hi) < z, then down ``ladder(lo0, -1)`` while g(lo) >= z and hi >= s,
    answering -inf past its last rung.
    Both ladders are the same for every level, so the chain reads g along each once,
    and finds where each component stops by the search's own comparisons.  From the
    expanded bracket the search halves along that bracket's ``_Halving`` chain,
    built once per bracket and kept.  Each component is answered by comparing its
    level with g at those points; g is evaluated once per point, lazily, in blocks
    of at most ``LEAF_VALUES_PER_CALL`` leaf values.  These are the stopped
    search's values bit for bit, so ``< s`` is exact.  A level that g does not reach
    at the cap, g < z at every rung of the upward ladder, raises there, as the search
    would.  The chain never runs the search.
    """

    def __init__(self, m: PerformanceMeasure, t: int, x: XVar, s: float, tol: float):
        self.t, self.x, self.s, self.tol = t, x, s, tol
        space = x.space
        self.n = space.n_atoms(t)
        self.g = m.prepare(space, t, x.values)
        self.bracket = lo, hi = _canonical_bracket(x)
        self.per_call = max(1, LEAF_VALUES_PER_CALL // space.n_leaves)
        # every query reads g at both canonical ends, the head of the canonical chain
        canonical = self._halving(lo, hi, head=(hi, lo))
        _evaluate_next_blocks([canonical])
        self.halvings = {(0, 0): canonical}  # by (rise index, fall index)

    def holds(self, t: int, x: XVar, s: float) -> bool:
        return t == self.t and x is self.x and s == self.s

    def _halving(self, lo, hi, head=()) -> _Halving:
        return _Halving(self.g, self.n, self.per_call, lo, hi, self.s, self.tol,
                        is_wide(self.bracket[0], hi), head)  # the search's own rule

    @functools.cached_property
    def rise(self) -> _Points:
        """The upper ends the search tries, from hi0."""
        rise = _Points(self.g, self.n, self.per_call, ladder(self.bracket[1], 1.0))
        rise.g_at = self.halvings[0, 0].g_at[:1]  # g(hi0) is read already
        return rise

    @functools.cached_property
    def fall(self) -> _Points:
        """The lower ends the search tries, from lo0."""
        fall = _Points(self.g, self.n, self.per_call, ladder(self.bracket[0], -1.0))
        fall.g_at = self.halvings[0, 0].g_at[1:2]  # g(lo0) is read already
        return fall

    def values(self, z) -> np.ndarray:
        """The stopped search's per-atom values at levels z (as ``_induce_raw``)."""
        n, s = self.n, self.s
        z = np.asarray(z, dtype=float)
        shape = (n,) if z.ndim < 2 else (z.shape[0], n)
        level = (z if z.shape == shape else np.broadcast_to(z, shape)).ravel()
        atom = np.arange(level.size) % n
        canonical = self.halvings[0, 0]
        g_hi, g_lo = canonical.g_at[:2, atom]
        up, down = g_hi < level, g_lo >= level
        expands_up = up.any()
        if not (expands_up or down.any()):  # all halve the canonical bracket
            return canonical.answer(atom, level).reshape(shape)
        top = np.zeros(level.size, dtype=np.intp)  # hi is rise.points[top]
        hi = self.bracket[1]
        if expands_up:
            up = np.flatnonzero(up)
            top[up] = self.rise.first(atom[up], level[up], lambda g, z, j, k: ~(g < z),
                                      start=1)
            if np.any(top == len(self.rise.points)):  # g < z at the cap
                raise RuntimeError(_UNREACHED_LEVEL)
            hi = self.rise.points[top]
        down = np.flatnonzero(down & (hi >= s))
        bottom = np.zeros(level.size, dtype=np.intp)  # lo is fall.points[bottom]
        if down.size:
            bottom[down] = self.fall.first(atom[down], level[down],
                                           lambda g, z, j, k: ~(g >= z), start=1)
        out = np.full(level.size, -INF)  # g >= z down to the last lower rung
        span = len(self.fall.points) + 1
        key = top * span + bottom
        keys = sorted(set(key[bottom < span - 1].tolist()))
        chains = [self._expanded(*divmod(k, span)) for k in keys]
        fresh = [chain for chain in chains if not len(chain.g_at) and len(chain.points)]
        if fresh:  # the new chains' first blocks share one kernel call
            _evaluate_next_blocks(fresh)
        for k, chain in zip(keys, chains):
            on = np.flatnonzero(key == k)
            out[on] = chain.answer(atom[on], level[on])
        return out.reshape(shape)

    def _expanded(self, top: int, bottom: int) -> _Halving:
        chain = self.halvings.get((top, bottom))
        if chain is None:
            chain = self.halvings[top, bottom] = self._halving(self.fall.points[bottom],
                                                               self.rise.points[top])
        return chain


def induce_risk(m: PerformanceMeasure, t: int, z: float, x: XVar,
                tol: float = TOL_C) -> RiskPoint:
    """Smallest stage-t capital lifting X to level z, per atom.

    Requires z strictly inside (z_d, z_u).  An atom whose value stays at or above z
    for arbitrarily negative capital reports -inf.
    """
    t = x.space.check_stage(t)
    z_arr = np.asarray(z, dtype=float)
    if not np.all((z_arr > m.z_d) & (z_arr < m.z_u)):  # a NaN level fails too
        raise ValueError(f"level must lie strictly inside ({m.z_d}, {m.z_u})")
    vals = _induce_raw(m, t, z, x, tol=tol)
    return RiskPoint(stage=t, level=(float(z) if np.ndim(z) == 0 else z_arr),
                     values=TVar(x.space, t, vals, kind="ba"), tol=tol)


def _entropic_raw(m: ExponentialUtilityMeasure, t: int, z, x: XVar) -> np.ndarray:
    space = x.space
    lam_atom = m.lam_at(space, t)
    idx = space.atom_index[t]
    lam_leaf = lam_atom[idx]
    mass_leaf = space.atom_mass[t][idx]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        v = -lam_leaf * x.values + np.log(space.probs / mass_leaf)
    v = np.where(np.isposinf(x.values), -INF, v)  # e^(-lam * inf) = 0 contribution
    lse = group_logsumexp(v, idx, space.n_atoms(t))
    return (lse - np.log1p(-np.asarray(z, dtype=float))) / lam_atom


def entropic_closed_form(lam, t: int, z: float, x: XVar) -> RiskPoint:
    """rho_t^z(X) = ln E_t[e^(-lam X)]/lam - ln(1-z)/lam, valid for z < 1.

    Exact-formula oracle for the exponential-utility measure's induced family.
    """
    t = x.space.check_stage(t)
    if not np.all(np.asarray(z, dtype=float) < 1.0):
        raise ValueError("the exponential-utility interval is (-inf, 1): need z < 1")
    vals = _entropic_raw(ExponentialUtilityMeasure(lam), t, z, x)
    return RiskPoint(stage=t, level=z, values=TVar(x.space, t, vals, kind="ba"))


# ---------------------------------------------------------------------------
# standard families


@dataclass
class StandardFamily:
    """One conditional convex risk measure per level z in an open interval.

    ``raw(z, t, x, stop_at=None)`` returns the per-atom values; z may be a scalar, a
    per-atom array (each atom evaluated at its own level) — locality makes that well
    defined — or a (B, n_atoms) array of level rows, which returns (B, n_atoms) with
    each row equal to its one-row call bit for bit.  ``reconstruct`` relies on that:
    it asks for a tree of levels per call, and refuses a family whose answer has
    another shape.  A family written for scalar or per-atom levels only must be
    extended to level rows before ``reconstruct`` can use it.
    ``stop_at=c``, one number, lets a family stop each search once ``< c`` is
    decided: only ``raw(z, t, x, stop_at=c) < c`` is then exact, and it must equal
    ``raw(z, t, x) < c`` element for element.
    ``reconstruct`` reads only that sign; a family with nothing to stop early takes
    the keyword and ignores it.  ``validate_standard_family`` checks the two agree.
    ``zero_log_level(space, t, L)`` optionally evaluates rho^z(0) at z = -e^L, for
    probing the lower divergence far beyond float range; where it returns None the
    divergence check probes a ladder of levels instead.
    """

    interval: tuple[float, float]
    raw: Callable
    provenance: str = "user-supplied"
    label: str = "family"
    zero_log_level: Callable | None = None


def induced_family(m: PerformanceMeasure, tol: float = TOL_C) -> StandardFamily:
    """The family inf{c : beta_t(X+c) >= z} for z in (z_d, z_u).

    Without ``stop_at`` each call runs the search (``_induce_raw``).  A threshold
    ``stop_at=s``, one number, is answered from the claim's ``_CapitalChain`` (for
    ``reconstruct`` and ``validate_standard_family``, its only callers): g is
    evaluated once at each point that searches stopped at s read (the canonical
    ends, the expansion ladders and the halving chain of each bracket), and each
    (row, atom) is decided by comparing its level with those values, brackets that
    must expand included.  The family keeps the chain of its last (stage, claim,
    threshold), so the probes of one ``reconstruct`` share it; the answers are the
    stopped search's bit for bit, kept chain or not.  An array of thresholds raises
    ValueError, and so does a tolerance that is not >= 0.
    """
    check_tolerance("tol", tol)
    chain, lock = None, threading.Lock()

    def raw(z, t, x, stop_at=None):
        nonlocal chain
        if stop_at is None:
            return _induce_raw(m, t, z, x, tol=tol)
        if np.ndim(stop_at):
            raise ValueError("stop_at takes one threshold, not one per value")
        s = float(stop_at)
        with lock:  # the kept chain is replaced, and grows, as it answers
            if chain is None or not chain.holds(t, x, s):
                chain = _CapitalChain(m, t, x, s, tol)
            return chain.values(z)

    return StandardFamily(interval=(m.z_d, m.z_u), raw=raw,
                          provenance="induced-from-measure",
                          label=f"induced[{m.label()}]",
                          zero_log_level=m.risk_at_zero_log_level)


def entropic_family(lam) -> StandardFamily:
    """Closed-form exponential-utility family on (-inf, 1)."""
    m = ExponentialUtilityMeasure(lam)

    def raw(z, t, x, stop_at=None):
        return _entropic_raw(m, t, z, x)

    return StandardFamily(interval=(m.z_d, m.z_u), raw=raw, provenance="closed-form",
                          label="entropic" + m.label().removeprefix("exp_utility"),
                          zero_log_level=m.risk_at_zero_log_level)


def _lower_divergence(space: FilteredSpace, t: int,
                      f: StandardFamily) -> tuple[bool | None, str]:
    """Confirm esssup rho^z(0) < -1e6 for z far enough down (unbounded intervals)."""
    z_d, z_u = f.interval
    if math.isfinite(z_d):
        return None, "interval bounded below; divergence condition is vacuous"
    if f.zero_log_level is not None:
        level = 64.0
        while level <= 1e12:
            vals = f.zero_log_level(space, t, level)
            if vals is None:  # the measure has no closed form: take the ladder below
                break
            top = float(np.max(vals))
            if top < -1e6:
                return True, f"esssup rho(0) = {top:.4g} at z = -e^{level:g}"
            level *= 8.0
        else:
            return False, "closed form never fell below -1e6"
    zero = XVar.constant(space, 0.0)
    for k in (8, 10, 12, 14, 16, 18, 24, 32, 48, 64, 96, 128, 192, 256, 300):
        z = -(10.0 ** k)
        if z <= z_d or z >= z_u:
            continue
        vals = np.asarray(f.raw(z, t, zero), dtype=float)
        top = float(np.max(vals))
        if top < -1e6:
            return True, f"esssup rho(0) = {top:.4g} at z = -1e{k}"
    return False, "rho(0) never fell below -1e6 down to z = -1e300"


@dataclass
class RiskCurve:
    """Risk values on a level grid for one claim; nondecreasing in z per atom."""

    stage: int
    zs: np.ndarray
    points: list
    x: XVar
    limit_note: str = ""
    suspect_jumps: list = field(default_factory=list)

    def matrix(self) -> np.ndarray:
        return np.vstack([p.values.values for p in self.points])

    def to_json(self) -> dict:
        space = self.x.space
        return {"stage": self.stage,
                "z": [num_to_json(z) for z in self.zs],
                "rho": {space.atom_id(self.stage, k):
                        [num_to_json(v) for v in self.matrix()[:, k]]
                        for k in range(space.n_atoms(self.stage))},
                "limit_note": self.limit_note,
                "suspect_jumps": self.suspect_jumps}

    def to_csv(self) -> str:
        space = self.x.space
        mat = self.matrix()
        lines = ["atom_id,z,rho"]
        for k in range(space.n_atoms(self.stage)):
            aid = space.atom_id(self.stage, k)
            for j, z in enumerate(self.zs):
                lines.append(f"{aid},{num_to_json(float(z))},{num_to_json(mat[j, k])}")
        return "\n".join(lines) + "\n"


def risk_curve(m: PerformanceMeasure, t: int, x: XVar, z_grid,
               tol: float = TOL_C, check_limit: bool = True) -> RiskCurve:
    """Induced risks over a strictly increasing grid inside (z_d, z_u).

    Monotonicity in z is asserted.  When the interval is unbounded below, the lower
    divergence of rho^z(0) is additionally confirmed (closed form when available,
    otherwise a downward level ladder) and recorded in ``limit_note``.
    """
    t = x.space.check_stage(t)
    zs = np.asarray(z_grid, dtype=float)
    if zs.ndim != 1 or zs.size == 0 or np.any(np.diff(zs) <= 0):
        raise ValueError("grid must be one-dimensional and strictly increasing")
    if not np.all((zs > m.z_d) & (zs < m.z_u)):  # a NaN level fails too
        raise ValueError(f"grid must stay strictly inside ({m.z_d}, {m.z_u})")
    points = [induce_risk(m, t, float(z), x, tol=tol) for z in zs]
    curve = RiskCurve(stage=t, zs=zs, points=points, x=x)
    mat = curve.matrix()
    gaps = ext_gap(mat[1:], mat[:-1])  # an atom at -inf on two levels moves by 0
    drops = (mat[1:] < mat[:-1]) & (gaps > 3.0 * tol + 1e-9)
    if np.any(drops):
        j, k = map(int, np.argwhere(drops)[0])
        raise AssertionError(
            f"risk not nondecreasing in the level: atom {x.space.atom_id(t, k)} "
            f"drops between z={zs[j]:g} and z={zs[j + 1]:g}")
    if zs.size >= 3:
        # each atom's threshold scales with the median of its own finite gaps, so one
        # atom's verdict does not depend on how the others move
        med = np.array([np.median(g[np.isfinite(g)]) if np.isfinite(g).any() else 0.0
                        for g in gaps.T])
        big = np.argwhere(gaps > 50.0 * (med + 1e-9) + 1e-3)
        curve.suspect_jumps = [
            {"atom": x.space.atom_id(t, int(k)), "z_lo": float(zs[j]),
             "z_hi": float(zs[j + 1]), "gap": float(gaps[j, k])} for j, k in big]
    if check_limit and not math.isfinite(m.z_d):
        ok, note = _lower_divergence(x.space, t, induced_family(m, tol=tol))
        if ok is False:
            raise RuntimeError(f"lower divergence of rho(0) not confirmed: {note}")
        curve.limit_note = note
    return curve


# ---------------------------------------------------------------------------
# reconstruction


# Leaf-rows one speculative level probe may hold: ``reconstruct`` decides d halvings per
# family call, d being the deepest tree whose 2^d - 1 midpoint rows times the leaf
# count fit; d = 3 on 16 leaves.  For an induced family a level row costs comparisons
# with the kept capital chain, plus a search for the few levels whose c-bracket must
# expand, so a deeper tree buys fewer calls with speculative rows that are mostly
# thrown away.  Set from harness runs on criterion 1's trees of at most 16 leaves,
# the only ``reconstruct`` traffic the benchmark measures (seven alternating rounds
# over 32-512 on a 2-core x86-64 machine): ``roundtrip`` medians of 99.2, 101.6,
# 101.4, 93.8 and 89.3 ops/s at 32, 64, 128, 256 and 512, criterion 1 at
# 3.3-4.6 s everywhere.  64 and 128 tie; 128 is the deeper of the two.  Above 16
# leaves the rule is unmeasured: it gives d = 2 up to 42 leaves and d = 1, one call
# per halving, from 43 leaves.  Single timings on 32- and 64-leaf trees read up to
# about 20% faster at 512 (d = 3-4), within their noise, and one without the chain
# found d = 3 faster on 256 leaves (ROADMAP item 0 asks for a large-tree workload
# before this is set from both sides).
# The randomized checkers and the capital chain bound their batches in leaf values
# rather than leaf-rows: ``report.LEAF_VALUES_PER_CALL``.
PROBE_LEAF_ROWS = 128


def _bisect_levels(is_neg, lo, hi, is_open, level, z_fill, depth, cap, what):
    """Componentwise bisection of [lo, hi], deciding ``depth`` halvings per probe call.

    It makes the decisions of the sequential loop

        while True:
            mid = 0.5 * (lo + hi)
            open = is_open(lo, hi) & (lo < mid) & (mid < hi)
            if not open.any(): break
            neg = is_neg(np.where(open, level(mid), z_fill))
            lo = np.where(open & neg, mid, lo)
            hi = np.where(open & ~neg, mid, hi)

    with the same arithmetic: each call of ``is_neg`` takes the 2^depth - 1 midpoints
    of the bracket tree below [lo, hi] as rows of levels, and the halvings are replayed
    from its answers.  That needs each component's answer to depend on its own level
    only, which locality gives a standard family.  The tree is built in place, in
    heap order in two (2^depth - 1, n) arrays of lower and upper ends (node j halves
    into 2j + 1 and 2j + 2), and its midpoints and open flags are computed once per
    call over the whole tree.  A component stops once the midpoint equals an
    endpoint (adjacent floats), so the loop ends at any tolerance; one still open
    after ``cap`` halvings raises.
    """
    n = lo.size
    cols = np.arange(n)
    a, b = np.empty((2 ** depth - 1, n)), np.empty((2 ** depth - 1, n))  # the tree
    steps = 0
    while True:
        a[0], b[0] = lo, hi
        for k in range(1, depth):  # node j halves into 2j + 1 (lower) and 2j + 2 (upper)
            first = 2 ** k - 1  # level k is rows first .. 2 * first
            lo_k, hi_k = a[first // 2:first], b[first // 2:first]
            mid = 0.5 * (lo_k + hi_k)
            a[first:2 * first + 1:2], b[first:2 * first + 1:2] = lo_k, mid
            a[first + 1:2 * first + 2:2], b[first + 1:2 * first + 2:2] = mid, hi_k
        mid = 0.5 * (a + b)
        is_open_at = is_open(a, b) & (a < mid) & (mid < b)
        if not is_open_at[0].any():
            return lo, hi
        neg = is_neg(np.where(is_open_at, level(mid), z_fill))
        node = np.zeros(n, dtype=np.intp)  # row of each component's current bracket
        live = np.ones(n, dtype=bool)      # a closed bracket stays closed
        for k in range(depth):
            live &= is_open_at[node, cols]
            if not live.any():
                return lo, hi
            if steps == cap:
                raise RuntimeError(f"{what} bisection still open after {cap} halvings")
            steps += 1
            up = live & neg[node, cols]
            lo = np.where(up, mid[node, cols], lo)
            hi = np.where(live & ~up, mid[node, cols], hi)
            node = 2 * node + 1 + up  # heap order: level k starts at row 2^k - 1


def reconstruct(f: StandardFamily, t: int, x: XVar, tol_z: float = TOL_Z,
                tol_c: float = TOL_C) -> TVar:
    """Regenerate the measure value from a standard family, per atom.

    Returns z_d on atoms where every probed level keeps rho >= 0 (including probes at
    the far bottom of an unbounded interval), the exact upper endpoint on atoms whose
    risk stays negative at the far top, and otherwise sup{z : rho^z < 0} by bisection:
    first in u = atan(z) to tolerance tol_z, then a plain-z polish for absolute
    accuracy on moderate levels.  Strict negativity is decided as rho < -tol_c from
    ``raw(..., stop_at=-tol_c)``.  An induced family answers every such probe,
    the end probes whose c-brackets must expand included, from one capital chain
    per claim, shared by every probe of the call (``_CapitalChain``), with the full
    search's sign bit for bit.

    Each bisection step probes every atom at once, and one family call answers the
    next d steps for all of them (``_bisect_levels``), with d set by the leaf count
    through ``PROBE_LEAF_ROWS``.  A bracket that closes on adjacent floats stops; one
    still open after 200 atan or 80 polish halvings raises RuntimeError.  A tolerance
    that is not >= 0 raises ValueError.
    """
    check_tolerance("tol_z", tol_z)
    check_tolerance("tol_c", tol_c)
    space = x.space
    t = space.check_stage(t)
    z_d, z_u = f.interval
    n = space.n_atoms(t)
    u_lo = np.full(n, np.nan)   # levels known to satisfy rho < -tol_c (below beta)
    u_hi = np.full(n, np.nan)   # levels known to satisfy rho >= -tol_c (at/above)
    out = np.full(n, np.nan)
    done = np.zeros(n, dtype=bool)
    z_fill = math.tan(0.5 * (math.atan(max(z_d, -1e12)) + math.atan(min(z_u, 1e12))))
    depth = max(1, int(math.log2(PROBE_LEAF_ROWS / space.n_leaves + 1)))

    def is_neg(z) -> np.ndarray:
        # strictly negative risk: the level sits below beta
        neg = np.asarray(f.raw(z, t, x, stop_at=-tol_c), dtype=float) < -tol_c
        if neg.shape != z.shape:
            raise ValueError(
                f"family {f.label!r} answered levels of shape {z.shape} with shape "
                f"{neg.shape}; raw must map (B, n_atoms) level rows to (B, n_atoms)")
        return neg

    def escalate(end, sign, pending):
        # probe toward the interval's end (sign +1 the top, -1 the bottom); an atom
        # stays pending while the end may still be its value: while rho < -tol_c on
        # the way up, while rho >= -tol_c on the way down
        if math.isfinite(end):
            levels = [math.tan(math.atan(end) - sign * max(tol_z, 1e-12))]
        else:
            levels = [sign * lvl for lvl in (1e8, 1e12, 1e16)]
        for lvl in levels:
            if not pending.any():
                break
            neg = is_neg(np.where(pending, lvl, z_fill))
            u = math.atan(lvl)
            u_lo[pending & neg] = u
            u_hi[pending & ~neg] = np.fmin(u_hi[pending & ~neg], u)
            pending = pending & (neg == (sign > 0))
        return pending

    # top side: atoms whose risk stays negative all the way up take the upper endpoint
    pending = escalate(z_u, 1.0, np.ones(n, dtype=bool))
    out[pending] = z_u
    done |= pending
    # bottom side: atoms that never showed a negative risk may sit at the lower end;
    # rho >= 0 at every probed level is the B_X branch
    pending = escalate(z_d, -1.0, ~done & np.isnan(u_lo))
    out[pending] = z_d
    done |= pending

    # bisection in atan coordinates
    u_lo, u_hi = _bisect_levels(
        is_neg, u_lo, u_hi, lambda lo, hi: ~done & ((hi - lo) > tol_z), np.tan,
        z_fill, depth, 200, "atan")

    # plain-z polish where the tangent map stretched the tolerance
    todo = ~done
    if todo.any():
        z_lo = np.where(todo, np.tan(u_lo), 0.0)
        z_hi = np.where(todo, np.tan(u_hi), 0.0)

        def polishing(lo, hi):
            scale = np.maximum(1.0, np.minimum(np.abs(lo), 1e9) * 1e-3)
            return todo & (hi - lo > 1e-7 * scale) & (np.abs(lo) < 1e9)

        z_lo, z_hi = _bisect_levels(is_neg, z_lo, z_hi, polishing, lambda z: z,
                                    z_fill, depth, 80, "polish")
        out = np.where(todo, 0.5 * (z_lo + z_hi), out)

    kind = None if np.any(np.isneginf(out)) else "bb"
    return TVar(space, t, out, kind=kind)


# ---------------------------------------------------------------------------
# family validation


def validate_standard_family(f: StandardFamily, space: FilteredSpace, t: int,
                             trials: int = 60, rng_seed: int = 0) -> Report:
    """Property-based verification of the standard-family conditions.

    Per level: finite on bounded claims, convex, monotone nonincreasing, translation
    invariant, local, continuous from below.  Across levels, asked for as level rows
    (which the family must answer, as ``reconstruct`` requires): per-atom paths
    nondecreasing and continuous, and ``raw(..., stop_at=c) < c`` equal to ``raw < c``
    exactly, for thresholds c at and near 0 and at and just above one value of raw.
    rho^z(0) must diverge when the interval is unbounded below.  Positive
    homogeneity (coherence) is detected and reported.
    """
    t = space.check_stage(t)
    tol = 1e-8
    z_d, z_u = f.interval
    u_lo = math.atan(max(z_d, -1e6))
    u_hi = math.atan(min(z_u, 1e6))
    zs = np.array([math.tan(u_lo + q * (u_hi - u_lo))
                   for q in (0.08, 0.2, 0.35, 0.5, 0.65, 0.8, 0.92)])
    rep = Report(title=f"standard_family[{f.label}] t={t}", seed=rng_seed,
                 meta={"space": space.name or "", "provenance": f.provenance,
                       "z_grid": [num_to_json(z) for z in zs]})

    def rho(z, leaves, **stop):
        # one level, or a vector of levels asked for as (len(z), n_atoms) level rows
        if np.ndim(z):
            z = np.repeat(np.asarray(z)[:, None], space.n_atoms(t), axis=1)
        x = XVar(space, leaves, validate=False)
        return np.asarray(f.raw(z, t, x, **stop), dtype=float)

    def at_level(rng, *claims):
        # a grid level z, drawn after the claims, and each claim's values at z
        z = float(zs[rng.integers(zs.size)])
        return z, [rho(z, leaves) for leaves in claims]

    def probe(name, key, n, prop, inf_legs=False):
        # trial k draws X (+inf legs on every third trial if inf_legs), and prop(rng, X)
        # returns the witness fields besides X where the property fails, else None
        def trial(rng, k):
            x = sample_xvar(space, rng, 0.05 if inf_legs and k % 3 == 0 else 0.0)
            fields = prop(rng, x)
            return None if fields is None else {"X": x.to_json(), **fields}

        return run_trials(rep, name, n, rng_seed, key, trial)

    # a) the per-level properties
    def finite_on_bounded_claims(rng, x):
        _, (v,) = at_level(rng, x.values)
        if not np.all(np.isfinite(v)):
            return {"rho": [num_to_json(u) for u in v]}

    def convexity(rng, x):
        y, c = sample_xvar(space, rng), float(rng.uniform())
        mix = c * x.values + (1.0 - c) * y.values
        z, (lhs, a, b) = at_level(rng, mix, x.values, y.values)
        if np.any(lhs > c * a + (1.0 - c) * b + 1e-8):
            return {"Y": y.to_json(), "c": c, "z": num_to_json(z)}

    def monotone_nonincreasing(rng, x):
        bump = rng.uniform(0.0, 2.0, size=space.n_leaves)
        z, (lo, hi) = at_level(rng, x.values, x.values + bump)
        if np.any(hi > lo + tol):
            return {"z": num_to_json(z)}

    def translation_invariance(rng, x):
        xi = sample_tvar(space, t, rng)
        z, (base, shifted) = at_level(rng, x.values, (x + xi).values)
        if np.any(np.abs(shifted - (base - xi.values)) > tol):
            return {"xi": xi.to_json(), "z": num_to_json(z)}

    def locality(rng, x):
        mask = sample_event(space, t, rng)
        z, (lhs, rhs) = at_level(rng, x.values, x.restrict(mask).values)
        if np.any(mask.flags & (np.abs(lhs - rhs) > tol)):
            return {"z": num_to_json(z)}

    def continuity_from_below(rng, x):  # rho(X - delta) decreases to rho(X)
        deltas = (2.0 ** -e for e in (0, 4, 8, 16, 24, 32, 40))
        z, (target, *seq) = at_level(rng, x.values, *(x.values - d for d in deltas))
        mono_ok = all(np.all(b <= a + tol) for a, b in zip(seq, seq[1:]))
        lim_ok = np.all(np.where(np.isfinite(target), ext_gap(seq[-1], target) <= 1e-6,
                                 seq[-1] <= -1e6))
        if not (mono_ok and lim_ok):
            return {"z": num_to_json(z)}

    for key, prop in enumerate((finite_on_bounded_claims, convexity,
                                monotone_nonincreasing, translation_invariance,
                                locality), 21):
        probe(prop.__name__, key, trials, prop)
    half = max(10, trials // 2)
    probe("continuity_from_below", 26, half, continuity_from_below, inf_legs=True)

    # b) per-atom paths nondecreasing and continuous in the level
    widest = []  # (gap, z_lo, z_hi, X, atom) of each trial's widest increment

    def z_paths_monotone(rng, x):
        steps = np.diff(rho(zs, x.values), axis=0)
        gaps = np.abs(steps)
        j, a = np.unravel_index(int(np.argmax(gaps)), gaps.shape)
        widest.append((float(gaps[j, a]), float(zs[j]), float(zs[j + 1]), x, int(a)))
        drops = np.argwhere(steps < -tol)
        if drops.size:
            j, a = map(int, drops[0])
            return {"z_lo": num_to_json(float(zs[j])),
                    "z_hi": num_to_json(float(zs[j + 1])), "atom": space.atom_id(t, a)}

    probe("z_paths_monotone", 27, half, z_paths_monotone)

    gap0, lo, hi, xv, a = max(widest, key=lambda w: w[0])  # the first of the widest
    if gap0 > 1e-6:
        for _ in range(2):  # refine the worst interval; a genuine jump will not shrink
            mid = 0.5 * (lo + hi)
            v_lo, v_mid, v_hi = rho([lo, mid, hi], xv.values)[:, a]
            lo, hi = (lo, mid) if abs(v_mid - v_lo) >= abs(v_hi - v_mid) else (mid, hi)
        sub = max(abs(v_mid - v_lo), abs(v_hi - v_mid))
        jump = sub > 0.7 * gap0 + 1e-7
        rep.add(CheckResult("z_paths_continuous", not jump, trials=1, witness={
            "X": xv.to_json(), "atom": space.atom_id(t, a), "jump": num_to_json(sub),
            "bracket": [num_to_json(lo), num_to_json(hi)]} if jump else None))
    else:
        rep.add(CheckResult("z_paths_continuous", True, trials=1,
                            note="all sampled increments already below 1e-6"))

    # c) divergence of rho(0) when the interval is unbounded below
    ok, note = _lower_divergence(space, t, f)
    rep.add(CheckResult("lower_divergence", ok, trials=1, failures=int(ok is False),
                        note=note))

    # a search stopped at c answers exactly raw < c
    def sign_query_matches_raw(rng, k):
        xv = sample_xvar(space, rng)
        values = rho(zs, xv.values)
        picked = float(values.flat[k % values.size])
        for c in (-TOL_C, 0.0, picked, float(np.nextafter(picked, INF))):
            if not np.array_equal(rho(zs, xv.values, stop_at=c) < c, values < c):
                return {"X": xv.to_json(), "c": num_to_json(c)}

    run_trials(rep, "sign_query_matches_raw", half, rng_seed, 29,
               sign_query_matches_raw)

    # coherence detection (informational): rho(cX) = c rho(X)
    homogeneous = True

    def coherence(rng, x):
        nonlocal homogeneous
        c = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        if homogeneous:  # one counterexample settles it
            _, (scaled, plain) = at_level(rng, c * x.values, x.values)
            homogeneous = not np.any(np.abs(scaled - c * plain) > 1e-7 * max(1.0, c))

    res = probe("coherence", 28, min(trials, 30), coherence)
    res.note = ("positive homogeneity detected: coherent levels"
                if homogeneous else "convex but not positively homogeneous")
    return rep


# ---------------------------------------------------------------------------
# gain-loss duality


def glr_dual_risk(t: int, z: float, x: XVar) -> RiskPoint:
    """Gain-loss risk as the supremum of E_t[-X] over the level-z dual set, in closed form.

    The dual set holds the conditional densities whose ratios stay within 1+z on each
    atom.  With L = -X and S_k the k largest-loss leaves of an atom (k = 0..m),

        rho_t^z(X) = max_k (E_t[L] + z E_t[L 1_{S_k}]) / (1 + z P_t(S_k))
                   = E_t[L] + max_k z E_t[(L - E_t[L]) 1_{S_k}] / (1 + z P_t(S_k)),

    because the optimal density takes two values with ratio 1+z, the high one on a
    loss prefix (Bernardo and Ledoit 2000).  One sort and prefix sums per atom give
    every candidate at once.  The centered form keeps each atom's running sums at its
    own scale.  A linear program over the same polytope, which lives in the tests, and
    the bisection route are the independent checks of this formula.
    """
    space = x.space
    t = space.check_stage(t)
    z = float(z)
    if not (0.0 < z < INF):
        raise ValueError("the dual form needs a finite level z > 0")
    if not np.all(np.isfinite(x.values)):
        raise ValueError("the dual form needs a finite-valued claim")
    loss = -x.values
    mean = atom_expect(space, t, loss)
    order, atom, starts = loss_order(space, t, loss)
    pbar = space.probs[order] / space.atom_mass[t][atom]

    def within_atom_cumsum(v):
        run = np.cumsum(v)
        return run - np.r_[0.0, run][starts][atom]

    excess = within_atom_cumsum(pbar * (loss[order] - mean[atom]))
    # each atom's conditional weights sum to one: taking one off at its last leaf keeps
    # the running sum near zero, so later atoms' masses keep their own digits; that
    # leaf gets the one back, its mass being the whole atom
    last = starts[1:] - 1
    step = pbar.copy()
    step[last] -= 1.0
    mass = within_atom_cumsum(step)
    mass[last] += 1.0
    premium = np.maximum.reduceat(z * excess / (1.0 + z * mass), starts)
    out = mean + np.maximum(premium, 0.0)  # k = 0 contributes a zero premium
    return RiskPoint(stage=t, level=z, values=TVar(space, t, out, kind="ba"))


@dataclass
class DualMeasure:
    """Absolutely continuous scenario weighting that agrees with P up to stage t."""

    space: FilteredSpace
    stage: int
    density: np.ndarray

    def __post_init__(self):
        self.density = np.asarray(self.density, dtype=float)
        if self.density.shape != (self.space.n_leaves,):
            raise ValueError("density must assign one value per leaf")
        if not np.all(self.density >= 0.0):
            raise ValueError("density must be nonnegative (and not NaN)")
        mass = atom_expect(self.space, self.stage, self.density)
        if np.any(np.abs(mass - 1.0) > 1e-10):
            raise ValueError("conditional mass per stage atom must equal one")

    def expect(self, s: int, leaf_values: np.ndarray):
        """E^Q at stage s: per-atom values plus the mask of Q-charged atoms."""
        s = self.space.check_stage(s)
        idx = self.space.atom_index[s]
        w = self.space.probs * self.density
        contrib = np.where(w > 0.0, w * leaf_values, 0.0)  # 0 * inf = 0 off support
        num = np.bincount(idx, weights=contrib, minlength=self.space.n_atoms(s))
        den = np.bincount(idx, weights=w, minlength=self.space.n_atoms(s))
        mask = den > 1e-15
        vals = np.where(mask, num / np.where(mask, den, 1.0), 0.0)
        return vals, mask

    def to_json(self) -> dict:
        return {"space": self.space.name or "", "stage": self.stage,
                "density": {s: num_to_json(v)
                            for s, v in zip(self.space.leaf_ids, self.density)}}

    @classmethod
    def from_json(cls, d, space: FilteredSpace) -> "DualMeasure":
        from .lattice import num_from_json
        dens = np.zeros(space.n_leaves)
        for key, v in d["density"].items():
            dens[space.leaf_pos(str(key))] = num_from_json(v)
        return cls(space, int(d["stage"]), dens)


def sample_glr_density(space: FilteredSpace, t: int, z: float,
                       rng: np.random.Generator) -> DualMeasure:
    """A vertex of the gain-loss dual polytope picked by a random objective.

    On each atom of m > 1 leaves it draws c = ``rng.normal(size=m)``, one value per
    leaf, and minimizes E_t[c g] over the level-z densities g, whose ratios stay
    within 1+z.  The minimizer is two-valued: with S_k the k smallest-c leaves,

        g = (1+z) / (1 + z P_t(S_k))  on S_k,    g = 1 / (1 + z P_t(S_k))  elsewhere,

    at the k = 0..m that minimizes (E_t[c] + z E_t[c 1_{S_k}]) / (1 + z P_t(S_k)), the
    structure of ``glr_dual_risk``'s maximizer.  One sort and prefix sums per atom
    give every candidate.  Single-leaf atoms get density 1 and draw nothing.
    """
    t = space.check_stage(t)
    z = float(z)
    if not 0.0 <= z < INF:
        raise ValueError("the dual polytope needs a finite level z >= 0")
    density = np.ones(space.n_leaves)
    by_atom = np.argsort(space.atom_index[t], kind="stable")  # atom by atom, in order
    size = space.atom_size[t]
    ends = np.cumsum(size)
    for k in np.flatnonzero(size > 1).tolist():
        idx = by_atom[ends[k] - size[k]:ends[k]]
        c = rng.normal(size=idx.size)
        order = np.argsort(c, kind="stable")
        pb = space.probs[idx[order]] / space.atom_mass[t][k]
        mass = np.r_[0.0, np.cumsum(pb)]
        cost = np.r_[0.0, np.cumsum(c[order] * pb)]
        best = int(np.argmin((cost[-1] + z * cost) / (1.0 + z * mass)))
        low = 1.0 / (1.0 + z * mass[best])
        density[idx[order]] = np.where(np.arange(idx.size) < best, (1.0 + z) * low, low)
    return DualMeasure(space, t, density)


def penalty_lower_bound(m: PerformanceMeasure, t: int, z: float, q: DualMeasure,
                        probes) -> np.ndarray:
    """Certified lower bound on the penalty of q: max over probes of E^Q[-Z] - rho(Z).

    The true penalty is a supremum over all claims; any finite probe set therefore
    bounds it from below.  Only this direction is computable without conjugacy
    machinery.
    """
    if q.stage != t:
        raise ValueError("the weighting must agree with P at the evaluation stage")
    best = np.full(q.space.n_atoms(t), -INF)
    for zk in probes:
        ev, mask = q.expect(t, -zk.values)
        rho = _induce_raw(m, t, z, zk)
        cand = np.where(mask, ev - rho, -INF)
        best = np.maximum(best, cand)
    return best


def weak_duality_probe(m: PerformanceMeasure, t: int, z: float, x: XVar,
                       q: DualMeasure, probes=()) -> Report:
    """Check E^Q[-X] - rho(X) <= penalty lower bound once X joins the probe set.

    With X included the inequality holds by construction; the value of the probe is
    the gap it reports, a certified distance to the dual bound at this weighting.
    """
    rep = Report(title="weak_duality_probe", meta={"z": num_to_json(z)})
    all_probes = list(probes) + [x]
    alpha_hat = penalty_lower_bound(m, t, z, q, all_probes)
    ev, mask = q.expect(t, -x.values)
    rho = _induce_raw(m, t, z, x)
    lhs = np.where(mask, ev - rho, -INF)
    ok = bool(np.all(lhs <= alpha_hat + 1e-9))
    rep.add(CheckResult("weak_duality_consistency", ok, trials=1,
                        failures=0 if ok else 1,
                        note="penalty estimated from below by the probe set",
                        witness=None if ok else {
                            "lhs": [num_to_json(v) for v in lhs],
                            "alpha_hat": [num_to_json(v) for v in alpha_hat]}))
    return rep


# ---------------------------------------------------------------------------
# truncation and closure diagnostics


def truncation_limit_check(m: PerformanceMeasure, t: int, z: float, x: XVar) -> Report:
    """rho(X truncated at n) decreases to rho(X) as the cap rises."""
    space = x.space
    t = space.check_stage(t)
    rep = Report(title=f"truncation_limit[{m.label()}]", meta={"z": num_to_json(z)})
    fmax = x.finite_max()
    base = max(1.0, abs(fmax) if math.isfinite(fmax) else 1.0)
    caps = [base * (2.0 ** k) for k in range(0, 15, 2)]
    rho_full = _induce_raw(m, t, z, x)
    seq = [_induce_raw(m, t, z, x.truncate(cap)) for cap in caps]

    mono = all(np.all(b <= a + 1e-9) for a, b in zip(seq, seq[1:]))
    rep.add(CheckResult("nonincreasing_in_cap", mono, trials=len(caps),
                        failures=0 if mono else 1))
    conv = bool(np.all(close_or_both_inf(seq[-1], rho_full, 1e-6)))
    rep.add(CheckResult("limit_matches_untruncated", conv, trials=1,
                        failures=0 if conv else 1,
                        witness=None if conv else {
                            "rho_capped": [num_to_json(v) for v in seq[-1]],
                            "rho": [num_to_json(v) for v in rho_full]}))
    if np.all(np.isfinite(x.values)) and caps[-1] >= fmax:
        inactive = bool(np.all(seq[-1] == rho_full))
        rep.add(CheckResult("cap_inactive_on_finite_claims", inactive, trials=1,
                            failures=0 if inactive else 1))
    return rep


def closure_check(m: PerformanceMeasure, t: int, z: float, trials: int = 40,
                  rng_seed: int = 0, *, space: FilteredSpace) -> Report:
    """Boundary behavior of {rho <= 0}: interior shifts, limits, and the strict gap.

    For claims on the boundary, adding 1/n gives rho = -1/n < 0 and the sequence
    returns to the boundary; limits of sampled points of {rho < 0} stay in
    {rho <= 0}.  When the level exceeds the value at 0 while rho(0) = 0, the claim 0
    witnesses the gap between {rho <= 0} and the strict acceptance set.
    """
    t = space.check_stage(t)
    rep = Report(title=f"closure[{m.label()}] z={z:g}", seed=rng_seed,
                 meta={"space": space.name or ""})

    inv_ns = [1.0 / n for n in (1, 4, 16, 64, 256)]

    def interior_shift(rng, k):
        xv = sample_xvar(space, rng)
        rho = _induce_raw(m, t, z, xv)
        if np.any(np.isneginf(rho)):
            return
        y = xv + TVar(space, t, rho)  # boundary claim: rho(Y) = 0
        rho_y = _induce_raw(m, t, z, y)
        shifted = [_induce_raw(m, t, z, y + inv) for inv in inv_ns]
        strict = all(np.all(s < 0.0) for s in shifted)
        back = np.all(np.abs(shifted[-1] - rho_y) <= 1e-6 + inv_ns[-1])
        if not (strict and back and np.all(np.abs(rho_y) <= 1e-8)):
            return {"X": xv.to_json(), "rho_y": [num_to_json(v) for v in rho_y]}

    run_trials(rep, "interior_shift", trials, rng_seed, 31, interior_shift)

    def limits_stay_in_closed_set(rng, k):
        xv = sample_xvar(space, rng)
        rho = _induce_raw(m, t, z, xv)
        if np.any(np.isneginf(rho)):
            return
        y = xv + TVar(space, t, rho)  # limit of the interior sequence y + 1/n
        seq_ok = all(np.all(_induce_raw(m, t, z, y + 1.0 / n) < 0.0)
                     for n in (2, 8, 32))
        lim = _induce_raw(m, t, z, y)
        if not (seq_ok and np.all(lim <= 1e-9)):
            return {"X": xv.to_json(), "rho_limit": [num_to_json(v) for v in lim]}

    run_trials(rep, "limits_stay_in_closed_set", trials, rng_seed, 32,
               limits_stay_in_closed_set)

    zero = XVar.constant(space, 0.0)
    rho0 = _induce_raw(m, t, z, zero)
    beta0 = m.values(space, t, zero.values)
    if np.all(np.abs(rho0) <= 1e-9) and np.all(beta0 < z - 1e-9):
        rep.add(CheckResult("boundary_gap_at_zero", True, trials=1,
                            note="0 sits in {rho <= 0} yet below level z"))
    else:
        rep.add(CheckResult("boundary_gap_at_zero", None, trials=1,
                            note="no gap instance at the zero claim"))
    return rep
