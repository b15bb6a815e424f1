"""Monotone inversion by bracket expansion and bisection, plus a grouped logsumexp.

The main entry point works on vectors: every component starts from a bracket and
moves it on its own, and all components share one function evaluation per iteration,
which is what makes atomwise threshold searches cheap on a scenario tree.
"""

from __future__ import annotations

import math
import sys

import numpy as np

BRACKET_CAP = 2.0 ** 60
# From a width of 2^1024 down to the smallest subnormal spacing is about 2100
# halvings, so a loop that runs past this cap is a defect, not slow convergence.
BISECT_CAP = 2200


class BracketError(RuntimeError):
    """g stays below target on the last upper rung: the monotone g is inconsistent."""


def ladder(end: float, sign: float) -> np.ndarray:
    """The rungs a bracket end expands to: ``end``, then ``end + sign * step`` for
    steps s, 2s, 4s, ... summed one at a time, until a sum reaches the cap
    ``sign * max(BRACKET_CAP, 2|end|)`` (clipped to the float range), which is a
    rung.  The first step s = max(1, ulp(end)) moves every rung off the one before,
    and the cap carries the ladder past the claim's own scale.  Below 2^53 the step
    is 1, and up to 2^59 the cap is ``BRACKET_CAP``.  The downward ladder ends at
    the cap; the upward one goes on to the largest float, each rung crossing twice
    as many binades as the one before (1, 2, 4, ...), about ten rungs more.
    """
    top = sys.float_info.max
    cap = min(max(BRACKET_CAP, 2.0 * abs(end)), top)
    rungs, step = [end], sign * max(1.0, math.ulp(end))
    while sign * rungs[-1] < cap:  # a float step past the range is inf, not an error
        rungs.append(rungs[-1] + step)
        step *= 2.0
    rungs[-1] = sign * cap
    binades = 1
    while sign > 0 and rungs[-1] < top:
        rungs.append(min(rungs[-1] * 2.0 ** binades, top))
        binades *= 2
    return np.array(rungs)


def _expand(g, n: int, end, sign: float, stays, moving=True):
    """n components start at ``end`` (one number, or one per component) and each climbs
    its own end's ``ladder(end, sign)``, one rung and one g call at a time, while
    ``stays(g)`` holds (and ``moving``, at the start).  Returns the points, g there and
    the components still staying on their last rung."""
    c = np.full(n, end, dtype=float)
    g_c = g(c)
    moving = stays(g_c) & moving
    if moving.any():
        # the ladders of the distinct moving ends, after the start points
        ends, row = (np.unique(c[moving], return_inverse=True) if np.ndim(end)
                     else (np.array([end]), 0))
        ladders = [ladder(e, sign) for e in ends.tolist()]
        first = n + np.cumsum([0] + [len(r) for r in ladders])  # and one past the last
        rungs = np.concatenate((c, *ladders))
        at, last = np.arange(n), np.arange(n)
        at[moving], last[moving] = first[row], first[row + 1] - 1
        while (climb := moving & (at < last)).any():
            at += climb
            c = rungs[at]
            g_c = g(c)
            moving &= stays(g_c)
    return c, g_c, moving


def is_wide(lo0, hi):
    """lo0 < -2^1021 or hi > 2^1021 (elementwise): lo + hi or hi - lo may overflow."""
    return (-lo0 > 2.0 ** 1021) | (hi > 2.0 ** 1021)


def check_tolerance(name: str, tol: float) -> None:
    """Refuse a tolerance that is not >= 0, NaN included."""
    if not tol >= 0.0:
        raise ValueError(f"{name} must be >= 0, got {tol}")


def vector_monotone_inf(g, lo0, hi0, target: np.ndarray,
                        tol: float = 1e-10, stop_at: float | None = None) -> np.ndarray:
    """Componentwise inf{c : g(c)_k >= target_k} for g nondecreasing in c.

    ``g`` maps a vector of candidate shifts (one per component) to a vector of values.
    Every component starts from the bracket [lo0, hi0], numbers or (n,) arrays of
    per-component ends; each reads only its own, as the call with it alone would.
    One whose g(hi0) is below target climbs ``ladder(hi0, +1)`` until g reaches
    target, and one whose g(lo0) is at/above target descends ``ladder(lo0, -1)``
    until g falls below it.  A component still at/above target on the last lower
    rung reports -inf; one still below target on the last upper rung is an
    inconsistency in the caller's monotone function and raises BracketError.

    Returns the (n,) array of lower bracket endpoints: within ``tol`` of the infimum
    and strictly on the g < target side, so an exactly-probed threshold such as 0.0
    survives intact.  Where the float spacing at the infimum exceeds ``tol`` the
    bracket closes on two adjacent floats instead and the lower one is returned.
    More than ``BISECT_CAP`` halvings raise RuntimeError, and a tolerance that is not
    >= 0 raises ValueError.

    ``stop_at``, one threshold, turns the search into a sign query: a component stops
    halving as soon as its bracket excludes the threshold, ``hi < stop_at`` or
    ``lo >= stop_at``.  The full search's final lower endpoint lies in every bracket
    it passes through, so ``values < stop_at`` is the full search's answer bit for
    bit, while ``values`` itself is only the lower endpoint of a wider bracket.  A
    component whose bracket already lies below the threshold skips the downward
    expansion: it reports lo0 where the full search may report -inf.  No library
    caller stops the search: it is the reference that the capital chain of
    ``risk_family`` is tested against bit for bit.
    """
    target = np.asarray(target, dtype=float)
    n = target.shape[0]
    if not np.all(lo0 < hi0):
        raise ValueError("need lo0 < hi0")
    check_tolerance("tol", tol)

    hi, g_hi, short = _expand(g, n, hi0, 1.0, lambda v: v < target)
    if short.any():
        raise BracketError("upper bracket never closed: value below target at the cap "
                           "(monotone target unreachable)")
    # a bracket already below the threshold needs no lower end
    keep = True if stop_at is None else hi >= stop_at
    lo, _, capped_below = _expand(g, n, lo0, -1.0, lambda v: v >= target, keep)

    active = ~capped_below
    # Halving reaches tol within `free` steps unless the float spacing at the root
    # exceeds tol; only past that point does a component need the stall test, so the
    # common path does no extra numpy work per step.  Where g(hi) is NaN the test runs
    # from the first step: a stalled midpoint can round onto hi, where g >= target is
    # False, and would move lo onto hi.  Lower rungs stay within -max(2^60, 2|lo0|),
    # and halving moves lo up and hi down, so only a bracket ``is_wide`` once expanded
    # can overflow: it halves each end first and runs the stall test from step one.
    wide = is_wide(lo0, hi)
    widest = float(np.max(hi - lo, where=active & ~wide, initial=0.0))
    free = math.ceil(math.log2(widest) - math.log2(tol)) if widest > tol > 0.0 else 0
    if (halve_ends := wide.any()) or np.isnan(g_hi).any():
        free = 0
    steps = 0
    while True:
        mid = 0.5 * (lo + hi)
        if halve_ends:
            mid = np.where(wide, 0.5 * lo + 0.5 * hi, mid)
        run = active & (hi - lo > tol)
        if stop_at is not None:  # the bracket still straddles the threshold
            run &= (lo < stop_at) & (stop_at <= hi)
        if steps >= free:
            run &= (lo < mid) & (mid < hi)  # adjacent floats: lo is the answer
        if not run.any():
            break
        steps += 1
        if steps > BISECT_CAP:
            raise RuntimeError(f"bisection did not close after {BISECT_CAP} halvings")
        mid = np.where(run, mid, lo)  # a stopped component keeps its bracket
        down = run & (g(mid) >= target)
        hi = np.where(down, mid, hi)
        lo = np.where(down, lo, mid)

    return np.where(capped_below, -math.inf, lo)


def group_logsumexp(values: np.ndarray, index: np.ndarray, n_groups: int) -> np.ndarray:
    """Per-group log(sum(exp(values))) without overflow.

    Each group is shifted by its own finite maximum.  A group that is empty or holds
    only -inf sums to 0 and gives -inf; a group holding +inf sums to +inf.
    """
    top = np.full(n_groups, -math.inf)
    np.maximum.at(top, index, values)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        total = np.bincount(index, weights=np.exp(values - shift[index]),
                            minlength=n_groups)
        return shift + np.log(total)
