"""Monotone inversion by bracket expansion and bisection, plus a grouped logsumexp.

The main entry point works on vectors: each component has its own bracket and all
components share one function evaluation per iteration, which is what makes atomwise
threshold searches cheap on a scenario tree.
"""

from __future__ import annotations

import math

import numpy as np

BRACKET_CAP = 2.0 ** 60
# From a width of 2^61 down to the smallest subnormal spacing is about 1140 halvings,
# so a loop that runs past this cap is a defect, not slow convergence.
BISECT_CAP = 2000


class BracketError(RuntimeError):
    """g stays below target at +cap: the caller's monotone function is inconsistent."""


def vector_monotone_inf(g, lo0: np.ndarray, hi0: np.ndarray, target: np.ndarray,
                        tol: float = 1e-10, stop_at=None) -> np.ndarray:
    """Componentwise inf{c : g(c)_k >= target_k} for g nondecreasing in c.

    ``g`` maps a vector of candidate shifts (one per component) to a vector of values.
    Brackets are seeded with [lo0, hi0] and expanded by doubling steps up to
    cap = BRACKET_CAP.  If a component stays at/above target all the way down to -cap
    the infimum is reported as -inf; a component that never reaches target by +cap is
    an inconsistency in the caller's monotone function and raises BracketError.

    Returns the (n,) array of lower bracket endpoints: within ``tol`` of the infimum
    and strictly on the g < target side, so an exactly-probed threshold such as 0.0
    survives intact.  A value is -inf exactly where the search was capped below, since
    ``lo`` starts finite and moves only to ``max(lo - step, -cap)`` or to a midpoint.
    Where the float spacing at the infimum exceeds ``tol`` the bracket closes on two
    adjacent floats instead and the lower one is returned.  More than ``BISECT_CAP``
    halvings raise RuntimeError.

    ``stop_at`` (a scalar or one threshold per component) turns the search into a sign
    query: a component stops halving as soon as its bracket excludes the threshold,
    ``hi < stop_at`` or ``lo >= stop_at``.  The full search's final lower endpoint lies
    in every bracket it passes through, so ``values < stop_at`` is the full search's
    answer bit for bit, while ``values`` itself is only the lower endpoint of a wider
    bracket.  A component whose bracket already lies below the threshold skips the
    downward expansion: it reports its seed ``lo0`` where the full search may report
    -inf.  No library caller stops the search: it is the reference that the capital
    chain of ``risk_family`` is tested against bit for bit.
    """
    cap = BRACKET_CAP
    lo = np.array(lo0, dtype=float)
    hi = np.array(hi0, dtype=float)
    target = np.asarray(target, dtype=float)
    n = lo.shape[0]
    if np.any(lo >= hi):
        raise ValueError("need lo0 < hi0")

    capped_below = np.zeros(n, dtype=bool)
    if stop_at is not None:
        stop_at = np.broadcast_to(np.asarray(stop_at, dtype=float), (n,))

    # expand the upper side until g(hi) >= target
    g_hi = g(hi)
    need = g_hi < target
    step = np.ones(n)
    while need.any():
        hi[need] = hi[need] + step[need]
        step[need] *= 2.0
        if np.any(hi[need] > cap):
            over = need & (hi > cap)
            probe = np.where(over, cap, hi)
            if np.any(g(probe)[over] < target[over]):
                raise BracketError(
                    "upper bracket never closed: value below target at the cap "
                    "(monotone target unreachable)")
            hi[over] = cap
        g_hi = g(hi)
        need = g_hi < target

    # expand the lower side until g(lo) < target; a floor at -cap means -inf
    vals = g(lo)
    need = vals >= target
    if stop_at is not None:  # a bracket already below the threshold needs no lower end
        need &= hi >= stop_at
    step = np.ones(n)
    while need.any():
        at_floor = need & (lo <= -cap)
        if at_floor.any():
            capped_below |= at_floor
            need &= ~at_floor
            if not need.any():
                break
        lo[need] = np.maximum(lo[need] - step[need], -cap)
        step[need] *= 2.0
        vals = g(lo)
        need &= vals >= target

    active = ~capped_below
    # Halving reaches tol within `free` steps unless the float spacing at the root
    # exceeds tol; only past that point does a component need the stall test, so the
    # common path does no extra numpy work per step.  Where g(hi) is NaN the test runs
    # from the first step: a stalled midpoint can round onto hi, where g >= target is
    # False, and would move lo onto hi.
    widest = float(np.max(hi - lo, where=active, initial=0.0))
    free = math.ceil(math.log2(widest) - math.log2(tol)) if widest > tol > 0.0 else 0
    if np.isnan(g_hi).any():
        free = 0
    steps = 0
    while True:
        mid = 0.5 * (lo + hi)
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
