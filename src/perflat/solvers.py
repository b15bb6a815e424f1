"""Monotone inversion by bracket expansion and bisection, plus a grouped logsumexp.

The main entry point works on vectors: each component has its own bracket and all
components share one function evaluation per iteration, which is what makes atomwise
threshold searches cheap on a scenario tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BRACKET_CAP = 2.0 ** 60
# From a width of 2^61 down to the smallest subnormal spacing is about 1140 halvings,
# so a loop that runs past this cap is a defect, not slow convergence.
BISECT_CAP = 2000


class BracketError(RuntimeError):
    """g stays below target at +cap: the caller's monotone function is inconsistent."""


@dataclass
class InfShiftResult:
    values: np.ndarray        # lower endpoint of the final bracket; -inf if capped below
    hit_lower_cap: np.ndarray  # bool per component
    near_zero: np.ndarray      # |value| <= tol flags


def vector_monotone_inf(g, lo0: np.ndarray, hi0: np.ndarray, target: np.ndarray,
                        tol: float = 1e-10) -> InfShiftResult:
    """Componentwise inf{c : g(c)_k >= target_k} for g nondecreasing in c.

    ``g`` maps a vector of candidate shifts (one per component) to a vector of values.
    Brackets are seeded with [lo0, hi0] and expanded by doubling steps up to
    cap = BRACKET_CAP.  If a component stays at/above target all the way down to -cap
    the infimum is reported as -inf; a component that never reaches target by +cap is
    an inconsistency in the caller's monotone function and raises BracketError.

    Returns the lower bracket endpoint: within ``tol`` of the infimum and strictly on
    the g < target side, so an exactly-probed threshold such as 0.0 survives intact.
    Where the float spacing at the infimum exceeds ``tol`` the bracket closes on two
    adjacent floats instead and the lower one is returned.  More than ``BISECT_CAP``
    halvings raise RuntimeError.
    """
    cap = BRACKET_CAP
    lo = np.array(lo0, dtype=float)
    hi = np.array(hi0, dtype=float)
    target = np.asarray(target, dtype=float)
    n = lo.shape[0]
    if np.any(lo >= hi):
        raise ValueError("need lo0 < hi0")

    capped_below = np.zeros(n, dtype=bool)

    # expand the upper side until g(hi) >= target
    need = g(hi) < target
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
        need = g(hi) < target

    # expand the lower side until g(lo) < target; a floor at -cap means -inf
    vals = g(lo)
    need = vals >= target
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
        need = vals >= target
        need &= ~capped_below

    active = ~capped_below
    # Halving reaches tol within `free` steps unless the float spacing at the root
    # exceeds tol; only past that point does a component need the stall test, so the
    # common path does no extra numpy work per step.
    widest = float(np.max(hi - lo, where=active, initial=0.0))
    free = math.ceil(math.log2(widest) - math.log2(tol)) if widest > tol > 0.0 else 0
    steps = 0
    while True:
        mid = 0.5 * (lo + hi)
        run = active & (hi - lo > tol)
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

    out = np.where(capped_below, -math.inf, lo)
    near_zero = np.abs(out) <= tol
    return InfShiftResult(values=out, hit_lower_cap=capped_below, near_zero=near_zero)


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
