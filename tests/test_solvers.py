import math
import sys
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from perflat.lattice import INF
from perflat.solvers import BRACKET_CAP, group_logsumexp, ladder, vector_monotone_inf


def _per_group(values, index, n_groups):
    return np.array([logsumexp(values[index == k]) if np.any(index == k) else -INF
                     for k in range(n_groups)])


def test_group_logsumexp_matches_scipy_per_group():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n_groups = int(rng.integers(1, 9))
        n = int(rng.integers(0, 40))
        index = rng.integers(0, n_groups, size=n)
        values = rng.normal(0.0, 10.0 ** rng.uniform(-2, 3), size=n)
        values[rng.random(n) < 0.2] = -INF
        np.testing.assert_allclose(group_logsumexp(values, index, n_groups),
                                   _per_group(values, index, n_groups),
                                   rtol=1e-12, atol=1e-13)


def test_group_logsumexp_edge_groups():
    values = np.array([1.0, -INF, -INF, 800.0, 801.0, INF, 2.0, -INF])
    index = np.array([0, 0, 1, 2, 2, 3, 3, 5])
    got = group_logsumexp(values, index, 7)
    # group 1 and 5 hold only -inf, groups 4 and 6 are empty, group 3 overflows,
    # group 2 would overflow without the shift
    assert got[[1, 3, 4, 5, 6]].tolist() == [-INF, INF, -INF, -INF, -INF]
    np.testing.assert_allclose(got, _per_group(values, index, 7), rtol=1e-15)
    assert np.all(np.isfinite(got[[0, 2]]))


def test_stop_at_gives_the_full_search_sign_in_fewer_evaluations():
    rng = np.random.default_rng(8)
    n = 64
    target = rng.uniform(-50.0, 50.0, n)
    flat = np.arange(n) < 4  # stays above target everywhere: capped, -inf
    calls = []

    def g(c):
        calls.append(1)
        return np.where(flat, np.inf, c ** 3 + c)

    full = vector_monotone_inf(g, -1.0, 1.0, target)
    assert np.all(np.isneginf(full[flat]))
    n_full = len(calls)
    for c in (0.0, -1e-10, rng.normal(0.0, 3.0)):
        got = vector_monotone_inf(g, -1.0, 1.0, target, stop_at=c)
        assert np.array_equal(got < c, full < c)
    calls.clear()  # above every root: no halving and no downward expansion
    vector_monotone_inf(g, -1.0, 1.0, target, stop_at=10.0)
    assert len(calls) < n_full / 4


def _rise_by_loop(hi):
    """hi, then hi + 1, + 2, + 4, ... up to BRACKET_CAP: the upward expansion as a
    loop of its own, the way the search and the capital chain each wrote it before
    ``ladder``.  A sum that rounds onto the cap is followed by the cap again."""
    ends, step = [hi], 1.0
    while True:
        hi += step
        step *= 2.0
        if hi > BRACKET_CAP:
            ends.append(BRACKET_CAP)
            return ends
        ends.append(hi)


def _tail_by_loop(cap):
    """The upward rungs past the cap: cap * 2, then * 4, * 16, * 256, ..., each
    product crossing twice the binades of the one before, up to the largest float."""
    ends, binades = [], 1
    while cap < sys.float_info.max:
        cap = min(cap * 2.0 ** binades, sys.float_info.max)
        binades *= 2
        ends.append(cap)
    return ends


def _fall_by_loop(lo):
    """lo, then lo - 1, - 2, - 4, ... floored at -BRACKET_CAP, as a loop of its own."""
    ends, step = [lo], 1.0
    while lo > -BRACKET_CAP:
        lo = max(lo - step, -BRACKET_CAP)
        step *= 2.0
        ends.append(lo)
    return ends


def test_ladder_sums_as_the_loops_do_below_2_to_53():
    # bit for bit, apart from the loop's repeated cap where a sum rounds onto it
    rng = np.random.default_rng(19)
    n = 4000
    ends = rng.choice([-1.0, 1.0], n) * 2.0 ** rng.uniform(-20.0, 53.0, n)
    ends[:6] = [0.0, 5e-324, -1.0, 2.0 ** 53 - 1.0, -(2.0 ** 53 - 1.0), 2.0 ** 52 + 1.0]
    repeats = 0
    for end in ends.tolist():
        rise = _rise_by_loop(end)
        if rise[-2] == rise[-1]:
            repeats += 1
            rise.pop()
        assert np.array_equal(ladder(end, 1.0), rise + _tail_by_loop(BRACKET_CAP)), end
        assert np.array_equal(ladder(end, -1.0), _fall_by_loop(end)), end
    assert repeats > n / 10


@pytest.mark.parametrize("end", [1e300, -1e300, 1.7e308, -1.7e308, -1e17 + 16.0, 3e19,
                                 2.0 ** 59, 2.0 ** 60])
def test_ladder_follows_the_scale_of_its_end(end):
    # every rung moves off the one before, the cap max(2^60, 2|end|) clipped to the
    # float range is a rung, the last downward one, and the upward ladder goes on
    # to the largest float; no sum or product overflows into a warning on the way
    cap = min(max(BRACKET_CAP, 2.0 * abs(end)), sys.float_info.max)
    for sign in (1.0, -1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rungs = ladder(end, sign)
        assert rungs[0] == end and np.all(sign * np.diff(rungs) > 0.0)
        assert rungs[1] == end + sign * max(1.0, math.ulp(end))
        at = rungs.tolist().index(sign * cap)
        assert rungs[at + 1:].tolist() == (_tail_by_loop(cap) if sign > 0 else [])
    assert rungs[-1] == -cap and ladder(end, 1.0)[-1] == sys.float_info.max


def test_search_refuses_a_tolerance_that_is_not_at_least_zero():
    for tol in (np.nan, -1.0):
        with pytest.raises(ValueError, match="must be >= 0"):
            vector_monotone_inf(lambda c: c, -1.0, 1.0, np.array([0.3]), tol=tol)
    assert vector_monotone_inf(lambda c: c, -1.0, 1.0, np.array([0.3]), tol=0.0) < 0.3


# (lo0, hi0, target) under g(c) = c: inside the bracket; up past the 2^60 cap and
# down to -inf below it; down and up by a few rungs at the scale of 1e6; brackets
# of 1e300 and at the float range, which are wide (``is_wide``) once expanded or
# from the start; and brackets shared by several components
_BRACKETS = [(-1.0, 1.0, 0.3), (-1.0, 1.0, 1e30), (-1.0, 1.0, -1e25),
             (-3e6, -1e6, -5e6), (-3e6, -1e6, 2.5e6), (-1e300, 2e300, 3e300),
             (-1e300, 2e300, -1.5e300), (-1e307, 1e307, 1.6e308),
             (-1e308, 0.0, 4e307), (-1.0, 1.0, -0.25), (-3e6, -1e6, -2e6)]


@pytest.mark.parametrize("stop_at", [None, 0.0, 2e6])
def test_a_bracket_per_component_gives_each_component_its_own_search(stop_at):
    # each component reads only its own bracket and its own end's ladders: the call
    # with one bracket per component gives what each bracket's scalar call gives
    # (a wide hi - lo is inf, which the search's callers let pass without a warning)
    lo0, hi0, target = map(np.array, zip(*_BRACKETS))
    with np.errstate(over="ignore"):
        got = vector_monotone_inf(lambda c: c, lo0, hi0, target, stop_at=stop_at)
        for k, (lo, hi, z) in enumerate(_BRACKETS):
            want = vector_monotone_inf(lambda c: c, lo, hi, np.array([z]),
                                       stop_at=stop_at)
            assert np.array_equal(got[k:k + 1], want), _BRACKETS[k]
    if stop_at is None:
        assert np.isneginf(got[2]) and got[1] > 2.0 ** 60 and got[7] > 1e308
        assert np.allclose(got[np.isfinite(got)], target[np.isfinite(got)], rtol=1e-15)


def test_a_scalar_bracket_searches_as_the_same_bracket_per_component():
    # one bracket for all components takes the same path, g call for g call, as that
    # bracket repeated per component
    target = np.array([0.3, 1e30, -1e25, -0.25, 5e6, -7.5])

    def run(lo0, hi0):
        calls = []

        def g(c):
            calls.append(c.copy())
            return c
        return vector_monotone_inf(g, lo0, hi0, target), calls

    (one, one_calls), (rows, row_calls) = (run(-1.0, 1.0),
                                           run(np.full(6, -1.0), np.full(6, 1.0)))
    assert np.array_equal(one, rows) and len(one_calls) == len(row_calls) > 60
    assert all(np.array_equal(a, b) for a, b in zip(one_calls, row_calls))
