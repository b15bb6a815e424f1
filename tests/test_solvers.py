import numpy as np
from scipy.special import logsumexp

from perflat.lattice import INF
from perflat.solvers import group_logsumexp, vector_monotone_inf


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

    full = vector_monotone_inf(g, np.full(n, -1.0), np.full(n, 1.0), target)
    assert np.all(np.isneginf(full[flat]))
    n_full = len(calls)
    finite = np.where(flat, 0.0, full)
    for c in (0.0, -1e-10, rng.normal(0.0, 3.0), rng.normal(0.0, 3.0, n), finite,
              np.nextafter(finite, np.inf), np.nextafter(finite, -np.inf)):
        got = vector_monotone_inf(g, np.full(n, -1.0), np.full(n, 1.0), target,
                                  stop_at=c)
        assert np.array_equal(got < c, full < c)
    calls.clear()  # above every root: no halving and no downward expansion
    vector_monotone_inf(g, np.full(n, -1.0), np.full(n, 1.0), target, stop_at=10.0)
    assert len(calls) < n_full / 4
