import numpy as np
from scipy.special import logsumexp

from perflat.lattice import INF
from perflat.solvers import group_logsumexp


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
