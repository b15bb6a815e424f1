"""Deterministic seeding, and a serial map that only the benchmark tracer names."""

from __future__ import annotations

import numpy as np


def derived_rng(seed: int, *keys: int) -> np.random.Generator:
    """Generator derived from a root seed and integer keys.

    Stable across runs and independent of evaluation order, so trial k of a property
    draws the same stream however many trials run.
    """
    return np.random.default_rng([int(seed)] + [int(k) for k in keys])


def task_map(fn, items):
    """Map fn over items, in order.

    Nothing in perflat calls it: the search runs its restarts in lockstep.  It stays
    defined only because ``benchmarks/tracer.py`` looks ``perflat.util.task_map`` up
    by name when it installs its hooks, and its ``--trace 1`` run raises
    AttributeError without it.
    """
    return [fn(it) for it in items]
