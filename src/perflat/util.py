"""Deterministic seeding, and a serial map that only the benchmark tracer names.

A two-phase property (``report.TwoPhase``) draws its field j from ``derived_rng(seed,
key, j)``, and a trial-by-trial loop its trial k from ``derived_rng(seed, key, k)``.
"""

from __future__ import annotations

import numpy as np


def derived_rng(seed: int, *keys: int) -> np.random.Generator:
    """Generator derived from a root seed and integer keys.

    Stable across runs and independent of evaluation order.  The words seed numpy's
    SeedSequence as the plain list would; words below 2^32 go in as one uint32
    array, which seeds the same pool in about half the time.
    """
    words = [int(seed), *map(int, keys)]
    if 0 <= min(words) and max(words) >> 32 == 0:
        words = np.array(words, dtype=np.uint32)
    return np.random.default_rng(words)


def task_map(fn, items):
    """Map fn over items, in order.  Nothing in perflat calls it; it stays because
    ``benchmarks/tracer.py`` hooks it by name, and its ``--trace 1`` run raises
    AttributeError without it."""
    return [fn(it) for it in items]
