"""Deterministic seeding and the serial task map."""

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

    A plain loop, kept as a named function because ``benchmarks/tracer.py`` hooks
    ``perflat.util.task_map`` by name to time the search restarts; its ``--trace 1``
    run raises AttributeError without it.
    """
    return [fn(it) for it in items]
