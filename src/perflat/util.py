"""Deterministic seeding, and a serial map that only the benchmark tracer names.

``trial_rngs`` yields the streams ``derived_rng(seed, key, k)`` for k = 0..n-1, with
numpy's seeding run once over every k and one Generator reused.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np


def derived_rng(seed: int, *keys: int) -> np.random.Generator:
    """Generator derived from a root seed and integer keys.

    Stable across runs and independent of evaluation order, so trial k of a property
    draws the same stream however many trials run.
    """
    return np.random.default_rng([int(seed)] + [int(k) for k in keys])


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 seeding constants.  Each
# hashmix call XORs with one hash constant and multiplies by the next; these
# sequences do not depend on the entropy, so they are tables, computed with Python
# ints: 16 mixing calls read _A, and generate_state's 8 words read _B.
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    return np.array([init * pow(mult, i, 1 << 32) & _M32 for i in range(n)],
                    dtype=np.uint32)[:, None]


_A = _hash_consts(0x43b0d7e5, 0x931e8875, 17)
_B = _hash_consts(0x8b51f9dd, 0x58f38ded, 9)
_MIX = np.array([0xca01f9dd, 0x4973f715], dtype=np.uint32)
_OTHERS = [np.array([d for d in range(4) if d != src]) for src in range(4)]
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(v: np.ndarray, consts: np.ndarray, i: int, r: int) -> np.ndarray:
    """SeedSequence's hashmix for calls i..i+r-1, one row each (uint32 rows wrap)."""
    v = (v ^ consts[i:i + r]) * consts[i + 1:i + r + 1]
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    v = x * _MIX[0] - y * _MIX[1]
    return v ^ (v >> 16)


def trial_rngs(seed: int, key: int, n: int) -> Iterator[np.random.Generator]:
    """Yield trial k's Generator, in ``derived_rng(seed, key, k)``'s state, for k < n.

    The SeedSequence pools of every entropy [seed, key, k] are mixed at once as uint32
    rows, and each state is set on one Generator that the whole run reuses: a yielded
    Generator is valid only until the next one is asked for.  Words at or above 2^32,
    or negative, take ``derived_rng`` trial by trial, with its checks and errors.
    """
    seed, key, n = int(seed), int(key), int(n)
    if not (0 <= seed <= _M32 and 0 <= key <= _M32 and 0 < n <= 1 << 32):
        for k in range(n):  # n < 1 yields nothing
            yield derived_rng(seed, key, k)
        return
    pool = np.zeros((4, n), dtype=np.uint32)
    pool[0], pool[1], pool[2] = seed, key, np.arange(n)  # the 4th word hashes a 0
    pool = _hashmix(pool, _A, 0, 4)
    for src, dst in enumerate(_OTHERS):  # each word mixed into the other three
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _A, 4 + 3 * src, 3))
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _B, 0, 8)
    # generate_state(4, uint64): word pairs read as little-endian uint64
    state = np.ascontiguousarray(words.T, dtype="<u4").view("<u8").tolist()
    rng = np.random.default_rng(0)
    bits = rng.bit_generator
    for s_hi, s_lo, i_hi, i_lo in state:
        # PCG64's srandom: inc = 2 * initseq + 1, then two LCG steps from state 0
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                      "state": {"state": ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT
                                          + inc) & _M128, "inc": inc}}
        yield rng


def task_map(fn, items):
    """Map fn over items, in order.

    Nothing in perflat calls it: the search runs its restarts in lockstep.  It stays
    defined only because ``benchmarks/tracer.py`` looks ``perflat.util.task_map`` up
    by name when it installs its hooks, and its ``--trace 1`` run raises
    AttributeError without it.
    """
    return [fn(it) for it in items]
