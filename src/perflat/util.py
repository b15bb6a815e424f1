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
_A_WORDS = _A.ravel().tolist()
_MIX_L, _MIX_R = 0xca01f9dd, 0x4973f715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(v: np.ndarray, consts: np.ndarray, i: int, r: int) -> np.ndarray:
    """SeedSequence's hashmix for calls i..i+r-1, one row each (uint32 rows wrap)."""
    v = (v ^ consts[i:i + r]) * consts[i + 1:i + r + 1]
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y) -> np.ndarray:
    """SeedSequence's mix of y, uint32 rows or one Python int word, into the rows x."""
    v = x * _MIX_L - (y * _MIX_R & _M32)
    return v ^ (v >> 16)


def _hash_word(v: int, i: int) -> int:
    """``_hashmix`` call i on one word held as a Python int."""
    v = (v ^ _A_WORDS[i]) * _A_WORDS[i + 1] & _M32
    return v ^ v >> 16


def _mix_word(x: int, y: int) -> int:
    """``_mix`` of one Python int word into another."""
    v = (x * _MIX_L - y * _MIX_R) & _M32
    return v ^ v >> 16


def trial_rngs(seed: int, key: int, n: int) -> Iterator[np.random.Generator]:
    """Yield trial k's Generator, in ``derived_rng(seed, key, k)``'s state, for k < n.

    The SeedSequence pools of every entropy [seed, key, k] are mixed at once, and each
    state is set on one Generator that the whole run reuses: a yielded Generator is
    valid only until the next one is asked for.  Pool words 0, 1 and 3 do not depend
    on k until word 2 is mixed into them, so they are mixed once as Python ints; the
    rest runs on uint32 rows.  Words at or above 2^32, or negative, take
    ``derived_rng`` trial by trial, with its checks and errors.
    """
    seed, key, n = int(seed), int(key), int(n)
    if not (0 <= seed <= _M32 and 0 <= key <= _M32 and 0 < n <= 1 << 32):
        for k in range(n):  # n < 1 yields nothing
            yield derived_rng(seed, key, k)
        return
    # hashmix call 4 + 3 src + j mixes word src into the j-th of the other three
    w0, w1, w3 = _hash_word(seed, 0), _hash_word(key, 1), _hash_word(0, 3)
    w2 = _hashmix(np.arange(n, dtype=np.uint32), _A, 2, 1)
    w1, w2, w3 = (_mix_word(w1, _hash_word(w0, 4)), _mix(w2, _hash_word(w0, 5)),
                  _mix_word(w3, _hash_word(w0, 6)))
    w0, w2, w3 = (_mix_word(w0, _hash_word(w1, 7)), _mix(w2, _hash_word(w1, 8)),
                  _mix_word(w3, _hash_word(w1, 9)))
    pool = np.empty((4, n), dtype=np.uint32)
    pool[[0, 1, 3]] = _mix(np.array([[w0], [w1], [w3]], dtype=np.uint32),
                           _hashmix(w2, _A, 10, 3))
    pool[2] = w2
    pool[:3] = _mix(pool[:3], _hashmix(pool[3], _A, 13, 3))
    # generate_state(4, uint64): 8 hashmix calls on the pool words 0..3 twice, and
    # word pairs read as little-endian uint64
    words = (pool ^ _B[:8].reshape(2, 4, 1)) * _B[1:].reshape(2, 4, 1)
    words = (words ^ (words >> 16)).reshape(8, n)
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
