"""Check results and reports shared by the axiom, family, and consistency checkers,
and the seeded trial runner behind the randomized ones."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .util import derived_rng


@dataclass
class CheckResult:
    """Outcome of one named property check.

    passed is True/False for a decided check and None when the probe could not decide
    (for example a divergence target out of float range without a closed form).
    """

    name: str
    passed: bool | None
    trials: int = 0
    failures: int = 0
    witness: dict | None = None
    note: str = ""

    def to_json(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "trials": self.trials,
               "failures": self.failures}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class Report:
    """A titled bundle of check results plus run metadata."""

    title: str
    seed: int | None = None
    meta: dict = field(default_factory=dict)
    results: list[CheckResult] = field(default_factory=list)

    def add(self, result: CheckResult) -> CheckResult:
        self.results.append(result)
        return result

    @property
    def passed(self) -> bool:
        return all(r.passed is not False for r in self.results)

    def result(self, name: str) -> CheckResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_json(self) -> dict:
        out = {"title": self.title, "passed": self.passed,
               "results": [r.to_json() for r in self.results]}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.meta:
            out["meta"] = self.meta
        return out

    def summary_lines(self) -> list[str]:
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else ("FAIL" if r.passed is False else "SKIP")
            extra = f" ({r.note})" if r.note else ""
            lines.append(f"[{status}] {self.title}: {r.name}{extra}")
        return lines


# Leaf values that one batched kernel call may hold (one row at least).  Two-phase
# trials are drawn in chunks whose rows hold at most this many (one trial at least)
# and valued in slices of this many; an induced family's capital chain (``risk_family``)
# is evaluated in blocks of this many, and the time-consistency pass searches chunks
# of trials whose (trial, level) rows hold at most this many.  2^18 floats are 2 MB, so a chunk on 2^14
# leaves is 16 rows, not the 500 x 8 x 16384 floats of a whole property's trials.
LEAF_VALUES_PER_CALL = 1 << 18


@dataclass(frozen=True)
class TwoPhase:
    """A trial probe drawn, valued and judged a chunk of trials at a time.

    draw(field, ks) -> (stages, rows, ctxs) draws the trials ks, a range of trial
    indices: their stages (n,), the r rows each values at its stage (n, r, n_leaves)
    and one ctx per trial for judge and witness (a stage is any key that groups the
    values calls: the family validator's is a grid level).  The j-th call of field()
    in every chunk gives field j, derived_rng(seed, key, j), continued from chunk to
    chunk; a draw takes one array per field with a fixed width per trial, so trial
    k's draw is the same for any trial count and any chunking; trial 0's rows size
    the chunks.  values(stage, rows) maps rows, each flattened, to (B, w) values, w
    a multiple of n_atoms.  judge(vals, ctxs) gets one stage's (trials, r, w) values
    and ctxs, in trial order, and flags each failing trial; witness(rows, ctx, vals)
    builds one failing trial's witness dict from its own (r, w) values.
    """

    draw: Callable[[Callable[[], np.random.Generator], range], tuple]
    values: Callable[[int, np.ndarray], np.ndarray]
    judge: Callable[[np.ndarray, list], np.ndarray]
    witness: Callable[[np.ndarray, Any, np.ndarray], dict]


def _judged_chunk(probe: TwoPhase, stages: np.ndarray, rows: np.ndarray, ctxs: list):
    """The number of failing trials in a drawn chunk, and a thunk for the first one's
    witness: one ``values`` call per stage and slice, one judge call per stage."""
    failed = np.zeros(len(stages), dtype=bool)
    groups = []
    for stage in dict.fromkeys(stages.tolist()):
        mine = np.flatnonzero(stages == stage).tolist()
        flat = rows[mine].reshape(-1, rows.shape[-1])
        step = max(1, LEAF_VALUES_PER_CALL // flat.shape[1])
        vals = np.concatenate([probe.values(stage, flat[j:j + step])
                               for j in range(0, len(flat), step)])
        vals = vals.reshape(len(mine), rows.shape[1], -1)
        failed[mine] = probe.judge(vals, [ctxs[i] for i in mine])
        groups.append((mine, vals))

    def witness():
        first = int(failed.argmax())
        mine, vals = next(g for g in groups if first in g[0])
        return probe.witness(rows[first], ctxs[first], vals[mine.index(first)])

    return int(failed.sum()), witness


def run_trials(rep: Report, name: str, n: int, seed: int, key: int,
               probe: TwoPhase) -> CheckResult:
    """Run n seeded trials of one property and add the outcome to rep.

    The probe draws its trials in chunks, trial 0 alone and then as many as its rows
    allow, each field from derived_rng(seed, key, field); each chunk is valued with
    one call per stage and slice and judged with one call per stage, and only the
    first failing trial is asked for its witness.  So a shorter run checks a prefix
    of a longer one, and the result counts the failures and keeps the first
    witness, as one-by-one trials would.  n < 1 raises.
    """
    if n < 1:
        raise ValueError("trials must be at least 1")
    res = CheckResult(name, True, trials=n)
    made, k, chunk = functools.cache(lambda j: derived_rng(seed, key, j)), 0, 1
    while k < n:
        drawn = probe.draw(map(made, itertools.count()).__next__,
                           range(k, min(n, k + chunk)))
        failures, witness = _judged_chunk(probe, *drawn)
        if failures:
            res.passed, res.failures = False, res.failures + failures
            if res.witness is None:
                res.witness = witness()
        k, chunk = k + chunk, max(1, LEAF_VALUES_PER_CALL // drawn[1][0].size)
    return rep.add(res)
