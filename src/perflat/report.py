"""Check results and reports shared by the axiom, family, and consistency checkers,
and the seeded trial runner behind the randomized ones."""

from __future__ import annotations

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
# trials are drawn until their rows reach this many and valued in slices of this many;
# an induced family's capital chain (``risk_family``) is evaluated in blocks of this
# many.  2^18 floats are 2 MB, so a batch on 2^14 leaves is 16 rows, not the
# 500 x 8 x 16384 floats of a whole property's trials.
LEAF_VALUES_PER_CALL = 1 << 18


@dataclass(frozen=True)
class TwoPhase:
    """A trial probe whose trials share ``values`` and judge calls, a batch at a time.

    draw(rng, k) -> (stage, rows, ctx) draws trial k as bare arrays: r rows to value at
    the stage (r fixed per stage) and the few numbers ctx that judge and witness need.
    values(stage, rows) maps a batch of rows, each flattened, to (B, n_atoms) values.
    judge(vals, ctxs) gets one stage's (trials, r, n_atoms) values and ctx list, in
    draw order, and flags each failing trial; witness(rows, ctx, vals) builds one
    failing trial's witness dict from its own (r, n_atoms) values.
    """

    draw: Callable[[np.random.Generator, int], tuple[int, np.ndarray, Any]]
    values: Callable[[int, np.ndarray], np.ndarray]
    judge: Callable[[np.ndarray, list], np.ndarray]
    witness: Callable[[np.ndarray, Any, np.ndarray], dict]


def _judged_batch(probe: TwoPhase, batch: list):
    """The number of failing trials in a drawn batch, and a thunk for the first one's
    witness: one ``values`` call per stage and slice, one judge call per stage."""
    failed = np.zeros(len(batch), dtype=bool)
    groups = []
    for stage in dict.fromkeys(s for s, _, _ in batch):
        mine = [i for i, (s, _, _) in enumerate(batch) if s == stage]
        rows = np.stack([batch[i][1] for i in mine])
        flat = rows.reshape(len(mine) * rows.shape[1], -1)
        step = max(1, LEAF_VALUES_PER_CALL // flat.shape[1])
        vals = np.concatenate([probe.values(stage, flat[j:j + step])
                               for j in range(0, len(flat), step)])
        vals = vals.reshape(len(mine), rows.shape[1], -1)
        failed[mine] = probe.judge(vals, [batch[i][2] for i in mine])
        groups.append((mine, vals))

    def witness():
        first = int(failed.argmax())
        mine, vals = next(g for g in groups if first in g[0])
        return probe.witness(*batch[first][1:], vals[mine.index(first)])

    return int(failed.sum()), witness


def _two_phase_outcomes(n: int, seed: int, key: int, probe: TwoPhase):
    batch, held = [], 0
    for k in range(n):
        batch.append(probe.draw(derived_rng(seed, key, k), k))
        held += batch[-1][1].size
        if held >= LEAF_VALUES_PER_CALL or k == n - 1:
            yield _judged_batch(probe, batch)
            batch, held = [], 0


def run_trials(rep: Report, name: str, n: int, seed: int, key: int,
               probe: Callable[[np.random.Generator, int], dict | None] | TwoPhase
               ) -> CheckResult:
    """Run n seeded trials of one property and add the outcome to rep.

    Trial k draws from derived_rng(seed, key, k), so a shorter run checks a prefix of
    a longer one.  A plain probe(rng, k) runs each trial whole and returns None or a
    witness dict.  A ``TwoPhase`` probe draws trials until their rows hold
    ``LEAF_VALUES_PER_CALL`` values (or the last trial is drawn), values the batch
    with one call per stage and slice, judges each stage's trials with one call, and
    asks only the first failing trial for its witness.  Either way the result counts
    the failures and keeps the first witness, as running the trials one by one would.
    """
    if isinstance(probe, TwoPhase):
        outcomes = _two_phase_outcomes(n, seed, key, probe)
    else:
        outcomes = ((int(w is not None), lambda w=w: w)
                    for w in (probe(derived_rng(seed, key, k), k) for k in range(n)))
    res = CheckResult(name, True, trials=n)
    for failures, witness in outcomes:
        if failures:
            res.passed, res.failures = False, res.failures + failures
            if res.witness is None:
                res.witness = witness()
    return rep.add(res)
