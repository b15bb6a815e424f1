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


# Leaf values that one batch of two-phase trials may hold: trials are drawn until their
# rows reach this many, and each ``values`` call gets at most this many (one row at
# least).  2^18 floats are 2 MB, so a batch on 2^14 leaves is 16 rows, not the
# 500 x 8 x 16384 floats of a whole property's trials.
_TRIAL_LEAF_VALUES = 1 << 18


@dataclass(frozen=True)
class TwoPhase:
    """A trial probe in two phases, so that many trials share one ``values`` call.

    draw(rng, k) -> (stage, rows, ctx) draws trial k: the leaf rows to evaluate, as a
    (r, n_leaves) array, the stage to evaluate them at, and whatever the judge needs.
    values(stage, rows) maps a (B, n_leaves) batch to its (B, n_atoms) values, row for
    row.  judge(k, ctx, vals) gets the values of the trial's own rows, in draw order,
    and returns None when the trial passes or a witness dict when it fails.
    """

    draw: Callable[[np.random.Generator, int], tuple[int, np.ndarray, Any]]
    values: Callable[[int, np.ndarray], np.ndarray]
    judge: Callable[[int, Any, np.ndarray], dict | None]


def _staged_values(values, batch: list) -> list:
    """The values of each trial's rows in batch, one ``values`` call per stage and
    slice of at most ``_TRIAL_LEAF_VALUES`` leaf values."""
    out = [None] * len(batch)
    for stage in dict.fromkeys(s for s, _, _ in batch):
        mine = [i for i, (s, _, _) in enumerate(batch) if s == stage]
        rows = np.concatenate([batch[i][1] for i in mine])
        step = max(1, _TRIAL_LEAF_VALUES // rows.shape[1])
        vals = np.concatenate([values(stage, rows[j:j + step])
                               for j in range(0, len(rows), step)])
        ends = np.cumsum([len(batch[i][1]) for i in mine])
        for i, v in zip(mine, np.split(vals, ends[:-1])):
            out[i] = v
    return out


def _two_phase_witnesses(n: int, seed: int, key: int, probe: TwoPhase):
    batch, held = [], 0
    for k in range(n):
        batch.append(probe.draw(derived_rng(seed, key, k), k))
        held += batch[-1][1].size
        if held >= _TRIAL_LEAF_VALUES or k == n - 1:
            start = k + 1 - len(batch)
            for j, vals in enumerate(_staged_values(probe.values, batch)):
                yield probe.judge(start + j, batch[j][2], vals)
            batch, held = [], 0


def run_trials(rep: Report, name: str, n: int, seed: int, key: int,
               probe: Callable[[np.random.Generator, int], dict | None] | TwoPhase
               ) -> CheckResult:
    """Run n seeded trials of one property and add the outcome to rep.

    Trial k draws from derived_rng(seed, key, k), so a shorter run checks a prefix of
    a longer one.  A plain probe(rng, k) runs each trial whole.  A ``TwoPhase`` probe
    draws trials until their rows hold ``_TRIAL_LEAF_VALUES`` leaf values (or the
    last trial is drawn), evaluates the batch, judges its trials in order, and goes
    on with the next batch.  Either way a trial returns None when it passes and a
    witness dict when it fails; the result counts the failures and keeps the first
    witness.
    """
    if isinstance(probe, TwoPhase):
        witnesses = _two_phase_witnesses(n, seed, key, probe)
    else:
        witnesses = (probe(derived_rng(seed, key, k), k) for k in range(n))
    res = CheckResult(name, True, trials=n)
    for witness in witnesses:
        if witness is not None:
            res.passed, res.failures = False, res.failures + 1
            if res.witness is None:
                res.witness = witness
    return rep.add(res)
