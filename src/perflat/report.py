"""Check results and reports shared by the axiom, family, and consistency checkers,
and the seeded trial runner behind the randomized ones."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

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


def run_trials(rep: Report, name: str, n: int, seed: int, key: int,
               probe: Callable[[np.random.Generator, int], dict | None]) -> CheckResult:
    """Run n seeded trials of one property and add the outcome to rep.

    Trial k calls probe(derived_rng(seed, key, k), k), so a shorter run checks a prefix
    of a longer one.  The probe returns None when the trial passes and a witness dict
    when it fails; the result counts the failures and keeps the first witness.
    """
    res = CheckResult(name, True, trials=n)
    for k in range(n):
        witness = probe(derived_rng(seed, key, k), k)
        if witness is not None:
            res.passed, res.failures = False, res.failures + 1
            if res.witness is None:
                res.witness = witness
    return rep.add(res)
