"""Closed-loop timing of one workload: set-up, watchdog, correctness gate, metrics.

One client issues the next op when the previous one returns.  Each op runs in
the main thread under a ``setitimer`` watchdog, so an op that never returns
becomes a counted failure instead of hanging the run.  Only the library call
is timed; the gate that checks its output runs outside the timed region.

The host is shared and its speed swings by up to 1.9x over seconds to
minutes.  After each op of an untraced run the harness times ``probe``, a
fixed computation outside perflat, and scales every end-to-end time by
``PROBE_REF_S`` over the run's median probe: times read as on a host where
the probe takes ``PROBE_REF_S``.  The ops slow down with the probe, so the
scaled times of two runs compare even when the host changed speed between
them.  The wall times are printed beside them.
"""

from __future__ import annotations

import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import perflat as pf
from tracer import Tracer, per_layer_metrics
from workloads import WORKLOADS

OP_TIMEOUT_S = 20.0
SETUP_REPS = 3
IMPORT_REPS = 3  # per set-up; one import spreads by 0.2 between calls
PROBE_REF_S = 4.0e-4  # a typical median probe on the baseline machine
_PROBE_X = np.random.default_rng(0).uniform(-4.0, 4.0, 1 << 14)


class OpTimeout(BaseException):
    """Raised by the watchdog; a BaseException so library code cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout


def probe() -> float:
    """Wall time of a fixed computation that does not use perflat.

    An interpreter loop and a numpy sort and exp over 128 KiB: the two kinds
    of work the ops do, about 0.2 ms each.
    """
    t0 = time.perf_counter()
    acc = 0
    for k in range(2000):
        acc += k * k
    np.exp(np.sort(_PROBE_X)).sum()
    return time.perf_counter() - t0


@dataclass
class Phase:
    durations: list = field(default_factory=list)  # seconds per attempted op
    failures: list = field(default_factory=list)   # (op index, kind, reason)
    probes: list = field(default_factory=list)     # probe() after each untraced op
    window: tuple | None = None                     # tracer snapshot after count_ops

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def record(self, i: int, op, duration: float, reason: "str | None"):
        self.durations.append(duration)
        if reason is not None:
            self.failures.append((i, op.kind, reason))

    def extend(self, other: "Phase"):
        self.durations += other.durations
        self.failures += other.failures
        self.probes += other.probes
        self.window = self.window or other.window


def run_phase(ops, seconds: float, start: int = 0, tracer: Tracer | None = None,
              count_ops: int = 0) -> tuple[Phase, Phase | None]:
    """Issue ops in order from ``start`` until ``seconds`` have passed and
    ``count_ops`` are done.

    With a ``tracer``, each op runs twice back to back, once untraced and once
    traced, the order alternating from op to op, so both sides of the tracing
    overhead see the same machine state.  Returns the untraced and the traced
    phase; the traced one is ``None`` without a tracer.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        return _issue(ops, seconds, start, tracer, count_ops)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _issue(ops, seconds, start, tracer, count_ops):
    plain = Phase()
    traced = None if tracer is None else Phase()
    deadline = time.perf_counter() + seconds
    i = start
    while i - start < count_ops or time.perf_counter() < deadline:
        op = ops[i % len(ops)]
        if tracer is None:
            plain.record(i, op, *_attempt(op))
            plain.probes.append(probe())
        else:
            for on in ((False, True) if i % 2 == 0 else (True, False)):
                if not on:
                    plain.record(i, op, *_attempt(op))
                    continue
                tracer.install()
                try:
                    traced.record(i, op, *_attempt(op, tracer))
                finally:
                    tracer.uninstall()
            if i - start + 1 == count_ops:
                traced.window = tracer.snapshot()
        i += 1
    return plain, traced


def _attempt(op, tracer: Tracer | None = None):
    """Run one op under the watchdog; its duration, and why it failed or None."""
    reason = None
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    t0 = time.perf_counter()
    try:
        try:
            out = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    except OpTimeout:
        reason = f"no result within {OP_TIMEOUT_S:g} s"
    except Exception as e:  # any raise is a failed op, never a crashed run
        reason = f"{type(e).__name__}: {e}"
    duration = time.perf_counter() - t0
    if reason is None:
        if tracer is not None:
            tracer.active = False
        try:
            reason = op.check(out)
        except Exception as e:
            reason = f"check raised {type(e).__name__}: {e}"
        finally:
            if tracer is not None:
                tracer.active = True
    return duration, reason


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


@dataclass
class Result:
    metrics: dict    # name -> (value, unit)
    attempted: int
    failed: int
    failures: list
    notes: list      # human-readable lines


def import_s() -> float:
    """Wall time of a fresh interpreter that imports perflat and exits."""
    env = dict(os.environ, PYTHONPATH=str(Path(pf.__file__).resolve().parents[1]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import perflat"], env=env, check=True,
                   timeout=120)
    return time.perf_counter() - t0


def run(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    """Time ``workload`` in SETUP_REPS segments that share ``seconds``.

    Each segment starts with a whole set-up: fresh interpreters import
    perflat, IMPORT_REPS times, then the inputs are built from the seed.
    The set-up wall time is the median import plus the median build.
    Spreading the set-ups over the run lets them see the
    machine in different states, as the ops do.  The ops go on across
    segments from where the previous segment stopped.
    """
    build = WORKLOADS[workload]
    setup_tracer = Tracer() if trace else None
    op_tracer = Tracer() if trace else None
    plain, traced = Phase(), Phase()
    imports, builds, notes = [], [], []
    for k in range(SETUP_REPS):
        wl = None  # free the previous build first, so peak memory is one build
        imp = [import_s() for _ in range(IMPORT_REPS)]
        if setup_tracer is not None:
            setup_tracer.install()
        try:
            t0 = time.perf_counter()
            wl = build(seed)
            built = time.perf_counter() - t0
        finally:
            if setup_tracer is not None:
                setup_tracer.uninstall()
        imports += imp
        builds.append(built)
        notes.append(f"set-up {k + 1}: import {' '.join(f'{v:.4f}' for v in imp)} s, "
                     f"build {built:.4f} s")
        p, t = run_phase(wl.ops, seconds / SETUP_REPS, plain.attempted, op_tracer,
                         count_ops=wl.count_ops if k == 0 else 0)
        plain.extend(p)
        if t is not None:
            traced.extend(t)
    setup_wall = statistics.median(imports) + statistics.median(builds)

    if not trace:
        return _end_to_end(plain, setup_wall, notes)
    traced_s = sum(traced.durations)
    timed_trace = op_tracer.take()
    metrics = per_layer_metrics(setup_tracer.take(), SETUP_REPS,
                                traced.window, wl.count_ops,
                                timed_trace, traced.attempted, traced_s,
                                sum(plain.durations) / traced_s)
    failures = plain.failures + traced.failures
    notes.append(f"{plain.attempted} ops untraced and the same {traced.attempted} "
                 f"traced, in alternating order; counts over the first {wl.count_ops}")
    notes += _span_table(timed_trace[0])
    return Result(metrics, plain.attempted + traced.attempted, len(failures),
                  failures, notes)


def _end_to_end(phase: Phase, setup_wall: float, notes: list) -> Result:
    """Metrics from wall times scaled to the probe's reference speed."""
    probe_s = statistics.median(phase.probes)
    scale = PROBE_REF_S / probe_s
    wall = np.asarray(phase.durations)
    d = wall * scale
    failed = len(phase.failures)
    p90 = float(np.percentile(d, 90))
    tail = int(np.sum(d > p90))
    notes.append(f"ops: {phase.attempted} attempted, {failed} failed, "
                 f"{tail} samples beyond p90")
    if tail < 10:
        notes.append("warning: fewer than 10 samples beyond p90; p90 is not resolved")
    notes.append(f"probe median {1e3 * probe_s:.4f} ms over {len(phase.probes)}, "
                 f"so times are scaled by {scale:.4f}")
    notes.append(f"wall: setup_s {setup_wall:.4f} s, ops_per_s "
                 f"{(phase.attempted - failed) / float(wall.sum()):.4f} 1/s, op_p50_ms "
                 f"{1e3 * float(np.percentile(wall, 50)):.3f} ms, op_p90_ms "
                 f"{1e3 * float(np.percentile(wall, 90)):.3f} ms")
    metrics = {
        "setup_s": (setup_wall * scale, "s"),
        "ops_per_s": ((phase.attempted - failed) / float(d.sum()), "1/s"),
        "op_p50_ms": (1e3 * float(np.percentile(d, 50)), "ms"),
        "op_p90_ms": (1e3 * p90, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes.append(f"failed_frac {failed / phase.attempted:.6g} ratio")
    return Result(metrics, phase.attempted, failed, phase.failures, notes)


def _span_table(stats: dict) -> list:
    rows = sorted(stats.items(), key=lambda kv: -kv[1].self_s)
    lines = [f"span {'name':<40} {'calls':>9} {'incl_s':>10} {'self_s':>10} {'evals':>9}"]
    for name, st in rows:
        lines.append(f"span {name:<40} {st.calls:>9} {st.incl_s:>10.4f} "
                     f"{st.self_s:>10.4f} {st.evals:>9}")
    return lines
