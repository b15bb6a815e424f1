"""Self-test of the benchmark itself.

    python3 benchmarks/selftest.py

Checks that the correctness gate is live (a measure perturbed by 1e-3 makes
ops fail on every workload), that two traced runs at one seed report the same
counts, that each run prints the metrics BENCHMARK.json names, and that the
benchmark refuses to run without the library's sources.  Exits 0 when all
checks pass.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import perflat as pf  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402

SEED = 7
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("calls/op", "count")


def perturbed(m):
    """The measure shifted up by 1e-3: each route through it is off by that much."""
    return pf.CustomMeasure(lambda space, t, v: m.values(space, t, v) + 1e-3,
                            m.z_d, m.z_u, kind=m.kind)


def run_cli(workload: str, trace: int, seconds: float = 2.0, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path("benchmarks") / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def last_json(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_gate_is_live(name: str):
    wl = workloads.WORKLOADS[name](SEED, tamper=perturbed)
    phase, _ = harness.run_phase(wl.ops, 0.0, count_ops=wl.count_ops)
    frac = len(phase.failures) / phase.attempted
    assert frac > 0, f"{name}: a measure off by 1e-3 passed the gate on every op"
    print(f"ok   {name}: perturbed measure fails {len(phase.failures)}/"
          f"{phase.attempted} ops")


def check_shipped_pass(name: str, out: dict):
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, \
        f"{name}: shipped measures failed the gate: {out}"


def check_counts_repeat(name: str):
    first, second = (last_json(run_cli(name, trace=1)) for _ in range(2))
    for out in (first, second):
        check_shipped_pass(name, out)
        assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}, \
            f"{name}: traced metrics differ from BENCHMARK.json per_layer"
    counts = {k: v["value"] for k, v in first["metrics"].items()
              if v["unit"] in COUNT_UNITS or k.endswith("accepted_ratio")}
    again = {k: second["metrics"][k]["value"] for k in counts}
    diff = {k: (counts[k], again[k]) for k in counts if counts[k] != again[k]}
    assert not diff, f"{name}: traced counts differ between runs: {diff}"
    print(f"ok   {name}: {len(counts)} traced counts repeat exactly")


def check_end_to_end(name: str):
    out = last_json(run_cli(name, trace=0))
    check_shipped_pass(name, out)
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}, \
        f"{name}: end-to-end metrics differ from BENCHMARK.json"
    assert all(v["value"] > 0 for v in out["metrics"].values()), out["metrics"]
    print(f"ok   {name}: end-to-end metrics present, {out['attempted']} ops, none failed")


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__", "tmp*"))
        proc = run_cli("roundtrip", trace=0, cwd=bare)
    assert proc.returncode != 0, "ran without the library sources"
    assert not proc.stdout.strip(), "printed a result without the library sources"
    print("ok   refuses to run without src/perflat")


def main() -> int:
    for name in workloads.WORKLOADS:
        check_gate_is_live(name)
    for name in workloads.WORKLOADS:
        check_end_to_end(name)
        check_counts_repeat(name)
    check_refuses_without_sources()
    print("all benchmark self-checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
