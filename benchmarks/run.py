"""Run one perflat benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout: the library is imported from
``src/`` next to this directory, in one single-threaded process.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are for people.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("roundtrip", "audit", "duality", "wide")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> dict:
    """One thread everywhere, and the library's default serial path.

    Must run before numpy is imported, which reads these variables once.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("PERFLAT_THREADS", None)
    return {var: os.environ[var] for var in THREAD_VARS} | {"PERFLAT_THREADS": None}


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a nonnegative integer")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_threads()
    src = ROOT / "src"
    if not (src / "perflat" / "__init__.py").is_file():
        print(f"error: no perflat sources at {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy
    import perflat
    if Path(perflat.__file__).resolve().parent != (src / "perflat").resolve():
        print(f"error: imported perflat from {perflat.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import harness
    res = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))

    env = {"git_sha": git_sha(ROOT), "python": platform.python_version(),
           "numpy": numpy.__version__, "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), "workload": args.workload,
           "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "threads": threads}
    print("env " + json.dumps(env, sort_keys=True))
    for line in res.notes:
        print(line)
    for i, kind, reason in res.failures[:5]:
        print(f"failed op {i} ({kind}): {reason}", file=sys.stderr)
    for name, (value, unit) in res.metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in res.metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
