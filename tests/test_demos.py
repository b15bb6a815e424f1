"""Each demo's standard output against pinned text.

``tests/fixtures/demo_output.json`` holds what every script in ``demos/`` prints,
run in a subprocess from the repository root with ``PYTHONPATH=src``; the demos are
deterministic.  Regenerate the fixture only for a deliberate change to a demo's
output, with

    PYTHONPATH=src python tests/test_demos.py
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "demo_output.json"
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))


def demo_output(name: str) -> str:
    """The demo's stdout; a demo that fails or warns fails here."""
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / name)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.mark.parametrize("name", DEMOS)
def test_demo_prints_the_fixture(name):
    assert demo_output(name) == json.loads(FIXTURE.read_text())[name]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({name: demo_output(name) for name in DEMOS},
                                  indent=1) + "\n")
