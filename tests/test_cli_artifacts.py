"""The CLI's ``--out`` artifacts against pinned text.

``tests/fixtures/cli_artifacts.json`` holds the text of each command's artifact.  The
commands run from a temporary working directory with relative file names, because
the config block records paths as given.  Regenerate the fixture only for a
deliberate artifact change, with

    PYTHONPATH=src python tests/test_cli_artifacts.py
"""
import json
import os
import tempfile
from pathlib import Path

import pytest

from perflat import (DividendProcess, ExponentialUtilityMeasure, GainLossRatio, TVar,
                     XVar, binomial_tree, coin2, lpm_ratio)
from perflat.cli import main
from perflat.lattice import dump_json

FIXTURE = Path(__file__).parent / "fixtures" / "cli_artifacts.json"

# artifact name -> the command line that writes it with --out
COMMANDS = {
    "evaluate.json": ["evaluate", "--measure", "glr.json", "--space", "coin2.json",
                      "--var", "x.json", "--t", "0"],
    "induce_glr.json": ["induce", "--measure", "glr.json", "--space", "coin2.json",
                        "--var", "x.json", "--t", "0", "--z", "2"],
    "induce_exp.json": ["induce", "--measure", "exp.json", "--space", "tree.json",
                        "--var", "y.json", "--t", "1", "--z", "0.5"],
    "curve.json": ["curve", "--measure", "glr.json", "--space", "coin2.json",
                   "--var", "x.json", "--t", "0", "--z-list", "0.5,1,2",
                   "--format", "json"],
    "curve.csv": ["curve", "--measure", "exp.json", "--space", "tree.json",
                  "--var", "y.json", "--t", "1", "--z-min", "-2", "--z-max", "0.9",
                  "--z-steps", "5", "--format", "csv"],
    "reconstruct.json": ["reconstruct", "--measure", "exp.json", "--space",
                         "tree.json", "--var", "y.json", "--t", "1"],
    "dual.json": ["dual", "--space", "coin2.json", "--var", "x.json", "--t", "0",
                  "--z", "1"],
    "axioms.json": ["check-axioms", "--measure", "lpm.json", "--space", "tree.json",
                    "--t", "1", "--trials", "20", "--scale"],
    "consistency.json": ["check-consistency", "--measure", "lpm.json", "--space",
                         "tree.json", "--trials", "40", "--witness-out", "w.json"],
    "lift.json": ["lift", "--measure", "glr.json", "--space", "coin2.json",
                  "--dividend", "stream.json", "--t", "0", "--check", "20"],
    "paper_demo.json": ["paper-demo"],
}


def _write_inputs(where: Path) -> None:
    space, tree = coin2(), binomial_tree(2)
    inputs = {
        "coin2.json": space.to_json(),
        "tree.json": tree.to_json(),
        "glr.json": GainLossRatio().to_json(),
        "exp.json": ExponentialUtilityMeasure(1.0).to_json(),
        "lpm.json": lpm_ratio(2.0).to_json(),
        "x.json": XVar(space, [3.0, -1.0]).to_json(),
        "y.json": XVar(tree, [2.0, -0.5, 1.5, -3.0]).to_json(),
        "stream.json": DividendProcess(
            space, {0: 1.0, 1: TVar(space, 1, [2.0, -2.0])}).to_json(),
    }
    for name, obj in inputs.items():
        dump_json(obj, where / name)


def cli_artifacts() -> dict:
    """The text of each command's ``--out`` file, by artifact name."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            os.chdir(tmp)
            _write_inputs(Path(tmp))
            out = {}
            for name, argv in COMMANDS.items():
                code = main([*argv, "--out", name])
                assert code == 0, (name, code)
                out[name] = Path(name).read_text()
        finally:
            os.chdir(here)
    return out


@pytest.fixture(scope="module")
def produced():
    return cli_artifacts()


@pytest.mark.parametrize("name", list(COMMANDS))
def test_artifact_matches_the_fixture(name, produced):
    assert produced[name] == json.loads(FIXTURE.read_text())[name]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(cli_artifacts(), indent=1) + "\n")
