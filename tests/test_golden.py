"""Byte-for-byte CLI goldens for the node route and the moment table.

The files under tests/golden/ were produced by the CLI before the
moment table was shared between consumers; every command here must
keep reproducing them exactly, float output included.
"""
import json
from pathlib import Path

import pytest

from biorth.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

STEPS_CONFIG = {"name": "steps", "kind": "polynomial",
                "basis": "pochhammer-3", "a": ["1", "-1"], "b": ["1"],
                "c": ["1"], "d": ["3", "-1"], "support": "(0,1)"}
STEPS_MU = "1/2,1,3/2,2,7/3,3"


@pytest.fixture
def steps_path(tmp_path):
    path = tmp_path / "steps.json"
    path.write_text(json.dumps(STEPS_CONFIG))
    return str(path)


@pytest.mark.parametrize("golden, argv", [
    ("poly_steps_exact.json", ["poly", "--mu", STEPS_MU]),
    ("poly_steps_dd_float.json",
     ["poly", "--mu", STEPS_MU, "--path", "divided-difference",
      "--mode", "float"]),
    ("sweep_steps.csv", ["sweep", "--mu", STEPS_MU, "--output", "csv"]),
])
def test_steps_golden(golden, argv, steps_path, capsys):
    code = main(argv + ["--family", steps_path])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_moments_float_power_weight_golden(capsys):
    code = main(["moments", "--family", "power-weight", "--mu", "3/2,7/3,5",
                 "--n", "20", "--mode", "float"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / "moments_power_weight_float.json").read_text()
