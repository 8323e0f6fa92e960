"""What the benchmark in bench/ needs from the program.

The benchmark checks every answer against references it computes
itself and times layers by wrapping biorth functions by name.  A
program change that breaks either would only show when the benchmark
runs; these tests show it with the rest of the suite.
"""
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_answer_checks_self_test_passes():
    pytest.importorskip("sympy")
    pytest.importorskip("mpmath")
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300,
                          cwd=BENCH.parent,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, name in tracing.SPANNED + tracing.COUNTED:
        assert callable(getattr(importlib.import_module("biorth." + module),
                                name, None)), f"biorth.{module}.{name}"
    from biorth.families import MqfFamily
    assert callable(MqfFamily.quadruple)
