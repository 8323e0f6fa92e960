"""What importing the package loads."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_does_not_load_numpy():
    # numpy is imported inside the float branches that use it, so
    # exact-mode poly, sweep and moments never pay for it
    code = "import biorth, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=str(SRC)))
