"""What importing the package loads."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_without_numpy(code):
    subprocess.run([sys.executable, "-c",
                    code + "; import sys; assert 'numpy' not in sys.modules"],
                   check=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
                   stdout=subprocess.DEVNULL)


def test_import_does_not_load_numpy():
    # numpy is imported only where np.roots runs, so exact-mode poly,
    # sweep and moments never pay for it
    run_without_numpy("import biorth")


def test_float_poly_does_not_load_numpy():
    # the float mixed-basis solve, and the existence determinant when a
    # route fails, run in the package's own elimination
    run_without_numpy(
        "from biorth import cli; assert cli.main(['poly', '--family', "
        "'jacobi', '--mu', '1/3,2/3,5/2', '--mode', 'float']) == 0")
