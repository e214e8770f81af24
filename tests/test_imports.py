import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_does_not_load_scipy_signal():
    # scipy.signal alone costs about 1 s of cold start; no module needs it.
    code = "import stablerkhs.cli, sys; assert 'scipy.signal' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
