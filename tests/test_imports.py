"""Cold-start guards: the package and its light commands never load scipy.

Each check runs in a fresh interpreter with PYTHONPATH=src, so modules
that pytest or other tests have already imported cannot hide an import.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

NO_SCIPY = ("loaded = sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.'))\n"
            "assert not loaded, loaded\n")

#: One classify per classify-zoo template of the benchmark; the diagonal
#: and rank-one power:-2 kernels reach PowerLaw.abs_sum_limit.
CLASSIFY_ZOO = [
    ["--kernel", "stable-spline", "--alpha", "0.9"],
    ["--kernel", "gaussian", "--width", "2.0"],
    ["--kernel", "translation-invariant", "--h", "geometric:0.5"],
    ["--kernel", "rank-one", "--v", "power:-0.75"],
    ["--kernel", "rank-one", "--v", "power:-2"],
    ["--kernel", "diagonal", "--g", "power:-1"],
    ["--kernel", "diagonal", "--g", "power:-2"],
    ["--kernel", "mercer", "--basis", "laguerre", "--count", "20",
     "--window", "400", "--pole", "0.5", "--eigenvalues", "power:-4"],
    ["--kernel", "mercer", "--basis", "random", "--count", "32",
     "--window", "128", "--eigenvalues", "power:-4"],
]


def _run(code, cwd=None):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True)


def test_package_and_cli_import_do_not_load_scipy():
    proc = _run("import sys\nimport stablerkhs\nimport stablerkhs.cli\n"
                + NO_SCIPY)
    assert proc.returncode == 0, proc.stderr


def test_classify_synth_and_spectrum_do_not_load_scipy(tmp_path):
    runs = [["classify", *argv, "--seed", "1"] for argv in CLASSIFY_ZOO]
    runs.append(["synth", "--basis", "laguerre", "--count", "20",
                 "--window", "400", "--pole", "0.5",
                 "--eigenvalues", "power:-4", "--bound", "100"])
    runs.append(["spectrum", "--kernel", "stable-spline", "--grid",
                 "20:60:20", "--track", "1-3", "--output-dir",
                 str(tmp_path / "s")])
    code = ("import contextlib, io, sys\n"
            "from stablerkhs.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n" + NO_SCIPY)
    proc = _run(code)
    assert proc.returncode == 0, proc.stderr


def test_identify_loads_scipy_at_its_first_solve_and_succeeds(tmp_path):
    code = ("import contextlib, io, sys\n"
            "from stablerkhs.cli import main\n" + NO_SCIPY
            + "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['identify', '--seed', '3', '--n', '40',\n"
            "                 '--window', '60', '--output-dir', 'out'])\n"
            "assert code == 0, code\n"
            "assert 'scipy.linalg' in sys.modules\n")
    proc = _run(code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
