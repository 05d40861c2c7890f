"""The exact route runs without numpy: ``import renyi_clt`` and
``renyi-clt coeffs`` leave numpy unexecuted, and the first numeric call
loads it.  Each check runs in a fresh interpreter, since this one has numpy
loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import renyi_clt as rc

# numpy._core, or any other submodule, is there only once numpy has run
_LOADED = "sorted(m for m in sys.modules if m.startswith('numpy.'))"


def _run(code, *args, cwd):
    # the child process finds the package under test without an install
    src = str(Path(rc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "law",
    [
        {"distribution": "uniform"},
        {"distribution": "gamma", "alpha": 4},
        {"distribution": "two_sided_exponential"},
        {"distribution": "gaussian_mixture", "weights": [0.25, 0.75],
         "means": [1.5, -0.5], "sigmas": [0.5, 0.5]},
        {"distribution": "gaussian"},
    ],
    ids=lambda law: law["distribution"],
)
def test_coeffs_leaves_numpy_unloaded(tmp_path, law):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**law, "r_values": [2, 2.5, 1, "inf"], "moment_order": 8}))
    code = (
        "import json, sys\n"
        "from renyi_clt.harness import main\n"
        "exit_code = main(['coeffs', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        f"print(json.dumps([exit_code, 'numpy._core' in sys.modules, {_LOADED}]))\n"
    )
    exit_code, core, loaded = _run(code, str(config), str(tmp_path / "o.csv"), cwd=tmp_path)
    assert exit_code == 0 and not core and loaded == []
    assert len((tmp_path / "o.csv").read_text().splitlines()) == 5


def test_first_numeric_call_loads_numpy(tmp_path):
    code = (
        "import json, sys\n"
        "import renyi_clt as rc\n"
        f"before = {_LOADED}\n"
        "grid = rc.density_of_normalized_sum(rc.Uniform(), 8, npoints=2**14, extent=12.0)\n"
        "mass = float(grid.values.sum() * grid.h)\n"
        f"print(json.dumps([before, 'numpy._core' in sys.modules, type(grid).__name__, mass]))\n"
    )
    before, core, kind, mass = _run(code, cwd=tmp_path)
    assert before == [] and core
    assert kind == "DensityGrid" and abs(mass - 1.0) < 1e-9
