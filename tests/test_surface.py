"""The public surface: every export resolves, the attributes the benchmark
looks up exist, and a traced benchmark run still credits its cf points."""

import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import renyi_clt as rc

MODULES = [info.name for info in pkgutil.iter_modules(rc.__path__)]
# looked up on the library by bench/run.py and bench/checks.py
BENCH_ATTRIBUTES = """expansion.a1_closed_form expansion.a2_from_integrals
expansion.b_coefficient expansion.sign_change_threshold expansion.monotonicity_prediction
expansion.entropy_expansion harness.entropy_expansion harness.main
harness.ExperimentConfig.build_spec numerics.density_of_normalized_sum numerics.lr_integral
cumulants.standard_cumulants exactpoly.Poly.__mul__ edgeworth.EdgeworthModel.density""".split()


def test_exports_resolve():
    for name in MODULES:
        module = importlib.import_module(f"renyi_clt.{name}")
        assert [a for a in module.__all__ if not hasattr(module, a)] == [], name
    for name, obj in vars(rc).items():
        home = getattr(obj, "__module__", None) or ""
        if not name.startswith("_") and home.startswith("renyi_clt."):
            assert name in sys.modules[home].__all__, name
    harness = importlib.import_module("renyi_clt.harness")
    assert "gaussint" not in MODULES and not hasattr(harness, "richardson")
    for name in ("gauss_power_integral gauss_power_moment hermite_integral leading_term "
                 "LeadingTerm characteristic_power smoothing_diagnostic SmoothingResult "
                 "tabulate_density kl_to_gaussian").split():
        assert not hasattr(rc, name) and not hasattr(rc.numerics, name), name
    # one way to make a grid, and one CSV writer: the harness's
    assert not hasattr(rc.DensityGrid, "write_csv") and not hasattr(rc.DensityGrid, "_of_band")
    with pytest.raises(TypeError):
        rc.GridDensity([0.0] * 8, [0.0] * 8, n_min=1)


@pytest.mark.parametrize("path", BENCH_ATTRIBUTES)
def test_bench_attribute_exists(path):
    module, *attrs = path.split(".")
    obj = importlib.import_module(f"renyi_clt.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)


def test_bench_grid_attributes_exist():
    grid = rc.density_of_normalized_sum(rc.GaussianMixture.standard_normal(), 1, npoints=1024)
    assert grid.values.shape == (1024,) and isinstance(grid.x0 + grid.h, float)


def test_traced_tabulated_benchmark_counts_folds():
    # a public function between the density inversion and the cf would take
    # the credit for the cf points, and the fold counts would read 0
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tabulated-law", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=Path(__file__).resolve().parent.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["metrics"]["numerics.grids"]["value"] == 2
    assert result["metrics"]["numerics.fold_periods_total"]["value"] == 2
