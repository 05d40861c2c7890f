"""Benchmark of the renyi-clt CLI on four seeded workloads.

Usage, from the repository root:

    python3 bench/run.py --workload symbolic-sweep --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: its jobs (CLI subcommands on
seed-generated JSON configs) run back to back through
``renyi_clt.harness.main`` in this process, and the job list repeats until
``--seconds`` is spent.  Before every job the ``renyi_clt`` modules are
imported afresh, so module-level caches start cold as in a new CLI process;
numpy and scipy stay loaded, and their import is measured in ``setup_s``.
Every output is checked against the closed-form oracles in ``oracles.py``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with spans around every layer (``tracing.py``), and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = "renyi_clt"
SETUP_REPEATS = 5

# printed with the end-to-end metrics but left out of the JSON result: they
# sit at rounding level or are zero by design (see README.md)
REPORTED_UNITS = {"lr_relerr": "rel", "coef_max_relerr": "rel", "error_rate": "ratio"}


def result_metrics(values: dict, section: str):
    """The JSON metrics object: every metric BENCHMARK.json declares in
    ``section``, with its declared unit."""
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)[section]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fresh_library():
    """Import renyi_clt anew from src/ and return its modules."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    harness = importlib.import_module(f"{PACKAGE}.harness")
    if not Path(harness.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"{PACKAGE} was imported from {harness.__file__}, not {SRC}")
    modules = ("numerics", "expansion", "distributions", "cumulants")
    return SimpleNamespace(
        harness=harness,
        **{m: importlib.import_module(f"{PACKAGE}.{m}") for m in modules},
    )


def run_job(job, lib, tracer=None):
    """One CLI invocation; returns (seconds, exit code, stdout, grids,
    expansions).  Grids and expansions are captured at the attributes the
    harness resolves, so they can be checked after the clock stops."""
    grids, expansions = [], []
    invert = lib.numerics.density_of_normalized_sum
    expand = lib.harness.entropy_expansion

    def capture_grid(spec, n, *args, **kwargs):
        grid = invert(spec, n, *args, **kwargs)
        grids.append((n, grid))
        return grid

    def capture_expansion(m, r, cumulants):
        result = expand(m, r, cumulants)
        expansions.append(((m, r, cumulants), result))
        return result

    lib.numerics.density_of_normalized_sum = capture_grid
    lib.harness.entropy_expansion = capture_expansion
    out = io.StringIO()
    argv = [job.command, "--config", str(job.path)]
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = lib.harness.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed job, not a crashed benchmark
        traceback.print_exc()
        rc = 1
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    return elapsed, rc, out.getvalue(), grids, expansions


def run_passes(jobs, seconds, checker, traced=False):
    """Repeat the job list until ``seconds`` are spent (at least once).
    Returns the job-list wall time of each pass and, when traced, each
    pass's layer totals."""
    import tracing

    walls, totals = [], []
    deadline = time.perf_counter() + seconds
    while True:
        pass_start = time.perf_counter()
        tracer = tracing.Tracer() if traced else None
        layer = tracing.LayerTotals() if traced else None
        wall = 0.0
        for job in jobs:
            lib = fresh_library()
            if traced:
                tracing.install(tracer)
            elapsed, rc, out, grids, expansions = run_job(job, lib, tracer)
            wall += elapsed
            if traced:
                layer.add(tracer.take())
            checker.check_job(job, rc, out, grids, expansions, lib)
            # the capture closures live on the old package, which only the
            # cyclic collector frees: drop the grids now and collect, so the
            # next job starts from the memory a fresh process would have
            grids.clear()
            expansions.clear()
            del lib
            gc.collect()
        walls.append(wall)
        totals.append(layer)
        now = time.perf_counter()
        spent = now - pass_start
        if len(walls) == 1:
            # the first pass also fills the oracle caches: a one-off cost
            # that counts neither against the measuring time nor towards
            # the expected length of the next pass
            deadline += spent - wall
            spent = wall
        if now + spent > deadline:
            return walls, totals


def measure_setup(workdir: Path, checker):
    """Median wall time of a fresh interpreter running the CLI on a trivial
    config: the import of renyi_clt (numpy, scipy) plus harness start-up."""
    config = workdir / "setup.json"
    config.write_text(json.dumps({"distribution": "gaussian", "r_values": [2], "moment_order": 4}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", f"{PACKAGE}.harness", "coeffs", "--config", str(config)]
    argv += ["--out", str(workdir / "setup.csv")]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, timeout=120)
        times.append(time.perf_counter() - start)
        checker.record(proc.returncode == 0, f"setup run: {proc.stderr.decode()[-300:]}")
    return statistics.median(times)


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def end_to_end(args, jobs, workdir, checker):
    setup = measure_setup(workdir, checker)
    walls, _ = run_passes(jobs, args.seconds, checker)
    values = {
        "setup_s": setup,
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "oracle_max_err": checker.oracle_max_err,
    }
    reported = {
        "lr_relerr": checker.lr_relerr,
        "coef_max_relerr": checker.coef_max_relerr,
        "error_rate": checker.failed / max(checker.attempted, 1),
    }
    metrics = result_metrics(values, "end_to_end")
    print(f"passes: {len(walls)}; job-list wall times (s): {[round(w, 4) for w in walls]}")
    for name, m in metrics.items():
        print(f"  {name:<16} {m['value']:<24.6g} {m['unit']}")
    for name, value in reported.items():
        print(f"  {name:<16} {value:<24.6g} {REPORTED_UNITS[name]}   (reported only)")
    return metrics


def per_layer(args, jobs, checker):
    plain, _ = run_passes(jobs, args.seconds / 2, checker)
    traced, totals = run_passes(jobs, args.seconds / 2, checker, traced=True)
    ratio = checker.expansion_calls / checker.expansion_pairs if checker.expansion_pairs else 0.0
    per_pass = [t.metrics(ratio) for t in totals]
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    values["trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    print(f"untraced passes: {len(plain)}, traced passes: {len(traced)}")
    periods = Counter(round(p, 3) for p in totals[-1].grid_periods)
    print("folded periods per grid: " + ", ".join(f"{p:g} x{k}" for p, k in periods.items()))
    layers = {name[: -len(".self_s")]: v for name, v in values.items() if name.endswith(".self_s")}
    self_total = sum(layers.values())
    print("self-time shares of the traced job list:")
    for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
        share = seconds / self_total if self_total else 0.0
        print(f"  {layer:<14} {share:7.1%}  {seconds:.4f} s")
    metrics = result_metrics(values, "per_layer")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from checks import Checker

    fresh_library()  # fails here, before any output, if the package is broken
    checker = Checker()
    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        jobs, drawn = workloads.build(args.workload, args.seed, workdir)
        print(f"renyi-clt benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"inputs: {json.dumps(drawn)}")
        print(f"environment: {json.dumps(environment())}")
        if args.workload == "symbolic-sweep":
            mixture = next(j for j in jobs if j.label == "mixture")
            checker.cross_check(mixture, fresh_library())
        if args.trace:
            metrics = per_layer(args, jobs, checker)
        else:
            metrics = end_to_end(args, jobs, workdir, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in checker.messages:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
