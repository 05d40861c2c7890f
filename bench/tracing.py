"""Spans around the library's layers, installed from outside the library.

A traced job wraps every public function of every ``renyi_clt`` module at
each place a caller looks it up: the module attribute, names imported into
other modules (``harness.entropy_expansion``) and dict tables such as the
harness's subcommand dispatch.  Three methods are wrapped by name as well:
``Poly.__mul__`` (``exactpoly.poly_mul``), ``EdgeworthModel.density``
(``edgeworth.model_density``) and the ``cf`` of every spec the harness
builds (``distributions.cf``, installed through
``ExperimentConfig.build_spec``).

Spans (name, start, end, parent, amount) stay in memory for one job and are
then reduced to per-layer times and counts.  ``amount`` is the number of cf
points for ``distributions.cf`` and the grid size for the density inversion,
so folded periods per grid are cf points divided by grid points.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import defaultdict

import numpy as np

PACKAGE = "renyi_clt"
INVERT = "numerics.density_of_normalized_sum"
CF = "distributions.cf"
FUNCTIONALS = frozenset(
    f"numerics.{name}"
    for name in (
        "lr_integral",
        "renyi_entropy",
        "entropy_power",
        "shannon_entropy",
        "kl_to_gaussian",
        "sup_norm",
    )
)
# density_of_normalized_sum stops folding after this many cf points
EVAL_CAP = 2**27
# the package's modules today; a module added later still gets a self time
LAYERS = (
    "harness",
    "expansion",
    "exactpoly",
    "edgeworth",
    "gaussint",
    "cumulants",
    "maxdensity",
    "distributions",
    "numerics",
)


class Tracer:
    """Records spans while ``active``; wrappers pass straight through
    otherwise, so oracle checks between jobs leave no spans."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []

    def wrap(self, name, fn, amount=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                qty = amount(args, result) if amount is not None and result is not None else 0
                spans[idx] = (name, start, end, parent, qty)

        return traced

    def take(self):
        """Hand over the recorded spans and start a fresh list."""
        spans = self.spans
        self.spans = []
        self._stack.clear()
        return spans


def _is_library_function(obj) -> bool:
    module = getattr(obj, "__module__", None) or ""
    name = getattr(obj, "__name__", "_")
    return (
        callable(obj)
        and not isinstance(obj, type)
        and module.startswith(PACKAGE + ".")
        and not name.startswith("_")
    )


def install(tracer: Tracer) -> None:
    """Wrap the freshly imported package's layers in ``tracer`` spans."""
    package = importlib.import_module(PACKAGE)
    modules = [
        importlib.import_module(f"{PACKAGE}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]
    amounts = {INVERT: lambda args, grid: len(grid.values)}
    wrappers = {}

    def wrapper_for(fn):
        if id(fn) not in wrappers:
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            wrappers[id(fn)] = tracer.wrap(name, fn, amounts.get(name))
        return wrappers[id(fn)]

    for module in modules:
        for attr, obj in list(vars(module).items()):
            if _is_library_function(obj):
                setattr(module, attr, wrapper_for(obj))
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if _is_library_function(value):
                        obj[key] = wrapper_for(value)

    exactpoly = importlib.import_module(f"{PACKAGE}.exactpoly")
    mul = tracer.wrap("exactpoly.poly_mul", exactpoly.Poly.__mul__)
    exactpoly.Poly.__mul__ = exactpoly.Poly.__rmul__ = mul

    edgeworth = importlib.import_module(f"{PACKAGE}.edgeworth")
    edgeworth.EdgeworthModel.density = tracer.wrap(
        "edgeworth.model_density", edgeworth.EdgeworthModel.density
    )

    harness = importlib.import_module(f"{PACKAGE}.harness")
    build_spec = harness.ExperimentConfig.build_spec

    def traced_build_spec(cfg):
        spec = build_spec(cfg)
        spec.cf = tracer.wrap(CF, spec.cf, lambda args, _: np.size(args[0]))
        return spec

    harness.ExperimentConfig.build_spec = traced_build_spec


class LayerTotals:
    """Per-layer times and counts summed over the jobs of one pass."""

    def __init__(self):
        self.inclusive = defaultdict(float)  # outermost spans of each name
        self.calls = defaultdict(int)
        self.layer_self = defaultdict(float)  # by module
        self.amount = defaultdict(float)
        self.functional_s = 0.0
        self.functional_calls = 0
        self.invert_self_s = 0.0
        self.grid_periods = []
        self.cap_hits = 0

    def add(self, spans) -> None:
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        cf_points = defaultdict(float)
        for name, _, _, parent, qty in spans:
            if name == CF and parent >= 0:
                cf_points[parent] += qty
        for i, (name, start, end, parent, qty) in enumerate(spans):
            duration = end - start
            self.calls[name] += 1
            self.amount[name] += qty
            self.layer_self[name.split(".", 1)[0]] += duration - child[i]
            ancestors = set()
            p = parent
            while p >= 0:
                ancestors.add(spans[p][0])
                p = spans[p][3]
            if name not in ancestors:
                self.inclusive[name] += duration
            if name in FUNCTIONALS and not ancestors & FUNCTIONALS:
                self.functional_s += duration
                self.functional_calls += 1
            if name == INVERT and qty:
                self.invert_self_s += duration - child[i]
                self.grid_periods.append(cf_points[i] / qty)
                self.cap_hits += int(cf_points[i] >= (EVAL_CAP // qty) * qty)

    def metrics(self, recompute_ratio: float):
        """The per-layer metrics, named after the module that owns them."""
        out = {
            "expansion.entropy_expansion_s": self.inclusive["expansion.entropy_expansion"],
            "expansion.entropy_expansion_calls": self.calls["expansion.entropy_expansion"],
            "expansion.a_coefficient_s": self.inclusive["expansion.a_coefficient"],
            "expansion.a_coefficient_calls": self.calls["expansion.a_coefficient"],
            "expansion.recompute_ratio": recompute_ratio,
            "edgeworth.correction_polynomial_s": self.inclusive["edgeworth.correction_polynomial"],
            "edgeworth.correction_polynomial_calls": self.calls["edgeworth.correction_polynomial"],
            "exactpoly.poly_mul_s": self.inclusive["exactpoly.poly_mul"],
            "exactpoly.poly_mul_calls": self.calls["exactpoly.poly_mul"],
            "gaussint.gauss_power_integral_s": self.inclusive["gaussint.gauss_power_integral"],
            "gaussint.gauss_power_integral_calls": self.calls["gaussint.gauss_power_integral"],
            "cumulants.standard_cumulants_s": self.inclusive["cumulants.standard_cumulants"],
            "maxdensity.supnorm_coefficients_s": self.inclusive["maxdensity.supnorm_coefficients"],
            "distributions.cf_s": self.inclusive[CF],
            "distributions.cf_evals": self.amount[CF],
            "numerics.grids": len(self.grid_periods),
            "numerics.fold_periods_total": sum(self.grid_periods),
            "numerics.fold_periods_max": max(self.grid_periods, default=0.0),
            "numerics.cap_hits": self.cap_hits,
            "numerics.invert_s": self.inclusive[INVERT],
            "numerics.invert_self_s": self.invert_self_s,
            "numerics.functional_s": self.functional_s,
            "numerics.functional_calls": self.functional_calls,
            "edgeworth.model_density_s": self.inclusive["edgeworth.model_density"],
        }
        for command in ("coeffs", "verify", "monotonicity", "locallimit"):
            out[f"harness.cmd_{command}_s"] = self.inclusive[f"harness.cmd_{command}"]
        for layer in set(LAYERS) | set(self.layer_self):
            out[f"{layer}.self_s"] = self.layer_self[layer]
        return out

