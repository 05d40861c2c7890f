"""numpy, loaded on its first attribute access.

The exact route (rational polynomials, cumulants, Edgeworth polynomials and
expansion coefficients) uses no array, so every module of the package takes
``np`` from here: ``import renyi_clt`` and ``renyi-clt coeffs`` never execute
numpy, and the first numeric call (``np.asarray`` and the like) loads it.  A
program that imported numpy first gets that module itself.

On Python 3.10 and 3.11 ``importlib.util.LazyLoader`` takes no lock, so two
threads making that first numeric call together may see a half-loaded numpy.
The library starts no threads; a program that shares it between threads can
``import numpy`` before starting them.
"""

import importlib.util
import sys

__all__ = ["np"]


def _lazy_module(name: str):
    """``sys.modules[name]`` if imported, else a module that executes on its
    first attribute access (the ``importlib.util.LazyLoader`` recipe)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_module("numpy")
