"""The four benchmark workloads as lists of CLI jobs built from a seed.

The seed draws the non-integer r values and the tabulated mixture's
parameters.  It never changes the shape of the work: the laws, the n values,
the grid sizes and the number of r values are fixed per workload.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oracles import GammaLaw, LaplaceLaw, Law, MixtureLaw, UniformLaw

WORKLOADS = ("symbolic-sweep", "fold-heavy", "grid-sweep", "tabulated-law")

# the paper's sign-flip case: gamma_3 = 3/4, gamma_4 = -3/8, so r_0 = 3/2
DYADIC_MIXTURE = {
    "distribution": "gaussian_mixture",
    "weights": [0.25, 0.75],
    "means": [1.5, -0.5],
    "sigmas": [0.5, 0.5],
}

# the tabulated law: a 4001-point table of a skewed two-component mixture
TABLE_POINTS = 4001
TABLE_HALF_WIDTH = 10.0


@dataclass
class Tolerances:
    """Largest accepted oracle differences for one job."""

    density: float = 1e-7  # max |p_n - exact| on the grid
    l2: float = 1e-9  # relative error of int p_n^2
    entropy: float = 1e-6  # |h_r(grid) - h_r(exact)|, and relative on N_r
    cumulant: float = 0.0  # |gamma_k(library) - gamma_k(exact)|


@dataclass
class Job:
    """One CLI invocation: a subcommand on a JSON config, with its oracle."""

    command: str
    config: dict
    law: Law
    label: str
    tol: Tolerances = field(default_factory=Tolerances)
    path: Path = None  # the config file written by build()

    @property
    def r_values(self):
        return self.config.get("r_values", [])


def _laws():
    return {
        "gamma4": ({"distribution": "gamma", "alpha": 4}, GammaLaw(4)),
        "gamma1": ({"distribution": "gamma", "alpha": 1}, GammaLaw(1)),
        "mixture": (
            dict(DYADIC_MIXTURE),
            MixtureLaw(*(DYADIC_MIXTURE[k] for k in ("weights", "means", "sigmas"))),
        ),
        "uniform": ({"distribution": "uniform"}, UniformLaw()),
    }


def _draw_r(rng: random.Random, count: int):
    """Distinct non-integer r values in (1, 8], three decimals each."""
    out = []
    while len(out) < count:
        r = round(rng.uniform(1.0, 8.0), 3)
        if r > 1 and r != int(r) and r not in out:
            out.append(r)
    return out


def mixture_table(seed: int):
    """Seeded, exactly standardized skewed mixture w N(d(1-w), s^2) +
    (1-w) N(-d w, s^2) with d = sqrt((1 - s^2) / (w (1-w))).

    The ranges are narrow so that the table's interpolation error, which
    sets the oracle error of this workload, is nearly the same for every
    seed.
    """
    rng = random.Random(f"table-{seed}")
    w = rng.uniform(0.25, 0.26)
    s = rng.uniform(0.60, 0.61)
    d = math.sqrt((1.0 - s * s) / (w * (1.0 - w)))
    return MixtureLaw([w, 1.0 - w], [d * (1.0 - w), -d * w], [s, s])


def build(name: str, seed: int, workdir: Path):
    """Job list, with each config written to ``workdir``, and a description
    of the inputs the seed drew."""
    jobs, drawn = _jobs(name, seed, workdir)
    for i, job in enumerate(jobs):
        job.path = workdir / f"job{i}_{job.command}_{job.label}.json"
        job.path.write_text(json.dumps(job.config))
    return jobs, drawn


def _jobs(name: str, seed: int, workdir: Path):
    rng = random.Random(f"{name}-{seed}")
    laws = _laws()
    if name == "symbolic-sweep":
        rs = _draw_r(rng, 8) + [1, "inf"]
        ns = [16 * 2**i for i in range(8)]
        jobs = []
        for label in ("gamma4", "gamma1", "mixture", "uniform"):
            cfg, law = laws[label]
            for command in ("verify", "coeffs"):
                config = {**cfg, "r_values": rs, "moment_order": 8}
                if command == "verify":
                    config["n_values"] = ns
                jobs.append(Job(command, config, law, label))
        return jobs, {"r_values": rs}
    if name == "fold-heavy":
        rs = _draw_r(rng, 2)
        jobs = [
            Job(
                "verify",
                {"distribution": "uniform", "r_values": rs, "n_values": [2, 3, 4], "moment_order": 4},
                UniformLaw(),
                "uniform",
            ),
            Job(
                "verify",
                {
                    "distribution": "two_sided_exponential",
                    "r_values": rs,
                    "n_values": [1, 2],
                    "moment_order": 4,
                },
                LaplaceLaw(),
                "laplace",
            ),
        ]
        return jobs, {"r_values": rs}
    if name == "grid-sweep":
        rs = _draw_r(rng, 1) + [2, 3, 1, "inf"]
        jobs = []
        for label in ("gamma4", "mixture"):
            cfg, law = laws[label]
            config = {**cfg, "r_values": rs, "n_values": list(range(8, 41)), "moment_order": 6}
            jobs.append(Job("monotonicity", config, law, label))
        cfg, law = laws["gamma4"]
        config = {**cfg, "n_values": [4, 8, 16, 32, 64], "moment_order": 6}
        jobs.append(Job("locallimit", config, law, "gamma4"))
        return jobs, {"r_values": rs}
    if name == "tabulated-law":
        law = mixture_table(seed)
        x = np.linspace(-TABLE_HALF_WIDTH, TABLE_HALF_WIDTH, TABLE_POINTS)
        path = workdir / "tabulated_density.csv"
        with open(path, "w") as fh:
            fh.write("x,p\n")
            for xv, pv in zip(x, law.density(1, x)):
                fh.write(f"{float(xv)!r},{float(pv)!r}\n")
        config = {
            "distribution": "grid",
            "density_file": str(path),
            "r_values": [2, 3],
            "n_values": [2, 4],
            "moment_order": 6,
            "grid_points": 2**14,
            "grid_extent": 12,
        }
        # the library transforms the piecewise-linear interpolant of the
        # table, so it differs from the exact mixture by the interpolation
        # error, about 2e-6 at this table spacing
        tol = Tolerances(density=1e-5, l2=1e-5, entropy=1e-4, cumulant=1e-4)
        drawn = {"weights": law.weights, "means": law.means, "sigmas": law.sigmas}
        return [Job("verify", config, law, "table", tol)], drawn
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")

