"""Oracle checks on every output of a benchmark job.

Each check is one attempted operation; a check outside its tolerance, or a
CLI job with a non-zero exit, is one failure.  Alongside the pass/fail count
the checker keeps the worst differences it saw:

* ``oracle_max_err``: max |p_n - exact density| over every grid;
* ``lr_relerr``: max relative error of the library's ``int p_n^2``;
* ``coef_max_relerr``: max relative difference between what
  ``entropy_expansion`` returned and the coefficient oracles, each taken
  relative to max(|oracle|, the law's coefficient scale) so that a
  coefficient passing through zero (b(r_0) = 0) stays well defined.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from fractions import Fraction

import numpy as np

INCREASING = "eventually_increasing"
DECREASING = "eventually_decreasing"
INDETERMINATE = "indeterminate"

COEF_TOL = 1e-9  # coefficients are floats assembled from exact polynomials
CONSISTENCY_TOL = 1e-9  # columns derived from other columns of the same row
# the order-6 local-limit error decays like n^(-5/2); accept any slope below -2
LOCALLIMIT_MAX_SLOPE = -2.0
MAX_MESSAGES = 20


def exact_b(r, g3, g4):
    """b(r) = -(1/r)[(2-r)/12 g3^2 + (r-1)/8 g4] with its r = 1 and r = inf
    limits, in exact arithmetic when g3, g4 and r are rational."""
    if r == math.inf:
        return g3 * g3 / 12 - g4 / 8
    if r == 1:
        return -g3 * g3 / 12
    r = Fraction(r)
    return -((2 - r) * g3 * g3 / 12 + (r - 1) * g4 / 8) / r


def exact_r0(g3, g4):
    """The sign-change index (4 g3^2 - 3 g4)/(2 g3^2 - 3 g4), when it exists."""
    if g3 == 0 or not g4 < Fraction(2, 3) * g3 * g3:
        return None
    return (4 * g3 * g3 - 3 * g4) / (2 * g3 * g3 - 3 * g4)


def verdict(b):
    return INCREASING if b < 0 else DECREASING if b > 0 else INDETERMINATE


def _rel(value, oracle, scale):
    """|value - oracle| relative to max(|oracle|, scale)."""
    denom = max(abs(float(oracle)), float(scale))
    diff = abs(float(value) - float(oracle))
    return diff / denom if denom > 0 else diff


def _parse_r(cell: str):
    return math.inf if cell == "inf" else float(cell)


def _config_r(r):
    return math.inf if r == "inf" else r


def _gauss_power_mass(r: float) -> float:
    """int phi^r = (2 pi)^(-(r-1)/2) r^(-1/2)."""
    return (2 * math.pi) ** (-(r - 1) / 2) / math.sqrt(r)


class Checker:
    """Checks job outputs against the oracles and keeps the worst errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.oracle_max_err = 0.0
        self.lr_relerr = 0.0
        self.coef_max_relerr = 0.0
        self.expansion_calls = 0
        self.expansion_pairs = 0
        self._grid_results = {}
        self._expansion_results = {}
        self._entropies = {}
        self._l2 = {}

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(what)

    # -- one job ---------------------------------------------------------

    def check_job(self, job, rc, output, grids, expansions, lib) -> None:
        """``grids`` holds (n, DensityGrid) and ``expansions`` holds
        ((m, r, cumulants), ExpansionCoefficients) in call order; ``lib`` is
        the package the job ran against."""
        tag = f"{job.command}/{job.label}"
        self.record(rc == 0, f"{tag}: exit code {rc}")
        if rc != 0:
            return
        for n, grid in grids:
            self._check_grid(job, n, grid, lib)
        keys = set()
        for key, result in expansions:
            keys.add(key)
            self._check_expansion(job, key, result, lib)
        self.expansion_calls += len(expansions)
        self.expansion_pairs += len(keys)
        rows = list(csv.DictReader(io.StringIO(output)))
        try:
            getattr(self, f"_check_{job.command}")(job, rows, tag)
        except (KeyError, TypeError, ValueError) as exc:  # a malformed table
            self.record(False, f"{tag}: unreadable output ({exc!r})")

    # -- density grids ---------------------------------------------------

    def _check_grid(self, job, n, grid, lib) -> None:
        values = grid.values
        size = len(values)
        digest = hashlib.blake2b(values.tobytes(), digest_size=16).digest()
        key = (job.label, n, grid.x0, grid.h, size, digest)
        if key not in self._grid_results:
            idx = job.law.check_points(n, size)
            exact = job.law.density(n, grid.x0 + grid.h * idx)
            err = float(np.max(np.abs(exact - values[idx])))
            if idx.size == size:
                self._entropies[job.label, n] = self._entropies_of(job, grid, exact)
            if (job.label, n) not in self._l2:
                self._l2[job.label, n] = job.law.l2(n)
            l2 = self._l2[job.label, n]
            lr = abs(lib.numerics.lr_integral(grid, 2) - l2) / l2
            self._grid_results[key] = (err, lr)
        err, lr = self._grid_results[key]
        tag = f"{job.command}/{job.label} n={n}"
        self.record(err <= job.tol.density, f"{tag}: density error {err:.3e}")
        self.record(lr <= job.tol.l2, f"{tag}: int p^2 relative error {lr:.3e}")
        self.oracle_max_err = max(self.oracle_max_err, err)
        self.lr_relerr = max(self.lr_relerr, lr)

    @staticmethod
    def _entropies_of(job, grid, exact):
        """Renyi entropies of the exact density on the job's grid, by a plain
        Riemann sum, for every r the job asks about."""
        h = grid.h
        out = {}
        for r in map(_config_r, job.r_values):
            if r == math.inf:
                out[r] = -math.log(float(exact.max()))
            elif r == 1:
                pos = exact[exact > 0]
                out[r] = -float(np.sum(pos * np.log(pos))) * h
            else:
                out[r] = -math.log(float(np.sum(exact**r)) * h) / (r - 1)
        return out

    def _exact_entropy(self, job, n, r):
        """h_r of the exact density on the grid of (job, n), when the oracle
        covered the whole grid."""
        return self._entropies.get((job.label, n), {}).get(r)

    # -- expansion coefficients --------------------------------------------

    def _check_expansion(self, job, key, result, lib) -> None:
        """a_1, a_2, b_1, c_1 of one entropy_expansion result against the
        oracles.  Identical (inputs, result) pairs, as when the harness
        recomputes the same expansion for every n, are compared once."""
        m, r, cums = key
        gammas = tuple(cums.gamma(k) for k in range(1, cums.order + 1))
        # plain data only: a key holding library objects would keep every
        # freshly imported copy of the package alive
        memo = (job.label, m, r, gammas, tuple(result.a), tuple(result.b), tuple(result.c))
        if memo not in self._expansion_results:
            self._expansion_results[memo] = self._compare_expansion(job, key, result, lib)
        worst, outcomes = self._expansion_results[memo]
        for ok, what in outcomes:
            self.record(ok, what)
        self.coef_max_relerr = max(self.coef_max_relerr, worst)

    @staticmethod
    def _compare_expansion(job, key, result, lib):
        m, r, cums = key
        tag = f"{job.command}/{job.label} r={r}"
        law_g3, law_g4 = job.law.cumulants34()
        lib_g3, lib_g4 = cums.gamma(3), cums.gamma(4)
        gap = max(abs(float(lib_g3 - law_g3)), abs(float(lib_g4 - law_g4)))
        outcomes = [(gap <= job.tol.cumulant, f"{tag}: cumulants off by {gap:.3e}")]
        g3, g4 = Fraction(lib_g3), Fraction(lib_g4)
        scale = float(g3 * g3 + abs(g4)) / 8
        b_ex = exact_b(r, g3, g4)
        a1_ex = -(Fraction(r) - 1) * b_ex
        mass = _gauss_power_mass(r)
        errs = {
            "a1": _rel(result.a[0], a1_ex, scale),
            "a1_closed_form": _rel(result.a[0], lib.expansion.a1_closed_form(r, cums) / mass, scale),
            "b1": _rel(result.b[0], b_ex, scale),
            "c1": _rel(result.c[0], 2 * result.b[0], scale),
        }
        if len(result.a) >= 2:
            a2 = lib.expansion.a2_from_integrals(r, cums) / mass
            errs["a2"] = _rel(result.a[1], a2, scale * scale)
        worst = max(errs, key=errs.get)
        outcomes.append((errs[worst] <= COEF_TOL, f"{tag}: {worst} off by {errs[worst]:.3e}"))
        lib_b = lib.expansion.b_coefficient(Fraction(r), cums)
        if isinstance(lib_g3, float) or isinstance(lib_g4, float):
            ok = _rel(lib_b, b_ex, 0) <= 1e-12  # quadrature cumulants: float b(r)
        else:
            ok = lib_b == b_ex
        outcomes.append((ok, f"{tag}: b_coefficient {lib_b} != exact {b_ex}"))
        return errs[worst], outcomes

    def cross_check(self, job, lib) -> None:
        """The paper's sign-flip case: for the dyadic mixture of ``job``, r_0
        is exactly 3/2, the eventual monotonicity of N_r flips across it, and
        entropy_expansion matches the coefficient oracles on both sides."""
        spec = lib.harness.ExperimentConfig(job.config).build_spec()
        cums = lib.cumulants.standard_cumulants(spec, order=8)
        r0 = lib.expansion.sign_change_threshold(cums)
        self.record(
            isinstance(r0, Fraction) and r0 == Fraction(3, 2),
            f"sign_change_threshold gave {r0!r}, expected Fraction(3, 2)",
        )
        predict = lib.expansion.monotonicity_prediction
        seen = [predict(r, cums) for r in (Fraction(5, 4), Fraction(3, 2), Fraction(7, 4))]
        self.record(
            seen == [INCREASING, INDETERMINATE, DECREASING],
            f"monotonicity_prediction across r_0 gave {seen}",
        )
        for r in (1.25, 1.5, 1.75, 2.5, 6.0):
            result = lib.expansion.entropy_expansion(8, r, cums)
            self._check_expansion(job, (8, r, cums), result, lib)

    # -- CSV outputs ---------------------------------------------------------

    def _check_verify(self, job, rows, tag) -> None:
        expected = [(n, r) for n in job.config["n_values"] for r in job.r_values]
        self.record(len(rows) == len(expected), f"{tag}: {len(rows)} rows")
        for (n, r), row in zip(expected, rows):
            r = _config_r(r)
            h_num = float(row["h_r_numeric"])
            h_pred = float(row["h_r_predicted"])
            ok = (
                int(row["n"]) == n
                and _parse_r(row["r"]) == r
                and math.isfinite(h_num)
                and math.isfinite(h_pred)
                and _rel(float(row["N_r_numeric"]), math.exp(2 * h_num), 0) <= CONSISTENCY_TOL
                and abs(float(row["residual"]) - (h_num - h_pred)) <= CONSISTENCY_TOL
            )
            exact = self._exact_entropy(job, n, r)
            if exact is not None:
                ok = ok and abs(h_num - exact) <= job.tol.entropy
            self.record(ok, f"{tag} n={n} r={r}: row {dict(row)} (exact h {exact})")

    def _check_coeffs(self, job, rows, tag) -> None:
        g3, g4 = job.law.cumulants34()
        r0 = exact_r0(g3, g4)
        self.record(len(rows) == len(job.r_values), f"{tag}: {len(rows)} rows")
        for r, row in zip(job.r_values, rows):
            r = _config_r(r)
            b = exact_b(r, g3, g4)
            ok = _parse_r(row["r"]) == r and _rel(float(row["b"]), b, 0) <= 1e-12
            if r != math.inf:
                ok = ok and row["verdict"] == verdict(b)
            if r0 is None:
                ok = ok and row["r0"] == "none"
            else:
                ok = ok and _rel(float(row["r0"]), r0, 0) <= 1e-12
            self.record(ok, f"{tag} r={r}: row {dict(row)} (exact b {float(b)})")

    def _check_monotonicity(self, job, rows, tag) -> None:
        g3, g4 = job.law.cumulants34()
        ns = job.config["n_values"]
        expected = [(r, n) for r in job.r_values for n in ns]
        self.record(len(rows) == len(expected), f"{tag}: {len(rows)} rows")
        for (r, n), row in zip(expected, rows):
            r = _config_r(r)
            value = float(row["N_r_numeric"])
            ok = _parse_r(row["r"]) == r and int(row["n"]) == n and math.isfinite(value)
            if r != math.inf:
                ok = ok and row["predicted_verdict"] == verdict(exact_b(r, g3, g4))
            exact = self._exact_entropy(job, n, r)
            if exact is not None:
                ok = ok and _rel(value, math.exp(2 * exact), 0) <= job.tol.entropy
            self.record(ok, f"{tag} n={n} r={r}: row {dict(row)} (exact h {exact})")

    def _check_locallimit(self, job, rows, tag) -> None:
        ns = job.config["n_values"]
        self.record(len(rows) == len(ns), f"{tag}: {len(rows)} rows")
        errors = [float(row["sup_weighted_error"]) for row in rows]
        decaying = all(e > 0 and math.isfinite(e) for e in errors) and all(
            b < a for a, b in zip(errors, errors[1:])
        )
        slope = float(rows[0]["fitted_slope"]) if rows else math.nan
        self.record(
            decaying and slope < LOCALLIMIT_MAX_SLOPE,
            f"{tag}: errors {errors}, fitted slope {slope}",
        )

