"""Experiment harness: compare expansion predictions to measured densities.

Subcommands (each takes ``--config <json>`` and ``--out <csv>``):

* ``coeffs``        -- per-index coefficient table: b(r), B1(r), the L^r-norm
                       coefficients A1/A2, the N_inf pair At = -c_1(inf) and
                       Bt = c_2(inf), the sign threshold r0 and the
                       monotonicity verdicts.
* ``verify``        -- per-(n, r) rows with measured and predicted Renyi
                       entropies and entropy powers, residuals, and residuals
                       scaled by n**((s-2)/2).
* ``monotonicity``  -- finite differences of N_r(Z_n) over a consecutive run
                       of n, empirical sign pattern versus prediction.
* ``locallimit``    -- weighted sup distance between p_n and the corrected
                       density, with the fitted log-log decay slope.

The JSON config is flat and unknown keys are rejected; ``_EPILOG``, which
``--help`` prints, lists the keys and the exit codes.  A density grid whose
fold stopped at the cf evaluation cap is still used, and a one-line warning
goes to stderr.  Runs are deterministic: fixed quadrature, no randomness,
floats printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import distributions, numerics
from ._lazy import np
from .cumulants import standard_cumulants
from .edgeworth import EdgeworthModel
from .expansion import (
    DECREASING,
    INCREASING,
    INDETERMINATE,
    a_coefficient,
    b_coefficient,
    entropy_expansion,
    gauss_power_mass,
    gaussian_entropy_power,
    gaussian_renyi_entropy,
    limit_expansion,
    monotonicity_prediction,
    sign_change_threshold,
)

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "main"]

_CONFIG_KEYS = {
    "distribution",
    "alpha",
    "weights",
    "means",
    "sigmas",
    "density_file",
    "r_values",
    "n_values",
    "moment_order",
    "grid_points",
    "grid_extent",
    "out",
}

# finite differences smaller than this (relative to N_r(Z)) count as noise
_SIGN_NOISE = 1e-9


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _finite_real(value):
    """``value`` as a float if it is a finite JSON number, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        out = float(value)
    except OverflowError:
        return None
    return out if math.isfinite(out) else None


class ExperimentConfig:
    """Validated experiment parameters (see ``_EPILOG`` for the keys)."""

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "distribution" not in data:
            raise ConfigError("config needs a 'distribution'")
        self.distribution = data["distribution"]
        if not isinstance(self.distribution, str):
            raise ConfigError("distribution must be a name string")
        self.params = {
            k: data[k]
            for k in ("alpha", "weights", "means", "sigmas", "density_file")
            if k in data
        }
        for key in ("alpha", "weights", "means", "sigmas"):
            value = self.params.get(key)
            values = value if isinstance(value, list) else [value]
            if any(isinstance(v, bool) for v in values):
                raise ConfigError(f"{key} must be numbers, not true or false")

        r_values = data.get("r_values", [2])
        if not isinstance(r_values, list) or not r_values:
            raise ConfigError("r_values must be a non-empty list")
        self.r_values = []
        for r in r_values:
            if r == "inf":
                r = math.inf
            elif _finite_real(r) is None:
                raise ConfigError(f"invalid r value {r!r}")
            elif r != 1 and not r > 1:
                raise ConfigError(f"r values must be 1, > 1, or 'inf'; got {r}")
            self.r_values.append(r)

        self.n_values = data.get("n_values", [])
        if not isinstance(self.n_values, list):
            raise ConfigError("n_values must be a list")
        for n in self.n_values:
            if not isinstance(n, int) or _finite_real(n) is None or n < 1:
                raise ConfigError(f"invalid n value {n!r}")
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise ConfigError("n_values must be strictly ascending")

        self.moment_order = data.get("moment_order", 6)
        if not isinstance(self.moment_order, (int, float)) or not (
            2 <= self.moment_order <= 8
        ):
            raise ConfigError("moment_order must lie in [2, 8]")

        self.grid_points = data.get("grid_points", numerics.DEFAULT_GRID_POINTS)
        if (
            not isinstance(self.grid_points, int)
            or not 1024 <= self.grid_points <= numerics._EVAL_CAP
            or self.grid_points % 2
        ):
            raise ConfigError(
                f"grid_points must be an even integer from 1024 to {numerics._EVAL_CAP}"
            )
        self.grid_extent = _finite_real(
            data.get("grid_extent", numerics.DEFAULT_GRID_EXTENT)
        )
        if (
            self.grid_extent is None
            or not self.grid_extent >= 12
            or not math.isfinite(2 * self.grid_extent / self.grid_points)
        ):
            raise ConfigError(
                "grid_extent must be a finite number >= 12 with a finite grid step"
            )
        self.out = data.get("out")
        if self.out is not None and not isinstance(self.out, str):
            # an int would be opened as a file descriptor
            raise ConfigError("out must be a path string")

    @property
    def integer_order(self) -> int:
        return int(math.floor(self.moment_order))

    def build_spec(self) -> distributions.DistributionSpec:
        params = dict(self.params)
        if self.distribution == "grid":
            path = params.pop("density_file", None)
            if not isinstance(path, str):
                raise ConfigError("grid distribution needs a density_file path")
            xs, ps = [], []
            try:
                with open(path, newline="", encoding="utf-8") as fh:
                    reader = csv.reader(fh)
                    for row in reader:
                        # a header such as x,p may come before the first row
                        if not row or not xs and row[0].lstrip().startswith("x"):
                            continue
                        if len(row) != 2:
                            raise ValueError(
                                f"line {reader.line_num} has {len(row)} cells, "
                                "not the two x,p"
                            )
                        xs.append(float(row[0]))
                        ps.append(float(row[1]))
            except OSError as exc:
                raise ConfigError(f"cannot read density_file: {exc}") from exc
            except (ValueError, csv.Error) as exc:  # UnicodeDecodeError included
                raise ConfigError(f"malformed density_file: {exc}") from exc
            try:
                return distributions.GridDensity(np.array(xs), np.array(ps))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        try:
            return distributions.from_name(self.distribution, **params)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(str(exc)) from exc


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return ExperimentConfig(data)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def _write_rows(path, header, rows) -> None:
    def dump(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])

    if path is None:
        dump(sys.stdout)
        return
    try:
        with open(path, "w", newline="") as fh:
            dump(fh)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _grids(cfg: ExperimentConfig, spec, dump_dir=None):
    """Density grids for every configured n, in ascending order, each also
    written to ``dump_dir``, when given, as CSV with columns x, p_n.

    An argument the inversion rejects, such as an n outside the law's
    ``n_min``..``numerics.MAX_N``, is a config error with the inversion's
    message.  A grid whose fold stopped at the evaluation cap is kept, with
    a one-line stderr warning.  A dump that cannot be written is a config
    error.
    """
    out = {}
    for n in cfg.n_values:
        try:
            grid = numerics.density_of_normalized_sum(
                spec, n, npoints=cfg.grid_points, extent=cfg.grid_extent
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if grid.cap_hit:
            print(
                f"warning: n={n} density stopped at the cf evaluation cap after "
                f"{grid.folds} periods; ringing bound {grid.ringing_bound:.3g}",
                file=sys.stderr,
            )
        out[n] = grid
    if dump_dir is not None:
        try:
            os.makedirs(dump_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot write {dump_dir}: {exc.strerror or exc}") from exc
        for n, grid in out.items():
            path = os.path.join(dump_dir, f"density_{cfg.distribution}_n{n}.csv")
            _write_rows(path, ["x", "p_n"], zip(grid.x, grid.values))
    return out


# -- subcommands ----------------------------------------------------------


def _mass_term(j: int, r, cums):
    """A_j = a_j(r) int phi**r, the n**(-j) term of int p_n**r, from the
    cached exact a_j.  Raises ``ValueError`` when A_j is not finite, and when
    it is below the normal float range, because int phi**r underflows (r
    above about 780), while a_j is not 0.
    """
    a = a_coefficient(j, float(r), cums)  # rounded once; +-inf beyond floats
    total = a * gauss_power_mass(r)
    if not math.isfinite(total):
        raise ValueError(f"A_{j} is not finite at r={r:g}")
    if abs(total) < sys.float_info.min and a != 0:
        raise ValueError(f"int phi**r underflows at r={r:g}; A_{j} is not representable")
    return total


def cmd_coeffs(cfg: ExperimentConfig):
    """Per-index table: b(r), B1(r) = -b(r), A1 and A2, the N_inf pair and
    the verdicts.  b(r) and the verdicts are read off the cached exact L_1
    (:func:`~renyi_clt.expansion.b_coefficient`), and A1 and A2 are a_1 and
    a_2 of the once-per-law exact expansion, times int phi**r
    (:func:`~renyi_clt.expansion.gauss_power_mass`); the hand formulas
    :func:`~renyi_clt.expansion.a1_closed_form` and
    :func:`~renyi_clt.expansion.a2_from_integrals` are independent
    cross-checks, used by the benchmark and the tests.
    """
    spec = cfg.build_spec()
    if cfg.moment_order < 4:
        raise ConfigError("coeffs needs moment_order >= 4")
    order = cfg.integer_order
    cums = standard_cumulants(spec, order=order)
    r0 = sign_change_threshold(cums)
    if order >= 6:
        # the two-term N_inf expansion: moment order 6 is enough
        a_sup, b_sup = limit_expansion(6, math.inf, cums).c
        a_sup = -a_sup
    else:
        a_sup = b_sup = None
    header = ["r", "b", "B1", "a1", "a2", "A_tilde", "B_tilde", "r0", "verdict"]
    rows = []
    for r in cfg.r_values:
        b = b_coefficient(r, cums)
        finite = 1 < r < math.inf
        rows.append(
            [
                _fmt(r),
                b,
                -b,
                _mass_term(1, r, cums) if finite else None,
                _mass_term(2, r, cums) if finite and order >= 6 else None,
                a_sup,
                b_sup,
                "none" if r0 is None else r0,
                monotonicity_prediction(r, cums),
            ]
        )
    return header, rows


def _predictions(cfg: ExperimentConfig, cums, r):
    """(h_reference, h_offset(n), power_factor(n)) for one entropy index."""
    expand = entropy_expansion if 1 < r < math.inf else limit_expansion
    coeffs = expand(cfg.integer_order, r, cums)
    return (
        gaussian_renyi_entropy(r),
        coeffs.entropy_offset,
        coeffs.entropy_power_factor,
    )


def cmd_verify(cfg: ExperimentConfig, dump_dir=None):
    spec = cfg.build_spec()
    if not cfg.n_values:
        raise ConfigError("verify needs n_values")
    if math.inf in cfg.r_values and cfg.moment_order < 6:
        raise ConfigError("r = inf predictions need moment_order >= 6")
    if 1 in cfg.r_values and cfg.moment_order < 4:
        raise ConfigError("r = 1 predictions need moment_order >= 4")
    order = cfg.integer_order
    cums = standard_cumulants(spec, order=order)
    predictions = {r: _predictions(cfg, cums, r) for r in cfg.r_values}
    grids = _grids(cfg, spec, dump_dir)
    scale_exp = (cfg.moment_order - 2) / 2
    header = [
        "n",
        "r",
        "h_r_numeric",
        "h_r_predicted",
        "residual",
        "scaled_residual",
        "N_r_numeric",
        "N_r_predicted",
    ]
    rows = []
    for n in cfg.n_values:
        grid = grids[n]
        for r in cfg.r_values:
            h_ref, offset, factor = predictions[r]
            h_num = numerics.renyi_entropy(grid, r)
            h_pred = h_ref + offset(n)
            residual = h_num - h_pred
            rows.append(
                [
                    n,
                    _fmt(r),
                    h_num,
                    h_pred,
                    residual,
                    residual * n**scale_exp,
                    math.exp(2.0 * h_num),
                    gaussian_entropy_power(r) * factor(n),
                ]
            )
    return header, rows


def cmd_monotonicity(cfg: ExperimentConfig, dump_dir=None):
    spec = cfg.build_spec()
    if len(cfg.n_values) < 3:
        raise ConfigError("monotonicity needs at least three n values")
    if any(b - a != 1 for a, b in zip(cfg.n_values, cfg.n_values[1:])):
        raise ConfigError("monotonicity needs a consecutive run of n values")
    cums = standard_cumulants(spec, order=max(4, cfg.integer_order))
    grids = _grids(cfg, spec, dump_dir)
    header = [
        "r",
        "n",
        "N_r_numeric",
        "diff_to_next",
        "sign",
        "empirical_n0",
        "empirical_verdict",
        "predicted_verdict",
        "match",
    ]
    rows = []
    for r in cfg.r_values:
        values = [numerics.entropy_power(grids[n], r) for n in cfg.n_values]
        predicted = monotonicity_prediction(r, cums)
        noise = _SIGN_NOISE * gaussian_entropy_power(r)
        diffs = [b - a for a, b in zip(values, values[1:])]
        signs = [0 if abs(d) <= noise else (1 if d > 0 else -1) for d in diffs]
        final = signs[-1] if signs else 0
        verdict = {0: INDETERMINATE, 1: INCREASING, -1: DECREASING}[final]
        # empirical n0: start of the longest suffix with the final sign
        idx = len(signs)
        while idx > 0 and signs[idx - 1] == final:
            idx -= 1
        n0 = cfg.n_values[idx] if final != 0 else None
        match = "yes" if verdict == predicted else "no"
        for i, n in enumerate(cfg.n_values):
            rows.append(
                [
                    _fmt(r),
                    n,
                    values[i],
                    diffs[i] if i < len(diffs) else None,
                    signs[i] if i < len(diffs) else None,
                    n0,
                    verdict,
                    predicted,
                    match,
                ]
            )
    return header, rows


def cmd_locallimit(cfg: ExperimentConfig, dump_dir=None):
    spec = cfg.build_spec()
    if not cfg.n_values:
        raise ConfigError("locallimit needs n_values")
    m = cfg.integer_order
    if m > 6:
        raise ConfigError("locallimit needs moment_order <= 6")
    cums = standard_cumulants(spec, order=m)
    model = EdgeworthModel.from_cumulants(cums, order=m)
    grids = _grids(cfg, spec, dump_dir)
    errors = []
    for n in cfg.n_values:
        grid = grids[n]
        x = grid.x
        weight = 1.0 + np.abs(x) ** m
        approx = model.density(n, x)
        errors.append(float(np.max(weight * np.abs(grid.values - approx))))
    if len(cfg.n_values) >= 2:
        slope = float(
            np.polyfit(np.log(cfg.n_values), np.log(errors), 1)[0]
        )
    else:
        slope = None
    header = ["n", "sup_weighted_error", "fitted_slope"]
    rows = [[n, e, slope] for n, e in zip(cfg.n_values, errors)]
    return header, rows


# -- CLI -------------------------------------------------------------------

_COMMANDS = {
    "coeffs": cmd_coeffs,
    "verify": cmd_verify,
    "monotonicity": cmd_monotonicity,
    "locallimit": cmd_locallimit,
}

_EPILOG = """config keys:
  distribution   uniform | gamma | two_sided_exponential | gaussian_mixture |
                 gaussian | grid
  alpha          shape parameter (distribution = gamma)
  weights, means, sigmas   lists (distribution = gaussian_mixture)
  density_file   two-column UTF-8 CSV of finite x,p, after an optional header
                 (distribution = grid)
  r_values       entropy indexes: numbers > 1, 1 (Shannon), or "inf"
  n_values       strictly ascending positive integers
  moment_order   real s in [2, 8] (moments assumed finite up to s)
  grid_points    inversion grid size, even, 1024..2**27 (default 131072)
  grid_extent    spatial half-width, >= 12 (default 16.0)
  out            default output CSV path (overridden by --out)

exit codes: 0 success; 2 config error, including an n outside the law's
n_min..2**33, grid_points above 2**27, a malformed density_file and an
output CSV or density dump that cannot be written; 3 numerical failure,
including running out of memory
"""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renyi-clt",
        description=(
            "Verification experiments for entropy expansions of normalized sums"
        ),
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "coeffs": "expansion coefficient table per entropy index",
        "verify": "measured vs predicted entropies per (n, r)",
        "monotonicity": "finite differences of N_r(Z_n) vs predicted verdict",
        "locallimit": "weighted sup distance of p_n from the corrected density",
    }
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(
            name,
            help=descriptions[name],
            epilog=_EPILOG,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", help="output CSV path (default: stdout or config 'out')")
        if name != "coeffs":
            p.add_argument(
                "--dump-density",
                metavar="DIR",
                help="also dump every density grid as CSV (columns x, p_n)",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    dump_dir = getattr(args, "dump_density", None)
    try:
        if args.command == "coeffs":
            header, rows = cmd_coeffs(cfg)
        else:
            header, rows = _COMMANDS[args.command](cfg, dump_dir=dump_dir)
        _write_rows(args.out or cfg.out, header, rows)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (numerics.GridError, ValueError, OverflowError, MemoryError) as exc:
        print(f"numerical failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
