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
``--help`` prints, lists the commands, keys and exit codes.  A density grid
whose fold stopped at the cf evaluation cap is still used, and a one-line
warning goes to stderr.  Runs are deterministic: fixed quadrature, no
randomness, floats printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import textwrap

from . import distributions, numerics
from ._lazy import np
from .cumulants import _MAX_ORDER, standard_cumulants
from .edgeworth import EdgeworthModel
from .expansion import (
    DECREASING,
    INCREASING,
    INDETERMINATE,
    _check_index,
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

# every parameter of a named law, in the order of ``distributions.LAWS``
_LAW_PARAMS = tuple(dict.fromkeys(p for _, ps in distributions.LAWS.values() for p in ps))
_CONFIG_KEYS = {
    "distribution",
    *_LAW_PARAMS,
    "r_values",
    "n_values",
    "moment_order",
    "grid_points",
    "grid_extent",
    "out",
}

# finite differences smaller than this (relative to N_r(Z)) count as noise
_SIGN_NOISE = 1e-9
# points per block of the locallimit error, whose arrays stay in cache for
# every n: on Gamma(4), n = 4..64 at 2**17 points (2 MiB L2 per core), 2**14
# took a median of 8.3 ms, against 9.2, 9.0 and 10.4 ms for 2**13, 2**15
# and 2**16 and 16.2 ms for the whole grid at once
_ERROR_BLOCK = 2**14


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


def _as_config(prefix: str, call, *args):
    """``call(*args)``, a library function that states an input rule, with
    the ``ValueError`` it raises turned into a config error after ``prefix``."""
    try:
        return call(*args)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


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
        self.params = {k: data[k] for k in _LAW_PARAMS if k in data}
        for key in _LAW_PARAMS:
            value = self.params.get(key)
            values = value if isinstance(value, list) else [value]
            # a table's density_file is a path, which the table's reader checks
            if key != "density_file" and any(isinstance(v, bool) for v in values):
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
            _as_config("r_values: ", _check_index, r)
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
        if _finite_real(self.moment_order) is None:
            raise ConfigError("moment_order must be a finite number")

        self.grid_points = data.get("grid_points", numerics.DEFAULT_GRID_POINTS)
        if not isinstance(self.grid_points, int):
            raise ConfigError("grid_points must be an integer")
        self.grid_extent = _finite_real(
            data.get("grid_extent", numerics.DEFAULT_GRID_EXTENT)
        )
        if self.grid_extent is None:
            raise ConfigError("grid_extent must be a finite number")
        _as_config(f"grid_points={self.grid_points}, grid_extent={self.grid_extent:g}: ",
                   numerics._check_grid, self.grid_points, self.grid_extent)
        self.out = data.get("out")
        if self.out is not None and not isinstance(self.out, str):
            # an int would be opened as a file descriptor
            raise ConfigError("out must be a path string")

    @property
    def integer_order(self) -> int:
        return int(math.floor(self.moment_order))

    def at_order(self, call, *args):
        """``call(*args)``, a library routine that states a moment-order need,
        with its refusal a config error after ``moment_order=<s>: ``."""
        return _as_config(f"moment_order={self.moment_order}: ", call, *args)

    def build_spec(self) -> distributions.DistributionSpec:
        try:
            return distributions.from_name(self.distribution, **self.params)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(str(exc)) from exc


def load_config(path: str) -> ExperimentConfig:
    """The config at ``path``, read as UTF-8 JSON.  Whatever json cannot
    parse is a config error: a syntax error, a byte that is not UTF-8, an
    integer past Python's digit limit, or nesting past the recursion limit."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
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


def _prepare_outputs(out, dump_dir) -> None:
    """Fail before any work when an output cannot be written: create the dump
    directory, but not its parents (a failed run removes it again while it
    is empty), and open the CSV for appending, which leaves an existing file
    as it is (a file that this check creates is removed again)."""
    try:
        if dump_dir is not None and not os.path.isdir(dump_dir):
            os.mkdir(dump_dir)
        if out is not None:
            created = not os.path.lexists(out)
            open(out, "a").close()
            if created:
                os.remove(out)
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename}: {exc.strerror or exc}") from exc


def _law(cfg: ExperimentConfig, order: int):
    """The configured law and its standardized cumulants through ``order``.
    An order that ``standard_cumulants`` refuses (below 2 or above its
    ceiling), and moments beyond the float range, as of Gamma with a tiny
    alpha, are config errors."""
    spec = cfg.build_spec()
    try:
        return spec, cfg.at_order(standard_cumulants, spec, order)
    except OverflowError as exc:
        raise ConfigError(f"{spec!r}: moments to order {order} overflow a float") from exc


def _grids(cfg: ExperimentConfig, spec, dump_dir=None):
    """Density grids for every configured n, in ascending order, each also
    written to ``dump_dir``, when given (an existing directory), as the CSV
    ``density_<law>_n<n>.csv`` with columns x, p_n, where <law> is the
    ``distributions.LAWS`` key that the configured name stands for.

    An argument the inversion rejects, such as an n outside the law's
    ``n_min``..``numerics.MAX_N``, is a config error with the inversion's
    message.  A grid whose fold stopped at the evaluation cap is kept, with
    a one-line stderr warning.  A dump that cannot be written is a config
    error.
    """
    out = {}
    for n in cfg.n_values:
        grid = _as_config("", numerics.density_of_normalized_sum,
                          spec, n, cfg.grid_points, cfg.grid_extent)
        if grid.cap_hit:
            note = numerics._cap_note(grid.folds, grid.ringing_bound)
            print(f"warning: n={n} density {note}", file=sys.stderr)
        out[n] = grid
        if dump_dir is not None:
            law = distributions._law_key(cfg.distribution)
            path = os.path.join(dump_dir, f"density_{law}_n{n}.csv")
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


def cmd_coeffs(cfg: ExperimentConfig, dump_dir=None):
    """Per-index table: b(r), B1(r) = -b(r), A1 and A2, the N_inf pair, r0
    and the verdicts.  b(r), r0 and the verdicts are read off the cached
    exact L_1 (:func:`~renyi_clt.expansion.b_coefficient` and
    :func:`~renyi_clt.expansion.sign_change_threshold`), and A1 and A2 are
    a_1 and a_2 of the once-per-law exact expansion, times int phi**r
    (:func:`~renyi_clt.expansion.gauss_power_mass`); the hand formulas
    :func:`~renyi_clt.expansion.a1_closed_form` and
    :func:`~renyi_clt.expansion.a2_from_integrals` are independent
    cross-checks, used by the benchmark and the tests.  It builds no
    density grid, so ``dump_dir`` is unused: the parser refuses
    ``--dump-density`` for it.
    """
    order = cfg.integer_order
    _, cums = _law(cfg, order)
    r0 = cfg.at_order(sign_change_threshold, cums)
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


def cmd_verify(cfg: ExperimentConfig, dump_dir=None):
    order = cfg.integer_order
    spec, cums = _law(cfg, order)
    if not cfg.n_values:
        raise ConfigError("verify needs n_values")
    expansions = {r: cfg.at_order(entropy_expansion if 1 < r < math.inf else limit_expansion,
                                  order, r, cums) for r in cfg.r_values}
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
            coeffs = expansions[r]
            h_num = numerics.renyi_entropy(grid, r)
            h_pred = gaussian_renyi_entropy(r) + coeffs.entropy_offset(n)
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
                    gaussian_entropy_power(r) * coeffs.entropy_power_factor(n),
                ]
            )
    return header, rows


def cmd_monotonicity(cfg: ExperimentConfig, dump_dir=None):
    spec, cums = _law(cfg, cfg.integer_order)
    predicted = {r: cfg.at_order(monotonicity_prediction, r, cums) for r in cfg.r_values}
    if len(cfg.n_values) < 3:
        raise ConfigError("monotonicity needs at least three n values")
    if any(b - a != 1 for a, b in zip(cfg.n_values, cfg.n_values[1:])):
        raise ConfigError("monotonicity needs a consecutive run of n values")
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
        match = "yes" if verdict == predicted[r] else "no"
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
                    predicted[r],
                    match,
                ]
            )
    return header, rows


def cmd_locallimit(cfg: ExperimentConfig, dump_dir=None):
    m = cfg.integer_order
    spec, cums = _law(cfg, m)
    if not cfg.n_values:
        raise ConfigError("locallimit needs n_values")
    if m > 6:
        raise ConfigError("locallimit needs moment_order <= 6")
    model = EdgeworthModel.from_cumulants(cums, order=m)
    grids = _grids(cfg, spec, dump_dir)
    # every grid of one config has the same points, so x, the weight, phi
    # and each Q_k(x) are evaluated once per block of x for every n
    xs = grids[cfg.n_values[0]].x
    starts = range(0, len(xs), _ERROR_BLOCK)
    peaks = np.empty((len(cfg.n_values), len(starts)))
    for b, lo in enumerate(starts):
        x = xs[lo:lo + _ERROR_BLOCK]
        weight = 1.0 + np.abs(x) ** m
        for i, (n, approx) in enumerate(zip(cfg.n_values, model.densities(cfg.n_values, x))):
            error = np.subtract(grids[n].values[lo:lo + len(x)], approx, out=approx)
            np.abs(error, out=error)
            error *= weight
            peaks[i, b] = error.max()
    errors = peaks.max(axis=1).tolist()
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

# the largest grid_points and n, both powers of two, as --help writes them
_MAX_POINTS, _MAX_N = (f"2**{v.bit_length() - 1}" for v in (numerics._EVAL_CAP, numerics.MAX_N))

_EPILOG = f"""commands:
  coeffs         expansion coefficient table per entropy index
  verify         measured vs predicted entropies per (n, r)
  monotonicity   finite differences of N_r(Z_n) vs predicted verdict
  locallimit     weighted sup distance of p_n from the corrected density

config keys:
{textwrap.fill(" | ".join(distributions.LAWS), 78, initial_indent="  distribution   ",
                subsequent_indent=" " * 17)}
  alpha          shape parameter (distribution = gamma)
  weights, means, sigmas   lists (distribution = gaussian_mixture)
  density_file   two-column UTF-8 CSV of finite x,p, after an optional header
                 (distribution = grid)
  r_values       entropy indexes: numbers > 1, 1 (Shannon), or "inf"
  n_values       strictly ascending positive integers
  moment_order   real s >= 2, moments finite up to s, floor(s) <= {_MAX_ORDER}, past which \
the exact expansion grows to seconds: coeffs, monotonicity \
need >= 4, verify >= 4 at r = 1 and >= 6 at r = inf, locallimit <= 6
  grid_points    inversion grid size, even, 1024..{_MAX_POINTS} \
(default {numerics.DEFAULT_GRID_POINTS})
  grid_extent    spatial half-width, >= {numerics._MIN_EXTENT} \
(default {numerics.DEFAULT_GRID_EXTENT})
  out            default output CSV path (overridden by --out)

exit codes: 0 success; 2 config error, including an n outside the law's
n_min..{_MAX_N}, grid_points above {_MAX_POINTS}, a malformed density_file and an
output CSV or density dump that cannot be written; 3 numerical failure,
including running out of memory
"""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renyi-clt",
        description="Verification experiments for entropy expansions of normalized sums",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="one of the commands below")
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", help="output CSV path (default: stdout or config 'out')")
    parser.add_argument("--dump-density", metavar="DIR", help=(
        "also dump every density grid as CSV (columns x, p_n); not for coeffs"))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "coeffs" and args.dump_density is not None:
        print("renyi-clt: error: coeffs builds no density to dump", file=sys.stderr)
        return 2
    dump_dir = args.dump_density
    made = dump_dir is not None and not os.path.lexists(dump_dir)
    try:
        cfg = load_config(args.config)
        out = args.out or cfg.out
        _prepare_outputs(out, dump_dir)
        header, rows = _COMMANDS[args.command](cfg, dump_dir=dump_dir)
        _write_rows(out, header, rows)
        return 0
    except ConfigError as exc:
        code, message = 2, f"config error: {exc}"
    except (numerics.GridError, ValueError, OverflowError, MemoryError) as exc:
        code, message = 3, f"numerical failure: {str(exc) or type(exc).__name__}"
    print(message, file=sys.stderr)
    if made:
        # a failed run takes back the dump directory it created, while empty
        with contextlib.suppress(OSError):
            os.rmdir(dump_dir)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
