import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import renyi_clt as rc
from renyi_clt import distributions, edgeworth, expansion, harness, numerics
from renyi_clt.harness import (
    ConfigError,
    ExperimentConfig,
    cmd_coeffs,
    cmd_locallimit,
    cmd_monotonicity,
    cmd_verify,
    load_config,
    main,
)
from oracles import one_shot_locallimit_errors, richardson
from renyi_clt.cumulants import _MAX_ORDER

FAST_GRID = {"grid_points": 2**14, "grid_extent": 12.0}


def write_config(tmp_path, name="cfg.json", **overrides):
    data = {"distribution": "uniform", "r_values": [2], "n_values": [8, 16]}
    data.update(FAST_GRID)
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


# -- config validation --------------------------------------------------------


def test_unknown_keys_rejected(tmp_path):
    path = write_config(tmp_path, extra_knob=1)
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(str(path))


def test_bad_r_values():
    with pytest.raises(ConfigError):
        ExperimentConfig({"distribution": "uniform", "r_values": [0.5]})
    with pytest.raises(ConfigError):
        ExperimentConfig({"distribution": "uniform", "r_values": ["infinite"]})
    with pytest.raises(ConfigError):
        ExperimentConfig({"distribution": "uniform", "r_values": []})


def test_bad_n_values():
    with pytest.raises(ConfigError, match="ascending"):
        ExperimentConfig({"distribution": "uniform", "n_values": [8, 8]})
    with pytest.raises(ConfigError):
        ExperimentConfig({"distribution": "uniform", "n_values": [0]})


def test_bad_moment_order():
    cfg = ExperimentConfig({"distribution": "uniform", "moment_order": _MAX_ORDER + 1})
    with pytest.raises(ConfigError):
        cmd_coeffs(cfg)


def test_bad_distribution_params():
    cfg = ExperimentConfig({"distribution": "gamma"})
    with pytest.raises(ConfigError):
        cfg.build_spec()


def test_exit_code_config_error(tmp_path, capsys):
    path = write_config(tmp_path, extra_knob=1)
    assert main(["coeffs", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_missing_config(capsys):
    assert main(["coeffs", "--config", "/nonexistent.json"]) == 2


def test_exit_code_numerical_failure(tmp_path, capsys):
    # 1024 points cannot resolve the triangle's kinks: the mass check fails
    path = write_config(tmp_path, n_values=[2], grid_points=1024)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [
        {"distribution": None},
        {"r_values": [10**400]},
        {"n_values": [2, 10**400]},
        {"distribution": "gamma", "alpha": 1e-320},
        {"distribution": "gamma", "alpha": 10**400},
        {"distribution": "gamma", "alpha": 2**1024},
        # a JSON true ran as Gamma(1)
        {"distribution": "gamma", "alpha": True},
        # a float cumulant overflowed (exit 3), and n_min = floor(1/alpha) + 1
        # failed with "cannot convert float infinity to integer"
        {"distribution": "gamma", "alpha": 1e-300},
        {"distribution": "gamma", "alpha": 5e-324},
        # law parameters beside a density_file were ignored, with exit 0
        {"distribution": "grid", "density_file": "table.csv", "alpha": 4},
        # json reads Infinity: "cannot convert Infinity to integer ratio"
        {"distribution": "gamma", "alpha": math.inf},
    ],
)
def test_null_law_and_out_of_float_range_values_are_config_errors(
    tmp_path, capsys, overrides
):
    # each of these raised AttributeError or OverflowError out of main
    path = write_config(tmp_path, **overrides)
    for command in ("coeffs", "verify"):
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        if overrides.get("alpha") in (1e-320, 1e-300, 5e-324):
            # a tiny alpha is named, with the overflow it causes
            assert f"alpha={overrides['alpha']}" in err and "overflow" in err
        if overrides.get("alpha") in (10**400, 2**1024):
            # was "int too large to convert to float", naming nothing
            assert err == "config error: alpha is too large: it overflows a float\n"
        if overrides.get("distribution") == "grid":
            assert err == (
                "config error: expected parameters ['density_file'], "
                "got ['alpha', 'density_file']\n"
            )
        if overrides.get("alpha") == math.inf:
            assert err == "config error: alpha must be finite\n"


@pytest.mark.parametrize(
    "command, extent", [("verify", 1e20), ("verify", 1e25), ("locallimit", 1e300)]
)
def test_grid_step_too_coarse_is_numerical_failure(tmp_path, capsys, command, extent):
    # these exited 0, printing h_2 = 38.8 and 52.1 for a predicted 1.25, and nan
    path = write_config(tmp_path, distribution="gamma", alpha=4, n_values=[8, 9],
                        moment_order=6, grid_points=1024, grid_extent=extent)
    start = time.perf_counter()
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: grid step ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, message",
    [
        (b'{"distribution": "uniform",}', "Expecting property name"),
        # these three ended in a traceback with exit 1
        (b'{"distribution": "gamma", "alpha": 1' + b"0" * 5000 + b"}", ""),
        (b'{"distribution": "uniform"\xff}', "'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100000 + b"]" * 100000, "recursion"),
    ],
    ids=["syntax", "5001-digits", "not-utf-8", "deep-nesting"],
)
def test_config_that_json_cannot_parse_is_config_error(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    assert main(["coeffs", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "mixture, message",
    [
        # standardized, but a signed measure: verify and coeffs ran on it
        ({"weights": [1.5, -0.5], "means": [0, 0], "sigmas": [2**0.5, 2]}, "non-negative"),
        # NaN passed every tolerance check and failed later, with exit 3
        ({"weights": [math.nan, 1], "means": [0, 0], "sigmas": [1, 1]}, "non-negative"),
        ({"weights": [0.5, 0.5], "means": [math.nan, 0], "sigmas": [1, 1]}, "means"),
        # JSON booleans read as 1 and 0: these ran as the standard normal
        ({"weights": [True, False], "means": [0, 0], "sigmas": [1, 1]}, "weights"),
        ({"weights": [1, 0], "means": [False, 0], "sigmas": [1, 1]}, "means"),
        ({"weights": [1, 0], "means": [0, 0], "sigmas": [True, 1]}, "sigmas"),
    ],
)
def test_malformed_mixture_is_config_error(tmp_path, capsys, mixture, message):
    path = write_config(tmp_path, distribution="gaussian_mixture", n_values=[2], **mixture)
    for command in ("coeffs", "verify"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert message in err


@pytest.mark.parametrize("density_file", [["table.csv"], 1.5, 12345, True])
def test_non_string_density_file_is_config_error(tmp_path, capsys, density_file):
    # an int would be opened as a file descriptor, 0 being standard input; a
    # JSON true is refused as a path too, not as a number like alpha's true
    path = write_config(tmp_path, distribution="grid", density_file=density_file)
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: grid distribution needs a density_file path\n"


# a standard normal table that GridDensity accepts, one row a line
_NORMAL_X = np.linspace(-12, 12, 2001)
_NORMAL_ROWS = [
    f"{x!r},{p!r}".encode() for x, p in zip(_NORMAL_X.tolist(), rc.normal_pdf(_NORMAL_X).tolist())
]


def _grid_config(tmp_path, rows, **overrides):
    table = tmp_path / "table.csv"
    table.write_bytes(b"x,p\n" + b"\n".join(rows) + b"\n")
    return write_config(tmp_path, distribution="grid", density_file=str(table),
                        n_values=[2], moment_order=4, **overrides)


@pytest.mark.parametrize(
    "row,message",
    [(b"0.5", "malformed density_file: line 1002 has 1 cells, not the two x,p"),
     (b"0.5,0.3,0.1", "malformed density_file: line 1002 has 3 cells, not the two x,p"),
     (b"0.5,abc", "malformed density_file: could not convert string to float: 'abc'"),
     (b"x,0.3", "malformed density_file: could not convert string to float: 'x'"),
     (b"0.5,\xff\xfe", "malformed density_file: 'utf-8' codec can't decode byte 0xff"),
     (b"0.5,nan", "x and p must be finite numbers"),
     (b"inf,0.3", "x and p must be finite numbers")],
    ids=["one-cell", "three-cells", "text", "x-after-rows", "non-utf8", "nan", "inf"],
)
def test_malformed_density_file_is_config_error(tmp_path, capsys, row, message):
    # each used to end in a traceback (exit 1) or a "numerical failure" (exit 3)
    rows = list(_NORMAL_ROWS)
    rows[1000] = row
    path = _grid_config(tmp_path, rows)
    assert main(["coeffs", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1, err


def test_grid_without_density_file_names_its_parameter(tmp_path, capsys):
    # the table is a row of distributions.LAWS, checked as every named law is
    path = write_config(tmp_path, distribution="grid")
    assert main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "config error: expected parameters ['density_file'], got []\n"
    )


def test_named_table_is_the_table_of_its_rows(tmp_path):
    # from_name reads the file into the very GridDensity that its rows build
    path = tmp_path / "table.csv"
    path.write_bytes(b"x,p\n" + b"\n".join(_NORMAL_ROWS) + b"\n")
    named = rc.from_name("grid", density_file=str(path))
    built = rc.GridDensity(_NORMAL_X, rc.normal_pdf(_NORMAL_X))
    assert named.x.tobytes() == built.x.tobytes()
    assert named.p.tobytes() == built.p.tobytes()
    assert (named.h, named.support) == (built.h, built.support)
    lattice = distributions.Lattice(3, 5000, math.pi / 12, math.sqrt(2.0))
    assert named.cf(lattice).tobytes() == built.cf(lattice).tobytes()
    assert repr(named) == f"GridDensity(density_file={path})"
    assert repr(built) == "GridDensity(density_file=None)"


def test_non_numeric_grid_extent_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, grid_extent="x")
    assert main(["verify", "--config", str(path)]) == 2
    assert "grid_extent" in capsys.readouterr().err


def test_overflowing_grid_step_is_config_error(tmp_path, capsys):
    # 2 * 1e308 overflows, so the grid step would be infinite
    path = write_config(tmp_path, grid_extent=1e308)
    assert main(["verify", "--config", str(path)]) == 2
    assert "grid_extent" in capsys.readouterr().err


def test_odd_grid_points_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, grid_points=1025)
    assert main(["verify", "--config", str(path)]) == 2
    assert "grid_points" in capsys.readouterr().err


def test_grid_points_above_the_eval_cap_is_config_error(tmp_path, capsys):
    # a grid past 2**27 points would fold one period beyond the cf
    # evaluation cap; it is refused before any array is allocated
    path = write_config(tmp_path, n_values=[2], grid_points=2**27 + 2)
    tracemalloc.start()
    try:
        assert main(["verify", "--config", str(path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "134217728" in err
    assert err.count("\n") == 1
    with pytest.raises(ValueError, match="134217728"):
        numerics.density_of_normalized_sum(rc.Uniform(), 2, npoints=2**27 + 2)


@pytest.mark.parametrize(
    "error", [MemoryError(), MemoryError("Unable to allocate 1.00 GiB for an array")]
)
def test_out_of_memory_is_numerical_failure(tmp_path, capsys, monkeypatch, error):
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(numerics, "density_of_normalized_sum", exhausted)
    path = write_config(tmp_path)
    assert main(["verify", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: ") and captured.err.count("\n") == 1
    assert (str(error) or "MemoryError") in captured.err and captured.out == ""


def test_underflowing_gauss_mass_is_numerical_failure(tmp_path, capsys):
    # int phi**r underflows to 0 at r = 1e308: a one-line failure, exit 3
    path = write_config(tmp_path, r_values=[1e308])
    assert main(["verify", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "underflows" in err
    assert err.count("\n") == 1


def test_n_below_n_min_is_config_error(tmp_path, capsys):
    # n = 1 is below n_min for the uniform law
    path = write_config(tmp_path, n_values=[1, 2])
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "n_min=2" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("r", [1e200, 1e308])
def test_non_finite_a2_is_numerical_failure(tmp_path, capsys, r):
    # (r)_4 overflows while the Gaussian integrals underflow; the CLI stops
    # one step earlier, at A_1, whose int phi**r factor underflows
    cums = rc.standard_cumulants("uniform", order=6)
    with pytest.raises(ValueError, match="not finite"):
        rc.a2_from_integrals(r, cums)
    path = write_config(tmp_path, r_values=[r], moment_order=6)
    assert main(["coeffs", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure:") and "underflows" in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("r", [790, 800, 1000, 1e5])
def test_underflowing_a1_is_numerical_failure(tmp_path, capsys, r):
    # int phi**r underflows while the bracket of A_1 is not 0: no silent -0
    # and no subnormal A_1 printed to 17 digits
    path = write_config(tmp_path, r_values=[r], moment_order=4)
    assert main(["coeffs", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure:")
    assert "int phi**r underflows" in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_a1_at_r500_is_finite(tmp_path, capsys):
    path = write_config(tmp_path, r_values=[500], moment_order=4)
    assert main(["coeffs", "--config", str(path)]) == 0
    header, row = (ln.split(",") for ln in capsys.readouterr().out.splitlines())
    a1 = float(row[header.index("a1")])
    assert math.isfinite(a1) and a1 < 0


@pytest.mark.parametrize(
    "key,value",
    [("grid_points", 1025), ("grid_points", 1022), ("grid_extent", 11.9),
     ("grid_extent", 1e308), ("r_values", [0.5]), ("r_values", [-3])],
    ids=["odd_points", "points_below_1024", "narrow", "overflowing_step", "r_half", "r_negative"],
)
def test_config_refuses_in_the_library_words(key, value):
    # the config applies the library's own rule, so its error carries the
    # ValueError of the function that enforces it, word for word
    data = {"distribution": "uniform", "r_values": [2], "n_values": [8], **FAST_GRID, key: value}
    with pytest.raises(ValueError) as library:
        if key == "r_values":
            rc.b_coefficient(value[0], rc.standard_cumulants("uniform", order=4))
        else:
            rc.density_of_normalized_sum(rc.Uniform(), 8, data["grid_points"], data["grid_extent"])
    with pytest.raises(ConfigError) as config:
        ExperimentConfig(data)
    assert str(library.value) in str(config.value)
    assert key in str(config.value)


@pytest.mark.parametrize(
    "command,order,r,library",
    [("coeffs", 3, 2, rc.sign_change_threshold),
     ("monotonicity", 3, 2, lambda cums: rc.monotonicity_prediction(2, cums)),
     ("verify", 3, 1, lambda cums: rc.limit_expansion(3, 1, cums)),
     ("verify", 4, "inf", lambda cums: rc.limit_expansion(4, math.inf, cums))],
    ids=["coeffs", "monotonicity", "verify_r1", "verify_rinf"],
)
def test_order_refusals_in_the_library_words(tmp_path, capsys, monkeypatch, command, order, r,
                                            library):
    # each command's moment-order need is stated by the library routine that
    # has it; the CLI reports that routine's ValueError after moment_order=,
    # on one line, before it builds any grid
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(numerics, "density_of_normalized_sum", no_grid)
    with pytest.raises(ValueError) as refusal:
        library(rc.standard_cumulants("uniform", order=order))
    path = write_config(tmp_path, r_values=[r], n_values=[8, 9, 10], moment_order=order)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == f"config error: moment_order={order}: {refusal.value}\n"


@pytest.mark.parametrize(
    "order", [True, math.nan, "8", 0, 1.5, _MAX_ORDER + 1, 10**300],
    ids=["true", "nan", "string", "0", "1.5", "past_ceiling", "1e300"],
)
@pytest.mark.parametrize("command", sorted(harness._COMMANDS))
def test_moment_order_outside_the_served_range(tmp_path, capsys, monkeypatch, command, order):
    # the config takes any finite number, and standard_cumulants serves
    # orders 2.._MAX_ORDER: anything else exits 2 at once, on one line that
    # names moment_order, before any moment past the ceiling or any grid
    def no_grid(*args):
        raise AssertionError("a grid was built")

    def moments(self, k):
        assert k <= _MAX_ORDER, "moments past the ceiling"
        return served(self, k)

    served = distributions.Uniform.moments
    monkeypatch.setattr(numerics, "density_of_normalized_sum", no_grid)
    monkeypatch.setattr(distributions.Uniform, "moments", moments)
    path = write_config(tmp_path, r_values=[2], n_values=[8, 9, 10], moment_order=order)
    start = time.perf_counter()
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith("config error: moment_order") and err.count("\n") == 1, err
    assert not (tmp_path / "o.csv").exists()
    if harness._finite_real(order) is not None:
        # a number is the library's refusal, word for word, after the order
        # as given, or to six digits when its digits would fill the line
        with pytest.raises(ValueError) as refusal:
            rc.standard_cumulants("uniform", order=math.floor(order))
        echoed = "1e+300" if order == 10**300 else order
        assert err == f"config error: moment_order={echoed}: {refusal.value}\n"


def test_underflowing_lr_integral_is_named(tmp_path, capsys):
    path = write_config(tmp_path, r_values=[1e308], n_values=[8, 9, 10])
    assert main(["monotonicity", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "p**r underflows" in err
    assert "degenerate" not in err
    assert err.count("\n") == 1


def test_eval_cap_hit_warns(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, n_values=[2, 3])
    out_plain = tmp_path / "plain.csv"
    assert main(["verify", "--config", str(path), "--out", str(out_plain)]) == 0
    assert capsys.readouterr().err == ""
    # room for eight periods only: the n = 2 grid is kept, flagged and warned
    # about; the CSV layout is unchanged
    monkeypatch.setattr(numerics, "_EVAL_CAP", 8 * FAST_GRID["grid_points"])
    out_capped = tmp_path / "capped.csv"
    assert main(["verify", "--config", str(path), "--out", str(out_capped)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: n=2 ") and "cap after 8 periods" in err
    assert err.count("\n") == 1
    plain, capped = read_rows(out_plain), read_rows(out_capped)
    assert plain[0] == capped[0]
    assert [row["n"] for row in plain[1]] == [row["n"] for row in capped[1]]


# -- coeffs -------------------------------------------------------------------


def test_coeffs_uniform(tmp_path):
    cfg = ExperimentConfig(
        {"distribution": "uniform", "r_values": [2, "inf"], "moment_order": 8}
    )
    header, rows = cmd_coeffs(cfg)
    assert header[:3] == ["r", "b", "B1"]
    r2 = rows[0]
    assert float(r2[1]) == pytest.approx(3 / 40)
    assert r2[-1] == "eventually_decreasing"
    assert r2[-2] == "none"  # r0 undefined for gamma_3 = 0
    inf_row = rows[1]
    assert inf_row[0] == "inf"
    assert float(inf_row[1]) == pytest.approx(0.15)
    assert float(inf_row[5]) == pytest.approx(-0.3)  # A_tilde


def test_coeffs_gamma_alpha1(tmp_path):
    # gamma_3 = 2, gamma_4 = 6 > (2/3) gamma_3^2: B1 > 0 for every r, no r0
    cfg = ExperimentConfig(
        {"distribution": "gamma", "alpha": 1, "r_values": [2, 5], "moment_order": 6}
    )
    _, rows = cmd_coeffs(cfg)
    for row in rows:
        assert row[-2] == "none"
        assert float(row[2]) > 0  # B1
        assert row[-1] == "eventually_increasing"


def test_coeffs_gaussian_all_zero():
    cfg = ExperimentConfig(
        {"distribution": "gaussian", "r_values": [2, 3, "inf"], "moment_order": 8}
    )
    _, rows = cmd_coeffs(cfg)
    for row in rows:
        assert float(row[1]) == 0.0
        assert float(row[2]) == 0.0
        assert row[-1] == "indeterminate"


def test_coeffs_needs_order4():
    cfg = ExperimentConfig({"distribution": "uniform", "moment_order": 3})
    with pytest.raises(ConfigError):
        cmd_coeffs(cfg)


COEFF_LAWS = {
    "gamma4": {"distribution": "gamma", "alpha": 4},
    "gamma1": {"distribution": "gamma", "alpha": 1},
    "gamma2.5": {"distribution": "gamma", "alpha": 2.5},
    "uniform": {"distribution": "uniform"},
    "laplace": {"distribution": "two_sided_exponential"},
    "dyadic_mixture": {
        "distribution": "gaussian_mixture",
        "weights": [0.25, 0.75],
        "means": [1.5, -0.5],
        "sigmas": [0.5, 0.5],
    },
}
COEFF_RS = [1.005, 1.25, 1.628, 2, 3.366, 7.9, 100, 500]


@pytest.mark.parametrize("law", sorted(COEFF_LAWS))
def test_coeffs_a1_a2_match_hand_formulas(law):
    # A_1, A_2 come from the cached exact a_j; the hand formulas check them
    cfg = ExperimentConfig({**COEFF_LAWS[law], "r_values": COEFF_RS, "moment_order": 6})
    header, rows = cmd_coeffs(cfg)
    cums = rc.standard_cumulants(cfg.build_spec(), order=6)
    for r, row in zip(COEFF_RS, rows):
        a1, a2 = row[header.index("a1")], row[header.index("a2")]
        assert a1 == pytest.approx(rc.a1_closed_form(r, cums), rel=1e-13, abs=0)
        assert a2 == pytest.approx(rc.a2_from_integrals(r, cums), rel=1e-13, abs=0)


_SYMBOLIC_BUILDERS = (
    expansion._laurent_numerators,
    expansion._all_log_polynomials,
    edgeworth._correction_polynomials,
)


def _clear_symbolic_caches():
    for builder in _SYMBOLIC_BUILDERS:
        builder.cache_clear()


def test_coeffs_builds_once_per_law(tmp_path):
    # the polynomial work happens once per law: further indices only evaluate
    def builds(r_values):
        _clear_symbolic_caches()
        path = write_config(
            tmp_path, distribution="gamma", alpha=4, r_values=r_values, moment_order=8
        )
        assert main(["coeffs", "--config", str(path), "--out", str(tmp_path / "c.csv")]) == 0
        return [builder.cache_info().misses for builder in _SYMBOLIC_BUILDERS]

    assert builds([2.5]) == builds(COEFF_RS) == [1, 1, 1]


def test_coeffs_and_verify_build_each_q_once(tmp_path):
    _clear_symbolic_caches()
    path = write_config(
        tmp_path,
        distribution="gamma",
        alpha=4,
        r_values=[1.5, 2, 1, "inf"],
        n_values=[16, 32],
        moment_order=8,
    )
    def misses():
        return [builder.cache_info().misses for builder in _SYMBOLIC_BUILDERS]

    laurent = expansion._laurent_numerators.cache_info
    assert main(["coeffs", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 0
    # one build of Q_1..Q_6, of the a_j and of the L_j for the order-8
    # cumulants, shared by b(r), every a_j and every limit
    assert misses() == [1, 1, 1]
    hits = laurent().hits
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 0
    # verify takes every a_j, and so every Q_k, from the law's build: no new one
    assert misses() == [1, 1, 1] and laurent().hits > hits


# -- verify -------------------------------------------------------------------


def test_verify_gaussian_residuals(tmp_path):
    cfg = ExperimentConfig(
        {
            "distribution": "gaussian",
            "r_values": [2, 1, "inf"],
            "n_values": [2, 4],
            "moment_order": 6,
            **FAST_GRID,
        }
    )
    header, rows = cmd_verify(cfg)
    assert header[0] == "n"
    for row in rows:
        assert abs(row[4]) < 1e-7  # residual


def test_verify_integrates_each_renyi_entropy_once(monkeypatch):
    # N_r is exp(2 h_r) of the h_r already computed, not a second quadrature
    def fail(grid, r):
        raise AssertionError("entropy_power integrates p**r again")

    monkeypatch.setattr(numerics, "entropy_power", fail)
    cfg = ExperimentConfig(
        {"distribution": "gamma", "alpha": 4, "r_values": [2, 3.5], "n_values": [8],
         **FAST_GRID}
    )
    _, rows = cmd_verify(cfg)
    assert [row[6] for row in rows] == [math.exp(2.0 * row[2]) for row in rows]


def test_verify_requires_order_for_special_r():
    with pytest.raises(ConfigError, match="inf"):
        cmd_verify(
            ExperimentConfig(
                {
                    "distribution": "uniform",
                    "r_values": ["inf"],
                    "n_values": [8],
                    "moment_order": 4,
                }
            )
        )
    with pytest.raises(ConfigError, match="r = 1"):
        cmd_verify(
            ExperimentConfig(
                {
                    "distribution": "uniform",
                    "r_values": [1],
                    "n_values": [8],
                    "moment_order": 3,
                }
            )
        )


def test_verify_scaled_residual_coherence(grid_for):
    # with s = 4 the single-term prediction carries the o(n^-1) claim:
    # |residual| * n is non-increasing over the top octave
    cfg = ExperimentConfig(
        {
            "distribution": "uniform",
            "r_values": [2],
            "n_values": [32, 64, 128, 256],
            "moment_order": 4,
        }
    )
    _, rows = cmd_verify(cfg)
    scaled = [abs(row[5]) for row in rows]
    assert scaled[-1] <= scaled[-2] <= scaled[-3]


def test_second_order_coefficient_against_measurements(grid_for):
    # b_2 has no closed form here; the series pipeline produces it from
    # a_1, a_2, and the measured entropies confirm it at desk scale:
    # n^2 (h_2(Z_n) - h_2(Z) - b_1/n) -> b_2
    import renyi_clt as rc

    cums = rc.standard_cumulants("uniform", order=8)
    coeffs = rc.entropy_expansion(8, 2.0, cums)
    b1, b2 = coeffs.b[0], coeffs.b[1]
    h_gauss = rc.gaussian_renyi_entropy(2)
    est = {
        n: n * n * (rc.renyi_entropy(grid_for("uniform", n), 2) - h_gauss - b1 / n)
        for n in (128, 256)
    }
    assert richardson(est[128], est[256]) == pytest.approx(b2, rel=1e-2)


@pytest.mark.parametrize("r", [1, math.inf])
def test_third_order_limit_coefficient_against_measurements(grid_for, r):
    # b_3 at r = 1 and r = inf comes from the same exact L_3 as at finite r;
    # n**3 (h_r(Z_n) - h_r(Z) - b_1/n - b_2/n**2) -> b_3 on Gamma(4)
    import renyi_clt as rc

    cums = rc.standard_cumulants("gamma", order=8, alpha=4)
    b1, b2, b3 = rc.limit_expansion(8, r, cums).b
    h_gauss = rc.gaussian_renyi_entropy(r)
    for n in (32, 64, 128):
        h = rc.renyi_entropy(grid_for("gamma4", n), r)
        assert n**3 * (h - h_gauss - b1 / n - b2 / n**2) == pytest.approx(b3, rel=2e-2)


def test_limit_rows_carry_every_term():
    # r = 1 and r = inf predictions run to the moment order like finite r:
    # at n = 64 on Gamma(4) the first-order rows missed by 1.3e-6 and 1e-8
    cfg = ExperimentConfig(
        {"distribution": "gamma", "alpha": 4, "r_values": [1, "inf"],
         "n_values": [64], "moment_order": 8}
    )
    _, rows = cmd_verify(cfg)
    assert [row[1] for row in rows] == ["1", "inf"]
    assert all(abs(row[4]) < 1e-10 for row in rows)


def test_irrational_shape_float_pipeline():
    # sqrt(alpha) irrational: cumulants degrade to floats and every layer
    # downstream (corrections, coefficients, verdicts) still works
    import renyi_clt as rc

    cums = rc.standard_cumulants("gamma", order=6, alpha=2.5)
    assert isinstance(cums.gamma(3), float)
    assert cums.gamma(3) == pytest.approx(2 / math.sqrt(2.5), rel=1e-14)
    assert cums.gamma(4) == pytest.approx(6 / 2.5, rel=1e-14)
    assert float(rc.b_coefficient(2, cums)) == pytest.approx(-0.15, rel=1e-13)
    assert rc.monotonicity_prediction(2, cums) == rc.INCREASING
    mass = rc.gauss_power_mass(2.0)
    assert rc.a_coefficient(1, 2.0, cums) * mass == pytest.approx(
        rc.a1_closed_form(2.0, cums), rel=1e-10
    )
    cfg = ExperimentConfig(
        {
            "distribution": "gamma",
            "alpha": 2.5,
            "r_values": [2],
            "n_values": [8, 16],
            "moment_order": 6,
            **FAST_GRID,
        }
    )
    _, rows = cmd_verify(cfg)
    for row in rows:
        assert abs(row[4]) < 1e-3  # residual beyond second order only


def test_laplace_coeffs_and_verify():
    # gamma_4 = 3 for the two-sided exponential: b(2) = -3/16, N_2 increasing
    cfg = ExperimentConfig(
        {
            "distribution": "two_sided_exponential",
            "r_values": [2],
            "n_values": [8, 16],
            "moment_order": 6,
            **FAST_GRID,
        }
    )
    _, rows = cmd_coeffs(cfg)
    assert float(rows[0][1]) == pytest.approx(-3 / 16)
    assert rows[0][-1] == "eventually_increasing"
    _, vrows = cmd_verify(cfg)
    for row in vrows:
        assert abs(row[4]) < 1e-3


def test_asymmetric_mixture_verify():
    cfg = ExperimentConfig(
        {
            "distribution": "gaussian_mixture",
            "weights": [0.25, 0.75],
            "means": [1.5, -0.5],
            "sigmas": [0.5, 0.5],
            "r_values": [2, "inf"],
            "n_values": [16, 32],
            "moment_order": 6,
            **FAST_GRID,
        }
    )
    _, rows = cmd_verify(cfg)
    for row in rows:
        assert abs(row[4]) < 1e-3
    # residual shrinks with n for each r
    assert abs(rows[2][4]) < abs(rows[0][4])
    assert abs(rows[3][4]) < abs(rows[1][4])


@pytest.mark.parametrize("command", ["coeffs", "verify", "monotonicity"])
def test_order_20_runs(tmp_path, command):
    # the config keeps no order rule: at moment order 20 on Gamma(4) each
    # command exits 0, and verify's b_1..b_9 leave residuals near rounding
    # where order 8 leaves 1.5e-8 at n = 8
    path = write_config(tmp_path, distribution="gamma", alpha=4, r_values=[1.5, 2, 1, "inf"],
                        n_values=[8, 9, 10], moment_order=20)
    out = tmp_path / "o.csv"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    rows = read_rows(out)[1]
    assert len(rows) == (4 if command == "coeffs" else 12)
    if command == "verify":
        assert all(abs(float(row["residual"])) < 1e-12 for row in rows)


def test_next_terms_explain_the_order8_residual(tmp_path):
    # on the dyadic mixture at n = 128 the order-8 residual of verify is the
    # b_4 n**-4 + b_5 n**-5 that moment order 12 adds to its prediction, to
    # within 1 % at each r (measured 1.0004, 1.0003, 1.0007, 0.9989 and
    # 0.9948 on this grid, 0.9954 at r = 1 on the default one)
    r_values = [1.5, 2, 3, "inf", 1]
    rows = {}
    for order in (8, 12):
        path = write_config(tmp_path, distribution="gaussian_mixture", weights=[0.25, 0.75],
                            means=[1.5, -0.5], sigmas=[0.5, 0.5], r_values=r_values,
                            n_values=[128], moment_order=order)
        out = tmp_path / f"order{order}.csv"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
        rows[order] = read_rows(out)[1]
    for row8, row12 in zip(rows[8], rows[12]):
        extra = float(row12["h_r_predicted"]) - float(row8["h_r_predicted"])
        assert float(row8["residual"]) / extra == pytest.approx(1, rel=0.01), row8["r"]


def test_locallimit_slope_via_command():
    cfg = ExperimentConfig(
        {
            "distribution": "uniform",
            "n_values": [16, 32, 64],
            "moment_order": 4,
            **FAST_GRID,
        }
    )
    _, rows = cmd_locallimit(cfg)
    assert rows[0][2] <= -0.9  # fitted slope, theory -1 (here ~ -2, symmetric)


def test_verify_uniform_rate(tmp_path):
    cfg = ExperimentConfig(
        {
            "distribution": "uniform",
            "r_values": [2],
            "n_values": [64, 128],
            "moment_order": 6,
        }
    )
    _, rows = cmd_verify(cfg)
    h_gauss = 0.5 * math.log(2 * math.pi) + math.log(2.0) / 2
    ests = [n * (row[2] - h_gauss) for n, row in zip((64, 128), rows)]
    assert richardson(*ests) == pytest.approx(3 / 40, rel=0.05)


# -- monotonicity -------------------------------------------------------------


def test_monotonicity_requires_consecutive():
    cfg = ExperimentConfig(
        {"distribution": "uniform", "r_values": [2], "n_values": [8, 10, 12]}
    )
    with pytest.raises(ConfigError, match="consecutive"):
        cmd_monotonicity(cfg)


def test_monotonicity_needs_order4(tmp_path, capsys):
    # at moment order 3 it read Gamma(4)'s gamma_4 all the same and printed a
    # verdict predicted from b_1, with exit 0, where coeffs refused
    path = write_config(tmp_path, distribution="gamma", alpha=4, n_values=[8, 9, 10],
                        moment_order=3)
    for command in ("monotonicity", "coeffs"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == (
            "config error: moment_order=3: insufficient cumulant order: need 4, have 3\n")


def test_monotonicity_uniform_short_run():
    cfg = ExperimentConfig(
        {
            "distribution": "uniform",
            "r_values": [2],
            "n_values": list(range(8, 21)),
            "moment_order": 6,
            **FAST_GRID,
        }
    )
    header, rows = cmd_monotonicity(cfg)
    assert rows[0][header.index("predicted_verdict")] == "eventually_decreasing"
    assert rows[0][header.index("empirical_verdict")] == "eventually_decreasing"
    assert rows[0][header.index("match")] == "yes"
    signs = [r[header.index("sign")] for r in rows if r[header.index("sign")] is not None]
    assert all(s == -1 for s in signs)


def test_monotonicity_gamma_increasing():
    cfg = ExperimentConfig(
        {
            "distribution": "gamma",
            "alpha": 4,
            "r_values": [2],
            "n_values": list(range(8, 16)),
            "moment_order": 6,
            **FAST_GRID,
        }
    )
    header, rows = cmd_monotonicity(cfg)
    assert rows[0][header.index("predicted_verdict")] == "eventually_increasing"
    assert rows[0][header.index("match")] == "yes"
    signs = [r[header.index("sign")] for r in rows if r[header.index("sign")] is not None]
    assert all(s == 1 for s in signs)


def test_monotonicity_gaussian_indeterminate():
    cfg = ExperimentConfig(
        {
            "distribution": "gaussian",
            "r_values": [2],
            "n_values": [4, 5, 6, 7],
            "moment_order": 6,
            **FAST_GRID,
        }
    )
    header, rows = cmd_monotonicity(cfg)
    assert rows[0][header.index("empirical_verdict")] == "indeterminate"
    assert rows[0][header.index("predicted_verdict")] == "indeterminate"


# -- locallimit ----------------------------------------------------------------


def test_locallimit_gaussian_tiny_errors():
    cfg = ExperimentConfig(
        {
            "distribution": "gaussian",
            "n_values": [2, 4, 8],
            "moment_order": 4,
            **FAST_GRID,
        }
    )
    _, rows = cmd_locallimit(cfg)
    for row in rows:
        assert row[1] < 1e-7


def test_locallimit_rejects_large_order():
    cfg = ExperimentConfig(
        {"distribution": "uniform", "n_values": [8], "moment_order": 7}
    )
    with pytest.raises(ConfigError, match="<= 6"):
        cmd_locallimit(cfg)


@pytest.mark.parametrize("points", [1024, 2**15, 2**15 + 2, numerics.DEFAULT_GRID_POINTS])
def test_locallimit_blocks_equal_the_one_shot_error(points):
    # the error is taken block by block of x, one ragged at 2**15 + 2
    # points; each error is still the whole grid's maximum, to the bit
    cfg = ExperimentConfig({"distribution": "gamma", "alpha": 4, "n_values": [4, 8, 16, 64],
                            "moment_order": 6, "grid_points": points})
    _, rows = cmd_locallimit(cfg)
    spec, cums = harness._law(cfg, 6)
    model = edgeworth.EdgeworthModel.from_cumulants(cums, order=6)
    expected = one_shot_locallimit_errors(model, harness._grids(cfg, spec), cfg.n_values)
    assert [row[1] for row in rows] == expected


def test_locallimit_uniform_decreasing():
    cfg = ExperimentConfig(
        {
            "distribution": "uniform",
            "n_values": [16, 32, 64],
            "moment_order": 2,
            **FAST_GRID,
        }
    )
    _, rows = cmd_locallimit(cfg)
    errs = [row[1] for row in rows]
    assert errs[2] < errs[1] < errs[0]


# -- CLI end-to-end ------------------------------------------------------------


def test_cli_writes_csv_and_is_deterministic(tmp_path):
    path = write_config(
        tmp_path, r_values=[2, 1, "inf"], n_values=[4, 8], moment_order=6
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["verify", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["verify", "--config", str(path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = read_rows(out1)
    assert header == [
        "n", "r", "h_r_numeric", "h_r_predicted", "residual",
        "scaled_residual", "N_r_numeric", "N_r_predicted",
    ]
    assert [row["r"] for row in rows[:3]] == ["2", "1", "inf"]
    assert len(rows) == 6


def test_cli_stdout_when_no_out(tmp_path, capsys):
    path = write_config(tmp_path, r_values=[2], n_values=[])
    assert main(["coeffs", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("r,b,B1")


def test_cli_dump_density(tmp_path):
    grid = rc.density_of_normalized_sum(rc.Uniform(), 4, npoints=2**14, extent=12.0)
    # a dump is named after the law's table key, the name as from_name reads it
    for i, name in enumerate(["uniform", " Uniform "]):
        path = write_config(tmp_path, n_values=[4], distribution=name)
        dump = tmp_path / f"dumps{i}"
        assert (
            main(
                [
                    "verify",
                    "--config",
                    str(path),
                    "--out",
                    str(tmp_path / "v.csv"),
                    "--dump-density",
                    str(dump),
                ]
            )
            == 0
        )
        files = sorted(dump.iterdir())
        assert [f.name for f in files] == ["density_uniform_n4.csv"]
        # every x and p_n round-trips through its 17 significant digits
        lines = files[0].read_text().splitlines()
        assert lines[0] == "x,p_n"
        assert len(lines) == len(grid.values) + 1
        table = np.array([[float(cell) for cell in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(table[:, 0], grid.x) and np.array_equal(table[:, 1], grid.values)
        assert float(lines[1].split(",")[0]) == grid.x0


def test_failed_run_takes_back_its_dump_directory(tmp_path, capsys, monkeypatch):
    # a run that fails leaves no empty --dump-density directory of its own
    # making; a directory that was there, or that holds dumps, stays
    def run(command, dump, out="o.csv", **overrides):
        path = write_config(tmp_path, **overrides)
        return main([command, "--config", str(path), "--out", str(tmp_path / out),
                     "--dump-density", str(dump)])

    below_n_min = tmp_path / "nd2"
    assert run("verify", below_n_min, n_values=[1, 2]) == 2
    assert "n_min" in capsys.readouterr().err
    assert not below_n_min.exists()
    order3 = tmp_path / "order3"
    assert run("monotonicity", order3, n_values=[8, 9, 10], moment_order=3) == 2
    assert not order3.exists()
    unwritable_out = tmp_path / "unwritable_out"
    assert run("verify", unwritable_out, out="missing/o.csv") == 2
    assert not unwritable_out.exists()
    existing = tmp_path / "existing"
    existing.mkdir()
    assert run("verify", existing, n_values=[1, 2]) == 2
    assert existing.is_dir()
    # only the leaf is made: a missing parent is a config error before any work
    capsys.readouterr()
    nested = tmp_path / "outer" / "inner"
    assert run("verify", nested, n_values=[1, 2]) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot write {nested}: No such file or directory\n")
    assert not (tmp_path / "outer").exists()

    def fail(*args):
        raise ValueError("no entropy")

    monkeypatch.setattr(numerics, "renyi_entropy", fail)
    dumped = tmp_path / "dumped"
    assert run("verify", dumped, n_values=[8]) == 3
    assert [f.name for f in dumped.iterdir()] == ["density_uniform_n8.csv"]
    capsys.readouterr()


def _capture_grids(monkeypatch):
    """Grids the harness builds, and the length of every inverse FFT run."""
    grids, lengths = [], []
    invert, irfft = numerics.density_of_normalized_sum, np.fft.irfft

    def density(*args, **kwargs):
        grids.append(invert(*args, **kwargs))
        return grids[-1]

    def counted_irfft(a, n=None, *args, **kwargs):
        lengths.append(n)
        return irfft(a, n, *args, **kwargs)

    monkeypatch.setattr(numerics, "density_of_normalized_sum", density)
    monkeypatch.setattr(np.fft, "irfft", counted_irfft)
    return grids, lengths


@pytest.mark.parametrize("command", [cmd_verify, cmd_monotonicity])
def test_band_grids_skip_the_full_inverse_fft(monkeypatch, command):
    # verify and monotonicity read only functionals of band grids, which run
    # on max(1024, 4M) samples: the 2**17-point grid is never built
    grids, lengths = _capture_grids(monkeypatch)
    cfg = ExperimentConfig(
        {"distribution": "gamma", "alpha": 4, "r_values": [1.5, 2, 1, "inf"],
         "n_values": [8, 9, 10], "moment_order": 6}
    )
    command(cfg)
    assert len(grids) == 3
    for grid in grids:
        assert grid.band > 0
        assert (len(grid), grid.x0, grid.h) == (2**17, -16.0, 32.0 / 2**17)
    assert lengths and max(lengths) <= 4 * max(grid.band for grid in grids)


def _hide_envelope(monkeypatch):
    """Make gamma grids evaluate their full first period: no band."""
    monkeypatch.setattr(rc.StandardizedGamma, "cf_envelope", lambda self, t: None)


def test_band_grid_dump_and_locallimit_match_full_period(tmp_path, monkeypatch):
    # the N samples a band grid builds on demand are those of the full first
    # period bit for bit, so dumps and locallimit rows are byte-identical
    cfg = {"distribution": "gamma", "alpha": 4, "n_values": [8, 16],
           "moment_order": 4, **FAST_GRID}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outputs = []
    for hidden in (False, True):
        if hidden:
            _hide_envelope(monkeypatch)
        grids, _ = _capture_grids(monkeypatch)
        dump = tmp_path / f"dump{int(hidden)}"
        out = tmp_path / f"local{int(hidden)}.csv"
        argv = ["locallimit", "--config", str(path), "--out", str(out)]
        assert main(argv + ["--dump-density", str(dump)]) == 0
        assert [grid.band > 0 for grid in grids] == [not hidden] * 2
        files = sorted(dump.iterdir())
        assert len(files[0].read_text().splitlines()) == FAST_GRID["grid_points"] + 1
        outputs.append([out.read_bytes()] + [f.read_bytes() for f in files])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["verify", "locallimit"])
@pytest.mark.parametrize(
    "law",
    [{"distribution": "uniform"}, {"distribution": "gamma", "alpha": 4},
     {"distribution": "two_sided_exponential"}, {"distribution": "gaussian"}],
)
def test_huge_n_exits_at_once(tmp_path, capsys, command, law):
    # beyond numerics.MAX_N the powered cf's rounding error alone exceeds the
    # mass tolerance; such an n used to fold for seconds before failing.  The
    # inversion refuses it as an argument, a config error like n < n_min
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**law, "n_values": [3, 10**300], "grid_points": 1024}))
    start = time.perf_counter()
    code = main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")])
    assert code == 2 and time.perf_counter() - start < 1.0
    assert "above 8589934592" in capsys.readouterr().err


@lru_cache(maxsize=1)
def _verify_help():
    """``verify --help`` of the CLI, run once in a child process, which finds
    the package under test without an install."""
    src = str(Path(rc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "renyi_clt.harness", "verify", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )


def test_cli_help_mentions_config_keys():
    proc = _verify_help()
    assert proc.returncode == 0
    for key in ("distribution", "r_values", "n_values", "moment_order",
                "grid_points", "grid_extent"):
        assert key in proc.stdout
    assert f"floor(s) <= {_MAX_ORDER}, " in proc.stdout


def test_cli_usage_errors_exit_2(tmp_path, capsys):
    path = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--config", str(path)])
    assert exc.value.code == 2
    capsys.readouterr()
    # coeffs builds no grid, so a dump directory is a usage error, on one line
    assert main(["coeffs", "--config", str(path), "--dump-density", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err == "renyi-clt: error: coeffs builds no density to dump\n"
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("name", sorted(distributions.LAWS))
def test_every_named_law_is_documented_and_takes_exactly_its_parameters(name):
    # one table row is the whole of a law's wiring: the config keys come
    # from it, and --help must name the law and each of its parameters
    _, params = distributions.LAWS[name]
    help_text = _verify_help().stdout
    for word in (name, *params):
        assert re.search(rf"\b{word}\b", help_text), word
    assert set(params) <= harness._CONFIG_KEYS
    with pytest.raises(ValueError, match="expected parameters"):
        rc.from_name(name, **{p: 1 for p in params}, extra=1)
    for dropped in params:
        with pytest.raises(ValueError, match="expected parameters"):
            rc.from_name(name, **{p: 1 for p in params if p != dropped})


def test_non_string_out_is_config_error(tmp_path, capsys):
    # an int would be opened as a file descriptor
    path = write_config(tmp_path, n_values=[], out=5)
    assert main(["coeffs", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "config error: out must be a path string\n"


@pytest.mark.parametrize("where", ["missing-dir", "dir", "config-missing-dir"])
def test_unwritable_out_is_config_error(tmp_path, capsys, where):
    # each ended in a traceback with exit 1
    target = {"missing-dir": tmp_path / "no" / "o.csv", "dir": tmp_path,
              "config-missing-dir": tmp_path / "no" / "o.csv"}[where]
    if where.startswith("config"):
        path, argv = write_config(tmp_path, n_values=[], out=str(target)), []
    else:
        path, argv = write_config(tmp_path, n_values=[]), ["--out", str(target)]
    assert main(["coeffs", "--config", str(path), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {target}:") and err.count("\n") == 1


def test_dump_density_onto_a_file_is_config_error(tmp_path, capsys):
    # FileExistsError from creating the dump directory ended in a traceback
    dump = tmp_path / "taken"
    dump.write_text("")
    path = write_config(tmp_path, n_values=[8], grid_points=1024)
    argv = ["verify", "--config", str(path), "--out", str(tmp_path / "o.csv")]
    assert main(argv + ["--dump-density", str(dump)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {dump}:") and err.count("\n") == 1
    assert dump.read_text() == ""


@pytest.mark.parametrize("where", ["out in a missing directory", "dump onto a file"])
def test_unwritable_output_fails_before_any_inversion(tmp_path, capsys, monkeypatch, where):
    # verify on uniform n = 2..4 built all three grids before it exited 2
    built, invert = [], numerics.density_of_normalized_sum

    def spy(spec, n, *args, **kwargs):
        built.append(n)
        return invert(spec, n, *args, **kwargs)

    monkeypatch.setattr(numerics, "density_of_normalized_sum", spy)
    taken = tmp_path / "taken"
    taken.write_text("")
    path = write_config(tmp_path, n_values=[2, 3, 4])
    if where == "dump onto a file":
        argv = ["--out", str(tmp_path / "o.csv"), "--dump-density", str(taken)]
    else:
        argv = ["--out", str(tmp_path / "no" / "o.csv")]
    assert main(["verify", "--config", str(path), *argv]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot write")
    assert built == []
    assert not (tmp_path / "o.csv").exists() and taken.read_text() == ""


@pytest.mark.parametrize("existing", [True, False])
def test_numerical_failure_leaves_the_out_path_as_it_was(tmp_path, capsys, existing):
    # --out is checked by opening it for appending: an existing file keeps
    # its contents through a failed run, and a missing one is not left behind
    out = tmp_path / "o.csv"
    if existing:
        out.write_text("r,b\n2,0\n")
    path = write_config(tmp_path, n_values=[2], grid_points=1024)
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    if existing:
        assert out.read_text() == "r,b\n2,0\n"
    else:
        assert not out.exists()


def test_config_out_key_used(tmp_path):
    out = tmp_path / "from_config.csv"
    path = write_config(tmp_path, n_values=[], out=str(out))
    assert main(["coeffs", "--config", str(path)]) == 0
    assert out.exists()


def test_grid_distribution_via_file(tmp_path):
    x = np.linspace(-12, 12, 8001)
    p = np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    lines = ["x,p_n"] + [f"{xi},{pi}" for xi, pi in zip(x, p)]
    density_file = tmp_path / "density.csv"
    density_file.write_text("\n".join(lines))
    cfg = ExperimentConfig(
        {
            "distribution": "grid",
            "density_file": str(density_file),
            "r_values": [2],
            "n_values": [2],
            "moment_order": 4,
            **FAST_GRID,
        }
    )
    _, rows = cmd_verify(cfg)
    assert abs(rows[0][4]) < 1e-5  # near-Gaussian tabulation, tiny residual


# -- any JSON object -----------------------------------------------------------

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=5,
)
_R = st.one_of(
    st.integers(2, 10**308),
    st.floats(1.0, 1e308, exclude_min=True),
    st.sampled_from([1, "inf"]),
)
_REALS = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=3)
_LAWS = (
    {"distribution": "uniform"},
    {"distribution": "gamma", "alpha": 4},
    {"distribution": "two_sided_exponential"},
    {"distribution": "gaussian"},
    {
        "distribution": "gaussian_mixture",
        "weights": [0.25, 0.75],
        "means": [1.5, -0.5],
        "sigmas": [0.5, 0.5],
    },
)
# grids stay small: a valid grid_points is at most 2048, one above the
# 2**27 evaluation cap is rejected before any grid is built, and n is either
# at most 12 or anything up to 10**300, which numerics.MAX_N rejects at once
# from 2**33 on, so every run takes milliseconds; other keys may hold any
# JSON value
_GRID_POINTS = (
    st.sampled_from([1024, 2048])
    | st.integers(-4, 1023)
    | st.integers(numerics._EVAL_CAP + 1, 2**80)
    | _JSON.filter(lambda v: not isinstance(v, int) or isinstance(v, bool))
)
_NS = st.lists(
    st.integers(1, 12) | st.integers(13, 10**300), min_size=1, max_size=3, unique=True
).map(sorted)
_CONFIG_PARTS = st.fixed_dictionaries(
    {"grid_points": _GRID_POINTS},
    optional={
        "r_values": st.lists(_R, min_size=1, max_size=3) | _JSON,
        "n_values": _NS | _JSON,
        "moment_order": st.sampled_from([2, 3.5, 4, 6, 8]) | _JSON,
        "grid_extent": st.sampled_from([12, 16.0]) | _JSON,
        "distribution": st.sampled_from(["grid", "gamma", "gaussian_mixture"]) | _JSON,
        "alpha": st.floats(allow_nan=False, allow_infinity=False) | _JSON,
        "weights": _REALS | _JSON,
        "means": _REALS | _JSON,
        "sigmas": _REALS | _JSON,
        "density_file": _JSON,
        "out": _JSON,
        "unknown": _JSON,
    },
)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# Gamma(1e-110)'s exact moments overflow a float before n_min is checked
@example(
    command="verify",
    law={"distribution": "gamma", "alpha": 1e-110},
    parts={"grid_points": 1024, "moment_order": 8, "n_values": [4]},
)
@given(
    command=st.sampled_from(["coeffs", "verify", "monotonicity", "locallimit"]),
    law=st.sampled_from(_LAWS),
    parts=_CONFIG_PARTS,
)
def test_any_json_object_exits_cleanly(command, law, parts):
    # exit 0, 2 or 3 and never a traceback; a failure is one stderr line
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump({**law, **parts}, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", path, "--out", os.path.join(tmp, "o.csv")])
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().count("\n") == 1, err.getvalue()


_CELLS = st.one_of(
    st.floats().map(repr).map(str.encode),
    st.sampled_from([b"nan", b"inf", b"-inf", b"x", b""]),
    st.text(max_size=4).map(str.encode),
    st.binary(max_size=4),
)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(["coeffs", "verify"]),
    table=st.booleans(),
    rows=st.lists(st.lists(_CELLS, max_size=3).map(b",".join), max_size=6),
)
def test_any_density_file_exits_cleanly(command, table, rows):
    # random rows of 0-3 cells, alone or after a valid table: exit 0, 2 or
    # 3 and never a traceback; a failure is one stderr line
    with tempfile.TemporaryDirectory() as tmp:
        density_file = os.path.join(tmp, "table.csv")
        with open(density_file, "wb") as fh:
            fh.write(b"\n".join((_NORMAL_ROWS if table else []) + rows))
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump({"distribution": "grid", "density_file": density_file,
                       "r_values": [2], "n_values": [2], "moment_order": 4, **FAST_GRID}, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", path, "--out", os.path.join(tmp, "o.csv")])
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().count("\n") == 1, err.getvalue()
