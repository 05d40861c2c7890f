"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import renyi_clt as rc
from renyi_clt.harness import main as harness_main
from oracles import gauss_power_integral, hermite_integral, normalized_uniform_sum_lr, richardson

F = Fraction


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def random_rational_cumulants(rng, order):
    return rc.CumulantVector(
        (0, 1)
        + tuple(
            F(int(rng.integers(-12, 13)), int(rng.integers(1, 9)))
            for _ in range(order - 2)
        )
    )


def test_criterion_1_symbolic_goldens():
    start = time.time()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(10):
        c = random_rational_cumulants(rng, 6)
        g3, g4, g5, g6 = (c.gamma(k) for k in (3, 4, 5, 6))
        H = rc.hermite
        expected = {
            1: g3 / F(6) * H(3),
            2: g3**2 / F(72) * H(6) + g4 / F(24) * H(4),
            3: g3**3 / F(1296) * H(9)
            + g3 * g4 / F(144) * H(7)
            + g5 / F(120) * H(5),
            4: g3**4 / F(31104) * H(12)
            + g3**2 * g4 / F(1728) * H(10)
            + (g3 * g5 / F(720) + g4**2 / F(1152)) * H(8)
            + g6 / F(720) * H(6),
        }
        for k in range(1, 5):
            ok = ok and rc.correction_polynomial(k, c) == expected[k]
        # partition-formula identities, exactly
        m = rc.moments_from_cumulants(c)
        back = rc.cumulants_from_moments(m)
        a3, a4, a5 = m.alpha(3), m.alpha(4), m.alpha(5)
        ok = ok and back.gamma(3) == a3
        ok = ok and back.gamma(4) == a4 - 3
        ok = ok and back.gamma(5) == a5 - 10 * a3
        ok = ok and back.values == c.values
    elapsed = time.time() - start
    report(1, ok and elapsed < 1.0, f"symbolic goldens exact, {elapsed:.2f}s (< 1s)")


def test_criterion_2_hermite_integral_suite():
    start = time.time()
    ok = True
    r_grid = (1.1, 1.5, 2.0, 3.0, 10.0)
    for k in range(1, 7):
        for r in r_grid:
            closed = hermite_integral(2 * k, r)
            expanded = gauss_power_integral(rc.hermite(2 * k), r)
            if closed == 0:
                ok = ok and expanded == 0
            else:
                ok = ok and abs(closed - expanded) <= 1e-12 * abs(closed)
    for r in r_grid:
        pref = 1 / (2 * math.pi) ** ((r - 1) / 2)
        ok = ok and hermite_integral(2, r) == pytest.approx(
            -pref * (r - 1) / r**1.5, rel=1e-12
        )
        ok = ok and hermite_integral(4, r) == pytest.approx(
            pref * 3 * (r - 1) ** 2 / r**2.5, rel=1e-12
        )
        ok = ok and hermite_integral(6, r) == pytest.approx(
            -pref * 15 * (r - 1) ** 3 / r**3.5, rel=1e-12
        )
        h3sq = gauss_power_integral(rc.hermite(3) * rc.hermite(3), r)
        ok = ok and h3sq == pytest.approx(
            3 * (5 - 6 * r + 3 * r * r) / (r**3.5 * (2 * math.pi) ** ((r - 1) / 2)),
            rel=1e-12,
        )
    elapsed = time.time() - start
    report(2, ok and elapsed < 1.0, f"closed forms match, {elapsed:.2f}s (< 1s)")


def test_criterion_3_two_route_identity():
    start = time.time()
    rng = np.random.default_rng(103)
    ok = True
    worst = 0.0
    for _ in range(20):
        c = rc.CumulantVector(
            (0.0, 1.0) + tuple(float(rng.uniform(-1.5, 1.5)) for _ in range(4))
        )
        for r in (1.5, 2.0, 3.0):
            mass = rc.gauss_power_mass(r)
            lhs1 = rc.a_coefficient(1, r, c) * mass
            rhs1 = rc.a1_closed_form(r, c)
            lhs2 = rc.a_coefficient(2, r, c) * mass
            rhs2 = rc.a2_from_integrals(r, c)
            for lhs, rhs in ((lhs1, rhs1), (lhs2, rhs2)):
                rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
                worst = max(worst, rel)
                ok = ok and rel <= 1e-10
    elapsed = time.time() - start
    report(
        3,
        ok and elapsed < 10.0,
        f"A1/A2 two-route agreement, worst rel {worst:.2e} (<= 1e-10), "
        f"{elapsed:.2f}s (< 10s)",
    )


def test_criterion_4_uniform_entropy_rate(grid_for):
    start = time.time()
    h_gauss = rc.gaussian_renyi_entropy(2)
    est = {
        n: n * (rc.renyi_entropy(grid_for("uniform", n), 2) - h_gauss)
        for n in (32, 64, 128, 256)
    }
    extrapolated = richardson(est[128], est[256])
    target = 3 / 40
    rel = abs(extrapolated - target) / target
    elapsed = time.time() - start
    report(
        4,
        rel <= 0.05 and elapsed < 30.0,
        f"n*(h2(Z_n)-h2(Z)) -> {extrapolated:.6f} vs 3/40 "
        f"(rel {rel:.2e} <= 5%), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_5_uniform_supnorm_rate(grid_for):
    start = time.time()
    phi0 = 1 / math.sqrt(2 * math.pi)
    est = {
        n: n * (rc.sup_norm(grid_for("uniform", n)) / phi0 - 1) for n in (64, 128)
    }
    extrapolated = richardson(est[64], est[128])
    target = -0.15
    rel = abs(extrapolated - target) / abs(target)
    elapsed = time.time() - start
    report(
        5,
        rel <= 0.05 and elapsed < 30.0,
        f"n*(sup p_n/phi(0)-1) -> {extrapolated:.6f} vs -0.15 "
        f"(rel {rel:.2e} <= 5%), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_6_monotonicity_window(grid_for):
    start = time.time()
    verdicts = {}
    ok = True
    for key, name, params in (
        ("uniform", "uniform", {}),
        ("gamma4", "gamma", {"alpha": 4}),
    ):
        values = [
            rc.entropy_power(grid_for(key, n), 2) for n in range(8, 66)
        ]
        diffs = np.diff(values)
        cums = rc.standard_cumulants(name, order=4, **params)
        predicted = rc.monotonicity_prediction(2, cums)
        if key == "uniform":
            ok = ok and bool(np.all(diffs < 0))
            ok = ok and predicted == rc.DECREASING
            verdicts[key] = (float(diffs.max()), predicted)
        else:
            ok = ok and bool(np.all(diffs > 0))
            ok = ok and predicted == rc.INCREASING
            verdicts[key] = (float(diffs.min()), predicted)
    elapsed = time.time() - start
    report(
        6,
        ok and elapsed < 60.0,
        f"N_2 differences single-signed on [8,64] and verdicts match "
        f"({verdicts}), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_7_shannon_kl_rate(grid_for):
    start = time.time()
    # D(Z_n || Z) = h(Z) - h(Z_n) for the standardized Z_n
    h_limit = rc.gaussian_renyi_entropy(1)
    est = {n: n * (h_limit - rc.shannon_entropy(grid_for("gamma4", n))) for n in (64, 128)}
    extrapolated = richardson(est[64], est[128])
    target = 1 / 12
    rel = abs(extrapolated - target) / target
    elapsed = time.time() - start
    report(
        7,
        rel <= 0.10 and elapsed < 30.0,
        f"n*D(Z_n||Z) -> {extrapolated:.6f} vs 1/12 (rel {rel:.2e} <= 10%), "
        f"{elapsed:.1f}s (< 30s)",
    )


def test_criterion_8_local_limit_decay(grid_for):
    start = time.time()
    cums = rc.standard_cumulants("uniform", order=4)
    model = rc.EdgeworthModel.from_cumulants(cums)
    ns = (16, 32, 64, 128, 256)
    errs = []
    for n in ns:
        grid = grid_for("uniform", n)
        w = 1.0 + np.abs(grid.x) ** 4
        errs.append(float(np.max(w * np.abs(grid.values - model.density(n, grid.x)))))
    slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    elapsed = time.time() - start
    report(
        8,
        slope <= -0.9 and elapsed < 60.0,
        f"weighted sup error slope {slope:.3f} <= -0.9, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_9_irwin_hall_oracle(grid_for):
    start = time.time()
    ok = True
    worst = 0.0
    for n in (2, 3, 4):
        numeric = rc.lr_integral(grid_for("uniform", n), 2)
        exact = normalized_uniform_sum_lr(n, 2)
        err = abs(numeric - exact)
        worst = max(worst, err)
        ok = ok and err <= 1e-7
    elapsed = time.time() - start
    report(
        9,
        ok,
        f"int p_n^2 vs exact piecewise polynomial, worst abs err {worst:.2e} "
        f"(<= 1e-7), {elapsed:.1f}s",
    )


def test_criterion_10_determinism(tmp_path):
    start = time.time()
    cfg = {
        "distribution": "uniform",
        "r_values": [2, 1, "inf"],
        "n_values": [4, 8],
        "moment_order": 6,
        "grid_points": 2**14,
        "grid_extent": 12.0,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    rc1 = harness_main(["verify", "--config", str(cfg_path), "--out", str(out1)])
    rc2 = harness_main(["verify", "--config", str(cfg_path), "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    elapsed = time.time() - start
    report(
        10,
        rc1 == 0 and rc2 == 0 and identical,
        f"two verify runs produced byte-identical CSV ({len(out1.read_bytes())} "
        f"bytes), {elapsed:.1f}s",
    )
