"""The r = inf branch: the sup-norm and N_inf coefficients read off the
exact L_j of the entropy expansion, against the hand-expanded maximizer
oracle of ``oracles.py`` and against the corrected density itself."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import extremum_series, solve_extremum, supnorm_coefficients
from renyi_clt.cumulants import CumulantVector, standard_cumulants
from renyi_clt.edgeworth import EdgeworthModel, correction_polynomial
from renyi_clt.exactpoly import Poly
from renyi_clt.expansion import (
    DECREASING,
    INCREASING,
    INDETERMINATE,
    limit_expansion,
    monotonicity_prediction,
)

F = Fraction
UNIFORM = CumulantVector((0, 1, 0, F(-6, 5), 0, F(48, 7)))
SKEWED = CumulantVector((0, 1, 1, 0, 0, 0))  # gamma_3 = 1 family


def derived_supnorm(cumulants):
    """(A, B) of ||p_n||_inf = phi(0)(1 + A/n + B/n**2) from b_j(inf):
    h_inf = -log ||p_n||_inf gives b_1 = -A and b_2 = A**2/2 - B."""
    b1, b2 = limit_expansion(6, math.inf, cumulants).b
    return -b1, b1 * b1 / 2 - b2


def ninf_expansion(cumulants):
    """(A_tilde, B_tilde) of N_inf(Z_n) = N_inf(Z)(1 - A_tilde/n + B_tilde/n**2)
    as the harness derives them: -c_1(inf) and c_2(inf)."""
    c1, c2 = limit_expansion(6, math.inf, cumulants).c
    return -c1, c2


def random_cumulants(rng, order=6):
    return CumulantVector(
        (0, 1)
        + tuple(
            F(int(rng.integers(-8, 9)), int(rng.integers(1, 7)))
            for _ in range(order - 2)
        )
    )


def test_extremum_series_symmetric():
    c = CumulantVector((0, 1, 0, F(1, 2), 0))
    assert extremum_series(c) == (0, 0)


def test_extremum_series_skewed():
    assert extremum_series(CumulantVector((0, 1, 1, 0, 0))) == (F(-1, 2), F(1, 4))


def test_extremum_series_gamma4():
    c = standard_cumulants("gamma", order=5, alpha=4)
    a1, a2 = extremum_series(c)
    assert a1 == F(-1, 2)
    # 1/4 g3^3 - 5/12 g3 g4 + 1/8 g5 with g3 = 1, g4 = 3/2, g5 = 3
    assert a2 == F(1, 4) - F(5, 12) * F(3, 2) + F(3, 8)


def test_supnorm_symmetric_law():
    rng = np.random.default_rng(51)
    for _ in range(5):
        g4 = F(int(rng.integers(-8, 9)), int(rng.integers(1, 7)))
        g6 = F(int(rng.integers(-8, 9)), int(rng.integers(1, 7)))
        c = CumulantVector((0, 1, 0, g4, 0, g6))
        sn = supnorm_coefficients(c)
        assert sn.A == g4 / 8
        assert sn.B == sn.b4 == F(105, 2 * 576) * g4**2 - F(15, 720) * g6
        assert sn.a1 == sn.a2 == sn.b1 == sn.b2 == sn.b3 == 0
        assert derived_supnorm(c) == (sn.A, sn.B)


def test_supnorm_uniform():
    sn = supnorm_coefficients(UNIFORM)
    assert sn.A == F(-3, 20)
    assert float(sn.A) == -0.15
    assert derived_supnorm(UNIFORM) == (sn.A, sn.B)


def test_supnorm_gaussian():
    c = CumulantVector((0, 1, 0, 0, 0, 0))
    sn = supnorm_coefficients(c)
    assert sn.A == 0 and sn.B == 0
    assert derived_supnorm(c) == (0, 0)


def test_structural_identities():
    rng = np.random.default_rng(52)
    for _ in range(10):
        c = random_cumulants(rng)
        sn = supnorm_coefficients(c)
        assert sn.A_tilde == 2 * sn.A
        assert sn.B_tilde == 3 * sn.A**2 - 2 * sn.B
        at, bt = ninf_expansion(c)
        assert (at, bt) == (sn.A_tilde, sn.B_tilde)
        assert at == F(1, 4) * (c.gamma(4) - F(2, 3) * c.gamma(3) ** 2)


def test_b1_printed_formula():
    rng = np.random.default_rng(53)
    for _ in range(10):
        c = random_cumulants(rng)
        sn = supnorm_coefficients(c)
        assert sn.b1 == c.gamma(3) / F(6) * (sn.a1**3 - 3 * sn.a2)
        assert sn.b2 == (F(45, 72) * c.gamma(3) ** 2 - F(1, 4) * c.gamma(4)) * sn.a1**2


def test_ninf_symmetric_forms():
    g4, g6 = F(2, 3), F(-5, 4)
    c = CumulantVector((0, 1, 0, g4, 0, g6))
    at, bt = ninf_expansion(c)
    assert at == g4 / 4
    assert bt == g6 / 24 - F(13, 96) * g4**2


def _truncate(p: Poly, order: int) -> Poly:
    return Poly(p.coeffs[: order + 1])


def test_supnorm_series_composition_oracle():
    # Independent route: expand phi_6(x*(u)) / phi(0) as a series in
    # u = n^{-1/2} with exact rational arithmetic, where
    # x*(u) = a1 u + a2 u^3, and compare the u^2 and u^4 coefficients
    # against A and B.
    rng = np.random.default_rng(54)
    u = Poly((0, 1))
    for _ in range(10):
        c = random_cumulants(rng)
        sn = supnorm_coefficients(c)
        x = sn.a1 * u + sn.a2 * u**3
        x2 = _truncate(x * x, 4)
        x4 = _truncate(x2 * x2, 4)
        # exp(-x^2/2) = 1 - x^2/2 + x^4/8 + O(u^6)
        gauss_part = 1 - F(1, 2) * x2 + F(1, 8) * x4
        corr = Poly((1,))
        for k in range(1, 5):
            q = correction_polynomial(k, c)
            # Q_k(x(u)) * u^k truncated at u^4
            val = Poly((q.coeff(0),))
            xpow = Poly((1,))
            for i in range(1, q.degree + 1):
                xpow = _truncate(xpow * x, 4)
                if q.coeff(i) != 0:
                    val = val + q.coeff(i) * xpow
            corr = _truncate(corr + val * u**k, 4)
        total = _truncate(gauss_part * corr, 4)
        assert total.coeff(0) == 1
        assert total.coeff(1) == 0 and total.coeff(3) == 0
        assert total.coeff(2) == sn.A
        assert total.coeff(4) == sn.B


def test_solve_extremum_symmetric():
    c = CumulantVector((0, 1, 0, F(1, 3), 0, F(-1, 2)))
    assert abs(solve_extremum(c, 50)) < 1e-12


def test_solve_extremum_skewed_prediction():
    c = CumulantVector((0, 1, 1, 0, 0, 0))
    n = 10**4
    root = solve_extremum(c, n)
    a1, a2 = extremum_series(c)
    series = float(a1) / math.sqrt(n) + float(a2) / n**1.5
    assert root == pytest.approx(-0.005, abs=1e-5)
    assert root == pytest.approx(series, abs=1e-9)


def test_solve_extremum_rate():
    c = standard_cumulants("gamma", order=6, alpha=4)
    a1, a2 = extremum_series(c)
    scaled = []
    for n in (100, 1000, 10000):
        root = solve_extremum(c, n)
        series = float(a1) / math.sqrt(n) + float(a2) / n**1.5
        scaled.append(abs(root - series) * n**2.5)
    # |root - series| = O(n^{-5/2}): the scaled residuals stay bounded
    assert max(scaled) <= 5 * max(scaled[0], 1e-6)


def test_solve_extremum_matches_density_argmax():
    rng = np.random.default_rng(55)
    c = random_cumulants(rng)
    n = 400
    model = EdgeworthModel.from_cumulants(c, order=6)
    root = solve_extremum(c, n)
    xs = np.linspace(root - 0.02, root + 0.02, 2001)
    vals = model.density(n, xs)
    assert vals.argmax() == pytest.approx(1000, abs=2)


def test_supnorm_numeric_invariant():
    # grid max of phi_6 over |x| <= sqrt(log n), parabola-refined, matches
    # phi(0)(1 + A/n + B/n^2) within 5 n^{-5/2}
    phi0 = 1 / math.sqrt(2 * math.pi)
    for cums in (
        CumulantVector((0, 1, F(3, 4), F(1, 2), F(1, 5), F(-1, 3))),
        standard_cumulants("gamma", order=6, alpha=4),
    ):
        model = EdgeworthModel.from_cumulants(cums, order=6)
        big_a, big_b = derived_supnorm(cums)
        for n in (100, 1000, 10000):
            radius = math.sqrt(math.log(n))
            xs = np.arange(-radius, radius, 1e-4)
            vals = model.density(n, xs)
            j = int(vals.argmax())
            a = 0.5 * (vals[j + 1] + vals[j - 1]) - vals[j]
            b = 0.5 * (vals[j + 1] - vals[j - 1])
            peak = vals[j] - b * b / (4 * a) if a < 0 else vals[j]
            predicted = phi0 * (1 + float(big_a) / n + float(big_b) / n**2)
            assert abs(peak - predicted) <= 5 * n**-2.5


def test_solve_extremum_rejects_nonpositive_center():
    # Q_4(0) = gamma_6/720 * H_6(0) = -gamma_6/48 drives the correction
    # factor at the origin below zero for n = 1
    c = CumulantVector((0, 1, 0, 0, 0, 10**6))
    with pytest.raises(ValueError, match="not positive"):
        solve_extremum(c, 1)


def test_monotonicity_inf():
    # N_inf(Z_n) increases iff gamma_4 > (2/3) gamma_3**2, the sign of -b(inf)
    gamma4 = standard_cumulants("gamma", order=4, alpha=4)
    assert monotonicity_prediction(math.inf, gamma4) == INCREASING
    assert monotonicity_prediction(math.inf, UNIFORM) == DECREASING
    boundary = CumulantVector((0, 1, F(3, 2), F(3, 2)))  # gamma_4 = (2/3) gamma_3^2
    assert monotonicity_prediction(math.inf, boundary) == INDETERMINATE


def test_limit_expansion_at_inf_matches_the_hand_oracle():
    # b_1 = -A, b_2 = A**2/2 - B, c_1 = -2A, c_2 = 3A**2 - 2B, all exact
    rng = np.random.default_rng(56)
    for _ in range(20):
        c = random_cumulants(rng)
        sn = supnorm_coefficients(c)
        coeffs = limit_expansion(6, math.inf, c)
        assert coeffs.b == (-sn.A, sn.A**2 / 2 - sn.B)
        assert coeffs.c == (-2 * sn.A, 3 * sn.A**2 - 2 * sn.B)
        assert all(type(v) is F for v in coeffs.b + coeffs.c)
