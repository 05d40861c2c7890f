import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from renyi_clt.cumulants import CumulantVector, moments_from_cumulants
from renyi_clt.edgeworth import (
    EdgeworthModel,
    correction_polynomial,
    normal_pdf,
)
from renyi_clt.exactpoly import Poly, hermite
from oracles import gauss_moment_exact

F = Fraction


def random_cumulants(rng, order=6):
    return CumulantVector(
        (0, 1)
        + tuple(
            F(int(rng.integers(-10, 11)), int(rng.integers(1, 8)))
            for _ in range(order - 2)
        )
    )


def test_q1_golden():
    c = CumulantVector((0, 1, F(5, 7), F(1, 3)))
    assert correction_polynomial(1, c) == F(5, 7 * 6) * hermite(3)


def test_q2_golden():
    c = CumulantVector((0, 1, F(5, 7), F(1, 3)))
    g3, g4 = F(5, 7), F(1, 3)
    expected = g3**2 / F(2 * 36) * hermite(6) + g4 / F(24) * hermite(4)
    assert correction_polynomial(2, c) == expected


def test_q3_q4_golden():
    rng = np.random.default_rng(3)
    c = random_cumulants(rng, 6)
    g3, g4, g5, g6 = (c.gamma(k) for k in (3, 4, 5, 6))
    q3 = (
        g3**3 / F(6**4) * hermite(9)
        + g3 * g4 / F(6 * 24) * hermite(7)
        + g5 / F(120) * hermite(5)
    )
    assert correction_polynomial(3, c) == q3
    q4 = (
        g3**4 / F(24 * 6**4) * hermite(12)
        + g3**2 * g4 / F(2 * 36 * 24) * hermite(10)
        + g3 * g5 / F(6 * 120) * hermite(8)
        + g4**2 / F(2 * 24**2) * hermite(8)
        + g6 / F(720) * hermite(6)
    )
    assert correction_polynomial(4, c) == q4


def test_zero_cumulants_vanish():
    c = CumulantVector((0, 1, 0, 0, 0, 0))
    for k in range(1, 5):
        assert correction_polynomial(k, c) == Poly()


def test_insufficient_order():
    c = CumulantVector((0, 1, F(1, 2)))
    with pytest.raises(ValueError, match="insufficient"):
        correction_polynomial(2, c)


def test_parity_and_degree():
    rng = np.random.default_rng(11)
    c = random_cumulants(rng, 8)
    for k in range(1, 7):
        q = correction_polynomial(k, c)
        for i, coeff in enumerate(q.coeffs):
            if (i - k) % 2:
                assert coeff == 0
        assert q.degree <= 3 * k
        if c.gamma(3) != 0:
            assert q.degree == 3 * k


def test_float_cumulants_build_one_exact_q():
    # a float cumulant enters at its binary value: 0.1 and Fraction(0.1)
    # share one exact build, and 1/2 and 0.5 share another
    floats = CumulantVector((0.0, 1.0, 0.1, 0.5, 0.3))
    exact = CumulantVector((0, 1, F(0.1), F(1, 2), F(0.3)))
    for k in (1, 2, 3):
        q = correction_polynomial(k, floats)
        assert q is correction_polynomial(k, exact)
        assert all(type(c) is F for c in q.coeffs)


def test_density_order2_is_normal():
    model = EdgeworthModel.from_cumulants(CumulantVector((0, 1)), order=2)
    x = np.linspace(-5, 5, 11)
    assert np.allclose(model.density(7, x), normal_pdf(x), rtol=0, atol=0)


def test_density_single_term_form():
    # when gamma_3..gamma_{m-1} vanish the correction collapses to one term
    g6 = F(3, 2)
    model = EdgeworthModel.from_cumulants(CumulantVector((0, 1, 0, 0, 0, g6)))
    n = 9
    x = np.linspace(-4, 4, 41)
    expected = normal_pdf(x) * (
        1 + float(g6) / 720 * hermite(6)(x) * n ** (-2.0)
    )
    assert np.allclose(model.density(n, x), expected, atol=1e-15)


def test_densities_take_the_single_n_operations():
    # several n on one x evaluate each Q_k(x) once, yet every density is
    # bit for bit the sum taken one n at a time, term by term
    rng = np.random.default_rng(31)
    model = EdgeworthModel.from_cumulants(random_cumulants(rng))
    x = np.linspace(-9, 9, 2001)
    ns = [1, 4, 9, 64, 1000]

    def one_at_a_time(n):
        acc = 1.0
        for k, q in enumerate(model.q_polys, start=1):
            if not q.is_zero():
                acc = acc + q(x) * n ** (-k / 2)
        return normal_pdf(x) * acc

    for n, density in zip(ns, model.densities(ns, x), strict=True):
        assert np.array_equal(density, one_at_a_time(n))
        assert np.array_equal(model.density(n, x), density)
    assert model.correction_factor(4, F(1, 2)) == next(model.correction_factors([4], F(1, 2)))
    with pytest.raises(ValueError, match="positive"):
        next(model.densities([4, 0], x))


def test_unit_mass_symbolic():
    # int phi_m = 1 exactly: every Q_k integrates to zero against phi
    rng = np.random.default_rng(5)
    c = random_cumulants(rng, 8)
    for k in range(1, 7):
        q = correction_polynomial(k, c)
        total = sum(
            coeff * gauss_moment_exact(i) for i, coeff in enumerate(q.coeffs)
        )
        assert total == 0


def test_unit_mass_quadrature():
    rng = np.random.default_rng(6)
    c = random_cumulants(rng, 6)
    model = EdgeworthModel.from_cumulants(c)
    val, _ = quad(lambda x: model.density(16, float(x)), -30, 30, limit=300)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_moment_matching_symbolic():
    # int x^j phi_m(x) dx reproduces the moments of Z_n rebuilt from the
    # cumulants gamma_k(Z_n) = gamma_k n^{1-k/2}, through order u^{m-2}
    # (u = n^{-1/2}), for j <= 4 and m <= 6
    rng = np.random.default_rng(9)
    for m in (4, 5, 6):
        c = random_cumulants(rng, m)
        qs = [correction_polynomial(k, c) for k in range(1, m - 1)]
        for j in range(1, 5):
            # series of int x^j phi_m in u, exact
            series = [F(0)] * (m - 1)
            series[0] = gauss_moment_exact(j)
            for k, q in enumerate(qs, start=1):
                series[k] = sum(
                    coeff * gauss_moment_exact(i + j)
                    for i, coeff in enumerate(q.coeffs)
                )
            # moments of Z_n via the cumulant recursion, coefficients in u
            u = Poly((0, 1))
            gam_n = [Poly((c.gamma(i),)) * u ** (i - 2) for i in range(2, m + 1)]
            alpha = [Poly((1,)), Poly()]  # alpha_0 = 1, alpha_1 = 0
            for nn in range(2, j + 1):
                acc = Poly()
                for i in range(2, nn + 1):
                    acc = acc + math.comb(nn - 1, i - 1) * gam_n[i - 2] * alpha[nn - i]
                alpha.append(acc)
            target = alpha[j]
            for power in range(m - 1):
                assert series[power] == target.coeff(power), (m, j, power)


def test_leading_term_is_moment_gap():
    # with vanishing lower cumulants, gamma_{k+2} = E X^{k+2} - E Z^{k+2}
    g6 = F(4, 11)
    c = CumulantVector((0, 1, 0, 0, 0, g6))
    moments = moments_from_cumulants(c)
    gauss = moments_from_cumulants(CumulantVector((0, 1, 0, 0, 0, 0)))
    assert [k for k in range(3, 7) if c.gamma(k) != 0] == [6]
    assert c.gamma(6) == moments.alpha(6) - gauss.alpha(6)


def test_decay_regression_uniform(grid_for):
    # weighted sup error of the order-4 correction drops by at least the
    # factor 2 the n^{-1} rate guarantees between n = 16 and n = 64
    from renyi_clt.cumulants import standard_cumulants

    c = standard_cumulants("uniform", order=4)
    model = EdgeworthModel.from_cumulants(c)
    errs = {}
    for n in (16, 64):
        grid = grid_for("uniform", n)
        w = 1.0 + np.abs(grid.x) ** 4
        errs[n] = float(np.max(w * np.abs(grid.values - model.density(n, grid.x))))
    assert errs[64] <= errs[16] / 2
