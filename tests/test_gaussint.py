"""Integrals against powers of the normal density: the library's mass and
double factorial, and the reference integrals of ``oracles.py``."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import gauss_moment_exact, gauss_power_integral, hermite_integral
from renyi_clt.cumulants import double_factorial
from renyi_clt.exactpoly import Poly, hermite
from renyi_clt.expansion import gauss_power_mass

R_GRID = [1.1, 1.5, 2.0, 3.0, 10.0]


def phi(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)


def quad_oracle(poly, r, tol=1e-12):
    val, err = quad(lambda x: poly(x) * phi(x) ** r, -40, 40, limit=400, epsabs=tol)
    return val


def test_double_factorial():
    assert [double_factorial(k) for k in (-1, 0, 1, 2, 3, 5, 7)] == [
        1, 1, 1, 2, 3, 15, 105,
    ]


def test_gauss_moment_exact():
    assert gauss_moment_exact(0) == 1
    assert gauss_moment_exact(3) == 0
    assert gauss_moment_exact(6) == 15


def test_mass():
    assert gauss_power_mass(1) == pytest.approx(1.0, rel=1e-15)
    # int phi^2 = 1/(2 sqrt(pi))
    assert gauss_power_mass(2) == pytest.approx(1 / (2 * math.sqrt(math.pi)), rel=1e-14)
    assert gauss_power_mass(1000.0) >= 0.0  # underflows, never overflows


def h3_squared_closed_form(r):
    return 3 * (5 - 6 * r + 3 * r * r) / (r**3.5 * (2 * math.pi) ** ((r - 1) / 2))


@pytest.mark.parametrize("r", [2.0, 3.0, 2.5])
def test_h3_squared(r):
    val = gauss_power_integral(hermite(3) * hermite(3), r)
    assert val == pytest.approx(h3_squared_closed_form(r), rel=1e-13)


def test_integral_constant_r1():
    assert gauss_power_integral(Poly((1,)), 1) == pytest.approx(1.0, rel=1e-15)


def test_h4_h6_quad_oracle():
    val = gauss_power_integral(hermite(4) * hermite(6), 2)
    assert val == pytest.approx(quad_oracle(hermite(4) * hermite(6), 2), abs=1e-9)


def test_hermite_integral_closed_forms():
    for r in R_GRID:
        pref = 1.0 / (2 * math.pi) ** ((r - 1) / 2)
        assert hermite_integral(2, r) == pytest.approx(
            -pref * (r - 1) / r**1.5, rel=1e-13, abs=1e-300
        )
        assert hermite_integral(4, r) == pytest.approx(
            pref * 3 * (r - 1) ** 2 / r**2.5, rel=1e-13, abs=1e-300
        )
        assert hermite_integral(6, r) == pytest.approx(
            -pref * 15 * (r - 1) ** 3 / r**3.5, rel=1e-13, abs=1e-300
        )
        assert hermite_integral(3, r) == 0.0


@pytest.mark.parametrize("k", range(13))
@pytest.mark.parametrize("r", R_GRID)
def test_hermite_integral_consistency(k, r):
    closed = hermite_integral(k, r)
    expanded = gauss_power_integral(hermite(k), r)
    assert closed == pytest.approx(expanded, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("k", range(1, 13))
def test_r1_orthogonality(k):
    assert gauss_power_integral(hermite(k), 1) == 0.0


def test_quadrature_oracle_random_polys():
    rng = np.random.default_rng(42)
    for _ in range(20):
        deg = int(rng.integers(0, 13))
        coeffs = [
            Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 9)))
            for _ in range(deg + 1)
        ]
        p = Poly(coeffs)
        for r in (1.5, 2.0, 4.0):
            assert gauss_power_integral(p, r) == pytest.approx(
                quad_oracle(p, r), abs=1e-9
            )


def test_rejects_nonpositive_r():
    with pytest.raises(ValueError):
        gauss_power_integral(Poly((0, 0, 1)), 0.0)
    with pytest.raises(ValueError):
        hermite_integral(2, -1.0)
    with pytest.raises(ValueError):
        gauss_power_integral(Poly((1,)), 0)
    with pytest.raises(ValueError):
        gauss_power_mass(-2)
