import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import renyi_clt as rc
from oracles import a_coefficient_by_compositions, b_closed_form, leading_entropy_coefficient
from oracles import correction_polynomial_by_partitions, cumulant_by_partitions
from oracles import gauss_power_integral, hermite_integral, sign_change_threshold_closed_form
from oracles import exact_mpf, gamma_sum_renyi_entropy, gaussian_renyi_entropy_exact
from oracles import truncated_product
from renyi_clt.cumulants import CumulantVector, cumulants_from_moments, moments_from_cumulants
from renyi_clt.expansion import (
    DECREASING,
    INCREASING,
    INDETERMINATE,
    a1_closed_form,
    a2_from_integrals,
    a_coefficient,
    b_coefficient,
    entropy_expansion,
    falling_factorial,
    gauss_power_mass,
    gaussian_entropy_power,
    gaussian_renyi_entropy,
    limit_expansion,
    monotonicity_prediction,
    sign_change_threshold,
)
from renyi_clt.exactpoly import Poly, _exp_series, _log_series
from renyi_clt.expansion import _all_log_polynomials, _laurent_numerators, _log_polynomials

F = Fraction
UNIFORM = CumulantVector((0, 1, 0, F(-6, 5), 0, F(48, 7)))


def random_cumulants(rng, order=6, scale=1.5):
    vals = (0.0, 1.0) + tuple(
        float(rng.uniform(-scale, scale)) for _ in range(order - 2)
    )
    return CumulantVector(vals)


# -- truncated log and exp series in 1/n -------------------------------------


def test_series_log_golden():
    a1 = 0.7
    out = _log_series([1.0, a1, 0.0])
    assert out[0] == 0
    assert out[1] == pytest.approx(a1)
    assert out[2] == pytest.approx(-a1 * a1 / 2)


def test_series_log_constant():
    # log 1 = 0 and exp 0 = 1, exactly and at every order
    assert _log_series([1, 0, 0]) == [0, 0, 0]
    assert _exp_series([0, 0, 0]) == [1, 0, 0]
    assert _log_series([1]) == [0] and _exp_series([0]) == [1]


def test_series_exp_log_round_trip():
    rng = np.random.default_rng(21)
    for _ in range(10):
        coeffs = [1.0] + list(rng.uniform(-0.8, 0.8, size=5))
        back = _exp_series(_log_series(coeffs))
        assert np.allclose(back, coeffs, rtol=1e-12, atol=1e-12)
        exact = [F(1)] + [F(int(v)) / 7 for v in rng.integers(-9, 10, size=5)]
        assert _exp_series(_log_series(exact)) == exact
        assert _log_series(_exp_series([0, *exact[1:]])) == [0, *exact[1:]]


def _pow(s, q):
    """(1 + y)**q as exp(q log(1 + y)), composed from the two helpers."""
    return _exp_series([c * q for c in _log_series(s)])


def test_series_pow_goldens():
    assert _pow([1.0, 1.0], 1.0) == pytest.approx([1.0, 1.0])
    a1 = 0.4
    out = _pow([1.0, a1, 0.0], -2.0)
    assert out[1] == pytest.approx(-2 * a1)
    assert out[2] == pytest.approx(3 * a1 * a1)


def test_series_pow_additivity():
    rng = np.random.default_rng(22)
    for _ in range(10):
        s = [1.0] + list(rng.uniform(-0.5, 0.5, size=4))
        q1, q2 = rng.uniform(-2, 2, size=2)
        lhs = _pow(s, q1 + q2)
        rhs = truncated_product(_pow(s, q1), _pow(s, q2))
        assert np.allclose(lhs, rhs, rtol=1e-11, atol=1e-12)


def test_series_log_and_pow_keep_a_unit_constant_exact():
    s = [1, F(1, 2), F(-1, 3)]
    assert _log_series(s) == [0, F(1, 2), F(-11, 24)]
    # exp of a series with constant term 0 stays exact: no factor exp(0) = 1.0
    assert _pow(s, F(-2, 3)) == [1, F(-1, 3), F(13, 36)]
    assert all(type(c) is not float for c in _log_series(s) + _pow(s, F(-2, 3)))


def test_series_log_and_exp_match_sympy():
    # the truncated compositions against sympy's series, exactly, at order 5
    t = sp.Symbol("t")
    rng = np.random.default_rng(23)
    for _ in range(5):
        y = [F(int(a), int(b)) for a, b in zip(rng.integers(-9, 10, 5), rng.integers(1, 9, 5))]
        series = sum(
            sp.Rational(c.numerator, c.denominator) * t**i for i, c in enumerate(y, start=1)
        )
        for lib, ref in (
            (_log_series([1, *y]), sp.log(1 + series)),
            (_exp_series([0, *y]), sp.exp(series)),
        ):
            expected = sp.Poly(sp.series(ref, t, 0, 6).removeO(), t).all_coeffs()[::-1]
            assert [sp.Rational(c.numerator, c.denominator) for c in map(F, lib)] == expected


def test_series_over_polynomials_is_exact():
    # the log the library takes: Poly coefficients, exact Fraction arithmetic
    y1, y2 = Poly((F(1, 2), 3)), Poly((0, F(-1, 5), 1))
    out = _log_series([1, y1, y2])
    assert out[1] == y1 and out[2] == y2 - y1 * y1 * F(1, 2)
    assert all(type(c) is F for p in out[1:] for c in p.coeffs)


def test_falling_factorial():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(2.5, 2) == pytest.approx(2.5 * 1.5)


# -- a-coefficients ----------------------------------------------------------


def test_a1_vanishes_without_cumulants():
    c = CumulantVector((0, 1, 0.0, 0.0))
    for r in (1.5, 2.0, 3.0):
        assert a_coefficient(1, r, c) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("r", [1.2, 1.5, 2.0, 3.0, 5.0, 10.0])
def test_two_route_a1(r):
    rng = np.random.default_rng(31)
    for _ in range(20):
        c = random_cumulants(rng, 4)
        generic = a_coefficient(1, r, c) * gauss_power_mass(r)
        closed = a1_closed_form(r, c)
        assert generic == pytest.approx(closed, rel=1e-10, abs=1e-16)


@pytest.mark.parametrize("r", [1.2, 1.5, 2.0, 3.0, 5.0, 10.0])
def test_two_route_a2(r):
    rng = np.random.default_rng(32)
    for _ in range(20):
        c = random_cumulants(rng, 6)
        generic = a_coefficient(2, r, c) * gauss_power_mass(r)
        assembled = a2_from_integrals(r, c)
        assert generic == pytest.approx(assembled, rel=1e-10, abs=1e-16)


def test_a2_zero_cumulants():
    c = CumulantVector((0, 1, 0.0, 0.0, 0.0, 0.0))
    for r in (1.5, 2.0, 3.0):
        assert a2_from_integrals(r, c) == 0.0


def test_a2_symmetric_three_term_form():
    # with gamma_3 = 0 only three integrals survive:
    # r g6/6! I(6) + r g4^2/(2 4!^2) I(8) + r(r-1) g4^2/(2 4!^2) int H4^2 phi^r
    from renyi_clt.exactpoly import hermite

    rng = np.random.default_rng(33)
    for _ in range(5):
        g4, g5, g6 = rng.uniform(-1.5, 1.5, size=3)
        c = CumulantVector((0, 1, 0.0, g4, g5, g6))
        for r in (1.5, 2.0, 3.0):
            h4sq = gauss_power_integral(hermite(4) * hermite(4), r)
            expected = (
                r * g6 / 720 * hermite_integral(6, r)
                + r * g4**2 / (2 * 576) * hermite_integral(8, r)
                + r * (r - 1) * g4**2 / (2 * 576) * h4sq
            )
            assert a2_from_integrals(r, c) == pytest.approx(expected, rel=1e-11)


def test_a1_closed_form_symmetric_reduction():
    g4 = -1.2
    c = CumulantVector((0, 1, 0.0, g4))
    for r in (1.5, 2.0, 4.0):
        expected = (
            (2 * math.pi) ** (-(r - 1) / 2) * r**-1.5 * (r - 1) ** 2 / 8 * g4
        )
        assert a1_closed_form(r, c) == pytest.approx(expected, rel=1e-13)


def test_a1_closed_form_r_to_1_limit():
    c = CumulantVector((0, 1, 0.9, 0.4))
    r = 1 + 1e-6
    g3 = 0.9
    assert a1_closed_form(r, c) / (r - 1) == pytest.approx(g3**2 / 12, abs=1e-4)


@pytest.mark.parametrize("r", [790, 800, 820, 1000, 1e5])
def test_underflowing_a1_a2_raise(r):
    # int phi**r underflows while the brackets are not 0: to a subnormal that
    # has lost digits (A_1 is 17 % off at r = 800), then to 0
    with pytest.raises(ValueError, match="underflows"):
        a1_closed_form(r, UNIFORM)
    with pytest.raises(ValueError, match="underflows"):
        a2_from_integrals(r, UNIFORM)


def test_zero_brackets_stay_zero_under_underflow():
    c = CumulantVector((0, 1, 0, 0, 0, 0))
    assert a1_closed_form(1e5, c) == 0.0
    assert a2_from_integrals(1e5, c) == 0.0


def test_a1_a2_finite_below_underflow():
    assert 0 > a1_closed_form(500, UNIFORM) > -1e-190
    assert a2_from_integrals(500, UNIFORM) != 0.0


@pytest.mark.parametrize("r", [800.0, 1000.0, 1e5])
def test_a_coefficient_where_gauss_mass_underflows(r):
    # int phi**r is subnormal from r of about 770 and 0 from about 810, but
    # a_j is a ratio of moments: on the uniform law a_1 = -3 (r-1)**2 / (20 r)
    a1 = -3 * F(r - 1) ** 2 / (20 * F(r))
    assert a_coefficient(1, r, UNIFORM) == pytest.approx(float(a1), rel=1e-15)
    assert math.isfinite(a_coefficient(2, r, UNIFORM))
    b1 = entropy_expansion(4, r, UNIFORM).b[0]
    assert b1 == pytest.approx(float(b_closed_form(r, UNIFORM)), rel=1e-14)


def test_a1_uniform_r2_value():
    val = a1_closed_form(2.0, UNIFORM)
    expected = -3 / (20 * 2**1.5 * math.sqrt(2 * math.pi))
    assert val == pytest.approx(expected, rel=1e-13)


def test_derivation_line_identity():
    # the r^{5/2} normalization of A_1 equals the collected-coefficient line
    rng = np.random.default_rng(34)
    for _ in range(10):
        c = random_cumulants(rng, 4)
        g3, g4 = c.gamma(3), c.gamma(4)
        for r in (1.5, 2.0, 3.0, 5.0):
            lhs = (2 * math.pi) ** ((r - 1) / 2) * r**2.5 / (r - 1) * a1_closed_form(r, c)
            rhs = (
                -Fraction(5, 24) * (r - 1) ** 2 * g3**2
                + r * (r - 1) / 8 * g4
                + (5 - 6 * r + 3 * r**2) / 24 * g3**2
            )
            assert lhs == pytest.approx(float(rhs), rel=1e-10, abs=1e-13)


def test_vanishing_cumulant_nullity():
    c = CumulantVector((0, 1) + (0.0,) * 6)
    for j in (1, 2, 3):
        for r in (1.5, 2.0, 3.0):
            assert a_coefficient(j, r, c) == pytest.approx(0.0, abs=1e-14)


def test_a_coefficient_requires_order():
    c = CumulantVector((0, 1, 0.5, 0.5))
    with pytest.raises(ValueError, match="insufficient"):
        a_coefficient(2, 2.0, c)
    with pytest.raises(ValueError):
        a_coefficient(1, 1.0, c)


# the symbolic-sweep benchmark laws and a law whose cumulants are floats
ORACLE_LAWS = {
    "gamma4": rc.StandardizedGamma(4),
    "gamma1": rc.StandardizedGamma(1),
    "dyadic_mixture": rc.GaussianMixture((0.25, 0.75), (1.5, -0.5), (0.5, 0.5)),
    "uniform": rc.Uniform(),
    "float_mixture": rc.GaussianMixture((0.5, 0.5), (0.6, -0.6), (0.8, 0.8)),
}


@pytest.mark.parametrize("law", sorted(ORACLE_LAWS))
def test_laurent_form_matches_composition_sum(law):
    cums = rc.standard_cumulants(ORACLE_LAWS[law], order=8)
    for r in (1.005, 1.5, 2, 3.4, 7.9, 800):
        for j in (1, 2, 3):
            expected = float(a_coefficient_by_compositions(j, r, cums))
            assert a_coefficient(j, r, cums) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("law", ["gamma4", "uniform", "dyadic_mixture"])
def test_laurent_form_equals_composition_sum_exactly(law):
    cums = rc.standard_cumulants(ORACLE_LAWS[law], order=8)
    for r in (F(3, 2), 2, F(7, 2)):
        for j in (1, 2, 3):
            assert a_coefficient(j, r, cums) == a_coefficient_by_compositions(j, r, cums)


_SMALL_RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@pytest.mark.parametrize("law", sorted(ORACLE_LAWS))
def test_l1_factors_through_the_threshold(law):
    # b_1 = -L_1/((r-1) r**3) is linear in r over r, so
    # L_1 = (r-1) r**2 (l_4 r - l_2), and r_0 = l_2/l_4 is its one free root
    cums = rc.standard_cumulants(ORACLE_LAWS[law], order=8)
    l1 = _log_polynomials(1, cums)[0]
    r = Poly.x()
    assert l1 == (r - 1) * r**2 * (l1.coeff(4) * r - l1.coeff(2))


@settings(max_examples=50, deadline=None)
@given(
    gammas=st.lists(_SMALL_RATIONALS, min_size=6, max_size=6),
    r=st.fractions(min_value=F(13, 12), max_value=12, max_denominator=12),
)
def test_series_engine_matches_partition_sums(gammas, r):
    # every partition sum of the library, from exact truncated log, exp and
    # powers, against its composition-by-composition oracle, exactly
    cums = CumulantVector((0, 1, *gammas))
    for k in range(1, 7):
        assert rc.correction_polynomial(k, cums) == correction_polynomial_by_partitions(k, gammas)
    moments = moments_from_cumulants(cums)
    assert cumulants_from_moments(moments) == cums
    assert [cumulant_by_partitions(k, moments.values) for k in range(3, 9)] == gammas
    for j in (1, 2, 3):
        assert a_coefficient(j, r, cums) == a_coefficient_by_compositions(j, r, cums)


# Gamma(alpha) cumulants (k-1)! alpha**(1 - k/2) at alpha = 4
SYMPY_GAMMA4 = {k: sp.factorial(k - 1) / sp.Integer(2) ** (k - 2) for k in range(3, 7)}
R = sp.Symbol("r", positive=True)


@lru_cache(maxsize=None)
def sympy_a(j):
    """a_j(r) for Gamma(4) as a rational function of a symbolic r, from the
    cumulant generating function, probabilists' Hermite polynomials and
    Gaussian integrals: the n**-j coefficient of
    int phi**r (1 + sum_k Q_k n**(-k/2))**r / int phi**r."""
    x, s, eps = sp.symbols("x s epsilon")
    gam = SYMPY_GAMMA4
    cgf = sum(gam[k] * s**k * eps ** (k - 2) / sp.factorial(k) for k in gam)
    chi = sp.expand(sp.series(sp.exp(cgf), eps, 0, 2 * j + 1).removeO())
    # (i t)**m exp(-t**2/2) is the Fourier transform of He_m(x) phi(x)
    q = {}
    for k in range(1, 2 * j + 1):
        terms = sp.Poly(chi.coeff(eps, k), s).terms()
        q[k] = sum(c * sp.hermite_prob(m, x) for (m,), c in terms)
    u = sp.Poly(sum(eps**k * q[k] for k in q), eps)
    nj = sum(
        sp.binomial(R, k) * (u**k).coeff_monomial(eps ** (2 * j))
        for k in range(1, 2 * j + 1)
    )
    weight = sp.exp(-R * x**2 / 2)
    norm = sp.integrate(weight, (x, -sp.oo, sp.oo))
    return sum(
        c * sp.integrate(x**m * weight, (x, -sp.oo, sp.oo)) / norm
        for (m,), c in sp.Poly(sp.expand(sp.expand_func(nj)), x).terms()
    )


def test_a2_is_the_gaussian_average_of_the_edgeworth_power():
    ref = sympy_a(2)
    cums = rc.standard_cumulants("gamma", order=6, alpha=4)
    assert cums.values[2:] == tuple(SYMPY_GAMMA4.values())
    num, den = _laurent_numerators(cums)[1]
    lib = sum(sp.Integer(c) * R**e for e, c in enumerate(num)) / (den * R**6)
    assert sp.simplify(lib - ref) == 0


def test_b2_limits_at_r1_and_rinf_match_sympy():
    # b_2(r) = -(a_2 - a_1**2/2)/(r-1) for Gamma(4) in sympy; its limits at
    # r -> 1 and r -> oo are the library's b_2(1) and b_2(inf), exactly
    b2 = -(sympy_a(2) - sympy_a(1) ** 2 / 2) / (R - 1)
    cums = rc.standard_cumulants("gamma", order=6, alpha=4)
    for r, limit in ((1, sp.limit(b2, R, 1)), (math.inf, sp.limit(b2, R, sp.oo))):
        lib = limit_expansion(6, r, cums).b[1]
        assert sp.Rational(lib.numerator, lib.denominator) == limit
    assert sp.simplify(b2.subs(R, 2)) == sp.Rational(-1, 128)


def test_expansion_builds_once_per_law():
    # the r-free work (the Q_k series, the powers of U and the log) happens
    # once per law; further indices only evaluate
    cums = rc.standard_cumulants("gamma", order=8, alpha=4)
    builders = (_laurent_numerators, _all_log_polynomials)
    for rs in ([1.5], [1.005, 1.5, 2, 3.4, 7.9, 800, 1e5, 12.25]):
        for builder in builders:
            builder.cache_clear()
        for r in rs:
            entropy_expansion(8, r, cums)
        assert [builder.cache_info().misses for builder in builders] == [1, 1]


def stirling_gamma_b(j, r):
    """b_j(r) of Gamma(4): the standardized sum of n Gamma(4) laws is a
    standardized Gamma(k), k = 4n, with

        (1 - r) h_r = log Gamma(r (k-1) + 1) - (r (k-1) + 1) log r
                      - r log Gamma(k) - (1 - r) log(k) / 2,

    and Stirling's series log Gamma(z + a) ~ (z + a - 1/2) log z - z
    + log(2 pi)/2 + sum_m (-1)**(m+1) B_{m+1}(a) / (m (m+1) z**m), taken at
    z = r k, a = 1 - r and at z = k, a = 0, leaves the n**(-j) term below
    (sympy's Bernoulli polynomials)."""
    r = sp.Rational(r.numerator, r.denominator)
    x = sp.Symbol("x")
    bern = sp.bernoulli(j + 1, x)
    term = (-1) ** (j + 1) / (sp.Integer(j * (j + 1)) * 4**j)
    return term * (bern.subs(x, 1 - r) / r**j - r * bern.subs(x, 0)) / (1 - r)


@pytest.mark.parametrize("r", [F(2), F(7, 3)])
def test_gamma4_at_order_20_follows_stirling(r):
    # the exact engine at moment order 20, b_1..b_9, from the exact
    # cumulants (k-1)!/2**(k-2) of Gamma(4)
    gammas = [F(math.factorial(k - 1), 2 ** (k - 2)) for k in range(3, 21)]
    cums = CumulantVector.from_gammas(*gammas)
    b = entropy_expansion(20, r, cums).b
    assert len(b) == 9
    for j, bj in enumerate(b, start=1):
        assert sp.Rational(bj.numerator, bj.denominator) == stirling_gamma_b(j, r)


@pytest.mark.parametrize("r", [F(3, 2), F(2), F(3), 1, math.inf])
def test_gamma4_at_order_20_leaves_an_n_minus_10_remainder(r):
    # Z_n of Gamma(4) is a standardized Gamma(4n), whose h_r is a log-Gamma
    # closed form: against it, the b_1..b_9 that verify predicts with at
    # moment order 20 leave a remainder of order n**-10, which falls about
    # 1e10-fold from n = 10**3 to 10**4 (1.0e10 to 1.4e10 at these r); a
    # wrong b_j, j <= 9, would leave an n**-j term, falling at most 1e9-fold
    cums = rc.standard_cumulants("gamma", order=20, alpha=4)
    b = (entropy_expansion if 1 < r < math.inf else limit_expansion)(20, r, cums).b
    assert len(b) == 9
    remainders = []
    with mpmath.workdps(80):
        for n in (10**3, 10**4):
            series = sum(exact_mpf(bj) / mpmath.mpf(n) ** j for j, bj in enumerate(b, start=1))
            remainders.append(gamma_sum_renyi_entropy(4 * n, r)
                              - gaussian_renyi_entropy_exact(r) - series)
        assert remainders[0] / remainders[1] >= 5e9


def test_rational_inputs_give_exact_expansion():
    gamma4 = rc.standard_cumulants("gamma", order=8, alpha=4)
    exact = entropy_expansion(8, F(2), gamma4)
    assert exact.b == (F(-3, 32), F(-1, 128), F(-3, 4096))
    assert exact.c == (F(-3, 16), F(1, 512), F(3, 8192))
    assert all(type(v) is F for v in exact.a + exact.b + exact.c)
    assert entropy_expansion(8, 2, gamma4).b == exact.b
    rounded = entropy_expansion(8, 2.0, gamma4)
    assert all(type(v) is float for v in rounded.a + rounded.b + rounded.c)
    assert rounded.b == tuple(float(v) for v in exact.b)
    uniform = rc.standard_cumulants("uniform", order=8)
    b1 = entropy_expansion(8, 800, uniform).b[0]
    assert b1 == b_closed_form(800, uniform) == F(2397, 16000)


@pytest.mark.parametrize(
    "law, b1, binf",
    [
        ("gamma4", (F(-1, 12), F(-1, 192), F(-1, 5760)), (F(-5, 48), F(-1, 96), F(-31, 23040))),
        ("uniform", (0, F(-3, 100), F(-9, 250)), (F(3, 20), F(4, 175), F(-39, 7000))),
    ],
)
def test_limit_expansion_exact_gates(law, b1, binf):
    cums = rc.standard_cumulants(ORACLE_LAWS[law], order=8)
    for r, expected in ((1, b1), (math.inf, binf)):
        coeffs = limit_expansion(8, r, cums)
        assert coeffs.b == expected and coeffs.a == ()
        assert all(type(v) is F for v in coeffs.b + coeffs.c)
        assert coeffs.b[0] == b_closed_form(r, cums)
        # c-series = exp(2 b-series), truncated at n**-3
        b_1, b_2, b_3 = expected
        assert coeffs.c == (
            2 * b_1,
            2 * b_2 + 2 * b_1**2,
            2 * b_3 + 4 * b_1 * b_2 + F(4, 3) * b_1**3,
        )


def test_log_polynomials_vanish_at_1_and_have_degree_3j_plus_1():
    for law in sorted(ORACLE_LAWS):
        cums = rc.standard_cumulants(ORACLE_LAWS[law], order=8)
        for j, poly in enumerate(_log_polynomials(3, cums), start=1):
            assert poly(1) == 0 and poly.degree == 3 * j + 1


def test_limit_expansion_is_the_limit_of_entropy_expansion():
    cums = rc.standard_cumulants("gamma", order=8, alpha=4)
    for r, near in ((1, 1 + F(1, 10**12)), (math.inf, F(10**12))):
        limit = limit_expansion(8, r, cums)
        close = entropy_expansion(8, near, cums)
        for lim, val in zip(limit.b + limit.c, close.b + close.c):
            assert abs(lim - val) < F(1, 10**10)


def test_limit_expansion_rejects_finite_r():
    with pytest.raises(ValueError, match="r = 1 or r = inf"):
        limit_expansion(8, 2, UNIFORM)
    # below its moment-order need at r = 1 (4) and r = inf (6)
    with pytest.raises(ValueError, match="^the r = 1 expansion needs moment order m >= 4, got 3$"):
        limit_expansion(3, 1, UNIFORM)
    with pytest.raises(ValueError, match="^the r = inf expansion needs moment order m >= 6, got 4$"):
        limit_expansion(4, math.inf, UNIFORM)


def test_symmetric_shannon_rate():
    # Bobkov-Chistyakov-Goetze: for gamma_3 = gamma_5 = 0,
    # D(Z_n || Z) = gamma_4**2 / (48 n**2) + o(n**-2), so b_1(1) = 0 and
    # b_2(1) = -gamma_4**2 / 48
    rng = np.random.default_rng(44)
    for _ in range(10):
        g4, g6 = (F(int(rng.integers(-8, 9)), int(rng.integers(1, 7))) for _ in range(2))
        coeffs = limit_expansion(6, 1, CumulantVector((0, 1, 0, g4, 0, g6)))
        assert coeffs.b == (0, -g4**2 / 48)


def test_huge_r_coefficients_are_finite():
    # exact evaluation: no inf - inf in a float series log at r = 1e308
    uniform = rc.standard_cumulants("uniform", order=8)
    coeffs = entropy_expansion(8, 1e308, uniform)
    assert coeffs.b == (0.15, 0.022857142857142857, -0.005571428571428572)
    assert coeffs.b == tuple(float(v) for v in limit_expansion(8, math.inf, uniform).b)
    assert all(math.isfinite(v) for v in coeffs.c)


def test_float_cumulants_give_floats_at_rational_r():
    cums = rc.standard_cumulants(ORACLE_LAWS["float_mixture"], order=8)
    coeffs = entropy_expansion(8, 2, cums)
    assert all(type(v) is float for v in coeffs.a + coeffs.b + coeffs.c)


def test_equal_float_and_rational_cumulants_build_separately():
    # 1/2 and 0.5 are equal cache keys: they share one exact build, and the
    # result type still follows the inputs, whichever of them built first
    exact = CumulantVector((0, 1, F(1, 2), F(3, 2), F(1, 4), F(5, 4)))
    floats = CumulantVector((0.0, 1.0, 0.5, 1.5, 0.25, 1.25))
    assert exact == floats and hash(exact) == hash(floats)
    from_floats = a_coefficient(2, 3, floats)
    assert type(from_floats) is float
    assert a_coefficient(2, 3, exact) == a_coefficient_by_compositions(2, 3, exact)
    _laurent_numerators.cache_clear()
    assert type(a_coefficient(2, 3, exact)) is F
    assert a_coefficient(2, 3, floats) == from_floats


def test_a_coefficient_beyond_float_range_is_infinite():
    # the exact a_2 and a_3 at r = 1e308 exceed the float range; float()
    # would raise OverflowError
    uniform = rc.standard_cumulants("uniform", order=8)
    assert a_coefficient(1, 1e308, uniform) == pytest.approx(-1.5e307, rel=1e-15)
    assert a_coefficient(2, 1e308, uniform) == math.inf
    assert a_coefficient(3, 1e308, uniform) == -math.inf
    with pytest.raises(ValueError, match="finite"):
        a_coefficient(1, math.inf, uniform)


# -- b-coefficients and entropy expansion ------------------------------------


def test_b_uniform_r2():
    assert b_coefficient(2, UNIFORM) == F(3, 40)


def test_b_inf_gamma():
    for alpha in (1, 4, 9):
        g3 = F(2) / int(math.isqrt(alpha))
        g4 = F(6, alpha)
        c = CumulantVector((0, 1, g3, g4))
        assert b_coefficient(math.inf, c) == F(-5, 12 * alpha)


def test_b_zero_cumulants():
    c = CumulantVector((0, 1, 0, 0))
    for r in (1, 1.7, 2, 5, math.inf):
        assert b_coefficient(r, c) == 0


def test_b_coefficient_follows_the_expansion_exactness_rule():
    # rational gamma_3, gamma_4 beside float gamma_5, gamma_6: b_1 is a float
    # by both routes, and a Fraction by both once every cumulant is rational
    for tail, kind in (((0.1, 0.2), float), ((F(1, 10), F(1, 5)), Fraction)):
        c = CumulantVector.from_gammas(F(1, 2), F(1, 3), *tail)
        for r in (2, 1, math.inf):
            expand = entropy_expansion if r == 2 else limit_expansion
            b1 = expand(6, r, c).b[0]
            assert b_coefficient(r, c) == b1 and type(b_coefficient(r, c)) is type(b1) is kind


def test_b_limit_branches():
    c = CumulantVector((0, 1, F(1, 2), F(1, 4)))
    assert b_coefficient(1, c) == -F(1, 48)
    assert b_coefficient(math.inf, c) == F(1, 48) - F(1, 32)
    # continuity: finite-r value near the branches
    assert float(b_coefficient(1 + 1e-9, c)) == pytest.approx(
        float(b_coefficient(1, c)), abs=1e-9
    )
    assert float(b_coefficient(1e9, c)) == pytest.approx(
        float(b_coefficient(math.inf, c)), abs=1e-8
    )


def test_entropy_expansion_m5():
    rng = np.random.default_rng(41)
    c = random_cumulants(rng, 5)
    coeffs = entropy_expansion(5, 2.0, c)
    assert coeffs.terms == 1
    assert coeffs.b[0] == pytest.approx(float(b_closed_form(2.0, c)), rel=1e-12)
    assert coeffs.c[0] == pytest.approx(2 * coeffs.b[0], rel=1e-12)


def test_entropy_expansion_m3_empty():
    c = CumulantVector((0, 1, 0.3))
    coeffs = entropy_expansion(3, 2.0, c)
    assert coeffs.terms == 0
    assert coeffs.entropy_offset(10) == 0.0
    assert coeffs.entropy_power_factor(10) == 1.0


def test_entropy_expansion_gaussian_cumulants():
    c = CumulantVector((0, 1, 0.0, 0.0, 0.0, 0.0, 0.0))
    coeffs = entropy_expansion(7, 3.0, c)
    assert coeffs.terms == 2
    assert all(abs(b) < 1e-14 for b in coeffs.b)
    assert all(abs(cc) < 1e-14 for cc in coeffs.c)


def test_entropy_power_series_identity():
    # 1 + sum c_j n^-j must be the -2/(r-1) power of the a-series, taken by
    # sympy's series expansion, exactly on rational cumulants and indexes
    t = sp.Symbol("t")
    rng = np.random.default_rng(42)
    for _ in range(3):
        gammas = [F(int(a), 4) for a in rng.integers(-6, 7, size=6)]
        c = CumulantVector.from_gammas(*gammas)
        for r in (F(3, 2), 2, 3, F(7, 3)):
            coeffs = entropy_expansion(8, r, c)
            a_series = 1 + sum(
                sp.Rational(a.numerator, a.denominator) * t**j
                for j, a in enumerate(coeffs.a, start=1)
            )
            power = sp.Rational(-2) / (sp.Rational(r.numerator, r.denominator) - 1)
            expected = sp.series(a_series**power, t, 0, 4).removeO()
            for j, cj in enumerate(coeffs.c, start=1):
                assert sp.Rational(cj.numerator, cj.denominator) == expected.coeff(t, j)
            assert coeffs.c[0] == 2 * coeffs.b[0]


def test_matched_moment_consistency():
    # when gamma_3 .. gamma_{2k-1} vanish the first k-2 entropy coefficients
    # vanish and b_{k-1} is the matched-moment coefficient, exactly
    rng = np.random.default_rng(43)
    for k in (2, 3, 4):
        for _ in range(5):
            g = F(int(rng.integers(-12, 13)), int(rng.integers(1, 8)))
            gammas = [0] * 6
            gammas[2 * k - 3] = g  # gamma_{2k}
            c = CumulantVector.from_gammas(*gammas)
            for r in (F(3, 2), 2, 3, F(7, 2)):
                b = entropy_expansion(8, r, c).b
                assert b[: k - 2] == (0,) * (k - 2)
                assert b[k - 2] == leading_entropy_coefficient(k, r, g)
    # b_2 = gamma_6/48 (1/r - 1)**2 and b_3 = gamma_8/384 (1/r - 1)**3
    assert leading_entropy_coefficient(3, 2, 1) == F(1, 192)
    assert leading_entropy_coefficient(4, 2, 1) == F(-1, 3072)


def test_leading_entropy_coefficient():
    assert leading_entropy_coefficient(2, 2.0, 0.8) == pytest.approx(
        float(b_closed_form(2.0, CumulantVector((0, 1, 0.0, 0.8))))
    )
    assert leading_entropy_coefficient(2, 2, F(4, 5)) == b_coefficient(
        2, CumulantVector((0, 1, 0, F(4, 5)))
    )
    assert leading_entropy_coefficient(3, 2.0, 0.0) == 0.0
    assert leading_entropy_coefficient(3, 2.0, 1) == pytest.approx(1 / 192)


def test_kl_rate_limit_and_uniform():
    # B_1(r) = -b(r), the n**-1 rate of h_r(Z) - h_r(Z_n)
    c = CumulantVector((0, 1, 0.9, 0.1))
    assert float(-b_coefficient(1 + 1e-6, c)) == pytest.approx(0.9**2 / 12, abs=1e-4)
    assert -b_coefficient(2, UNIFORM) == -F(3, 40)


def test_b_coefficient_is_the_closed_form_exactly():
    # the derived b_1 equals the hand formula as a Fraction, and vanishes at
    # the closed-form threshold r_0
    rng = np.random.default_rng(45)
    roots = 0
    for _ in range(20):
        g3, g4 = (F(int(rng.integers(-12, 13)), int(rng.integers(1, 8))) for _ in range(2))
        c = CumulantVector.from_gammas(g3, g4)
        for r in (1, F(3, 2), 2, F(7, 2), math.inf):
            b = b_coefficient(r, c)
            assert type(b) is F and b == b_closed_form(r, c)
        r0 = sign_change_threshold(c)
        if r0 is not None:
            roots += 1
            assert b_coefficient(r0, c) == 0
    assert roots > 0


def test_b_coefficient_rejects_r_below_1():
    for r in (0.5, F(1, 2), math.nan, -math.inf):
        with pytest.raises(ValueError, match="r must be >= 1"):
            b_coefficient(r, UNIFORM)


def test_sign_change_threshold_bisection():
    # B1 changes sign exactly at r0 when gamma_3 != 0, gamma_4 < (2/3) gamma_3^2
    c = CumulantVector((0, 1, F(3, 2), F(1, 5)))
    r0 = sign_change_threshold(c)
    assert r0 is not None
    lo, hi = 1.0 + 1e-9, 1e6
    f = lambda r: float(-b_coefficient(r, c))
    assert f(lo) > 0 > f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(float(r0), abs=1e-9)


def test_sign_change_threshold_undefined():
    assert sign_change_threshold(UNIFORM) is None  # gamma_3 = 0
    gamma_alpha1 = CumulantVector((0, 1, 2, 6))
    assert sign_change_threshold(gamma_alpha1) is None  # gamma_4 > (2/3) gamma_3^2


@settings(max_examples=100, deadline=None)
@given(
    head=st.tuples(_SMALL_RATIONALS, _SMALL_RATIONALS),
    tail=st.lists(_SMALL_RATIONALS, max_size=2),
)
@example(head=(F(3, 4), F(-3, 8)), tail=[])  # the dyadic mixture: r_0 = 3/2
def test_sign_change_threshold_equals_the_closed_form(head, tail):
    # r_0 = l_2/l_4, read off L_1, is the hand formula exactly; gamma_5 and
    # gamma_6, when given, leave L_1 alone
    c = CumulantVector.from_gammas(*head, *tail)
    r0 = sign_change_threshold(c)
    assert r0 == sign_change_threshold_closed_form(c)
    if r0 is not None:
        assert type(r0) is F
        # the verdict flips at r_0 and nowhere near it, in exact arithmetic
        step = (r0 - 1) / 10**6
        seen = [monotonicity_prediction(r, c) for r in (r0 - step, r0, r0 + step)]
        assert seen == [INCREASING, INDETERMINATE, DECREASING]


def test_float_cumulants_give_a_float_threshold():
    # a skewed mixture whose float parameters miss the exact constraints, and
    # a bare float cumulant vector: r_0 is rounded once from the exact root
    w, t = 0.3, 0.25
    c = w * (1 - w)
    d, s = 2 * t / (t * t + c), (c - t * t) / (c + t * t)
    mixture = rc.GaussianMixture((w, 1 - w), (d * (1 - w), -d * w), (s, s))
    for cums in (rc.standard_cumulants(mixture, order=4), CumulantVector((0, 1, 1.5, 0.2))):
        r0 = sign_change_threshold(cums)
        assert type(r0) is float
        assert r0 == pytest.approx(sign_change_threshold_closed_form(cums), rel=1e-14)


def test_monotonicity_predictions():
    gamma4 = CumulantVector((0, 1, 1, F(3, 2)))
    for r in (1.5, 2, 5, math.inf):
        assert monotonicity_prediction(r, gamma4) == INCREASING
    for r in (1.5, 2, 5, math.inf):
        assert monotonicity_prediction(r, UNIFORM) == DECREASING
    flat = CumulantVector((0, 1, 0, 0))
    assert monotonicity_prediction(2, flat) == INDETERMINATE


def test_gaussian_reference_values():
    assert gaussian_renyi_entropy(2) == pytest.approx(math.log(2 * math.sqrt(math.pi)))
    assert gaussian_renyi_entropy(1) == pytest.approx(0.5 * math.log(2 * math.pi * math.e))
    assert gaussian_renyi_entropy(math.inf) == pytest.approx(0.5 * math.log(2 * math.pi))
    for r in (1.5, 2.0, 3.0, 5.0):
        assert gaussian_entropy_power(r) == pytest.approx(
            2 * math.pi * r ** (1 / (r - 1)), rel=1e-13
        )
