import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from renyi_clt.cumulants import (
    _MAX_ORDER,
    CumulantVector,
    MomentVector,
    cumulants_from_moments,
    moments_from_cumulants,
    standard_cumulants,
)
from renyi_clt.distributions import GaussianMixture, GridDensity
from renyi_clt.expansion import sign_change_threshold
from renyi_clt.numerics import MAX_N
from oracles import compositions


def brute_force_compositions(k):
    ranges = [range(k // i + 1) for i in range(1, k + 1)]
    return sorted(
        parts
        for parts in itertools.product(*ranges)
        if sum(i * r for i, r in enumerate(parts, start=1)) == k
    )


def test_compositions_small():
    assert compositions(1) == ((1,),)
    assert compositions(2) == ((0, 1), (2, 0))
    assert len(compositions(4)) == 5  # number of integer partitions of 4


@pytest.mark.parametrize("k", range(1, 9))
def test_compositions_exhaustive(k):
    assert list(compositions(k)) == brute_force_compositions(k)


def rational_moments(rng, order):
    vals = [0, 1] + [
        Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 13)))
        for _ in range(order - 2)
    ]
    return MomentVector(tuple(vals))


def test_gamma3_is_alpha3():
    m = MomentVector((0, 1, Fraction(7, 3), 5))
    c = cumulants_from_moments(m)
    assert c.gamma(3) == Fraction(7, 3)


def test_uniform_gamma4():
    # alpha_4 computed by the quadrature oracle int x^4/(2 sqrt(3)) dx
    import math

    s3 = math.sqrt(3)
    alpha4, _ = quad(lambda x: x**4 / (2 * s3), -s3, s3)
    assert abs(alpha4 - 9 / 5) < 1e-12
    c = cumulants_from_moments(MomentVector((0, 1, 0, Fraction(9, 5))))
    assert c.gamma(4) == Fraction(-6, 5)


def test_gaussian_cumulants_vanish():
    c = cumulants_from_moments(MomentVector((0, 1, 0, 3, 0, 15)))
    assert c.values[2:] == (0, 0, 0, 0)


def test_printed_low_order_identities():
    import numpy as np

    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rational_moments(rng, 6)
        c = cumulants_from_moments(m)
        a3, a4, a5, a6 = (m.alpha(k) for k in (3, 4, 5, 6))
        assert c.gamma(3) == a3
        assert c.gamma(4) == a4 - 3
        assert c.gamma(5) == a5 - 10 * a3
        # the alpha_3 term enters gamma_6 squared, with coefficient -10
        assert c.gamma(6) == a6 - 15 * a4 - 10 * a3**2 + 30


def test_top_moment_linearity():
    import numpy as np

    rng = np.random.default_rng(8)
    m = rational_moments(rng, 6)
    delta = Fraction(3, 7)
    bumped = MomentVector(m.values[:5] + (m.values[5] + delta,))
    assert (
        cumulants_from_moments(bumped).gamma(6)
        - cumulants_from_moments(m).gamma(6)
        == delta
    )


def test_moments_from_cumulants_gaussian():
    m = moments_from_cumulants(CumulantVector((0, 1, 0, 0, 0, 0)))
    assert m.values == (0, 1, 0, 3, 0, 15)


def test_moments_from_cumulants_gamma3():
    m = moments_from_cumulants(CumulantVector((0, 1, Fraction(2, 5))))
    assert m.alpha(3) == Fraction(2, 5)


@pytest.mark.parametrize("order", [4, 6, 8])
def test_round_trip(order):
    import numpy as np

    rng = np.random.default_rng(order)
    for _ in range(10):
        m = rational_moments(rng, order)
        assert moments_from_cumulants(cumulants_from_moments(m)).values == m.values
    for _ in range(10):
        gam = CumulantVector(
            (0, 1)
            + tuple(
                Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 10)))
                for _ in range(order - 2)
            )
        )
        assert cumulants_from_moments(moments_from_cumulants(gam)).values == gam.values


def test_insufficient_moments():
    with pytest.raises(ValueError, match="insufficient"):
        MomentVector((0,))


def test_standardization_enforced():
    with pytest.raises(ValueError):
        MomentVector((1, 1, 0))
    with pytest.raises(ValueError):
        CumulantVector((0, 2))


def test_standard_cumulants_gamma():
    c = standard_cumulants("gamma", order=4, alpha=4)
    assert c.gamma(3) == 1
    assert c.gamma(4) == Fraction(3, 2)


def test_standard_cumulants_uniform():
    c = standard_cumulants("uniform", order=4)
    assert c.values == (0, 1, 0, Fraction(-6, 5))


def test_standard_cumulants_uniform_order6():
    import math

    s3 = math.sqrt(3)
    alpha6, _ = quad(lambda x: x**6 / (2 * s3), -s3, s3)
    assert abs(alpha6 - 27 / 7) < 1e-12
    c = standard_cumulants("uniform", order=6)
    expected = cumulants_from_moments(
        MomentVector((0, 1, 0, Fraction(9, 5), 0, Fraction(27, 7)))
    )
    assert c.values == expected.values


def test_standard_cumulants_rejects_unknown():
    with pytest.raises(ValueError):
        standard_cumulants("cauchy", order=4)


def test_float_mixture_takes_float_branch():
    # 0.6 and 0.8 are not exact in binary: read as Fractions the mixture
    # misses unit variance by about 4e-17, so its moments are floats
    floats = standard_cumulants(GaussianMixture((0.5, 0.5), (0.6, -0.6), (0.8, 0.8)), order=6)
    exact = standard_cumulants(
        GaussianMixture(
            (Fraction(1, 2),) * 2, (Fraction(3, 5), Fraction(-3, 5)), (Fraction(4, 5),) * 2
        ),
        order=6,
    )
    for k in range(3, 7):
        assert float(floats.gamma(k)) == pytest.approx(float(exact.gamma(k)), abs=1e-13)


def test_dyadic_float_mixture_stays_exact():
    cums = standard_cumulants(GaussianMixture((0.25, 0.75), (1.5, -0.5), (0.5, 0.5)), order=6)
    assert cums.gamma(3) == Fraction(3, 4) and cums.gamma(4) == Fraction(-3, 8)
    assert sign_change_threshold(cums) == Fraction(3, 2)


def _bernoulli_law_cumulants(top: int, p: Fraction) -> list:
    """kappa_1..kappa_top of a Bernoulli(p) variable by the classical
    recursion kappa_{k+1} = p (1 - p) d kappa_k / dp, in sympy."""
    import sympy

    q = sympy.symbols("q")
    kappa, out = q, []
    for _ in range(top):
        out.append(Fraction(str(kappa.subs(q, sympy.Rational(p.numerator, p.denominator)))))
        kappa = sympy.expand(q * (1 - q) * sympy.diff(kappa, q))
    return out


def test_standard_cumulants_at_any_order_follow_closed_forms():
    # moments(order) serves every order; the laws capped it at 8 before
    import math

    from sympy import bernoulli

    # the dyadic mixture is -1/2 + 2 B with B ~ Bernoulli(1/4), plus a normal
    # part that adds only to kappa_2
    bern = _bernoulli_law_cumulants(20, Fraction(1, 4))
    closed = {
        "uniform": lambda k: Fraction(str(bernoulli(k))) * 12 ** (k // 2) / k if k % 2 == 0 else 0,
        "two_sided_exponential": (
            lambda k: Fraction(2 * math.factorial(k - 1), 2 ** (k // 2)) if k % 2 == 0 else 0
        ),
        "gamma": lambda k: math.factorial(k - 1) * Fraction(2) ** (2 - k),
        "gaussian_mixture": lambda k: 2**k * bern[k - 1],
    }
    params = {
        "gamma": {"alpha": 4},
        "gaussian_mixture": {"weights": [0.25, 0.75], "means": [1.5, -0.5], "sigmas": [0.5, 0.5]},
    }
    for name, kappa in closed.items():
        for order in range(10, 21):
            cums = standard_cumulants(name, order=order, **params.get(name, {}))
            assert len(cums.values) == order
            for k in range(3, order + 1):
                assert cums.gamma(k) == kappa(k), (name, order, k)
                assert isinstance(cums.gamma(k), (int, Fraction))


def test_ceiling_is_checked_before_any_moment():
    class Law:
        def moments(self, order):
            raise AssertionError("a moment was computed")

    with pytest.raises(ValueError, match=f"above the cost ceiling {_MAX_ORDER} "):
        standard_cumulants(Law(), order=_MAX_ORDER + 1)
    with pytest.raises(ValueError, match="ceiling"):
        standard_cumulants(Law(), order=10**300)
    # verify scales a residual by n**((s-2)/2), for every real s below
    # _MAX_ORDER + 1 and n up to MAX_N: the scale stays a float
    assert math.isfinite(MAX_N ** ((_MAX_ORDER - 1) / 2))


def test_table_cumulants_hold_to_the_ceiling():
    # a table law needs no ceiling of its own: 4001 nodes of the dyadic
    # mixture over [-12, 12] are, to rounding, its lattice law of step
    # h = 3/500, and the table is that lattice plus h T, with T the hat on
    # [-1, 1] (the sum of two uniforms on [-1/2, 1/2], so kappa_k(T) =
    # 2 B_k/k at even k), standardized by sigma**2 = 1 + h**2/6; its
    # cumulants hold to that within 1e-11, relative, at every order up to
    # the ceiling
    from sympy import bernoulli

    mixture = GaussianMixture((Fraction(1, 4), Fraction(3, 4)), (Fraction(3, 2), Fraction(-1, 2)),
                              (Fraction(1, 2), Fraction(1, 2)))
    x = np.linspace(-12, 12, 4001)
    table = standard_cumulants(GridDensity(x, mixture.density(x)), order=_MAX_ORDER)
    mixed = standard_cumulants(mixture, order=_MAX_ORDER)
    h = Fraction(3, 500)
    sigma2 = 1 + h**2 / 6
    for k in range(3, _MAX_ORDER + 1):
        hat = 2 * Fraction(str(bernoulli(k))) / k if k % 2 == 0 else 0
        exact = (mixed.gamma(k) + h**k * hat) / sigma2 ** (k // 2)
        expected = float(exact) / math.sqrt(sigma2) ** (k % 2)
        assert table.gamma(k) == pytest.approx(expected, rel=1e-11), k
