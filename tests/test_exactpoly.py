from fractions import Fraction

import numpy as np
import pytest

from renyi_clt.cumulants import double_factorial
from renyi_clt.exactpoly import Poly, hermite

X = Poly.x()


def test_add_inverse_and_identity():
    assert X + (-X) == Poly()
    assert Poly() + hermite(4) == hermite(4)
    # H_3 = x^3 - 3x, so H_3 + 3x collapses to the pure cube
    assert hermite(3) + 3 * X == Poly((0, 0, 0, 1))


def test_mul():
    assert hermite(3) * hermite(3) == Poly((0, 0, 9, 0, -6, 0, 1))
    p = Poly((Fraction(1, 2), 3, Fraction(-2, 7)))
    assert Poly((1,)) * p == p
    assert Poly() * p == Poly()
    assert (X * X).degree == 2


def test_degree_additivity():
    a = Poly((1, 2, 3))
    b = Poly((0, Fraction(1, 3), 0, 5))
    assert (a * b).degree == a.degree + b.degree


def test_derivative():
    assert hermite(4).derivative() == 4 * hermite(3)
    assert Poly((7,)).derivative() == Poly()
    assert hermite(6).derivative() == 6 * hermite(5)


def test_hermite_goldens():
    assert hermite(0) == Poly((1,))
    assert hermite(1) == X
    assert hermite(4) == Poly((3, 0, -6, 0, 1))
    assert hermite(6)(0) == -15


def test_eval():
    assert hermite(3)(1) == -2
    assert hermite(5)(0) == 0
    p = Poly((Fraction(1, 3), 0, 2))
    assert p(0) == Fraction(1, 3)
    assert p(Fraction(1, 2)) == Fraction(1, 3) + Fraction(1, 2)
    arr = p(np.array([0.0, 1.0]))
    assert np.allclose(arr, [1 / 3, 1 / 3 + 2])


@pytest.mark.parametrize("k", range(1, 21))
def test_recurrence(k):
    assert hermite(k + 1) == X * hermite(k) - k * hermite(k - 1)


@pytest.mark.parametrize("k", range(1, 21))
def test_derivative_identity(k):
    assert hermite(k).derivative() == k * hermite(k - 1)


@pytest.mark.parametrize("k", range(13))
def test_appell_relation(k):
    assert hermite(k).derivative() - X * hermite(k) == -hermite(k + 1)


@pytest.mark.parametrize("k", range(21))
def test_parity(k):
    for i, c in enumerate(hermite(k).coeffs):
        if (i - k) % 2:
            assert c == 0


@pytest.mark.parametrize("k", range(11))
def test_even_hermite_at_zero(k):
    assert hermite(2 * k)(0) == (-1) ** k * double_factorial(2 * k - 1)


def test_monic():
    for k in range(21):
        assert hermite(k).degree == k
        assert hermite(k).coeffs[-1] == 1


def test_pow():
    p = Poly((1, 1))
    assert p**3 == Poly((1, 3, 3, 1))
    assert p**0 == Poly((1,))
