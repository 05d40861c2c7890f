from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exp_series, horner, log_series
from renyi_clt.cumulants import double_factorial
from renyi_clt.exactpoly import Poly, _exp_series, _log_series, hermite
from renyi_clt.expansion import _laurent_at

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


# -- the graded-integer engine against the Fraction recursions ------------------

_INTS = st.integers(-10**6, 10**6)
_FRACTIONS = st.fractions(min_value=-50, max_value=50, max_denominator=10**4)
_INT_POLYS = st.lists(st.integers(-20, 20), max_size=5).map(Poly)
_POINTS = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=10**6),
    st.floats(-30, 30, allow_nan=False).map(Fraction),
)


def _same(lib, ref):
    """Equal, and of the same type: a ``Poly`` with the same coefficient
    types, except that the graded engine gives a zero entry of a ``Poly``
    series as the zero ``Poly`` where the recursion may leave the number 0."""
    assert lib == ref
    if isinstance(lib, Poly) and not isinstance(ref, Poly):
        assert lib.is_zero() and ref == 0
        return
    assert type(lib) is type(ref)
    if isinstance(lib, Poly):
        assert [type(c) for c in lib.coeffs] == [type(c) for c in ref.coeffs]


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from([_INTS, _FRACTIONS, _INT_POLYS]),
    data=st.data(),
    order=st.integers(0, 7),
)
def test_graded_series_equal_the_fraction_recursions(kind, data, order):
    tail = data.draw(st.lists(kind, min_size=order, max_size=order))
    for lib, ref in (
        (_exp_series([0, *tail]), exp_series([0, *tail])),
        (_log_series([1, *tail]), log_series([1, *tail])),
    ):
        assert len(lib) == len(ref)
        for a, b in zip(lib, ref):
            _same(a, b)


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.lists(st.one_of(st.integers(-10**9, 10**9), _FRACTIONS), max_size=9),
    x=_POINTS,
    shift=st.integers(0, 12),
)
def test_integer_horner_equals_fraction_horner(coeffs, x, shift):
    # the engine's integer Horner pass (expansion._laurent_at over the
    # integer form) gives sum_k c_k x**(k - shift) exactly
    p = Poly(coeffs)
    point = Fraction(x)
    shift = shift if point else 0
    nums, den = p._integer_form()
    u, v = _laurent_at(nums, shift, point)
    assert Fraction(u, den * v) == horner(p, point) / point**shift
    assert p._integer_form() is p._integer_form()  # cached
    # Poly.__call__ is Horner's rule in the arithmetic of x and the coefficients
    _same(p(x), horner(p, x))


def test_integer_form_reads_floats_at_their_binary_value():
    # one integer form for every coefficient type: no float is refused
    assert Poly((0.5, Fraction(1, 3), 2))._integer_form() == ([3, 2, 12], 6)
    assert Poly((0.1,))._integer_form() == ([3602879701896397], 2**55)
    assert Poly()._integer_form() == ([], 1)


def test_integer_horner_keeps_the_result_types():
    assert type(Poly((1, 2))(3)) is int and Poly((1, 2))(3) == 7
    assert type(Poly((Fraction(2), 2))(3)) is Fraction
    assert type(Poly((1, 2))(Fraction(1, 2))) is Fraction
    assert type(Poly((1,))(Fraction(0))) is Fraction  # an integral Fraction point
    assert Poly()(Fraction(1, 3)) == 0 and type(Poly()(Fraction(1, 3))) is int
    assert Poly((Fraction(1, 2), 3))(0.5) == 2.0 and type(Poly((1, 3))(0.5)) is float
