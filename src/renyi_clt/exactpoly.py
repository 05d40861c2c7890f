"""Exact univariate polynomial arithmetic and Chebyshev-Hermite polynomials.

Polynomials are stored densely: ``coeffs[k]`` is the coefficient of ``x**k``.
Arithmetic is exact whenever the coefficients are ``int`` or
``fractions.Fraction``; float coefficients are accepted and simply propagate
through the same code paths (mixed inputs degrade to float).

The Chebyshev-Hermite (probabilists' Hermite) polynomials are the monic
family orthogonal under the standard normal weight, generated by

    H_{k+1}(x) = x * H_k(x) - k * H_{k-1}(x),    H_0 = 1,  H_1 = x,

with H_k' = k * H_{k-1} and the Appell-type relation
H_k'(x) - x * H_k(x) = -H_{k+1}(x).

Every partition sum of the library (cumulants, Edgeworth polynomials,
expansion coefficients) is a log, an exp or a power of a truncated power
series, and one private engine takes them all in Python ints.  A series
sum_k a_k t**k with rational coefficients, each a number or a polynomial,
is carried in graded-integer form: with c the common denominator of its
coefficients, A_k = c**k a_k is a list of integer coefficients
(:func:`_graded`).  With E_k = k! c**k e_k and Lambda_k = k! c**k l_k the
classical derivative recursions (Brent and Kung, J. ACM 25, 1978) for
exp(sum a_k t**k) = sum e_k t**k, a_0 = 0, and log(sum a_k t**k) =
sum l_k t**k, a_0 = 1, become

    E_k = sum_{i<=k} i (k-1)!/(k-i)! A_i E_{k-i},                 E_0 = 1,
    Lambda_k = k! A_k - sum_{i<k} (k-1)!/(i-1)! Lambda_i A_{k-i},

integer products and sums with no division (:func:`_graded_exp`,
:func:`_graded_log`).  A caller makes one ``Fraction`` per value it
returns.  :func:`_exp_series` and :func:`_log_series` do so for a list of
int, ``Fraction``, float or ``Poly`` coefficients.

The engine evaluates at a rational point p/q by an integer Horner pass
too: with the integer numerators n_k of a polynomial over one denominator d
(:func:`_integer_form`), :func:`_horner` gives sum_k n_k p**k q**(D-k), and
the value is that over d q**D, one ``Fraction`` at the end
(``expansion._laurent_at``).  ``Poly.__call__`` is the plain Horner rule.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._lazy import np

__all__ = ["Poly", "hermite"]


def _is_array(x) -> bool:
    """Whether ``x`` is a numpy array.  A number never reaches ``np``, so
    exact and scalar evaluation does not load numpy."""
    return not isinstance(x, (int, float, Fraction)) and isinstance(x, np.ndarray)


class Poly:
    """Dense univariate polynomial with exact (or float) coefficients.

    Immutable: all operations return new instances.  The zero polynomial is
    represented by an empty coefficient tuple and has degree -1.
    """

    __slots__ = ("coeffs", "_float_cache", "_int_cache")

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_float_cache", None)
        object.__setattr__(self, "_int_cache", None)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def _over(cls, nums, den: int) -> "Poly":
        """The polynomial sum_k nums[k] x**k / den for integers ``nums`` and
        ``den`` > 0, with ``Fraction`` coefficients."""
        return cls(Fraction(v, den) for v in nums)

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int):
        """Coefficient of x**k (0 beyond the stored degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, float)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(f"{c}")
            elif k == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{k}")
        return "Poly(" + " + ".join(terms) + ")"

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, float)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, float)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(_addmul([0], self.coeffs, other.coeffs, 1))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are supported")
        result = Poly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # no square beyond the top bit
                base = base * base
        return result

    def derivative(self) -> "Poly":
        """Exact formal derivative."""
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    # -- evaluation -----------------------------------------------------

    def _integer_form(self):
        """The :func:`_integer_form` of the coefficients, cached."""
        if self._int_cache is None:
            object.__setattr__(self, "_int_cache", _integer_form(self.coeffs))
        return self._int_cache

    def float_coeffs(self) -> np.ndarray:
        """Coefficients as a float array (cached), low degree first."""
        if self._float_cache is None:
            arr = np.array([float(c) for c in self.coeffs], dtype=float)
            object.__setattr__(self, "_float_cache", arr)
        return self._float_cache

    def __call__(self, x):
        """Horner evaluation in the arithmetic of ``x`` and the
        coefficients: exact when both are rational, float otherwise.  numpy
        arrays are evaluated with float coefficients."""
        if _is_array(x):
            cs = self.float_coeffs()
            acc = np.zeros_like(x, dtype=float)
            for c in cs[::-1]:  # in place: the same roundings, no temporaries
                acc *= x
                acc += c
            return acc
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


_HERMITE_CACHE = [Poly((1,)), Poly((0, 1))]


def hermite(k: int) -> Poly:
    """Chebyshev-Hermite polynomial H_k (monic, degree k, integer coefficients)."""
    if k < 0:
        raise ValueError("hermite order must be non-negative")
    x = Poly.x()
    while len(_HERMITE_CACHE) <= k:
        m = len(_HERMITE_CACHE) - 1
        _HERMITE_CACHE.append(x * _HERMITE_CACHE[m] - m * _HERMITE_CACHE[m - 1])
    return _HERMITE_CACHE[k]


def _horner(nums: list, p: int, q: int) -> int:
    """sum_k nums[k] p**k q**(D-k), D = len(nums) - 1: q**D times the
    polynomial with integer coefficients ``nums`` at p/q, in ints."""
    acc = 0
    scale = 1
    for c in reversed(nums):
        acc = acc * p + c * scale
        scale *= q
    return acc


def _addmul(acc: list, p: list, q: list, w: int) -> list:
    """acc += w p q in place, for polynomials as coefficient lists (of
    integers in the engine) and an integer w; acc grows to the length of the
    product."""
    top = len(p) + len(q) - 1
    if len(acc) < top:
        acc.extend([0] * (top - len(acc)))
    right = [(j, b) for j, b in enumerate(q) if b]
    for i, a in enumerate(p):
        if a:
            a *= w
            for j, b in right:
                acc[i + j] += a * b
    return acc


def _truncated_product(p: list, q: list) -> list:
    """p * q for series of integer polynomial coefficient lists, truncated
    at the length of p."""
    out = [[0] for _ in p]
    for i, a in enumerate(p):
        if any(a):
            for j, b in enumerate(q[: len(p) - i]):
                if any(b):
                    _addmul(out[i + j], a, b, 1)
    return out


def _integer_form(values) -> tuple:
    """(nums, den) in ints with values[k] = nums[k] / den, den the least
    common denominator, for int, ``Fraction`` or float values (a float at
    its binary value)."""
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _graded(coeffs: list):
    """(A, c) for a series of int, ``Fraction``, float or ``Poly``
    coefficients: c the common denominator of every coefficient and
    A_k = c**k coeffs[k] as a list of integer polynomial coefficients, a
    number being a constant."""
    rows = []
    for a in coeffs:
        if isinstance(a, Poly):
            rows.append(a._integer_form())
        else:  # a number, read through one Fraction
            a = Fraction(a)
            rows.append(([a.numerator], a.denominator))
    c = math.lcm(*(den for _, den in rows))
    graded = []
    for k, (nums, den) in enumerate(rows):
        scale = c**k // den
        graded.append([v * scale for v in nums])
    return graded, c


def _graded_exp(series: list) -> list:
    """E_k = k! c**k e_k for exp(sum_k a_k t**k) = sum_k e_k t**k, a_0 = 0,
    from A_k = c**k a_k (``series[0]`` is not read), by the recursion of the
    module docstring; integer polynomial coefficient lists in and out."""
    out = [[1]]
    for k in range(1, len(series)):
        acc = [0]
        for i in range(1, k + 1):
            if any(series[i]):
                _addmul(acc, series[i], out[k - i], i * math.perm(k - 1, i - 1))
        out.append(acc)
    return out


def _graded_log(series: list) -> list:
    """Lambda_k = k! c**k l_k for log(sum_k a_k t**k) = sum_k l_k t**k,
    a_0 = 1, from A_k = c**k a_k, by the recursion of the module docstring;
    integer polynomial coefficient lists in and out."""
    out = [[0]]
    for k in range(1, len(series)):
        acc = [math.factorial(k) * v for v in series[k]]
        for i in range(1, k):
            if any(out[i]):
                _addmul(acc, out[i], series[k - i], -math.perm(k - 1, k - i))
        out.append(acc)
    return out


def _ungraded(coeffs: list, graded: list, c: int, first) -> list:
    """[first, e_1, e_2, ...] with e_k = graded[k] / (k! c**k): a ``Poly``
    when ``coeffs`` holds one, otherwise a ``Fraction``, rounded once to a
    float when ``coeffs`` holds a float."""
    if any(isinstance(a, Poly) for a in coeffs):
        value = Poly._over
    elif any(isinstance(a, float) for a in coeffs):
        value = lambda nums, den: float(Fraction(nums[0], den))  # noqa: E731
    else:
        value = lambda nums, den: Fraction(nums[0], den)  # noqa: E731
    return [first] + [
        value(graded[k], math.factorial(k) * c**k) for k in range(1, len(graded))
    ]


def _exp_series(coeffs: list) -> list:
    """exp(sum_k coeffs[k] t**k) truncated at the same order, for
    coeffs[0] == 0, from :func:`_graded_exp`: 1, then each coefficient
    typed by :func:`_ungraded`."""
    graded, c = _graded(coeffs)
    return _ungraded(coeffs, _graded_exp(graded), c, 1)


def _log_series(coeffs: list) -> list:
    """log(sum_k coeffs[k] t**k) truncated at the same order, for
    coeffs[0] == 1, from :func:`_graded_log`: 0, then each coefficient
    typed by :func:`_ungraded`."""
    graded, c = _graded(coeffs)
    return _ungraded(coeffs, _graded_log(graded), c, 0)
