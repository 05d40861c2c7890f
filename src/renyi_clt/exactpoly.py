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

The private truncated power-series engine (:func:`_truncated_product`,
:func:`_log_series`, :func:`_exp_series`) works on coefficient lists over
int, ``Fraction`` and ``Poly`` coefficients; every partition sum of the
library (cumulants, Edgeworth polynomials, expansion coefficients) is a log,
an exp or a power of such a series.
"""

from __future__ import annotations

from fractions import Fraction

from ._lazy import np

__all__ = ["Poly", "hermite"]


def _is_zero(c) -> bool:
    return c == 0


def _is_array(x) -> bool:
    """Whether ``x`` is a numpy array.  A number never reaches ``np``, so
    exact and scalar evaluation does not load numpy."""
    return not isinstance(x, (int, float, Fraction)) and isinstance(x, np.ndarray)


class Poly:
    """Dense univariate polynomial with exact (or float) coefficients.

    Immutable: all operations return new instances.  The zero polynomial is
    represented by an empty coefficient tuple and has degree -1.
    """

    __slots__ = ("coeffs", "_float_cache")

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and _is_zero(cs[-1]):
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_float_cache", None)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

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
            if _is_zero(c):
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
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        right = [(j, b) for j, b in enumerate(other.coeffs) if not _is_zero(b)]
        for i, a in enumerate(self.coeffs):
            if _is_zero(a):
                continue
            for j, b in right:
                out[i + j] += a * b
        return Poly(out)

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

    def float_coeffs(self) -> np.ndarray:
        """Coefficients as a float array (cached), low degree first."""
        if self._float_cache is None:
            arr = np.array([float(c) for c in self.coeffs], dtype=float)
            object.__setattr__(self, "_float_cache", arr)
        return self._float_cache

    def __call__(self, x):
        """Horner evaluation.

        Exact when ``x`` and the coefficients are rational; float otherwise.
        numpy arrays are evaluated with float coefficients.
        """
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


def _truncated_product(p: list, q: list) -> list:
    """p * q for coefficient lists of one length, truncated at that length."""
    out = [0] * len(p)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q[: len(p) - i]):
            if b != 0:
                out[i + j] += a * b
    return out


def _exp_series(coeffs: list) -> list:
    """exp(sum_k coeffs[k] t**k) truncated at the same order, for
    coeffs[0] == 0, by the derivative recursion

        k e_k = sum_{i=1}^{k} (i b_i) e_{k-i},    e_0 = 1.

    Exact over exact input, as exp(0) = 1 never enters as a float."""
    slopes = [i * c for i, c in enumerate(coeffs)]
    out = [1]
    for k in range(1, len(coeffs)):
        terms = (slopes[i] * out[k - i] for i in range(1, k + 1) if slopes[i] != 0)
        out.append(sum(terms, 0) * Fraction(1, k))
    return out


def _log_series(coeffs: list) -> list:
    """log(sum_k coeffs[k] t**k) truncated at the same order, for
    coeffs[0] == 1, by the derivative recursion

        k l_k = k a_k - sum_{i=1}^{k-1} (i l_i) a_{k-i},    l_0 = 0.
    """
    out = [0]
    slopes = [0]
    for k in range(1, len(coeffs)):
        terms = (slopes[i] * coeffs[k - i] for i in range(1, k) if slopes[i] != 0)
        out.append((k * coeffs[k] - sum(terms, 0)) * Fraction(1, k))
        slopes.append(k * out[k])
    return out
