"""Integrals of polynomials against powers of the standard normal density.

For r > 0 the weight phi(x)**r is proportional to an N(0, 1/r) density:

    phi(x)**r = (2*pi)**(-(r-1)/2) * r**(-1/2) * sqrt(r/(2*pi)) * exp(-r x^2/2),

so every integral int P(x) phi(x)**r dx reduces to Gaussian moments of
variance 1/r.  In particular, for even k,

    int x**k phi(x)**r dx = mass(r) * (k-1)!! / r**(k/2),

with mass(r) = int phi(x)**r dx = (2*pi)**(-(r-1)/2) * r**(-1/2), and the
weighted Hermite integrals have the closed form

    int H_{2j}(x) phi(x)**r dx = (2j-1)!! * (1-r)**j
                                 / (r**((2j+1)/2) * (2*pi)**((r-1)/2)),

vanishing for odd degrees by symmetry.  The prefactor is computed in log
space so that large r (up to ~1e3) underflows gracefully instead of
overflowing.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactpoly import Poly

__all__ = [
    "double_factorial",
    "gauss_moment_exact",
    "gauss_power_mass",
    "gauss_power_moment",
    "gauss_power_integral",
    "hermite_integral",
]


def double_factorial(k: int) -> int:
    """k!! as an exact integer, with (-1)!! = 0!! = 1."""
    if k < -1:
        raise ValueError("double factorial needs k >= -1")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def gauss_moment_exact(k: int) -> int:
    """int x**k phi(x) dx exactly: (k-1)!! for even k, 0 for odd k."""
    if k < 0:
        raise ValueError("moment order must be non-negative")
    if k % 2:
        return 0
    return double_factorial(k - 1)


def _check_r(r: float) -> None:
    if not r > 0:
        raise ValueError(f"power r must be positive, got {r}")


def _log_mass(r: float) -> float:
    return -0.5 * (r - 1) * math.log(2 * math.pi) - 0.5 * math.log(r)


def gauss_power_mass(r: float) -> float:
    """int phi(x)**r dx = (2*pi)**(-(r-1)/2) / sqrt(r)."""
    _check_r(r)
    return math.exp(_log_mass(r))


def gauss_power_moment(k: int, r: float) -> float:
    """int x**k phi(x)**r dx; zero for odd k."""
    _check_r(r)
    if k < 0:
        raise ValueError("moment order must be non-negative")
    if k % 2:
        return 0.0
    j = k // 2
    return double_factorial(k - 1) * math.exp(_log_mass(r) - j * math.log(r))


def _moment_ratio(p: Poly, r: float):
    """int P(x) phi(x)**r dx / int phi(x)**r dx = sum_k c_k (k-1)!! r**(-k/2).

    Odd k drop out, so only integer powers of r remain; the sum is exact (a
    Fraction) whenever the coefficients are rational.
    """
    _check_r(r)
    try:
        r_exact = Fraction(r)
    except (OverflowError, ValueError):
        raise ValueError(f"power r must be finite, got {r}") from None
    total = Fraction(0)
    for k, c in enumerate(p.coeffs):
        if k % 2 or c == 0:
            continue
        total = total + c * double_factorial(k - 1) / r_exact ** (k // 2)
    return total


def gauss_power_integral(p: Poly, r: float) -> float:
    """int P(x) phi(x)**r dx as an exact linear combination of moments.

    The rational part (``_moment_ratio``) is accumulated in exact arithmetic
    whenever the coefficients are rational, so heavy cancellations --
    Hermite combinations near r = 1 -- cost no precision; the transcendental
    mass factor enters once at the end.
    """
    return float(_moment_ratio(p, r)) * gauss_power_mass(r)


def hermite_integral(k: int, r: float) -> float:
    """int H_k(x) phi(x)**r dx; exactly 0 for odd k, and for even k = 2j

        (2j-1)!! (1-r)**j / (r**((2j+1)/2) (2 pi)**((r-1)/2)).

    The rational factor (1-r)**j / r**j is evaluated exactly to stay
    consistent with :func:`gauss_power_integral` down to roundoff.
    """
    _check_r(r)
    if k < 0:
        raise ValueError("hermite order must be non-negative")
    if k % 2:
        return 0.0
    try:
        r_exact = Fraction(r)
    except (OverflowError, ValueError):
        raise ValueError(f"power r must be finite, got {r}") from None
    j = k // 2
    exact = double_factorial(k - 1) * (1 - r_exact) ** j / r_exact**j
    return float(exact) * gauss_power_mass(r)
