"""Independent oracles used by the tests.

These deliberately avoid the library's computational paths: the Irwin-Hall
pieces are assembled from first principles with exact rational arithmetic,
and integration is plain antiderivative evaluation.
"""

from fractions import Fraction
from math import comb, factorial, prod, sqrt

from renyi_clt.cumulants import compositions
from renyi_clt.edgeworth import correction_polynomial
from renyi_clt.exactpoly import Poly


def poly_integral(p: Poly, a, b):
    """Exact integral of a rational-coefficient polynomial over [a, b]."""
    total = Fraction(0)
    for j, c in enumerate(p.coeffs):
        total += Fraction(c) * (Fraction(b) ** (j + 1) - Fraction(a) ** (j + 1)) / (j + 1)
    return total


def irwin_hall_pieces(n: int):
    """Density of U_1 + ... + U_n (U_i iid uniform on (0,1)) as exact
    polynomial pieces: list of (k, poly) with poly valid on [k, k+1].

    f(y) = (1/(n-1)!) * sum_{i<=floor(y)} (-1)**i C(n,i) (y-i)**(n-1)
    """
    pieces = []
    acc = Poly()
    for k in range(n):
        term = Fraction((-1) ** k * comb(n, k), factorial(n - 1))
        acc = acc + term * Poly((-k, 1)) ** (n - 1)
        pieces.append((k, acc))
    return pieces


def normalized_uniform_sum_lr(n: int, r: int) -> float:
    """Exact int p_n(x)**r dx for the uniform base law on (-sqrt(3), sqrt(3)).

    With a = sqrt(n/12), the density of Z_n is a * f_IH(a x + n/2), so the
    integral reduces to a**(r-1) * int f_IH(y)**r dy, the latter exact.
    """
    total = Fraction(0)
    for k, piece in irwin_hall_pieces(n):
        total += poly_integral(piece**r, k, k + 1)
    a = sqrt(n / 12.0)
    return a ** (r - 1) * float(total)


def normalized_uniform_sum_density(n: int, x):
    """Exact density of Z_n for the uniform base law, evaluated pointwise."""
    import numpy as np

    a = sqrt(n / 12.0)
    y = a * np.asarray(x, dtype=float) + n / 2.0
    out = np.zeros_like(y)
    for k, piece in irwin_hall_pieces(n):
        mask = (y >= k) & (y < k + 1)
        if mask.any():
            out[mask] = piece(y[mask])
    return a * np.maximum(out, 0.0)


def a_coefficient_by_compositions(j: int, r, cumulants):
    """a_j(r) summed afresh at one r, composition by composition:

        a_j = sum_ks (r)_{|ks|} / prod k_i! * int prod Q_i**k_i phi**r / int phi**r,

    with each moment ratio sum_m c_m (m-1)!! r**(-m/2) taken term by term.
    The sum is exact: a Fraction, in which the float coefficients of float
    cumulants enter at their binary values.
    """
    rx = Fraction(r)
    qs = [correction_polynomial(i, cumulants) for i in range(1, 2 * j + 1)]
    total = Fraction(0)
    for ks in compositions(2 * j):
        poly = Poly((1,))
        for q, k in zip(qs, ks):
            poly = poly * q**k
        weight = Fraction(1, prod(factorial(k) for k in ks))
        for i in range(sum(ks)):
            weight *= rx - i
        ratio = sum(
            Fraction(c) * prod(range(m - 1, 0, -2)) / rx ** (m // 2)
            for m, c in enumerate(poly.coeffs)
            if m % 2 == 0
        )
        total += weight * ratio
    return total
