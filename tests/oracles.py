"""Independent oracles used by the tests.

These deliberately avoid the library's computational paths: the Irwin-Hall
pieces are assembled from first principles with exact rational arithmetic,
integration is plain antiderivative evaluation, and the sup-norm
coefficients are the hand-expanded fractions of the maximizer expansion.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod, sqrt

from renyi_clt.cumulants import compositions
from renyi_clt.edgeworth import EdgeworthModel, correction_polynomial
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


# -- the r = infinity branch by hand ------------------------------------------
#
# The order-6 corrected density phi_6 peaks at
#
#     x*(n) = a_1 n**(-1/2) + a_2 n**(-3/2) + O(n**(-5/2)),
#     a_1 = -gamma_3/2,   a_2 = gamma_3**3/4 - (5/12) gamma_3 gamma_4 + gamma_5/8,
#
# and expanding phi_6 there gives ||p_n||_inf = phi(0) (1 + A/n + B/n**2)
# + o(n**(-2)), with A = (gamma_4 - (2/3) gamma_3**2)/8 and B assembled from
# the correction polynomials along x*(n).  In entropy-power form
# N_inf(Z_n) = N_inf(Z) (1 - At/n + Bt/n**2), At = 2A, Bt = 3A**2 - 2B.


def extremum_series(cumulants):
    """(a_1, a_2) of the maximizer series x*(n) = a_1/sqrt(n) + a_2/n**(3/2)."""
    cumulants.require_order(5)
    g3, g4, g5 = (cumulants.gamma(k) for k in (3, 4, 5))
    a1 = -Fraction(1, 2) * g3
    a2 = Fraction(1, 4) * g3**3 - Fraction(5, 12) * g3 * g4 + Fraction(1, 8) * g5
    return a1, a2


@dataclass(frozen=True)
class SupNormExpansion:
    """a1, a2 locate the maximizer; b1..b4 are the four correction
    polynomials' contributions there; A, B the n**(-1), n**(-2) sup-norm
    coefficients and A_tilde, B_tilde their entropy-power counterparts."""

    a1: object
    a2: object
    b1: object
    b2: object
    b3: object
    b4: object
    A: object
    B: object
    A_tilde: object
    B_tilde: object


def supnorm_coefficients(cumulants) -> SupNormExpansion:
    """The hand-expanded coefficients of ||p_n||_inf / phi(0)."""
    cumulants.require_order(6)
    g3, g4, g5, g6 = (cumulants.gamma(k) for k in (3, 4, 5, 6))
    a1, a2 = extremum_series(cumulants)
    b1 = Fraction(1, 6) * g3 * (a1**3 - 3 * a2)
    b2 = (Fraction(45, 72) * g3**2 - Fraction(6, 24) * g4) * a1**2
    b3 = (
        Fraction(945, 1296) * g3**3
        - Fraction(105, 144) * g3 * g4
        + Fraction(15, 120) * g5
    ) * a1
    b4 = (
        Fraction(10395, 31104) * g3**4
        - Fraction(945, 1728) * g3**2 * g4
        + Fraction(105, 720) * g3 * g5
        + Fraction(105, 1152) * g4**2
        - Fraction(15, 720) * g6
    )
    # coefficient of 1/n in the correction factor at the maximizer
    q_lin = Fraction(1, 4) * g3**2 + Fraction(3, 24) * g4 - Fraction(15, 72) * g3**2
    A = -Fraction(1, 2) * a1**2 + q_lin
    B = (b1 + b2 + b3 + b4) + Fraction(1, 8) * a1**4 - a1 * a2 - Fraction(1, 2) * q_lin * a1**2
    return SupNormExpansion(
        a1=a1, a2=a2, b1=b1, b2=b2, b3=b3, b4=b4,
        A=A, B=B, A_tilde=2 * A, B_tilde=3 * A**2 - 2 * B,
    )


def solve_extremum(cumulants, n: int) -> float:
    """Root of phi_6'(x) nearest the origin, by Newton iteration safeguarded
    with bisection on [-1, 1], started from the series prediction a_1/sqrt(n).

    Raises when the derivative has no sign change on [-1, 1] or when the
    corrected density is not positive near the origin (n too small).
    """
    model = EdgeworthModel.from_cumulants(cumulants, order=6)
    # phi_6'(x) = phi(x) g(x) with g built from the correction polynomials
    factor = Poly((1,))
    g = Poly()
    for k in range(1, 5):
        factor = factor + float(n) ** (-k / 2) * model.q(k)
        g = g + float(n) ** (-k / 2) * model.q(k).derivative()
    g = g - Poly.x() * factor
    g_prime = g.derivative()

    x0 = float(extremum_series(cumulants)[0]) / sqrt(n)
    if factor(0.0) <= 0 or factor(x0) <= 0:
        raise ValueError(f"corrected density not positive near 0 at n={n}")
    lo, hi = -1.0, 1.0
    g_lo = g(lo)
    if (g_lo > 0) == (g(hi) > 0):
        raise ValueError("extremum not localized in [-1, 1]")
    x = min(max(x0, lo), hi)
    for _ in range(100):
        gx = g(x)
        if gx == 0:
            return x
        if (gx > 0) == (g_lo > 0):
            lo = x
        else:
            hi = x
        dgx = g_prime(x)
        x_new = x - gx / dgx if dgx != 0 else hi
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) < 1e-13:
            return x_new
        x = x_new
    return x
