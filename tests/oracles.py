"""Independent oracles used by the tests.

These deliberately avoid the library's computational paths: the Irwin-Hall
pieces are assembled from first principles with exact rational arithmetic,
integration is plain antiderivative evaluation, the integrals against powers
of the normal density are Gaussian moments and closed forms, the cumulants,
the Edgeworth polynomials and the a_j are partition sums, the series exp
and log and Horner's rule take one Fraction operation at a time, the entropy and
sup-norm coefficients and the threshold r_0 are hand-derived formulas, and
the density fold adds
whole frequency periods in complex arithmetic, as it was first written, a
band grid is inverted from its zero-padded N-bin fold, the local limit
error is taken over the whole grid at once, and the Renyi entropies of Gamma
sums are log-Gamma closed forms in mpmath.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, inf, pi, prod, sqrt

import mpmath

from renyi_clt.edgeworth import EdgeworthModel, correction_polynomial
from renyi_clt.exactpoly import Poly, hermite
from renyi_clt.expansion import gauss_power_mass


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


def period_at_a_time_fold(spec, n: int, N: int, dt: float, h: float):
    """(samples, folds, cap_hit, ringing_bound) of the full-period fold as it
    was first written: whole periods of f_n added one after the other, in
    complex arithmetic, then inverted from their Hermitian bins.  Each
    period reaches the law as one ``Lattice``.  The stopping rule is the
    library's, with its ``_TAIL_BOUND`` and ``_EVAL_CAP`` read at call time.
    The first Richardson column R1_K = 2 S_2K - S_K steps by
    d_K = 2 (S_2K - S_K) - (S_K - S_{K/2}), the second R2_K = R1_K + d_K/7
    by (8 d_K - d_{K/2})/7, each step's size being the l1 norm over N h of
    its two-sided bins.  A column settles after two calm doublings, the
    first winning a tie; the second's doubling is calm only when its step
    is also not above the first's.  The second column's bin 0 is
    R1_K + (11 d_K - d_{K/2})/21.  Its weights are products by 1/7 and
    1/21, as in the library: real and complex products round alike, where
    numpy's complex division by 7 does not match the real one."""
    import numpy as np
    from renyi_clt import numerics
    from renyi_clt.distributions import Lattice

    def period(k):
        t = Lattice(k * N, N, dt)
        return np.asarray(spec.cf(t / sqrt(n)), dtype=complex) ** n

    def bins(fold):
        b = np.arange(N // 2 + 1)
        return fold[b] + np.conj(fold[-b])

    def size(fn):
        sizes = np.abs(fn)
        return float(2.0 * sizes.sum() - sizes[0] - sizes[-1]) / (N * h)

    def invert(fn):
        fn[0] -= 1.0
        fn[1::2] *= -1.0
        return np.fft.irfft(np.conj(fn), n=N) / h

    bound = numerics._TAIL_BOUND
    max_periods = max(1, numerics._EVAL_CAP // N)
    quarter = N // 4
    fold = np.zeros(N, dtype=complex)
    fold += period(0)
    tail_int = float(np.abs(fold[-quarter:]).sum()) * dt
    ringing = tail_int * (N * dt / (quarter * dt)) / pi
    if ringing < bound or max_periods < 2:
        return invert(bins(fold)), 1, ringing >= bound, ringing

    periods, difference, d, first, second, calm = 1, None, [None, None], inf, inf, [0, 0]
    while 2 * periods <= max_periods and max(calm) < 2:
        wider = fold.copy()
        for k in range(periods, 2 * periods):
            wider += period(k)
        previous, difference = difference, bins(wider - fold)
        extrapolant, fold, periods = 2.0 * wider - fold, wider, 2 * periods
        if previous is not None:
            d = [2.0 * difference - previous, d[0]]
            first = size(d[0])
            calm[0] = calm[0] + 1 if first < bound else 0
        if d[1] is not None:
            second = size((8.0 * d[0] - d[1]) * (1 / 7))
            calm[1] = calm[1] + 1 if second < bound and second <= first else 0
    fn = bins(extrapolant)
    if calm[0] == 2 or calm[1] < 2:
        return invert(fn), periods, calm[0] < 2, first
    head = fn[0] + (11.0 * d[0][0] - d[1][0]) * (1 / 21)
    fn = fn + d[0] * (1 / 7)
    fn[0] = head
    return invert(fn), periods, False, second


def zero_padded_band_inversion(band, N: int, h: float):
    """Density samples at N points of spacing h from f_n on the band m < M,
    as the band inversion was first written: the band zero-padded to a
    complex N-bin fold, whose N/2 + 1 Hermitian bins are all made, less the
    m = 0 term, phase-shifted and, for a complex cf, conjugated before the
    inverse FFT."""
    import numpy as np

    fold = np.zeros(N, dtype=complex)
    fold[: len(band)] = band
    b = np.arange(N // 2 + 1)
    fn = fold[b] + np.conj(fold[-b])
    fn[0] -= 1.0
    fn[1::2] *= -1.0
    if np.iscomplexobj(band):
        np.conjugate(fn, out=fn)
    values = np.fft.irfft(fn, n=N)
    values /= h
    return values


def one_shot_locallimit_errors(model, grids: dict, ns) -> list:
    """max_x (1 + |x|**m) |p_n(x) - phi_m(x)| for each n of ``ns``, taken
    over the whole grid at once, as ``harness.cmd_locallimit`` was first
    written."""
    import numpy as np

    x = grids[ns[0]].x
    weight = 1.0 + np.abs(x) ** model.order
    return [float(np.max(weight * np.abs(grids[n].values - approx)))
            for n, approx in zip(ns, model.densities(ns, x))]


def richardson(estimate_n: float, estimate_2n: float) -> float:
    """Two-point Richardson extrapolation for first-order-in-1/n estimators:
    2*E(2n) - E(n) removes the 1/n contamination."""
    return 2.0 * estimate_2n - estimate_n


def gauss_moment_exact(k: int) -> int:
    """int x**k phi(x) dx exactly: (k-1)!! for even k, 0 for odd k."""
    return 0 if k % 2 else prod(range(k - 1, 0, -2))


def gauss_power_integral(p: Poly, r) -> float:
    """int P(x) phi(x)**r dx: phi**r is int phi**r times the N(0, 1/r)
    density, so the moment ratio sum_k c_k (k-1)!! r**(-k/2) is summed
    exactly and int phi**r enters once at the end."""
    mass, x = gauss_power_mass(r), Fraction(r)
    ratio = sum(Fraction(c) * gauss_moment_exact(k) / x ** (k // 2)
                for k, c in enumerate(p.coeffs))
    return float(ratio) * mass


def hermite_integral(k: int, r) -> float:
    """int H_k(x) phi(x)**r dx by the closed form: 0 for odd k and, for k = 2j,
    (2j-1)!! (1-r)**j / (r**((2j+1)/2) (2 pi)**((r-1)/2)), the rational
    factor (1-r)**j / r**j taken exactly."""
    mass, x = gauss_power_mass(r), Fraction(r)
    j = k // 2
    return 0.0 if k % 2 else float(gauss_moment_exact(k) * (1 - x) ** j / x**j) * mass


# -- the Fraction series engine and Horner ------------------------------------


def truncated_product(p: list, q: list) -> list:
    """p * q for coefficient lists of one length over any ring (int,
    Fraction, float, Poly), truncated at that length."""
    out = [0] * len(p)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q[: len(p) - i]):
            if b != 0:
                out[i + j] += a * b
    return out


def exp_series(coeffs: list) -> list:
    """exp(sum_k coeffs[k] t**k) for coeffs[0] == 0 by the derivative
    recursion k e_k = sum_{i=1}^{k} (i b_i) e_{k-i}, e_0 = 1, one Fraction
    operation at every step: the library's series exp as first written."""
    slopes = [i * c for i, c in enumerate(coeffs)]
    out = [1]
    for k in range(1, len(coeffs)):
        terms = (slopes[i] * out[k - i] for i in range(1, k + 1) if slopes[i] != 0)
        out.append(sum(terms, 0) * Fraction(1, k))
    return out


def log_series(coeffs: list) -> list:
    """log(sum_k coeffs[k] t**k) for coeffs[0] == 1 by the derivative
    recursion k l_k = k a_k - sum_{i=1}^{k-1} (i l_i) a_{k-i}, l_0 = 0, one
    Fraction operation at every step: the library's series log as first
    written."""
    out = [0]
    slopes = [0]
    for k in range(1, len(coeffs)):
        terms = (slopes[i] * coeffs[k - i] for i in range(1, k) if slopes[i] != 0)
        out.append((k * coeffs[k] - sum(terms, 0)) * Fraction(1, k))
        slopes.append(k * out[k])
    return out


def horner(p: Poly, x):
    """p(x) by Horner's rule in the arithmetic of x and the coefficients,
    one operation at a time: ``Poly.__call__`` as first written."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


# -- partition sums ------------------------------------------------------------


def compositions(k: int):
    """All tuples (r_1, ..., r_k) of non-negative integers with
    r_1 + 2 r_2 + ... + k r_k = k, in ascending lexicographic order.

    The number of solutions equals the number of integer partitions of k.
    """
    if k < 1:
        raise ValueError("k must be positive")
    out = []
    r = [0] * k

    def rec(size, remaining):
        if size > k:
            if remaining == 0:
                out.append(tuple(r))
            return
        for cnt in range(remaining // size + 1):
            r[size - 1] = cnt
            rec(size + 1, remaining - size * cnt)
        r[size - 1] = 0

    rec(1, k)
    return tuple(out)


def cumulant_by_partitions(k: int, alpha):
    """gamma_k from the raw moments alpha = (alpha_1, ..., alpha_m), m >= k:

        gamma_k = k! sum (-1)**(j-1) (j-1)! prod_i (alpha_i / i!)**r_i / r_i!

    over (r_1..r_k) with sum i r_i = k and j = sum r_i, exactly."""
    total = Fraction(0)
    for parts in compositions(k):
        j = sum(parts)
        term = Fraction((-1) ** (j - 1) * factorial(j - 1))
        for i, r_i in enumerate(parts, start=1):
            term *= (Fraction(alpha[i - 1]) / factorial(i)) ** r_i / factorial(r_i)
        total += term
    return factorial(k) * total


def correction_polynomial_by_partitions(k: int, gammas) -> Poly:
    """Q_k from gammas = (gamma_3, ..., gamma_{k+2}):

        Q_k = sum prod_i (gamma_{i+2}/(i+2)!)**r_i / r_i! * H_{k+2j}

    over (r_1..r_k) with sum i r_i = k and j = sum r_i, exactly."""
    total = Poly()
    for parts in compositions(k):
        w = Fraction(1)
        for i, r_i in enumerate(parts, start=1):
            w *= (Fraction(gammas[i - 1]) / factorial(i + 2)) ** r_i / factorial(r_i)
        total = total + w * hermite(k + 2 * sum(parts))
    return total


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


# -- entropy coefficients by hand --------------------------------------------


def b_closed_form(r, cumulants):
    """First-order entropy coefficient by hand, with its limit branches:

        b(r)   = -(1/r) [ (2-r)/12 gamma_3**2 + (r-1)/8 gamma_4 ]  (1 < r < inf)
        b(1)   = -gamma_3**2 / 12
        b(inf) = gamma_3**2 / 12 - gamma_4 / 8

    Exact (Fraction) when the cumulants and r are rational.
    """
    g3, g4 = cumulants.gamma(3), cumulants.gamma(4)
    third, eighth = Fraction(1, 12), Fraction(1, 8)
    if r == inf:
        return third * g3**2 - eighth * g4
    if r == 1:
        return -third * g3**2
    return -((2 - r) * third * g3**2 + (r - 1) * eighth * g4) / r


def sign_change_threshold_closed_form(cumulants):
    """r_0 = (4 gamma_3**2 - 3 gamma_4) / (2 gamma_3**2 - 3 gamma_4), the
    hand-derived root in r of b(r) = b_1(r), above which b(r) > 0.  Defined
    only when gamma_3 != 0 and gamma_4 < (2/3) gamma_3**2; None otherwise.
    """
    g3, g4 = cumulants.gamma(3), cumulants.gamma(4)
    g32 = g3 * g3
    if g3 == 0 or not g4 < Fraction(2, 3) * g32:
        return None
    return (4 * g32 - 3 * g4) / (2 * g32 - 3 * g4)


def leading_entropy_coefficient(k: int, r, gamma_2k):
    """Leading entropy coefficient b_{k-1} when the first 2k-1 moments match
    the Gaussian ones:

        b_{k-1} = gamma_{2k} / (2**k k!) * (1/r - 1)**(k-1),

    exact when r and gamma_{2k} are rational.
    """
    return gamma_2k * Fraction(1, 2**k * factorial(k)) * (1 / Fraction(r) - 1) ** (k - 1)


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


# -- exact entropies without a grid -------------------------------------------


def exact_mpf(value):
    """An int, Fraction or float as an mpmath number at the working
    precision, rounded once."""
    value = Fraction(value)
    return mpmath.mpf(value.numerator) / value.denominator


def gamma_sum_renyi_entropy(k, r):
    """h_r of the standardized Gamma(k) law, which is Z_n of Gamma(alpha) at
    k = n alpha, as an mpmath number at the working precision.  With
    Y ~ Gamma(k) and Z = (Y - k)/sqrt(k),

        int p**r = k**((r-1)/2) Gamma(r(k-1)+1) / (Gamma(k)**r r**(r(k-1)+1)),

    so h_r = log(int p**r)/(1 - r); at r = 1 h = k + log Gamma(k)
    + (1-k) psi(k) - log(k)/2, and at r = inf h = -log sup p, where p peaks
    at Y's mode k - 1: h = log Gamma(k) + (k-1) (1 - log(k-1)) - log(k)/2.
    """
    k = mpmath.mpf(k)
    if r == 1:
        return k + mpmath.loggamma(k) + (1 - k) * mpmath.digamma(k) - mpmath.log(k) / 2
    if r == inf:
        return mpmath.loggamma(k) + (k - 1) * (1 - mpmath.log(k - 1)) - mpmath.log(k) / 2
    r = exact_mpf(r)
    z = r * (k - 1) + 1
    log_mass = ((r - 1) / 2 * mpmath.log(k) + mpmath.loggamma(z)
                - r * mpmath.loggamma(k) - z * mpmath.log(r))
    return log_mass / (1 - r)


def gaussian_renyi_entropy_exact(r):
    """h_r(Z) of the standard normal law at the working precision:
    log sqrt(2 pi) + log(r)/(2(r-1)), with the limits 1/2 at r = 1 and 0 at
    r = inf in the second term."""
    base = mpmath.log(2 * mpmath.pi) / 2
    if r == 1:
        return base + mpmath.mpf(1) / 2
    if r == inf:
        return base
    r = exact_mpf(r)
    return base + mpmath.log(r) / (2 * (r - 1))
