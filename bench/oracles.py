"""Closed-form oracles for the density of Z_n = (X_1 + ... + X_n)/sqrt(n).

Every oracle here is built from the law's own closed form, never from the
library's Fourier inversion path, and none of them imports from ``tests/``:

* uniform on (-sqrt(3), sqrt(3)): Irwin-Hall.  Small n use the exact
  rational pieces; large n use the cardinal B-spline recursion, which is a
  positive, stable real-space route to the same density.  ``int p_n^2`` is
  the exact rational Irwin-Hall value IH_{2n}(n) times sqrt(n/12).
* two-sided exponential (Laplace, variance 1): closed forms for n = 1, 2.
* standardized Gamma(alpha): Z_n is a standardized Gamma(n alpha), evaluated
  in Stirling-normalised log form, with the Stirling remainder of
  lgamma(n alpha) from mpmath; ``scipy.stats.gamma`` subtracts lgamma(n alpha)
  itself and so loses about four digits at n alpha = 8192.
* two-component Gaussian mixture: Z_n is the binomial mixture over how many
  summands came from the first component.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, factorial

import mpmath
import numpy as np
from scipy import stats

_LOG_SQRT_2PI = 0.5 * math.log(2 * math.pi)

# uniform grids above this many B-spline updates are checked on a subsample
_BSPLINE_BUDGET = 2**24
# binomial mixture weights below this cannot move a density by 1e-18
_PMF_FLOOR = 1e-20


class Law:
    """A base law with an exact density of Z_n and an exact int p_n^2."""

    def density(self, n: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def l2(self, n: int) -> float:
        raise NotImplementedError

    def check_points(self, n: int, npoints: int) -> np.ndarray:
        """Indices of the grid points the oracle is evaluated at."""
        return np.arange(npoints)

    def cumulants34(self):
        """(gamma_3, gamma_4) of the base law, exact wherever the law allows."""
        raise NotImplementedError


# -- uniform ---------------------------------------------------------------


def irwin_hall_pieces(n: int):
    """Density of U_1 + ... + U_n as exact polynomial pieces in the local
    variable u = y - k on [k, k + 1): list of rational coefficient lists,
    lowest degree first."""
    pieces = []
    for k in range(n):
        # f(y) = 1/(n-1)! sum_{i<=k} (-1)^i C(n, i) (y - i)^(n-1), y = k + u
        coeffs = [Fraction(0)] * n
        for i in range(k + 1):
            c = Fraction((-1) ** i * comb(n, i), factorial(n - 1))
            for d in range(n):
                coeffs[d] += c * comb(n - 1, d) * (k - i) ** (n - 1 - d)
        pieces.append([float(c) for c in coeffs])
    return pieces


def _bspline(n: int, y: np.ndarray, chunk: int = 2048) -> np.ndarray:
    """Irwin-Hall density M_n(y) by M_k(y) = (y M_{k-1}(y) + (k - y)
    M_{k-1}(y - 1)) / (k - 1), carried on the shifts y - j, j = 0..n-1."""
    y = np.asarray(y, dtype=float)
    if y.size > chunk:
        return np.concatenate([_bspline(n, y[i : i + chunk]) for i in range(0, y.size, chunk)])
    frac = y - np.floor(y)
    base = np.floor(y).astype(np.int64)
    # vals[:, j] = M_k(frac + j) for j = 0..k-1
    vals = np.ones((y.size, 1))
    for k in range(2, n + 1):
        j = np.arange(k)
        t = frac[:, None] + j
        left = np.zeros((y.size, k))
        left[:, : k - 1] = vals
        right = np.zeros((y.size, k))
        right[:, 1:] = vals
        vals = (t * left + (k - t) * right) / (k - 1)
    out = np.zeros(y.size)
    inside = (base >= 0) & (base < n)
    rows = np.nonzero(inside)[0]
    out[rows] = vals[rows, base[rows]]
    return out


class UniformLaw(Law):
    """Uniform on (-sqrt(3), sqrt(3)): Z_n is an affine Irwin-Hall law."""

    _SMALL_N = 8  # exact pieces up to here

    def density(self, n, x):
        a = math.sqrt(n / 12.0)
        y = a * np.asarray(x, dtype=float) + n / 2.0
        if n <= self._SMALL_N:
            out = np.zeros_like(y)
            for k, coeffs in enumerate(irwin_hall_pieces(n)):
                mask = (y >= k) & (y < k + 1)
                u = y[mask] - k
                acc = np.zeros_like(u)
                for c in reversed(coeffs):
                    acc = acc * u + c
                out[mask] = acc
            return a * out
        return a * _bspline(n, y)

    def check_points(self, n, npoints):
        if n <= self._SMALL_N or npoints * n * n <= _BSPLINE_BUDGET:
            return np.arange(npoints)
        count = max(8, _BSPLINE_BUDGET // (n * n))
        # sample the bulk |x| < extent/2, where the density and its error live
        return np.unique(np.linspace(npoints // 4, 3 * npoints // 4, count).astype(int))

    def cumulants34(self):
        return Fraction(0), Fraction(-6, 5)

    def l2(self, n):
        # int p_Z^2 = sqrt(n/12) * IH_{2n}(n), IH the Irwin-Hall density
        m = 2 * n
        total = sum((-1) ** i * comb(m, i) * (n - i) ** (m - 1) for i in range(n + 1))
        return math.sqrt(n / 12.0) * float(Fraction(total, factorial(m - 1)))


# -- Laplace -----------------------------------------------------------------


class LaplaceLaw(Law):
    """Two-sided exponential with variance 1, for n = 1 and 2."""

    def density(self, n, x):
        z = np.abs(np.asarray(x, dtype=float))
        if n == 1:
            return np.exp(-math.sqrt(2.0) * z) / math.sqrt(2.0)
        if n == 2:
            return 0.5 * (1.0 + 2.0 * z) * np.exp(-2.0 * z)
        raise ValueError("Laplace oracle covers n = 1 and 2")

    def cumulants34(self):
        return Fraction(0), Fraction(3)

    def l2(self, n):
        if n == 1:
            return 1.0 / (2.0 * math.sqrt(2.0))
        if n == 2:
            return 5.0 / 16.0
        raise ValueError("Laplace oracle covers n = 1 and 2")


# -- Gamma -------------------------------------------------------------------


def _stirling_remainder(k: float) -> float:
    """lgamma(k) - [(k - 1/2) log k - k + log sqrt(2 pi)], to full precision."""
    with mpmath.workdps(40):
        kk = mpmath.mpf(k)
        exact = mpmath.loggamma(kk)
        approx = (kk - 0.5) * mpmath.log(kk) - kk + 0.5 * mpmath.log(2 * mpmath.pi)
        return float(exact - approx)


class GammaLaw(Law):
    """(xi - alpha)/sqrt(alpha), xi ~ Gamma(alpha): Z_n is a standardized
    Gamma(n alpha)."""

    def __init__(self, alpha):
        self.alpha = alpha

    def cumulants34(self):
        alpha = Fraction(self.alpha)
        root = Fraction(math.isqrt(alpha.numerator), math.isqrt(alpha.denominator))
        if root * root != alpha:
            raise ValueError("gamma oracle needs a rational sqrt(alpha)")
        return 2 / root, 6 / alpha

    def density(self, n, x):
        k = n * float(self.alpha)
        u = np.asarray(x, dtype=float) / math.sqrt(k)
        out = np.zeros_like(u)
        pos = u > -1.0
        up = u[pos]
        # log of sqrt(k) * Gamma(k) pdf at k (1 + u), Stirling-normalised
        logp = (
            (k - 1.0) * np.log1p(up) - k * up - _LOG_SQRT_2PI - _stirling_remainder(k)
        )
        out[pos] = np.exp(logp)
        return out

    def l2(self, n):
        # int g_k^2 = Gamma(2k - 1) / (Gamma(k)^2 2^(2k-1)), scaled by sqrt(k)
        k = n * float(self.alpha)
        with mpmath.workdps(40):
            kk = mpmath.mpf(k)
            val = mpmath.sqrt(kk) * mpmath.exp(
                mpmath.loggamma(2 * kk - 1) - 2 * mpmath.loggamma(kk) - (2 * kk - 1) * mpmath.log(2)
            )
            return float(val)


# -- Gaussian mixture ----------------------------------------------------------


class MixtureLaw(Law):
    """sum_i w_i N(mu_i, sigma_i^2) with two components."""

    def __init__(self, weights, means, sigmas):
        if len(weights) != 2:
            raise ValueError("mixture oracle covers two components")
        self.weights = [float(w) for w in weights]
        self.means = [float(m) for m in means]
        self.sigmas = [float(s) for s in sigmas]

    def _components(self, n):
        """(pmf, mean, sd) of the Z_n mixture terms that can matter."""
        w1 = self.weights[0]
        k = np.arange(n + 1)
        pmf = stats.binom.pmf(k, n, w1)
        keep = pmf > _PMF_FLOOR
        k, pmf = k[keep], pmf[keep]
        (m1, m2), (s1, s2) = self.means, self.sigmas
        mean = (k * m1 + (n - k) * m2) / math.sqrt(n)
        sd = np.sqrt((k * s1 * s1 + (n - k) * s2 * s2) / n)
        return pmf, mean, sd

    def density(self, n, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for w, m, s in zip(*self._components(n)):
            out += w * np.exp(-0.5 * ((x - m) / s) ** 2 - _LOG_SQRT_2PI) / s
        return out

    def l2(self, n):
        pmf, mean, sd = self._components(n)
        var = sd[:, None] ** 2 + sd[None, :] ** 2
        diff = mean[:, None] - mean[None, :]
        gauss = np.exp(-0.5 * diff * diff / var - _LOG_SQRT_2PI) / np.sqrt(var)
        return float(pmf @ gauss @ pmf)

    def cumulants34(self):
        """From the raw moments E (m + s Z)^3 = m^3 + 3 m s^2 and
        E (m + s Z)^4 = m^4 + 6 m^2 s^2 + 3 s^4, in exact arithmetic on the
        parameters' binary values."""
        params = [
            [Fraction(v) for v in vs] for vs in (self.weights, self.means, self.sigmas)
        ]
        m3 = sum(w * (m**3 + 3 * m * s**2) for w, m, s in zip(*params))
        m4 = sum(w * (m**4 + 6 * m**2 * s**2 + 3 * s**4) for w, m, s in zip(*params))
        return m3, m4 - 3
