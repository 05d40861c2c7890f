"""Standardized base laws: density, characteristic function, exact moments.

Every spec describes a law with mean 0 and variance 1 and exposes

    density(x)   -- vectorized pdf
    cf(t)        -- vectorized characteristic function E exp(itX) at a
                    scalar, an array or a ``Lattice``: complex, or a float
                    array for a law whose cf is real
    cf_envelope(t)
                 -- a non-increasing bound on |cf| over [t, inf) for t >= 0,
                    or None when the law has none (the inversion then
                    evaluates whole frequency periods)
    moments(m)   -- raw moments alpha_1..alpha_m, exact rationals wherever
                    the law allows it
    n_min        -- smallest n for which |cf(t/sqrt(n))|**n is integrable,
                    i.e. for which the normalized sum Z_n has a bounded
                    density recoverable by Fourier inversion
    support      -- a half-width s with the law inside [-s, s], inf when
                    unbounded; Z_n then lies in [-sqrt(n) s, sqrt(n) s]

The inversion asks for its frequencies as a ``Lattice``, the points
((first + j)*dt)/sqrt(n) of a fold block or a band, so a law that can use the
structure reads it from the indices and need not detect it.

The built-in families, each named in ``LAWS`` with the parameters
:func:`from_name` builds it from:

* ``Uniform``: uniform on (-sqrt(3), sqrt(3)); |cf| ~ 1/|t|, n_min = 2.
  Its cf on a lattice takes the sines from a two-level table of unit phases
  instead of one libm sine per point.
* ``StandardizedGamma(alpha)``: (xi - alpha)/sqrt(alpha) for xi ~
  Gamma(alpha); |cf(t)| = (1 + t**2/alpha)**(-alpha/2), n_min is the
  smallest n with n*alpha > 1.
* ``TwoSidedExponential``: Laplace with variance 1; cf = 1/(1 + t**2/2).
* ``GaussianMixture``: finite normal mixture, standardized by construction.
* ``GridDensity``: a tabulated density on a uniform grid, named ``grid``
  and read from a ``density_file`` of x,p rows.  Its cf is the exact
  transform of the piecewise-linear interpolant, evaluated on a lattice by
  a chirp z-transform; its moments come by Simpson quadrature.  It has no
  cf envelope: the lattice sum revives near every multiple of 2*pi/h, so no
  useful monotone bound exists.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from math import comb, factorial

from ._lazy import np
from .cumulants import double_factorial, moments_from_cumulants

__all__ = [
    "DistributionSpec",
    "Lattice",
    "Uniform",
    "StandardizedGamma",
    "TwoSidedExponential",
    "GaussianMixture",
    "GridDensity",
    "LAWS",
    "from_name",
]

_SQRT3 = math.sqrt(3.0)
# most frequencies one chirp z-transform takes at once (bounds its FFT length)
_CHIRP_BLOCK = 2**17
# row length of the uniform cf's angle table: M points take M/128 + 128
# sines and cosines
_SINE_ROW = 128
# a law's mass, mean and second moment must be 1, 0, 1 to this
_STANDARDIZED_TOL = 1e-10


@cache
def _index_range():
    """The float indices 0, 1, ..., 2**15 - 1, read-only, from which a
    lattice of up to 2**15 points (a fold block, a default grid's band) takes
    its points; built on first use, so that importing the module loads no
    numpy."""
    indices = np.arange(2**15, dtype=float)
    indices.flags.writeable = False
    return indices


def _simpson(y, dx: float) -> float:
    """Composite Simpson rule on equally spaced samples, as in
    ``scipy.integrate.simpson`` (1.17): an even count closes with
    Cartwright's rule for the last interval."""
    y = np.asarray(y, dtype=float)
    if y.size % 2:
        return float(np.sum(y[:-2:2] + 4.0 * y[1:-1:2] + y[2::2]) * (dx / 3.0))
    if y.size == 2:
        return float(0.5 * dx * (y[0] + y[1]))
    head = np.sum(y[:-3:2] + 4.0 * y[1:-2:2] + y[2:-1:2]) * (dx / 3.0)
    return float(head + (5 * dx / 12 * y[-1] + 2 * dx / 3 * y[-2] - dx / 12 * y[-3]))


def _exact_sqrt(value):
    """sqrt of a rational as a Fraction, or None when irrational."""
    try:
        frac = Fraction(value)
    except (TypeError, ValueError):
        return None
    if frac < 0:
        return None
    num = math.isqrt(frac.numerator)
    den = math.isqrt(frac.denominator)
    if num * num == frac.numerator and den * den == frac.denominator:
        return Fraction(num, den)
    return None


def _require_standardized(law: str, mass, mean, second) -> None:
    """Raise ``ValueError`` unless mass, mean and second moment are 1, 0
    and 1 to ``_STANDARDIZED_TOL``; written so that NaN fails."""
    if not (
        abs(mass - 1) <= _STANDARDIZED_TOL
        and abs(mean) <= _STANDARDIZED_TOL
        and abs(second - 1) <= _STANDARDIZED_TOL
    ):
        raise ValueError(
            f"{law} is not standardized: mass={mass}, mean={mean}, second moment={second}"
        )


class Lattice:
    """The frequencies t_j = ((first + j)*dt)/root, j = 0..size-1.

    The inversion hands one to ``cf`` per call: a block of fold period k
    (first = k*N + b) or a band (first = 0), with root = sqrt(n); dividing a
    lattice by s multiplies its root by s.  ``np.asarray`` gives the points,
    the doubles of ``dt*np.arange(first, first + size)/root``, as a new array
    that the caller may write, and ``size`` (so ``np.size``) counts them.
    """

    __slots__ = ("first", "size", "dt", "root")

    def __init__(self, first: int, size: int, dt: float, root: float = 1.0):
        if first < 0 or size < 1:
            raise ValueError(f"a lattice needs first >= 0 and size >= 1, not {first}, {size}")
        self.first, self.size, self.dt, self.root = int(first), int(size), dt, root

    def __truediv__(self, scale: float) -> "Lattice":
        return Lattice(self.first, self.size, self.dt, self.root * scale)

    def points(self, stop=None, step: int = 1) -> np.ndarray:
        """t_j for j in range(0, stop, step); stop defaults to ``size``.

        A new array on every call: ``first`` plus a shared read-only index
        range (exact, the indices being integers below 2**53), times dt, over
        root unless root is 1.  A lattice longer than the shared range fills
        its own."""
        stop = self.size if stop is None else min(stop, self.size)
        indices = _index_range()
        if stop <= len(indices):
            t = indices[:stop:step] + self.first
        else:
            t = np.arange(self.first, self.first + stop, step, dtype=float)
        t *= self.dt
        if self.root != 1.0:
            t /= self.root
        return t

    def __array__(self, dtype=None, copy=None):
        return self.points().astype(dtype or float, copy=False)


class DistributionSpec:
    """Interface shared by all standardized base laws.

    ``support`` is a half-width s such that the law puts no mass outside
    [-s, s], and inf for a law of unbounded support.  ``numerics`` folds
    the full-period inversion of Z_n, which lies in [-sqrt(n) s,
    sqrt(n) s], over the narrowest dyadic part of the grid that holds it.
    """

    name = "base"
    n_min = 1
    support = math.inf

    def density(self, x):
        raise NotImplementedError

    def cf(self, t):
        """E exp(itX) at each point of ``t``, as an array.

        ``t`` is a scalar, an array, or a ``Lattice`` (every call of the
        inversion).  A law that evaluates point by point reads a lattice as
        its points, ``np.asarray(t, dtype=float)``; the Gamma, Laplace and
        mixture laws do.  ``Uniform`` (a table of unit phases) and
        ``GridDensity`` (a chirp z-transform) read a lattice whole, from its
        indices, so their value at a point may depend, by rounding, on the
        lattice it came in; arrays take their pointwise formulas.

        A law with a real cf (a symmetric law) may return a float array:
        ``numerics`` then powers and folds it in real arithmetic, which is
        cheaper than complex and, for n >= 3, closer to the exact power.
        Other laws return complex arrays.  The array returned is new, and
        ``numerics`` powers it in place; the argument is never written.
        """
        raise NotImplementedError

    def cf_envelope(self, t: float):
        """A bound on |cf(s)| for every s >= t (t >= 0), non-increasing in t,
        or None when unknown.

        ``numerics`` uses it to evaluate f_n only on the band of frequencies
        where it is not negligible; None keeps the full-period inversion.
        """
        return None

    def moments(self, order: int):
        raise NotImplementedError

    def __repr__(self):
        """The class with the law's parameters, named as in ``LAWS``."""
        _, names = LAWS.get(self.name, (None, ()))
        params = ", ".join(f"{p}={getattr(self, p)}" for p in names)
        return f"{type(self).__name__}({params})"


class Uniform(DistributionSpec):
    """Uniform law on (-sqrt(3), sqrt(3))."""

    name = "uniform"
    n_min = 2
    support = _SQRT3

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= _SQRT3, 1.0 / (2.0 * _SQRT3), 0.0)

    def cf(self, t):
        """sin(sqrt(3) t)/(sqrt(3) t), and 1 at t = 0.

        A ``Lattice`` takes its sines from a two-level table of unit phases.
        Point R*q + r (R = 128) is taken at u = a_q + b_r, with
        a_q = sqrt(3) t[R*q] its row's first point and
        b_r = sqrt(3)(t[r] - t[0]) the first row's offsets, so
        sin u = sin a_q cos b_r + cos a_q sin b_r is one (M/R x 2)(2 x R)
        matrix product of [sin a, cos a] and [cos b; sin b], from M/R + R
        sines and cosines for M points.  The divisor a_q + b_r is the
        product of [a, 1] and [1; b], the same doubles as their sum, so each
        value is sinc at the table's angle.  No angle is negative (a lattice
        starts at an index >= 0): below pi/2 both terms are positive, so the
        sum keeps its relative accuracy near u = 0, and beyond, its absolute
        error of a few 2**-53 shrinks by 1/u.  On the inversion's lattices
        this errs by at most 4 2**-52 against a 40-digit sinc at the same
        float t.  Rows start at t[0], so lattices with the same first points
        (a band and the first block of its full period) get the same values
        there.  Any array or scalar takes ``np.sinc``, keeping its shape.
        """
        if not isinstance(t, Lattice):
            return np.sinc(_SQRT3 * np.asarray(t, dtype=float) / np.pi)
        rows = t.points(step=_SINE_ROW)
        rows *= _SQRT3
        offsets = t.points(stop=_SINE_ROW)
        offsets -= offsets[0]
        offsets *= _SQRT3
        # the factors of both products, filled in place
        left = np.empty((2, len(rows)))
        right = np.empty((2, len(offsets)))
        np.sin(rows, out=left[0])
        np.cos(rows, out=left[1])
        np.cos(offsets, out=right[0])
        np.sin(offsets, out=right[1])
        sine = left.T @ right
        left[0] = rows
        left[1] = 1.0
        right[0] = 1.0
        right[1] = offsets
        angle = left.T @ right
        if t.first == 0:
            sine[0, 0] = angle[0, 0] = 1.0
        sine /= angle
        return sine.ravel()[: t.size]

    def cf_envelope(self, t: float):
        """min(1, 1/(sqrt(3) t)), since |sin(u)/u| <= min(1, 1/u)."""
        u = _SQRT3 * t
        return 1.0 if u <= 1.0 else 1.0 / u

    def moments(self, order: int):
        out = []
        for k in range(1, order + 1):
            out.append(Fraction(3 ** (k // 2), k + 1) if k % 2 == 0 else 0)
        return out


class StandardizedGamma(DistributionSpec):
    """(xi - alpha)/sqrt(alpha) for xi ~ Gamma(alpha, 1); alpha > 0.

    Cumulants: gamma_k = (k-1)! * alpha**(1 - k/2); they (and hence the
    moments) are exact rationals whenever sqrt(alpha) is rational.
    """

    name = "gamma"

    def __init__(self, alpha):
        if not alpha > 0:
            raise ValueError("alpha must be positive")
        if alpha == math.inf:
            raise ValueError("alpha must be finite")
        if 1 / alpha == math.inf:
            raise ValueError(f"alpha={alpha} is too small: 1/alpha, and so n_min, overflows")
        try:
            self.sqrt_alpha = math.sqrt(float(alpha))
        except OverflowError:
            raise ValueError("alpha is too large: it overflows a float") from None
        self.alpha = alpha
        self._exact_root = _exact_sqrt(alpha)
        self.n_min = math.floor(1 / alpha) + 1

    def density(self, x):
        x = np.asarray(x, dtype=float)
        y = float(self.alpha) + self.sqrt_alpha * x
        with np.errstate(divide="ignore", invalid="ignore"):
            logpdf = (
                (float(self.alpha) - 1.0) * np.log(y) - y - math.lgamma(float(self.alpha))
            )
            vals = np.where(y > 0, np.exp(logpdf) * self.sqrt_alpha, 0.0)
        return vals

    def cf(self, t):
        t = np.asarray(t, dtype=float)
        base = 1.0 - 1j * t / self.sqrt_alpha
        return np.power(base, -float(self.alpha)) * np.exp(-1j * t * self.sqrt_alpha)

    def cf_envelope(self, t: float):
        """|cf(t)| = (1 + t**2/alpha)**(-alpha/2) exactly."""
        alpha = float(self.alpha)
        return (1.0 + t * t / alpha) ** (-0.5 * alpha)

    def _cumulants(self, order: int):
        root = self._exact_root
        gammas = [0, 1]
        for k in range(3, order + 1):
            if k % 2 == 0:
                g = factorial(k - 1) * Fraction(self.alpha) ** (1 - k // 2)
            elif root is not None:
                g = factorial(k - 1) * root ** (2 - k)
            else:
                g = factorial(k - 1) * float(self.alpha) ** (1 - k / 2)
            gammas.append(g)
        return gammas

    def moments(self, order: int):
        alphas = moments_from_cumulants(self._cumulants(order)).values
        return list(alphas[:order])


class TwoSidedExponential(DistributionSpec):
    """Laplace law with variance 1: density exp(-sqrt(2)|x|)/sqrt(2)."""

    name = "two_sided_exponential"

    _RATE = math.sqrt(2.0)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-self._RATE * np.abs(x)) / self._RATE

    def cf(self, t):
        """2/(2 + t**2), the same doubles as 1/(1 + t**2/2) since scaling
        by 2 commutes with rounding, computed in place in one buffer, which
        is returned: a ``Lattice``'s fresh points, or else a copy of the
        argument, which is never written.  A scalar gives a scalar."""
        s = t.points() if isinstance(t, Lattice) else np.array(t, dtype=float)
        s *= s
        s += 2.0
        return np.divide(2.0, s, out=s)[()]

    def cf_envelope(self, t: float):
        """|cf(t)| = 1/(1 + t**2/2) exactly."""
        return 1.0 / (1.0 + t * t / 2.0)

    def moments(self, order: int):
        return [
            Fraction(factorial(k), 2 ** (k // 2)) if k % 2 == 0 else 0
            for k in range(1, order + 1)
        ]


class GaussianMixture(DistributionSpec):
    """Finite normal mixture sum_i w_i N(mu_i, sigma_i**2), standardized.

    Construction requires finite weights w >= 0, finite means and positive
    sigmas, and enforces sum w = 1, sum w mu = 0 and
    sum w (mu**2 + sigma**2) = 1, to 1e-10.  Parameters that meet these
    exactly when read as Fractions (integers, Fractions, dyadic floats) give
    exact moments; all others give float moments.
    """

    name = "gaussian_mixture"

    def __init__(self, weights, means, sigmas):
        if not (len(weights) == len(means) == len(sigmas)) or not weights:
            raise ValueError("weights, means, sigmas must be equal-length, non-empty")
        if any(not s > 0 for s in sigmas):
            raise ValueError("all sigmas must be positive")
        # written so that NaN fails every check
        if any(not 0 <= w < math.inf for w in weights):
            raise ValueError("mixture weights must be finite and non-negative")
        if any(not abs(m) < math.inf for m in means):
            raise ValueError("mixture means must be finite")
        self.weights = tuple(weights)
        self.means = tuple(means)
        self.sigmas = tuple(sigmas)
        total = sum(self.weights)
        mean = sum(w * m for w, m in zip(self.weights, self.means))
        second = sum(
            w * (m * m + s * s)
            for w, m, s in zip(self.weights, self.means, self.sigmas)
        )
        _require_standardized("mixture", total, mean, second)

    @classmethod
    def standard_normal(cls) -> "GaussianMixture":
        return cls((1,), (0,), (1,))

    def _exact_params(self):
        """(w, mu, sigma**2) as Fractions when, read exactly, they describe a
        standardized law; None otherwise (irrational, or floats such as 0.6
        whose binary values miss the constraints by rounding)."""
        try:
            w = [Fraction(v) for v in self.weights]
            m = [Fraction(v) for v in self.means]
            s2 = [Fraction(v) ** 2 for v in self.sigmas]
        except (TypeError, ValueError):
            return None
        mean = sum(wi * mi for wi, mi in zip(w, m))
        second = sum(wi * (mi * mi + si) for wi, mi, si in zip(w, m, s2))
        if sum(w) != 1 or mean != 0 or second != 1:
            return None
        return w, m, s2

    def density(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=float)
        for w, m, s in zip(self.weights, self.means, self.sigmas):
            w, m, s = float(w), float(m), float(s)
            out += w * np.exp(-0.5 * ((x - m) / s) ** 2) / (s * math.sqrt(2 * math.pi))
        return out

    def cf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for w, m, s in zip(self.weights, self.means, self.sigmas):
            w, m, s = float(w), float(m), float(s)
            out += w * np.exp(1j * m * t - 0.5 * (s * t) ** 2)
        return out

    def cf_envelope(self, t: float):
        """sum |w_i| exp(-sigma_i**2 t**2 / 2), the triangle inequality."""
        return sum(
            abs(float(w)) * math.exp(-0.5 * (float(s) * t) ** 2)
            for w, s in zip(self.weights, self.sigmas)
        )

    def moments(self, order: int):
        exact = self._exact_params()
        if exact is not None:
            ws, ms, s2s = exact
        else:
            ws = [float(v) for v in self.weights]
            ms = [float(v) for v in self.means]
            s2s = [float(v) ** 2 for v in self.sigmas]
        out = []
        for k in range(1, order + 1):
            total = 0
            for w, m, s2 in zip(ws, ms, s2s):
                comp = 0
                for j in range(0, k + 1, 2):
                    # E (m + s Z)**k term with Z**j
                    comp += comb(k, j) * m ** (k - j) * s2 ** (j // 2) * double_factorial(j - 1)
                total += w * comp
            if isinstance(total, Fraction) and total.denominator == 1:
                total = total.numerator
            out.append(total)
        return out


class GridDensity(DistributionSpec):
    """Density tabulated on a uniform grid (linear interpolation off-lattice).

    The tabulation must describe a standardized law: finite x and p, and
    unit mass, zero mean and unit variance, verified by Simpson quadrature
    to 1e-10 at construction (a sum that overflows to NaN fails the check).
    ``n_min`` is 1 for every table: the interpolant's cf carries the factor
    sinc(t*h/(2*pi))**2, so |cf(t)| = O(t**-2) is integrable and Z_1
    already inverts.  ``support`` is max(|x_0|, |x_end|) + h: the hat of
    an end node reaches one step past it.  ``density_file`` names the file
    a table was read from (:meth:`from_file`), and is None for one built
    from arrays.
    """

    name = "grid"
    density_file = None

    def __init__(self, x, p):
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        if x.ndim != 1 or x.shape != p.shape or x.size < 8:
            raise ValueError("x and p must be equal-length 1-d arrays (>= 8 points)")
        if not (np.isfinite(x).all() and np.isfinite(p).all()):
            raise ValueError("x and p must be finite numbers")
        steps = np.diff(x)
        if not (steps.min() > 0 and np.ptp(steps) <= 1e-9 * steps.mean()):
            raise ValueError("x must be an increasing uniform grid")
        if p.min() < 0:
            raise ValueError("tabulated density has negative values")
        self.x = x
        self.p = p
        self.h = float(steps.mean())
        self.support = float(max(abs(x[0]), abs(x[-1]))) + self.h
        mass = _simpson(p, dx=self.h)
        mean = _simpson(p * x, dx=self.h)
        second = _simpson(p * x * x, dx=self.h)
        _require_standardized("tabulated density", mass, mean, second)

    @classmethod
    def from_file(cls, density_file) -> "GridDensity":
        """The table in ``density_file``, a UTF-8 CSV of two finite numbers
        x,p a row, after an optional header such as x,p.  A path that is
        not a string, a file that cannot be read and a row that is not two
        numbers are each a one-line ``ValueError`` naming the cause, as is a
        table that :class:`GridDensity` refuses."""
        if not isinstance(density_file, str):
            raise ValueError("grid distribution needs a density_file path")
        import csv  # here, so that ``import renyi_clt`` does not load it

        xs, ps = [], []
        try:
            with open(density_file, newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                for row in reader:
                    # a header such as x,p may come before the first row
                    if not row or not xs and row[0].lstrip().startswith("x"):
                        continue
                    if len(row) != 2:
                        raise ValueError(
                            f"line {reader.line_num} has {len(row)} cells, not the two x,p"
                        )
                    xs.append(float(row[0]))
                    ps.append(float(row[1]))
        except OSError as exc:
            raise ValueError(f"cannot read density_file: {exc}") from exc
        except (ValueError, csv.Error) as exc:  # UnicodeDecodeError included
            raise ValueError(f"malformed density_file: {exc}") from exc
        table = cls(np.array(xs), np.array(ps))
        table.density_file = density_file
        return table

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, self.x, self.p, left=0.0, right=0.0)

    def cf(self, t):
        """Exact characteristic function of the piecewise-linear interpolant.

        On the uniform nodes x0 + j*h the hat basis contributes a factor
        sinc(t*h/(2*pi))**2 to the lattice sum sum_j p_j h exp(i t x_j), which
        also kills the lattice aliases beyond pi/h.  On a ``Lattice`` (every
        call the inversion makes) the sum is a chirp z-transform with step
        (t[-1] - t[0])/(M - 1), computed by FFT in O((J+M) log(J+M)) for J
        nodes and M frequencies; scalars and arrays take the dense O(J*M)
        sum.  Returns an array of the shape of ``t`` (at least 1-d).
        """
        lattice = isinstance(t, Lattice)
        t = np.atleast_1d(np.asarray(t, dtype=float))
        flat = t.ravel()
        out = np.empty(flat.shape, dtype=complex)
        pw = self.p * self.h
        step = (flat[-1] - flat[0]) / max(1, flat.size - 1) if lattice else None
        chunk = _CHIRP_BLOCK if lattice else max(1, 2**22 // self.p.size)
        for lo in range(0, flat.size, chunk):
            ts = flat[lo : lo + chunk]
            if lattice:
                total = _chirp_lattice_sum(pw, self.x[0], self.h, ts[0], step, ts.size)
            else:
                total = np.exp(1j * np.outer(ts, self.x)) @ pw
            out[lo : lo + chunk] = total * np.sinc(ts * self.h / (2 * np.pi)) ** 2
        return out.reshape(t.shape)

    def moments(self, order: int):
        return [
            _simpson(self.p * self.x**k, dx=self.h)
            for k in range(1, order + 1)
        ]


def _chirp_lattice_sum(w: np.ndarray, x0: float, h: float, t0: float,
                       step: float, M: int) -> np.ndarray:
    """sum_j w_j exp(i t_u (x0 + j*h)) for t_u = t0 + u*step, u < M (Bluestein).

    With theta = step*h, the identity uj = (u**2 + j**2 - (u-j)**2)/2 turns
    the sum over j into one linear convolution with the chirp
    exp(-i theta m**2/2), done by FFT at a power-of-two length of at least
    J + M - 1.  The chirps are built from explicit real angles, anchored at
    t0, a lattice's point nearest t = 0: there the transform is largest,
    and the chirp angles, which grow like u**2, are smallest.
    """
    J = w.size
    theta = step * h
    size = 1 << (J + M - 2).bit_length()
    j = np.arange(J, dtype=float)
    u = np.arange(M, dtype=float)
    lag = np.arange(1 - J, M, dtype=float)
    spectrum = np.fft.fft(w * np.exp(1j * (t0 * h * j + 0.5 * theta * j * j)), size)
    spectrum *= np.fft.fft(np.exp(-0.5j * theta * lag * lag), size)
    conv = np.fft.ifft(spectrum)[J - 1 : J - 1 + M]
    return conv * np.exp(1j * ((t0 + step * u) * x0 + 0.5 * theta * u * u))


# every named law: its constructor and the parameter names it takes
LAWS = {
    "uniform": (Uniform, ()),
    "gamma": (StandardizedGamma, ("alpha",)),
    "two_sided_exponential": (TwoSidedExponential, ()),
    "gaussian_mixture": (GaussianMixture, ("weights", "means", "sigmas")),
    "gaussian": (GaussianMixture.standard_normal, ()),
    "grid": (GridDensity.from_file, ("density_file",)),
}


def _law_key(name: str) -> str:
    """The :data:`LAWS` key that ``name`` stands for, in any case and spacing."""
    return name.strip().lower()


def from_name(name: str, **params) -> DistributionSpec:
    """The law ``name`` of :data:`LAWS`, built from exactly its parameters."""
    law = LAWS.get(_law_key(name))
    if law is None:
        raise ValueError(f"unsupported distribution {name!r}")
    build, names = law
    if set(params) != set(names):
        raise ValueError(f"expected parameters {sorted(names)}, got {sorted(params)}")
    return build(**params)
