"""Edgeworth corrections of the standard normal law.

The order-m correction for the density of a normalized sum Z_n of
standardized i.i.d. variables is the signed density

    phi_m(x) = phi(x) * (1 + sum_{k=1}^{m-2} Q_k(x) * n**(-k/2)),

where the correction polynomials come from one generating function in a
formal D,

    sum_k Q_k eps**k = exp(sum_{k>=1} gamma_{k+2}/(k+2)! * D**(k+2) eps**k),

with every D**m read as the Chebyshev-Hermite polynomial H_m, as
(-d/dx)**m phi = H_m phi.  So Q_1 = gamma_3/6 H_3 and
Q_2 = gamma_3**2/72 H_6 + gamma_4/24 H_4.

phi_m is exposed as a signed function: it may dip below zero far out in the
tails and no clipping is applied, so that exact integral identities (unit
mass, moment matching) survive.

All the Q_k of one cumulant vector are built together, from one truncated
exp series, and cached, in exact arithmetic with float cumulants entering
at their binary values, so the models and the expansion coefficients of one
law share them.  The series is taken in graded-integer form (see
:mod:`renyi_clt.exactpoly`): with c the common denominator of the
gamma_{k+2}/(k+2)!, its k-th coefficient is the integer monomial
c**k gamma_{k+2}/(k+2)! D**(k+2), the exp gives k! c**k times the eps**k
coefficient as an integer polynomial in D, and reading D**m as H_m gives
Q_k as integers over the one denominator k! c**k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Optional

from ._lazy import np
from .cumulants import CumulantVector
from .exactpoly import Poly, _graded, _graded_exp, _is_array, hermite

__all__ = [
    "normal_pdf",
    "correction_polynomial",
    "EdgeworthModel",
]

_SQRT_2PI = math.sqrt(2 * math.pi)


def normal_pdf(x):
    """Standard normal density, scalar or array."""
    return np.exp(-0.5 * np.asarray(x, dtype=float) ** 2) / _SQRT_2PI


def correction_polynomial(k: int, cumulants: CumulantVector) -> Poly:
    """Density-correction polynomial Q_k (exact for rational cumulants): the
    eps**k coefficient of the module docstring's exp series, D**m read as H_m.

    Q_k has degree at most 3k, the parity of k, and vanishes identically when
    gamma_3, ..., gamma_{k+2} all vanish.  Q_1, ..., Q_{m-2} of an order-m
    cumulant vector are built together once and cached, so the Edgeworth
    model, every a_j build and the oracles share one Q_k per law.  The key is
    the ``Fraction`` values of the cumulants: a float cumulant enters at its
    binary value, so Q_k has exact coefficients for every law and 1/2 and 0.5
    share one build.
    """
    if k < 1:
        raise ValueError("correction index must be positive")
    cumulants.require_order(k + 2)
    return _correction_polynomials(tuple(map(Fraction, cumulants.values[2:])))[k - 1]


@lru_cache(maxsize=64)
def _correction_polynomials(gammas: tuple) -> tuple:
    """(Q_1, ..., Q_K) for exact ``gammas`` = (gamma_3, ..., gamma_{K+2}):
    the exp of the cumulant series in eps, whose coefficients are
    monomials in D, truncated at eps**K, in graded-integer form."""
    scaled, c = _graded([0, *(g / factorial(k + 2) for k, g in enumerate(gammas, start=1))])
    cgf = [[0]] + [[0] * (k + 2) + a for k, a in enumerate(scaled[1:], start=1)]
    qs = []
    for k, series in enumerate(_graded_exp(cgf)[1:], start=1):
        nums = [0] * len(series)
        for m, w in enumerate(series):
            if w:
                for i, h in enumerate(hermite(m).coeffs):
                    nums[i] += w * h
        qs.append(Poly._over(nums, factorial(k) * c**k))
    return tuple(qs)


@dataclass(frozen=True)
class EdgeworthModel:
    """Correction of order m for a law with the given cumulants.

    Holds the exact polynomials Q_1..Q_{m-2}, taken from the
    :func:`correction_polynomial` cache; evaluation at floats rounds each
    coefficient once (:meth:`~renyi_clt.exactpoly.Poly.float_coeffs` on
    arrays).  Immutable and safe to share across threads, with one caveat:
    numpy loads on the first numeric call of the process (see
    :mod:`renyi_clt._lazy`), and on Python 3.10 and 3.11 two threads making
    that call together may see a half-loaded numpy.  Import numpy, or make
    one numeric call, before sharing a model between threads.
    """

    order: int
    cumulants: CumulantVector
    q_polys: tuple

    @classmethod
    def from_cumulants(
        cls, cumulants: CumulantVector, order: Optional[int] = None
    ) -> "EdgeworthModel":
        m = cumulants.order if order is None else order
        if m < 2:
            raise ValueError("order must be at least 2")
        cumulants.require_order(m)
        qs = tuple(correction_polynomial(k, cumulants) for k in range(1, m - 1))
        return cls(order=m, cumulants=cumulants, q_polys=qs)

    def q(self, k: int) -> Poly:
        return self.q_polys[k - 1]

    def correction_factors(self, ns, x):
        """1 + sum_k Q_k(x) n**(-k/2) for each n of ``ns`` in turn, a
        generator over one x: each Q_k(x) is evaluated once for all of them,
        and each factor takes the same operations in the same order as
        :meth:`correction_factor`."""
        ns = list(ns)
        if any(n < 1 for n in ns):
            raise ValueError("n must be a positive integer")
        terms = [(k, q(x)) for k, q in enumerate(self.q_polys, start=1) if not q.is_zero()]
        for n in ns:
            acc = 1.0 if _is_array(x) else 1
            for k, qx in terms:
                acc = acc + qx * n ** (-k / 2)
            yield acc

    def correction_factor(self, n: int, x):
        """1 + sum_k Q_k(x) n**(-k/2); the signed density is phi(x) times this."""
        return next(self.correction_factors((n,), x))

    def densities(self, ns, x):
        """The signed corrected densities phi_m(x) for each n of ``ns`` in
        turn, a generator over one x that takes phi(x) and every Q_k(x)
        once; each equals :meth:`density` at its n."""
        factors = self.correction_factors(ns, x)
        phi = normal_pdf(x)
        for factor in factors:
            yield phi * factor

    def density(self, n: int, x):
        """Signed corrected density phi_m(x) for the given n."""
        return next(self.densities((n,), x))
