"""Edgeworth corrections of the standard normal law.

The order-m correction for the density of a normalized sum Z_n of
standardized i.i.d. variables is the signed density

    phi_m(x) = phi(x) * (1 + sum_{k=1}^{m-2} Q_k(x) * n**(-k/2)),

where each correction polynomial is the partition sum

    Q_k(x) = sum 1/(r_1! ... r_k!) * prod_i (gamma_{i+2}/(i+2)!)**r_i
             * H_{k+2j}(x),

running over non-negative (r_1, ..., r_k) with r_1 + 2 r_2 + ... + k r_k = k
and j = r_1 + ... + r_k.

phi_m is exposed as a signed function: it may dip below zero far out in the
tails and no clipping is applied, so that exact integral identities (unit
mass, moment matching) survive.

Each Q_k is built once per (k, gamma_3, ..., gamma_{k+2}) and cached, in
exact arithmetic with float cumulants entering at their binary values, so
the models and the expansion coefficients of one law share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Optional

import numpy as np

from .cumulants import CumulantVector, compositions
from .exactpoly import Poly, hermite

__all__ = [
    "normal_pdf",
    "correction_polynomial",
    "EdgeworthModel",
]

_SQRT_2PI = math.sqrt(2 * math.pi)


def normal_pdf(x):
    """Standard normal density, scalar or array."""
    return np.exp(-0.5 * np.asarray(x, dtype=float) ** 2) / _SQRT_2PI


def _composition_weight(parts, gammas):
    """prod_i (gamma_{i+2}/(i+2)!)**r_i / r_i! for one tuple (r_1..r_k), with
    ``gammas`` = (gamma_3, ..., gamma_{k+2})."""
    w = Fraction(1)
    for i, r_i in enumerate(parts, start=1):
        if r_i == 0:
            continue
        g = gammas[i - 1]
        if g == 0:
            return 0
        w *= (Fraction(1, factorial(i + 2)) * g) ** r_i
        w *= Fraction(1, factorial(r_i))
    return w


def correction_polynomial(k: int, cumulants: CumulantVector) -> Poly:
    """Density-correction polynomial Q_k (exact for rational cumulants): the
    sum over (r_1..r_k) of the composition weight times H_{k+2j}.

    Q_k has degree at most 3k, the parity of k, and vanishes identically when
    gamma_3, ..., gamma_{k+2} all vanish.  It is built once per (k, gamma_3,
    ..., gamma_{k+2}) and cached, so the Edgeworth model, every a_j build and
    the oracles share one Q_k per law.  The key is the ``Fraction`` values
    of the cumulants: a float cumulant enters at its binary value, so Q_k
    has exact coefficients for every law and 1/2 and 0.5 share one build.
    """
    if k < 1:
        raise ValueError("correction index must be positive")
    cumulants.require_order(k + 2)
    return _correction_polynomial(k, tuple(map(Fraction, cumulants.values[2 : k + 2])))


@lru_cache(maxsize=256)
def _correction_polynomial(k: int, gammas: tuple) -> Poly:
    """The partition sum of Q_k over exact ``gammas``."""
    total = Poly()
    for parts in compositions(k):
        w = _composition_weight(parts, gammas)
        if w == 0:
            continue
        total = total + w * hermite(k + 2 * sum(parts))
    return total


@dataclass(frozen=True)
class EdgeworthModel:
    """Correction of order m for a law with the given cumulants.

    Holds the exact polynomials Q_1..Q_{m-2}, taken from the
    :func:`correction_polynomial` cache; evaluation at floats rounds each
    coefficient once (:meth:`~renyi_clt.exactpoly.Poly.float_coeffs` on
    arrays).  Immutable and safe to share across threads.
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

    def correction_factor(self, n: int, x):
        """1 + sum_k Q_k(x) n**(-k/2); the signed density is phi(x) times this."""
        if n < 1:
            raise ValueError("n must be a positive integer")
        acc = 1.0 if isinstance(x, np.ndarray) else 1
        for k, q in enumerate(self.q_polys, start=1):
            if q.is_zero():
                continue
            acc = acc + q(x) * n ** (-k / 2)
        return acc

    def density(self, n: int, x):
        """Signed corrected density phi_m(x) for the given n."""
        return normal_pdf(x) * self.correction_factor(n, x)
