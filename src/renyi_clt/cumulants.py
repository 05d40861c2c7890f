"""Moment/cumulant conversion for standardized laws.

A standardized law has mean 0 and variance 1, so the moment sequence starts
with alpha_1 = 0, alpha_2 = 1 and the cumulant sequence with gamma_1 = 0,
gamma_2 = 1.  The conversion in both directions is exact when the inputs are
rational.

The cumulant of order k is obtained from the moments by the partition sum

    gamma_k = k! * sum (-1)**(j-1) * (j-1)!
              * prod_i (alpha_i / i!)**r_i / r_i!

running over all tuples (r_1, ..., r_k) of non-negative integers with
r_1 + 2 r_2 + ... + k r_k = k, where j = r_1 + ... + r_k.  For standardized
inputs this yields the familiar low-order identities

    gamma_3 = alpha_3
    gamma_4 = alpha_4 - 3
    gamma_5 = alpha_5 - 10 alpha_3
    gamma_6 = alpha_6 - 15 alpha_4 - 10 alpha_3**2 + 30

(note the *squared* alpha_3 in gamma_6 -- the degree of each monomial in
gamma_k is bounded by k/3 in alpha_3).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

__all__ = [
    "MomentVector",
    "CumulantVector",
    "compositions",
    "double_factorial",
    "cumulants_from_moments",
    "moments_from_cumulants",
    "standard_cumulants",
]


def _check_standardized(v1, v2, labels):
    # float inputs are typically measured (quadrature) values; allow jitter
    exact = not (isinstance(v1, float) or isinstance(v2, float))
    tol = 0 if exact else 1e-7
    if abs(v1) > tol or abs(v2 - 1) > tol:
        raise ValueError(
            f"{labels[0]} must be 0 and {labels[1]} must be 1 "
            f"(got {v1!r}, {v2!r})"
        )


@dataclass(frozen=True)
class MomentVector:
    """Raw moments alpha_1..alpha_m of a standardized law (m >= 2)."""

    values: tuple

    def __post_init__(self):
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 2:
            raise ValueError("insufficient moments (need order >= 2)")
        _check_standardized(vals[0], vals[1], ("alpha_1", "alpha_2"))

    @property
    def order(self) -> int:
        return len(self.values)

    def alpha(self, k: int):
        """Raw moment E X**k, 1 <= k <= order."""
        if not 1 <= k <= self.order:
            raise ValueError(f"moment order {k} outside 1..{self.order}")
        return self.values[k - 1]


@dataclass(frozen=True)
class CumulantVector:
    """Cumulants gamma_1..gamma_m of a standardized law (m >= 2)."""

    values: tuple

    def __post_init__(self):
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 2:
            raise ValueError("insufficient cumulants (need order >= 2)")
        _check_standardized(vals[0], vals[1], ("gamma_1", "gamma_2"))

    @classmethod
    def from_gammas(cls, *gammas) -> "CumulantVector":
        """Build from gamma_3, gamma_4, ... (gamma_1=0 and gamma_2=1 implied)."""
        return cls((0, 1) + tuple(gammas))

    @property
    def order(self) -> int:
        return len(self.values)

    def gamma(self, k: int):
        """Cumulant of order k, 1 <= k <= order."""
        if not 1 <= k <= self.order:
            raise ValueError(f"cumulant order {k} outside 1..{self.order}")
        return self.values[k - 1]

    def require_order(self, m: int) -> None:
        if self.order < m:
            raise ValueError(
                f"insufficient cumulant order: need {m}, have {self.order}"
            )


def _as_values(obj, cls):
    if isinstance(obj, cls):
        return obj.values
    return cls(tuple(obj)).values


@lru_cache(maxsize=None)
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


def double_factorial(k: int) -> int:
    """k!! as an exact integer, with (-1)!! = 0!! = 1."""
    if k < -1:
        raise ValueError("double factorial needs k >= -1")
    return prod(range(k, 0, -2))


def cumulants_from_moments(moments) -> CumulantVector:
    """Convert standardized raw moments to cumulants (exact for rationals)."""
    alpha = _as_values(moments, MomentVector)
    m = len(alpha)
    gammas = [alpha[0], alpha[1]]  # gamma_1 = 0, gamma_2 = 1 by standardization
    for k in range(3, m + 1):
        total = 0
        for parts in compositions(k):
            j = sum(parts)
            term = (-1) ** (j - 1) * Fraction(factorial(j - 1))
            for i, r_i in enumerate(parts, start=1):
                if r_i == 0:
                    continue
                base = alpha[i - 1]
                if base == 0:
                    term = 0
                    break
                term *= (Fraction(1, factorial(i)) * base) ** r_i
                term *= Fraction(1, factorial(r_i))
            if term == 0:
                continue
            total += term
        g = factorial(k) * total
        if isinstance(g, Fraction) and g.denominator == 1:
            g = g.numerator
        gammas.append(g)
    return CumulantVector(tuple(gammas))


def moments_from_cumulants(cumulants) -> MomentVector:
    """Convert cumulants back to raw moments.

    Inverse of :func:`cumulants_from_moments` (exactly so on rational
    inputs), via the recursion
    alpha_n = sum_j C(n-1, j-1) * gamma_j * alpha_{n-j} with alpha_0 = 1.
    """
    gamma = _as_values(cumulants, CumulantVector)
    m = len(gamma)
    alpha = [1]  # alpha_0
    for n in range(1, m + 1):
        a = 0
        for j in range(1, n + 1):
            if gamma[j - 1] == 0:
                continue
            a += comb(n - 1, j - 1) * gamma[j - 1] * alpha[n - j]
        alpha.append(a)
    return MomentVector(tuple(alpha[1:]))


def standard_cumulants(spec, order: int = 6, **params) -> CumulantVector:
    """Cumulants of a named base law (or a DistributionSpec instance).

    ``spec`` is either a distribution name understood by
    :func:`renyi_clt.distributions.from_name` (e.g. ``"uniform"``,
    ``"gamma"`` with ``alpha=...``) or an already-built spec object exposing
    ``moments(order)``, such as the ``GridDensity`` of a tabulated law (it has
    no name).  Moments are exact where the law allows it, so the
    resulting cumulants are exact rationals in those cases.
    """
    from . import distributions  # deferred: distributions imports this module

    if isinstance(spec, str):
        spec = distributions.from_name(spec, **params)
    elif params:
        raise TypeError("params are only accepted together with a spec name")
    alpha = spec.moments(order)
    return cumulants_from_moments(MomentVector(tuple(alpha)))
