"""Moment/cumulant conversion for standardized laws.

A standardized law has mean 0 and variance 1, so the moment sequence starts
with alpha_1 = 0, alpha_2 = 1 and the cumulant sequence with gamma_1 = 0,
gamma_2 = 1.  The cumulant generating function is the log of the moment
generating function, so in exponential generating series

    sum_k gamma_k t**k / k! = log(1 + sum_k alpha_k t**k / k!),

and the moments are the exp of the cumulant series.  Both directions are
one truncated series log or exp, taken in the graded integers of
:mod:`renyi_clt.exactpoly`: float inputs enter at their binary values, and
with c the common denominator of the series, k! c**k l_k = c**k gamma_k
comes out as an integer, so each result is one ``Fraction``, rounded once
to a float for float input.  For standardized inputs
this yields the familiar low-order identities

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
from math import factorial, prod

from .exactpoly import _graded, _graded_exp, _graded_log

__all__ = [
    "MomentVector",
    "CumulantVector",
    "double_factorial",
    "cumulants_from_moments",
    "moments_from_cumulants",
    "standard_cumulants",
]

# the highest moment order that standard_cumulants serves.  What it costs is
# the exact expansion built on top: a cold entropy_expansion took 1.3 ms,
# 44 ms, 0.14 s, 1.1 s, 6.5 s and 30 s on Gamma(4) at orders 8, 20, 24, 32,
# 40 and 48 (0.9 ms, 38 ms, 0.12 s, 0.9 s, 7.9 s and 25 s on the dyadic
# mixture), on a 2-core shared Xeon host with Python 3.11; float cumulants
# enter at their binary values and cost more: 0.8 s and 2.9 s at orders 20
# and 24 on a 4001-node table of that mixture.  The uniform law's moments
# alone took 15 s at order 200.  It must stay at most 63, so that verify's
# scale n**((s-2)/2) is a float for every real s below _MAX_ORDER + 1 and n
# up to numerics.MAX_N = 2**33.
_MAX_ORDER = 24


def _check_standardized(v1, v2, labels):
    # float inputs are typically measured (quadrature) values; allow jitter
    exact = not (isinstance(v1, float) or isinstance(v2, float))
    tol = 0 if exact else 1e-7
    if not (abs(v1) <= tol and abs(v2 - 1) <= tol):  # NaN fails
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


def double_factorial(k: int) -> int:
    """k!! as an exact integer, with (-1)!! = 0!! = 1."""
    if k < -1:
        raise ValueError("double factorial needs k >= -1")
    return prod(range(k, 0, -2))


def _egf(values) -> list:
    """[1, v_1/1!, v_2/2!, ...]: the exponential generating series, each
    value read exactly (a float at its binary value)."""
    return [1] + [Fraction(v) / factorial(k) for k, v in enumerate(values, start=1)]


def _converted(values, recursion, series) -> list:
    """k! s_k for k = 1..len(values), where s is the log or the exp of
    ``series`` and ``recursion`` the graded-integer one of
    :mod:`renyi_clt.exactpoly` that gives k! c**k s_k: an int when
    integral, else a ``Fraction``, when every input value is an int or a
    Fraction; a float, rounded once, otherwise."""
    graded, c = _graded(series)
    out = [Fraction(v[0], c**k) for k, v in enumerate(recursion(graded)) if k]
    if not all(isinstance(v, (int, Fraction)) for v in values):
        return [float(v) for v in out]
    return [v.numerator if v.denominator == 1 else v for v in out]


def cumulants_from_moments(moments) -> CumulantVector:
    """Convert standardized raw moments to cumulants, the log of the moment
    series (exact for rationals).  gamma_1 and gamma_2 are alpha_1 and
    alpha_2 as given."""
    alpha = _as_values(moments, MomentVector)
    gammas = _converted(alpha, _graded_log, _egf(alpha))
    return CumulantVector((alpha[0], alpha[1], *gammas[2:]))


def moments_from_cumulants(cumulants) -> MomentVector:
    """Convert cumulants back to raw moments, the exp of the cumulant series.

    Inverse of :func:`cumulants_from_moments` (exactly so on rational
    inputs).
    """
    gamma = _as_values(cumulants, CumulantVector)
    return MomentVector(tuple(_converted(gamma, _graded_exp, [0, *_egf(gamma)[1:]])))


def standard_cumulants(spec, order: int = 6, **params) -> CumulantVector:
    """Cumulants of a named base law (or a DistributionSpec instance).

    ``spec`` is either a distribution name understood by
    :func:`renyi_clt.distributions.from_name` (e.g. ``"uniform"``,
    ``"gamma"`` with ``alpha=...``) or an already-built spec object exposing
    ``moments(order)``, such as the ``GridDensity`` of a tabulated law (it has
    no name).  Moments are exact where the law allows it, so the
    resulting cumulants are exact rationals in those cases.  An ``order``
    above ``_MAX_ORDER`` is a ``ValueError``, raised before any moment is
    computed; one below 2 is ``MomentVector``'s.
    """
    from . import distributions  # deferred: distributions imports this module

    if order > _MAX_ORDER:
        raise ValueError(f"moment order above the cost ceiling {_MAX_ORDER} of the expansion")

    if isinstance(spec, str):
        spec = distributions.from_name(spec, **params)
    elif params:
        raise TypeError("params are only accepted together with a spec name")
    alpha = spec.moments(order)
    return cumulants_from_moments(MomentVector(tuple(alpha)))
